//! Cost-annotated data sources for tailoring.
//!
//! Two layers live here:
//!
//! * [`Source`] — the *fallible* source abstraction: every draw may fail
//!   with a typed [`SourceError`] (`try_draw`), because real federated
//!   sources go down, corrupt records, truncate responses, and stall
//!   (tutorial §1, Ex. 1). `try_draw` is the *only* trait method — the
//!   legacy infallible `draw` shim has been removed; retry/backoff
//!   lives in `rdi_core::run_resilient`, not in sources.
//! * [`TableSource`] — the paper's in-memory model of an external API
//!   (sample a backing table with replacement at a fixed cost). Its
//!   `try_draw` never fails; fault behaviour is layered on by
//!   `rdi-fault`'s `FaultySource` wrapper.

use std::sync::Arc;

use rand::{Rng, RngCore};
use rdi_table::{Column, Schema, Table, TableError, Value};

use crate::problem::DtProblem;

/// One drawn record: the row's target-group index (if any) and its
/// values.
pub type Draw = (Option<usize>, Vec<Value>);

/// Why a single draw against a source failed — the failure taxonomy of
/// federated integration (see DESIGN.md, "Failure taxonomy").
///
/// The variants are ordered from "source is gone" to "source is slow":
/// all four are *transient per-draw verdicts*; deciding whether a source
/// is permanently dead is the resilient executor's job (circuit
/// breaker), not the source's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceError {
    /// The source did not respond at all (connection refused, host down).
    Unavailable,
    /// The source responded with an undecodable or corrupt record.
    Corrupt,
    /// The source returned only part of a record.
    Truncated,
    /// The source stalled past its deadline.
    Timeout,
}

impl SourceError {
    /// Every variant, in stable order (metric and report keys index
    /// into this).
    pub const ALL: [SourceError; 4] = [
        SourceError::Unavailable,
        SourceError::Corrupt,
        SourceError::Truncated,
        SourceError::Timeout,
    ];

    /// Stable lowercase label for metrics and provenance.
    pub fn kind(self) -> &'static str {
        match self {
            SourceError::Unavailable => "unavailable",
            SourceError::Corrupt => "corrupt",
            SourceError::Truncated => "truncated",
            SourceError::Timeout => "timeout",
        }
    }

    /// Position of this variant in [`SourceError::ALL`].
    pub fn index(self) -> usize {
        match self {
            SourceError::Unavailable => 0,
            SourceError::Corrupt => 1,
            SourceError::Truncated => 2,
            SourceError::Timeout => 3,
        }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Unavailable => write!(f, "source unavailable"),
            SourceError::Corrupt => write!(f, "corrupt record"),
            SourceError::Truncated => write!(f, "truncated record"),
            SourceError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for SourceError {}

/// A cost-annotated, possibly-failing record source.
///
/// The trait is object-safe (`&mut dyn RngCore` instead of a generic
/// RNG) so executors can mix source kinds behind one slice. The only
/// drawing method is the fallible [`Source::try_draw`]; the deprecated
/// infallible `draw` default (which retried `try_draw` unboundedly) has
/// been removed. Failure-*aware* callers (retry budgets, circuit
/// breakers, degradation accounting) handle the error — that is what
/// `rdi-core`'s resilient executor does; the infallible-source runners
/// in [`crate::runner`] retry inline because their sources never fail.
pub trait Source {
    /// Source name (stable; used in provenance and audit reports).
    fn name(&self) -> &str;

    /// Per-request cost, charged per *attempt* whether or not a record
    /// comes back.
    fn cost(&self) -> f64;

    /// The schema of the records this source yields.
    fn schema(&self) -> &Schema;

    /// True group frequencies `P_i(g)` over the problem's target groups.
    /// Policies modelling the *unknown*-distribution setting must not
    /// read this.
    fn frequencies(&self) -> &[f64];

    /// Attempt to draw one random record.
    fn try_draw(&mut self, rng: &mut dyn RngCore) -> Result<Draw, SourceError>;
}

/// A source backed by an in-memory table, sampled **with replacement** —
/// the paper's model of querying an external API whose each request
/// returns one random record at a fixed cost.
///
/// Group membership of every row is precomputed against the problem's
/// [`rdi_table::GroupSpec`]; rows in none of the target groups report
/// `None`. The backing table is shared, not copied: sources built from
/// one `Arc<Table>` (as a serving lake does per request) read it in
/// place.
#[derive(Debug, Clone)]
pub struct TableSource {
    name: String,
    table: Arc<Table>,
    cost: f64,
    /// Per-row target-group index (None = not a target group).
    row_group: Vec<Option<usize>>,
    /// True per-group frequencies P_i(g) (fraction of rows in each target
    /// group) — available to *known-distribution* policies only.
    frequencies: Vec<f64>,
}

impl TableSource {
    /// Wrap a table (owned or shared) as a source with per-sample
    /// `cost`.
    ///
    /// Each row's group is found by comparing its cells, borrowed
    /// through [`Column::value_ref`], with the problem's group keys
    /// under [`Value`] equality: exactly the group
    /// [`DtProblem::group_index`] assigns to the row's
    /// [`rdi_table::GroupSpec::key_of`] key, without building one.
    pub fn new(
        name: impl Into<String>,
        table: impl Into<Arc<Table>>,
        cost: f64,
        problem: &DtProblem,
    ) -> rdi_table::Result<Self> {
        let table = table.into();
        if table.is_empty() {
            return Err(TableError::SchemaMismatch("empty source table".into()));
        }
        // `cost > 0.0` phrased via partial_cmp so NaN is rejected too.
        if cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(TableError::SchemaMismatch(
                "source cost must be positive".into(),
            ));
        }
        let cols: Vec<&Column> = problem
            .spec
            .attributes
            .iter()
            .map(|a| table.column(a))
            .collect::<rdi_table::Result<_>>()?;
        let mut counts = vec![0usize; problem.num_groups()];
        let row_group: Vec<Option<usize>> = (0..table.num_rows())
            .map(|i| {
                let g = problem.groups.iter().position(|key| {
                    key.0.len() == cols.len()
                        && key
                            .0
                            .iter()
                            .zip(&cols)
                            .all(|(v, c)| v.as_ref() == c.value_ref(i))
                });
                if let Some(g) = g {
                    counts[g] += 1;
                }
                g
            })
            .collect();
        let n = table.num_rows() as f64;
        let frequencies = counts.iter().map(|&c| c as f64 / n).collect();
        Ok(TableSource {
            name: name.into(),
            table,
            cost,
            row_group,
            frequencies,
        })
    }

    /// Source name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-sample cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// True group frequencies `P_i(g)` over the problem's target groups.
    /// Policies modelling the *unknown*-distribution setting must not read
    /// this.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Draw one random record (uniform with replacement): returns the
    /// row's target-group index (if any) and its values.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (Option<usize>, Vec<Value>) {
        let i = rng.gen_range(0..self.table.num_rows());
        // rdi-lint: allow(R5): `i` is drawn from 0..num_rows, so the row lookup cannot fail
        let row = self.table.row(i).expect("index in range");
        (self.row_group[i], row)
    }

    /// The backing table's schema.
    pub fn schema(&self) -> &rdi_table::Schema {
        self.table.schema()
    }

    /// Number of backing rows.
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }
}

impl Source for TableSource {
    fn name(&self) -> &str {
        TableSource::name(self)
    }

    fn cost(&self) -> f64 {
        TableSource::cost(self)
    }

    fn schema(&self) -> &Schema {
        TableSource::schema(self)
    }

    fn frequencies(&self) -> &[f64] {
        TableSource::frequencies(self)
    }

    /// Never fails: the backing table is in memory, so this is exactly
    /// one call to the inherent [`TableSource::draw`].
    fn try_draw(&mut self, rng: &mut dyn RngCore) -> Result<Draw, SourceError> {
        Ok(TableSource::draw(self, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema};

    fn problem() -> DtProblem {
        DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("a")]), 2),
                (GroupKey(vec![Value::str("b")]), 2),
            ],
        )
    }

    fn table(rows: &[&str]) -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ]);
        let mut t = Table::new(schema);
        for r in rows {
            t.push_row(vec![Value::str(*r)]).unwrap();
        }
        t
    }

    #[test]
    fn frequencies_computed_over_target_groups() {
        let s = TableSource::new("s", table(&["a", "a", "b", "c"]), 1.0, &problem()).unwrap();
        assert_eq!(s.frequencies(), &[0.5, 0.25]);
    }

    #[test]
    fn draw_returns_group_membership() {
        let s = TableSource::new("s", table(&["a", "c"]), 1.0, &problem()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_none = false;
        let mut seen_a = false;
        for _ in 0..100 {
            match s.draw(&mut rng).0 {
                Some(0) => seen_a = true,
                None => seen_none = true,
                other => panic!("unexpected group {other:?}"),
            }
        }
        assert!(seen_none && seen_a);
    }

    #[test]
    fn empty_table_and_bad_cost_rejected() {
        let p = problem();
        assert!(TableSource::new("s", table(&[]), 1.0, &p).is_err());
        assert!(TableSource::new("s", table(&["a"]), 0.0, &p).is_err());
        assert!(TableSource::new("s", table(&["a"]), -1.0, &p).is_err());
    }

    /// Group cells of every type, including null and cells equal
    /// across types (`Bool(true) == Int(1) == Float(1.0)`) or not
    /// (`Float(-0.0) != Int(0)`).
    fn cell(dtype: DataType, pick: usize) -> Value {
        let pool = match dtype {
            DataType::Int => [Value::Int(0), Value::Int(1), Value::Int(2), Value::Null],
            DataType::Float => [
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(1.0),
                Value::Null,
            ],
            DataType::Bool => [
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Null,
            ],
            DataType::Str => [
                Value::str(""),
                Value::str("1"),
                Value::str("é"),
                Value::Null,
            ],
        };
        pool[pick % pool.len()].clone()
    }

    const KEY_CELLS: [fn() -> Value; 8] = [
        || Value::Null,
        || Value::Bool(true),
        || Value::Int(1),
        || Value::Float(1.0),
        || Value::Int(0),
        || Value::Float(-0.0),
        || Value::str(""),
        || Value::str("1"),
    ];

    const DTYPES: [DataType; 4] = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Str,
    ];

    /// A table of 1–2 group columns of any type and a problem whose
    /// 1–4 target keys mix types and nulls (some of the wrong length).
    fn arb_case() -> impl Strategy<Value = (Table, DtProblem)> {
        (1usize..=2, 1usize..40).prop_flat_map(|(d, n)| {
            let types = prop::collection::vec(0usize..4, d);
            let rows = prop::collection::vec(prop::collection::vec(0usize..4, d), n);
            // (length pick, cells): pick 4 gives a key of the wrong length
            let key = (0usize..5, prop::collection::vec(0usize..KEY_CELLS.len(), 3));
            let keys = prop::collection::vec(key, 1..=4);
            (types, rows, keys).prop_map(|(types, rows, keys)| {
                let names: Vec<String> = (0..types.len()).map(|j| format!("g{j}")).collect();
                let fields = names
                    .iter()
                    .zip(&types)
                    .map(|(a, &t)| Field::new(a, DTYPES[t]))
                    .collect();
                let mut t = Table::new(Schema::new(fields));
                for row in rows {
                    let cells = row.iter().zip(&types).map(|(&p, &ty)| cell(DTYPES[ty], p));
                    t.push_row(cells.collect()).unwrap();
                }
                let d = types.len();
                let keys = keys
                    .into_iter()
                    .map(|(pick, cells)| {
                        let len = if pick == 4 { d % 3 + 1 } else { d };
                        let key = cells[..len].iter().map(|&c| KEY_CELLS[c]()).collect();
                        (GroupKey(key), 1)
                    })
                    .collect();
                (t, DtProblem::exact_counts(GroupSpec::new(names), keys))
            })
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Borrowed-cell classification equals building each row's
        /// `GroupKey` with `key_of` and looking it up with `group_index`.
        #[test]
        fn classification_matches_key_of_reference((t, p) in arb_case()) {
            let want: Vec<Option<usize>> = (0..t.num_rows())
                .map(|i| p.group_index(&p.spec.key_of(&t, i).unwrap()))
                .collect();
            let mut counts = vec![0usize; p.num_groups()];
            for g in want.iter().flatten() {
                counts[*g] += 1;
            }
            let freqs: Vec<u64> = counts
                .iter()
                .map(|&c| (c as f64 / t.num_rows() as f64).to_bits())
                .collect();
            let s = TableSource::new("s", t, 1.0, &p).unwrap();
            prop_assert_eq!(&s.row_group, &want);
            let got: Vec<u64> = s.frequencies().iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(got, freqs);
        }
    }

    #[test]
    fn shared_table_is_not_copied() {
        let t = std::sync::Arc::new(table(&["a", "b"]));
        let s = TableSource::new("s", std::sync::Arc::clone(&t), 1.0, &problem()).unwrap();
        assert!(std::sync::Arc::ptr_eq(&s.table, &t));
        assert_eq!(std::sync::Arc::strong_count(&t), 2);
    }

    #[test]
    fn unknown_group_column_rejected() {
        let p = DtProblem::equal_over_values("nope", &["a"], 1);
        assert_eq!(
            TableSource::new("s", table(&["a"]), 1.0, &p).unwrap_err(),
            TableError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn draw_is_uniform_with_replacement() {
        let s = TableSource::new("s", table(&["a", "b"]), 1.0, &problem()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let a = (0..n).filter(|_| s.draw(&mut rng).0 == Some(0)).count();
        let frac = a as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac={frac}");
    }
}
