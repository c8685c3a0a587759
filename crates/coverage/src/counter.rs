//! Pattern match counting.
//!
//! Counting how many tuples match a pattern is the inner loop of MUP
//! discovery. [`PatternCounter`] aggregates the data once into a
//! *value-combination index* (count per distinct full assignment), so a
//! pattern count is a sum over matching combinations — O(#distinct cells)
//! instead of O(#rows) per query, a large win on low-cardinality
//! categorical data.

use std::collections::BTreeMap;

use rdi_table::{Column, Table, TableError, Value, ValueRef};

use crate::pattern::Pattern;

/// Largest supported attribute domain, ∅ included. Codes are `u16` and
/// [`PatternCounter::cardinalities`] reports each domain's size as a
/// `u16`, so a larger domain would wrap and miscount coverage.
pub const MAX_CATEGORIES: usize = u16::MAX as usize;

/// Encodes rows of selected categorical attributes as dense value indices
/// and answers pattern-count queries.
#[derive(Debug, Clone)]
pub struct PatternCounter {
    /// Attribute names, in pattern position order.
    attributes: Vec<String>,
    /// Per-attribute sorted distinct values; a cell value's index in this
    /// vector is its code.
    domains: Vec<Vec<Value>>,
    /// count per distinct full assignment, sorted by assignment.
    cells: Vec<(Vec<u16>, usize)>,
    /// Total rows indexed.
    total: usize,
}

impl PatternCounter {
    /// Build a counter over `attributes` of `table`.
    ///
    /// Null cells are treated as their own category (rendered `∅`), since
    /// dropping them would silently change coverage semantics. An
    /// attribute with more than [`MAX_CATEGORIES`] categories is a
    /// [`TableError::TooManyCategories`].
    ///
    /// Nothing is allocated per row: each attribute is coded in one pass
    /// over its typed column, reading cells as borrowed
    /// [`rdi_table::ValueRef`]s. A counting sort of the row indices by
    /// each attribute, last attribute first, lists the rows in ascending
    /// assignment order, so run-length counting yields the sorted cells.
    pub fn new(table: &Table, attributes: &[&str]) -> rdi_table::Result<Self> {
        if attributes.is_empty() {
            return Err(TableError::SchemaMismatch(
                "coverage needs at least one attribute".into(),
            ));
        }
        let n = table.num_rows();
        let mut domains: Vec<Vec<Value>> = Vec::with_capacity(attributes.len());
        let mut codes: Vec<Vec<u16>> = Vec::with_capacity(attributes.len());
        for a in attributes {
            let (domain, col_codes) = code_column(table.column(a)?, a)?;
            domains.push(domain);
            codes.push(col_codes);
        }
        // Stable counting sort by each attribute, last attribute first:
        // afterwards `order` lists rows by ascending code tuple.
        let mut order: Vec<usize> = (0..n).collect();
        let mut sorted = vec![0usize; n];
        for (col_codes, domain) in codes.iter().zip(&domains).rev() {
            let mut next_slot = vec![0usize; domain.len() + 1];
            for &c in col_codes {
                next_slot[c as usize + 1] += 1;
            }
            for c in 1..next_slot.len() {
                next_slot[c] += next_slot[c - 1];
            }
            for &r in &order {
                let c = col_codes[r] as usize;
                sorted[next_slot[c]] = r;
                next_slot[c] += 1;
            }
            std::mem::swap(&mut order, &mut sorted);
        }
        let same_cell = |a: usize, b: usize| codes.iter().all(|c| c[a] == c[b]);
        let mut cells: Vec<(Vec<u16>, usize)> = Vec::new();
        let mut prev: Option<usize> = None;
        for r in order {
            match (prev, cells.last_mut()) {
                (Some(p), Some((_, count))) if same_cell(p, r) => *count += 1,
                _ => cells.push((codes.iter().map(|c| c[r]).collect(), 1)),
            }
            prev = Some(r);
        }
        Ok(PatternCounter {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            domains,
            cells,
            total: n,
        })
    }

    /// Attribute names in pattern position order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Cardinality of each attribute's domain.
    pub fn cardinalities(&self) -> Vec<u16> {
        self.domains.iter().map(|d| d.len() as u16).collect()
    }

    /// Pattern dimension.
    pub fn dim(&self) -> usize {
        self.domains.len()
    }

    /// Total rows indexed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of tuples matching `pattern`.
    pub fn count(&self, pattern: &Pattern) -> usize {
        self.cells
            .iter()
            .filter(|(cell, _)| pattern.matches(cell))
            .map(|(_, c)| *c)
            .sum()
    }

    /// Decode a pattern into `attr=value` form (wildcards omitted).
    pub fn describe(&self, pattern: &Pattern) -> String {
        let mut parts = Vec::new();
        for (i, p) in pattern.0.iter().enumerate() {
            if let Some(code) = p {
                let v = &self.domains[i][*code as usize];
                let rendered = if v.is_null() {
                    "∅".to_string()
                } else {
                    v.to_string()
                };
                parts.push(format!("{}={}", self.attributes[i], rendered));
            }
        }
        if parts.is_empty() {
            "(any)".to_string()
        } else {
            parts.join(", ")
        }
    }

    /// The concrete [`Value`]s of a fully-specified pattern, usable to
    /// construct a remediation tuple.
    pub fn decode_full(&self, cell: &[u16]) -> Vec<Value> {
        cell.iter()
            .enumerate()
            .map(|(i, &c)| self.domains[i][c as usize].clone())
            .collect()
    }

    /// Iterate over all possible full assignments of the domain (not just
    /// those present in the data) — used by remediation to consider adding
    /// unseen combinations.
    pub fn all_assignments(&self) -> Vec<Vec<u16>> {
        let cards = self.cardinalities();
        let mut out: Vec<Vec<u16>> = vec![Vec::new()];
        for &card in &cards {
            let mut next = Vec::with_capacity(out.len() * card as usize);
            for prefix in &out {
                for v in 0..card {
                    let mut p = prefix.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            out = next;
        }
        out
    }
}

/// Code one attribute column: its domain (sorted distinct non-null
/// values, then [`Value::Null`] if any cell is null) and each row's
/// index into it. Cells are compared as borrowed
/// [`rdi_table::ValueRef`]s; only the domain's values are cloned.
fn code_column(col: &Column, name: &str) -> rdi_table::Result<(Vec<Value>, Vec<u16>)> {
    // distinct non-null value -> order of first appearance
    let mut seen: BTreeMap<ValueRef<'_>, usize> = BTreeMap::new();
    // per row: order of first appearance, `None` for null
    let first: Vec<Option<usize>> = (0..col.len())
        .map(|r| {
            let v = col.value_ref(r);
            (!v.is_null()).then(|| {
                let next = seen.len();
                *seen.entry(v).or_insert(next)
            })
        })
        .collect();
    let categories = seen.len() + usize::from(first.iter().any(Option::is_none));
    if categories > MAX_CATEGORIES {
        return Err(TableError::TooManyCategories {
            column: name.to_string(),
            categories,
            max: MAX_CATEGORIES,
        });
    }
    // Codes below are < categories ≤ MAX_CATEGORIES, so `as u16` is
    // lossless.
    let mut rank = vec![0u16; seen.len()];
    let mut domain = Vec::with_capacity(categories);
    for (code, (v, first_seen)) in seen.into_iter().enumerate() {
        rank[first_seen] = code as u16;
        domain.push(v.to_value());
    }
    let null_code = domain.len() as u16;
    if categories > domain.len() {
        domain.push(Value::Null);
    }
    let codes = first
        .into_iter()
        .map(|f| f.map_or(null_code, |i| rank[i]))
        .collect();
    Ok((domain, codes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("r", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for (g, r) in [("M", "w"), ("M", "w"), ("M", "b"), ("F", "w")] {
            t.push_row(vec![Value::str(g), Value::str(r)]).unwrap();
        }
        t
    }

    #[test]
    fn counts_match_semantics() {
        let c = PatternCounter::new(&table(), &["g", "r"]).unwrap();
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(&Pattern::root(2)), 4);
        // g=M
        assert_eq!(c.count(&Pattern(vec![Some(1), None])), 3);
        // r=b (domain sorted: b < w)
        assert_eq!(c.count(&Pattern(vec![None, Some(0)])), 1);
        // g=F, r=b: absent
        assert_eq!(c.count(&Pattern(vec![Some(0), Some(0)])), 0);
    }

    #[test]
    fn describe_decodes_values() {
        let c = PatternCounter::new(&table(), &["g", "r"]).unwrap();
        assert_eq!(c.describe(&Pattern(vec![Some(0), Some(0)])), "g=F, r=b");
        assert_eq!(c.describe(&Pattern::root(2)), "(any)");
    }

    #[test]
    fn nulls_are_a_category() {
        let schema = Schema::new(vec![Field::new("g", DataType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("M")]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let c = PatternCounter::new(&t, &["g"]).unwrap();
        assert_eq!(c.cardinalities(), vec![2]);
        // null sorts first in Value ordering but we append it last
        let null_code = 1u16;
        assert_eq!(c.count(&Pattern(vec![Some(null_code)])), 1);
        assert!(c.describe(&Pattern(vec![Some(null_code)])).contains('∅'));
    }

    #[test]
    fn all_assignments_enumerates_cross_product() {
        let c = PatternCounter::new(&table(), &["g", "r"]).unwrap();
        let all = c.all_assignments();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn empty_attribute_list_rejected() {
        assert!(PatternCounter::new(&table(), &[]).is_err());
    }

    fn int_table(values: impl IntoIterator<Item = Value>) -> Table {
        let mut t = Table::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        for v in values {
            t.push_row(vec![v]).unwrap();
        }
        t
    }

    #[test]
    fn too_many_categories_is_a_typed_error() {
        // 65,536 distinct values: one more than a u16 cardinality holds
        let t = int_table((0..=MAX_CATEGORIES as i64).map(Value::Int));
        assert_eq!(
            PatternCounter::new(&t, &["k"]).unwrap_err(),
            TableError::TooManyCategories {
                column: "k".into(),
                categories: MAX_CATEGORIES + 1,
                max: MAX_CATEGORIES,
            }
        );
        // ∅ counts as a category
        let t = int_table(
            (0..MAX_CATEGORIES as i64)
                .map(Value::Int)
                .chain(vec![Value::Null; 2]),
        );
        assert!(matches!(
            PatternCounter::new(&t, &["k"]),
            Err(TableError::TooManyCategories { categories, .. }) if categories == MAX_CATEGORIES + 1
        ));
        // exactly at the limit: every code and the cardinality fit
        let t = int_table((0..MAX_CATEGORIES as i64).map(Value::Int));
        let c = PatternCounter::new(&t, &["k"]).unwrap();
        assert_eq!(c.cardinalities(), vec![u16::MAX]);
        let last = Pattern(vec![Some(u16::MAX - 1)]);
        assert_eq!(c.count(&last), 1);
        assert_eq!(c.describe(&last), format!("k={}", MAX_CATEGORIES - 1));
    }

    mod reference {
        //! The Value-based build `PatternCounter::new` replaced: every
        //! cell cloned into a [`Value`], one `Vec<u16>` per row, a
        //! `BTreeMap` keyed by full assignment.
        use super::*;

        pub fn build(table: &Table, attributes: &[&str]) -> PatternCounter {
            let mut domains: Vec<Vec<Value>> = Vec::new();
            for a in attributes {
                let col = table.column(a).unwrap();
                let mut vals: Vec<Value> = (0..table.num_rows())
                    .map(|i| col.value(i))
                    .filter(|v| !v.is_null())
                    .collect();
                vals.sort();
                vals.dedup();
                if col.null_count() > 0 {
                    vals.push(Value::Null);
                }
                domains.push(vals);
            }
            let lookups: Vec<BTreeMap<&Value, u16>> = domains
                .iter()
                .map(|d| d.iter().enumerate().map(|(i, v)| (v, i as u16)).collect())
                .collect();
            let mut counts: BTreeMap<Vec<u16>, usize> = BTreeMap::new();
            let cols: Vec<&Column> = attributes
                .iter()
                .map(|a| table.column(a).unwrap())
                .collect();
            for i in 0..table.num_rows() {
                let cell: Vec<u16> = cols
                    .iter()
                    .zip(&lookups)
                    .map(|(c, l)| l[&c.value(i)])
                    .collect();
                *counts.entry(cell).or_insert(0) += 1;
            }
            PatternCounter {
                attributes: attributes.iter().map(|s| s.to_string()).collect(),
                domains,
                cells: counts.into_iter().collect(),
                total: table.num_rows(),
            }
        }
    }

    /// Same domains (value for value, bit for bit), cells and total.
    fn assert_same_build(got: &PatternCounter, want: &PatternCounter) {
        assert_eq!(got.attributes, want.attributes);
        assert_eq!(got.total, want.total);
        assert_eq!(got.cells, want.cells);
        assert_eq!(got.domains.len(), want.domains.len());
        for (g, w) in got.domains.iter().zip(&want.domains) {
            let g: Vec<String> = g.iter().map(|v| format!("{v:?}")).collect();
            let w: Vec<String> = w.iter().map(|v| format!("{v:?}")).collect();
            assert_eq!(g, w);
        }
    }

    /// Adversarial cells per column type: cross-type-equal numbers,
    /// signed zeros, infinities, extreme integers, empty and non-ASCII
    /// strings.
    fn pool_value(dtype: DataType, pick: usize) -> Value {
        const INTS: [i64; 6] = [-1, 0, 1, 2, i64::MIN, i64::MAX];
        const FLOATS: [f64; 7] = [-0.0, 0.0, 1.0, 2.0, 2.5, f64::INFINITY, -1e300];
        const STRS: [&str; 7] = ["", "a", "A", "é", "日本", "a\u{0}", " "];
        match dtype {
            DataType::Int => Value::Int(INTS[pick % INTS.len()]),
            DataType::Float => Value::Float(FLOATS[pick % FLOATS.len()]),
            DataType::Bool => Value::Bool([true, false][pick % 2]),
            DataType::Str => Value::str(STRS[pick % STRS.len()]),
        }
    }

    const DTYPES: [DataType; 4] = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Str,
    ];

    /// 1–4 attributes of any type (some all-null), 0, 1 or up to 40
    /// rows; pick 8 of 0..9 is a null cell.
    fn arb_table() -> impl Strategy<Value = Table> {
        (1usize..=4, prop_oneof![Just(0usize), Just(1), 2usize..40]).prop_flat_map(|(d, n)| {
            let columns = prop::collection::vec((0usize..4, 0u8..4), d);
            let rows = prop::collection::vec(prop::collection::vec(0usize..9, d), n);
            (columns, rows).prop_map(|(columns, rows)| {
                let fields = columns
                    .iter()
                    .enumerate()
                    .map(|(j, (t, _))| Field::new(format!("a{j}"), DTYPES[*t]))
                    .collect();
                let mut t = Table::new(Schema::new(fields));
                for row in rows {
                    let cells = row
                        .iter()
                        .zip(&columns)
                        .map(|(&pick, &(ty, mode))| {
                            if mode == 0 || pick == 8 {
                                Value::Null
                            } else {
                                pool_value(DTYPES[ty], pick)
                            }
                        })
                        .collect();
                    t.push_row(cells).unwrap();
                }
                t
            })
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_matches_value_based_reference(t in arb_table()) {
            let names: Vec<String> = t.schema().fields().iter().map(|f| f.name.clone()).collect();
            let attrs: Vec<&str> = names.iter().map(String::as_str).collect();
            let got = PatternCounter::new(&t, &attrs).unwrap();
            assert_same_build(&got, &reference::build(&t, &attrs));
            // any attribute order and repeated attributes too
            let rev: Vec<&str> = attrs.iter().rev().chain(attrs.first()).copied().collect();
            assert_same_build(
                &PatternCounter::new(&t, &rev).unwrap(),
                &reference::build(&t, &rev),
            );
        }
    }

    /// Seventeen 16-category attributes: the cardinality product 16^17
    /// overflows a `u64`, so no packed-integer cell key could hold it.
    #[test]
    fn cardinality_product_beyond_u64_matches_reference() {
        let names: Vec<String> = (0..17).map(|j| format!("a{j}")).collect();
        let fields = names.iter().map(|a| Field::new(a, DataType::Int)).collect();
        let mut t = Table::new(Schema::new(fields));
        for r in 0..48i64 {
            t.push_row(
                (0..17)
                    .map(|j| Value::Int((r * (2 * j + 1) + j) % 16))
                    .collect(),
            )
            .unwrap();
        }
        let attrs: Vec<&str> = names.iter().map(String::as_str).collect();
        let got = PatternCounter::new(&t, &attrs).unwrap();
        assert!(got
            .cardinalities()
            .iter()
            .try_fold(1u64, |p, &c| p.checked_mul(c as u64))
            .is_none());
        assert_same_build(&got, &reference::build(&t, &attrs));
    }
}
