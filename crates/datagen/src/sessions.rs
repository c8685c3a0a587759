//! Serve-agnostic request ops over a seeded shared lake.
//!
//! [`SessionOp`] mirrors the serving layer's request type with plain
//! tables, ids, and a [`DtProblem`]: consumers map an op onto their own
//! request type, keeping the dependency arrow pointing from the serving
//! layer to the generator and never back. The [`crate::tenants`]
//! generator builds its per-tenant request streams from these ops over
//! the lake built here.
//!
//! A configurable [`SessionWorkloadConfig::poison_rate`] mixes in
//! requests that target unregistered tables — deterministic failures
//! that exercise admission-control and breaker paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdi_par::stream_seed;
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::DtProblem;

use crate::rng::normal;

/// The request-mix knobs [`SessionOp`] generation reads.
#[derive(Debug, Clone)]
pub struct SessionWorkloadConfig {
    /// Size of the shared key pool — smaller pools create more key
    /// overlap (more interesting discovery answers).
    pub key_pool: usize,
    /// Top-k for union/joinability requests.
    pub top_k: usize,
    /// Probability that a generated request targets an unregistered
    /// table — a deterministic failure that feeds session breakers.
    pub poison_rate: f64,
}

impl Default for SessionWorkloadConfig {
    fn default() -> Self {
        SessionWorkloadConfig {
            key_pool: 400,
            top_k: 3,
            poison_rate: 0.12,
        }
    }
}

/// One serve-agnostic request. Mirrors the shape of the serving
/// layer's request type without depending on it.
#[derive(Debug, Clone)]
pub enum SessionOp {
    /// Rank lake tables by unionability with an ad-hoc query table.
    Union {
        /// The query table.
        query: Table,
        /// How many results to keep.
        k: usize,
    },
    /// Rank lake tables by estimated join-key containment.
    Joinable {
        /// The query table.
        query: Table,
        /// Join-key column (present in every generated table).
        column: String,
        /// How many results to keep.
        k: usize,
    },
    /// Probe a registered table for uncovered group patterns.
    Coverage {
        /// Target table id (may be unregistered when poisoned).
        table: String,
        /// Pattern attributes.
        attributes: Vec<String>,
        /// Minimum count for a pattern to be covered.
        threshold: usize,
    },
    /// Run distribution tailoring over registered sources.
    Tailor {
        /// The tailoring problem.
        problem: DtProblem,
        /// Source table ids, in draw order.
        sources: Vec<String>,
        /// Draw budget.
        max_draws: usize,
    },
}

impl SessionOp {
    /// Stable label for metrics and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionOp::Union { .. } => "union",
            SessionOp::Joinable { .. } => "joinable",
            SessionOp::Coverage { .. } => "coverage",
            SessionOp::Tailor { .. } => "tailor",
        }
    }
}

/// The shared lake schema: a join key, a sensitive group column, and a
/// measurement — one schema serves discovery, coverage, and tailoring
/// ops alike.
fn lake_schema() -> Schema {
    Schema::new(vec![
        Field::new("key", DataType::Str).with_role(Role::Id),
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ])
}

/// Generate `n` rows over the shared key pool with a ~1/3 minority
/// group share.
fn gen_rows<R: Rng + ?Sized>(rng: &mut R, n: usize, key_pool: usize) -> Table {
    let mut t = Table::with_capacity(lake_schema(), n);
    for _ in 0..n {
        let key = format!("k{:05}", rng.gen_range(0..key_pool.max(1)));
        let group = if rng.gen_range(0..3u8) == 0 {
            "min"
        } else {
            "maj"
        };
        t.push_row(vec![
            Value::str(key),
            Value::str(group),
            Value::Float(normal(rng, 0.0, 1.0)),
        ])
        // rdi-lint: allow(R5): row literal matches the schema built above
        .expect("schema match");
    }
    t
}

/// The tailoring problem every generated `Tailor` op uses: at least
/// `per_group` rows of each group.
fn tailor_problem(per_group: usize) -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), per_group),
            (GroupKey(vec![Value::str("min")]), per_group),
        ],
    )
}

/// Generate one request from a session's private stream.
pub(crate) fn gen_op<R: Rng + ?Sized>(
    rng: &mut R,
    config: &SessionWorkloadConfig,
    table_ids: &[String],
) -> SessionOp {
    let poisoned = rng.gen::<f64>() < config.poison_rate;
    let pick = |rng: &mut R| table_ids[rng.gen_range(0..table_ids.len())].clone();
    match rng.gen_range(0..4u8) {
        0 => {
            let n = 1 + rng.gen_range(0..8usize);
            SessionOp::Union {
                query: gen_rows(rng, n, config.key_pool),
                k: config.top_k,
            }
        }
        1 => {
            let n = 1 + rng.gen_range(0..8usize);
            SessionOp::Joinable {
                query: gen_rows(rng, n, config.key_pool),
                column: "key".to_string(),
                k: config.top_k,
            }
        }
        2 => SessionOp::Coverage {
            table: if poisoned {
                format!("ghost{:02}", rng.gen_range(0..100))
            } else {
                pick(rng)
            },
            attributes: vec!["group".to_string()],
            threshold: 1 + rng.gen_range(0..8usize),
        },
        _ => {
            let mut sources = vec![pick(rng)];
            if poisoned {
                sources.push(format!("ghost{:02}", rng.gen_range(0..100)));
            } else if table_ids.len() > 1 {
                // a second distinct source keeps draw policies honest
                let mut other = pick(rng);
                while other == sources[0] {
                    other = pick(rng);
                }
                sources.push(other);
            }
            SessionOp::Tailor {
                problem: tailor_problem(1 + rng.gen_range(0..5usize)),
                sources,
                max_draws: 2_000,
            }
        }
    }
}

/// Build the shared lake: table `i` draws from RNG stream `i + 1`
/// (via [`stream_seed`]), so every table is a pure function of
/// `(dims, seed)`.
pub(crate) fn lake_tables(
    num_tables: usize,
    rows_per_table: usize,
    key_pool: usize,
    seed: u64,
) -> Vec<(String, Table)> {
    let mut tables = Vec::with_capacity(num_tables);
    for i in 0..num_tables {
        let mut trng = StdRng::seed_from_u64(stream_seed(seed, i as u64 + 1));
        tables.push((
            format!("lake{i:02}"),
            gen_rows(&mut trng, rows_per_table, key_pool),
        ));
    }
    tables
}
