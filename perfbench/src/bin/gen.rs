//! Seeded input generation. Every table, request, delta and CSV text
//! is a pure function of the workload seed, drawn from the benchmark's
//! own generator so that changes to the library never change the
//! inputs it is measured on.

use rdi_serve::ServeRequest;
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, TableDelta, Value};
use rdi_tailor::DtProblem;

/// SplitMix64: small, fast and fully specified here.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`: streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Approximately standard normal (Irwin–Hall with 12 terms).
    pub fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.unit()).sum::<f64>() - 6.0
    }

    /// Index drawn from unnormalised `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// `n` distinct indices from `0..len`, ascending.
    pub fn distinct_indices(&mut self, n: usize, len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(n);
        while out.len() < n {
            let i = self.range(0, len);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out.sort_unstable();
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf sampler over `0..n` with exponent `s` (index 0 most likely).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Categorical attributes of lake tables, with their domains.
pub const LAKE_ATTRS: [(&str, &[&str]); 4] = [
    ("group", &["maj", "min"]),
    ("region", &["north", "south", "east", "west"]),
    ("tier", &["gold", "silver", "bronze"]),
    ("channel", &["web", "store", "phone", "partner", "mail"]),
];

/// Distinct join keys shared by lake tables and queries.
const KEY_POOL: usize = 8_000;

pub fn lake_schema() -> Schema {
    let mut fields = vec![Field::new("key", DataType::Str).with_role(Role::Id)];
    for (i, (name, _)) in LAKE_ATTRS.iter().enumerate() {
        let f = Field::new(*name, DataType::Str);
        fields.push(if i == 0 {
            f.with_role(Role::Sensitive)
        } else {
            f
        });
    }
    fields.push(Field::new("x", DataType::Float));
    Schema::new(fields)
}

/// Per-table category weights: every table leans differently, so
/// coverage probes find different uncovered patterns per table.
fn lake_weights(rng: &mut Rng) -> Vec<Vec<f64>> {
    LAKE_ATTRS
        .iter()
        .enumerate()
        .map(|(a, (_, dom))| {
            (0..dom.len())
                .map(|i| {
                    // the sensitive attribute keeps a ~1/3 minority share
                    if a == 0 {
                        [2.0, 1.0][i]
                    } else {
                        0.05 + rng.unit().powi(2)
                    }
                })
                .collect()
        })
        .collect()
}

fn lake_rows(rng: &mut Rng, weights: &[Vec<f64>], n: usize) -> Table {
    let mut t = Table::with_capacity(lake_schema(), n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(6);
        row.push(Value::str(format!("k{:05}", rng.range(0, KEY_POOL))));
        for ((_, dom), w) in LAKE_ATTRS.iter().zip(weights) {
            row.push(Value::str(dom[rng.weighted(w)]));
        }
        row.push(Value::Float(rng.normal()));
        t.push_row(row)
            .expect("row literal matches the lake schema");
    }
    t
}

/// Requests of each of the four kinds (union top-k, joinable top-k,
/// coverage probe, tailor run) per batch. The mix is the one of the
/// repository's serving-session generator (`rdi-datagen`'s `gen_op`
/// draws the four kinds uniformly), stratified so that every batch holds
/// exactly a quarter of each and does comparable work.
pub const PER_KIND_PER_BATCH: usize = 8;
pub const BATCH_LEN: usize = 4 * PER_KIND_PER_BATCH;
pub const TOP_K: usize = 5;

/// Lake tables and rows per table of both serving workloads. Deltas
/// keep every table at `LAKE_ROWS`.
pub const LAKE_TABLES: usize = 32;
pub const LAKE_ROWS: usize = 2_000;

/// The query pool of a serving workload.
pub struct PoolShape {
    pub queries: usize,
    pub zipf_s: f64,
}

/// The lake and query pool a serving workload runs over.
pub struct ServeInputs {
    pub tables: Vec<(String, Table)>,
    seed: u64,
    pool_weights: Vec<Vec<f64>>,
    zipf: Zipf,
    /// Per-table category weights, for generating appended rows.
    weights: Vec<Vec<Vec<f64>>>,
}

pub fn serve_inputs(pool: &PoolShape, seed: u64) -> ServeInputs {
    let mut weights = Vec::with_capacity(LAKE_TABLES);
    let mut tables = Vec::with_capacity(LAKE_TABLES);
    for i in 0..LAKE_TABLES {
        let mut rng = Rng::new(seed, 1 + i as u64);
        let w = lake_weights(&mut rng);
        tables.push((format!("lake{i:02}"), lake_rows(&mut rng, &w, LAKE_ROWS)));
        weights.push(w);
    }
    ServeInputs {
        tables,
        seed,
        pool_weights: lake_weights(&mut Rng::new(seed, 10_000)),
        zipf: Zipf::new(pool.queries, pool.zipf_s),
        weights,
    }
}

impl ServeInputs {
    /// Query `i` of the pool: 8–32 rows over four of the lake columns.
    /// Generated on demand (always the same table for the same `i`), so
    /// a large pool costs no memory.
    pub fn query(&self, i: usize) -> Table {
        let mut rng = Rng::new(self.seed, 100_000 + i as u64);
        let n = rng.range(8, 33);
        lake_rows(&mut rng, &self.pool_weights, n)
            .select(&["key", "group", "region", "x"])
            .expect("pool columns exist")
    }
}

/// At least `n` rows of every value of `attr`.
pub fn group_problem(attr: &str, values: &[&str], n: usize) -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec![attr]),
        values
            .iter()
            .map(|v| (GroupKey(vec![Value::str(*v)]), n))
            .collect(),
    )
}

/// The endless, seeded request and delta streams of a serving workload.
pub struct ServeStream<'a> {
    inputs: &'a ServeInputs,
    requests: Rng,
    deltas: Rng,
}

impl<'a> ServeStream<'a> {
    pub fn new(inputs: &'a ServeInputs, seed: u64) -> Self {
        ServeStream {
            inputs,
            requests: Rng::new(seed, 20_000),
            deltas: Rng::new(seed, 30_000),
        }
    }

    /// The next batch: [`PER_KIND_PER_BATCH`] each of union and
    /// joinable top-k over Zipf-drawn pool queries, coverage probes and
    /// small tailor runs, in shuffled order.
    pub fn next_batch(&mut self) -> Vec<ServeRequest> {
        let rng = &mut self.requests;
        let inputs = self.inputs;
        let tables = &inputs.tables;
        let mut batch = Vec::with_capacity(BATCH_LEN);
        for _ in 0..PER_KIND_PER_BATCH {
            batch.push(ServeRequest::UnionTopK {
                query: inputs.query(inputs.zipf.sample(rng)),
                k: TOP_K,
            });
        }
        for _ in 0..PER_KIND_PER_BATCH {
            batch.push(ServeRequest::JoinableTopK {
                query: inputs.query(inputs.zipf.sample(rng)),
                column: "key".to_string(),
                k: TOP_K,
            });
        }
        for _ in 0..PER_KIND_PER_BATCH {
            let mut attrs: Vec<String> = LAKE_ATTRS.iter().map(|(a, _)| a.to_string()).collect();
            rng.shuffle(&mut attrs);
            attrs.truncate(rng.range(2, 5));
            batch.push(ServeRequest::CoverageProbe {
                table: tables[rng.range(0, tables.len())].0.clone(),
                attributes: attrs,
                threshold: rng.range(10, 60),
            });
        }
        for _ in 0..PER_KIND_PER_BATCH {
            let a = rng.range(0, tables.len());
            let b = (a + rng.range(1, tables.len())) % tables.len();
            batch.push(ServeRequest::TailorRun {
                problem: group_problem("group", &["maj", "min"], rng.range(5, 21)),
                sources: vec![tables[a].0.clone(), tables[b].0.clone()],
                max_draws: 2_000,
            });
        }
        rng.shuffle(&mut batch);
        batch
    }

    /// The next churn event: append `n` fresh rows to one table and
    /// delete `n` of its rows, so every table keeps its size.
    pub fn next_delta(&mut self) -> (String, [TableDelta; 2]) {
        let rng = &mut self.deltas;
        let t = rng.range(0, self.inputs.tables.len());
        let n = rng.range(4, 13);
        let append = lake_rows(rng, &self.inputs.weights[t], n);
        let delete = rng.distinct_indices(n, LAKE_ROWS);
        (
            self.inputs.tables[t].0.clone(),
            [TableDelta::Append(append), TableDelta::Delete(delete)],
        )
    }
}

/// Generic balanced deltas over any tables: append copies of `n`
/// existing rows, then delete `n` rows. Used to probe the delta layers
/// on workloads that do not churn.
pub fn copy_deltas(
    tables: &[(String, Table)],
    seed: u64,
    events: usize,
) -> Vec<(String, [TableDelta; 2])> {
    let mut rng = Rng::new(seed, 40_000);
    (0..events)
        .map(|_| {
            let (id, t) = &tables[rng.range(0, tables.len())];
            let n = rng.range(4, 13);
            let append = t.take(&rng.distinct_indices(n, t.num_rows()));
            let delete = rng.distinct_indices(n, t.num_rows());
            (
                id.clone(),
                [TableDelta::Append(append), TableDelta::Delete(delete)],
            )
        })
        .collect()
}

/// Group values of integration sources, and each source's skew.
pub const SOURCE_GROUPS: [&str; 3] = ["a", "b", "c"];
const SOURCE_SKEW: [[f64; 3]; 3] = [[0.70, 0.25, 0.05], [0.30, 0.60, 0.10], [0.45, 0.20, 0.35]];

pub fn source_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Str).with_role(Role::Id),
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("region", DataType::Str),
        Field::new("y", DataType::Float),
        Field::new("z", DataType::Float),
        Field::new("x", DataType::Float),
    ])
}

/// Group-skewed integration sources with `missing` of `x` missing,
/// rendered as CSV text (the form in which the program receives them).
/// Group shares and the missing share are exact, so every seed asks the
/// pipeline for the same amount of work; only the values differ.
pub fn source_csvs(seed: u64, rows: usize, missing: f64) -> Vec<String> {
    SOURCE_SKEW
        .iter()
        .enumerate()
        .map(|(s, skew)| {
            let mut rng = Rng::new(seed, 50_000 + s as u64);
            let mut groups: Vec<usize> = skew
                .iter()
                .enumerate()
                .flat_map(|(g, share)| {
                    std::iter::repeat_n(g, (share * rows as f64).round() as usize)
                })
                .collect();
            groups.resize(rows, 0);
            rng.shuffle(&mut groups);
            let mut absent: Vec<bool> = (0..rows)
                .map(|r| r < (missing * rows as f64).round() as usize)
                .collect();
            rng.shuffle(&mut absent);
            let mut t = Table::with_capacity(source_schema(), rows);
            for (r, (&g, &absent)) in groups.iter().zip(&absent).enumerate() {
                let y = rng.normal() + g as f64;
                let z = rng.normal();
                let x = if absent {
                    Value::Null
                } else {
                    Value::Float(0.5 * y - 0.3 * z + 0.2 * rng.normal())
                };
                t.push_row(vec![
                    Value::str(format!("s{s}r{r:06}")),
                    Value::str(SOURCE_GROUPS[g]),
                    Value::str(LAKE_ATTRS[1].1[rng.range(0, 4)]),
                    Value::Float(y),
                    Value::Float(z),
                    x,
                ])
                .expect("row literal matches the source schema");
            }
            rdi_table::write_csv_string(&t)
        })
        .collect()
}
