//! Per-layer metrics for traced runs: rdi-obs counters and spans read
//! over the traced half of the window, plus bench-side timers around
//! each layer's public calls, replaying the workload's own inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdi_coverage::CoverageAnalyzer;
use rdi_discovery::{KmvSketch, MinHash, TableSignature, UnionSearchIndex};
use rdi_par::Threads;
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
use rdi_serve::{
    table_fingerprint, AdmitConfig, Admitter, CacheKey, KeyProfile, LakeIndex, LakeIndexConfig,
    Sketch, SketchCache, SketchKind, TenantId,
};
use rdi_table::{Table, TableDelta};

use crate::host;
use crate::stats::{self, ratio, Snapshot};
use crate::{metric, Metric, THREADS};

/// Bucket bounds of the executor's attempts histogram (as registered
/// by `rdi-core`; the first caller's bounds win).
const ATTEMPT_BOUNDS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// A traced measured window. Every other operation is traced: the
/// bench reads the rdi-obs counters just before and after it, inside
/// its timed interval, so the traced and untraced operations of one
/// window give the tracing overhead without host drift between them.
/// Counter metrics come from the traced operations; span metrics from
/// the spans the program records over the whole window.
#[derive(Default)]
pub struct Window {
    at_open: Option<Snapshot>,
    at_close: Option<Snapshot>,
    spans_start: usize,
    attempts_start: (u64, f64),
    attempts_end: (u64, f64),
    /// Total nanoseconds and record count per span path.
    span_totals: BTreeMap<String, (u64, u64)>,
    span_records: usize,
    /// Counter growth summed over the traced operations.
    traced_counts: BTreeMap<&'static str, u64>,
    batches: u64,
    traced: (u64, u64, f64),
    untraced: (u64, u64, f64),
    traced_delta_rows: u64,
}

fn attempts() -> (u64, f64) {
    let h = rdi_obs::histogram("executor.attempts_per_draw", &ATTEMPT_BOUNDS);
    (h.count(), h.sum())
}

impl Window {
    pub fn open(&mut self) {
        self.spans_start = rdi_obs::global().span_records().len();
        self.attempts_start = attempts();
        self.at_open = Some(Snapshot::take());
    }

    /// Whether the next operation should be traced.
    pub fn trace_next(&self) -> bool {
        self.batches % 2 == 1
    }

    /// Account one timed batch (or pipeline run) that answered `ops`
    /// operations; `counters` holds the snapshots around a traced one.
    pub fn batch(
        &mut self,
        seconds: f64,
        ops: u64,
        delta_rows: u64,
        counters: Option<(Snapshot, Snapshot)>,
    ) {
        self.batches += 1;
        let side = if let Some((before, after)) = counters {
            for name in stats::COUNTERS {
                *self.traced_counts.entry(name).or_default() += after.since(&before, name);
            }
            self.traced_delta_rows += delta_rows;
            &mut self.traced
        } else {
            &mut self.untraced
        };
        side.0 += 1;
        side.1 += ops;
        side.2 += seconds;
    }

    pub fn close(&mut self) {
        self.at_close = Some(Snapshot::take());
        self.attempts_end = attempts();
        let records = rdi_obs::global().span_records();
        let traced = &records[self.spans_start.min(records.len())..];
        self.span_records = traced.len();
        for r in traced {
            let total = self.span_totals.entry(r.path.clone()).or_default();
            total.0 += r.nanos;
            total.1 += 1;
        }
    }

    /// Counter growth over the traced operations.
    fn counter(&self, name: &str) -> f64 {
        self.traced_counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Counter growth over the whole window.
    fn window_counter(&self, name: &str) -> f64 {
        match (&self.at_open, &self.at_close) {
            (Some(a), Some(b)) => b.since(a, name) as f64,
            _ => 0.0,
        }
    }

    /// Total ms and number of the spans whose path ends in `stage`
    /// directly under one of `parents` (or anywhere when `parents` is
    /// empty).
    fn spans(&self, stage: &str, parents: &[&str]) -> (f64, f64) {
        self.span_totals
            .iter()
            .filter(|(path, _)| {
                let mut segs = path.rsplit('/');
                segs.next() == Some(stage)
                    && (parents.is_empty() || segs.next().is_some_and(|p| parents.contains(&p)))
            })
            .fold((0.0, 0.0), |(ms, n), (_, (ns, count))| {
                (ms + *ns as f64 / 1e6, n + *count as f64)
            })
    }

    fn span_ms(&self, stage: &str, parents: &[&str]) -> f64 {
        self.spans(stage, parents).0
    }
}

/// Metrics read from the program's own counters and spans.
pub fn window_metrics(w: &Window) -> Vec<Metric> {
    let traced = w.traced.0 as f64;
    let runs = w.counter("tailor.runs");
    let window_runs = w.window_counter("tailor.runs");
    let batches = w.batches as f64;
    let hits = w.counter("serve.cache.hits");
    let misses = w.counter("serve.cache.misses");
    let delta_rows = w.traced_delta_rows as f64;
    let pipeline = ["pipeline", "serve.tailor"];
    // Tailor runs are root spans on the execute phase's worker threads,
    // overlapping each other and the batch, so they are reported on
    // their own rather than subtracted from the batch.
    let (batch_ms, _) = w.spans("serve.batch", &[]);
    let (tailor_ms, tailor_runs) = w.spans("serve.tailor", &[]);
    vec![
        metric("serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "serve.cache.evictions_per_batch",
            ratio(w.counter("serve.cache.evictions"), traced),
            "count",
        ),
        metric(
            "sketch.incremental_updates_per_delta_row",
            ratio(w.counter("sketch.incremental_updates"), delta_rows),
            "count",
        ),
        metric(
            "sketch.rebuilds_per_delta_row",
            ratio(w.counter("sketch.rebuilds"), delta_rows),
            "count",
        ),
        metric("serve.batch_ms", ratio(batch_ms, batches), "ms"),
        metric(
            "serve.tailor_ms_per_run",
            ratio(tailor_ms, tailor_runs),
            "ms",
        ),
        metric(
            "policy.decisions_per_batch",
            ratio(w.counter("policy.decisions"), traced),
            "count",
        ),
        metric(
            "coverage.nodes_evaluated_per_probe",
            ratio(
                w.counter("coverage.nodes_evaluated"),
                w.counter("coverage.searches"),
            ),
            "count",
        ),
        metric(
            "core.tailor_ms_per_run",
            ratio(w.span_ms("tailor", &pipeline), window_runs),
            "ms",
        ),
        metric(
            "executor.attempts_per_draw",
            ratio(
                w.attempts_end.1 - w.attempts_start.1,
                (w.attempts_end.0 - w.attempts_start.0) as f64,
            ),
            "count",
        ),
        metric(
            "executor.retries_per_run",
            ratio(w.counter("executor.retries"), runs),
            "count",
        ),
        metric(
            "tailor.draws_per_run",
            ratio(w.counter("tailor.draws"), runs),
            "count",
        ),
        metric(
            "core.audit_ms_per_run",
            ratio(w.span_ms("audit", &pipeline), window_runs),
            "ms",
        ),
        metric(
            "cleaning.impute_ms_per_run",
            ratio(w.span_ms("impute", &pipeline), window_runs),
            "ms",
        ),
        metric(
            "profile.label_ms_per_run",
            ratio(w.span_ms("label", &pipeline), window_runs),
            "ms",
        ),
        metric(
            "par.tasks_dispatched_per_batch",
            ratio(w.counter("par.tasks_dispatched"), traced),
            "count",
        ),
        metric(
            "par.parallel_runs_per_batch",
            ratio(w.counter("par.parallel_runs"), traced),
            "count",
        ),
        metric(
            "obs.span_records_per_batch",
            ratio(w.span_records as f64, batches),
            "count",
        ),
        metric(
            "trace.untraced_ops_per_s",
            ratio(w.untraced.1 as f64, w.untraced.2),
            "ops/s",
        ),
        metric(
            "trace.traced_ops_per_s",
            ratio(w.traced.1 as f64, w.traced.2),
            "ops/s",
        ),
    ]
}

/// The workload inputs each layer probe replays.
pub struct ProbeInputs {
    pub tables: Vec<(String, Table)>,
    pub queries: Vec<Table>,
    /// Balanced `(append, delete)` events per table id.
    pub deltas: Vec<(String, [TableDelta; 2])>,
    pub coverage: Vec<(Table, Vec<String>, usize)>,
    pub index_config: LakeIndexConfig,
    /// Query tables in arrival order; `true` for a union request,
    /// `false` for a joinable one on the first column.
    pub query_inserts: Vec<(Table, bool)>,
    pub batch_len: usize,
    pub seed: u64,
}

/// Minimum timed seconds per probe; passes repeat until reached.
const PROBE_SECONDS: f64 = 0.15;

/// Repeat `pass` (which returns `(timed seconds, units)`) until
/// [`PROBE_SECONDS`] have been timed; returns scaled seconds per unit.
fn per_unit(mut pass: impl FnMut() -> (f64, f64)) -> f64 {
    let (mut secs, mut units) = (0.0, 0.0);
    while secs < PROBE_SECONDS {
        let (s, u) = pass();
        secs += s;
        units += u;
        if u == 0.0 {
            break;
        }
    }
    ratio(host::scaled(secs), units)
}

fn key_column(t: &Table) -> String {
    t.schema().fields()[0].name.clone()
}

/// Bench-side timers around the layers' public calls.
pub fn probe_metrics(p: &ProbeInputs) -> Vec<Metric> {
    let threads = Threads::fixed(THREADS);
    let k = p.index_config.minhash_k;
    let mut out = Vec::new();

    // table: CSV write and read
    let texts: Vec<String> = p
        .tables
        .iter()
        .map(|(_, t)| rdi_table::write_csv_string(t))
        .collect();
    let rows: f64 = p.tables.iter().map(|(_, t)| t.num_rows() as f64).sum();
    let write = per_unit(|| {
        let (s, _) = stats::timed(|| {
            for (_, t) in &p.tables {
                std::hint::black_box(rdi_table::write_csv_string(t));
            }
        });
        (s, rows)
    });
    let read = per_unit(|| {
        let (s, _) = stats::timed(|| {
            for text in &texts {
                std::hint::black_box(rdi_table::read_csv_str(text).expect("own output parses"));
            }
        });
        (s, rows)
    });
    out.push(metric("table.csv_read_ns_per_row", read * 1e9, "ns"));
    out.push(metric("table.csv_write_ns_per_row", write * 1e9, "ns"));

    // table: apply_delta on working copies
    let mut copies: BTreeMap<&str, Table> = p
        .tables
        .iter()
        .map(|(id, t)| (id.as_str(), t.clone()))
        .collect();
    let apply = per_unit(|| {
        let (mut secs, mut delta_rows) = (0.0, 0.0);
        for (id, pair) in &p.deltas {
            let t = copies
                .get_mut(id.as_str())
                .expect("delta targets a probe table");
            for d in pair {
                let (s, r) = stats::timed(|| t.apply_delta(d));
                secs += s;
                delta_rows += r.expect("generated deltas apply") as f64;
            }
        }
        (secs, delta_rows)
    });
    out.push(metric("table.apply_delta_ns_per_row", apply * 1e9, "ns"));

    // discovery: sketch builds (signature + key MinHash + KMV)
    let build = per_unit(|| {
        let (s, _) = stats::timed(|| {
            for (id, t) in &p.tables {
                let key = key_column(t);
                std::hint::black_box(
                    TableSignature::build_with(id.clone(), t, k, threads).expect("sketchable"),
                );
                std::hint::black_box(MinHash::from_column(t, &key, k).expect("key column exists"));
                std::hint::black_box(
                    KmvSketch::build(t, &key, None, k).expect("key column exists"),
                );
            }
        });
        (s, rows)
    });
    out.push(metric(
        "discovery.sketch_build_ns_per_row",
        build * 1e9,
        "ns",
    ));

    // discovery: candidate scoring over cached signatures
    let mut index = UnionSearchIndex::new();
    for (id, t) in &p.tables {
        index.insert(TableSignature::build_with(id.clone(), t, k, threads).expect("sketchable"));
    }
    let query_sigs: Vec<TableSignature> = p
        .queries
        .iter()
        .map(|q| TableSignature::build_with("query", q, k, threads).expect("sketchable"))
        .collect();
    let score = per_unit(|| {
        let (s, _) = stats::timed(|| {
            for q in &query_sigs {
                std::hint::black_box(index.top_k_with(q, 10, threads));
            }
        });
        (s, (query_sigs.len() * index.len()) as f64)
    });
    out.push(metric(
        "discovery.score_ns_per_candidate",
        score * 1e9,
        "ns",
    ));

    // serve: the query-owner shard's inserts replayed into a standalone cache
    let lake = LakeIndex::new(p.index_config);
    let slice = lake.shard_cache_capacities()[lake.shard_of(CacheKey::QUERY_OWNER)];
    let mut cache = SketchCache::new(slice);
    let (mut insert_secs, mut inserts) = (0.0, 0u64);
    for (q, union) in &p.query_inserts {
        let key = CacheKey {
            owner: CacheKey::QUERY_OWNER.to_string(),
            fingerprint: table_fingerprint(q),
            kind: if *union {
                SketchKind::Union { k }
            } else {
                SketchKind::Join {
                    column: key_column(q),
                    k,
                }
            },
        };
        if cache.get(&key).is_some() {
            continue;
        }
        let sketch = if *union {
            Sketch::Union(Arc::new(
                TableSignature::build_with(CacheKey::QUERY_OWNER, q, k, threads)
                    .expect("sketchable"),
            ))
        } else {
            let column = key_column(q);
            let distinct = q
                .distinct(&column)
                .expect("column exists")
                .iter()
                .filter(|v| !v.is_null())
                .count();
            Sketch::Join(Arc::new(KeyProfile {
                minhash: MinHash::from_column(q, &column, k).expect("column exists"),
                column,
                distinct,
            }))
        };
        let (s, ()) = stats::timed(|| cache.insert(key, sketch));
        insert_secs += s;
        inserts += 1;
    }
    out.push(metric(
        "serve.cache.insert_us",
        ratio(host::scaled(insert_secs), inserts as f64) * 1e6,
        "us",
    ));
    let resident = cache.len();
    drop(cache);

    // serve: LakeIndex::apply_delta on an index whose sketches are maintained
    let mut lake = LakeIndex::new(p.index_config);
    for (id, t) in &p.tables {
        lake.register(id.clone(), t.clone(), 1.0)
            .expect("probe tables register");
    }
    let query = &p.tables[0].1;
    lake.union_top_k(query, 1).expect("warm union signatures");
    lake.joinable_top_k(query, &key_column(query), 1)
        .expect("warm join profiles");
    let (mut delta_secs, mut calls) = (0.0, 0.0);
    for (id, pair) in &p.deltas {
        for d in pair {
            let (s, r) = stats::timed(|| lake.apply_delta(id, d));
            r.expect("generated deltas apply");
            delta_secs += s;
            calls += 1.0;
        }
    }
    out.push(metric(
        "serve.apply_delta_us",
        ratio(host::scaled(delta_secs), calls) * 1e6,
        "us",
    ));
    drop(lake);

    // serve: admission of one batch
    let mut admitter = Admitter::new(
        AdmitConfig::from_session(&crate::serve::session_config(p.seed)),
        p.seed,
    );
    let tenants = vec![TenantId::default(); p.batch_len];
    let admit = per_unit(|| {
        let (s, _) = stats::timed(|| {
            for _ in 0..100 {
                std::hint::black_box(admitter.admit_batch(&tenants));
            }
        });
        (s, 100.0)
    });
    out.push(metric("serve.admit_us_per_batch", admit * 1e6, "us"));

    // policy: one ranking at lake size and at resident-cache size
    let lake_candidates: Vec<Candidate> = index
        .top_k_with(&query_sigs[0], index.len(), threads)
        .into_iter()
        .map(|(name, s)| Candidate::new(name, Score::F64(s)))
        .collect();
    let cache_candidates: Vec<Candidate> = (0..resident.max(1) as u64)
        .map(|i| Candidate::new(format!("<query>#{i:016x}#union:{k}"), Score::U64(i)))
        .collect();
    for (name, candidates, params, id) in [
        (
            "policy.choose_ns_per_candidate.lake",
            &lake_candidates,
            PolicyParams::new(),
            PolicyId::UNION_RANK,
        ),
        (
            "policy.choose_ns_per_candidate.cache",
            &cache_candidates,
            PolicyParams::new().with("dir", "min"),
            PolicyId::CACHE_EVICT,
        ),
    ] {
        let policy = RankByScore::new(id);
        let per = per_unit(|| {
            let (s, _) = stats::timed(|| std::hint::black_box(policy.choose(candidates, &params)));
            (s, candidates.len() as f64)
        });
        out.push(metric(name, per * 1e9, "ns"));
    }

    // coverage: analyzer construction plus pattern-breaker MUP search
    let mup = per_unit(|| {
        let (s, _) = stats::timed(|| {
            for (t, attrs, threshold) in &p.coverage {
                let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let a = CoverageAnalyzer::new(t, &attrs, *threshold).expect("attributes exist");
                std::hint::black_box(a.mups_pattern_breaker_with(threads));
            }
        });
        (s, p.coverage.len() as f64)
    });
    out.push(metric("coverage.mup_ms_per_probe", mup * 1e3, "ms"));
    out
}

/// The end-to-end metric each layer metric should move, and where it
/// should not (printed beside the traced run's table).
pub fn target(name: &str) -> &'static str {
    match name {
        "table.csv_read_ns_per_row" | "table.csv_write_ns_per_row" => {
            "integrate setup_s, ops_per_s; flat on serve_*"
        }
        "table.apply_delta_ns_per_row" => "serve_churn batch_p50_ms; flat on serve_hot",
        "discovery.sketch_build_ns_per_row" => {
            "serve_churn batch_p50_ms, serve_* setup_s; flat on serve_hot ops_per_s"
        }
        "discovery.score_ns_per_candidate" => "serve_hot batch_p50_ms; flat on integrate",
        "sketch.incremental_updates_per_delta_row" | "sketch.rebuilds_per_delta_row" => {
            "serve_churn; 0 on serve_hot"
        }
        "serve.cache.hit_ratio" => "serve_churn ops_per_s; ~1 on serve_hot",
        "serve.cache.evictions_per_batch" => "serve_churn batch_p90_ms; 0 on serve_hot",
        "serve.cache.insert_us" => "serve_churn batch_p90_ms; flat on serve_hot",
        "serve.apply_delta_us" => "serve_churn; flat on serve_hot",
        "serve.admit_us_per_batch" => "flat on serve_hot",
        "serve.batch_ms" => "serve_hot batch_p50_ms; 0 on integrate",
        "serve.tailor_ms_per_run" => "serve_hot batch_p50_ms; 0 on integrate",
        "serve.cache.fill_point_batch" => "where serve_churn's cache filled; 0 on serve_hot",
        "policy.choose_ns_per_candidate.lake" | "policy.choose_ns_per_candidate.cache" => {
            "serve_hot batch_p50_ms, serve_churn batch_p90_ms; flat on integrate"
        }
        "policy.decisions_per_batch" => "serve_hot",
        "coverage.mup_ms_per_probe" | "coverage.nodes_evaluated_per_probe" => {
            "serve_hot batch_p50_ms; flat on integrate"
        }
        "core.tailor_ms_per_run" => "integrate ops_per_s",
        "executor.attempts_per_draw" | "executor.retries_per_run" | "tailor.draws_per_run" => {
            "integrate"
        }
        "core.audit_ms_per_run" | "profile.label_ms_per_run" => "integrate",
        "cleaning.impute_ms_per_run" => "integrate batch_p50_ms; 0 on serve_*",
        "par.tasks_dispatched_per_batch" | "par.parallel_runs_per_batch" => {
            "serve_hot ops_per_s; flat on integrate"
        }
        "obs.span_records_per_batch" => "serve_hot peak_rss_mb",
        "trace.untraced_ops_per_s" | "trace.traced_ops_per_s" => {
            "tracing overhead: traced vs untraced"
        }
        _ => "",
    }
}
