//! The serving workloads, `serve_hot` and `serve_churn`: one closed-loop
//! client submitting batches to a `ServeSession` over a 32-table lake.

use rdi_discovery::{TableSignature, UnionSearchIndex};
use rdi_par::Threads;
use rdi_serve::{
    LakeIndex, LakeIndexConfig, ServeError, ServeRequest, ServeResponse, ServeSession,
    SessionConfig,
};
use rdi_table::Table;

use crate::gen::{self, PoolShape, ServeInputs, ServeStream, LAKE_ROWS, LAKE_TABLES};
use crate::host::{self, Calibrated};
use crate::layers::{self, ProbeInputs, Window};
use crate::stats::{self, Snapshot};
use crate::{metric, Args, Outcome, SETUP_REPS, THREADS};

pub struct ServeWorkload {
    pool: PoolShape,
    /// Total sketch-cache budget, split evenly over the shards.
    cache_bytes: usize,
    /// Apply [`CHURN_EVENTS_PER_BATCH`] balanced append+delete events
    /// before every batch.
    churn: bool,
}

const SHARDS: usize = 8;
const MINHASH_K: usize = 128;
/// Deleted rows a table absorbs before a counted sketch rebuild; low, so
/// that `serve_churn` rebuilds many times, out of phase, in every window.
const DEBT_THRESHOLD: u64 = 32;
/// Latest warm-up batches the steady-state rule looks at. The rule is
/// checked after every batch, so set-up time moves batch by batch with
/// the point where steady state arrives.
const STEADY_WINDOW: usize = 50;
/// Warm-up batches before the steady-state rule may open the window
/// (at least two [`STEADY_WINDOW`]s).
const MIN_WARMUP_BATCHES: usize = 200;
/// Balanced churn events (each ~8 rows appended and as many deleted)
/// applied before every `serve_churn` batch.
const CHURN_EVENTS_PER_BATCH: usize = 2;
/// Stop waiting for steady state after this many warm-up batches, or
/// this many wall-clock seconds of them, and open the window anyway
/// (noted on standard error), so a run always ends in time.
const MAX_WARMUP_BATCHES: usize = 2_000;
const MAX_WARMUP_SECONDS: f64 = 30.0;
/// Keep every `SAMPLE_EVERY`-th window batch for the output checks.
const SAMPLE_EVERY: usize = 61;
const MAX_SAMPLES: usize = 12;

/// Read-only batches; the cache holds every lake and pool sketch.
pub const HOT: ServeWorkload = ServeWorkload {
    pool: PoolShape {
        queries: 256,
        zipf_s: 1.0,
    },
    cache_bytes: 64 << 20,
    churn: false,
};

/// Reads beside balanced writes; the query pool overflows the
/// query-owner shard's cache slice.
pub const CHURN: ServeWorkload = ServeWorkload {
    pool: PoolShape {
        queries: 16_384,
        zipf_s: 0.8,
    },
    cache_bytes: 32 << 20,
    churn: true,
};

impl ServeWorkload {
    pub fn index_config(&self) -> LakeIndexConfig {
        LakeIndexConfig {
            minhash_k: MINHASH_K,
            cache_capacity_bytes: self.cache_bytes,
            shard_count: SHARDS,
            deletion_debt_threshold: DEBT_THRESHOLD,
        }
    }
}

pub fn session_config(seed: u64) -> SessionConfig {
    SessionConfig {
        queue_capacity: 64,
        breaker_threshold: 5,
        breaker_cooldown_ticks: 4,
        threads: Threads::fixed(THREADS),
        seed,
    }
}

fn build_index(config: LakeIndexConfig, tables: Vec<(String, Table)>) -> LakeIndex {
    let mut index = LakeIndex::new(config);
    for (id, t) in tables {
        index
            .register(id, t, 1.0)
            .expect("generated lake tables are valid");
    }
    index
}

/// A set-up session plus the stream it continues with.
struct Served<'a> {
    session: ServeSession,
    stream: ServeStream<'a>,
    warmup_batches: usize,
    /// First warm-up batch that evicted a cache entry.
    fill_batch: Option<usize>,
    steady: bool,
    /// Delta events that failed to apply (a defect).
    delta_errors: u64,
}

/// One timed closed-loop step's results.
struct Step {
    seconds: f64,
    requests: Vec<ServeRequest>,
    responses: Vec<Result<ServeResponse, ServeError>>,
    delta_rows: u64,
    counters: Option<(Snapshot, Snapshot)>,
}

impl Served<'_> {
    /// One closed-loop step; with `trace`, the counters are read just
    /// before and after it, inside the timed interval.
    fn step(&mut self, wl: &ServeWorkload, trace: bool) -> Step {
        let events = if wl.churn { CHURN_EVENTS_PER_BATCH } else { 0 };
        let deltas: Vec<_> = (0..events).map(|_| self.stream.next_delta()).collect();
        let requests = self.stream.next_batch();
        let session = &mut self.session;
        let (seconds, (responses, errors, counters)) = stats::timed(|| {
            let before = trace.then(Snapshot::take);
            let mut errors = 0;
            for (id, pair) in &deltas {
                for d in pair {
                    errors += u64::from(session.index_mut().apply_delta(id, d).is_err());
                }
            }
            let responses = session.submit_batch(&requests).responses;
            (responses, errors, before.map(|b| (b, Snapshot::take())))
        });
        self.delta_errors += errors;
        let delta_rows = deltas
            .iter()
            .flat_map(|(_, pair)| pair)
            .map(|d| d.rows() as u64)
            .sum();
        Step {
            seconds,
            requests,
            responses,
            delta_rows,
            counters,
        }
    }
}

/// Register the lake, then warm up until the steady-state rule holds.
/// Returns the seconds spent in program calls, scaled to reference
/// speed.
fn setup<'a>(wl: &ServeWorkload, inputs: &'a ServeInputs, seed: u64) -> (f64, Served<'a>) {
    let tables = inputs.tables.clone();
    let mut cal = Calibrated::new(THREADS);
    let (secs, index) = stats::timed(|| build_index(wl.index_config(), tables));
    cal.push(secs, 0);
    let mut s = Served {
        session: ServeSession::new(index, session_config(seed)),
        stream: ServeStream::new(inputs, seed),
        warmup_batches: 0,
        fill_batch: None,
        steady: false,
        delta_errors: 0,
    };
    let mut deleted_rows = 0u64;
    let mut wall = 0.0;
    // cache hits, misses and evictions of every warm-up batch
    let mut history: Vec<[u64; 3]> = Vec::new();
    let cache = [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
    ];
    while s.warmup_batches < MAX_WARMUP_BATCHES && wall < MAX_WARMUP_SECONDS {
        let before = cache.map(|name| rdi_obs::counter(name).get());
        let step = s.step(wl, false);
        let after = cache.map(|name| rdi_obs::counter(name).get());
        wall += step.seconds;
        cal.push(step.seconds, 0);
        deleted_rows += step.delta_rows / 2;
        let counts = [0, 1, 2].map(|i| after[i] - before[i]);
        if s.fill_batch.is_none() && counts[2] > 0 {
            s.fill_batch = Some(s.warmup_batches);
        }
        history.push(counts);
        s.warmup_batches += 1;
        if s.warmup_batches >= MIN_WARMUP_BATCHES && steady(wl, &s, &history, deleted_rows) {
            s.steady = true;
            break;
        }
    }
    (host::setup_seconds(&cal.finish().0), s)
}

/// The steady-state rule, over the last [`STEADY_WINDOW`] warm-up
/// batches (and, for the eviction level, the window before them).
fn steady(wl: &ServeWorkload, s: &Served, history: &[[u64; 3]], deleted_rows: u64) -> bool {
    let n = history.len();
    let total = |batches: &[[u64; 3]], i: usize| batches.iter().map(|c| c[i]).sum::<u64>();
    let last = &history[n - STEADY_WINDOW..];
    if wl.churn {
        // past the cache fill point, past the first (synchronised) wave
        // of deletion-debt rebuilds, and evicting at a level rate
        let prev = total(&history[n - 2 * STEADY_WINDOW..n - STEADY_WINDOW], 2) as f64;
        let debt_cycles = deleted_rows / (DEBT_THRESHOLD * LAKE_TABLES as u64);
        let level = (total(last, 2) as f64 - prev).abs() <= 0.15 * prev.max(1.0);
        s.fill_batch.is_some() && debt_cycles >= 2 && level
    } else {
        let hits = total(last, 0) as f64;
        let misses = total(last, 1) as f64;
        stats::ratio(hits, hits + misses) >= 0.99 && total(last, 2) == 0
    }
}

/// Window batches kept for the output checks.
type Sample = (Vec<ServeRequest>, Vec<Result<ServeResponse, ServeError>>);

pub fn run(wl: &ServeWorkload, args: &Args) -> Outcome {
    let inputs = gen::serve_inputs(&wl.pool, args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut served = None;
    for _ in 0..reps {
        drop(served.take());
        let (secs, s) = setup(wl, &inputs, args.seed);
        setups.push(secs);
        served = Some(s);
    }
    let mut s = served.expect("at least one set-up");

    // The measured window: `seconds` of timed batches.
    let mut cal = Calibrated::new(THREADS);
    let mut timed = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples: Vec<Sample> = Vec::new();
    let mut window = Window::default();
    if args.trace {
        window.open();
    }
    let at_open = Snapshot::take();
    let mut batch = 0usize;
    while cal.clean_seconds() < args.seconds && timed < crate::WINDOW_CAP * args.seconds {
        let step = s.step(wl, args.trace && window.trace_next());
        let errs = step.responses.iter().filter(|r| r.is_err()).count() as u64;
        let n = step.requests.len() as u64;
        window.batch(step.seconds, n - errs, step.delta_rows, step.counters);
        timed += step.seconds;
        cal.push(step.seconds, n - errs);
        attempted += n;
        failed += errs;
        if batch.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES {
            samples.push((step.requests, step.responses));
        }
        batch += 1;
    }
    let peak_rss = stats::peak_rss_mb();
    let at_close = Snapshot::take();
    let (ops, reference_ms) = cal.finish();
    if args.trace {
        window.close();
    }

    let check = if wl.churn {
        check_churn(wl, s.session, &samples, args.seed)
    } else {
        check_hot(wl, &inputs, &samples, args.seed)
    };
    let check = check.and_then(|()| match s.delta_errors {
        0 => Ok(()),
        n => Err(format!("{n} delta events failed to apply")),
    });

    let mut notes = vec![
        format!(
            "warm-up: {} batches, cache fill point at batch {}, steady={}",
            s.warmup_batches,
            s.fill_batch.map_or("none".to_string(), |b| b.to_string()),
            s.steady
        ),
        crate::window_note(&ops, timed, reference_ms, &setups),
        {
            let per_batch = |name| at_close.since(&at_open, name) as f64 / batch as f64;
            format!(
                "window per batch: {:.2} cache misses, {:.2} evictions, {:.3} sketch rebuilds",
                per_batch("serve.cache.misses"),
                per_batch("serve.cache.evictions"),
                per_batch("sketch.rebuilds")
            )
        },
        format!(
            "error_ratio = {}",
            stats::ratio(failed as f64, attempted as f64)
        ),
    ];
    if let Err(e) = &check {
        notes.push(format!("CHECK FAILED: {e}"));
    }
    let metrics = if args.trace {
        let probe = ProbeInputs {
            tables: inputs.tables.clone(),
            queries: (0..64).map(|i| inputs.query(i)).collect(),
            deltas: if wl.churn {
                let mut replay = ServeStream::new(&inputs, args.seed);
                (0..256).map(|_| replay.next_delta()).collect()
            } else {
                gen::copy_deltas(&inputs.tables, args.seed, 256)
            },
            coverage: coverage_probes(&inputs, &samples),
            index_config: wl.index_config(),
            query_inserts: query_inserts(&inputs, args.seed, s.fill_batch),
            batch_len: gen::BATCH_LEN,
            seed: args.seed,
        };
        let mut m = layers::window_metrics(&window);
        m.extend(layers::probe_metrics(&probe));
        m.push(metric(
            "serve.cache.fill_point_batch",
            s.fill_batch.map_or(0.0, |b| b as f64),
            "count",
        ));
        m.push(metric("host.reference_ms", reference_ms, "ms"));
        m
    } else {
        crate::end_to_end(&setups, &ops, attempted, peak_rss)
    };
    Outcome {
        correct: check.is_ok() && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The window's coverage probes, as `(table, attributes, threshold)`.
fn coverage_probes(inputs: &ServeInputs, samples: &[Sample]) -> Vec<(Table, Vec<String>, usize)> {
    samples
        .iter()
        .flat_map(|(reqs, _)| reqs)
        .filter_map(|r| match r {
            ServeRequest::CoverageProbe {
                table,
                attributes,
                threshold,
            } => {
                let t = inputs.tables.iter().find(|(id, _)| id == table)?;
                Some((t.1.clone(), attributes.clone(), *threshold))
            }
            _ => None,
        })
        .collect()
}

/// The run's query stream, replayed from its seed: the query tables of
/// every union and joinable request, in arrival order, through the
/// cache fill point and some way beyond it.
fn query_inserts(inputs: &ServeInputs, seed: u64, fill_batch: Option<usize>) -> Vec<(Table, bool)> {
    let mut replay = ServeStream::new(inputs, seed);
    let batches = fill_batch.unwrap_or(0) + 300;
    (0..batches)
        .flat_map(|_| replay.next_batch())
        .filter_map(|r| match r {
            ServeRequest::UnionTopK { query, .. } => Some((query, true)),
            ServeRequest::JoinableTopK { query, .. } => Some((query, false)),
            _ => None,
        })
        .collect()
}

fn fresh_session(wl: &ServeWorkload, tables: &[(String, Table)], seed: u64) -> ServeSession {
    ServeSession::new(
        build_index(wl.index_config(), tables.to_vec()),
        session_config(seed),
    )
}

/// `serve_hot`: sampled window answers equal a fresh session answering
/// the same requests one at a time (tailor runs, whose random stream
/// depends on arrival order, are checked for their invariants instead);
/// one-at-a-time equals batched on the fresh sessions; union rankings
/// equal a cold `UnionSearchIndex`.
fn check_hot(
    wl: &ServeWorkload,
    inputs: &ServeInputs,
    samples: &[Sample],
    seed: u64,
) -> Result<(), String> {
    let mut serial = fresh_session(wl, &inputs.tables, seed);
    let mut batched = fresh_session(wl, &inputs.tables, seed);
    let threads = Threads::fixed(THREADS);
    let mut cold = UnionSearchIndex::new();
    for (id, t) in &inputs.tables {
        cold.insert(
            TableSignature::build_with(id.clone(), t, MINHASH_K, threads)
                .map_err(|e| e.to_string())?,
        );
    }
    for (requests, served) in samples {
        let together = batched.submit_batch(requests).responses;
        for ((req, got), batch_answer) in requests.iter().zip(served).zip(&together) {
            let alone = serial
                .submit_batch(std::slice::from_ref(req))
                .responses
                .remove(0);
            if &alone != batch_answer {
                return Err(format!(
                    "{}: batched answer differs from one-at-a-time",
                    req.kind()
                ));
            }
            match req {
                ServeRequest::TailorRun { problem, .. } => {
                    check_tailored(got, problem.total_required())?
                }
                _ if got != &alone => {
                    return Err(format!(
                        "{}: served answer differs from a fresh session",
                        req.kind()
                    ))
                }
                _ => {}
            }
            if let (ServeRequest::UnionTopK { query, k }, Ok(ServeResponse::UnionTopK(ranking))) =
                (req, got)
            {
                let sig = TableSignature::build_with("query", query, MINHASH_K, threads)
                    .map_err(|e| e.to_string())?;
                if &cold.top_k_with(&sig, *k, threads) != ranking {
                    return Err("union ranking differs from a cold UnionSearchIndex".into());
                }
            }
        }
    }
    Ok(())
}

fn check_tailored(got: &Result<ServeResponse, ServeError>, required: usize) -> Result<(), String> {
    match got {
        Ok(ServeResponse::Tailored(r)) if !r.degraded && r.rows >= required && r.audit_passed => {
            Ok(())
        }
        other => Err(format!(
            "tailor run did not collect {required} rows cleanly: {other:?}"
        )),
    }
}

/// `serve_churn`: after the window, every table kept its size, and the
/// churned index answers the sampled requests (with top-k widened to
/// the whole lake) exactly as an index rebuilt cold from the final
/// tables does.
fn check_churn(
    wl: &ServeWorkload,
    session: ServeSession,
    samples: &[Sample],
    seed: u64,
) -> Result<(), String> {
    let index = session.into_index();
    let tables: Vec<(String, Table)> = index
        .table_ids()
        .into_iter()
        .filter_map(|id| Some((id.to_string(), index.table(id)?.clone())))
        .collect();
    if tables.len() != LAKE_TABLES {
        return Err(format!("{} of {} tables left", tables.len(), LAKE_TABLES));
    }
    if let Some((id, t)) = tables.iter().find(|(_, t)| t.num_rows() != LAKE_ROWS) {
        return Err(format!("{id} drifted to {} rows", t.num_rows()));
    }
    let mut cold = fresh_session(wl, &tables, seed);
    let mut churned = ServeSession::new(index, session_config(seed));
    for (requests, _) in samples {
        // rank every table, so no stale sketch can hide below the top k
        let requests: Vec<ServeRequest> = requests
            .iter()
            .map(|r| match r.clone() {
                ServeRequest::UnionTopK { query, .. } => ServeRequest::UnionTopK {
                    query,
                    k: tables.len(),
                },
                ServeRequest::JoinableTopK { query, column, .. } => ServeRequest::JoinableTopK {
                    query,
                    column,
                    k: tables.len(),
                },
                other => other,
            })
            .collect();
        let a = churned.submit_batch(&requests).responses;
        let b = cold.submit_batch(&requests).responses;
        if a != b {
            return Err("churned index answers differ from a cold rebuild".into());
        }
        if let Some(e) = a.iter().find_map(|r| r.as_ref().err()) {
            return Err(format!("oracle replay failed: {e}"));
        }
    }
    Ok(())
}
