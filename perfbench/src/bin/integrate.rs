//! The `integrate` workload: a closed loop of resilient pipeline runs.
//! Each run parses three group-skewed CSV sources, wraps them as
//! faulty sources, runs draw/retry → tailor → impute → label → audit,
//! and writes the result back out as CSV.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_cleaning::ImputeStrategy;
use rdi_core::{BuiltPipeline, PipelineBuilder, PipelineResult, RequirementSpec};
use rdi_fault::{FaultSpec, FaultySource, ResilienceConfig};
use rdi_serve::LakeIndexConfig;
use rdi_table::csv::read_csv_str_with_schema;
use rdi_table::{Schema, Table};
use rdi_tailor::{RandomPolicy, TableSource};

use crate::gen::{self, Rng, SOURCE_GROUPS};
use crate::host::{self, Calibrated};
use crate::layers::{self, ProbeInputs, Window};
use crate::stats::{self, Snapshot};
use crate::{metric, Args, Outcome};

const ROWS_PER_SOURCE: usize = 4_000;
/// Share of `x` cells missing in every source.
const MISSING: f64 = 0.2;
/// Rows of every group each run must collect.
const PER_GROUP: usize = 300;
/// Per-attempt fault probability of every source.
const FAULT_RATE: f64 = 0.05;
/// Pipeline runs inside each set-up, before the window opens.
const WARMUP_RUNS: usize = 20;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rows per query table cut from the sources for the layer probes.
const PROBE_QUERY_ROWS: usize = 64;

fn run_seed(seed: u64, run: u64, lane: u64) -> u64 {
    Rng::new(seed, 60_000 + run * 8 + lane).next_u64()
}

fn parse(texts: &[String], schema: &Schema) -> Result<Vec<Table>, String> {
    texts
        .iter()
        .map(|t| read_csv_str_with_schema(t, schema).map_err(|e| e.to_string()))
        .collect()
}

/// The pipeline every run executes, configured from the first source.
fn configure(first: &Table) -> Result<BuiltPipeline, String> {
    let spec = RequirementSpec::default_for(first).map_err(|e| e.to_string())?;
    Ok(
        PipelineBuilder::new(gen::group_problem("group", &SOURCE_GROUPS, PER_GROUP))
            .impute(
                "x",
                ImputeStrategy::HotDeckKnn {
                    features: vec!["y".into(), "z".into()],
                    k: 5,
                },
            )
            .requirements(spec)
            .max_draws(50_000)
            .resilience(ResilienceConfig::default())
            .build(),
    )
}

/// One pipeline run: parse, wrap, run, write.
fn run_once(
    built: &BuiltPipeline,
    texts: &[String],
    schema: &Schema,
    seed: u64,
    run: u64,
) -> Result<(PipelineResult, String), String> {
    let problem = &built.pipeline().problem;
    let mut sources = Vec::with_capacity(texts.len());
    for (s, table) in parse(texts, schema)?.into_iter().enumerate() {
        let cost = 1.0 + 0.5 * s as f64;
        let source =
            TableSource::new(format!("src{s}"), table, cost, problem).map_err(|e| e.to_string())?;
        sources.push(FaultySource::new(
            source,
            FaultSpec::uniform(FAULT_RATE),
            run_seed(seed, run, s as u64),
        ));
    }
    let mut policy = RandomPolicy::new(sources.len());
    let mut rng = StdRng::seed_from_u64(run_seed(seed, run, 7));
    let result = built
        .run(&mut sources, &mut policy, &mut rng)
        .map_err(|e| e.to_string())?;
    let csv = rdi_table::write_csv_string(&result.data);
    Ok((result, csv))
}

/// The CSV output reads back to the same table, and every group got
/// its rows unless the run says it degraded.
fn check_run(result: &PipelineResult, csv: &str) -> Result<(), String> {
    let back = read_csv_str_with_schema(csv, result.data.schema()).map_err(|e| e.to_string())?;
    if back != result.data {
        return Err("CSV output does not read back to the same table".into());
    }
    if result.degraded {
        return Ok(());
    }
    let groups = result.data.column("group").map_err(|e| e.to_string())?;
    for g in SOURCE_GROUPS {
        let n = (0..groups.len())
            .filter(|&i| groups.value(i).as_str() == Some(g))
            .count();
        if n < PER_GROUP {
            return Err(format!(
                "group {g}: {n} rows collected, {PER_GROUP} required"
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let texts = gen::source_csvs(args.seed, ROWS_PER_SOURCE, MISSING);
    let schema = gen::source_schema();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut built = None;
    let mut setup_error = None;
    for _ in 0..reps {
        drop(built.take());
        let mut cal = Calibrated::new(1);
        let b = (|| -> Result<BuiltPipeline, String> {
            let (secs, b) = stats::timed(|| parse(&texts, &schema).and_then(|t| configure(&t[0])));
            cal.push(secs, 0);
            let b = b?;
            for run in 0..WARMUP_RUNS as u64 {
                let (secs, out) = stats::timed(|| run_once(&b, &texts, &schema, args.seed, run));
                cal.push(secs, 0);
                out?;
            }
            Ok(b)
        })();
        setups.push(host::setup_seconds(&cal.finish().0));
        match b {
            Ok(b) => built = Some(b),
            Err(e) => setup_error = Some(e),
        }
    }
    let Some(built) = built else {
        return Outcome {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: vec![format!(
                "set-up failed: {}",
                setup_error.unwrap_or_default()
            )],
        };
    };

    let mut cal = Calibrated::new(1);
    let mut timed = 0.0;
    let (mut attempted, mut failed, mut degraded) = (0u64, 0u64, 0u64);
    let mut check: Result<(), String> = Ok(());
    let mut window = Window::default();
    if args.trace {
        window.open();
    }
    let mut run = WARMUP_RUNS as u64;
    while cal.clean_seconds() < args.seconds && timed < crate::WINDOW_CAP * args.seconds {
        let trace = args.trace && window.trace_next();
        let (secs, (out, counters)) = stats::timed(|| {
            let before = trace.then(Snapshot::take);
            let out = run_once(&built, &texts, &schema, args.seed, run);
            (out, before.map(|b| (b, Snapshot::take())))
        });
        run += 1;
        attempted += 1;
        timed += secs;
        cal.push(secs, u64::from(out.is_ok()));
        window.batch(secs, u64::from(out.is_ok()), 0, counters);
        match out {
            Ok((result, csv)) => {
                degraded += u64::from(result.degraded);
                if check.is_ok() {
                    check = check_run(&result, &csv);
                }
            }
            Err(e) => {
                failed += 1;
                if check.is_ok() {
                    check = Err(format!("run {run} failed: {e}"));
                }
            }
        }
    }
    let peak_rss = stats::peak_rss_mb();
    let (ops, reference_ms) = cal.finish();
    if args.trace {
        window.close();
    }

    let mut notes = vec![
        crate::window_note(&ops, timed, reference_ms, &setups),
        format!("{degraded} of {attempted} runs completed degraded"),
        format!(
            "error_ratio = {}",
            stats::ratio(failed as f64, attempted as f64)
        ),
    ];
    if let Err(e) = &check {
        notes.push(format!("CHECK FAILED: {e}"));
    }
    let metrics = if args.trace {
        let tables: Vec<(String, Table)> = parse(&texts, &schema)
            .expect("sources parsed during set-up")
            .into_iter()
            .enumerate()
            .map(|(s, t)| (format!("src{s}"), t))
            .collect();
        let queries: Vec<Table> = tables
            .iter()
            .flat_map(|(_, t)| {
                (0..20).map(move |c| {
                    let idx: Vec<usize> =
                        (c * PROBE_QUERY_ROWS..(c + 1) * PROBE_QUERY_ROWS).collect();
                    t.take(&idx)
                })
            })
            .collect();
        let coverage = tables
            .iter()
            .flat_map(|(_, t)| {
                [50, 200, 400].map(|thr| {
                    (
                        t.clone(),
                        vec!["group".to_string(), "region".to_string()],
                        thr,
                    )
                })
            })
            .collect();
        let probe = ProbeInputs {
            deltas: gen::copy_deltas(&tables, args.seed, 256),
            query_inserts: queries.iter().map(|q| (q.clone(), true)).collect(),
            queries,
            tables,
            coverage,
            index_config: LakeIndexConfig::default(),
            batch_len: gen::BATCH_LEN,
            seed: args.seed,
        };
        let mut m = layers::window_metrics(&window);
        m.extend(layers::probe_metrics(&probe));
        m.push(metric("serve.cache.fill_point_batch", 0.0, "count"));
        m.push(metric("host.reference_ms", reference_ms, "ms"));
        m
    } else {
        crate::end_to_end(&setups, &ops, attempted, peak_rss)
    };
    Outcome {
        correct: check.is_ok(),
        attempted,
        failed,
        metrics,
        notes,
    }
}
