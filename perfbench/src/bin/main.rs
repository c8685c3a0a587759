//! End-to-end and per-layer benchmark for the RDI toolkit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|serve_churn|integrate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process: it generates
//! the inputs from the seed, sets the program up (three or five times
//! with `--trace 0`, reporting the median set-up time), measures a
//! closed loop until it holds `--seconds` seconds of timed calls that
//! no steal touched (at most twice that in all), then checks the
//! answers. With `--trace 0` the last line of standard output is a JSON
//! object with the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics. A human-readable table goes to standard error.
//! See `perfbench/README.md` for the workloads and metrics.

mod gen;
mod host;
mod integrate;
mod layers;
mod serve;
mod stats;

use std::process::ExitCode;

/// Worker threads for every parallel call (the bench host has 2 cores).
pub const THREADS: usize = 2;

/// Set-up repetitions per untraced serve run; `setup_s` is their
/// median. `integrate`'s set-up is shorter and repeats more often.
pub const SETUP_REPS: usize = 3;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted and failed inside the measured window.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// The window ends once this many times `--seconds` of timed calls
/// have run, even if steal kept it from collecting `--seconds` of clean
/// ones, so every run ends in time.
pub const WINDOW_CAP: f64 = 2.0;

/// Fewest steal-free operations the latency and throughput figures are
/// taken from; with fewer, they are taken from all operations.
const MIN_CLEAN_OPS: usize = 100;

/// The end-to-end metrics from the set-up times (in reference-speed
/// seconds) and the window's calibrated operations.
pub fn end_to_end(setups: &[f64], ops: &[host::Op], attempted: u64, peak_rss: f64) -> Vec<Metric> {
    let clean: Vec<&host::Op> = ops.iter().filter(|op| op.clean).collect();
    let used = if clean.len() >= MIN_CLEAN_OPS {
        clean
    } else {
        ops.iter().collect()
    };
    let ms: Vec<f64> = used.iter().map(|op| op.scaled * 1e3).collect();
    let ok = |ops: &[&host::Op]| ops.iter().map(|op| op.ok).sum::<u64>() as f64;
    let seconds: f64 = used.iter().map(|op| op.scaled).sum();
    let all: Vec<&host::Op> = ops.iter().collect();
    vec![
        metric("setup_s", stats::median(setups), "s"),
        metric("ops_per_s", stats::ratio(ok(&used), seconds), "ops/s"),
        metric("batch_p50_ms", stats::quantile(&ms, 0.5), "ms"),
        metric("batch_p90_ms", stats::quantile(&ms, 0.9), "ms"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric(
            "success_ratio",
            stats::ratio(ok(&all), attempted as f64),
            "ratio",
        ),
    ]
}

/// A standard-error line describing the measured window.
pub fn window_note(ops: &[host::Op], wall_timed: f64, reference_ms: f64, setups: &[f64]) -> String {
    format!(
        "window: {} timed calls ({} untouched by steal), {wall_timed:.3} s wall-clock, \
         median reference pass {reference_ms:.3} ms (host speed {:.2}x the calibrated one); \
         set-ups {:?} s at reference speed",
        ops.len(),
        ops.iter().filter(|op| op.clean).count(),
        host::REFERENCE_S * 1e3 / reference_ms,
        setups
            .iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    )
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Library calls that resolve their thread count from the
    // environment see the same fixed count as the explicit ones.
    std::env::set_var("RDI_THREADS", THREADS.to_string());

    let outcome = match args.workload.as_str() {
        "serve_hot" => serve::run(&serve::HOT, &args),
        "serve_churn" => serve::run(&serve::CHURN, &args),
        "integrate" => integrate::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} threads={THREADS} host_cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &outcome.notes {
        eprintln!("  {n}");
    }
    for m in &outcome.metrics {
        let target = if args.trace {
            layers::target(&m.name)
        } else {
            ""
        };
        eprintln!("  {:<44} {:>14.4} {:<6} {target}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );

    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation completed");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
