//! Measurement helpers: percentiles, process memory, counter deltas.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds spent in `f`, plus its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// The rdi-obs counters the benchmark reads, in one snapshot.
pub const COUNTERS: [&str; 13] = [
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.evictions",
    "sketch.incremental_updates",
    "sketch.rebuilds",
    "policy.decisions",
    "coverage.searches",
    "coverage.nodes_evaluated",
    "executor.retries",
    "tailor.runs",
    "tailor.draws",
    "par.tasks_dispatched",
    "par.parallel_runs",
];

/// Counter values at one instant, in [`COUNTERS`] order.
#[derive(Clone, Copy)]
pub struct Snapshot([u64; COUNTERS.len()]);

impl Snapshot {
    pub fn take() -> Self {
        let mut v = [0u64; COUNTERS.len()];
        for (slot, name) in v.iter_mut().zip(COUNTERS) {
            *slot = rdi_obs::counter(name).get();
        }
        Snapshot(v)
    }

    /// Growth of counter `name` since `earlier`.
    pub fn since(&self, earlier: &Snapshot, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("counter is listed in COUNTERS");
        self.0[i] - earlier.0[i]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
