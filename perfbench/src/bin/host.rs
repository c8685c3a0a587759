//! Host-speed calibration.
//!
//! The bench host is a shared 2-core VM whose speed swings by up to 2×
//! within seconds as neighbours come and go. Thread CPU time mostly
//! tracks wall time (a contended core simply runs slower), so CPU time
//! cannot filter the swings out. Every time figure the benchmark
//! reports is therefore scaled to a fixed host speed: after each ~25 ms
//! of timed work the bench runs a small reference computation of its
//! own, and each timed interval is multiplied by `REFERENCE_S / t_ref`,
//! where `t_ref` is the median of the five latest reference timings.
//! For the serve workloads, whose batches run on both cores, the pass
//! runs on both cores at once and the slower of the two counts.
//!
//! Steal (the hypervisor running another guest while a vCPU waits)
//! arrives in short bursts, within episodes of tens of seconds; the
//! bursts are too short for the reference median to see. So every
//! reference sample also reads the VM's steal counter, and
//! the operations of a segment in which time was stolen are marked; the
//! latency and throughput figures are taken from the unmarked ones,
//! and a marked warm-up operation of a set-up counts at the cost of its
//! unmarked neighbours.
//!
//! The reference uses no library code and allocates nothing after its
//! first call, so no change to the program can change how fast it runs;
//! only the host can.

use std::cell::RefCell;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats;

/// One reference pass on the bench host when it is quiet, in seconds.
/// Scaled figures read as times on a host running at that speed.
pub const REFERENCE_S: f64 = 1.0e-3;

/// Sample the host speed after at least this much timed work.
const SAMPLE_EVERY_S: f64 = 0.025;

const REFERENCE_LEN: usize = 16_384;

/// Time one reference pass: sort a fixed pseudo-random array four times
/// and hash it (~1 ms, L2-resident, no allocation after the first call).
pub fn reference() -> f64 {
    thread_local! {
        static BUFS: RefCell<(Vec<u64>, Vec<u64>)> = RefCell::new({
            let mut x = 0x1234_5678_u64;
            let template: Vec<u64> = (0..REFERENCE_LEN)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            (template.clone(), template)
        });
    }
    BUFS.with(|b| {
        let (template, work) = &mut *b.borrow_mut();
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..4 {
            work.copy_from_slice(template);
            work.sort_unstable();
            for v in work.iter() {
                acc = (acc ^ v).wrapping_mul(0x100_0000_01b3);
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    })
}

/// `secs` of timed work just finished, scaled to reference speed with
/// one fresh reference sample (for the per-layer probes).
pub fn scaled(secs: f64) -> f64 {
    secs * REFERENCE_S / reference()
}

/// A second thread that runs a reference pass whenever asked, so the
/// host speed can be sampled on both cores at once.
struct Helper {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Self {
        let (go, wake) = mpsc::channel::<()>();
        let (report, done) = mpsc::channel();
        let work = move || while wake.recv().is_ok() && report.send(reference()).is_ok() {};
        // rdi-lint: allow(R2): a calibration thread of the benchmark binary, not library parallelism
        let thread = std::thread::spawn(work);
        Helper {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }

    /// One reference pass on each core at once; the slower one counts,
    /// as the slower core sets the pace of a parallel phase.
    fn paired(&self) -> f64 {
        let go = self.go.as_ref().expect("the helper runs until dropped");
        go.send(()).expect("the helper thread is alive");
        let mine = reference();
        let theirs = self.done.recv().expect("the helper thread reports");
        mine.max(theirs)
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.go.take());
        if let Some(thread) = self.thread.take() {
            // a panicked helper has nothing left to clean up
            thread.join().ok();
        }
    }
}

/// CPU time stolen from this VM so far, summed over its CPUs, in
/// seconds: the `steal` column of `/proc/stat` (in 1/100 s ticks), or 0
/// where the kernel does not report it.
fn stolen_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Untouched neighbours on either side that stand in for a set-up
/// operation steal touched.
const STEAL_REACH: usize = 10;

/// Total scaled seconds of a set-up. `ops[0]` (registration, or CSV
/// parsing and configuration) counts as measured. Each later warm-up
/// operation that steal touched counts at the median of the untouched
/// ones among its [`STEAL_REACH`] nearest warm-up operations on either
/// side, or as measured when none of them is untouched. Warm-up cost
/// changes only slowly from one operation to the next, so the
/// neighbours stand in for the time steal took.
pub fn setup_seconds(ops: &[Op]) -> f64 {
    let Some((first, warmup)) = ops.split_first() else {
        return 0.0;
    };
    let warm: f64 = warmup
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if op.clean {
                return op.scaled;
            }
            let near =
                &warmup[i.saturating_sub(STEAL_REACH)..(i + STEAL_REACH + 1).min(warmup.len())];
            let clean: Vec<f64> = near.iter().filter(|o| o.clean).map(|o| o.scaled).collect();
            if clean.is_empty() {
                op.scaled
            } else {
                stats::median(&clean)
            }
        })
        .sum();
    first.scaled + warm
}

/// One timed operation after calibration.
pub struct Op {
    /// Its wall time scaled to reference speed.
    pub scaled: f64,
    /// Operations it answered.
    pub ok: u64,
    /// No CPU time was stolen from the VM while it ran.
    pub clean: bool,
}

/// Collects timed intervals, scales them to reference speed and marks
/// the ones the hypervisor stole time from.
pub struct Calibrated {
    /// Present when the timed calls run on two cores.
    helper: Option<Helper>,
    pending: Vec<(f64, u64)>,
    pending_s: f64,
    refs: Vec<f64>,
    stolen_mark: f64,
    ops: Vec<Op>,
    clean_s: f64,
}

impl Calibrated {
    /// Calibration for timed calls that run on `cores` cores (1 or 2):
    /// the reference pass runs on as many.
    pub fn new(cores: usize) -> Self {
        Calibrated {
            helper: (cores > 1).then(Helper::spawn),
            pending: Vec::new(),
            pending_s: 0.0,
            refs: Vec::new(),
            stolen_mark: stolen_seconds(),
            ops: Vec::new(),
            clean_s: 0.0,
        }
    }

    /// Record one timed interval of `secs` wall seconds that answered
    /// `ok` operations.
    pub fn push(&mut self, secs: f64, ok: u64) {
        self.pending.push((secs, ok));
        self.pending_s += secs;
        if self.pending_s >= SAMPLE_EVERY_S {
            self.flush();
        }
    }

    /// Wall seconds of the intervals recorded so far that no steal
    /// touched.
    pub fn clean_seconds(&self) -> f64 {
        self.clean_s
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let stolen = stolen_seconds();
        let clean = stolen <= self.stolen_mark;
        self.stolen_mark = stolen;
        if clean {
            self.clean_s += self.pending_s;
        }
        let t_ref = match &self.helper {
            Some(h) => h.paired(),
            None => reference(),
        };
        self.refs.push(t_ref);
        let recent = &self.refs[self.refs.len().saturating_sub(5)..];
        let factor = REFERENCE_S / stats::median(recent);
        self.ops.extend(self.pending.drain(..).map(|(secs, ok)| Op {
            scaled: secs * factor,
            ok,
            clean,
        }));
        self.pending_s = 0.0;
        // the reference pass itself must not count as stolen-from work
        self.stolen_mark = stolen_seconds();
    }

    /// The calibrated operations in push order, and the median
    /// reference time in ms (the host's slowness over them).
    pub fn finish(mut self) -> (Vec<Op>, f64) {
        self.flush();
        (
            std::mem::take(&mut self.ops),
            stats::median(&self.refs) * 1e3,
        )
    }
}
