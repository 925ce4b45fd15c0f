//! The repo's performance yardstick: five workloads measured end to end
//! (untraced) and layer by layer (one traced repetition plus isolated
//! probes), entirely from outside — by timing calls into the crates'
//! public functions and reading their public reports and registries.
//! See `README.md` beside this crate for what each number means.

pub mod fingerprint;
pub mod frozen;
pub mod json;
pub mod openloop;
pub mod probes;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// What one invocation was asked to do.
#[derive(Clone)]
pub struct Ctx {
    /// Drives dataset, model init and arrival trace.
    pub seed: u64,
    /// Measured-window budget; frozen work is per second of it.
    pub seconds: f64,
    /// Scratch for checkpoints, snapshots and span files (inside the
    /// checkout; the driver allows writes nowhere else).
    pub out_dir: PathBuf,
    /// `Some` in the traced repetition.
    pub spans: Option<Arc<spans::Spans>>,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Length of one repetition: the untraced run splits `seconds` into
    /// `MEASURED_REPS` of them; the traced run does one untraced reference
    /// and one traced repetition of the same length.
    pub fn rep_seconds(&self) -> f64 {
        self.seconds / frozen::MEASURED_REPS as f64
    }

    pub fn spans(&self) -> Option<&spans::Spans> {
        self.spans.as_deref()
    }

    /// A fresh, empty scratch directory under `out_dir`, unique to this
    /// process.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("tmp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value. The untraced run fills the end-to-end names,
    /// the traced run the per-layer names it exercises.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat for a seed (self-test).
    pub counts: BTreeMap<&'static str, u64>,
    /// Operations attempted and failed (requests not scored, gate rejects,
    /// exhausted retries, failed output checks).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Smallest and largest repetition behind a reported median.
    pub ranges: BTreeMap<&'static str, (f64, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one output check into attempted/failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The end-to-end samples of the measured repetitions. What is reported is
/// the median repetition, so one repetition hit by a noisy neighbour does
/// not move the number; min and max are printed beside it.
#[derive(Debug, Default)]
pub struct Repetitions {
    throughput_per_s: Vec<f64>,
    latency_p50_us: Vec<f64>,
    latency_tail_us: Vec<f64>,
}

impl Repetitions {
    pub fn push(&mut self, throughput_per_s: f64, latency_p50_us: f64, latency_tail_us: f64) {
        self.throughput_per_s.push(throughput_per_s);
        self.latency_p50_us.push(latency_p50_us);
        self.latency_tail_us.push(latency_tail_us);
    }

    pub fn is_empty(&self) -> bool {
        self.throughput_per_s.is_empty()
    }

    pub fn report(&self, out: &mut Outcome) {
        for (name, values) in [
            ("throughput_per_s", &self.throughput_per_s),
            ("latency_p50_us", &self.latency_p50_us),
            ("latency_tail_us", &self.latency_tail_us),
        ] {
            out.set(name, stats::median(values));
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            out.ranges.insert(name, (min, max));
        }
    }
}

/// Times `setup` `frozen::SETUP_REPEATS` times (each from a clean slate:
/// the previous state is torn down first, off the clock) and returns the
/// last state with the median seconds.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(frozen::SETUP_REPEATS);
    let mut state = None;
    for _ in 0..frozen::SETUP_REPEATS {
        drop(state.take());
        let t0 = std::time::Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}
