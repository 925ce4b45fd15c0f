//! Names, units and directions of everything the benchmark prints.
//!
//! `BENCHMARK.json` at the repo root carries the same lists (plus the
//! regression bounds); `tests/selftest.rs` fails if the two drift apart.

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher }
}

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] =
    ["dense_train", "sharded_train", "serve_steady", "serve_saturate", "publish_live"];

/// End-to-end metrics: every workload reports every one of them from its
/// untraced repetition. The unit of work behind `throughput_per_s` and
/// `latency_*` is defined per workload in `README.md`.
pub const END_TO_END: &[MetricSpec] = &[
    hi("throughput_per_s", "1/s"),
    lo("latency_p50_us", "us"),
    lo("latency_tail_us", "us"),
    lo("peak_rss_mb", "MiB"),
    lo("setup_s", "s"),
];

/// Per-layer metrics, one traced repetition plus isolated probes. A layer
/// a workload does not exercise reports 0 for that workload.
pub const PER_LAYER: &[MetricSpec] = &[
    // tensor — probes at the train batch × MLP shapes
    hi("tensor.gemm_nn_gflops", "GFLOP/s"),
    hi("tensor.gemm_nt_gflops", "GFLOP/s"),
    hi("tensor.gemm_tn_gflops", "GFLOP/s"),
    lo("tensor.gemm_bias_act_us_b1", "us"),
    lo("tensor.gemm_bias_act_us_b32", "us"),
    // autodiff / models
    lo("models.fwd_us_b1", "us"),
    lo("models.fwd_us_b32", "us"),
    lo("models.fwd_bwd_us", "us"),
    lo("autodiff.bwd_share", "ratio"),
    lo("models.fwd_s_in_train", "s"),
    // nn
    lo("nn.optim_step_us", "us"),
    lo("nn.flat_roundtrip_us", "us"),
    // data
    lo("data.generate_s", "s"),
    hi("data.batches_per_s", "1/s"),
    // core
    lo("core.epoch_s", "s"),
    lo("core.evaluate_s", "s"),
    lo("core.framework_self_share", "ratio"),
    lo("core.epochs_to_loss", "count"),
    lo("core.time_to_loss_s", "s"),
    hi("core.final_auc", "AUC"),
    // ps
    hi("ps.pull_rows_per_s", "1/s"),
    hi("ps.push_rows_per_s", "1/s"),
    lo("ps.dump_rows_s", "s"),
    lo("ps.checkpoint_save_s", "s"),
    lo("ps.checkpoint_mb", "MiB"),
    lo("ps.round_s", "s"),
    lo("ps.worker_pull_s", "s"),
    lo("ps.worker_compute_s", "s"),
    lo("ps.apply_s", "s"),
    lo("ps.journal_s", "s"),
    lo("ps.evaluate_s", "s"),
    hi("ps.phase_closure", "ratio"),
    lo("ps.inproc_round_s", "s"),
    hi("ps.cache_hit_ratio", "ratio"),
    lo("ps.max_staleness", "count"),
    lo("ps.pulls", "count"),
    lo("ps.pushes", "count"),
    lo("ps.bytes_per_round", "B"),
    lo("ps.publish_commit_s", "s"),
    hi("ps.final_auc", "AUC"),
    // rpc
    hi("rpc.frame_encode_mb_per_s", "MB/s"),
    hi("rpc.frame_decode_mb_per_s", "MB/s"),
    lo("rpc.pullmany_rtt_us", "us"),
    lo("rpc.pushmany_rtt_us", "us"),
    lo("rpc.wire_encode_s", "s"),
    lo("rpc.wire_decode_s", "s"),
    lo("rpc.frames_per_round", "count"),
    lo("rpc.bytes_per_round", "B"),
    lo("rpc.retries", "count"),
    lo("rpc.deduped", "count"),
    lo("rpc.wire_gap", "ratio"),
    // serve
    lo("serve.score_us_b1", "us"),
    lo("serve.score_us_b32", "us"),
    lo("serve.score_us_b256", "us"),
    lo("serve.submit_us", "us"),
    lo("serve.snapshot_build_s", "s"),
    lo("serve.snapshot_encode_s", "s"),
    lo("serve.snapshot_decode_s", "s"),
    lo("serve.snapshot_mb", "MiB"),
    lo("serve.swap_us", "us"),
    lo("serve.gate_offer_s", "s"),
    lo("serve.queue_wait_p50_us", "us"),
    lo("serve.queue_wait_p99_us", "us"),
    lo("serve.batch_compute_p50_us", "us"),
    hi("serve.batch_size_mean", "count"),
    hi("serve.batch_size_p99", "count"),
    lo("serve.score_share", "ratio"),
    lo("serve.shed", "count"),
    lo("serve.rejected", "count"),
    lo("serve.deadline_expired", "count"),
    lo("serve.slo_miss_share", "ratio"),
    hi("serve.publish_tile_ratio", "ratio"),
    // load — generator health, not an optimisation target
    lo("load.sched_lag_p99_us", "us"),
    lo("load.sched_lag_max_us", "us"),
    hi("load.offered_rps", "1/s"),
    lo("load.req_p50_us", "us"),
    lo("load.req_p99_us", "us"),
    // obs
    lo("obs.trace_overhead_share", "ratio"),
    lo("obs.spans_dropped", "count"),
    // machine — a noisy neighbour shows here first
    lo("machine.calib_ms", "ms"),
];

/// True when `name` fits the contract's metric/workload name grammar.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
