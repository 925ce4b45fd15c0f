//! `paper dist` — loopback run of the `mamdr-rpc` networked PS–worker
//! runtime.
//!
//! Trains the MAMDR outer loop with `--workers` clients against a real
//! loopback TCP parameter server, optionally under a deterministic
//! `--fault-plan`, and reports wall time, rounds per second and the
//! `rpc_*` counter set on stdout; with `--metrics-out <path>` the full
//! registry (rpc frames/retries/faults, ps traffic, kv gauges) is dumped
//! as JSONL plus a Prometheus-style `.prom` snapshot. It exits 1 only if
//! the run cannot start or complete. The contracts — bit-identity with
//! the in-process trainer, exactly-once applies, the exact seeded fault
//! ledger — are tier-1 tests (`tests/rpc_distributed.rs`, `sharded.rs`,
//! `fault_recovery.rs`, `tracing.rs`), run with this experiment's
//! `--quick` seed-7 configuration among others.
//!
//! Knobs: `--workers` sets the client count (default 2), `--fault-plan`
//! injects seeded drops/delays/duplicates/disconnects plus scheduled
//! worker kills/hangs/poisons and shard kills (default: perfect
//! network), `--scale` multiplies the dataset size, and `--threads`,
//! `--epochs`, `--seed`, `--quick` behave as everywhere else.
//!
//! Sharding: `--shards N` splits the key space across N loopback servers
//! by consistent hash. `--preset longtail` swaps the 64-domain industry
//! simulation for the 2048-domain Zipf stress preset whose key space
//! gives a shard fleet real routing work.
//!
//! Tracing: `--trace-out <path>` records the run's span tree (rounds,
//! per-worker pull/compute, RPC attempts, server-side applies) as Chrome
//! `trace_event` JSON; `--phase-summary` prints a wall-clock attribution
//! table plus the wire-overhead row (frame encode/checksum and decode
//! seconds); `--introspect-addr <addr>` serves live `/healthz` `/metrics`
//! `/spans` over HTTP for the duration of the run.
//!
//! Checkpoints: `--checkpoint-every N --checkpoint-dir <dir>` commits a
//! round boundary (per-shard checkpoint + journal, one manifest) every N
//! rounds; a later invocation with `--resume <dir>` restores the newest
//! committed manifest, at any shard count, and runs only the remaining
//! rounds.

use crate::paper::Ctx;
use crate::{render_phase_table, QUICK_SCALE_FACTOR};
use mamdr_data::presets;
use mamdr_obs::Value;
use mamdr_ps::DistributedConfig;
use mamdr_rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, RetryPolicy};
use std::path::PathBuf;
use std::time::Instant;

pub(crate) fn dist(x: &Ctx) -> String {
    let (args, telemetry) = (x.args, x.telemetry);
    let scale = if args.quick { args.scale * QUICK_SCALE_FACTOR } else { args.scale };
    let preset = args.preset.as_deref().unwrap_or("industry");
    let ds = match preset {
        "longtail" => {
            // Domain count stays fixed (the preset's point is key-space
            // pressure); --scale moves the Zipf head instead.
            let head = ((400.0 * scale).round() as usize).max(50);
            presets::longtail(2_048, head, args.seed)
        }
        _ => {
            let n_domains = ((12.0 * scale).round() as usize).clamp(4, 64);
            let per_domain = ((1_200.0 * scale).round() as usize).max(100);
            presets::industry(n_domains, per_domain, args.seed)
        }
    };
    eprintln!(
        "[paper dist] {preset} simulation: {} domains, {} train interactions",
        ds.n_domains(),
        ds.domains.iter().map(|d| d.train.len()).sum::<usize>()
    );

    let cfg = DistributedConfig {
        n_workers: args.workers_or(2),
        epochs: x.cfg.epochs,
        sync_rounds: true,
        seed: args.seed,
        kernel_threads: args.threads,
        route_shards: args.shards,
        ..Default::default()
    };
    let plan = args
        .fault_plan
        .as_deref()
        .map(|spec| FaultPlan::parse(spec).expect("validated by BenchArgs"));

    let resuming = args.resume.is_some();
    let checkpoint_dir: Option<PathBuf> =
        args.resume.as_deref().or(args.checkpoint_dir.as_deref()).map(PathBuf::from);
    eprintln!(
        "[paper dist] loopback TCP run ({} workers, {} shards, faults: {}, journal every {} rounds{}) ...",
        cfg.n_workers,
        args.shards,
        args.fault_plan.as_deref().unwrap_or("none"),
        args.checkpoint_every,
        if resuming { ", resuming" } else { "" },
    );
    let loopback = LoopbackConfig {
        fault: plan,
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        shards: args.shards,
        checkpoint_dir,
        checkpoint_every: args.checkpoint_every,
        resume: resuming,
        tracer: telemetry.tracer(),
        ..LoopbackConfig::new(cfg)
    };
    let t0 = Instant::now();
    let mut net_trainer = match DistributedTrainer::new(&ds, loopback, telemetry.registry_arc()) {
        Ok(t) => t,
        Err(e) => {
            x.fail(format!("could not start the loopback trainer: {e}"));
            return String::new();
        }
    };
    let start_epoch = net_trainer.start_epoch();
    if resuming {
        eprintln!("[paper dist] resumed at round {start_epoch}");
    }
    let remote = match net_trainer.train(&ds) {
        Ok(r) => r,
        Err(e) => {
            x.fail(format!("distributed run did not complete: {e}"));
            return String::new();
        }
    };
    let remote_secs = t0.elapsed().as_secs_f64();
    net_trainer.shutdown();

    let reg = telemetry.registry();
    let frames = reg.counter("rpc_frames_total").get();
    let retries = reg.counter("rpc_retries_total").get();
    let applied = reg.counter("rpc_push_applied_total").get();
    let deduped = reg.counter("rpc_push_deduped_total").get();
    let dropped = reg.counter("rpc_faults_dropped_total").get();
    let duplicated = reg.counter("rpc_faults_duplicated_total").get();
    let disconnects = reg.counter("rpc_faults_disconnects_total").get();

    let shard_kills = reg.counter("rpc_faults_shard_kills_total").get();
    let shard_restarts = reg.counter("rpc_shard_restarts_total").get();
    let rounds_run = cfg.epochs.saturating_sub(start_epoch);

    let mut out = [
        format!(
            "paper dist: {} workers, {} rounds, {} shards, {} domains, threads={}",
            cfg.n_workers,
            cfg.epochs,
            args.shards,
            ds.n_domains(),
            args.threads
        ),
        format!("  loopback     {remote_secs:.3} s"),
        format!("  rounds_per_s {:.3}", rounds_run as f64 / remote_secs.max(1e-9)),
        format!("  test_auc     {:.6}", remote.mean_auc),
        format!("  pulls        {}", remote.pulls),
        format!("  pushes       {}", remote.pushes),
        format!("  MB_moved     {:.2}", remote.total_bytes as f64 / 1e6),
        format!("  frames       {frames}"),
        format!("  retries      {retries}"),
        format!("  applied      {applied}  deduped {deduped}"),
        format!("  faults       dropped={dropped} duplicated={duplicated} disconnects={disconnects}"),
        format!("  shards       rpc_faults_shard_kills_total={shard_kills} rpc_shard_restarts_total={shard_restarts}\n"),
    ]
    .join("\n");

    if args.phase_summary && args.shards > 1 {
        out += "  per-shard occupancy and wire traffic:\n";
        for s in 0..args.shards {
            let entries = reg.gauge(&format!("ps_kv_entries{{shard=\"{s}\"}}")).get();
            let bytes = reg.gauge(&format!("ps_kv_bytes{{shard=\"{s}\"}}")).get();
            let shard_frames = reg.counter(&format!("rpc_frames_total{{shard=\"{s}\"}}")).get();
            out += &format!(
                "    shard {s}: entries={entries:.0} bytes={bytes:.0} frames={shard_frames}\n"
            );
        }
    }

    if let Some(tracer) = telemetry.tracer() {
        // Wire overhead = serialization + checksum on both directions;
        // decode is timed from the first magic byte, so waiting on the
        // peer is excluded.
        let encode = tracer.phase("wire.encode");
        let decode = tracer.phase("wire.decode");
        let wire_secs = encode.total_secs + decode.total_secs;
        if args.phase_summary {
            out += &format!("  phase attribution (loopback wall {remote_secs:.3} s):\n");
            out += &render_phase_table(&tracer, remote_secs);
        }
        out += &format!(
            "  wire_overhead {:.4} s  (encode {} frames {:.4} s, decode {} frames {:.4} s)\n",
            wire_secs, encode.count, encode.total_secs, decode.count, decode.total_secs
        );
        if telemetry.enabled() {
            for (name, p) in tracer.phase_summary() {
                telemetry.log().emit(
                    "dist_phase",
                    &[
                        ("phase", Value::from(name.as_str())),
                        ("count", Value::from(p.count)),
                        ("total_secs", Value::from(p.total_secs)),
                    ],
                );
            }
        }
    }

    if telemetry.enabled() {
        for (round, &loss) in remote.round_losses.iter().enumerate() {
            telemetry.log().emit(
                "dist_round",
                &[
                    ("workers", Value::from(cfg.n_workers)),
                    ("round", Value::from(round)),
                    ("train_loss", Value::from(loss)),
                ],
            );
        }
        telemetry.log().emit(
            "dist_bench",
            &[
                ("workers", Value::from(cfg.n_workers as u64)),
                ("rounds", Value::from(cfg.epochs as u64)),
                ("shards", Value::from(args.shards as u64)),
                ("fault_plan", Value::from(args.fault_plan.as_deref().unwrap_or("none"))),
                ("loopback_secs", Value::from(remote_secs)),
                ("mean_auc", Value::from(remote.mean_auc)),
            ],
        );
        remote.export(telemetry.registry());
    }
    out
}
