//! Whole-system tests of the networked PS–worker runtime: fault-free
//! loopback training must be bit-identical to the in-process synchronous
//! trainer, and training under an aggressive fault plan must still apply
//! every outer update exactly once — same final parameters, all rounds
//! completed, with the chaos fully visible in the `rpc_*` counters. The
//! seeded fault streams make those counters exact, so `paper dist --quick
//! --seed 7`'s run pins them: its fault ledger, and the same ledger with
//! two workers killed or the pipeline window narrowed to one frame.

use mamdr::data::{presets, DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::{checkpoint, DistributedConfig, DistributedMamdr, DistributedReport};
use mamdr::rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, RetryPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("rpc", 80, 50, 55);
    cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 300, 0.3)).collect();
    cfg.generate()
}

fn train_config() -> DistributedConfig {
    DistributedConfig {
        n_workers: 2,
        epochs: 3,
        sync_rounds: true,
        kernel_threads: 1,
        ..Default::default()
    }
}

/// `rpc_frames_total` of a fault-free run of [`train_config`] on
/// [`dataset`]: 3 rounds × 2 workers × (one prefetch pull, one push batch).
/// A synchronous round cannot be stale, so no worker probes for it, and
/// the driver's supervisor is the round's rendezvous, so no worker sends a
/// barrier.
const FAULT_FREE_FRAMES: u64 = 12;

/// Byte-exact snapshot of a store (checkpoint::save sorts rows, so equal
/// parameters mean equal bytes).
fn snapshot_bytes(ps: &mamdr::ps::ParameterServer, dim: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    checkpoint::save(ps, dim, &mut buf).unwrap();
    buf
}

#[test]
fn fault_free_loopback_training_is_bit_identical_to_in_process() {
    let ds = dataset();
    let cfg = train_config();

    let local_trainer = DistributedMamdr::new(&ds, cfg);
    let local = local_trainer.train(&ds);

    let metrics = Arc::new(MetricsRegistry::new());
    let mut net_trainer =
        DistributedTrainer::new(&ds, LoopbackConfig::new(cfg), Arc::clone(&metrics)).unwrap();
    let remote = net_trainer.train(&ds).unwrap();

    // Every report field matches exactly — same losses, same AUC bits,
    // same RPC and byte counts.
    assert_eq!(remote.mean_auc.to_bits(), local.mean_auc.to_bits());
    assert_eq!(remote.round_losses, local.round_losses);
    assert_eq!(remote.pulls, local.pulls);
    assert_eq!(remote.pushes, local.pushes);
    assert_eq!(remote.total_bytes, local.total_bytes);
    assert_eq!(remote.cache, local.cache);
    assert_eq!(remote.max_staleness, 0);

    // The stores themselves are byte-identical.
    assert_eq!(
        snapshot_bytes(net_trainer.store(), cfg.dim),
        snapshot_bytes(local_trainer.server(), cfg.dim),
        "loopback and in-process parameters diverged"
    );

    // A clean network: the batched protocol's exact frame count, nothing
    // retried, nothing deduped.
    assert_eq!(metrics.counter("rpc_frames_total").get(), FAULT_FREE_FRAMES);
    assert_eq!(metrics.counter("rpc_retries_total").get(), 0);
    assert_eq!(metrics.counter("rpc_push_deduped_total").get(), 0);
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), local.pushes);
    net_trainer.shutdown();
}

#[test]
fn workers_account_for_their_pull_and_compute_time_untraced() {
    let ds = dataset();
    let cfg = train_config();
    let metrics = Arc::new(MetricsRegistry::new());
    let mut trainer =
        DistributedTrainer::new(&ds, LoopbackConfig::new(cfg), Arc::clone(&metrics)).unwrap();
    let t0 = Instant::now();
    trainer.train(&ds).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    trainer.shutdown();

    let prom = metrics.render_prometheus();
    let names = ["ps_worker_pull_seconds_total", "ps_worker_compute_seconds_total"];
    for name in names {
        let help = prom
            .lines()
            .find_map(|l| l.strip_prefix(&format!("# HELP {name} ")))
            .unwrap_or_else(|| panic!("{name} is not exposed"));
        assert!(!help.starts_with("mamdr "), "{name} has only the generated description");
    }
    let [pull, compute] = names.map(|name| metrics.gauge(name).get());
    assert!(pull > 0.0, "no pull time counted");
    assert!(compute > 0.0, "no compute time counted");
    // Each worker's rounds lie inside the run, so together they cannot
    // outlast every worker busy for the whole wall.
    let bound = cfg.n_workers as f64 * wall;
    assert!(pull + compute <= bound, "{pull} s + {compute} s over {bound} s of worker wall");
}

#[test]
fn faulted_training_completes_with_zero_lost_or_double_applied_updates() {
    let ds = dataset();
    let cfg = train_config();

    // The ground truth: the same run with a perfect network.
    let local_trainer = DistributedMamdr::new(&ds, cfg);
    let local = local_trainer.train(&ds);

    // Drops, delays, duplicates, and a mid-round disconnect on every
    // client's fourth attempt. The batched protocol sends two orders of
    // magnitude fewer frames than single-row v1, so the per-frame
    // probabilities are higher to keep every fault class represented.
    let plan = FaultPlan::parse(
        "seed=11,drop_send=0.05,drop_recv=0.1,delay=0.05:100,dup=0.4,disconnect=3",
    )
    .unwrap();
    let metrics = Arc::new(MetricsRegistry::new());
    let loopback = LoopbackConfig {
        fault: Some(plan),
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        ..LoopbackConfig::new(cfg)
    };
    let mut net_trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&metrics)).unwrap();
    let remote = net_trainer.train(&ds).unwrap();

    // All rounds ran, and the learning signal is the exact one the clean
    // run produced: the fault layer is invisible to the math.
    assert_eq!(remote.round_losses.len(), cfg.epochs);
    assert_eq!(remote.round_losses, local.round_losses);
    assert_eq!(remote.mean_auc.to_bits(), local.mean_auc.to_bits());
    assert_eq!(
        snapshot_bytes(net_trainer.store(), cfg.dim),
        snapshot_bytes(local_trainer.server(), cfg.dim),
        "faults lost or double-applied at least one update"
    );

    // Sequence-number audit: the store received exactly the clean run's
    // update count; every surviving duplicate or retried push landed in
    // the dedup path instead of the apply path.
    let applied = metrics.counter("rpc_push_applied_total").get();
    let deduped = metrics.counter("rpc_push_deduped_total").get();
    assert_eq!(applied, local.pushes);
    assert_eq!(net_trainer.store().traffic().snapshot().1, local.pushes);

    // The chaos actually happened and was counted.
    assert!(metrics.counter("rpc_retries_total").get() > 0);
    assert!(metrics.counter("rpc_faults_dropped_total").get() > 0);
    assert!(metrics.counter("rpc_faults_duplicated_total").get() > 0);
    assert!(metrics.counter("rpc_faults_disconnects_total").get() > 0);
    assert!(deduped > 0, "duplicates/retries should have exercised dedup");
    net_trainer.shutdown();
}

#[test]
fn identical_fault_plans_produce_identical_fault_counters() {
    let ds = dataset();
    let cfg = train_config();
    let run = || {
        let plan =
            FaultPlan::parse("seed=9,drop_send=0.05,drop_recv=0.05,dup=0.05,disconnect=5").unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let loopback = LoopbackConfig {
            fault: Some(plan),
            retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
            ..LoopbackConfig::new(cfg)
        };
        let mut trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&metrics)).unwrap();
        trainer.train(&ds).unwrap();
        trainer.shutdown();
        metrics.counter_values()
    };
    // Determinism down to every counter: this is what lets the drill
    // tests below pin exact values.
    assert_eq!(run(), run());
}

/// `rpc_frames_total` of the fault-free drill run.
const DRILL_FAULT_FREE_FRAMES: u64 = 13;

/// `paper dist --quick --seed 7`'s dataset: `industry` at a quarter of
/// its default scale.
fn drill_dataset() -> MdrDataset {
    presets::industry(4, 300, 7)
}

/// The drill's schedule: this file's 2 workers and 3 rounds, seeded 7.
fn drill_config() -> DistributedConfig {
    DistributedConfig { seed: 7, ..train_config() }
}

/// The seeded wire faults of the drill: drops both ways, duplicates, and
/// a disconnect on every client's fourth attempt.
const DRILL_FAULTS: &str = "seed=7,drop_send=0.05,drop_recv=0.1,dup=0.4,disconnect=3";

struct DrillRun {
    report: DistributedReport,
    store_bytes: Vec<u8>,
    counters: BTreeMap<String, u64>,
}

/// One drill run over loopback TCP at the given fault plan and pipeline
/// window depth.
fn run_drill(ds: &MdrDataset, plan: Option<&str>, pipeline_depth: usize) -> DrillRun {
    let cfg = drill_config();
    let metrics = Arc::new(MetricsRegistry::new());
    let loopback = LoopbackConfig {
        fault: plan.map(|p| FaultPlan::parse(p).unwrap()),
        retry: RetryPolicy { base_backoff_micros: 20, pipeline_depth, ..Default::default() },
        ..LoopbackConfig::new(cfg)
    };
    let mut trainer = DistributedTrainer::new(ds, loopback, Arc::clone(&metrics)).unwrap();
    let report = trainer.train(ds).unwrap();
    let store_bytes = snapshot_bytes(trainer.store(), cfg.dim);
    trainer.shutdown();
    DrillRun { report, store_bytes, counters: metrics.counter_values().into_iter().collect() }
}

fn counter(run: &DrillRun, name: &str) -> u64 {
    run.counters.get(name).copied().unwrap_or(0)
}

/// The wire ledger of the faulted drill run, exact.
fn assert_drill_ledger(run: &DrillRun) {
    assert_eq!(counter(run, "rpc_frames_total"), 20);
    assert_eq!(counter(run, "rpc_retries_total"), 2);
    assert_eq!(counter(run, "rpc_push_applied_total"), 2397);
    assert_eq!(counter(run, "rpc_push_deduped_total"), 1067);
    assert_eq!(counter(run, "rpc_faults_disconnects_total"), 1);
}

#[test]
fn the_faulted_drill_run_reproduces_its_exact_fault_ledger() {
    let ds = drill_dataset();
    let run = run_drill(&ds, Some(DRILL_FAULTS), 8);
    assert_drill_ledger(&run);

    // Every one of the 2397 outer updates applied exactly once: the run is
    // the in-process trainer's, bit for bit.
    let cfg = drill_config();
    let local_trainer = DistributedMamdr::new(&ds, cfg);
    let local = local_trainer.train(&ds);
    assert_eq!(local.pushes, 2397);
    assert_eq!(run.report.round_losses, local.round_losses);
    assert_eq!(run.report.mean_auc.to_bits(), local.mean_auc.to_bits());
    assert_eq!(run.store_bytes, snapshot_bytes(local_trainer.server(), cfg.dim));
}

#[test]
fn killed_workers_leave_the_drill_fault_ledger_unchanged() {
    // Worker 1 dies in round 0 and worker 0 in round 2, before their first
    // read; each replacement re-runs the partition with the same client id
    // and fault stream, so the wire ledger is the kill-free one.
    let ds = drill_dataset();
    let plan = format!("{DRILL_FAULTS},kill=0:1+2:0");
    let killed = run_drill(&ds, Some(&plan), 8);
    assert_drill_ledger(&killed);
    assert_eq!(counter(&killed, "rpc_faults_worker_kills_total"), 2);
    assert_eq!(counter(&killed, "rpc_worker_restarts_total"), 2);

    let clean = run_drill(&ds, Some(DRILL_FAULTS), 8);
    assert_eq!(killed.report.round_losses, clean.report.round_losses);
    assert_eq!(killed.store_bytes, clean.store_bytes);
}

#[test]
fn the_pipeline_window_depth_is_invisible_to_the_drill_run() {
    // Depth 1 serializes every request; depth 8 is the default window.
    // Same frames, same counters, same report — only the wire scheduling
    // differs.
    let ds = drill_dataset();
    let serial = run_drill(&ds, None, 1);
    let windowed = run_drill(&ds, None, 8);
    assert_eq!(serial.report.mean_auc.to_bits(), windowed.report.mean_auc.to_bits());
    assert_eq!(serial.report.round_losses, windowed.report.round_losses);
    assert_eq!(serial.report.pulls, windowed.report.pulls);
    assert_eq!(serial.report.pushes, windowed.report.pushes);
    assert_eq!(serial.report.total_bytes, windowed.report.total_bytes);
    assert_eq!(serial.counters, windowed.counters);
    assert_eq!(serial.store_bytes, windowed.store_bytes);
    assert_eq!(counter(&serial, "rpc_frames_total"), DRILL_FAULT_FREE_FRAMES);
}
