//! Whole-system tests of the sharded parameter server: training against
//! N loopback shards must be bit-identical to the in-process trainer on
//! every report field, fault-free and faulted; a shard hard-killed
//! mid-schedule must be restarted from its last committed manifest files
//! and the round replayed without divergence; and a sharded checkpoint
//! must resume bit-identically at the same shard count *and* across a
//! topology change (4 shards or 1 shard committed, 2 shards resumed).
//! `paper dist --quick --seed 7`'s shard drill runs here too: 4 shards with
//! one killed mid-schedule end byte-identical to the single store.

use mamdr::data::{presets, DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::{checkpoint, DistributedConfig, DistributedMamdr};
use mamdr::rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, RetryPolicy, TrainerError};
use std::path::PathBuf;
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("sharded", 80, 50, 55);
    cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 300, 0.3)).collect();
    cfg.generate()
}

/// The in-process trainer must count pulls the way the sharded wire does
/// (per-shard sub-batches), so `route_shards` mirrors the shard count.
fn train_config(epochs: usize, route_shards: usize) -> DistributedConfig {
    DistributedConfig {
        n_workers: 2,
        epochs,
        sync_rounds: true,
        kernel_threads: 1,
        route_shards,
        ..Default::default()
    }
}

/// Byte-exact snapshot of a store (checkpoint::save sorts rows, so equal
/// parameters mean equal bytes).
fn snapshot_bytes(ps: &mamdr::ps::ParameterServer, dim: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    checkpoint::save(ps, dim, &mut buf).unwrap();
    buf
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mamdr-sharded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fault_free_sharded_training_is_bit_identical_to_in_process() {
    let ds = dataset();
    for shards in [2usize, 4] {
        let cfg = train_config(3, shards);
        let local_trainer = DistributedMamdr::new(&ds, cfg);
        let local = local_trainer.train(&ds);

        let metrics = Arc::new(MetricsRegistry::new());
        let loopback = LoopbackConfig { shards, ..LoopbackConfig::new(cfg) };
        let mut net_trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&metrics)).unwrap();
        let remote = net_trainer.train(&ds).unwrap();

        // Every report field matches exactly: sharding must be invisible
        // to the math *and* to the traffic accounting.
        assert_eq!(remote.mean_auc.to_bits(), local.mean_auc.to_bits(), "{shards} shards");
        assert_eq!(remote.round_losses, local.round_losses, "{shards} shards");
        assert_eq!(remote.pulls, local.pulls, "{shards} shards");
        assert_eq!(remote.pushes, local.pushes, "{shards} shards");
        assert_eq!(remote.total_bytes, local.total_bytes, "{shards} shards");
        assert_eq!(remote.cache, local.cache, "{shards} shards");
        assert_eq!(remote.max_staleness, 0);

        // The merged shard stores are byte-identical to the single store.
        let merged = net_trainer.merged_store();
        assert_eq!(
            snapshot_bytes(&merged, cfg.dim),
            snapshot_bytes(local_trainer.server(), cfg.dim),
            "{shards}-shard parameters diverged from in-process"
        );

        // Clean network, exactly-once pushes.
        assert_eq!(metrics.counter("rpc_retries_total").get(), 0);
        assert_eq!(metrics.counter("rpc_push_deduped_total").get(), 0);
        assert_eq!(metrics.counter("rpc_push_applied_total").get(), local.pushes);

        // Per-shard occupancy series exist and sum to the unlabeled total.
        let mut labeled_entries = 0.0;
        for s in 0..shards {
            let g = metrics.gauge(&format!("ps_kv_entries{{shard=\"{s}\"}}")).get();
            assert!(g > 0.0, "shard {s} of {shards} exported no ps_kv_entries series");
            labeled_entries += g;
        }
        assert_eq!(labeled_entries, metrics.gauge("ps_kv_entries").get());
        assert_eq!(labeled_entries, merged.n_rows() as f64);
        net_trainer.shutdown();
    }
}

#[test]
fn faulted_sharded_training_applies_every_update_exactly_once() {
    let ds = dataset();
    let cfg = train_config(3, 2);

    let local_trainer = DistributedMamdr::new(&ds, cfg);
    let local = local_trainer.train(&ds);

    // The same chaos the single-server faulted test injects, spread over
    // two shards (each server draws its own decorrelated fault stream).
    let plan = FaultPlan::parse(
        "seed=11,drop_send=0.05,drop_recv=0.1,delay=0.05:100,dup=0.4,disconnect=3",
    )
    .unwrap();
    let metrics = Arc::new(MetricsRegistry::new());
    let loopback = LoopbackConfig {
        shards: 2,
        fault: Some(plan),
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        ..LoopbackConfig::new(cfg)
    };
    let mut net_trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&metrics)).unwrap();
    let remote = net_trainer.train(&ds).unwrap();

    // The learning signal is exactly the clean run's; retried reads make
    // pull traffic incomparable, but pushes are exactly-once.
    assert_eq!(remote.round_losses.len(), cfg.epochs);
    assert_eq!(remote.round_losses, local.round_losses);
    assert_eq!(remote.mean_auc.to_bits(), local.mean_auc.to_bits());
    assert_eq!(remote.pushes, local.pushes);
    assert_eq!(
        snapshot_bytes(&net_trainer.merged_store(), cfg.dim),
        snapshot_bytes(local_trainer.server(), cfg.dim),
        "faults lost or double-applied at least one update on some shard"
    );
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), local.pushes);

    // The chaos actually happened and was counted.
    assert!(metrics.counter("rpc_retries_total").get() > 0);
    assert!(metrics.counter("rpc_faults_dropped_total").get() > 0);
    assert!(metrics.counter("rpc_push_deduped_total").get() > 0);
    net_trainer.shutdown();
}

#[test]
fn a_killed_shard_is_restarted_from_the_manifest_and_the_round_replays_bit_identically() {
    // Shard 1 of 2 on this file's dataset, and `paper dist --quick --seed
    // 7`'s drill (shard 2 of 4), each torn down at the top of round 1.
    // The doomed attempt fails once worker retries exhaust, nothing is
    // applied, and the supervisor reseeds the shard from the round-1
    // manifest and replays the round.
    let runs = [
        (dataset(), train_config(3, 2), "kill_shard=1:1"),
        (
            presets::industry(4, 300, 7),
            DistributedConfig { seed: 7, ..train_config(3, 4) },
            "kill_shard=1:2",
        ),
    ];
    for (ds, cfg, plan) in runs {
        let shards = cfg.route_shards;
        let dir = scratch_dir(&format!("shard-kill-{shards}"));
        let local_trainer = DistributedMamdr::new(&ds, cfg);
        let local = local_trainer.train(&ds);

        let metrics = Arc::new(MetricsRegistry::new());
        let loopback = LoopbackConfig {
            shards,
            fault: Some(FaultPlan::parse(plan).unwrap()),
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            max_worker_retries: 0,
            retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
            ..LoopbackConfig::new(cfg)
        };
        let mut trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&metrics)).unwrap();
        let report = trainer.train(&ds).unwrap();

        assert_eq!(metrics.counter("rpc_faults_shard_kills_total").get(), 1, "{plan}");
        assert_eq!(metrics.counter("rpc_shard_restarts_total").get(), 1, "{plan}");

        // Zero divergence: the replayed round is indistinguishable from an
        // undisturbed one. (Pull traffic is not compared — the doomed
        // attempt's reads against the surviving shards are real wire
        // traffic.)
        assert_eq!(report.round_losses, local.round_losses, "{plan}");
        assert_eq!(report.mean_auc.to_bits(), local.mean_auc.to_bits(), "{plan}");
        assert_eq!(report.pushes, local.pushes, "{plan}");
        assert_eq!(report.max_staleness, 0);
        assert_eq!(metrics.counter("rpc_push_applied_total").get(), local.pushes, "{plan}");
        // The merged final state is the single in-process store's, byte
        // for byte.
        assert!(
            snapshot_bytes(&trainer.merged_store(), cfg.dim)
                == snapshot_bytes(local_trainer.server(), cfg.dim),
            "{plan}: shard recovery changed the parameters"
        );
        trainer.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_resume_is_bit_identical_at_the_same_shard_count() {
    let ds = dataset();
    let full = train_config(4, 2);
    let dir = scratch_dir("resume-2to2");

    // Ground truth: one uninterrupted 2-shard run, no journaling at all.
    let metrics = Arc::new(MetricsRegistry::new());
    let loopback = LoopbackConfig { shards: 2, ..LoopbackConfig::new(full) };
    let mut uninterrupted = DistributedTrainer::new(&ds, loopback, metrics).unwrap();
    let expected = uninterrupted.train(&ds).unwrap();
    let expected_bytes = snapshot_bytes(&uninterrupted.merged_store(), full.dim);
    uninterrupted.shutdown();

    // The "crashed" driver commits a manifest at round 0 (seed state) and
    // each boundary, then stops after round 2.
    let crashed_cfg = LoopbackConfig {
        shards: 2,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..LoopbackConfig::new(train_config(2, 2))
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let mut crashed = DistributedTrainer::new(&ds, crashed_cfg, Arc::clone(&metrics)).unwrap();
    crashed.train(&ds).unwrap();
    crashed.shutdown();
    assert_eq!(metrics.counter("rpc_manifest_writes_total").get(), 3);

    // The restarted driver resumes at round 2 and finishes the schedule.
    let resumed_cfg = LoopbackConfig {
        shards: 2,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        resume: true,
        ..LoopbackConfig::new(full)
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let mut resumed = DistributedTrainer::new(&ds, resumed_cfg, metrics).unwrap();
    assert_eq!(resumed.start_epoch(), 2, "resume should pick up the newest manifest");
    let report = resumed.train(&ds).unwrap();

    // Bit-identity in the parameters and every report aggregate: the
    // interruption is invisible, traffic counters included.
    assert_eq!(report.round_losses, expected.round_losses);
    assert_eq!(report.mean_auc.to_bits(), expected.mean_auc.to_bits());
    assert_eq!(report.pulls, expected.pulls);
    assert_eq!(report.pushes, expected.pushes);
    assert_eq!(report.total_bytes, expected.total_bytes);
    assert_eq!(report.cache, expected.cache);
    assert_eq!(
        snapshot_bytes(&resumed.merged_store(), full.dim),
        expected_bytes,
        "sharded resume diverged from the uninterrupted run"
    );
    resumed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_four_shard_checkpoint_resumes_as_two_shards_bit_identically() {
    // Shrink (4 -> 2) and grow (1 -> 2): a single-server directory is a
    // manifest of one shard like any other.
    for (from, to) in [(4usize, 2usize), (1, 2)] {
        let ds = dataset();
        let dir = scratch_dir(&format!("resume-{from}to{to}"));

        // Ground truth: an uninterrupted run at the resumed shard count.
        let full = train_config(4, to);
        let loopback = LoopbackConfig { shards: to, ..LoopbackConfig::new(full) };
        let mut uninterrupted =
            DistributedTrainer::new(&ds, loopback, Arc::new(MetricsRegistry::new())).unwrap();
        let expected = uninterrupted.train(&ds).unwrap();
        let expected_bytes = snapshot_bytes(&uninterrupted.merged_store(), full.dim);
        uninterrupted.shutdown();

        // Two rounds on `from` shards, then the topology changes: the
        // resumed driver merges the committed manifest's files and
        // re-routes every row through the `to`-shard map.
        let crashed_cfg = LoopbackConfig {
            shards: from,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..LoopbackConfig::new(train_config(2, from))
        };
        let mut crashed =
            DistributedTrainer::new(&ds, crashed_cfg, Arc::new(MetricsRegistry::new())).unwrap();
        crashed.train(&ds).unwrap();
        crashed.shutdown();

        let resumed_cfg = LoopbackConfig {
            shards: to,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            resume: true,
            ..LoopbackConfig::new(full)
        };
        let mut resumed =
            DistributedTrainer::new(&ds, resumed_cfg, Arc::new(MetricsRegistry::new())).unwrap();
        assert_eq!(resumed.start_epoch(), 2);
        assert_eq!(resumed.shard_map().n_shards(), to);
        let report = resumed.train(&ds).unwrap();

        // The math and the per-key push traffic are topology-independent;
        // pull-chunk counts are not (more shards split a batch into more
        // sub-requests), so pulls/total_bytes are not compared across the
        // topology change.
        assert_eq!(report.round_losses, expected.round_losses, "{from} -> {to}");
        assert_eq!(report.mean_auc.to_bits(), expected.mean_auc.to_bits(), "{from} -> {to}");
        assert_eq!(report.pushes, expected.pushes, "{from} -> {to}");
        assert_eq!(
            snapshot_bytes(&resumed.merged_store(), full.dim),
            expected_bytes,
            "rehashed {from} -> {to} resume diverged from the uninterrupted {to}-shard run"
        );
        resumed.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shard_kill_schedules_are_validated_up_front() {
    let ds = dataset();
    let plan = FaultPlan::parse("kill_shard=1:1").unwrap();

    // A shard-kill schedule needs at least two shards...
    let cfg =
        LoopbackConfig { fault: Some(plan.clone()), ..LoopbackConfig::new(train_config(2, 1)) };
    assert!(matches!(
        DistributedTrainer::new(&ds, cfg, Arc::new(MetricsRegistry::new())),
        Err(TrainerError::Config(_))
    ));

    // ...and per-round manifests to recover from.
    let cfg =
        LoopbackConfig { shards: 2, fault: Some(plan), ..LoopbackConfig::new(train_config(2, 2)) };
    assert!(matches!(
        DistributedTrainer::new(&ds, cfg, Arc::new(MetricsRegistry::new())),
        Err(TrainerError::Config(_))
    ));
}
