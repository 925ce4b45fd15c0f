//! End-to-end chaos proof of the continual train→publish→serve loop: a
//! networked trainer publishes every round through the validation gate
//! into a live replica pool while closed-loop traffic scores through it.
//! Under all three scheduled publisher faults in one run — a publisher
//! killed mid-write, a committed snapshot corrupted on disk, and a
//! NaN-poisoned training round — the pool must keep answering from the
//! last-good version with zero dropped requests, every verdict must land
//! in the exact typed counter, and the final served snapshot must be
//! byte-identical to one built offline from a clean run of the same
//! length as the last accepted round. `paper dist --quick --seed 7`'s
//! continual-publish drill runs here too, on its dataset and pool size.

use mamdr::data::{presets, DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::{MetricsRegistry, PublishState};
use mamdr::ps::{DistributedConfig, DistributedMamdr, GuardConfig};
use mamdr::rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, PublishHook};
use mamdr::serve::{
    GateConfig, PublishGate, ReplicatedServer, ServeConfig, ServeResult, ServingSnapshot,
    GATE_REASONS,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("publish", 60, 40, 91);
    cfg.domains = (0..4).map(|i| DomainSpec::new(format!("d{i}"), 220, 0.3)).collect();
    cfg.generate()
}

fn train_config(epochs: usize) -> DistributedConfig {
    DistributedConfig {
        n_workers: 2,
        epochs,
        sync_rounds: true,
        kernel_threads: 1,
        ..Default::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mamdr-publish-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot_bytes(snap: &ServingSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    snap.write_to(&mut buf).unwrap();
    buf
}

/// Everything one gated continual run produced.
struct GatedRun {
    registry: Arc<MetricsRegistry>,
    state: Arc<PublishState>,
    /// The gate's last-good snapshot at exit.
    final_snapshot: Arc<ServingSnapshot>,
    /// Version the pool answered from at exit.
    pool_version: u64,
    /// Distinct snapshot versions live traffic was scored against.
    versions_served: BTreeSet<u64>,
    /// Live requests scored / dropped (shed, deadline, submit error).
    scored: u64,
    dropped: u64,
    report: mamdr::ps::DistributedReport,
}

fn counter(run: &GatedRun, name: &str) -> u64 {
    run.registry.counter(name).get()
}

fn rejected(run: &GatedRun, reason: &str) -> u64 {
    counter(run, &format!("publish_rejected_total{{reason=\"{reason}\"}}"))
}

/// Runs the full loop: a seeded v0 snapshot, a `replicas` pool behind a
/// gate, a loopback trainer with a publish hook, and a closed-loop load
/// thread scoring the fixed probe set across every swap.
fn run_gated(
    ds: &MdrDataset,
    cfg: DistributedConfig,
    plan: Option<FaultPlan>,
    replicas: usize,
    canary_pct: f64,
    dir: &Path,
) -> GatedRun {
    // The v0 serving snapshot: the freshly seeded store, identical to the
    // networked trainer's merged initial state by construction.
    let seeder = DistributedMamdr::new(ds, cfg);
    let snap0 = ServingSnapshot::from_ps(0, seeder.server(), ds.n_domains());
    drop(seeder);

    let registry = Arc::new(MetricsRegistry::new());
    let state = Arc::new(PublishState::new(0));
    let pool =
        Arc::new(ReplicatedServer::start(snap0, replicas, ServeConfig::default(), &registry, None));
    let gate_cfg =
        GateConfig { max_divergence: 1.0, canary_pct, max_canary_drift: 1.0, ..Default::default() };
    let gate = Arc::new(PublishGate::new(
        gate_cfg,
        pool.engine(0).snapshot(),
        &registry,
        Some(Arc::clone(&state)),
        None,
    ));

    let hook = {
        let n_domains = ds.n_domains();
        let gate = Arc::clone(&gate);
        let pool = Arc::clone(&pool);
        PublishHook {
            every: 1,
            dir: dir.join("publish"),
            encode: Arc::new(move |round, ps| {
                let mut buf = Vec::new();
                ServingSnapshot::from_ps(round, ps, n_domains)
                    .write_to(&mut buf)
                    .map_err(|e| e.to_string())?;
                Ok(buf)
            }),
            on_commit: Arc::new(move |round, path| {
                let _ = gate.offer_file(round, path, &pool);
            }),
        }
    };
    let loopback = LoopbackConfig { fault: plan, publish: Some(hook), ..LoopbackConfig::new(cfg) };
    let mut trainer = DistributedTrainer::new(ds, loopback, Arc::clone(&registry)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let probes = pool.engine(0).snapshot().probe_requests(0xBEEF, 4);
            let (mut scored, mut dropped) = (0u64, 0u64);
            let mut versions = BTreeSet::new();
            'outer: loop {
                for req in &probes {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    match pool.submit(req.clone(), None) {
                        Ok(pending) => match pending.wait() {
                            ServeResult::Scored(r) => {
                                scored += 1;
                                versions.insert(r.snapshot_version);
                            }
                            _ => dropped += 1,
                        },
                        Err(_) => dropped += 1,
                    }
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            (scored, dropped, versions)
        })
    };
    let report = trainer.train(ds).unwrap();
    stop.store(true, Ordering::Relaxed);
    let (scored, dropped, versions_served) = load.join().unwrap();
    trainer.shutdown();
    drop(trainer); // releases the hook's pool/gate handles

    let final_snapshot = gate.last_good();
    let pool_version = pool.current_version();
    Arc::try_unwrap(pool).ok().expect("pool unshared after trainer drop").shutdown();
    GatedRun {
        registry,
        state,
        final_snapshot,
        pool_version,
        versions_served,
        scored,
        dropped,
        report,
    }
}

/// All three publisher faults in one run, guard disabled (the gate is the
/// last line of defense): the pool must never serve a faulted version,
/// drop nothing, and end byte-identical to the offline build of the last
/// clean round.
#[test]
fn chaos_run_never_swaps_a_bad_version_and_drops_nothing() {
    let ds = dataset();
    let dir = scratch_dir("chaos");
    // 6 rounds, publishing every round: v1 accept, v2 publisher killed
    // mid-write, v3 committed-then-corrupted (digest reject), v4 accept,
    // v5/v6 non-finite (epoch 4 poisons every worker and the NaN persists
    // in the store).
    let plan = FaultPlan::parse("kill_publish=2,corrupt_snapshot=3,poison_round=4").unwrap();
    let run = run_gated(&ds, train_config(6), Some(plan), 2, 0.0, &dir);

    // Exact publisher counters: 6 attempts, one killed (never offered),
    // the rest committed.
    assert_eq!(counter(&run, "publish_attempts_total"), 6);
    assert_eq!(counter(&run, "publish_kills_total"), 1);
    assert_eq!(counter(&run, "publish_corruptions_total"), 1);
    assert_eq!(counter(&run, "publish_commits_total"), 5);

    // Exact gate verdicts: v1/v4 in, v3 out on digest, v5/v6 out on the
    // finite check, one rollback per rejection.
    assert_eq!(counter(&run, "publish_offered_total"), 5);
    assert_eq!(counter(&run, "publish_accepted_total"), 2);
    assert_eq!(counter(&run, "publish_rollbacks_total"), 3);
    assert_eq!(rejected(&run, "digest"), 1);
    assert_eq!(rejected(&run, "nonfinite"), 2);
    for reason in GATE_REASONS.iter().filter(|r| !matches!(**r, "digest" | "nonfinite")) {
        assert_eq!(rejected(&run, reason), 0, "unexpected {reason} rejections");
    }

    // The serving tier: zero drops, and traffic only ever saw versions
    // the gate admitted (v0 seed, v1, v4) — never a faulted one.
    assert_eq!(run.dropped, 0, "live requests dropped during chaos");
    assert!(run.scored > 0, "load thread never got a request through");
    for v in &run.versions_served {
        assert!([0, 1, 4].contains(v), "traffic saw unadmitted version v{v}");
    }

    // Health state: degraded on the two trailing rejects, last-good v4.
    assert_eq!(run.state.last_good_version(), 4);
    assert_eq!(run.state.consecutive_failures(), 2);
    assert!(run.state.healthz_body().starts_with("degraded last_good_version=4"));

    // On disk: the killed round left only a staging file (the committed
    // name must not exist — atomicity), the corrupt round's file exists
    // but fails its digest.
    let publish_dir = dir.join("publish");
    assert!(publish_dir.join("snapshot-0000000002.mamdrsv.tmp").exists());
    assert!(!publish_dir.join("snapshot-0000000002.mamdrsv").exists());
    let corrupt = publish_dir.join("snapshot-0000000003.mamdrsv");
    assert!(ServingSnapshot::load_from_path(&corrupt).is_err());

    // Byte-exact final state: the served snapshot equals one built
    // offline from an in-process run of exactly the last clean round
    // count (4) — the publisher faults were invisible to training, so
    // round 4's store is the 4-epoch store.
    assert_eq!(run.final_snapshot.version(), 4);
    assert_eq!(run.pool_version, 4);
    let offline_trainer = DistributedMamdr::new(&ds, train_config(4));
    offline_trainer.train(&ds);
    let offline = ServingSnapshot::from_ps(4, offline_trainer.server(), ds.n_domains());
    assert_eq!(
        snapshot_bytes(&run.final_snapshot),
        snapshot_bytes(&offline),
        "served snapshot diverged from the offline build of the last clean round"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-free continual publishing (canary phase on) is invisible: every
/// round cuts over, nothing rolls back, and the final served snapshot —
/// and the pool's live scores — are bit-identical to building a snapshot
/// directly from the in-process store, the pre-gate serving path.
#[test]
fn fault_free_gated_run_is_bit_identical_to_direct_serving() {
    let ds = dataset();
    let dir = scratch_dir("clean");
    let run = run_gated(&ds, train_config(3), None, 2, 50.0, &dir);

    assert_eq!(counter(&run, "publish_offered_total"), 3);
    assert_eq!(counter(&run, "publish_accepted_total"), 3);
    assert_eq!(counter(&run, "publish_rollbacks_total"), 0);
    assert_eq!(counter(&run, "publish_canary_phases_total"), 3);
    for reason in GATE_REASONS {
        assert_eq!(rejected(&run, reason), 0, "unexpected {reason} rejection");
    }
    assert_eq!(run.dropped, 0);
    assert_eq!(run.state.consecutive_failures(), 0);
    assert_eq!(run.state.healthz_body(), "ok\n");
    assert_eq!(run.final_snapshot.version(), 3);

    // The direct path: train in process, build the snapshot by hand.
    let direct_trainer = DistributedMamdr::new(&ds, train_config(3));
    direct_trainer.train(&ds);
    let direct = ServingSnapshot::from_ps(3, direct_trainer.server(), ds.n_domains());
    assert_eq!(snapshot_bytes(&run.final_snapshot), snapshot_bytes(&direct));

    // And the scores the gated pool would serve are the scores the
    // direct snapshot computes, bit for bit.
    let probes = direct.probe_requests(7, 3);
    for req in &probes {
        let gated = run.final_snapshot.score(req.domain, std::slice::from_ref(req))[0];
        let want = direct.score(req.domain, std::slice::from_ref(req))[0];
        assert_eq!(gated.to_bits(), want.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the PR 5 guard armed, a `poison_round` never reaches the store:
/// the trainer skips the divergent updates, every published snapshot is
/// finite, and the gate admits them all — defense in depth, with the
/// inner rail firing first.
#[test]
fn armed_guard_intercepts_poisoned_round_before_the_gate() {
    let ds = dataset();
    let dir = scratch_dir("guarded");
    let mut cfg = train_config(3);
    cfg.guard = GuardConfig::enabled();
    // Epoch 1 (publishing as v2) is poisoned on every worker.
    let plan = FaultPlan::parse("poison_round=1").unwrap();
    let run = run_gated(&ds, cfg, Some(plan), 2, 0.0, &dir);

    assert!(run.report.guard_trips > 0, "guard never fired on the poisoned round");
    assert_eq!(rejected(&run, "nonfinite"), 0, "NaN leaked past the armed guard");
    assert_eq!(counter(&run, "publish_accepted_total"), 3);
    assert_eq!(counter(&run, "publish_rollbacks_total"), 0);
    assert_eq!(run.final_snapshot.version(), 3);
    run.final_snapshot.check_finite().expect("served parameters must be finite");
    assert_eq!(run.dropped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The drill: 4 rounds publishing every round into 4 replicas behind a 25 %
/// canary, once fault-free and once with the publisher killed mid-write in
/// round 2 and round 3's committed snapshot corrupted on disk. The gate
/// absorbs both faults — one digest rejection, one rollback, no dropped
/// request — and the chaos run ends serving the clean run's bytes.
#[test]
fn the_publish_drill_absorbs_a_kill_and_a_corruption_into_the_clean_final_bytes() {
    let ds = presets::industry(4, 300, 7);
    let cfg = DistributedConfig { seed: 7, ..train_config(4) };

    let ground_dir = scratch_dir("drill-ground");
    let ground = run_gated(&ds, cfg, None, 4, 25.0, &ground_dir);
    assert_eq!(ground.dropped, 0);
    assert_eq!(counter(&ground, "publish_accepted_total"), 4);
    assert_eq!(counter(&ground, "publish_rollbacks_total"), 0);

    let chaos_dir = scratch_dir("drill-chaos");
    let plan = FaultPlan::parse("kill_publish=2,corrupt_snapshot=3").unwrap();
    let chaos = run_gated(&ds, cfg, Some(plan), 4, 25.0, &chaos_dir);
    assert_eq!(counter(&chaos, "publish_kills_total"), 1);
    assert_eq!(counter(&chaos, "publish_corruptions_total"), 1);
    assert_eq!(rejected(&chaos, "digest"), 1);
    assert_eq!(counter(&chaos, "publish_rollbacks_total"), 1);
    assert_eq!(chaos.dropped, 0);
    // Rename-or-nothing: the killed round left only its staging file.
    let publish_dir = chaos_dir.join("publish");
    assert!(publish_dir.join("snapshot-0000000002.mamdrsv.tmp").exists());
    assert!(!publish_dir.join("snapshot-0000000002.mamdrsv").exists());

    assert_eq!(chaos.final_snapshot.version(), 4);
    assert!(
        snapshot_bytes(&chaos.final_snapshot) == snapshot_bytes(&ground.final_snapshot),
        "the chaos run's final served snapshot differs from the clean run's"
    );
    let _ = std::fs::remove_dir_all(&ground_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
