//! The driver is the only writer in every PS mode, so every run is a
//! function of its seed. With `sync_rounds: false` (the default) a round's
//! updates land in a seeded permutation of the workers and `NoCache`
//! workers run in turn; the loopback trainer applies the same order as the
//! in-process one; and the guard vets every update whatever the mode.

use mamdr::data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::{checkpoint, DistributedConfig, DistributedMamdr, DistributedReport};
use mamdr::ps::{GuardConfig, ParameterServer, SyncMode};
use mamdr::rpc::{DistributedTrainer, LoopbackConfig};
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("one-writer", 80, 50, 55);
    cfg.domains = (0..10).map(|i| DomainSpec::new(format!("d{i}"), 300, 0.3)).collect();
    cfg.generate()
}

fn checkpoint_bytes(ps: &ParameterServer, dim: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    checkpoint::save(ps, dim, &mut buf).unwrap();
    buf
}

/// Every field, floats by their bits.
fn fields(r: &DistributedReport) -> impl PartialEq + std::fmt::Debug {
    let losses: Vec<u64> = r.round_losses.iter().map(|l| l.to_bits()).collect();
    let traffic = (r.pulls, r.pushes, r.total_bytes, r.cache);
    (r.mean_auc.to_bits(), losses, traffic, r.max_staleness, r.guard_trips, r.guard_rollbacks)
}

#[test]
fn default_config_runs_agree_at_any_worker_count_in_both_modes() {
    let ds = dataset();
    for mode in [SyncMode::Cached, SyncMode::NoCache] {
        for n_workers in [1, 4, 8] {
            let cfg = DistributedConfig { n_workers, mode, ..Default::default() };
            let run = || {
                let trainer = DistributedMamdr::new(&ds, cfg);
                let report = trainer.train(&ds);
                (fields(&report), checkpoint_bytes(trainer.server(), cfg.dim))
            };
            assert!(run() == run(), "{mode:?} at {n_workers} workers: two runs differ");
        }
    }
}

#[test]
fn asynchronous_loopback_at_two_shards_equals_in_process() {
    let ds = dataset();
    let cfg = DistributedConfig { n_workers: 4, route_shards: 2, ..Default::default() };
    assert!(!cfg.sync_rounds);
    let local_trainer = DistributedMamdr::new(&ds, cfg);
    let local = local_trainer.train(&ds);
    assert!(local.max_staleness > 0, "workers sharing rows see earlier updates");

    let loopback = LoopbackConfig { shards: 2, ..LoopbackConfig::new(cfg) };
    let mut net = DistributedTrainer::new(&ds, loopback, Arc::new(MetricsRegistry::new())).unwrap();
    assert_eq!(fields(&net.train(&ds).unwrap()), fields(&local));
    assert!(
        checkpoint_bytes(&net.merged_store(), cfg.dim)
            == checkpoint_bytes(local_trainer.server(), cfg.dim),
        "merged shard stores diverged from the in-process store"
    );
    net.shutdown();
}

#[test]
fn the_guard_vets_asynchronous_rounds() {
    // Any update above a millionth of the median accepted one trips.
    let guard = GuardConfig { explode_factor: 1e-6, warmup: 1, ..GuardConfig::enabled() };
    let cfg = DistributedConfig { guard, ..Default::default() };
    assert!(!cfg.sync_rounds);
    let report = DistributedMamdr::new(&dataset(), cfg).train(&dataset());
    assert!(report.guard_trips > 0, "{report:?}");
}
