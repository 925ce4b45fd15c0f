//! The worker cache's traffic, derived from the partitions rather than
//! pinned: every round of every worker pulls exactly its partition's key
//! set once and then reads five rows per training example, all hits. A
//! read the pull did not cover would either panic or show up here as an
//! extra miss or pull, for the in-process trainer (synchronous and
//! asynchronous) and the loopback trainer at two shards alike.

use mamdr::data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::engine::partition_domains;
use mamdr::ps::trainer::partition_keys;
use mamdr::ps::{route_chunks, CacheStats, DistributedConfig, DistributedMamdr, DistributedReport};
use mamdr::rpc::{DistributedTrainer, LoopbackConfig};
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("golden", 80, 50, 55);
    cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 300, 0.3)).collect();
    cfg.generate()
}

fn train_config(sync_rounds: bool) -> DistributedConfig {
    DistributedConfig {
        n_workers: 2,
        epochs: 3,
        sync_rounds,
        kernel_threads: 1,
        ..Default::default()
    }
}

/// What a run of `cfg` must count: one miss per pulled key, five hits per
/// training example, and the pull requests of every (round, worker) key
/// set routed over `shards` servers.
fn expected(ds: &MdrDataset, cfg: &DistributedConfig, shards: usize) -> (CacheStats, u64) {
    let (mut stats, mut pulls) = (CacheStats::default(), 0);
    for epoch in 0..cfg.epochs {
        for part in partition_domains(ds.n_domains(), cfg.seed, epoch, cfg.n_workers) {
            let keys = partition_keys(ds, &part);
            stats.misses += keys.len() as u64;
            stats.hits += 5 * part.iter().map(|&d| ds.domains[d].train.len() as u64).sum::<u64>();
            pulls += route_chunks(&keys, shards);
        }
    }
    (stats, pulls)
}

fn assert_accounting(report: &DistributedReport, want: (CacheStats, u64), what: &str) {
    assert_eq!(report.cache, want.0, "{what}: cache hits/misses");
    assert_eq!(report.pulls, want.1, "{what}: pull requests");
}

#[test]
fn every_round_pulls_its_key_set_once_and_every_read_hits() {
    let ds = dataset();
    for sync_rounds in [true, false] {
        let cfg = train_config(sync_rounds);
        let want = expected(&ds, &cfg, 1);
        // Below one wire chunk, a round is one pull per (round, worker).
        assert_eq!(want.1, (cfg.epochs * cfg.n_workers) as u64);
        let report = DistributedMamdr::new(&ds, cfg).train(&ds);
        assert_accounting(&report, want, &format!("in-process, sync_rounds {sync_rounds}"));
    }

    let cfg = train_config(true);
    let loopback = LoopbackConfig { shards: 2, ..LoopbackConfig::new(cfg) };
    let mut trainer =
        DistributedTrainer::new(&ds, loopback, Arc::new(MetricsRegistry::new())).unwrap();
    let report = trainer.train(&ds).unwrap();
    assert_accounting(&report, expected(&ds, &cfg, 2), "loopback at 2 shards");
}
