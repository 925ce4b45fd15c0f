//! Publishing is a read. At one shard the publish hook is lent the live
//! training store, beyond one a merged copy; either way a run that builds
//! and encodes a serving snapshot every round must train exactly like a
//! run that never publishes — the same losses, the same PS traffic, the
//! same wire frames and, at the end, the same store bytes.

use mamdr::data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::{checkpoint, DistributedConfig, DistributedReport};
use mamdr::rpc::{DistributedTrainer, LoopbackConfig, PublishHook};
use mamdr::serve::ServingSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("neutral", 60, 40, 17);
    cfg.domains = (0..4).map(|i| DomainSpec::new(format!("d{i}"), 220, 0.3)).collect();
    cfg.generate()
}

struct Run {
    report: DistributedReport,
    frames: u64,
    store_bytes: Vec<u8>,
}

fn run(ds: &MdrDataset, shards: usize, publish: bool, published: &Arc<AtomicUsize>) -> Run {
    let train = DistributedConfig {
        n_workers: 2,
        epochs: 4,
        sync_rounds: true,
        kernel_threads: 1,
        route_shards: shards,
        ..Default::default()
    };
    let dir = std::env::temp_dir()
        .join(format!("mamdr-neutral-{shards}-{publish}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n_domains = ds.n_domains();
    let hook = PublishHook {
        every: 1,
        dir: dir.clone(),
        encode: Arc::new(move |round, ps| {
            let mut buf = Vec::new();
            let snapshot = ServingSnapshot::from_ps(round, ps, n_domains);
            snapshot.check_finite()?;
            snapshot.write_to(&mut buf).map_err(|e| e.to_string())?;
            Ok(buf)
        }),
        on_commit: Arc::new({
            let published = Arc::clone(published);
            move |_, _| {
                published.fetch_add(1, Ordering::Relaxed);
            }
        }),
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let cfg =
        LoopbackConfig { shards, publish: publish.then_some(hook), ..LoopbackConfig::new(train) };
    let mut trainer = DistributedTrainer::new(ds, cfg, Arc::clone(&metrics)).unwrap();
    let report = trainer.train(ds).unwrap();
    let mut store_bytes = Vec::new();
    checkpoint::save(&trainer.merged_store(), train.dim, &mut store_bytes).unwrap();
    trainer.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    Run { report, frames: metrics.counter("rpc_frames_total").get(), store_bytes }
}

#[test]
fn publishing_every_round_changes_nothing_at_one_and_two_shards() {
    let ds = dataset();
    for shards in [1usize, 2] {
        let published = Arc::new(AtomicUsize::new(0));
        let quiet = run(&ds, shards, false, &published);
        assert_eq!(published.load(Ordering::Relaxed), 0);
        let loud = run(&ds, shards, true, &published);
        assert_eq!(published.load(Ordering::Relaxed), 4, "{shards} shards: one publish a round");
        assert_eq!(loud.report.round_losses, quiet.report.round_losses, "{shards} shards");
        assert_eq!(loud.report.mean_auc.to_bits(), quiet.report.mean_auc.to_bits());
        assert_eq!(loud.report.pulls, quiet.report.pulls, "{shards} shards");
        assert_eq!(loud.report.pushes, quiet.report.pushes, "{shards} shards");
        assert_eq!(loud.frames, quiet.frames, "{shards} shards");
        assert!(loud.store_bytes == quiet.store_bytes, "{shards} shards: final store bytes");
    }
}
