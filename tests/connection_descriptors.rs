//! A long loopback run must not accumulate descriptors. Every round opens
//! fresh worker connections to every shard; the servers must forget each
//! one when its client hangs up — registry entry, stream and thread
//! handle — so the process holds as many descriptors after 50 rounds as
//! after 5. A server that kept them ran out of descriptors after a few
//! hundred rounds at the usual 1 024 limit and then stopped accepting.
//!
//! The count is read from `/proc/self/fd`; where that does not exist the
//! test says so and passes without checking. It is alone in its binary so
//! no other test's files or sockets move the count.

use mamdr::data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::DistributedConfig;
use mamdr::rpc::{DistributedTrainer, LoopbackConfig, PublishHook};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("descriptors", 80, 50, 55);
    cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 300, 0.3)).collect();
    cfg.generate()
}

fn open_descriptors() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(Iterator::count)
}

/// Waits until the servers serve only the driver's connections (at most
/// one per shard; every worker hung up when its round ended) and returns
/// the process's descriptor count.
fn settled_descriptors(metrics: &MetricsRegistry) -> usize {
    let open = metrics.gauge("rpc_open_connections");
    let deadline = Instant::now() + Duration::from_secs(10);
    while open.get() > SHARDS as f64 {
        assert!(Instant::now() < deadline, "{} connections still open", open.get());
        std::thread::sleep(Duration::from_millis(1));
    }
    open_descriptors().expect("checked before the run")
}

#[test]
fn descriptors_after_50_rounds_equal_descriptors_after_5() {
    if open_descriptors().is_none() {
        eprintln!("skipped: /proc/self/fd is not readable here, so descriptors cannot be counted");
        return;
    }
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("mamdr-descriptors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Arc::new(MetricsRegistry::new());
    let seen: Arc<Mutex<Vec<(u64, usize)>>> = Arc::default();
    // The publish hook is the trainer's round-boundary callback: it runs
    // after the round's workers hung up, on the driver's thread.
    let hook = PublishHook {
        every: 1,
        dir: dir.clone(),
        encode: Arc::new(|round, _| Ok(round.to_le_bytes().to_vec())),
        on_commit: Arc::new({
            let (metrics, seen) = (Arc::clone(&metrics), Arc::clone(&seen));
            move |round, _| {
                if round == 5 || round == 50 {
                    let n = settled_descriptors(&metrics);
                    seen.lock().unwrap().push((round, n));
                }
            }
        }),
    };
    let train = DistributedConfig {
        n_workers: 2,
        epochs: 50,
        sync_rounds: true,
        kernel_threads: 1,
        route_shards: SHARDS,
        ..Default::default()
    };
    let cfg = LoopbackConfig { shards: SHARDS, publish: Some(hook), ..LoopbackConfig::new(train) };
    let mut trainer = DistributedTrainer::new(&ds, cfg, Arc::clone(&metrics)).unwrap();
    trainer.train(&ds).unwrap();
    trainer.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let seen = seen.lock().unwrap().clone();
    eprintln!("descriptors (round, count): {seen:?}");
    assert_eq!(seen.len(), 2, "both boundaries were reached: {seen:?}");
    assert_eq!(seen[0].1, seen[1].1, "descriptors after rounds 5 and 50: {seen:?}");
    assert_eq!(metrics.gauge("rpc_open_connections").get(), 0.0, "all hung up at shutdown");
    assert_eq!(metrics.counter("rpc_accept_errors_total").get(), 0);
}
