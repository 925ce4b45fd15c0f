//! The seeded fault drill's ledger is a function of its seed on a busy
//! machine too. Four drills run at once — `paper dist --quick --workers 2
//! --threads 1 --seed 7` under its fault plan, as `tests/rpc_distributed.rs`
//! drives it — each three times over, and every run must report the
//! ledger `paper dist` prints, its traffic included.
//!
//! A duplicated frame is served twice, and the copy's pull is counted when
//! the shard serves it. A client let go before it read the copy's reply
//! left that count racing the report's read of the stores' traffic, which
//! a loaded machine lost now and then (`pulls 9`).

use mamdr::data::presets;
use mamdr::obs::MetricsRegistry;
use mamdr::ps::DistributedConfig;
use mamdr::rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, RetryPolicy};
use std::sync::Arc;

const DRILL_FAULTS: &str = "seed=7,drop_send=0.05,drop_recv=0.1,dup=0.4,disconnect=3";

/// Drills running at once, and runs per drill.
const CONCURRENT: usize = 4;
const RUNS: usize = 3;

/// One drill run's ledger: the report's traffic, then the wire counters.
fn drill_ledger() -> [u64; 10] {
    let ds = presets::industry(4, 300, 7);
    let cfg = DistributedConfig {
        n_workers: 2,
        epochs: 3,
        sync_rounds: true,
        seed: 7,
        kernel_threads: 1,
        ..Default::default()
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let loopback = LoopbackConfig {
        fault: Some(FaultPlan::parse(DRILL_FAULTS).unwrap()),
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        ..LoopbackConfig::new(cfg)
    };
    let mut trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&metrics)).unwrap();
    let report = trainer.train(&ds).unwrap();
    trainer.shutdown();
    let counter = |name: &str| metrics.counter(name).get();
    [
        report.pulls,
        report.pushes,
        report.total_bytes,
        counter("rpc_frames_total"),
        counter("rpc_retries_total"),
        counter("rpc_push_applied_total"),
        counter("rpc_push_deduped_total"),
        counter("rpc_faults_dropped_total"),
        counter("rpc_faults_duplicated_total"),
        counter("rpc_faults_disconnects_total"),
    ]
}

#[test]
fn concurrent_drills_all_report_the_seeded_ledger() {
    let ledgers: Vec<[u64; 10]> = std::thread::scope(|scope| {
        let drills: Vec<_> = (0..CONCURRENT)
            .map(|_| scope.spawn(|| (0..RUNS).map(|_| drill_ledger()).collect::<Vec<_>>()))
            .collect();
        drills.into_iter().flat_map(|d| d.join().expect("drill thread panicked")).collect()
    });
    for ledger in &ledgers {
        assert_eq!(*ledger, [10, 2397, 204_608, 20, 2, 2397, 1067, 1, 7, 1], "{ledgers:?}");
    }
}
