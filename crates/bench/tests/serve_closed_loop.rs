//! `paper serve --quick --threads 4`'s run, pinned through the library: 64
//! probe requests plus 1 000 closed-loop requests from 4 clients, with one
//! hot swap mid-run, all answered and all visible in the pool's metrics.
//! And the per-class split of the seeded overload trace the serving tier
//! is driven with, a pure function of its seed.

use mamdr_bench::serve::{closed_loop, dataset, pool_config, probe_digest, train_snapshot};
use mamdr_load::{TraceConfig, TraceGen};
use mamdr_models::FeatureConfig;
use mamdr_obs::MetricsRegistry;
use mamdr_serve::{ReplicatedServer, SloClass};

/// `paper serve`'s default seed and `--quick` training epochs.
const SEED: u64 = 42;
const EPOCHS: usize = 3;
const CLIENTS: usize = 4;

#[test]
fn the_closed_loop_run_answers_every_request_across_one_swap() {
    let ds = dataset(SEED);
    let fc = FeatureConfig::from_dataset(&ds);
    let v1 = train_snapshot(&ds, EPOCHS, 1, SEED);
    let v2 = train_snapshot(&ds, EPOCHS, 2, SEED ^ 0xBEEF);
    let registry = MetricsRegistry::new();
    let pool = ReplicatedServer::start(v1, 1, pool_config(CLIENTS), &registry, None);
    probe_digest(&pool, &fc, ds.n_domains());
    let run = closed_loop(&pool, &fc, ds.n_domains(), 1_000, CLIENTS, v2);
    pool.shutdown();

    assert_eq!(run.served, 1_000);
    assert_eq!(run.dropped, 0);
    assert_eq!(run.scored_v1 + run.scored_v2, 1_000);
    assert_eq!(registry.counter("serve_requests_total").get(), 1_064);
    assert_eq!(registry.counter("serve_responses_total").get(), 1_064);
    assert_eq!(registry.counter("serve_swaps_total").get(), 1);
    let prom = registry.render_prometheus();
    for line in [
        "# HELP serve_queue_wait_us ",
        "# TYPE serve_queue_wait_us summary",
        "serve_queue_wait_us_count 1064",
        "serve_latency_seconds",
        "serve_batch_compute_us",
    ] {
        assert!(prom.contains(line), "no {line:?} in\n{prom}");
    }
}

#[test]
fn the_overload_trace_splits_its_classes_exactly() {
    // 600 000 rps for one trace-second at seed 7, over `paper serve`'s
    // feature sizes.
    let ds = dataset(7);
    let fc = FeatureConfig::from_dataset(&ds);
    let mut cfg = TraceConfig::new(7, 600_000.0, 1.0);
    cfg.n_domains = ds.n_domains();
    cfg.n_users = fc.n_users as u32;
    cfg.n_items = fc.n_items as u32;
    cfg.n_user_groups = fc.n_user_groups as u32;
    cfg.n_item_cats = fc.n_item_cats as u32;
    let mut submitted = [0u64; SloClass::COUNT];
    for arrival in TraceGen::new(cfg) {
        submitted[arrival.class.index()] += 1;
    }
    assert_eq!(submitted, [516_981, 129_277]);
    assert_eq!(submitted.iter().sum::<u64>(), 646_258);
}
