//! End-to-end serving integration: train a real model, freeze it into a
//! snapshot, and drive the micro-batching server — covering the subsystem's
//! three contracts: bit-determinism (thread count and batching), snapshot
//! file integrity, and zero-loss hot swap under load.

use mamdr::prelude::*;
use mamdr::serve::{
    ModelSpec, ScoreRequest, ScoringEngine, ServeConfig, ServeResult, Server, ServingSnapshot,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn dataset() -> MdrDataset {
    let mut gen = GeneratorConfig::base("serve-e2e", 80, 50, 13);
    gen.conflict = 0.3;
    gen.domains = vec![DomainSpec::new("a", 600, 0.3), DomainSpec::new("b", 300, 0.4)];
    gen.generate()
}

/// Trains a tiny MLP under MAMDR and packages everything a snapshot needs.
fn trained_pair(ds: &MdrDataset, seed: u64) -> (ModelSpec, TrainedModel) {
    let fc = FeatureConfig::from_dataset(ds);
    let mc = ModelConfig::tiny();
    let built = build_model(ModelKind::Mlp, &fc, &mc, ds.n_domains(), seed);
    let cfg = TrainConfig::quick().with_seed(seed);
    let mut env = TrainEnv::new(ds, built.model.as_ref(), built.params, cfg);
    let trained = FrameworkKind::Mamdr.build().train(&mut env);
    let spec =
        ModelSpec { kind: ModelKind::Mlp, features: fc, config: mc, n_domains: ds.n_domains() };
    (spec, trained)
}

fn requests(fc: &FeatureConfig, domain: usize, n: u32) -> Vec<ScoreRequest> {
    (0..n)
        .map(|i| {
            ScoreRequest::new(
                domain,
                (i * 7) % fc.n_users as u32,
                (i * 3) % fc.n_items as u32,
                i % fc.n_user_groups as u32,
                i % fc.n_item_cats as u32,
            )
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn serving_scores_are_bit_identical_across_thread_counts() {
    let ds = dataset();
    let (spec, tm) = trained_pair(&ds, 3);
    let fc = spec.features;
    let snap = ServingSnapshot::from_trained(1, spec, tm).unwrap();
    let reqs = requests(&fc, 0, 64);
    mamdr::tensor::pool::set_threads(1);
    let one = snap.score(0, &reqs);
    mamdr::tensor::pool::set_threads(4);
    let four = snap.score(0, &reqs);
    assert_eq!(bits(&one), bits(&four), "thread count changed served scores");
    assert!(one.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn micro_batching_never_changes_a_score() {
    let ds = dataset();
    let (spec, tm) = trained_pair(&ds, 5);
    let fc = spec.features;
    let reqs = requests(&fc, 1, 40);
    let snap = ServingSnapshot::from_trained(1, spec.clone(), tm.clone()).unwrap();
    // Reference: every request scored alone.
    let singles: Vec<f32> =
        reqs.iter().map(|r| snap.score(1, std::slice::from_ref(r))[0]).collect();
    // One big coalesced batch must agree bit-for-bit.
    assert_eq!(bits(&snap.score(1, &reqs)), bits(&singles));
    // And so must the server, whatever batch shapes its scheduler forms.
    for max_batch in [1usize, 7, 64] {
        let snap = ServingSnapshot::from_trained(1, spec.clone(), tm.clone()).unwrap();
        let engine = Arc::new(ScoringEngine::new(snap, &mamdr::obs::MetricsRegistry::new()));
        let config = ServeConfig { max_batch, ..ServeConfig::default() };
        let server = Server::start(engine, config);
        let pending: Vec<_> =
            reqs.iter().map(|r| server.submit(r.clone(), None).expect("admitted")).collect();
        for (p, &want) in pending.iter().zip(&singles) {
            match p.wait() {
                ServeResult::Scored(r) => {
                    assert_eq!(r.score.to_bits(), want.to_bits(), "max_batch={max_batch}")
                }
                other => panic!("expected score, got {other:?}"),
            }
        }
        server.shutdown();
    }
}

#[test]
fn snapshot_file_roundtrip_preserves_scores() {
    let ds = dataset();
    let (spec, tm) = trained_pair(&ds, 7);
    let fc = spec.features;
    let snap = ServingSnapshot::from_trained(42, spec, tm).unwrap();
    let reqs = requests(&fc, 0, 16);
    let before = snap.score(0, &reqs);

    let dir = std::env::temp_dir().join(format!("mamdr-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.mamdrsv");
    snap.save_to_path(&path).unwrap();
    let loaded = ServingSnapshot::load_from_path(&path).unwrap();
    assert_eq!(loaded.version(), 42);
    assert_eq!(bits(&loaded.score(0, &reqs)), bits(&before));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_under_load_loses_no_requests() {
    let ds = dataset();
    let (spec, tm1) = trained_pair(&ds, 11);
    let (_, tm2) = trained_pair(&ds, 23);
    let fc = spec.features;
    let v1 = ServingSnapshot::from_trained(1, spec.clone(), tm1).unwrap();
    let v2 = ServingSnapshot::from_trained(2, spec.clone(), tm2).unwrap();

    let registry = mamdr::obs::MetricsRegistry::new();
    let engine = Arc::new(ScoringEngine::new(v1, &registry));
    let config =
        ServeConfig { max_batch: 16, queue_cap: 4096, n_workers: 2, ..ServeConfig::default() };
    let server = Server::start(Arc::clone(&engine), config);

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;
    let results: Mutex<Vec<(ScoreRequest, ServeResult)>> = Mutex::new(Vec::new());
    let v2 = Mutex::new(Some(v2));
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let server = &server;
            let results = &results;
            let fc = &fc;
            s.spawn(move || {
                // Submit in flights of 25 so many requests are in the system
                // at once, then harvest the flight.
                let reqs = requests(fc, t % 2, PER_CLIENT as u32);
                for flight in reqs.chunks(25) {
                    let pending: Vec<_> = flight
                        .iter()
                        .map(|r| server.submit(r.clone(), None).expect("queue_cap is generous"))
                        .collect();
                    let mut out = results.lock().unwrap();
                    for (r, p) in flight.iter().zip(&pending) {
                        out.push((r.clone(), p.wait()));
                    }
                }
            });
        }
        // Swap mid-run, while clients are submitting.
        std::thread::sleep(Duration::from_millis(5));
        let retired = engine.publish(v2.lock().unwrap().take().unwrap());
        assert_eq!(retired.version(), 1);
    });

    // Zero loss: every admitted request resolved, none rejected.
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), CLIENTS * PER_CLIENT);
    assert_eq!(registry.counter("serve_requests_total").get(), (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(registry.counter("serve_responses_total").get(), (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(registry.counter("serve_rejected_total").get(), 0);
    assert_eq!(registry.counter("serve_swaps_total").get(), 1);

    // Every response was produced by exactly one of the two versions: its
    // score must bit-match that version's own forward pass on the request.
    let old = ServingSnapshot::from_trained(1, spec.clone(), trained_pair(&ds, 11).1).unwrap();
    let new = engine.snapshot();
    for (req, res) in &results {
        match res {
            ServeResult::Scored(r) => {
                let expect = match r.snapshot_version {
                    1 => old.score(req.domain, std::slice::from_ref(req))[0],
                    2 => new.score(req.domain, std::slice::from_ref(req))[0],
                    v => panic!("response from unknown snapshot version {v}"),
                };
                assert_eq!(
                    r.score.to_bits(),
                    expect.to_bits(),
                    "score does not match its claimed snapshot version {}",
                    r.snapshot_version
                );
            }
            other => panic!("request dropped or failed under hot swap: {other:?}"),
        }
    }

    // The swap is complete: anything submitted after it is scored by v2.
    let p = server.submit(requests(&fc, 0, 1).remove(0), None).unwrap();
    match p.wait() {
        ServeResult::Scored(r) => assert_eq!(r.snapshot_version, 2),
        other => panic!("expected score, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn ps_checkpoint_dir_feeds_serving() {
    use mamdr::ps::{checkpoint, ParamKey, ParameterServer};
    let dir = std::env::temp_dir().join(format!("mamdr-serve-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // No checkpoint yet: serving politely declines.
    assert!(ServingSnapshot::from_ps_checkpoint_dir(1, &dir, 2).unwrap().is_none());

    let ps = ParameterServer::new(2, 4);
    for table in 0..5u32 {
        for row in 0..6u32 {
            ps.init_row(ParamKey::new(table, row), vec![0.05 * (table + row) as f32; 4]);
        }
    }
    checkpoint::save_to_dir(&ps, 4, &dir, 8).unwrap();
    let snap = ServingSnapshot::from_ps_checkpoint_dir(3, &dir, 2).unwrap().expect("checkpoint");
    assert_eq!(snap.version(), 3);
    let reqs = vec![ScoreRequest::new(1, 2, 3, 1, 0), ScoreRequest::new(1, 4, 5, 0, 1)];
    let scores = snap.score(1, &reqs);
    assert!(scores.iter().all(|p| (0.0..=1.0).contains(p)));
    // Same state served live agrees with the checkpointed path.
    let live = ServingSnapshot::from_ps(3, &ps, 2);
    assert_eq!(bits(&live.score(1, &reqs)), bits(&scores));
    std::fs::remove_dir_all(&dir).ok();
}
