//! The `serve_bench` fixture — its dataset, its trained snapshots, its
//! probe digest and its closed-loop client run — in one copy, shared by
//! the binary and the tests that pin them.

use mamdr_core::{FrameworkKind, TrainConfig, TrainEnv};
use mamdr_data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr_serve::{
    ModelSpec, ReplicatedServer, ScoreRequest, ServeConfig, ServeResult, ServingSnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The three-domain dataset `serve_bench` trains on and serves.
pub fn dataset(seed: u64) -> MdrDataset {
    let mut gen = GeneratorConfig::base("serve-bench", 200, 120, seed);
    gen.conflict = 0.3;
    gen.domains = vec![
        DomainSpec::new("large", 1_200, 0.3),
        DomainSpec::new("mid", 600, 0.35),
        DomainSpec::new("small", 200, 0.4),
    ];
    gen.generate()
}

/// Trains a tiny MLP under MAMDR for `epochs` and freezes it as snapshot
/// `version`.
pub fn train_snapshot(ds: &MdrDataset, epochs: usize, version: u64, seed: u64) -> ServingSnapshot {
    let fc = FeatureConfig::from_dataset(ds);
    let mc = ModelConfig::tiny();
    let built = build_model(ModelKind::Mlp, &fc, &mc, ds.n_domains(), seed);
    let cfg = TrainConfig::quick().with_seed(seed).with_epochs(epochs);
    let mut env = TrainEnv::new(ds, built.model.as_ref(), built.params, cfg);
    let trained = FrameworkKind::Mamdr.build().train(&mut env);
    let spec =
        ModelSpec { kind: ModelKind::Mlp, features: fc, config: mc, n_domains: ds.n_domains() };
    ServingSnapshot::from_trained(version, spec, trained)
        .expect("freshly trained model always freezes")
}

/// The per-replica serving configuration, `workers` scoring workers each.
pub fn pool_config(workers: usize) -> ServeConfig {
    ServeConfig {
        queue_cap: 4096,
        // Bulk admission is bounded well below the global cap: a bulk
        // flood sheds (typed) long before it can crowd out interactive.
        class_caps: [0, 1024],
        n_workers: workers,
        ..ServeConfig::default()
    }
}

/// Scores a fixed probe set through the pool and digests the score bits
/// with FNV-1a. Identical across replica and worker counts — the
/// bit-identity evidence the serving tests pin.
pub fn probe_digest(pool: &ReplicatedServer, fc: &FeatureConfig, n_domains: usize) -> u64 {
    let pending: Vec<_> = (0..64u32)
        .map(|k| {
            let req = ScoreRequest::new(
                (k as usize) % n_domains,
                (k * 13) % fc.n_users as u32,
                (k * 5) % fc.n_items as u32,
                k % fc.n_user_groups as u32,
                k % fc.n_item_cats as u32,
            );
            pool.submit(req, None).expect("probe admitted on an idle pool")
        })
        .collect();
    let mut digest = mamdr_util::Checksum::new();
    for p in pending {
        match p.wait() {
            ServeResult::Scored(r) => digest.update(&r.score.to_bits().to_le_bytes()),
            other => panic!("probe request not scored: {other:?}"),
        }
    }
    digest.digest()
}

/// What one [`closed_loop`] run observed.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Requests submitted: `requests` rounded up to a multiple of the
    /// client count.
    pub served: u64,
    /// Requests scored by snapshot version 1 and by version 2.
    pub scored_v1: u64,
    pub scored_v2: u64,
    /// Requests rejected, not scored, or scored by any other version.
    pub dropped: u64,
    /// Wall-clock seconds of the run.
    pub elapsed_secs: f64,
}

/// Drives `pool` (serving snapshot version 1) with `clients` closed-loop
/// clients — each submits its next request when the previous one answers —
/// for `requests` requests in total, and hot-swaps `v2` in once half of
/// them have been answered.
pub fn closed_loop(
    pool: &ReplicatedServer,
    fc: &FeatureConfig,
    n_domains: usize,
    requests: usize,
    clients: usize,
    v2: ServingSnapshot,
) -> ClosedLoop {
    let per_client = requests.div_ceil(clients);
    let scored = [AtomicU64::new(0), AtomicU64::new(0)];
    let dropped = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (scored, dropped, done) = (&scored, &dropped, &done);
            s.spawn(move || {
                for i in 0..per_client {
                    let k = (c * per_client + i) as u32;
                    let req = ScoreRequest::new(
                        (k as usize) % n_domains,
                        (k * 7) % fc.n_users as u32,
                        (k * 3) % fc.n_items as u32,
                        k % fc.n_user_groups as u32,
                        k % fc.n_item_cats as u32,
                    );
                    match pool.submit(req, Some(Duration::from_secs(30))) {
                        Ok(pending) => match pending.wait() {
                            ServeResult::Scored(r) if matches!(r.snapshot_version, 1 | 2) => {
                                scored[r.snapshot_version as usize - 1]
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            other => {
                                eprintln!("[serve_bench] bad outcome: {other:?}");
                                dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(e) => {
                            eprintln!("[serve_bench] submission rejected: {e}");
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Hot swap once half the load has been served, mid-flight.
        let half = (clients * per_client) as u64 / 2;
        while done.load(Ordering::Relaxed) < half {
            std::thread::sleep(Duration::from_micros(200));
        }
        pool.publish(v2);
    });
    let [v1, v2] = scored.map(AtomicU64::into_inner);
    ClosedLoop {
        served: (clients * per_client) as u64,
        scored_v1: v1,
        scored_v2: v2,
        dropped: dropped.into_inner(),
        elapsed_secs: t0.elapsed().as_secs_f64(),
    }
}
