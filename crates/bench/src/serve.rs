//! The `serve_bench` fixture — its dataset, its trained snapshots and its
//! probe digest — in one copy, shared by the binary and the test that pins
//! the digest.

use mamdr_core::{FrameworkKind, TrainConfig, TrainEnv};
use mamdr_data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr_serve::{ModelSpec, ReplicatedServer, ScoreRequest, ServeResult, ServingSnapshot};

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
