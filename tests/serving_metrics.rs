//! Serving-side metric integration: GAUC / NDCG over a trained model's
//! per-user score lists, and the serving tier's worker accounting.

use mamdr::core::ranking::{gauc, mean_ndcg_at_k, UserScore};
use mamdr::prelude::*;
use mamdr::serve::ReplicatedServer;

#[test]
fn trained_model_has_better_serving_metrics_than_random() {
    let mut gen = GeneratorConfig::base("serve", 120, 60, 3);
    gen.conflict = 0.3;
    gen.domains = vec![DomainSpec::new("a", 1_200, 0.3)];
    let ds = gen.generate();

    let mut cfg = TrainConfig::quick();
    cfg.epochs = 10;
    let fc = FeatureConfig::from_dataset(&ds);
    let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), 1, 5);
    let mut env = TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), cfg);
    let trained = FrameworkKind::Alternate.build().train(&mut env);

    // Score the test split with trained and with random-init parameters.
    let score_with = |flat: &[f32]| -> Vec<UserScore> {
        let mut params = built.params.clone();
        params.load_flat(flat);
        let interactions = ds.domains[0].split(Split::Test);
        let batch = mamdr::data::make_batch(&ds, 0, interactions);
        let logits = mamdr::models::eval_logits(built.model.as_ref(), &params, &batch);
        interactions
            .iter()
            .zip(&logits)
            .map(|(it, &s)| UserScore { user: it.user, label: it.label, score: s })
            .collect()
    };
    let init = env.init_flat();
    let random_scores = score_with(&init);
    let trained_scores = score_with(&trained.shared);

    let g_rand = gauc(&random_scores);
    let g_trained = gauc(&trained_scores);
    assert!(g_trained > g_rand + 0.03, "training should lift GAUC: {} -> {}", g_rand, g_trained);

    let n_trained = mean_ndcg_at_k(&trained_scores, 5);
    assert!((0.0..=1.0).contains(&n_trained));
}

#[test]
fn workers_account_for_their_pickups_and_busy_time() {
    let mut gen = GeneratorConfig::base("serve", 120, 60, 3);
    gen.domains = vec![DomainSpec::new("a", 600, 0.3), DomainSpec::new("b", 600, 0.3)];
    let ds = gen.generate();
    let fc = FeatureConfig::from_dataset(&ds);
    let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), ds.n_domains(), 5);
    let spec = ModelSpec {
        kind: ModelKind::Mlp,
        features: fc,
        config: ModelConfig::tiny(),
        n_domains: ds.n_domains(),
    };
    let trained = TrainedModel::shared_only(built.params.to_flat());
    let snapshot = ServingSnapshot::from_trained(1, spec, trained).expect("a consistent model");
    let registry = MetricsRegistry::new();
    let pool = ReplicatedServer::start(snapshot, 2, ServeConfig::default(), &registry, None);
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let pool = &pool;
            s.spawn(move || {
                let pending: Vec<_> = (0..100u32)
                    .map(|i| {
                        let k = t * 100 + i;
                        let req = ScoreRequest::new(
                            (k % 2) as usize,
                            k % fc.n_users as u32,
                            k % fc.n_items as u32,
                            k % fc.n_user_groups as u32,
                            k % fc.n_item_cats as u32,
                        );
                        pool.submit(req, None).expect("under the cap")
                    })
                    .collect();
                for p in pending {
                    assert!(matches!(p.wait(), ServeResult::Scored(_)));
                }
            });
        }
    });
    pool.shutdown();

    let prom = registry.render_prometheus();
    for name in ["serve_pickups_total", "serve_worker_busy_seconds_total"] {
        let help = prom
            .lines()
            .find_map(|l| l.strip_prefix(&format!("# HELP {name} ")))
            .unwrap_or_else(|| panic!("{name} is not exposed"));
        assert!(!help.starts_with("mamdr "), "{name} has only the generated description");
    }
    let pickups = registry.counter("serve_pickups_total").get();
    let busy = registry.gauge("serve_worker_busy_seconds_total").get();
    let responses = registry.counter("serve_responses_total").get();
    assert_eq!(responses, 400);
    assert!(pickups > 0, "no pickup counted");
    assert!(busy > 0.0, "no busy time counted");
    assert!(pickups <= responses, "{pickups} pickups for {responses} responses");
}
