//! Cross-crate integration tests: the full pipeline from dataset
//! generation through training to evaluation.

use mamdr::prelude::*;

fn small_dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("it", 100, 60, 21);
    cfg.conflict = 0.3;
    cfg.dense_dim = 4;
    cfg.domains = vec![
        DomainSpec::new("rich", 900, 0.3),
        DomainSpec::new("mid", 500, 0.4),
        DomainSpec::new("sparse", 80, 0.25),
    ];
    cfg.generate()
}

#[test]
fn every_framework_completes_and_scores() {
    let ds = small_dataset();
    let cfg = TrainConfig::quick();
    for fk in FrameworkKind::ALL {
        let r = run_experiment(&ds, ModelKind::Mlp, &ModelConfig::tiny(), fk, cfg);
        assert_eq!(r.domain_auc.len(), 3, "{}", fk.name());
        assert!(
            r.domain_auc.iter().all(|a| a.is_finite() && (0.0..=1.0).contains(a)),
            "{} produced invalid AUC {:?}",
            fk.name(),
            r.domain_auc
        );
    }
}

#[test]
fn mamdr_beats_chance_end_to_end() {
    let ds = small_dataset();
    let mut cfg = TrainConfig::quick();
    cfg.epochs = 8;
    let r = run_experiment(&ds, ModelKind::Mlp, &ModelConfig::tiny(), FrameworkKind::Mamdr, cfg);
    // Judge only the domains with enough test data for AUC to be stable:
    // the "sparse" domain has ~16 test interactions and is pure noise.
    let stable = (r.domain_auc[0] + r.domain_auc[1]) / 2.0;
    assert!(stable > 0.55, "MAMDR AUC on data-rich domains {}", stable);
}

#[test]
fn whole_pipeline_is_reproducible() {
    let ds = small_dataset();
    let cfg = TrainConfig::quick();
    let a = run_experiment(&ds, ModelKind::DeepFm, &ModelConfig::tiny(), FrameworkKind::Mamdr, cfg);
    let b = run_experiment(&ds, ModelKind::DeepFm, &ModelConfig::tiny(), FrameworkKind::Mamdr, cfg);
    assert_eq!(a.domain_auc, b.domain_auc);
}

#[test]
fn seeds_change_outcomes() {
    let ds = small_dataset();
    let a = run_experiment(
        &ds,
        ModelKind::Mlp,
        &ModelConfig::tiny(),
        FrameworkKind::Alternate,
        TrainConfig::quick().with_seed(1),
    );
    let b = run_experiment(
        &ds,
        ModelKind::Mlp,
        &ModelConfig::tiny(),
        FrameworkKind::Alternate,
        TrainConfig::quick().with_seed(2),
    );
    assert_ne!(a.domain_auc, b.domain_auc);
}

#[test]
fn presets_feed_training_directly() {
    // The public presets must be directly consumable by the trainer.
    let ds = taobao(10, 5, 0.05);
    let r = run_experiment(
        &ds,
        ModelKind::Mlp,
        &ModelConfig::tiny(),
        FrameworkKind::Alternate,
        TrainConfig::quick(),
    );
    assert_eq!(r.domain_auc.len(), 10);
}

#[test]
fn distributed_and_local_agree_on_dataset_semantics() {
    // The PS-Worker path consumes the same dataset type; its evaluation
    // must be meaningful on presets too.
    // 3k head samples: below ~2k the preset's 8k users x 3k items leave
    // embeddings with <1 update each and no model generalizes from it.
    let ds = industry(8, 3_000, 9);
    // One worker: the improvement this test asserts was measured at one
    // worker (every run is a function of its seed at any worker count).
    let cfg = DistributedConfig { epochs: 5, n_workers: 1, ..Default::default() };
    let trainer = DistributedMamdr::new(&ds, cfg);
    let before = trainer.evaluate(&ds, Split::Test);
    let report = trainer.train(&ds);
    assert!(report.mean_auc > before, "{} -> {}", before, report.mean_auc);
}
