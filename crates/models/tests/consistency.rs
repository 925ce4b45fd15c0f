//! Cross-architecture consistency tests: prediction semantics, parameter
//! accounting and train/eval mode behavior for every model in the zoo.

use mamdr_autodiff::tape::stable_sigmoid;
use mamdr_data::{make_batch, DomainSpec, GeneratorConfig, MdrDataset};
use mamdr_models::{
    build_model, eval_logits, loss_and_grads, predict_probs, FeatureConfig, ModelConfig, ModelKind,
};
use mamdr_nn::ForwardCtx;
use mamdr_tensor::rng::seeded;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("cons", 50, 30, 77);
    cfg.dense_dim = 4;
    cfg.domains = vec![DomainSpec::new("a", 260, 0.3), DomainSpec::new("b", 200, 0.4)];
    cfg.generate()
}

#[test]
fn probs_are_sigmoid_of_logits() {
    let ds = dataset();
    let fc = FeatureConfig::from_dataset(&ds);
    let batch = make_batch(&ds, 0, &ds.domains[0].train[..10]);
    for kind in ModelKind::ALL {
        let built = build_model(kind, &fc, &ModelConfig::tiny(), 2, 4);
        let logits = eval_logits(built.model.as_ref(), &built.params, &batch);
        let probs = predict_probs(built.model.as_ref(), &built.params, &batch);
        for (l, p) in logits.iter().zip(&probs) {
            assert!((stable_sigmoid(*l) - p).abs() < 1e-6, "{}: prob/logit mismatch", kind.name());
        }
    }
}

#[test]
fn eval_is_independent_of_batch_composition() {
    // Scoring an example must not depend on which other examples share its
    // batch (no cross-example leakage) — except for STAR, whose partitioned
    // normalization intentionally uses batch statistics.
    let ds = dataset();
    let fc = FeatureConfig::from_dataset(&ds);
    let whole = make_batch(&ds, 0, &ds.domains[0].train[..8]);
    let head = make_batch(&ds, 0, &ds.domains[0].train[..4]);
    for kind in ModelKind::ALL {
        if kind == ModelKind::Star {
            continue;
        }
        let built = build_model(kind, &fc, &ModelConfig::tiny(), 2, 5);
        let full = eval_logits(built.model.as_ref(), &built.params, &whole);
        let part = eval_logits(built.model.as_ref(), &built.params, &head);
        for i in 0..4 {
            assert!(
                (full[i] - part[i]).abs() < 1e-5,
                "{}: batch composition changed example {}'s logit",
                kind.name(),
                i
            );
        }
    }
}

#[test]
fn parameter_counts_scale_with_domains() {
    // Multi-domain models must grow linearly in the domain count; the
    // single-domain models must not change at all.
    let ds = dataset();
    let fc = FeatureConfig::from_dataset(&ds);
    let mc = ModelConfig::tiny();
    for kind in ModelKind::ALL {
        let p2 = build_model(kind, &fc, &mc, 2, 1).params.n_scalars();
        let p4 = build_model(kind, &fc, &mc, 4, 1).params.n_scalars();
        if kind.is_multi_domain() {
            assert!(p4 > p2, "{}: domain params missing", kind.name());
            let p6 = build_model(kind, &fc, &mc, 6, 1).params.n_scalars();
            assert_eq!(p6 - p4, 2 * (p4 - p2) / 2, "{}: nonlinear growth", kind.name());
        } else {
            assert_eq!(p2, p4, "{}: single-domain model grew with domains", kind.name());
        }
    }
}

#[test]
fn training_mode_uses_dropout_eval_does_not() {
    let ds = dataset();
    let fc = FeatureConfig::from_dataset(&ds);
    let mut mc = ModelConfig::tiny();
    mc.dropout = 0.5;
    let batch = make_batch(&ds, 0, &ds.domains[0].train[..16]);
    let built = build_model(ModelKind::Mlp, &fc, &mc, 2, 6);
    // Two training losses with different RNG streams differ (dropout),
    let mut r1 = seeded(1);
    let mut c1 = ForwardCtx::train(&mut r1);
    let (l1, _) = loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut c1);
    let mut r2 = seeded(2);
    let mut c2 = ForwardCtx::train(&mut r2);
    let (l2, _) = loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut c2);
    assert_ne!(l1, l2, "dropout should randomize the training loss");
    // while eval logits ignore the RNG entirely.
    let e1 = eval_logits(built.model.as_ref(), &built.params, &batch);
    let e2 = eval_logits(built.model.as_ref(), &built.params, &batch);
    assert_eq!(e1, e2);
}

#[test]
fn gradients_are_zero_for_unused_embedding_rows() {
    let ds = dataset();
    let fc = FeatureConfig::from_dataset(&ds);
    let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), 2, 7);
    let batch = make_batch(&ds, 0, &ds.domains[0].train[..6]);
    let mut rng = seeded(3);
    let mut ctx = ForwardCtx::eval(&mut rng);
    let (_, grads) = loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut ctx);
    let user_table = built.params.index_of("mlp/emb_user").unwrap();
    let mut ids = grads.rows(user_table).expect("the user table is gathered").ids().to_vec();
    ids.sort_unstable();
    let mut users = batch.users.clone();
    users.sort_unstable();
    users.dedup();
    assert_eq!(ids, users, "row gradients exist for exactly the batch's users");
    let g = grads.to_dense(user_table).unwrap();
    let used: std::collections::HashSet<u32> = batch.users.iter().copied().collect();
    for r in 0..g.matrix_dims().0 {
        let row_norm: f32 = g.row(r).iter().map(|x| x * x).sum();
        if !used.contains(&(r as u32)) {
            assert_eq!(row_norm, 0.0, "row {} got gradient without being in batch", r);
        }
    }
    // and at least the touched rows received signal
    assert!(used.iter().any(|&u| g.row(u as usize).iter().any(|&x| x != 0.0)));
}

#[test]
fn autoint_stacks_interacting_layers() {
    let ds = dataset();
    let fc = FeatureConfig::from_dataset(&ds);
    let batch = make_batch(&ds, 0, &ds.domains[0].train[..5]);
    let mut mc = ModelConfig::tiny();
    let single = build_model(ModelKind::AutoInt, &fc, &mc, 1, 3);
    mc.att_layers = 3;
    let stacked = build_model(ModelKind::AutoInt, &fc, &mc, 1, 3);
    assert!(
        stacked.params.n_scalars() > single.params.n_scalars(),
        "extra layers must add parameters"
    );
    // second layer exists and is wired into the forward pass
    assert!(stacked.params.index_of("autoint/l2/h0/wq/w").is_some());
    let logits = eval_logits(stacked.model.as_ref(), &stacked.params, &batch);
    assert_eq!(logits.len(), 5);
    assert!(logits.iter().all(|x| x.is_finite()));
}
