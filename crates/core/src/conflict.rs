//! The gradient-conflict probe behind paper §III-B / Figure 3.
//!
//! Domain conflict is defined as a negative inner product between the
//! gradients two domains induce on the same parameters. This module
//! measures that quantity directly, so experiments can (a) demonstrate that
//! the synthetic datasets actually exhibit conflict and (b) verify that
//! Domain Negotiation reduces it.

use crate::env::TrainEnv;
use mamdr_nn::vecmath;

/// Pairwise gradient-conflict statistics at one parameter point.
#[derive(Debug, Clone)]
pub struct ConflictReport {
    /// Number of domain pairs measured.
    pub n_pairs: usize,
    /// Fraction of pairs with negative gradient inner product.
    pub conflict_rate: f64,
    /// Mean pairwise inner product.
    pub mean_inner_product: f64,
    /// Mean pairwise cosine similarity.
    pub mean_cosine: f64,
}

/// Measures pairwise gradient conflict across all domains at `theta`.
///
/// Each domain's gradient is averaged over up to 8 minibatches (dropout
/// disabled) — single-minibatch gradients near convergence are dominated by
/// sampling noise, which would mask the systematic conflict this probe is
/// after. All `n·(n−1)/2` pairs are then compared.
pub fn measure_conflict(env: &mut TrainEnv, theta: &[f32]) -> ConflictReport {
    let n = env.n_domains();
    let grads: Vec<Vec<f32>> = (0..n).map(|d| domain_gradient(env, theta, d, 8)).collect();
    pairwise_conflict(&grads)
}

/// Pairwise conflict statistics over pre-computed per-domain gradients.
/// Shared by [`measure_conflict`] and the observer's conflict probe in
/// `TrainEnv` (which sources its gradients from a dedicated RNG stream).
pub fn pairwise_conflict(grads: &[Vec<f32>]) -> ConflictReport {
    let n = grads.len();
    let mut n_pairs = 0usize;
    let mut n_conflict = 0usize;
    let mut ip_sum = 0.0f64;
    let mut cos_sum = 0.0f64;
    for a in 0..n {
        for b in a + 1..n {
            let ip = vecmath::dot(&grads[a], &grads[b]);
            ip_sum += ip;
            cos_sum += vecmath::cosine(&grads[a], &grads[b]);
            if ip < 0.0 {
                n_conflict += 1;
            }
            n_pairs += 1;
        }
    }
    ConflictReport {
        n_pairs,
        conflict_rate: if n_pairs == 0 { 0.0 } else { n_conflict as f64 / n_pairs as f64 },
        mean_inner_product: if n_pairs == 0 { 0.0 } else { ip_sum / n_pairs as f64 },
        mean_cosine: if n_pairs == 0 { 0.0 } else { cos_sum / n_pairs as f64 },
    }
}

/// The average training gradient of one domain at `theta`, taken over up to
/// `max_batches` shuffled minibatches (equal-weight average ≈ the
/// full-domain gradient when batch sizes are equal).
pub fn domain_gradient(
    env: &mut TrainEnv,
    theta: &[f32],
    domain: usize,
    max_batches: usize,
) -> Vec<f32> {
    let batches = env.first_train_batches(domain, max_batches.max(1));
    let mut acc = vec![0.0f32; theta.len()];
    let n = batches.len().max(1);
    for batch in batches {
        let (_, g) = env.grad(theta, &batch, false);
        vecmath::axpy(&mut acc, 1.0 / n as f32, &g);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::frameworks::alternate::Alternate;
    use crate::frameworks::Framework;
    use crate::test_support::fixture_env;
    use mamdr_data::{DomainSpec, GeneratorConfig};
    use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};

    fn conflict_dataset(conflict: f32) -> mamdr_data::MdrDataset {
        let mut cfg = GeneratorConfig::base("c", 200, 100, 91);
        cfg.conflict = conflict;
        cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 700, 0.3)).collect();
        cfg.generate()
    }

    #[test]
    fn report_fields_are_consistent() {
        let ds = conflict_dataset(0.5);
        let fc = FeatureConfig::from_dataset(&ds);
        let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), 6, 1);
        let mut env = fixture_env(&ds, &built, TrainConfig::quick());
        let theta = env.init_flat();
        let r = measure_conflict(&mut env, &theta);
        assert_eq!(r.n_pairs, 15);
        assert!((0.0..=1.0).contains(&r.conflict_rate));
        assert!((-1.0..=1.0).contains(&r.mean_cosine));
    }

    #[test]
    fn conflict_emerges_during_training() {
        // Paper §III-B: domain conflict is absent at a random init (all
        // domains agree on "learn the embeddings") and emerges as the shared
        // parameters approach the compromise point. Both ends are asserted.
        let ds = conflict_dataset(0.9);
        let fc = FeatureConfig::from_dataset(&ds);
        let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), 6, 1);
        let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(6));
        let init = env.init_flat();
        let at_init = measure_conflict(&mut env, &init);
        assert!(
            at_init.mean_cosine > 0.3,
            "gradients should agree at init, cosine {}",
            at_init.mean_cosine
        );
        let tm = Alternate.train(&mut env);
        let trained = measure_conflict(&mut env, &tm.shared);
        assert!(
            trained.mean_cosine < at_init.mean_cosine - 0.2,
            "gradient agreement should fall during training: {} -> {}",
            at_init.mean_cosine,
            trained.mean_cosine
        );
    }

    #[test]
    fn dataset_conflict_knob_degrades_shared_training() {
        // The outcome-level effect of the ground-truth conflict knob: a
        // single shared model loses test AUC as domains disagree more.
        let mut aucs = Vec::new();
        for conflict in [0.0f32, 1.0] {
            let ds = conflict_dataset(conflict);
            let fc = FeatureConfig::from_dataset(&ds);
            let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), 6, 1);
            let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(8));
            let tm = Alternate.train(&mut env);
            let per_domain = env.evaluate(&tm, mamdr_data::Split::Test);
            aucs.push(crate::metrics::mean(&per_domain));
        }
        assert!(aucs[0] > aucs[1] + 0.01, "conflict knob should cost AUC: {:?}", aucs);
    }
}
