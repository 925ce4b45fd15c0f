//! Meta-learning baselines: first-order MAML, Reptile and MLDG
//! (paper §V-B "Meta-Learning Frameworks").
//!
//! The crucial contrast with Domain Negotiation (paper Fig. 5): MAML and
//! Reptile maximize gradient inner products *within* a single domain's
//! inner loop, so they improve per-domain generalization but cannot
//! negotiate *between* domains. DN runs one inner loop *across* all
//! domains, which is what mitigates cross-domain conflict.

use crate::env::{TrainEnv, TrainedModel};
use crate::frameworks::multitask::rounds_per_epoch;
use crate::frameworks::Framework;
use mamdr_nn::vecmath;

/// First-order MAML: per domain, adapt on a support batch, take the outer
/// gradient on a query batch at the adapted point (the FOMAML
/// approximation), and average over domains.
///
/// As the paper notes (§V-G), the support/query split means MAML never
/// trains on the full data of a domain in one step — a handicap the other
/// frameworks don't have.
pub struct Maml;

impl Framework for Maml {
    fn name(&self) -> &'static str {
        "MAML"
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let mut theta = env.init_flat();
        let mut outer = env.cfg.inner.build(theta.len());
        let inner_lr = inner_sgd_lr(env);
        let rounds = rounds_per_epoch(env);
        for _ in 0..env.cfg.epochs {
            for _ in 0..rounds {
                let mut meta_grad = vec![0.0f32; theta.len()];
                let domains = env.shuffled_domains();
                for &d in &domains {
                    // Support/query: two independent batches of the domain.
                    let support = env.sample_train_batch(d);
                    let query = env.sample_train_batch(d);
                    let mut adapted = theta.clone();
                    for _ in 0..env.cfg.meta_inner_steps {
                        let (_, g) = env.grad(&adapted, &support, true);
                        vecmath::axpy(&mut adapted, -inner_lr, &g);
                    }
                    let (_, gq) = env.grad(&adapted, &query, true);
                    vecmath::axpy(&mut meta_grad, 1.0, &gq);
                }
                vecmath::scale(&mut meta_grad, 1.0 / domains.len() as f32);
                outer.step(&mut theta, &meta_grad);
            }
            env.end_epoch(Some(&theta));
        }
        TrainedModel::shared_only(theta)
    }
}

/// Reptile: per domain, run a few inner steps *within that domain* and
/// interpolate toward the result: θ ← θ + β(θ̃_d − θ).
///
/// Structurally the closest baseline to DN — the difference is exactly that
/// Reptile's inner trajectory stays inside one domain (paper Fig. 5d vs 5a).
pub struct Reptile;

impl Framework for Reptile {
    fn name(&self) -> &'static str {
        "Reptile"
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let mut theta = env.init_flat();
        let beta = env.cfg.outer_lr;
        for _ in 0..env.cfg.epochs {
            for d in env.shuffled_domains() {
                let mut tilde = theta.clone();
                let mut inner = env.cfg.inner.build(tilde.len());
                let cap = env.cfg.meta_inner_steps.max(1) * 4;
                for batch in env.first_train_batches(d, cap) {
                    let (_, g) = env.grad(&tilde, &batch, true);
                    inner.step(&mut tilde, &g);
                }
                vecmath::lerp_toward(&mut theta, &tilde, beta);
            }
            env.end_epoch(Some(&theta));
        }
        TrainedModel::shared_only(theta)
    }
}

/// MLDG (Li et al.), first-order variant: per round, split the domains into
/// meta-train and meta-test halves; the update direction is
/// `∇L_train(θ) + ∇L_test(θ − α·∇L_train(θ))`, which rewards updates whose
/// benefit transfers to held-out domains.
pub struct Mldg;

impl Framework for Mldg {
    fn name(&self) -> &'static str {
        "MLDG"
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let mut theta = env.init_flat();
        let mut outer = env.cfg.inner.build(theta.len());
        let inner_lr = inner_sgd_lr(env);
        let rounds = rounds_per_epoch(env);
        for _ in 0..env.cfg.epochs {
            for _ in 0..rounds {
                let order = env.shuffled_domains();
                let half = (order.len() / 2).max(1);
                let (meta_train, meta_test) = order.split_at(half.min(order.len()));

                let mut g_train = vec![0.0f32; theta.len()];
                for &d in meta_train {
                    let batch = env.sample_train_batch(d);
                    let (_, g) = env.grad(&theta, &batch, true);
                    vecmath::axpy(&mut g_train, 1.0, &g);
                }
                vecmath::scale(&mut g_train, 1.0 / meta_train.len() as f32);

                let mut virtual_theta = theta.clone();
                vecmath::axpy(&mut virtual_theta, -inner_lr, &g_train);

                let mut g_test = vec![0.0f32; theta.len()];
                if meta_test.is_empty() {
                    // Two or fewer domains: degenerate to plain training.
                    vecmath::axpy(&mut g_test, 1.0, &g_train);
                } else {
                    for &d in meta_test {
                        let batch = env.sample_train_batch(d);
                        let (_, g) = env.grad(&virtual_theta, &batch, true);
                        vecmath::axpy(&mut g_test, 1.0, &g);
                    }
                    vecmath::scale(&mut g_test, 1.0 / meta_test.len() as f32);
                }

                let mut update = g_train;
                vecmath::axpy(&mut update, 1.0, &g_test);
                vecmath::scale(&mut update, 0.5);
                outer.step(&mut theta, &update);
            }
            env.end_epoch(Some(&theta));
        }
        TrainedModel::shared_only(theta)
    }
}

/// The plain-SGD learning rate used for the first-order inner adaptation of
/// MAML/MLDG, derived from the configured inner optimizer.
fn inner_sgd_lr(env: &TrainEnv) -> f32 {
    match env.cfg.inner {
        mamdr_nn::OptimizerKind::Sgd { lr, .. } => lr,
        mamdr_nn::OptimizerKind::Adam { lr } => lr * 10.0, // Adam's effective step ≈ lr; SGD needs more
        mamdr_nn::OptimizerKind::Adagrad { lr } => lr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::test_support::{fixture, fixture_env, train_loss};

    fn check_framework_trains(f: &dyn Framework) {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(4));
        let init = env.init_flat();
        let before = train_loss(&mut env, &init);
        let tm = f.train(&mut env);
        let after = train_loss(&mut env, &tm.shared);
        assert!(after < before, "{}: loss {} -> {}", f.name(), before, after);
    }

    #[test]
    fn maml_trains() {
        check_framework_trains(&Maml);
    }

    #[test]
    fn reptile_trains() {
        check_framework_trains(&Reptile);
    }

    #[test]
    fn mldg_trains() {
        check_framework_trains(&Mldg);
    }

    #[test]
    fn frameworks_produce_shared_only_models() {
        let (ds, built) = fixture();
        for f in [&Maml as &dyn Framework, &Reptile, &Mldg] {
            let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(1));
            let tm = f.train(&mut env);
            assert!(
                matches!(tm.domains, crate::env::DomainParams::SharedOnly),
                "{} should not produce per-domain params",
                f.name()
            );
        }
    }
}
