//! Multi-task learning baselines: uncertainty-weighted loss and PCGrad
//! gradient surgery (paper §V-B "Multi-Task Learning Frameworks").

use crate::env::{TrainEnv, TrainedModel};
use crate::frameworks::Framework;
use mamdr_nn::vecmath;

/// Uncertainty-weighted loss (Kendall et al.): the total objective is
/// `Σ_d exp(−s_d)·L_d + s_d` with per-domain log-variances `s_d` learned
/// jointly. Parameter gradients are scaled by `exp(−s_d)`; `s_d` follows
/// its own gradient `1 − exp(−s_d)·L_d`.
pub struct WeightedLoss;

/// Learning rate for the loss weights themselves.
const WEIGHT_LR: f32 = 0.01;

impl Framework for WeightedLoss {
    fn name(&self) -> &'static str {
        "Weighted Loss"
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let mut theta = env.init_flat();
        let mut opt = env.cfg.inner.build(theta.len());
        let mut log_vars = vec![0.0f32; env.n_domains()];
        for _ in 0..env.cfg.epochs {
            for d in env.shuffled_domains() {
                for batch in env.train_batches(d) {
                    let (loss, mut grad) = env.grad(&theta, &batch, true);
                    let w = (-log_vars[d]).exp();
                    vecmath::scale(&mut grad, w);
                    opt.step(&mut theta, &grad);
                    // ds_d/dt = 1 − exp(−s_d)·L_d, descended with WEIGHT_LR.
                    log_vars[d] -= WEIGHT_LR * (1.0 - w * loss);
                }
            }
            env.end_epoch(Some(&theta));
        }
        TrainedModel::shared_only(theta)
    }
}

/// PCGrad (Yu et al.): per round, one gradient per domain is computed at
/// the *same* parameter point; each gradient is projected onto the normal
/// plane of every other (original) gradient it conflicts with, and the
/// projected gradients are summed into one update.
///
/// Note the O(n²) pairwise projections per round — the scalability problem
/// the paper contrasts with DN's O(n), measured by `paper scaling`.
pub struct PcGrad;

impl Framework for PcGrad {
    fn name(&self) -> &'static str {
        "PCGrad"
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let mut theta = env.init_flat();
        let mut opt = env.cfg.inner.build(theta.len());
        let n_domains = env.n_domains();
        let rounds = rounds_per_epoch(env);
        for _ in 0..env.cfg.epochs {
            for _ in 0..rounds {
                // One gradient per domain at the current point.
                let grads: Vec<Vec<f32>> = (0..n_domains)
                    .map(|d| {
                        let batch = env.sample_train_batch(d);
                        env.grad(&theta, &batch, true).1
                    })
                    .collect();
                // Project each gradient against the others' originals.
                let mut total = vec![0.0f32; theta.len()];
                for i in 0..n_domains {
                    let mut gi = grads[i].clone();
                    let mut others = env.shuffled_domains();
                    others.retain(|&j| j != i);
                    for j in others {
                        vecmath::project_conflict(&mut gi, &grads[j]);
                    }
                    vecmath::axpy(&mut total, 1.0, &gi);
                }
                // Average so the step size does not scale with n.
                vecmath::scale(&mut total, 1.0 / n_domains as f32);
                opt.step(&mut theta, &total);
            }
            env.end_epoch(Some(&theta));
        }
        TrainedModel::shared_only(theta)
    }
}

/// Rounds per epoch for frameworks that consume one batch per domain per
/// round: matches the data exposure of one Alternate epoch.
pub fn rounds_per_epoch(env: &TrainEnv) -> usize {
    let total_train: usize = (0..env.n_domains()).map(|d| env.ds.domains[d].train.len()).sum();
    let per_round = env.cfg.batch_size * env.n_domains();
    (total_train + per_round - 1) / per_round.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::test_support::{fixture, fixture_env, train_loss};

    #[test]
    fn weighted_loss_trains() {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(3));
        let init = env.init_flat();
        let before = train_loss(&mut env, &init);
        let tm = WeightedLoss.train(&mut env);
        let after = train_loss(&mut env, &tm.shared);
        assert!(after < before, "loss {} -> {}", before, after);
    }

    #[test]
    fn pcgrad_trains() {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(3));
        let init = env.init_flat();
        let before = train_loss(&mut env, &init);
        let tm = PcGrad.train(&mut env);
        let after = train_loss(&mut env, &tm.shared);
        assert!(after < before, "loss {} -> {}", before, after);
    }

    #[test]
    fn rounds_cover_one_epoch_of_data() {
        let (ds, built) = fixture();
        let env = fixture_env(&ds, &built, TrainConfig::quick());
        let rounds = rounds_per_epoch(&env);
        let total: usize = ds.domains.iter().map(|d| d.train.len()).sum();
        let consumed = rounds * env.cfg.batch_size * ds.n_domains();
        assert!(consumed >= total, "rounds consume less than one epoch");
        assert!(rounds >= 1);
    }
}
