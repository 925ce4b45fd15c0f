//! Conflict-Averse Gradient descent (CAGrad, Liu et al. 2021) — the
//! convergence-guaranteed gradient-surgery method the paper cites as \[43\]
//! when discussing why manipulated gradients "stay at a sub-optimal point".
//!
//! CAGrad replaces the average gradient `g₀` with the solution of
//!
//! ```text
//! max_{w ∈ Δ}  min_i ⟨g_w, g_i⟩   s.t. ‖g_w − g₀‖ ≤ c·‖g₀‖
//! ```
//!
//! i.e. a direction close to the average that maximizes the *worst*
//! domain's improvement. We solve the dual in the simplex weights `w` by
//! projected gradient ascent (exact enough at MDR domain counts, and the
//! same approach the reference implementation uses), then take
//! `d = g₀ + (c‖g₀‖ / ‖g_w‖)·g_w`.

use crate::env::{TrainEnv, TrainedModel};
use crate::frameworks::multitask::rounds_per_epoch;
use crate::frameworks::Framework;
use mamdr_nn::vecmath;

/// CAGrad with the standard c = 0.5.
pub struct CaGrad;

/// The constraint radius as a fraction of ‖g₀‖ (reference default).
const C: f64 = 0.5;
/// Projected-gradient-ascent steps on the simplex.
const SOLVER_STEPS: usize = 20;
/// Solver step size.
const SOLVER_LR: f64 = 0.25;

impl Framework for CaGrad {
    fn name(&self) -> &'static str {
        "CAGrad"
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let mut theta = env.init_flat();
        let mut opt = env.cfg.inner.build(theta.len());
        let n = env.n_domains();
        let rounds = rounds_per_epoch(env);
        for _ in 0..env.cfg.epochs {
            for _ in 0..rounds {
                let grads: Vec<Vec<f32>> = (0..n)
                    .map(|d| {
                        let batch = env.sample_train_batch(d);
                        env.grad(&theta, &batch, true).1
                    })
                    .collect();
                let update = cagrad_direction(&grads);
                opt.step(&mut theta, &update);
            }
            env.end_epoch(Some(&theta));
        }
        TrainedModel::shared_only(theta)
    }
}

/// Computes the CAGrad update direction from per-domain gradients.
pub fn cagrad_direction(grads: &[Vec<f32>]) -> Vec<f32> {
    let n = grads.len();
    assert!(n >= 1);
    let dim = grads[0].len();

    // Average gradient g₀.
    let mut g0 = vec![0.0f32; dim];
    for g in grads {
        vecmath::axpy(&mut g0, 1.0 / n as f32, g);
    }
    if n == 1 {
        return g0;
    }
    let g0_norm = vecmath::norm(&g0);
    if g0_norm == 0.0 {
        return g0;
    }

    // Gram matrix G[i][j] = <g_i, g_j> (the solver only needs inner
    // products, not the full vectors).
    let mut gram = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in i..n {
            let ip = vecmath::dot(&grads[i], &grads[j]);
            gram[i][j] = ip;
            gram[j][i] = ip;
        }
    }

    // Maximize F(w) = <g_w, g₀> + c‖g₀‖·‖g_w‖ ... CAGrad's dual reduces to
    // minimizing  φ(w) = <g_w, g₀> + c‖g₀‖·‖g_w‖  over the simplex; we run
    // projected gradient descent on φ.
    let mut w = vec![1.0f64 / n as f64; n];
    let g0_w: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| gram[i][j]).sum::<f64>() / n as f64) // <g_i, g0>
        .collect();
    for _ in 0..SOLVER_STEPS {
        // ‖g_w‖ and its gradient.
        let mut gw_sq = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                gw_sq += w[i] * w[j] * gram[i][j];
            }
        }
        let gw_norm = gw_sq.max(1e-12).sqrt();
        let mut grad_w = vec![0.0f64; n];
        for (i, gw) in grad_w.iter_mut().enumerate() {
            let gram_w: f64 = (0..n).map(|j| gram[i][j] * w[j]).sum();
            *gw = g0_w[i] + C * g0_norm * gram_w / gw_norm;
        }
        for (wi, gi) in w.iter_mut().zip(&grad_w) {
            *wi -= SOLVER_LR * gi / (g0_norm * g0_norm).max(1e-12);
        }
        project_simplex(&mut w);
    }

    // g_w and the final direction d = g₀ + (c‖g₀‖/‖g_w‖)·g_w.
    let mut gw = vec![0.0f32; dim];
    for (g, &wi) in grads.iter().zip(&w) {
        vecmath::axpy(&mut gw, wi as f32, g);
    }
    let gw_norm = vecmath::norm(&gw);
    let mut d = g0;
    if gw_norm > 0.0 {
        let coeff = (C * g0_norm / gw_norm) as f32;
        vecmath::axpy(&mut d, coeff, &gw);
    }
    d
}

/// Euclidean projection onto the probability simplex (Duchi et al. 2008).
fn project_simplex(w: &mut [f64]) {
    let n = w.len();
    let mut sorted: Vec<f64> = w.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut cumsum = 0.0;
    let mut rho = 0usize;
    let mut rho_sum = 0.0;
    for (i, &v) in sorted.iter().enumerate() {
        cumsum += v;
        let t = (cumsum - 1.0) / (i + 1) as f64;
        if v - t > 0.0 {
            rho = i + 1;
            rho_sum = cumsum;
        }
    }
    let tau = (rho_sum - 1.0) / rho.max(1) as f64;
    for v in w.iter_mut() {
        *v = (*v - tau).max(0.0);
    }
    // numeric cleanup
    let total: f64 = w.iter().sum();
    if total > 0.0 {
        for v in w.iter_mut() {
            *v /= total;
        }
    } else {
        for v in w.iter_mut() {
            *v = 1.0 / n as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::test_support::{fixture, fixture_env, train_loss};

    #[test]
    fn simplex_projection_properties() {
        let mut w = vec![0.8, 0.6, -0.2];
        project_simplex(&mut w);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x >= 0.0));
        // Already-valid points are fixed points.
        let mut w = vec![0.25, 0.75];
        project_simplex(&mut w);
        assert!((w[0] - 0.25).abs() < 1e-9 && (w[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn direction_equals_average_for_single_domain() {
        let g = vec![vec![1.0f32, -2.0, 3.0]];
        assert_eq!(cagrad_direction(&g), vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn direction_improves_worst_domain_under_conflict() {
        // Two conflicting gradients: the plain average favors the larger
        // one; CAGrad's direction must give the disadvantaged domain a
        // non-worse inner product than the average does.
        let g1 = vec![1.0f32, 0.2];
        let g2 = vec![-0.8f32, 0.3];
        let grads = vec![g1.clone(), g2.clone()];
        let mut avg = vec![0.0f32; 2];
        vecmath::axpy(&mut avg, 0.5, &g1);
        vecmath::axpy(&mut avg, 0.5, &g2);
        let d = cagrad_direction(&grads);
        let worst_avg = vecmath::dot(&avg, &g1).min(vecmath::dot(&avg, &g2));
        let worst_cag = vecmath::dot(&d, &g1).min(vecmath::dot(&d, &g2));
        assert!(
            worst_cag >= worst_avg - 1e-6,
            "worst-case inner product regressed: {} vs {}",
            worst_cag,
            worst_avg
        );
    }

    #[test]
    fn direction_stays_in_trust_region() {
        let grads = vec![vec![1.0f32, 0.0, 0.5], vec![-0.5f32, 0.8, 0.1], vec![0.2f32, -0.3, 0.9]];
        let mut g0 = vec![0.0f32; 3];
        for g in &grads {
            vecmath::axpy(&mut g0, 1.0 / 3.0, g);
        }
        let d = cagrad_direction(&grads);
        let diff = vecmath::sub(&d, &g0);
        assert!(
            vecmath::norm(&diff) <= C * vecmath::norm(&g0) + 1e-6,
            "direction left the trust region"
        );
    }

    #[test]
    fn cagrad_trains() {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick().with_epochs(4));
        let init = env.init_flat();
        let before = train_loss(&mut env, &init);
        let tm = CaGrad.train(&mut env);
        let after = train_loss(&mut env, &tm.shared);
        assert!(after < before, "loss {} -> {}", before, after);
    }
}
