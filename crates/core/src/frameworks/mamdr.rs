//! The paper's contribution: Domain Negotiation (Algorithm 1), Domain
//! Regularization (Algorithm 2) and the unified MAMDR (Algorithm 3).

use crate::env::{DomainParams, TrainEnv, TrainedModel};
use crate::frameworks::alternate::alternate_epoch;
use crate::frameworks::Framework;
use mamdr_nn::{vecmath, Moved, Optimizer, Sgd, SparseGrad};
use std::ops::Range;

/// MAMDR with independently switchable components, covering the paper's
/// ablation rows: full (DN+DR), `w/o DN` (DR only), `w/o DR` (DN only) and
/// — with both off — plain Alternate training (`w/o DN+DR`).
pub struct Mamdr {
    /// Train shared parameters with Domain Negotiation (otherwise Alternate).
    pub use_dn: bool,
    /// Maintain per-domain specific parameters with Domain Regularization.
    pub use_dr: bool,
}

impl Mamdr {
    /// Full MAMDR (Algorithm 3).
    pub fn full() -> Self {
        Mamdr { use_dn: true, use_dr: true }
    }

    /// Domain Negotiation only (`w/o DR`).
    pub fn dn_only() -> Self {
        Mamdr { use_dn: true, use_dr: false }
    }

    /// Domain Regularization only (`w/o DN`): shared parameters fall back to
    /// Alternate training, as in the paper's ablation.
    pub fn dr_only() -> Self {
        Mamdr { use_dn: false, use_dr: true }
    }

    /// Neither component (`w/o DN+DR`): plain Alternate training.
    pub fn neither() -> Self {
        Mamdr { use_dn: false, use_dr: false }
    }
}

impl Framework for Mamdr {
    fn name(&self) -> &'static str {
        match (self.use_dn, self.use_dr) {
            (true, true) => "MAMDR (DN+DR)",
            (true, false) => "DN",
            (false, true) => "DR",
            (false, false) => "Alternate",
        }
    }

    fn train(&self, env: &mut TrainEnv) -> TrainedModel {
        let n = env.n_params();
        let n_domains = env.n_domains();
        let mut shared = env.init_flat();
        // Specific parameters start at zero so Θ = θS at epoch 0 (Eq. 4).
        let mut specific: Vec<Vec<f32>> = vec![vec![0.0f32; n]; n_domains];
        // Both paths keep persistent inner-optimizer state across epochs —
        // the paper's workers hold dedicated optimizers (§IV-E), and
        // resetting Adam's moments every outer round slows DN markedly.
        let mut inner_opt = env.cfg.inner.build(n);

        // Optional validation-based model selection: keep the epoch whose
        // composed parameters score best on the validation split.
        let mut best: Option<(f64, TrainedModel)> = None;
        for _ in 0..env.cfg.epochs {
            if env.cfg.dn_fresh_inner_per_epoch {
                inner_opt.reset();
            }
            if self.use_dn {
                domain_negotiation_epoch_with(env, &mut shared, inner_opt.as_mut());
            } else {
                alternate_epoch(env, &mut shared, inner_opt.as_mut());
            }
            if self.use_dr {
                for (i, spec) in specific.iter_mut().enumerate() {
                    domain_regularization(env, &shared, spec, i);
                }
            }
            env.end_epoch(Some(&shared));
            if env.cfg.val_select {
                let candidate = self.snapshot(&shared, &specific);
                let val = crate::metrics::mean(&env.evaluate(&candidate, mamdr_data::Split::Val));
                if best.as_ref().is_none_or(|(b, _)| val > *b) {
                    best = Some((val, candidate));
                }
            }
        }

        match best {
            Some((_, model)) => model,
            None => self.snapshot(&shared, &specific),
        }
    }
}

impl Mamdr {
    /// Packages the current shared/specific state into a [`TrainedModel`].
    fn snapshot(&self, shared: &[f32], specific: &[Vec<f32>]) -> TrainedModel {
        if self.use_dr {
            TrainedModel {
                shared: shared.to_vec(),
                domains: DomainParams::Deltas(specific.to_vec()),
            }
        } else {
            TrainedModel::shared_only(shared.to_vec())
        }
    }
}

/// One epoch of Domain Negotiation (Algorithm 1, lines 2–7).
///
/// Inner loop: Θ̃ starts at Θ and is trained sequentially on every domain in
/// a *freshly shuffled* order (the shuffle is what symmetrizes the
/// Hessian-gradient term into the inner-product gradient, Eq. 19–21).
/// Outer loop: Θ ← Θ + β(Θ̃ − Θ) (Eq. 3).
pub fn domain_negotiation_epoch(env: &mut TrainEnv, shared: &mut [f32]) {
    let mut inner_opt = env.cfg.inner.build(shared.len());
    domain_negotiation_epoch_with(env, shared, inner_opt.as_mut());
}

/// [`domain_negotiation_epoch`] with caller-owned inner-optimizer state
/// (kept across epochs, as the PS-Worker deployment does).
pub fn domain_negotiation_epoch_with(
    env: &mut TrainEnv,
    shared: &mut [f32],
    inner_opt: &mut dyn mamdr_nn::Optimizer,
) {
    let mut theta = shared.to_vec();
    let mut grad = vec![0.0f32; theta.len()];
    for d in env.shuffled_domains() {
        for batch in env.train_batches(d) {
            env.grad_into(&theta, &batch, true, &mut grad);
            inner_opt.step(&mut theta, &grad);
        }
    }
    let beta = env.cfg.outer_lr;
    vecmath::lerp_toward(shared, &theta, beta);
}

/// One round of Domain Regularization for target domain `i`
/// (Algorithm 2).
///
/// Samples k helper domains; for each helper j the lookahead θ̃ starts at
/// θi, takes capped minibatch steps on domain j, then on domain i (the
/// *fixed* j→i order is what turns the cross term H̄ᵢḡⱼ into a regularizer
/// for the target domain, Eq. 22), and finally
/// θi ← θi + γ(θ̃ − θi) (Eq. 8).
///
/// All lookahead losses are evaluated at the composed parameters
/// Θ = θS + θ̃ (Eq. 4); only the specific delta moves.
pub fn domain_regularization(env: &mut TrainEnv, shared: &[f32], specific_i: &mut [f32], i: usize) {
    let n_domains = env.n_domains();
    let k = env.cfg.dr_samples.min(n_domains.saturating_sub(1));
    let mut lookahead = Lookahead::new(env, shared.len());
    if k == 0 {
        // Single-domain dataset: DR degenerates to finetuning on itself.
        lookahead.run(env, shared, specific_i, &[i]);
        vecmath::lerp_toward(specific_i, &lookahead.tilde, env.cfg.dr_lr);
        return;
    }
    // Sample k distinct helper domains j ≠ i.
    let mut helpers: Vec<usize> = (0..n_domains).filter(|&d| d != i).collect();
    mamdr_tensor::rng::shuffle(&mut env.rng, &mut helpers);
    helpers.truncate(k);

    for j in helpers {
        lookahead.run(env, shared, specific_i, &[j, i]);
        vecmath::lerp_toward(specific_i, &lookahead.tilde, env.cfg.dr_lr);
    }
}

/// The DR lookahead's state, kept across the helpers of one
/// [`domain_regularization`] call: θ̃, the composed Θ = θS + θ̃, the step's
/// gradient and the inner optimizer.
struct Lookahead {
    tilde: Vec<f32>,
    full: Vec<f32>,
    grad: SparseGrad,
    opt: Box<dyn Optimizer>,
}

impl Lookahead {
    fn new(env: &TrainEnv, n: usize) -> Self {
        // Algorithm 2 prescribes plain gradient steps (θ̃ ← θ̃ − α∇L). An
        // adaptive optimizer would inject dense sign-normalized
        // perturbations into every coordinate of the delta, which
        // measurably hurts on many-domain datasets; SGD keeps the delta
        // proportional to the actual gradient signal. The adaptive variant
        // remains available behind `TrainConfig::dr_use_inner_optimizer`
        // for the `ablation` bench.
        let opt: Box<dyn Optimizer> = if env.cfg.dr_use_inner_optimizer {
            env.cfg.inner.build(n)
        } else {
            Box::new(Sgd::new(dr_alpha(env), 0.0, 0))
        };
        Lookahead {
            tilde: Vec::with_capacity(n),
            full: Vec::with_capacity(n),
            grad: SparseGrad::default(),
            opt,
        }
    }

    /// Runs one lookahead: θ̃ starts at `specific` and trains on each
    /// listed domain in order (capped minibatch steps each), with fresh
    /// optimizer state.
    ///
    /// Θ = θS + θ̃ is composed once. A step's gradient touches a
    /// minibatch's embedding rows plus the dense layers, and plain SGD
    /// moves exactly those coordinates of θ̃ (the optimizer reports which),
    /// so only they are re-added — the same single f32 add as a fresh
    /// θS + θ̃, on the only coordinates where it could differ.
    fn run(
        &mut self,
        env: &mut TrainEnv,
        shared: &[f32],
        specific: &[f32],
        domain_order: &[usize],
    ) {
        let Lookahead { tilde, full, grad, opt } = self;
        tilde.clear();
        tilde.extend_from_slice(specific);
        full.clear();
        full.extend(shared.iter().zip(tilde.iter()).map(|(&s, &t)| s + t));
        opt.reset();
        let recompose = |full: &mut [f32], tilde: &[f32], range: Range<usize>| {
            for ((f, &s), &t) in
                full[range.clone()].iter_mut().zip(&shared[range.clone()]).zip(&tilde[range])
            {
                *f = s + t;
            }
        };
        let cap = env.cfg.dr_lookahead_batches.max(1);
        for &d in domain_order {
            for batch in env.first_train_batches(d, cap) {
                env.grad_sparse(full, &batch, true, grad);
                // dΘ/dθ̃ = I, so the gradient applies to the delta directly.
                match opt.step_sparse(tilde, grad) {
                    Moved::Touched => {
                        for (start, g) in grad.spans() {
                            recompose(full, tilde, start..start + g.len());
                        }
                    }
                    Moved::All => recompose(full, tilde, 0..tilde.len()),
                }
            }
        }
    }
}

/// The plain-SGD step size α used inside DR lookaheads, derived from the
/// configured inner optimizer (Adam's effective step is ~lr, so plain SGD
/// needs a larger rate to adapt at a comparable pace).
fn dr_alpha(env: &TrainEnv) -> f32 {
    match env.cfg.inner {
        mamdr_nn::OptimizerKind::Sgd { lr, .. } => lr,
        mamdr_nn::OptimizerKind::Adam { lr } => lr * 10.0,
        mamdr_nn::OptimizerKind::Adagrad { lr } => lr,
    }
}

/// Measures the average pairwise inner product of per-domain gradients at
/// `theta` — the quantity DN maximizes (Eq. 9). Used by tests and the
/// conflict probe.
pub fn mean_pairwise_gradient_inner_product(env: &mut TrainEnv, theta: &[f32]) -> f64 {
    let n_domains = env.n_domains();
    let mut grads = Vec::with_capacity(n_domains);
    for d in 0..n_domains {
        let batch = env.sample_train_batch(d);
        let (_, g) = env.grad(theta, &batch, false);
        grads.push(g);
    }
    let mut total = 0.0f64;
    let mut count = 0usize;
    for a in 0..n_domains {
        for b in a + 1..n_domains {
            total += vecmath::dot(&grads[a], &grads[b]);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::frameworks::alternate::Alternate;
    use crate::test_support::{fixture, fixture_env, train_loss};
    use mamdr_nn::OptimizerKind;

    #[test]
    fn mamdr_reduces_training_loss() {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick());
        let init = env.init_flat();
        let before = train_loss(&mut env, &init);
        let tm = Mamdr::full().train(&mut env);
        // Loss at the composed parameters of domain 0.
        let after = train_loss(&mut env, &tm.flat_for(0));
        assert!(after < before, "loss {} -> {}", before, after);
    }

    #[test]
    fn dn_with_beta_one_and_sgd_equals_alternate() {
        // Paper §IV-A: "when β is set to 1, DN will degrade to Alternate
        // Training". This needs a stateless inner optimizer (plain SGD) so
        // the only difference — the outer interpolation — vanishes.
        let (ds, built) = fixture();
        let mut cfg = TrainConfig::quick();
        cfg.inner = OptimizerKind::Sgd { lr: 0.05, momentum: 0.0 };
        cfg.outer_lr = 1.0;
        cfg.epochs = 2;

        let mut env_dn = fixture_env(&ds, &built, cfg);
        let dn = Mamdr::dn_only().train(&mut env_dn);

        let mut env_alt = fixture_env(&ds, &built, cfg);
        let alt = Alternate.train(&mut env_alt);

        let max_diff =
            dn.shared.iter().zip(&alt.shared).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_diff < 1e-5, "DN@β=1 differs from Alternate by {}", max_diff);
    }

    #[test]
    fn dn_increases_gradient_inner_products() {
        // DN's raison d'être (Eq. 9): after training, per-domain gradients
        // should agree more than at the (random) initialization.
        let (ds, built) = fixture();
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 5;
        let mut env = fixture_env(&ds, &built, cfg);
        let theta0 = env.init_flat();
        let before = mean_pairwise_gradient_inner_product(&mut env, &theta0);
        let tm = Mamdr::dn_only().train(&mut env);
        let after = mean_pairwise_gradient_inner_product(&mut env, &tm.shared);
        // `before` at a random init is typically near 0 (or negative under
        // conflict); DN should leave gradients pointing in agreeing
        // directions. We only require improvement, not positivity.
        assert!(after > before, "inner product did not improve: {} -> {}", before, after);
    }

    #[test]
    fn dr_produces_per_domain_deltas() {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick());
        let tm = Mamdr::dr_only().train(&mut env);
        match &tm.domains {
            DomainParams::Deltas(deltas) => {
                assert_eq!(deltas.len(), ds.n_domains());
                for d in deltas {
                    assert!(vecmath::norm(d) > 0.0, "DR delta is zero");
                }
                assert_ne!(deltas[0], deltas[1], "deltas should be domain-specific");
            }
            other => panic!("expected deltas, got {:?}", other),
        }
    }

    #[test]
    fn neither_variant_matches_alternate_name_and_output_shape() {
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick());
        let m = Mamdr::neither();
        assert_eq!(m.name(), "Alternate");
        let tm = m.train(&mut env);
        assert!(matches!(tm.domains, DomainParams::SharedOnly));
    }

    #[test]
    fn specific_deltas_stay_small_relative_to_shared() {
        // DR nudges θi toward helpful directions; with γ=0.1 and few epochs
        // the deltas must remain a perturbation, not a replacement.
        let (ds, built) = fixture();
        let mut env = fixture_env(&ds, &built, TrainConfig::quick());
        let tm = Mamdr::full().train(&mut env);
        if let DomainParams::Deltas(deltas) = &tm.domains {
            let shared_norm = vecmath::norm(&tm.shared);
            for d in deltas {
                assert!(vecmath::norm(d) < shared_norm, "delta dwarfs shared params");
            }
        } else {
            panic!("expected deltas");
        }
    }
}

#[cfg(test)]
mod val_select_tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::test_support::{fixture, fixture_env};
    use mamdr_data::Split;

    #[test]
    fn val_selection_never_hurts_validation_auc() {
        let (ds, built) = fixture();
        let mut cfg = TrainConfig::quick().with_epochs(5);
        let mut env = fixture_env(&ds, &built, cfg);
        let plain = Mamdr::dn_only().train(&mut env);
        let plain_val = crate::metrics::mean(&env.evaluate(&plain, Split::Val));

        cfg.val_select = true;
        let mut env = fixture_env(&ds, &built, cfg);
        let selected = Mamdr::dn_only().train(&mut env);
        let selected_val = crate::metrics::mean(&env.evaluate(&selected, Split::Val));
        assert!(
            selected_val >= plain_val - 1e-9,
            "selection regressed val AUC: {} vs {}",
            selected_val,
            plain_val
        );
    }

    #[test]
    fn val_selection_returns_composed_deltas() {
        let (ds, built) = fixture();
        let mut cfg = TrainConfig::quick().with_epochs(3);
        cfg.val_select = true;
        let mut env = fixture_env(&ds, &built, cfg);
        let tm = Mamdr::full().train(&mut env);
        assert!(matches!(tm.domains, DomainParams::Deltas(_)));
        assert_eq!(tm.flat_for(0).len(), env.n_params());
    }
}
