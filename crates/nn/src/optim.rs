//! First-order optimizers over flat parameter vectors.
//!
//! The paper configures inner- and outer-loop optimizers independently
//! (§IV-E): Adam for the benchmark datasets, SGD inner + Adagrad outer for
//! the industry deployment. All three are provided; each owns its state
//! vectors and can be `reset` when a framework re-enters an inner loop.
//!
//! A step can also take a [`SparseGrad`]. Plain SGD and Adagrad then touch
//! only the gradient's coordinates, which is exact: at a zero gradient
//! their dense update is `p − lr·0 = p` and `a + 0·0 = a`, bit for bit.
//! Adam and momentum SGD still move a coordinate whose gradient is zero
//! (the moments decay), so they take the dense step.

use crate::sparse::SparseGrad;

/// Which coordinates an [`Optimizer::step_sparse`] call may have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moved {
    /// Only the coordinates in the gradient's spans; every other parameter
    /// and every other state entry kept its bits.
    Touched,
    /// Any coordinate.
    All,
}

/// A first-order optimizer updating `params` in place from `grads`.
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);
    /// Applies one update step from a sparse gradient and reports which
    /// coordinates it moved. The result is bit-identical to
    /// [`step`](Self::step) on the densified gradient.
    ///
    /// The default densifies, takes that step and reports [`Moved::All`].
    fn step_sparse(&mut self, params: &mut [f32], grads: &SparseGrad) -> Moved {
        self.step(params, &grads.to_dense());
        Moved::All
    }
    /// Clears accumulated state (moments, history).
    fn reset(&mut self);
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Replaces the learning rate.
    fn set_learning_rate(&mut self, lr: f32);
}

/// Which optimizer to instantiate — lets experiment configs stay declarative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Stochastic gradient descent (optionally with momentum).
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables).
        momentum: f32,
    },
    /// Adam with standard betas.
    Adam {
        /// Learning rate.
        lr: f32,
    },
    /// Adagrad.
    Adagrad {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimizerKind {
    /// Materializes the optimizer for a parameter vector of length `n`.
    pub fn build(self, n: usize) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd { lr, momentum } => Box::new(Sgd::new(lr, momentum, n)),
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr, n)),
            OptimizerKind::Adagrad { lr } => Box::new(Adagrad::new(lr, n)),
        }
    }
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// A new SGD optimizer for `n` parameters.
    pub fn new(lr: f32, momentum: f32, n: usize) -> Self {
        Sgd { lr, momentum, velocity: if momentum > 0.0 { vec![0.0; n] } else { Vec::new() } }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        if self.momentum > 0.0 {
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
                *v = self.momentum * *v + g;
                *p -= self.lr * *v;
            }
        } else {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
        }
    }

    fn step_sparse(&mut self, params: &mut [f32], grads: &SparseGrad) -> Moved {
        if self.momentum > 0.0 || !zero_steps_are_exact(self.lr) {
            self.step(params, &grads.to_dense());
            return Moved::All;
        }
        assert_eq!(params.len(), grads.len());
        for (start, g) in grads.spans() {
            for (p, &g) in params[start..start + g.len()].iter_mut().zip(g) {
                *p -= self.lr * g;
            }
        }
        Moved::Touched
    }

    fn reset(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// A new Adam optimizer for `n` parameters with standard betas
    /// (0.9, 0.999).
    pub fn new(lr: f32, n: usize) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adagrad (Duchi et al.), the paper's outer-loop optimizer on the industry
/// dataset.
#[derive(Debug, Clone)]
pub struct Adagrad {
    lr: f32,
    eps: f32,
    acc: Vec<f32>,
}

impl Adagrad {
    /// A new Adagrad optimizer for `n` parameters.
    pub fn new(lr: f32, n: usize) -> Self {
        Adagrad { lr, eps: 1e-8, acc: vec![0.0; n] }
    }
}

impl Optimizer for Adagrad {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        for ((p, &g), a) in params.iter_mut().zip(grads).zip(&mut self.acc) {
            *a += g * g;
            *p -= self.lr * g / (a.sqrt() + self.eps);
        }
    }

    fn step_sparse(&mut self, params: &mut [f32], grads: &SparseGrad) -> Moved {
        if !zero_steps_are_exact(self.lr) {
            self.step(params, &grads.to_dense());
            return Moved::All;
        }
        assert_eq!(params.len(), grads.len());
        for (start, g) in grads.spans() {
            let end = start + g.len();
            for ((p, &g), a) in params[start..end].iter_mut().zip(g).zip(&mut self.acc[start..end])
            {
                *a += g * g;
                *p -= self.lr * g / (a.sqrt() + self.eps);
            }
        }
        Moved::Touched
    }

    fn reset(&mut self) {
        self.acc.iter_mut().for_each(|x| *x = 0.0);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Whether `p − lr·(+0.0)` leaves every `p` bit for bit: it needs
/// `lr·(+0.0) = +0.0`. A non-finite rate makes it NaN, and a sign-negative
/// one makes it `−0.0`, which turns a stored `−0.0` into `+0.0`.
fn zero_steps_are_exact(lr: f32) -> bool {
    lr.is_finite() && lr.is_sign_positive()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gradient of the convex quadratic `0.5 * ||p - target||²`.
    fn quad_grad(p: &[f32], target: &[f32]) -> Vec<f32> {
        p.iter().zip(target).map(|(&x, &t)| x - t).collect()
    }

    fn converges(mut opt: Box<dyn Optimizer>, steps: usize) -> f32 {
        let target = [1.0f32, -2.0, 3.0];
        let mut p = vec![0.0f32; 3];
        for _ in 0..steps {
            let g = quad_grad(&p, &target);
            opt.step(&mut p, &g);
        }
        p.iter().zip(&target).map(|(&x, &t)| (x - t).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(converges(OptimizerKind::Sgd { lr: 0.1, momentum: 0.0 }.build(3), 200) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(converges(OptimizerKind::Sgd { lr: 0.05, momentum: 0.9 }.build(3), 300) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(converges(OptimizerKind::Adam { lr: 0.1 }.build(3), 500) < 1e-2);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        assert!(converges(OptimizerKind::Adagrad { lr: 1.0 }.build(3), 500) < 1e-2);
    }

    #[test]
    fn plain_sgd_step_is_exact() {
        let mut opt = Sgd::new(0.5, 0.0, 2);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[2.0, -2.0]);
        assert_eq!(p, vec![0.0, 3.0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut adam = Adam::new(0.1, 2);
        let mut p = vec![0.0, 0.0];
        adam.step(&mut p, &[1.0, 1.0]);
        assert!(adam.t == 1 && adam.m[0] != 0.0);
        adam.reset();
        assert!(adam.t == 0 && adam.m[0] == 0.0 && adam.v[0] == 0.0);
    }

    /// A gradient over 8 coordinates touching `[1, 3)` and `[5, 7)`, with
    /// signed zeros among the touched values.
    fn sparse_grad() -> SparseGrad {
        let mut g = SparseGrad::new(8);
        g.push(5, &[-0.0, 0.75]);
        g.push(1, &[0.5, 0.0]);
        g.finish();
        g
    }

    #[test]
    fn sparse_steps_match_dense_steps_bit_for_bit() {
        let kinds = [
            (OptimizerKind::Sgd { lr: 0.1, momentum: 0.0 }, Moved::Touched),
            (OptimizerKind::Adagrad { lr: 0.1 }, Moved::Touched),
            (OptimizerKind::Adam { lr: 0.1 }, Moved::All),
            (OptimizerKind::Sgd { lr: 0.1, momentum: 0.9 }, Moved::All),
            // lr·0 = −0.0 would turn an untouched −0.0 into +0.0.
            (OptimizerKind::Sgd { lr: -0.1, momentum: 0.0 }, Moved::All),
        ];
        let g = sparse_grad();
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (kind, moved) in kinds {
            let (mut dense, mut sparse) = (kind.build(8), kind.build(8));
            let start = vec![-0.0, 0.0, -0.0, 1.5, -2.0, -0.0, 0.25, -0.0];
            let (mut pd, mut ps) = (start.clone(), start.clone());
            for step in 0..3 {
                dense.step(&mut pd, &g.to_dense());
                assert_eq!(sparse.step_sparse(&mut ps, &g), moved, "{kind:?}");
                assert_eq!(bits(&pd), bits(&ps), "{kind:?} step {step}");
            }
            if moved == Moved::Touched {
                for i in [0, 3, 4, 7] {
                    assert_eq!(ps[i].to_bits(), start[i].to_bits(), "{kind:?} moved {i}");
                }
            }
        }
    }

    #[test]
    fn lr_accessors() {
        let mut opt = Adagrad::new(0.3, 1);
        assert_eq!(opt.learning_rate(), 0.3);
        opt.set_learning_rate(0.7);
        assert_eq!(opt.learning_rate(), 0.7);
    }
}
