//! One forward definition, two recorders.
//!
//! A model's forward pass is written once, generic over [`Recorder`], and
//! runs on either implementation:
//!
//! * [`Tape`](crate::Tape) records every value *and* the op that made it,
//!   so [`Tape::backward`](crate::Tape::backward) can replay it in reverse;
//! * [`Eval`](crate::Eval) keeps values only: it borrows parameters instead
//!   of copying them and records no op.
//!
//! Both keep their values in the same kind of arena, reused from one pass
//! to the next.
//!
//! Each op's forward arithmetic lives in one function that both recorders
//! call — a `mamdr_tensor` kernel (`Tensor::add` is a fresh tensor plus
//! `Tensor::add_into`, and so on) or one of the functions below — so the
//! two cannot diverge: a value computed on an `Eval` has the bits it has on
//! a `Tape`.

use mamdr_tensor::{Act, Tensor};

/// Handle to a value held by a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node index inside its recorder.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The ops a model's forward pass is built from.
///
/// Every op reads earlier values only, so recording order is a
/// topological order.
pub trait Recorder {
    /// The value computed at `v`.
    fn value(&self, v: Var) -> &Tensor;

    /// A constant input: the column concatenation of `parts`.
    fn leaf_concat(&mut self, parts: &[&Tensor]) -> Var;

    /// Reads parameter `param` whole; `value` is its current value in the
    /// store the forward pass reads.
    ///
    /// A parameter is read either whole (here) or by rows
    /// ([`Recorder::gather_param`]) in one pass, never both.
    fn param(&mut self, param: usize, value: &Tensor) -> Var;

    /// Gathers rows `ids` of parameter table `param`, whose current value
    /// is `table`.
    fn gather_param(&mut self, param: usize, table: &Tensor, ids: &[u32]) -> Var;

    /// Elementwise add of same-shape values.
    fn add(&mut self, a: Var, b: Var) -> Var;

    /// Elementwise subtract of same-shape values.
    fn sub(&mut self, a: Var, b: Var) -> Var;

    /// Elementwise multiply of same-shape values.
    fn mul(&mut self, a: Var, b: Var) -> Var;

    /// Adds a `[n]`-shaped bias row to every row of `a`.
    fn add_row(&mut self, a: Var, row: Var) -> Var;

    /// Multiplies row `i` of `a` by the scalar `col[i]`.
    fn mul_col(&mut self, a: Var, col: Var) -> Var;

    /// Dense layer `act(x @ w + bias)` in one fused kernel.
    fn dense(&mut self, x: Var, w: Var, bias: Option<Var>, act: Act) -> Var;

    /// Matrix transpose.
    fn transpose(&mut self, a: Var) -> Var;

    /// Rectified linear unit.
    fn relu(&mut self, a: Var) -> Var;

    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var;

    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Var) -> Var;

    /// Elementwise square.
    fn square(&mut self, a: Var) -> Var;

    /// Multiplies every element by a constant.
    fn scalar_mul(&mut self, a: Var, c: f32) -> Var;

    /// Sums each row of `[m,n]`, producing `[m,1]`.
    fn sum_cols_keep(&mut self, a: Var) -> Var;

    /// Concatenates matrices along the column axis.
    fn concat_cols(&mut self, parts: &[Var]) -> Var;

    /// Extracts columns `[start, start+len)`.
    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var;

    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: Var) -> Var;

    /// Batch normalization over rows: each column to zero mean and unit
    /// variance under the batch's own statistics.
    fn normalize_rows(&mut self, a: Var, eps: f32) -> Var;

    /// Multiplies `a` by a dropout mask (already scaled by `1/(1-p)`) that
    /// `fill` writes into a kept buffer of `a`'s element count.
    fn dropout(&mut self, a: Var, fill: impl FnOnce(&mut [f32])) -> Var;

    /// Reshapes a value (element count preserved).
    fn reshape(&mut self, a: Var, shape: &[usize]) -> Var;
}

/// The forward arithmetic of [`Recorder::relu`].
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// The forward arithmetic of [`Recorder::square`].
pub(crate) fn square(x: f32) -> f32 {
    x * x
}

/// The forward arithmetic of [`Recorder::normalize_rows`]: the normalized
/// `[m,n]` matrix into `out`, and into `inv_std` the per-column `1/std` the
/// tape keeps for the reverse pass.
///
/// `inv_std` holds the column means first; `out` holds `x − mean` while the
/// variances are summed from it.
pub(crate) fn normalize_rows_into(x: &Tensor, eps: f32, inv_std: &mut Tensor, out: &mut Tensor) {
    let (m, n) = x.matrix_dims();
    x.sum_rows_into(inv_std);
    inv_std.map_inplace(|s| s * (1.0 / m as f32));
    out.reset(&[m, n]);
    let (xs, stat, o) = (x.data(), inv_std.data_mut(), out.data_mut());
    for i in 0..m {
        for j in 0..n {
            o[i * n + j] = xs[i * n + j] - stat[j];
        }
    }
    stat.fill(0.0);
    for i in 0..m {
        for (v, &d) in stat.iter_mut().zip(&o[i * n..(i + 1) * n]) {
            *v += d * d;
        }
    }
    for v in stat.iter_mut() {
        *v = 1.0 / (*v / m as f32 + eps).sqrt();
    }
    for i in 0..m {
        for (o, &s) in o[i * n..(i + 1) * n].iter_mut().zip(stat.iter()) {
            *o *= s;
        }
    }
}
