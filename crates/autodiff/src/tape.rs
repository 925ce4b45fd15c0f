//! The autodiff tape: op recording and the reverse pass.

use crate::grads::Grads;
use crate::recorder::{self, Recorder, Var};
use mamdr_tensor::{Act, Tensor};

/// Numerically stable logistic sigmoid (re-exported from `mamdr-tensor`,
/// where the fused kernels need it; the old path keeps working).
pub use mamdr_tensor::stable_sigmoid;

/// One recorded operation. Aux tensors needed by the backward rule (dropout
/// masks, labels, normalization scales) are stored inline.
enum Op {
    /// Constant input: no gradient flows past it.
    Leaf,
    /// Copy of parameter `param` — its adjoint is the parameter gradient.
    Param {
        param: usize,
    },
    /// Embedding rows gathered from parameter `param` (adjoint: row sums
    /// per distinct id, see [`crate::RowGrad`]).
    GatherParam {
        param: usize,
        ids: Vec<u32>,
        table_shape: [usize; 2],
    },
    Add {
        a: Var,
        b: Var,
    },
    Sub {
        a: Var,
        b: Var,
    },
    Mul {
        a: Var,
        b: Var,
    },
    /// `a [m,n] + row [n]` broadcast over rows (bias add).
    AddRow {
        a: Var,
        row: Var,
    },
    /// `a [m,n] * col [m]` broadcast over columns (attention weighting).
    MulCol {
        a: Var,
        col: Var,
    },
    /// `op(a) @ op(b)` with independent transpose flags; the backward pass
    /// composes adjoints through the same unified GEMM kernel.
    Gemm {
        a: Var,
        b: Var,
        lhs_t: bool,
        rhs_t: bool,
    },
    /// Fused dense layer `act(x @ w + bias)`; forward and backward are
    /// bit-identical to the unfused gemm → add-row → activation chain.
    Dense {
        x: Var,
        w: Var,
        bias: Option<Var>,
        act: Act,
    },
    Transpose {
        a: Var,
    },
    Relu {
        a: Var,
    },
    Sigmoid {
        a: Var,
    },
    Tanh {
        a: Var,
    },
    Square {
        a: Var,
    },
    ScalarMul {
        a: Var,
        c: f32,
    },
    AddScalar {
        a: Var,
    },
    SumAll {
        a: Var,
    },
    MeanAll {
        a: Var,
    },
    /// `[m,n] -> [m,1]`, summing each row.
    SumColsKeep {
        a: Var,
    },
    /// `[m,n] -> [1,n]`, summing each column.
    SumRowsKeep {
        a: Var,
    },
    ConcatCols {
        parts: Vec<Var>,
    },
    SliceCols {
        a: Var,
        start: usize,
        len: usize,
    },
    SoftmaxRows {
        a: Var,
    },
    /// Batch normalization with stop-gradient statistics: the per-feature
    /// batch mean/std are treated as constants in the backward pass (the
    /// standard simplification for STAR's Partitioned Normalization when
    /// moving statistics are used at serving time).
    NormalizeRows {
        a: Var,
        inv_std: Tensor,
    },
    Dropout {
        a: Var,
        mask: Tensor,
    },
    /// Mean binary cross-entropy with logits; `labels` has the same number of
    /// elements as the logits node.
    BceWithLogitsMean {
        logits: Var,
        labels: Tensor,
    },
    Reshape {
        a: Var,
    },
}

impl Op {
    /// Calls `f` with every node this op reads.
    fn for_each_input(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf | Op::Param { .. } | Op::GatherParam { .. } => {}
            Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } | Op::Gemm { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Op::AddRow { a, row } => {
                f(*a);
                f(*row);
            }
            Op::MulCol { a, col } => {
                f(*a);
                f(*col);
            }
            Op::Dense { x, w, bias, .. } => {
                f(*x);
                f(*w);
                if let Some(bias) = bias {
                    f(*bias);
                }
            }
            Op::ConcatCols { parts } => parts.iter().copied().for_each(f),
            Op::BceWithLogitsMean { logits, .. } => f(*logits),
            Op::Transpose { a }
            | Op::Relu { a }
            | Op::Sigmoid { a }
            | Op::Tanh { a }
            | Op::Square { a }
            | Op::ScalarMul { a, .. }
            | Op::AddScalar { a }
            | Op::SumAll { a }
            | Op::MeanAll { a }
            | Op::SumColsKeep { a }
            | Op::SumRowsKeep { a }
            | Op::SliceCols { a, .. }
            | Op::SoftmaxRows { a }
            | Op::NormalizeRows { a, .. }
            | Op::Dropout { a, .. }
            | Op::Reshape { a } => f(*a),
        }
    }
}

/// A reverse-mode autodiff tape.
///
/// Construction order is the topological order: ops may only reference
/// earlier [`Var`]s, so the backward pass is a single reverse sweep.
pub struct Tape {
    values: Vec<Tensor>,
    ops: Vec<Op>,
    /// Per node: does any parameter feed it? The reverse pass forms no
    /// adjoint for a node without one — it could only be dropped at a leaf.
    needs_grad: Vec<bool>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape { values: Vec::new(), ops: Vec::new(), needs_grad: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let mut needs_grad = matches!(op, Op::Param { .. } | Op::GatherParam { .. });
        op.for_each_input(|v| needs_grad |= self.needs_grad[v.0]);
        self.values.push(value);
        self.ops.push(op);
        self.needs_grad.push(needs_grad);
        Var(self.values.len() - 1)
    }

    /// Records a constant input (no gradient).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// General matrix product `op(a) @ op(b)`, transposing either operand
    /// without materializing the transpose (see [`Tensor::gemm`]).
    pub fn gemm(&mut self, a: Var, b: Var, lhs_t: bool, rhs_t: bool) -> Var {
        let v = self.values[a.0].gemm(&self.values[b.0], lhs_t, rhs_t);
        self.push(v, Op::Gemm { a, b, lhs_t, rhs_t })
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.values[a.0].map(|x| x + c);
        self.push(v, Op::AddScalar { a })
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.values[a.0].sum());
        self.push(v, Op::SumAll { a })
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.values[a.0].mean());
        self.push(v, Op::MeanAll { a })
    }

    /// Sums each column of `[m,n]`, producing `[1,n]`.
    pub fn sum_rows_keep(&mut self, a: Var) -> Var {
        let (_, n) = self.values[a.0].matrix_dims();
        let v = self.values[a.0].sum_rows().reshape([1, n]);
        self.push(v, Op::SumRowsKeep { a })
    }

    /// Mean binary cross-entropy with logits (numerically stable).
    ///
    /// `labels` must contain {0,1} values with the same element count as the
    /// logits node. Produces a scalar node.
    pub fn bce_with_logits_mean(&mut self, logits: Var, labels: Tensor) -> Var {
        let z = &self.values[logits.0];
        assert_eq!(z.numel(), labels.numel(), "labels/logits length mismatch");
        let n = z.numel().max(1) as f32;
        let mut total = 0.0f32;
        for (&zi, &yi) in z.data().iter().zip(labels.data()) {
            // max(z,0) - z*y + ln(1 + exp(-|z|))
            total += zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p();
        }
        let v = Tensor::scalar(total / n);
        self.push(v, Op::BceWithLogitsMean { logits, labels })
    }

    /// Runs the reverse pass from scalar node `loss`.
    ///
    /// Returns the gradient of `loss` with respect to every parameter that
    /// participated in the forward pass: a dense tensor for each parameter
    /// read whole, and the touched rows of each gathered table.
    pub fn backward(&mut self, loss: Var) -> Grads {
        assert_eq!(self.values[loss.0].numel(), 1, "backward requires a scalar loss");
        let n = self.values.len();
        let mut adj = Adjoints { slots: vec![None; n], needs_grad: &self.needs_grad };
        adj.slots[loss.0] = Some(Tensor::scalar(1.0));
        let mut grads = Grads::default();

        for idx in (0..=loss.0).rev() {
            let d = match adj.slots[idx].take() {
                Some(d) => d,
                None => continue,
            };
            match &self.ops[idx] {
                Op::Leaf => {}
                Op::Param { param } => grads.add_dense(*param, d),
                Op::GatherParam { param, ids, table_shape } => {
                    grads.add_rows(*param, *table_shape, ids, &d)
                }
                Op::Add { a, b } => {
                    let (a, b) = (*a, *b);
                    accumulate(&mut adj, b, d.clone());
                    accumulate(&mut adj, a, d);
                }
                Op::Sub { a, b } => {
                    let (a, b) = (*a, *b);
                    accumulate(&mut adj, b, d.scale(-1.0));
                    accumulate(&mut adj, a, d);
                }
                Op::Mul { a, b } => {
                    let (a, b) = (*a, *b);
                    let da = d.mul(&self.values[b.0]);
                    let db = d.mul(&self.values[a.0]);
                    accumulate(&mut adj, a, da);
                    accumulate(&mut adj, b, db);
                }
                Op::AddRow { a, row } => {
                    let (a, row) = (*a, *row);
                    let drow_flat = d.sum_rows();
                    let drow = reshape_like(drow_flat, &self.values[row.0]);
                    accumulate(&mut adj, a, d);
                    accumulate(&mut adj, row, drow);
                }
                Op::MulCol { a, col } => {
                    let (a, col) = (*a, *col);
                    let da = d.mul_col_broadcast(&self.values[col.0]);
                    let dcol_flat = d.mul(&self.values[a.0]).sum_cols();
                    let dcol = reshape_like(dcol_flat, &self.values[col.0]);
                    accumulate(&mut adj, a, da);
                    accumulate(&mut adj, col, dcol);
                }
                Op::Gemm { a, b, lhs_t, rhs_t } => {
                    let (a, b, lhs_t, rhs_t) = (*a, *b, *lhs_t, *rhs_t);
                    // With C = op(a) @ op(b): dA' = d @ op(b)ᵀ and
                    // dB' = op(a)ᵀ @ d; a transposed operand receives the
                    // transposed adjoint, which the flags express without
                    // ever materializing a transpose.
                    if self.needs_grad[a.0] {
                        let da = if lhs_t {
                            self.values[b.0].gemm(&d, rhs_t, true)
                        } else {
                            d.gemm(&self.values[b.0], false, !rhs_t)
                        };
                        accumulate(&mut adj, a, da);
                    }
                    if self.needs_grad[b.0] {
                        let db = if rhs_t {
                            d.gemm(&self.values[a.0], true, lhs_t)
                        } else {
                            self.values[a.0].gemm(&d, !lhs_t, false)
                        };
                        accumulate(&mut adj, b, db);
                    }
                }
                Op::Dense { x, w, bias, act } => {
                    let (x, w, bias, act) = (*x, *w, *bias, *act);
                    // The stored output y = act(z) determines act'(z)
                    // exactly: relu's y > 0 ⟺ z > 0, and sigmoid/tanh
                    // derivatives are functions of y — so dz matches the
                    // unfused chain bit for bit.
                    let y = &self.values[idx];
                    let dz = match act {
                        Act::Linear => d,
                        Act::Relu => d.zip(y, |g, yv| if yv > 0.0 { g } else { 0.0 }),
                        Act::Sigmoid => d.zip(y, |g, s| g * s * (1.0 - s)),
                        Act::Tanh => d.zip(y, |g, t| g * (1.0 - t * t)),
                    };
                    if self.needs_grad[x.0] {
                        accumulate(&mut adj, x, dz.gemm(&self.values[w.0], false, true));
                    }
                    if self.needs_grad[w.0] {
                        accumulate(&mut adj, w, self.values[x.0].gemm(&dz, true, false));
                    }
                    if let Some(bias) = bias {
                        let db = reshape_like(dz.sum_rows(), &self.values[bias.0]);
                        accumulate(&mut adj, bias, db);
                    }
                }
                Op::Transpose { a } => {
                    let a = *a;
                    accumulate(&mut adj, a, d.transpose());
                }
                Op::Relu { a } => {
                    let a = *a;
                    let da = d.zip(&self.values[a.0], |g, x| if x > 0.0 { g } else { 0.0 });
                    accumulate(&mut adj, a, da);
                }
                Op::Sigmoid { a } => {
                    let a = *a;
                    let da = d.zip(&self.values[idx], |g, s| g * s * (1.0 - s));
                    accumulate(&mut adj, a, da);
                }
                Op::Tanh { a } => {
                    let a = *a;
                    let da = d.zip(&self.values[idx], |g, t| g * (1.0 - t * t));
                    accumulate(&mut adj, a, da);
                }
                Op::Square { a } => {
                    let a = *a;
                    let da = d.zip(&self.values[a.0], |g, x| g * 2.0 * x);
                    accumulate(&mut adj, a, da);
                }
                Op::ScalarMul { a, c } => {
                    let (a, c) = (*a, *c);
                    accumulate(&mut adj, a, d.scale(c));
                }
                Op::AddScalar { a } => {
                    let a = *a;
                    accumulate(&mut adj, a, d);
                }
                Op::SumAll { a } => {
                    let a = *a;
                    let g = d.item();
                    let da = Tensor::full(self.values[a.0].shape(), g);
                    accumulate(&mut adj, a, da);
                }
                Op::MeanAll { a } => {
                    let a = *a;
                    let n_el = self.values[a.0].numel().max(1) as f32;
                    let da = Tensor::full(self.values[a.0].shape(), d.item() / n_el);
                    accumulate(&mut adj, a, da);
                }
                Op::SumColsKeep { a } => {
                    let a = *a;
                    let (m, n_cols) = self.values[a.0].matrix_dims();
                    let mut da = Tensor::zeros([m, n_cols]);
                    for i in 0..m {
                        let g = d.data()[i];
                        for j in 0..n_cols {
                            *da.at_mut(i, j) = g;
                        }
                    }
                    accumulate(&mut adj, a, da);
                }
                Op::SumRowsKeep { a } => {
                    let a = *a;
                    let (m, n_cols) = self.values[a.0].matrix_dims();
                    let mut da = Tensor::zeros([m, n_cols]);
                    for i in 0..m {
                        for j in 0..n_cols {
                            *da.at_mut(i, j) = d.data()[j];
                        }
                    }
                    accumulate(&mut adj, a, da);
                }
                Op::ConcatCols { parts } => {
                    let parts = parts.clone();
                    let mut start = 0usize;
                    for p in parts {
                        let w = self.values[p.0].matrix_dims().1;
                        let dp = d.slice_cols(start, w);
                        start += w;
                        accumulate(&mut adj, p, dp);
                    }
                }
                Op::SliceCols { a, start, len } => {
                    let (a, start, len) = (*a, *start, *len);
                    let (m, n_cols) = self.values[a.0].matrix_dims();
                    let mut da = Tensor::zeros([m, n_cols]);
                    for i in 0..m {
                        for j in 0..len {
                            *da.at_mut(i, start + j) = d.at(i, j);
                        }
                    }
                    accumulate(&mut adj, a, da);
                }
                Op::SoftmaxRows { a } => {
                    let a = *a;
                    let y = &self.values[idx];
                    let (m, n_cols) = y.matrix_dims();
                    let mut da = Tensor::zeros([m, n_cols]);
                    for i in 0..m {
                        let mut dot = 0.0f32;
                        for j in 0..n_cols {
                            dot += d.at(i, j) * y.at(i, j);
                        }
                        for j in 0..n_cols {
                            *da.at_mut(i, j) = y.at(i, j) * (d.at(i, j) - dot);
                        }
                    }
                    accumulate(&mut adj, a, da);
                }
                Op::NormalizeRows { a, inv_std } => {
                    let a = *a;
                    let da = d.mul_row_broadcast(inv_std);
                    accumulate(&mut adj, a, da);
                }
                Op::Dropout { a, mask } => {
                    let a = *a;
                    let da = d.mul(mask);
                    accumulate(&mut adj, a, da);
                }
                Op::BceWithLogitsMean { logits, labels } => {
                    let logits = *logits;
                    let n_el = self.values[logits.0].numel().max(1) as f32;
                    let scale = d.item() / n_el;
                    let z = &self.values[logits.0];
                    let da_data: Vec<f32> = z
                        .data()
                        .iter()
                        .zip(labels.data())
                        .map(|(&zi, &yi)| scale * (stable_sigmoid(zi) - yi))
                        .collect();
                    let da = Tensor::from_vec(z.shape(), da_data);
                    accumulate(&mut adj, logits, da);
                }
                Op::Reshape { a } => {
                    let a = *a;
                    let da = d.reshape(self.values[a.0].shape());
                    accumulate(&mut adj, a, da);
                }
            }
        }
        grads
    }
}

/// Records every value with the op that produced it. A parameter read is a
/// copy, and a gather keeps its ids: the reverse pass needs both.
impl Recorder for Tape {
    fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    fn leaf_concat(&mut self, parts: &[&Tensor]) -> Var {
        let v = Tensor::concat_cols(parts);
        self.leaf(v)
    }

    /// Records a parameter copy; its adjoint becomes `grads[param]`.
    fn param(&mut self, param: usize, value: &Tensor) -> Var {
        self.push(value.clone(), Op::Param { param })
    }

    /// Only the gathered rows are stored on the tape, and the backward pass
    /// returns only the touched rows' gradients ([`crate::RowGrad`]).
    fn gather_param(&mut self, param: usize, table: &Tensor, ids: &[u32]) -> Var {
        let (rows, dim) = table.matrix_dims();
        let value = table.gather_rows(ids);
        self.push(value, Op::GatherParam { param, ids: ids.to_vec(), table_shape: [rows, dim] })
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].add(&self.values[b.0]);
        self.push(v, Op::Add { a, b })
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].sub(&self.values[b.0]);
        self.push(v, Op::Sub { a, b })
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].mul(&self.values[b.0]);
        self.push(v, Op::Mul { a, b })
    }

    fn add_row(&mut self, a: Var, row: Var) -> Var {
        let v = self.values[a.0].add_row_broadcast(&self.values[row.0]);
        self.push(v, Op::AddRow { a, row })
    }

    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let v = self.values[a.0].mul_col_broadcast(&self.values[col.0]);
        self.push(v, Op::MulCol { a, col })
    }

    /// One tape node with bit-identical values and gradients to recording
    /// the gemm, bias add and activation separately, but one intermediate
    /// instead of three.
    fn dense(&mut self, x: Var, w: Var, bias: Option<Var>, act: Act) -> Var {
        let v =
            self.values[x.0].gemm_bias_act(&self.values[w.0], bias.map(|b| &self.values[b.0]), act);
        self.push(v, Op::Dense { x, w, bias, act })
    }

    fn transpose(&mut self, a: Var) -> Var {
        let v = self.values[a.0].transpose();
        self.push(v, Op::Transpose { a })
    }

    fn relu(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(recorder::relu);
        self.push(v, Op::Relu { a })
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(stable_sigmoid);
        self.push(v, Op::Sigmoid { a })
    }

    fn tanh(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(f32::tanh);
        self.push(v, Op::Tanh { a })
    }

    fn square(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(recorder::square);
        self.push(v, Op::Square { a })
    }

    fn scalar_mul(&mut self, a: Var, c: f32) -> Var {
        let v = self.values[a.0].scale(c);
        self.push(v, Op::ScalarMul { a, c })
    }

    fn sum_cols_keep(&mut self, a: Var) -> Var {
        let (m, _) = self.values[a.0].matrix_dims();
        let v = self.values[a.0].sum_cols().reshape([m, 1]);
        self.push(v, Op::SumColsKeep { a })
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.values[p.0]).collect();
        let v = Tensor::concat_cols(&tensors);
        self.push(v, Op::ConcatCols { parts: parts.to_vec() })
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let v = self.values[a.0].slice_cols(start, len);
        self.push(v, Op::SliceCols { a, start, len })
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.values[a.0].softmax_rows();
        self.push(v, Op::SoftmaxRows { a })
    }

    /// The batch statistics are treated as constants in the backward pass.
    fn normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let (out, inv_std) = recorder::normalize_rows(&self.values[a.0], eps);
        self.push(out, Op::NormalizeRows { a, inv_std })
    }

    fn dropout(&mut self, a: Var, mask: Tensor) -> Var {
        let v = self.values[a.0].mul(&mask);
        self.push(v, Op::Dropout { a, mask })
    }

    fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.values[a.0].clone().reshape(shape);
        self.push(v, Op::Reshape { a })
    }
}

/// The reverse sweep's adjoint slots, beside the tape's `needs_grad` bits.
struct Adjoints<'a> {
    slots: Vec<Option<Tensor>>,
    needs_grad: &'a [bool],
}

/// Adds `d` into the adjoint of `v`, or drops it when no parameter feeds `v`.
fn accumulate(adj: &mut Adjoints<'_>, v: Var, d: Tensor) {
    if !adj.needs_grad[v.0] {
        return;
    }
    match &mut adj.slots[v.0] {
        Some(existing) => existing.axpy(1.0, &d),
        slot => *slot = Some(d),
    }
}

fn reshape_like(t: Tensor, like: &Tensor) -> Tensor {
    t.reshape(like.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_tensor::rng::seeded;

    #[test]
    fn linear_layer_grads() {
        // y = x @ w + b; loss = sum(y)
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]));
        let w = tape.param(0, &Tensor::from_vec([2, 2], vec![1., 0., 0., 1.]));
        let b = tape.param(1, &Tensor::from_vec([2], vec![0.5, -0.5]));
        let xw = tape.gemm(x, w, false, false);
        let y = tape.add_row(xw, b);
        let loss = tape.sum_all(y);
        assert_eq!(tape.value(loss).item(), 1. + 2. + 3. + 4. + 2.0 * 0.0);
        let grads = tape.backward(loss);
        // dW = xᵀ @ 1 = column sums of x replicated
        assert_eq!(grads[0].data(), &[4., 4., 6., 6.]);
        // db = batch size per output
        assert_eq!(grads[1].data(), &[2., 2.]);
    }

    #[test]
    fn leaf_operands_get_no_adjoint_and_parameter_grads_keep_their_bits() {
        // The same graph twice: with `x` and `c` as leaves their adjoints are
        // skipped; as parameters every adjoint is formed, as it was before
        // the tape tracked `needs_grad`.
        let mut rng = seeded(9);
        let x = Tensor::randn(&mut rng, [6, 5], 0.0, 1.0);
        let w = Tensor::randn(&mut rng, [5, 4], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [4], 0.0, 1.0);
        let c = Tensor::randn(&mut rng, [6, 3], 0.0, 1.0);
        let v = Tensor::randn(&mut rng, [3, 4], 0.0, 1.0);
        let run = |leaves: bool| {
            let mut tape = Tape::new();
            let input = |tape: &mut Tape, param: usize, t: &Tensor| {
                if leaves {
                    tape.leaf(t.clone())
                } else {
                    tape.param(param, t)
                }
            };
            let (xv, cv) = (input(&mut tape, 8, &x), input(&mut tape, 9, &c));
            let wv = tape.param(0, &w);
            let bv = tape.param(1, &b);
            let vv = tape.param(2, &v);
            let h = tape.dense(xv, wv, Some(bv), Act::Tanh);
            let g = tape.gemm(cv, vv, false, false);
            let y = tape.mul(h, g);
            let loss = tape.mean_all(y);
            assert_eq!(tape.needs_grad[xv.0], !leaves);
            assert_eq!(tape.needs_grad[cv.0], !leaves);
            assert!(tape.needs_grad[h.0] && tape.needs_grad[g.0] && tape.needs_grad[loss.0]);
            tape.backward(loss)
        };
        let (skipped, full) = (run(true), run(false));
        assert_eq!(skipped.len(), 3);
        assert_eq!(full.len(), 5);
        for param in 0..3 {
            assert_eq!(skipped[param].data(), full[param].data(), "param {param}");
        }
    }

    #[test]
    fn gather_scatter_grads() {
        let mut tape = Tape::new();
        let table = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let e = tape.gather_param(7, &table, &[2, 0, 2]);
        let loss = tape.sum_all(e);
        let grads = tape.backward(loss);
        let rows = grads.rows(7).expect("a gathered table gets row gradients");
        assert_eq!(rows.table_shape(), [3, 2]);
        // First-occurrence order: id 2 (positions 0 and 2), then id 0.
        assert_eq!(rows.ids(), &[2, 0]);
        assert_eq!(grads.to_dense(7).unwrap().data(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn bce_loss_and_grad() {
        let mut tape = Tape::new();
        let logits = tape.param(0, &Tensor::from_vec([2], vec![0.0, 10.0]));
        let labels = Tensor::from_vec([2], vec![1.0, 1.0]);
        let loss = tape.bce_with_logits_mean(logits, labels);
        // loss = (ln 2 + ~0)/2
        assert!((tape.value(loss).item() - 0.5 * std::f32::consts::LN_2).abs() < 1e-3);
        let grads = tape.backward(loss);
        // grad = (σ(z) - y)/n
        assert!((grads[0].data()[0] - (0.5 - 1.0) / 2.0).abs() < 1e-6);
        assert!(grads[0].data()[1].abs() < 1e-3);
    }

    #[test]
    fn sigmoid_tanh_relu_square_values() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec([3], vec![-1.0, 0.0, 2.0]));
        let r = tape.relu(x);
        assert_eq!(tape.value(r).data(), &[0.0, 0.0, 2.0]);
        let s = tape.sigmoid(x);
        assert!((tape.value(s).data()[1] - 0.5).abs() < 1e-6);
        let t = tape.tanh(x);
        assert!((tape.value(t).data()[2] - 2.0f32.tanh()).abs() < 1e-6);
        let q = tape.square(x);
        assert_eq!(tape.value(q).data(), &[1.0, 0.0, 4.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x*x_param) + sum(x_param) touches the param twice
        let mut tape = Tape::new();
        let w = tape.param(0, &Tensor::from_vec([2], vec![3.0, 4.0]));
        let sq = tape.square(w);
        let s1 = tape.sum_all(sq);
        let s2 = tape.sum_all(w);
        let loss = tape.add(s1, s2);
        let grads = tape.backward(loss);
        // d/dw (w² + w) = 2w + 1
        assert_eq!(grads[0].data(), &[7.0, 9.0]);
    }

    #[test]
    fn softmax_rows_grad_is_zero_for_uniform_upstream() {
        // Softmax outputs sum to 1 per row, so gradient of sum(softmax) wrt
        // input is exactly zero.
        let mut tape = Tape::new();
        let x = tape.param(0, &Tensor::from_vec([2, 3], vec![0.3, -1.0, 2.0, 0.0, 0.0, 0.0]));
        let s = tape.softmax_rows(x);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert!(grads[0].norm() < 1e-6);
    }

    #[test]
    fn normalize_rows_zero_mean_unit_var() {
        let mut tape = Tape::new();
        let mut rng = seeded(5);
        let x = tape.leaf(Tensor::randn(&mut rng, [64, 4], 3.0, 2.0));
        let z = tape.normalize_rows(x, 1e-5);
        let zt = tape.value(z);
        let col_mean = zt.sum_rows().scale(1.0 / 64.0);
        assert!(col_mean.norm() < 1e-4, "col means {:?}", col_mean);
        let (m, n) = zt.matrix_dims();
        for j in 0..n {
            let mut var = 0.0;
            for i in 0..m {
                var += zt.at(i, j) * zt.at(i, j);
            }
            var /= m as f32;
            assert!((var - 1.0).abs() < 1e-2, "var {}", var);
        }
    }

    #[test]
    fn dropout_mask_routes_gradient() {
        let mut tape = Tape::new();
        let x = tape.param(0, &Tensor::from_vec([4], vec![1., 1., 1., 1.]));
        let mask = Tensor::from_vec([4], vec![2.0, 0.0, 2.0, 0.0]);
        let y = tape.dropout(x, mask.clone());
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads[0].data(), mask.data());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let x = tape.param(0, &Tensor::ones([2, 2]));
        tape.backward(x);
    }
}
