//! The autodiff tape: op recording and the reverse pass.

use crate::arena::Arena;
use crate::grads::Grads;
use crate::recorder::{self, Recorder, Var};
use mamdr_tensor::{Act, Tensor};
use std::ops::Range;

/// Numerically stable logistic sigmoid (re-exported from `mamdr-tensor`,
/// where the fused kernels need it; the old path keeps working).
pub use mamdr_tensor::stable_sigmoid;

/// One recorded operation. What the backward rule reads beside the values
/// lives in the tape's kept storage: ids and concat parts as ranges of its
/// lists, dropout masks, labels and normalization scales as indices into
/// its auxiliary arena.
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
        ids: Range<usize>,
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
        parts: Range<usize>,
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
        inv_std: usize,
    },
    Dropout {
        a: Var,
        mask: usize,
    },
    /// Mean binary cross-entropy with logits; `labels` has the same number of
    /// elements as the logits node.
    BceWithLogitsMean {
        logits: Var,
        labels: usize,
    },
    Reshape {
        a: Var,
    },
}

impl Op {
    /// Calls `f` with every node this op reads; `parts` is the tape's list
    /// of concat parts.
    fn for_each_input(&self, parts: &[Var], mut f: impl FnMut(Var)) {
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
            Op::ConcatCols { parts: range } => parts[range.clone()].iter().copied().for_each(f),
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
///
/// A tape kept across passes ([`Tape::reset`]) keeps all of its storage:
/// node `k`'s value goes into the `k`-th buffer of its value arena, and the
/// reverse pass writes node `k`'s adjoint into the `k`-th buffer of a
/// second one. Repeating a pass of the same shape at the same or a smaller
/// batch allocates nothing but what its GEMMs pack.
#[derive(Default)]
pub struct Tape {
    /// Node `k`'s value is the arena's `k`-th.
    values: Arena,
    ops: Vec<Op>,
    /// Per node: does any parameter feed it? The reverse pass forms no
    /// adjoint for a node without one — it could only be dropped at a leaf.
    needs_grad: Vec<bool>,
    /// What the reverse pass reads beside the values: dropout masks,
    /// labels, normalization scales.
    aux: Arena,
    /// Every gather's ids, back to back.
    ids: Vec<u32>,
    /// Every concat's parts, back to back.
    parts: Vec<Var>,
    adjoints: Adjoints,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every recorded node, keeping all storage for the next pass.
    pub fn reset(&mut self) {
        self.values.clear();
        self.ops.clear();
        self.needs_grad.clear();
        self.aux.clear();
        self.ids.clear();
        self.parts.clear();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Records `op` as the node whose value was just written into the
    /// value arena's next buffer.
    fn finish(&mut self, op: Op) -> Var {
        let mut needs_grad = matches!(op, Op::Param { .. } | Op::GatherParam { .. });
        op.for_each_input(&self.parts, |v| needs_grad |= self.needs_grad[v.0]);
        self.ops.push(op);
        self.needs_grad.push(needs_grad);
        debug_assert_eq!(self.ops.len(), self.values.len(), "a node without a value");
        Var(self.ops.len() - 1)
    }

    /// Records a constant input (no gradient).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        *self.values.push().1 = value;
        self.finish(Op::Leaf)
    }

    /// General matrix product `op(a) @ op(b)`, transposing either operand
    /// without materializing the transpose (see [`Tensor::gemm`]).
    pub fn gemm(&mut self, a: Var, b: Var, lhs_t: bool, rhs_t: bool) -> Var {
        let (v, out) = self.values.push();
        v[a.0].gemm_into(&v[b.0], lhs_t, rhs_t, out);
        self.finish(Op::Gemm { a, b, lhs_t, rhs_t })
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let (v, out) = self.values.push();
        v[a.0].map_into(|x| x + c, out);
        self.finish(Op::AddScalar { a })
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        let sum = v[a.0].sum();
        out.reset(&[]);
        out.data_mut()[0] = sum;
        self.finish(Op::SumAll { a })
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        let mean = v[a.0].mean();
        out.reset(&[]);
        out.data_mut()[0] = mean;
        self.finish(Op::MeanAll { a })
    }

    /// Sums each column of `[m,n]`, producing `[1,n]`.
    pub fn sum_rows_keep(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].sum_rows_into(out);
        let n = out.numel();
        out.set_shape(&[1, n]);
        self.finish(Op::SumRowsKeep { a })
    }

    /// Mean binary cross-entropy with logits (numerically stable).
    ///
    /// `labels` must contain {0,1} values, as many as the logits node has
    /// elements; the tape keeps a copy. Produces a scalar node.
    pub fn bce_with_logits_mean(&mut self, logits: Var, labels: &[f32]) -> Var {
        let kept = self.aux.len();
        let (_, y) = self.aux.push();
        y.reset(&[labels.len()]);
        y.data_mut().copy_from_slice(labels);
        let (v, out) = self.values.push();
        let z = &v[logits.0];
        assert_eq!(z.numel(), labels.len(), "labels/logits length mismatch");
        let n = z.numel().max(1) as f32;
        let mut total = 0.0f32;
        for (&zi, &yi) in z.data().iter().zip(labels) {
            // max(z,0) - z*y + ln(1 + exp(-|z|))
            total += zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p();
        }
        out.reset(&[]);
        out.data_mut()[0] = total / n;
        self.finish(Op::BceWithLogitsMean { logits, labels: kept })
    }

    /// Runs the reverse pass from scalar node `loss`.
    ///
    /// Returns the gradient of `loss` with respect to every parameter that
    /// participated in the forward pass: a dense tensor for each parameter
    /// read whole, and the touched rows of each gathered table.
    pub fn backward(&mut self, loss: Var) -> Grads {
        let mut grads = Grads::default();
        self.backward_into(loss, &mut grads);
        grads
    }

    /// [`backward`](Self::backward) into a kept `grads`, whose previous
    /// contents are forgotten and whose buffers are reused. The adjoints go
    /// into the tape's own kept arena.
    pub fn backward_into(&mut self, loss: Var, grads: &mut Grads) {
        let values = self.values.values();
        assert_eq!(values[loss.0].numel(), 1, "backward requires a scalar loss");
        grads.clear();
        let adj = &mut self.adjoints;
        let n = loss.0 + 1;
        if adj.bufs.len() < n {
            adj.bufs.resize_with(n, Tensor::empty);
        }
        adj.live.clear();
        adj.live.resize(n, false);
        adj.bufs[loss.0].reset(&[]);
        adj.bufs[loss.0].data_mut()[0] = 1.0;
        adj.live[loss.0] = true;

        for idx in (0..n).rev() {
            if !std::mem::take(&mut adj.live[idx]) {
                continue;
            }
            let (before, rest) = adj.bufs.split_at_mut(idx);
            let d = &rest[0];
            let mut sink = Sink {
                adjoints: before,
                live: &mut adj.live[..idx],
                needs_grad: &self.needs_grad,
                tmp: &mut adj.tmp,
            };
            match &self.ops[idx] {
                Op::Leaf => {}
                Op::Param { param } => grads.add_dense(*param, d),
                Op::GatherParam { param, ids, table_shape } => {
                    grads.add_rows(*param, *table_shape, &self.ids[ids.clone()], d)
                }
                &Op::Add { a, b } => {
                    sink.add(b, |o| o.copy_from(d));
                    sink.add(a, |o| o.copy_from(d));
                }
                &Op::Sub { a, b } => {
                    sink.add(b, |o| d.scale_into(-1.0, o));
                    sink.add(a, |o| o.copy_from(d));
                }
                &Op::Mul { a, b } => {
                    sink.add(a, |o| d.mul_into(&values[b.0], o));
                    sink.add(b, |o| d.mul_into(&values[a.0], o));
                }
                &Op::AddRow { a, row } => {
                    sink.add(a, |o| o.copy_from(d));
                    sink.add(row, |o| {
                        d.sum_rows_into(o);
                        o.set_shape(values[row.0].shape());
                    });
                }
                &Op::MulCol { a, col } => {
                    sink.add(a, |o| d.mul_col_broadcast_into(&values[col.0], o));
                    sink.add(col, |o| {
                        // Σ_j d ⊙ a per row: the products rounded, then
                        // summed from 0.0 in column order.
                        let (m, n_cols) = d.matrix_dims();
                        o.reset(values[col.0].shape());
                        let rows = d.data().chunks_exact(n_cols.max(1));
                        let a_rows = values[a.0].data().chunks_exact(n_cols.max(1));
                        for ((o, g), x) in o.data_mut()[..m].iter_mut().zip(rows).zip(a_rows) {
                            let mut acc = 0.0f32;
                            for (&g, &x) in g.iter().zip(x) {
                                acc += g * x;
                            }
                            *o = acc;
                        }
                    });
                }
                &Op::Gemm { a, b, lhs_t, rhs_t } => {
                    // With C = op(a) @ op(b): dA' = d @ op(b)ᵀ and
                    // dB' = op(a)ᵀ @ d; a transposed operand receives the
                    // transposed adjoint, which the flags express without
                    // ever materializing a transpose.
                    sink.add(a, |o| {
                        if lhs_t {
                            values[b.0].gemm_into(d, rhs_t, true, o)
                        } else {
                            d.gemm_into(&values[b.0], false, !rhs_t, o)
                        }
                    });
                    sink.add(b, |o| {
                        if rhs_t {
                            d.gemm_into(&values[a.0], true, lhs_t, o)
                        } else {
                            values[a.0].gemm_into(d, !lhs_t, false, o)
                        }
                    });
                }
                &Op::Dense { x, w, bias, act } => {
                    // The stored output y = act(z) determines act'(z)
                    // exactly: relu's y > 0 ⟺ z > 0, and sigmoid/tanh
                    // derivatives are functions of y — so dz matches the
                    // unfused chain bit for bit.
                    let y = &values[idx];
                    let dz = &mut adj.dz;
                    let dz: &Tensor = match act {
                        Act::Linear => d,
                        Act::Relu => {
                            d.zip_into(y, |g, yv| if yv > 0.0 { g } else { 0.0 }, dz);
                            dz
                        }
                        Act::Sigmoid => {
                            d.zip_into(y, |g, s| g * s * (1.0 - s), dz);
                            dz
                        }
                        Act::Tanh => {
                            d.zip_into(y, |g, t| g * (1.0 - t * t), dz);
                            dz
                        }
                    };
                    sink.add(x, |o| dz.gemm_into(&values[w.0], false, true, o));
                    sink.add(w, |o| values[x.0].gemm_into(dz, true, false, o));
                    if let Some(bias) = bias {
                        sink.add(bias, |o| {
                            dz.sum_rows_into(o);
                            o.set_shape(values[bias.0].shape());
                        });
                    }
                }
                &Op::Transpose { a } => sink.add(a, |o| d.transpose_into(o)),
                &Op::Relu { a } => sink
                    .add(a, |o| d.zip_into(&values[a.0], |g, x| if x > 0.0 { g } else { 0.0 }, o)),
                &Op::Sigmoid { a } => {
                    sink.add(a, |o| d.zip_into(&values[idx], |g, s| g * s * (1.0 - s), o))
                }
                &Op::Tanh { a } => {
                    sink.add(a, |o| d.zip_into(&values[idx], |g, t| g * (1.0 - t * t), o))
                }
                &Op::Square { a } => {
                    sink.add(a, |o| d.zip_into(&values[a.0], |g, x| g * 2.0 * x, o))
                }
                &Op::ScalarMul { a, c } => sink.add(a, |o| d.scale_into(c, o)),
                &Op::AddScalar { a } => sink.add(a, |o| o.copy_from(d)),
                &Op::SumAll { a } => sink.add(a, |o| {
                    o.reset(values[a.0].shape());
                    o.data_mut().fill(d.item());
                }),
                &Op::MeanAll { a } => sink.add(a, |o| {
                    let n_el = values[a.0].numel().max(1) as f32;
                    o.reset(values[a.0].shape());
                    o.data_mut().fill(d.item() / n_el);
                }),
                &Op::SumColsKeep { a } => sink.add(a, |o| {
                    let (m, n_cols) = values[a.0].matrix_dims();
                    o.reset(&[m, n_cols]);
                    for (row, &g) in o.data_mut().chunks_exact_mut(n_cols.max(1)).zip(d.data()) {
                        row.fill(g);
                    }
                }),
                &Op::SumRowsKeep { a } => sink.add(a, |o| {
                    let (m, n_cols) = values[a.0].matrix_dims();
                    o.reset(&[m, n_cols]);
                    for row in o.data_mut().chunks_exact_mut(n_cols.max(1)) {
                        row.copy_from_slice(&d.data()[..n_cols]);
                    }
                }),
                Op::ConcatCols { parts } => {
                    let mut start = 0usize;
                    for &p in &self.parts[parts.clone()] {
                        let w = values[p.0].matrix_dims().1;
                        sink.add(p, |o| d.slice_cols_into(start, w, o));
                        start += w;
                    }
                }
                &Op::SliceCols { a, start, len } => sink.add(a, |o| {
                    let (m, n_cols) = values[a.0].matrix_dims();
                    o.reset(&[m, n_cols]);
                    let rows = o.data_mut().chunks_exact_mut(n_cols.max(1));
                    for (row, g) in rows.zip(d.data().chunks_exact(len.max(1))) {
                        row[start..start + len].copy_from_slice(g);
                    }
                }),
                &Op::SoftmaxRows { a } => sink.add(a, |o| {
                    let y = &values[idx];
                    let (m, n_cols) = y.matrix_dims();
                    o.reset(&[m, n_cols]);
                    let w = n_cols.max(1);
                    let rows = o.data_mut().chunks_exact_mut(w);
                    for ((row, g), y) in
                        rows.zip(d.data().chunks_exact(w)).zip(y.data().chunks_exact(w))
                    {
                        let mut dot = 0.0f32;
                        for (&g, &y) in g.iter().zip(y) {
                            dot += g * y;
                        }
                        for ((o, &g), &y) in row.iter_mut().zip(g).zip(y) {
                            *o = y * (g - dot);
                        }
                    }
                }),
                &Op::NormalizeRows { a, inv_std } => {
                    sink.add(a, |o| d.mul_row_broadcast_into(self.aux.get(inv_std), o))
                }
                &Op::Dropout { a, mask } => sink.add(a, |o| d.mul_into(self.aux.get(mask), o)),
                &Op::BceWithLogitsMean { logits, labels } => sink.add(logits, |o| {
                    let z = &values[logits.0];
                    let scale = d.item() / z.numel().max(1) as f32;
                    o.reset(z.shape());
                    let pairs = z.data().iter().zip(self.aux.get(labels).data());
                    for (o, (&zi, &yi)) in o.data_mut().iter_mut().zip(pairs) {
                        *o = scale * (stable_sigmoid(zi) - yi);
                    }
                }),
                &Op::Reshape { a } => sink.add(a, |o| {
                    o.reset(values[a.0].shape());
                    o.data_mut().copy_from_slice(d.data());
                }),
            }
        }
        grads.finish();
    }
}

/// Records every value with the op that produced it. A parameter read is a
/// copy, and a gather keeps its ids: the reverse pass needs both.
impl Recorder for Tape {
    fn value(&self, v: Var) -> &Tensor {
        self.values.get(v.0)
    }

    fn leaf_concat(&mut self, parts: &[&Tensor]) -> Var {
        Tensor::concat_cols_into(parts.iter().copied(), self.values.push().1);
        self.finish(Op::Leaf)
    }

    /// Records a parameter copy; its adjoint becomes `grads[param]`.
    fn param(&mut self, param: usize, value: &Tensor) -> Var {
        self.values.push().1.copy_from(value);
        self.finish(Op::Param { param })
    }

    /// Only the gathered rows are stored on the tape, and the backward pass
    /// returns only the touched rows' gradients ([`crate::RowGrad`]).
    fn gather_param(&mut self, param: usize, table: &Tensor, ids: &[u32]) -> Var {
        let (rows, dim) = table.matrix_dims();
        table.gather_rows_into(ids, self.values.push().1);
        let start = self.ids.len();
        self.ids.extend_from_slice(ids);
        self.finish(Op::GatherParam { param, ids: start..self.ids.len(), table_shape: [rows, dim] })
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].add_into(&v[b.0], out);
        self.finish(Op::Add { a, b })
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].sub_into(&v[b.0], out);
        self.finish(Op::Sub { a, b })
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].mul_into(&v[b.0], out);
        self.finish(Op::Mul { a, b })
    }

    fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].add_row_broadcast_into(&v[row.0], out);
        self.finish(Op::AddRow { a, row })
    }

    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].mul_col_broadcast_into(&v[col.0], out);
        self.finish(Op::MulCol { a, col })
    }

    /// One tape node with bit-identical values and gradients to recording
    /// the gemm, bias add and activation separately, but one intermediate
    /// instead of three.
    fn dense(&mut self, x: Var, w: Var, bias: Option<Var>, act: Act) -> Var {
        let (v, out) = self.values.push();
        v[x.0].gemm_bias_act_into(&v[w.0], bias.map(|b| &v[b.0]), act, out);
        self.finish(Op::Dense { x, w, bias, act })
    }

    fn transpose(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].transpose_into(out);
        self.finish(Op::Transpose { a })
    }

    fn relu(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].map_into(recorder::relu, out);
        self.finish(Op::Relu { a })
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].map_into(stable_sigmoid, out);
        self.finish(Op::Sigmoid { a })
    }

    fn tanh(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].map_into(f32::tanh, out);
        self.finish(Op::Tanh { a })
    }

    fn square(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].map_into(recorder::square, out);
        self.finish(Op::Square { a })
    }

    fn scalar_mul(&mut self, a: Var, c: f32) -> Var {
        let (v, out) = self.values.push();
        v[a.0].scale_into(c, out);
        self.finish(Op::ScalarMul { a, c })
    }

    fn sum_cols_keep(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].sum_cols_into(out);
        let m = out.numel();
        out.set_shape(&[m, 1]);
        self.finish(Op::SumColsKeep { a })
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let (v, out) = self.values.push();
        Tensor::concat_cols_into(parts.iter().map(|p| &v[p.0]), out);
        let start = self.parts.len();
        self.parts.extend_from_slice(parts);
        self.finish(Op::ConcatCols { parts: start..self.parts.len() })
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (v, out) = self.values.push();
        v[a.0].slice_cols_into(start, len, out);
        self.finish(Op::SliceCols { a, start, len })
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        let (v, out) = self.values.push();
        v[a.0].softmax_rows_into(out);
        self.finish(Op::SoftmaxRows { a })
    }

    /// The batch statistics are treated as constants in the backward pass.
    fn normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let inv_std = self.aux.len();
        let (_, scales) = self.aux.push();
        let (v, out) = self.values.push();
        recorder::normalize_rows_into(&v[a.0], eps, scales, out);
        self.finish(Op::NormalizeRows { a, inv_std })
    }

    fn dropout(&mut self, a: Var, fill: impl FnOnce(&mut [f32])) -> Var {
        let kept = self.aux.len();
        let (_, mask) = self.aux.push();
        let (v, out) = self.values.push();
        mask.reset(v[a.0].shape());
        fill(mask.data_mut());
        v[a.0].mul_into(mask, out);
        self.finish(Op::Dropout { a, mask: kept })
    }

    fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let (v, out) = self.values.push();
        out.reset(shape);
        out.data_mut().copy_from_slice(v[a.0].data());
        self.finish(Op::Reshape { a })
    }
}

/// The reverse pass's kept storage.
#[derive(Default)]
struct Adjoints {
    /// Node `k`'s adjoint, while `live[k]`.
    bufs: Vec<Tensor>,
    live: Vec<bool>,
    /// A contribution to an adjoint that already holds one.
    tmp: Tensor,
    /// A dense layer's pre-activation adjoint.
    dz: Tensor,
}

/// Where a backward rule sends its contributions: the adjoints of the nodes
/// before the one being differentiated.
struct Sink<'a> {
    adjoints: &'a mut [Tensor],
    live: &'a mut [bool],
    needs_grad: &'a [bool],
    tmp: &'a mut Tensor,
}

impl Sink<'_> {
    /// Adds the contribution `write` computes into the tensor it is handed
    /// to the adjoint of `v`, or skips it when no parameter feeds `v`.
    ///
    /// The first contribution is written in place, never added to a zeroed
    /// buffer: `0.0 + (−0.0)` is `+0.0`, so adding would change the bits a
    /// `−0.0` adjoint carries.
    fn add(&mut self, v: Var, write: impl FnOnce(&mut Tensor)) {
        if !self.needs_grad[v.0] {
            return;
        }
        if self.live[v.0] {
            write(self.tmp);
            self.adjoints[v.0].axpy(1.0, self.tmp);
        } else {
            write(&mut self.adjoints[v.0]);
            self.live[v.0] = true;
        }
    }
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
        let loss = tape.bce_with_logits_mean(logits, &[1.0, 1.0]);
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
        let mut col_mean = Tensor::empty();
        zt.sum_rows_into(&mut col_mean);
        col_mean.map_inplace(|s| s / 64.0);
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
        let y = tape.dropout(x, |m| m.copy_from_slice(mask.data()));
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads[0].data(), mask.data());
    }

    #[test]
    fn a_kept_tape_stores_each_first_adjoint_over_stale_buffers() {
        // The second pass runs over buffers the first left non-zero. The
        // parameter's adjoint is `1.0 · c`, so the gradient is `c` itself,
        // `−0.0`s included: written in place, never added to a zero.
        let c = Tensor::from_vec([2, 2], vec![-0.0, 2.0, -3.0, -0.0]);
        let (mut tape, mut grads) = (Tape::new(), Grads::default());
        for (p, w) in
            [(Tensor::ones([3, 3]), Tensor::full([3, 3], 5.0)), (Tensor::ones([2, 2]), c.clone())]
        {
            tape.reset();
            let x = tape.param(0, &p);
            let w = tape.leaf(w);
            let y = tape.mul(x, w);
            let loss = tape.sum_all(y);
            tape.backward_into(loss, &mut grads);
        }
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&grads[0]), bits(&c), "a −0.0 gradient lost its sign");
        assert_eq!((tape.len(), grads.len()), (4, 1));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let x = tape.param(0, &Tensor::ones([2, 2]));
        tape.backward(x);
    }
}
