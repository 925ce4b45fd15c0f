//! Finite-difference gradient checking.
//!
//! Every backward rule in [`crate::tape`] is validated by comparing the
//! analytic gradient against central finite differences of the forward pass.
//! This is the safety net that lets the rest of the workspace trust the
//! substrate: an error in any rule shows up here, not as a mysteriously
//! underperforming model three crates up.

use crate::tape::{Tape, Var};
use mamdr_tensor::Tensor;

/// Result of a gradient check for one parameter.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Parameter index checked.
    pub param: usize,
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_err: f32,
    /// Largest relative difference (normalized by magnitude, floored at 1).
    pub max_rel_err: f32,
}

/// Checks the analytic gradient of `forward` against central differences.
///
/// `forward` must build a scalar loss from the supplied parameter tensors
/// (registering them with [`Tape::param`] / [`Tape::gather_param`] under
/// index = position in `params`). Returns one report per parameter.
pub fn check_gradients(
    params: &[Tensor],
    eps: f32,
    forward: impl Fn(&mut Tape, &[Tensor]) -> Var,
) -> Vec<CheckReport> {
    // Analytic gradients.
    let mut tape = Tape::new();
    let loss = forward(&mut tape, params);
    let analytic = tape.backward(loss);

    let mut reports = Vec::with_capacity(params.len());
    for (pi, p) in params.iter().enumerate() {
        let grad = analytic.to_dense(pi).unwrap_or_else(|| Tensor::zeros(p.shape()));
        let mut max_abs = 0.0f32;
        let mut max_rel = 0.0f32;
        for ei in 0..p.numel() {
            let mut plus = params.to_vec();
            plus[pi].data_mut()[ei] += eps;
            let mut tp = Tape::new();
            let lp = forward(&mut tp, &plus);
            let fp = tp.value(lp).item();

            let mut minus = params.to_vec();
            minus[pi].data_mut()[ei] -= eps;
            let mut tm = Tape::new();
            let lm = forward(&mut tm, &minus);
            let fm = tm.value(lm).item();

            let numeric = (fp - fm) / (2.0 * eps);
            let a = grad.data()[ei];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1.0);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
        reports.push(CheckReport { param: pi, max_abs_err: max_abs, max_rel_err: max_rel });
    }
    reports
}

/// Asserts that every parameter's analytic gradient matches finite
/// differences within `tol` relative error.
pub fn assert_gradients_match(
    params: &[Tensor],
    eps: f32,
    tol: f32,
    forward: impl Fn(&mut Tape, &[Tensor]) -> Var,
) {
    for report in check_gradients(params, eps, forward) {
        assert!(
            report.max_rel_err < tol,
            "gradient check failed for param {}: max_rel_err={} max_abs_err={}",
            report.param,
            report.max_rel_err,
            report.max_abs_err
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_tensor::rng::seeded;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn randn(seed: u64, shape: &[usize]) -> Tensor {
        Tensor::randn(&mut seeded(seed), shape, 0.0, 0.7)
    }

    #[test]
    fn mlp_stack_gradcheck() {
        // Two dense layers with relu + sigmoid + bce: the canonical model path.
        let params = vec![randn(1, &[3, 4]), randn(2, &[4]), randn(3, &[4, 1]), randn(4, &[1])];
        let x = randn(9, &[5, 3]);
        let labels = Tensor::from_vec([5], vec![1., 0., 1., 0., 1.]);
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let xin = tape.leaf(x.clone());
            let w1 = tape.param(0, ps[0].clone());
            let b1 = tape.param(1, ps[1].clone());
            let w2 = tape.param(2, ps[2].clone());
            let b2 = tape.param(3, ps[3].clone());
            let h = tape.gemm(xin, w1, false, false);
            let h = tape.add_row(h, b1);
            let h = tape.relu(h);
            let z = tape.gemm(h, w2, false, false);
            let z = tape.add_row(z, b2);
            let z = tape.reshape(z, &[5]);
            tape.bce_with_logits_mean(z, labels.clone())
        });
    }

    #[test]
    fn elementwise_ops_gradcheck() {
        let params = vec![randn(5, &[2, 3]), randn(6, &[2, 3])];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let a = tape.param(0, ps[0].clone());
            let b = tape.param(1, ps[1].clone());
            let s = tape.mul(a, b);
            let t = tape.sub(s, b);
            let u = tape.tanh(t);
            let v = tape.square(u);
            let w = tape.sigmoid(v);
            tape.mean_all(w)
        });
    }

    #[test]
    fn broadcast_ops_gradcheck() {
        let params = vec![randn(7, &[4, 3]), randn(8, &[3]), randn(9, &[4])];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let m = tape.param(0, ps[0].clone());
            let row = tape.param(1, ps[1].clone());
            let col = tape.param(2, ps[2].clone());
            let a = tape.add_row(m, row);
            let b = tape.mul_col(a, col);
            let c = tape.scalar_mul(b, 0.5);
            let d = tape.add_scalar(c, 1.0);
            tape.sum_all(d)
        });
    }

    #[test]
    fn structural_ops_gradcheck() {
        let params = vec![randn(10, &[3, 2]), randn(11, &[3, 4])];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let a = tape.param(0, ps[0].clone());
            let b = tape.param(1, ps[1].clone());
            let cat = tape.concat_cols(&[a, b]);
            let sl = tape.slice_cols(cat, 1, 4);
            let tr = tape.transpose(sl);
            let sq = tape.square(tr);
            let rows = tape.sum_rows_keep(sq);
            let cols = tape.sum_cols_keep(rows);
            tape.sum_all(cols)
        });
    }

    #[test]
    fn softmax_attention_gradcheck() {
        // A miniature attention readout: scores -> softmax -> weighted values.
        let params = vec![randn(12, &[4, 5]), randn(13, &[4, 5])];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let scores = tape.param(0, ps[0].clone());
            let values = tape.param(1, ps[1].clone());
            let attn = tape.softmax_rows(scores);
            let mixed = tape.mul(attn, values);
            let picked = tape.sum_cols_keep(mixed);
            let sq = tape.square(picked);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn gather_gradcheck() {
        let params = vec![randn(14, &[6, 3])];
        let ids = vec![0u32, 5, 2, 5];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let e = tape.gather_param(0, &ps[0], &ids);
            let sq = tape.square(e);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn matmul_chain_gradcheck() {
        let params = vec![randn(15, &[3, 4]), randn(16, &[4, 2])];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let a = tape.param(0, ps[0].clone());
            let b = tape.param(1, ps[1].clone());
            let c = tape.gemm(a, b, false, false);
            let s = tape.sigmoid(c);
            tape.sum_all(s)
        });
    }

    #[test]
    fn gemm_all_transpose_combinations_gradcheck() {
        // op(a) @ op(b) with m=3, k=4, n=2 — operand shapes depend on flags.
        for (lhs_t, rhs_t) in [(false, false), (false, true), (true, false), (true, true)] {
            let a_shape: &[usize] = if lhs_t { &[4, 3] } else { &[3, 4] };
            let b_shape: &[usize] = if rhs_t { &[2, 4] } else { &[4, 2] };
            let params = vec![randn(17, a_shape), randn(18, b_shape)];
            assert_gradients_match(&params, EPS, TOL, |tape, ps| {
                let a = tape.param(0, ps[0].clone());
                let b = tape.param(1, ps[1].clone());
                let c = tape.gemm(a, b, lhs_t, rhs_t);
                let s = tape.tanh(c);
                tape.mean_all(s)
            });
        }
    }

    #[test]
    fn fused_dense_gradcheck() {
        use mamdr_tensor::Act;
        let x = randn(19, &[5, 3]);
        for act in [Act::Linear, Act::Relu, Act::Sigmoid, Act::Tanh] {
            let params = vec![randn(20, &[3, 4]), randn(21, &[4])];
            assert_gradients_match(&params, EPS, TOL, |tape, ps| {
                let xin = tape.leaf(x.clone());
                let w = tape.param(0, ps[0].clone());
                let b = tape.param(1, ps[1].clone());
                let y = tape.dense(xin, w, Some(b), act);
                let sq = tape.square(y);
                tape.mean_all(sq)
            });
        }
        // Bias-less variant, and gradient flow into x through a param.
        let params = vec![randn(22, &[5, 3]), randn(23, &[3, 2])];
        assert_gradients_match(&params, EPS, TOL, |tape, ps| {
            let xin = tape.param(0, ps[0].clone());
            let w = tape.param(1, ps[1].clone());
            let y = tape.dense(xin, w, None, mamdr_tensor::Act::Relu);
            tape.mean_all(y)
        });
    }

    #[test]
    fn fused_dense_matches_unfused_chain_exactly() {
        use mamdr_tensor::Act;
        let x = randn(24, &[6, 3]);
        let w = randn(25, &[3, 4]);
        let b = randn(26, &[4]);

        let mut fused = Tape::new();
        let xf = fused.leaf(x.clone());
        let wf = fused.param(0, w.clone());
        let bf = fused.param(1, b.clone());
        let yf = fused.dense(xf, wf, Some(bf), Act::Sigmoid);
        let lf = fused.sum_all(yf);
        let gf = fused.backward(lf);

        let mut plain = Tape::new();
        let xp = plain.leaf(x);
        let wp = plain.param(0, w);
        let bp = plain.param(1, b);
        let zp = plain.gemm(xp, wp, false, false);
        let zp = plain.add_row(zp, bp);
        let yp = plain.sigmoid(zp);
        let lp = plain.sum_all(yp);
        let gp = plain.backward(lp);

        assert_eq!(fused.value(yf), plain.value(yp), "fused forward differs");
        assert_eq!(gf[0], gp[0], "fused dw differs");
        assert_eq!(gf[1], gp[1], "fused db differs");
    }
}
