//! Property-based gradient checking: random parameter values through
//! representative graph shapes must always match finite differences.

use mamdr_autodiff::gradcheck::assert_gradients_match;
use mamdr_tensor::Tensor;
use proptest::prelude::*;

const EPS: f32 = 1e-2;
const TOL: f32 = 3e-2;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |data| Tensor::from_vec([rows, cols], data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_relu_chain(w in tensor(3, 2), b in tensor(1, 2), x in tensor(4, 3)) {
        let b = b.reshape([2]);
        assert_gradients_match(&[w, b], EPS, TOL, |tape, ps| {
            let xin = tape.leaf(x.clone());
            let w = tape.param(0, ps[0].clone());
            let b = tape.param(1, ps[1].clone());
            let h = tape.gemm(xin, w, false, false);
            let h = tape.add_row(h, b);
            let h = tape.relu(h);
            let s = tape.square(h);
            tape.mean_all(s)
        });
    }

    #[test]
    fn mul_sub_sigmoid_chain(a in tensor(3, 3), b in tensor(3, 3)) {
        assert_gradients_match(&[a, b], EPS, TOL, |tape, ps| {
            let a = tape.param(0, ps[0].clone());
            let b = tape.param(1, ps[1].clone());
            let m = tape.mul(a, b);
            let d = tape.sub(m, a);
            let s = tape.sigmoid(d);
            tape.sum_all(s)
        });
    }

    #[test]
    fn softmax_mixture(scores in tensor(3, 4), values in tensor(3, 4)) {
        assert_gradients_match(&[scores, values], EPS, TOL, |tape, ps| {
            let s = tape.param(0, ps[0].clone());
            let v = tape.param(1, ps[1].clone());
            let attn = tape.softmax_rows(s);
            let mixed = tape.mul(attn, v);
            let pooled = tape.sum_cols_keep(mixed);
            let sq = tape.square(pooled);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn bce_loss(logits in tensor(1, 6), label_bits in 0u8..64) {
        let logits = logits.reshape([6]);
        let labels = Tensor::from_vec(
            [6],
            (0..6).map(|i| f32::from((label_bits >> i) & 1)).collect::<Vec<f32>>(),
        );
        assert_gradients_match(&[logits], EPS, TOL, |tape, ps| {
            let z = tape.param(0, ps[0].clone());
            tape.bce_with_logits_mean(z, labels.clone())
        });
    }

    #[test]
    fn structural_mix(a in tensor(2, 3), b in tensor(2, 2)) {
        assert_gradients_match(&[a, b], EPS, TOL, |tape, ps| {
            let a = tape.param(0, ps[0].clone());
            let b = tape.param(1, ps[1].clone());
            let cat = tape.concat_cols(&[a, b]);
            let sl = tape.slice_cols(cat, 1, 3);
            let t = tape.tanh(sl);
            let tr = tape.transpose(t);
            let sm = tape.scalar_mul(tr, 1.5);
            let sa = tape.add_scalar(sm, -0.25);
            tape.sum_all(sa)
        });
    }

    #[test]
    fn gather_square_sum(table in tensor(5, 2), raw_ids in proptest::collection::vec(0u32..5, 1..8)) {
        assert_gradients_match(&[table], EPS, TOL, |tape, ps| {
            let e = tape.gather_param(0, &ps[0], &raw_ids);
            let sq = tape.square(e);
            tape.sum_all(sq)
        });
    }
}
