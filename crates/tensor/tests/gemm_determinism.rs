//! The kernel layer's determinism contract, checked from outside the crate:
//! tiled/parallel [`Tensor::gemm`] must be **bit-identical** to a naive
//! reference implementation for every transpose variant, across the shapes
//! training and serving issue, every tile edge (rows and columns one short
//! of, equal to and one past the tile, `k` of 1 and 2), the smallest products
//! that split into two and three row blocks, and thread counts 1/2/8. The
//! reference below fixes the accumulation order the tile promises: strictly
//! k-increasing per output element, every term added, multiply and add
//! rounded separately.

use mamdr_tensor::pool;
use mamdr_tensor::rng::seeded;
use mamdr_tensor::{Act, Tensor};

/// Naive op(a) @ op(b) with the documented accumulation order. With
/// `skip_zero_lhs` it is the reference of the kernels this tile replaced,
/// which skipped zero lhs elements in the NN and TN layouts.
fn reference_gemm(a: &Tensor, b: &Tensor, lhs_t: bool, rhs_t: bool, skip_zero_lhs: bool) -> Tensor {
    let (ra, ca) = (a.shape()[0], a.shape()[1]);
    let (rb, cb) = (b.shape()[0], b.shape()[1]);
    let (m, k) = if lhs_t { (ca, ra) } else { (ra, ca) };
    let n = if rhs_t { rb } else { cb };
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = if lhs_t { ad[kk * ca + i] } else { ad[i * ca + kk] };
            if skip_zero_lhs && !rhs_t && av == 0.0 {
                continue;
            }
            for j in 0..n {
                let bv = if rhs_t { bd[j * cb + kk] } else { bd[kk * cb + j] };
                out[i * n + j] += av * bv;
            }
        }
    }
    Tensor::from_vec([m, n], out)
}

fn randn(seed: u64, shape: &[usize]) -> Tensor {
    Tensor::randn(&mut seeded(seed), shape, 0.0, 1.0)
}

/// Finite input salted with the values a zero-skip could get wrong: `+0.0`,
/// `-0.0`, the smallest subnormal and a negative subnormal, among normal
/// values of both signs.
fn randn_salted(seed: u64, shape: &[usize]) -> Tensor {
    let salt = [0.0f32, -0.0, f32::from_bits(1), -f32::MIN_POSITIVE / 4.0];
    let mut t = randn(seed, shape);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        let pick = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 7;
        if let Some(&s) = salt.get(pick as usize) {
            *v = s;
        }
    }
    t
}

/// The smallest product that splits into two row blocks (6 553 rows each at
/// 2 threads and up), and the smallest that splits into three plus one row,
/// so that at 8 threads the first block is a row longer than the others.
/// Every block after the first starts off a 4-row tile boundary.
const SPLIT_SHAPES: [(usize, usize, usize); 2] = [(13_106, 80, 64), (19_660, 80, 64)];

/// The shapes training issues at batch 128 (embedding projection, the three
/// MLP layers), the first layer at serving batch sizes, sizes well past one
/// tile, every combination of tile-edge extents, and [`SPLIT_SHAPES`].
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (128, 16, 16),
        (128, 80, 64),
        (128, 64, 32),
        (128, 32, 1),
        (1, 80, 64),
        (32, 80, 64),
        (1, 7, 5),
        (5, 7, 129),
        (13, 131, 4),
        (33, 17, 257),
        (64, 96, 130),
    ];
    for m in [1, 3, 4, 5] {
        for k in [1, 2, 131] {
            for n in [1, 7, 8, 9, 15, 16, 17, 33, 80] {
                shapes.push((m, k, n));
            }
        }
    }
    shapes.extend(SPLIT_SHAPES);
    shapes
}

const LAYOUTS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// Salted operands of one product `[m, k] @ [k, n]`: the lhs and rhs as the
/// NN layout stores them.
fn operands(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
    let a = randn_salted(m as u64 * 31 + k as u64, &[m, k]);
    let b = randn_salted(n as u64 * 17 + k as u64, &[k, n]);
    (a, b)
}

/// `t` as a layout stores it: transposed when its flag is set, so every
/// layout computes the same product.
fn stored(t: &Tensor, transposed: bool) -> Tensor {
    if transposed {
        t.transpose()
    } else {
        t.clone()
    }
}

#[test]
fn gemm_is_bit_identical_to_reference_across_threads_and_shapes() {
    let restore = pool::configured_threads();
    for (m, k, n) in shapes() {
        let (a, b) = operands(m, k, n);
        let expect = reference_gemm(&a, &b, false, false, false);
        for (lhs_t, rhs_t) in LAYOUTS {
            let (a, b) = (stored(&a, lhs_t), stored(&b, rhs_t));
            for threads in [1usize, 2, 8] {
                pool::set_threads(threads);
                let got = a.gemm(&b, lhs_t, rhs_t);
                assert_eq!(got.shape(), expect.shape());
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "gemm({m}x{k}x{n}, lhs_t={lhs_t}, rhs_t={rhs_t}) differs from the \
                     reference at {threads} threads"
                );
            }
        }
    }
    pool::set_threads(restore);
}

/// Bit patterns, so that `-0.0` and `+0.0` differ.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The soundness proof for dropping the old kernels' `a == 0.0` skip: on
/// finite inputs — signed zeros and subnormals included — the reference
/// with the skip and the reference without it produce the same bits. The
/// row split cannot touch a term, so [`SPLIT_SHAPES`] would only add time.
#[test]
fn skipping_zero_lhs_terms_never_changed_a_bit_on_finite_inputs() {
    let mut skipped_terms = 0usize;
    for (m, k, n) in shapes().into_iter().filter(|s| !SPLIT_SHAPES.contains(s)) {
        let (a, b) = operands(m, k, n);
        for (lhs_t, rhs_t) in LAYOUTS {
            let (a, b) = (stored(&a, lhs_t), stored(&b, rhs_t));
            skipped_terms += a.data().iter().filter(|&&v| v == 0.0).count();
            assert_eq!(
                bits(&reference_gemm(&a, &b, lhs_t, rhs_t, true)),
                bits(&reference_gemm(&a, &b, lhs_t, rhs_t, false)),
                "{m}x{k}x{n}, lhs_t={lhs_t}, rhs_t={rhs_t}"
            );
        }
    }
    assert!(skipped_terms > 1000, "the inputs must exercise the skip: {skipped_terms}");
}

/// The one behavioural change of the single tile: a zero lhs element no
/// longer hides a non-finite rhs one. `0 × ∞` is NaN in every layout, as it
/// always was in NT; the old NN and TN kernels returned the finite sum.
#[test]
fn zero_times_infinity_is_nan_in_every_layout() {
    let a = Tensor::from_vec([2, 2], vec![0.0, 1.0, 2.0, 3.0]);
    let b = Tensor::from_vec([2, 2], vec![f32::INFINITY, 1.0, 1.0, 1.0]);
    for (lhs_t, rhs_t) in LAYOUTS {
        let a = if lhs_t { a.transpose() } else { a.clone() };
        let b = if rhs_t { b.transpose() } else { b.clone() };
        let got = a.gemm(&b, lhs_t, rhs_t);
        // Row 0 is 0·∞ + 1·1 in column 0 and 0·1 + 1·1 in column 1.
        assert!(got.at(0, 0).is_nan(), "lhs_t={lhs_t}, rhs_t={rhs_t}: {:?}", got.data());
        assert_eq!(got.at(0, 1), 1.0);
        assert_eq!(got.at(1, 0), f32::INFINITY);
        assert_eq!(bits(&got), bits(&reference_gemm(&a, &b, lhs_t, rhs_t, false)));
        if !rhs_t {
            assert_eq!(reference_gemm(&a, &b, lhs_t, rhs_t, true).at(0, 0), 1.0, "the old rule");
        }
    }
}

#[test]
fn gemm_bias_act_is_bit_identical_across_threads() {
    let restore = pool::configured_threads();
    for (m, k, n) in [(37, 19, 33), SPLIT_SHAPES[0]] {
        let x = randn_salted(7, &[m, k]);
        let w = randn(8, &[k, n]);
        let bias = randn(9, &[n]);
        for act in [Act::Linear, Act::Relu, Act::Sigmoid, Act::Tanh] {
            pool::set_threads(1);
            let serial = x.gemm_bias_act(&w, Some(&bias), act);
            for threads in [2usize, 8] {
                pool::set_threads(threads);
                let parallel = x.gemm_bias_act(&w, Some(&bias), act);
                assert_eq!(
                    bits(&serial),
                    bits(&parallel),
                    "{m}x{k}x{n} {act:?} differs at {threads} threads"
                );
            }
        }
    }
    pool::set_threads(restore);
}

#[test]
fn repeated_dispatch_stays_deterministic() {
    // A long sequence of parallel dispatches (the training loop's shape)
    // must produce the same bytes as the serial product.
    let restore = pool::configured_threads();
    for ((m, k, n), reps) in [((65, 43, 29), 50), (SPLIT_SHAPES[0], 3)] {
        let a = randn(11, &[m, k]);
        let b = randn(12, &[k, n]);
        pool::set_threads(1);
        let serial = a.gemm(&b, false, false);
        pool::set_threads(8);
        for _ in 0..reps {
            assert_eq!(bits(&a.gemm(&b, false, false)), bits(&serial), "{m}x{k}x{n}");
        }
    }
    pool::set_threads(restore);
}
