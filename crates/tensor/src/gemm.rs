//! The deterministic GEMM behind [`Tensor::gemm`] and
//! [`Tensor::gemm_bias_act`]: one register-blocked tile routine for all four
//! transpose layouts.
//!
//! # One tile
//!
//! `tile` holds an `MR × NR` block of the output in registers for the whole
//! `k` loop and stores it once. The left operand is read through a
//! `(row stride, k stride)` pair (`Lhs`), so `a` and `aᵀ` are the same
//! code; the right operand is always `[k, n]` row-major, so its `NR` values
//! for one `kk` are one contiguous load. A transposed rhs is therefore
//! packed ([`Tensor::transpose`], O(k·n) moves against O(m·k·n)
//! multiply-adds) once per call, before the rows are split across workers.
//!
//! The routine is generic over its tile shape and compiled twice: a portable
//! 4×8 instantiation and, on x86-64, a 4×16 one under
//! `#[target_feature(enable = "avx2")]`, chosen per call by
//! `is_x86_feature_detected!`. Column remainders fall to narrower tiles
//! (8, 4, then 1 wide), row remainders to 1-row tiles.
//!
//! # Determinism contract
//!
//! Every output element is `((0 + a₀·b₀) + a₁·b₁) + …` with `kk` strictly
//! increasing, each term a **separately rounded** product and sum — never a
//! fused multiply-add, whose single rounding would make the result depend on
//! the instruction set. Tile shape, instantiation and row partition change
//! only *which* elements are computed together, never the order of
//! contributions to one element, and every output row is produced by exactly
//! one worker (see [`crate::pool`]). The result is therefore **bit-identical
//! at any thread count, on either instantiation, to the naive triple loop**.
//!
//! No term is skipped. Earlier kernels skipped `a == 0.0` in the NN and TN
//! layouts; on finite inputs that changes no bit (an accumulator that starts
//! at `+0.0` can never become `−0.0` under round-to-nearest, so adding a
//! `±0.0` product is the identity), and the dense tile is faster than the
//! skip even on mostly-zero ReLU/dropout activations. The one behavioural
//! difference: `0 × ∞` and `0 × NaN` in the lhs now yield NaN in every
//! layout, as they always did in NT.

use crate::pool;
use crate::tensor::Tensor;
use std::ops::Range;

/// Rows per register tile: 4 × 16 floats is eight 256-bit accumulators,
/// 4 × 8 eight 128-bit ones, leaving half the vector registers for operands.
const MR: usize = 4;

/// Minimum multiply-accumulate count per parallel chunk; a product with
/// fewer than two chunks' worth runs inline on the caller.
///
/// Derived from two measurements (2-vCPU Xeon @ 2.1 GHz, release build),
/// by the rule that one chunk is at least five times the dearest dispatch.
/// An empty `std::thread::scope` that spawns `chunks − 1` threads and runs
/// one chunk on the caller, after 200 µs idle, took a median 40 / 63 /
/// 135 µs at 2 / 4 / 8 chunks (p90 56 / 89 / 183) in a first measurement,
/// and 41 / 49–69 / 120–180 µs (p90 51–59 / 78–102 / 160–240) over five
/// later runs. The AVX2 tile sustains 30 G multiply-adds/s (128×80×64 in
/// 21.5 µs), the portable one 14 G. Five times the dearest median is
/// 0.7–0.9 ms, 20–27 M multiply-adds, above 2²⁴ (0.56 ms of AVX2 work), so
/// the grain is 2²⁵: ≈ 1.1 ms of AVX2 tile work (≈ 2.4 ms portable). The
/// persistent pool this replaced took 5.8 / 15 / 28 µs for the same round
/// trips, which is how the grain was 2²² before.
///
/// Crossover: at `k × n` = 80×64 the first shape to be split has
/// 2 × 6 553 = 13 106 rows (≈ 2.2 ms inline); there two threads measured
/// 1.2–1.9 ms against one thread's 1.9–2.3 ms, and 2.3–3.3 ms against
/// 4.0–4.6 ms at 26 212 rows — on a shared host the second vCPU's gain
/// comes and goes with the neighbours. Every training and serving shape
/// stays in one chunk at any thread count.
const MIN_CHUNK_FLOPS: usize = 1 << 25;

/// Fused activation applied by [`Tensor::gemm_bias_act`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Identity (no activation).
    Linear,
    /// `max(x, 0)`.
    Relu,
    /// Numerically stable logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Act {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Linear => x,
            Act::Relu => x.max(0.0),
            Act::Sigmoid => stable_sigmoid(x),
            Act::Tanh => x.tanh(),
        }
    }
}

/// Numerically stable logistic sigmoid.
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Minimum rows per parallel chunk for a GEMM with `k × n` work per row.
fn grain_rows(k: usize, n: usize) -> usize {
    (MIN_CHUNK_FLOPS / (k * n).max(1)).max(1)
}

/// The left operand as the tile reads it: element `(i, kk)` of `op(lhs)` is
/// `data[i * rs + kk * ks]`, which covers a row-major `[m, k]` matrix
/// (`rs = k, ks = 1`) and the transpose of a `[k, m]` one (`rs = 1, ks = m`).
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    rs: usize,
    ks: usize,
}

impl<'a> Lhs<'a> {
    /// `op(t)` with `m` rows and `k` columns.
    fn new(t: &'a Tensor, transposed: bool, m: usize, k: usize) -> Self {
        let (rs, ks) = if transposed { (1, m) } else { (k, 1) };
        Lhs { data: t.data(), rs, ks }
    }
}

/// The one accumulation loop: rows `i0..i0 + R`, columns `j0..j0 + W` of
/// `op(a) @ b` into `out`, whose first row is output row `i0` (row stride
/// `n`). `b` is `[k, n]` row-major.
///
/// Each of the `R × W` accumulators stays in a register across the whole
/// `k` loop and sums its products in `kk`-increasing order, multiply and add
/// rounded separately.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
    out: &mut [f32],
) {
    // The last element each operand is read at; every index in the loop is a
    // sum of non-negative terms that grow with `r`, `c` and `kk`. Checking
    // here instead of at every read is 20 % of the 128×80×64 product
    // (28.4 µs checked, 22.2 µs unchecked).
    assert!(k == 0 || (i0 + R - 1) * a.rs + (k - 1) * a.ks < a.data.len());
    assert!(k == 0 || (k - 1) * n + j0 + W <= b.len());
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let mut bv = [0.0f32; W];
        for (c, v) in bv.iter_mut().enumerate() {
            // SAFETY: `kk < k` and `c < W`, so the index is below the bound
            // asserted for `b` before the loop.
            *v = unsafe { *b.get_unchecked(kk * n + j0 + c) };
        }
        for (r, acc_row) in acc.iter_mut().enumerate() {
            // SAFETY: `r < R` and `kk < k`, so the index is at most the one
            // asserted for `a` before the loop.
            let av = unsafe { *a.data.get_unchecked((i0 + r) * a.rs + kk * a.ks) };
            for (s, &v) in acc_row.iter_mut().zip(&bv) {
                *s += av * v;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + W].copy_from_slice(acc_row);
    }
}

/// `R` output rows starting at `i0`: `NR`-wide tiles, then narrower ones for
/// the `n % NR` columns left over.
#[inline(always)]
fn row_strip<const R: usize, const NR: usize>(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + NR <= n {
        tile::<R, NR>(a, b, k, n, i0, j, out);
        j += NR;
    }
    if NR > 8 && j + 8 <= n {
        tile::<R, 8>(a, b, k, n, i0, j, out);
        j += 8;
    }
    if NR > 4 && j + 4 <= n {
        tile::<R, 4>(a, b, k, n, i0, j, out);
        j += 4;
    }
    while j < n {
        tile::<R, 1>(a, b, k, n, i0, j, out);
        j += 1;
    }
}

/// Output rows `rows` of `op(a) @ b` into `out`: `MR`-row strips, then
/// single rows for the `m % MR` left over.
#[inline(always)]
fn row_block<const NR: usize>(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let mut i = rows.start;
    while i + MR <= rows.end {
        row_strip::<MR, NR>(a, b, k, n, i, &mut out[(i - rows.start) * n..]);
        i += MR;
    }
    while i < rows.end {
        row_strip::<1, NR>(a, b, k, n, i, &mut out[(i - rows.start) * n..]);
        i += 1;
    }
}

/// [`row_block`] compiled for the baseline target with 4×8 tiles: the only
/// instantiation off x86-64, and the one the AVX2 build is tested against.
fn row_block_portable(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    row_block::<8>(a, b, k, n, rows, out);
}

/// [`row_block`] compiled for 256-bit vectors with 4×16 tiles. AVX2 without
/// the `fma` feature: the compiler cannot fuse the multiply and the add.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_block_avx2(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    row_block::<16>(a, b, k, n, rows, out);
}

/// `op(lhs) @ op(rhs)` into the `[m, n]` row-major `out`, with `finish`
/// applied to every completed row block (the fused bias + activation
/// epilogue).
fn gemm_rows(
    lhs: &Tensor,
    rhs: &Tensor,
    lhs_t: bool,
    rhs_t: bool,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
    finish: impl Fn(&mut [f32]) + Sync,
) {
    let a = Lhs::new(lhs, lhs_t, m, k);
    let packed;
    let b = if rhs_t {
        packed = rhs.transpose();
        packed.data()
    } else {
        rhs.data()
    };
    pool::for_each_row_block(out, n, grain_rows(k, n), |rows, block| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` on the line above.
            unsafe { row_block_avx2(a, b, k, n, rows, block) };
        } else {
            row_block_portable(a, b, k, n, rows, block);
        }
        #[cfg(not(target_arch = "x86_64"))]
        row_block_portable(a, b, k, n, rows, block);
        finish(block);
    });
}

impl Tensor {
    /// General matrix product `op(self) @ op(rhs)` where `op` transposes its
    /// operand when the corresponding flag is set.
    ///
    /// Shapes: with `self` as `[r1,c1]` and `rhs` as `[r2,c2]`, the result is
    /// `[m,n]` where `m/k` come from `self` (swapped under `lhs_t`) and
    /// `k/n` from `rhs` (swapped under `rhs_t`); the two `k`s must agree.
    ///
    /// A product of at least two chunks of 2²⁵ multiply-adds splits its
    /// output rows across scoped threads
    /// ([`crate::pool::for_each_row_block`]); anything smaller — every
    /// training and serving shape — runs inline on the caller and never
    /// enters a thread scope. See the module docs for the bit-identity
    /// guarantee.
    pub fn gemm(&self, rhs: &Tensor, lhs_t: bool, rhs_t: bool) -> Tensor {
        Tensor::fresh(|out| self.gemm_into(rhs, lhs_t, rhs_t, out))
    }

    /// [`Tensor::gemm`] into `out`, reusing its storage. A transposed rhs
    /// is still packed into a fresh tensor.
    pub fn gemm_into(&self, rhs: &Tensor, lhs_t: bool, rhs_t: bool, out: &mut Tensor) {
        let (r1, c1) = self.matrix_dims();
        let (r2, c2) = rhs.matrix_dims();
        let (m, k) = if lhs_t { (c1, r1) } else { (r1, c1) };
        let (k2, n) = if rhs_t { (c2, r2) } else { (r2, c2) };
        assert_eq!(
            k, k2,
            "gemm inner dims mismatch: op(lhs)={}x{} @ op(rhs)={}x{} (lhs_t={}, rhs_t={})",
            m, k, k2, n, lhs_t, rhs_t
        );
        out.reset(&[m, n]);
        gemm_rows(self, rhs, lhs_t, rhs_t, (m, k, n), out.data_mut(), |_| {});
    }

    /// Fused dense-layer forward: `act(self @ w + bias)` in one pass over the
    /// output.
    ///
    /// Bit-identical to the unfused `gemm` → `add_row_broadcast` →
    /// elementwise-activation chain: the product runs the same tile, and
    /// the bias add and activation are applied per element in the same order
    /// the separate passes would.
    pub fn gemm_bias_act(&self, w: &Tensor, bias: Option<&Tensor>, act: Act) -> Tensor {
        Tensor::fresh(|out| self.gemm_bias_act_into(w, bias, act, out))
    }

    /// [`Tensor::gemm_bias_act`] into `out`, reusing its storage.
    pub fn gemm_bias_act_into(
        &self,
        w: &Tensor,
        bias: Option<&Tensor>,
        act: Act,
        out: &mut Tensor,
    ) {
        let (m, k) = self.matrix_dims();
        let (k2, n) = w.matrix_dims();
        assert_eq!(k, k2, "gemm_bias_act inner dims mismatch: {}x{} @ {}x{}", m, k, k2, n);
        if let Some(b) = bias {
            assert_eq!(b.numel(), n, "gemm_bias_act bias width mismatch: {} vs {}", b.numel(), n);
        }
        let bias = bias.map(|b| b.data());
        out.reset(&[m, n]);
        gemm_rows(self, w, false, false, (m, k, n), out.data_mut(), |block| {
            for orow in block.chunks_exact_mut(n) {
                if let Some(bias) = bias {
                    for (o, &bv) in orow.iter_mut().zip(bias) {
                        *o += bv;
                    }
                }
                if act != Act::Linear {
                    for o in orow.iter_mut() {
                        *o = act.apply(*o);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    /// Every compiled instantiation, called directly, against the naive
    /// triple loop — so the portable tile is tested on AVX2 machines too.
    #[test]
    fn every_instantiation_matches_the_naive_loop_bit_for_bit() {
        let mut rng = seeded(21);
        // n = 31 takes every tile width (16 + 8 + 4 + 1 + 1 + 1), m = 9 both
        // strip heights.
        for (m, k, n) in [(128, 80, 64), (9, 16, 31), (4, 131, 17), (5, 3, 1), (1, 80, 64)] {
            for (lhs_t, rhs_t) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = Tensor::randn(&mut rng, if lhs_t { [k, m] } else { [m, k] }, 0.0, 1.0);
                let b = Tensor::randn(&mut rng, if rhs_t { [n, k] } else { [k, n] }, 0.0, 1.0);
                let mut expect = vec![0.0f32; m * n];
                for i in 0..m {
                    for kk in 0..k {
                        let av = if lhs_t { a.at(kk, i) } else { a.at(i, kk) };
                        for j in 0..n {
                            let bv = if rhs_t { b.at(j, kk) } else { b.at(kk, j) };
                            expect[i * n + j] += av * bv;
                        }
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let lhs = Lhs::new(&a, lhs_t, m, k);
                let packed = if rhs_t { b.transpose() } else { b.clone() };
                // NaN-filled: every element must be stored, not accumulated.
                let mut out = vec![f32::NAN; m * n];
                row_block_portable(lhs, packed.data(), k, n, 0..m, &mut out);
                assert_eq!(bits(&out), bits(&expect), "portable {m}x{k}x{n} {lhs_t} {rhs_t}");
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") {
                    out.fill(f32::NAN);
                    // SAFETY: `is_x86_feature_detected!("avx2")` on the line above.
                    unsafe { row_block_avx2(lhs, packed.data(), k, n, 0..m, &mut out) };
                    assert_eq!(bits(&out), bits(&expect), "avx2 {m}x{k}x{n} {lhs_t} {rhs_t}");
                }
            }
        }
    }

    #[test]
    fn training_shapes_stay_in_one_chunk_at_eight_threads() {
        for (m, k, n) in [(128, 16, 16), (128, 80, 64), (128, 64, 32), (128, 32, 1)] {
            assert_eq!(pool::chunk_count(m, grain_rows(k, n), 8), 1, "{m}x{k}x{n}");
        }
        // Past the grain the rows are split, whole: at 80×64 a chunk is
        // 2²⁵ / 5 120 = 6 553 rows, so splitting starts at 13 106.
        assert_eq!(pool::chunk_count(13_105, grain_rows(80, 64), 8), 1);
        assert_eq!(pool::chunk_count(13_106, grain_rows(80, 64), 8), 2);
        assert_eq!(pool::chunk_count(19_659, grain_rows(80, 64), 8), 3);
    }

    #[test]
    fn gemm_matches_explicit_transposes() {
        let mut rng = seeded(11);
        let a = Tensor::randn(&mut rng, [5, 7], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [7, 3], 0.0, 1.0);
        let reference = a.gemm(&b, false, false);
        assert_eq!(reference.shape(), &[5, 3]);
        assert!(a.gemm(&b.transpose(), false, true).max_abs_diff(&reference) < 1e-5);
        assert!(a.transpose().gemm(&b, true, false).max_abs_diff(&reference) < 1e-5);
        assert!(a.transpose().gemm(&b.transpose(), true, true).max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn gemm_bias_act_matches_unfused_chain() {
        let mut rng = seeded(12);
        let x = Tensor::randn(&mut rng, [9, 6], 0.0, 1.0);
        let w = Tensor::randn(&mut rng, [6, 4], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [4], 0.0, 1.0);
        for act in [Act::Linear, Act::Relu, Act::Sigmoid, Act::Tanh] {
            let fused = x.gemm_bias_act(&w, Some(&b), act);
            let xw = x.gemm(&w, false, false);
            let mut unfused = Tensor::fresh(|out| xw.add_row_broadcast_into(&b, out));
            unfused.map_inplace(|v| act.apply(v));
            assert_eq!(fused, unfused, "fusion changed results for {:?}", act);
        }
        let no_bias = x.gemm_bias_act(&w, None, Act::Relu);
        let mut unfused = x.gemm(&w, false, false);
        unfused.map_inplace(|v| Act::Relu.apply(v));
        assert_eq!(no_bias, unfused);
    }

    #[test]
    #[should_panic(expected = "gemm inner dims mismatch")]
    fn gemm_rejects_bad_inner_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        a.gemm(&b, false, false);
    }

    #[test]
    fn act_apply_values() {
        assert_eq!(Act::Linear.apply(-2.5), -2.5);
        assert_eq!(Act::Relu.apply(-2.5), 0.0);
        assert_eq!(Act::Relu.apply(1.5), 1.5);
        assert!((Act::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
        assert!((Act::Tanh.apply(1.0) - 1.0f32.tanh()).abs() < 1e-7);
        // Stable at extremes.
        assert_eq!(Act::Sigmoid.apply(500.0), 1.0);
        assert_eq!(Act::Sigmoid.apply(-500.0), 0.0);
    }
}
