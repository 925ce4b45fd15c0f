//! Linear-algebra and structural operations on [`Tensor`].
//!
//! These are the forward kernels the autodiff tape wraps. Matrix products
//! live in the [`crate::gemm`] module behind the unified [`Tensor::gemm`]
//! entry point.

use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix transpose of a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        Tensor::fresh(|out| self.transpose_into(out))
    }

    /// [`Tensor::transpose`] into `out`, reusing its storage.
    pub fn transpose_into(&self, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        let a = self.data();
        out.reset(&[n, m]);
        let out = out.data_mut();
        // Four source rows per pass, so every output row receives four
        // adjacent values: a third of the time of one element at a time at
        // the sizes `gemm` packs (64×80: 1.3 µs against 3.5 µs).
        let mut i = 0;
        while i + 4 <= m {
            let (r0, r1) = (&a[i * n..(i + 1) * n], &a[(i + 1) * n..(i + 2) * n]);
            let (r2, r3) = (&a[(i + 2) * n..(i + 3) * n], &a[(i + 3) * n..(i + 4) * n]);
            for j in 0..n {
                out[j * m + i..j * m + i + 4].copy_from_slice(&[r0[j], r1[j], r2[j], r3[j]]);
            }
            i += 4;
        }
        for i in i..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
    }

    /// Adds a `[n]` (or `[1,n]`) row vector to every row of a `[m,n]`
    /// matrix, into `out`, reusing its storage.
    pub fn add_row_broadcast_into(&self, row: &Tensor, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        let rn = row.numel();
        assert_eq!(n, rn, "row broadcast width mismatch: {} vs {}", n, rn);
        out.reset(&[m, n]);
        let (a, r) = (self.data(), row.data());
        let out = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = a[i * n + j] + r[j];
            }
        }
    }

    /// Multiplies every row of a `[m,n]` matrix elementwise by a `[n]`
    /// vector, into `out`, reusing its storage.
    pub fn mul_row_broadcast_into(&self, row: &Tensor, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        assert_eq!(n, row.numel(), "row broadcast width mismatch");
        out.reset(&[m, n]);
        let (a, r) = (self.data(), row.data());
        let out = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = a[i * n + j] * r[j];
            }
        }
    }

    /// Multiplies row `i` of a `[m,n]` matrix by scalar `col[i]` (a `[m]` or
    /// `[m,1]` tensor), into `out`, reusing its storage.
    pub fn mul_col_broadcast_into(&self, col: &Tensor, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        assert_eq!(m, col.numel(), "col broadcast height mismatch");
        out.reset(&[m, n]);
        let (a, c) = (self.data(), col.data());
        let out = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = a[i * n + j] * c[i];
            }
        }
    }

    /// Sums a `[m,n]` matrix over rows, producing `[n]` in `out`, reusing
    /// its storage.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        let a = self.data();
        out.reset(&[n]);
        let out = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                out[j] += a[i * n + j];
            }
        }
    }

    /// Sums a `[m,n]` matrix over columns, producing `[m]` in `out`, reusing
    /// its storage.
    pub fn sum_cols_into(&self, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        let a = self.data();
        out.reset(&[m]);
        let out = out.data_mut();
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[i * n + j];
            }
            out[i] = acc;
        }
    }

    /// Row-wise softmax of a `[m,n]` matrix (numerically stabilized).
    pub fn softmax_rows(&self) -> Tensor {
        Tensor::fresh(|out| self.softmax_rows_into(out))
    }

    /// [`Tensor::softmax_rows`] into `out`, reusing its storage.
    pub fn softmax_rows_into(&self, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        let a = self.data();
        out.reset(&[m, n]);
        let out = out.data_mut();
        for i in 0..m {
            let row = &a[i * n..(i + 1) * n];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for j in 0..n {
                let e = (row[j] - max).exp();
                out[i * n + j] = e;
                sum += e;
            }
            for j in 0..n {
                out[i * n + j] /= sum;
            }
        }
    }

    /// Concatenates matrices along the column axis, `[m,a] ++ [m,b] ->
    /// [m,a+b]`, into `out`, reusing its storage. `parts` is
    /// walked twice: once for the widths, once to copy.
    pub fn concat_cols_into<'t>(parts: impl Iterator<Item = &'t Tensor> + Clone, out: &mut Tensor) {
        let m = parts.clone().next().expect("concat_cols of nothing").matrix_dims().0;
        let total: usize = parts.clone().map(|p| p.matrix_dims().1).sum();
        out.reset(&[m, total]);
        let out = out.data_mut();
        let mut col_off = 0usize;
        for p in parts {
            let (pm, pn) = p.matrix_dims();
            assert_eq!(pm, m, "concat_cols row count mismatch");
            let pd = p.data();
            for i in 0..m {
                out[i * total + col_off..i * total + col_off + pn]
                    .copy_from_slice(&pd[i * pn..(i + 1) * pn]);
            }
            col_off += pn;
        }
    }

    /// Extracts columns `[start, start+len)` of a `[m,n]` matrix into `out`,
    /// reusing its storage.
    pub fn slice_cols_into(&self, start: usize, len: usize, out: &mut Tensor) {
        let (m, n) = self.matrix_dims();
        assert!(start + len <= n, "slice_cols out of bounds");
        let a = self.data();
        out.reset(&[m, len]);
        let out = out.data_mut();
        for i in 0..m {
            out[i * len..(i + 1) * len].copy_from_slice(&a[i * n + start..i * n + start + len]);
        }
    }

    /// Gathers rows of an embedding table: `table[[ids]] -> [ids.len, dim]`.
    pub fn gather_rows(&self, ids: &[u32]) -> Tensor {
        Tensor::fresh(|out| self.gather_rows_into(ids, out))
    }

    /// [`Tensor::gather_rows`] into `out`, reusing its storage.
    pub fn gather_rows_into(&self, ids: &[u32], out: &mut Tensor) {
        let (rows, dim) = self.matrix_dims();
        let a = self.data();
        out.reset(&[ids.len(), dim]);
        let out = out.data_mut();
        for (i, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < rows, "gather id {} out of bounds ({} rows)", id, rows);
            out[i * dim..(i + 1) * dim].copy_from_slice(&a[id * dim..(id + 1) * dim]);
        }
    }

    /// Scatter-adds rows into `self`: for each i, `self[ids[i]] += src[i]`.
    ///
    /// This is the adjoint of [`Tensor::gather_rows`]; duplicate ids
    /// accumulate. Into a zeroed table, in reverse node order, it is the
    /// reference rule the tape's row-sparse gather gradients reproduce bit
    /// for bit.
    pub fn scatter_add_rows(&mut self, ids: &[u32], src: &Tensor) {
        let (rows, dim) = self.matrix_dims();
        let (srows, sdim) = src.matrix_dims();
        assert_eq!(sdim, dim, "scatter dim mismatch");
        assert_eq!(srows, ids.len(), "scatter id count mismatch");
        let s = src.data();
        let a = self.data_mut();
        for (i, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < rows, "scatter id {} out of bounds", id);
            for j in 0..dim {
                a[id * dim + j] += s[i * dim + j];
            }
        }
    }

    /// Broadcasting elementwise binary op under NumPy alignment rules.
    ///
    /// The general fallback used by the autodiff tape when neither operand
    /// dominates; specialized fast paths above should be preferred in hot
    /// code.
    pub fn broadcast_zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let out_shape = self.shape_obj().broadcast(other.shape_obj()).unwrap_or_else(|| {
            panic!("cannot broadcast {:?} with {:?}", self.shape_obj(), other.shape_obj())
        });
        let rank = out_shape.rank();
        let numel = out_shape.numel();
        let strides = out_shape.strides();
        let a_dims = pad_dims(self.shape_obj(), rank);
        let b_dims = pad_dims(other.shape_obj(), rank);
        let a_strides = padded_strides(&a_dims);
        let b_strides = padded_strides(&b_dims);
        let mut out = vec![0.0f32; numel];
        let a = self.data();
        let b = other.data();
        for (lin, o) in out.iter_mut().enumerate() {
            let mut ai = 0usize;
            let mut bi = 0usize;
            let mut rem = lin;
            for d in 0..rank {
                let idx = rem.checked_div(strides[d]).unwrap_or(0);
                rem %= strides[d].max(1);
                if a_dims[d] != 1 {
                    ai += idx * a_strides[d];
                }
                if b_dims[d] != 1 {
                    bi += idx * b_strides[d];
                }
            }
            *o = f(a[ai], b[bi]);
        }
        Tensor::from_vec(out_shape, out)
    }
}

fn pad_dims(shape: &Shape, rank: usize) -> Vec<usize> {
    let mut dims = vec![1usize; rank];
    let off = rank - shape.rank();
    dims[off..].copy_from_slice(shape.dims());
    dims
}

fn padded_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.gemm(&b, false, false);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = seeded(1);
        let a = Tensor::randn(&mut rng, [5, 5], 0.0, 1.0);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            *eye.at_mut(i, i) = 1.0;
        }
        assert!(a.gemm(&eye, false, false).max_abs_diff(&a) < 1e-6);
        assert!(eye.gemm(&a, false, false).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_variants_agree() {
        let mut rng = seeded(2);
        let a = Tensor::randn(&mut rng, [4, 6], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [6, 3], 0.0, 1.0);
        let ref_out = a.gemm(&b, false, false);
        assert!(a.gemm(&b.transpose(), false, true).max_abs_diff(&ref_out) < 1e-5);
        assert!(a.transpose().gemm(&b, true, false).max_abs_diff(&ref_out) < 1e-5);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = seeded(3);
        let a = Tensor::randn(&mut rng, [3, 7], 0.0, 1.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcasting_rows_and_cols() {
        let m = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let row = Tensor::from_vec([3], vec![10., 20., 30.]);
        let added = Tensor::fresh(|o| m.add_row_broadcast_into(&row, o));
        assert_eq!(added.data(), &[11., 22., 33., 14., 25., 36.]);
        let scaled = Tensor::fresh(|o| m.mul_row_broadcast_into(&row, o));
        assert_eq!(scaled.data(), &[10., 40., 90., 40., 100., 180.]);
        let col = Tensor::from_vec([2], vec![2., 3.]);
        let scaled = Tensor::fresh(|o| m.mul_col_broadcast_into(&col, o));
        assert_eq!(scaled.data(), &[2., 4., 6., 12., 15., 18.]);
    }

    #[test]
    fn row_col_sums() {
        let m = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(Tensor::fresh(|o| m.sum_rows_into(o)).data(), &[5., 7., 9.]);
        assert_eq!(Tensor::fresh(|o| m.sum_cols_into(o)).data(), &[6., 15.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Tensor::from_vec([2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = m.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // large inputs do not overflow thanks to max subtraction
        assert!(s.is_finite());
        assert!((s.at(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 1], vec![9., 8.]);
        let c = Tensor::fresh(|o| Tensor::concat_cols_into([&a, &b].into_iter(), o));
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1., 2., 9., 3., 4., 8.]);
        assert_eq!(Tensor::fresh(|o| c.slice_cols_into(0, 2, o)), a);
        assert_eq!(Tensor::fresh(|o| c.slice_cols_into(2, 1, o)), b);
    }

    #[test]
    fn gather_scatter_adjoint() {
        let table = Tensor::from_vec([4, 2], vec![0., 1., 2., 3., 4., 5., 6., 7.]);
        let ids = [3u32, 0, 3];
        let g = table.gather_rows(&ids);
        assert_eq!(g.data(), &[6., 7., 0., 1., 6., 7.]);
        let mut grad = Tensor::zeros([4, 2]);
        grad.scatter_add_rows(&ids, &Tensor::ones([3, 2]));
        // duplicate id 3 accumulates twice
        assert_eq!(grad.data(), &[1., 1., 0., 0., 0., 0., 2., 2.]);
    }

    #[test]
    fn broadcast_zip_matches_specialized() {
        let mut rng = seeded(4);
        let m = Tensor::randn(&mut rng, [3, 4], 0.0, 1.0);
        let row = Tensor::randn(&mut rng, [4], 0.0, 1.0);
        let via_generic = m.broadcast_zip(&row, |a, b| a + b);
        let added = Tensor::fresh(|o| m.add_row_broadcast_into(&row, o));
        assert!(via_generic.max_abs_diff(&added) < 1e-6);
        let scalar = Tensor::scalar(2.5);
        let scaled = m.broadcast_zip(&scalar, |a, b| a * b);
        assert!(scaled.max_abs_diff(&m.scale(2.5)) < 1e-6);
    }
}
