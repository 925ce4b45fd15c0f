//! The dense tensor type and its constructors / elementwise arithmetic.

use crate::rng::normal;
use crate::shape::Shape;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// This is the only value type flowing through the autodiff tape, the models
/// and the learning frameworks. It is deliberately simple: owned storage,
/// contiguous layout, no views. Cheap cloning is acceptable at the scale of
/// the MDR benchmark datasets; the PS-Worker crate handles the large-sparse
/// regime separately.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Builds a tensor from a shape and backing data (length must match).
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {:?} does not match data length {}",
            shape,
            data.len()
        );
        Tensor { shape, data }
    }

    /// An all-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// An all-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Gaussian-initialized tensor with the given mean and standard deviation.
    pub fn randn(rng: &mut impl Rng, shape: impl Into<Shape>, mean: f32, std: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| mean + std * normal(rng)).collect();
        Tensor { shape, data }
    }

    /// Uniform-initialized tensor on `[lo, hi)`.
    pub fn rand_uniform(rng: &mut impl Rng, shape: impl Into<Shape>, lo: f32, hi: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape as a dims slice.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The tensor's shape object.
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Read-only view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single element of a scalar or one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a one-element tensor");
        self.data[0]
    }

    /// Matrix dimensions `(rows, cols)`; panics unless rank ≤ 2.
    pub fn matrix_dims(&self) -> (usize, usize) {
        self.shape.as_matrix()
    }

    /// Element at `(row, col)` of a matrix.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        let (_, c) = self.matrix_dims();
        self.data[row * c + col]
    }

    /// Mutable element at `(row, col)` of a matrix.
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        let (_, c) = self.matrix_dims();
        &mut self.data[row * c + col]
    }

    /// Reshapes in place (element count must be preserved).
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.numel(), "reshape must preserve element count");
        self.shape = shape;
        self
    }

    /// Like [`Tensor::reshape`], through a borrow: the shape's storage is
    /// reused.
    pub fn set_shape(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.numel(),
            "reshape must preserve element count"
        );
        self.shape.set(shape);
    }

    /// Makes this tensor an all-zeros `shape`, reusing its storage.
    ///
    /// This is how every `*_into` kernel sizes its output. On storage that
    /// is already large enough nothing is allocated; on an empty tensor
    /// the shape and the data are allocated at exactly their lengths, as
    /// [`Tensor::zeros`] does, so an allocating kernel written as
    /// "[`Tensor::empty`], then `*_into`" allocates what it always did.
    pub fn reset(&mut self, shape: &[usize]) {
        self.shape.set(shape);
        let n = self.shape.numel();
        self.data.clear();
        self.data.reserve_exact(n);
        self.data.resize(n, 0.0);
    }

    /// Makes this tensor a copy of `src`, reusing its storage (allocating
    /// exactly `src`'s lengths where it has too little).
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.set(src.shape());
        self.data.clear();
        self.data.reserve_exact(src.data.len());
        self.data.extend_from_slice(&src.data);
    }

    /// A tensor with no storage: not a value yet, only the output of an
    /// `*_into` kernel (which sizes it with [`Tensor::reset`]). Allocates
    /// nothing.
    pub fn empty() -> Self {
        Tensor { shape: Shape::scalar(), data: Vec::new() }
    }

    /// The output of an `*_into` kernel, as a new tensor.
    pub(crate) fn fresh(kernel: impl FnOnce(&mut Tensor)) -> Tensor {
        let mut out = Tensor::empty();
        kernel(&mut out);
        out
    }

    /// Returns a copy of row `r` of a matrix.
    pub fn row(&self, r: usize) -> &[f32] {
        let (rows, cols) = self.matrix_dims();
        assert!(r < rows, "row {} out of bounds for {} rows", r, rows);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Applies `f` elementwise into `out`, reusing its storage.
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Tensor) {
        out.reset(self.shape());
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination `f(self, other)` of two same-shape tensors,
    /// into `out`, reusing its storage.
    pub fn zip_into(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32, out: &mut Tensor) {
        assert!(
            self.shape.same(&other.shape),
            "zip shape mismatch: {:?} vs {:?}",
            self.shape,
            other.shape
        );
        out.reset(self.shape());
        for (o, (&a, &b)) in out.data.iter_mut().zip(self.data.iter().zip(&other.data)) {
            *o = f(a, b);
        }
    }

    /// Elementwise add.
    pub fn add(&self, other: &Tensor) -> Tensor {
        Tensor::fresh(|out| self.add_into(other, out))
    }

    /// [`Tensor::add`] into `out`, reusing its storage.
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_into(other, |a, b| a + b, out)
    }

    /// Elementwise subtract into `out`, reusing its storage.
    pub fn sub_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_into(other, |a, b| a - b, out)
    }

    /// Elementwise (Hadamard) product into `out`, reusing its storage.
    pub fn mul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_into(other, |a, b| a * b, out)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor::fresh(|out| self.scale_into(s, out))
    }

    /// [`Tensor::scale`] into `out`, reusing its storage.
    pub fn scale_into(&self, s: f32, out: &mut Tensor) {
        self.map_into(|x| x * s, out)
    }

    /// `self += alpha * other` (BLAS axpy), in place.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert!(
            self.shape.same(&other.shape),
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape,
            other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Inner product of two same-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same(&other.shape),
            "dot shape mismatch: {:?} vs {:?}",
            self.shape,
            other.shape
        );
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another same-shape tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(self.shape.same(&other.shape));
        self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

/// [`Tensor::empty`]: a buffer for an `*_into` kernel.
impl Default for Tensor {
    fn default() -> Self {
        Tensor::empty()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({:?}, ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, ..., {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn mismatched_construction_panics() {
        Tensor::from_vec([2, 2], vec![1.0; 5]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 2], vec![4., 3., 2., 1.]);
        assert_eq!(a.add(&b).data(), &[5., 5., 5., 5.]);
        assert_eq!(Tensor::fresh(|o| a.sub_into(&b, o)).data(), &[-3., -1., 1., 3.]);
        assert_eq!(Tensor::fresh(|o| a.mul_into(&b, o)).data(), &[4., 6., 6., 4.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
        assert_eq!(a.dot(&b), 4. + 6. + 6. + 4.);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::zeros([3]);
        let b = Tensor::from_vec([3], vec![1., 2., 3.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1., 2., 3., 4.]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn randn_statistics_are_reasonable() {
        let mut rng = seeded(42);
        let t = Tensor::randn(&mut rng, [10_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {} too far from 1", mean);
        assert!((var - 4.0).abs() < 0.3, "var {} too far from 4", var);
    }

    #[test]
    fn rand_uniform_within_bounds() {
        let mut rng = seeded(3);
        let t = Tensor::rand_uniform(&mut rng, [1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape([3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn determinism_with_same_seed() {
        let a = Tensor::randn(&mut seeded(9), [32], 0.0, 1.0);
        let b = Tensor::randn(&mut seeded(9), [32], 0.0, 1.0);
        assert_eq!(a, b);
    }
}
