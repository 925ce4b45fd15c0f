//! Shape bookkeeping for row-major dense tensors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a tensor: a small vector of dimension extents.
///
/// Rank 0 (scalar) through rank 3 cover every shape used in this workspace;
/// higher ranks are supported by the generic code paths but untested beyond
/// rank 4.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Builds a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Overwrites the extents with `dims`, reusing the storage; an empty
    /// shape allocates exactly `dims.len()` extents, as `Shape::new` does.
    pub(crate) fn set(&mut self, dims: &[usize]) {
        self.0.clear();
        self.0.reserve_exact(dims.len());
        self.0.extend_from_slice(dims);
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `i`. Panics if out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Interprets this shape as a matrix `[rows, cols]`.
    ///
    /// Rank-1 shapes are viewed as a single row; panics for other ranks.
    pub fn as_matrix(&self) -> (usize, usize) {
        match self.0.as_slice() {
            [r, c] => (*r, *c),
            [c] => (1, *c),
            other => panic!("shape {:?} is not a matrix", other),
        }
    }

    /// True if both shapes are identical.
    pub fn same(&self, other: &Shape) -> bool {
        self.0 == other.0
    }

    /// Computes the shape resulting from broadcasting `self` with `other`
    /// under NumPy alignment rules (right-aligned; extents must match or one
    /// of them must be 1).
    ///
    /// Returns `None` when the shapes are incompatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for i in 0..rank {
            let a = *self.0.get(self.rank().wrapping_sub(1).wrapping_sub(i)).unwrap_or(&1);
            let b = *other.0.get(other.rank().wrapping_sub(1).wrapping_sub(i)).unwrap_or(&1);
            let d = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
            dims[rank - 1 - i] = d;
        }
        Some(Shape(dims))
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn matrix_view() {
        assert_eq!(Shape::new(&[2, 3]).as_matrix(), (2, 3));
        assert_eq!(Shape::new(&[7]).as_matrix(), (1, 7));
    }

    #[test]
    #[should_panic(expected = "not a matrix")]
    fn matrix_view_rejects_rank3() {
        Shape::new(&[2, 3, 4]).as_matrix();
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::new(&[3]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[4, 3]);
        let c = Shape::new(&[4, 1]);
        assert_eq!(a.broadcast(&c).unwrap().dims(), &[4, 3]);
        let bad = Shape::new(&[5, 3]);
        assert!(a.broadcast(&bad).is_none());
        // scalar broadcasts with anything
        assert_eq!(a.broadcast(&Shape::scalar()).unwrap().dims(), &[4, 3]);
    }
}
