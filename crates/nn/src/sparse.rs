//! Flat gradients that store only the coordinates a step touched.

/// A gradient over a flat parameter vector that is zero outside a set of
/// disjoint spans.
///
/// [`ParamStore::grads_write_sparse`](crate::ParamStore::grads_write_sparse)
/// fills one from a tape's gradient: each parameter read whole becomes one
/// span, each touched row of a gathered table another. Spans iterate in
/// ascending flat order, so a reduction over them meets the touched
/// coordinates in the order a pass over the dense vector would; the
/// coordinates it skips are exact `+0.0`s.
#[derive(Debug, Clone, Default)]
pub struct SparseGrad {
    len: usize,
    /// `(flat start, offset into values, length)`, sorted by flat start.
    spans: Vec<(usize, usize, usize)>,
    values: Vec<f32>,
}

impl SparseGrad {
    /// An all-zero gradient over a flat vector of length `len`.
    pub fn new(len: usize) -> Self {
        SparseGrad { len, ..Default::default() }
    }

    /// Length of the flat vector this gradient belongs to.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a gradient over an empty flat vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(flat start, values)` of every span, in ascending flat order.
    pub fn spans(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.spans.iter().map(|&(start, at, n)| (start, &self.values[at..at + n]))
    }

    /// Writes the dense gradient into `out` (length [`len`](Self::len)).
    pub fn write_dense(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "flat vector length mismatch");
        out.fill(0.0);
        for (start, values) in self.spans() {
            out[start..start + values.len()].copy_from_slice(values);
        }
    }

    /// The dense gradient as a fresh vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.write_dense(&mut out);
        out
    }

    /// Empties the gradient for a flat vector of length `len`, keeping its
    /// buffers.
    pub(crate) fn clear(&mut self, len: usize) {
        self.len = len;
        self.spans.clear();
        self.values.clear();
    }

    /// Appends the span `[start, start + values.len())`; call
    /// [`finish`](Self::finish) after the last one.
    pub(crate) fn push(&mut self, start: usize, values: &[f32]) {
        assert!(start + values.len() <= self.len, "span past the flat vector");
        self.spans.push((start, self.values.len(), values.len()));
        self.values.extend_from_slice(values);
    }

    /// Puts the spans in ascending flat order.
    pub(crate) fn finish(&mut self) {
        self.spans.sort_unstable_by_key(|&(start, _, _)| start);
        debug_assert!(
            self.spans.windows(2).all(|w| w[0].0 + w[0].2 <= w[1].0),
            "overlapping gradient spans"
        );
    }
}
