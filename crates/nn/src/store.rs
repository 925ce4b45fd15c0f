//! Named parameter storage with flat-vector views.

use crate::sparse::SparseGrad;
use mamdr_autodiff::Grads;
use mamdr_tensor::init::Init;
use mamdr_tensor::{pool, Tensor};
use rand::Rng;
use std::collections::HashMap;

/// Minimum scalars per worker chunk when copying between tensor and flat
/// storage; copies below this stay serial (dispatch would beat memcpy).
const FLAT_COPY_GRAIN: usize = 1 << 16;

/// Metadata for one parameter tensor.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Human-readable name (unique within a store), e.g. `"layer0/w"`.
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Initialization scheme used by [`ParamStoreBuilder::build`].
    pub init: Init,
}

/// Builder collecting parameter registrations before materialization.
///
/// Layers register their parameters here during model construction; the
/// returned indices are stable and used at forward time to fetch tensors.
#[derive(Default)]
pub struct ParamStoreBuilder {
    specs: Vec<ParamSpec>,
}

impl ParamStoreBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its index.
    ///
    /// Panics if `name` is already registered — duplicate names almost
    /// always indicate a miswired model.
    pub fn register(&mut self, name: impl Into<String>, shape: &[usize], init: Init) -> usize {
        let name = name.into();
        assert!(!self.specs.iter().any(|s| s.name == name), "duplicate parameter name {:?}", name);
        self.specs.push(ParamSpec { name, shape: shape.to_vec(), init });
        self.specs.len() - 1
    }

    /// Materializes every registered parameter using the supplied RNG.
    pub fn build(self, rng: &mut impl Rng) -> ParamStore {
        let tensors: Vec<Tensor> = self.specs.iter().map(|s| s.init.build(rng, &s.shape)).collect();
        ParamStore::from_parts(self.specs, tensors)
    }
}

/// A model's complete parameter set: named tensors plus a flat view.
///
/// The flat view concatenates every tensor's storage in registration order,
/// which is what the model-agnostic learning frameworks operate on.
#[derive(Clone)]
pub struct ParamStore {
    specs: Vec<ParamSpec>,
    tensors: Vec<Tensor>,
    offsets: Vec<usize>,
    total: usize,
    by_name: HashMap<String, usize>,
}

impl ParamStore {
    fn from_parts(specs: Vec<ParamSpec>, tensors: Vec<Tensor>) -> Self {
        let mut offsets = Vec::with_capacity(specs.len());
        let mut total = 0usize;
        for t in &tensors {
            offsets.push(total);
            total += t.numel();
        }
        let by_name = specs.iter().enumerate().map(|(i, s)| (s.name.clone(), i)).collect();
        ParamStore { specs, tensors, offsets, total, by_name }
    }

    /// Number of parameter tensors.
    pub fn n_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Total number of scalar parameters.
    pub fn n_scalars(&self) -> usize {
        self.total
    }

    /// The tensor at `idx`.
    pub fn get(&self, idx: usize) -> &Tensor {
        &self.tensors[idx]
    }

    /// Mutable access to the tensor at `idx`.
    pub fn get_mut(&mut self, idx: usize) -> &mut Tensor {
        &mut self.tensors[idx]
    }

    /// The spec of the tensor at `idx`.
    pub fn spec(&self, idx: usize) -> &ParamSpec {
        &self.specs[idx]
    }

    /// Looks a parameter up by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Flat offset of tensor `idx` within the flat vector.
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// The length of the flat view ([`ParamStore::to_flat`] /
    /// [`ParamStore::write_flat`]); an alias of [`ParamStore::n_scalars`]
    /// named for the buffer-reuse API.
    pub fn flat_len(&self) -> usize {
        self.total
    }

    /// Copies every tensor into one contiguous vector (registration order).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut flat = vec![0.0f32; self.total];
        self.write_flat(&mut flat);
        flat
    }

    /// Writes every tensor into a caller-owned flat buffer (registration
    /// order), letting hot loops reuse one allocation across steps.
    ///
    /// Large stores split the copy across the kernel worker pool; each flat
    /// element is written by exactly one worker, so the result never depends
    /// on the thread count.
    pub fn write_flat(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.total, "flat vector length mismatch");
        pool::for_each_row_block(out, 1, FLAT_COPY_GRAIN, |range, block| {
            let mut ti = self.offsets.partition_point(|&o| o <= range.start).saturating_sub(1);
            let mut pos = range.start;
            while pos < range.end {
                let off = self.offsets[ti];
                let t = &self.tensors[ti];
                let tend = off + t.numel();
                if tend > pos {
                    let end = tend.min(range.end);
                    block[pos - range.start..end - range.start]
                        .copy_from_slice(&t.data()[pos - off..end - off]);
                    pos = end;
                }
                ti += 1;
            }
        });
    }

    /// Overwrites every tensor from a flat vector produced by
    /// [`ParamStore::to_flat`] / [`ParamStore::write_flat`].
    ///
    /// Large stores split the copy across the kernel worker pool (see
    /// [`ParamStore::write_flat`] for the determinism argument).
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.total, "flat vector length mismatch");
        // Raw views of each tensor's storage: `(ptr, len, offset)`. The
        // ranges are disjoint, so concurrent chunk writes never alias.
        let parts: Vec<(pool::SendMutPtr<f32>, usize, usize)> = self
            .tensors
            .iter_mut()
            .zip(&self.offsets)
            .map(|(t, &off)| {
                let d = t.data_mut();
                (pool::SendMutPtr(d.as_mut_ptr()), d.len(), off)
            })
            .collect();
        pool::for_each_chunk(self.total, FLAT_COPY_GRAIN, |range| {
            let mut ti = parts.partition_point(|p| p.2 <= range.start).saturating_sub(1);
            let mut pos = range.start;
            while pos < range.end {
                let (ref ptr, len, off) = parts[ti];
                let tend = off + len;
                if tend > pos {
                    let end = tend.min(range.end);
                    // SAFETY: chunk ranges are disjoint and `parts` outlives
                    // the dispatch (`for_each_chunk` blocks until done).
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(ptr.get().add(pos - off), end - pos)
                    };
                    dst.copy_from_slice(&flat[pos..end]);
                    pos = end;
                }
                ti += 1;
            }
        });
    }

    /// Converts a tape's gradient (as returned by `Tape::backward`) into a
    /// dense flat gradient vector; untouched parameters and table rows
    /// contribute zeros.
    pub fn grads_to_flat(&self, grads: &Grads) -> Vec<f32> {
        let mut flat = vec![0.0f32; self.total];
        self.grads_write_flat(grads, &mut flat);
        flat
    }

    /// Like [`ParamStore::grads_to_flat`] but scattering into a caller-owned
    /// buffer (cleared first), so per-step training loops stop allocating.
    pub fn grads_write_flat(&self, grads: &Grads, out: &mut [f32]) {
        assert_eq!(out.len(), self.total, "flat vector length mismatch");
        out.fill(0.0);
        self.for_each_span(grads, |start, values| {
            out[start..start + values.len()].copy_from_slice(values);
        });
    }

    /// Maps a tape's gradient to flat coordinates without densifying it:
    /// one span per parameter read whole, one per touched table row.
    /// Reuses `out`'s buffers.
    pub fn grads_write_sparse(&self, grads: &Grads, out: &mut SparseGrad) {
        out.clear(self.total);
        self.for_each_span(grads, |start, values| out.push(start, values));
        out.finish();
    }

    /// Calls `f(flat start, values)` for every parameter read whole, then
    /// for every touched table row.
    fn for_each_span(&self, grads: &Grads, mut f: impl FnMut(usize, &[f32])) {
        for (idx, g) in grads.dense_iter() {
            self.check_grad_shape(idx, g.numel());
            f(self.offsets[idx], g.data());
        }
        for (idx, rows) in grads.rows_iter() {
            let [n_rows, dim] = rows.table_shape();
            self.check_grad_shape(idx, n_rows * dim);
            for (id, row) in rows.iter() {
                f(self.offsets[idx] + id as usize * dim, row);
            }
        }
    }

    fn check_grad_shape(&self, idx: usize, numel: usize) {
        assert_eq!(
            numel,
            self.tensors[idx].numel(),
            "gradient shape mismatch for param {} ({})",
            idx,
            self.specs[idx].name
        );
    }

    /// A zero vector with the flat length of this store.
    pub fn zeros_flat(&self) -> Vec<f32> {
        vec![0.0f32; self.total]
    }

    /// Iterates over `(index, spec, tensor)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ParamSpec, &Tensor)> {
        self.specs.iter().zip(&self.tensors).enumerate().map(|(i, (s, t))| (i, s, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_autodiff::Tape;
    use mamdr_tensor::rng::seeded;

    fn sample_store() -> ParamStore {
        let mut b = ParamStoreBuilder::new();
        b.register("w1", &[2, 3], Init::Constant(1.0));
        b.register("b1", &[3], Init::Zeros);
        b.register("emb", &[4, 2], Init::Constant(2.0));
        b.build(&mut seeded(0))
    }

    #[test]
    fn registration_and_lookup() {
        let s = sample_store();
        assert_eq!(s.n_tensors(), 3);
        assert_eq!(s.n_scalars(), 6 + 3 + 8);
        assert_eq!(s.index_of("b1"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.spec(0).shape, vec![2, 3]);
        assert_eq!(s.offset(1), 6);
        assert_eq!(s.offset(2), 9);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut b = ParamStoreBuilder::new();
        b.register("w", &[1], Init::Zeros);
        b.register("w", &[1], Init::Zeros);
    }

    #[test]
    fn flat_roundtrip() {
        let mut s = sample_store();
        let flat = s.to_flat();
        assert_eq!(flat.len(), s.n_scalars());
        assert_eq!(&flat[0..6], &[1.0; 6]);
        assert_eq!(&flat[6..9], &[0.0; 3]);
        let modified: Vec<f32> = flat.iter().map(|x| x + 0.5).collect();
        s.load_flat(&modified);
        assert_eq!(s.get(1).data(), &[0.5, 0.5, 0.5]);
        assert_eq!(s.to_flat(), modified);
    }

    /// The tape gradient of `Σ c ⊙ b1 + Σ emb[ids]` with `c = [1, 2, 3]`:
    /// `c` for `b1`, and for each table row the number of times `ids`
    /// names it. `w1` is never read.
    fn sample_grads(s: &ParamStore, ids: &[u32]) -> Grads {
        let mut tape = Tape::new();
        let b1 = tape.param(1, s.get(1).clone());
        let c = tape.leaf(Tensor::from_vec([3], vec![1., 2., 3.]));
        let bc = tape.mul(b1, c);
        let l1 = tape.sum_all(bc);
        let e = tape.gather_param(2, s.get(2), ids);
        let l2 = tape.sum_all(e);
        let loss = tape.add(l1, l2);
        tape.backward(loss)
    }

    #[test]
    fn grads_to_flat_fills_zeros_for_untouched() {
        let s = sample_store();
        let flat = s.grads_to_flat(&sample_grads(&s, &[3, 1, 3]));
        assert_eq!(&flat[0..6], &[0.0; 6]);
        assert_eq!(&flat[6..9], &[1., 2., 3.]);
        assert_eq!(&flat[9..], &[0., 0., 1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn sparse_grads_list_touched_spans_in_flat_order_and_densify_alike() {
        let s = sample_store();
        let grads = sample_grads(&s, &[3, 1, 3]);
        let mut sparse = SparseGrad::default();
        s.grads_write_sparse(&grads, &mut sparse);
        let spans: Vec<(usize, Vec<f32>)> = sparse.spans().map(|(i, v)| (i, v.to_vec())).collect();
        assert_eq!(
            spans,
            vec![(6, vec![1., 2., 3.]), (11, vec![1., 1.]), (15, vec![2., 2.])],
            "b1 whole, then emb rows 1 and 3; w1 and the other rows untouched"
        );
        assert_eq!(sparse.len(), s.flat_len());
        assert_eq!(sparse.to_dense(), s.grads_to_flat(&grads));
        // Refilling reuses the buffers and forgets the previous spans.
        s.grads_write_sparse(&sample_grads(&s, &[0]), &mut sparse);
        assert_eq!(sparse.spans().map(|(i, _)| i).collect::<Vec<_>>(), vec![6, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn load_flat_rejects_wrong_length() {
        let mut s = sample_store();
        s.load_flat(&[0.0; 3]);
    }

    #[test]
    fn write_flat_matches_to_flat_and_reuses_buffer() {
        let s = sample_store();
        assert_eq!(s.flat_len(), s.n_scalars());
        let mut buf = vec![42.0f32; s.flat_len()];
        s.write_flat(&mut buf);
        assert_eq!(buf, s.to_flat());
    }

    #[test]
    fn grads_write_flat_clears_previous_contents() {
        let s = sample_store();
        let mut buf = vec![99.0f32; s.flat_len()];
        let grads = sample_grads(&s, &[2]);
        s.grads_write_flat(&grads, &mut buf);
        assert_eq!(buf, s.grads_to_flat(&grads));
        assert_eq!(&buf[0..6], &[0.0; 6], "stale buffer contents must be cleared");
    }

    #[test]
    fn flat_roundtrip_survives_parallel_copy_threshold() {
        // A store big enough to cross FLAT_COPY_GRAIN and take the pooled
        // copy path; the round trip must still be exact.
        let mut b = ParamStoreBuilder::new();
        b.register("big", &[600, 300], Init::Constant(0.5));
        b.register("tail", &[7], Init::Zeros);
        let mut s = b.build(&mut seeded(1));
        let flat: Vec<f32> = (0..s.flat_len()).map(|i| i as f32 * 0.25).collect();
        s.load_flat(&flat);
        assert_eq!(s.to_flat(), flat);
        assert_eq!(s.get(1).data()[0], (600 * 300) as f32 * 0.25);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = sample_store();
        let b = a.clone();
        a.get_mut(0).data_mut()[0] = 99.0;
        assert_eq!(b.get(0).data()[0], 1.0);
    }
}
