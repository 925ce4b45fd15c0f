//! The gradient a reverse pass returns.

use mamdr_tensor::Tensor;
use std::ops::Index;

/// The gradient of a scalar loss with respect to every parameter the
/// forward pass read, indexed by parameter.
///
/// A parameter read whole ([`Recorder::param`](crate::Recorder::param))
/// gets a tensor of its own shape. A table read by rows
/// ([`Recorder::gather_param`](crate::Recorder::gather_param)) gets a [`RowGrad`]
/// holding only the rows the batch touched, so the reverse pass never
/// allocates a table-shaped tensor.
///
/// A `Grads` kept across reverse passes
/// ([`Tape::backward_into`](crate::Tape::backward_into)) keeps every
/// parameter's storage: refilling it at the same or a smaller batch
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Grads {
    /// By parameter index; only the `touched` entries hold this pass's
    /// gradient.
    entries: Vec<Entry>,
    /// The parameters with a gradient, ascending once the pass is finished.
    touched: Vec<usize>,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    kind: Kind,
    dense: Tensor,
    rows: RowGrad,
}

/// What one parameter received in the current pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kind {
    #[default]
    None,
    Dense,
    Rows,
}

impl Grads {
    /// Number of parameters with a gradient.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn kind(&self, param: usize) -> Kind {
        self.entries.get(param).map_or(Kind::None, |e| e.kind)
    }

    /// Whether parameter `param` received a gradient (of either form).
    pub fn contains(&self, param: usize) -> bool {
        self.kind(param) != Kind::None
    }

    /// The gradient of a parameter read whole.
    pub fn dense(&self, param: usize) -> Option<&Tensor> {
        (self.kind(param) == Kind::Dense).then(|| &self.entries[param].dense)
    }

    /// The row gradient of a gathered table.
    pub fn rows(&self, param: usize) -> Option<&RowGrad> {
        (self.kind(param) == Kind::Rows).then(|| &self.entries[param].rows)
    }

    /// Every whole-parameter gradient, by ascending parameter index.
    pub fn dense_iter(&self) -> impl Iterator<Item = (usize, &Tensor)> {
        self.touched.iter().filter_map(|&p| self.dense(p).map(|t| (p, t)))
    }

    /// Every table's row gradient, by ascending parameter index.
    pub fn rows_iter(&self) -> impl Iterator<Item = (usize, &RowGrad)> {
        self.touched.iter().filter_map(|&p| self.rows(p).map(|r| (p, r)))
    }

    /// Parameter `param`'s gradient as a tensor of the parameter's shape:
    /// a table's untouched rows are zero.
    pub fn to_dense(&self, param: usize) -> Option<Tensor> {
        self.dense(param).cloned().or_else(|| self.rows(param).map(RowGrad::to_dense))
    }

    /// Forgets the previous pass's gradient, keeping every buffer.
    pub(crate) fn clear(&mut self) {
        for &p in &self.touched {
            let entry = &mut self.entries[p];
            if entry.kind == Kind::Rows {
                entry.rows.clear();
            }
            entry.kind = Kind::None;
        }
        self.touched.clear();
    }

    /// Puts the parameters in ascending order once the pass is done.
    pub(crate) fn finish(&mut self) {
        self.touched.sort_unstable();
    }

    /// The entry of `param`, marked as holding a gradient of `kind`: the
    /// returned flag says whether it held none yet in this pass.
    fn claim(&mut self, param: usize, kind: Kind) -> (&mut Entry, bool) {
        if self.entries.len() <= param {
            self.entries.resize_with(param + 1, Entry::default);
        }
        let entry = &mut self.entries[param];
        let first = entry.kind == Kind::None;
        if first {
            entry.kind = kind;
            self.touched.push(param);
        }
        assert!(entry.kind == kind, "parameter {param} is read both whole and by rows");
        (entry, first)
    }

    /// Adds the adjoint of a whole-parameter read. The first one is
    /// copied, not added to zero: `0.0 + (−0.0)` would be `+0.0`.
    pub(crate) fn add_dense(&mut self, param: usize, d: &Tensor) {
        match self.claim(param, Kind::Dense) {
            (entry, true) => entry.dense.copy_from(d),
            (entry, false) => entry.dense.axpy(1.0, d),
        }
    }

    /// Adds the adjoint `d` of a gather of `ids` from table `param`.
    pub(crate) fn add_rows(&mut self, param: usize, shape: [usize; 2], ids: &[u32], d: &Tensor) {
        let (entry, first) = self.claim(param, Kind::Rows);
        if first {
            entry.rows.start(shape);
        }
        entry.rows.scatter_add(ids, d);
    }
}

/// `grads[param]` is the gradient of a parameter read whole; panics for a
/// gathered table (see [`Grads::rows`]) or a parameter without one.
impl Index<usize> for Grads {
    type Output = Tensor;

    fn index(&self, param: usize) -> &Tensor {
        self.dense(param).unwrap_or_else(|| panic!("no whole-parameter gradient for {param}"))
    }
}

/// Marks a table row without a slot in [`RowGrad::slot_of`].
const NO_SLOT: u32 = u32::MAX;

/// The gradient of one gathered table: each distinct id the forward pass
/// gathered, with the sum of the adjoints of every row gathered for it.
///
/// Ids are kept in first-occurrence order — reverse node order, then
/// position within a gather — and each id's sum starts at `0.0` and adds
/// its adjoint rows in that same order. That is exactly the sequence of
/// additions a zeroed table receives from
/// [`Tensor::scatter_add_rows`] in reverse node order, so every row has the
/// same bits as it would in a densely materialised table gradient.
#[derive(Debug, Clone, Default)]
pub struct RowGrad {
    shape: [usize; 2],
    ids: Vec<u32>,
    /// `ids.len() × dim`, row `s` summing the adjoints of `ids[s]`.
    values: Vec<f32>,
    /// Per table row, its slot in `ids`, or [`NO_SLOT`]. Kept across
    /// passes; a pass resets only the rows it touched.
    slot_of: Vec<u32>,
}

impl RowGrad {
    /// Readies an empty gradient for a table of `shape`.
    fn start(&mut self, shape: [usize; 2]) {
        debug_assert!(self.ids.is_empty(), "a row gradient started twice");
        self.shape = shape;
        self.slot_of.resize(shape[0], NO_SLOT);
    }

    /// Forgets every id, keeping the buffers.
    fn clear(&mut self) {
        for &id in &self.ids {
            self.slot_of[id as usize] = NO_SLOT;
        }
        self.ids.clear();
        self.values.clear();
    }

    /// `[rows, dim]` of the table this gradient belongs to.
    pub fn table_shape(&self) -> [usize; 2] {
        self.shape
    }

    /// Width of one row.
    pub fn dim(&self) -> usize {
        self.shape[1]
    }

    /// The distinct ids, in first-occurrence order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// `(id, summed row)` pairs, in first-occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.ids.iter().copied().zip(self.values.chunks_exact(self.dim().max(1)))
    }

    /// The gradient as a zeroed table with the touched rows filled in.
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(self.shape);
        let dim = self.dim();
        for (id, row) in self.iter() {
            let id = id as usize;
            t.data_mut()[id * dim..(id + 1) * dim].copy_from_slice(row);
        }
        t
    }

    /// For each `i`, adds row `i` of `src` into the slot of `ids[i]`.
    fn scatter_add(&mut self, ids: &[u32], src: &Tensor) {
        let dim = self.dim();
        let (srows, sdim) = src.matrix_dims();
        assert_eq!(sdim, dim, "scatter dim mismatch");
        assert_eq!(srows, ids.len(), "scatter id count mismatch");
        // Room for every id being new, so a kept gradient stops growing
        // once it has seen its largest batch.
        self.ids.reserve(ids.len());
        self.values.reserve(ids.len() * dim);
        for (&id, g) in ids.iter().zip(src.data().chunks_exact(dim.max(1))) {
            assert!((id as usize) < self.shape[0], "scatter id {id} out of bounds");
            let slot = match self.slot_of[id as usize] {
                NO_SLOT => {
                    self.slot_of[id as usize] = self.ids.len() as u32;
                    self.ids.push(id);
                    self.values.resize(self.values.len() + dim, 0.0);
                    self.ids.len() - 1
                }
                slot => slot as usize,
            };
            for (x, &g) in self.values[slot * dim..(slot + 1) * dim].iter_mut().zip(g) {
                *x += g;
            }
        }
    }
}
