//! The gradient a reverse pass returns.

use mamdr_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::ops::Index;

/// The gradient of a scalar loss with respect to every parameter the
/// forward pass read, keyed by parameter index.
///
/// A parameter read whole ([`Tape::param`](crate::Tape::param)) gets a
/// tensor of its own shape. A table read by rows
/// ([`Tape::gather_param`](crate::Tape::gather_param)) gets a [`RowGrad`]
/// holding only the rows the batch touched, so the reverse pass never
/// allocates a table-shaped tensor.
#[derive(Debug, Clone, Default)]
pub struct Grads {
    dense: BTreeMap<usize, Tensor>,
    rows: BTreeMap<usize, RowGrad>,
}

impl Grads {
    /// Number of parameters with a gradient.
    pub fn len(&self) -> usize {
        self.dense.len() + self.rows.len()
    }

    /// True when no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether parameter `param` received a gradient (of either form).
    pub fn contains(&self, param: usize) -> bool {
        self.dense.contains_key(&param) || self.rows.contains_key(&param)
    }

    /// The gradient of a parameter read whole.
    pub fn dense(&self, param: usize) -> Option<&Tensor> {
        self.dense.get(&param)
    }

    /// The row gradient of a gathered table.
    pub fn rows(&self, param: usize) -> Option<&RowGrad> {
        self.rows.get(&param)
    }

    /// Every whole-parameter gradient, by ascending parameter index.
    pub fn dense_iter(&self) -> impl Iterator<Item = (usize, &Tensor)> {
        self.dense.iter().map(|(&p, t)| (p, t))
    }

    /// Every table's row gradient, by ascending parameter index.
    pub fn rows_iter(&self) -> impl Iterator<Item = (usize, &RowGrad)> {
        self.rows.iter().map(|(&p, r)| (p, r))
    }

    /// Parameter `param`'s gradient as a tensor of the parameter's shape:
    /// a table's untouched rows are zero.
    pub fn to_dense(&self, param: usize) -> Option<Tensor> {
        self.dense(param).cloned().or_else(|| self.rows(param).map(RowGrad::to_dense))
    }

    /// Adds the adjoint of a whole-parameter read.
    pub(crate) fn add_dense(&mut self, param: usize, d: Tensor) {
        assert!(
            !self.rows.contains_key(&param),
            "parameter {param} is read both whole and by rows"
        );
        match self.dense.get_mut(&param) {
            Some(existing) => existing.axpy(1.0, &d),
            None => {
                self.dense.insert(param, d);
            }
        }
    }

    /// Adds the adjoint `d` of a gather of `ids` from table `param`.
    pub(crate) fn add_rows(&mut self, param: usize, shape: [usize; 2], ids: &[u32], d: &Tensor) {
        assert!(
            !self.dense.contains_key(&param),
            "parameter {param} is read both whole and by rows"
        );
        self.rows
            .entry(param)
            .or_insert_with(|| RowGrad::new(shape, ids.len()))
            .scatter_add(ids, d);
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

/// The gradient of one gathered table: each distinct id the forward pass
/// gathered, with the sum of the adjoints of every row gathered for it.
///
/// Ids are kept in first-occurrence order — reverse node order, then
/// position within a gather — and each id's sum starts at `0.0` and adds
/// its adjoint rows in that same order. That is exactly the sequence of
/// additions a zeroed table receives from
/// [`Tensor::scatter_add_rows`] in reverse node order, so every row has the
/// same bits as it would in a densely materialised table gradient.
#[derive(Debug, Clone)]
pub struct RowGrad {
    shape: [usize; 2],
    ids: Vec<u32>,
    /// `ids.len() × dim`, row `s` summing the adjoints of `ids[s]`.
    values: Vec<f32>,
    slot_of: HashMap<u32, usize>,
}

impl RowGrad {
    /// An empty gradient with room for `ids` distinct ids.
    fn new(shape: [usize; 2], ids: usize) -> Self {
        RowGrad {
            shape,
            ids: Vec::with_capacity(ids),
            values: Vec::with_capacity(ids * shape[1]),
            slot_of: HashMap::with_capacity(ids),
        }
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
        for (&id, g) in ids.iter().zip(src.data().chunks_exact(dim.max(1))) {
            assert!((id as usize) < self.shape[0], "scatter id {id} out of bounds");
            let slot = *self.slot_of.entry(id).or_insert_with(|| {
                self.ids.push(id);
                self.values.resize(self.values.len() + dim, 0.0);
                self.ids.len() - 1
            });
            for (x, &g) in self.values[slot * dim..(slot + 1) * dim].iter_mut().zip(g) {
                *x += g;
            }
        }
    }
}
