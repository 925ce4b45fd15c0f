//! The storage both recorders keep from one pass to the next.

use mamdr_tensor::Tensor;

/// Tensors kept across passes: the `k`-th value a pass stores goes into the
/// `k`-th buffer, so repeating a pass at the same or a smaller size
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    buffers: Vec<Tensor>,
    /// Buffers holding a value of the current pass.
    used: usize,
}

impl Arena {
    /// Starts a new pass; every buffer is kept.
    pub(crate) fn clear(&mut self) {
        self.used = 0;
    }

    /// Number of values in the current pass.
    pub(crate) fn len(&self) -> usize {
        self.used
    }

    /// The values of the current pass, in the order they were stored.
    pub(crate) fn values(&self) -> &[Tensor] {
        &self.buffers[..self.used]
    }

    /// The `k`-th value of the current pass.
    pub(crate) fn get(&self, k: usize) -> &Tensor {
        &self.values()[k]
    }

    /// Stores the next value: returns the values before it and the buffer
    /// to write it into, which still holds whatever an earlier pass left.
    pub(crate) fn push(&mut self) -> (&[Tensor], &mut Tensor) {
        if self.used == self.buffers.len() {
            self.buffers.push(Tensor::empty());
        }
        let (done, rest) = self.buffers.split_at_mut(self.used);
        self.used += 1;
        (done, &mut rest[0])
    }

    /// Number of buffers held, used or not.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> usize {
        self.buffers.len()
    }
}
