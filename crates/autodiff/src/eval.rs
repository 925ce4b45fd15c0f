//! The evaluation recorder: a forward pass for its values alone.

use crate::arena::Arena;
use crate::recorder::{self, Recorder, Var};
use mamdr_tensor::{stable_sigmoid, Act, Tensor};

/// Where a value lives: a borrowed parameter or one of the arena's values.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Param(usize),
    Value(usize),
}

/// The storage an [`Eval`] recorder reuses from one forward pass to the
/// next, so repeating a pass at the same or a smaller batch size allocates
/// nothing.
#[derive(Debug, Default)]
pub struct EvalScratch {
    slots: Vec<Slot>,
    values: Arena,
    /// What an op reads beside its inputs and nothing after it: a dropout
    /// mask, the normalization scales.
    aux: Tensor,
}

impl EvalScratch {
    /// A recorder over `params` (parameter `i` is `params[i]`) that forgets
    /// the previous pass and reuses its storage.
    pub fn recorder<'a>(&'a mut self, params: &'a [Tensor]) -> Eval<'a> {
        self.slots.clear();
        self.values.clear();
        Eval { params, scratch: self }
    }
}

/// A [`Recorder`] that keeps values only: parameters are read in place,
/// no op, id list or mask is stored, and every computed value goes into the
/// arena of its [`EvalScratch`]. Nothing can be differentiated.
pub struct Eval<'a> {
    params: &'a [Tensor],
    scratch: &'a mut EvalScratch,
}

/// The values recorded so far, beside the buffer an op is writing.
#[derive(Clone, Copy)]
struct Values<'a> {
    params: &'a [Tensor],
    slots: &'a [Slot],
    values: &'a [Tensor],
}

impl<'a> Values<'a> {
    fn get(self, v: Var) -> &'a Tensor {
        match self.slots[v.0] {
            Slot::Param(i) => &self.params[i],
            Slot::Value(k) => &self.values[k],
        }
    }
}

impl Eval<'_> {
    /// Appends a value backed by the arena's next buffer and returns it with
    /// the earlier values and the scratch's auxiliary buffer: an op's inputs
    /// always precede its output.
    fn output_and_aux(&mut self) -> (Var, Values<'_>, &mut Tensor, &mut Tensor) {
        let s = &mut *self.scratch;
        s.slots.push(Slot::Value(s.values.len()));
        let (values, out) = s.values.push();
        let earlier = Values { params: self.params, slots: &s.slots, values };
        (Var(s.slots.len() - 1), earlier, out, &mut s.aux)
    }

    /// [`output_and_aux`](Self::output_and_aux) for an op that needs no
    /// auxiliary buffer.
    fn output(&mut self) -> (Var, Values<'_>, &mut Tensor) {
        let (var, values, out, _) = self.output_and_aux();
        (var, values, out)
    }

    /// Holds a constant input.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let (var, _, out) = self.output();
        *out = value;
        var
    }
}

impl Recorder for Eval<'_> {
    fn value(&self, v: Var) -> &Tensor {
        let s = &*self.scratch;
        Values { params: self.params, slots: &s.slots, values: s.values.values() }.get(v)
    }

    fn leaf_concat(&mut self, parts: &[&Tensor]) -> Var {
        let (var, _, out) = self.output();
        Tensor::concat_cols_into(parts.iter().copied(), out);
        var
    }

    /// Reads `params[param]` in place; `value` must be that tensor.
    fn param(&mut self, param: usize, value: &Tensor) -> Var {
        debug_assert!(
            std::ptr::eq(value, &self.params[param]),
            "parameter {param} read from a store the recorder was not built over"
        );
        self.scratch.slots.push(Slot::Param(param));
        Var(self.scratch.slots.len() - 1)
    }

    fn gather_param(&mut self, _param: usize, table: &Tensor, ids: &[u32]) -> Var {
        let (var, _, out) = self.output();
        table.gather_rows_into(ids, out);
        var
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).add_into(v.get(b), out);
        var
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).sub_into(v.get(b), out);
        var
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).mul_into(v.get(b), out);
        var
    }

    fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).add_row_broadcast_into(v.get(row), out);
        var
    }

    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).mul_col_broadcast_into(v.get(col), out);
        var
    }

    fn dense(&mut self, x: Var, w: Var, bias: Option<Var>, act: Act) -> Var {
        let (var, v, out) = self.output();
        v.get(x).gemm_bias_act_into(v.get(w), bias.map(|b| v.get(b)), act, out);
        var
    }

    fn transpose(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).transpose_into(out);
        var
    }

    fn relu(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).map_into(recorder::relu, out);
        var
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).map_into(stable_sigmoid, out);
        var
    }

    fn tanh(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).map_into(f32::tanh, out);
        var
    }

    fn square(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).map_into(recorder::square, out);
        var
    }

    fn scalar_mul(&mut self, a: Var, c: f32) -> Var {
        let (var, v, out) = self.output();
        v.get(a).scale_into(c, out);
        var
    }

    fn sum_cols_keep(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).sum_cols_into(out);
        let m = out.numel();
        out.set_shape(&[m, 1]);
        var
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let (var, v, out) = self.output();
        Tensor::concat_cols_into(parts.iter().map(|&p| v.get(p)), out);
        var
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (var, v, out) = self.output();
        v.get(a).slice_cols_into(start, len, out);
        var
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        let (var, v, out) = self.output();
        v.get(a).softmax_rows_into(out);
        var
    }

    fn normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let (var, v, out, inv_std) = self.output_and_aux();
        recorder::normalize_rows_into(v.get(a), eps, inv_std, out);
        var
    }

    fn dropout(&mut self, a: Var, fill: impl FnOnce(&mut [f32])) -> Var {
        let (var, v, out, mask) = self.output_and_aux();
        let x = v.get(a);
        mask.reset(x.shape());
        fill(mask.data_mut());
        x.mul_into(mask, out);
        var
    }

    fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let (var, v, out) = self.output();
        let src = v.get(a);
        out.reset(shape);
        out.data_mut().copy_from_slice(src.data());
        var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use mamdr_tensor::rng::seeded;

    /// A graph touching every op of the trait.
    fn graph<R: Recorder>(rec: &mut R, params: &[Tensor], x: &Tensor) -> Var {
        let xv = rec.leaf_concat(&[x, x]);
        let w = rec.param(0, &params[0]);
        let b = rec.param(1, &params[1]);
        let e = rec.gather_param(2, &params[2], &[3, 0, 3, 1]);
        let h = rec.dense(xv, w, Some(b), Act::Tanh);
        let h = rec.normalize_rows(h, 1e-5);
        let t = rec.transpose(h);
        let t = rec.transpose(t);
        let s = rec.softmax_rows(t);
        let col = rec.slice_cols(s, 1, 1);
        let col = rec.reshape(col, &[4]);
        let r = rec.mul_col(e, col);
        let r = rec.add_row(r, b);
        let q = rec.square(r);
        let q = rec.scalar_mul(q, 0.5);
        let d = rec.sub(q, e);
        let p = rec.mul(d, r);
        let p = rec.relu(p);
        let g = rec.sigmoid(p);
        let sum = rec.add(g, p);
        let k = rec.sum_cols_keep(sum);
        let cat = rec.concat_cols(&[k, sum, e]);
        rec.dropout(cat, |mask| mask.fill(2.0))
    }

    #[test]
    fn eval_values_are_the_tape_values_bit_for_bit() {
        let mut rng = seeded(31);
        let params = [
            Tensor::randn(&mut rng, [6, 3], 0.0, 1.0),
            Tensor::randn(&mut rng, [3], 0.0, 1.0),
            Tensor::randn(&mut rng, [5, 3], 0.0, 1.0),
        ];
        let x = Tensor::randn(&mut rng, [4, 3], 0.0, 1.0);
        let mut tape = Tape::new();
        let out = graph(&mut tape, &params, &x);
        let want: Vec<u32> = tape.value(out).data().iter().map(|v| v.to_bits()).collect();

        let mut scratch = EvalScratch::default();
        for pass in 0..2 {
            let mut rec = scratch.recorder(&params);
            let out = graph(&mut rec, &params, &x);
            let got: Vec<u32> = rec.value(out).data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "pass {pass}");
            assert_eq!(rec.value(out).shape(), tape.value(out).shape());
        }
    }

    #[test]
    fn a_repeated_pass_reuses_every_buffer() {
        let params = [Tensor::ones([2, 2]), Tensor::ones([2])];
        let x = Tensor::ones([3, 1]);
        let mut scratch = EvalScratch::default();
        let run = |scratch: &mut EvalScratch| {
            let mut rec = scratch.recorder(&params);
            let x = rec.leaf_concat(&[&x, &x]);
            let w = rec.param(0, &params[0]);
            let b = rec.param(1, &params[1]);
            let y = rec.dense(x, w, Some(b), Act::Relu);
            rec.value(y).data().as_ptr()
        };
        let first = run(&mut scratch);
        assert_eq!(run(&mut scratch), first, "the output buffer moved");
        assert_eq!(scratch.values.buffers(), 2, "a parameter read took a buffer");
    }
}
