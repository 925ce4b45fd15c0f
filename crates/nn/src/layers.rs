//! Layer primitives assembled into the CTR model zoo.
//!
//! A layer registers its parameters in a [`ParamStoreBuilder`] at
//! construction and replays its computation onto a [`Tape`] at forward time,
//! reading current parameter values from the [`ParamStore`]. Layers hold
//! only parameter *indices*, never the tensors themselves — the learning
//! frameworks own and mutate the store.

use crate::store::{ParamStore, ParamStoreBuilder};
use mamdr_autodiff::{Tape, Var};
use mamdr_tensor::init::Init;
use mamdr_tensor::{Act, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl From<Activation> for Act {
    fn from(a: Activation) -> Act {
        match a {
            Activation::Linear => Act::Linear,
            Activation::Relu => Act::Relu,
            Activation::Sigmoid => Act::Sigmoid,
            Activation::Tanh => Act::Tanh,
        }
    }
}

/// Per-batch forward context: training mode and the RNG driving dropout.
pub struct ForwardCtx<'a> {
    /// True during training (enables dropout).
    pub training: bool,
    /// RNG for dropout masks.
    pub rng: &'a mut StdRng,
}

impl<'a> ForwardCtx<'a> {
    /// A training-mode context.
    pub fn train(rng: &'a mut StdRng) -> Self {
        ForwardCtx { training: true, rng }
    }

    /// An evaluation-mode context (dropout disabled).
    pub fn eval(rng: &'a mut StdRng) -> Self {
        ForwardCtx { training: false, rng }
    }
}

/// A fully connected layer `act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: usize,
    b: usize,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Registers a dense layer's parameters.
    ///
    /// He initialization before ReLU, Xavier otherwise — the DeepCTR
    /// defaults the paper's baselines use.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        let init = match activation {
            Activation::Relu => Init::HeNormal,
            _ => Init::XavierNormal,
        };
        let w = builder.register(format!("{name}/w"), &[in_dim, out_dim], init);
        let b = builder.register(format!("{name}/b"), &[out_dim], Init::Zeros);
        Dense { w, b, activation, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter index of the weight matrix.
    pub fn weight_index(&self) -> usize {
        self.w
    }

    /// Parameter index of the bias vector.
    pub fn bias_index(&self) -> usize {
        self.b
    }

    /// Applies the layer to `[batch, in_dim]`, producing `[batch, out_dim]`.
    ///
    /// Records one fused `Tape::dense` node — bit-identical to the former
    /// matmul → bias-add → activation chain but one pass over the output.
    pub fn forward(&self, ps: &ParamStore, tape: &mut Tape, x: Var) -> Var {
        let w = tape.param(self.w, ps.get(self.w).clone());
        let b = tape.param(self.b, ps.get(self.b).clone());
        tape.dense(x, w, Some(b), self.activation.into())
    }

    /// Like [`Dense::forward`] but with externally supplied weight/bias
    /// nodes — used by STAR, which composes shared ⊙ specific weights before
    /// the matmul.
    pub fn forward_with(&self, tape: &mut Tape, x: Var, w: Var, b: Var) -> Var {
        tape.dense(x, w, Some(b), self.activation.into())
    }
}

/// Applies an [`Activation`] to a tape node.
pub fn apply_activation(tape: &mut Tape, x: Var, activation: Activation) -> Var {
    match activation {
        Activation::Linear => x,
        Activation::Relu => tape.relu(x),
        Activation::Sigmoid => tape.sigmoid(x),
        Activation::Tanh => tape.tanh(x),
    }
}

/// A stack of dense layers with optional inverted dropout between them.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    dropout: f32,
}

impl Mlp {
    /// Builds a stack with the given hidden widths; every hidden layer uses
    /// ReLU and the final layer `out_activation`.
    ///
    /// `dims = [in, h1, h2, ..., out]` must have at least two entries.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        name: &str,
        dims: &[usize],
        out_activation: Activation,
        dropout: f32,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least input and output dims");
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1)");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() { out_activation } else { Activation::Relu };
            layers.push(Dense::new(builder, &format!("{name}/l{i}"), dims[i], dims[i + 1], act));
        }
        Mlp { layers, dropout }
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Forward pass through every layer, with inverted dropout after each
    /// hidden activation during training.
    pub fn forward(&self, ps: &ParamStore, tape: &mut Tape, ctx: &mut ForwardCtx, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(ps, tape, h);
            if i != last && self.dropout > 0.0 && ctx.training {
                h = apply_dropout(tape, ctx, h, self.dropout);
            }
        }
        h
    }
}

/// Applies inverted dropout with probability `p` to a tape node.
pub fn apply_dropout(tape: &mut Tape, ctx: &mut ForwardCtx, x: Var, p: f32) -> Var {
    debug_assert!(ctx.training, "dropout should only run in training mode");
    let shape = tape.value(x).shape().to_vec();
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let n: usize = shape.iter().product();
    let mask_data: Vec<f32> =
        (0..n).map(|_| if ctx.rng.gen::<f32>() < keep { scale } else { 0.0 }).collect();
    tape.dropout(x, Tensor::from_vec(shape, mask_data))
}

/// An embedding table with gather-based lookup.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: usize,
    rows: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `rows × dim` table, initialized `N(0, 0.01)` as in
    /// DeepCTR.
    pub fn new(builder: &mut ParamStoreBuilder, name: &str, rows: usize, dim: usize) -> Self {
        let table = builder.register(name, &[rows, dim], Init::Normal(0.01));
        Embedding { table, rows, dim }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (vocabulary size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Parameter index of the table.
    pub fn table_index(&self) -> usize {
        self.table
    }

    /// Looks up `ids`, producing `[ids.len, dim]`.
    pub fn forward(&self, ps: &ParamStore, tape: &mut Tape, ids: &[u32]) -> Var {
        tape.gather_param(self.table, ps.get(self.table), ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_tensor::rng::seeded;

    #[test]
    fn dense_shapes_and_activation() {
        let mut b = ParamStoreBuilder::new();
        let layer = Dense::new(&mut b, "d", 3, 2, Activation::Relu);
        let ps = b.build(&mut seeded(0));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec([4, 3], vec![1.0; 12]));
        let y = layer.forward(&ps, &mut tape, x);
        assert_eq!(tape.value(y).shape(), &[4, 2]);
        assert!(tape.value(y).data().iter().all(|&v| v >= 0.0), "relu output must be >= 0");
    }

    #[test]
    fn mlp_builds_correct_stack() {
        let mut b = ParamStoreBuilder::new();
        let mlp = Mlp::new(&mut b, "m", &[8, 4, 2, 1], Activation::Linear, 0.0);
        let ps = b.build(&mut seeded(1));
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(ps.n_tensors(), 6);
        let mut rng = seeded(2);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&mut rng, [5, 8], 0.0, 1.0));
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = mlp.forward(&ps, &mut tape, &mut ctx, x);
        assert_eq!(tape.value(y).shape(), &[5, 1]);
    }

    #[test]
    fn dropout_only_in_training() {
        let mut b = ParamStoreBuilder::new();
        let mlp = Mlp::new(&mut b, "m", &[4, 16, 1], Activation::Linear, 0.5);
        let ps = b.build(&mut seeded(3));
        let x_t = Tensor::ones([2, 4]);
        let mut rng = seeded(4);

        // Eval is deterministic regardless of RNG state.
        let mut tape1 = Tape::new();
        let x1 = tape1.leaf(x_t.clone());
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y1 = mlp.forward(&ps, &mut tape1, &mut ctx, x1);
        let mut tape2 = Tape::new();
        let x2 = tape2.leaf(x_t.clone());
        let mut rng2 = seeded(99);
        let mut ctx2 = ForwardCtx::eval(&mut rng2);
        let y2 = mlp.forward(&ps, &mut tape2, &mut ctx2, x2);
        assert_eq!(tape1.value(y1), tape2.value(y2));

        // Training with different RNG states differs (dropout active).
        let mut rng_a = seeded(5);
        let mut tape3 = Tape::new();
        let x3 = tape3.leaf(x_t.clone());
        let mut ctx3 = ForwardCtx::train(&mut rng_a);
        let y3 = mlp.forward(&ps, &mut tape3, &mut ctx3, x3);
        let mut rng_b = seeded(6);
        let mut tape4 = Tape::new();
        let x4 = tape4.leaf(x_t);
        let mut ctx4 = ForwardCtx::train(&mut rng_b);
        let y4 = mlp.forward(&ps, &mut tape4, &mut ctx4, x4);
        assert_ne!(tape3.value(y3), tape4.value(y4));
    }

    #[test]
    fn embedding_lookup() {
        let mut b = ParamStoreBuilder::new();
        let emb = Embedding::new(&mut b, "e", 10, 4);
        let ps = b.build(&mut seeded(7));
        let mut tape = Tape::new();
        let out = emb.forward(&ps, &mut tape, &[3, 3, 9]);
        assert_eq!(tape.value(out).shape(), &[3, 4]);
        assert_eq!(tape.value(out).row(0), tape.value(out).row(1));
        assert_eq!(tape.value(out).row(0), ps.get(emb.table_index()).row(3));
    }

    #[test]
    fn mlp_gradient_reaches_all_layers() {
        let mut b = ParamStoreBuilder::new();
        let mlp = Mlp::new(&mut b, "m", &[3, 4, 1], Activation::Linear, 0.0);
        let ps = b.build(&mut seeded(8));
        let mut rng = seeded(9);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&mut rng, [6, 3], 0.0, 1.0));
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = mlp.forward(&ps, &mut tape, &mut ctx, x);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        // 2 layers × (w, b) = 4 parameter tensors, all touched
        assert_eq!(grads.len(), 4);
        for layer in mlp.layers() {
            assert!(grads.contains(layer.weight_index()));
            assert!(grads.contains(layer.bias_index()));
        }
    }
}
