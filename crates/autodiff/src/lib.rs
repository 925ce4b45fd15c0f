//! # mamdr-autodiff
//!
//! Reverse-mode automatic differentiation over [`mamdr_tensor::Tensor`].
//!
//! The MAMDR learning frameworks are *model agnostic*: they only interact
//! with a model through its loss value and its gradient with respect to a
//! flat parameter vector. This crate supplies that gradient. A model's
//! forward pass records every operation on a [`Tape`]; calling
//! [`Tape::backward`] replays the tape in reverse and accumulates adjoints
//! into a [`Grads`]: a tensor per parameter read whole, and only the touched
//! rows of each embedding table read by gather.
//!
//! The op set (~25 ops) is exactly what the ten CTR architectures in
//! `mamdr-models` need: dense layers, embedding gather, attention
//! (matmul/softmax/slice/concat), FM-style interactions
//! (mul/square/sum), dropout, normalization, and a numerically stable
//! binary-cross-entropy-with-logits loss.
//!
//! Every op's backward rule is verified against central finite differences
//! (see [`gradcheck`]) in unit and property tests.
//!
//! ```
//! use mamdr_autodiff::Tape;
//! use mamdr_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec([1, 2], vec![1.0, 2.0]));
//! let w = tape.param(0, Tensor::from_vec([2, 1], vec![0.5, -0.25]));
//! let y = tape.gemm(x, w, false, false);
//! let loss = tape.sum_all(y);
//! let grads = tape.backward(loss);
//! // d loss / d w = x
//! assert_eq!(grads[0].data(), &[1.0, 2.0]);
//! ```

pub mod gradcheck;
pub mod grads;
pub mod tape;

pub use grads::{Grads, RowGrad};
pub use tape::{Tape, Var};
