//! # mamdr-tensor
//!
//! Dense `f32` tensor math substrate for the MAMDR reproduction.
//!
//! The paper's reference implementation runs on TensorFlow; no comparable
//! training stack exists in Rust, so this crate provides the minimal-but-real
//! numeric core the rest of the workspace builds on: row-major dense tensors,
//! BLAS-free blocked matrix multiplication behind the unified
//! [`Tensor::gemm`] entry point, broadcasting elementwise arithmetic,
//! reductions, embedding gather/scatter, and the weight initializers the CTR
//! models need (Xavier/He/normal/uniform).
//!
//! Everything is deterministic given a seed: all random entry points take an
//! explicit [`rand::Rng`], and the crate exposes [`rng::seeded`] for
//! reproducible experiment pipelines. Large GEMMs split their output rows
//! across scoped threads ([`pool`]) with a fixed reduction order per
//! element, so results are bit-identical at any thread count
//! (`MAMDR_THREADS` / [`pool::set_threads`]).
//!
//! ```
//! use mamdr_tensor::{Tensor, rng};
//!
//! let mut r = rng::seeded(7);
//! let a = Tensor::randn(&mut r, [2, 3], 0.0, 1.0);
//! let b = Tensor::randn(&mut r, [3, 4], 0.0, 1.0);
//! let c = a.gemm(&b, false, false);
//! assert_eq!(c.shape(), &[2, 4]);
//! ```

pub mod gemm;
pub mod init;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use gemm::{stable_sigmoid, Act};
pub use shape::Shape;
pub use tensor::Tensor;
