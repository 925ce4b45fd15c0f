//! # mamdr-nn
//!
//! Neural-network building blocks for the MAMDR reproduction: a named
//! parameter store with flat-vector views, the layer primitives the CTR
//! model zoo is assembled from, and the optimizers the paper uses (SGD,
//! Adam, Adagrad).
//!
//! ## Why flat vectors?
//!
//! MAMDR's learning frameworks (Domain Negotiation, Domain Regularization,
//! PCGrad, Reptile, ...) are *model agnostic*: they treat the whole model as
//! an opaque parameter vector Θ and only perform vector algebra on it —
//! Θ ← Θ + β(Θ̃ − Θ), Θ = θS + θi, gradient inner products. The
//! [`store::ParamStore`] therefore exposes every registered tensor through a
//! single contiguous `Vec<f32>` ([`store::ParamStore::to_flat`] /
//! [`store::ParamStore::load_flat`]), and [`vecmath`] provides the
//! axpy/dot/lerp kernels the frameworks run on those vectors.

pub mod layers;
pub mod optim;
pub mod persist;
pub mod schedule;
pub mod sparse;
pub mod store;
pub mod vecmath;

pub use layers::{Activation, Dense, Embedding, ForwardCtx, Mlp};
pub use optim::{Adagrad, Adam, Moved, Optimizer, OptimizerKind, Sgd};
pub use schedule::LrSchedule;
pub use sparse::SparseGrad;
pub use store::{ParamStore, ParamStoreBuilder};
