//! # mamdr-models
//!
//! The CTR model zoo evaluated in the paper.
//!
//! Ten architectures, grouped as the paper's Table V does:
//!
//! * **Single-domain baselines** (no structural awareness of domains):
//!   [`single::MlpModel`], [`single::Wdl`], [`single::NeurFm`],
//!   [`single::AutoInt`], [`single::DeepFm`], plus [`single::Raw`] — the
//!   stand-in for the production model the industry experiments wrap.
//! * **Multi-task / multi-domain models** (shared + per-domain structure):
//!   [`multi::SharedBottom`], [`multi::Mmoe`], [`multi::Cgc`],
//!   [`multi::Ple`], [`multi::Star`].
//!
//! Every model implements [`model::Architecture`], and through it
//! [`model::CtrModel`]: it registers parameters in a
//! [`mamdr_nn::ParamStore`] at construction and replays one forward body,
//! generic over [`mamdr_autodiff::Recorder`], per batch — onto a
//! [`mamdr_autodiff::Tape`] to train, onto the values-only
//! [`mamdr_autodiff::Eval`] to evaluate and serve. Because the learning
//! frameworks in `mamdr-core` only touch the flat parameter vector, *any* of
//! these models can be trained by *any* framework — the paper's
//! model-agnosticism claim, exercised directly by the Table X benchmark.

pub mod config;
pub mod features;
pub mod model;
pub mod multi;
pub mod single;

pub use config::{FeatureConfig, ModelConfig, ModelKind};
pub use model::{
    build_model, eval_logits, eval_logits_into, loss_and_grads, loss_and_grads_into, predict_probs,
    Architecture, BuiltModel, CtrModel,
};
