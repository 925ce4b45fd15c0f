//! # mamdr-core
//!
//! The paper's primary contribution: **MAMDR**, a model-agnostic learning
//! framework for multi-domain recommendation, together with every baseline
//! framework it is compared against.
//!
//! * [`frameworks::mamdr::domain_negotiation_epoch`] — Algorithm 1: a cross-domain
//!   Reptile that mitigates *domain conflict* by implicitly maximizing
//!   gradient inner products between domains.
//! * [`frameworks::mamdr::Mamdr`] — Algorithm 3: DN for the shared
//!   parameters θS plus *Domain Regularization* (Algorithm 2) for the
//!   per-domain specific parameters θi, composed as Θ = θS + θi (Eq. 4).
//! * Baselines (paper §V-B): Alternate, Alternate+Finetune, Separate,
//!   Weighted Loss, PCGrad, first-order MAML, Reptile, MLDG.
//!
//! All frameworks implement [`frameworks::Framework`] and observe models
//! *only* through flat parameter vectors and `(loss, gradient)` pairs —
//! which is what makes them applicable to every architecture in
//! `mamdr-models` (the paper's Table X claim).
//!
//! Supporting machinery: AUC / average-RANK / logloss [`metrics`], the
//! training environment and trained-model evaluation [`env`](mod@env), experiment
//! orchestration [`experiment`], and the gradient-conflict probe
//! [`conflict`] behind Figure 3.

pub mod config;
pub mod conflict;
pub mod env;
pub mod experiment;
pub mod frameworks;
pub mod metrics;
pub mod ranking;
#[cfg(test)]
pub mod test_support;

pub use config::TrainConfig;
pub use env::{TrainEnv, TrainedModel};
pub use frameworks::{Framework, FrameworkKind};
