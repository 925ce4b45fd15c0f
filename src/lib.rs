//! # mamdr
//!
//! A from-scratch Rust reproduction of **MAMDR: A Model Agnostic Learning
//! Framework for Multi-Domain Recommendation** (Luo et al., ICDE 2023).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense f32 tensor math.
//! * [`autodiff`] — reverse-mode autodiff tape.
//! * [`nn`] — parameter store, layers, optimizers.
//! * [`models`] — the ten CTR architectures of the paper's tables.
//! * [`data`] — synthetic MDR benchmark datasets (Amazon/Taobao presets).
//! * [`core`] — the MAMDR frameworks (DN, DR, MAMDR) and baselines,
//!   metrics and experiment orchestration.
//! * [`ps`] — the PS-Worker distributed-training simulation with the
//!   embedding static/dynamic cache.
//! * [`obs`] — unified telemetry: metrics registry, event log, observers.
//! * [`serve`] — online inference: frozen serving snapshots, per-domain
//!   routing, multi-domain batched scoring, replicated engines and hot
//!   model swap.
//! * [`load`] — seeded arrival traces for open-loop load: Zipf users and
//!   domains, diurnal Poisson arrivals, an interactive/bulk SLO split.
//! * [`rpc`] — the networked PS–worker runtime: checksummed TCP wire
//!   protocol, retrying clients, deterministic fault injection, and a
//!   loopback distributed trainer.
//!
//! ## Quickstart
//!
//! ```
//! use mamdr::prelude::*;
//!
//! // A small two-domain dataset, an MLP, and MAMDR training.
//! let mut gen = GeneratorConfig::base("demo", 60, 40, 7);
//! gen.domains = vec![DomainSpec::new("a", 300, 0.3), DomainSpec::new("b", 200, 0.4)];
//! let ds = gen.generate();
//! let result = run_experiment(
//!     &ds,
//!     ModelKind::Mlp,
//!     &ModelConfig::tiny(),
//!     FrameworkKind::Mamdr,
//!     TrainConfig::quick(),
//! );
//! assert_eq!(result.domain_auc.len(), 2);
//! ```

pub use mamdr_autodiff as autodiff;
pub use mamdr_core as core;
pub use mamdr_data as data;
pub use mamdr_load as load;
pub use mamdr_models as models;
pub use mamdr_nn as nn;
pub use mamdr_obs as obs;
pub use mamdr_ps as ps;
pub use mamdr_rpc as rpc;
pub use mamdr_serve as serve;
pub use mamdr_tensor as tensor;

/// The most common imports for experiments.
pub mod prelude {
    pub use mamdr_core::experiment::{run as run_experiment, run_many, RunResult};
    pub use mamdr_core::metrics::{auc, average_rank, logloss, mean};
    pub use mamdr_core::{Framework, FrameworkKind, TrainConfig, TrainEnv, TrainedModel};
    pub use mamdr_data::presets::{amazon13, amazon6, industry, taobao};
    pub use mamdr_data::{
        Batch, DomainData, DomainSpec, GeneratorConfig, Interaction, MdrDataset, Split,
    };
    pub use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
    pub use mamdr_nn::{Optimizer, OptimizerKind, ParamStore};
    pub use mamdr_obs::MetricsRegistry;
    pub use mamdr_ps::{DistributedConfig, DistributedMamdr, SyncMode};
    pub use mamdr_rpc::{DistributedTrainer, FaultPlan, LoopbackConfig};
    pub use mamdr_serve::{
        ModelSpec, ScoreRequest, ScoringEngine, ServeConfig, ServeResult, Server, ServingSnapshot,
    };
    pub use mamdr_tensor::{rng, Tensor};
}
