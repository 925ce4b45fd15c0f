//! Online inference for MAMDR: frozen serving snapshots, per-domain
//! routing, batched scoring, and hot model swap.
//!
//! Training (the rest of the workspace) produces Θ = θS + θi — a shared
//! flat parameter vector plus per-domain specializations (paper Eq. 4).
//! This crate takes that artifact online:
//!
//! * [`ServingSnapshot`] — an immutable, versioned, checksummed artifact
//!   built from a [`mamdr_core::TrainedModel`] (any dense framework) or a
//!   `mamdr-ps` parameter-server checkpoint. The effective Θ_d of every
//!   domain is materialized once at load; the request path never composes.
//! * [`ScoringEngine`] — routes by domain id and supports **hot swap**: an
//!   atomically replaceable `Arc<ServingSnapshot>` where in-flight batches
//!   finish on the version they pinned and the retired snapshot is freed
//!   when its last pin drops.
//! * [`Server`] — bounded-queue admission (full ⇒ explicit rejection,
//!   per-[`SloClass`] bounds ⇒ typed shed) in front of worker threads that
//!   each take everything queued, group it by domain into a multi-domain
//!   super-batch and score the groups back to back through the same
//!   deterministic kernels as training — scores are bit-identical at any
//!   `MAMDR_THREADS` setting and however requests were batched.
//!   Per-request deadlines are enforced at pickup and again right before
//!   each forward pass.
//! * [`ReplicatedServer`] — N complete serving stacks over one shared
//!   snapshot allocation, routed by FNV-1a over the user id (the
//!   `ShardMap` discipline: reproducible, feedback-free), with hot swap
//!   propagated to every replica under one pool lock.
//! * [`PublishGate`] — the continual-publishing validation chain in front
//!   of the pool: digest → version → structure → finite → probe
//!   divergence → optional live canary slice, with byte-exact rollback to
//!   the last-good `Arc` and typed `publish_rejected_total{reason=...}`
//!   counters on every verdict.
//!
//! All serve-side telemetry (serve_* counters, queue-depth gauge, latency
//! and batch-size histograms) flows through `mamdr-obs`'s
//! [`MetricsRegistry`](mamdr_obs::MetricsRegistry).

mod engine;
mod gate;
mod replica;
mod request;
mod server;
mod snapshot;

pub use engine::{ScoringEngine, ServeMetrics};
pub use gate::{GateConfig, GateReject, PublishGate, GATE_REASONS};
pub use replica::{replica_of, ReplicatedServer};
pub use request::{Pending, Response, ScoreRequest, ServeResult, SloClass, SubmitError};
pub use server::{ServeConfig, Server};
pub use snapshot::{ModelSpec, ScoreScratch, ServingSnapshot, SnapshotError};
