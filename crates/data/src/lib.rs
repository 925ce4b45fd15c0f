//! # mamdr-data
//!
//! Multi-domain recommendation (MDR) benchmark datasets.
//!
//! The paper evaluates on Amazon product-review and Taobao cloud-theme click
//! logs plus a private industry dataset — none of which can ship with this
//! repository. Following the substitution rule in `DESIGN.md`, this crate
//! generates *synthetic* datasets from a ground-truth multi-domain click
//! model that preserves the phenomena the paper's experiments probe:
//!
//! * **Partially overlapping users/items** across domains (shared latent
//!   factors, per-domain sub-populations).
//! * **Domain conflict**: each domain scores a user–item pair through its own
//!   mixing matrix `A_d`; a conflict knob interpolates between identical
//!   (`A_d = A`) and fully independent transforms, which directly controls
//!   how far apart per-domain gradients point.
//! * **Data sparsity**: per-domain sample counts are taken from the paper's
//!   Tables II–IV (scaled), including the seven sparse Amazon-13 domains.
//! * **CTR skew**: per-domain positive/negative ratios replicate the paper's
//!   `CTR Ratio` rows (Eq. 23).
//!
//! Presets mirror the paper's benchmarks: [`presets::amazon6`],
//! [`presets::amazon13`], [`presets::taobao`] (10/20/30) and
//! [`presets::industry`] (long-tailed many-domain set standing in for
//! Taobao-online).

pub mod batch;
pub mod generator;
pub mod io;
pub mod presets;
pub mod stats;
pub mod types;

pub use batch::{batches_for_domain, first_batches_for_domain, make_batch, BatchPlan};
pub use generator::{DomainSpec, GeneratorConfig, GroundTruth};
pub use types::{Batch, DomainData, Interaction, MdrDataset, Split};
