//! # mamdr-ps
//!
//! An in-process simulation of the paper's large-scale PS-Worker deployment
//! (§IV-E): a sharded parameter server, worker threads running the MAMDR
//! inner loop on their data partitions, and the **embedding PS-Worker
//! cache** — the static-cache / dynamic-cache pair that cuts embedding
//! synchronization traffic and bounds staleness.
//!
//! ## What is simulated, and how faithfully
//!
//! The paper runs 40 parameter servers and 400 workers over 4.9×10⁸
//! samples. Here the parameter server is an in-memory KV store holding one
//! record per row — value, Adagrad accumulator and push version behind a
//! single lookup — lock-striped over `parking_lot::RwLock`s; workers are
//! `std::thread::scope` threads, and "network traffic" is counted
//! byte-accurately on every pull/push.
//! That preserves exactly the quantities the §IV-E mechanism optimizes —
//! number of synchronizations and bytes moved — while fitting on one
//! machine (see DESIGN.md, substitution 3).
//!
//! The worker-side model is the embedding part of the RAW production model
//! (a factorization-style CTR scorer with user/item/group/category rows and
//! per-row biases) with analytic gradients, because the cache mechanism is
//! about *embedding* parameters: they are the large, sparse, actively
//! updated state the paper caches.
//!
//! ## Cache protocol (paper Fig. 7)
//!
//! * At the start of an outer round a worker's **static-cache** snapshots
//!   every parameter row it first touches; it stays frozen for the round.
//! * During the inner loop, reads hit the **dynamic-cache**; a miss pulls
//!   the *latest* row from the PS (bounding staleness), seeds both caches
//!   and counts traffic once.
//! * After the inner loop the worker pushes `dynamic − static` per touched
//!   row (the Reptile-style outer gradient of Eq. 3) and clears both caches.
//!
//! The two caches always hold the same key set, so [`WorkerCache`] keeps
//! them as two parallel slabs of one slot per row, found through a dense
//! per-table index. Reads are batch-only
//! ([`RowSource`] is `pull_rows` alone): a round prefetches its whole key
//! set in one batched pull, and a lazy miss is a one-key batch. Staleness
//! is reported by whoever orders the applies: a synchronous round reports
//! 0, and only the asynchronous in-process trainer, which owns its store,
//! reads it there.
//!
//! The `NoCache` mode pulls every row on every read and pushes every update
//! immediately — the baseline the `pscache` benchmark compares against.

pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod guard;
pub mod journal;
pub mod kv;
pub mod model;
pub mod publish;
pub mod shard;
pub mod trainer;

pub use cache::{CacheStats, OuterGrads, WorkerCache};
pub use engine::{partition_domains, run_rounds, ResumeBase, RoundTransport};
pub use guard::{outer_grad_norm, GuardConfig, GuardRail, GuardVerdict};
pub use journal::RoundJournal;
pub use kv::{
    ParamKey, ParameterServer, RowSource, TimedRowSource, TrafficStats, LOCK_STRIPES,
    WIRE_BATCH_KEYS,
};
pub use publish::{
    latest_snapshot, snapshot_path, ContinualPublisher, PublishOutcome, PublisherFaults,
    SNAPSHOT_EXT,
};
pub use shard::{
    latest_manifest, load_manifest_state, merge_stores, route_chunks, shard_dir, ManifestState,
    ShardFiles, ShardManifest, ShardMap, MANIFEST_EXT,
};
pub use trainer::{
    evaluate_server, partition_keys, run_cached_round, run_cached_round_timed, seed_server,
    worker_round_seed, CachedRoundOutput, DistributedConfig, DistributedMamdr, DistributedReport,
    RoundTime, StoreSnapshot, SyncMode,
};
