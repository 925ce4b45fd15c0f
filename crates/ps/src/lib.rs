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
//! samples. Here the parameter server is an in-memory KV store: one slab of
//! rows — keys, values, Adagrad accumulators and push versions in slot
//! order, found through one open-addressed index — behind one
//! `parking_lot::RwLock` that every batch takes once; workers are
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
//! A worker's round is three calls:
//!
//! 1. [`partition_keys`] — every row its partition's examples touch, in
//!    `(table, row)` order;
//! 2. one batched pull of those keys, the round's only I/O: in process
//!    [`ParameterServer::pull_flat`], over the wire one `PullMany` per
//!    shard chunk;
//! 3. [`run_cached_round`], a compute on the pulled rows that takes no
//!    store and reads no clock. The pulled values seed the **static-cache**
//!    (frozen for the round) and the **dynamic-cache** (the inner loop's
//!    reads and SGD updates); the round ends by returning
//!    `dynamic − static` per pulled row (the Reptile-style outer gradient
//!    of Eq. 3).
//!
//! The two caches always hold the same key set, so [`WorkerCache`] keeps
//! them as two parallel slabs of one slot per row, found through a dense
//! per-table index. The key set is exact, so every read is a hit and a
//! read outside the batch panics naming its key.
//!
//! Workers only read. The driver is the one writer in every mode: after
//! the round joins it applies every worker's gradients, in worker order
//! for a synchronous round and in a seeded permutation of the workers
//! otherwise, so every run is a function of its seed. Staleness is counted
//! where the applies are ordered, in [`engine::run_rounds`]: an update's
//! staleness is how many earlier updates of its round touched its rows.
//!
//! The `NoCache` mode pulls every row on every read and pushes every update
//! immediately — the baseline the `pscache` benchmark compares against. Its
//! workers run one after another on the driver's thread.

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
pub use kv::{ParamKey, ParameterServer, SlotIndex, TrafficStats, WIRE_BATCH_KEYS};
pub use publish::{
    latest_snapshot, snapshot_path, ContinualPublisher, PublishOutcome, PublisherFaults,
    SNAPSHOT_EXT,
};
pub use shard::{
    latest_manifest, load_manifest_state, merge_stores, route_chunks, shard_dir, ManifestState,
    ShardFiles, ShardManifest, ShardMap, MANIFEST_EXT,
};
pub use trainer::{
    evaluate_server, partition_keys, run_cached_round, seed_server, worker_round_seed,
    CachedRoundOutput, DistributedConfig, DistributedMamdr, DistributedReport, RoundTime,
    StoreSnapshot, SyncMode,
};
