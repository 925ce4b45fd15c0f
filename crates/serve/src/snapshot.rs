//! The frozen serving artifact: an immutable, versioned snapshot of a
//! trained model, composed per domain once at load.
//!
//! Training produces Θ = θS + θi (paper Eq. 4): one shared flat vector plus
//! per-domain specializations. Serving must not pay the composition on the
//! request path, so a [`ServingSnapshot`] materializes the effective Θ_d of
//! every domain into its own [`ParamStore`] at construction and stays
//! immutable afterwards — scoring threads share it through an `Arc` with no
//! locks and no copies.
//!
//! Two backends cover the repo's two training paths:
//!
//! * **Dense** — a [`TrainedModel`] from any `mamdr-core` framework plus
//!   the [`ModelSpec`] needed to rebuild the architecture.
//! * **Embedding** — the RAW embedding scorer state of the `mamdr-ps`
//!   distributed trainer, loaded from a parameter server (or a checkpoint
//!   via [`mamdr_ps::checkpoint`]).
//!
//! The embedding backend is one flat slab, in the file's own order:
//!
//! ```text
//! keys    [k0 < k1 < … < k(n-1)]            (table, row)-ascending
//! values  [v0 ‖ v1 ‖ … ‖ v(n-1)]            dim floats per row
//! index   [slot+1 or 0; 2^b ≥ 4n/3 entries] open addressing
//! ```
//!
//! The index is the parameter server's own [`SlotIndex`]: a key's home
//! bucket is the top `b` bits of its Fibonacci hash
//! ([`ParamKey::fib_hash`]) and a lookup probes linearly until it meets
//! the key's slot or an empty bucket; the index is never more than
//! three-quarters full, so a miss — a cold row, which scores as zeros —
//! ends at a short run. Building the
//! slab copies each value once ([`ParameterServer::dump_flat`]); encoding
//! writes straight from it and decoding reads straight into it.
//!
//! On-disk format (little-endian), the workspace's digest envelope from
//! `mamdr_util::codec`, so a flipped bit anywhere in the file is a load
//! error and every count is checked against the bytes before it sizes an
//! allocation:
//!
//! ```text
//! magic "MAMDRSV2"
//! payload (backend-tagged, see `encode`)
//! u64 XXH64 (seed 0) digest of the payload
//! ```
//!
//! An embedding payload's rows are strictly key-ascending; a file whose
//! rows are not (a duplicated or reordered row, even under a valid digest)
//! is [`SnapshotError::Corrupt`].

use crate::request::ScoreRequest;
use mamdr_autodiff::tape::stable_sigmoid;
use mamdr_autodiff::EvalScratch;
use mamdr_core::env::DomainParams;
use mamdr_core::TrainedModel;
use mamdr_data::Batch;
use mamdr_models::{
    build_model, eval_logits_into, CtrModel, FeatureConfig, ModelConfig, ModelKind,
};
use mamdr_nn::ParamStore;
use mamdr_ps::{model as ps_model, ParamKey, ParameterServer, SlotIndex};
use mamdr_tensor::Tensor;
use mamdr_util::codec::{self, CodecError};
use mamdr_util::Checksum;
use std::path::Path;

/// Version 2: the envelope digest is XXH64 (version 1, FNV-1a, is
/// refused). The payload bytes are version 1's.
const MAGIC: &[u8; 8] = b"MAMDRSV2";

/// Parameter-store init seed when rebuilding a model whose values are then
/// overwritten from the snapshot; any constant works, it never leaks into
/// served scores.
const REBUILD_SEED: u64 = 0x5EED;

/// A snapshot error.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a valid snapshot (bad magic, framing, checksum).
    Corrupt(String),
    /// The snapshot is well-formed but inconsistent with itself or the
    /// model it describes (wrong flat length, bad domain count, ...).
    Invalid(String),
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => SnapshotError::Io(e),
            CodecError::Corrupt(m) => SnapshotError::Corrupt(m),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::Invalid(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Everything needed to rebuild a dense architecture for serving.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The architecture.
    pub kind: ModelKind,
    /// Feature-space sizes the model embeds.
    pub features: FeatureConfig,
    /// Architecture hyper-parameters.
    pub config: ModelConfig,
    /// Number of domains the model routes between.
    pub n_domains: usize,
}

enum Backend {
    /// A dense CTR model; `domains[d]` holds the materialized Θ_d.
    Dense {
        spec: ModelSpec,
        model: Box<dyn CtrModel>,
        domains: Vec<ParamStore>,
        /// Kept in training form (θS + per-domain θi) for re-serialization.
        trained: TrainedModel,
    },
    /// The RAW embedding scorer of the distributed PS trainer, as one flat
    /// slab: row `i` is `keys[i]` with value `values[i * dim..][..dim]`,
    /// found through `index` (see the module docs and [`SlotIndex`]).
    Embedding {
        dim: usize,
        n_domains: usize,
        keys: Vec<ParamKey>,
        values: Vec<f32>,
        index: SlotIndex,
    },
}

/// What a scoring worker reuses from one forward pass to the next: the
/// request batch's feature columns and the evaluation recorder's buffers.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    batch: Batch,
    eval: EvalScratch,
}

/// An immutable, versioned serving artifact.
///
/// All scoring is forward-only — the model's one forward body on the
/// values-only recorder, no parameter copied and nothing recorded — and
/// bit-deterministic at any kernel thread count: the same guarantee the
/// training-side kernels make, inherited here because serving runs the
/// training forward's arithmetic.
pub struct ServingSnapshot {
    version: u64,
    backend: Backend,
}

impl std::fmt::Debug for ServingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServingSnapshot({})", self.describe())
    }
}

impl ServingSnapshot {
    /// Builds a snapshot from a trained model, materializing Θ_d per domain.
    pub fn from_trained(
        version: u64,
        spec: ModelSpec,
        trained: TrainedModel,
    ) -> Result<Self, SnapshotError> {
        if spec.n_domains == 0 {
            return Err(SnapshotError::Invalid("snapshot needs at least one domain".into()));
        }
        let n = match &trained.domains {
            DomainParams::SharedOnly => spec.n_domains,
            DomainParams::Deltas(d) => d.len(),
            DomainParams::Full(d) => d.len(),
        };
        if n != spec.n_domains {
            return Err(SnapshotError::Invalid(format!(
                "trained model has {} domain parameterizations, spec says {}",
                n, spec.n_domains
            )));
        }
        let built =
            build_model(spec.kind, &spec.features, &spec.config, spec.n_domains, REBUILD_SEED);
        if built.params.n_scalars() != trained.shared.len() {
            return Err(SnapshotError::Invalid(format!(
                "flat vector has {} scalars, rebuilt {} expects {}",
                trained.shared.len(),
                spec.kind.name(),
                built.params.n_scalars()
            )));
        }
        let domains = (0..spec.n_domains)
            .map(|d| {
                let mut store = built.params.clone();
                store.load_flat(&trained.flat_for(d));
                store
            })
            .collect();
        Ok(ServingSnapshot {
            version,
            backend: Backend::Dense { spec, model: built.model, domains, trained },
        })
    }

    /// Builds an embedding snapshot from a live parameter server: one
    /// silent, key-sorted copy of every row ([`ParameterServer::dump_flat`])
    /// plus its index. The store is only read.
    ///
    /// `n_domains` bounds the domain-bias table; rows a cold row lookup
    /// misses score as zeros, matching the PS trainer's cold-start behavior.
    ///
    /// Panics if a stored row is not [`ParameterServer::value_dim`] wide.
    pub fn from_ps(version: u64, ps: &ParameterServer, n_domains: usize) -> Self {
        let (keys, values) = ps.dump_flat();
        let index = SlotIndex::build(&keys);
        let dim = ps.value_dim();
        ServingSnapshot {
            version,
            backend: Backend::Embedding { dim, n_domains, keys, values, index },
        }
    }

    /// Builds an embedding snapshot from the newest checkpoint in `dir`
    /// (discovered via [`mamdr_ps::checkpoint::latest_checkpoint`]).
    /// Returns `Ok(None)` when the directory holds no checkpoint.
    pub fn from_ps_checkpoint_dir(
        version: u64,
        dir: &Path,
        n_domains: usize,
    ) -> Result<Option<Self>, SnapshotError> {
        let path = mamdr_ps::checkpoint::latest_checkpoint(dir, None)
            .map_err(|e| SnapshotError::Invalid(format!("checkpoint discovery: {e}")))?;
        let Some(path) = path else { return Ok(None) };
        let ps = mamdr_ps::checkpoint::load_from_path(&path)
            .map_err(|e| SnapshotError::Corrupt(format!("{}: {e}", path.display())))?;
        Ok(Some(Self::from_ps(version, &ps, n_domains)))
    }

    /// The snapshot's version (monotonically increasing by publisher
    /// convention; the engine tags every response with it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of domains this snapshot can route.
    pub fn n_domains(&self) -> usize {
        match &self.backend {
            Backend::Dense { spec, .. } => spec.n_domains,
            Backend::Embedding { n_domains, .. } => *n_domains,
        }
    }

    /// True when a request's score does not depend on the other requests
    /// of its forward pass: a batched pickup then scores it bit-identically
    /// to a direct batch-of-1 call. The embedding scorer looks rows up one
    /// by one; a dense model answers by its kind
    /// ([`ModelKind::scores_rows_independently`]).
    pub(crate) fn scores_rows_independently(&self) -> bool {
        match &self.backend {
            Backend::Dense { spec, .. } => spec.kind.scores_rows_independently(),
            Backend::Embedding { .. } => true,
        }
    }

    /// A short human-readable description of the scorer.
    pub fn describe(&self) -> String {
        match &self.backend {
            Backend::Dense { spec, domains, .. } => format!(
                "{} v{} ({} domains, {} params/domain)",
                spec.kind.name(),
                self.version,
                spec.n_domains,
                domains[0].n_scalars()
            ),
            Backend::Embedding { dim, n_domains, keys, .. } => format!(
                "RAW-embedding v{} ({} domains, {} rows × {})",
                self.version,
                n_domains,
                keys.len(),
                dim
            ),
        }
    }

    /// Validates a request against this snapshot's feature spaces.
    pub fn validate(&self, req: &ScoreRequest) -> Result<(), String> {
        if req.domain >= self.n_domains() {
            return Err(format!("domain {} out of range ({})", req.domain, self.n_domains()));
        }
        if let Backend::Dense { spec, .. } = &self.backend {
            let f = &spec.features;
            if req.user as usize >= f.n_users {
                return Err(format!("user {} out of range ({})", req.user, f.n_users));
            }
            if req.item as usize >= f.n_items {
                return Err(format!("item {} out of range ({})", req.item, f.n_items));
            }
            if req.user_group as usize >= f.n_user_groups {
                return Err(format!("user_group {} out of range", req.user_group));
            }
            if req.item_cat as usize >= f.n_item_cats {
                return Err(format!("item_cat {} out of range", req.item_cat));
            }
            for (name, dense) in [("dense_user", &req.dense_user), ("dense_item", &req.dense_item)]
            {
                let got = dense.as_ref().map_or(0, |v| v.len());
                if got != f.dense_dim {
                    return Err(format!("{name} has {got} values, model expects {}", f.dense_dim));
                }
            }
        }
        Ok(())
    }

    /// Scores a micro-batch of same-domain requests, returning one pCTR per
    /// request (in order).
    ///
    /// Requests must already be validated and share `domain`. Forward-only:
    /// dropout off, no gradients. Per-request scores do not depend on how
    /// requests were coalesced for every row-independent architecture
    /// (everything except STAR's partitioned normalization, which uses
    /// micro-batch statistics — see DESIGN §7).
    pub fn score(&self, domain: usize, reqs: &[ScoreRequest]) -> Vec<f32> {
        let mut scores = Vec::new();
        self.score_into(domain, reqs, &mut ScoreScratch::default(), &mut scores);
        scores
    }

    /// [`score`](Self::score) into `out` (cleared first), reusing
    /// `scratch`: a worker that keeps both across batches allocates nothing
    /// per batch in the recorder or the batch assembly.
    pub fn score_into(
        &self,
        domain: usize,
        reqs: &[ScoreRequest],
        scratch: &mut ScoreScratch,
        out: &mut Vec<f32>,
    ) {
        assert!(domain < self.n_domains(), "unvalidated domain routed to score()");
        out.clear();
        if reqs.is_empty() {
            return;
        }
        match &self.backend {
            Backend::Dense { spec, model, domains, .. } => {
                assemble_batch(&mut scratch.batch, &spec.features, domain, reqs);
                let ps = &domains[domain];
                eval_logits_into(model.as_ref(), ps, &scratch.batch, &mut scratch.eval, out);
                out.iter_mut().for_each(|z| *z = stable_sigmoid(*z));
            }
            Backend::Embedding { dim, keys, values, index, .. } => {
                let zero = vec![0.0f32; *dim];
                let row = |key: ParamKey| match index.find(keys, key) {
                    Some(slot) => row_at(values, *dim, slot),
                    None => &zero,
                };
                out.extend(reqs.iter().map(|r| {
                    let keys = ps_model::ExampleKeys::new(
                        r.user,
                        r.item,
                        r.user_group,
                        r.item_cat,
                        domain as u32,
                    );
                    let raw = ps_model::score(
                        row(keys.user),
                        row(keys.item),
                        row(keys.ugroup),
                        row(keys.icat),
                        row(keys.bias),
                    );
                    ps_model::sigmoid(raw)
                }));
            }
        }
    }

    /// Commits the snapshot to a file through [`codec::write_atomic`]
    /// (staging file, fsync, rename): a crash at any earlier byte leaves
    /// only the staging file, which no loader or watcher opens.
    pub fn save_to_path(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)?;
        codec::write_atomic(path, &bytes)?;
        Ok(())
    }

    /// Reads a snapshot file written by [`save_to_path`](Self::save_to_path).
    pub fn load_from_path(path: &Path) -> Result<Self, SnapshotError> {
        Self::read_from(&std::fs::read(path)?)
    }

    /// Verifies every served parameter is finite. This is the gate-side
    /// twin of `ps::guard`'s non-finite update check: a poisoned round
    /// that slipped past (or ran without) the training guard is caught
    /// here, before the snapshot can reach traffic.
    pub fn check_finite(&self) -> Result<(), String> {
        match &self.backend {
            Backend::Dense { spec, trained, .. } => {
                if let Some(i) = trained.shared.iter().position(|v| !v.is_finite()) {
                    return Err(format!("shared parameter {i} is not finite"));
                }
                for d in 0..spec.n_domains {
                    if let Some(i) = trained.flat_for(d).iter().position(|v| !v.is_finite()) {
                        return Err(format!("domain {d} parameter {i} is not finite"));
                    }
                }
            }
            Backend::Embedding { dim, keys, values, .. } => {
                let poisoned = (0..keys.len())
                    .find(|&slot| row_at(values, *dim, slot).iter().any(|x| !x.is_finite()));
                if let Some(slot) = poisoned {
                    let k = keys[slot];
                    return Err(format!(
                        "row (table {}, row {}) has non-finite values",
                        k.table, k.row
                    ));
                }
            }
        }
        Ok(())
    }

    /// A fixed probe set derived from `seed`: `per_domain` requests per
    /// domain, every one valid against this snapshot's feature spaces.
    /// Purely a function of `(seed, feature spaces)`, so two snapshots with
    /// the same spec yield the *same* requests — the publish gate scores
    /// one set on both candidate and incumbent and bounds the divergence.
    pub fn probe_requests(&self, seed: u64, per_domain: usize) -> Vec<ScoreRequest> {
        let (n_users, n_items, n_groups, n_cats, dense_dim) = match &self.backend {
            Backend::Dense { spec, .. } => {
                let f = &spec.features;
                (
                    f.n_users as u32,
                    f.n_items as u32,
                    f.n_user_groups as u32,
                    f.n_item_cats as u32,
                    f.dense_dim,
                )
            }
            // The embedding scorer has no id bounds (cold rows score as
            // zeros); a fixed synthetic space keeps probes deterministic.
            Backend::Embedding { .. } => (1 << 20, 1 << 20, 64, 64, 0),
        };
        let mix = |d: usize, k: usize, salt: u64| -> u32 {
            let mut c = Checksum::new();
            c.update(&seed.to_le_bytes());
            c.update(&(d as u64).to_le_bytes());
            c.update(&(k as u64).to_le_bytes());
            c.update(&salt.to_le_bytes());
            (c.digest() & 0xffff_ffff) as u32
        };
        let mut out = Vec::with_capacity(self.n_domains() * per_domain);
        for d in 0..self.n_domains() {
            for k in 0..per_domain {
                let mut req = ScoreRequest::new(
                    d,
                    mix(d, k, 1) % n_users.max(1),
                    mix(d, k, 2) % n_items.max(1),
                    mix(d, k, 3) % n_groups.max(1),
                    mix(d, k, 4) % n_cats.max(1),
                );
                if dense_dim > 0 {
                    let dense = |salt0: u64| {
                        (0..dense_dim)
                            .map(|j| {
                                mix(d, k, salt0 + j as u64) as f32 / u32::MAX as f32 * 2.0 - 1.0
                            })
                            .collect::<Vec<f32>>()
                    };
                    req.dense_user = Some(dense(1000));
                    req.dense_item = Some(dense(2000));
                }
                out.push(req);
            }
        }
        out
    }

    /// Serializes the snapshot (payload + trailing checksum), appending it
    /// to `out` in place: no buffer of its own and no copy, and nothing is
    /// written on error.
    pub fn write_to(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        match &self.backend {
            Backend::Dense { spec, trained, .. } => {
                let (mode, per_domain): (u8, &[Vec<f32>]) = match &trained.domains {
                    DomainParams::SharedOnly => (0, &[]),
                    DomainParams::Deltas(d) => (1, d),
                    DomainParams::Full(d) => (2, d),
                };
                let flat = trained.shared.len();
                if per_domain.iter().any(|v| v.len() != flat) {
                    return Err(SnapshotError::Invalid(
                        "per-domain vector length != shared length".into(),
                    ));
                }
                let (f, c) = (&spec.features, &spec.config);
                codec::seal_sized(out, MAGIC, 0, |w| {
                    w.u8(0).u64(self.version).u8(kind_id(spec.kind));
                    for v in [f.n_users, f.n_items, f.n_user_groups, f.n_item_cats, f.dense_dim] {
                        w.u32(v as u32);
                    }
                    w.u32(c.embed_dim as u32).u32(c.hidden.len() as u32);
                    for &h in &c.hidden {
                        w.u32(h as u32);
                    }
                    w.f32(c.dropout);
                    for v in [c.n_experts, c.att_dim, c.att_heads, c.att_layers, spec.n_domains] {
                        w.u32(v as u32);
                    }
                    w.u8(mode).u64(flat as u64).f32s(&trained.shared);
                    for v in per_domain {
                        w.f32s(v);
                    }
                });
            }
            Backend::Embedding { dim, n_domains, keys, values, .. } => {
                // The slab is key-sorted: identical states produce
                // byte-identical files.
                // Tag, version, dim, domain count and row count, then rows.
                let body_len = 25 + keys.len() * (8 + 4 * dim);
                codec::seal_sized(out, MAGIC, body_len, |w| {
                    w.u8(1).u64(self.version).u32(*dim as u32).u32(*n_domains as u32);
                    w.u64(keys.len() as u64);
                    for (slot, key) in keys.iter().enumerate() {
                        key.write_to(w);
                        w.f32s(row_at(values, *dim, slot));
                    }
                });
            }
        }
        Ok(())
    }

    /// Deserializes a snapshot from its bytes in place, verifying the
    /// checksum before parsing.
    pub fn read_from(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = codec::open(MAGIC, bytes)?;
        let tag = r.u8()?;
        let version = r.u64()?;
        match tag {
            0 => {
                let kind_id = r.u8()?;
                let kind = *ModelKind::ALL
                    .get(kind_id as usize)
                    .ok_or_else(|| r.corrupt(format!("unknown model kind id {kind_id}")))?;
                let features = FeatureConfig {
                    n_users: r.u32()? as usize,
                    n_items: r.u32()? as usize,
                    n_user_groups: r.u32()? as usize,
                    n_item_cats: r.u32()? as usize,
                    dense_dim: r.u32()? as usize,
                };
                let embed_dim = r.u32()? as usize;
                let n_hidden = r.u32()?;
                if n_hidden > 64 {
                    return Err(r.corrupt(format!("absurd hidden count {n_hidden}")).into());
                }
                let config = ModelConfig {
                    embed_dim,
                    hidden: r.counted(n_hidden as u64, 4, |r| Ok(r.u32()? as usize))?,
                    dropout: r.f32()?,
                    n_experts: r.u32()? as usize,
                    att_dim: r.u32()? as usize,
                    att_heads: r.u32()? as usize,
                    att_layers: r.u32()? as usize,
                };
                let n_domains = r.u32()?;
                let mode = r.u8()?;
                let flat_len = r.u64()?;
                let shared = r.f32s(flat_len)?;
                let mut per_domain =
                    || r.counted(n_domains as u64, 4 * flat_len, |r| r.f32s(flat_len));
                let domains = match mode {
                    0 => DomainParams::SharedOnly,
                    1 => DomainParams::Deltas(per_domain()?),
                    2 => DomainParams::Full(per_domain()?),
                    m => return Err(r.corrupt(format!("unknown domain mode {m}")).into()),
                };
                r.finish()?;
                let spec = ModelSpec { kind, features, config, n_domains: n_domains as usize };
                Self::from_trained(version, spec, TrainedModel { shared, domains })
            }
            1 => {
                let dim = r.u32()?;
                let n_domains = r.u32()? as usize;
                let n_rows = r.u64()?;
                let n_rows = r.count(n_rows, 8 + 4 * dim as u64)?;
                let mut keys: Vec<ParamKey> = Vec::with_capacity(n_rows);
                let mut values = Vec::with_capacity(n_rows * dim as usize);
                for _ in 0..n_rows {
                    let key = ParamKey::read_from(&mut r)?;
                    if let Some(&prev) = keys.last().filter(|&&prev| prev >= key) {
                        return Err(r
                            .corrupt(format!("row {key:?} does not follow row {prev:?}"))
                            .into());
                    }
                    keys.push(key);
                    r.f32s_into(dim as u64, &mut values)?;
                }
                r.finish()?;
                let index = SlotIndex::build(&keys);
                let backend =
                    Backend::Embedding { dim: dim as usize, n_domains, keys, values, index };
                Ok(ServingSnapshot { version, backend })
            }
            t => Err(r.corrupt(format!("unknown backend tag {t}")).into()),
        }
    }
}

/// Refills `batch` with a same-domain request slice, reusing its buffers.
///
/// The labels stay empty: serving never reads them, and a forward pass
/// consumes only the feature side.
fn assemble_batch(
    batch: &mut Batch,
    features: &FeatureConfig,
    domain: usize,
    reqs: &[ScoreRequest],
) {
    batch.domain = domain;
    let ids = |column: &mut Vec<u32>, pick: fn(&ScoreRequest) -> u32| {
        column.clear();
        column.extend(reqs.iter().map(pick));
    };
    ids(&mut batch.users, |r| r.user);
    ids(&mut batch.items, |r| r.item);
    ids(&mut batch.user_groups, |r| r.user_group);
    ids(&mut batch.item_cats, |r| r.item_cat);
    let dim = features.dense_dim;
    let dense = |side: &mut Option<Tensor>, pick: fn(&ScoreRequest) -> &Option<Vec<f32>>| {
        if dim == 0 {
            *side = None;
            return;
        }
        let t = side.get_or_insert_with(Tensor::empty);
        t.reset(&[reqs.len(), dim]);
        for (row, r) in t.data_mut().chunks_exact_mut(dim).zip(reqs) {
            row.copy_from_slice(pick(r).as_ref().expect("validated dense features"));
        }
    };
    dense(&mut batch.dense_user, |r| &r.dense_user);
    dense(&mut batch.dense_item, |r| &r.dense_item);
}

/// Row `slot` of a flat `dim`-wide slab.
fn row_at(values: &[f32], dim: usize, slot: usize) -> &[f32] {
    &values[slot * dim..(slot + 1) * dim]
}

fn kind_id(kind: ModelKind) -> u8 {
    ModelKind::ALL.iter().position(|&k| k == kind).expect("kind in registry") as u8
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for the crate's unit tests.
    use super::*;
    use mamdr_tensor::rng::seeded;
    use rand::Rng;

    /// A tiny 2-domain MLP snapshot whose weights derive from `version`,
    /// so different versions produce different scores.
    pub fn tiny_dense_snapshot(version: u64) -> ServingSnapshot {
        tiny_dense_snapshot_over(version, 2)
    }

    /// [`tiny_dense_snapshot`] over `n_domains` domains.
    pub fn tiny_dense_snapshot_over(version: u64, n_domains: usize) -> ServingSnapshot {
        tiny_snapshot_of(ModelKind::Mlp, version, n_domains)
    }

    /// [`tiny_dense_snapshot_over`] of any architecture.
    pub fn tiny_snapshot_of(kind: ModelKind, version: u64, n_domains: usize) -> ServingSnapshot {
        let spec = ModelSpec {
            kind,
            features: FeatureConfig {
                n_users: 30,
                n_items: 20,
                n_user_groups: 4,
                n_item_cats: 5,
                dense_dim: 0,
            },
            config: ModelConfig::tiny(),
            n_domains,
        };
        let built =
            build_model(spec.kind, &spec.features, &spec.config, spec.n_domains, REBUILD_SEED);
        let n = built.params.n_scalars();
        let mut rng = seeded(version.wrapping_mul(1000) + 17);
        let shared: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let deltas = (0..spec.n_domains)
            .map(|_| (0..n).map(|_| rng.gen_range(-0.1..0.1)).collect())
            .collect();
        let trained = TrainedModel { shared, domains: DomainParams::Deltas(deltas) };
        ServingSnapshot::from_trained(version, spec, trained).expect("fixture is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_tensor::rng::seeded;
    use rand::Rng;

    fn spec(n_domains: usize) -> ModelSpec {
        ModelSpec {
            kind: ModelKind::Mlp,
            features: FeatureConfig {
                n_users: 30,
                n_items: 20,
                n_user_groups: 4,
                n_item_cats: 5,
                dense_dim: 0,
            },
            config: ModelConfig::tiny(),
            n_domains,
        }
    }

    fn trained(spec: &ModelSpec, seed: u64) -> TrainedModel {
        let built =
            build_model(spec.kind, &spec.features, &spec.config, spec.n_domains, REBUILD_SEED);
        let mut rng = seeded(seed);
        let n = built.params.n_scalars();
        let shared: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let deltas = (0..spec.n_domains)
            .map(|_| (0..n).map(|_| rng.gen_range(-0.1..0.1)).collect())
            .collect();
        TrainedModel { shared, domains: DomainParams::Deltas(deltas) }
    }

    fn request(domain: usize, i: u32) -> ScoreRequest {
        ScoreRequest {
            domain,
            user: i % 30,
            item: i % 20,
            user_group: i % 4,
            item_cat: i % 5,
            dense_user: None,
            dense_item: None,
        }
    }

    #[test]
    fn dense_roundtrip_scores_bit_identically() {
        let spec = spec(2);
        let tm = trained(&spec, 7);
        let snap = ServingSnapshot::from_trained(3, spec, tm).unwrap();
        let reqs: Vec<ScoreRequest> = (0..9).map(|i| request(1, i)).collect();
        let before = snap.score(1, &reqs);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let loaded = ServingSnapshot::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.version(), 3);
        assert_eq!(loaded.n_domains(), 2);
        let after = loaded.score(1, &reqs);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&before), bits(&after));
        assert!(before.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn domains_score_differently_under_deltas() {
        let spec = spec(2);
        let tm = trained(&spec, 11);
        let snap = ServingSnapshot::from_trained(1, spec, tm).unwrap();
        let reqs: Vec<ScoreRequest> = (0..6).map(|i| request(0, i)).collect();
        let d0 = snap.score(0, &reqs);
        let d1 = snap.score(1, &reqs);
        assert_ne!(d0, d1, "per-domain deltas must change scores");
    }

    #[test]
    fn any_corrupted_byte_is_detected() {
        let spec = spec(1);
        let tm = trained(&spec, 3);
        let snap = ServingSnapshot::from_trained(1, spec, tm).unwrap();
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        // Flip one byte at a spread of positions across the whole file —
        // header, payload and checksum alike must all be caught.
        for pos in (0..buf.len()).step_by(buf.len() / 37 + 1) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(
                ServingSnapshot::read_from(bad.as_slice()).is_err(),
                "corruption at byte {pos} went undetected"
            );
        }
        // Truncation too.
        let mut short = buf.clone();
        short.truncate(buf.len() - 9);
        assert!(ServingSnapshot::read_from(short.as_slice()).is_err());
    }

    /// A deliberately tiny embedding snapshot (~150 bytes on disk) so the
    /// every-byte-offset property tests below stay O(n²)-cheap.
    fn tiny_embedding_snapshot(version: u64) -> ServingSnapshot {
        let ps = ParameterServer::new(1, 2);
        for t in 0..2u32 {
            for row in 0..3u32 {
                ps.init_row(ParamKey::new(t, row), vec![0.25 * t as f32, 0.1 * row as f32]);
            }
        }
        ServingSnapshot::from_ps(version, &ps, 2)
    }

    #[test]
    fn truncated_snapshot_is_rejected_at_every_byte_offset() {
        // Property over ALL partial-write shapes: a publisher (or disk)
        // that persists any strict prefix of the file must be rejected by
        // the loader — there is no prefix length at which a torn write
        // parses as a valid snapshot.
        let snap = tiny_embedding_snapshot(5);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        for len in 0..buf.len() {
            assert!(
                ServingSnapshot::read_from(&buf[..len]).is_err(),
                "truncation to {len} of {} bytes went undetected",
                buf.len()
            );
        }
    }

    #[test]
    fn corrupted_snapshot_is_rejected_at_every_byte_offset() {
        // Stronger form of `any_corrupted_byte_is_detected`: exhaustive
        // over every offset, on a fixture small enough to afford it.
        let snap = tiny_embedding_snapshot(6);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(
                ServingSnapshot::read_from(bad.as_slice()).is_err(),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn rows_out_of_key_order_are_corrupt_even_under_a_valid_digest() {
        // magic 8 | tag 1 | version 8 | dim 4 | n_domains 4 | n_rows 8, then
        // rows of key 8 ‖ 2 floats.
        let (rows_at, row_len) = (33, 16);
        let mut clean = Vec::new();
        tiny_embedding_snapshot(4).write_to(&mut clean).unwrap();
        let reseal = |bytes: &mut Vec<u8>| {
            let n = bytes.len();
            let digest = mamdr_util::xxh64(&bytes[8..n - 8], 0);
            bytes[n - 8..].copy_from_slice(&digest.to_le_bytes());
        };
        let row = |i: usize| rows_at + i * row_len..rows_at + (i + 1) * row_len;
        let mut swapped = clean.clone();
        swapped[row(0).start..row(1).end].rotate_left(row_len);
        let mut duplicated = clean.clone();
        duplicated.copy_within(row(2), row(3).start);
        for (what, mut bytes) in [("swapped", swapped), ("duplicated", duplicated)] {
            reseal(&mut bytes);
            match ServingSnapshot::read_from(bytes.as_slice()) {
                Err(SnapshotError::Corrupt(m)) => assert!(m.contains("does not follow"), "{m}"),
                other => panic!("{what} rows: {other:?}"),
            }
        }
        // The reseal itself is sound: the untouched file still loads.
        let mut same = clean.clone();
        reseal(&mut same);
        assert!(ServingSnapshot::read_from(same.as_slice()).is_ok());
    }

    #[test]
    fn write_atomic_commits_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("mamdr-serve-write-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.mamdrsv");
        tiny_embedding_snapshot(1).save_to_path(&path).unwrap();
        assert_eq!(ServingSnapshot::load_from_path(&path).unwrap().version(), 1);
        let staging = codec::staging_path(&path);
        assert!(!staging.exists(), "the staging file must be renamed away");
        // Overwriting an existing snapshot is atomic too: the old file
        // stays valid until the rename lands the new one.
        tiny_embedding_snapshot(2).save_to_path(&path).unwrap();
        assert_eq!(ServingSnapshot::load_from_path(&path).unwrap().version(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_requests_are_deterministic_and_valid() {
        let spec = spec(2);
        let tm = trained(&spec, 7);
        let snap = ServingSnapshot::from_trained(1, spec, tm).unwrap();
        let a = snap.probe_requests(0xC0FFEE, 8);
        let b = snap.probe_requests(0xC0FFEE, 8);
        assert_eq!(a, b, "probe set must be a pure function of the seed");
        assert_eq!(a.len(), 16);
        for req in &a {
            snap.validate(req).expect("every probe is in the feature space");
        }
        let other = snap.probe_requests(0xBEEF, 8);
        assert_ne!(a, other, "different seeds probe different points");
        // The embedding backend yields probes too (unbounded id space).
        let emb = tiny_embedding_snapshot(3);
        for req in emb.probe_requests(1, 4) {
            emb.validate(&req).unwrap();
        }
    }

    #[test]
    fn check_finite_flags_poisoned_parameters() {
        let spec2 = spec(2);
        let tm = trained(&spec2, 9);
        let good = ServingSnapshot::from_trained(1, spec2, tm).unwrap();
        good.check_finite().expect("trained fixture is finite");

        let spec2 = spec(2);
        let mut tm = trained(&spec2, 9);
        tm.shared[3] = f32::NAN;
        let bad = ServingSnapshot::from_trained(2, spec2, tm).unwrap();
        assert!(bad.check_finite().is_err(), "NaN in shared params must be flagged");

        let ps = ParameterServer::new(4, 2);
        for row in 0..50 {
            ps.init_row(ParamKey::new(1, row), vec![0.5, -0.5]);
        }
        ServingSnapshot::from_ps(3, &ps, 1).check_finite().expect("a finite store");
        ps.init_row(ParamKey::new(1, 37), vec![0.5, f32::INFINITY]);
        let err = ServingSnapshot::from_ps(3, &ps, 1).check_finite().unwrap_err();
        assert_eq!(err, "row (table 1, row 37) has non-finite values");
    }

    #[test]
    fn validates_requests_against_feature_spaces() {
        let spec = spec(2);
        let tm = trained(&spec, 5);
        let snap = ServingSnapshot::from_trained(1, spec, tm).unwrap();
        assert!(snap.validate(&request(0, 3)).is_ok());
        let mut bad = request(0, 3);
        bad.user = 999;
        assert!(snap.validate(&bad).is_err());
        let mut bad = request(0, 3);
        bad.domain = 2;
        assert!(snap.validate(&bad).is_err());
        let mut bad = request(0, 3);
        bad.dense_user = Some(vec![1.0; 4]);
        assert!(snap.validate(&bad).is_err(), "dense features on a dense_dim=0 model");
    }

    #[test]
    fn embedding_snapshot_roundtrips_and_scores() {
        let ps = ParameterServer::new(2, 3);
        for t in 0..5u32 {
            for row in 0..4u32 {
                ps.init_row(ParamKey::new(t, row), vec![0.1 * t as f32, 0.2, row as f32 * 0.05]);
            }
        }
        let snap = ServingSnapshot::from_ps(9, &ps, 4);
        assert_eq!(snap.n_domains(), 4);
        let reqs = vec![request(2, 1), request(2, 3)];
        let scores = snap.score(2, &reqs);
        assert!(scores.iter().all(|p| (0.0..=1.0).contains(p)));
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let loaded = ServingSnapshot::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.score(2, &reqs), scores);
        // A cold row (user 29 never initialized) must score, not panic.
        let cold = request(3, 29);
        assert!(snap.score(3, &[cold])[0].is_finite());
    }

    #[test]
    fn rejects_mismatched_spec() {
        let s2 = spec(2);
        let tm = trained(&s2, 2);
        let mut s3 = spec(3);
        s3.n_domains = 3;
        let err = ServingSnapshot::from_trained(1, s3, tm).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
    }
}
