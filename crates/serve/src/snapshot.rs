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
//! On-disk format (little-endian), extending `nn/persist.rs`'s conventions
//! with a trailing FNV-1a digest so a flipped bit anywhere in the file is a
//! load error:
//!
//! ```text
//! magic "MAMDRSV1"
//! payload (backend-tagged, see `encode_payload`)
//! u64 fnv1a-64 digest of the payload
//! ```

use crate::request::ScoreRequest;
use mamdr_autodiff::tape::stable_sigmoid;
use mamdr_core::env::DomainParams;
use mamdr_core::TrainedModel;
use mamdr_data::Batch;
use mamdr_models::{build_model, CtrModel, FeatureConfig, ModelConfig, ModelKind};
use mamdr_nn::persist::PersistError;
use mamdr_nn::ParamStore;
use mamdr_ps::{model as ps_model, ParamKey, ParameterServer};
use mamdr_tensor::Tensor;
use mamdr_util::{read_f32_section, write_f32_section, Checksum};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MAMDRSV1";

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

impl From<PersistError> for SnapshotError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => SnapshotError::Io(e),
            PersistError::Mismatch(m) => SnapshotError::Corrupt(m),
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
    /// The RAW embedding scorer of the distributed PS trainer.
    Embedding { dim: usize, n_domains: usize, rows: HashMap<ParamKey, Vec<f32>> },
}

/// An immutable, versioned serving artifact.
///
/// All scoring is forward-only (no tape retained beyond the call, no
/// gradients) and bit-deterministic at any kernel thread count — the same
/// guarantee the training-side kernels make, inherited here because serving
/// runs through the same `Tensor::gemm` entry points.
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

    /// Builds an embedding snapshot from a live parameter server.
    ///
    /// `n_domains` bounds the domain-bias table; rows a cold row lookup
    /// misses score as zeros, matching the PS trainer's cold-start behavior.
    pub fn from_ps(version: u64, ps: &ParameterServer, n_domains: usize) -> Self {
        let rows = ps.dump_rows().into_iter().collect();
        ServingSnapshot {
            version,
            backend: Backend::Embedding { dim: ps.value_dim(), n_domains, rows },
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
            Backend::Embedding { dim, n_domains, rows } => format!(
                "RAW-embedding v{} ({} domains, {} rows × {})",
                self.version,
                n_domains,
                rows.len(),
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
        assert!(domain < self.n_domains(), "unvalidated domain routed to score()");
        if reqs.is_empty() {
            return Vec::new();
        }
        match &self.backend {
            Backend::Dense { spec, model, domains, .. } => {
                let batch = assemble_batch(&spec.features, domain, reqs);
                mamdr_models::eval_logits(model.as_ref(), &domains[domain], &batch)
                    .into_iter()
                    .map(stable_sigmoid)
                    .collect()
            }
            Backend::Embedding { dim, rows, .. } => {
                let zero = vec![0.0f32; *dim];
                let row = |key: ParamKey| rows.get(&key).unwrap_or(&zero);
                reqs.iter()
                    .map(|r| {
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
                    })
                    .collect()
            }
        }
    }

    /// Serializes the snapshot (payload + trailing checksum).
    pub fn write_to(&self, mut w: impl Write) -> Result<(), SnapshotError> {
        let payload = self.encode_payload()?;
        w.write_all(MAGIC)?;
        w.write_all(&payload)?;
        w.write_all(&Checksum::of(&payload).to_le_bytes())?;
        Ok(())
    }

    /// Deserializes a snapshot, verifying the checksum before parsing.
    pub fn read_from(mut r: impl Read) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SnapshotError::Corrupt("bad magic".into()));
        }
        let mut rest = Vec::new();
        r.read_to_end(&mut rest)?;
        if rest.len() < 8 {
            return Err(SnapshotError::Corrupt("missing checksum".into()));
        }
        let (payload, digest_bytes) = rest.split_at(rest.len() - 8);
        let stored = u64::from_le_bytes(digest_bytes.try_into().expect("8 bytes"));
        let computed = Checksum::of(payload);
        if stored != computed {
            return Err(SnapshotError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        Self::decode_payload(payload)
    }

    /// Writes the snapshot to a file (created/truncated).
    pub fn save_to_path(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Reads a snapshot file written by [`save_to_path`](Self::save_to_path).
    pub fn load_from_path(path: &Path) -> Result<Self, SnapshotError> {
        Self::read_from(std::io::BufReader::new(std::fs::File::open(path)?))
    }

    /// Publisher-side atomic write: the snapshot is serialized into a
    /// same-directory `<name>.tmp` sibling, fsynced, and renamed into
    /// place. The rename is the sole commit point — a publisher crash at
    /// any earlier byte leaves only the temp file, which no loader or
    /// watcher ever opens, so a half-written snapshot can never be served.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = tmp_sibling(path);
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::new(file);
            self.write_to(&mut w)?;
            w.flush()?;
            // Data must be durable *before* the rename: otherwise a crash
            // after the rename but before writeback could expose a
            // committed path with unsynced (torn) contents.
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
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
            Backend::Embedding { rows, .. } => {
                for (k, v) in rows {
                    if v.iter().any(|x| !x.is_finite()) {
                        return Err(format!(
                            "row (table {}, row {}) has non-finite values",
                            k.table, k.row
                        ));
                    }
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

    fn encode_payload(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        match &self.backend {
            Backend::Dense { spec, trained, .. } => {
                out.push(0u8);
                out.extend_from_slice(&self.version.to_le_bytes());
                out.push(kind_id(spec.kind));
                for v in [
                    spec.features.n_users,
                    spec.features.n_items,
                    spec.features.n_user_groups,
                    spec.features.n_item_cats,
                    spec.features.dense_dim,
                ] {
                    out.extend_from_slice(&(v as u32).to_le_bytes());
                }
                let c = &spec.config;
                out.extend_from_slice(&(c.embed_dim as u32).to_le_bytes());
                out.extend_from_slice(&(c.hidden.len() as u32).to_le_bytes());
                for &h in &c.hidden {
                    out.extend_from_slice(&(h as u32).to_le_bytes());
                }
                out.extend_from_slice(&c.dropout.to_le_bytes());
                for v in [c.n_experts, c.att_dim, c.att_heads, c.att_layers] {
                    out.extend_from_slice(&(v as u32).to_le_bytes());
                }
                out.extend_from_slice(&(spec.n_domains as u32).to_le_bytes());
                let (mode, per_domain): (u8, Option<&[Vec<f32>]>) = match &trained.domains {
                    DomainParams::SharedOnly => (0, None),
                    DomainParams::Deltas(d) => (1, Some(d)),
                    DomainParams::Full(d) => (2, Some(d)),
                };
                out.push(mode);
                out.extend_from_slice(&(trained.shared.len() as u64).to_le_bytes());
                write_f32_section(&mut out, &trained.shared)?;
                if let Some(vecs) = per_domain {
                    for v in vecs {
                        if v.len() != trained.shared.len() {
                            return Err(SnapshotError::Invalid(
                                "per-domain vector length != shared length".into(),
                            ));
                        }
                        write_f32_section(&mut out, v)?;
                    }
                }
            }
            Backend::Embedding { dim, n_domains, rows } => {
                out.push(1u8);
                out.extend_from_slice(&self.version.to_le_bytes());
                out.extend_from_slice(&(*dim as u32).to_le_bytes());
                out.extend_from_slice(&(*n_domains as u32).to_le_bytes());
                out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                // Sorted rows: identical states produce byte-identical files.
                let mut sorted: Vec<(&ParamKey, &Vec<f32>)> = rows.iter().collect();
                sorted.sort_by_key(|(k, _)| (k.table, k.row));
                for (key, value) in sorted {
                    if value.len() != *dim {
                        return Err(SnapshotError::Invalid(format!(
                            "row {key:?} has width {} (expected {dim})",
                            value.len()
                        )));
                    }
                    out.extend_from_slice(&key.table.to_le_bytes());
                    out.extend_from_slice(&key.row.to_le_bytes());
                    write_f32_section(&mut out, value)?;
                }
            }
        }
        Ok(out)
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = payload;
        let tag = read_u8(&mut r)?;
        let version = read_u64(&mut r)?;
        match tag {
            0 => {
                let kind = kind_from_id(read_u8(&mut r)?)?;
                let features = FeatureConfig {
                    n_users: read_u32(&mut r)? as usize,
                    n_items: read_u32(&mut r)? as usize,
                    n_user_groups: read_u32(&mut r)? as usize,
                    n_item_cats: read_u32(&mut r)? as usize,
                    dense_dim: read_u32(&mut r)? as usize,
                };
                let embed_dim = read_u32(&mut r)? as usize;
                let n_hidden = read_u32(&mut r)? as usize;
                if n_hidden > 64 {
                    return Err(SnapshotError::Corrupt(format!("absurd hidden count {n_hidden}")));
                }
                let hidden = (0..n_hidden)
                    .map(|_| read_u32(&mut r).map(|v| v as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                let dropout = f32::from_le_bytes(take(&mut r, 4)?.try_into().expect("4 bytes"));
                let config = ModelConfig {
                    embed_dim,
                    hidden,
                    dropout,
                    n_experts: read_u32(&mut r)? as usize,
                    att_dim: read_u32(&mut r)? as usize,
                    att_heads: read_u32(&mut r)? as usize,
                    att_layers: read_u32(&mut r)? as usize,
                };
                let n_domains = read_u32(&mut r)? as usize;
                let mode = read_u8(&mut r)?;
                let flat_len = read_u64(&mut r)? as usize;
                if flat_len.checked_mul(4).is_none_or(|b| b > payload.len() * (n_domains + 1)) {
                    return Err(SnapshotError::Corrupt(format!("absurd flat length {flat_len}")));
                }
                let shared = read_f32_section(&mut r, flat_len)?;
                let domains = match mode {
                    0 => DomainParams::SharedOnly,
                    1 | 2 => {
                        let vecs = (0..n_domains)
                            .map(|_| read_f32_section(&mut r, flat_len))
                            .collect::<Result<Vec<_>, _>>()?;
                        if mode == 1 {
                            DomainParams::Deltas(vecs)
                        } else {
                            DomainParams::Full(vecs)
                        }
                    }
                    m => return Err(SnapshotError::Corrupt(format!("unknown domain mode {m}"))),
                };
                let spec = ModelSpec { kind, features, config, n_domains };
                Self::from_trained(version, spec, TrainedModel { shared, domains })
            }
            1 => {
                let dim = read_u32(&mut r)? as usize;
                let n_domains = read_u32(&mut r)? as usize;
                let n_rows = read_u64(&mut r)? as usize;
                if n_rows.checked_mul(dim.max(1) * 4).is_none_or(|b| b > payload.len()) {
                    return Err(SnapshotError::Corrupt(format!("absurd row count {n_rows}")));
                }
                let mut rows = HashMap::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let table = read_u32(&mut r)?;
                    let row = read_u32(&mut r)?;
                    let value = read_f32_section(&mut r, dim)?;
                    rows.insert(ParamKey::new(table, row), value);
                }
                Ok(ServingSnapshot {
                    version,
                    backend: Backend::Embedding { dim, n_domains, rows },
                })
            }
            t => Err(SnapshotError::Corrupt(format!("unknown backend tag {t}"))),
        }
    }
}

/// Gathers a same-domain request slice into a model [`Batch`].
///
/// Labels are zeros — serving never reads them; `eval_logits` only consumes
/// the feature side.
fn assemble_batch(features: &FeatureConfig, domain: usize, reqs: &[ScoreRequest]) -> Batch {
    let n = reqs.len();
    let dense = |pick: fn(&ScoreRequest) -> &Option<Vec<f32>>| -> Option<Tensor> {
        if features.dense_dim == 0 {
            return None;
        }
        let mut data = Vec::with_capacity(n * features.dense_dim);
        for r in reqs {
            data.extend_from_slice(pick(r).as_ref().expect("validated dense features"));
        }
        Some(Tensor::from_vec([n, features.dense_dim], data))
    };
    Batch {
        domain,
        users: reqs.iter().map(|r| r.user).collect(),
        items: reqs.iter().map(|r| r.item).collect(),
        user_groups: reqs.iter().map(|r| r.user_group).collect(),
        item_cats: reqs.iter().map(|r| r.item_cat).collect(),
        labels: vec![0.0; n],
        dense_user: dense(|r| &r.dense_user),
        dense_item: dense(|r| &r.dense_item),
    }
}

/// The same-directory temp path `write_atomic` stages into: the file name
/// with `.tmp` appended (never a replaced extension, so distinct snapshot
/// files can never share a staging path by extension collision).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn kind_id(kind: ModelKind) -> u8 {
    ModelKind::ALL.iter().position(|&k| k == kind).expect("kind in registry") as u8
}

fn kind_from_id(id: u8) -> Result<ModelKind, SnapshotError> {
    ModelKind::ALL
        .get(id as usize)
        .copied()
        .ok_or_else(|| SnapshotError::Corrupt(format!("unknown model kind id {id}")))
}

fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if r.len() < n {
        return Err(SnapshotError::Corrupt("payload truncated".into()));
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Ok(head)
}

fn read_u8(r: &mut &[u8]) -> Result<u8, SnapshotError> {
    Ok(take(r, 1)?[0])
}

fn read_u32(r: &mut &[u8]) -> Result<u32, SnapshotError> {
    Ok(u32::from_le_bytes(take(r, 4)?.try_into().expect("4 bytes")))
}

fn read_u64(r: &mut &[u8]) -> Result<u64, SnapshotError> {
    Ok(u64::from_le_bytes(take(r, 8)?.try_into().expect("8 bytes")))
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
        let spec = ModelSpec {
            kind: ModelKind::Mlp,
            features: FeatureConfig {
                n_users: 30,
                n_items: 20,
                n_user_groups: 4,
                n_item_cats: 5,
                dense_dim: 0,
            },
            config: ModelConfig::tiny(),
            n_domains: 2,
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
    fn write_atomic_commits_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("mamdr-serve-write-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.mamdrsv");
        tiny_embedding_snapshot(1).write_atomic(&path).unwrap();
        assert_eq!(ServingSnapshot::load_from_path(&path).unwrap().version(), 1);
        assert!(!super::tmp_sibling(&path).exists(), "temp sibling must be renamed away");
        // Overwriting an existing snapshot is atomic too: the old file
        // stays valid until the rename lands the new one.
        tiny_embedding_snapshot(2).write_atomic(&path).unwrap();
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

        let ps = ParameterServer::new(1, 2);
        ps.init_row(ParamKey::new(0, 0), vec![0.5, f32::INFINITY]);
        let bad = ServingSnapshot::from_ps(3, &ps, 1);
        assert!(bad.check_finite().is_err(), "Inf in an embedding row must be flagged");
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
