//! Cross-server sharding: consistent key routing and the manifest commit
//! point.
//!
//! MAMDR's production deployment spreads the parameter server over 440
//! machines (PAPER.md §VI); this module is the reproduction's version of
//! that split. A [`ShardMap`] assigns every [`ParamKey`] to one of N
//! *server* shards by FNV-1a hash — deliberately a different function from
//! the Fibonacci hash [`ParameterServer`] uses for its internal lock
//! stripes, so the cross-server route and the in-store stripe stay
//! independent (the stripe count is the fixed [`LOCK_STRIPES`]; the shard
//! count is the deployment's one sharding knob). The map is versioned: a manifest records which map wrote a
//! set of shard files, and resuming into a different shard count bumps the
//! version while the hash itself re-routes every row (consistent routing
//! is a pure function of the key and the shard count, never of history —
//! that is what makes an N→M rehash a deterministic merge-and-replay).
//!
//! Persistence is shard-parallel with a single commit point: each shard
//! writes its own checkpoint and journal under `dir/shard-<i>/` using the
//! unchanged single-server formats, and only after every shard file is
//! durable does the driver write `manifest-<round>.mamdrmf` (atomically,
//! temp file + rename, FNV-checksummed) naming each file and its digest.
//! A crash before the manifest leaves orphaned shard files and the
//! previous manifest wins; a torn manifest fails its checksum and
//! discovery falls back — exactly the journal's crash contract, lifted one
//! level up.

use crate::checkpoint::{self, CheckpointError};
use crate::journal::{JournalError, RoundJournal};
use crate::kv::{ParamKey, ParameterServer, LOCK_STRIPES, WIRE_BATCH_KEYS};
use mamdr_obs::{EventLog, Value};
use mamdr_util::Checksum;
use std::path::{Path, PathBuf};

/// Assigns every parameter row to one of `n_shards` servers.
///
/// The owner is `FNV1a64(table_le ‖ row_le) mod n_shards` — a pure
/// function of the key bytes and the shard count, with no per-process
/// state, so every client in every process routes identically (the
/// property the exactly-once push contract rests on: one row is only ever
/// written through one server's sequence space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    n_shards: usize,
    version: u64,
}

impl ShardMap {
    /// A first-generation map over `n_shards` servers.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "a shard map needs at least one shard");
        ShardMap { n_shards, version: 1 }
    }

    /// A map with an explicit version (topology changes bump it so shard
    /// files written under different maps are never confused).
    pub fn with_version(n_shards: usize, version: u64) -> Self {
        assert!(n_shards >= 1, "a shard map needs at least one shard");
        ShardMap { n_shards, version }
    }

    /// Number of server shards this map routes over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The map generation (recorded in manifests).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shard that owns `key`.
    pub fn owner(&self, key: ParamKey) -> usize {
        if self.n_shards == 1 {
            return 0;
        }
        let mut bytes = [0u8; 8];
        bytes[..4].copy_from_slice(&key.table.to_le_bytes());
        bytes[4..].copy_from_slice(&key.row.to_le_bytes());
        (Checksum::of(&bytes) % self.n_shards as u64) as usize
    }

    /// Splits a key batch into per-shard index lists, preserving input
    /// order within every shard. This is the single partitioning primitive
    /// both sides of the wire use: the client routes pull/push sub-batches
    /// with it, and re-assembling results by these indices reconstructs
    /// the exact input order regardless of how shard responses interleave.
    pub fn partition_indices(&self, keys: &[ParamKey]) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); self.n_shards];
        for (i, &key) in keys.iter().enumerate() {
            parts[self.owner(key)].push(i);
        }
        parts
    }
}

/// Pull-RPC count of a key batch routed over `n_shards` servers: each
/// shard's sub-batch costs one request per [`WIRE_BATCH_KEYS`] chunk, and
/// an unused shard costs nothing. With one shard this is exactly the
/// single-server `div_ceil` — which is why the in-process trainer can
/// model any sharded topology's traffic by counting with the same route.
pub fn route_chunks(keys: &[ParamKey], n_shards: usize) -> u64 {
    if n_shards <= 1 {
        return keys.len().div_ceil(WIRE_BATCH_KEYS) as u64;
    }
    let map = ShardMap::new(n_shards);
    let mut counts = vec![0usize; n_shards];
    for &key in keys {
        counts[map.owner(key)] += 1;
    }
    counts.into_iter().filter(|&c| c > 0).map(|c| c.div_ceil(WIRE_BATCH_KEYS) as u64).sum()
}

/// The subdirectory holding shard `i`'s checkpoint and journal files.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// File extension of on-disk shard manifests.
pub const MANIFEST_EXT: &str = "mamdrmf";

const MAGIC: &[u8; 8] = b"MAMDRMF1";

/// A manifest error.
#[derive(Debug)]
pub enum ManifestError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid manifest, or a referenced shard file is
    /// missing or fails its recorded digest.
    Corrupt(String),
}

impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> Self {
        ManifestError::Io(e)
    }
}

impl From<CheckpointError> for ManifestError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => ManifestError::Io(e),
            CheckpointError::Corrupt(m) => ManifestError::Corrupt(m),
        }
    }
}

impl From<JournalError> for ManifestError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(e) => ManifestError::Io(e),
            JournalError::Corrupt(m) => ManifestError::Corrupt(m),
        }
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "I/O error: {e}"),
            ManifestError::Corrupt(m) => write!(f, "corrupt manifest: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One shard's committed files at a round boundary: paths relative to the
/// checkpoint directory plus the FNV-1a digest of each file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFiles {
    /// Relative path of the shard's parameter checkpoint.
    pub checkpoint: String,
    /// FNV-1a 64 digest of the checkpoint file's bytes.
    pub checkpoint_fnv: u64,
    /// Relative path of the shard's round journal.
    pub journal: String,
    /// FNV-1a 64 digest of the journal file's bytes.
    pub journal_fnv: u64,
}

/// The commit point of a sharded round boundary: which shard files, under
/// which shard map, make up round `rounds_done`'s durable state.
///
/// A round is committed if and only if its manifest exists, parses, and
/// every referenced file matches its recorded digest — shard files alone
/// are provisional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Rounds fully applied before this manifest was written.
    pub rounds_done: u64,
    /// Generation of the [`ShardMap`] that routed these files.
    pub map_version: u64,
    /// Per-shard committed files, indexed by shard id.
    pub shards: Vec<ShardFiles>,
}

impl ShardManifest {
    /// Number of shards this manifest commits.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The on-disk file name for this manifest's round boundary.
    pub fn file_name(&self) -> String {
        format!("manifest-{:010}.{MANIFEST_EXT}", self.rounds_done)
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + self.shards.len() * 64);
        b.extend_from_slice(&self.rounds_done.to_le_bytes());
        b.extend_from_slice(&self.map_version.to_le_bytes());
        b.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for files in &self.shards {
            for (path, fnv) in
                [(&files.checkpoint, files.checkpoint_fnv), (&files.journal, files.journal_fnv)]
            {
                let bytes = path.as_bytes();
                b.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                b.extend_from_slice(bytes);
                b.extend_from_slice(&fnv.to_le_bytes());
            }
        }
        b
    }

    /// Writes the manifest to `dir/<file_name()>` atomically (temp file +
    /// rename). Call this only after every referenced shard file is on
    /// disk: the rename is the commit point of the whole round.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf, ManifestError> {
        std::fs::create_dir_all(dir)?;
        let body = self.encode_body();
        let mut bytes = Vec::with_capacity(MAGIC.len() + body.len() + 8);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&Checksum::of(&body).to_le_bytes());
        let path = dir.join(self.file_name());
        let tmp = dir.join(format!("{}.tmp", self.file_name()));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Reads and verifies a manifest file (the manifest itself, not the
    /// files it references — see [`ShardManifest::verify_files`]).
    pub fn read(path: &Path) -> Result<ShardManifest, ManifestError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(ManifestError::Corrupt("bad magic or truncated header".into()));
        }
        let body = &bytes[MAGIC.len()..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if Checksum::of(body) != stored {
            return Err(ManifestError::Corrupt("checksum mismatch".into()));
        }
        Self::decode_body(body)
    }

    fn decode_body(b: &[u8]) -> Result<ShardManifest, ManifestError> {
        let corrupt = |m: &str| ManifestError::Corrupt(m.to_string());
        let mut cur = Cursor { bytes: b, pos: 0 };
        let rounds_done = cur.u64()?;
        let map_version = cur.u64()?;
        let n_shards = cur.u32()? as usize;
        if n_shards == 0 || n_shards > 4096 {
            return Err(corrupt("implausible shard count"));
        }
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let entry = |cur: &mut Cursor| -> Result<(String, u64), ManifestError> {
                let len = cur.u32()? as usize;
                if len > 4096 {
                    return Err(corrupt("file name implausibly long"));
                }
                let path = String::from_utf8(cur.take(len)?.to_vec())
                    .map_err(|_| corrupt("file name is not UTF-8"))?;
                Ok((path, cur.u64()?))
            };
            let (checkpoint, checkpoint_fnv) = entry(&mut cur)?;
            let (journal, journal_fnv) = entry(&mut cur)?;
            shards.push(ShardFiles { checkpoint, checkpoint_fnv, journal, journal_fnv });
        }
        if cur.pos != b.len() {
            return Err(corrupt("trailing bytes after shard section"));
        }
        Ok(ShardManifest { rounds_done, map_version, shards })
    }

    /// Verifies that every referenced shard file exists under `dir` and
    /// matches its recorded digest. A manifest whose files fail this is
    /// not a commit point — discovery skips it.
    pub fn verify_files(&self, dir: &Path) -> Result<(), ManifestError> {
        for (i, files) in self.shards.iter().enumerate() {
            for (path, fnv) in
                [(&files.checkpoint, files.checkpoint_fnv), (&files.journal, files.journal_fnv)]
            {
                let bytes = std::fs::read(dir.join(path)).map_err(|e| {
                    ManifestError::Corrupt(format!("shard {i} file '{path}' unreadable: {e}"))
                })?;
                if Checksum::of(&bytes) != fnv {
                    return Err(ManifestError::Corrupt(format!(
                        "shard {i} file '{path}' fails its recorded digest"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Bounds-checked reader over a manifest body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ManifestError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            ManifestError::Corrupt(format!("truncated body at offset {} (+{n})", self.pos))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ManifestError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ManifestError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Finds the newest *fully committed* manifest in `dir`: candidates are
/// scanned newest-first, and one that fails to parse, fails its checksum,
/// or references a missing/corrupt shard file is skipped — with a
/// `manifest_skipped` event when `log` is given — so a crash between
/// shard-file writes and the manifest rename degrades recovery to the
/// previous round boundary instead of failing it.
pub fn latest_manifest(
    dir: &Path,
    log: Option<&EventLog>,
) -> Result<Option<(PathBuf, ShardManifest)>, ManifestError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.starts_with("manifest-")
            && path.extension().and_then(|e| e.to_str()) == Some(MANIFEST_EXT)
        {
            candidates.push(path);
        }
    }
    candidates.sort();
    for path in candidates.into_iter().rev() {
        let verified = ShardManifest::read(&path).and_then(|m| {
            m.verify_files(dir)?;
            Ok(m)
        });
        match verified {
            Ok(m) => return Ok(Some((path, m))),
            Err(e) => {
                if let Some(log) = log {
                    log.emit(
                        "manifest_skipped",
                        &[
                            ("path", Value::from(path.to_string_lossy().into_owned())),
                            ("error", Value::from(e.to_string())),
                        ],
                    );
                }
            }
        }
    }
    Ok(None)
}

/// A committed sharded round boundary, loaded and merged: everything a
/// driver needs to rebuild stores for *any* shard count.
#[derive(Debug)]
pub struct ManifestState {
    /// The manifest that committed this state.
    pub manifest: ShardManifest,
    /// Every parameter row across all shards, key-sorted.
    pub rows: Vec<(ParamKey, Vec<f32>)>,
    /// Every Adagrad accumulator row across all shards, key-sorted.
    pub adagrad: Vec<(ParamKey, Vec<f32>)>,
    /// Shard 0's journal: the global aggregates (losses, cache,
    /// staleness, guard counters) are duplicated into every shard's
    /// journal, so any one of them carries the run-level resume metadata.
    pub meta: RoundJournal,
    /// Global wire traffic at the boundary: the per-shard journal traffic
    /// snapshots summed component-wise (each shard journals only its own
    /// store's counters).
    pub traffic: (u64, u64, u64, u64),
}

/// Loads and merges every shard file a manifest commits. The merged rows
/// are independent of the shard count that wrote them — which is exactly
/// the manifest-driven rehash: resume re-routes these rows through
/// whatever [`ShardMap`] the new topology uses.
pub fn load_manifest_state(
    dir: &Path,
    manifest: &ShardManifest,
) -> Result<ManifestState, ManifestError> {
    let mut rows = Vec::new();
    let mut adagrad = Vec::new();
    let mut meta: Option<RoundJournal> = None;
    let mut traffic = (0u64, 0u64, 0u64, 0u64);
    for (i, files) in manifest.shards.iter().enumerate() {
        let store = checkpoint::load_from_path(&dir.join(&files.checkpoint))?;
        rows.extend(store.dump_rows());
        let journal = RoundJournal::read(&dir.join(&files.journal))?;
        if journal.rounds_done != manifest.rounds_done {
            return Err(ManifestError::Corrupt(format!(
                "shard {i} journal is at round {} but the manifest commits round {}",
                journal.rounds_done, manifest.rounds_done
            )));
        }
        adagrad.extend(journal.adagrad.iter().cloned());
        traffic.0 += journal.traffic.0;
        traffic.1 += journal.traffic.1;
        traffic.2 += journal.traffic.2;
        traffic.3 += journal.traffic.3;
        if meta.is_none() {
            meta = Some(journal);
        }
    }
    let meta = meta.ok_or_else(|| ManifestError::Corrupt("manifest commits zero shards".into()))?;
    rows.sort_by_key(|(k, _)| (k.table, k.row));
    adagrad.sort_by_key(|(k, _)| (k.table, k.row));
    Ok(ManifestState { manifest: manifest.clone(), rows, adagrad, meta, traffic })
}

/// Merges several shard stores into one fresh store (driver-side: final
/// evaluation and the merged checkpoint artifact). Whole records move:
/// values, accumulators, and row versions are copied; traffic counters are
/// *not* — the caller aggregates those across shards itself.
pub fn merge_stores(stores: &[&ParameterServer], dim: usize) -> ParameterServer {
    let merged = ParameterServer::new(LOCK_STRIPES, dim);
    for store in stores {
        merged.absorb(store);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(table: u32, row: u32) -> ParamKey {
        ParamKey::new(table, row)
    }

    #[test]
    fn owner_matches_golden_fnv_values() {
        // Hard-coded FNV-1a 64 digests of the little-endian key bytes,
        // computed independently of `mamdr_util::Checksum`: the route is
        // part of the persistence format (manifests written by one
        // process must be re-routable by another), so a change to the
        // hash is a format break and must fail here.
        let golden: &[(u32, u32, u64)] = &[
            (0, 0, 0xa8c7_f832_281a_39c5),
            (1, 2, 0xc9c2_8939_c996_68c6),
            (3, 7, 0xa7dd_6311_83fc_d511),
            (4, 1, 0x8ce2_3005_a627_54b0),
            (2, 9, 0x4698_3a7e_9970_f5fe),
            (7, 5, 0x6bbc_ff40_b659_0a37),
        ];
        for &(t, r, h) in golden {
            for n in [2usize, 4, 8] {
                let map = ShardMap::new(n);
                assert_eq!(
                    map.owner(key(t, r)),
                    (h % n as u64) as usize,
                    "key ({t},{r}) over {n} shards"
                );
            }
        }
        // One shard owns everything without hashing.
        assert_eq!(ShardMap::new(1).owner(key(9, 9)), 0);
    }

    proptest! {
        #[test]
        fn owner_is_stable_and_in_range(table in 0u32..64, row in 0u32..10_000, n in 1usize..16) {
            let map = ShardMap::new(n);
            let owner = map.owner(key(table, row));
            prop_assert!(owner < n);
            // Stable: a rebuilt map (as another process would build it)
            // routes identically.
            prop_assert_eq!(ShardMap::new(n).owner(key(table, row)), owner);
        }

        #[test]
        fn partition_preserves_global_sorted_order(
            mut rows in proptest::collection::vec((0u32..8, 0u32..2_000), 0..300),
            n in 1usize..9,
        ) {
            // The trainer applies pushes in key-sorted order; routing must
            // let that order be reconstructed. Partition a key-sorted
            // batch, then concatenate the per-shard sub-batches back by
            // their recorded indices: the result is the input, and every
            // sub-batch is itself sorted.
            rows.sort_unstable();
            rows.dedup();
            let keys: Vec<ParamKey> = rows.iter().map(|&(t, r)| key(t, r)).collect();
            let map = ShardMap::new(n);
            let parts = map.partition_indices(&keys);
            prop_assert_eq!(parts.len(), n);
            let mut seen = vec![false; keys.len()];
            for (shard, part) in parts.iter().enumerate() {
                for window in part.windows(2) {
                    prop_assert!(window[0] < window[1], "sub-batch order broken");
                }
                for &i in part {
                    prop_assert_eq!(map.owner(keys[i]), shard);
                    prop_assert!(!seen[i], "key routed twice");
                    seen[i] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|s| s), "key dropped by routing");
        }

        #[test]
        fn rehash_moves_only_reowned_keys(
            rows in proptest::collection::vec((0u32..8, 0u32..2_000), 1..200),
            n in 1usize..9,
            m in 1usize..9,
        ) {
            // An N→M rehash relocates exactly the keys whose owner differs
            // under the two maps — no key is lost, none moves gratuitously.
            let from = ShardMap::new(n);
            let to = ShardMap::with_version(m, from.version() + 1);
            for &(t, r) in &rows {
                let k = key(t, r);
                let moved = from.owner(k) != to.owner(k);
                if n == m {
                    prop_assert!(!moved, "same shard count must not move {k:?}");
                }
                // The destination is always the pure hash route.
                prop_assert_eq!(to.owner(k), (ShardMap::new(m).owner(k)));
            }
        }
    }

    #[test]
    fn route_chunks_degenerates_to_div_ceil_at_one_shard() {
        let keys: Vec<ParamKey> = (0..WIRE_BATCH_KEYS as u32 + 1).map(|r| key(0, r)).collect();
        assert_eq!(route_chunks(&keys, 1), 2);
        assert_eq!(route_chunks(&keys[..WIRE_BATCH_KEYS], 1), 1);
        assert_eq!(route_chunks(&[], 1), 0);
        assert_eq!(route_chunks(&[], 4), 0);
        // Over several shards every non-empty sub-batch costs at least one
        // chunk, and the total can only grow.
        let small: Vec<ParamKey> = (0..10).map(|r| key(1, r)).collect();
        let sharded = route_chunks(&small, 4);
        assert!((1..=4).contains(&sharded), "{sharded}");
        assert!(sharded >= route_chunks(&small, 1));
        // Exact: count distinct owners by hand.
        let map = ShardMap::new(4);
        let owners: std::collections::HashSet<usize> =
            small.iter().map(|&k| map.owner(k)).collect();
        assert_eq!(sharded as usize, owners.len());
    }

    fn sample_manifest(round: u64) -> ShardManifest {
        ShardManifest {
            rounds_done: round,
            map_version: 1,
            shards: vec![
                ShardFiles {
                    checkpoint: format!("shard-0/ckpt-{round:010}.mamdrps"),
                    checkpoint_fnv: 0xDEAD,
                    journal: format!("shard-0/journal-{round:010}.mamdrj"),
                    journal_fnv: 0xBEEF,
                },
                ShardFiles {
                    checkpoint: format!("shard-1/ckpt-{round:010}.mamdrps"),
                    checkpoint_fnv: 0xF00D,
                    journal: format!("shard-1/journal-{round:010}.mamdrj"),
                    journal_fnv: 0xCAFE,
                },
            ],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mamdr-shard-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn manifest_roundtrip_is_exact() {
        let dir = tmp_dir("roundtrip");
        let m = sample_manifest(7);
        let path = m.write_to_dir(&dir).unwrap();
        assert!(path.ends_with("manifest-0000000007.mamdrmf"));
        assert_eq!(ShardManifest::read(&path).unwrap(), m);
        assert!(!dir.join("manifest-0000000007.mamdrmf.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_detects_truncation_and_bit_flips() {
        let dir = tmp_dir("corrupt");
        let path = sample_manifest(1).write_to_dir(&dir).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for keep in 0..clean.len() {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(ShardManifest::read(&path).is_err(), "truncation to {keep} must not parse");
        }
        for byte in 0..clean.len() {
            let mut bad = clean.clone();
            bad[byte] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(ShardManifest::read(&path).is_err(), "flip at byte {byte} must not parse");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes real per-shard checkpoint/journal files for `round` and a
    /// manifest committing them, routing `dim`-wide rows over two shards.
    fn committed_round(dir: &Path, round: u64) -> ShardManifest {
        let map = ShardMap::new(2);
        let dim = 2usize;
        let stores = [ParameterServer::new(1, dim), ParameterServer::new(1, dim)];
        for r in 0..12u32 {
            let k = key(0, r);
            stores[map.owner(k)].init_row(k, vec![r as f32, round as f32]);
        }
        let mut shards = Vec::new();
        for (i, store) in stores.iter().enumerate() {
            let sdir = shard_dir(dir, i);
            let ckpt = checkpoint::save_to_dir(store, dim, &sdir, round).unwrap();
            let journal = RoundJournal {
                rounds_done: round,
                checkpoint_file: format!("ckpt-{round:010}.mamdrps"),
                cache: crate::cache::CacheStats::default(),
                max_staleness: 0,
                traffic: (0, 0, 0, 0),
                guard_trips: 0,
                guard_rollbacks: 0,
                round_losses: vec![0.5; round as usize],
                dim: dim as u32,
                adagrad: store
                    .dump_rows()
                    .into_iter()
                    .map(|(k, _)| (k, vec![0.1 + round as f32; dim]))
                    .collect(),
            };
            let jpath = journal.write_to_dir(&sdir).unwrap();
            shards.push(ShardFiles {
                checkpoint: format!("shard-{i}/ckpt-{round:010}.mamdrps"),
                checkpoint_fnv: Checksum::of(&std::fs::read(&ckpt).unwrap()),
                journal: format!("shard-{i}/journal-{round:010}.mamdrj"),
                journal_fnv: Checksum::of(&std::fs::read(&jpath).unwrap()),
            });
        }
        let manifest = ShardManifest { rounds_done: round, map_version: 1, shards };
        manifest.write_to_dir(dir).unwrap();
        manifest
    }

    #[test]
    fn latest_manifest_requires_committed_files() {
        let dir = tmp_dir("latest");
        assert!(latest_manifest(&dir, None).unwrap().is_none());
        committed_round(&dir, 2);
        let newest = committed_round(&dir, 5);
        let (_, found) = latest_manifest(&dir, None).unwrap().unwrap();
        assert_eq!(found, newest);
        // Corrupt one shard file the newest manifest references: the
        // commit point dissolves and discovery falls back to round 2,
        // logging the skip.
        let victim = dir.join(&newest.shards[1].checkpoint);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let log = EventLog::in_memory();
        let (_, found) = latest_manifest(&dir, Some(&log)).unwrap().unwrap();
        assert_eq!(found.rounds_done, 2);
        let lines = log.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("manifest_skipped"), "{}", lines[0]);
        assert!(lines[0].contains("digest"), "{}", lines[0]);
        // Delete a round-2 file too: nothing committed remains.
        std::fs::remove_file(dir.join(&found.shards[0].journal)).unwrap();
        assert!(latest_manifest(&dir, None).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_state_merges_and_rehashes() {
        let dir = tmp_dir("merge");
        let manifest = committed_round(&dir, 3);
        let state = load_manifest_state(&dir, &manifest).unwrap();
        assert_eq!(state.rows.len(), 12);
        assert_eq!(state.adagrad.len(), 12);
        assert_eq!(state.meta.rounds_done, 3);
        assert_eq!(state.meta.round_losses.len(), 3);
        // Key-sorted merge.
        for w in state.rows.windows(2) {
            assert!((w[0].0.table, w[0].0.row) < (w[1].0.table, w[1].0.row));
        }
        // Rehash 2→3: routing the merged rows through a 3-shard map keeps
        // every row exactly once and agrees with the pure hash route.
        let to = ShardMap::with_version(3, state.manifest.map_version + 1);
        let keys: Vec<ParamKey> = state.rows.iter().map(|(k, _)| *k).collect();
        let parts = to.partition_indices(&keys);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), keys.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_stores_copies_whole_records() {
        let a = ParameterServer::new(1, 2);
        let b = ParameterServer::new(1, 2);
        a.init_row(key(0, 0), vec![1.0, 2.0]);
        b.init_row(key(0, 1), vec![3.0, 4.0]);
        b.push_outer_grad(key(0, 1), &[1.0, 1.0], 0.5);
        let merged = merge_stores(&[&a, &b], 2);
        assert_eq!(merged.n_rows(), 2);
        assert_eq!(merged.read_silent(key(0, 0)), Some(vec![1.0, 2.0]));
        assert_eq!(merged.read_silent(key(0, 1)), b.read_silent(key(0, 1)));
        assert_eq!(merged.dump_adagrad(), b.dump_adagrad());
        // Versions travel with their rows; traffic does not.
        assert_eq!(merged.version(key(0, 0)), 0);
        assert_eq!(merged.version(key(0, 1)), 1);
        assert_eq!(merged.traffic().snapshot(), (0, 0, 0, 0));
    }
}
