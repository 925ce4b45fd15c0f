//! The round journal: everything a restarted driver needs to resume a
//! half-finished distributed run *bit-identically*.
//!
//! A parameter checkpoint (`ckpt-*.mamdrps`) alone cannot resume a run:
//! it deliberately omits the Adagrad accumulators (cold-starting them
//! rescales every subsequent update), and the final [`crate::
//! DistributedReport`] aggregates per-round losses, cache counters, and
//! traffic from round zero. The journal closes that gap. At every
//! committed round boundary the driver writes, atomically (temp file +
//! rename), one `journal-<round>.mamdrj` per shard holding:
//!
//! * the number of completed rounds (the RNG cursor: every stream this
//!   workspace uses is derived statelessly from `(seed, round, worker)`,
//!   so the round index *is* the full RNG position),
//! * the file name of the shard's parameter checkpoint written just before
//!   the journal,
//! * the report aggregates so far (losses, cache hits/misses, staleness,
//!   guard counters — duplicated into every shard's journal — and the
//!   shard's own store traffic),
//! * the shard's complete Adagrad accumulator state,
//!
//! all integrity-protected by the workspace's FNV-1a checksum
//! ([`mamdr_util::Checksum`]), so a torn write surfaces as
//! [`JournalError::Corrupt`]. A journal is recovery *data*, never a commit
//! point by itself: the boundary is committed by the
//! [`crate::ShardManifest`] written after every shard's files, which
//! records each file's digest — [`crate::latest_manifest`] skips a
//! manifest whose journal or checkpoint fails its digest, so recovery
//! falls back to the previous boundary instead of resuming from garbage.

use crate::cache::CacheStats;
use crate::kv::ParamKey;
use mamdr_util::Checksum;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MAMDRJN1";

/// File extension of on-disk round journals.
pub const JOURNAL_EXT: &str = "mamdrj";

/// A journaling error.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid journal (bad magic, checksum mismatch,
    /// truncation, or malformed body).
    Corrupt(String),
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "I/O error: {e}"),
            JournalError::Corrupt(m) => write!(f, "corrupt journal: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// One resumable round boundary: the aggregates of every completed round
/// plus the optimizer state the checkpoint format does not carry.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundJournal {
    /// Rounds fully applied before this journal was written; resume
    /// continues at this round index.
    pub rounds_done: u64,
    /// File *name* (not path — directories move between hosts) of the
    /// parameter checkpoint holding the values at this boundary.
    pub checkpoint_file: String,
    /// Combined worker cache counters over the completed rounds.
    pub cache: CacheStats,
    /// Worst observed staleness over the completed rounds.
    pub max_staleness: u64,
    /// Server traffic over the completed rounds:
    /// `(pulls, pushes, bytes_pulled, bytes_pushed)`.
    pub traffic: (u64, u64, u64, u64),
    /// Guard trips over the completed rounds.
    pub guard_trips: u64,
    /// Guard rollbacks over the completed rounds.
    pub guard_rollbacks: u64,
    /// Mean training loss of each completed round, in round order.
    pub round_losses: Vec<f64>,
    /// Per-row vector width of the accumulators.
    pub dim: u32,
    /// Every materialized Adagrad accumulator row, key-sorted.
    pub adagrad: Vec<(ParamKey, Vec<f32>)>,
}

impl RoundJournal {
    /// The on-disk file name for this journal's round boundary.
    pub fn file_name(&self) -> String {
        format!("journal-{:010}.{JOURNAL_EXT}", self.rounds_done)
    }

    /// Serializes the body (everything between magic and checksum).
    fn encode_body(&self) -> Result<Vec<u8>, JournalError> {
        let mut b = Vec::with_capacity(128 + self.adagrad.len() * (8 + 4 * self.dim as usize));
        b.extend_from_slice(&self.rounds_done.to_le_bytes());
        let name = self.checkpoint_file.as_bytes();
        b.extend_from_slice(&(name.len() as u32).to_le_bytes());
        b.extend_from_slice(name);
        b.extend_from_slice(&self.cache.hits.to_le_bytes());
        b.extend_from_slice(&self.cache.misses.to_le_bytes());
        b.extend_from_slice(&self.max_staleness.to_le_bytes());
        for part in [self.traffic.0, self.traffic.1, self.traffic.2, self.traffic.3] {
            b.extend_from_slice(&part.to_le_bytes());
        }
        b.extend_from_slice(&self.guard_trips.to_le_bytes());
        b.extend_from_slice(&self.guard_rollbacks.to_le_bytes());
        b.extend_from_slice(&(self.round_losses.len() as u64).to_le_bytes());
        for &loss in &self.round_losses {
            b.extend_from_slice(&loss.to_le_bytes());
        }
        b.extend_from_slice(&self.dim.to_le_bytes());
        b.extend_from_slice(&(self.adagrad.len() as u64).to_le_bytes());
        let mut rows = self.adagrad.clone();
        rows.sort_by_key(|(k, _)| (k.table, k.row));
        for (key, acc) in &rows {
            if acc.len() != self.dim as usize {
                return Err(JournalError::Corrupt(format!(
                    "accumulator {key:?} has width {} (expected {})",
                    acc.len(),
                    self.dim
                )));
            }
            b.extend_from_slice(&key.table.to_le_bytes());
            b.extend_from_slice(&key.row.to_le_bytes());
            for v in acc {
                b.extend_from_slice(&v.to_le_bytes());
            }
        }
        Ok(b)
    }

    /// Writes the journal to `dir/<file_name()>` atomically: the bytes land
    /// in a temp file first and are renamed into place, so a crash mid-write
    /// can truncate only the temp file, never a committed journal.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf, JournalError> {
        std::fs::create_dir_all(dir)?;
        let body = self.encode_body()?;
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

    /// Reads and verifies a journal file.
    pub fn read(path: &Path) -> Result<RoundJournal, JournalError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::Corrupt("bad magic or truncated header".into()));
        }
        let body = &bytes[MAGIC.len()..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if Checksum::of(body) != stored {
            return Err(JournalError::Corrupt("checksum mismatch".into()));
        }
        Self::decode_body(body)
    }

    fn decode_body(b: &[u8]) -> Result<RoundJournal, JournalError> {
        let corrupt = |m: &str| JournalError::Corrupt(m.to_string());
        let mut cur = Cursor { bytes: b, pos: 0 };
        let rounds_done = cur.u64()?;
        let name_len = cur.u32()? as usize;
        if name_len > 4096 {
            return Err(corrupt("checkpoint name implausibly long"));
        }
        let checkpoint_file = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| corrupt("checkpoint name is not UTF-8"))?;
        let hits = cur.u64()?;
        let misses = cur.u64()?;
        let max_staleness = cur.u64()?;
        let traffic = (cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?);
        let guard_trips = cur.u64()?;
        let guard_rollbacks = cur.u64()?;
        let n_losses = cur.u64()? as usize;
        if n_losses > b.len() / 8 {
            return Err(corrupt("loss count exceeds body size"));
        }
        let mut round_losses = Vec::with_capacity(n_losses);
        for _ in 0..n_losses {
            round_losses.push(f64::from_le_bytes(cur.take(8)?.try_into().expect("8 bytes")));
        }
        let dim = cur.u32()?;
        let n_acc = cur.u64()? as usize;
        let row_bytes = 8 + 4 * dim as usize;
        if n_acc.checked_mul(row_bytes).is_none_or(|total| total > b.len()) {
            return Err(corrupt("accumulator count exceeds body size"));
        }
        let mut adagrad = Vec::with_capacity(n_acc);
        for _ in 0..n_acc {
            let table = cur.u32()?;
            let row = cur.u32()?;
            let acc: Vec<f32> = cur
                .take(4 * dim as usize)?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            adagrad.push((ParamKey::new(table, row), acc));
        }
        if cur.pos != b.len() {
            return Err(corrupt("trailing bytes after accumulator section"));
        }
        Ok(RoundJournal {
            rounds_done,
            checkpoint_file,
            cache: CacheStats { hits, misses },
            max_staleness,
            traffic,
            guard_trips,
            guard_rollbacks,
            round_losses,
            dim,
            adagrad,
        })
    }
}

/// Bounds-checked reader over a journal body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            JournalError::Corrupt(format!("truncated body at offset {} (+{n})", self.pos))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> RoundJournal {
        RoundJournal {
            rounds_done: round,
            checkpoint_file: format!("ckpt-{round:010}.mamdrps"),
            cache: CacheStats { hits: 100, misses: 7 },
            max_staleness: 2,
            traffic: (11, 13, 1700, 1900),
            guard_trips: 1,
            guard_rollbacks: 0,
            round_losses: vec![0.7, 0.65, 0.61],
            dim: 3,
            adagrad: vec![
                (ParamKey::new(0, 1), vec![0.1, 0.2, 0.3]),
                (ParamKey::new(2, 0), vec![1.5, 0.1, 0.1]),
            ],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mamdr-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_is_exact() {
        let dir = tmp_dir("roundtrip");
        let j = sample(3);
        let path = j.write_to_dir(&dir).unwrap();
        assert!(path.ends_with("journal-0000000003.mamdrj"));
        let back = RoundJournal::read(&path).unwrap();
        assert_eq!(back, j);
        // No temp file left behind.
        assert!(!dir.join("journal-0000000003.mamdrj.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_is_detected() {
        let dir = tmp_dir("trunc");
        let path = sample(1).write_to_dir(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in 0..bytes.len() {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                RoundJournal::read(&path).is_err(),
                "truncation to {keep} of {} bytes must not parse",
                bytes.len()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let dir = tmp_dir("flip");
        let path = sample(1).write_to_dir(&dir).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut bad = clean.clone();
            bad[byte] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            // Either the checksum catches it, or (for flips inside the
            // trailing digest itself) the digest no longer matches.
            assert!(RoundJournal::read(&path).is_err(), "flip at byte {byte} must not parse");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
