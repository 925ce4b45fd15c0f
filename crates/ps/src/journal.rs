//! The round journal: everything a restarted driver needs to resume a
//! half-finished distributed run *bit-identically*.
//!
//! A parameter checkpoint (`ckpt-*.mamdrps`) alone cannot resume a run:
//! it deliberately omits the Adagrad accumulators (cold-starting them
//! rescales every subsequent update), and the final [`crate::
//! DistributedReport`] aggregates per-round losses, cache counters, and
//! traffic from round zero. The journal closes that gap. At every
//! committed round boundary the trainer commits one `journal-<round>.mamdrj`
//! per shard through `mamdr_util::codec::write_atomic` (staging file, fsync,
//! rename), holding:
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
//! all inside the workspace's digest envelope (`magic ‖ body ‖
//! XXH64(body)`, [`mamdr_util::codec::seal`]), so a torn write surfaces
//! as [`CodecError::Corrupt`]. A journal is recovery *data*, never a commit
//! point by itself: the boundary is committed by the
//! [`crate::ShardManifest`] written after every shard's files, which
//! records each file's digest — [`crate::latest_manifest`] skips a
//! manifest whose journal or checkpoint fails its digest, so recovery
//! falls back to the previous boundary instead of resuming from garbage.

use crate::cache::CacheStats;
use crate::kv::ParamKey;
use mamdr_util::codec::{self, CodecError, Reader};
use mamdr_util::xxh64;
use std::path::Path;

/// Version 2: the envelope digest is XXH64 (version 1, FNV-1a, is refused).
const MAGIC: &[u8; 8] = b"MAMDRJN2";

/// File extension of on-disk round journals.
pub const JOURNAL_EXT: &str = "mamdrj";

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

    /// Encodes the journal in its envelope, accumulator rows key-sorted.
    fn encode(&self) -> Result<Vec<u8>, CodecError> {
        let dim = self.dim as usize;
        let mut rows: Vec<&(ParamKey, Vec<f32>)> = self.adagrad.iter().collect();
        rows.sort_by_key(|(k, _)| (k.table, k.row));
        if let Some((key, acc)) = rows.iter().find(|(_, acc)| acc.len() != dim) {
            return Err(CodecError::corrupt(
                MAGIC,
                format!("accumulator {key:?} has width {} (expected {dim})", acc.len()),
            ));
        }
        Ok(codec::seal(MAGIC, |w| {
            w.u64(self.rounds_done).string(&self.checkpoint_file);
            w.u64(self.cache.hits).u64(self.cache.misses).u64(self.max_staleness);
            let (pulls, pushes, bytes_pulled, bytes_pushed) = self.traffic;
            w.u64(pulls).u64(pushes).u64(bytes_pulled).u64(bytes_pushed);
            w.u64(self.guard_trips).u64(self.guard_rollbacks);
            w.u64(self.round_losses.len() as u64);
            for &loss in &self.round_losses {
                w.f64(loss);
            }
            w.u32(self.dim).u64(rows.len() as u64);
            for (key, acc) in rows {
                key.write_to(w);
                w.f32s(acc);
            }
        }))
    }

    /// Commits the journal to `dir/<file_name()>` through
    /// [`codec::write_atomic`] — a crash mid-write can tear only the
    /// staging file, never a committed journal — and returns the XXH64 of
    /// the file's bytes, the digest a manifest records for it.
    pub fn write_to_dir(&self, dir: &Path) -> Result<u64, CodecError> {
        std::fs::create_dir_all(dir)?;
        let bytes = self.encode()?;
        codec::write_atomic(&dir.join(self.file_name()), &bytes)?;
        Ok(xxh64(&bytes, 0))
    }

    /// Reads and verifies a journal file.
    pub fn read(path: &Path) -> Result<RoundJournal, CodecError> {
        let bytes = std::fs::read(path)?;
        let mut r = codec::open(MAGIC, &bytes)?;
        // Fields in file order (struct-literal fields evaluate as written).
        let mut journal = RoundJournal {
            rounds_done: r.u64()?,
            checkpoint_file: r.string()?,
            cache: CacheStats { hits: r.u64()?, misses: r.u64()? },
            max_staleness: r.u64()?,
            traffic: (r.u64()?, r.u64()?, r.u64()?, r.u64()?),
            guard_trips: r.u64()?,
            guard_rollbacks: r.u64()?,
            round_losses: {
                let n = r.u64()?;
                r.counted(n, 8, Reader::f64)?
            },
            dim: r.u32()?,
            adagrad: Vec::new(),
        };
        let n_acc = r.u64()?;
        let dim = journal.dim as u64;
        journal.adagrad =
            r.counted(n_acc, 8 + 4 * dim, |r| Ok((ParamKey::read_from(r)?, r.f32s(dim)?)))?;
        r.finish()?;
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
        let digest = j.write_to_dir(&dir).unwrap();
        let path = dir.join("journal-0000000003.mamdrj");
        assert_eq!(digest, xxh64(&std::fs::read(&path).unwrap(), 0), "the committed bytes' digest");
        let back = RoundJournal::read(&path).unwrap();
        assert_eq!(back, j);
        // No temp file left behind.
        assert!(!dir.join("journal-0000000003.mamdrj.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_is_detected() {
        let dir = tmp_dir("trunc");
        sample(1).write_to_dir(&dir).unwrap();
        let path = dir.join(sample(1).file_name());
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
        sample(1).write_to_dir(&dir).unwrap();
        let path = dir.join(sample(1).file_name());
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
