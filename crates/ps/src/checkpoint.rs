//! Parameter-server checkpointing.
//!
//! The production system snapshots the parameter server so training can
//! resume after worker or server failures. The simulation mirrors that
//! with a compact binary dump of every row (and its Adagrad accumulator
//! state is deliberately *not* saved — matching the common deployment
//! choice of cold-starting optimizer state after recovery).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "MAMDRPS1" | u32 dim | u64 n_rows | n_rows × (u32 table, u32 row, dim × f32)
//! ```
//!
//! The format predates the workspace's digest envelope and carries none;
//! its bytes are pinned (`tests/ps_golden.rs`), so it uses the
//! `mamdr_util::codec` reader and writer without `seal`. On disk, integrity
//! comes from the shard manifest, which records each checkpoint's FNV-1a.

use crate::kv::{ParamKey, ParameterServer, LOCK_STRIPES};
use mamdr_obs::{EventLog, Value};
use mamdr_util::codec::{self, CodecError, Reader, Writer};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MAMDRPS1";

/// Widest row a checkpoint header may declare. Far above any embedding
/// width the repo trains (8–64), and small enough that a corrupt header
/// cannot ask [`load`] for more than a 256 KiB row.
const MAX_DIM: usize = 1 << 16;

/// Serializes every row of the server.
///
/// Rows are written in a deterministic order (sorted by key) so identical
/// server states produce byte-identical checkpoints.
pub fn save(ps: &ParameterServer, dim: usize, mut w: impl Write) -> Result<(), CodecError> {
    w.write_all(&encode(ps, dim)?)?;
    Ok(())
}

fn encode(ps: &ParameterServer, dim: usize) -> Result<Vec<u8>, CodecError> {
    let mut rows = ps.dump_rows();
    rows.sort_by_key(|(k, _)| (k.table, k.row));
    if let Some((key, value)) = rows.iter().find(|(_, v)| v.len() != dim) {
        return Err(CodecError::corrupt(
            MAGIC,
            format!("row {key:?} has width {} (expected {dim})", value.len()),
        ));
    }
    let mut w = Writer::default();
    w.bytes(MAGIC).u32(dim as u32).u64(rows.len() as u64);
    for (key, value) in &rows {
        key.write_to(&mut w);
        w.f32s(value);
    }
    Ok(w.into_bytes())
}

/// Restores a checkpoint into a fresh server.
///
/// The header is untrusted: a declared width above `MAX_DIM`, or a row
/// count the remaining bytes cannot hold, is [`CodecError::Corrupt`] before
/// any buffer is sized from it, and so is a stream with bytes left over.
pub fn load(mut r: impl Read) -> Result<ParameterServer, CodecError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode(&bytes)
}

fn decode(bytes: &[u8]) -> Result<ParameterServer, CodecError> {
    let mut r = Reader::new(MAGIC, bytes);
    r.magic()?;
    let dim = r.u32()? as usize;
    if dim > MAX_DIM {
        return Err(r.corrupt(format!("header declares row width {dim}, above the {MAX_DIM} cap")));
    }
    let n_rows = r.u64()?;
    let n_rows = r.count(n_rows, 8 + 4 * dim as u64)?;
    let ps = ParameterServer::new(LOCK_STRIPES, dim);
    for _ in 0..n_rows {
        let key = ParamKey::read_from(&mut r)?;
        ps.init_row(key, r.f32s(dim as u64)?);
    }
    r.finish()?;
    Ok(ps)
}

/// File extension of on-disk parameter-server checkpoints.
pub const CHECKPOINT_EXT: &str = "mamdrps";

/// Commits a checkpoint to `dir/ckpt-<round>.mamdrps` through
/// [`codec::write_atomic`] and returns the path.
pub fn save_to_dir(
    ps: &ParameterServer,
    dim: usize,
    dir: &Path,
    round: u64,
) -> Result<PathBuf, CodecError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("ckpt-{round:010}.{CHECKPOINT_EXT}"));
    codec::write_atomic(&path, &encode(ps, dim)?)?;
    Ok(path)
}

/// Quick structural validation of a checkpoint file: magic, plausible
/// header, and an exact file-length match against the declared row count.
/// Catches truncation and header corruption without reading every row
/// (payload bit flips are the manifest digest's job — the v1 checkpoint
/// format carries no digest of its own).
fn validate_checkpoint(path: &Path) -> Result<(), CodecError> {
    let mut f = std::fs::File::open(path)?;
    let mut header = [0u8; 8 + 4 + 8];
    f.read_exact(&mut header)?;
    let mut r = Reader::new(MAGIC, &header);
    r.magic()?;
    let dim = r.u32()? as u64;
    let n_rows = r.u64()?;
    let expected = n_rows.saturating_mul(8 + 4 * dim).saturating_add(20);
    let actual = f.metadata()?.len();
    if actual != expected {
        return Err(r.corrupt(format!(
            "file is {actual} bytes, header declares {expected} ({n_rows} rows × dim {dim})"
        )));
    }
    Ok(())
}

/// Finds the newest *structurally valid* checkpoint in `dir`: candidates
/// (`ckpt-<round>.mamdrps`, lexicographic on the zero-padded name) are
/// scanned newest-first, and a corrupt or truncated file is skipped — with
/// a `checkpoint_skipped` event when `log` is given — falling back to the
/// next-newest instead of failing the whole discovery.
///
/// This is the single discovery path shared by recovery (the PS trainer
/// resuming) and serving (`mamdr-serve` building a snapshot from the most
/// recent training state). Returns `Ok(None)` for an empty or absent
/// directory, or when every candidate is corrupt; non-checkpoint files are
/// ignored.
pub fn latest_checkpoint(
    dir: &Path,
    log: Option<&EventLog>,
) -> Result<Option<PathBuf>, CodecError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        let is_ckpt = name.starts_with("ckpt-")
            && path.extension().and_then(|e| e.to_str()) == Some(CHECKPOINT_EXT);
        if is_ckpt {
            candidates.push(path);
        }
    }
    candidates.sort();
    for path in candidates.into_iter().rev() {
        match validate_checkpoint(&path) {
            Ok(()) => return Ok(Some(path)),
            Err(e) => {
                if let Some(log) = log {
                    log.emit(
                        "checkpoint_skipped",
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

/// Loads a checkpoint file into a fresh server. The header's row count and
/// width must account for the file's length exactly.
pub fn load_from_path(path: &Path) -> Result<ParameterServer, CodecError> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_server() -> ParameterServer {
        let ps = ParameterServer::new(4, 3);
        for t in 0..2u32 {
            for r in 0..5u32 {
                ps.init_row(
                    ParamKey::new(t, r),
                    vec![t as f32, r as f32, t as f32 * 10.0 + r as f32],
                );
            }
        }
        ps
    }

    #[test]
    fn roundtrip_preserves_every_row() {
        let ps = sample_server();
        let mut buf = Vec::new();
        save(&ps, 3, &mut buf).unwrap();
        let restored = load(buf.as_slice()).unwrap();
        assert_eq!(restored.n_rows(), ps.n_rows());
        for t in 0..2u32 {
            for r in 0..5u32 {
                let key = ParamKey::new(t, r);
                assert_eq!(restored.read_silent(key), ps.read_silent(key));
            }
        }
    }

    #[test]
    fn checkpoints_are_deterministic() {
        let mut a = Vec::new();
        save(&sample_server(), 3, &mut a).unwrap();
        let mut b = Vec::new();
        save(&sample_server(), 3, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            load(&b"NOTMAGIC"[..]),
            Err(CodecError::Corrupt(_)) | Err(CodecError::Io(_))
        ));
        // truncated body
        let ps = sample_server();
        let mut buf = Vec::new();
        save(&ps, 3, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(load(buf.as_slice()).is_err());
    }

    #[test]
    fn forged_header_is_rejected_before_allocation() {
        // A flipped header byte must not size a buffer: dim = u32::MAX
        // would otherwise ask for 16 GiB before the first row is read.
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        forged.extend_from_slice(&1u64.to_le_bytes());
        assert!(matches!(load(forged.as_slice()), Err(CodecError::Corrupt(_))));

        // On disk the length is known, so a forged row count (or a width
        // under the cap that the file cannot hold) is Corrupt as well —
        // never an I/O error halfway through the rows.
        let dir = std::env::temp_dir().join(format!("mamdr-ckpt-forged-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = save_to_dir(&sample_server(), 3, &dir, 1).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for (at, bytes) in [
            (8, &u32::MAX.to_le_bytes()[..]),
            (8, &4u32.to_le_bytes()[..]),
            (12, &u64::MAX.to_le_bytes()[..]),
        ] {
            let mut bad = clean.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(load_from_path(&path), Err(CodecError::Corrupt(_))),
                "forged header field at byte {at} must be Corrupt"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_checkpoint_finds_highest_round() {
        let dir = std::env::temp_dir().join(format!("mamdr-ckpt-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Absent directory: no checkpoint, no error.
        assert!(latest_checkpoint(&dir, None).unwrap().is_none());

        let ps = sample_server();
        let p3 = save_to_dir(&ps, 3, &dir, 3).unwrap();
        let p12 = save_to_dir(&ps, 3, &dir, 12).unwrap();
        assert_ne!(p3, p12);
        // Distractors that must be ignored by discovery.
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("ckpt-9999999999.tmp"), "x").unwrap();
        let found = latest_checkpoint(&dir, None).unwrap().expect("checkpoint present");
        assert_eq!(found, p12, "round 12 must shadow round 3");

        // The discovered file round-trips into a working server.
        let restored = load_from_path(&found).unwrap();
        assert_eq!(restored.n_rows(), ps.n_rows());
        assert_eq!(restored.value_dim(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_checkpoint_skips_corrupt_files_and_logs() {
        let dir = std::env::temp_dir().join(format!("mamdr-ckpt-skip-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ps = sample_server();
        let good = save_to_dir(&ps, 3, &dir, 4).unwrap();
        let newer = save_to_dir(&ps, 3, &dir, 9).unwrap();

        // Truncate the newest: discovery must fall back to round 4 and log.
        let bytes = std::fs::read(&newer).unwrap();
        std::fs::write(&newer, &bytes[..bytes.len() - 3]).unwrap();
        let log = mamdr_obs::EventLog::in_memory();
        let found = latest_checkpoint(&dir, Some(&log)).unwrap().expect("fallback present");
        assert_eq!(found, good);
        let lines = log.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("checkpoint_skipped"), "{}", lines[0]);
        assert!(lines[0].contains("ckpt-0000000009"), "{}", lines[0]);

        // Bad magic on the fallback too: nothing valid remains.
        std::fs::write(&good, b"NOTMAGIC________________").unwrap();
        assert!(latest_checkpoint(&dir, None).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_server_continues_training() {
        let ps = sample_server();
        let mut buf = Vec::new();
        save(&ps, 3, &mut buf).unwrap();
        let restored = load(buf.as_slice()).unwrap();
        let key = ParamKey::new(0, 0);
        restored.push_delta(key, &[1.0, 1.0, 1.0]);
        let v = restored.read_silent(key).unwrap();
        assert_eq!(v, vec![1.0, 1.0, 1.0]);
    }
}
