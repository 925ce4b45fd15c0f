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

use crate::kv::{ParamKey, ParameterServer, LOCK_STRIPES};
use mamdr_obs::{EventLog, Value};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MAMDRPS1";

/// Widest row a checkpoint header may declare. Far above any embedding
/// width the repo trains (8–64), and small enough that a corrupt header
/// cannot ask [`load`] for more than a 256 KiB row buffer.
const MAX_DIM: usize = 1 << 16;

/// A checkpointing error.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a valid checkpoint.
    Corrupt(String),
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes every row of the server.
///
/// Rows are written in a deterministic order (sorted by key) so identical
/// server states produce byte-identical checkpoints.
pub fn save(ps: &ParameterServer, dim: usize, mut w: impl Write) -> Result<(), CheckpointError> {
    let mut rows = ps.dump_rows();
    rows.sort_by_key(|(k, _)| (k.table, k.row));
    w.write_all(MAGIC)?;
    w.write_all(&(dim as u32).to_le_bytes())?;
    w.write_all(&(rows.len() as u64).to_le_bytes())?;
    for (key, value) in rows {
        if value.len() != dim {
            return Err(CheckpointError::Corrupt(format!(
                "row {:?} has width {} (expected {})",
                key,
                value.len(),
                dim
            )));
        }
        w.write_all(&key.table.to_le_bytes())?;
        w.write_all(&key.row.to_le_bytes())?;
        for v in value {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores a checkpoint into a fresh server.
///
/// The header is untrusted: a declared width above [`MAX_DIM`] is
/// [`CheckpointError::Corrupt`] before any buffer is sized from it. The
/// declared row count is never allocated for — rows are read one at a time
/// and a short stream ends in an I/O error — so a stream of unknown length
/// needs no further bound; [`load_from_path`] additionally checks the count
/// against the file's length.
pub fn load(mut r: impl Read) -> Result<ParameterServer, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let dim = u32::from_le_bytes(b4) as usize;
    if dim > MAX_DIM {
        return Err(CheckpointError::Corrupt(format!(
            "header declares row width {dim}, above the {MAX_DIM} cap"
        )));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let n_rows = u64::from_le_bytes(b8) as usize;

    let ps = ParameterServer::new(LOCK_STRIPES, dim);
    let mut fbuf = vec![0u8; 4 * dim];
    for _ in 0..n_rows {
        r.read_exact(&mut b4)?;
        let table = u32::from_le_bytes(b4);
        r.read_exact(&mut b4)?;
        let row = u32::from_le_bytes(b4);
        r.read_exact(&mut fbuf)?;
        let value: Vec<f32> =
            fbuf.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        ps.init_row(ParamKey::new(table, row), value);
    }
    Ok(ps)
}

/// File extension of on-disk parameter-server checkpoints.
pub const CHECKPOINT_EXT: &str = "mamdrps";

/// Writes a checkpoint to `dir/ckpt-<round>.mamdrps` and returns the path.
pub fn save_to_dir(
    ps: &ParameterServer,
    dim: usize,
    dir: &Path,
    round: u64,
) -> Result<PathBuf, CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("ckpt-{round:010}.{CHECKPOINT_EXT}"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    save(ps, dim, &mut w)?;
    use std::io::Write as _;
    w.flush()?;
    Ok(path)
}

/// Quick structural validation of a checkpoint file: magic, plausible
/// header, and an exact file-length match against the declared row count.
/// Catches truncation and header corruption without parsing every row
/// (payload bit flips are the journal's checksum's job — the v1 checkpoint
/// format predates `mamdr-util` and carries no digest).
fn validate_checkpoint(path: &Path) -> Result<(), CheckpointError> {
    let mut f = std::fs::File::open(path)?;
    let mut header = [0u8; 8 + 4 + 8];
    f.read_exact(&mut header)?;
    if &header[..8] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let dim = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as u64;
    let n_rows = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    let expected = n_rows.saturating_mul(8 + 4 * dim).saturating_add(20);
    let actual = f.metadata()?.len();
    if actual != expected {
        return Err(CheckpointError::Corrupt(format!(
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
) -> Result<Option<PathBuf>, CheckpointError> {
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

/// Loads a checkpoint file into a fresh server. The file's length is
/// known, so the header's declared row count and width must account for it
/// exactly before a single row is parsed.
pub fn load_from_path(path: &Path) -> Result<ParameterServer, CheckpointError> {
    validate_checkpoint(path)?;
    load(std::io::BufReader::new(std::fs::File::open(path)?))
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
            Err(CheckpointError::Corrupt(_)) | Err(CheckpointError::Io(_))
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
        assert!(matches!(load(forged.as_slice()), Err(CheckpointError::Corrupt(_))));

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
                matches!(load_from_path(&path), Err(CheckpointError::Corrupt(_))),
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
