//! Continual snapshot publication: the train-side half of the
//! train→publish→serve loop.
//!
//! Every `publish_every` rounds the distributed trainer encodes a serving
//! snapshot of the live (merged, sharded) store and hands the bytes to a
//! [`ContinualPublisher`], which commits them to a publish directory through
//! [`codec::write_atomic`] — the commit every checkpoint, journal and
//! manifest goes through too: a same-directory `*.tmp`, fsync, then rename,
//! the rename being the sole commit point. A watcher (or the serve-side
//! gate) therefore never observes a half-written snapshot, no matter where
//! the publisher dies.
//!
//! This module is deliberately format-agnostic: it moves *bytes*, so the
//! serving-snapshot encoding stays in `mamdr-serve` (which depends on this
//! crate, not vice versa) and the publisher also works for any future
//! artifact kind. Scheduled chaos — a mid-write crash or a post-digest
//! byte flip — is injected here, deterministically per round, so the
//! downstream gate's rejection counters are exactly reproducible.

use mamdr_obs::{Counter, MetricsRegistry};
use mamdr_util::codec;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File extension of a committed serving snapshot.
pub const SNAPSHOT_EXT: &str = "mamdrsv";

/// The committed file name of round `round`'s snapshot
/// (`snapshot-0000000012.mamdrsv`); zero-padded so lexicographic order is
/// round order.
pub fn snapshot_file_name(round: u64) -> String {
    format!("snapshot-{round:010}.{SNAPSHOT_EXT}")
}

/// The committed path of round `round`'s snapshot under `dir`.
pub fn snapshot_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(snapshot_file_name(round))
}

/// Parses the round index out of a file name produced by
/// [`snapshot_file_name`]; `None` for anything else (including `*.tmp`
/// staging files, which discovery must never consider).
pub fn parse_snapshot_round(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snapshot-")?;
    let digits = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The newest *committed* snapshot in `dir` by round index, or `None` when
/// the directory holds none. Staging temp files and foreign names are
/// skipped — a crashed mid-write publisher leaves nothing discoverable.
pub fn latest_snapshot(dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(round) = name.to_str().and_then(parse_snapshot_round) else { continue };
        if best.as_ref().is_none_or(|(r, _)| round > *r) {
            best = Some((round, entry.path()));
        }
    }
    Ok(best)
}

/// Scheduled publisher chaos, extracted from the driver's fault plan.
/// Rounds listed here fault deterministically; everything else commits
/// cleanly. Consulting the schedule consumes no RNG draws.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PublisherFaults {
    /// Rounds at which the publisher "crashes" mid-write: half the bytes
    /// land in the staging file, nothing is fsynced or renamed.
    pub kill_at: Vec<u64>,
    /// Rounds whose committed file gets one byte flipped *after* the
    /// snapshot digest was computed — committed but digest-invalid.
    pub corrupt_at: Vec<u64>,
}

/// What one publication attempt did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The snapshot file is committed (possibly with an injected byte
    /// flip); the path is safe to offer to the serving gate.
    Committed(PathBuf),
    /// The scheduled mid-write crash fired: only a partial staging file
    /// exists at the returned path, the committed name was never created,
    /// and nothing may be offered downstream.
    Killed(PathBuf),
}

/// Counters of the publication pipeline (`publish_*` namespace). The
/// gate-side acceptance/rejection counters live in `mamdr-serve`; these
/// cover the producer: attempts, durable commits, and injected chaos.
#[derive(Clone)]
struct PublishMetrics {
    attempts_total: Counter,
    commits_total: Counter,
    kills_total: Counter,
    corruptions_total: Counter,
}

impl PublishMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        registry.describe("publish_attempts_total", "Snapshot publication attempts.");
        registry
            .describe("publish_commits_total", "Snapshot files committed (atomic rename landed).");
        registry.describe(
            "publish_kills_total",
            "Injected publisher crashes mid-write (partial staging file, no commit).",
        );
        registry.describe(
            "publish_corruptions_total",
            "Injected post-digest byte flips in committed snapshot files.",
        );
        PublishMetrics {
            attempts_total: registry.counter("publish_attempts_total"),
            commits_total: registry.counter("publish_commits_total"),
            kills_total: registry.counter("publish_kills_total"),
            corruptions_total: registry.counter("publish_corruptions_total"),
        }
    }
}

/// Commits encoded snapshots into a publish directory, one file per
/// published round, atomically and with deterministic fault injection.
pub struct ContinualPublisher {
    dir: PathBuf,
    faults: PublisherFaults,
    metrics: PublishMetrics,
}

impl ContinualPublisher {
    /// A publisher committing into `dir` (created if missing), reporting
    /// into `registry`, faulted per `faults`.
    pub fn new(
        dir: impl Into<PathBuf>,
        faults: PublisherFaults,
        registry: &MetricsRegistry,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ContinualPublisher { dir, faults, metrics: PublishMetrics::register(registry) })
    }

    /// The publish directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Commits round `round`'s encoded snapshot, applying any scheduled
    /// fault. On [`PublishOutcome::Killed`] the caller must treat the
    /// round as unpublished (the crashed publisher is "restarted" by
    /// simply attempting the next scheduled round).
    pub fn commit(&self, round: u64, bytes: &[u8]) -> io::Result<PublishOutcome> {
        self.metrics.attempts_total.inc();
        let path = snapshot_path(&self.dir, round);
        if self.faults.kill_at.contains(&round) {
            // Crash mid-write: a strict prefix reaches the staging file
            // `write_atomic` would have used, then the process "dies" — no
            // fsync, no rename. The committed name never exists, so
            // discovery and the gate see nothing.
            let tmp = codec::staging_path(&path);
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            self.metrics.kills_total.inc();
            return Ok(PublishOutcome::Killed(tmp));
        }
        if self.faults.corrupt_at.contains(&round) {
            // Disk corruption after the digest was computed: the file
            // commits atomically, but its trailing checksum no longer
            // matches — the loader/gate must reject it.
            let mut bad = bytes.to_vec();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            codec::write_atomic(&path, &bad)?;
            self.metrics.corruptions_total.inc();
            self.metrics.commits_total.inc();
            return Ok(PublishOutcome::Committed(path));
        }
        codec::write_atomic(&path, bytes)?;
        self.metrics.commits_total.inc();
        Ok(PublishOutcome::Committed(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mamdr-publish-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_names_roundtrip_and_reject_foreign_shapes() {
        assert_eq!(snapshot_file_name(12), "snapshot-0000000012.mamdrsv");
        assert_eq!(parse_snapshot_round("snapshot-0000000012.mamdrsv"), Some(12));
        assert_eq!(parse_snapshot_round("snapshot-0000000012.mamdrsv.tmp"), None);
        assert_eq!(parse_snapshot_round("snapshot-12.mamdrsv"), None);
        assert_eq!(parse_snapshot_round("journal-0000000012.mamdrj"), None);
        assert_eq!(parse_snapshot_round("snapshot-00000000xx.mamdrsv"), None);
    }

    #[test]
    fn latest_snapshot_picks_max_round_and_ignores_staging_files() {
        let dir = tmp_dir("latest");
        fs::write(snapshot_path(&dir, 3), b"three").unwrap();
        fs::write(snapshot_path(&dir, 11), b"eleven").unwrap();
        fs::write(dir.join("snapshot-0000000099.mamdrsv.tmp"), b"torn").unwrap();
        fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let (round, path) = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(round, 11);
        assert_eq!(fs::read(path).unwrap(), b"eleven");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_commit_is_atomic_and_counted() {
        let dir = tmp_dir("commit");
        let registry = MetricsRegistry::new();
        let p = ContinualPublisher::new(&dir, PublisherFaults::default(), &registry).unwrap();
        let out = p.commit(4, b"snapshot-bytes").unwrap();
        let PublishOutcome::Committed(path) = out else { panic!("clean round must commit") };
        assert_eq!(fs::read(&path).unwrap(), b"snapshot-bytes");
        assert!(!codec::staging_path(&path).exists(), "staging file must be renamed away");
        assert_eq!(registry.counter("publish_attempts_total").get(), 1);
        assert_eq!(registry.counter("publish_commits_total").get(), 1);
        assert_eq!(registry.counter("publish_kills_total").get(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_publish_leaves_only_a_partial_staging_file() {
        let dir = tmp_dir("kill");
        let registry = MetricsRegistry::new();
        let faults = PublisherFaults { kill_at: vec![2], ..Default::default() };
        let p = ContinualPublisher::new(&dir, faults, &registry).unwrap();
        let out = p.commit(2, &[7u8; 100]).unwrap();
        let PublishOutcome::Killed(tmp) = out else { panic!("round 2 must be killed") };
        assert_eq!(fs::read(&tmp).unwrap().len(), 50, "half the bytes, then the crash");
        assert!(!snapshot_path(&dir, 2).exists(), "committed name must never appear");
        assert!(latest_snapshot(&dir).unwrap().is_none(), "nothing discoverable");
        assert_eq!(registry.counter("publish_kills_total").get(), 1);
        assert_eq!(registry.counter("publish_commits_total").get(), 0);
        // The "restarted" publisher commits the next round over the wreck.
        assert!(matches!(p.commit(3, &[8u8; 10]).unwrap(), PublishOutcome::Committed(_)));
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().0, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_commit_flips_exactly_one_byte() {
        let dir = tmp_dir("corrupt");
        let registry = MetricsRegistry::new();
        let faults = PublisherFaults { corrupt_at: vec![5], ..Default::default() };
        let p = ContinualPublisher::new(&dir, faults, &registry).unwrap();
        let bytes = [3u8; 64];
        let PublishOutcome::Committed(path) = p.commit(5, &bytes).unwrap() else {
            panic!("corrupted rounds still commit")
        };
        let written = fs::read(&path).unwrap();
        let diffs: Vec<usize> = (0..64).filter(|&i| written[i] != bytes[i]).collect();
        assert_eq!(diffs, vec![32], "exactly the middle byte differs");
        assert_eq!(registry.counter("publish_corruptions_total").get(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
