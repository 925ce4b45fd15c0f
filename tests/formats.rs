//! Byte goldens and one corruption table for every binary format the
//! system persists or sends: `MAMDRPS1` parameter checkpoints, `MAMDRJN2`
//! round journals, `MAMDRMF2` shard manifests, `MAMDRSV2` serving snapshots
//! and `MAMDRRPC1` wire frames.
//!
//! **Goldens.** The FNV-1a digest of each fixed fixture's bytes is pinned.
//! The `GOLDEN` constants were captured on the commit before the formats
//! moved onto `mamdr_util::codec` and must never be re-captured: a failure
//! here means a byte on disk or on the wire changed. The one exception is
//! the `frame` rows, re-captured once at the wire-version-3 bump: it
//! replaced the frame's trailing FNV-1a digest with XXH64 and bumped the
//! version byte, so those nine bytes of every frame moved on purpose while
//! the layout and every length stayed. The four rows of the retired barrier
//! op-codes were deleted with them; the other 18 frame rows keep their
//! captured values. (`tests/ps_golden.rs` pins the checkpoint bytes of a
//! trained store; this file pins the other four formats and a hand-built
//! checkpoint.)
//!
//! **The sealed formats' version 2.** Journals, manifests and snapshots
//! moved their envelope digest from FNV-1a to XXH64 and their magic's
//! version byte from `1` to `2`; no body byte moved. Their `GOLDEN` rows
//! still hold: each v2 fixture, turned back into the v1 file it would have
//! been (the `1` magic and an FNV-1a trailer over the unchanged body),
//! must hash to its original constant. `GOLDEN_V2` pins the v2 files
//! themselves — the one declared capture, taken at the digest change and
//! never re-captured. A v1 file is refused by every reader, by name.
//!
//! **Corruption table.** Every decoder is fed every truncation of its
//! fixture, every single-byte flip, and forged count and length fields with
//! a recomputed digest. Each input must come back as a typed error, never a
//! panic, and no single allocation made while decoding it may exceed the
//! input's length plus 64 KiB. A counting global allocator lives in this one
//! test binary (every `tests/*.rs` file is its own binary) to check the
//! last part. Two rules are format-specific: `MAMDRPS1` carries no digest,
//! so a flipped value byte there may decode, and its flips are held to the
//! panic and allocation rules only; a frame is read from a stream whose end
//! it cannot see, so the payload length its header declares — refused above
//! `MAX_PAYLOAD` before anything is allocated — is the one allocation a
//! frame may make past that bound.

use mamdr::core::env::DomainParams;
use mamdr::core::TrainedModel;
use mamdr::data::{DomainSpec, GeneratorConfig};
use mamdr::models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr::obs::{EventLog, MetricsRegistry};
use mamdr::ps::{
    checkpoint, latest_manifest, CacheStats, DistributedConfig, ParamKey, ParameterServer,
    RoundJournal, ShardFiles, ShardManifest,
};
use mamdr::rpc::frame::{
    self, decode_error, encode_error, CheckpointReq, PullManyReq, PullManyResp, PushManyReq,
    PushResp, TraceContext, MAX_PAYLOAD,
};
use mamdr::rpc::{DistributedTrainer, Frame, LoopbackConfig, OpCode, TrainerError};
use mamdr::serve::{ModelSpec, ServingSnapshot, SnapshotError};
use mamdr::tensor::rng::seeded;
use mamdr_util::codec::CodecError;
use mamdr_util::{xxh64, Checksum};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// FNV-1a of each fixture's bytes, captured before the formats moved onto
/// `mamdr_util::codec`. Never re-capture these; the `frame` rows were
/// re-captured once, at the wire-version-3 digest change.
const GOLDEN: &[(&str, u64)] = &[
    ("checkpoint", 0x4c92_92c2_67b6_be0c),
    ("journal", 0xd569_763f_d6c8_0cf1),
    ("manifest", 0xa006_c3de_8b2b_df9e),
    ("snapshot shared-only", 0x7480_d62f_ff83_4ca0),
    ("snapshot deltas", 0xc665_d5a9_a0bf_d428),
    ("snapshot full", 0x4d2a_5ede_ee07_5d5d),
    ("snapshot embedding", 0xb00b_e881_6e7d_3dd5),
    ("frame Checkpoint", 0x2a73_283e_e54f_00f4),
    ("frame CheckpointOk", 0x46b5_b861_2403_fbbc),
    ("frame Shutdown", 0xc053_2830_697f_f99c),
    ("frame ShutdownOk", 0xdc52_fb48_13ff_5a1c),
    ("frame Error", 0xe9cb_8513_5b11_d967),
    ("frame PullMany", 0x3e98_026f_cf11_90c8),
    ("frame PullManyOk", 0xf5cc_2191_9844_951d),
    ("frame PushMany", 0xee2a_29b0_42f4_a34b),
    ("frame PushManyOk", 0x0fd2_1895_d34b_2bd9),
    ("frame Checkpoint traced", 0x7563_c004_1cf3_649a),
    ("frame CheckpointOk traced", 0x3a9c_0e7c_6ee3_7116),
    ("frame Shutdown traced", 0x2553_eba8_795a_bfe0),
    ("frame ShutdownOk traced", 0xee5b_74a0_8503_0f9f),
    ("frame Error traced", 0xb57f_0060_d9e2_1385),
    ("frame PullMany traced", 0x67cf_bdab_26c3_90c9),
    ("frame PullManyOk traced", 0xae64_ac86_ed62_e330),
    ("frame PushMany traced", 0x7295_1337_f8e9_e617),
    ("frame PushManyOk traced", 0x6fa3_6715_a11c_73e8),
];

/// FNV-1a of each sealed fixture's version-2 file (XXH64 envelope),
/// captured once at the envelope's digest change. Never re-capture these.
const GOLDEN_V2: &[(&str, u64)] = &[
    ("journal", 0x1546_2b01_ae7d_27ea),
    ("manifest", 0x4a6f_4360_52cd_75b3),
    ("snapshot shared-only", 0x7f2e_f574_eff3_f43a),
    ("snapshot deltas", 0xeb79_f468_061b_b885),
    ("snapshot full", 0x56d4_aa80_60e4_d39d),
    ("snapshot embedding", 0xf48b_a94e_ea51_19bc),
];

/// Slack above the input length that a decode may allocate in one piece.
const ALLOC_SLACK: usize = 64 << 10;

struct Counting;

thread_local! {
    /// The largest single request on this thread since [`largest_alloc`]
    /// last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(bytes)));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only reads the layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the largest single allocation this
/// thread made meanwhile.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A fresh directory per call: the tests of this binary run concurrently.
fn fresh_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mamdr-formats-{tag}-{}-{call}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 3-wide store over two tables, with a `-0.0` and a subnormal among
/// the values.
fn store() -> ParameterServer {
    let ps = ParameterServer::new(4, 3);
    for table in 0..2u32 {
        for row in [0u32, 2, 7] {
            let base = table as f32 * 10.0 + row as f32;
            ps.init_row(ParamKey::new(table, row), vec![base, -0.0, f32::MIN_POSITIVE + base]);
        }
    }
    ps
}

fn checkpoint_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    checkpoint::save(&store(), 3, &mut buf).unwrap();
    buf
}

fn journal() -> RoundJournal {
    RoundJournal {
        rounds_done: 3,
        checkpoint_file: "ckpt-0000000003.mamdrps".into(),
        cache: CacheStats { hits: 100, misses: 7 },
        max_staleness: 2,
        traffic: (11, 13, 1700, 1900),
        guard_trips: 1,
        guard_rollbacks: 0,
        round_losses: vec![0.7, 0.65, 0.61],
        dim: 3,
        adagrad: vec![
            (ParamKey::new(0, 1), vec![0.1, 0.2, 0.3]),
            (ParamKey::new(2, 0), vec![1.5, -0.0, f32::MIN_POSITIVE]),
        ],
    }
}

fn journal_bytes() -> Vec<u8> {
    let dir = fresh_dir("journal-golden");
    let journal = journal();
    let digest = journal.write_to_dir(&dir).unwrap();
    let bytes = std::fs::read(dir.join(journal.file_name())).unwrap();
    assert_eq!(digest, xxh64(&bytes, 0), "the digest of the committed bytes");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn manifest() -> ShardManifest {
    let files = |shard: usize, checkpoint_digest: u64, journal_digest: u64| ShardFiles {
        checkpoint: format!("shard-{shard}/ckpt-0000000007.mamdrps"),
        checkpoint_digest,
        journal: format!("shard-{shard}/journal-0000000007.mamdrj"),
        journal_digest,
    };
    ShardManifest {
        rounds_done: 7,
        map_version: 2,
        shards: vec![files(0, 0xDEAD, 0xBEEF), files(1, 0xF00D, 0xCAFE)],
    }
}

fn manifest_bytes() -> Vec<u8> {
    let dir = fresh_dir("manifest-golden");
    let bytes = std::fs::read(manifest().write_to_dir(&dir).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// A tiny two-domain MLP spec.
fn spec() -> ModelSpec {
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
        n_domains: 2,
    }
}

/// A seeded dense snapshot in domain mode 0 (`SharedOnly`), 1 (`Deltas`)
/// or 2 (`Full`).
fn dense(mode: u8) -> ServingSnapshot {
    let spec = spec();
    let n =
        build_model(spec.kind, &spec.features, &spec.config, spec.n_domains, 1).params.n_scalars();
    let mut rng = seeded(100 + mode as u64);
    let mut flat = |scale: f32| (0..n).map(|_| rng.gen_range(-scale..scale)).collect::<Vec<f32>>();
    let shared = flat(0.5);
    let domains = match mode {
        0 => DomainParams::SharedOnly,
        1 => DomainParams::Deltas((0..spec.n_domains).map(|_| flat(0.1)).collect()),
        _ => DomainParams::Full((0..spec.n_domains).map(|_| flat(0.5)).collect()),
    };
    ServingSnapshot::from_trained(10 + mode as u64, spec, TrainedModel { shared, domains }).unwrap()
}

fn embedding() -> ServingSnapshot {
    ServingSnapshot::from_ps(5, &store(), 2)
}

fn snapshot_bytes(snapshot: &ServingSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    snapshot.write_to(&mut buf).unwrap();
    buf
}

fn keys() -> Vec<ParamKey> {
    vec![ParamKey::new(0, 1), ParamKey::new(0, 7), ParamKey::new(3, 77)]
}

/// A representative payload for every op-code.
fn payload(op: OpCode) -> Vec<u8> {
    let values: Vec<f32> = (0..9).map(|i| i as f32 * 0.25 - 1.0).collect();
    match op {
        OpCode::Checkpoint => CheckpointReq { round: 3 }.encode(),
        OpCode::CheckpointOk => b"shard-0/ckpt-0000000003.mamdrps".to_vec(),
        OpCode::Error => encode_error("unknown row"),
        OpCode::PullMany => PullManyReq { keys: keys() }.encode(),
        OpCode::PullManyOk => PullManyResp { versions: vec![4, 0, 9], values }.encode(),
        OpCode::PushMany => {
            PushManyReq { client_id: 1, lr: 0.5, keys: keys(), grads: values }.encode()
        }
        OpCode::PushManyOk => PushResp { applied: true }.encode(),
        OpCode::Shutdown | OpCode::ShutdownOk => Vec::new(),
    }
}

/// Every op-code's frame, untraced then traced: `(name, bytes)`.
fn frames() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for traced in [false, true] {
        for op in OpCode::ALL {
            let mut frame = Frame::new(op, 40 + op as u64, payload(op));
            if traced {
                frame =
                    frame.with_trace_context(TraceContext { trace_id: 0xABCD, span_id: op as u64 });
            }
            let name = format!("frame {op:?}{}", if traced { " traced" } else { "" });
            out.push((name, frame.to_bytes()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Goldens
// ---------------------------------------------------------------------------

fn fixtures() -> Vec<(String, Vec<u8>)> {
    let mut out = vec![
        ("checkpoint".to_string(), checkpoint_bytes()),
        ("journal".to_string(), journal_bytes()),
        ("manifest".to_string(), manifest_bytes()),
        ("snapshot shared-only".to_string(), snapshot_bytes(&dense(0))),
        ("snapshot deltas".to_string(), snapshot_bytes(&dense(1))),
        ("snapshot full".to_string(), snapshot_bytes(&dense(2))),
        ("snapshot embedding".to_string(), snapshot_bytes(&embedding())),
    ];
    out.extend(frames());
    out
}

/// Whether `bytes` are a sealed version-2 file: journal, manifest or
/// snapshot.
fn sealed(bytes: &[u8]) -> bool {
    matches!(&bytes[..8], b"MAMDRJN2" | b"MAMDRMF2" | b"MAMDRSV2")
}

/// The version-1 file a sealed v2 file would have been: the same body
/// under the `1` magic, sealed with FNV-1a.
fn v1_of(bytes: &[u8]) -> Vec<u8> {
    assert!(sealed(bytes), "not a sealed v2 file");
    let mut v1 = bytes.to_vec();
    v1[7] = b'1';
    let n = v1.len();
    let digest = Checksum::of(&v1[8..n - 8]);
    v1[n - 8..].copy_from_slice(&digest.to_le_bytes());
    v1
}

/// Compares `(name, FNV-1a)` pairs with a pinned table, printing the
/// computed table on a mismatch.
fn assert_pinned(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String =
        got.iter().map(|(name, fnv)| format!("    ({name:?}, {fnv:#018x}),\n")).collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = pinned.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "fixture set changed; computed table:\n{table}");
    for ((name, fnv), (_, want)) in got.iter().zip(pinned) {
        assert_eq!(fnv, want, "{name} bytes moved; computed table:\n{table}");
    }
}

/// Every fixture hashes to its original constant — a sealed one through
/// the v1 file it stands for, so its body bytes are proven unmoved — and
/// every sealed v2 file to its one-time capture.
#[test]
fn every_format_keeps_its_bytes() {
    let fixtures = fixtures();
    let as_v1 = |bytes: &[u8]| if sealed(bytes) { v1_of(bytes) } else { bytes.to_vec() };
    let got: Vec<(String, u64)> =
        fixtures.iter().map(|(name, bytes)| (name.clone(), Checksum::of(&as_v1(bytes)))).collect();
    assert_pinned(&got, GOLDEN);
    let got: Vec<(String, u64)> = fixtures
        .iter()
        .filter(|(_, bytes)| sealed(bytes))
        .map(|(name, bytes)| (name.clone(), Checksum::of(bytes)))
        .collect();
    assert_pinned(&got, GOLDEN_V2);
}

/// Every sealed reader refuses the v1 file of its fixture — an unchanged
/// body under a valid FNV-1a trailer — with a typed `Corrupt` naming the
/// retired version.
#[test]
fn every_reader_refuses_a_version_1_file_by_name() {
    let dir = fresh_dir("v1");
    let retired = "retired format version 1";
    let mut refused = 0;
    for (name, bytes) in fixtures().into_iter().filter(|(_, b)| sealed(b)) {
        let v1 = v1_of(&bytes);
        let message = match name.as_str() {
            "journal" | "manifest" => {
                let path = dir.join(&name);
                std::fs::write(&path, &v1).unwrap();
                let read = if name == "journal" {
                    RoundJournal::read(&path).map(drop)
                } else {
                    ShardManifest::read(&path).map(drop)
                };
                match read {
                    Err(CodecError::Corrupt(m)) => m,
                    other => panic!("{name}: a v1 file read as {other:?}"),
                }
            }
            _ => match ServingSnapshot::read_from(v1.as_slice()) {
                Err(SnapshotError::Corrupt(m)) => m,
                other => panic!("{name}: a v1 file read as {other:?}"),
            },
        };
        assert!(message.contains(retired), "{name}: {message}");
        assert!(message.contains(std::str::from_utf8(&v1[..8]).unwrap()), "{name}: {message}");
        refused += 1;
    }
    assert_eq!(refused, 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint directory whose only manifest is version 1 — its body and
/// every file it names intact, its FNV-1a trailer valid — commits nothing:
/// discovery logs the skip, and resume ends in "no committed manifest"
/// rather than resuming from it.
#[test]
fn resume_over_only_a_version_1_manifest_finds_no_commit_point() {
    let mut gen = GeneratorConfig::base("formats-resume", 40, 30, 9);
    gen.domains = (0..2).map(|i| DomainSpec::new(format!("d{i}"), 120, 0.3)).collect();
    let ds = gen.generate();
    let dir = fresh_dir("v1-resume");
    let train = DistributedConfig {
        n_workers: 1,
        epochs: 1,
        sync_rounds: true,
        kernel_threads: 1,
        ..Default::default()
    };
    let cfg = |resume: bool| LoopbackConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        resume,
        ..LoopbackConfig::new(train)
    };
    let mut run =
        DistributedTrainer::new(&ds, cfg(false), Arc::new(MetricsRegistry::new())).unwrap();
    run.train(&ds).unwrap();
    run.shutdown();

    // Keep the newest manifest only, and check that it is a commit point.
    let (newest, _) = latest_manifest(&dir, None).unwrap().expect("the run committed a boundary");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "mamdrmf") && path != newest {
            std::fs::remove_file(path).unwrap();
        }
    }
    assert!(latest_manifest(&dir, None).unwrap().is_some());

    std::fs::write(&newest, v1_of(&std::fs::read(&newest).unwrap())).unwrap();
    let log = EventLog::in_memory();
    assert!(latest_manifest(&dir, Some(&log)).unwrap().is_none());
    let lines = log.lines();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("manifest_skipped"), "{}", lines[0]);
    assert!(lines[0].contains("retired format version 1 (MAMDRMF1)"), "{}", lines[0]);
    match DistributedTrainer::new(&ds, cfg(true), Arc::new(MetricsRegistry::new())) {
        Err(TrainerError::Resume(m)) => assert!(m.contains("no committed manifest"), "{m}"),
        Err(other) => panic!("expected TrainerError::Resume, got {other}"),
        Ok(_) => panic!("resumed from a version-1 manifest"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Corruption table
// ---------------------------------------------------------------------------

/// A decoder under test: `Ok` when the bytes parse, the typed error's text
/// when they do not.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), String>>;

/// One format fixture and what the table does to it.
struct Row {
    name: String,
    bytes: Vec<u8>,
    decode: Decode,
    /// Whether every single-byte flip must be rejected (the format carries
    /// a digest over every byte).
    flips_rejected: bool,
    /// `(offset, width)` of the count and length fields to forge.
    counts: Vec<(usize, usize)>,
    /// Recomputes the digest after a forgery.
    reseal: fn(&mut [u8]),
    /// The largest single allocation a decode of these bytes may make.
    bound: fn(&[u8]) -> usize,
}

fn within_input(bytes: &[u8]) -> usize {
    bytes.len() + ALLOC_SLACK
}

/// A frame may also allocate the payload length its header declares, once
/// that length has passed the `MAX_PAYLOAD` cap.
fn within_declared_payload(bytes: &[u8]) -> usize {
    let declared = bytes.get(20..24).map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()));
    within_input(bytes).max(if declared <= MAX_PAYLOAD { declared as usize } else { 0 })
}

fn no_digest(_: &mut [u8]) {}

/// `magic(8) ‖ body ‖ XXH64(body)`: journals, manifests and snapshots.
fn reseal_envelope(bytes: &mut [u8]) {
    let n = bytes.len();
    let digest = xxh64(&bytes[8..n - 8], 0);
    bytes[n - 8..].copy_from_slice(&digest.to_le_bytes());
}

/// A frame's digest covers everything between the 9-byte magic and itself:
/// the 15 header bytes, then the payload.
fn reseal_frame(bytes: &mut [u8]) {
    let n = bytes.len();
    let sealed = frame::digest(bytes[9..24].try_into().unwrap(), &bytes[24..n - 8]);
    bytes[n - 8..].copy_from_slice(&sealed.to_le_bytes());
}

/// Journals and manifests are read from files: each input is written to a
/// temporary file and read back through the format's own reader.
fn from_file<T: 'static, E: std::fmt::Display + 'static>(
    path: PathBuf,
    read: fn(&Path) -> Result<T, E>,
) -> Decode {
    Box::new(move |bytes| {
        std::fs::write(&path, bytes).unwrap();
        read(&path).map(drop).map_err(|e| e.to_string())
    })
}

fn decode_snapshot(bytes: &[u8]) -> Result<(), String> {
    ServingSnapshot::read_from(bytes).map(drop).map_err(|e| e.to_string())
}

/// Decodes a frame the way a peer does: header and digest, then the trace
/// extension, then the op-code's payload codec.
fn decode_frame(bytes: &[u8]) -> Result<(), String> {
    let text = |e: mamdr::rpc::FrameError| e.to_string();
    let mut frame = Frame::decode(bytes).map_err(text)?;
    frame.take_trace_context().map_err(text)?;
    let p = frame.payload.as_slice();
    match frame.opcode {
        OpCode::Checkpoint => CheckpointReq::decode(p).map(drop),
        OpCode::PullMany => PullManyReq::decode(p).map(drop),
        OpCode::PullManyOk => PullManyResp::decode(p).map(drop),
        OpCode::PushMany => PushManyReq::decode(p).map(drop),
        OpCode::PushManyOk => PushResp::decode(p).map(drop),
        OpCode::Error | OpCode::CheckpointOk => {
            decode_error(p);
            Ok(())
        }
        OpCode::Shutdown | OpCode::ShutdownOk => Ok(()),
    }
    .map_err(text)
}

/// Byte offsets of a dense snapshot's count fields: magic 8 | tag 1 |
/// version 8 | kind 1 | five feature sizes ×4 | embed_dim 4 | n_hidden 4 |
/// hidden ×4 | dropout 4 | four expert/attention sizes ×4 | n_domains 4 |
/// mode 1 | flat_len 8.
const SNAPSHOT_N_HIDDEN_AT: usize = 42;
fn snapshot_n_domains_at() -> usize {
    66 + 4 * ModelConfig::tiny().hidden.len()
}
fn snapshot_flat_len_at() -> usize {
    71 + 4 * ModelConfig::tiny().hidden.len()
}

/// The count fields of a frame's payload, relative to the payload start.
fn payload_counts(op: OpCode) -> Vec<(usize, usize)> {
    let n = keys().len();
    match op {
        OpCode::PullMany => vec![(0, 4)],
        OpCode::PullManyOk => vec![(0, 4), (4 + 8 * n, 4)],
        OpCode::PushMany => vec![(8, 4), (12 + 8 * n, 4)],
        _ => Vec::new(),
    }
}

fn table(dir: &Path) -> Vec<Row> {
    let journal = journal();
    let n_losses_at = 20 + journal.checkpoint_file.len() + 9 * 8;
    let journal_dim_at = n_losses_at + 8 + 8 * journal.round_losses.len();
    let mut rows = vec![
        Row {
            name: "MAMDRPS1 checkpoint".into(),
            bytes: checkpoint_bytes(),
            decode: Box::new(|b| checkpoint::load(b).map(drop).map_err(|e| e.to_string())),
            flips_rejected: false,
            counts: vec![(8, 4), (12, 8)],
            reseal: no_digest,
            bound: within_input,
        },
        Row {
            name: "MAMDRJN2 journal".into(),
            bytes: journal_bytes(),
            decode: from_file(dir.join("journal-0000000003.mamdrj"), RoundJournal::read),
            flips_rejected: true,
            counts: vec![(16, 4), (n_losses_at, 8), (journal_dim_at, 4), (journal_dim_at + 4, 8)],
            reseal: reseal_envelope,
            bound: within_input,
        },
        Row {
            name: "MAMDRMF2 manifest".into(),
            bytes: manifest_bytes(),
            decode: from_file(dir.join("manifest-0000000007.mamdrmf"), ShardManifest::read),
            flips_rejected: true,
            counts: vec![(24, 4), (28, 4)],
            reseal: reseal_envelope,
            bound: within_input,
        },
        Row {
            name: "MAMDRSV2 embedding snapshot".into(),
            bytes: snapshot_bytes(&embedding()),
            decode: Box::new(decode_snapshot),
            flips_rejected: true,
            counts: vec![(17, 4), (25, 8)],
            reseal: reseal_envelope,
            bound: within_input,
        },
    ];
    for mode in 0..3u8 {
        // A shared-only snapshot's domain count sizes the rebuilt model, not
        // a section of the file, so only modes 1 and 2 forge it here.
        let mut counts = vec![(SNAPSHOT_N_HIDDEN_AT, 4), (snapshot_flat_len_at(), 8)];
        if mode > 0 {
            counts.push((snapshot_n_domains_at(), 4));
        }
        rows.push(Row {
            name: format!("MAMDRSV2 dense snapshot, mode {mode}"),
            bytes: snapshot_bytes(&dense(mode)),
            decode: Box::new(decode_snapshot),
            flips_rejected: true,
            counts,
            reseal: reseal_envelope,
            bound: within_input,
        });
    }
    for traced in [false, true] {
        let start = 24 + if traced { 17 } else { 0 };
        for op in OpCode::ALL {
            let mut frame = Frame::new(op, 40 + op as u64, payload(op));
            if traced {
                frame = frame.with_trace_context(TraceContext { trace_id: 7, span_id: 9 });
            }
            let mut counts = vec![(20, 4)];
            counts.extend(payload_counts(op).into_iter().map(|(at, w)| (start + at, w)));
            rows.push(Row {
                name: format!("MAMDRRPC1 frame {op:?}{}", if traced { " traced" } else { "" }),
                bytes: frame.to_bytes(),
                decode: Box::new(decode_frame),
                flips_rejected: true,
                counts,
                reseal: reseal_frame,
                bound: within_declared_payload,
            });
        }
    }
    rows
}

/// Decodes `input` under the allocation counter and records what broke the
/// table's rules: a panic, an accepted input that `must_fail`, or one
/// allocation above the row's bound.
fn check(row: &Row, case: &str, input: &[u8], must_fail: bool, failures: &mut Vec<String>) {
    let run = std::panic::AssertUnwindSafe(|| largest_alloc(|| (row.decode)(input)));
    match std::panic::catch_unwind(run) {
        Err(_) => failures.push(format!("{}: {case}: panicked", row.name)),
        Ok((result, largest)) => {
            if must_fail && result.is_ok() {
                failures.push(format!("{}: {case}: decoded", row.name));
            }
            if largest > (row.bound)(input) {
                failures.push(format!(
                    "{}: {case}: one allocation of {largest} bytes for a {}-byte input",
                    row.name,
                    input.len()
                ));
            }
        }
    }
}

#[test]
fn every_corruption_of_every_format_is_a_typed_error_within_its_bytes() {
    let dir = fresh_dir("table");
    let mut failures = Vec::new();
    let mut inputs = 0usize;
    for row in table(&dir) {
        let clean = &row.bytes;
        assert!((row.decode)(clean).is_ok(), "{}: the clean fixture must decode", row.name);
        for keep in 0..clean.len() {
            check(&row, &format!("truncated to {keep}"), &clean[..keep], true, &mut failures);
        }
        for at in 0..clean.len() {
            let mut bad = clean.clone();
            bad[at] ^= 0x5a;
            check(&row, &format!("byte {at} flipped"), &bad, row.flips_rejected, &mut failures);
        }
        for &(at, width) in &row.counts {
            let honest = match width {
                4 => u32::from_le_bytes(clean[at..at + 4].try_into().unwrap()) as u64,
                _ => u64::from_le_bytes(clean[at..at + 8].try_into().unwrap()),
            };
            let max = if width == 4 { u32::MAX as u64 } else { u64::MAX };
            for forged in [max, honest + 1, 1 << 28] {
                let mut bad = clean.clone();
                bad[at..at + width].copy_from_slice(&forged.to_le_bytes()[..width]);
                (row.reseal)(&mut bad);
                check(
                    &row,
                    &format!("field at {at} forged to {forged}"),
                    &bad,
                    true,
                    &mut failures,
                );
            }
        }
        inputs += 2 * clean.len() + 3 * row.counts.len();
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {inputs} corrupt inputs broke the rules:\n{}",
        failures.len(),
        failures.iter().take(40).cloned().collect::<Vec<_>>().join("\n")
    );
}

/// The shared-only fixture is 1 615 bytes. Declaring `u32::MAX` domains and
/// a 2²⁸-float shared section, under a recomputed digest, once made the
/// decoder allocate 1 GiB before it failed with an I/O error.
#[test]
fn a_forged_snapshot_header_cannot_size_an_allocation() {
    let mut bytes = snapshot_bytes(&dense(0));
    assert_eq!(bytes.len(), 1615);
    let (domains_at, flat_at) = (snapshot_n_domains_at(), snapshot_flat_len_at());
    bytes[domains_at..domains_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes[flat_at..flat_at + 8].copy_from_slice(&(1u64 << 28).to_le_bytes());
    reseal_envelope(&mut bytes);
    let (result, largest) = largest_alloc(|| ServingSnapshot::read_from(bytes.as_slice()));
    assert!(matches!(result, Err(SnapshotError::Corrupt(_))), "{result:?}");
    assert!(largest <= bytes.len(), "one allocation of {largest} bytes for a 1615-byte file");
}
