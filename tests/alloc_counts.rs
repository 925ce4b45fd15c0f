//! Exact allocation counts of one training step, pinned.
//!
//! Shared CI runners cannot gate time, but allocations per operation are
//! exact, seeded counts. A counting global allocator lives in this one test
//! binary (every `tests/*.rs` file is its own binary, so nothing else pays
//! for it) and counts, per thread, the allocations and requested bytes of:
//!
//! * one `loss_and_grads` call on a fresh tape (the cold path), and one
//!   `loss_and_grads_into` on a tape and gradient kept from an earlier step
//!   (the warm path every training loop runs);
//! * one `domain_regularization` call — Algorithm 2 as `Mamdr::train` runs
//!   it — on a fresh environment and then on the same, warm, one, each
//!   divided by the lookahead steps it takes,
//!
//! at the `dense_train` benchmark shape: taobao(10), the default MLP,
//! batch 128, DR capped at 8 batches per domain, 1 kernel thread; and a
//! warm step of every architecture at `ModelConfig::tiny()`. A change that
//! adds an allocation to any of these paths fails here; a change that
//! removes some re-pins the constants in the same commit and says why.
//!
//! Beyond the exact pins, two bounds say what "O(batch)" means here: no
//! single allocation of a step is as large as the user table's gradient
//! would be, and a DR call allocates less than that size per step.
//!
//! One more pin guards the kernel layer's inline path: a warmed 128×80×64
//! `Tensor::gemm` (the first MLP layer at batch 128) allocates the same at
//! 1 and 8 threads. A product that small is one chunk, and a one-chunk
//! dispatch must never enter a `std::thread::scope`, which heap-allocates
//! its shared state and each spawned thread.
//!
//! Inference is pinned the same way, on the same fixture: one warmed
//! `eval_logits` at batch 1 and 32, and one `ServingSnapshot::score` of a
//! single request on a snapshot of that model, both on a fresh evaluation
//! recorder, plus the same request through buffers a scoring worker keeps.
//! And one warm `ReplicatedServer::submit` + `Pending::wait` round trip,
//! seen from the client's thread, one cached PS worker round over an
//! in-process store, one pull-response frame encoded and decoded, and one
//! embedding snapshot published: built from a store, written and read
//! back.

use mamdr::autodiff::{Grads, Tape};
use mamdr::core::frameworks::mamdr::domain_regularization;
use mamdr::core::{TrainConfig, TrainEnv, TrainedModel};
use mamdr::data::{make_batch, presets, Batch, MdrDataset};
use mamdr::models::{
    build_model, eval_logits, loss_and_grads, loss_and_grads_into, BuiltModel, CtrModel,
    FeatureConfig, ModelConfig, ModelKind,
};
use mamdr::nn::{ForwardCtx, ParamStore};
use mamdr::obs::MetricsRegistry;
use mamdr::ps::trainer::{run_cached_round, seed_server, worker_round_seed};
use mamdr::ps::{partition_domains, ParamKey, ParameterServer, LOCK_STRIPES};
use mamdr::rpc::frame::PullManyResp;
use mamdr::rpc::{Frame, OpCode};
use mamdr::serve::{
    ModelSpec, ReplicatedServer, ScoreRequest, ScoreScratch, ServeConfig, ServeResult,
    ServingSnapshot,
};
use mamdr::tensor::pool;
use mamdr::tensor::rng::seeded;
use mamdr::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// `(allocations, bytes)` of one `loss_and_grads` call on a fresh tape:
/// the cold path, which builds every arena buffer, adjoint buffer, list
/// and per-table slot index from nothing. Before the arenas it allocated
/// 140 / 623 464 (and 141 / 801 764 before the row-sparse gradients, its
/// largest allocation the user table's gradient).
const LOSS_AND_GRADS: (u64, u64) = (149, 649_774);
/// The same step on a kept tape and gradient (`loss_and_grads_into`): only
/// the packed transpose each NT product in the backward pass makes of its
/// rhs, data plus shape, for the three dense layers' input gradients
/// (`dz · wᵀ`: 20 480 + 8 192 + 128 bytes and 3 × 16). Everything else —
/// values, parameter copies, ids, dropout masks, labels, adjoints and the
/// gradient — lives in kept storage.
const LOSS_AND_GRADS_WARM: (u64, u64) = (6, 28_848);
/// `(lookahead steps, allocations, bytes)` of one `domain_regularization`
/// call on a fresh environment, and of the next call on the same one. A
/// warm step makes the six allocations of [`LOSS_AND_GRADS_WARM`] plus
/// `make_batch`'s nine (the id, group, category and label lists, and the
/// two gathered dense-feature tensors): 15 × 90 = 1 350. The other 54 are
/// per lookahead (the batch plan and batch list of each of its two
/// domains) and per call (the helper list, θ̃, Θ = θS + θ̃, the optimizer
/// and the growth of the sparse gradient's lists). Before the kept tape and
/// lookahead buffers a call made 13 584 allocations and 58 154 604 bytes
/// (150.9 and 646 162 per step).
const DR_CALL: (u64, u64, u64) = (90, 1_547, 4_901_626);
const DR_CALL_WARM: (u64, u64, u64) = (90, 1_404, 4_280_700);
/// A warm training step of every architecture at `ModelConfig::tiny()`
/// (batch 128, no dropout): each op — softmax, normalization, slices,
/// attention — records into the arenas, so what remains is two allocations
/// per NT product's packed rhs (one per dense layer whose input needs a
/// gradient) and the model body's own lists: WDL's cross ids, STAR's domain
/// ids, the field list of NeurFM, DeepFM and AutoInt, the expert-output
/// lists of MMoE, CGC and PLE, AutoInt's per-head and per-field lists.
const WARM_STEP_BY_KIND: [(ModelKind, u64, u64); 11] = [
    (ModelKind::Mlp, 4, 704),
    (ModelKind::Wdl, 5, 1_216),
    (ModelKind::NeurFm, 5, 232),
    (ModelKind::AutoInt, 57, 2_336),
    (ModelKind::DeepFm, 5, 744),
    (ModelKind::SharedBottom, 6, 1_264),
    (ModelKind::Mmoe, 11, 2_112),
    (ModelKind::Cgc, 16, 3_616),
    (ModelKind::Ple, 28, 4_896),
    (ModelKind::Star, 7, 1_328),
    (ModelKind::Raw, 4, 704),
];
/// `(allocations, bytes)` of one 128×80×64 `Tensor::gemm`: in NN the
/// result's data (32 768 bytes) and shape (16); in NT those plus the packed
/// transpose of the rhs (20 480 + 16).
const GEMM_NN: (u64, u64) = (2, 32_784);
const GEMM_NT: (u64, u64) = (4, 53_280);
/// `(allocations, bytes)` of one `eval_logits` call at batch 1 and 32, and
/// of one `ServingSnapshot::score` of one request, each on a fresh
/// evaluation recorder: its arena and slot list, and nothing per parameter.
/// Their tape-recorded parent copied every dense parameter (≈ 30 KB of the
/// default MLP) and allocated 60 / 38 640, 60 / 73 236 and 69 / 38 756;
/// before the model body held its field list on the stack they were
/// 30 / 3 668, 30 / 37 632 and 38 / 3 828.
const EVAL_B1: (u64, u64) = (28, 3_572);
const EVAL_B32: (u64, u64) = (28, 37_536);
const SCORE_B1: (u64, u64) = (36, 3_732);
/// One request through a scoring worker's kept buffers: nothing (the model
/// body's list of field handles, 2 / 96 before, is on the stack).
const WORKER_B1: (u64, u64) = (0, 0);
/// One warm `submit` + `wait` of a single request on the client's thread:
/// the request's reply slot (its `Arc`ed lock and state). With a reply
/// `mpsc::channel` per request it was 2 / 608. The counter is per thread,
/// so what the worker allocates is not seen here — with that channel, its
/// first `send` also allocated a list block of about 1.5 KiB.
const SUBMIT_WAIT: (u64, u64) = (1, 56);
/// One cached worker round (`run_cached_round`) over an in-process store:
/// worker 0's partition of round 0 on `industry(8, 300, 42)` at width 8 of
/// 2 workers — 4 domains, 497 rows. What is left is per round or per
/// domain, none per row or per example: the sorted key list (1); the
/// slab's key list and dynamic half, plus the pulled batch's two buffers,
/// which become its versions and static half (4); the dense index — its
/// table list and each table's doubling growth up to the largest row id
/// read (33); each domain's example order (4); the kept five-row buffer's
/// growth (4). The drain hands the dynamic half back as the gradient
/// batch. A synchronous round cannot be stale, so nothing reads the rows'
/// versions back; while the round probed them, the probe's versions vector
/// (497 × 8 B) made it 47 / 167 748. With a hash-map record per row, five
/// row copies per example and a vector per row from the pull to the drain
/// it was 2 833 / 299 972.
const CACHED_ROUND: (u64, u64) = (46, 163_772);
/// One `PullManyOk` frame of 497 rows at width 8 (the `CACHED_ROUND`
/// working set), there and back: the payload encode, `Frame::to_bytes`,
/// `Frame::decode` and `PullManyResp::decode`. One exactly sized buffer
/// each: the payload, the frame bytes, the received payload, and the
/// decoded versions and values (5). With a payload writer that grew by
/// doubling it was 15 / 87 760.
const FRAME_ROUNDTRIP: (u64, u64) = (5, 79_576);
/// One embedding publish — `ServingSnapshot::from_ps`, `write_to` into a
/// fresh buffer, `read_from` — of a fixed store of 300 rows × 8 in two
/// tables (the [`publish_store`] fixture). Nothing per row: the dump's
/// stripe guards, sorted row list, values and keys (4); the index (1); the
/// encoded file, written straight into the caller's buffer (1); the
/// decoded keys, values and index (3), read from that buffer in place.
/// While `write_to` encoded into a buffer of its own and copied it over,
/// and `read_from` copied the bytes before decoding, two more 12 041-byte
/// buffers made it 11 / 69 147. With a vector per row through a hash map
/// on both sides, a sorted copy for the encode and a doubling file buffer
/// it was 619 / 129 066.
const EMBEDDING_PUBLISH: (u64, u64) = (9, 45_065);
/// The gradient of the user embedding table if it were materialised:
/// 2 378 rows × 16 floats × 4 bytes.
const USER_TABLE_GRAD_BYTES: u64 = 2_378 * 16 * 4;

struct Counting;

/// What one thread requested: allocations, bytes, and the largest single
/// request since [`counted`] last reset it.
#[derive(Clone, Copy)]
struct Counts {
    allocs: u64,
    bytes: u64,
    largest: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0, largest: 0 }) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        let bytes = bytes as u64;
        c.set(Counts {
            allocs: n.allocs + 1,
            bytes: n.bytes + bytes,
            largest: n.largest.max(bytes),
        });
    });
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

/// Runs `f` and returns what this thread requested meanwhile.
fn counted(f: impl FnOnce()) -> Counts {
    let before = COUNTS.with(|c| {
        let n = c.get();
        c.set(Counts { largest: 0, ..n });
        n
    });
    f();
    let after = COUNTS.with(Cell::get);
    Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        largest: after.largest,
    }
}

/// Held while a test sets the process-wide kernel thread count, so the
/// 8-thread measurement below is not reset to 1 under it.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn fixture() -> (MdrDataset, BuiltModel) {
    let knob = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    pool::set_threads(1);
    drop(knob);
    let ds = presets::taobao(10, 42, 1.0);
    let fc = FeatureConfig::from_dataset(&ds);
    let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::default(), ds.n_domains(), 42);
    (ds, built)
}

/// A full training batch of the fixture.
fn train_batch(ds: &MdrDataset) -> Batch {
    let dom = (0..ds.n_domains()).find(|&d| ds.domains[d].train.len() >= 128).unwrap();
    make_batch(ds, dom, &ds.domains[dom].train[..128])
}

/// One `loss_and_grads` call on a fresh tape, after a first one.
fn loss_and_grads_counts(ds: &MdrDataset, built: &BuiltModel) -> Counts {
    let batch = train_batch(ds);
    let mut rng = seeded(7);
    let mut step = || {
        let mut ctx = ForwardCtx::train(&mut rng);
        drop(loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut ctx));
    };
    step();
    counted(step)
}

/// One `loss_and_grads_into` call on a tape and gradient kept from a first
/// one.
fn warm_step_counts(model: &dyn CtrModel, params: &ParamStore, batch: &Batch) -> Counts {
    let (mut tape, mut grads) = (Tape::new(), Grads::default());
    let mut rng = seeded(7);
    let mut step = || {
        let mut ctx = ForwardCtx::train(&mut rng);
        loss_and_grads_into(model, params, batch, &mut ctx, &mut tape, &mut grads);
    };
    step();
    counted(step)
}

#[test]
fn loss_and_grads_allocations_are_pinned() {
    let (ds, built) = fixture();
    let cold = loss_and_grads_counts(&ds, &built);
    let warm = warm_step_counts(built.model.as_ref(), &built.params, &train_batch(&ds));
    eprintln!(
        "loss_and_grads: {} allocations, {} bytes, largest {}; warm {} allocations, {} bytes",
        cold.allocs, cold.bytes, cold.largest, warm.allocs, warm.bytes
    );
    assert!(cold.largest < USER_TABLE_GRAD_BYTES, "a {}-byte allocation per step", cold.largest);
    assert_eq!((cold.allocs, cold.bytes), LOSS_AND_GRADS, "allocations per loss_and_grads moved");
    assert_eq!(
        (warm.allocs, warm.bytes),
        LOSS_AND_GRADS_WARM,
        "allocations per warm loss_and_grads_into moved"
    );
}

#[test]
fn every_architecture_trains_out_of_the_arena() {
    let (ds, _) = fixture();
    let fc = FeatureConfig::from_dataset(&ds);
    let batch = train_batch(&ds);
    let got: Vec<(ModelKind, u64, u64)> = ModelKind::ALL
        .iter()
        .map(|&kind| {
            let built = build_model(kind, &fc, &ModelConfig::tiny(), ds.n_domains(), 42);
            let warm = warm_step_counts(built.model.as_ref(), &built.params, &batch);
            (kind, warm.allocs, warm.bytes)
        })
        .collect();
    eprintln!("warm loss_and_grads_into at ModelConfig::tiny(): {got:?}");
    assert_eq!(got, WARM_STEP_BY_KIND, "allocations per warm training step moved");
}

#[test]
fn dr_lookahead_step_allocations_are_pinned() {
    let (ds, built) = fixture();
    let n_domains = ds.n_domains();
    // Every other domain is a helper, so the step count is known: per
    // helper j, min(cap, batches of j) + min(cap, batches of the target).
    let cfg = TrainConfig::bench()
        .with_seed(42)
        .with_outer_lr(0.5)
        .with_dr_lr(0.5)
        .with_dr_lookahead_batches(8)
        .with_dr_samples(n_domains - 1)
        .with_threads(1);
    let capped = |d: usize| ds.domains[d].train.len().div_ceil(cfg.batch_size).min(8) as u64;
    let target = 1;
    let steps: u64 =
        (0..n_domains).filter(|&j| j != target).map(|j| capped(j) + capped(target)).sum();

    let mut env = TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), cfg);
    let shared = env.init_flat();
    let mut specific = vec![0.0f32; shared.len()];
    let mut call = || counted(|| domain_regularization(&mut env, &shared, &mut specific, target));
    let (cold, warm) = (call(), call());
    for (name, got) in [("first", cold), ("warm", warm)] {
        eprintln!(
            "domain_regularization ({name}): {steps} steps, {} allocations, {} bytes \
             ({:.1} allocations and {} bytes per step)",
            got.allocs,
            got.bytes,
            got.allocs as f64 / steps as f64,
            got.bytes / steps,
        );
        assert!(
            got.bytes / steps < USER_TABLE_GRAD_BYTES,
            "a {name} DR call allocates {} bytes per step",
            got.bytes / steps
        );
    }
    assert_eq!((steps, cold.allocs, cold.bytes), DR_CALL, "allocations per DR call moved");
    assert_eq!(
        (steps, warm.allocs, warm.bytes),
        DR_CALL_WARM,
        "allocations per warm DR lookahead step moved"
    );
}

/// A snapshot of the fixture's model, and one test request of domain 0
/// with its dense side features.
fn snapshot_and_request(ds: &MdrDataset, built: &BuiltModel) -> (ServingSnapshot, ScoreRequest) {
    let spec = ModelSpec {
        kind: ModelKind::Mlp,
        features: FeatureConfig::from_dataset(ds),
        config: ModelConfig::default(),
        n_domains: ds.n_domains(),
    };
    let trained = TrainedModel::shared_only(built.params.to_flat());
    let snapshot = ServingSnapshot::from_trained(1, spec, trained).expect("a consistent model");
    let it = ds.domains[0].test[0];
    let mut req = ScoreRequest::new(
        0,
        it.user,
        it.item,
        ds.user_group[it.user as usize],
        ds.item_cat[it.item as usize],
    );
    let dense = |t: &Option<Tensor>, row: u32| t.as_ref().map(|t| t.row(row as usize).to_vec());
    req.dense_user = dense(&ds.dense_user, it.user);
    req.dense_item = dense(&ds.dense_item, it.item);
    (snapshot, req)
}

#[test]
fn inference_allocations_are_pinned() {
    let (ds, built) = fixture();
    let (model, params) = (built.model.as_ref(), &built.params);
    let eval = |n: usize| {
        let dom = (0..ds.n_domains()).find(|&d| ds.domains[d].test.len() >= n).unwrap();
        let batch = make_batch(&ds, dom, &ds.domains[dom].test[..n]);
        drop(eval_logits(model, params, &batch));
        let got = counted(|| drop(eval_logits(model, params, &batch)));
        (got.allocs, got.bytes)
    };
    let (b1, b32) = (eval(1), eval(32));

    let (snapshot, req) = snapshot_and_request(&ds, &built);
    let reqs = [req];
    drop(snapshot.score(0, &reqs));
    let score = counted(|| drop(snapshot.score(0, &reqs)));
    let score = (score.allocs, score.bytes);
    // A scoring worker keeps its buffers from one forward pass to the next.
    let (mut scratch, mut scores) = (ScoreScratch::default(), Vec::new());
    snapshot.score_into(0, &reqs, &mut scratch, &mut scores);
    let worker = counted(|| snapshot.score_into(0, &reqs, &mut scratch, &mut scores));
    let worker = (worker.allocs, worker.bytes);

    eprintln!("eval_logits: b1 {b1:?}, b32 {b32:?}; score b1 {score:?}, warm worker {worker:?}");
    assert_eq!(
        (b1, b32, score, worker),
        (EVAL_B1, EVAL_B32, SCORE_B1, WORKER_B1),
        "inference allocations moved"
    );
}

#[test]
fn submit_wait_allocations_are_pinned() {
    let (ds, built) = fixture();
    let (snapshot, req) = snapshot_and_request(&ds, &built);
    let config = ServeConfig { n_workers: 1, ..ServeConfig::default() };
    let pool = ReplicatedServer::start(snapshot, 1, config, &MetricsRegistry::new(), None);
    let round_trip = |req: ScoreRequest| {
        let pending = pool.submit(req, None).expect("admitted");
        assert!(matches!(pending.wait(), ServeResult::Scored(_)));
    };
    for _ in 0..8 {
        round_trip(req.clone());
    }
    // The request is built outside the count: its dense feature lists are
    // the client's, not the round trip's.
    let req = req.clone();
    let got = counted(|| round_trip(req));
    pool.shutdown();
    eprintln!("submit + wait: {} allocations, {} bytes", got.allocs, got.bytes);
    assert_eq!((got.allocs, got.bytes), SUBMIT_WAIT, "allocations per submit + wait moved");
}

#[test]
fn inline_gemm_allocations_are_pinned_at_any_thread_count() {
    let _knob = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = seeded(3);
    let a = Tensor::randn(&mut rng, [128, 80], 0.0, 1.0);
    let b = Tensor::randn(&mut rng, [80, 64], 0.0, 1.0);
    let bt = b.transpose();
    let count = |threads: usize| {
        pool::set_threads(threads);
        drop((a.gemm(&b, false, false), a.gemm(&bt, false, true)));
        let nn = counted(|| drop(a.gemm(&b, false, false)));
        let nt = counted(|| drop(a.gemm(&bt, false, true)));
        ((nn.allocs, nn.bytes), (nt.allocs, nt.bytes))
    };
    let serial = count(1);
    let parallel = count(8);
    pool::set_threads(1);
    eprintln!("gemm 128x80x64: NN {:?}, NT {:?}", serial.0, serial.1);
    assert_eq!(serial, (GEMM_NN, GEMM_NT), "allocations per inline gemm moved");
    assert_eq!(parallel, serial, "a one-chunk gemm allocates more at 8 threads");
}

#[test]
fn cached_round_allocations_are_pinned() {
    let knob = THREAD_KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    pool::set_threads(1);
    drop(knob);
    let (dim, seed) = (8, 42);
    let ds = presets::industry(8, 300, seed);
    let ps = ParameterServer::new(LOCK_STRIPES, dim);
    seed_server(&ps, &ds, dim, seed);
    let part = &partition_domains(ds.n_domains(), seed, 0, 2)[0];
    let round = || drop(run_cached_round(&ps, &ds, part, 0.1, worker_round_seed(seed, 0, 0)));
    // The round only reads the store, so the second one repeats the first.
    round();
    let got = counted(round);
    eprintln!("cached round: {} allocations, {} bytes", got.allocs, got.bytes);
    assert_eq!((got.allocs, got.bytes), CACHED_ROUND, "allocations per cached round moved");
}

#[test]
fn frame_roundtrip_allocations_are_pinned() {
    let (rows, dim) = (497, 8);
    let resp = PullManyResp {
        versions: (0..rows as u64).collect(),
        values: (0..rows * dim).map(|i| i as f32 * 0.25).collect(),
    };
    let roundtrip = || {
        let frame = Frame::new(OpCode::PullManyOk, 1, resp.encode());
        let bytes = frame.to_bytes();
        let back = Frame::decode(bytes.as_slice()).expect("a well-formed frame");
        let decoded = PullManyResp::decode(&back.payload).expect("a well-formed payload");
        assert!(decoded == resp);
    };
    roundtrip();
    let got = counted(roundtrip);
    eprintln!("frame roundtrip: {} allocations, {} bytes", got.allocs, got.bytes);
    assert_eq!((got.allocs, got.bytes), FRAME_ROUNDTRIP, "allocations per frame roundtrip moved");
}

/// Two tables: 200 user rows and 100 item rows at width 8, values a pure
/// function of the key.
fn publish_store() -> ParameterServer {
    let ps = ParameterServer::new(LOCK_STRIPES, 8);
    for (table, rows) in [(0u32, 200u32), (1, 100)] {
        for row in 0..rows {
            let value = (0..8).map(|j| (table * 1000 + row * 8 + j) as f32 * 1e-3).collect();
            ps.init_row(ParamKey::new(table, row), value);
        }
    }
    ps
}

#[test]
fn embedding_publish_allocations_are_pinned() {
    let ps = publish_store();
    let publish = || {
        let mut buf = Vec::new();
        ServingSnapshot::from_ps(1, &ps, 2).write_to(&mut buf).expect("encode into memory");
        let back = ServingSnapshot::read_from(buf.as_slice()).expect("a well-formed snapshot");
        assert_eq!(back.version(), 1);
    };
    publish();
    let got = counted(publish);
    eprintln!("embedding publish: {} allocations, {} bytes", got.allocs, got.bytes);
    assert_eq!((got.allocs, got.bytes), EMBEDDING_PUBLISH, "allocations per publish moved");
}
