//! Exact allocation counts of one training step, pinned.
//!
//! Shared CI runners cannot gate time, but allocations per operation are
//! exact, seeded counts. A counting global allocator lives in this one test
//! binary (every `tests/*.rs` file is its own binary, so nothing else pays
//! for it) and counts, per thread, the allocations and requested bytes of:
//!
//! * one `loss_and_grads` call, and
//! * one `domain_regularization` call — Algorithm 2 as `Mamdr::train` runs
//!   it — divided by the lookahead steps it takes,
//!
//! at the `dense_train` benchmark shape: taobao(10), the default MLP,
//! batch 128, DR capped at 8 batches per domain, 1 kernel thread. A change
//! that adds an allocation to either path fails here; a change that removes
//! some re-pins the constants in the same commit and says why.
//!
//! Beyond the exact pins, two bounds say what "O(batch)" means here: no
//! single allocation of a step is as large as the user table's gradient
//! would be, and what a DR step allocates beyond its `loss_and_grads` call
//! stays below that size too.

use mamdr::core::frameworks::mamdr::domain_regularization;
use mamdr::core::{TrainConfig, TrainEnv};
use mamdr::data::{make_batch, presets, MdrDataset};
use mamdr::models::{
    build_model, loss_and_grads, BuiltModel, FeatureConfig, ModelConfig, ModelKind,
};
use mamdr::nn::ForwardCtx;
use mamdr::tensor::pool;
use mamdr::tensor::rng::seeded;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `(allocations, bytes)` of one `loss_and_grads` call. The parent of the
/// row-sparse gradient change allocated 141 / 801 764 here, its largest
/// allocation the user table's gradient.
const LOSS_AND_GRADS: (u64, u64) = (140, 623_464);
/// `(lookahead steps, allocations, bytes)` of one `domain_regularization`
/// call: 151.9 allocations and 646 450 bytes per step, 22 986 of them
/// beyond `loss_and_grads` (parent: 14 007 and 93 759 928 in all, 240 012
/// per step beyond `loss_and_grads`, one flat vector per step among them).
const DR_CALL: (u64, u64, u64) = (90, 13_674, 58_180_524);
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

fn fixture() -> (MdrDataset, BuiltModel) {
    pool::set_threads(1);
    let ds = presets::taobao(10, 42, 1.0);
    let fc = FeatureConfig::from_dataset(&ds);
    let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::default(), ds.n_domains(), 42);
    (ds, built)
}

/// One warmed-up `loss_and_grads` call on a full training batch.
fn loss_and_grads_counts(ds: &MdrDataset, built: &BuiltModel) -> Counts {
    let dom = (0..ds.n_domains()).find(|&d| ds.domains[d].train.len() >= 128).unwrap();
    let batch = make_batch(ds, dom, &ds.domains[dom].train[..128]);
    let mut rng = seeded(7);
    let mut step = || {
        let mut ctx = ForwardCtx::train(&mut rng);
        drop(loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut ctx));
    };
    step();
    counted(step)
}

#[test]
fn loss_and_grads_allocations_are_pinned() {
    let (ds, built) = fixture();
    let got = loss_and_grads_counts(&ds, &built);
    eprintln!(
        "loss_and_grads: {} allocations, {} bytes, largest {}",
        got.allocs, got.bytes, got.largest
    );
    assert!(got.largest < USER_TABLE_GRAD_BYTES, "a {}-byte allocation per step", got.largest);
    assert_eq!((got.allocs, got.bytes), LOSS_AND_GRADS, "allocations per loss_and_grads moved");
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
    let model_bytes = loss_and_grads_counts(&ds, &built).bytes;

    let mut env = TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), cfg);
    let shared = env.init_flat();
    let mut specific = vec![0.0f32; shared.len()];
    let got = counted(|| domain_regularization(&mut env, &shared, &mut specific, target));
    let per_step = got.bytes / steps;
    eprintln!(
        "domain_regularization: {steps} steps, {} allocations, {} bytes \
         ({:.1} allocations and {per_step} bytes per step, {} beyond loss_and_grads)",
        got.allocs,
        got.bytes,
        got.allocs as f64 / steps as f64,
        per_step.saturating_sub(model_bytes),
    );
    assert!(
        per_step.saturating_sub(model_bytes) < USER_TABLE_GRAD_BYTES,
        "a DR step allocates {per_step} bytes, {model_bytes} of them in loss_and_grads"
    );
    assert_eq!((steps, got.allocs, got.bytes), DR_CALL, "allocations per DR lookahead step moved");
}
