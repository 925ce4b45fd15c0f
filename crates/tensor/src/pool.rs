//! Deterministic data parallelism on scoped threads.
//!
//! [`for_each_row_block`] lets the GEMM kernels (and the few coarse per-row
//! loops outside this crate) split work across cores **without changing
//! results**: the output is cut into disjoint blocks of whole rows, every
//! block is computed by exactly one thread running thread-count-independent
//! code, and the call returns only when all blocks are done. Because no
//! floating-point reduction ever crosses a block boundary, the result is
//! bit-identical at any thread count — `threads = 1` is the reference, not a
//! special case.
//!
//! A split dispatch is one `std::thread::scope`: the caller runs the first
//! block itself and one scoped thread runs each other block. Spawning costs
//! tens of µs, which is why callers pass a grain that keeps blocks far larger
//! than that (see `MIN_CHUNK_FLOPS` in the GEMM module); a dispatch that
//! yields one block never enters a scope and never allocates. The thread
//! count comes from [`set_threads`], falling back to the `MAMDR_THREADS`
//! environment variable and then to the machine's available parallelism.
//!
//! Nested dispatch is legal but runs inline: a block that itself calls
//! [`for_each_row_block`] gets one block back, on its own thread. Splitting
//! again would only oversubscribe the cores, and the determinism contract
//! makes the inline run observationally identical.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configured thread count; 0 means "not yet resolved".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is running a block of a split dispatch.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Sets the kernel thread count for the whole process (clamped to ≥ 1).
///
/// Safe to call at any time; in-flight dispatches finish with the count they
/// started with. Determinism makes the race harmless either way.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The kernel thread count currently in effect.
///
/// Resolution order: the last [`set_threads`] call, else the `MAMDR_THREADS`
/// environment variable, else `std::thread::available_parallelism()`.
pub fn configured_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let n = std::env::var("MAMDR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    // Competing first calls compute the same value, so the race is benign.
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// How many blocks [`for_each_row_block`] cuts `n` rows into at `threads`
/// threads: as many whole `grain`s as fit, at least one, at most `threads`.
pub(crate) fn chunk_count(n: usize, grain: usize, threads: usize) -> usize {
    (n / grain.max(1)).clamp(1, threads)
}

/// Splits a row-major `rows × row_stride` buffer into contiguous blocks of
/// at least `grain` rows, at most [`configured_threads`] of them, and runs
/// `f(rows, block)` on each, in parallel when more than one block results.
///
/// With `c` blocks of `n` rows, the first `n % c` blocks hold one row more
/// than the others. The partition depends only on `n`, `grain` and the
/// thread count, and every row is written by exactly one thread, so the
/// buffer cannot depend on the thread count as long as `f` computes each row
/// independently of the block that carries it. A panic in any block reaches
/// the caller once every block has finished.
pub fn for_each_row_block<T: Send>(
    out: &mut [T],
    row_stride: usize,
    grain: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let Some(n_rows) = out.len().checked_div(row_stride) else { return };
    debug_assert_eq!(n_rows * row_stride, out.len(), "buffer is not a whole number of rows");
    let threads = if IN_PARALLEL.get() { 1 } else { configured_threads() };
    let chunks = chunk_count(n_rows, grain, threads);
    if chunks == 1 {
        f(0..n_rows, out);
        return;
    }
    let (base, rem) = (n_rows / chunks, n_rows % chunks);
    let (long, short) = out.split_at_mut(rem * (base + 1) * row_stride);
    let mut blocks =
        long.chunks_mut((base + 1) * row_stride).chain(short.chunks_mut(base * row_stride));
    let run = &|c: usize, block: &mut [T]| {
        let start = c * base + c.min(rem);
        inline_nested(|| f(start..start + block.len() / row_stride, block));
    };
    let Some(first) = blocks.next() else { return };
    std::thread::scope(|scope| {
        for (c, block) in blocks.enumerate() {
            scope.spawn(move || run(c + 1, block));
        }
        run(0, first);
    });
}

/// Runs `f` with this thread's nested dispatches forced inline, and clears
/// the flag afterwards even if `f` panics.
fn inline_nested(f: impl FnOnce()) {
    IN_PARALLEL.set(true);
    let result = catch_unwind(AssertUnwindSafe(f));
    IN_PARALLEL.set(false);
    result.unwrap_or_else(|panic| resume_unwind(panic));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Mutex, MutexGuard};

    /// Sets the process-wide thread count for one test; the guard keeps the
    /// tests in this module from changing it under each other.
    fn threads(n: usize) -> MutexGuard<'static, ()> {
        static KNOB: Mutex<()> = Mutex::new(());
        let guard = KNOB.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        set_threads(n);
        guard
    }

    /// The row ranges one dispatch of `n` rows hands out, in row order.
    fn blocks_of(n: usize, grain: usize) -> Vec<Range<usize>> {
        let seen = Mutex::new(Vec::new());
        let mut buf = vec![0u8; n];
        for_each_row_block(&mut buf, 1, grain, |rows, block| {
            assert_eq!(rows.len(), block.len());
            seen.lock().unwrap().push(rows);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        seen
    }

    #[test]
    fn every_block_holds_the_rows_the_chunk_arithmetic_assigns() {
        let _knob = threads(3);
        // 10 rows in three blocks: the first 10 % 3 = 1 block is a row longer.
        assert_eq!(blocks_of(10, 1), vec![0..4, 4..7, 7..10]);
        // Only two whole grains of 4 fit in 11 rows.
        assert_eq!(blocks_of(11, 4), vec![0..6, 6..11]);
        assert_eq!(blocks_of(7, 4), vec![0..7]);
        assert_eq!(blocks_of(0, 1), vec![0..0]);
    }

    #[test]
    fn row_blocks_partition_exactly() {
        for n_threads in [1usize, 2, 3, 8] {
            let _knob = threads(n_threads);
            for n in [1usize, 2, 7, 64, 1000] {
                for grain in [1usize, 3, 64] {
                    let chunks = chunk_count(n, grain, n_threads);
                    let (base, rem) = (n / chunks, n % chunks);
                    let expect: Vec<_> = (0..chunks)
                        .map(|c| c * base + c.min(rem)..(c + 1) * base + (c + 1).min(rem))
                        .collect();
                    assert_eq!(expect.last().map(|r| r.end), Some(n));
                    assert_eq!(blocks_of(n, grain), expect, "n={n} grain={grain}");
                }
            }
        }
    }

    #[test]
    fn row_blocks_tile_the_buffer() {
        let _knob = threads(4);
        let mut buf = vec![0.0f32; 13 * 5];
        for_each_row_block(&mut buf, 5, 1, |rows, block| {
            for (bi, i) in rows.enumerate() {
                for j in 0..5 {
                    block[bi * 5 + j] = (i * 5 + j) as f32;
                }
            }
        });
        let expect: Vec<f32> = (0..13 * 5).map(|x| x as f32).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn nested_dispatch_falls_back_to_serial() {
        let _knob = threads(4);
        // Each outer row records its thread; the rows of the dispatch nested
        // in it must all run on that same thread, as one block.
        let mut outer = vec![None; 4];
        for_each_row_block(&mut outer, 1, 1, |_, block| {
            let me = std::thread::current().id();
            let mut nested = vec![None; 4];
            for_each_row_block(&mut nested, 1, 1, |rows, inner| {
                assert_eq!(rows, 0..4, "a nested dispatch must not split");
                inner.fill(Some(std::thread::current().id()));
            });
            assert!(nested.iter().all(|&t| t == Some(me)), "nested rows left their block's thread");
            block[0] = Some(me);
        });
        let distinct: HashSet<_> = outer.iter().map(|t| t.expect("every row ran")).collect();
        assert_eq!(distinct.len(), 4, "the outer dispatch must split four ways");
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let _knob = threads(8);
        let mut buf = vec![0u8; 8];
        // Block 5 runs on a scoped thread, block 0 on the caller.
        for bad in [5usize, 0] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                for_each_row_block(&mut buf, 1, 1, |rows, _| {
                    if rows.start == bad {
                        panic!("block {bad} exploded");
                    }
                });
            }));
            assert!(result.is_err(), "a panic in block {bad} must reach the caller");
            // The next dispatch from this thread must still split.
            let ran_on = Mutex::new(HashSet::new());
            for_each_row_block(&mut buf, 1, 1, |_, block| {
                block.fill(1);
                ran_on.lock().unwrap().insert(std::thread::current().id());
            });
            assert_eq!(ran_on.into_inner().unwrap().len(), 8);
            assert!(buf.iter().all(|&b| b == 1));
            buf.fill(0);
        }
    }
}
