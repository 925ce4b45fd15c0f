//! A persistent worker pool for deterministic data parallelism.
//!
//! The pool exists so the GEMM kernels (and other per-row hot loops) can
//! split work across cores **without changing results**: callers partition
//! their output into disjoint chunks, every chunk is computed by exactly one
//! thread running thread-count-independent code, and [`run`] blocks until all
//! chunks finish. Because no floating-point reduction ever crosses a chunk
//! boundary, the result is bit-identical at any thread count — `threads = 1`
//! is the reference, not a special case.
//!
//! Workers are plain `std::thread`s spawned lazily on first parallel dispatch
//! and kept alive for the process lifetime (the MDR benchmarks dispatch
//! millions of small GEMMs; respawning per call would dominate). The thread
//! count comes from [`set_threads`], falling back to the `MAMDR_THREADS`
//! environment variable and then to the machine's available parallelism.
//!
//! Nested dispatch is legal but runs serially: a task that itself calls
//! [`run`] executes its chunks inline. Workers blocking on sub-jobs that
//! queue behind the very jobs occupying those workers would deadlock, and the
//! determinism contract makes serial fallback observationally identical.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, OnceLock};

/// Configured worker count; 0 means "not yet resolved".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is executing inside a parallel region (either
    /// as a pool worker or as a dispatching caller running its own chunk).
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

/// A unit of work handed to a worker: run `(*task)(chunk)` and hit the latch.
///
/// The task pointer's borrow is lifetime-erased; [`run`] guarantees it stays
/// valid by not returning until every chunk has signalled the latch.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    chunk: usize,
    latch: *const Latch,
}

// SAFETY: the pointee is `Sync` (shared by all workers) and `run` keeps both
// pointers alive until the latch opens, so sending the raw pointers to
// another thread is sound.
unsafe impl Send for Job {}

/// Countdown latch with panic flag: dispatchers block until every outstanding
/// chunk has completed (successfully or by panicking).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete_one(&self) {
        let mut rem = self.remaining.lock().expect("pool latch poisoned");
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock().expect("pool latch poisoned");
        while *rem > 0 {
            rem = self.done.wait(rem).expect("pool latch poisoned");
        }
    }
}

static SENDERS: OnceLock<Mutex<Vec<Sender<Job>>>> = OnceLock::new();

/// Ensures at least `needed` workers exist, then calls `f` with their queues.
fn with_senders<R>(needed: usize, f: impl FnOnce(&[Sender<Job>]) -> R) -> R {
    let lock = SENDERS.get_or_init(|| Mutex::new(Vec::new()));
    let mut senders = lock.lock().expect("pool sender registry poisoned");
    while senders.len() < needed {
        let (tx, rx) = channel::<Job>();
        let idx = senders.len();
        std::thread::Builder::new()
            .name(format!("mamdr-pool-{idx}"))
            .spawn(move || worker_loop(rx))
            .expect("failed to spawn pool worker");
        senders.push(tx);
    }
    f(&senders)
}

fn worker_loop(rx: Receiver<Job>) {
    IN_PARALLEL.with(|flag| flag.set(true));
    while let Ok(job) = rx.recv() {
        // SAFETY: the dispatching `run` call blocks on the latch until this
        // job completes, keeping both pointers valid.
        let task = unsafe { &*job.task };
        let ok = catch_unwind(AssertUnwindSafe(|| task(job.chunk))).is_ok();
        let latch = unsafe { &*job.latch };
        if !ok {
            latch.panicked.store(true, Ordering::SeqCst);
        }
        latch.complete_one();
    }
}

/// Runs `task(c)` for every chunk index `c` in `0..chunks`, using pool
/// workers when profitable and legal, the calling thread otherwise.
///
/// Chunks must be data-disjoint; the pool neither knows nor checks what they
/// touch. The call returns only after every chunk has finished, so `task` may
/// freely borrow from the caller's stack. If any chunk panics, `run` panics
/// after all chunks have settled (no use-after-free of caller state).
pub fn run(chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    if chunks == 1 || IN_PARALLEL.with(|flag| flag.get()) {
        for c in 0..chunks {
            task(c);
        }
        return;
    }

    let latch = Latch::new(chunks - 1);
    // SAFETY: lifetime erasure only — `run` blocks on the latch before
    // returning, so the borrow outlives every dereference on the workers.
    let erased = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
            task,
        )
    };
    with_senders(chunks - 1, |senders| {
        for c in 1..chunks {
            senders[c - 1]
                .send(Job { task: erased, chunk: c, latch: &latch })
                .expect("pool worker disappeared");
        }
    });

    // The caller contributes chunk 0 itself; flag the thread so any nested
    // dispatch inside the task degrades to the serial path.
    IN_PARALLEL.with(|flag| flag.set(true));
    let own = catch_unwind(AssertUnwindSafe(|| task(0)));
    IN_PARALLEL.with(|flag| flag.set(false));
    latch.wait();
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::SeqCst) {
        panic!("mamdr-tensor pool: a worker chunk panicked");
    }
}

/// How many ranges [`for_each_chunk`] cuts `n` items into at `threads`
/// threads: as many whole `grain`s as fit, at least one, at most `threads`.
pub(crate) fn chunk_count(n: usize, grain: usize, threads: usize) -> usize {
    (n / grain.max(1)).clamp(1, threads)
}

/// Splits `0..n` into up to `configured_threads()` contiguous ranges of at
/// least `grain` items each and runs `f` on every range, in parallel when
/// more than one range results.
///
/// The partition depends only on `n`, `grain` and the thread count, and `f`
/// must produce the same result for an item regardless of which range carries
/// it — which every caller in this crate guarantees by making items (rows)
/// fully independent.
pub fn for_each_chunk(n: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    if n == 0 {
        return;
    }
    let chunks = chunk_count(n, grain, configured_threads());
    if chunks == 1 {
        f(0..n);
        return;
    }
    let base = n / chunks;
    let rem = n % chunks;
    run(chunks, &|c| {
        let start = c * base + c.min(rem);
        let len = base + usize::from(c < rem);
        f(start..start + len);
    });
}

/// Shares a raw mutable pointer across pool workers.
///
/// Callers must guarantee all concurrent writes through the pointer are to
/// disjoint regions; the type exists to make that contract explicit at the
/// few sites that need it.
pub struct SendMutPtr<T>(pub *mut T);

impl<T> SendMutPtr<T> {
    /// The wrapped pointer. Going through a method (rather than the field)
    /// makes closures capture the whole `Sync` wrapper, not the raw pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: disjointness of writes is the caller's contract (see type docs).
unsafe impl<T> Send for SendMutPtr<T> {}
// SAFETY: same — shared references only hand out the raw pointer.
unsafe impl<T> Sync for SendMutPtr<T> {}

/// Splits a row-major `rows × row_stride` buffer into contiguous row blocks
/// and runs `f(rows, block)` on each, in parallel when profitable.
///
/// Every row is written by exactly one worker, so the buffer contents cannot
/// depend on the thread count. `grain` is the minimum number of rows per
/// block (see [`for_each_chunk`]).
pub fn for_each_row_block(
    out: &mut [f32],
    row_stride: usize,
    grain: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    if out.is_empty() || row_stride == 0 {
        return;
    }
    let n_rows = out.len() / row_stride;
    debug_assert_eq!(n_rows * row_stride, out.len(), "buffer is not a whole number of rows");
    let ptr = SendMutPtr(out.as_mut_ptr());
    for_each_chunk(n_rows, grain, |rows| {
        // SAFETY: row ranges from `for_each_chunk` are disjoint, so the
        // blocks they map to never overlap; the borrow of `out` outlives the
        // dispatch because `run` blocks until completion.
        let block = unsafe {
            std::slice::from_raw_parts_mut(
                ptr.get().add(rows.start * row_stride),
                rows.len() * row_stride,
            )
        };
        f(rows, block);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_covers_every_chunk_exactly_once() {
        let hits: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
        run(16, &|c| {
            hits[c].fetch_add(1, Ordering::SeqCst);
        });
        for (c, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "chunk {} ran a wrong number of times", c);
        }
    }

    #[test]
    fn for_each_chunk_partitions_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for grain in [1usize, 3, 64] {
                let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                for_each_chunk(n, grain, |range| {
                    for i in range {
                        seen[i].fetch_add(1, Ordering::SeqCst);
                    }
                });
                assert!(
                    seen.iter().all(|s| s.load(Ordering::SeqCst) == 1),
                    "n={} grain={} not a partition",
                    n,
                    grain
                );
            }
        }
    }

    #[test]
    fn row_blocks_tile_the_buffer() {
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
        let outer = AtomicU32::new(0);
        let inner = AtomicU32::new(0);
        run(4, &|_| {
            outer.fetch_add(1, Ordering::SeqCst);
            // A nested region must complete inline rather than deadlock.
            run(4, &|_| {
                inner.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer.load(Ordering::SeqCst), 4);
        assert_eq!(inner.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(8, &|c| {
                if c == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        assert!(result.is_err(), "panic in a worker chunk must reach the caller");
        // The pool must remain usable after a panicked dispatch.
        let count = AtomicU32::new(0);
        run(8, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }
}
