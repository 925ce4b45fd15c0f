//! The scoring engine: a hot-swappable snapshot pointer plus serve metrics.
//!
//! The engine owns the *current* [`ServingSnapshot`] behind a mutex-guarded
//! `Arc`. Readers (`snapshot()`) take the lock only long enough to clone the
//! `Arc` — nanoseconds, never held across a forward pass — so scoring runs on
//! a pinned snapshot entirely outside the lock. Publishing a new snapshot
//! (`publish()`) swaps the `Arc` under the same lock; in-flight batches keep
//! their pinned version alive through their own `Arc` clone, and the retired
//! snapshot is freed when the last such clone drops.
//!
//! Memory-ordering argument (why readers never observe a half-built
//! snapshot): the snapshot is fully constructed *before* `publish()` is
//! called; the mutex release in `publish()` happens-before the mutex acquire
//! in any subsequent `snapshot()`, so every field written during
//! construction is visible to the reader. `Arc`'s reference counting uses
//! `Release` decrements with an `Acquire` fence before deallocation, so the
//! retiring thread sees all reader writes before the memory is reclaimed.

use crate::request::SloClass;
use crate::snapshot::ServingSnapshot;
use mamdr_obs::{Counter, Gauge, Histogram, MetricsRegistry, Tracer};
use std::sync::{Arc, Mutex};

/// Cheap-to-clone handles for every `serve_*` metric the subsystem emits.
///
/// Names follow the registry's Prometheus conventions so `render_prometheus`
/// and `dump_jsonl` expose them without further plumbing.
#[derive(Clone)]
pub struct ServeMetrics {
    /// Requests admitted into the queue.
    pub requests_total: Counter,
    /// Responses delivered (scored, invalid, or deadline-exceeded).
    pub responses_total: Counter,
    /// Submissions refused because the queue was full.
    pub rejected_total: Counter,
    /// Admitted requests that were still live at worker pickup but expired
    /// before their forward pass started, while earlier groups of the same
    /// pickup were scored. Disjoint from `deadline_expired_total`.
    pub deadline_exceeded_total: Counter,
    /// Admitted requests whose deadline passed *while queued*: answered at
    /// worker pickup, never scored. Disjoint from `deadline_exceeded_total`.
    pub deadline_expired_total: Counter,
    /// Submissions shed because their SLO class hit its bounded depth,
    /// one counter per class (`serve_shed_total{class="..."}`).
    pub shed_total: [Counter; SloClass::COUNT],
    /// Forward passes executed: one per chunk of a pickup's domain group.
    pub batches_total: Counter,
    /// Snapshot hot swaps performed.
    pub swaps_total: Counter,
    /// Current depth of the admission queue.
    pub queue_depth: Gauge,
    /// Requests per forward pass.
    pub batch_size: Arc<Histogram>,
    /// Per-request latency, submit → end of its forward pass (stamped once
    /// per pass, just before the replies; an unscored request is not
    /// recorded), in seconds.
    pub latency_seconds: Arc<Histogram>,
    /// Per-request wait from admission to the start of its batch's forward
    /// pass, in microseconds — the queueing share of the latency.
    pub queue_wait_us: Arc<Histogram>,
    /// Per-batch forward-pass duration, in microseconds — the compute share.
    pub batch_compute_us: Arc<Histogram>,
    /// Pickups taken: one per worker drain of the admission queue.
    pub pickups_total: Counter,
    /// Seconds workers spent on pickups, from the end of the drain to the
    /// last reply sent; over wall time, the workers' busy share. A float
    /// running total, so a [`Gauge`] that only ever grows.
    pub worker_busy_seconds_total: Gauge,
}

impl ServeMetrics {
    /// Registers (or re-looks-up) every serve metric in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        registry.describe("serve_requests_total", "Requests admitted into the serve queue.");
        registry.describe(
            "serve_responses_total",
            "Responses delivered (scored, invalid, or deadline-exceeded).",
        );
        registry
            .describe("serve_rejected_total", "Submissions refused because the queue was full.");
        registry.describe(
            "serve_deadline_exceeded_total",
            "Admitted requests that expired after worker pickup, before their forward pass.",
        );
        registry.describe(
            "serve_deadline_expired_total",
            "Admitted requests whose deadline passed while queued, answered at worker pickup.",
        );
        registry.describe(
            "serve_shed_total",
            "Submissions shed because their SLO class hit its bounded depth.",
        );
        registry.describe("serve_batches_total", "Micro-batches executed.");
        registry.describe("serve_swaps_total", "Snapshot hot swaps performed.");
        registry.describe("serve_queue_depth", "Current depth of the admission queue.");
        registry.describe("serve_batch_size", "Coalesced micro-batch sizes.");
        registry.describe(
            "serve_latency_seconds",
            "Per-request latency, submit to the end of its forward pass, seconds.",
        );
        registry.describe(
            "serve_queue_wait_us",
            "Per-request wait from admission to forward-pass start, microseconds.",
        );
        registry
            .describe("serve_batch_compute_us", "Per-batch forward-pass duration, microseconds.");
        registry.describe("serve_pickups_total", "Worker pickups: drains of the admission queue.");
        registry.describe(
            "serve_worker_busy_seconds_total",
            "Seconds workers spent on pickups, from the end of the drain to the last reply.",
        );
        ServeMetrics {
            requests_total: registry.counter("serve_requests_total"),
            responses_total: registry.counter("serve_responses_total"),
            rejected_total: registry.counter("serve_rejected_total"),
            deadline_exceeded_total: registry.counter("serve_deadline_exceeded_total"),
            deadline_expired_total: registry.counter("serve_deadline_expired_total"),
            shed_total: SloClass::ALL
                .map(|c| registry.counter(&format!("serve_shed_total{{class=\"{}\"}}", c.label()))),
            batches_total: registry.counter("serve_batches_total"),
            swaps_total: registry.counter("serve_swaps_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            batch_size: registry.histogram("serve_batch_size"),
            latency_seconds: registry.histogram("serve_latency_seconds"),
            queue_wait_us: registry.histogram("serve_queue_wait_us"),
            batch_compute_us: registry.histogram("serve_batch_compute_us"),
            pickups_total: registry.counter("serve_pickups_total"),
            worker_busy_seconds_total: registry.gauge("serve_worker_busy_seconds_total"),
        }
    }
}

/// Routes scoring work to the current snapshot and supports atomic hot swap.
pub struct ScoringEngine {
    current: Mutex<Arc<ServingSnapshot>>,
    metrics: ServeMetrics,
    /// Optional span sink: workers record per-request lifecycle spans and
    /// `publish` records hot-swap spans through it. `None` keeps the serve
    /// path span-free (scores are identical either way).
    tracer: Option<Arc<Tracer>>,
}

impl ScoringEngine {
    /// An engine serving `snapshot`, reporting into `registry`.
    pub fn new(snapshot: ServingSnapshot, registry: &MetricsRegistry) -> Self {
        Self::new_shared(Arc::new(snapshot), registry)
    }

    /// An engine serving an already-shared snapshot. Replicated pools use
    /// this so N replicas pin the *same* allocation — one set of
    /// materialized Θ_d in memory no matter how many replicas serve it.
    pub fn new_shared(snapshot: Arc<ServingSnapshot>, registry: &MetricsRegistry) -> Self {
        ScoringEngine {
            current: Mutex::new(snapshot),
            metrics: ServeMetrics::register(registry),
            tracer: None,
        }
    }

    /// Attaches a span sink; per-request and hot-swap spans are recorded
    /// into it from then on.
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached span sink, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Pins the current snapshot. The returned `Arc` stays valid (and keeps
    /// its parameters alive) across any number of subsequent `publish`
    /// calls — a batch scored against it is scored by exactly that version.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.current.lock().expect("engine lock").clone()
    }

    /// Atomically replaces the served snapshot and returns the retired one.
    ///
    /// In-flight batches pinned to the old version finish on it; its memory
    /// is reclaimed when the returned `Arc` and every pin drop.
    pub fn publish(&self, snapshot: ServingSnapshot) -> Arc<ServingSnapshot> {
        self.publish_shared(Arc::new(snapshot))
    }

    /// [`publish`](Self::publish) for a snapshot that other engines also
    /// serve: the replicated pool swaps every replica to one shared `Arc`.
    pub fn publish_shared(&self, next: Arc<ServingSnapshot>) -> Arc<ServingSnapshot> {
        let mut swap_span = self.tracer.as_deref().map(|t| t.span("serve.swap"));
        if let Some(s) = swap_span.as_mut() {
            s.attr("version", next.version());
        }
        let old = {
            let mut cur = self.current.lock().expect("engine lock");
            std::mem::replace(&mut *cur, next)
        };
        self.metrics.swaps_total.inc();
        if let Some(s) = swap_span.as_mut() {
            s.attr("retired_version", old.version());
        }
        old
    }

    /// Version of the snapshot currently being served.
    pub fn current_version(&self) -> u64 {
        self.snapshot().version()
    }

    /// The serve metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests_support::tiny_dense_snapshot;
    use crate::ScoreRequest;

    #[test]
    fn publish_swaps_version_and_counts() {
        let registry = MetricsRegistry::new();
        let engine = ScoringEngine::new(tiny_dense_snapshot(1), &registry);
        assert_eq!(engine.current_version(), 1);
        let old = engine.publish(tiny_dense_snapshot(2));
        assert_eq!(old.version(), 1);
        assert_eq!(engine.current_version(), 2);
        assert_eq!(registry.counter("serve_swaps_total").get(), 1);
    }

    #[test]
    fn pinned_snapshot_survives_swap() {
        let registry = MetricsRegistry::new();
        let engine = ScoringEngine::new(tiny_dense_snapshot(7), &registry);
        let pinned = engine.snapshot();
        let _ = engine.publish(tiny_dense_snapshot(8));
        // The pin still scores on version 7 even though 8 is now current.
        assert_eq!(pinned.version(), 7);
        let req = ScoreRequest::new(0, 0, 0, 0, 0);
        let s = pinned.score(0, std::slice::from_ref(&req));
        assert_eq!(s.len(), 1);
        assert!(s[0].is_finite());
    }

    #[test]
    fn swap_under_concurrent_readers_is_safe() {
        let registry = MetricsRegistry::new();
        let engine = ScoringEngine::new(tiny_dense_snapshot(0), &registry);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let snap = engine.snapshot();
                        let req = ScoreRequest::new(0, 0, 0, 0, 0);
                        let out = snap.score(0, std::slice::from_ref(&req));
                        assert!(out[0].is_finite());
                    }
                });
            }
            s.spawn(|| {
                for v in 1..=50u64 {
                    let _ = engine.publish(tiny_dense_snapshot(v));
                }
            });
        });
        assert_eq!(engine.current_version(), 50);
        assert_eq!(registry.counter("serve_swaps_total").get(), 50);
    }
}
