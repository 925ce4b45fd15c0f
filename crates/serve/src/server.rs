//! The request server: bounded admission in front of scoring workers that
//! batch whatever is queued.
//!
//! Requests enter through bounded admission (`submit` never blocks: the
//! global bound rejects with [`SubmitError::QueueFull`], a class bound
//! sheds with the typed [`SubmitError::ShedOverload`]). Each scoring worker
//! takes the shared queue's lock, blocks for one request, takes everything
//! else already queued — one *pickup* — and releases the lock. It then:
//!
//! 1. pins one snapshot for the whole pickup;
//! 2. answers every request whose deadline passed while it was queued
//!    (typed `DeadlineExceeded`, counted in `serve_deadline_expired_total`)
//!    and every request the snapshot rejects;
//! 3. groups the rest by domain — a *multi-domain super-batch* split by
//!    domain indicator, the way STAR serves one model for all domains —
//!    and scores the groups back to back, those holding an interactive
//!    request first, each in forward passes of at most `max_batch`;
//! 4. checks deadlines again right before each forward pass: a request
//!    that expired while earlier groups of its pickup were scored is
//!    answered `DeadlineExceeded` (`serve_deadline_exceeded_total`), never
//!    scored late.
//!
//! Nothing waits for batch-mates: a pickup is as large as the backlog, so
//! batches grow with load by themselves and a lone request is scored at
//! once.
//!
//! Invariants:
//!
//! * Every **admitted** request receives exactly one [`ServeResult`] — on
//!   shutdown the workers drain the queue before exiting, so no admitted
//!   request is ever dropped.
//! * Each pickup is scored by exactly one snapshot version, pinned after
//!   the drain, and every response carries that version: a request
//!   submitted after a swap is never scored by the retired model, and
//!   under a swap every score is attributable to the old or the new model,
//!   never a blend.
//! * Batching does not change scores for row-independent architectures:
//!   the kernels accumulate per output row in a fixed order, so a request's
//!   score is the same whether it was scored alone or inside a batch (STAR's
//!   partitioned normalization is the documented exception, see DESIGN §7).

use crate::engine::{ScoringEngine, ServeMetrics};
use crate::request::{
    reply_slot, Envelope, Pending, Response, ScoreRequest, ServeResult, SloClass, SubmitError,
};
use crate::snapshot::ScoreScratch;
use mamdr_obs::Tracer;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission bounds and worker count of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest forward pass: a pickup's domain group is scored in chunks of
    /// at most this many requests.
    pub max_batch: usize,
    /// Admission bound: maximum requests in flight (queued or being
    /// scored). Submissions beyond it are rejected, never blocked.
    pub queue_cap: usize,
    /// Per-class admission bounds, indexed by [`SloClass::index`]. `0`
    /// inherits `queue_cap` (class unconstrained beyond the global bound).
    /// A class at its bound sheds with the typed
    /// [`SubmitError::ShedOverload`] while other classes keep admitting.
    pub class_caps: [usize; SloClass::COUNT],
    /// Scoring worker threads.
    pub n_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_cap: 1024,
            class_caps: [0; SloClass::COUNT],
            n_workers: 2,
        }
    }
}

impl ServeConfig {
    /// The effective admission bound of `class` (`0` inherits the global
    /// `queue_cap`).
    pub fn class_cap(&self, class: SloClass) -> usize {
        match self.class_caps[class.index()] {
            0 => self.queue_cap,
            n => n,
        }
    }
}

/// In-system request depth, global and per class. One release per
/// delivered result keeps `admitted = in-system + responded` exact.
pub(crate) struct Depths {
    total: AtomicI64,
    class: [AtomicI64; SloClass::COUNT],
}

impl Depths {
    fn new() -> Self {
        Depths { total: AtomicI64::new(0), class: [AtomicI64::new(0), AtomicI64::new(0)] }
    }

    fn release(&self, class: SloClass) -> i64 {
        self.class[class.index()].fetch_sub(1, Ordering::Relaxed);
        self.total.fetch_sub(1, Ordering::Relaxed) - 1
    }
}

/// The admission queue's receiving end, shared by every worker: whoever
/// holds the lock is taking the next pickup.
type Queue = Arc<Mutex<Receiver<Envelope>>>;

/// The running serving stack: admission queue and scoring workers.
pub struct Server {
    engine: Arc<ScoringEngine>,
    submit_tx: Option<SyncSender<Envelope>>,
    queue: Queue,
    next_id: AtomicU64,
    depths: Arc<Depths>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `config.n_workers` scoring workers against `engine`'s current
    /// snapshot (hot-swappable via [`ScoringEngine::publish`]).
    pub fn start(engine: Arc<ScoringEngine>, config: ServeConfig) -> Server {
        let mut server = Server::without_workers(engine, config);
        server.spawn_workers();
        server
    }

    /// The admission side alone: requests queue up until
    /// [`spawn_workers`](Self::spawn_workers) runs.
    fn without_workers(engine: Arc<ScoringEngine>, config: ServeConfig) -> Server {
        assert!(config.n_workers >= 1, "need at least one worker");
        assert!(config.max_batch >= 1, "max_batch must be positive");
        assert!(config.queue_cap >= 1, "queue_cap must be positive");
        let (submit_tx, submit_rx) = mpsc::sync_channel(config.queue_cap);
        Server {
            engine,
            submit_tx: Some(submit_tx),
            queue: Arc::new(Mutex::new(submit_rx)),
            next_id: AtomicU64::new(0),
            depths: Arc::new(Depths::new()),
            config,
            workers: Vec::new(),
        }
    }

    fn spawn_workers(&mut self) {
        self.workers = (0..self.config.n_workers)
            .map(|i| {
                let queue = Arc::clone(&self.queue);
                let engine = Arc::clone(&self.engine);
                let depths = Arc::clone(&self.depths);
                let max_batch = self.config.max_batch;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || run_worker(&queue, &engine, &depths, max_batch))
                    .expect("spawn worker")
            })
            .collect();
    }

    /// Submits an [`SloClass::Interactive`] request. Never blocks: a full
    /// queue rejects with [`SubmitError::QueueFull`], a full class sheds
    /// with [`SubmitError::ShedOverload`]. `deadline` (relative to now) is
    /// enforced at worker pickup and again right before the request's
    /// forward pass; an expired request is answered with
    /// [`ServeResult::DeadlineExceeded`] instead of being scored late.
    pub fn submit(
        &self,
        req: ScoreRequest,
        deadline: Option<Duration>,
    ) -> Result<Pending, SubmitError> {
        self.submit_class(req, deadline, SloClass::Interactive)
    }

    /// [`submit`](Self::submit) with an explicit service class.
    pub fn submit_class(
        &self,
        req: ScoreRequest,
        deadline: Option<Duration>,
        class: SloClass,
    ) -> Result<Pending, SubmitError> {
        let m = self.engine.metrics();
        let tx = self.submit_tx.as_ref().ok_or(SubmitError::Closed)?;
        // Reserve, then check the reservation: each submitter checks the
        // depth its own increment produced, so concurrent submitters can
        // never all pass a bound that only some of them fit.
        let d = self.depths.total.fetch_add(1, Ordering::Relaxed) + 1;
        if d > self.config.queue_cap as i64 {
            self.depths.total.fetch_sub(1, Ordering::Relaxed);
            m.rejected_total.inc();
            return Err(SubmitError::QueueFull);
        }
        let ci = class.index();
        if self.depths.class[ci].fetch_add(1, Ordering::Relaxed) + 1
            > self.config.class_cap(class) as i64
        {
            self.depths.release(class);
            m.shed_total[ci].inc();
            return Err(SubmitError::ShedOverload(class));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, pending) = reply_slot(id);
        let now = Instant::now();
        let env =
            Envelope { id, req, class, deadline: deadline.map(|d| now + d), enqueued: now, reply };
        match tx.try_send(env) {
            Ok(()) => {
                m.requests_total.inc();
                m.queue_depth.set(d as f64);
                Ok(pending)
            }
            Err(TrySendError::Full(_)) => {
                self.depths.release(class);
                m.rejected_total.inc();
                Err(SubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depths.release(class);
                Err(SubmitError::Closed)
            }
        }
    }

    /// The engine, for hot swaps (`engine().publish(...)`) and metrics.
    pub fn engine(&self) -> &Arc<ScoringEngine> {
        &self.engine
    }

    /// The configuration this server runs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Graceful shutdown: stops admission, scores every queued request,
    /// and joins all workers. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        drop(self.submit_tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A worker's buffers, reused from one pickup to the next.
#[derive(Default)]
struct Scratch {
    /// One forward pass's `serve_queue_wait_us` and `serve_latency_seconds`
    /// samples, recorded with one histogram lock each.
    waits: Vec<f64>,
    latencies: Vec<f64>,
    /// The pickup, in arrival order.
    pickup: Vec<Envelope>,
    /// Pickup indices grouped by domain, and the forward passes over them
    /// as ranges of `order` (see [`plan_pickup`]).
    order: Vec<usize>,
    chunks: Vec<Range<usize>>,
    /// One forward pass: the pickup indices still live, their requests
    /// (moved out of the envelopes), the pass's buffers and its scores.
    live: Vec<usize>,
    reqs: Vec<ScoreRequest>,
    score: ScoreScratch,
    scores: Vec<f32>,
}

/// Takes pickups and scores them until every sender has hung up and the
/// queue is drained.
fn run_worker(queue: &Queue, engine: &ScoringEngine, depths: &Depths, max_batch: usize) {
    let mut s = Scratch::default();
    loop {
        {
            let rx = queue.lock().expect("a worker panicked holding the queue lock");
            match rx.recv() {
                Ok(env) => s.pickup.push(env),
                Err(_) => return,
            }
            // Admission bounds what can be queued, so the drain is bounded
            // by `queue_cap`.
            s.pickup.extend(rx.try_iter());
        }
        score_pickup(engine, depths, max_batch, &mut s);
    }
}

fn score_pickup(engine: &ScoringEngine, depths: &Depths, max_batch: usize, s: &mut Scratch) {
    let m = engine.metrics();
    let tracer = engine.tracer().map(Arc::as_ref);
    let picked = Instant::now();
    // Pinned after the drain, never before: everything in the pickup was
    // submitted before this pin, so a request submitted after a swap is
    // never scored by the retired version.
    let snap = engine.snapshot();
    s.pickup.retain_mut(|env| {
        let outcome = if env.deadline.is_some_and(|d| picked >= d) {
            m.deadline_expired_total.inc();
            ServeResult::DeadlineExceeded { id: env.id }
        } else if let Err(error) = snap.validate(&env.req) {
            ServeResult::Invalid { id: env.id, error }
        } else {
            return true;
        };
        finish_unscored(m, depths, tracer, env, outcome);
        false
    });
    let pickup = &s.pickup;
    plan_pickup(
        pickup.len(),
        |i| (pickup[i].req.domain, pickup[i].class),
        max_batch,
        &mut s.order,
        &mut s.chunks,
    );
    for chunk in &s.chunks {
        let members = &s.order[chunk.clone()];
        let domain = s.pickup[members[0]].req.domain;
        // Checked again right before the forward pass: a request can expire
        // while earlier groups of its pickup are scored.
        let score_start = Instant::now();
        for &i in members {
            let env = &mut s.pickup[i];
            if env.deadline.is_some_and(|d| score_start >= d) {
                m.deadline_exceeded_total.inc();
                let expired = ServeResult::DeadlineExceeded { id: env.id };
                finish_unscored(m, depths, tracer, env, expired);
            } else {
                s.waits.push(micros(score_start.duration_since(env.enqueued)));
                s.reqs.push(std::mem::replace(&mut env.req, ScoreRequest::new(domain, 0, 0, 0, 0)));
                s.live.push(i);
            }
        }
        if s.live.is_empty() {
            continue;
        }
        snap.score_into(domain, &s.reqs, &mut s.score, &mut s.scores);
        // The pass's one clock read after scoring: every request's latency
        // ends here, before the replies.
        let score_end = Instant::now();
        m.batch_compute_us.record(micros(score_end.duration_since(score_start)));
        m.batches_total.inc();
        m.batch_size.record(s.live.len() as f64);
        let latency = |&i: &usize| score_end.duration_since(s.pickup[i].enqueued).as_secs_f64();
        s.latencies.extend(s.live.iter().map(latency));
        m.queue_wait_us.record_all(&s.waits);
        m.latency_seconds.record_all(&s.latencies);
        for (&i, &score) in s.live.iter().zip(&s.scores) {
            let env = &mut s.pickup[i];
            let resp = Response { id: env.id, score, snapshot_version: snap.version() };
            finish(m, depths, env, ServeResult::Scored(resp));
            if let Some(t) = tracer {
                record_request_chain(t, env, picked, score_start, score_end);
            }
        }
        s.reqs.clear();
        s.live.clear();
        s.waits.clear();
        s.latencies.clear();
    }
    s.pickup.clear();
    m.pickups_total.inc();
    m.worker_busy_seconds_total.add(picked.elapsed().as_secs_f64());
}

/// A duration in microseconds, fractions kept: a sub-µs forward pass is
/// not recorded as 0.
fn micros(d: Duration) -> f64 {
    d.as_secs() as f64 * 1e6 + f64::from(d.subsec_nanos()) / 1e3
}

/// Plans one pickup's forward passes. `key(i)` is the (domain, class) of
/// the `i`-th of `n` requests, in arrival order.
///
/// Fills `order` with every index once, grouped by domain with arrival
/// order kept inside each group, and `chunks` with the forward passes as
/// ranges of `order`, in scoring order: groups holding an interactive
/// request first, then bulk-only groups, each tier by ascending domain id;
/// every group cut into chunks of at most `max_batch`.
fn plan_pickup(
    n: usize,
    key: impl Fn(usize) -> (usize, SloClass),
    max_batch: usize,
    order: &mut Vec<usize>,
    chunks: &mut Vec<Range<usize>>,
) {
    order.clear();
    order.extend(0..n);
    // The index breaks ties, so arrival order survives the unstable sort.
    order.sort_unstable_by_key(|&i| (key(i).0, i));
    chunks.clear();
    for interactive_tier in [true, false] {
        let mut start = 0;
        while start < n {
            let domain = key(order[start]).0;
            let end = start + order[start..].iter().take_while(|&&i| key(i).0 == domain).count();
            let group = &order[start..end];
            if group.iter().any(|&i| key(i).1 == SloClass::Interactive) == interactive_tier {
                chunks.extend((start..end).step_by(max_batch).map(|a| a..end.min(a + max_batch)));
            }
            start = end;
        }
    }
}

/// Records the lifecycle span chain of one scored request after its reply
/// was sent. The chain tiles the request's wall-clock with no gaps:
/// `serve.queue` (admission → worker pickup), `serve.coalesce` (pickup →
/// start of its chunk's forward pass), `serve.score`, `serve.respond` — all
/// children of one `serve.request` root. Spans are recorded post-hoc from
/// instants stamped along the way, so the scoring path itself never
/// allocates a span guard.
fn record_request_chain(
    t: &Tracer,
    env: &Envelope,
    picked: Instant,
    score_start: Instant,
    score_end: Instant,
) {
    let respond_end = Instant::now();
    let trace_id = t.alloc_id();
    let root = t.alloc_id();
    t.record_span_at("serve.queue", trace_id, t.alloc_id(), root, env.enqueued, picked, vec![]);
    t.record_span_at("serve.coalesce", trace_id, t.alloc_id(), root, picked, score_start, vec![]);
    t.record_span_at("serve.score", trace_id, t.alloc_id(), root, score_start, score_end, vec![]);
    t.record_span_at("serve.respond", trace_id, t.alloc_id(), root, score_end, respond_end, vec![]);
    t.record_span_at(
        "serve.request",
        trace_id,
        root,
        0,
        env.enqueued,
        respond_end,
        vec![("request", env.id)],
    );
}

/// Delivers the result of a request that terminated without scoring
/// (deadline exceeded or invalid), with a bare `serve.request` span.
fn finish_unscored(
    m: &ServeMetrics,
    depths: &Depths,
    tracer: Option<&Tracer>,
    env: &mut Envelope,
    result: ServeResult,
) {
    let code = match result {
        ServeResult::DeadlineExceeded { .. } => 1,
        _ => 2,
    };
    finish(m, depths, env, result);
    if let Some(t) = tracer {
        let trace_id = t.alloc_id();
        t.record_span_at(
            "serve.request",
            trace_id,
            t.alloc_id(),
            0,
            env.enqueued,
            Instant::now(),
            vec![("request", env.id), ("terminal", code)],
        );
    }
}

/// Delivers one result: count it, release the admission slots, then reply
/// (ignoring a hung-up client). Counting happens *before* the reply so a
/// client that reads the metrics right after `Pending::wait` returns sees
/// its own response counted.
fn finish(m: &ServeMetrics, depths: &Depths, env: &mut Envelope, result: ServeResult) {
    m.responses_total.inc();
    let d = depths.release(env.class);
    m.queue_depth.set(d as f64);
    env.reply.send(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests_support::{tiny_dense_snapshot, tiny_dense_snapshot_over};
    use mamdr_obs::MetricsRegistry;
    use std::sync::Barrier;

    /// A `Pending` may be moved to another thread and waited on there.
    const _: fn() = || {
        fn send<T: Send>() {}
        send::<Pending>();
    };

    fn request(domain: usize, i: u32) -> ScoreRequest {
        ScoreRequest::new(domain, i % 30, i % 20, i % 4, i % 5)
    }

    /// Starts a server whose workers take no pickup while `stalled` runs:
    /// the test holds the queue lock from before any worker exists, so
    /// every request admitted meanwhile stays queued. Returns the server
    /// with the lock released.
    fn start_stalled<R>(
        engine: Arc<ScoringEngine>,
        config: ServeConfig,
        stalled: impl FnOnce(&Server) -> R,
    ) -> (Server, R) {
        let mut server = Server::without_workers(engine, config);
        let queue = Arc::clone(&server.queue);
        let held = queue.lock().expect("queue lock");
        server.spawn_workers();
        let out = stalled(&server);
        drop(held);
        (server, out)
    }

    #[test]
    fn serves_requests_across_domains() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        let pending: Vec<Pending> = (0..40)
            .map(|i| server.submit(request(i as usize % 2, i), None).expect("admitted"))
            .collect();
        for p in &pending {
            match p.wait() {
                ServeResult::Scored(r) => {
                    assert_eq!(r.id, p.id());
                    assert!((0.0..=1.0).contains(&r.score));
                    assert_eq!(r.snapshot_version, 1);
                }
                other => panic!("expected score, got {other:?}"),
            }
        }
        server.shutdown();
        assert_eq!(registry.counter("serve_requests_total").get(), 40);
        assert_eq!(registry.counter("serve_responses_total").get(), 40);
        assert_eq!(registry.counter("serve_rejected_total").get(), 0);
        assert!(registry.counter("serve_batches_total").get() >= 1);
    }

    #[test]
    fn full_queue_rejects_and_drains_on_shutdown() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let config = ServeConfig { queue_cap: 8, n_workers: 1, ..ServeConfig::default() };
        let (server, admitted) = start_stalled(Arc::clone(&engine), config, |server| {
            let admitted: Vec<Pending> =
                (0..8).map(|i| server.submit(request(0, i), None).expect("under cap")).collect();
            assert!(matches!(server.submit(request(0, 99), None), Err(SubmitError::QueueFull)));
            admitted
        });
        assert_eq!(registry.counter("serve_rejected_total").get(), 1);
        // Shutdown drains the queue: every admitted request still gets
        // scored.
        server.shutdown();
        for p in &admitted {
            assert!(matches!(p.wait(), ServeResult::Scored(_)));
        }
        assert_eq!(registry.counter("serve_responses_total").get(), 8);
        assert_eq!(registry.gauge("serve_queue_depth").get(), 0.0);
    }

    #[test]
    fn class_at_its_bound_sheds_typed_while_other_class_admits() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let config = ServeConfig {
            queue_cap: 64,
            class_caps: [0, 2],
            n_workers: 1,
            ..ServeConfig::default()
        };
        let (server, pending) = start_stalled(Arc::clone(&engine), config, |server| {
            let b1 = server.submit_class(request(0, 1), None, SloClass::Bulk).expect("bulk 1");
            let b2 = server.submit_class(request(0, 2), None, SloClass::Bulk).expect("bulk 2");
            // The bulk class is at depth: typed shed, not QueueFull.
            assert!(matches!(
                server.submit_class(request(0, 3), None, SloClass::Bulk),
                Err(SubmitError::ShedOverload(SloClass::Bulk))
            ));
            // Interactive admission is untouched by bulk pressure.
            let i1 =
                server.submit_class(request(0, 4), None, SloClass::Interactive).expect("inter");
            [b1, b2, i1]
        });
        server.shutdown();
        for p in &pending {
            assert!(matches!(p.wait(), ServeResult::Scored(_)));
        }
        assert_eq!(registry.counter("serve_shed_total{class=\"bulk\"}").get(), 1);
        assert_eq!(registry.counter("serve_shed_total{class=\"interactive\"}").get(), 0);
        assert_eq!(registry.counter("serve_rejected_total").get(), 0);
        assert_eq!(registry.counter("serve_responses_total").get(), 3);
    }

    #[test]
    fn concurrent_submitters_never_overshoot_a_class_cap() {
        const THREADS: u32 = 8;
        const PER_THREAD: u32 = 50;
        // The race lives in the first few submissions of a burst, so run
        // many short bursts, each against a fresh stalled server.
        for _ in 0..20 {
            let registry = MetricsRegistry::new();
            let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
            let config = ServeConfig { class_caps: [0, 2], n_workers: 1, ..ServeConfig::default() };
            let (server, admitted) = start_stalled(engine, config, |server| {
                let go = Barrier::new(THREADS as usize);
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..THREADS)
                        .map(|t| {
                            let go = &go;
                            s.spawn(move || {
                                go.wait();
                                (0..PER_THREAD)
                                    .filter_map(|i| {
                                        let req = request(0, t * PER_THREAD + i);
                                        server.submit_class(req, None, SloClass::Bulk).ok()
                                    })
                                    .collect::<Vec<Pending>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("submitter"))
                        .collect::<Vec<_>>()
                })
            });
            assert_eq!(admitted.len(), 2, "a bulk cap of 2 admitted {}", admitted.len());
            server.shutdown();
            for p in &admitted {
                assert!(matches!(p.wait(), ServeResult::Scored(_)));
            }
            let shed = registry.counter("serve_shed_total{class=\"bulk\"}").get();
            assert_eq!(shed, u64::from(THREADS * PER_THREAD) - 2);
            assert_eq!(registry.counter("serve_rejected_total").get(), 0);
            assert_eq!(registry.gauge("serve_queue_depth").get(), 0.0);
        }
    }

    #[test]
    fn queued_deadline_expiry_is_shed_by_the_dispatcher() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let config = ServeConfig { queue_cap: 16, n_workers: 1, ..ServeConfig::default() };
        // The request's 5ms deadline passes while it is queued; the worker
        // that picks it up answers it without scoring it.
        let (server, doomed) = start_stalled(engine, config, |server| {
            let doomed =
                server.submit(request(0, 1), Some(Duration::from_millis(5))).expect("admitted");
            std::thread::sleep(Duration::from_millis(20));
            doomed
        });
        assert!(matches!(doomed.wait(), ServeResult::DeadlineExceeded { .. }));
        server.shutdown();
        assert_eq!(registry.counter("serve_deadline_expired_total").get(), 1);
        assert_eq!(registry.counter("serve_deadline_exceeded_total").get(), 0);
        assert_eq!(registry.counter("serve_batches_total").get(), 0);
        assert_eq!(registry.counter("serve_responses_total").get(), 1);
        assert_eq!(registry.gauge("serve_queue_depth").get(), 0.0);
    }

    #[test]
    fn expired_deadlines_are_reported_not_scored() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let config = ServeConfig { queue_cap: 16, n_workers: 1, ..ServeConfig::default() };
        let (server, (expired, fine)) = start_stalled(engine, config, |server| {
            let expired = server.submit(request(0, 1), Some(Duration::ZERO)).expect("admitted");
            let fine =
                server.submit(request(0, 2), Some(Duration::from_secs(60))).expect("admitted");
            (expired, fine)
        });
        assert!(matches!(expired.wait(), ServeResult::DeadlineExceeded { .. }));
        assert!(matches!(fine.wait(), ServeResult::Scored(_)));
        server.shutdown();
        // A zero deadline has passed by pickup: counted once, as expired
        // while queued.
        assert_eq!(registry.counter("serve_deadline_expired_total").get(), 1);
        assert_eq!(registry.counter("serve_deadline_exceeded_total").get(), 0);
        assert_eq!(registry.counter("serve_responses_total").get(), 2);
    }

    #[test]
    fn pickup_plan_groups_by_domain_interactive_first() {
        use SloClass::{Bulk, Interactive};
        // Domain 5 is bulk-only, domains 1 and 3 hold an interactive
        // request, domain 3 needs three chunks at max_batch 2.
        let keys = [
            (5, Bulk),
            (3, Bulk),
            (1, Bulk),
            (3, Bulk),
            (5, Bulk),
            (3, Interactive),
            (1, Interactive),
            (3, Bulk),
            (3, Bulk),
        ];
        let (mut order, mut chunks) = (Vec::new(), Vec::new());
        plan_pickup(keys.len(), |i| keys[i], 2, &mut order, &mut chunks);
        let passes: Vec<Vec<usize>> = chunks.iter().map(|c| order[c.clone()].to_vec()).collect();
        assert_eq!(passes, [vec![2, 6], vec![1, 3], vec![5, 7], vec![8], vec![0, 4]]);

        // The same properties over a larger pseudo-random pickup, where
        // domains 0, 3, 6, 9 and 12 are bulk-only.
        let keys: Vec<(usize, SloClass)> = (0..500usize)
            .map(|i| {
                let domain = (i * 7919) % 13;
                (domain, if i % 7 == 0 && domain % 3 != 0 { Interactive } else { Bulk })
            })
            .collect();
        plan_pickup(keys.len(), |i| keys[i], 4, &mut order, &mut chunks);
        let mut seen = vec![0; keys.len()];
        let mut last_in_domain = vec![None; 13];
        let mut bulk_tier_started = false;
        for c in &chunks {
            let pass = &order[c.clone()];
            assert!(!pass.is_empty() && pass.len() <= 4, "chunk of {}", pass.len());
            let domain = keys[pass[0]].0;
            assert!(pass.iter().all(|&i| keys[i].0 == domain), "a chunk mixed domains");
            let group_interactive = keys.iter().any(|&(d, c)| d == domain && c == Interactive);
            if group_interactive {
                assert!(!bulk_tier_started, "interactive group {domain} after a bulk-only one");
            } else {
                bulk_tier_started = true;
            }
            for &i in pass {
                seen[i] += 1;
                assert!(last_in_domain[domain] < Some(i), "arrival order broken in {domain}");
                last_in_domain[domain] = Some(i);
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "every request appears exactly once");
    }

    #[test]
    fn stalled_burst_is_batched_and_scores_bit_identically() {
        const DOMAINS: usize = 8;
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot_over(1, DOMAINS), &registry));
        let config = ServeConfig { queue_cap: 512, n_workers: 2, ..ServeConfig::default() };
        let reqs: Vec<(ScoreRequest, SloClass)> = (0..256u32)
            .map(|i| {
                let class = if i % 3 == 0 { SloClass::Bulk } else { SloClass::Interactive };
                (request((i as usize * 5) % DOMAINS, i), class)
            })
            .collect();
        let (server, pending) = start_stalled(Arc::clone(&engine), config, |server| {
            reqs.iter()
                .map(|(r, c)| server.submit_class(r.clone(), None, *c).expect("admitted"))
                .collect::<Vec<_>>()
        });
        let snap = engine.snapshot();
        for ((req, _), p) in reqs.iter().zip(&pending) {
            let alone = snap.score(req.domain, std::slice::from_ref(req))[0];
            match p.wait() {
                ServeResult::Scored(r) => assert_eq!(r.score.to_bits(), alone.to_bits()),
                other => panic!("expected score, got {other:?}"),
            }
        }
        server.shutdown();
        let batches = registry.counter("serve_batches_total").get();
        assert!(batches < 256, "a queued burst was scored in {batches} forward passes");
        assert_eq!(registry.counter("serve_responses_total").get(), 256);
    }

    #[test]
    fn invalid_requests_get_an_error_result() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let server = Server::start(engine, ServeConfig::default());
        let mut bad = request(0, 1);
        bad.user = 10_000;
        let p = server.submit(bad, None).expect("admission does not validate");
        match p.wait() {
            ServeResult::Invalid { id, error } => {
                assert_eq!(id, p.id());
                assert!(error.contains("user"), "{error}");
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn submissions_from_many_threads_all_resolve() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let server = Server::start(engine, ServeConfig::default());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let server = &server;
                s.spawn(move || {
                    for i in 0..50 {
                        let p = server
                            .submit(request((t % 2) as usize, t * 100 + i), None)
                            .expect("under cap");
                        assert!(matches!(p.wait(), ServeResult::Scored(_)));
                    }
                });
            }
        });
        server.shutdown();
        assert_eq!(registry.counter("serve_responses_total").get(), 200);
    }

    #[test]
    fn micros_keeps_fractions_of_a_microsecond() {
        assert_eq!(micros(Duration::from_nanos(900)), 0.9);
        assert_eq!(micros(Duration::from_nanos(1_500)), 1.5);
        assert_eq!(micros(Duration::new(2, 500)), 2_000_000.5);
    }

    #[test]
    fn wait_works_on_a_thread_other_than_the_submitters() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let config = ServeConfig { n_workers: 1, ..ServeConfig::default() };
        // The waiter starts while the worker is stalled, so the result
        // lands on a slot the submitter no longer holds.
        let (server, waiter) = start_stalled(engine, config, |server| {
            let p = server.submit(request(0, 1), None).expect("admitted");
            std::thread::spawn(move || (p.id(), p.wait()))
        });
        let (id, result) = waiter.join().expect("waiter");
        assert!(matches!(result, ServeResult::Scored(r) if r.id == id));
        server.shutdown();
    }

    #[test]
    fn poll_is_none_while_stalled_then_the_result_then_none() {
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot(1), &registry));
        let config = ServeConfig { n_workers: 1, ..ServeConfig::default() };
        let (server, p) = start_stalled(engine, config, |server| {
            let p = server.submit(request(0, 2), None).expect("admitted");
            assert_eq!(p.poll(), None, "answered while every worker was stalled");
            p
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let result = loop {
            if let Some(r) = p.poll() {
                break r;
            }
            assert!(Instant::now() < deadline, "no result within ten seconds");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(result, ServeResult::Scored(r) if r.id == p.id()));
        assert_eq!(p.poll(), None);
        server.shutdown();
    }

    #[test]
    fn four_submitters_and_two_workers_see_every_id_exactly_once() {
        const SUBMITTERS: usize = 4;
        const PER_SUBMITTER: u32 = 200;
        let registry = MetricsRegistry::new();
        let engine = Arc::new(ScoringEngine::new(tiny_dense_snapshot_over(1, 4), &registry));
        let config = ServeConfig { n_workers: 2, ..ServeConfig::default() };
        let server = Server::start(engine, config);
        // Submitter t hands half its requests to submitter t + 1.
        let (handoff_tx, handoff_rx): (Vec<_>, Vec<_>) =
            (0..SUBMITTERS).map(|_| mpsc::channel::<Vec<Pending>>()).unzip();
        let mut seen: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = handoff_rx
                .into_iter()
                .enumerate()
                .map(|(t, mine)| {
                    let (server, next) = (&server, handoff_tx[(t + 1) % SUBMITTERS].clone());
                    scope.spawn(move || {
                        let base = t as u32 * PER_SUBMITTER;
                        let mut pending: Vec<Pending> = (0..PER_SUBMITTER)
                            .map(|i| {
                                let req = request(((base + i) % 4) as usize, base + i);
                                server.submit(req, None).expect("under the cap")
                            })
                            .collect();
                        // A shuffled order, different per submitter.
                        pending.sort_by_key(|p| (p.id() * 7919 + t as u64 * 31) % 1009);
                        next.send(pending.split_off(pending.len() / 2)).expect("handoff");
                        let theirs = mine.recv().expect("a neighbour's half");
                        let ids = |p: &Pending| match p.wait() {
                            ServeResult::Scored(r) if r.id == p.id() => r.id,
                            other => panic!("request {} answered {other:?}", p.id()),
                        };
                        pending.iter().chain(&theirs).map(ids).collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("submitter")).collect()
        });
        server.shutdown();
        seen.sort_unstable();
        let n = (SUBMITTERS as u32 * PER_SUBMITTER) as u64;
        assert_eq!(seen, (0..n).collect::<Vec<_>>(), "an id was lost or answered twice");
        assert_eq!(registry.counter("serve_responses_total").get(), n);
    }
}
