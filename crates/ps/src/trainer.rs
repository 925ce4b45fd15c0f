//! The in-process deployment of the round engine (paper Fig. 6), and the
//! worker half every deployment shares.
//!
//! The outer loop itself lives in [`crate::engine`]. This module holds
//! what the loop is generic over: the configuration and report types, the
//! cached worker round ([`run_cached_round`]) that the in-process and the
//! networked workers both execute, server seeding and evaluation, and
//! [`DistributedMamdr`] — the trivial [`RoundTransport`], whose workers
//! are scoped threads reading one shared [`ParameterServer`] and whose
//! "wire" is a direct `push_outer_grad` call that cannot fail.

use crate::cache::{CacheStats, OuterGrads, WorkerCache};
use crate::engine::{self, ResumeBase, RoundTransport};
use crate::guard::GuardConfig;
use crate::kv::{ParamKey, ParameterServer, RowSource, TimedRowSource, LOCK_STRIPES};
use crate::model::{error_signal, log_loss, score, tables, ExampleKeys};
use crate::shard::ShardMap;
use mamdr_core::metrics::auc;
use mamdr_data::{MdrDataset, Split};
use mamdr_obs::{maybe_child, MetricsRegistry, SpanContext, Tracer};
use mamdr_tensor::pool;
use mamdr_tensor::rng::{derive_seed, normal, seeded, shuffle};
use rand::Rng;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How workers synchronize with the parameter server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// The §IV-E protocol: static/dynamic caches, one delta push per
    /// touched row per round.
    Cached,
    /// Baseline: pull every row on every read, push every update
    /// immediately (classic fully synchronous PS training).
    NoCache,
}

/// Configuration of the distributed simulation.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Worker threads.
    pub n_workers: usize,
    /// Embedding width.
    pub dim: usize,
    /// Inner-loop SGD learning rate (paper industry setting: SGD inner).
    pub inner_lr: f32,
    /// Outer-loop Adagrad learning rate (paper: Adagrad outer, 0.1–1).
    pub outer_lr: f32,
    /// Outer rounds (each covers every domain once).
    pub epochs: usize,
    /// Synchronization protocol.
    pub mode: SyncMode,
    /// When true (and the mode is [`SyncMode::Cached`]), workers train
    /// read-only against the server and the driver applies every worker's
    /// key-sorted outer gradients *after* the round joins, in worker
    /// order. The server is quiescent while workers read, so the run is
    /// bit-reproducible at any worker count — this is the protocol the
    /// networked trainer (`mamdr-rpc`) mirrors over TCP, and what makes
    /// "loopback training equals in-process training" testable at all.
    /// When false (the default), workers push their own gradients as they
    /// finish, racing each other exactly like the asynchronous real
    /// deployment.
    pub sync_rounds: bool,
    /// Master seed.
    pub seed: u64,
    /// Kernel worker threads for driver-side tensor math (evaluation);
    /// `0` (the default) inherits the process-wide setting. Results are
    /// bit-identical at any value.
    pub kernel_threads: usize,
    /// Divergence guard over the synchronous apply path (disabled by
    /// default; only consulted when [`DistributedConfig::sync_rounds`] is
    /// set, because only then does the driver see every update).
    pub guard: GuardConfig,
    /// Number of *cross-server* shards the pull accounting should model
    /// (see [`ParameterServer::set_route_shards`]). `1` (the default)
    /// keeps the classic single-server chunk arithmetic; a sharded
    /// loopback deployment with N servers matches an in-process run
    /// configured with `route_shards: N` on every report field.
    pub route_shards: usize,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            n_workers: 4,
            dim: 8,
            inner_lr: 0.1,
            outer_lr: 0.5,
            epochs: 3,
            mode: SyncMode::Cached,
            sync_rounds: false,
            seed: 1,
            kernel_threads: 0,
            guard: GuardConfig::default(),
            route_shards: 1,
        }
    }
}

/// Aggregated result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// Mean per-domain test AUC after training.
    pub mean_auc: f64,
    /// Total pull RPCs.
    pub pulls: u64,
    /// Total push RPCs.
    pub pushes: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Combined worker cache statistics (zero for [`SyncMode::NoCache`]).
    pub cache: CacheStats,
    /// Worst observed end-of-round staleness across all workers and rounds
    /// (how many foreign pushes a cached row missed before the drain).
    pub max_staleness: u64,
    /// Mean training log-loss of each outer round, in round order.
    pub round_losses: Vec<f64>,
    /// Guard trips (worker updates skipped or rolled back as divergent).
    pub guard_trips: u64,
    /// Guard-demanded rollbacks to the last good round boundary.
    pub guard_rollbacks: u64,
}

impl DistributedReport {
    /// Publishes the report into a metrics registry under the `ps_*`
    /// namespace: RPC/byte counters, cache hit/miss counters plus a
    /// hit-ratio gauge, the staleness bound, final quality, and the
    /// per-round loss curve as a histogram.
    pub fn export(&self, registry: &MetricsRegistry) {
        registry.counter("ps_pulls_total").add(self.pulls);
        registry.counter("ps_pushes_total").add(self.pushes);
        registry.counter("ps_bytes_total").add(self.total_bytes);
        registry.counter("ps_cache_hits_total").add(self.cache.hits);
        registry.counter("ps_cache_misses_total").add(self.cache.misses);
        registry.gauge("ps_cache_hit_ratio").set(self.cache.hit_ratio());
        registry.gauge("ps_max_staleness").set(self.max_staleness as f64);
        registry.gauge("ps_mean_auc").set(self.mean_auc);
        let rounds = registry.histogram("ps_round_loss");
        for &loss in &self.round_losses {
            rounds.record(loss);
        }
        if let Some(&last) = self.round_losses.last() {
            registry.gauge("ps_train_loss").set(last);
        }
        registry.counter("ps_guard_trips_total").add(self.guard_trips);
        registry.counter("ps_guard_rollbacks_total").add(self.guard_rollbacks);
    }
}

/// One worker's result for one outer round of cached training: the
/// accounting plus — in synchronous modes — the undelivered outer
/// gradients, key-sorted for a deterministic application order.
///
/// Public because the networked trainer in `mamdr-rpc` runs the same
/// round logic against an RPC-backed [`RowSource`] and must aggregate
/// identically.
#[derive(Debug)]
pub struct CachedRoundOutput {
    /// Hit/miss counters of the worker's cache for this round.
    pub cache: CacheStats,
    /// End-of-round staleness of the worker's cached rows: the largest
    /// number of foreign pushes a row received after this worker pulled it.
    /// Always 0 in a synchronous round, where the store is read-only until
    /// every worker has joined.
    pub staleness: u64,
    /// Summed training log-loss over the worker's examples.
    pub loss_sum: f64,
    /// Number of training examples the worker saw.
    pub n_examples: u64,
    /// Outer gradients (Θ̃ − Θ per touched row), sorted by
    /// `(table, row)`. The caller applies them (directly or over RPC).
    pub grads: OuterGrads,
}

/// Where one worker's round wall-clock went: inside [`RowSource`] calls
/// (`pull`) and everywhere else (`compute`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTime {
    /// Time spent in the row source's reads.
    pub pull: Duration,
    /// The rest of the round.
    pub compute: Duration,
}

impl RoundTime {
    /// Records the split as the tracer's `round.pull` and `round.compute`
    /// phases.
    pub fn record(&self, tracer: &Tracer) {
        tracer.record_phase("round.pull", self.pull);
        tracer.record_phase("round.compute", self.compute);
    }
}

/// The per-worker round seed (derived from the master seed, the epoch and
/// the worker index) — shared by both trainers.
pub fn worker_round_seed(seed: u64, epoch: usize, worker: usize) -> u64 {
    derive_seed(seed, ((epoch as u64) << 16) | worker as u64)
}

/// Seeds every embedding row the dataset can touch into `ps`
/// (`N(0, 0.05)`, deterministic in `seed`). Extracted from
/// [`DistributedMamdr::new`] so a networked server can be populated
/// identically to the in-process one.
pub fn seed_server(ps: &ParameterServer, ds: &MdrDataset, dim: usize, seed: u64) {
    seed_sharded_servers(&[ps], &ShardMap::new(1), ds, dim, seed);
}

/// Seeds the same rows as [`seed_server`] — same RNG, same draw order —
/// but routes each row to the store owning it under `map`, so a fleet of
/// shard servers jointly holds exactly the state one server would.
///
/// # Panics
///
/// Panics when `stores.len()` disagrees with the map's shard count.
pub fn seed_sharded_servers(
    stores: &[&ParameterServer],
    map: &ShardMap,
    ds: &MdrDataset,
    dim: usize,
    seed: u64,
) {
    assert_eq!(stores.len(), map.n_shards(), "one store per shard");
    let mut rng = seeded(derive_seed(seed, 0xF5));
    let mut seed_table = |table: u32, rows: usize| {
        for r in 0..rows {
            let v: Vec<f32> = (0..dim).map(|_| 0.05 * normal(&mut rng)).collect();
            let key = ParamKey::new(table, r as u32);
            stores[map.owner(key)].init_row(key, v);
        }
    };
    seed_table(tables::USER, ds.n_users);
    seed_table(tables::ITEM, ds.n_items);
    seed_table(tables::UGROUP, ds.n_user_groups);
    seed_table(tables::ICAT, ds.n_item_cats);
    seed_table(tables::DOMAIN_BIAS, ds.n_domains());
}

/// Mean per-domain AUC of `split` using the server's current parameters
/// (reads are traffic-free: evaluation runs driver-side).
///
/// Interactions are split across the kernel threads in blocks of at least
/// 512; each one lands in its own slot, so the AUC input is bit-identical at
/// any thread count.
pub fn evaluate_server(ps: &ParameterServer, ds: &MdrDataset, split: Split) -> f64 {
    let mut aucs = Vec::with_capacity(ds.n_domains());
    for (di, dom) in ds.domains.iter().enumerate() {
        let interactions = dom.split(split);
        if interactions.is_empty() {
            continue;
        }
        let labels: Vec<_> = interactions.iter().map(|it| it.label).collect();
        let mut scores = vec![0.0f32; interactions.len()];
        pool::for_each_row_block(&mut scores, 1, 512, |range, block| {
            for (slot, it) in block.iter_mut().zip(&interactions[range]) {
                let keys = ExampleKeys::new(
                    it.user,
                    it.item,
                    ds.user_group[it.user as usize],
                    ds.item_cat[it.item as usize],
                    di as u32,
                );
                let u = ps.read_silent(keys.user).expect("user row");
                let v = ps.read_silent(keys.item).expect("item row");
                let g = ps.read_silent(keys.ugroup).expect("group row");
                let c = ps.read_silent(keys.icat).expect("cat row");
                let b = ps.read_silent(keys.bias).expect("bias row");
                *slot = score(&u, &v, &g, &c, &b);
            }
        });
        aucs.push(auc(&labels, &scores));
    }
    mamdr_core::metrics::mean(&aucs)
}

/// A full store snapshot — parameter rows plus Adagrad accumulators — the
/// guard's rollback target.
pub type StoreSnapshot = (Vec<(ParamKey, Vec<f32>)>, Vec<(ParamKey, Vec<f32>)>);

/// The distributed MAMDR trainer.
pub struct DistributedMamdr {
    ps: ParameterServer,
    cfg: DistributedConfig,
    tracer: Option<Arc<Tracer>>,
}

impl DistributedMamdr {
    /// Builds the server and seeds every embedding row the dataset can
    /// touch (`N(0, 0.05)`, deterministic in the config seed).
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`engine::validate`] rejects.
    pub fn new(ds: &MdrDataset, cfg: DistributedConfig) -> Self {
        if let Err(e) = engine::validate(&cfg) {
            panic!("bad DistributedConfig: {e}");
        }
        let ps = ParameterServer::new(LOCK_STRIPES, cfg.dim);
        ps.set_route_shards(cfg.route_shards.max(1));
        seed_server(&ps, ds, cfg.dim, cfg.seed);
        DistributedMamdr { ps, cfg, tracer: None }
    }

    /// Attaches a tracer: each round becomes a span tree (partition /
    /// workers / apply phases, per-worker pull vs compute attribution).
    /// Training results are bit-identical with or without it.
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs the configured number of outer rounds and reports traffic and
    /// final quality.
    pub fn train(&self, ds: &MdrDataset) -> DistributedReport {
        let mut cfg = self.cfg;
        // The guard only makes sense when the driver is the sole writer:
        // asynchronous workers apply their own pushes before the driver
        // could vet them.
        cfg.guard.enabled &= cfg.sync_rounds;
        let mut transport = InProcess { trainer: self, ds };
        let Ok(report) = engine::run_rounds(
            &mut transport,
            &cfg,
            ds.n_domains(),
            &self.tracer,
            ResumeBase::default(),
        );
        report
    }

    /// Mean per-domain AUC using the server's current parameters — see
    /// [`evaluate_server`].
    pub fn evaluate(&self, ds: &MdrDataset, split: Split) -> f64 {
        if self.cfg.kernel_threads > 0 {
            pool::set_threads(self.cfg.kernel_threads);
        }
        evaluate_server(&self.ps, ds, split)
    }

    /// The underlying parameter server (for tests and benches).
    pub fn server(&self) -> &ParameterServer {
        &self.ps
    }
}

/// The in-process transport: workers are scoped threads on the trainer's
/// own store, and the driver's writes are direct calls.
struct InProcess<'a> {
    trainer: &'a DistributedMamdr,
    ds: &'a MdrDataset,
}

impl RoundTransport for InProcess<'_> {
    type Error = Infallible;
    type Snapshot = StoreSnapshot;

    fn run_workers(
        &mut self,
        epoch: usize,
        partitions: &[Vec<usize>],
        parent: Option<SpanContext>,
    ) -> Result<Vec<CachedRoundOutput>, Infallible> {
        let (trainer, ds) = (self.trainer, self.ds);
        let outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(w, part)| {
                    scope.spawn(move || trainer.run_worker_round(ds, part, epoch, w, parent))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        Ok(outputs)
    }

    fn queue_grads(&mut self, grads: OuterGrads) {
        for (key, delta) in grads.iter() {
            self.trainer.ps.push_outer_grad(key, delta, self.trainer.cfg.outer_lr);
        }
    }

    fn flush(&mut self, _parent: Option<SpanContext>) -> Result<(), Infallible> {
        Ok(())
    }

    fn snapshot(&self) -> StoreSnapshot {
        (self.trainer.ps.dump_rows(), self.trainer.ps.dump_adagrad())
    }

    fn restore(&mut self, (rows, adagrad): &StoreSnapshot) {
        self.trainer.ps.restore_state(rows, adagrad);
    }

    fn traffic(&self) -> (u64, u64, u64, u64) {
        self.trainer.ps.traffic().snapshot()
    }

    fn evaluate(&mut self) -> f64 {
        evaluate_server(&self.trainer.ps, self.ds, Split::Test)
    }
}

/// One cached worker round, generic over where reads come from: the MAMDR
/// inner loop over `domains` through a fresh [`WorkerCache`], ending with
/// the outer-gradient drain. The round is synchronous — the store does not
/// change while it runs — so its staleness is 0 and nothing asks the
/// source for it.
///
/// The gradients are *returned* (key-sorted), not pushed — the caller
/// decides how to deliver them: the synchronous in-process trainer defers
/// them to the driver, and the networked trainer ships them over RPC. This
/// is the exact function the `mamdr-rpc` loopback workers execute, which
/// is why fault-free networked training is bit-identical to
/// [`DistributedMamdr`] with `sync_rounds`.
pub fn run_cached_round<S: RowSource + ?Sized>(
    src: &S,
    ds: &MdrDataset,
    domains: &[usize],
    inner_lr: f32,
    seed: u64,
) -> CachedRoundOutput {
    let (cache, loss_sum, n_examples) = train_cached(src, ds, domains, inner_lr, seed);
    CachedRoundOutput::drain(cache, loss_sum, n_examples)
}

/// [`run_cached_round`] with the worker's wall-clock split: reads go
/// through a [`TimedRowSource`] — one clock read per [`RowSource`] call,
/// never per row — and the rest of the round is compute. The timing only
/// times calls; the training math it forwards is byte-for-byte the untimed
/// path.
pub fn run_cached_round_timed<S: RowSource + ?Sized>(
    src: &S,
    ds: &MdrDataset,
    domains: &[usize],
    inner_lr: f32,
    seed: u64,
) -> (CachedRoundOutput, RoundTime) {
    timed(src, |src| run_cached_round(src, ds, domains, inner_lr, seed))
}

/// Runs `round` against `src` wrapped in a [`TimedRowSource`], splitting
/// its wall-clock into time inside reads and the rest.
fn timed<S: RowSource + ?Sized, T>(
    src: &S,
    round: impl FnOnce(&TimedRowSource<'_, S>) -> T,
) -> (T, RoundTime) {
    let timed = TimedRowSource::new(src);
    let t0 = Instant::now();
    let out = round(&timed);
    let total = t0.elapsed();
    let pull = timed.elapsed();
    (out, RoundTime { pull, compute: total.saturating_sub(pull) })
}

/// The body of a cached round: the prefetch and the MAMDR inner loop over
/// `domains`. Returns the filled cache, before its drain, with the summed
/// training log-loss and the example count.
fn train_cached<S: RowSource + ?Sized>(
    src: &S,
    ds: &MdrDataset,
    domains: &[usize],
    inner_lr: f32,
    seed: u64,
) -> (WorkerCache, f64, u64) {
    let mut rng = seeded(seed);
    let mut cache = WorkerCache::new();
    // Warm the cache with the round's entire working set up front: the
    // key set of a round is known from the partition alone (it does not
    // depend on example order), so one batched pull replaces every lazy
    // per-key miss — over the wire, one request per key chunk instead of
    // one per key. Values are identical either way: the server is
    // quiescent during a synchronous round, and a lazy miss would have
    // pulled the same bytes one example later. The keys arrive sorted, so
    // the drain hands them back in order without a sort.
    cache.prefetch(src, &partition_keys(ds, domains));
    let mut rows = Vec::new();
    let mut loss_sum = 0.0f64;
    let mut n_examples = 0u64;
    for &d in domains {
        let (l, n) = train_domain_cached(src, &mut cache, &mut rows, ds, d, inner_lr, &mut rng);
        loss_sum += l;
        n_examples += n;
    }
    (cache, loss_sum, n_examples)
}

impl CachedRoundOutput {
    /// Ends a trained round: hands back Θ̃ − Θ per touched row (Eq. 3's
    /// outer gradient) and empties the cache. Staleness is 0; only the
    /// asynchronous in-process trainer overwrites it.
    fn drain(mut cache: WorkerCache, loss_sum: f64, n_examples: u64) -> Self {
        let stats = cache.stats();
        let grads = cache.drain_outer_grads();
        CachedRoundOutput { cache: stats, staleness: 0, loss_sum, n_examples, grads }
    }
}

/// The distinct parameter rows a cached round over `domains` will touch,
/// sorted by `(table, row)`: every embedding and bias row reachable from
/// the partition's training examples. This is the prefetch set of
/// [`run_cached_round`] — exact, not a heuristic, because the cached
/// inner loop reads precisely the [`ExampleKeys`] of its examples.
pub fn partition_keys(ds: &MdrDataset, domains: &[usize]) -> Vec<ParamKey> {
    let examples: usize = domains.iter().map(|&d| ds.domains[d].train.len()).sum();
    let mut keys = Vec::with_capacity(5 * examples);
    for &d in domains {
        for it in &ds.domains[d].train {
            let ek = ExampleKeys::new(
                it.user,
                it.item,
                ds.user_group[it.user as usize],
                ds.item_cat[it.item as usize],
                d as u32,
            );
            keys.extend(ek.all());
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

impl DistributedMamdr {
    /// One worker's round: the MAMDR inner loop over its domain partition.
    /// The returned `grads` are the ones deferred to the driver
    /// ([`DistributedConfig::sync_rounds`]) — empty when the worker already
    /// pushed them itself.
    fn run_worker_round(
        &self,
        ds: &MdrDataset,
        domains: &[usize],
        epoch: usize,
        worker: usize,
        parent: Option<SpanContext>,
    ) -> CachedRoundOutput {
        let (ps, cfg) = (&self.ps, self.cfg);
        let seed = worker_round_seed(cfg.seed, epoch, worker);
        let mut worker_span = maybe_child(&self.tracer, "worker.round", parent);
        if let Some(s) = &mut worker_span {
            s.attr("worker", worker as u64);
        }
        match cfg.mode {
            SyncMode::Cached => {
                let ((cache, loss_sum, n_examples), time) =
                    timed(ps, |src| train_cached(src, ds, domains, cfg.inner_lr, seed));
                if let Some(tracer) = self.tracer.as_deref() {
                    time.record(tracer);
                }
                if cfg.sync_rounds {
                    // The gradients go to the driver and the server stays
                    // read-only until every worker has joined: nothing the
                    // worker read can have moved.
                    return CachedRoundOutput::drain(cache, loss_sum, n_examples);
                }
                // Asynchronous protocol: read how far the racing workers
                // moved this worker's rows, then push now; the server
                // applies with Adagrad (Eq. 3 with a server-side optimizer).
                let staleness = cache.staleness(ps);
                let out = CachedRoundOutput::drain(cache, loss_sum, n_examples);
                for (key, delta) in out.grads.iter() {
                    ps.push_outer_grad(key, delta, cfg.outer_lr);
                }
                CachedRoundOutput { staleness, grads: OuterGrads::default(), ..out }
            }
            SyncMode::NoCache => {
                let mut rng = seeded(seed);
                let mut loss_sum = 0.0f64;
                let mut n_examples = 0u64;
                for &d in domains {
                    let (l, n) = train_domain_no_cache(ps, ds, d, cfg, &mut rng);
                    loss_sum += l;
                    n_examples += n;
                }
                CachedRoundOutput {
                    cache: CacheStats::default(),
                    staleness: 0,
                    loss_sum,
                    n_examples,
                    grads: OuterGrads::default(),
                }
            }
        }
    }
}

/// Inner-loop SGD over one domain through the cache. Returns the summed
/// log-loss and example count for round-level loss reporting.
///
/// Each example copies its five rows into `rows`, a buffer kept across the
/// round, before it updates any of them: every update reads the partner
/// rows' pre-update values.
fn train_domain_cached<S: RowSource + ?Sized>(
    src: &S,
    cache: &mut WorkerCache,
    rows: &mut Vec<f32>,
    ds: &MdrDataset,
    domain: usize,
    inner_lr: f32,
    rng: &mut impl Rng,
) -> (f64, u64) {
    let mut order: Vec<usize> = (0..ds.domains[domain].train.len()).collect();
    shuffle(rng, &mut order);
    let mut loss_sum = 0.0f64;
    let n = order.len() as u64;
    for idx in order {
        let it = ds.domains[domain].train[idx];
        let keys = ExampleKeys::new(
            it.user,
            it.item,
            ds.user_group[it.user as usize],
            ds.item_cat[it.item as usize],
            domain as u32,
        );
        rows.clear();
        for key in keys.all() {
            rows.extend_from_slice(cache.get(src, key));
        }
        let dim = rows.len() / 5;
        let (u, rest) = rows.split_at(dim);
        let (v, rest) = rest.split_at(dim);
        let (g, rest) = rest.split_at(dim);
        let (c, b) = rest.split_at(dim);
        let s = score(u, v, g, c, b);
        loss_sum += log_loss(s, it.label) as f64;
        let e = error_signal(s, it.label);
        let lr = inner_lr;
        cache.update(keys.user, |row| axpy_rows(row, -lr * e, v));
        cache.update(keys.item, |row| axpy_rows(row, -lr * e, u));
        cache.update(keys.ugroup, |row| axpy_rows(row, -lr * e, c));
        cache.update(keys.icat, |row| axpy_rows(row, -lr * e, g));
        cache.update(keys.bias, |row| row[0] -= lr * e);
    }
    (loss_sum, n)
}

/// Inner-loop SGD with no cache: every read pulls, every write pushes.
/// Returns the summed log-loss and example count like the cached path.
fn train_domain_no_cache(
    ps: &ParameterServer,
    ds: &MdrDataset,
    domain: usize,
    cfg: DistributedConfig,
    rng: &mut impl Rng,
) -> (f64, u64) {
    let mut order: Vec<usize> = (0..ds.domains[domain].train.len()).collect();
    shuffle(rng, &mut order);
    let mut loss_sum = 0.0f64;
    let n = order.len() as u64;
    for idx in order {
        let it = ds.domains[domain].train[idx];
        let keys = ExampleKeys::new(
            it.user,
            it.item,
            ds.user_group[it.user as usize],
            ds.item_cat[it.item as usize],
            domain as u32,
        );
        let u = ps.pull(keys.user);
        let v = ps.pull(keys.item);
        let g = ps.pull(keys.ugroup);
        let c = ps.pull(keys.icat);
        let b = ps.pull(keys.bias);
        let s = score(&u, &v, &g, &c, &b);
        loss_sum += log_loss(s, it.label) as f64;
        let e = error_signal(s, it.label);
        let lr = cfg.inner_lr;
        ps.push_delta(keys.user, &scaled(-lr * e, &v));
        ps.push_delta(keys.item, &scaled(-lr * e, &u));
        ps.push_delta(keys.ugroup, &scaled(-lr * e, &c));
        ps.push_delta(keys.icat, &scaled(-lr * e, &g));
        let mut bias_delta = vec![0.0; b.len()];
        bias_delta[0] = -lr * e;
        ps.push_delta(keys.bias, &bias_delta);
    }
    (loss_sum, n)
}

fn axpy_rows(row: &mut [f32], alpha: f32, x: &[f32]) {
    for (r, &xi) in row.iter_mut().zip(x) {
        *r += alpha * xi;
    }
}

fn scaled(alpha: f32, x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| alpha * v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_data::{DomainSpec, GeneratorConfig};

    fn dataset() -> MdrDataset {
        let mut cfg = GeneratorConfig::base("ps", 80, 50, 55);
        cfg.domains = (0..6).map(|i| DomainSpec::new(format!("d{i}"), 400, 0.3)).collect();
        cfg.generate()
    }

    #[test]
    fn cached_training_learns() {
        let ds = dataset();
        let cfg = DistributedConfig { epochs: 6, ..Default::default() };
        let trainer = DistributedMamdr::new(&ds, cfg);
        let before = trainer.evaluate(&ds, Split::Test);
        let report = trainer.train(&ds);
        assert!(
            report.mean_auc > before + 0.03,
            "AUC should improve: {} -> {}",
            before,
            report.mean_auc
        );
        assert!(report.cache.hit_ratio() > 0.5, "hit ratio {}", report.cache.hit_ratio());
    }

    #[test]
    fn cache_cuts_traffic_dramatically() {
        let ds = dataset();
        let cached = DistributedMamdr::new(&ds, DistributedConfig::default()).train(&ds);
        let uncached = DistributedMamdr::new(
            &ds,
            DistributedConfig { mode: SyncMode::NoCache, ..Default::default() },
        )
        .train(&ds);
        assert!(
            uncached.total_bytes > 3 * cached.total_bytes,
            "expected >3x traffic reduction: cached {} vs uncached {}",
            cached.total_bytes,
            uncached.total_bytes
        );
    }

    #[test]
    fn cache_preserves_quality_single_worker() {
        // Quality comparison needs determinism: multi-worker interleaving
        // adds run-to-run noise, so pin one worker and more rounds.
        let ds = dataset();
        let base = DistributedConfig { n_workers: 1, epochs: 6, ..Default::default() };
        let cached = DistributedMamdr::new(&ds, base).train(&ds);
        let uncached =
            DistributedMamdr::new(&ds, DistributedConfig { mode: SyncMode::NoCache, ..base })
                .train(&ds);
        assert!(
            cached.mean_auc > uncached.mean_auc - 0.05,
            "cached {} vs uncached {}",
            cached.mean_auc,
            uncached.mean_auc
        );
    }

    #[test]
    fn deterministic_given_seed_with_one_worker() {
        // Multi-worker runs interleave nondeterministically (as in the real
        // system); a single worker must be exactly reproducible.
        let ds = dataset();
        let cfg = DistributedConfig { n_workers: 1, epochs: 2, ..Default::default() };
        let a = DistributedMamdr::new(&ds, cfg).train(&ds);
        let b = DistributedMamdr::new(&ds, cfg).train(&ds);
        assert_eq!(a.mean_auc, b.mean_auc);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn round_losses_track_every_round_and_decrease() {
        let ds = dataset();
        let cfg = DistributedConfig { epochs: 6, ..Default::default() };
        let report = DistributedMamdr::new(&ds, cfg).train(&ds);
        assert_eq!(report.round_losses.len(), 6);
        assert!(report.round_losses.iter().all(|l| l.is_finite() && *l > 0.0));
        let first = report.round_losses[0];
        let last = *report.round_losses.last().unwrap();
        assert!(last < first, "loss should fall over rounds: {} -> {}", first, last);
    }

    #[test]
    fn export_publishes_traffic_and_cache_metrics() {
        let ds = dataset();
        let report = DistributedMamdr::new(&ds, DistributedConfig::default()).train(&ds);
        let registry = MetricsRegistry::new();
        report.export(&registry);
        assert_eq!(registry.counter("ps_pulls_total").get(), report.pulls);
        assert_eq!(registry.counter("ps_pushes_total").get(), report.pushes);
        assert_eq!(registry.counter("ps_bytes_total").get(), report.total_bytes);
        assert_eq!(registry.counter("ps_cache_hits_total").get(), report.cache.hits);
        assert_eq!(registry.counter("ps_cache_misses_total").get(), report.cache.misses);
        assert_eq!(registry.gauge("ps_cache_hit_ratio").get(), report.cache.hit_ratio());
        assert_eq!(registry.gauge("ps_mean_auc").get(), report.mean_auc);
        let (_, snap) = registry
            .histogram_values()
            .into_iter()
            .find(|(name, _)| name == "ps_round_loss")
            .expect("round-loss histogram exported");
        assert_eq!(snap.count, report.round_losses.len() as u64);
    }

    #[test]
    fn sync_rounds_is_deterministic_with_many_workers() {
        // The whole point of the synchronous protocol: multi-worker runs
        // become exactly reproducible because the driver is the only
        // writer and applies key-sorted gradients in worker order.
        let ds = dataset();
        let cfg =
            DistributedConfig { n_workers: 4, epochs: 3, sync_rounds: true, ..Default::default() };
        let a = DistributedMamdr::new(&ds, cfg).train(&ds);
        let b = DistributedMamdr::new(&ds, cfg).train(&ds);
        assert_eq!(a.mean_auc, b.mean_auc);
        assert_eq!(a.round_losses, b.round_losses);
        assert_eq!((a.pulls, a.pushes, a.total_bytes), (b.pulls, b.pushes, b.total_bytes));
        // No concurrent writers during a round ⇒ cached rows never go
        // stale before the drain.
        assert_eq!(a.max_staleness, 0);
        // And it still learns.
        assert!(a.mean_auc > 0.53, "AUC {}", a.mean_auc);
    }

    #[test]
    #[should_panic(expected = "n_workers must be at least 1")]
    fn zero_workers_is_rejected_at_construction() {
        DistributedMamdr::new(&dataset(), DistributedConfig { n_workers: 0, ..Default::default() });
    }

    #[test]
    fn evaluate_server_is_bit_identical_across_thread_counts() {
        let mut cfg = GeneratorConfig::base("ps", 800, 500, 55);
        cfg.domains = vec![DomainSpec::new("big", 8000, 0.3), DomainSpec::new("small", 400, 0.3)];
        let ds = cfg.generate();
        // Scoring blocks hold at least 512 interactions: this splits three ways.
        assert!(ds.domains[0].split(Split::Test).len() >= 3 * 512);
        let trainer = DistributedMamdr::new(&ds, DistributedConfig::default());
        let restore = pool::configured_threads();
        pool::set_threads(1);
        let serial = evaluate_server(trainer.server(), &ds, Split::Test);
        pool::set_threads(4);
        let parallel = evaluate_server(trainer.server(), &ds, Split::Test);
        pool::set_threads(restore);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn worker_count_does_not_break_training() {
        let ds = dataset();
        for workers in [1, 2, 8] {
            let cfg = DistributedConfig { n_workers: workers, epochs: 3, ..Default::default() };
            let report = DistributedMamdr::new(&ds, cfg).train(&ds);
            assert!(report.mean_auc > 0.53, "{} workers: AUC {}", workers, report.mean_auc);
        }
    }
}
