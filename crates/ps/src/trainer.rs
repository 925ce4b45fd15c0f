//! The in-process deployment of the round engine (paper Fig. 6), and the
//! worker half every deployment shares.
//!
//! The outer loop itself lives in [`crate::engine`]. This module holds
//! what the loop is generic over: the configuration and report types, the
//! compute of a cached worker round ([`run_cached_round`]) that the
//! in-process and the networked workers both execute after their one pull,
//! server seeding and evaluation, and [`DistributedMamdr`] — the trivial
//! [`RoundTransport`], whose workers are scoped threads reading one shared
//! [`ParameterServer`] and whose "wire" is a direct `push_outer_grads` call
//! that cannot fail.

use crate::cache::{CacheStats, OuterGrads, WorkerCache};
use crate::engine::{self, ResumeBase, RoundTransport};
use crate::guard::GuardConfig;
use crate::kv::{ParamKey, ParameterServer};
use crate::model::{error_signal, log_loss, score, tables, ExampleKeys};
use crate::shard::ShardMap;
use mamdr_core::metrics::auc;
use mamdr_data::{Interaction, MdrDataset, Split};
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
    /// immediately (classic fully synchronous PS training). The workers
    /// run one after another on the driver's thread: one legal
    /// interleaving of their per-read traffic, the same at every run.
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
    /// How the driver orders a round's updates. Workers always train
    /// read-only against the server, and the driver applies every worker's
    /// key-sorted outer gradients after the round joins, so a run is a
    /// function of its seed at any worker count, in both trainers. When
    /// true, the round is one lock-step update: the driver applies in
    /// worker order and reports staleness 0. When false (the default), the
    /// round stands for the asynchronous deployment, whose workers push as
    /// they finish: the driver applies in a seeded permutation of the
    /// workers, and each update's staleness is how many earlier updates of
    /// the round touched its rows (see [`crate::engine::apply_order`]).
    pub sync_rounds: bool,
    /// Master seed.
    pub seed: u64,
    /// Kernel worker threads for driver-side tensor math (evaluation);
    /// `0` (the default) inherits the process-wide setting. Results are
    /// bit-identical at any value.
    pub kernel_threads: usize,
    /// Divergence guard over the driver's apply path (disabled by
    /// default). The driver applies every update in every mode, so an
    /// enabled guard vets each one before it lands.
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
    /// Worst staleness across all workers and rounds: how many updates of
    /// the same round reached a cached row before the worker's own (0 when
    /// [`DistributedConfig::sync_rounds`] is set).
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
/// accounting plus the undelivered outer gradients, key-sorted for a
/// deterministic application order.
///
/// Public because the networked trainer in `mamdr-rpc` runs the same
/// round compute on rows it pulled over the wire and must aggregate
/// identically.
#[derive(Debug)]
pub struct CachedRoundOutput {
    /// Hit/miss counters of the worker's cache for this round.
    pub cache: CacheStats,
    /// Summed training log-loss over the worker's examples.
    pub loss_sum: f64,
    /// Number of training examples the worker saw.
    pub n_examples: u64,
    /// Outer gradients (Θ̃ − Θ per touched row), sorted by
    /// `(table, row)`. The caller applies them (directly or over RPC).
    pub grads: OuterGrads,
}

/// Where one worker's round wall-clock went: in the round's one batched
/// pull (`pull`), and in building its key set and the compute
/// (`compute`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTime {
    /// Time spent in the pull.
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
    for (table, rows) in table_rows(ds) {
        for r in 0..rows {
            let v: Vec<f32> = (0..dim).map(|_| 0.05 * normal(&mut rng)).collect();
            let key = ParamKey::new(table, r as u32);
            stores[map.owner(key)].init_row(key, v);
        }
    }
}

/// Every table with the number of rows [`seed_server`] places in it, in
/// ascending table id — entry `t` is table `t` — and row ids dense from 0.
fn table_rows(ds: &MdrDataset) -> [(u32, usize); 5] {
    [
        (tables::USER, ds.n_users),
        (tables::ITEM, ds.n_items),
        (tables::UGROUP, ds.n_user_groups),
        (tables::ICAT, ds.n_item_cats),
        (tables::DOMAIN_BIAS, ds.n_domains()),
    ]
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
                let keys = example_keys(ds, it, di);
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
        let ps = ParameterServer::new(1, cfg.dim);
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
        let mut transport = InProcess { trainer: self, ds };
        let Ok(report) = engine::run_rounds(
            &mut transport,
            &self.cfg,
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

/// The in-process transport: cached workers are scoped threads reading the
/// trainer's own store, `NoCache` workers run in turn on the driver's
/// thread, and the driver's writes are direct calls.
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
        let round =
            |(w, part): (usize, &Vec<usize>)| trainer.run_worker_round(ds, part, epoch, w, parent);
        if trainer.cfg.mode == SyncMode::NoCache {
            return Ok(partitions.iter().enumerate().map(round).collect());
        }
        let outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|w_part| scope.spawn(move || round(w_part)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        Ok(outputs)
    }

    fn queue_grads(&mut self, grads: OuterGrads) {
        let lr = self.trainer.cfg.outer_lr;
        if let Err(key) = self.trainer.ps.push_outer_grads(&grads.keys, &grads.values, lr) {
            panic!("push to uninitialized key {key:?}");
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

/// The compute of one cached worker round: the MAMDR inner loop over
/// `domains` on a [`WorkerCache`] built from the round's pulled batch —
/// `keys` as [`partition_keys`] returns them for `domains`, `values` their
/// rows in key order — ending with the outer-gradient drain. It reads no
/// store and no clock: the round's one pull comes before it, so its result
/// is a function of its arguments alone.
///
/// The gradients are *returned* (key-sorted), not pushed — the driver
/// applies them: directly in process, over RPC in the networked trainer.
/// Both trainers call this one function on the rows they pulled, which is
/// why fault-free networked training is bit-identical to
/// [`DistributedMamdr`].
///
/// # Panics
///
/// Panics when an example reads a row outside `keys`.
pub fn run_cached_round(
    keys: Vec<ParamKey>,
    values: Vec<f32>,
    ds: &MdrDataset,
    domains: &[usize],
    inner_lr: f32,
    seed: u64,
) -> CachedRoundOutput {
    let mut rng = seeded(seed);
    let mut cache = WorkerCache::new(keys, values);
    let mut rows = Vec::new();
    let mut loss_sum = 0.0f64;
    let mut n_examples = 0u64;
    for &d in domains {
        let (l, n) = train_domain_cached(&mut cache, &mut rows, ds, d, inner_lr, &mut rng);
        loss_sum += l;
        n_examples += n;
    }
    let stats = cache.stats();
    let grads = cache.drain_outer_grads();
    CachedRoundOutput { cache: stats, loss_sum, n_examples, grads }
}

/// The distinct parameter rows a cached round over `domains` will touch,
/// sorted by `(table, row)`: every embedding and bias row reachable from
/// the partition's training examples. This is the pull set of a cached
/// round ([`run_cached_round`]) — exact, not a heuristic, because the
/// cached inner loop reads precisely the [`ExampleKeys`] of its examples.
///
/// Each example marks its five rows in a per-table occupancy bitset,
/// sized once from the table's seeded rows (one bit per row id); the set
/// bits are then read out table by table, in ascending order. That is
/// O(examples + rows / 64) and yields exactly what sorting and
/// deduplicating the examples' keys would.
pub fn partition_keys(ds: &MdrDataset, domains: &[usize]) -> Vec<ParamKey> {
    let tables = table_rows(ds);
    let mut bits = tables.map(|(_, rows)| vec![0u64; rows.div_ceil(64)]);
    for &d in domains {
        for it in &ds.domains[d].train {
            for key in example_keys(ds, it, d).all() {
                let (table, word) = (&mut bits[key.table as usize], key.row as usize / 64);
                // Only a row id beyond its table's seeded rows grows a set.
                if word >= table.len() {
                    table.resize(word + 1, 0);
                }
                table[word] |= 1 << (key.row % 64);
            }
        }
    }
    let mut keys = Vec::with_capacity(bits.iter().flatten().map(|w| w.count_ones() as usize).sum());
    for ((table, _), words) in tables.into_iter().zip(&bits) {
        for (i, &word) in words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                keys.push(ParamKey::new(table, 64 * i as u32 + rest.trailing_zeros()));
                rest &= rest - 1;
            }
        }
    }
    keys
}

impl DistributedMamdr {
    /// One worker's round: the MAMDR inner loop over its domain partition.
    /// A cached round returns its gradients for the driver to apply; a
    /// `NoCache` round pushed every update itself and returns none.
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
                // Keys, one batched pull — the round's only read — and the
                // compute.
                let start = Instant::now();
                let keys = partition_keys(ds, domains);
                let pull_start = Instant::now();
                let (_, values) = ps
                    .pull_flat(&keys)
                    .unwrap_or_else(|key| panic!("pull of uninitialized key {key:?}"));
                let pull = pull_start.elapsed();
                let out = run_cached_round(keys, values, ds, domains, cfg.inner_lr, seed);
                if let Some(tracer) = self.tracer.as_deref() {
                    RoundTime { pull, compute: start.elapsed().saturating_sub(pull) }
                        .record(tracer);
                }
                out
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
                    loss_sum,
                    n_examples,
                    grads: OuterGrads::default(),
                }
            }
        }
    }
}

/// The five rows example `it` of `domain` reads.
fn example_keys(ds: &MdrDataset, it: &Interaction, domain: usize) -> ExampleKeys {
    let (group, cat) = (ds.user_group[it.user as usize], ds.item_cat[it.item as usize]);
    ExampleKeys::new(it.user, it.item, group, cat, domain as u32)
}

/// Inner-loop SGD over one domain through the cache. Returns the summed
/// log-loss and example count for round-level loss reporting.
///
/// Each example copies its five rows into `rows`, a buffer kept across the
/// round, before it updates any of them: every update reads the partner
/// rows' pre-update values.
fn train_domain_cached(
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
        let keys = example_keys(ds, &it, domain);
        rows.clear();
        for key in keys.all() {
            rows.extend_from_slice(cache.get(key));
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
        let keys = example_keys(ds, &it, domain);
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
    use mamdr_data::{DomainData, DomainSpec, GeneratorConfig, Interaction};
    use proptest::collection::vec;

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
        // One worker and more rounds: both modes train the same examples
        // in the same order, so only the cache differs.
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

    /// Maps a drawn number to a row id below `n`, half the time onto the
    /// bitset's word edges (63/64 and 127/128).
    fn row_id(raw: u32, n: usize) -> u32 {
        const EDGES: [u32; 5] = [0, 63, 64, 127, 128];
        let id = if raw & 1 == 0 { EDGES[(raw >> 1) as usize % EDGES.len()] } else { raw >> 1 };
        id % n as u32
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The bitset key set is exactly the examples' keys sorted and
        /// deduplicated — over empty partitions, domains without training
        /// examples and row ids on word edges.
        #[test]
        fn partition_keys_is_sort_and_dedup(
            (n_users, n_items) in (1usize..=200, 1usize..=200),
            (n_groups, n_cats) in (1usize..=140, 1usize..=140),
            n_domains in 1usize..=6,
            starved in 0usize..8,
            side in vec(0u32..1 << 16, 400),
            examples in vec((0u32..1 << 16, 0u32..1 << 16, 0usize..6), 0..300),
            picks in vec(0usize..6, 0..7),
        ) {
            let mut domains: Vec<DomainData> = (0..n_domains)
                .map(|d| DomainData {
                    name: format!("d{d}"),
                    train: Vec::new(),
                    val: Vec::new(),
                    test: Vec::new(),
                    ctr_ratio: 0.3,
                })
                .collect();
            for &(user, item, d) in &examples {
                let d = d % n_domains;
                if d != starved {
                    let (user, item) = (row_id(user, n_users), row_id(item, n_items));
                    domains[d].train.push(Interaction { user, item, label: 1.0 });
                }
            }
            let ds = MdrDataset {
                name: "prop".into(),
                n_users,
                n_items,
                n_user_groups: n_groups,
                n_item_cats: n_cats,
                user_group: side[..n_users].iter().map(|&g| row_id(g, n_groups)).collect(),
                item_cat: side[200..200 + n_items].iter().map(|&c| row_id(c, n_cats)).collect(),
                dense_user: None,
                dense_item: None,
                domains,
            };
            let mut part: Vec<usize> = Vec::new();
            for d in picks.into_iter().map(|d| d % n_domains) {
                if !part.contains(&d) {
                    part.push(d);
                }
            }

            let mut reference: Vec<ParamKey> = part
                .iter()
                .flat_map(|&d| ds.domains[d].train.iter().map(move |it| (d, it)))
                .flat_map(|(d, it)| {
                    let (g, c) = (ds.user_group[it.user as usize], ds.item_cat[it.item as usize]);
                    ExampleKeys::new(it.user, it.item, g, c, d as u32).all()
                })
                .collect();
            reference.sort_unstable();
            reference.dedup();
            let keys = partition_keys(&ds, &part);
            proptest::prop_assert_eq!(&keys, &reference);
        }
    }
}
