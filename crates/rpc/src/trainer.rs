//! Networked MAMDR training against one or more loopback [`PsServer`]
//! shards, with worker supervision, crash-resumable rounds, shard-death
//! recovery, and divergence guardrails.
//!
//! The outer loop is not written here: [`DistributedTrainer::train`] runs
//! [`mamdr_ps::engine::run_rounds`] — the same loop the in-process
//! synchronous trainer (`DistributedConfig::sync_rounds`) runs — over the
//! loopback [`RoundTransport`] this module implements. Partitions,
//! per-worker seeds, aggregation, guard verdicts and the single-writer
//! gradient application (worker order, keys sorted) are therefore shared
//! by construction. The only difference is *where* reads and writes go:
//! worker threads pull rows through [`WorkerClient`]s over TCP, and the
//! driver delivers the outer gradients as sequence-numbered `PushMany`
//! RPCs. Supervision, shard recovery, the boundary commit and publication
//! are layers inside the transport's methods. With fault injection
//! off, a loopback run therefore produces bit-identical parameters,
//! traffic counters and report to the in-process trainer; with faults on,
//! retries and deduplication keep the *parameters* identical while the
//! `rpc_*` counters record exactly what the fault plan injected.
//!
//! ## Sharding
//!
//! With [`LoopbackConfig::shards`] above one, the key space is split over
//! N independent servers by the FNV [`ShardMap`] — the pure hash route
//! every client computes identically. Reads and writes are partitioned
//! into per-shard sub-batches that preserve the global order within each
//! shard; Adagrad updates on distinct keys commute, so applying each
//! shard's key-sorted sub-sequence yields bit-identical parameters to the
//! single-server order.
//!
//! ## Supervision
//!
//! Workers are supervised, not trusted: each one reports its round result
//! (or a typed [`WorkerFailure`]) to the driver over a channel *before*
//! entering the round barrier. A worker that crashes ([`FaultPlan`]
//! `kill`), hangs past [`LoopbackConfig::worker_deadline`], or exhausts
//! its RPC retries is restarted: the supervisor re-runs its domain
//! partition on a fresh thread with the *same* client id and round seed.
//! Because workers are read-only during a round (the server is quiescent
//! until every worker joins), the re-run produces bit-identical gradients
//! — so a recovered round is indistinguishable from an undisturbed one,
//! down to the parameter bits. Restarts are visible as
//! `rpc_worker_restarts_total`; a partition that keeps failing past
//! [`LoopbackConfig::max_worker_retries`] fails the round with
//! [`TrainerError::RoundFailed`] instead of looping forever.
//!
//! Servers are supervised too: a `kill_shard=round:shard` schedule hard-
//! kills that shard's server at the top of the round (sockets reset, no
//! drain — what a dead machine looks like). The doomed round attempt fails
//! once worker retries exhaust, nothing is applied, and the supervisor
//! restarts the shard from its last *committed* manifest files — honest
//! disk-based recovery — then replays the round. Workers are read-only
//! mid-round and every seed is stateless, so the replay is bit-identical.
//! Restarts count as `rpc_shard_restarts_total`.
//!
//! ## Crash-resumable rounds
//!
//! With [`LoopbackConfig::checkpoint_every`] set, each boundary writes
//! one parameter checkpoint plus one [`RoundJournal`] (round index, report
//! aggregates, and the Adagrad accumulators the checkpoint format omits)
//! per shard under `shard-<i>/`, shard-parallel, and commits them all with
//! one digest-carrying [`ShardManifest`] written last — the rename is the
//! commit point. There is one protocol at every shard count: a
//! single-server run is a manifest of one shard. A restarted driver with
//! [`LoopbackConfig::resume`] restores the stores from the newest manifest
//! whose files all pass their digests (a torn shard file degrades resume
//! to the previous boundary) and re-runs the remaining rounds; since every
//! RNG stream is derived
//! statelessly from `(seed, epoch, worker)`, the resumed run's final
//! parameters and report are bit-identical to an uninterrupted run — at
//! *any* shard count, because resume merges the committed shard files and
//! re-routes them through the new map.
//!
//! ## Divergence guardrails
//!
//! When [`mamdr_ps::GuardConfig`] is enabled, every worker-round update is
//! vetted (in application order) before the driver pushes it: non-finite
//! or exploding loss / gradient norms are skipped, and after K consecutive
//! trips the stores are rolled back in place to the last clean round
//! boundary — values *and* optimizer state.

use crate::client::{Request, RetryPolicy, ShardedRowSource, WorkerClient};
use crate::fault::{FaultPlan, FaultState};
use crate::server::PsServer;
use mamdr_data::{MdrDataset, Split};
use mamdr_obs::{maybe_child, MetricsRegistry, SpanContext, Tracer};
use mamdr_ps::engine::{self, ResumeBase, RoundTransport};
use mamdr_ps::trainer::{
    evaluate_server, run_cached_round_timed, seed_sharded_servers, worker_round_seed,
    CachedRoundOutput,
};
use mamdr_ps::{
    checkpoint, latest_manifest, load_manifest_state, merge_stores, shard_dir, ContinualPublisher,
    DistributedConfig, DistributedReport, OuterGrads, ParamKey, ParameterServer, PublishOutcome,
    PublisherFaults, RoundJournal, ShardFiles, ShardManifest, ShardMap, StoreSnapshot, SyncMode,
    LOCK_STRIPES, WIRE_BATCH_KEYS,
};
use mamdr_tensor::rng::derive_seed;
use mamdr_util::Checksum;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Float total of the seconds workers spent inside row reads (pulls over
/// the wire), summed over workers and rounds.
const WORKER_PULL_SECONDS: &str = "ps_worker_pull_seconds_total";
/// Float total of the rest of the workers' cached rounds.
const WORKER_COMPUTE_SECONDS: &str = "ps_worker_compute_seconds_total";

/// One worker's typed failure, as observed by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFailure {
    /// The worker crashed before doing any work (injected via the fault
    /// plan's `kill` schedule, or a real thread death).
    Killed {
        /// Worker index within the round.
        worker: usize,
    },
    /// The worker missed the supervisor's deadline.
    Hung {
        /// Worker index within the round.
        worker: usize,
    },
    /// The worker's row reads failed past the client's retry budget.
    Rpc {
        /// Worker index within the round.
        worker: usize,
        /// The first RPC failure.
        error: String,
    },
    /// The worker finished its round but could not register at the
    /// barrier.
    Barrier {
        /// Worker index within the round.
        worker: usize,
        /// The barrier failure.
        error: String,
    },
    /// The worker thread panicked.
    Panicked {
        /// Worker index within the round.
        worker: usize,
    },
}

impl WorkerFailure {
    /// The worker index the failure belongs to.
    pub fn worker(&self) -> usize {
        match self {
            WorkerFailure::Killed { worker }
            | WorkerFailure::Hung { worker }
            | WorkerFailure::Rpc { worker, .. }
            | WorkerFailure::Barrier { worker, .. }
            | WorkerFailure::Panicked { worker } => *worker,
        }
    }
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerFailure::Killed { worker } => write!(f, "worker {worker} killed"),
            WorkerFailure::Hung { worker } => write!(f, "worker {worker} missed its deadline"),
            WorkerFailure::Rpc { worker, error } => write!(f, "worker {worker} rpc: {error}"),
            WorkerFailure::Barrier { worker, error } => {
                write!(f, "worker {worker} barrier: {error}")
            }
            WorkerFailure::Panicked { worker } => write!(f, "worker {worker} panicked"),
        }
    }
}

/// A distributed-training failure the driver could not recover from.
#[derive(Debug)]
pub enum TrainerError {
    /// The configuration is inconsistent (e.g. resume without a
    /// checkpoint directory).
    Config(String),
    /// Binding or running the loopback server failed.
    Io(std::io::Error),
    /// The server was already shut down.
    ServerStopped,
    /// A round could not be completed even after restarting its failed
    /// workers.
    RoundFailed {
        /// The failed round.
        epoch: usize,
        /// The unrecovered failures.
        failures: Vec<WorkerFailure>,
    },
    /// A driver-side RPC (gradient push or checkpoint) failed past its
    /// retry budget.
    Driver(String),
    /// Resume state could not be loaded (no committed manifest, or a
    /// checkpoint / journal mismatch).
    Resume(String),
}

impl std::fmt::Display for TrainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainerError::Config(m) => write!(f, "bad trainer config: {m}"),
            TrainerError::Io(e) => write!(f, "server I/O: {e}"),
            TrainerError::ServerStopped => write!(f, "server already shut down"),
            TrainerError::RoundFailed { epoch, failures } => {
                write!(f, "round {epoch} failed: ")?;
                for (i, fail) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{fail}")?;
                }
                Ok(())
            }
            TrainerError::Driver(m) => write!(f, "driver rpc: {m}"),
            TrainerError::Resume(m) => write!(f, "resume: {m}"),
        }
    }
}

impl std::error::Error for TrainerError {}

impl From<std::io::Error> for TrainerError {
    fn from(e: std::io::Error) -> Self {
        TrainerError::Io(e)
    }
}

/// Configuration of a loopback distributed run.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// The training hyper-parameters, shared verbatim with the in-process
    /// trainer. `mode` must be [`SyncMode::Cached`] — the no-cache
    /// baseline's per-example round trips are an in-process measurement
    /// tool, not a wire protocol.
    pub train: DistributedConfig,
    /// Number of independent parameter-server shards the key space is
    /// split over (consistent FNV routing via [`ShardMap`]). `1` — the
    /// default — is the classic single-server deployment.
    pub shards: usize,
    /// Deterministic fault schedule; `None` injects nothing.
    pub fault: Option<FaultPlan>,
    /// Client retry/deadline policy.
    pub retry: RetryPolicy,
    /// Where `Checkpoint` RPCs write snapshots (`None` disables them):
    /// per-shard files under `shard-<i>/` plus a top-level manifest.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint + round journal every this many rounds
    /// (`0` disables journaling). Requires a checkpoint directory.
    pub checkpoint_every: usize,
    /// Resume from the newest committed manifest in the checkpoint
    /// directory instead of starting from round 0.
    pub resume: bool,
    /// How long the supervisor waits without hearing from *any* worker
    /// before presuming the missing ones hung and restarting them.
    pub worker_deadline: Duration,
    /// Restarts per worker per round before the round is failed.
    pub max_worker_retries: u32,
    /// When present, every round is recorded as a span tree — driver
    /// phases (partition / workers / apply / journal / evaluate), one
    /// span per worker round with pull vs compute attribution, and every
    /// RPC with its server-side handling parented across the wire.
    /// Training results are bit-identical with or without it.
    pub tracer: Option<Arc<Tracer>>,
    /// Continual publication: when present, every
    /// [`PublishHook::every`] rounds the store is encoded and committed as
    /// a serving snapshot (atomic rename, faultable via the plan's
    /// `kill_publish`/`corrupt_snapshot` schedules), and the committed path
    /// is offered to the hook's callback — typically a serve-side publish
    /// gate. Publication reads the stores *after* the round's pushes
    /// flushed and never writes them, so training results stay
    /// bit-identical with or without it. At one shard the encoder is handed
    /// the live store itself (no copy); beyond one, a fresh merged store.
    pub publish: Option<PublishHook>,
}

impl LoopbackConfig {
    /// A loopback config over training hyper-parameters, one shard, no
    /// faults, no journaling, and a supervision deadline generous enough
    /// that only a genuinely wedged worker trips it.
    pub fn new(train: DistributedConfig) -> Self {
        LoopbackConfig {
            train,
            shards: 1,
            fault: None,
            retry: RetryPolicy::default(),
            checkpoint_dir: None,
            checkpoint_every: 0,
            resume: false,
            worker_deadline: Duration::from_secs(60),
            max_worker_retries: 2,
            tracer: None,
            publish: None,
        }
    }
}

/// The trainer half of the continual train→publish→serve loop: how often
/// to publish, where the snapshot files go, and what to do with a
/// committed file.
///
/// The hook is format-agnostic on purpose: the trainer hands the store —
/// the live one at one shard, a merged copy beyond — to `encode` and moves
/// the returned bytes through [`mamdr_ps::ContinualPublisher`]; what those
/// bytes *are* (a `ServingSnapshot`, in the standard wiring) is the
/// caller's business, so this crate never depends on the serving stack.
#[derive(Clone)]
pub struct PublishHook {
    /// Publish after every this many completed rounds (0 disables).
    pub every: usize,
    /// Directory the snapshot files are committed into.
    pub dir: PathBuf,
    /// Encodes the store of round `round` into snapshot bytes.
    /// An `Err` fails training — a snapshot that cannot even be encoded
    /// means the store is in a state the caller never expected.
    ///
    /// At one shard the store is the *live* training store, lent for the
    /// call: the encoder must only read it (`dump_flat`, `dump_rows`,
    /// `read_silent`, …). A write — a push, an `init_row`, a restore —
    /// would change training, and a counted read (`pull_flat`) would move
    /// the traffic counters the run reports.
    #[allow(clippy::type_complexity)]
    pub encode: Arc<dyn Fn(u64, &ParameterServer) -> Result<Vec<u8>, String> + Send + Sync>,
    /// Called with each *committed* snapshot file (never a killed,
    /// half-written staging file) — the offer to the serving gate.
    #[allow(clippy::type_complexity)]
    pub on_commit: Arc<dyn Fn(u64, &Path) + Send + Sync>,
}

impl std::fmt::Debug for PublishHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishHook")
            .field("every", &self.every)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// One server shard's runtime state: its store, its (possibly dead)
/// server, and the address clients reach it at.
struct ShardRt {
    ps: Arc<ParameterServer>,
    server: Option<PsServer>,
    addr: SocketAddr,
}

/// The networked PS–worker trainer: one or more loopback [`PsServer`]
/// shards plus N worker threads driving them through [`WorkerClient`]s,
/// under driver-side supervision.
pub struct DistributedTrainer {
    shards: Vec<ShardRt>,
    map: ShardMap,
    cfg: LoopbackConfig,
    metrics: Arc<MetricsRegistry>,
    resume_base: ResumeBase,
}

impl DistributedTrainer {
    /// Seeds fresh stores exactly like [`mamdr_ps::DistributedMamdr::new`]
    /// — one RNG stream, each row routed to its owning shard — and starts
    /// one loopback server per shard on an ephemeral port. With
    /// [`LoopbackConfig::resume`], the newest committed manifest is loaded
    /// on top (merged and re-routed, so the shard count may differ from
    /// the run that wrote it).
    pub fn new(
        ds: &MdrDataset,
        cfg: LoopbackConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, TrainerError> {
        if cfg.train.mode != SyncMode::Cached {
            return Err(TrainerError::Config(
                "the networked trainer implements the cached §IV-E protocol only".into(),
            ));
        }
        if (cfg.checkpoint_every > 0 || cfg.resume) && cfg.checkpoint_dir.is_none() {
            return Err(TrainerError::Config(
                "checkpoint_every / resume require a checkpoint directory".into(),
            ));
        }
        engine::validate(&cfg.train).map_err(TrainerError::Config)?;
        let n = cfg.shards;
        if n == 0 {
            return Err(TrainerError::Config("a deployment needs at least one shard".into()));
        }
        if let Some(plan) = &cfg.fault {
            if !plan.kill_shard.is_empty() {
                if n < 2 {
                    return Err(TrainerError::Config(
                        "kill_shard requires a sharded deployment (shards >= 2)".into(),
                    ));
                }
                if cfg.checkpoint_every != 1 {
                    return Err(TrainerError::Config(
                        "kill_shard recovery requires checkpoint_every = 1 (every round committed)"
                            .into(),
                    ));
                }
                for &(round, shard) in &plan.kill_shard {
                    if shard as usize >= n {
                        return Err(TrainerError::Config(format!(
                            "kill_shard {round}:{shard} targets a shard >= {n}"
                        )));
                    }
                }
            }
        }
        let stores: Vec<Arc<ParameterServer>> =
            (0..n).map(|_| Arc::new(ParameterServer::new(LOCK_STRIPES, cfg.train.dim))).collect();
        let mut map = ShardMap::new(n);
        {
            let refs: Vec<&ParameterServer> = stores.iter().map(|s| s.as_ref()).collect();
            seed_sharded_servers(&refs, &map, ds, cfg.train.dim, cfg.train.seed);
        }
        let resume_base = match (&cfg.checkpoint_dir, cfg.resume) {
            (Some(dir), true) => {
                let (m, base) = load_sharded_resume_state(&stores, dir, &cfg.train)?;
                map = m;
                base
            }
            _ => ResumeBase::default(),
        };
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(s, ps)| -> Result<ShardRt, TrainerError> {
                let ckpt_dir = cfg.checkpoint_dir.as_ref().map(|d| shard_dir(d, s));
                let server = PsServer::bind_shard(
                    "127.0.0.1:0",
                    Arc::clone(&ps),
                    cfg.train.dim,
                    Arc::clone(&metrics),
                    ckpt_dir,
                    cfg.tracer.clone(),
                    (n > 1).then_some(s),
                )?;
                let addr = server.addr();
                Ok(ShardRt { ps, server: Some(server), addr })
            })
            .collect::<Result<Vec<_>, _>>()?;
        metrics.describe(
            WORKER_PULL_SECONDS,
            "Seconds workers spent in row reads over the wire, summed over workers and rounds.",
        );
        metrics.describe(
            WORKER_COMPUTE_SECONDS,
            "Seconds workers spent in their cached rounds outside row reads, summed over \
             workers and rounds.",
        );
        let trainer = DistributedTrainer { shards, map, cfg, metrics, resume_base };
        if trainer.cfg.checkpoint_every > 0 && !trainer.cfg.resume {
            // Commit the seeded round-0 state up front so a shard killed in
            // the very first round has a committed recovery source.
            trainer.commit_round(&ResumeBase::default())?;
        }
        Ok(trainer)
    }

    /// Shard 0's loopback address, or [`TrainerError::ServerStopped`] once
    /// the servers were drained.
    pub fn addr(&self) -> Result<SocketAddr, TrainerError> {
        if self.shards[0].server.is_some() {
            Ok(self.shards[0].addr)
        } else {
            Err(TrainerError::ServerStopped)
        }
    }

    /// Shard 0's store — *the* store of a single-shard run (evaluation and
    /// checkpoint comparison). Sharded callers want
    /// [`DistributedTrainer::merged_store`].
    pub fn store(&self) -> &Arc<ParameterServer> {
        &self.shards[0].ps
    }

    /// The routing map of this deployment.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// A fresh store holding every shard's rows, accumulators and row
    /// versions merged — byte-comparable (via `checkpoint::save`) against
    /// a single-server run's store.
    pub fn merged_store(&self) -> ParameterServer {
        let stores: Vec<&ParameterServer> = self.shards.iter().map(|rt| rt.ps.as_ref()).collect();
        merge_stores(&stores, self.cfg.train.dim)
    }

    /// The round the next `train` call starts at (nonzero after a
    /// resume).
    pub fn start_epoch(&self) -> usize {
        self.resume_base.rounds_done
    }

    /// A client to shard `shard` with this run's retry policy and — when a
    /// fault plan is configured — a fault stream decorrelated by
    /// `(stream, client_id)` and, beyond one shard, by the shard index
    /// (single-shard runs keep the exact legacy stream).
    fn make_client(&self, client_id: u32, stream: u64, shard: usize) -> WorkerClient {
        let fault = self.cfg.fault.as_ref().map(|plan| {
            let mut p = plan.clone();
            p.seed = derive_seed(plan.seed, stream);
            if self.map.n_shards() > 1 {
                p.seed = derive_seed(p.seed, 0x5A + shard as u64);
            }
            FaultState::new(p, client_id)
        });
        WorkerClient::new(
            self.shards[shard].addr,
            client_id,
            self.cfg.retry,
            fault,
            Arc::clone(&self.metrics),
        )
        .with_tracer(self.cfg.tracer.clone())
    }

    /// One worker's round: scheduled-fault checks, the cached inner loop
    /// over sharded RPC reads, and the poison injection. Returns the round
    /// output plus the per-shard clients so the caller can run the barrier
    /// *after* reporting the result to the supervisor.
    fn worker_round(
        &self,
        ds: &MdrDataset,
        epoch: usize,
        w: usize,
        part: &[usize],
        is_replacement: bool,
        parent: Option<SpanContext>,
    ) -> Result<(CachedRoundOutput, Vec<WorkerClient>), WorkerFailure> {
        let cfg = self.cfg.train;
        if !is_replacement {
            if let Some(plan) = &self.cfg.fault {
                if plan.should_kill(epoch as u64, w as u32) {
                    // Simulated crash: no client, no reads, no barrier.
                    self.metrics.counter("rpc_faults_worker_kills_total").inc();
                    return Err(WorkerFailure::Killed { worker: w });
                }
                if plan.should_hang(epoch as u64, w as u32) {
                    self.metrics.counter("rpc_faults_worker_hangs_total").inc();
                    std::thread::sleep(Duration::from_micros(plan.hang_micros));
                }
            }
        }
        let tracer = self.cfg.tracer.clone();
        let worker_span = {
            let mut span = maybe_child(&tracer, "worker.round", parent);
            if let Some(s) = &mut span {
                s.attr("epoch", epoch as u64);
                s.attr("worker", w as u64);
                s.attr("replacement", is_replacement as u64);
            }
            span
        };
        let mut clients: Vec<WorkerClient> = (0..self.map.n_shards())
            .map(|s| self.make_client(w as u32 + 1, epoch as u64, s))
            .collect();
        for client in &mut clients {
            client.set_trace_parent(worker_span.as_ref().map(|s| s.ctx()));
        }
        let src = ShardedRowSource::new(clients, self.map, cfg.dim);
        // Always timed — one clock read per row-source call, never per row
        // — so the pull/compute split is exported untraced too.
        let (mut out, time) = run_cached_round_timed(
            &src,
            ds,
            part,
            cfg.inner_lr,
            worker_round_seed(cfg.seed, epoch, w),
        );
        if let Some(t) = tracer.as_deref() {
            time.record(t);
        }
        self.metrics.gauge(WORKER_PULL_SECONDS).add(time.pull.as_secs_f64());
        self.metrics.gauge(WORKER_COMPUTE_SECONDS).add(time.compute.as_secs_f64());
        if let Some(e) = src.take_error() {
            // The round trained against zero-filled fallback rows after the
            // first failure; its output is garbage and must be re-run.
            return Err(WorkerFailure::Rpc { worker: w, error: e.to_string() });
        }
        if self.cfg.fault.as_ref().is_some_and(|p| p.should_poison(epoch as u64, w as u32)) {
            // Divergent-data injection: one NaN component is enough for the
            // guard's norm check to catch the whole update.
            if let Some(first) = out.grads.values.first_mut() {
                *first = f32::NAN;
            }
        }
        Ok((out, src.into_clients()))
    }

    /// Runs one supervised round: spawns every worker, collects results
    /// (or typed failures) over a channel, restarts failed or hung
    /// partitions with the same client id and seed, and releases the
    /// barrier for workers the supervisor gave up on. Returns the round
    /// outputs in worker order.
    fn run_round(
        &self,
        ds: &MdrDataset,
        epoch: usize,
        partitions: &[Vec<usize>],
        parent: Option<SpanContext>,
    ) -> Result<Vec<CachedRoundOutput>, TrainerError> {
        let n = partitions.len();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, Result<CachedRoundOutput, WorkerFailure>)>();
            let launch = |w: usize, is_replacement: bool| {
                let tx = tx.clone();
                let part = &partitions[w];
                scope.spawn(move || {
                    let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        self.worker_round(ds, epoch, w, part, is_replacement, parent)
                    }));
                    match ran {
                        Err(_) => {
                            let _ = tx.send((w, Err(WorkerFailure::Panicked { worker: w })));
                        }
                        Ok(Err(fail)) => {
                            let _ = tx.send((w, Err(fail)));
                        }
                        Ok(Ok((out, mut clients))) => {
                            // Result first, barrier second: the supervisor
                            // learns the outcome even while slower workers
                            // hold the barrier open. The barrier lives on
                            // shard 0 only — one rendezvous per round.
                            let _ = tx.send((w, Ok(out)));
                            if let Err(e) = clients[0].barrier(epoch as u64, n as u32) {
                                let fail =
                                    WorkerFailure::Barrier { worker: w, error: e.to_string() };
                                let _ = tx.send((w, Err(fail)));
                            }
                        }
                    }
                });
            };
            // Barrier arrival is a set insert keyed by client id, so a
            // stand-in arriving with a dead worker's id releases everyone
            // else. Rescue clients carry no fault plan: the recovery path
            // must be reliable even under an adversarial schedule.
            let release_barrier = |w: usize| {
                let mut client = WorkerClient::new(
                    self.shards[0].addr,
                    w as u32 + 1,
                    self.cfg.retry,
                    None,
                    Arc::clone(&self.metrics),
                );
                scope.spawn(move || {
                    let _ = client.barrier(epoch as u64, n as u32);
                });
            };
            for w in 0..n {
                launch(w, false);
            }
            let mut outputs: Vec<Option<CachedRoundOutput>> = (0..n).map(|_| None).collect();
            let mut retries = vec![0u32; n];
            let mut given_up = vec![false; n];
            let mut failures: Vec<WorkerFailure> = Vec::new();
            let mut outstanding = n;
            // One shared handler for "worker w failed with `fail`":
            // restart while the budget lasts, otherwise record the failure
            // and unblock the barrier in its place.
            let on_failure = |w: usize,
                              fail: WorkerFailure,
                              retries: &mut Vec<u32>,
                              given_up: &mut Vec<bool>,
                              failures: &mut Vec<WorkerFailure>,
                              outstanding: &mut usize| {
                self.metrics.counter("rpc_worker_failures_total").inc();
                if retries[w] < self.cfg.max_worker_retries {
                    retries[w] += 1;
                    self.metrics.counter("rpc_worker_restarts_total").inc();
                    launch(w, true);
                } else {
                    given_up[w] = true;
                    *outstanding -= 1;
                    failures.push(fail);
                    release_barrier(w);
                }
            };
            while outstanding > 0 {
                match rx.recv_timeout(self.cfg.worker_deadline) {
                    Ok((w, Ok(out))) => {
                        // A revived hung worker can race its replacement;
                        // both computed identical output (same seed,
                        // read-only server), so first-in wins safely.
                        if outputs[w].is_none() && !given_up[w] {
                            outputs[w] = Some(out);
                            outstanding -= 1;
                        }
                    }
                    Ok((w, Err(fail))) => {
                        if matches!(fail, WorkerFailure::Barrier { .. }) && outputs[w].is_some() {
                            // The work is done but the arrival never
                            // registered; arrive in its place so the other
                            // workers are not held hostage.
                            self.metrics.counter("rpc_barrier_rescues_total").inc();
                            release_barrier(w);
                        } else if outputs[w].is_none() && !given_up[w] {
                            on_failure(
                                w,
                                fail,
                                &mut retries,
                                &mut given_up,
                                &mut failures,
                                &mut outstanding,
                            );
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Nobody reported for a full deadline: every
                        // partition still outstanding is presumed hung.
                        for w in 0..n {
                            if outputs[w].is_none() && !given_up[w] {
                                on_failure(
                                    w,
                                    WorkerFailure::Hung { worker: w },
                                    &mut retries,
                                    &mut given_up,
                                    &mut failures,
                                    &mut outstanding,
                                );
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        // Unreachable while the supervisor holds `tx`, but
                        // never hang on it: fail what is left.
                        for w in 0..n {
                            if outputs[w].is_none() && !given_up[w] {
                                given_up[w] = true;
                                outstanding -= 1;
                                failures.push(WorkerFailure::Panicked { worker: w });
                                release_barrier(w);
                            }
                        }
                    }
                }
            }
            if failures.is_empty() {
                let collected: Vec<CachedRoundOutput> = outputs.into_iter().flatten().collect();
                if collected.len() == n {
                    Ok(collected)
                } else {
                    Err(TrainerError::RoundFailed { epoch, failures: Vec::new() })
                }
            } else {
                Err(TrainerError::RoundFailed { epoch, failures })
            }
        })
    }

    /// Runs the configured rounds over the wire and reports exactly like
    /// the in-process trainer: the loop is [`engine::run_rounds`], this
    /// deployment is its transport. Recovers killed / hung / disconnected
    /// workers *and* killed server shards, skips or rolls back divergent
    /// updates when the guard is enabled, and commits a boundary every
    /// [`LoopbackConfig::checkpoint_every`] rounds.
    pub fn train(&mut self, ds: &MdrDataset) -> Result<DistributedReport, TrainerError> {
        let n_sh = self.map.n_shards();
        // Client id 0 is the driver; workers are 1..=n. The driver's
        // pushes carry the fault plan too, so retries exercise the
        // server's exactly-once path where it matters most. One driver
        // client per shard: each holds its own monotonic sequence space.
        let drivers: Vec<WorkerClient> = (0..n_sh).map(|s| self.make_client(0, 0xD0, s)).collect();
        // The continual publisher: one per run, so its fault schedule and
        // counters span every round. Faults come from the same plan as the
        // wire faults but consume no RNG draws — scheduling a publisher
        // fault never shifts the wire fault stream.
        let publisher = match &self.cfg.publish {
            Some(hook) if hook.every > 0 => {
                let faults = self
                    .cfg
                    .fault
                    .as_ref()
                    .map(|p| PublisherFaults {
                        kill_at: p.kill_publish.clone(),
                        corrupt_at: p.corrupt_snapshot.clone(),
                    })
                    .unwrap_or_default();
                Some((hook.clone(), ContinualPublisher::new(&hook.dir, faults, &self.metrics)?))
            }
            _ => None,
        };
        // The networked protocol is always synchronous (the driver is the
        // only writer), so the guard is active whenever it is enabled.
        let train = self.cfg.train;
        let tracer = self.cfg.tracer.clone();
        let base = self.resume_base.clone();
        let pending = (0..n_sh).map(|_| Vec::new()).collect();
        let mut transport = Loopback { trainer: self, ds, drivers, pending, publisher };
        engine::run_rounds(&mut transport, &train, ds.n_domains(), &tracer, base)
    }

    /// The round boundary, identical at every shard count (one shard is a
    /// manifest of one): every shard's checkpoint RPC and journal write
    /// run shard-parallel on scoped threads, then one [`ShardManifest`]
    /// carrying each file's digest is written at the top level. The
    /// manifest rename is the *only* commit point — a crash at any earlier
    /// moment leaves the previous boundary committed.
    fn commit_round(&self, boundary: &ResumeBase) -> Result<(), TrainerError> {
        let Some(dir) = &self.cfg.checkpoint_dir else {
            return Err(TrainerError::Config("journaling requires a checkpoint directory".into()));
        };
        let rounds_done = boundary.rounds_done as u64;
        let results: Vec<Result<ShardFiles, TrainerError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(s, rt)| {
                    scope.spawn(move || -> Result<ShardFiles, TrainerError> {
                        let ckpt_path =
                            self.make_client(u32::MAX, 0xCC, s).checkpoint(rounds_done).map_err(
                                |e| TrainerError::Driver(format!("shard {s} checkpoint rpc: {e}")),
                            )?;
                        let checkpoint_file = file_name_of(&ckpt_path);
                        // Each shard journals its own adagrad rows and its
                        // own store's traffic; the run-level aggregates
                        // (losses, cache, guard) are duplicated into every
                        // journal so any one shard carries the metadata.
                        let journal = RoundJournal {
                            rounds_done,
                            checkpoint_file: checkpoint_file.clone(),
                            cache: boundary.cache,
                            max_staleness: boundary.max_staleness,
                            traffic: rt.ps.traffic().snapshot(),
                            guard_trips: boundary.guard_trips,
                            guard_rollbacks: boundary.guard_rollbacks,
                            round_losses: boundary.round_losses.clone(),
                            dim: self.cfg.train.dim as u32,
                            adagrad: rt.ps.dump_adagrad(),
                        };
                        journal.write_to_dir(&shard_dir(dir, s)).map_err(|e| {
                            TrainerError::Driver(format!("shard {s} journal write: {e}"))
                        })?;
                        let digest = |rel: &str| -> Result<u64, TrainerError> {
                            let bytes = std::fs::read(dir.join(rel)).map_err(|e| {
                                TrainerError::Driver(format!("digest of {rel}: {e}"))
                            })?;
                            Ok(Checksum::of(&bytes))
                        };
                        let checkpoint = format!("shard-{s}/{checkpoint_file}");
                        let journal_rel = format!("shard-{s}/{}", journal.file_name());
                        Ok(ShardFiles {
                            checkpoint_fnv: digest(&checkpoint)?,
                            checkpoint,
                            journal_fnv: digest(&journal_rel)?,
                            journal: journal_rel,
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(TrainerError::Driver("shard commit thread panicked".into()))
                    })
                })
                .collect()
        });
        let shards: Vec<ShardFiles> = results.into_iter().collect::<Result<_, _>>()?;
        let manifest = ShardManifest { rounds_done, map_version: self.map.version(), shards };
        manifest
            .write_to_dir(dir)
            .map_err(|e| TrainerError::Driver(format!("manifest write: {e}")))?;
        self.metrics.counter("rpc_journal_writes_total").inc();
        self.metrics.counter("rpc_manifest_writes_total").inc();
        Ok(())
    }

    /// Brings a killed shard back: a fresh store is rebuilt from the last
    /// *committed* manifest's files for that shard (checkpoint rows,
    /// journal accumulators and traffic — honest disk-based recovery, no
    /// in-memory shortcuts), and a fresh server is bound on a new port.
    fn restart_shard(&mut self, s: usize) -> Result<(), TrainerError> {
        let n = self.map.n_shards();
        let dir = self.cfg.checkpoint_dir.clone().ok_or_else(|| {
            TrainerError::Config("shard recovery requires a checkpoint directory".into())
        })?;
        let (path, manifest) = latest_manifest(&dir, None)
            .map_err(|e| TrainerError::Resume(format!("restart discovery: {e}")))?
            .ok_or_else(|| {
                TrainerError::Resume(format!(
                    "no committed manifest in {} to restart shard {s} from",
                    dir.display()
                ))
            })?;
        let ps = Arc::new(ParameterServer::new(LOCK_STRIPES, self.cfg.train.dim));
        if manifest.n_shards() == n {
            let files = &manifest.shards[s];
            let loaded = checkpoint::load_from_path(&dir.join(&files.checkpoint))
                .map_err(|e| TrainerError::Resume(format!("{}: {e}", files.checkpoint)))?;
            let journal = RoundJournal::read(&dir.join(&files.journal))
                .map_err(|e| TrainerError::Resume(format!("{}: {e}", files.journal)))?;
            ps.restore_state(&loaded.dump_rows(), &journal.adagrad);
            ps.traffic().restore(journal.traffic);
        } else {
            // Committed under a different topology (a rehash resumed this
            // run and no new-topology boundary has committed yet): rebuild
            // the shard's slice by re-routing the merged state. The dead
            // store's traffic share is unknowable under the old topology
            // and restarts at zero.
            let state = load_manifest_state(&dir, &manifest)
                .map_err(|e| TrainerError::Resume(format!("{}: {e}", path.display())))?;
            let rows: Vec<_> =
                state.rows.into_iter().filter(|(k, _)| self.map.owner(*k) == s).collect();
            let accs: Vec<_> =
                state.adagrad.into_iter().filter(|(k, _)| self.map.owner(*k) == s).collect();
            ps.restore_state(&rows, &accs);
        }
        let server = PsServer::bind_shard(
            "127.0.0.1:0",
            Arc::clone(&ps),
            self.cfg.train.dim,
            Arc::clone(&self.metrics),
            Some(shard_dir(&dir, s)),
            self.cfg.tracer.clone(),
            Some(s),
        )?;
        let addr = server.addr();
        self.shards[s] = ShardRt { ps, server: Some(server), addr };
        self.metrics.counter("rpc_shard_restarts_total").inc();
        Ok(())
    }

    /// Gracefully drains every shard's server: `Shutdown` RPC, then joins
    /// the accept loop and every connection thread. A failed drain request
    /// is non-fatal — the drain flag is set directly instead (counted as
    /// `rpc_drain_fallback_total`), so a dead wire can never wedge the
    /// join. Idempotent: a second call is a no-op.
    pub fn shutdown(&mut self) {
        for s in 0..self.shards.len() {
            let Some(server) = self.shards[s].server.take() else { continue };
            // The drain request itself must not be fault-injected away.
            let mut client = WorkerClient::new(
                self.shards[s].addr,
                u32::MAX - 1,
                self.cfg.retry,
                None,
                Arc::clone(&self.metrics),
            );
            if client.shutdown().is_err() {
                self.metrics.counter("rpc_drain_fallback_total").inc();
                server.begin_drain();
            }
            drop(client);
            server.join();
        }
    }
}

impl Drop for DistributedTrainer {
    /// A trainer that goes out of scope without [`DistributedTrainer::
    /// shutdown`] still drains its servers instead of leaking their accept
    /// loops and connection threads.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The loopback transport of one `train` call: the trainer's shard fleet
/// plus the per-run driver state. Supervision, shard recovery, the
/// boundary commit and publication all live in these methods — the round
/// loop in [`engine::run_rounds`] knows none of them.
struct Loopback<'a> {
    trainer: &'a mut DistributedTrainer,
    ds: &'a MdrDataset,
    /// One driver client per shard, each with its own sequence space.
    drivers: Vec<WorkerClient>,
    /// Queued `PushMany` requests per shard, in application order.
    pending: Vec<Vec<Request>>,
    publisher: Option<(PublishHook, ContinualPublisher)>,
}

impl RoundTransport for Loopback<'_> {
    type Error = TrainerError;
    type Snapshot = Vec<StoreSnapshot>;

    fn run_workers(
        &mut self,
        epoch: usize,
        partitions: &[Vec<usize>],
        parent: Option<SpanContext>,
    ) -> Result<Vec<CachedRoundOutput>, TrainerError> {
        let t = &mut *self.trainer;
        let kills: Vec<u32> =
            t.cfg.fault.as_ref().map(|p| p.shards_to_kill(epoch as u64)).unwrap_or_default();
        if !kills.is_empty() {
            for &s in &kills {
                t.metrics.counter("rpc_faults_shard_kills_total").inc();
                if let Some(server) = t.shards[s as usize].server.take() {
                    server.kill();
                }
            }
            // The doomed attempt: workers run against the dead shard until
            // their retries exhaust and the round fails. Nothing is
            // applied — gradients only reach the stores after a successful
            // round — so the discarded attempt leaves every parameter
            // untouched.
            let _ = t.run_round(self.ds, epoch, partitions, None);
            for &s in &kills {
                t.restart_shard(s as usize)?;
                // The dead server's address died with it: rebuild this
                // shard's driver client against the restarted one (a fresh
                // sequence space against a fresh dedup map).
                self.drivers[s as usize] = t.make_client(0, 0xD0, s as usize);
            }
        }
        t.run_round(self.ds, epoch, partitions, parent)
    }

    fn queue_grads(&mut self, grads: OuterGrads) {
        // Each shard receives its key-sorted sub-sequence — Adagrad updates
        // on distinct keys commute, so per-shard order is all that
        // bit-identity needs.
        let t = &*self.trainer;
        let shard_reqs = sharded_push_requests(&grads, t.cfg.train.outer_lr, &t.map);
        for (queue, reqs) in self.pending.iter_mut().zip(shard_reqs) {
            queue.extend(reqs);
        }
    }

    fn flush(&mut self, parent: Option<SpanContext>) -> Result<(), TrainerError> {
        for driver in &mut self.drivers {
            driver.set_trace_parent(parent);
        }
        // Everything queued rides one pipelined window per shard, all
        // shards concurrently. Flushing per worker or per round sends the
        // same requests in the same per-shard order under the same
        // sequence numbers — only the wire scheduling differs.
        let reqs = self.pending.iter_mut().map(std::mem::take).collect();
        flush_sharded(&mut self.drivers, reqs)
    }

    fn snapshot(&self) -> Vec<StoreSnapshot> {
        self.trainer.shards.iter().map(|rt| (rt.ps.dump_rows(), rt.ps.dump_adagrad())).collect()
    }

    fn restore(&mut self, snapshot: &Vec<StoreSnapshot>) {
        // Direct store access: the driver owns the apply phase, so there
        // is no concurrent writer to race.
        for (rt, (rows, acc)) in self.trainer.shards.iter().zip(snapshot) {
            rt.ps.restore_state(rows, acc);
        }
    }

    fn end_round(
        &mut self,
        boundary: &ResumeBase,
        parent: Option<SpanContext>,
    ) -> Result<(), TrainerError> {
        let t = &*self.trainer;
        let rounds_done = boundary.rounds_done;
        if t.cfg.checkpoint_every > 0 && rounds_done.is_multiple_of(t.cfg.checkpoint_every) {
            let _span = maybe_child(&t.cfg.tracer, "round.journal", parent);
            t.commit_round(boundary)?;
        }
        let Some((hook, publisher)) = &self.publisher else { return Ok(()) };
        if rounds_done.is_multiple_of(hook.every) {
            let mut span = maybe_child(&t.cfg.tracer, "publish.build", parent);
            let round = rounds_done as u64;
            // Reads only. One shard is the whole store and is handed over
            // live — the round's pushes have flushed and the next round's
            // workers have not started, so nothing writes it meanwhile;
            // beyond one shard the encoder reads a fresh merged copy.
            let encoded = if let [only] = t.shards.as_slice() {
                (hook.encode)(round, &only.ps)
            } else {
                (hook.encode)(round, &t.merged_store())
            };
            let bytes = encoded.map_err(TrainerError::Driver)?;
            if let Some(s) = &mut span {
                s.attr("round", round);
                s.attr("bytes", bytes.len() as u64);
            }
            match publisher.commit(round, &bytes)? {
                PublishOutcome::Committed(path) => (hook.on_commit)(round, &path),
                // A killed publisher left a half-written staging file and
                // offered nothing; the next scheduled round is the
                // "restart".
                PublishOutcome::Killed(_) => {}
            }
        }
        Ok(())
    }

    fn traffic(&self) -> (u64, u64, u64, u64) {
        let mut total = (0u64, 0u64, 0u64, 0u64);
        for rt in &self.trainer.shards {
            let (pulls, pushes, bytes_pulled, bytes_pushed) = rt.ps.traffic().snapshot();
            total.0 += pulls;
            total.1 += pushes;
            total.2 += bytes_pulled;
            total.3 += bytes_pushed;
        }
        total
    }

    fn evaluate(&mut self) -> f64 {
        let t = &*self.trainer;
        if let [only] = t.shards.as_slice() {
            only.ps.export_kv_gauges(&t.metrics);
            return evaluate_server(&only.ps, self.ds, Split::Test);
        }
        let merged = t.merged_store();
        merged.export_kv_gauges(&t.metrics);
        for (s, rt) in t.shards.iter().enumerate() {
            rt.ps.export_kv_gauges_for_shard(&t.metrics, s);
        }
        evaluate_server(&merged, self.ds, Split::Test)
    }
}

/// The file-name component of a checkpoint path the server returned.
fn file_name_of(path: &str) -> String {
    Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .map(str::to_owned)
        .unwrap_or_else(|| path.to_owned())
}

/// Partitions one worker's key-sorted gradients over the shard map and
/// packs each shard's (still key-sorted) sub-sequence into `PushMany`
/// requests, one per [`WIRE_BATCH_KEYS`] chunk.
fn sharded_push_requests(grads: &OuterGrads, lr: f32, map: &ShardMap) -> Vec<Vec<Request>> {
    let dim = grads.dim();
    map.partition_indices(&grads.keys)
        .into_iter()
        .map(|idxs| {
            idxs.chunks(WIRE_BATCH_KEYS)
                .map(|chunk| {
                    let mut keys = Vec::with_capacity(chunk.len());
                    let mut flat = Vec::with_capacity(chunk.len() * dim);
                    for &i in chunk {
                        keys.push(grads.keys[i]);
                        flat.extend_from_slice(&grads.values[i * dim..(i + 1) * dim]);
                    }
                    Request::PushMany { lr, keys, grads: flat }
                })
                .collect()
        })
        .collect()
}

/// Sends each shard's push batch through its own pipelined window — all
/// shards concurrently when more than one has work — and fails the round
/// on the first request that exhausts its retries (first shard in shard
/// order wins, so the error is deterministic).
fn flush_sharded(
    drivers: &mut [WorkerClient],
    mut reqs: Vec<Vec<Request>>,
) -> Result<(), TrainerError> {
    let push_err =
        |e: crate::client::RpcError| TrainerError::Driver(format!("gradient push batch: {e}"));
    let live = reqs.iter().filter(|r| !r.is_empty()).count();
    if live == 0 {
        return Ok(());
    }
    if live == 1 {
        for (driver, shard_reqs) in drivers.iter_mut().zip(reqs) {
            if !shard_reqs.is_empty() {
                driver.call_many(shard_reqs).map_err(push_err)?;
            }
        }
        return Ok(());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .zip(reqs.drain(..))
            .enumerate()
            .filter(|(_, (_, r))| !r.is_empty())
            .map(|(s, (driver, shard_reqs))| {
                (s, scope.spawn(move || driver.call_many(shard_reqs).map(|_| ())))
            })
            .collect();
        let mut first_err: Option<TrainerError> = None;
        for (_, h) in handles {
            let joined = match h.join() {
                Ok(r) => r.map_err(push_err),
                Err(_) => Err(TrainerError::Driver("shard push thread panicked".into())),
            };
            if let Err(e) = joined {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    })
}

/// Restores a resumed run from the newest committed manifest in `dir`:
/// the per-shard checkpoints and journals are merged, the merged
/// key-sorted rows and accumulators are re-routed through a map for the
/// *new* shard count (the N→M rehash — the map generation is bumped when
/// the topology changed), and the dead run's summed wire traffic rides
/// shard 0's counters so the final report still reaches the global figure.
fn load_sharded_resume_state(
    stores: &[Arc<ParameterServer>],
    dir: &Path,
    train: &DistributedConfig,
) -> Result<(ShardMap, ResumeBase), TrainerError> {
    let n = stores.len();
    let (path, manifest) = latest_manifest(dir, None)
        .map_err(|e| TrainerError::Resume(format!("manifest discovery: {e}")))?
        .ok_or_else(|| {
            TrainerError::Resume(format!("no committed manifest in {}", dir.display()))
        })?;
    let state = load_manifest_state(dir, &manifest)
        .map_err(|e| TrainerError::Resume(format!("{}: {e}", path.display())))?;
    if state.meta.dim as usize != train.dim {
        return Err(TrainerError::Resume(format!(
            "manifest {} has dim {}, config wants {}",
            path.display(),
            state.meta.dim,
            train.dim
        )));
    }
    let map = if manifest.n_shards() == n {
        ShardMap::with_version(n, manifest.map_version)
    } else {
        ShardMap::with_version(n, manifest.map_version + 1)
    };
    let mut rows: Vec<Vec<(ParamKey, Vec<f32>)>> = vec![Vec::new(); n];
    for (key, value) in state.rows {
        rows[map.owner(key)].push((key, value));
    }
    let mut accs: Vec<Vec<(ParamKey, Vec<f32>)>> = vec![Vec::new(); n];
    for (key, acc) in state.adagrad {
        accs[map.owner(key)].push((key, acc));
    }
    for (s, store) in stores.iter().enumerate() {
        store.restore_state(&rows[s], &accs[s]);
    }
    stores[0].traffic().restore(state.traffic);
    let meta = &state.meta;
    Ok((
        map,
        ResumeBase {
            rounds_done: meta.rounds_done as usize,
            cache: meta.cache,
            max_staleness: meta.max_staleness,
            round_losses: meta.round_losses.clone(),
            guard_trips: meta.guard_trips,
            guard_rollbacks: meta.guard_rollbacks,
        },
    ))
}
