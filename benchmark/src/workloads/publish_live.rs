//! `publish_live` — the continual loop end to end: `DistributedTrainer`
//! (2 workers × 1 shard) with `PublishHook { every: 1 }` →
//! `ContinualPublisher` → `PublishGate` (digest → … → probe, 50 % canary)
//! → a 2-replica pool (Embedding backend, `from_ps`) under light open-loop
//! load. Closed training + open load.
//!
//! This is the row ROADMAP asked for: seconds from "round applied" to
//! "version serving on all replicas". It uses the kv store as a
//! **whole-store read** (`dump_rows`) beside the round's writes, and serve
//! as **swap-heavy** beside scoring — a slab-store or snapshot-format
//! change that helps one use and hurts the other shows here.
//!
//! Unit of work: one round, which is one publish. `throughput_per_s` is
//! rounds ÷ train wall (final evaluation excluded); `latency_*` is
//! publish-to-serve — hook `encode` entry for round r until every
//! replica's `current_version()` is r — as p50 and p75 (p75 keeps ≥ 10 of
//! the ≥ 40 publishes beyond it). Request latency under the swaps is a
//! layer metric (`load.req_*`); a request that is not scored is a failure.

use super::overhead_share;
use super::serve::{check_probe, direct_digest, report_engine, report_generator, trace_config};
use super::sharded_train::{report_rounds, train_config, Deployment};
use crate::frozen::{
    publish_rounds, MEASURED_REPS, PUBLISH_CANARY_PCT, PUBLISH_DOMAINS, PUBLISH_HEAD_SAMPLES,
    PUBLISH_LIMIT_US, PUBLISH_MIN_AUC, PUBLISH_RATE_RPS, PUBLISH_REPLICAS, PUBLISH_WORKERS,
};
use crate::openloop::{self, plan_from_trace, Hooks, Pacing, Scored, VersionTimeline};
use crate::spans::Spans;
use crate::stats::{ns_to_us, percentile};
use crate::{probes, repeat_setup, Ctx, Outcome, Repetitions};
use mamdr_data::{presets, MdrDataset, Split};
use mamdr_obs::{MetricsRegistry, Tracer};
use mamdr_ps::trainer::evaluate_server;
use mamdr_rpc::{DistributedTrainer, LoopbackConfig, PublishHook, RetryPolicy};
use mamdr_serve::{
    GateConfig, PublishGate, ReplicatedServer, ScoreRequest, ServeConfig, ServingSnapshot,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The instants of one publish, all taken inside the hook's two closures.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    round: u64,
    encode_start: Instant,
    encode_end: Instant,
    /// `on_commit` entry: the snapshot file is durable and renamed.
    committed: Instant,
    /// The gate's verdict is in and every replica was checked.
    served: Instant,
    accepted: bool,
    all_replicas_current: bool,
}

#[derive(Default)]
struct PublishLog {
    /// Encode entry/exit of the publish in flight.
    encoding: Mutex<Option<(u64, Instant, Instant)>>,
    done: Mutex<Vec<Stamp>>,
    snapshot_bytes: AtomicU64,
}

/// Where the publish hook finds the pool and gate once they exist.
type PoolSlot = Arc<Mutex<Option<(Arc<ReplicatedServer>, Arc<PublishGate>)>>>;

struct Stack {
    deployment: Deployment,
    pool: Arc<ReplicatedServer>,
    gate: Arc<PublishGate>,
    log: Arc<PublishLog>,
    probes: Vec<ScoreRequest>,
}

/// Binds the trainer, starts the pool on the freshly seeded store's
/// snapshot (version 0) and wires the publish hook between them.
fn build_stack(
    ds: &MdrDataset,
    seed: u64,
    rounds: usize,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Stack {
    let registry = Arc::new(MetricsRegistry::new());
    let log = Arc::new(PublishLog::default());
    // The hook needs the pool and the pool needs the trainer's seeded
    // store, so the hook reaches the pool through a slot filled below.
    let slot: PoolSlot = Arc::default();
    let n_domains = ds.n_domains();
    let hook = PublishHook {
        every: 1,
        dir: dir.join("publish"),
        encode: Arc::new({
            let log = Arc::clone(&log);
            move |round, ps| {
                let t0 = Instant::now();
                let mut buf = Vec::new();
                ServingSnapshot::from_ps(round, ps, n_domains)
                    .write_to(&mut buf)
                    .map_err(|e| e.to_string())?;
                log.snapshot_bytes.store(buf.len() as u64, Ordering::Relaxed);
                *log.encoding.lock().expect("publish log") = Some((round, t0, Instant::now()));
                Ok(buf)
            }
        }),
        on_commit: Arc::new({
            let (log, slot) = (Arc::clone(&log), Arc::clone(&slot));
            move |round, path| {
                let committed = Instant::now();
                let (pool, gate) = slot.lock().expect("pool slot").clone().expect("pool started");
                // A rejection is the gate's verdict; training never stops
                // for it — it is counted as a failed operation below.
                let accepted = gate.offer_file(round, path, &pool).is_ok();
                let all_replicas_current =
                    (0..pool.n_replicas()).all(|r| pool.engine(r).current_version() == round);
                let served = Instant::now();
                let (r, encode_start, encode_end) =
                    log.encoding.lock().expect("publish log").take().expect("encode ran first");
                assert_eq!(r, round, "commit of a round that was not the one encoded");
                log.done.lock().expect("publish log").push(Stamp {
                    round,
                    encode_start,
                    encode_end,
                    committed,
                    served,
                    accepted,
                    all_replicas_current,
                });
            }
        }),
    };
    let cfg = LoopbackConfig {
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        tracer: tracer.clone(),
        publish: Some(hook),
        ..LoopbackConfig::new(train_config(seed, PUBLISH_WORKERS, rounds, 1))
    };
    let trainer =
        DistributedTrainer::new(ds, cfg, Arc::clone(&registry)).expect("start loopback trainer");
    let v0 = ServingSnapshot::from_ps(0, trainer.store(), n_domains);
    let probes = v0.probe_requests(seed, 4);
    let serve_cfg = ServeConfig { n_workers: 1, ..ServeConfig::default() };
    let pool = Arc::new(ReplicatedServer::start(
        v0,
        PUBLISH_REPLICAS,
        serve_cfg,
        &registry,
        tracer.clone(),
    ));
    // Scores are sigmoid outputs in [0, 1]: a bound of 1.0 admits every
    // structurally sound, finite round — the chain still runs in full.
    let gate_cfg = GateConfig {
        max_divergence: 1.0,
        canary_pct: PUBLISH_CANARY_PCT,
        max_canary_drift: 1.0,
        ..Default::default()
    };
    let gate =
        Arc::new(PublishGate::new(gate_cfg, pool.engine(0).snapshot(), &registry, None, tracer));
    *slot.lock().expect("pool slot") = Some((Arc::clone(&pool), Arc::clone(&gate)));
    Stack { deployment: Deployment { trainer, registry }, pool, gate, log, probes }
}

struct Setup {
    ds: MdrDataset,
    generate_s: f64,
}

/// Dataset generation plus a throwaway stack — bind, seed, start the
/// pool, three discarded warm-up rounds (three publishes), drain. Every
/// measured repetition then gets a stack of its own, built off the clock.
fn setup(ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    let ds = presets::industry(PUBLISH_DOMAINS, PUBLISH_HEAD_SAMPLES, ctx.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut warm = build_stack(&ds, ctx.seed, 3, &ctx.scratch("publish-warm"), None);
    warm.deployment.trainer.train(&ds).expect("warm-up rounds");
    Setup { ds, generate_s }
}

/// What one repetition (training + load) produced.
struct Rep {
    rounds: usize,
    train_s: f64,
    final_auc: f64,
    stamps: Vec<Stamp>,
    scored: Vec<Scored>,
    submitted: u64,
    accounting_ok: bool,
    lag_ns: Vec<u64>,
    timeline: VersionTimeline,
    load_s: f64,
}

fn repetition(
    ctx: &Ctx,
    ds: &MdrDataset,
    stack: &mut Stack,
    rounds: usize,
    spans: Option<&Spans>,
) -> Rep {
    // The plan outlasts any plausible training time; the stop flag ends it.
    let horizon_s = 6.0 * ctx.rep_seconds().max(1.0);
    let mut trace = trace_config(ds, ctx.seed, PUBLISH_RATE_RPS, horizon_s);
    trace.diurnal_amplitude = 0.0;
    let plan = plan_from_trace(trace, |_, _| (None, None));

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let pool = Arc::clone(&stack.pool);
    let (report, train_s, final_auc) = std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            let hooks = Hooks {
                pacing: Pacing::SleepThenSpin,
                swap_at_us: None,
                on_swap: Box::new(|| {}),
                stop: Some(&stop),
                spans,
            };
            openloop::run(&pool, start, plan, hooks)
        });
        let t0 = Instant::now();
        let report = stack.deployment.trainer.train(ds).expect("loopback training completes");
        let total_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let t1 = Instant::now();
        let auc = evaluate_server(stack.deployment.trainer.store(), ds, Split::Test);
        let evaluate_s = t1.elapsed().as_secs_f64();
        assert_eq!(auc.to_bits(), report.mean_auc.to_bits(), "re-evaluation changed the AUC");
        (load.join().expect("load thread"), total_s - evaluate_s, report.mean_auc)
    });
    let load_s = start.elapsed().as_secs_f64();
    let stamps = std::mem::take(&mut *stack.log.done.lock().expect("publish log"));
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    Rep {
        rounds,
        train_s,
        final_auc,
        timeline: VersionTimeline {
            initial: 0,
            // A canary replica may serve round r from the moment the gate
            // was offered it; every replica does once the offer returned.
            publishes: stamps
                .iter()
                .filter(|s| s.accepted)
                .map(|s| (s.round, ns(s.committed), ns(s.served)))
                .collect(),
        },
        stamps,
        submitted: report.submitted,
        accounting_ok: report.accounting_ok(),
        scored: report.scored,
        lag_ns: report.lag_ns,
        load_s,
    }
}

/// Publish-to-serve samples, nanoseconds.
fn publish_to_serve(stamps: &[Stamp]) -> Vec<u64> {
    stamps.iter().map(|s| (s.served - s.encode_start).as_nanos() as u64).collect()
}

fn check_rep(out: &mut Outcome, stack: &Stack, r: &Rep) {
    let n_domains = stack.pool.engine(0).snapshot().n_domains();
    out.attempted += r.rounds as u64 + r.submitted;
    let rejected = r.stamps.iter().filter(|s| !s.accepted).count() as u64;
    out.failed += rejected + (r.submitted - r.scored.len() as u64);
    out.check(r.stamps.len() == r.rounds, || {
        format!("{} publishes for {} rounds", r.stamps.len(), r.rounds)
    });
    out.check(r.stamps.iter().all(|s| s.all_replicas_current), || {
        "a replica was not on the published version when the gate returned".into()
    });
    out.check(r.stamps.windows(2).all(|w| w[0].round < w[1].round), || {
        "published versions are not strictly increasing".into()
    });
    out.check(r.accounting_ok, || "accounting identity violated: a request vanished".into());
    let stale = r.timeline.violations(&r.scored);
    out.check(stale == 0, || {
        format!("{stale} responses came from a version not published at the time")
    });
    // The served bytes must be exactly what an offline build from the
    // trainer's final store encodes to.
    let encode = |s: &ServingSnapshot| {
        let mut buf = Vec::new();
        s.write_to(&mut buf).expect("encode into memory");
        buf
    };
    let served = encode(&stack.gate.last_good());
    let offline = encode(&ServingSnapshot::from_ps(
        r.rounds as u64,
        stack.deployment.trainer.store(),
        n_domains,
    ));
    out.check(served == offline, || {
        "final served snapshot is not byte-identical to the offline from_ps build".into()
    });
    out.check(stack.pool.current_version() == r.rounds as u64, || {
        format!("pool serves v{}, the last round is {}", stack.pool.current_version(), r.rounds)
    });
    out.check(r.final_auc > PUBLISH_MIN_AUC, || {
        format!("final AUC {} is not above {PUBLISH_MIN_AUC}", r.final_auc)
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let rounds = publish_rounds(ctx.rep_seconds());
    let (s, setup_s) = repeat_setup(|| setup(ctx));
    out.set("setup_s", setup_s);

    // Untraced repetitions, each on a fresh stack: three for the
    // end-to-end medians, one as the traced run's reference.
    let mut reps = Repetitions::default();
    let mut first: Option<Rep> = None;
    for k in 0..if ctx.traced() { 1 } else { MEASURED_REPS } {
        let mut stack = build_stack(&s.ds, ctx.seed, rounds, &ctx.scratch("publish"), None);
        let before = check_probe(&mut out, &stack.pool, &stack.probes, "before");
        let measured = repetition(ctx, &s.ds, &mut stack, rounds, None);
        check_rep(&mut out, &stack, &measured);
        check_probe(&mut out, &stack.pool, &stack.probes, "after");
        let mut p2s = publish_to_serve(&measured.stamps);
        reps.push(
            rounds as f64 / measured.train_s,
            ns_to_us(percentile(&mut p2s, 0.50)),
            ns_to_us(percentile(&mut p2s, 0.75)),
        );
        if k == 0 {
            out.counts.insert("probe_digest", before);
            out.counts.insert("publishes", measured.stamps.len() as u64);
            out.counts.insert("auc_bits", measured.final_auc.to_bits());
            out.counts
                .insert("final_digest", direct_digest(&stack.gate.last_good(), &stack.probes));
            first = Some(measured);
        }
    }
    if !ctx.traced() {
        reps.report(&mut out);
        return out;
    }
    let measured = first.expect("one reference repetition");

    let spans = ctx.spans().expect("traced");
    let tracer = Arc::new(Tracer::new());
    let root = spans.alloc();
    let t_root = Instant::now();
    let mut stack = build_stack(
        &s.ds,
        ctx.seed,
        rounds,
        &ctx.scratch("publish-traced"),
        Some(Arc::clone(&tracer)),
    );
    let traced = repetition(ctx, &s.ds, &mut stack, rounds, Some(spans));
    spans.record_as(root, "publish_live.repetition", 0, 0, t_root, Instant::now());
    check_rep(&mut out, &stack, &traced);
    // Probes first: where a probe and the run both produce a name
    // (`serve.snapshot_build_s`, `serve.swap_us`), the run's value — taken
    // under the real interleaving of training, load and swaps — wins.
    let dim = train_config(ctx.seed, PUBLISH_WORKERS, rounds, 1).dim;
    probes::ps(&mut out, &s.ds, dim, ctx.seed);
    let same_domain: Vec<ScoreRequest> = (0..256u32)
        .map(|k| {
            ScoreRequest::new(
                0,
                k * 13 % s.ds.n_users as u32,
                k * 5 % s.ds.n_items as u32,
                k % 16,
                k % 32,
            )
        })
        .collect();
    probes::serve(
        &mut out,
        &stack.gate.last_good(),
        || {
            ServingSnapshot::from_ps(
                rounds as u64,
                stack.deployment.trainer.store(),
                s.ds.n_domains(),
            )
        },
        &same_domain,
    );

    // One span tree per publish: build → commit → gate are serial and
    // must tile publish-to-serve.
    let (mut build_s, mut commit_s, mut gate_s, mut total_s) = (0.0, 0.0, 0.0, 0.0);
    for st in &traced.stamps {
        let id = spans.record("publish", root, st.round, st.encode_start, st.served);
        spans.record("serve.snapshot_build_encode", id, st.round, st.encode_start, st.encode_end);
        spans.record("ps.publish_commit", id, st.round, st.encode_end, st.committed);
        spans.record("serve.gate_offer", id, st.round, st.committed, st.served);
        build_s += (st.encode_end - st.encode_start).as_secs_f64();
        commit_s += (st.committed - st.encode_end).as_secs_f64();
        gate_s += (st.served - st.committed).as_secs_f64();
        total_s += (st.served - st.encode_start).as_secs_f64();
    }
    let n = traced.stamps.len().max(1) as f64;
    out.set("serve.snapshot_build_s", build_s / n);
    out.set("ps.publish_commit_s", commit_s / n);
    out.set("serve.gate_offer_s", gate_s / n);
    out.set("serve.publish_tile_ratio", (build_s + commit_s + gate_s) / total_s);
    out.set(
        "serve.snapshot_mb",
        stack.log.snapshot_bytes.load(Ordering::Relaxed) as f64 / (1 << 20) as f64,
    );

    let registry = &stack.deployment.registry;
    report_rounds(&mut out, &tracer, registry, traced.final_auc, rounds, "publish.build");
    report_engine(&mut out, &stack.pool, &tracer);
    let swaps = tracer.phase("serve.swap");
    out.set("serve.swap_us", swaps.total_secs / swaps.count.max(1) as f64 * 1e6);
    let mut lat: Vec<u64> = traced.scored.iter().map(Scored::latency_ns).collect();
    let within = lat.iter().filter(|&&l| l <= PUBLISH_LIMIT_US * 1_000).count() as u64;
    out.set("serve.slo_miss_share", (traced.submitted - within) as f64 / traced.submitted as f64);
    out.set("load.req_p50_us", ns_to_us(percentile(&mut lat, 0.50)));
    out.set("load.req_p99_us", ns_to_us(percentile(&mut lat, 0.99)));
    out.set("load.offered_rps", traced.submitted as f64 / traced.load_s);
    report_generator(&mut out, spans, &traced.lag_ns);
    out.set("data.generate_s", s.generate_s);
    out.set(
        "obs.trace_overhead_share",
        overhead_share(measured.train_s / rounds as f64, traced.train_s / rounds as f64),
    );

    out
}
