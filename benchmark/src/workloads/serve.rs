//! `serve_steady` and `serve_saturate` — one replica × one worker, Dense
//! backend: a default-size MLP over the 30 domains of taobao(30), snapshots
//! built by `from_trained` on seeded parameters.
//!
//! The same server used two ways. **Steady**: open loop at a frozen rate
//! (≈ 40 % of calibration capacity), `load::TraceGen` Zipf users/domains,
//! 80/20 interactive/bulk, one hot swap at the midpoint — batches stay ≈ 1
//! and latency is queue wait + dispatch + one tiny forward, so admission,
//! batcher and per-request allocation changes show and a GEMM speed-up
//! moves it little. **Saturate**: two client threads each keep 64 requests
//! in flight until a frozen count is scored — batches grow to `max_batch`
//! and time is `ServingSnapshot::score`; a batching change that buys
//! throughput by waiting shows here as a gain and on steady as a loss.
//!
//! Unit of work: one scored request. Steady `throughput_per_s` is goodput
//! (scored within the frozen limit ÷ window) and `latency_*` runs from the
//! instant the request was due; saturate latency runs from submission.
//! The tail is p75: on this box p90 swung 99–174 µs and p99 0.3–43 ms
//! between identical runs while p75 stayed within ±7 %; p99 is kept as the
//! layer metric `load.req_p99_us`.

use super::overhead_share;
use crate::frozen::{
    saturate_requests, MEASURED_REPS, SATURATE_CLIENTS, SATURATE_WINDOW, SERVE_DOMAINS,
    SERVE_TAOBAO_SCALE, SERVE_WARMUP_REQUESTS, STEADY_LIMIT_US, STEADY_MAX_LAG_P99_US,
    STEADY_RATE_RPS,
};
use crate::openloop::{self, plan_from_trace, Hooks, Pacing, Planned, Scored, VersionTimeline};
use crate::spans::Spans;
use crate::stats::{ns_to_us, percentile};
use crate::{probes, repeat_setup, Ctx, Outcome, Repetitions};
use mamdr_core::env::DomainParams;
use mamdr_core::TrainedModel;
use mamdr_data::{presets, MdrDataset};
use mamdr_load::TraceConfig;
use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr_obs::{MetricsRegistry, Tracer};
use mamdr_serve::{
    ModelSpec, ReplicatedServer, ScoreRequest, ServeConfig, ServeResult, ServingSnapshot,
};
use mamdr_tensor::rng::{derive_seed, seeded};
use mamdr_util::Checksum;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Steady,
    Saturate,
}

fn model_spec(ds: &MdrDataset) -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Mlp,
        features: FeatureConfig::from_dataset(ds),
        config: ModelConfig::default(),
        n_domains: ds.n_domains(),
    }
}

/// A snapshot whose θS is the seeded initialisation and whose per-domain
/// θi are small seeded deltas: the served arithmetic of a trained model
/// without spending the set-up on training one.
pub(crate) fn seeded_snapshot(spec: &ModelSpec, version: u64, seed: u64) -> ServingSnapshot {
    let built = build_model(spec.kind, &spec.features, &spec.config, spec.n_domains, seed);
    let shared = built.params.to_flat();
    let mut rng = seeded(derive_seed(seed, version));
    let deltas = (0..spec.n_domains)
        .map(|_| (0..shared.len()).map(|_| rng.gen_range(-0.05f32..0.05)).collect())
        .collect();
    let trained = TrainedModel { shared, domains: DomainParams::Deltas(deltas) };
    ServingSnapshot::from_trained(version, spec.clone(), trained).expect("consistent seeded model")
}

fn start_pool(snapshot: ServingSnapshot, tracer: Option<Arc<Tracer>>) -> ReplicatedServer {
    // The engines keep their own metric handles; the registry is only the
    // place they were created in.
    let config = ServeConfig { n_workers: 1, ..ServeConfig::default() };
    ReplicatedServer::start(snapshot, 1, config, &MetricsRegistry::new(), tracer)
}

/// Digest over the score bits of `probes`, served through the pool.
pub(crate) fn pool_digest(pool: &ReplicatedServer, probes: &[ScoreRequest]) -> Option<u64> {
    let pending: Vec<_> = probes.iter().map(|r| pool.submit(r.clone(), None).ok()).collect();
    let mut digest = Checksum::new();
    for p in pending {
        match p?.wait() {
            ServeResult::Scored(r) => digest.update(&r.score.to_bits().to_le_bytes()),
            _ => return None,
        }
    }
    Some(digest.digest())
}

/// The same digest from `ServingSnapshot::score` called directly.
pub(crate) fn direct_digest(snapshot: &ServingSnapshot, probes: &[ScoreRequest]) -> u64 {
    let mut digest = Checksum::new();
    for r in probes {
        let score = snapshot.score(r.domain, std::slice::from_ref(r))[0];
        digest.update(&score.to_bits().to_le_bytes());
    }
    digest.digest()
}

/// Checks the 64-request probe through the pool against direct scoring of
/// the snapshot the pool currently serves; returns the digest.
pub(crate) fn check_probe(
    out: &mut Outcome,
    pool: &ReplicatedServer,
    probes: &[ScoreRequest],
    when: &str,
) -> u64 {
    let direct = direct_digest(&pool.engine(0).snapshot(), probes);
    let served = pool_digest(pool, probes);
    out.check(served == Some(direct), || {
        format!("probe digest {when} the run: pool {served:x?}, direct scoring {direct:x}")
    });
    direct
}

pub(crate) fn trace_config(ds: &MdrDataset, seed: u64, rate: f64, seconds: f64) -> TraceConfig {
    let mut cfg = TraceConfig::new(seed, rate, seconds);
    cfg.n_domains = ds.n_domains();
    cfg.n_users = ds.n_users as u32;
    cfg.n_items = ds.n_items as u32;
    cfg.n_user_groups = ds.n_user_groups as u32;
    cfg.n_item_cats = ds.n_item_cats as u32;
    // One whole compressed day per run: every run sees the same mix of
    // peak and trough, whatever its length.
    cfg.diurnal_period_secs = seconds;
    cfg
}

fn plan(ds: &MdrDataset, cfg: TraceConfig) -> Vec<Planned> {
    let row =
        |t: &Option<mamdr_tensor::Tensor>, i: u32| t.as_ref().map(|t| t.row(i as usize).to_vec());
    plan_from_trace(cfg, |user, item| (row(&ds.dense_user, user), row(&ds.dense_item, item)))
}

struct Setup {
    ds: MdrDataset,
    spec: ModelSpec,
    generate_s: f64,
    pool: ReplicatedServer,
    probes: Vec<ScoreRequest>,
}

/// Dataset shapes, snapshot v1, a bound pool and a discarded closed-loop
/// warm-up (which also gives the adaptive batcher's predictor its first
/// observations).
fn setup(ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    let ds = presets::taobao(SERVE_DOMAINS, ctx.seed, SERVE_TAOBAO_SCALE);
    let generate_s = t0.elapsed().as_secs_f64();
    let spec = model_spec(&ds);
    let v1 = seeded_snapshot(&spec, 1, ctx.seed);
    let mut probes = v1.probe_requests(ctx.seed, 3);
    probes.truncate(64);
    let pool = start_pool(v1, None);
    let warm = plan(
        &ds,
        trace_config(&ds, ctx.seed ^ 0x3A, 1_000.0, SERVE_WARMUP_REQUESTS as f64 / 1_000.0),
    );
    for chunk in warm.chunks(64) {
        let pending: Vec<_> = chunk
            .iter()
            .filter_map(|p| pool.submit_class(p.req.clone(), None, p.class).ok())
            .collect();
        for p in pending {
            p.wait();
        }
    }
    Setup { ds, spec, generate_s, pool, probes }
}

/// What one measured repetition of either mode produced.
struct Rep {
    attempted: u64,
    scored: Vec<Scored>,
    lag_ns: Vec<u64>,
    /// Seconds of offered load (steady) or of wall until the last result
    /// (saturate).
    window_s: f64,
    accounting_ok: bool,
    timeline: VersionTimeline,
}

/// One open-loop repetition on a pool currently serving `version`; the
/// midpoint swap moves it to `version + 1`.
fn steady_rep(
    ctx: &Ctx,
    s: &Setup,
    pool: &ReplicatedServer,
    version: u64,
    seconds: f64,
    spans: Option<&Spans>,
) -> Rep {
    let plan = plan(&s.ds, trace_config(&s.ds, ctx.seed, STEADY_RATE_RPS, seconds));
    let next = seeded_snapshot(&s.spec, version + 1, ctx.seed);
    let report = openloop::run(
        pool,
        Instant::now(),
        plan,
        Hooks {
            pacing: Pacing::Spin,
            swap_at_us: Some((seconds * 1e6 / 2.0) as u64),
            on_swap: Box::new(move || {
                pool.publish(next);
            }),
            stop: None,
            spans,
        },
    );
    Rep {
        attempted: report.submitted,
        accounting_ok: report.accounting_ok(),
        timeline: VersionTimeline {
            initial: version,
            publishes: report.swap_ns.map(|(b, e)| (version + 1, b, e)).into_iter().collect(),
        },
        scored: report.scored,
        lag_ns: report.lag_ns,
        window_s: seconds,
    }
}

fn saturate_rep(ctx: &Ctx, s: &Setup, pool: &ReplicatedServer, seconds: f64) -> Rep {
    let n = saturate_requests(seconds);
    // Arrival times are ignored here; the trace only supplies who asks
    // for what. Over-generate by 20 % and cut to the frozen count.
    let mut reqs = plan(&s.ds, trace_config(&s.ds, ctx.seed, n as f64 * 1.2 / seconds, seconds));
    assert!(reqs.len() >= n, "trace produced {} of {n} requests", reqs.len());
    reqs.truncate(n);
    let mut per_client: Vec<Vec<Planned>> = (0..SATURATE_CLIENTS).map(|_| Vec::new()).collect();
    for (i, p) in reqs.into_iter().enumerate() {
        per_client[i % SATURATE_CLIENTS].push(p);
    }
    let start = Instant::now();
    let since = |t: Instant| (t - start).as_nanos() as u64;
    let results: Vec<(Vec<Scored>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .into_iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut scored = Vec::with_capacity(mine.len());
                    let mut window = VecDeque::with_capacity(SATURATE_WINDOW);
                    let mut refused = 0u64;
                    let mut settle = |(pending, submit_ns): (mamdr_serve::Pending, u64)| {
                        if let ServeResult::Scored(r) = pending.wait() {
                            scored.push(Scored {
                                due_ns: submit_ns,
                                submit_ns,
                                receipt_ns: since(Instant::now()),
                                version: r.snapshot_version,
                            });
                        }
                    };
                    for p in mine {
                        if window.len() == SATURATE_WINDOW {
                            settle(window.pop_front().expect("full window"));
                        }
                        let submit_ns = since(Instant::now());
                        match pool.submit_class(p.req, None, p.class) {
                            Ok(pending) => window.push_back((pending, submit_ns)),
                            Err(_) => refused += 1,
                        }
                    }
                    window.into_iter().for_each(&mut settle);
                    (scored, refused)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let refused: u64 = results.iter().map(|r| r.1).sum();
    let scored: Vec<Scored> = results.into_iter().flat_map(|r| r.0).collect();
    Rep {
        attempted: n as u64,
        // Closed loop, 128 outstanding, far under the admission bound:
        // nothing may be refused and everything admitted must score.
        accounting_ok: refused == 0 && scored.len() == n,
        scored,
        lag_ns: Vec::new(),
        window_s,
        timeline: VersionTimeline { initial: 1, publishes: Vec::new() },
    }
}

fn rep(
    ctx: &Ctx,
    mode: Mode,
    s: &Setup,
    pool: &ReplicatedServer,
    version: u64,
    spans: Option<&Spans>,
) -> Rep {
    match mode {
        Mode::Steady => steady_rep(ctx, s, pool, version, ctx.rep_seconds(), spans),
        Mode::Saturate => saturate_rep(ctx, s, pool, ctx.rep_seconds()),
    }
}

/// Output checks of one repetition, counted into attempted/failed.
fn check_rep(out: &mut Outcome, mode: Mode, r: &Rep) {
    out.attempted += r.attempted;
    out.failed += r.attempted - r.scored.len() as u64;
    out.check(r.accounting_ok, || "accounting identity violated: a request vanished".into());
    let stale = r.timeline.violations(&r.scored);
    out.check(stale == 0, || {
        format!("{stale} responses came from a version not published at the time")
    });
    if mode == Mode::Steady {
        out.check(r.timeline.publishes.len() == 1, || "the mid-run hot swap did not happen".into());
    }
}

struct Latency {
    p50_us: f64,
    p75_us: f64,
    p99_us: f64,
    within_limit: u64,
}

fn latency(r: &Rep) -> Latency {
    let mut ns: Vec<u64> = r.scored.iter().map(Scored::latency_ns).collect();

    Latency {
        within_limit: ns.iter().filter(|&&l| l <= STEADY_LIMIT_US * 1_000).count() as u64,
        p50_us: ns_to_us(percentile(&mut ns, 0.50)),
        p75_us: ns_to_us(percentile(&mut ns, 0.75)),
        p99_us: ns_to_us(percentile(&mut ns, 0.99)),
    }
}

pub fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = repeat_setup(|| setup(ctx));
    out.set("setup_s", setup_s);

    let before = check_probe(&mut out, &s.pool, &s.probes, "before");
    out.counts.insert("probe_digest", before);
    // Untraced repetitions on the set-up's pool: three for the end-to-end
    // medians, one as the traced run's reference.
    let mut reps = Repetitions::default();
    let mut first: Option<(Rep, Latency)> = None;
    for k in 0..if ctx.traced() { 1 } else { MEASURED_REPS } {
        let measured = rep(ctx, mode, &s, &s.pool, s.pool.current_version(), None);
        check_rep(&mut out, mode, &measured);
        let lat = latency(&measured);
        let throughput = match mode {
            Mode::Steady => lat.within_limit as f64 / measured.window_s,
            Mode::Saturate => measured.scored.len() as f64 / measured.window_s,
        };
        // A repetition whose generator ran late is invalid, not slow: it
        // is left out of the medians — unless it is all there is. A late
        // generator is this box's noise, never a wrong output, so it does
        // not fail the run.
        let last_chance = k + 1 == MEASURED_REPS && reps.is_empty();
        if generator_healthy(&measured) || ctx.traced() || last_chance {
            reps.push(throughput, lat.p50_us, lat.p75_us);
        }
        if k == 0 {
            out.counts.insert("submitted", measured.attempted);
            first = Some((measured, lat));
        }
    }
    let after = check_probe(&mut out, &s.pool, &s.probes, "after");
    if mode == Mode::Saturate {
        out.check(after == before, || "probe digest changed across a run with no swap".into());
    }
    if !ctx.traced() {
        reps.report(&mut out);
        return out;
    }
    let (measured, lat) = first.expect("one reference repetition");

    // Traced repetition on a fresh pool carrying the repo's tracer.
    let spans = ctx.spans().expect("traced");
    let tracer = Arc::new(Tracer::new());
    let root = spans.alloc();
    let t_root = Instant::now();
    let pool = start_pool(seeded_snapshot(&s.spec, 1, ctx.seed), Some(Arc::clone(&tracer)));
    let traced = rep(ctx, mode, &s, &pool, 1, Some(spans));
    spans.record_as(root, "serve.repetition", 0, 0, t_root, Instant::now());
    check_rep(&mut out, mode, &traced);
    let traced_lat = latency(&traced);

    report_engine(&mut out, &pool, &tracer);
    out.set("load.req_p50_us", traced_lat.p50_us);
    out.set("load.req_p99_us", traced_lat.p99_us);
    out.set("load.offered_rps", traced.attempted as f64 / traced.window_s);
    out.set("data.generate_s", s.generate_s);
    match mode {
        Mode::Steady => {
            report_generator(&mut out, spans, &traced.lag_ns);
            out.set("obs.trace_overhead_share", overhead_share(lat.p50_us, traced_lat.p50_us));
            out.set(
                "serve.slo_miss_share",
                (traced.attempted - traced_lat.within_limit) as f64 / traced.attempted as f64,
            );
        }
        Mode::Saturate => {
            let per_request = |r: &Rep| r.window_s / r.scored.len() as f64;
            out.set(
                "obs.trace_overhead_share",
                overhead_share(per_request(&measured), per_request(&traced)),
            );
        }
    }
    drop(pool);

    let snapshot = s.pool.engine(0).snapshot();
    let same_domain: Vec<ScoreRequest> = (0..256u32)
        .map(|k| {
            let (user, item) = (k * 13 % s.ds.n_users as u32, k * 5 % s.ds.n_items as u32);
            let mut r = ScoreRequest::new(
                0,
                user,
                item,
                s.ds.user_group[user as usize],
                s.ds.item_cat[item as usize],
            );
            r.dense_user = s.ds.dense_user.as_ref().map(|t| t.row(user as usize).to_vec());
            r.dense_item = s.ds.dense_item.as_ref().map(|t| t.row(item as usize).to_vec());
            r
        })
        .collect();
    probes::serve(&mut out, &snapshot, || seeded_snapshot(&s.spec, 1, ctx.seed), &same_domain);
    let fresh =
        build_model(s.spec.kind, &s.spec.features, &s.spec.config, s.spec.n_domains, ctx.seed);
    probes::tensor(&mut out, &s.spec.features, &s.spec.config);
    probes::models(&mut out, &s.ds, fresh.model.as_ref(), &fresh.params);
    out
}

/// Registry histograms and counters of the pool's engines (all replicas
/// report into the same names) and the tracer's request-lifecycle shares.
pub(crate) fn report_engine(out: &mut Outcome, pool: &ReplicatedServer, tracer: &Tracer) {
    let m = pool.engine(0).metrics();
    let (queue, compute, batch) =
        (m.queue_wait_us.snapshot(), m.batch_compute_us.snapshot(), m.batch_size.snapshot());
    out.set("serve.queue_wait_p50_us", queue.p50);
    out.set("serve.queue_wait_p99_us", queue.p99);
    out.set("serve.batch_compute_p50_us", compute.p50);
    out.set("serve.batch_size_mean", batch.mean());
    out.set("serve.batch_size_p99", batch.p99);
    let phase = |name: &str| tracer.phase(name).total_secs;
    let lifecycle = ["serve.queue", "serve.coalesce", "serve.score", "serve.respond"]
        .iter()
        .map(|p| phase(p))
        .sum::<f64>();
    out.set("serve.score_share", phase("serve.score") / lifecycle);
    out.set("serve.shed", m.shed_total.iter().map(|c| c.get()).sum::<u64>() as f64);
    out.set("serve.rejected", m.rejected_total.get() as f64);
    out.set(
        "serve.deadline_expired",
        (m.deadline_expired_total.get() + m.deadline_exceeded_total.get()) as f64,
    );
    // Ring evictions only: the tracer's phase aggregates stay exact.
    out.set("obs.spans_dropped", tracer.dropped() as f64);
}

/// How late the open-loop generator ran, and what one `submit` cost it
/// (from the sampled `serve.submit` spans).
pub(crate) fn report_generator(out: &mut Outcome, spans: &Spans, lag_ns: &[u64]) {
    let mut lag = lag_ns.to_vec();
    out.set("load.sched_lag_p99_us", ns_to_us(percentile(&mut lag, 0.99)));
    out.set("load.sched_lag_max_us", ns_to_us(percentile(&mut lag, 1.0)));
    let submit = spans.totals().get("serve.submit").copied().unwrap_or_default();
    out.set("serve.submit_us", submit.total_ns as f64 / 1e3 / submit.count.max(1) as f64);
}

/// Whether the load generator kept its schedule (always true for the
/// closed loop, which has none).
fn generator_healthy(r: &Rep) -> bool {
    if r.lag_ns.is_empty() {
        return true;
    }
    let p99_us = ns_to_us(percentile(&mut r.lag_ns.clone(), 0.99));
    let healthy = p99_us <= STEADY_MAX_LAG_P99_US as f64;
    if !healthy {
        eprintln!(
            "mamdr-benchmark: repetition invalid: generator scheduling lag p99 {p99_us} us exceeds {STEADY_MAX_LAG_P99_US} us"
        );
    }
    healthy
}
