//! `paper serve` — a closed-loop run of the `mamdr-serve` subsystem — and
//! its fixture: its dataset, its trained snapshots, its probe digest and
//! its closed-loop client run, in one copy shared with the tests that pin
//! them.
//!
//! The run trains a tiny MLP under MAMDR, freezes it into serving snapshot
//! v1 (and a retrained v2), then drives a pool of `--replicas` serving
//! stacks behind the deterministic user router with `--threads`
//! closed-loop clients, each submitting its next request when the previous
//! one answers. The model is hot-swapped to v2 mid-run **while requests
//! are in flight**; the run fails (exit 1) if any request is dropped,
//! rejected, or answered by an unknown snapshot version.
//!
//! It also prints a `probe_digest`: an FNV-1a digest over the scores of a
//! fixed probe set served through the pool before the run. The digest is
//! invariant across `--replicas` and `--threads` (which also sets the
//! worker count per replica, and so how requests are batched);
//! `tests/serve_probe_digest.rs` pins it, and `tests/serve_closed_loop.rs`
//! pins this run's request and swap counts. Open-loop load
//! (trace-scheduled arrivals, overload, sheds) is the benchmark's
//! `serve_steady` workload.
//!
//! Knobs: `--scale` multiplies the request count (default 1 000),
//! `--threads` sets the client count, the kernel pool and the scoring
//! workers per replica (at most 8), `--replicas` the serving-stack count,
//! `--quick` caps training epochs. `--metrics-out`, `--trace-out`,
//! `--phase-summary`, `--introspect-addr` as everywhere else.

use crate::paper::Ctx;
use crate::render_phase_table;
use mamdr_core::{FrameworkKind, TrainConfig, TrainEnv};
use mamdr_data::{DomainSpec, GeneratorConfig, MdrDataset};
use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr_obs::Value;
use mamdr_serve::{
    ModelSpec, ReplicatedServer, ScoreRequest, ServeConfig, ServeResult, ServingSnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The three-domain dataset `paper serve` trains on and serves.
pub fn dataset(seed: u64) -> MdrDataset {
    let mut gen = GeneratorConfig::base("serve-bench", 200, 120, seed);
    gen.conflict = 0.3;
    gen.domains = vec![
        DomainSpec::new("large", 1_200, 0.3),
        DomainSpec::new("mid", 600, 0.35),
        DomainSpec::new("small", 200, 0.4),
    ];
    gen.generate()
}

/// Trains a tiny MLP under MAMDR for `epochs` and freezes it as snapshot
/// `version`.
pub fn train_snapshot(ds: &MdrDataset, epochs: usize, version: u64, seed: u64) -> ServingSnapshot {
    let fc = FeatureConfig::from_dataset(ds);
    let mc = ModelConfig::tiny();
    let built = build_model(ModelKind::Mlp, &fc, &mc, ds.n_domains(), seed);
    let cfg = TrainConfig::quick().with_seed(seed).with_epochs(epochs);
    let mut env = TrainEnv::new(ds, built.model.as_ref(), built.params, cfg);
    let trained = FrameworkKind::Mamdr.build().train(&mut env);
    let spec =
        ModelSpec { kind: ModelKind::Mlp, features: fc, config: mc, n_domains: ds.n_domains() };
    ServingSnapshot::from_trained(version, spec, trained)
        .expect("freshly trained model always freezes")
}

/// The per-replica serving configuration, `workers` scoring workers each.
pub fn pool_config(workers: usize) -> ServeConfig {
    ServeConfig {
        queue_cap: 4096,
        // Bulk admission is bounded well below the global cap: a bulk
        // flood sheds (typed) long before it can crowd out interactive.
        class_caps: [0, 1024],
        n_workers: workers,
        ..ServeConfig::default()
    }
}

/// Scores a fixed probe set through the pool and digests the score bits
/// with FNV-1a. Identical across replica and worker counts — the
/// bit-identity evidence the serving tests pin.
pub fn probe_digest(pool: &ReplicatedServer, fc: &FeatureConfig, n_domains: usize) -> u64 {
    let pending: Vec<_> = (0..64u32)
        .map(|k| {
            let req = ScoreRequest::new(
                (k as usize) % n_domains,
                (k * 13) % fc.n_users as u32,
                (k * 5) % fc.n_items as u32,
                k % fc.n_user_groups as u32,
                k % fc.n_item_cats as u32,
            );
            pool.submit(req, None).expect("probe admitted on an idle pool")
        })
        .collect();
    let mut digest = mamdr_util::Checksum::new();
    for p in pending {
        match p.wait() {
            ServeResult::Scored(r) => digest.update(&r.score.to_bits().to_le_bytes()),
            other => panic!("probe request not scored: {other:?}"),
        }
    }
    digest.digest()
}

/// What one [`closed_loop`] run observed.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Requests submitted: `requests` rounded up to a multiple of the
    /// client count.
    pub served: u64,
    /// Requests scored by snapshot version 1 and by version 2.
    pub scored_v1: u64,
    pub scored_v2: u64,
    /// Requests rejected, not scored, or scored by any other version.
    pub dropped: u64,
    /// Wall-clock seconds of the run.
    pub elapsed_secs: f64,
}

/// Drives `pool` (serving snapshot version 1) with `clients` closed-loop
/// clients — each submits its next request when the previous one answers —
/// for `requests` requests in total, and hot-swaps `v2` in once half of
/// them have been answered.
pub fn closed_loop(
    pool: &ReplicatedServer,
    fc: &FeatureConfig,
    n_domains: usize,
    requests: usize,
    clients: usize,
    v2: ServingSnapshot,
) -> ClosedLoop {
    let per_client = requests.div_ceil(clients);
    let scored = [AtomicU64::new(0), AtomicU64::new(0)];
    let dropped = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (scored, dropped, done) = (&scored, &dropped, &done);
            s.spawn(move || {
                for i in 0..per_client {
                    let k = (c * per_client + i) as u32;
                    let req = ScoreRequest::new(
                        (k as usize) % n_domains,
                        (k * 7) % fc.n_users as u32,
                        (k * 3) % fc.n_items as u32,
                        k % fc.n_user_groups as u32,
                        k % fc.n_item_cats as u32,
                    );
                    match pool.submit(req, Some(Duration::from_secs(30))) {
                        Ok(pending) => match pending.wait() {
                            ServeResult::Scored(r) if matches!(r.snapshot_version, 1 | 2) => {
                                scored[r.snapshot_version as usize - 1]
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            other => {
                                eprintln!("[paper serve] bad outcome: {other:?}");
                                dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(e) => {
                            eprintln!("[paper serve] submission rejected: {e}");
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Hot swap once half the load has been served, mid-flight.
        let half = (clients * per_client) as u64 / 2;
        while done.load(Ordering::Relaxed) < half {
            std::thread::sleep(Duration::from_micros(200));
        }
        pool.publish(v2);
    });
    let [v1, v2] = scored.map(AtomicU64::into_inner);
    ClosedLoop {
        served: (clients * per_client) as u64,
        scored_v1: v1,
        scored_v2: v2,
        dropped: dropped.into_inner(),
        elapsed_secs: t0.elapsed().as_secs_f64(),
    }
}

pub(crate) fn serve(x: &Ctx) -> String {
    let (args, telemetry) = (x.args, x.telemetry);
    eprintln!("[paper serve] training snapshot versions 1 and 2 ...");
    let ds = dataset(args.seed);
    let fc = FeatureConfig::from_dataset(&ds);
    let v1 = train_snapshot(&ds, x.cfg.epochs, 1, args.seed);
    let v2 = train_snapshot(&ds, x.cfg.epochs, 2, args.seed ^ 0xBEEF);
    let n_domains = ds.n_domains();

    let pool = ReplicatedServer::start(
        v1,
        args.replicas,
        pool_config(args.threads.clamp(1, 8)),
        telemetry.registry(),
        telemetry.tracer(),
    );
    let digest = probe_digest(&pool, &fc, n_domains);

    let total_requests = ((1_000.0 * args.scale).round() as usize).max(100);
    let clients = args.threads.max(1);
    eprintln!(
        "[paper serve] {total_requests} requests, {clients} closed-loop clients, {} replica(s), hot swap at 50% ...",
        pool.n_replicas()
    );
    let ClosedLoop { served, scored_v1: n1, scored_v2: n2, dropped: bad, elapsed_secs: elapsed } =
        closed_loop(&pool, &fc, n_domains, total_requests, clients, v2);
    eprintln!("[paper serve] swapped to v{} mid-run", pool.current_version());
    let qps = served as f64 / elapsed;
    let engine = pool.engine(0);
    let lat = engine.metrics().latency_seconds.snapshot();
    let batch = engine.metrics().batch_size.snapshot();
    let queue_wait = engine.metrics().queue_wait_us.snapshot();
    let compute = engine.metrics().batch_compute_us.snapshot();

    let mut out = [
        format!(
            "paper serve: {served} requests, {clients} clients, replicas={}, threads={}",
            pool.n_replicas(),
            args.threads
        ),
        format!("  qps          {qps:.1}"),
        format!("  p50_latency  {:.1} us", lat.p50 * 1e6),
        format!("  p99_latency  {:.1} us", lat.p99 * 1e6),
        format!("  queue_wait   p50 {:.1} us  p99 {:.1} us", queue_wait.p50, queue_wait.p99),
        format!("  batch_compute p50 {:.1} us  p99 {:.1} us", compute.p50, compute.p99),
        format!(
            "  batch_size   p50 {:.1}  p99 {:.1}  mean {:.2}",
            batch.p50,
            batch.p99,
            batch.mean()
        ),
        format!("  versions     v1={n1} v2={n2}"),
        format!("  probe_digest 0x{digest:016x}"),
        format!("  dropped      {bad}\n"),
    ]
    .join("\n");

    if let Some(tracer) = telemetry.tracer() {
        if args.phase_summary {
            out += &format!("  phase attribution (wall {elapsed:.3} s):\n");
            out += &render_phase_table(&tracer, elapsed);
        }
        // Mean shares of the request lifecycle, from the span chain: wait
        // (queue + coalesce) vs score vs respond per request.
        let request = tracer.phase("serve.request");
        let score = tracer.phase("serve.score");
        if request.count > 0 {
            out += &format!(
                "  attribution  score {:.1}% of request lifecycle ({} request spans)\n",
                100.0 * score.total_secs / request.total_secs.max(1e-9),
                request.count
            );
        }
    }

    telemetry.log().emit(
        "paper_serve",
        &[
            ("requests", Value::from(served)),
            ("clients", Value::from(clients as u64)),
            ("replicas", Value::from(pool.n_replicas() as u64)),
            ("qps", Value::from(qps)),
            ("p50_seconds", Value::from(lat.p50)),
            ("p99_seconds", Value::from(lat.p99)),
            ("queue_wait_p50_us", Value::from(queue_wait.p50)),
            ("queue_wait_p99_us", Value::from(queue_wait.p99)),
            ("batch_compute_p50_us", Value::from(compute.p50)),
            ("batch_compute_p99_us", Value::from(compute.p99)),
            ("batch_p50", Value::from(batch.p50)),
            ("batch_p99", Value::from(batch.p99)),
            ("scored_v1", Value::from(n1)),
            ("scored_v2", Value::from(n2)),
            ("probe_digest", Value::from(format!("0x{digest:016x}"))),
            ("dropped", Value::from(bad)),
        ],
    );

    if bad > 0 || n1 + n2 != served {
        x.fail(format!("{bad} dropped/incorrect of {served}"));
    } else if n2 == 0 {
        // The swap landed after the last response — the zero-loss guarantee
        // was still exercised, but flag it for the log.
        eprintln!("[paper serve] note: swap landed after all responses (no v2 scores)");
    }
    out
}
