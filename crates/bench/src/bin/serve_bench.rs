//! `serve_bench` — load generator for the `mamdr-serve` subsystem, closed-
//! and open-loop.
//!
//! Trains a tiny MLP under MAMDR, freezes it into serving snapshot v1 (and
//! a retrained v2), then drives a pool of `--replicas` serving stacks
//! behind the deterministic user router. The model is hot-swapped to v2
//! mid-run **while requests are in flight**; the binary fails (exit 1) if
//! any request is dropped, rejected unexpectedly, or answered by an
//! unknown snapshot version.
//!
//! Two load modes:
//!
//! * **Closed loop** (default): `--threads` clients, each submitting the
//!   next request when the previous one answers. Measures best-case
//!   latency; cannot see overload (the offered rate adapts to capacity).
//! * **Open loop** (`--open-loop`): a seeded trace (Zipf users/domains,
//!   diurnal Poisson arrivals, interactive/bulk SLO split from
//!   `mamdr-load`) submits on the trace clock at `--rate` rps for
//!   `--duration` seconds regardless of completions. Overload fills the
//!   bounded queues and sheds — typed per class — and the binary asserts
//!   the accounting identities `submitted = admitted + shed + rejected`
//!   and `admitted = scored + deadline + invalid` per class, failing on
//!   any silent drop.
//!
//! Both modes print a `probe_digest`: an FNV-1a digest over the scores of
//! a fixed probe set served through the pool before the run. The digest is
//! invariant across `--replicas` and `--threads` (which also sets the
//! worker count per replica, and so how requests are batched) —
//! bit-identical scoring is a hard guarantee, and CI diffs it across
//! configurations.
//!
//! Knobs: `--scale` multiplies the closed-loop request count (default
//! 1 000), `--threads` sets the client count, the kernel pool and the
//! scoring workers per replica (at most 8), `--replicas` the serving-stack
//! count, `--rate`/`--duration` the open-loop trace, `--quick` caps
//! training epochs and shrinks the default trace. `--metrics-out`,
//! `--trace-out`, `--phase-summary`, `--introspect-addr` as everywhere
//! else.

use mamdr_bench::serve::{dataset, probe_digest, train_snapshot};
use mamdr_bench::{render_phase_table, BenchArgs, BenchTelemetry};
use mamdr_load::{run_open_loop, LoadOptions, TraceConfig, TraceGen};
use mamdr_models::FeatureConfig;
use mamdr_obs::Value;
use mamdr_serve::{
    ReplicatedServer, ScoreRequest, ServeConfig, ServeResult, ServingSnapshot, SloClass,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn main() {
    let args = BenchArgs::from_env();
    let telemetry = BenchTelemetry::from_args(&args);

    eprintln!("[serve_bench] training snapshot versions 1 and 2 ...");
    let ds = dataset(args.seed);
    let fc = FeatureConfig::from_dataset(&ds);
    let v1 = train_snapshot(&ds, args.epochs_or(3), 1, args.seed);
    let v2 = train_snapshot(&ds, args.epochs_or(3), 2, args.seed ^ 0xBEEF);
    let n_domains = ds.n_domains();

    let config = ServeConfig {
        queue_cap: 4096,
        // Bulk admission is bounded well below the global cap: a bulk
        // flood sheds (typed) long before it can crowd out interactive.
        class_caps: [0, 1024],
        n_workers: args.threads.clamp(1, 8),
        ..ServeConfig::default()
    };
    let pool = ReplicatedServer::start(
        v1,
        args.replicas,
        config,
        telemetry.registry(),
        telemetry.tracer(),
    );
    let digest = probe_digest(&pool, &fc, n_domains);

    if args.open_loop {
        run_open(&args, &telemetry, &pool, &fc, n_domains, v2, digest);
    } else {
        run_closed(&args, &telemetry, &pool, &fc, n_domains, v2, digest);
    }
}

/// The trace-driven open-loop mode.
fn run_open(
    args: &BenchArgs,
    telemetry: &BenchTelemetry,
    pool: &ReplicatedServer,
    fc: &FeatureConfig,
    n_domains: usize,
    v2: ServingSnapshot,
    digest: u64,
) {
    let rate = if args.rate > 0.0 {
        args.rate
    } else if args.quick {
        4_000.0
    } else {
        60_000.0
    };
    let duration = if args.duration > 0.0 {
        args.duration
    } else if args.quick {
        0.5
    } else {
        18.0
    };
    let mut trace_cfg = TraceConfig::new(args.seed, rate, duration);
    trace_cfg.n_domains = n_domains;
    trace_cfg.n_users = fc.n_users as u32;
    trace_cfg.n_items = fc.n_items as u32;
    trace_cfg.n_user_groups = fc.n_user_groups as u32;
    trace_cfg.n_item_cats = fc.n_item_cats as u32;
    let trace = TraceGen::new(trace_cfg);

    let opts = LoadOptions {
        // Interactive traffic carries a deadline: under overload the
        // workers answer what they can no longer serve in time without
        // scoring it (counted in serve_deadline_expired_total). Bulk waits
        // as long as it takes.
        deadline: [Some(Duration::from_millis(20)), None],
        time_scale: 1.0,
    };
    let swap_at_us = (duration * 1e6 / 2.0) as u64;
    eprintln!(
        "[serve_bench] open loop: {rate:.0} rps for {duration}s (~{:.0} requests), \
         {} replica(s), hot swap at trace t={:.1}s ...",
        rate * duration,
        pool.n_replicas(),
        duration / 2.0
    );

    let mut v2_slot = Some(v2);
    let retired_version = AtomicU64::new(u64::MAX);
    let report = run_open_loop(pool, trace, &opts, Some(swap_at_us), |at_us| {
        if let Some(next) = v2_slot.take() {
            let retired = pool.publish(next);
            retired_version.store(retired, Ordering::Relaxed);
            eprintln!(
                "[serve_bench] swapped v{retired} -> v{} at trace t={:.3}s",
                pool.current_version(),
                at_us as f64 / 1e6
            );
        }
    });
    let retired = retired_version.load(Ordering::Relaxed);

    let engine = pool.engine(0);
    let batch = engine.metrics().batch_size.snapshot();
    let queue_wait = engine.metrics().queue_wait_us.snapshot();
    let compute = engine.metrics().batch_compute_us.snapshot();

    println!(
        "serve_bench[open]: rate={rate:.0} duration={duration}s replicas={} threads={}",
        pool.n_replicas(),
        args.threads
    );
    println!("  submitted    {}", report.submitted());
    println!("  scored       {}", report.scored());
    println!("  scored_qps   {:.1}", report.scored_qps());
    println!("  wall         {:.3} s", report.wall_secs);
    println!("  max_sched_lag {} us", report.max_sched_lag_us);
    for class in SloClass::ALL {
        let c = report.class(class);
        println!(
            "  class {:<11} submitted={} admitted={} scored={} shed={} rejected={} deadline={} invalid={} shed_rate={:.4} p50={:.1}us p99={:.1}us",
            class.label(),
            c.submitted,
            c.admitted,
            c.scored,
            c.shed_overload,
            c.rejected_full,
            c.deadline_expired,
            c.invalid,
            c.shed_rate(),
            c.latency_us.p50,
            c.latency_us.p99,
        );
    }
    println!("  batch_size   p50 {:.1}  p99 {:.1}  mean {:.2}", batch.p50, batch.p99, batch.mean());
    println!("  queue_wait   p50 {:.1} us  p99 {:.1} us", queue_wait.p50, queue_wait.p99);
    println!("  batch_compute p50 {:.1} us  p99 {:.1} us", compute.p50, compute.p99);
    let total_shed: u64 =
        report.classes.iter().map(|c| c.shed_overload + c.rejected_full + c.deadline_expired).sum();
    println!("  overload     total_shed={total_shed} (class sheds + queue-full + deadline)");
    println!("  versions_seen {:?}", report.versions_seen);
    println!("  swap         retired_version={retired}");
    println!("  probe_digest 0x{digest:016x}");
    println!("  accounting   {}", if report.accounting_ok() { "OK" } else { "VIOLATED" });

    let mut fields = vec![
        ("mode", Value::from("open_loop".to_string())),
        ("rate_rps", Value::from(rate)),
        ("duration_secs", Value::from(duration)),
        ("replicas", Value::from(pool.n_replicas() as u64)),
        ("submitted", Value::from(report.submitted())),
        ("scored", Value::from(report.scored())),
        ("scored_qps", Value::from(report.scored_qps())),
        ("wall_secs", Value::from(report.wall_secs)),
        ("batch_p50", Value::from(batch.p50)),
        ("batch_p99", Value::from(batch.p99)),
        ("probe_digest", Value::from(format!("0x{digest:016x}"))),
        ("accounting_ok", Value::from(report.accounting_ok())),
    ];
    for class in SloClass::ALL {
        let c = report.class(class);
        let l = class.label();
        fields.push((leak(format!("{l}_submitted")), Value::from(c.submitted)));
        fields.push((leak(format!("{l}_scored")), Value::from(c.scored)));
        fields.push((leak(format!("{l}_shed")), Value::from(c.shed_overload)));
        fields.push((leak(format!("{l}_rejected")), Value::from(c.rejected_full)));
        fields.push((leak(format!("{l}_deadline")), Value::from(c.deadline_expired)));
        fields.push((leak(format!("{l}_p50_us")), Value::from(c.latency_us.p50)));
        fields.push((leak(format!("{l}_p99_us")), Value::from(c.latency_us.p99)));
    }
    telemetry.log().emit("serve_bench_open", &fields);
    telemetry.finish();

    if !report.accounting_ok() {
        eprintln!("[serve_bench] FAILED: per-class accounting identity violated (silent drop)");
        std::process::exit(1);
    }
    if report.scored() == 0 {
        eprintln!("[serve_bench] FAILED: nothing scored");
        std::process::exit(1);
    }
}

/// One emitted field name lives for the rest of the process — a handful
/// per run, so leaking beats threading a string arena through the log.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The PR 3 closed-loop mode, generalized over the replica pool.
fn run_closed(
    args: &BenchArgs,
    telemetry: &BenchTelemetry,
    pool: &ReplicatedServer,
    fc: &FeatureConfig,
    n_domains: usize,
    v2: ServingSnapshot,
    digest: u64,
) {
    let total_requests = ((1_000.0 * args.scale).round() as usize).max(100);
    let clients = args.threads.max(1);
    eprintln!(
        "[serve_bench] {total_requests} requests, {clients} closed-loop clients, {} replica(s), hot swap at 50% ...",
        pool.n_replicas()
    );
    let per_client = total_requests.div_ceil(clients);
    let scored_v1 = AtomicU64::new(0);
    let scored_v2 = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (scored_v1, scored_v2, dropped, done) = (&scored_v1, &scored_v2, &dropped, &done);
            let pool = &pool;
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
                            ServeResult::Scored(r) if r.snapshot_version == 1 => {
                                scored_v1.fetch_add(1, Ordering::Relaxed);
                            }
                            ServeResult::Scored(r) if r.snapshot_version == 2 => {
                                scored_v2.fetch_add(1, Ordering::Relaxed);
                            }
                            other => {
                                eprintln!("[serve_bench] bad outcome: {other:?}");
                                dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(e) => {
                            eprintln!("[serve_bench] submission rejected: {e}");
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
        let retired = pool.publish(v2);
        eprintln!(
            "[serve_bench] swapped v{retired} -> v{} after {} responses",
            pool.current_version(),
            done.load(Ordering::Relaxed)
        );
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let served = clients * per_client;
    let (n1, n2, bad) = (
        scored_v1.load(Ordering::Relaxed),
        scored_v2.load(Ordering::Relaxed),
        dropped.load(Ordering::Relaxed),
    );
    let qps = served as f64 / elapsed;
    let engine = pool.engine(0);
    let lat = engine.metrics().latency_seconds.snapshot();
    let batch = engine.metrics().batch_size.snapshot();
    let queue_wait = engine.metrics().queue_wait_us.snapshot();
    let compute = engine.metrics().batch_compute_us.snapshot();

    println!(
        "serve_bench: {served} requests, {clients} clients, replicas={}, threads={}",
        pool.n_replicas(),
        args.threads
    );
    println!("  qps          {qps:.1}");
    println!("  p50_latency  {:.1} us", lat.p50 * 1e6);
    println!("  p99_latency  {:.1} us", lat.p99 * 1e6);
    println!("  queue_wait   p50 {:.1} us  p99 {:.1} us", queue_wait.p50, queue_wait.p99);
    println!("  batch_compute p50 {:.1} us  p99 {:.1} us", compute.p50, compute.p99);
    println!("  batch_size   p50 {:.1}  p99 {:.1}  mean {:.2}", batch.p50, batch.p99, batch.mean());
    println!("  versions     v1={n1} v2={n2}");
    println!("  probe_digest 0x{digest:016x}");
    println!("  dropped      {bad}");

    if let Some(tracer) = telemetry.tracer() {
        if args.phase_summary {
            println!("  phase attribution (wall {elapsed:.3} s):");
            print!("{}", render_phase_table(&tracer, elapsed));
        }
        // Mean shares of the request lifecycle, from the span chain: wait
        // (queue + coalesce) vs score vs respond per request.
        let request = tracer.phase("serve.request");
        let score = tracer.phase("serve.score");
        if request.count > 0 {
            println!(
                "  attribution  score {:.1}% of request lifecycle ({} request spans)",
                100.0 * score.total_secs / request.total_secs.max(1e-9),
                request.count
            );
        }
    }

    telemetry.log().emit(
        "serve_bench",
        &[
            ("requests", Value::from(served as u64)),
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
    telemetry.finish();

    if bad > 0 || n1 + n2 != served as u64 {
        eprintln!("[serve_bench] FAILED: {bad} dropped/incorrect of {served}");
        std::process::exit(1);
    }
    if n2 == 0 {
        // The swap landed after the last response — the zero-loss guarantee
        // was still exercised, but flag it for the log.
        eprintln!("[serve_bench] note: swap landed after all responses (no v2 scores)");
    }
}
