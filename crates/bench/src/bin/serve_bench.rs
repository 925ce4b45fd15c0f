//! `serve_bench` — closed-loop load generator for the `mamdr-serve`
//! subsystem.
//!
//! Trains a tiny MLP under MAMDR, freezes it into serving snapshot v1 (and
//! a retrained v2), then drives a pool of `--replicas` serving stacks
//! behind the deterministic user router with `--threads` closed-loop
//! clients, each submitting its next request when the previous one
//! answers. The model is hot-swapped to v2 mid-run **while requests are in
//! flight**; the binary fails (exit 1) if any request is dropped, rejected,
//! or answered by an unknown snapshot version.
//!
//! It also prints a `probe_digest`: an FNV-1a digest over the scores of a
//! fixed probe set served through the pool before the run. The digest is
//! invariant across `--replicas` and `--threads` (which also sets the
//! worker count per replica, and so how requests are batched);
//! `crates/bench/tests/serve_probe_digest.rs` pins it, and
//! `crates/bench/tests/serve_closed_loop.rs` pins this run's request and
//! swap counts. Open-loop load (trace-scheduled arrivals, overload,
//! sheds) is the benchmark's `serve_steady` workload.
//!
//! Knobs: `--scale` multiplies the request count (default 1 000),
//! `--threads` sets the client count, the kernel pool and the scoring
//! workers per replica (at most 8), `--replicas` the serving-stack count,
//! `--quick` caps training epochs. `--metrics-out`, `--trace-out`,
//! `--phase-summary`, `--introspect-addr` as everywhere else.

use mamdr_bench::args::SERVE_BENCH_FLAGS;
use mamdr_bench::serve::{
    closed_loop, dataset, pool_config, probe_digest, train_snapshot, ClosedLoop,
};
use mamdr_bench::{render_phase_table, BenchArgs, BenchTelemetry};
use mamdr_models::FeatureConfig;
use mamdr_obs::Value;
use mamdr_serve::ReplicatedServer;

fn main() {
    let args = BenchArgs::from_args("serve_bench", SERVE_BENCH_FLAGS, std::env::args().skip(1));
    let telemetry = BenchTelemetry::from_args(&args);

    eprintln!("[serve_bench] training snapshot versions 1 and 2 ...");
    let ds = dataset(args.seed);
    let fc = FeatureConfig::from_dataset(&ds);
    let v1 = train_snapshot(&ds, args.epochs_or(3), 1, args.seed);
    let v2 = train_snapshot(&ds, args.epochs_or(3), 2, args.seed ^ 0xBEEF);
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
        "[serve_bench] {total_requests} requests, {clients} closed-loop clients, {} replica(s), hot swap at 50% ...",
        pool.n_replicas()
    );
    let ClosedLoop { served, scored_v1: n1, scored_v2: n2, dropped: bad, elapsed_secs: elapsed } =
        closed_loop(&pool, &fc, n_domains, total_requests, clients, v2);
    eprintln!("[serve_bench] swapped to v{} mid-run", pool.current_version());
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
    telemetry.finish();

    if bad > 0 || n1 + n2 != served {
        eprintln!("[serve_bench] FAILED: {bad} dropped/incorrect of {served}");
        std::process::exit(1);
    }
    if n2 == 0 {
        // The swap landed after the last response — the zero-loss guarantee
        // was still exercised, but flag it for the log.
        eprintln!("[serve_bench] note: swap landed after all responses (no v2 scores)");
    }
}
