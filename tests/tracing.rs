//! Tracing contract tests: attaching a tracer must never change a result
//! (neutrality), and the spans it records must form the documented
//! cross-layer structure — worker-side logical RPC spans parenting
//! server-side handling spans across the wire, retries grouped as attempt
//! children under one logical span, and serve requests leaving complete
//! lifecycle chains.

use mamdr::data::{presets, DomainSpec, GeneratorConfig, MdrDataset};
use mamdr::obs::{MetricsRegistry, SpanRecord, Tracer};
use mamdr::ps::{checkpoint, DistributedConfig, DistributedMamdr};
use mamdr::rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, RetryPolicy};
use mamdr::serve::{ScoreRequest, ScoringEngine, ServeConfig, ServeResult, Server};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut cfg = GeneratorConfig::base("tracing", 60, 40, 23);
    cfg.domains = (0..4).map(|i| DomainSpec::new(format!("d{i}"), 200, 0.3)).collect();
    cfg.generate()
}

fn train_config() -> DistributedConfig {
    DistributedConfig {
        n_workers: 2,
        epochs: 2,
        sync_rounds: true,
        kernel_threads: 1,
        ..Default::default()
    }
}

/// Byte-exact snapshot of a store (checkpoint::save sorts rows, so equal
/// parameters mean equal bytes).
fn snapshot_bytes(ps: &mamdr::ps::ParameterServer, dim: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    checkpoint::save(ps, dim, &mut buf).unwrap();
    buf
}

struct LoopbackRun {
    report: mamdr::ps::DistributedReport,
    store_bytes: Vec<u8>,
    counters: std::collections::BTreeMap<String, u64>,
}

fn run_loopback(ds: &MdrDataset, plan: Option<&str>, tracer: Option<Arc<Tracer>>) -> LoopbackRun {
    run_loopback_with(ds, train_config(), plan, tracer)
}

fn run_loopback_with(
    ds: &MdrDataset,
    cfg: DistributedConfig,
    plan: Option<&str>,
    tracer: Option<Arc<Tracer>>,
) -> LoopbackRun {
    let metrics = Arc::new(MetricsRegistry::new());
    let loopback = LoopbackConfig {
        fault: plan.map(|s| FaultPlan::parse(s).unwrap()),
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        tracer,
        ..LoopbackConfig::new(cfg)
    };
    let mut trainer = DistributedTrainer::new(ds, loopback, Arc::clone(&metrics)).unwrap();
    let report = trainer.train(ds).unwrap();
    let store_bytes = snapshot_bytes(trainer.store(), cfg.dim);
    trainer.shutdown();
    LoopbackRun { report, store_bytes, counters: metrics.counter_values().into_iter().collect() }
}

/// Asserts the two runs produced the same math and the same wire traffic.
fn assert_runs_identical(traced: &LoopbackRun, untraced: &LoopbackRun) {
    assert_eq!(traced.report.mean_auc.to_bits(), untraced.report.mean_auc.to_bits());
    assert_eq!(traced.report.round_losses, untraced.report.round_losses);
    assert_eq!(traced.report.pulls, untraced.report.pulls);
    assert_eq!(traced.report.pushes, untraced.report.pushes);
    assert_eq!(traced.report.total_bytes, untraced.report.total_bytes);
    assert_eq!(traced.store_bytes, untraced.store_bytes, "parameters diverged under tracing");
    // Every wire counter the untraced run produced must be reproduced
    // exactly — the trace extension is stripped before byte accounting,
    // so even rpc_bytes_in_total is unchanged. The traced run may add
    // tracing-only counters (rpc_trace_bytes_total); nothing else.
    for (name, value) in &untraced.counters {
        assert_eq!(traced.counters.get(name), Some(value), "counter {name} diverged under tracing");
    }
    for name in traced.counters.keys() {
        assert!(
            untraced.counters.contains_key(name) || name == "rpc_trace_bytes_total",
            "unexpected tracing-only counter {name}"
        );
    }
}

/// Index the ring by span id for parent lookups.
fn by_id(spans: &[SpanRecord]) -> HashMap<u64, &SpanRecord> {
    spans.iter().map(|s| (s.span_id, s)).collect()
}

#[test]
fn fault_free_tracing_is_neutral_and_spans_parent_across_the_wire() {
    let ds = dataset();
    let untraced = run_loopback(&ds, None, None);
    let tracer = Arc::new(Tracer::new());
    let traced = run_loopback(&ds, None, Some(Arc::clone(&tracer)));

    assert_runs_identical(&traced, &untraced);
    assert_eq!(traced.counters.get("rpc_retries_total").copied().unwrap_or(0), 0);

    // Cross-wire parenting: each server-side handling span is a child of
    // the worker-side logical span whose frame carried its trace context.
    let spans = tracer.recent_spans(usize::MAX);
    let index = by_id(&spans);
    let expected_parent = |server: &str| match server {
        "server.pull" => "rpc.pull",
        "server.apply" => "rpc.push",
        other => panic!("unexpected server span {other}"),
    };
    let mut linked = 0;
    for span in spans.iter().filter(|s| s.name.starts_with("server.")) {
        if span.name == "server.checkpoint" || span.name == "server.shutdown" {
            continue;
        }
        assert_ne!(span.parent_id, 0, "{} span arrived without a trace context", span.name);
        // The ring is bounded; a parent evicted before export cannot be
        // checked, but every parent still present must match.
        if let Some(parent) = index.get(&span.parent_id) {
            assert_eq!(parent.name, expected_parent(span.name));
            assert_eq!(parent.trace_id, span.trace_id);
            linked += 1;
        }
    }
    // Batched protocol v2: one prefetch pull per (epoch, worker), plus one
    // push batch per accepted worker — 2 epochs × 2 workers × 2 = 8 linked
    // pairs.
    assert!(linked >= 8, "only {linked} server spans linked to their logical client spans");

    // The round structure is there too: one `round` span per epoch, one
    // `worker.round` per (epoch, worker).
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("round"), 2);
    assert_eq!(count("worker.round"), 4);
    assert_eq!(count("round.apply"), 2);
    assert_eq!(count("round.evaluate"), 1);
    // Hot-path wire costs are aggregated as phases, not ring spans.
    assert!(tracer.phase("wire.encode").count > 0);
    assert!(tracer.phase("wire.decode").count > 0);
    assert!(tracer.phase("round.pull").count == 4);
    assert!(tracer.phase("round.compute").count == 4);
}

#[test]
fn faulted_tracing_is_neutral_and_groups_retries_under_one_logical_span() {
    let ds = dataset();
    // Protocol v2 sends far fewer frames than the single-row protocol, so
    // the per-frame fault probabilities are higher to keep every fault
    // class represented (retries, dedups, duplicates, a disconnect).
    let plan = "seed=11,drop_send=0.05,drop_recv=0.1,dup=0.4,disconnect=3";
    let untraced = run_loopback(&ds, Some(plan), None);
    let tracer = Arc::new(Tracer::new());
    let traced = run_loopback(&ds, Some(plan), Some(Arc::clone(&tracer)));

    // The seeded fault stream is consumed identically with tracing on:
    // same retries, same dedups, same disconnects, same frame count.
    assert_runs_identical(&traced, &untraced);
    assert!(untraced.counters["rpc_retries_total"] > 0);
    assert!(untraced.counters["rpc_push_deduped_total"] > 0);
    assert!(
        traced.counters["rpc_trace_bytes_total"] > 0,
        "trace extensions should be accounted separately"
    );

    let spans = tracer.recent_spans(usize::MAX);
    let index = by_id(&spans);

    // Retries re-send the same frame under the same logical span: at
    // least one logical RPC span must own two or more attempt children.
    let mut attempts_per_logical: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.name == "rpc.attempt") {
        assert_ne!(span.parent_id, 0);
        *attempts_per_logical.entry(span.parent_id).or_default() += 1;
    }
    let retried = attempts_per_logical.values().filter(|&&n| n >= 2).count();
    assert!(retried > 0, "faulted run recorded no multi-attempt logical spans");

    // A deduplicated push is visible server-side: its apply span carries
    // `deduped=1` and still parents to the client's one logical push span.
    let mut deduped_seen = 0;
    for span in spans.iter().filter(|s| s.name == "server.apply") {
        if span.attrs.iter().any(|&(k, v)| k == "deduped" && v == 1) {
            if let Some(parent) = index.get(&span.parent_id) {
                assert_eq!(parent.name, "rpc.push");
                assert_eq!(parent.trace_id, span.trace_id);
            }
            deduped_seen += 1;
        }
    }
    assert!(deduped_seen > 0, "no server.apply span marked deduped under a dup/retry plan");
}

/// `dist_bench --quick --seed 7` under its fault plan, traced: the span
/// tree has the exact shape the seeded run produces, and the wire ledger
/// is the untraced one (`tests/rpc_distributed.rs` pins the same values).
#[test]
fn the_traced_drill_run_has_an_exact_span_tree_and_the_untraced_ledger() {
    let ds = presets::industry(4, 300, 7);
    let cfg = DistributedConfig { n_workers: 2, epochs: 3, seed: 7, ..train_config() };
    let plan = "seed=7,drop_send=0.05,drop_recv=0.1,dup=0.4,disconnect=3";
    let tracer = Arc::new(Tracer::new());
    let run = run_loopback_with(&ds, cfg, Some(plan), Some(Arc::clone(&tracer)));
    assert_eq!(run.counters["rpc_frames_total"], 20);
    assert_eq!(run.counters["rpc_retries_total"], 2);
    assert_eq!(run.counters["rpc_push_applied_total"], 2397);

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for span in tracer.recent_spans(usize::MAX) {
        *counts.entry(span.name).or_default() += 1;
    }
    let expected = BTreeMap::from([
        ("round", 3), // one per epoch
        ("round.partition", 3),
        ("round.workers", 3),
        ("round.apply", 3),
        ("round.evaluate", 1),
        ("worker.round", 6), // epochs x workers
        ("rpc.pull", 6),     // one prefetch per (epoch, worker)
        ("rpc.push", 6),     // one gradient batch per accepted worker
        ("rpc.attempt", 14), // wire attempts, the 2 retries included
        ("server.pull", 10), // pulls re-served after dropped or duplicated frames
        ("server.apply", 9), // 6 applies + 3 batch dedups
    ]);
    assert_eq!(counts, expected);
}

#[test]
fn in_process_trainer_is_bit_identical_with_tracing_attached() {
    let ds = dataset();
    let cfg = train_config();

    let plain = DistributedMamdr::new(&ds, cfg);
    let baseline = plain.train(&ds);

    let tracer = Arc::new(Tracer::new());
    let traced_trainer = DistributedMamdr::new(&ds, cfg).with_tracer(Some(Arc::clone(&tracer)));
    let traced = traced_trainer.train(&ds);

    assert_eq!(traced.mean_auc.to_bits(), baseline.mean_auc.to_bits());
    assert_eq!(traced.round_losses, baseline.round_losses);
    assert_eq!(traced.pulls, baseline.pulls);
    assert_eq!(traced.pushes, baseline.pushes);
    assert_eq!(
        snapshot_bytes(traced_trainer.server(), cfg.dim),
        snapshot_bytes(plain.server(), cfg.dim),
        "in-process parameters diverged under tracing"
    );

    let spans = tracer.recent_spans(usize::MAX);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("round"), cfg.epochs);
    assert_eq!(count("worker.round"), cfg.epochs * cfg.n_workers);
    assert_eq!(count("round.evaluate"), 1);
    // Every worker.round belongs to its epoch's round span.
    let index = by_id(&spans);
    for span in spans.iter().filter(|s| s.name == "worker.round") {
        let parent = index[&span.parent_id];
        assert_eq!(parent.name, "round.workers");
        assert_eq!(index[&parent.parent_id].name, "round");
    }
}

/// Trains a tiny model and freezes it into a serving snapshot (training is
/// seeded, so two calls with the same seed yield identical snapshots).
fn tiny_snapshot(version: u64) -> (mamdr::models::FeatureConfig, mamdr::serve::ServingSnapshot) {
    use mamdr::core::{FrameworkKind, TrainConfig, TrainEnv};
    use mamdr::models::{build_model, FeatureConfig, ModelConfig, ModelKind};

    let mut gen = GeneratorConfig::base("tracing-serve", 60, 40, 5);
    gen.domains = vec![DomainSpec::new("a", 300, 0.3), DomainSpec::new("b", 200, 0.4)];
    let ds = gen.generate();
    let fc = FeatureConfig::from_dataset(&ds);
    let mc = ModelConfig::tiny();
    let built = build_model(ModelKind::Mlp, &fc, &mc, ds.n_domains(), 5);
    let cfg = TrainConfig::quick().with_seed(5);
    let mut env = TrainEnv::new(&ds, built.model.as_ref(), built.params, cfg);
    let trained = FrameworkKind::Mamdr.build().train(&mut env);
    let spec = mamdr::serve::ModelSpec {
        kind: ModelKind::Mlp,
        features: fc,
        config: mc,
        n_domains: ds.n_domains(),
    };
    (fc, mamdr::serve::ServingSnapshot::from_trained(version, spec, trained).unwrap())
}

fn serve_scores(engine: Arc<ScoringEngine>, fc: &mamdr::models::FeatureConfig) -> Vec<u32> {
    let server = Server::start(engine, ServeConfig::default());
    let pending: Vec<_> = (0..64u32)
        .map(|i| {
            let req = ScoreRequest::new(
                (i % 2) as usize,
                (i * 7) % fc.n_users as u32,
                (i * 3) % fc.n_items as u32,
                i % fc.n_user_groups as u32,
                i % fc.n_item_cats as u32,
            );
            server.submit(req, None).expect("admitted")
        })
        .collect();
    let scores = pending
        .iter()
        .map(|p| match p.wait() {
            ServeResult::Scored(r) => r.score.to_bits(),
            other => panic!("expected score, got {other:?}"),
        })
        .collect();
    server.shutdown();
    scores
}

#[test]
fn serve_tracing_is_neutral_and_records_complete_request_chains() {
    let registry = MetricsRegistry::new();
    let (fc, snap) = tiny_snapshot(1);
    let untraced_scores = serve_scores(Arc::new(ScoringEngine::new(snap, &registry)), &fc);

    let tracer = Arc::new(Tracer::new());
    let (_, snap) = tiny_snapshot(1);
    let engine =
        Arc::new(ScoringEngine::new(snap, &registry).with_tracer(Some(Arc::clone(&tracer))));
    let traced_scores = serve_scores(Arc::clone(&engine), &fc);
    assert_eq!(traced_scores, untraced_scores, "scores diverged under tracing");

    // A hot swap is recorded as its own span with the version attributes.
    let (_, v2) = tiny_snapshot(2);
    let _ = engine.publish(v2);

    let spans = tracer.recent_spans(usize::MAX);
    let index = by_id(&spans);
    let chains: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "serve.request").collect();
    assert_eq!(chains.len(), 64, "every scored request leaves one serve.request span");
    for root in &chains {
        assert_eq!(root.parent_id, 0);
        // Each request's chain tiles its lifecycle with the four stages,
        // all children of the request root within one trace.
        for stage in ["serve.queue", "serve.coalesce", "serve.score", "serve.respond"] {
            let n = spans
                .iter()
                .filter(|s| {
                    s.name == stage && s.parent_id == root.span_id && s.trace_id == root.trace_id
                })
                .count();
            assert_eq!(n, 1, "request {} missing stage {stage}", root.span_id);
        }
    }
    // Stage spans never dangle: every one belongs to a recorded root.
    for span in spans.iter().filter(|s| s.name.starts_with("serve.") && s.parent_id != 0) {
        assert_eq!(index[&span.parent_id].name, "serve.request");
    }
    let swaps: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "serve.swap").collect();
    assert_eq!(swaps.len(), 1);
    assert!(swaps[0].attrs.contains(&("version", 2)));
    assert!(swaps[0].attrs.contains(&("retired_version", 1)));
}
