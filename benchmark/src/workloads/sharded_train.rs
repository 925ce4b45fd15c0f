//! `sharded_train` — `rpc::DistributedTrainer`, 2 workers × 2 shards over
//! loopback TCP on `industry(64, H)`, checkpoint every R/4 rounds; closed
//! loop, fixed work.
//!
//! Time goes to `ps::kv` pull/apply, `WorkerCache`, `rpc::frame`
//! encode/decode, sockets and checkpoints; the model is the analytic
//! embedding scorer, so tensor and autodiff do almost nothing — the mirror
//! image of `dense_train`. Uses the kv store for reads **and** writes.
//!
//! Unit of work: one training interaction (`throughput_per_s`) and one
//! sync round (`latency_*`: train wall ÷ rounds — the untraced trainer
//! offers no per-round hook). Train wall excludes the final evaluation,
//! which is timed by repeating the same public call on the same store.

use super::overhead_share;
use crate::frozen::{
    sharded_rounds, MEASURED_REPS, SHARDED_BASELINE_ROUNDS, SHARDED_DOMAINS, SHARDED_HEAD_SAMPLES,
    SHARDED_MIN_AUC, SHARDED_SHARDS, SHARDED_WORKERS,
};
use crate::spans::timed;
use crate::{probes, repeat_setup, Ctx, Outcome, Repetitions};
use mamdr_data::{presets, MdrDataset, Split};
use mamdr_obs::{MetricsRegistry, Tracer};
use mamdr_ps::trainer::evaluate_server;
use mamdr_ps::{DistributedConfig, DistributedMamdr, DistributedReport};
use mamdr_rpc::{DistributedTrainer, LoopbackConfig, RetryPolicy};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn train_config(
    seed: u64,
    workers: usize,
    rounds: usize,
    shards: usize,
) -> DistributedConfig {
    DistributedConfig {
        n_workers: workers,
        epochs: rounds,
        sync_rounds: true,
        seed,
        kernel_threads: 1,
        route_shards: shards,
        ..Default::default()
    }
}

/// A loopback deployment that drains its servers when dropped (the
/// trainer itself has no `Drop`; a forgotten one leaks its accept loops).
pub(crate) struct Deployment {
    pub trainer: DistributedTrainer,
    pub registry: Arc<MetricsRegistry>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.trainer.shutdown();
    }
}

fn deploy(
    ds: &MdrDataset,
    seed: u64,
    rounds: usize,
    dir: Option<&Path>,
    tracer: Option<Arc<Tracer>>,
) -> Deployment {
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = LoopbackConfig {
        shards: SHARDED_SHARDS,
        retry: RetryPolicy { base_backoff_micros: 20, ..Default::default() },
        checkpoint_dir: dir.map(Path::to_path_buf),
        checkpoint_every: if dir.is_some() { rounds / 4 } else { 0 },
        tracer,
        ..LoopbackConfig::new(train_config(seed, SHARDED_WORKERS, rounds, SHARDED_SHARDS))
    };
    let trainer =
        DistributedTrainer::new(ds, cfg, Arc::clone(&registry)).expect("start loopback trainer");
    Deployment { trainer, registry }
}

struct Setup {
    ds: MdrDataset,
    generate_s: f64,
}

/// Dataset generation plus a throwaway deployment — bind, seed, two
/// discarded warm-up rounds, drain. Every measured repetition then gets a
/// deployment of its own, built off the clock.
fn setup(ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    let ds = presets::industry(SHARDED_DOMAINS, SHARDED_HEAD_SAMPLES, ctx.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut warm = deploy(&ds, ctx.seed, 2, None, None);
    warm.trainer.train(&ds).expect("warm-up rounds");
    Setup { ds, generate_s }
}

/// One timed `train` call, with the evaluation it ends on timed again by
/// itself and subtracted.
struct Trained {
    report: DistributedReport,
    train_s: f64,
}

fn train_timed(d: &mut Deployment, ds: &MdrDataset, out: &mut Outcome) -> Trained {
    let t0 = Instant::now();
    let report = d.trainer.train(ds).expect("loopback training completes");
    let total_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let auc = evaluate_server(&d.trainer.merged_store(), ds, Split::Test);
    let evaluate_s = t1.elapsed().as_secs_f64();
    out.check(auc.to_bits() == report.mean_auc.to_bits(), || {
        format!(
            "re-evaluating the merged store gave AUC {auc}, the report says {}",
            report.mean_auc
        )
    });
    Trained { report, train_s: total_s - evaluate_s }
}

/// The output checks every loopback run must pass.
fn check_run(out: &mut Outcome, d: &Deployment, t: &Trained, baseline: &DistributedReport) {
    let shared = baseline.round_losses.len().min(t.report.round_losses.len());
    let same = (0..shared)
        .all(|i| baseline.round_losses[i].to_bits() == t.report.round_losses[i].to_bits());
    out.check(same, || {
        format!(
            "loopback round losses diverge from the in-process baseline on the {shared} shared rounds: {:?} vs {:?}",
            &t.report.round_losses[..shared], &baseline.round_losses[..shared]
        )
    });
    let applied = d.registry.counter("rpc_push_applied_total").get();
    let deduped = d.registry.counter("rpc_push_deduped_total").get();
    out.check(applied == t.report.pushes, || {
        format!("{applied} pushes applied over the wire, the stores saw {}", t.report.pushes)
    });
    out.check(deduped == 0, || format!("{deduped} pushes deduplicated on a fault-free wire"));
    out.check(t.report.mean_auc > SHARDED_MIN_AUC, || {
        format!("final AUC {} is not above {SHARDED_MIN_AUC}", t.report.mean_auc)
    });
}

/// The per-round phase breakdown (from the repo's tracer) and wire counts
/// (from the registry) of one traced loopback run. `last_phase` is the
/// driver phase that closes a round in this deployment: the journal here,
/// the publish in `publish_live`.
pub(crate) fn report_rounds(
    out: &mut Outcome,
    tracer: &Tracer,
    registry: &MetricsRegistry,
    final_auc: f64,
    rounds: usize,
    last_phase: &str,
) {
    let per_round = |phase: &str| tracer.phase(phase).total_secs / rounds as f64;
    out.set("ps.round_s", per_round("round"));
    out.set("ps.worker_pull_s", per_round("round.pull"));
    out.set("ps.worker_compute_s", per_round("round.compute"));
    out.set("ps.apply_s", per_round("round.apply"));
    out.set("ps.evaluate_s", tracer.phase("round.evaluate").total_secs);
    // Σ driver phases ÷ round wall: what the tracer cannot explain is a bug.
    let explained = ["round.partition", "round.workers", "round.apply", last_phase]
        .iter()
        .map(|p| tracer.phase(p).total_secs)
        .sum::<f64>();
    out.set("ps.phase_closure", explained / tracer.phase("round").total_secs);
    out.set("ps.final_auc", final_auc);
    out.set("rpc.wire_encode_s", per_round("wire.encode"));
    out.set("rpc.wire_decode_s", per_round("wire.decode"));
    let count = |name: &str| registry.counter(name).get() as f64;
    out.set("rpc.frames_per_round", count("rpc_frames_total") / rounds as f64);
    out.set(
        "rpc.bytes_per_round",
        (count("rpc_bytes_in_total") + count("rpc_bytes_out_total")) / rounds as f64,
    );
    out.set("rpc.retries", count("rpc_retries_total"));
    out.set("rpc.deduped", count("rpc_push_deduped_total"));
    out.set("obs.spans_dropped", tracer.dropped() as f64);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let rounds = sharded_rounds(ctx.rep_seconds());
    let (s, setup_s) = repeat_setup(|| setup(ctx));
    out.set("setup_s", setup_s);
    let train_len = s.ds.split_len(Split::Train);
    out.counts.insert("train_interactions", train_len as u64);

    // The in-process synchronous trainer at the same worker count is the
    // ground truth the wire must be invisible against.
    let baseline_rounds = SHARDED_BASELINE_ROUNDS.min(rounds);
    let baseline_cfg = train_config(ctx.seed, SHARDED_WORKERS, baseline_rounds, SHARDED_SHARDS);
    let baseline_tracer = ctx.traced().then(|| Arc::new(Tracer::new()));
    let baseline = DistributedMamdr::new(&s.ds, baseline_cfg)
        .with_tracer(baseline_tracer.clone())
        .train(&s.ds);

    // Untraced repetitions: three for the end-to-end medians, one as the
    // traced run's reference.
    let mut reps = Repetitions::default();
    let mut first: Option<(Deployment, Trained)> = None;
    for _ in 0..if ctx.traced() { 1 } else { MEASURED_REPS } {
        let mut d = deploy(&s.ds, ctx.seed, rounds, Some(&ctx.scratch("sharded")), None);
        let t = train_timed(&mut d, &s.ds, &mut out);
        check_run(&mut out, &d, &t, &baseline);
        let round_us = t.train_s / rounds as f64 * 1e6;
        reps.push((train_len * rounds) as f64 / t.train_s, round_us, round_us);
        match &first {
            None => first = Some((d, t)),
            Some((_, t0)) => out.check(t.report.round_losses == t0.report.round_losses, || {
                "round losses differ between repetitions of one seed".into()
            }),
        }
    }
    let (deployment, measured) = first.expect("at least one repetition");
    out.counts.insert("ps.pushes", measured.report.pushes);
    out.counts.insert("ps.pulls", measured.report.pulls);
    out.counts.insert("rpc.frames", deployment.registry.counter("rpc_frames_total").get());
    out.counts.insert("auc_bits", measured.report.mean_auc.to_bits());
    drop(deployment);
    if !ctx.traced() {
        reps.report(&mut out);
        return out;
    }
    let round_s = measured.train_s / rounds as f64;

    // Traced repetition: same work on a fresh deployment with the repo's
    // tracer handed through the config fields that accept one.
    let spans = ctx.spans().expect("traced");
    let tracer = Arc::new(Tracer::new());
    let root = spans.alloc();
    let t_root = Instant::now();
    let dir = ctx.scratch("sharded-traced");
    let mut traced_dep = timed(Some(spans), "rpc.deploy", root, 0, |_| {
        deploy(&s.ds, ctx.seed, rounds, Some(&dir), Some(Arc::clone(&tracer)))
    });
    let traced =
        timed(Some(spans), "rpc.train", root, 0, |_| train_timed(&mut traced_dep, &s.ds, &mut out));
    spans.record_as(root, "sharded_train.repetition", 0, 0, t_root, Instant::now());
    check_run(&mut out, &traced_dep, &traced, &baseline);
    out.check(traced.report.round_losses == measured.report.round_losses, || {
        "traced and untraced loopback runs disagree on round losses".into()
    });

    report_rounds(
        &mut out,
        &tracer,
        &traced_dep.registry,
        traced.report.mean_auc,
        rounds,
        "round.journal",
    );
    out.set("ps.journal_s", tracer.phase("round.journal").total_secs / rounds as f64);
    let inproc_round_s =
        baseline_tracer.expect("traced").phase("round").total_secs / baseline_rounds as f64;
    out.set("ps.inproc_round_s", inproc_round_s);
    out.set("ps.cache_hit_ratio", traced.report.cache.hit_ratio());
    out.set("ps.max_staleness", traced.report.max_staleness as f64);
    out.set("ps.pulls", traced.report.pulls as f64);
    out.set("ps.pushes", traced.report.pushes as f64);
    out.set("ps.bytes_per_round", traced.report.total_bytes as f64 / rounds as f64);
    // Loopback ÷ in-process seconds per round, both from the tracer's
    // `round` spans.
    out.set("rpc.wire_gap", out.metrics["ps.round_s"] / inproc_round_s);
    out.set("data.generate_s", s.generate_s);
    out.set("obs.trace_overhead_share", overhead_share(round_s, traced.train_s / rounds as f64));
    out.counts.insert("rpc.frames_traced", traced_dep.registry.counter("rpc_frames_total").get());

    let dim = baseline_cfg.dim;
    probes::ps(&mut out, &s.ds, dim, ctx.seed);
    probes::rpc(&mut out, &s.ds, dim, ctx.seed);
    out
}
