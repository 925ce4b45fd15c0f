//! `dense_train` — `core::experiment::run` of MLP + MAMDR on taobao(10),
//! one process, closed loop, fixed work.
//!
//! ≥ 90 % of the time is tensor → autodiff → nn → models → core; ps, rpc
//! and serve do nothing. This is the workload on which a GEMM, tape or
//! optimizer change must show and a PS or wire change must not.
//!
//! Unit of work: one training interaction (`throughput_per_s`) and one
//! epoch (`latency_*`: train wall ÷ epochs — epochs are not individually
//! observable without attaching an observer, which is tracing). Every
//! repetition trains the same seed from scratch, so their AUC bits must
//! agree.

use super::overhead_share;
use crate::frozen::{
    dense_epochs, DENSE_KERNEL_THREADS, DENSE_LOSS_TARGET, DENSE_MIN_AUC, DENSE_TAOBAO_SCALE,
    MEASURED_REPS,
};
use crate::spans::{timed, Spans};
use crate::{probes, repeat_setup, Ctx, Outcome, Repetitions};
use mamdr_autodiff::{Tape, Var};
use mamdr_core::experiment::{self, run_observed};
use mamdr_core::{FrameworkKind, TrainConfig, TrainEnv};
use mamdr_data::{presets, Batch, MdrDataset, Split};
use mamdr_models::{build_model, CtrModel, FeatureConfig, ModelConfig, ModelKind};
use mamdr_nn::{ForwardCtx, ParamStore};
use mamdr_obs::{EpochEvent, TrainObserver};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The tables' hyper-parameters (`mamdr_bench::runner::table_config`).
fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig::bench()
        .with_epochs(epochs)
        .with_seed(seed)
        .with_outer_lr(0.5)
        .with_dr_lr(0.5)
        .with_dr_lookahead_batches(8)
        .with_threads(DENSE_KERNEL_THREADS)
}

/// What the observer hook sees: each epoch's mean loss, end instant and
/// the span id its forward passes were parented to.
#[derive(Default)]
struct EpochLog {
    epochs: Mutex<Vec<(f64, Instant, u32)>>,
    /// Span id of the epoch (or evaluation) currently running.
    current: AtomicU32,
}

struct EpochTap {
    log: Arc<EpochLog>,
    spans: Option<Arc<Spans>>,
}

impl TrainObserver for EpochTap {
    fn on_epoch_end(&mut self, e: &EpochEvent) {
        let done = self.log.current.load(Ordering::Relaxed);
        self.log.epochs.lock().expect("epoch log").push((e.mean_loss, Instant::now(), done));
        if let Some(s) = &self.spans {
            self.log.current.store(s.alloc(), Ordering::Relaxed);
        }
    }
}

/// A `CtrModel` that times the wrapped model's forward pass: the one
/// public seam through which a framework's model time is visible from
/// outside `TrainEnv`.
struct TimedModel {
    inner: Box<dyn CtrModel>,
    fwd_ns: AtomicU64,
    log: Arc<EpochLog>,
    spans: Arc<Spans>,
}

impl CtrModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(
        &self,
        ps: &ParamStore,
        tape: &mut Tape,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let t0 = Instant::now();
        let out = self.inner.forward(ps, tape, ctx, batch);
        let t1 = Instant::now();
        self.fwd_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        self.spans.record("models.forward", self.log.current.load(Ordering::Relaxed), 0, t0, t1);
        out
    }
}

struct Setup {
    ds: MdrDataset,
    generate_s: f64,
    /// Bits of the warm-up epoch's mean loss and of its AUC: the same seed
    /// must reproduce them exactly, repetition after repetition.
    warm_bits: (u64, u64),
}

/// Dataset generation plus a discarded one-epoch warm-up (first-touch
/// page faults, kernel pool spin-up).
fn setup(ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    let ds = presets::taobao(10, ctx.seed, DENSE_TAOBAO_SCALE);
    let generate_s = t0.elapsed().as_secs_f64();
    let log = Arc::new(EpochLog::default());
    let tap = EpochTap { log: Arc::clone(&log), spans: None };
    let warm = run_observed(
        &ds,
        ModelKind::Mlp,
        &ModelConfig::default(),
        FrameworkKind::Mamdr,
        train_config(ctx.seed, 1),
        Some(Box::new(tap)),
    );
    let loss = log.epochs.lock().expect("epoch log")[0].0;
    Setup { ds, generate_s, warm_bits: (loss.to_bits(), warm.mean_auc.to_bits()) }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut warm_bits = Vec::new();
    let (s, setup_s) = repeat_setup(|| {
        let s = setup(ctx);
        warm_bits.push(s.warm_bits);
        s
    });
    out.set("setup_s", setup_s);
    out.check(warm_bits.windows(2).all(|w| w[0] == w[1]), || {
        format!("warm-up loss/AUC bits differ between repetitions of one seed: {warm_bits:x?}")
    });
    let train_len = s.ds.split_len(Split::Train);
    out.counts.insert("train_interactions", train_len as u64);
    out.counts.insert("warm_loss_bits", s.warm_bits.0);

    if let Some(spans) = ctx.spans.clone() {
        traced(ctx, &s, spans, &mut out);
        return out;
    }
    let epochs = dense_epochs(ctx.rep_seconds());
    let mut reps = Repetitions::default();
    let mut auc_bits = Vec::new();
    for _ in 0..MEASURED_REPS {
        let r = experiment::run(
            &s.ds,
            ModelKind::Mlp,
            &ModelConfig::default(),
            FrameworkKind::Mamdr,
            train_config(ctx.seed, epochs),
        );
        // `wall_secs` is the time inside `Framework::train`: evaluation
        // excluded.
        let epoch_us = r.wall_secs / epochs as f64 * 1e6;
        reps.push((train_len * epochs) as f64 / r.wall_secs, epoch_us, epoch_us);
        auc_bits.push(r.mean_auc.to_bits());
        out.check(r.mean_auc > DENSE_MIN_AUC, || {
            format!("final AUC {} is not above {DENSE_MIN_AUC}", r.mean_auc)
        });
    }
    reps.report(&mut out);
    out.counts.insert("auc_bits", auc_bits[0]);
    out.check(auc_bits.windows(2).all(|w| w[0] == w[1]), || {
        format!("AUC bits differ between repetitions of one seed: {auc_bits:x?}")
    });
    out
}

/// One untraced reference repetition, one traced repetition (the body of
/// `experiment::run_observed`, with a timing model and an epoch tap in the
/// seams it offers) and the probes of the layers this workload exercises.
fn traced(ctx: &Ctx, s: &Setup, spans: Arc<Spans>, out: &mut Outcome) {
    let epochs = dense_epochs(ctx.rep_seconds());
    let cfg = train_config(ctx.seed, epochs);
    let model_cfg = ModelConfig::default();
    let reference = experiment::run(&s.ds, ModelKind::Mlp, &model_cfg, FrameworkKind::Mamdr, cfg);

    let sp = Some(spans.as_ref());
    let fc = FeatureConfig::from_dataset(&s.ds);
    let root = spans.alloc();
    let t_root = Instant::now();
    let built = timed(sp, "models.build", root, 0, |_| {
        build_model(ModelKind::Mlp, &fc, &model_cfg, s.ds.n_domains(), cfg.seed)
    });
    let log = Arc::new(EpochLog::default());
    let model = TimedModel {
        inner: built.model,
        fwd_ns: AtomicU64::new(0),
        log: Arc::clone(&log),
        spans: Arc::clone(&spans),
    };
    let mut env = TrainEnv::new(&s.ds, &model, built.params, cfg);
    env.attach_observer(Box::new(EpochTap {
        log: Arc::clone(&log),
        spans: Some(Arc::clone(&spans)),
    }));
    let framework = FrameworkKind::Mamdr.build();
    env.observe_train_start(framework.name());
    let train_id = spans.alloc();
    log.current.store(spans.alloc(), Ordering::Relaxed);
    let t0 = Instant::now();
    let trained = framework.train(&mut env);
    let t1 = Instant::now();
    env.observe_train_end();
    spans.record_as(train_id, "core.train", root, 0, t0, t1);
    let fwd_s_in_train = model.fwd_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let epoch_log = std::mem::take(&mut *log.epochs.lock().expect("epoch log"));
    let mut start = t0;
    for (i, &(_, end, id)) in epoch_log.iter().enumerate() {
        spans.record_as(id, "core.epoch", train_id, i as u64 + 1, start, end);
        start = end;
    }
    let t_eval = Instant::now();
    let aucs = timed(sp, "core.evaluate", root, 0, |id| {
        log.current.store(id, Ordering::Relaxed);
        env.evaluate(&trained, Split::Test)
    });
    let evaluate_s = t_eval.elapsed().as_secs_f64();
    spans.record_as(root, "dense_train.repetition", 0, 0, t_root, Instant::now());
    let mean_auc = mamdr_core::metrics::mean(&aucs);

    let train_s = (t1 - t0).as_secs_f64();
    let epoch_s = train_s / epochs as f64;
    out.set("core.epoch_s", epoch_s);
    out.set("core.evaluate_s", evaluate_s);
    out.set("core.final_auc", mean_auc);
    out.set("models.fwd_s_in_train", fwd_s_in_train);
    out.set("data.generate_s", s.generate_s);
    // First epoch (1-based) whose mean train loss is at or under the frozen
    // target; `epochs + 1` when this repetition never got there.
    let to_loss = epoch_log
        .iter()
        .position(|&(loss, _, _)| loss <= DENSE_LOSS_TARGET)
        .map_or(epochs + 1, |i| i + 1);
    out.set("core.epochs_to_loss", to_loss as f64);
    out.set("core.time_to_loss_s", to_loss as f64 * epoch_s);
    out.set(
        "obs.trace_overhead_share",
        overhead_share(reference.wall_secs / epochs as f64, epoch_s),
    );
    out.counts.insert("auc_bits", mean_auc.to_bits());
    out.counts.insert("epochs_to_loss", to_loss as u64);

    out.check(epoch_log.len() == epochs, || {
        format!("observer saw {} epochs, configured {epochs}", epoch_log.len())
    });
    out.check(mean_auc.to_bits() == reference.mean_auc.to_bits(), || {
        format!("traced AUC {mean_auc} != untraced AUC {} for the same seed", reference.mean_auc)
    });
    out.check(epoch_log.first().is_some_and(|e| e.0.to_bits() == s.warm_bits.0), || {
        "first-epoch loss differs from the warm-up's first-epoch loss".into()
    });
    out.check(mean_auc > DENSE_MIN_AUC, || {
        format!("final AUC {mean_auc} is not above {DENSE_MIN_AUC}")
    });

    let fresh = build_model(ModelKind::Mlp, &fc, &model_cfg, s.ds.n_domains(), cfg.seed);
    probes::tensor(out, &fc, &model_cfg);
    probes::models(out, &s.ds, fresh.model.as_ref(), &fresh.params);
    probes::nn(out, &fresh.params, cfg.inner);
    probes::data(out, &s.ds);
    // Every training forward is followed by its backward, so model time is
    // forward time scaled by the probe's forward+backward ÷ forward ratio;
    // what is left of the epoch is the framework's own (batching, flat
    // vectors, optimizer, DN/DR bookkeeping).
    let model_s = fwd_s_in_train / (1.0 - out.metrics["autodiff.bwd_share"]);
    out.set("core.framework_self_share", (train_s - model_s) / train_s);
}
