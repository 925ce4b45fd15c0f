//! Experiment orchestration: train a (model, framework) pair on a dataset
//! and collect per-domain AUCs — the unit of work every experiment of
//! `mamdr-bench`'s `paper` binary is built from.

use crate::config::TrainConfig;
use crate::env::TrainEnv;
use crate::frameworks::FrameworkKind;
use mamdr_data::{MdrDataset, Split};
use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr_obs::TrainObserver;

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Model architecture name.
    pub model: String,
    /// Learning-framework name.
    pub framework: String,
    /// Per-domain test AUC.
    pub domain_auc: Vec<f64>,
    /// Mean test AUC over domains.
    pub mean_auc: f64,
    /// Wall-clock seconds spent in `Framework::train`.
    pub wall_secs: f64,
}

/// A failed [`run_many`] job slot: which job died and the panic payload.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Model architecture name of the failed job.
    pub model: String,
    /// Learning-framework name of the failed job.
    pub framework: String,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job ({}, {}) panicked: {}", self.model, self.framework, self.message)
    }
}

impl std::error::Error for JobError {}

/// Trains `model_kind` under `framework_kind` on `ds` and evaluates
/// per-domain test AUC.
///
/// Deterministic given `cfg.seed` (model init, shuffling and dropout all
/// derive from it).
pub fn run(
    ds: &MdrDataset,
    model_kind: ModelKind,
    model_cfg: &ModelConfig,
    framework_kind: FrameworkKind,
    cfg: TrainConfig,
) -> RunResult {
    run_observed(ds, model_kind, model_cfg, framework_kind, cfg, None)
}

/// [`run`] with an optional telemetry observer attached to the training
/// environment. The observer receives train-start/epoch/train-end events;
/// it cannot change the result (same seed → bit-identical AUC with and
/// without one, asserted by the `observability` integration tests).
pub fn run_observed(
    ds: &MdrDataset,
    model_kind: ModelKind,
    model_cfg: &ModelConfig,
    framework_kind: FrameworkKind,
    cfg: TrainConfig,
    observer: Option<Box<dyn TrainObserver>>,
) -> RunResult {
    if cfg.threads > 0 {
        // Process-wide knob: results are bit-identical at any value (the
        // kernel layer's determinism contract), so applying it here can
        // never change what a sibling run computes — only how fast.
        mamdr_tensor::pool::set_threads(cfg.threads);
    }
    let fc = FeatureConfig::from_dataset(ds);
    let built = build_model(model_kind, &fc, model_cfg, ds.n_domains(), cfg.seed);
    let mut env = TrainEnv::new(ds, built.model.as_ref(), built.params, cfg);
    if let Some(obs) = observer {
        env.attach_observer(obs);
    }
    let framework = framework_kind.build();
    env.observe_train_start(framework.name());
    let t0 = std::time::Instant::now();
    let trained = framework.train(&mut env);
    let wall_secs = t0.elapsed().as_secs_f64();
    env.observe_train_end();
    let domain_auc = env.evaluate(&trained, Split::Test);
    let mean_auc = crate::metrics::mean(&domain_auc);
    RunResult {
        model: model_kind.name().to_string(),
        framework: framework_kind.name().to_string(),
        domain_auc,
        mean_auc,
        wall_secs,
    }
}

/// Runs several (model, framework, config) jobs in parallel threads.
///
/// The work items are independent; each gets its own model instance and
/// environment and trains under its own [`TrainConfig`], so a sweep over a
/// hyper-parameter or a seed is one call. Order of results matches order of
/// requests. A panic inside one job is caught and surfaced as a
/// [`JobError`] on that job's slot — sibling jobs run to completion
/// regardless.
pub fn run_many(
    ds: &MdrDataset,
    jobs: &[(ModelKind, FrameworkKind, TrainConfig)],
    model_cfg: &ModelConfig,
    max_threads: usize,
) -> Vec<Result<RunResult, JobError>> {
    run_many_observed(ds, jobs, model_cfg, max_threads, &|_| None)
}

/// [`run_many`] with a per-job observer factory: `make_observer(i)` runs on
/// the worker thread immediately before job `i` and its observer lives for
/// exactly that run. Factories typically hand out [`TelemetryObserver`]s
/// sharing one registry/log pair (both are thread-safe).
///
/// [`TelemetryObserver`]: mamdr_obs::TelemetryObserver
pub fn run_many_observed(
    ds: &MdrDataset,
    jobs: &[(ModelKind, FrameworkKind, TrainConfig)],
    model_cfg: &ModelConfig,
    max_threads: usize,
    make_observer: &(dyn Fn(usize) -> Option<Box<dyn TrainObserver>> + Sync),
) -> Vec<Result<RunResult, JobError>> {
    run_slots(
        jobs.len(),
        max_threads,
        |i| {
            let (mk, fk, _) = jobs[i];
            (mk.name().to_string(), fk.name().to_string())
        },
        |i| {
            let (mk, fk, cfg) = jobs[i];
            run_observed(ds, mk, model_cfg, fk, cfg, make_observer(i))
        },
    )
}

/// The scheduling/hardening core of [`run_many`]: executes `job` for each
/// slot index on up to `max_threads` worker threads, isolating panics to
/// the slot that raised them. `label` names a slot for error reporting and
/// must not panic.
fn run_slots<L, F>(
    n_jobs: usize,
    max_threads: usize,
    label: L,
    job: F,
) -> Vec<Result<RunResult, JobError>>
where
    L: Fn(usize) -> (String, String) + Sync,
    F: Fn(usize) -> RunResult + Sync,
{
    assert!(max_threads >= 1);
    let mut results: Vec<Option<Result<RunResult, JobError>>> = (0..n_jobs).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mx = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..max_threads.min(n_jobs) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i)))
                    .map_err(|payload| {
                        let (model, framework) = label(i);
                        JobError { model, framework, message: panic_message(payload.as_ref()) }
                    });
                // A sibling panicking between lock() and the store would
                // poison a plain unwrap; recover the guard instead so one
                // bad job can never take the whole batch down.
                let mut guard = results_mx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                guard[i] = Some(outcome);
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                let (model, framework) = label(i);
                Err(JobError {
                    model,
                    framework,
                    message: "worker thread died before storing a result".to_string(),
                })
            })
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_data::{DomainSpec, GeneratorConfig};

    fn dataset() -> MdrDataset {
        let mut cfg = GeneratorConfig::base("t", 100, 50, 13);
        cfg.conflict = 0.3;
        // 2000/1500 samples: at the original 800/600 the embeddings of 100
        // users x 50 items see too few updates to clear AUC 0.6 reliably.
        cfg.domains = vec![DomainSpec::new("a", 2000, 0.3), DomainSpec::new("b", 1500, 0.4)];
        cfg.generate()
    }

    #[test]
    fn run_produces_valid_aucs() {
        let ds = dataset();
        let r = run(
            &ds,
            ModelKind::Mlp,
            &ModelConfig::tiny(),
            FrameworkKind::Alternate,
            TrainConfig::quick(),
        );
        assert_eq!(r.domain_auc.len(), 2);
        assert!(r.domain_auc.iter().all(|a| (0.0..=1.0).contains(a)));
        assert_eq!(r.model, "MLP");
        assert_eq!(r.framework, "Alternate");
    }

    #[test]
    fn run_is_deterministic() {
        let ds = dataset();
        let a = run(
            &ds,
            ModelKind::Mlp,
            &ModelConfig::tiny(),
            FrameworkKind::Mamdr,
            TrainConfig::quick(),
        );
        let b = run(
            &ds,
            ModelKind::Mlp,
            &ModelConfig::tiny(),
            FrameworkKind::Mamdr,
            TrainConfig::quick(),
        );
        assert_eq!(a.domain_auc, b.domain_auc);
    }

    #[test]
    fn run_many_matches_run() {
        let ds = dataset();
        // Each job trains under its own config: a job that ran under its
        // sibling's config would show.
        let jobs = [
            (ModelKind::Mlp, FrameworkKind::Alternate, TrainConfig::quick()),
            (ModelKind::Mlp, FrameworkKind::Dn, TrainConfig::quick().with_seed(7).with_epochs(3)),
        ];
        let parallel = run_many(&ds, &jobs, &ModelConfig::tiny(), 2);
        let serial: Vec<_> =
            jobs.iter().map(|&(mk, fk, cfg)| run(&ds, mk, &ModelConfig::tiny(), fk, cfg)).collect();
        let swapped = run(&ds, ModelKind::Mlp, &ModelConfig::tiny(), FrameworkKind::Dn, jobs[0].2);
        assert_ne!(swapped.domain_auc, serial[1].domain_auc, "the two configs must differ");
        for (p, s) in parallel.iter().zip(&serial) {
            let p = p.as_ref().expect("job succeeded");
            assert_eq!(p.domain_auc, s.domain_auc, "{}", p.framework);
        }
    }

    #[test]
    fn a_panicking_job_does_not_take_siblings_down() {
        let ok = RunResult {
            model: "M".into(),
            framework: "F".into(),
            domain_auc: vec![0.5],
            mean_auc: 0.5,
            wall_secs: 0.0,
        };
        let results = run_slots(
            4,
            2,
            |i| (format!("model{i}"), format!("fw{i}")),
            |i| {
                if i == 1 {
                    panic!("job {i} exploded");
                }
                ok.clone()
            },
        );
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            if i == 1 {
                let e = r.as_ref().expect_err("slot 1 should fail");
                assert_eq!(e.model, "model1");
                assert_eq!(e.framework, "fw1");
                assert!(e.message.contains("exploded"), "{}", e.message);
                assert!(e.to_string().contains("model1"), "{e}");
            } else {
                assert_eq!(r.as_ref().expect("sibling survived").mean_auc, 0.5);
            }
        }
    }

    #[test]
    fn run_records_wall_clock() {
        let ds = dataset();
        let r = run(
            &ds,
            ModelKind::Mlp,
            &ModelConfig::tiny(),
            FrameworkKind::Alternate,
            TrainConfig::quick(),
        );
        assert!(r.wall_secs > 0.0, "wall clock not recorded");
    }

    #[test]
    fn trained_beats_untrained() {
        // Any reasonable framework should beat AUC 0.5 on this learnable
        // synthetic dataset.
        let ds = dataset();
        let mut cfg = TrainConfig::quick();
        cfg.epochs = 20;
        let r = run(&ds, ModelKind::Mlp, &ModelConfig::tiny(), FrameworkKind::Alternate, cfg);
        assert!(r.mean_auc > 0.6, "mean AUC {} not above chance", r.mean_auc);
    }
}
