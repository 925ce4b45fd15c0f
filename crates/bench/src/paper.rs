//! `paper <experiment>` — regenerates one table or figure of the MAMDR
//! paper's evaluation (§V), measures one of its systems claims (§III-C,
//! §IV-E over TCP, serving), or runs one of the reproduction's own checks.
//!
//! ```sh
//! cargo run --release -p mamdr-bench --bin paper                  # lists the experiments
//! cargo run --release -p mamdr-bench --bin paper -- table5        # documented scale
//! cargo run --release -p mamdr-bench --bin paper -- table5 --quick --seed 7
//! ```
//!
//! Each experiment is one row of `EXPERIMENTS`: its name, its title line,
//! its default epoch count, the flags it reads and a function that returns
//! what it prints. The tables and figures declare their training jobs
//! (label, model, framework, config) and render the results with one of the
//! shared renderers below; every job runs through `run_many_observed` on
//! `--threads` worker threads, with a `--metrics-out` observer and a
//! `result` event per job. `conflict`, `pscache`, `scaling`, `dist` and
//! `serve` keep their own bodies.

use crate::args::BenchArgs;
use crate::runner::{benchmark_datasets, effective_scale, expect_jobs, table_config};
use crate::{BenchTelemetry, TableBuilder};
use mamdr_core::conflict::measure_conflict;
use mamdr_core::env::TrainEnv;
use mamdr_core::experiment::{run_many_observed, RunResult};
use mamdr_core::frameworks::mamdr::domain_negotiation_epoch;
use mamdr_core::metrics::{average_rank, mean};
use mamdr_core::{FrameworkKind, TrainConfig};
use mamdr_data::{presets, DomainSpec, GeneratorConfig, MdrDataset, Split};
use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
use mamdr_nn::{vecmath, OptimizerKind};
use mamdr_obs::Value;
use mamdr_ps::{DistributedConfig, DistributedMamdr, SyncMode};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;
use FrameworkKind::*;

/// One experiment: `paper <name>` prints `=== <title> ===` (nothing for an
/// empty title) and then the text `run` returns.
pub(crate) struct Experiment {
    pub(crate) name: &'static str,
    title: &'static str,
    epochs: usize,
    /// The flags `run` reads, space-separated; `paper <name>` rejects any
    /// other.
    pub(crate) reads: &'static str,
    run: fn(&Ctx) -> String,
}

/// The flags a training experiment reads.
const TRAINS: &str = "--scale --epochs --threads --seed --quick --metrics-out";

#[rustfmt::skip]
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table5", epochs: 20, reads: TRAINS, run: table5,
        title: "Paper Table V: comparison with multi-domain recommendation methods" },
    Experiment { name: "table6", epochs: 20, reads: TRAINS, run: table6,
        title: "Paper Table VI: ablation study of DN and DR (MLP base model)" },
    Experiment { name: "table7", epochs: 20, reads: TRAINS, run: table7,
        title: "Paper Table VII: results of each domain on Amazon-6" },
    Experiment { name: "table8", epochs: 15, reads: TRAINS, run: table8,
        title: "Paper Table VIII: results on the industry dataset (avg AUC)" },
    Experiment { name: "table9", epochs: 15, reads: TRAINS, run: table9,
        title: "Paper Table IX: top-10 largest domains of the industry dataset" },
    Experiment { name: "table10", epochs: 15, reads: TRAINS, run: table10,
        title: "Paper Table X: comparison with other learning frameworks (Taobao-10)" },
    Experiment { name: "fig8", epochs: 12, reads: TRAINS, run: fig8,
        title: "Paper Fig. 8: results under different DR sample number k (Taobao-30)" },
    Experiment { name: "fig9", epochs: 12, reads: TRAINS, run: fig9,
        title: "Paper Fig. 9: DN results under different learning rates (Taobao-30)" },
    Experiment { name: "conflict", epochs: 8, reads: TRAINS, run: conflict,
        title: "Paper Fig. 3 / §III-B: gradient conflict across domains" },
    Experiment { name: "pscache", epochs: 3, reads: TRAINS, run: pscache,
        title: "Paper §IV-E: embedding PS-Worker cache ablation" },
    Experiment { name: "ablation", epochs: 18, reads: TRAINS, run: ablation,
        title: "Design-choice ablations (DESIGN.md §6, MLP+MAMDR on Taobao-10)" },
    // A development sweep, not a paper artifact: it prints its table only.
    Experiment { name: "tune", epochs: 25, reads: TRAINS, run: tune, title: "" },
    // Timings: the only experiment whose stdout differs from run to run.
    Experiment { name: "scaling", epochs: 1, reads: "--threads", run: scaling,
        title: "Paper §III-C: one DN epoch vs one PCGrad round against the domain count" },
    // The networked runtime and the serving tier; each prints its own
    // header line.
    Experiment { name: "dist", epochs: 3, run: crate::dist::dist, title: "",
        reads: "--scale --epochs --threads --seed --quick --metrics-out --workers --fault-plan \
            --checkpoint-every --checkpoint-dir --resume --trace-out --phase-summary \
            --introspect-addr --shards --preset" },
    Experiment { name: "serve", epochs: 3, run: crate::serve::serve, title: "",
        reads: "--scale --epochs --threads --seed --quick --metrics-out --trace-out \
            --phase-summary --introspect-addr --replicas" },
];

type Method = (&'static str, ModelKind, FrameworkKind);

/// Table V's methods: single-domain and multi-domain models, all trained
/// alternately, against MLP+MAMDR.
#[rustfmt::skip]
const TABLE5: &[Method] = &[
    ("MLP", ModelKind::Mlp, Alternate), ("WDL", ModelKind::Wdl, Alternate),
    ("NeurFM", ModelKind::NeurFm, Alternate), ("AutoInt", ModelKind::AutoInt, Alternate),
    ("DeepFM", ModelKind::DeepFm, Alternate), ("Shared-bottom", ModelKind::SharedBottom, Alternate),
    ("MMOE", ModelKind::Mmoe, Alternate), ("PLE", ModelKind::Ple, Alternate),
    ("Star", ModelKind::Star, Alternate), ("MLP+MAMDR", ModelKind::Mlp, Mamdr),
];

/// The DN/DR ablation variants of Tables VI and VII.
#[rustfmt::skip]
const VARIANTS: &[Method] = &[
    ("MLP+MAMDR (DN+DR)", ModelKind::Mlp, Mamdr), ("w/o DN", ModelKind::Mlp, Dr),
    ("w/o DR", ModelKind::Mlp, Dn), ("w/o DN+DR", ModelKind::Mlp, Alternate),
];

/// The industry methods of Tables VIII and IX.
#[rustfmt::skip]
const INDUSTRY: &[Method] = &[
    ("RAW", ModelKind::Raw, Alternate), ("MMOE", ModelKind::Mmoe, Alternate),
    ("CGC", ModelKind::Cgc, Alternate), ("PLE", ModelKind::Ple, Alternate),
    ("RAW+Separate", ModelKind::Raw, Separate), ("RAW+DN", ModelKind::Raw, Dn),
    ("RAW+MAMDR", ModelKind::Raw, Mamdr),
];

/// One training job: its row label and what `run_many_observed` trains.
type Job = (String, ModelKind, FrameworkKind, TrainConfig);

/// What an experiment's function works with.
pub(crate) struct Ctx<'a> {
    pub(crate) args: &'a BenchArgs,
    pub(crate) telemetry: &'a BenchTelemetry,
    /// `table_config` at the experiment's default epochs.
    pub(crate) cfg: TrainConfig,
    /// Why the run failed, if it did: `paper` still prints what `run`
    /// returned, then exits 1.
    failure: Cell<Option<String>>,
}

impl Ctx<'_> {
    /// Marks the run failed; the last reason given is reported.
    pub(crate) fn fail(&self, why: String) {
        self.failure.set(Some(why));
    }

    fn scale(&self) -> f64 {
        effective_scale(self.args)
    }

    /// The tables' config without their DR tuning, which `conflict` and
    /// `tune` start from.
    fn untuned(&self) -> TrainConfig {
        let a = self.args;
        TrainConfig::bench()
            .with_epochs(self.cfg.epochs)
            .with_outer_lr(0.5)
            .with_seed(a.seed)
            .with_threads(a.threads)
    }

    /// The "(…, N epochs, seed S)" line under a title, and the blank line
    /// after it.
    fn setting(&self, data: &str, note: &str) -> String {
        format!("({data}, {} epochs, seed {}{note})\n\n", self.cfg.epochs, self.args.seed)
    }

    /// One job per method, each under the experiment's config.
    fn jobs(&self, methods: &[Method]) -> Vec<Job> {
        methods.iter().map(|&(label, m, f)| (label.to_string(), m, f, self.cfg)).collect()
    }

    /// Trains `jobs` on `ds`; results come back in job order. A failed job
    /// is reported under its label and exits 1.
    fn run(&self, ds: &MdrDataset, jobs: &[Job]) -> Vec<RunResult> {
        eprintln!("[paper] {} jobs on {} ...", jobs.len(), ds.name);
        let specs: Vec<_> = jobs.iter().map(|&(_, m, f, c)| (m, f, c)).collect();
        let observe = |_| self.telemetry.observer();
        let results =
            run_many_observed(ds, &specs, &ModelConfig::default(), self.args.threads, &observe);
        let results = expect_jobs(jobs.iter().map(|j| j.0.as_str()), results);
        for (job, r) in jobs.iter().zip(&results) {
            self.telemetry.emit_result(&ds.name, &job.0, r);
        }
        results
    }
}

/// A rendered table and the blank line every experiment prints after it.
fn render(t: &TableBuilder) -> String {
    t.render() + "\n"
}

/// AUC and RANK on each of the five benchmark datasets (Tables V, VI);
/// RANK is the average per-domain rank among `jobs`.
fn auc_rank(x: &Ctx, first: &str, jobs: &[Job], note: &str) -> String {
    let mut header = vec![first.to_string()];
    let mut rows: Vec<Vec<String>> = jobs.iter().map(|j| vec![j.0.clone()]).collect();
    let short = ["Am-6", "Am-13", "Tb-10", "Tb-20", "Tb-30"];
    for (ds, short) in benchmark_datasets(x.args).iter().zip(short) {
        header.extend([format!("{short} AUC"), format!("{short} RANK")]);
        let results = x.run(ds, jobs);
        let aucs: Vec<Vec<f64>> = results.iter().map(|r| r.domain_auc.clone()).collect();
        for ((row, r), rank) in rows.iter_mut().zip(&results).zip(average_rank(&aucs)) {
            row.extend([format!("{:.4}", r.mean_auc), format!("{rank:.1}")]);
        }
    }
    let mut t = TableBuilder::new(&header);
    for row in rows {
        t.row(row);
    }
    x.setting(&format!("datasets at scale {:.2}", x.scale()), note) + &render(&t)
}

/// One row per job, one column per `(header, domain index)` (Tables VII, IX).
fn by_domain(first: &str, cols: &[(String, usize)], jobs: &[Job], res: &[RunResult]) -> String {
    let labels: Vec<String> = jobs.iter().map(|j| j.0.clone()).collect();
    let names: Vec<String> = cols.iter().map(|c| c.0.clone()).collect();
    let aucs: Vec<Vec<f64>> =
        res.iter().map(|r| cols.iter().map(|&(_, d)| r.domain_auc[d]).collect()).collect();
    grid(first, &labels, &names, &aucs)
}

/// A grid of mean AUCs, `aucs[row][col]` (Table X, Fig. 9).
fn grid(corner: &str, rows: &[String], cols: &[String], aucs: &[Vec<f64>]) -> String {
    let mut t = TableBuilder::new(
        &std::iter::once(corner).chain(cols.iter().map(|c| c.as_str())).collect::<Vec<_>>(),
    );
    for (label, row) in rows.iter().zip(aucs) {
        t.metric_row(label, row);
    }
    render(&t)
}

/// Mean AUC per job in one column; a third header adds the difference
/// to the first row (Table VIII, `ablation`, `tune`).
fn column(header: &[&str], jobs: &[Job], res: &[RunResult]) -> String {
    let mut t = TableBuilder::new(header);
    for (job, r) in jobs.iter().zip(res) {
        let mut row = vec![job.0.clone(), format!("{:.4}", r.mean_auc)];
        if header.len() == 3 {
            row.push(format!("{:+.4}", r.mean_auc - res[0].mean_auc));
        }
        t.row(row);
    }
    render(&t)
}

/// One bar per row, scaled from the lowest to the highest AUC (Fig. 8).
fn bars(first: &str, labels: &[String], aucs: &[f64]) -> String {
    let mut t = TableBuilder::new(&[first, "avg AUC", "bar"]);
    let max = aucs.iter().cloned().fold(f64::MIN, f64::max);
    let min = aucs.iter().cloned().fold(f64::MAX, f64::min);
    for (label, &a) in labels.iter().zip(aucs) {
        let frac = if max > min { (a - min) / (max - min) } else { 1.0 };
        t.row(vec![label.clone(), format!("{a:.4}"), "#".repeat(1 + (frac * 40.0) as usize)]);
    }
    render(&t)
}

/// Mean AUCs `per_row` to a row, in job order.
fn rows_of(res: &[RunResult], per_row: usize) -> Vec<Vec<f64>> {
    res.chunks(per_row).map(|c| c.iter().map(|r| r.mean_auc).collect()).collect()
}

fn table5(x: &Ctx) -> String {
    auc_rank(x, "Method", &x.jobs(TABLE5), "")
        + "expected shape (paper): MLP+MAMDR best AUC and best RANK on every dataset;\n\
           multi-domain models (Shared-bottom/MMOE/PLE) above plain single-domain models.\n"
}

fn table6(x: &Ctx) -> String {
    auc_rank(x, "Variant", &x.jobs(VARIANTS), "; RANK within the 4 variants")
        + "expected shape (paper): both components help; removing DR hurts most on the\n\
           sparse-domain dataset (Amazon-13); removing DN hurts more as the domain\n\
           count grows (Taobao-30); removing both is worst everywhere.\n"
}

/// Per-domain AUC on Amazon-6, behind the claim that DR matters most on
/// the sparsest domain.
fn table7(x: &Ctx) -> String {
    let ds = presets::amazon6(x.args.seed, x.scale());
    let jobs = x.jobs(VARIANTS);
    let res = x.run(&ds, &jobs);
    let cols: Vec<_> = ds.domains.iter().enumerate().map(|(i, d)| (d.name.clone(), i)).collect();
    let sparse = (0..ds.n_domains()).min_by_key(|&i| ds.domains[i].len()).unwrap();
    let (full, without_dr) = (res[0].domain_auc[sparse], res[2].domain_auc[sparse]);
    format!(
        "{}{}\nsparsest domain '{}': MAMDR {full:.4} vs w/o DR {without_dr:.4} ({:+.2}% — the paper reports\n\
         the largest drop on this domain when DR is removed)\n",
        x.setting(&format!("scale {:.2}", x.scale()), ""),
        by_domain("Variant", &cols, &jobs, &res),
        ds.domains[sparse].name,
        100.0 * (full - without_dr) / without_dr.max(1e-9)
    )
}

/// The industry simulation: 64 long-tailed domains by default, `--scale`
/// moves the domain count.
fn industry(x: &Ctx, min_domains: usize) -> MdrDataset {
    let n_domains = ((64.0 * x.args.scale).round() as usize).clamp(min_domains, 256);
    presets::industry(n_domains, 2_000, x.args.seed)
}

fn table8(x: &Ctx) -> String {
    let ds = industry(x, 8);
    let jobs = x.jobs(INDUSTRY);
    x.setting(&format!("{} domains", ds.n_domains()), "")
        + &column(&["Method", "avg AUC"], &jobs, &x.run(&ds, &jobs))
        + "expected shape (paper): RAW+MAMDR best; RAW+DN above RAW;\n\
           RAW+Separate below RAW (sparse tail domains overfit without sharing).\n"
}

/// Table VIII's methods on the ten largest industry domains: does MAMDR
/// also win where data is rich?
fn table9(x: &Ctx) -> String {
    let ds = industry(x, 10);
    let mut order: Vec<usize> = (0..ds.n_domains()).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(ds.domains[d].len()));
    let cols: Vec<_> = order
        .into_iter()
        .take(10)
        .enumerate()
        .map(|(i, d)| (format!("Top {}", i + 1), d))
        .collect();
    let jobs = x.jobs(INDUSTRY);
    x.setting(&format!("{} domains total", ds.n_domains()), "")
        + &by_domain("Method", &cols, &jobs, &x.run(&ds, &jobs))
        + "expected shape (paper): RAW+MAMDR best on most of the top-10 domains.\n"
}

/// Six architectures under ten model-agnostic frameworks on Taobao-10.
fn table10(x: &Ctx) -> String {
    use ModelKind::*;
    let models = [Mlp, Wdl, NeurFm, DeepFm, SharedBottom, Star];
    let fws =
        [Alternate, AlternateFinetune, WeightedLoss, PcGrad, Maml, Reptile, Mldg, Dn, Dr, Mamdr];
    let ds = presets::taobao(10, x.args.seed, x.scale());
    let jobs: Vec<Job> = models
        .iter()
        .flat_map(|&m| {
            fws.iter().map(move |&f| (format!("{}+{}", m.name(), f.name()), m, f, x.cfg))
        })
        .collect();
    let aucs = rows_of(&x.run(&ds, &jobs), fws.len());
    // MAMDR, the last column, wins a row when it is within 1e-12 of its best.
    let wins = aucs
        .iter()
        .filter(|row| row[fws.len() - 1] >= row.iter().cloned().fold(f64::MIN, f64::max) - 1e-12)
        .count();
    let rows: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    let cols: Vec<String> = fws.iter().map(|f| f.name().to_string()).collect();
    format!(
        "{}{}\nMAMDR is the best framework for {wins}/{} architectures\n\
         (paper: best for all; DR strongest on single-domain models, DN on\n\
         models with their own specific parameters).\n",
        x.setting(&format!("scale {:.2}", x.scale()), ""),
        grid("Model", &rows, &cols, &aucs),
        models.len()
    )
}

/// MLP+MAMDR's AUC against the DR sample count k on Taobao-30, two seeds
/// per k: single-seed variance at this scale is the size of the k-effect.
fn fig8(x: &Ctx) -> String {
    const KS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    let seeds = [x.cfg.seed, x.cfg.seed + 1];
    let ds = presets::taobao(30, x.args.seed, x.scale());
    let jobs: Vec<Job> = KS
        .iter()
        .flat_map(|&k| {
            let cfg = x.cfg.with_dr_samples(k);
            seeds.map(|s| (format!("k={k} seed {s}"), ModelKind::Mlp, Mamdr, cfg.with_seed(s)))
        })
        .collect();
    // Per-domain AUCs summed in seed order, divided by the seed count,
    // then averaged over domains.
    let aucs: Vec<f64> = x
        .run(&ds, &jobs)
        .chunks(seeds.len())
        .map(|runs| {
            let mut sum = runs[0].domain_auc.clone();
            for r in &runs[1..] {
                sum.iter_mut().zip(&r.domain_auc).for_each(|(s, a)| *s += a);
            }
            sum.iter_mut().for_each(|s| *s /= seeds.len() as f64);
            mean(&sum)
        })
        .collect();
    let best = aucs.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
    format!(
        "{}{}best k = {} (paper: performance peaks around k = 5 and drops beyond —\n\
         too many helper domains make the specific parameters deviate)\n",
        x.setting(&format!("scale {:.2}", x.scale()), ""),
        bars("k", &KS.map(|k| k.to_string()), &aucs),
        KS[best]
    )
}

/// MLP+DN's AUC over inner learning rate α × outer learning rate β on
/// Taobao-30.
fn fig9(x: &Ctx) -> String {
    const ALPHAS: [f32; 4] = [1e-1, 1e-2, 1e-3, 1e-4];
    const BETAS: [f32; 4] = [1.0, 0.5, 0.1, 0.01];
    let ds = presets::taobao(30, x.args.seed, x.scale());
    let jobs: Vec<Job> = ALPHAS
        .iter()
        .flat_map(|&a| {
            let cfg = x.cfg.with_inner(OptimizerKind::Adam { lr: a });
            BETAS.map(|b| {
                (format!("alpha {a:.0e} beta {b}"), ModelKind::Mlp, Dn, cfg.with_outer_lr(b))
            })
        })
        .collect();
    let aucs = rows_of(&x.run(&ds, &jobs), BETAS.len());
    let sum = |a: usize| -> f64 { aucs[a].iter().sum() };
    let best = (0..ALPHAS.len()).max_by(|&a, &b| sum(a).partial_cmp(&sum(b)).unwrap()).unwrap();
    format!(
        "{}{}\nat the best alpha ({:.0e}): beta=1 gives {:.4} vs best beta in [0.1,0.5] {:.4}\n\
         (paper: beta=1 degrades DN to Alternate training and loses AUC)\n",
        x.setting(&format!("scale {:.2}", x.scale()), ""),
        grid(
            "alpha \\ beta",
            &ALPHAS.map(|a| format!("{a:.0e}")),
            &BETAS.map(|b| format!("{b}")),
            &aucs
        ),
        ALPHAS[best],
        aucs[best][0],
        aucs[best][1].max(aucs[best][2])
    )
}

/// The implementation choices DESIGN.md §6 made beyond the paper's
/// pseudo-code, each against its alternative, on Taobao-10.
fn ablation(x: &Ctx) -> String {
    let ds = presets::taobao(10, x.args.seed, x.scale());
    let b = x.cfg;
    let jobs: Vec<Job> = [
        ("MAMDR (as designed)", Mamdr, b),
        ("DN inner opt rebuilt/epoch", Mamdr, b.with_dn_fresh_inner_per_epoch(true)),
        ("DR lookahead w/ Adam", Mamdr, b.with_dr_use_inner_optimizer(true)),
        ("outer lr beta=0.1", Mamdr, b.with_outer_lr(0.1)),
        ("val-based epoch selection", Mamdr, b.with_val_select(true)),
        ("DN only (reference)", Dn, b),
        ("Alternate (reference)", Alternate, b),
    ]
    .map(|(label, f, c)| (label.to_string(), ModelKind::Mlp, f, c))
    .into();
    "\n".to_string()
        + &column(&["variant", "avg AUC", "delta vs designed"], &jobs, &x.run(&ds, &jobs))
}

/// DR strength for MAMDR on Taobao-30, next to the Alternate and DN
/// baselines, so the table defaults are chosen on evidence.
fn tune(x: &Ctx) -> String {
    let ds = presets::taobao(30, x.args.seed, x.scale());
    let b = x.untuned();
    let mut jobs: Vec<Job> =
        [Alternate, Dn].map(|f| (f.name().into(), ModelKind::Mlp, f, b)).into();
    for (gamma, look, k) in [(0.8f32, 16, 5), (0.5, 8, 5), (0.3, 8, 5), (0.2, 4, 5), (0.2, 8, 3)] {
        let cfg = b.with_dr_lr(gamma).with_dr_lookahead_batches(look).with_dr_samples(k);
        jobs.push((format!("MAMDR g{gamma} L{look} k{k}"), ModelKind::Mlp, Mamdr, cfg));
    }
    column(&["config", "AUC"], &jobs, &x.run(&ds, &jobs))
}

/// Pairwise gradient conflict across six domains at the initialization
/// and after Alternate vs DN training, for growing ground-truth conflict.
fn conflict(x: &Ctx) -> String {
    let cfg = x.untuned();
    let model_cfg = ModelConfig::default();
    #[rustfmt::skip]
    let mut t = TableBuilder::new(&["ground-truth conflict", "init cos", "Alt cos", "Alt conflict%",
        "Alt AUC", "DN cos", "DN conflict%", "DN AUC"]);
    for knob in [0.0f32, 0.3, 0.6, 0.9] {
        eprintln!("[paper] conflict knob = {knob} ...");
        let mut gen = GeneratorConfig::base("conflict-sweep", 400, 200, x.args.seed);
        gen.conflict = knob;
        gen.domains = (0..6).map(|i| DomainSpec::new(format!("D{}", i + 1), 2_000, 0.3)).collect();
        let ds = gen.generate();
        let fc = FeatureConfig::from_dataset(&ds);
        let built = build_model(ModelKind::Mlp, &fc, &model_cfg, ds.n_domains(), cfg.seed);
        let mut env = TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), cfg);
        let init = env.init_flat();
        let mut row = vec![
            format!("{knob:.1}"),
            format!("{:.3}", measure_conflict(&mut env, &init).mean_cosine),
        ];
        for fk in [Alternate, Dn] {
            let built = build_model(ModelKind::Mlp, &fc, &model_cfg, ds.n_domains(), cfg.seed);
            let mut env = TrainEnv::new(&ds, built.model.as_ref(), built.params, cfg);
            let tm = fk.build().train(&mut env);
            let r = measure_conflict(&mut env, &tm.shared);
            let auc = mean(&env.evaluate(&tm, Split::Test));
            row.extend([
                format!("{:.3}", r.mean_cosine),
                format!("{:.0}%", 100.0 * r.conflict_rate),
                format!("{auc:.4}"),
            ]);
        }
        t.row(row);
    }
    x.setting("6 domains x 2000 interactions, MLP", "")
        + &render(&t)
        + "expected shape: gradients agree at the random init (cos ~ 1); conflict\n\
           (negative pairwise inner products) emerges as shared training converges;\n\
           DN ends at points with better AUC than the Alternate compromise as the\n\
           ground-truth conflict grows.\n"
}

/// Synchronization traffic and quality of the PS–Worker simulation with
/// and without the worker cache, at 1, 4 and 8 workers.
fn pscache(x: &Ctx) -> String {
    let n_domains = ((48.0 * x.args.scale).round() as usize).clamp(8, 256);
    let ds = presets::industry(n_domains, 2_000, x.args.seed);
    let tel = x.telemetry;
    #[rustfmt::skip]
    let mut t = TableBuilder::new(&["workers", "mode", "pulls", "pushes", "MB moved", "hit rate",
        "max stale", "test AUC"]);
    let mut reductions = Vec::new();
    for workers in [1usize, 4, 8] {
        let mut bytes = [0u64; 2];
        for (mi, (mode, mode_name)) in
            [(SyncMode::Cached, "cached"), (SyncMode::NoCache, "no-cache")].into_iter().enumerate()
        {
            let cfg = DistributedConfig {
                n_workers: workers,
                epochs: x.cfg.epochs,
                mode,
                seed: x.args.seed,
                kernel_threads: x.args.threads,
                ..Default::default()
            };
            let report = DistributedMamdr::new(&ds, cfg).train(&ds);
            if tel.enabled() {
                for (round, &loss) in report.round_losses.iter().enumerate() {
                    let fields = [
                        ("workers", Value::from(workers)),
                        ("mode", Value::from(mode_name)),
                        ("round", Value::from(round)),
                        ("train_loss", Value::from(loss)),
                    ];
                    tel.log().emit("ps_round", &fields);
                }
                // Counters sum traffic across configurations; gauges keep
                // the last configuration's values.
                report.export(tel.registry());
            }
            bytes[mi] = report.total_bytes;
            t.row(vec![
                workers.to_string(),
                mode_name.into(),
                report.pulls.to_string(),
                report.pushes.to_string(),
                format!("{:.2}", report.total_bytes as f64 / 1e6),
                format!("{:.2}", report.cache.hit_ratio()),
                report.max_staleness.to_string(),
                format!("{:.4}", report.mean_auc),
            ]);
        }
        reductions.push(format!("{:.1}x", bytes[1] as f64 / bytes[0].max(1) as f64));
    }
    format!(
        "({} domains, {} outer rounds, seed {})\n\n{}traffic reduction (no-cache / cached): {reductions:?}\n\
         expected shape: an order-of-magnitude fewer bytes and RPCs with the\n\
         cache, at equal or better AUC (bounded staleness).\n",
        ds.n_domains(),
        x.cfg.epochs,
        x.args.seed,
        render(&t)
    )
}

/// The §III-C complexity claim, measured: one DN epoch costs O(n) in the
/// domain count n, one PCGrad round O(n²) — n gradients plus n(n − 1)
/// pairwise projections. One batch per domain, so a DN epoch is n inner
/// steps; each cell is the median of a fixed number of timed repetitions.
fn scaling(_: &Ctx) -> String {
    const REPS: usize = 101;
    fn median_ms(mut f: impl FnMut() -> f32) -> f64 {
        black_box(f()); // warm-up
        let mut ms: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[REPS / 2]
    }
    let mut t = TableBuilder::new(&["domains", "DN epoch ms", "PCGrad round ms", "PCGrad / DN"]);
    for n in [4usize, 8, 16] {
        let mut gen = GeneratorConfig::base("scal", 300, 150, 3);
        // Fixed per-domain size, so a DN epoch's work grows linearly in n.
        gen.domains = (0..n).map(|i| DomainSpec::new(format!("d{i}"), 256, 0.3)).collect();
        let ds = gen.generate();
        let fc = FeatureConfig::from_dataset(&ds);
        let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), n, 1);
        let mut cfg = TrainConfig::quick();
        cfg.batch_size = 256; // one batch per domain
        let env = || TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), cfg);
        let dn = median_ms(|| {
            let mut env = env();
            let mut shared = env.init_flat();
            domain_negotiation_epoch(&mut env, &mut shared);
            shared[0]
        });
        let pcgrad = median_ms(|| {
            let mut env = env();
            let theta = env.init_flat();
            let grads: Vec<Vec<f32>> = (0..n)
                .map(|d| {
                    let batch = env.sample_train_batch(d);
                    env.grad(&theta, &batch, true).1
                })
                .collect();
            let mut total = vec![0.0f32; theta.len()];
            for (i, g) in grads.iter().enumerate() {
                let mut gi = g.clone();
                for (j, gj) in grads.iter().enumerate() {
                    if i != j {
                        vecmath::project_conflict(&mut gi, gj);
                    }
                }
                vecmath::axpy(&mut total, 1.0, &gi);
            }
            total[0]
        });
        t.row(vec![
            n.to_string(),
            format!("{dn:.3}"),
            format!("{pcgrad:.3}"),
            format!("{:.2}", pcgrad / dn),
        ]);
    }
    format!("(MLP tiny, 256 interactions per domain, median of {REPS} runs)\n\n")
        + &render(&t)
        + "expected shape (paper): a DN epoch grows linearly in the domain count, a\n\
           PCGrad round quadratically, so PCGrad / DN grows with the domain count.\n"
}

/// `paper`'s entry point: runs the experiment named by the first argument
/// with the flags after it. A missing or unknown name lists the
/// experiments and exits 2, as does a flag the experiment does not read;
/// a failed run exits 1.
pub fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!("usage: paper <experiment> [flags]\nexperiments:");
        for e in EXPERIMENTS {
            eprintln!("  {:<9} {}", e.name, e.title);
        }
        std::process::exit(2);
    };
    let bin = format!("paper {name}");
    let args = BenchArgs::from_args(&bin, e.reads, std::env::args().skip(2));
    let telemetry = BenchTelemetry::from_args(&args);
    let x = Ctx {
        args: &args,
        telemetry: &telemetry,
        cfg: table_config(&args, e.epochs),
        failure: Cell::new(None),
    };
    let body = (e.run)(&x);
    if !e.title.is_empty() {
        println!("\n=== {} ===", e.title);
    }
    print!("{body}");
    telemetry.finish();
    if let Some(why) = x.failure.take() {
        eprintln!("[{bin}] FAILED: {why}");
        std::process::exit(1);
    }
}
