//! Shared experiment plumbing for the `paper` binary's experiments.

use crate::args::BenchArgs;
use mamdr_core::experiment::{JobError, RunResult};
use mamdr_core::TrainConfig;
use mamdr_data::{presets, MdrDataset};

/// Default dataset scale for the `paper` experiments: the presets are already
/// scaled from the paper's sizes (Amazon 1/200, Taobao 1/10); this factor
/// trades another ~2.5× so a full table regenerates in minutes. Override
/// with `--scale`.
pub const DEFAULT_TABLE_SCALE: f64 = 0.4;

/// The five benchmark datasets of paper Table I, in table order.
pub fn benchmark_datasets(args: &BenchArgs) -> Vec<MdrDataset> {
    let s = effective_scale(args);
    vec![
        presets::amazon6(args.seed, s),
        presets::amazon13(args.seed, s),
        presets::taobao(10, args.seed, s),
        presets::taobao(20, args.seed, s),
        presets::taobao(30, args.seed, s),
    ]
}

/// `--scale` interpreted relative to [`DEFAULT_TABLE_SCALE`]: passing 1.0
/// (the default) selects the documented table scale. `--quick` shrinks it
/// further by [`QUICK_SCALE_FACTOR`](crate::args::QUICK_SCALE_FACTOR).
pub fn effective_scale(args: &BenchArgs) -> f64 {
    let quick = if args.quick { crate::args::QUICK_SCALE_FACTOR } else { 1.0 };
    DEFAULT_TABLE_SCALE * args.scale * quick
}

/// The training configuration the tables start from; `--epochs` overrides
/// the default. Hyper-parameters follow the tuning sweep recorded in
/// EXPERIMENTS.md (β = 0.5 per the paper's Fig. 9; γ and the DR lookahead
/// sized so specific parameters can actually fit a domain transform).
/// `--threads` rides along as the kernel worker count — wall-clock only,
/// never results.
pub fn table_config(args: &BenchArgs, default_epochs: usize) -> TrainConfig {
    TrainConfig::bench()
        .with_epochs(args.epochs_or(default_epochs))
        .with_seed(args.seed)
        .with_outer_lr(0.5)
        .with_dr_lr(0.5)
        .with_dr_lookahead_batches(8)
        .with_finetune_epochs(6)
        .with_threads(args.threads)
}

/// Unwraps a `run_many` result set for table rendering. A table with
/// holes is not worth printing, so every failed job is reported on stderr
/// under its `labels` entry (its row in the table) and the process exits
/// non-zero if any slot failed.
pub fn expect_jobs<'a>(
    labels: impl IntoIterator<Item = &'a str>,
    results: Vec<Result<RunResult, JobError>>,
) -> Vec<RunResult> {
    let mut out = Vec::with_capacity(results.len());
    let mut failed = false;
    for (label, r) in labels.into_iter().zip(results) {
        match r {
            Ok(r) => out.push(r),
            Err(e) => {
                eprintln!("[bench] {label}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_cover_the_five_benchmarks() {
        let args = BenchArgs { scale: 0.02, ..Default::default() };
        let ds = benchmark_datasets(&args);
        let names: Vec<&str> = ds.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["amazon-6", "amazon-13", "taobao-10", "taobao-20", "taobao-30"]);
    }

    #[test]
    fn config_applies_overrides() {
        let args = BenchArgs { epochs: 3, seed: 7, threads: 2, ..Default::default() };
        let cfg = table_config(&args, 10);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.outer_lr, 0.5);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    fn quick_shrinks_scale_and_epochs() {
        let args = BenchArgs { quick: true, ..Default::default() };
        assert!(effective_scale(&args) < DEFAULT_TABLE_SCALE);
        assert_eq!(table_config(&args, 20).epochs, crate::args::QUICK_EPOCH_CAP);
    }
}
