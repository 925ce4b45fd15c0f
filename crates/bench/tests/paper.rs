//! The `paper` binary run as a person runs it: the experiment listing, and
//! the stdout of three cheap experiments pinned byte for byte. The
//! `ablation` and `fig9` pins were captured from the separate binaries
//! `paper` replaced, at the same flags; every experiment's full check is
//! a comparison of its `--quick` stdout against those binaries' (CHANGES.md).
//! `pscache` was pinned once its multi-worker rows became seeded.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("paper runs")
}

/// `paper <name> --quick --scale 0.1 --epochs 1 --seed 42 [extra]`'s stdout.
fn pinned_run(name: &str, extra: &[&str]) -> String {
    let mut args = vec![name, "--quick", "--scale", "0.1", "--epochs", "1", "--seed", "42"];
    args.extend(extra);
    let out = paper(&args);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

const NAMES: [&str; 12] = [
    "table5", "table6", "table7", "table8", "table9", "table10", "fig8", "fig9", "conflict",
    "pscache", "ablation", "tune",
];

#[test]
fn no_name_or_an_unknown_one_lists_the_twelve_and_exits_2() {
    for args in [&[][..], &["table11"]] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        let listed: Vec<&str> =
            err.lines().filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next()).collect();
        assert_eq!(listed, NAMES, "{err}");
        assert!(!err.contains("jobs on"), "no training may run: {err}");
    }
}

const ABLATION: &str = r#"
=== Design-choice ablations (DESIGN.md §6, MLP+MAMDR on Taobao-10) ===

variant                     avg AUC  delta vs designed
------------------------------------------------------
MAMDR (as designed)          0.5833            +0.0000
DN inner opt rebuilt/epoch   0.5833            +0.0000
DR lookahead w/ Adam         0.5600            -0.0233
outer lr beta=0.1            0.5517            -0.0317
val-based epoch selection    0.5833            +0.0000
DN only (reference)          0.6250            +0.0417
Alternate (reference)        0.5600            -0.0233

"#;

const FIG9: &str = r#"
=== Paper Fig. 9: DN results under different learning rates (Taobao-30) ===
(scale 0.01, 1 epochs, seed 42)

alpha \ beta       1     0.5     0.1    0.01
--------------------------------------------
1e-1          0.4964  0.4509  0.4517  0.5064
1e-2          0.5694  0.5587  0.5316  0.5084
1e-3          0.4664  0.5235  0.5212  0.5096
1e-4          0.5149  0.5246  0.5096  0.5096


at the best alpha (1e-2): beta=1 gives 0.5694 vs best beta in [0.1,0.5] 0.5587
(paper: beta=1 degrades DN to Alternate training and loses AUC)
"#;

#[test]
fn ablation_prints_the_pinned_table() {
    assert_eq!(pinned_run("ablation", &[]), ABLATION);
}

/// The sixteen α × β jobs run on one worker thread or two; `--threads`
/// decides only how many run at once.
#[test]
fn fig9_prints_the_pinned_grid_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(pinned_run("fig9", &["--threads", threads]), FIG9, "--threads {threads}");
    }
}

const PSCACHE: &str = r#"
=== Paper §IV-E: embedding PS-Worker cache ablation ===
(8 domains, 1 outer rounds, seed 42)

workers      mode  pulls  pushes  MB moved  hit rate  max stale  test AUC
-------------------------------------------------------------------------
1          cached      2    4255      0.27      0.81          0    0.5771
1        no-cache  17735   17735      1.14      0.00          0    0.5732
4          cached      4    5156      0.33      0.77          3    0.5686
4        no-cache  17735   17735      1.14      0.00          0    0.5613
8          cached      8    5435      0.35      0.77          7    0.5571
8        no-cache  17735   17735      1.14      0.00          0    0.5603

traffic reduction (no-cache / cached): ["4.2x", "3.4x", "3.3x"]
expected shape: an order-of-magnitude fewer bytes and RPCs with the
cache, at equal or better AUC (bounded staleness).
"#;

/// Updates land in a seeded order: no cell depends on thread scheduling.
#[test]
fn pscache_prints_the_pinned_table_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(pinned_run("pscache", &["--threads", threads]), PSCACHE, "--threads {threads}");
    }
}
