//! # mamdr-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! MAMDR paper's evaluation (§V). Each binary prints one artifact:
//!
//! | binary      | paper artifact |
//! |-------------|----------------|
//! | `table5`    | Table V — main comparison on the 5 benchmark datasets |
//! | `table6`    | Table VI — DN/DR ablation |
//! | `table7`    | Table VII — per-domain ablation on Amazon-6 |
//! | `table8`    | Table VIII — industry dataset, method comparison |
//! | `table9`    | Table IX — top-10 industry domains |
//! | `table10`   | Table X — frameworks × models on Taobao-10 |
//! | `fig8`      | Fig. 8 — AUC vs DR sample count k |
//! | `fig9`      | Fig. 9 — AUC vs inner/outer learning rates |
//! | `conflict`  | Fig. 3 motivation — gradient-conflict measurements |
//! | `pscache`   | §IV-E — embedding-cache traffic ablation |
//! | `dist_bench`| §IV-E over real TCP — a networked-trainer loopback run (`--workers`, `--shards`, `--fault-plan`) |
//! | `serve_bench`| online serving — closed-loop clients through a replica pool with a mid-run hot swap |
//!
//! Criterion micro-benches (`cargo bench`) cover tensor/autodiff kernel
//! throughput, O(n)-vs-O(n²) framework scaling, and PS cache overhead.
//!
//! All binaries accept `--scale <f64>` (dataset size multiplier),
//! `--epochs <usize>` and `--quick` (smoke mode: smaller scale, capped
//! epochs) so a fast smoke run and a full reproduction use the same code
//! path. `--threads <n>` sets both the independent-run worker count and
//! the deterministic kernel pool size — results are bit-identical at any
//! value. The table binaries and `pscache` also accept
//! `--metrics-out <path>`: training runs with telemetry observers attached
//! and the process dumps a JSONL event/metric stream to `<path>` plus a
//! Prometheus-style text snapshot to `<path>.prom` at exit.

pub mod args;
pub mod runner;
pub mod serve;
pub mod table;
pub mod telemetry;

pub use args::{BenchArgs, QUICK_SCALE_FACTOR};
pub use table::TableBuilder;
pub use telemetry::{render_phase_table, BenchTelemetry};
