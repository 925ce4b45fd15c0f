//! Quickstart: train an MLP under MAMDR on a Taobao-style benchmark and
//! compare it with plain Alternate training.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mamdr::prelude::*;

fn main() {
    // 1. A scaled-down Amazon-13 benchmark (see `mamdr_data::presets`) —
    //    the dataset the paper builds to stress sparse domains, where
    //    MAMDR's Domain Regularization has the most to offer.
    let ds = amazon13(42, 0.4);
    println!(
        "dataset: {} — {} domains, {} users, {} items",
        ds.name,
        ds.n_domains(),
        ds.n_users,
        ds.n_items
    );

    // 2. Shared hyper-parameters (paper §V-C, adapted to the scaled
    //    datasets — see EXPERIMENTS.md for the tuning sweep).
    let model_cfg = ModelConfig::default();
    let mut train_cfg = TrainConfig::bench().with_epochs(20);
    train_cfg.outer_lr = 0.5;
    train_cfg.dr_lr = 0.5;
    train_cfg.dr_lookahead_batches = 8;

    // 3. Train the same architecture under two frameworks.
    println!("\ntraining MLP under Alternate and MAMDR (takes a few minutes)...");
    let jobs = [
        (ModelKind::Mlp, FrameworkKind::Alternate, train_cfg),
        (ModelKind::Mlp, FrameworkKind::Mamdr, train_cfg),
    ];
    let results: Vec<_> = run_many(&ds, &jobs, &model_cfg, 2)
        .into_iter()
        .map(|r| r.expect("training job panicked"))
        .collect();

    // 4. Report per-domain test AUC.
    println!("\n{:<28} {:>12} {:>16}", "domain", "Alternate", "MAMDR (DN+DR)");
    for d in 0..ds.n_domains() {
        println!(
            "{:<28} {:>12.4} {:>16.4}",
            ds.domains[d].name, results[0].domain_auc[d], results[1].domain_auc[d]
        );
    }
    println!("{:<28} {:>12.4} {:>16.4}", "MEAN", results[0].mean_auc, results[1].mean_auc);
    let lift = results[1].mean_auc - results[0].mean_auc;
    println!("\nMAMDR lift over Alternate: {:+.4} AUC", lift);
}
