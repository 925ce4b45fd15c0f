//! Training configuration shared by every learning framework.

use mamdr_nn::OptimizerKind;

/// Hyper-parameters for one training run.
///
/// Defaults follow the paper's §V-C settings (Adam, inner lr 1e-3, outer lr
/// 0.1, DR sample count 5) with epoch counts sized to the scaled synthetic
/// benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Outer training epochs (one DN pass + one DR pass per epoch for
    /// MAMDR; one full pass over all domains for the baselines).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Inner-loop optimizer (per-batch updates inside every framework).
    pub inner: OptimizerKind,
    /// Outer-loop learning rate β of Domain Negotiation (Eq. 3); β = 1
    /// degrades DN to Alternate training, which `fig9` demonstrates.
    pub outer_lr: f32,
    /// Domain Regularization learning rate γ (Eq. 8).
    pub dr_lr: f32,
    /// Domain Regularization sample count k (Algorithm 2).
    pub dr_samples: usize,
    /// Cap on minibatch steps taken per domain inside a DR lookahead
    /// (bounds the cost of Algorithm 2 on data-rich domains).
    pub dr_lookahead_batches: usize,
    /// Finetuning epochs for Alternate+Finetune.
    pub finetune_epochs: usize,
    /// Inner adaptation steps for Reptile/MAML.
    pub meta_inner_steps: usize,
    /// Select the best epoch by validation AUC instead of returning the
    /// final epoch (MAMDR-family frameworks only; costs one validation
    /// evaluation per epoch).
    pub val_select: bool,
    /// Design-choice ablation switch: rebuild the DN inner optimizer every
    /// outer epoch instead of keeping its state (DESIGN.md §6.1; slower
    /// convergence, kept for the `ablation` bench).
    pub dn_fresh_inner_per_epoch: bool,
    /// Design-choice ablation switch: run DR lookaheads with a fresh
    /// instance of the configured inner optimizer instead of Algorithm 2's
    /// plain SGD (DESIGN.md §6.2; injects dense noise into θi).
    pub dr_use_inner_optimizer: bool,
    /// Base seed controlling shuffling, dropout and domain sampling.
    pub seed: u64,
    /// Kernel threads for this run: the most scoped threads a large GEMM or
    /// an evaluation pass splits into; `0` (the default) inherits the
    /// process-wide setting (`MAMDR_THREADS` env var /
    /// `mamdr_tensor::pool::set_threads`). Results are bit-identical at any
    /// value — the knob trades wall-clock only.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            batch_size: 128,
            inner: OptimizerKind::Adam { lr: 1e-3 },
            outer_lr: 0.1,
            dr_lr: 0.1,
            dr_samples: 5,
            dr_lookahead_batches: 8,
            finetune_epochs: 2,
            meta_inner_steps: 2,
            val_select: false,
            dn_fresh_inner_per_epoch: false,
            dr_use_inner_optimizer: false,
            seed: 17,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests: fewer epochs, smaller batches,
    /// and a larger learning rate suited to the tiny test datasets.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 64,
            inner: OptimizerKind::Adam { lr: 0.01 },
            dr_samples: 2,
            dr_lookahead_batches: 4,
            finetune_epochs: 1,
            ..Default::default()
        }
    }

    /// The configuration the benchmark binaries start from: the paper's
    /// optimizer settings with epoch counts sized to the scaled synthetic
    /// datasets (the originals are 10–200× larger, so the paper's one pass
    /// of Adam@1e-3 corresponds to several epochs at a higher rate here).
    pub fn bench() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 128,
            inner: OptimizerKind::Adam { lr: 5e-3 },
            ..Default::default()
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the epoch count (builder style).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Replaces the minibatch size (builder style).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Replaces the inner-loop optimizer (builder style).
    pub fn with_inner(mut self, inner: OptimizerKind) -> Self {
        self.inner = inner;
        self
    }

    /// Replaces the inner optimizer with Adam at the given rate
    /// (builder style) — the common case at bench call sites.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.inner = OptimizerKind::Adam { lr };
        self
    }

    /// Replaces the DN outer learning rate β (builder style).
    pub fn with_outer_lr(mut self, outer_lr: f32) -> Self {
        self.outer_lr = outer_lr;
        self
    }

    /// Replaces the DR learning rate γ (builder style).
    pub fn with_dr_lr(mut self, dr_lr: f32) -> Self {
        self.dr_lr = dr_lr;
        self
    }

    /// Replaces the DR helper-domain sample count k (builder style).
    pub fn with_dr_samples(mut self, dr_samples: usize) -> Self {
        self.dr_samples = dr_samples;
        self
    }

    /// Replaces the DR lookahead batch cap (builder style).
    pub fn with_dr_lookahead_batches(mut self, cap: usize) -> Self {
        self.dr_lookahead_batches = cap;
        self
    }

    /// Replaces the Alternate+Finetune epoch count (builder style).
    pub fn with_finetune_epochs(mut self, finetune_epochs: usize) -> Self {
        self.finetune_epochs = finetune_epochs;
        self
    }

    /// Replaces the Reptile/MAML inner-step count (builder style).
    pub fn with_meta_inner_steps(mut self, steps: usize) -> Self {
        self.meta_inner_steps = steps;
        self
    }

    /// Enables or disables validation-based epoch selection (builder style).
    pub fn with_val_select(mut self, val_select: bool) -> Self {
        self.val_select = val_select;
        self
    }

    /// Sets the DN fresh-inner-optimizer ablation switch (builder style).
    pub fn with_dn_fresh_inner_per_epoch(mut self, fresh: bool) -> Self {
        self.dn_fresh_inner_per_epoch = fresh;
        self
    }

    /// Sets the DR inner-optimizer ablation switch (builder style).
    pub fn with_dr_use_inner_optimizer(mut self, use_inner: bool) -> Self {
        self.dr_use_inner_optimizer = use_inner;
        self
    }

    /// Replaces the kernel thread count for this run (builder style);
    /// `0` inherits the process-wide setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = TrainConfig::default();
        assert_eq!(c.dr_samples, 5);
        assert!((c.outer_lr - 0.1).abs() < 1e-9);
        match c.inner {
            OptimizerKind::Adam { lr } => assert!((lr - 1e-3).abs() < 1e-9),
            other => panic!("expected Adam, got {:?}", other),
        }
    }

    #[test]
    fn builders_replace_fields() {
        let c = TrainConfig::default().with_seed(9).with_epochs(3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.epochs, 3);
    }

    #[test]
    fn builders_cover_every_field() {
        let c = TrainConfig::default()
            .with_seed(1)
            .with_epochs(2)
            .with_batch_size(32)
            .with_lr(0.02)
            .with_outer_lr(0.5)
            .with_dr_lr(0.25)
            .with_dr_samples(3)
            .with_dr_lookahead_batches(6)
            .with_finetune_epochs(4)
            .with_meta_inner_steps(5)
            .with_val_select(true)
            .with_dn_fresh_inner_per_epoch(true)
            .with_dr_use_inner_optimizer(true)
            .with_threads(2);
        assert_eq!(c.batch_size, 32);
        match c.inner {
            OptimizerKind::Adam { lr } => assert!((lr - 0.02).abs() < 1e-9),
            other => panic!("expected Adam, got {:?}", other),
        }
        assert!((c.outer_lr - 0.5).abs() < 1e-9);
        assert!((c.dr_lr - 0.25).abs() < 1e-9);
        assert_eq!(c.dr_samples, 3);
        assert_eq!(c.dr_lookahead_batches, 6);
        assert_eq!(c.finetune_epochs, 4);
        assert_eq!(c.meta_inner_steps, 5);
        assert!(c.val_select);
        assert!(c.dn_fresh_inner_per_epoch);
        assert!(c.dr_use_inner_optimizer);
        assert_eq!(c.threads, 2);
        let sgd = TrainConfig::default().with_inner(OptimizerKind::Sgd { lr: 0.1, momentum: 0.9 });
        assert!(matches!(sgd.inner, OptimizerKind::Sgd { .. }));
    }

    #[test]
    fn threads_defaults_to_inherit() {
        assert_eq!(TrainConfig::default().threads, 0);
        assert_eq!(TrainConfig::quick().threads, 0);
        assert_eq!(TrainConfig::bench().threads, 0);
    }
}
