//! The training environment and the trained-model artifact.
//!
//! `TrainEnv` is the *only* window a learning framework has onto a model:
//! flat parameter vectors in, `(loss, flat gradient)` out — dense, or as
//! the spans a minibatch touched. This enforces the model-agnosticism the
//! paper claims — no framework in this crate can even name an architecture.

use crate::config::TrainConfig;
use crate::metrics::auc;
use mamdr_autodiff::{EvalScratch, Grads, Tape};
use mamdr_data::{
    batches_for_domain, first_batches_for_domain, Batch, BatchPlan, MdrDataset, Split,
};
use mamdr_models::{eval_logits_into, loss_and_grads_into, CtrModel};
use mamdr_nn::{ForwardCtx, ParamStore, SparseGrad};
use mamdr_obs::{ConflictSummary, EpochEvent, TrainMeta, TrainObserver};
use mamdr_tensor::pool;
use mamdr_tensor::rng::{derive_seed, seeded};
use rand::rngs::StdRng;
use rand::Rng;

/// Per-epoch telemetry accumulators, populated by
/// [`TrainEnv::grad_sparse`] (which every gradient goes through) only while
/// an observer is attached.
#[derive(Default)]
struct Telemetry {
    epoch: usize,
    loss_sum: f64,
    n_batches: u64,
    sq_grad_sum: f64,
    /// Per-domain `(loss_sum, n_batches)`.
    domain_loss: Vec<(f64, u64)>,
    started: Option<std::time::Instant>,
}

impl Telemetry {
    fn reset_epoch(&mut self) {
        self.loss_sum = 0.0;
        self.n_batches = 0;
        self.sq_grad_sum = 0.0;
        for d in &mut self.domain_loss {
            *d = (0.0, 0);
        }
    }
}

/// Everything a framework needs to train one model on one dataset.
pub struct TrainEnv<'a> {
    /// The dataset.
    pub ds: &'a MdrDataset,
    /// The architecture being trained (opaque to frameworks).
    pub model: &'a dyn CtrModel,
    /// Training hyper-parameters.
    pub cfg: TrainConfig,
    /// RNG for shuffling, sampling and dropout.
    pub rng: StdRng,
    init_flat: Vec<f32>,
    scratch: ParamStore,
    /// The training tape and gradient every step reuses, so a warm step
    /// allocates almost nothing.
    tape: Tape,
    grads: Grads,
    /// The sparse gradient [`grad_into`](Self::grad_into) densifies.
    sparse_scratch: SparseGrad,
    obs: Option<Box<dyn TrainObserver>>,
    /// Dedicated stream for observer-requested conflict probes, so probing
    /// never advances `rng` (training stays bit-identical with and without
    /// an observer attached).
    probe_rng: StdRng,
    telemetry: Telemetry,
}

impl<'a> TrainEnv<'a> {
    /// Builds an environment around a freshly initialized model.
    pub fn new(
        ds: &'a MdrDataset,
        model: &'a dyn CtrModel,
        init: ParamStore,
        cfg: TrainConfig,
    ) -> Self {
        let init_flat = init.to_flat();
        TrainEnv {
            ds,
            model,
            cfg,
            rng: seeded(derive_seed(cfg.seed, 0xE17)),
            init_flat,
            scratch: init,
            tape: Tape::new(),
            grads: Grads::default(),
            sparse_scratch: SparseGrad::default(),
            obs: None,
            probe_rng: seeded(derive_seed(cfg.seed, 0x0B5)),
            telemetry: Telemetry::default(),
        }
    }

    /// The initialization point Θ₀ (copied).
    pub fn init_flat(&self) -> Vec<f32> {
        self.init_flat.clone()
    }

    /// Flat parameter-vector length.
    pub fn n_params(&self) -> usize {
        self.init_flat.len()
    }

    /// Number of domains in the dataset.
    pub fn n_domains(&self) -> usize {
        self.ds.n_domains()
    }

    /// Loss and flat gradient of the model at `flat` on one batch.
    ///
    /// `training` enables dropout (fresh mask per call, drawn from the env
    /// RNG). Allocates a fresh gradient vector per call; hot loops should
    /// prefer [`grad_into`](Self::grad_into) with a reused buffer.
    pub fn grad(&mut self, flat: &[f32], batch: &Batch, training: bool) -> (f32, Vec<f32>) {
        let mut out = vec![0.0f32; self.init_flat.len()];
        let loss = self.grad_into(flat, batch, training, &mut out);
        (loss, out)
    }

    /// [`grad`](Self::grad), but writing the flat gradient into a
    /// caller-owned buffer of length [`n_params`](Self::n_params) — the
    /// allocation-free path frameworks use inside their batch loops. Returns
    /// the loss.
    pub fn grad_into(
        &mut self,
        flat: &[f32],
        batch: &Batch,
        training: bool,
        out: &mut [f32],
    ) -> f32 {
        let mut sparse = std::mem::take(&mut self.sparse_scratch);
        let loss = self.grad_sparse(flat, batch, training, &mut sparse);
        sparse.write_dense(out);
        self.sparse_scratch = sparse;
        loss
    }

    /// [`grad_into`](Self::grad_into) without densifying: `out` receives
    /// only the coordinates the batch touched (every parameter read whole,
    /// the gathered rows of each embedding table), reusing its buffers.
    /// Returns the loss.
    pub fn grad_sparse(
        &mut self,
        flat: &[f32],
        batch: &Batch,
        training: bool,
        out: &mut SparseGrad,
    ) -> f32 {
        self.scratch.load_flat(flat);
        let mut ctx = if training {
            ForwardCtx::train(&mut self.rng)
        } else {
            ForwardCtx::eval(&mut self.rng)
        };
        let loss = loss_and_grads_into(
            self.model,
            &self.scratch,
            batch,
            &mut ctx,
            &mut self.tape,
            &mut self.grads,
        );
        self.scratch.grads_write_sparse(&self.grads, out);
        // Telemetry accumulation reuses values training computed anyway
        // (plus one dot product) and touches no RNG; without an observer
        // the hot path pays this single branch.
        if training && self.obs.is_some() {
            let t = &mut self.telemetry;
            t.loss_sum += loss as f64;
            t.n_batches += 1;
            // Ascending flat order, as over the dense vector: the skipped
            // coordinates' squares are +0.0, which leaves an f64 sum's bits.
            t.sq_grad_sum +=
                out.spans().flat_map(|(_, g)| g).map(|&g| (g as f64) * (g as f64)).sum::<f64>();
            if t.domain_loss.len() <= batch.domain {
                t.domain_loss.resize(batch.domain + 1, (0.0, 0));
            }
            let slot = &mut t.domain_loss[batch.domain];
            slot.0 += loss as f64;
            slot.1 += 1;
        }
        loss
    }

    /// All training batches of one domain, shuffled.
    pub fn train_batches(&mut self, domain: usize) -> Vec<Batch> {
        self.first_train_batches(domain, usize::MAX)
    }

    /// The first `cap` of the batches [`train_batches`](Self::train_batches)
    /// would return, leaving the RNG exactly where it would (see
    /// [`first_batches_for_domain`]).
    pub(crate) fn first_train_batches(&mut self, domain: usize, cap: usize) -> Vec<Batch> {
        first_batches_for_domain(
            self.ds,
            domain,
            Split::Train,
            BatchPlan::train(self.cfg.batch_size),
            cap,
            &mut self.rng,
        )
    }

    /// One random training batch from a domain.
    pub fn sample_train_batch(&mut self, domain: usize) -> Batch {
        let interactions = self.ds.domains[domain].split(Split::Train);
        assert!(!interactions.is_empty(), "domain {} has no training data", domain);
        let bs = self.cfg.batch_size.min(interactions.len());
        let start_max = interactions.len() - bs;
        let start = if start_max == 0 { 0 } else { self.rng.gen_range(0..=start_max) };
        mamdr_data::make_batch(self.ds, domain, &interactions[start..start + bs])
    }

    /// A shuffled domain visit order (fresh each call, as DN requires).
    pub fn shuffled_domains(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n_domains()).collect();
        mamdr_tensor::rng::shuffle(&mut self.rng, &mut order);
        order
    }

    /// Per-domain AUC of a trained model on `split`.
    ///
    /// Batches within a domain are split across the kernel threads: each
    /// batch's logits land in a dedicated slot and are concatenated in batch
    /// order afterwards, so the AUC input — and therefore the reported AUC —
    /// is bit-identical at any thread count. Each thread runs the
    /// values-only forward with one reused [`EvalScratch`].
    pub fn evaluate(&mut self, trained: &TrainedModel, split: Split) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_domains());
        for d in 0..self.n_domains() {
            let flat = trained.flat_for(d);
            self.scratch.load_flat(&flat);
            let plan = BatchPlan::eval(self.cfg.batch_size.max(256));
            let mut rng = seeded(0);
            let batches = batches_for_domain(self.ds, d, split, plan, &mut rng);
            let mut slots: Vec<Vec<f32>> = vec![Vec::new(); batches.len()];
            let (model, scratch) = (self.model, &self.scratch);
            pool::for_each_row_block(&mut slots, 1, 1, |range, block| {
                let mut eval = EvalScratch::default();
                for (slot, batch) in block.iter_mut().zip(&batches[range]) {
                    eval_logits_into(model, scratch, batch, &mut eval, slot);
                }
            });
            let mut labels = Vec::new();
            let mut scores = Vec::new();
            for (b, s) in batches.iter().zip(&slots) {
                scores.extend_from_slice(s);
                labels.extend_from_slice(&b.labels);
            }
            out.push(auc(&labels, &scores));
        }
        out
    }

    /// Attaches a telemetry observer. Observers are strictly passive:
    /// training results are bit-identical with and without one (asserted by
    /// the `observability` integration tests).
    pub fn attach_observer(&mut self, obs: Box<dyn TrainObserver>) {
        self.obs = Some(obs);
    }

    /// Detaches and returns the observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn TrainObserver>> {
        self.obs.take()
    }

    /// Whether an observer is attached.
    pub fn has_observer(&self) -> bool {
        self.obs.is_some()
    }

    /// Reports the start of a training run to the observer (no-op without
    /// one). Called by `experiment::run`; callers driving a [`Framework`](crate::Framework)
    /// directly may call it themselves.
    pub fn observe_train_start(&mut self, framework: &str) {
        self.telemetry =
            Telemetry { started: Some(std::time::Instant::now()), ..Default::default() };
        let meta = TrainMeta {
            framework: framework.to_string(),
            n_domains: self.ds.n_domains(),
            epochs: self.cfg.epochs,
            seed: self.cfg.seed,
        };
        if let Some(obs) = self.obs.as_mut() {
            obs.on_train_start(&meta);
        }
    }

    /// Closes out an epoch: hands the accumulated loss/gradient telemetry
    /// to the observer and resets the accumulators. Frameworks call this
    /// once per outer epoch, passing the current shared parameters so the
    /// observer can request a gradient-conflict probe at that point.
    ///
    /// No-op (one branch) without an observer.
    pub fn end_epoch(&mut self, shared: Option<&[f32]>) {
        if self.obs.is_none() {
            return;
        }
        let epoch = self.telemetry.epoch;
        let wants_probe = self.obs.as_ref().is_some_and(|o| o.wants_conflict(epoch));
        let conflict = match (wants_probe, shared) {
            (true, Some(theta)) => Some(self.probe_conflict(theta)),
            _ => None,
        };
        let t = &mut self.telemetry;
        let event = EpochEvent {
            epoch,
            mean_loss: if t.n_batches == 0 { 0.0 } else { t.loss_sum / t.n_batches as f64 },
            domain_losses: t
                .domain_loss
                .iter()
                .enumerate()
                .filter(|(_, (_, n))| *n > 0)
                .map(|(d, (sum, n))| (d, sum / *n as f64))
                .collect(),
            grad_norm: if t.n_batches == 0 {
                None
            } else {
                Some((t.sq_grad_sum / t.n_batches as f64).sqrt())
            },
            conflict,
        };
        t.reset_epoch();
        t.epoch += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.on_epoch_end(&event);
        }
    }

    /// Reports the end of a training run (wall-clock since
    /// [`observe_train_start`](Self::observe_train_start)) to the observer.
    pub fn observe_train_end(&mut self) {
        let wall =
            self.telemetry.started.take().map(|t| t.elapsed().as_secs_f64()).unwrap_or_default();
        if let Some(obs) = self.obs.as_mut() {
            obs.on_train_end(wall);
        }
    }

    /// Measures pairwise gradient conflict at `theta` for the observer.
    ///
    /// Batches come from the dedicated probe RNG and gradients are taken in
    /// eval mode (dropout off draws nothing), so the probe leaves the
    /// training RNG stream untouched.
    fn probe_conflict(&mut self, theta: &[f32]) -> ConflictSummary {
        const PROBE_BATCHES: usize = 4;
        let n = self.ds.n_domains();
        let mut grads = Vec::with_capacity(n);
        for d in 0..n {
            let batches = first_batches_for_domain(
                self.ds,
                d,
                Split::Train,
                BatchPlan::train(self.cfg.batch_size),
                PROBE_BATCHES,
                &mut self.probe_rng,
            );
            let mut acc = vec![0.0f32; theta.len()];
            let k = batches.len().max(1);
            for batch in &batches {
                let (_, g) = self.grad(theta, batch, false);
                mamdr_nn::vecmath::axpy(&mut acc, 1.0 / k as f32, &g);
            }
            grads.push(acc);
        }
        let report = crate::conflict::pairwise_conflict(&grads);
        ConflictSummary {
            rate: report.conflict_rate,
            mean_cosine: report.mean_cosine,
            mean_inner_product: report.mean_inner_product,
        }
    }
}

/// How a trained model materializes parameters per domain.
#[derive(Debug, Clone)]
pub enum DomainParams {
    /// Every domain is served by the shared parameters alone.
    SharedOnly,
    /// Per-domain *deltas*: Θ_d = θS + θ_d (paper Eq. 4 — MAMDR, DR,
    /// Alternate+Finetune expressed as a delta).
    Deltas(Vec<Vec<f32>>),
    /// Per-domain *full* parameter vectors (Separate training).
    Full(Vec<Vec<f32>>),
}

/// The artifact a framework produces: shared parameters plus (optionally)
/// per-domain specializations.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// Shared parameters θS as a flat vector.
    pub shared: Vec<f32>,
    /// Per-domain parameterization.
    pub domains: DomainParams,
}

impl TrainedModel {
    /// A model served purely from shared parameters.
    pub fn shared_only(shared: Vec<f32>) -> Self {
        TrainedModel { shared, domains: DomainParams::SharedOnly }
    }

    /// The effective flat parameters for `domain`.
    pub fn flat_for(&self, domain: usize) -> Vec<f32> {
        match &self.domains {
            DomainParams::SharedOnly => self.shared.clone(),
            DomainParams::Deltas(deltas) => {
                let mut flat = self.shared.clone();
                mamdr_nn::vecmath::axpy(&mut flat, 1.0, &deltas[domain]);
                flat
            }
            DomainParams::Full(full) => full[domain].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_data::{DomainSpec, GeneratorConfig};
    use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};

    fn fixture() -> (MdrDataset, mamdr_models::BuiltModel) {
        fixture_of(40, 25, 300)
    }

    /// Two domains over `users × items`; the first asks for `first`
    /// interactions, as many as the distinct pairs allow.
    fn fixture_of(
        users: usize,
        items: usize,
        first: usize,
    ) -> (MdrDataset, mamdr_models::BuiltModel) {
        let mut cfg = GeneratorConfig::base("t", users, items, 77);
        cfg.domains = vec![DomainSpec::new("a", first, 0.3), DomainSpec::new("b", 200, 0.4)];
        let ds = cfg.generate();
        let fc = FeatureConfig::from_dataset(&ds);
        let built = build_model(ModelKind::Mlp, &fc, &ModelConfig::tiny(), 2, 1);
        (ds, built)
    }

    #[test]
    fn grad_is_deterministic_in_eval_mode() {
        let (ds, built) = fixture();
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let flat = env.init_flat();
        let batch = mamdr_data::make_batch(&ds, 0, &ds.domains[0].train[..16]);
        let (l1, g1) = env.grad(&flat, &batch, false);
        let (l2, g2) = env.grad(&flat, &batch, false);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn sample_train_batch_has_config_size() {
        let (ds, built) = fixture();
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let b = env.sample_train_batch(1);
        assert_eq!(b.len(), TrainConfig::quick().batch_size.min(ds.domains[1].train.len()));
        assert_eq!(b.domain, 1);
    }

    #[test]
    fn shuffled_domains_is_permutation() {
        let (ds, built) = fixture();
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let mut order = env.shuffled_domains();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn trained_model_composition() {
        let shared = vec![1.0, 2.0, 3.0];
        let tm = TrainedModel::shared_only(shared.clone());
        assert_eq!(tm.flat_for(0), shared);
        let tm = TrainedModel {
            shared: shared.clone(),
            domains: DomainParams::Deltas(vec![vec![0.5, 0.0, -1.0], vec![0.0; 3]]),
        };
        assert_eq!(tm.flat_for(0), vec![1.5, 2.0, 2.0]);
        assert_eq!(tm.flat_for(1), shared);
        let tm = TrainedModel {
            shared,
            domains: DomainParams::Full(vec![vec![9.0, 9.0, 9.0], vec![0.0; 3]]),
        };
        assert_eq!(tm.flat_for(0), vec![9.0; 3]);
    }

    #[test]
    fn grad_into_matches_grad() {
        let (ds, built) = fixture();
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let flat = env.init_flat();
        let batch = mamdr_data::make_batch(&ds, 0, &ds.domains[0].train[..16]);
        let (l1, g1) = env.grad(&flat, &batch, false);
        // Pre-poison the buffer: grad_into must fully overwrite it.
        let mut g2 = vec![7.5f32; env.n_params()];
        let l2 = env.grad_into(&flat, &batch, false, &mut g2);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn grad_sparse_touches_the_batch_rows_and_densifies_to_grad() {
        let (ds, built) = fixture();
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let flat = env.init_flat();
        let batch = mamdr_data::make_batch(&ds, 0, &ds.domains[0].train[..16]);
        let (l1, dense) = env.grad(&flat, &batch, false);
        let mut sparse = SparseGrad::default();
        let l2 = env.grad_sparse(&flat, &batch, false, &mut sparse);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(sparse.to_dense(), dense);
        let touched: usize = sparse.spans().map(|(_, g)| g.len()).sum();
        assert!(touched < env.n_params(), "all {touched} coordinates touched");
    }

    #[test]
    fn evaluate_is_bit_identical_across_thread_counts() {
        let (ds, built) = fixture_of(400, 250, 4000);
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let tm = TrainedModel::shared_only(env.init_flat());
        // `evaluate` scores batches of 256; three or more split at 4 threads.
        assert!(ds.domains[0].split(Split::Test).len() > 2 * 256);
        let restore = mamdr_tensor::pool::configured_threads();
        mamdr_tensor::pool::set_threads(1);
        let serial = env.evaluate(&tm, Split::Test);
        mamdr_tensor::pool::set_threads(4);
        let parallel = env.evaluate(&tm, Split::Test);
        mamdr_tensor::pool::set_threads(restore);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn evaluate_returns_per_domain_auc() {
        let (ds, built) = fixture();
        let mut env =
            TrainEnv::new(&ds, built.model.as_ref(), built.params.clone(), TrainConfig::quick());
        let tm = TrainedModel::shared_only(env.init_flat());
        let aucs = env.evaluate(&tm, Split::Test);
        assert_eq!(aucs.len(), 2);
        for a in aucs {
            assert!((0.0..=1.0).contains(&a));
        }
    }
}
