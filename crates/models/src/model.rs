//! The model interface the learning frameworks train against.

use crate::config::{FeatureConfig, ModelConfig, ModelKind};
use crate::multi::{Cgc, Mmoe, Ple, SharedBottom, Star};
use crate::single::{AutoInt, DeepFm, MlpModel, NeurFm, Raw, Wdl};
use mamdr_autodiff::tape::stable_sigmoid;
use mamdr_autodiff::{Grads, Tape, Var};
use mamdr_data::Batch;
use mamdr_nn::{ForwardCtx, ParamStore, ParamStoreBuilder};
use mamdr_tensor::rng::seeded;

/// A CTR model: registers parameters at construction, replays its forward
/// pass per batch.
///
/// The output is a `[b]`-shaped logits node. Implementations must be pure
/// functions of `(ps, batch, ctx)` so the frameworks can swap parameter
/// vectors underneath them.
pub trait CtrModel: Send + Sync {
    /// Architecture name (matches the paper's tables).
    fn name(&self) -> &str;

    /// Builds the logits node for a batch.
    fn forward(&self, ps: &ParamStore, tape: &mut Tape, ctx: &mut ForwardCtx, batch: &Batch)
        -> Var;
}

/// A constructed model together with its freshly initialized parameters.
pub struct BuiltModel {
    /// The architecture.
    pub model: Box<dyn CtrModel>,
    /// Its initialized parameter store.
    pub params: ParamStore,
}

/// Builds a model of `kind` for the given feature spaces.
///
/// `n_domains` is consumed by the multi-domain architectures
/// (Shared-Bottom, MMoE, CGC, PLE, STAR) and ignored by the single-domain
/// ones. Initialization is deterministic in `seed`.
pub fn build_model(
    kind: ModelKind,
    features: &FeatureConfig,
    config: &ModelConfig,
    n_domains: usize,
    seed: u64,
) -> BuiltModel {
    let mut builder = ParamStoreBuilder::new();
    let model: Box<dyn CtrModel> = match kind {
        ModelKind::Mlp => Box::new(MlpModel::new(&mut builder, features, config)),
        ModelKind::Wdl => Box::new(Wdl::new(&mut builder, features, config)),
        ModelKind::NeurFm => Box::new(NeurFm::new(&mut builder, features, config)),
        ModelKind::AutoInt => Box::new(AutoInt::new(&mut builder, features, config)),
        ModelKind::DeepFm => Box::new(DeepFm::new(&mut builder, features, config)),
        ModelKind::Raw => Box::new(Raw::new(&mut builder, features, config)),
        ModelKind::SharedBottom => {
            Box::new(SharedBottom::new(&mut builder, features, config, n_domains))
        }
        ModelKind::Mmoe => Box::new(Mmoe::new(&mut builder, features, config, n_domains)),
        ModelKind::Cgc => Box::new(Cgc::new(&mut builder, features, config, n_domains)),
        ModelKind::Ple => Box::new(Ple::new(&mut builder, features, config, n_domains)),
        ModelKind::Star => Box::new(Star::new(&mut builder, features, config, n_domains)),
    };
    let params = builder.build(&mut seeded(seed));
    BuiltModel { model, params }
}

/// One training evaluation: mean BCE loss and the gradient of every touched
/// parameter (embedding tables as the rows the batch gathered).
///
/// This is the *entire* interface the model-agnostic frameworks use — they
/// never see the architecture.
pub fn loss_and_grads(
    model: &dyn CtrModel,
    ps: &ParamStore,
    batch: &Batch,
    ctx: &mut ForwardCtx,
) -> (f32, Grads) {
    let mut tape = Tape::new();
    let logits = model.forward(ps, &mut tape, ctx, batch);
    let flat = flatten_logits(&mut tape, logits, batch.len());
    let loss = tape.bce_with_logits_mean(flat, batch.labels_tensor());
    let loss_value = tape.value(loss).item();
    let grads = tape.backward(loss);
    (loss_value, grads)
}

/// Evaluation-mode logits for a batch (no dropout, no tape retained).
pub fn eval_logits(model: &dyn CtrModel, ps: &ParamStore, batch: &Batch) -> Vec<f32> {
    let mut rng = seeded(0); // eval path never draws from it
    let mut ctx = ForwardCtx::eval(&mut rng);
    let mut tape = Tape::new();
    let logits = model.forward(ps, &mut tape, &mut ctx, batch);
    let flat = flatten_logits(&mut tape, logits, batch.len());
    tape.value(flat).data().to_vec()
}

/// Evaluation-mode click probabilities for a batch.
pub fn predict_probs(model: &dyn CtrModel, ps: &ParamStore, batch: &Batch) -> Vec<f32> {
    eval_logits(model, ps, batch).into_iter().map(stable_sigmoid).collect()
}

/// Normalizes a logits node to shape `[b]` whether the head emitted `[b]`
/// or `[b, 1]`.
fn flatten_logits(tape: &mut Tape, logits: Var, batch_len: usize) -> Var {
    let shape = tape.value(logits).shape().to_vec();
    match shape.as_slice() {
        [n] => {
            assert_eq!(*n, batch_len, "logit count != batch size");
            logits
        }
        [n, 1] => {
            assert_eq!(*n, batch_len, "logit count != batch size");
            tape.reshape(logits, &[batch_len])
        }
        other => panic!("unexpected logits shape {:?}", other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_data::{make_batch, DomainSpec, GeneratorConfig, MdrDataset};
    use mamdr_nn::vecmath;

    fn dataset(dense: usize) -> MdrDataset {
        let mut cfg = GeneratorConfig::base("t", 40, 25, 11);
        cfg.dense_dim = dense;
        cfg.domains = vec![DomainSpec::new("a", 200, 0.3), DomainSpec::new("b", 150, 0.4)];
        cfg.generate()
    }

    #[test]
    fn every_architecture_builds_and_runs() {
        for dense in [0usize, 6] {
            let ds = dataset(dense);
            let fc = FeatureConfig::from_dataset(&ds);
            let mc = ModelConfig::tiny();
            let batch = make_batch(&ds, 1, &ds.domains[1].train[..7]);
            for kind in ModelKind::ALL {
                let built = build_model(kind, &fc, &mc, ds.n_domains(), 5);
                let logits = eval_logits(built.model.as_ref(), &built.params, &batch);
                assert_eq!(logits.len(), 7, "{} logits", kind.name());
                assert!(
                    logits.iter().all(|x| x.is_finite()),
                    "{} produced non-finite logits",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn every_architecture_has_nonzero_gradients() {
        let ds = dataset(6);
        let fc = FeatureConfig::from_dataset(&ds);
        let mc = ModelConfig::tiny();
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..16]);
        for kind in ModelKind::ALL {
            let built = build_model(kind, &fc, &mc, ds.n_domains(), 6);
            let mut rng = seeded(7);
            let mut ctx = ForwardCtx::train(&mut rng);
            let (loss, grads) =
                loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut ctx);
            assert!(loss.is_finite() && loss > 0.0, "{} loss {}", kind.name(), loss);
            let flat = built.params.grads_to_flat(&grads);
            assert!(vecmath::norm(&flat) > 0.0, "{} gradient is identically zero", kind.name());
            assert!(flat.iter().all(|x| x.is_finite()), "{} grad non-finite", kind.name());
        }
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        // Sanity: a gradient step on the same batch must reduce the loss for
        // every architecture.
        let ds = dataset(6);
        let fc = FeatureConfig::from_dataset(&ds);
        let mc = ModelConfig::tiny();
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..32]);
        for kind in ModelKind::ALL {
            let mut built = build_model(kind, &fc, &mc, ds.n_domains(), 8);
            let mut rng = seeded(9);
            let mut ctx = ForwardCtx::eval(&mut rng); // deterministic forward
            let (loss0, grads) =
                loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut ctx);
            let mut flat = built.params.to_flat();
            let g = built.params.grads_to_flat(&grads);
            vecmath::axpy(&mut flat, -0.05, &g);
            built.params.load_flat(&flat);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let (loss1, _) = loss_and_grads(built.model.as_ref(), &built.params, &batch, &mut ctx);
            assert!(
                loss1 < loss0,
                "{}: loss did not decrease ({} -> {})",
                kind.name(),
                loss0,
                loss1
            );
        }
    }

    #[test]
    fn predictions_are_probabilities() {
        let ds = dataset(0);
        let fc = FeatureConfig::from_dataset(&ds);
        let built = build_model(ModelKind::DeepFm, &fc, &ModelConfig::tiny(), 2, 3);
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..9]);
        let probs = predict_probs(built.model.as_ref(), &built.params, &batch);
        assert_eq!(probs.len(), 9);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn multi_domain_models_route_by_batch_domain() {
        // The same interactions scored under different domain ids must give
        // different logits for domain-aware architectures.
        let ds = dataset(0);
        let fc = FeatureConfig::from_dataset(&ds);
        let mc = ModelConfig::tiny();
        let inter = &ds.domains[0].train[..8];
        let mut batch_a = make_batch(&ds, 0, inter);
        let batch_b = {
            batch_a.domain = 0;
            let mut b = batch_a.clone();
            b.domain = 1;
            b
        };
        for kind in [
            ModelKind::SharedBottom,
            ModelKind::Mmoe,
            ModelKind::Cgc,
            ModelKind::Ple,
            ModelKind::Star,
        ] {
            let built = build_model(kind, &fc, &mc, 2, 10);
            // Nudge all params away from init symmetry so towers differ.
            let mut params = built.params.clone();
            let mut flat = params.to_flat();
            for (i, x) in flat.iter_mut().enumerate() {
                *x += 0.01 * ((i % 17) as f32 - 8.0);
            }
            params.load_flat(&flat);
            let la = eval_logits(built.model.as_ref(), &params, &batch_a);
            let lb = eval_logits(built.model.as_ref(), &params, &batch_b);
            assert_ne!(la, lb, "{} ignores batch.domain", kind.name());
        }
    }
}
