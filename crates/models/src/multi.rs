//! Multi-task / multi-domain CTR architectures (paper Table V, lower block).
//!
//! These models carry explicit per-domain structure (towers, gates or
//! element-wise weight masks) and read `batch.domain` to route examples.

use crate::config::{FeatureConfig, ModelConfig};
use crate::features::FieldEmbeddings;
use crate::model::Architecture;
use mamdr_autodiff::{Recorder, Var};
use mamdr_data::Batch;
use mamdr_nn::{Activation, Dense, Embedding, ForwardCtx, Mlp, ParamStore, ParamStoreBuilder};
use mamdr_tensor::init::Init;

/// Width of the per-domain tower hidden layer (paper: `[64]`, scaled).
const TOWER_HIDDEN: usize = 16;

/// Shared-Bottom: one shared trunk MLP, one small tower per domain.
pub struct SharedBottom {
    fields: FieldEmbeddings,
    bottom: Mlp,
    towers: Vec<Mlp>,
}

impl SharedBottom {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
        n_domains: usize,
    ) -> Self {
        assert!(n_domains >= 1, "need at least one domain");
        let fields = FieldEmbeddings::new(builder, "sb", features, config);
        let mut dims = vec![fields.concat_dim()];
        dims.extend_from_slice(&config.hidden);
        let bottom = Mlp::new(builder, "sb/bottom", &dims, Activation::Relu, config.dropout);
        let trunk_out = *dims.last().unwrap();
        let towers = (0..n_domains)
            .map(|d| {
                Mlp::new(
                    builder,
                    &format!("sb/tower{d}"),
                    &[trunk_out, TOWER_HIDDEN, 1],
                    Activation::Linear,
                    0.0,
                )
            })
            .collect();
        SharedBottom { fields, bottom, towers }
    }
}

impl Architecture for SharedBottom {
    const NAME: &'static str = "Shared-Bottom";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        let h = self.bottom.forward(ps, rec, ctx, x);
        self.towers[batch.domain].forward(ps, rec, ctx, h)
    }
}

/// Multi-gate Mixture-of-Experts: shared experts, one softmax gate and one
/// tower per domain.
pub struct Mmoe {
    fields: FieldEmbeddings,
    experts: Vec<Mlp>,
    gates: Vec<Dense>,
    towers: Vec<Mlp>,
}

impl Mmoe {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
        n_domains: usize,
    ) -> Self {
        assert!(n_domains >= 1);
        let fields = FieldEmbeddings::new(builder, "mmoe", features, config);
        let in_dim = fields.concat_dim();
        let mut expert_dims = vec![in_dim];
        expert_dims.extend_from_slice(&config.hidden);
        let expert_out = *expert_dims.last().unwrap();
        let experts = (0..config.n_experts)
            .map(|e| {
                Mlp::new(
                    builder,
                    &format!("mmoe/expert{e}"),
                    &expert_dims,
                    Activation::Relu,
                    config.dropout,
                )
            })
            .collect();
        let gates = (0..n_domains)
            .map(|d| {
                Dense::new(
                    builder,
                    &format!("mmoe/gate{d}"),
                    in_dim,
                    config.n_experts,
                    Activation::Linear,
                )
            })
            .collect();
        let towers = (0..n_domains)
            .map(|d| {
                Mlp::new(
                    builder,
                    &format!("mmoe/tower{d}"),
                    &[expert_out, TOWER_HIDDEN, 1],
                    Activation::Linear,
                    0.0,
                )
            })
            .collect();
        Mmoe { fields, experts, gates, towers }
    }
}

/// Softmax-gated mixture of expert outputs:
/// `Σ_e gate[:, e] ⊙ expert_e`, all `[b, h]`.
fn gated_mixture<R: Recorder>(
    rec: &mut R,
    gate_logits: Var,
    expert_outs: &[Var],
    batch_len: usize,
) -> Var {
    let gate = rec.softmax_rows(gate_logits);
    let mut acc: Option<Var> = None;
    for (e, &out) in expert_outs.iter().enumerate() {
        let ge = rec.slice_cols(gate, e, 1);
        let ge = rec.reshape(ge, &[batch_len]);
        let w = rec.mul_col(out, ge);
        acc = Some(match acc {
            Some(prev) => rec.add(prev, w),
            None => w,
        });
    }
    acc.expect("at least one expert")
}

impl Architecture for Mmoe {
    const NAME: &'static str = "MMOE";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        let expert_outs: Vec<Var> =
            self.experts.iter().map(|e| e.forward(ps, rec, ctx, x)).collect();
        let gate_logits = self.gates[batch.domain].forward(ps, rec, x);
        let mixed = gated_mixture(rec, gate_logits, &expert_outs, batch.len());
        self.towers[batch.domain].forward(ps, rec, ctx, mixed)
    }
}

/// One CGC extraction block: shared experts + per-domain experts, with a
/// per-domain gate over (shared ∪ own) experts.
struct CgcBlock {
    shared_experts: Vec<Mlp>,
    domain_experts: Vec<Vec<Mlp>>,
    gates: Vec<Dense>,
}

impl CgcBlock {
    fn new(
        builder: &mut ParamStoreBuilder,
        name: &str,
        in_dim: usize,
        hidden: &[usize],
        n_experts: usize,
        n_domains: usize,
        dropout: f32,
    ) -> Self {
        let mut dims = vec![in_dim];
        dims.extend_from_slice(hidden);
        let shared_experts = (0..n_experts)
            .map(|e| Mlp::new(builder, &format!("{name}/se{e}"), &dims, Activation::Relu, dropout))
            .collect();
        let domain_experts = (0..n_domains)
            .map(|d| {
                (0..n_experts)
                    .map(|e| {
                        Mlp::new(
                            builder,
                            &format!("{name}/d{d}e{e}"),
                            &dims,
                            Activation::Relu,
                            dropout,
                        )
                    })
                    .collect()
            })
            .collect();
        let gates = (0..n_domains)
            .map(|d| {
                Dense::new(
                    builder,
                    &format!("{name}/gate{d}"),
                    in_dim,
                    2 * n_experts,
                    Activation::Linear,
                )
            })
            .collect();
        CgcBlock { shared_experts, domain_experts, gates }
    }

    /// Fused representation for `domain` from input `x`.
    fn forward<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        x: Var,
        domain: usize,
        batch_len: usize,
    ) -> Var {
        let mut outs: Vec<Var> =
            self.shared_experts.iter().map(|e| e.forward(ps, rec, ctx, x)).collect();
        outs.extend(self.domain_experts[domain].iter().map(|e| e.forward(ps, rec, ctx, x)));
        let gate_logits = self.gates[domain].forward(ps, rec, x);
        gated_mixture(rec, gate_logits, &outs, batch_len)
    }
}

/// Customized Gate Control: a single CGC extraction block plus per-domain
/// towers (the one-layer special case of PLE).
pub struct Cgc {
    fields: FieldEmbeddings,
    block: CgcBlock,
    towers: Vec<Mlp>,
}

impl Cgc {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
        n_domains: usize,
    ) -> Self {
        assert!(n_domains >= 1);
        let fields = FieldEmbeddings::new(builder, "cgc", features, config);
        let block = CgcBlock::new(
            builder,
            "cgc/l0",
            fields.concat_dim(),
            &config.hidden,
            config.n_experts,
            n_domains,
            config.dropout,
        );
        let out = *config.hidden.last().unwrap();
        let towers = (0..n_domains)
            .map(|d| {
                Mlp::new(
                    builder,
                    &format!("cgc/tower{d}"),
                    &[out, TOWER_HIDDEN, 1],
                    Activation::Linear,
                    0.0,
                )
            })
            .collect();
        Cgc { fields, block, towers }
    }
}

impl Architecture for Cgc {
    const NAME: &'static str = "CGC";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        let fused = self.block.forward(ps, rec, ctx, x, batch.domain, batch.len());
        self.towers[batch.domain].forward(ps, rec, ctx, fused)
    }
}

/// Progressive Layered Extraction: two stacked CGC blocks (the second
/// consumes the first's fused representation) plus per-domain towers.
pub struct Ple {
    fields: FieldEmbeddings,
    block1: CgcBlock,
    block2: CgcBlock,
    towers: Vec<Mlp>,
}

impl Ple {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
        n_domains: usize,
    ) -> Self {
        assert!(n_domains >= 1);
        let fields = FieldEmbeddings::new(builder, "ple", features, config);
        let h = *config.hidden.last().unwrap();
        let block1 = CgcBlock::new(
            builder,
            "ple/l0",
            fields.concat_dim(),
            &config.hidden,
            config.n_experts,
            n_domains,
            config.dropout,
        );
        let block2 =
            CgcBlock::new(builder, "ple/l1", h, &[h], config.n_experts, n_domains, config.dropout);
        let towers = (0..n_domains)
            .map(|d| {
                Mlp::new(
                    builder,
                    &format!("ple/tower{d}"),
                    &[h, TOWER_HIDDEN, 1],
                    Activation::Linear,
                    0.0,
                )
            })
            .collect();
        Ple { fields, block1, block2, towers }
    }
}

impl Architecture for Ple {
    const NAME: &'static str = "PLE";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        let f1 = self.block1.forward(ps, rec, ctx, x, batch.domain, batch.len());
        let f2 = self.block2.forward(ps, rec, ctx, f1, batch.domain, batch.len());
        self.towers[batch.domain].forward(ps, rec, ctx, f2)
    }
}

/// One STAR fully connected layer: shared weights element-wise multiplied by
/// per-domain weights (`W = W_s ⊙ W_d`), biases added (`b = b_s + b_d`).
struct StarLayer {
    w_shared: usize,
    b_shared: usize,
    w_domain: Vec<usize>,
    b_domain: Vec<usize>,
    activation: Activation,
}

impl StarLayer {
    fn new(
        builder: &mut ParamStoreBuilder,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        n_domains: usize,
        activation: Activation,
    ) -> Self {
        let init = match activation {
            Activation::Relu => Init::HeNormal,
            _ => Init::XavierNormal,
        };
        let w_shared = builder.register(format!("{name}/ws"), &[in_dim, out_dim], init);
        let b_shared = builder.register(format!("{name}/bs"), &[out_dim], Init::Zeros);
        // Per-domain masks start at identity (ones / zeros), so at init the
        // star layer equals its shared layer — as in the STAR paper.
        let w_domain = (0..n_domains)
            .map(|d| {
                builder.register(format!("{name}/wd{d}"), &[in_dim, out_dim], Init::Constant(1.0))
            })
            .collect();
        let b_domain = (0..n_domains)
            .map(|d| builder.register(format!("{name}/bd{d}"), &[out_dim], Init::Zeros))
            .collect();
        StarLayer { w_shared, b_shared, w_domain, b_domain, activation }
    }

    fn forward<R: Recorder>(&self, ps: &ParamStore, rec: &mut R, x: Var, domain: usize) -> Var {
        let ws = rec.param(self.w_shared, ps.get(self.w_shared));
        let wd = rec.param(self.w_domain[domain], ps.get(self.w_domain[domain]));
        let bs = rec.param(self.b_shared, ps.get(self.b_shared));
        let bd = rec.param(self.b_domain[domain], ps.get(self.b_domain[domain]));
        let w = rec.mul(ws, wd);
        let b = rec.add(bs, bd);
        rec.dense(x, w, Some(b), self.activation.into())
    }
}

/// STAR (Star Topology Adaptive Recommender): partitioned normalization,
/// a star-topology FCN with shared ⊙ domain-specific weights, and an
/// auxiliary domain-indicator network added to the main logit.
pub struct Star {
    fields: FieldEmbeddings,
    pn_gamma: Vec<usize>,
    pn_beta: Vec<usize>,
    layers: Vec<StarLayer>,
    aux_domain_emb: Embedding,
    aux_head: Dense,
}

impl Star {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
        n_domains: usize,
    ) -> Self {
        assert!(n_domains >= 1);
        let fields = FieldEmbeddings::new(builder, "star", features, config);
        let in_dim = fields.concat_dim();
        // Partitioned normalization: per-domain scale and bias.
        let pn_gamma = (0..n_domains)
            .map(|d| builder.register(format!("star/pn_gamma{d}"), &[in_dim], Init::Constant(1.0)))
            .collect();
        let pn_beta = (0..n_domains)
            .map(|d| builder.register(format!("star/pn_beta{d}"), &[in_dim], Init::Zeros))
            .collect();
        let mut dims = vec![in_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let layers = (0..dims.len() - 1)
            .map(|i| {
                let act = if i + 2 == dims.len() { Activation::Linear } else { Activation::Relu };
                StarLayer::new(builder, &format!("star/l{i}"), dims[i], dims[i + 1], n_domains, act)
            })
            .collect();
        let aux_domain_emb = Embedding::new(builder, "star/aux_emb", n_domains, config.embed_dim);
        let aux_head =
            Dense::new(builder, "star/aux_head", config.embed_dim + in_dim, 1, Activation::Linear);
        Star { fields, pn_gamma, pn_beta, layers, aux_domain_emb, aux_head }
    }
}

impl Architecture for Star {
    const NAME: &'static str = "Star";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let _ = ctx;
        let d = batch.domain;
        let x = self.fields.concat(ps, rec, batch);

        // Partitioned normalization: batch-normalize, then domain scale/bias.
        let z = rec.normalize_rows(x, 1e-5);
        let gamma = rec.param(self.pn_gamma[d], ps.get(self.pn_gamma[d]));
        let beta = rec.param(self.pn_beta[d], ps.get(self.pn_beta[d]));
        let gamma_rows = rec.reshape(gamma, &[1, rec.value(z).shape()[1]]);
        let z = {
            // Row-broadcast multiply via mul_row is only available on
            // tensors; emulate with an explicit broadcast through MulCol's
            // transpose-free path: z ⊙ γ per row.
            let zt = rec.transpose(z);
            let gcol = rec.reshape(gamma_rows, &[rec.value(zt).shape()[0]]);
            let scaled = rec.mul_col(zt, gcol);
            let back = rec.transpose(scaled);
            rec.add_row(back, beta)
        };

        // Star-topology FCN.
        let mut h = z;
        for layer in &self.layers {
            h = layer.forward(ps, rec, h, d);
        }

        // Auxiliary network: domain embedding + normalized input -> logit.
        let dom_ids = vec![d as u32; batch.len()];
        let dom_emb = self.aux_domain_emb.forward(ps, rec, &dom_ids);
        let aux_in = rec.concat_cols(&[dom_emb, z]);
        let aux = self.aux_head.forward(ps, rec, aux_in);
        rec.add(h, aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{eval_logits, loss_and_grads};
    use mamdr_autodiff::Tape;
    use mamdr_data::{make_batch, DomainSpec, GeneratorConfig};
    use mamdr_tensor::rng::seeded;

    fn fixture() -> (mamdr_data::MdrDataset, FeatureConfig, ModelConfig) {
        let mut cfg = GeneratorConfig::base("t", 30, 20, 31);
        cfg.domains = vec![DomainSpec::new("a", 150, 0.3), DomainSpec::new("b", 100, 0.4)];
        let ds = cfg.generate();
        let fc = FeatureConfig::from_dataset(&ds);
        (ds, fc, ModelConfig::tiny())
    }

    #[test]
    fn star_equals_shared_at_init_mask() {
        // With domain masks at ones/zeros (their init), two domains' star
        // FCNs coincide; only PN params and the aux net differ, and those are
        // also identical at init — so logits must match across domains.
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = Star::new(&mut b, &fc, &mc, 2);
        let ps = b.build(&mut seeded(4));
        let inter = &ds.domains[0].train[..6];
        let mut batch0 = make_batch(&ds, 0, inter);
        batch0.domain = 0;
        let mut batch1 = batch0.clone();
        batch1.domain = 1;
        let l0 = eval_logits(&model, &ps, &batch0);
        let l1 = eval_logits(&model, &ps, &batch1);
        // The aux domain embedding is random-initialized, so allow its tiny
        // contribution (N(0,0.01) embeddings through one linear layer).
        for (a, b) in l0.iter().zip(&l1) {
            assert!((a - b).abs() < 0.1, "star domains diverged at init: {} vs {}", a, b);
        }
    }

    #[test]
    fn gated_mixture_weights_sum_to_one() {
        // With identical experts, the mixture must equal each expert exactly
        // (softmax weights sum to 1).
        let mut tape = Tape::new();
        let e = tape.leaf(mamdr_tensor::Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let gate_logits =
            tape.leaf(mamdr_tensor::Tensor::from_vec([2, 2], vec![0.3, -1.0, 2.0, 2.0]));
        let mixed = gated_mixture(&mut tape, gate_logits, &[e, e], 2);
        assert!(tape.value(mixed).max_abs_diff(tape.value(e)) < 1e-5);
    }

    #[test]
    fn tower_gradients_stay_in_domain() {
        // Training on domain 0 must not touch domain 1's tower parameters.
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = SharedBottom::new(&mut b, &fc, &mc, 2);
        let ps = b.build(&mut seeded(5));
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..8]);
        let mut rng = seeded(6);
        let mut ctx = ForwardCtx::train(&mut rng);
        let (_, grads) = loss_and_grads(&model, &ps, &batch, &mut ctx);
        for (i, spec, _) in ps.iter() {
            if spec.name.starts_with("sb/tower1") {
                assert!(!grads.contains(i), "{} received gradient", spec.name);
            }
            if spec.name.starts_with("sb/tower0") {
                assert!(grads.contains(i), "{} missing gradient", spec.name);
            }
        }
    }

    #[test]
    fn cgc_uses_only_own_domain_experts() {
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = Cgc::new(&mut b, &fc, &mc, 2);
        let ps = b.build(&mut seeded(7));
        let batch = make_batch(&ds, 1, &ds.domains[1].train[..8]);
        let mut rng = seeded(8);
        let mut ctx = ForwardCtx::train(&mut rng);
        let (_, grads) = loss_and_grads(&model, &ps, &batch, &mut ctx);
        for (i, spec, _) in ps.iter() {
            if spec.name.starts_with("cgc/l0/d0e") {
                assert!(!grads.contains(i), "{} received gradient", spec.name);
            }
            if spec.name.starts_with("cgc/l0/se") && spec.name.ends_with("/w") {
                assert!(grads.contains(i), "{} missing gradient", spec.name);
            }
        }
    }

    #[test]
    fn ple_stacks_two_blocks() {
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = Ple::new(&mut b, &fc, &mc, 2);
        let ps = b.build(&mut seeded(9));
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..4]);
        let logits = eval_logits(&model, &ps, &batch);
        assert_eq!(logits.len(), 4);
        // Both extraction layers registered parameters.
        assert!(ps.index_of("ple/l0/se0/l0/w").is_some());
        assert!(ps.index_of("ple/l1/se0/l0/w").is_some());
    }

    #[test]
    fn mmoe_gate_responds_to_domain() {
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = Mmoe::new(&mut b, &fc, &mc, 2);
        let mut ps = b.build(&mut seeded(10));
        // Make the two gates differ strongly.
        let g0 = ps.index_of("mmoe/gate0/w").unwrap();
        ps.get_mut(g0).map_inplace(|_| 1.0);
        let g1 = ps.index_of("mmoe/gate1/w").unwrap();
        ps.get_mut(g1).map_inplace(|_| -1.0);
        let inter = &ds.domains[0].train[..5];
        let mut b0 = make_batch(&ds, 0, inter);
        b0.domain = 0;
        let mut b1 = b0.clone();
        b1.domain = 1;
        assert_ne!(eval_logits(&model, &ps, &b0), eval_logits(&model, &ps, &b1));
    }
}
