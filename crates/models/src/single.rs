//! Single-domain CTR architectures (paper Table V, upper block).
//!
//! These models have no structural notion of a domain; under multi-domain
//! training they are either trained alternately on all domains' data or
//! wrapped by a model-agnostic framework from `mamdr-core`.

use crate::config::{FeatureConfig, ModelConfig};
use crate::features::{bi_interaction, FieldEmbeddings, LinearEmbeddings};
use crate::model::Architecture;
use mamdr_autodiff::{Recorder, Var};
use mamdr_data::Batch;
use mamdr_nn::{
    layers::apply_dropout, Activation, Dense, Embedding, ForwardCtx, Mlp, ParamStore,
    ParamStoreBuilder,
};

/// Plain multi-layer perceptron over concatenated field embeddings — the
/// base model MAMDR wraps in the paper's headline experiments.
pub struct MlpModel {
    fields: FieldEmbeddings,
    mlp: Mlp,
}

impl MlpModel {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let fields = FieldEmbeddings::new(builder, "mlp", features, config);
        let mut dims = vec![fields.concat_dim()];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mlp = Mlp::new(builder, "mlp/deep", &dims, Activation::Linear, config.dropout);
        MlpModel { fields, mlp }
    }
}

impl Architecture for MlpModel {
    const NAME: &'static str = "MLP";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        self.mlp.forward(ps, rec, ctx, x)
    }
}

/// Wide & Deep: a linear "wide" part over raw ids plus an explicit
/// group×category cross feature, and a deep MLP part.
pub struct Wdl {
    fields: FieldEmbeddings,
    linear: LinearEmbeddings,
    cross: Embedding,
    n_item_cats: usize,
    mlp: Mlp,
}

impl Wdl {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let fields = FieldEmbeddings::new(builder, "wdl", features, config);
        let linear = LinearEmbeddings::new(builder, "wdl", features);
        // Cross-product feature: (user_group, item_cat) hashed to one id.
        let cross =
            Embedding::new(builder, "wdl/cross", features.n_user_groups * features.n_item_cats, 1);
        let mut dims = vec![fields.concat_dim()];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mlp = Mlp::new(builder, "wdl/deep", &dims, Activation::Linear, config.dropout);
        Wdl { fields, linear, cross, n_item_cats: features.n_item_cats, mlp }
    }
}

impl Architecture for Wdl {
    const NAME: &'static str = "WDL";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        let deep = self.mlp.forward(ps, rec, ctx, x);
        let wide = self.linear.forward(ps, rec, batch);
        let cross_ids: Vec<u32> = batch
            .user_groups
            .iter()
            .zip(&batch.item_cats)
            .map(|(&g, &c)| g * self.n_item_cats as u32 + c)
            .collect();
        let cross = self.cross.forward(ps, rec, &cross_ids);
        let wide = rec.add(wide, cross);
        rec.add(deep, wide)
    }
}

/// Neural Factorization Machine: linear part + an MLP over the
/// bi-interaction pooling of the field embeddings.
pub struct NeurFm {
    fields: FieldEmbeddings,
    linear: LinearEmbeddings,
    mlp: Mlp,
    dropout: f32,
}

impl NeurFm {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let fields = FieldEmbeddings::new(builder, "neurfm", features, config);
        let linear = LinearEmbeddings::new(builder, "neurfm", features);
        let mut dims = vec![config.embed_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mlp = Mlp::new(builder, "neurfm/deep", &dims, Activation::Linear, config.dropout);
        NeurFm { fields, linear, mlp, dropout: config.dropout }
    }
}

impl Architecture for NeurFm {
    const NAME: &'static str = "NeurFM";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let fields = self.fields.fields(ps, rec, batch);
        let mut bi = bi_interaction(rec, &fields);
        if self.dropout > 0.0 && ctx.training {
            bi = apply_dropout(rec, ctx, bi, self.dropout);
        }
        let deep = self.mlp.forward(ps, rec, ctx, bi);
        let lin = self.linear.forward(ps, rec, batch);
        rec.add(deep, lin)
    }
}

/// AutoInt: stacked multi-head self-attention ("interacting") layers over
/// the field embeddings, with residual connections, followed by a linear
/// head. `ModelConfig::att_layers` controls the stack depth (paper default
/// 1 at this scale; the original AutoInt uses up to 3).
pub struct AutoInt {
    fields: FieldEmbeddings,
    layers: Vec<InteractingLayer>,
    head_out: Dense,
}

/// One interacting layer: per-head Q/K/V projections plus a residual map
/// from the layer's input width to its output width.
struct InteractingLayer {
    heads: Vec<AttentionHead>,
    residual: Dense,
    att_dim: usize,
}

struct AttentionHead {
    wq: Dense,
    wk: Dense,
    wv: Dense,
}

impl InteractingLayer {
    fn new(
        builder: &mut ParamStoreBuilder,
        name: &str,
        in_dim: usize,
        att_dim: usize,
        n_heads: usize,
    ) -> Self {
        let heads = (0..n_heads)
            .map(|h| AttentionHead {
                wq: Dense::new(
                    builder,
                    &format!("{name}/h{h}/wq"),
                    in_dim,
                    att_dim,
                    Activation::Linear,
                ),
                wk: Dense::new(
                    builder,
                    &format!("{name}/h{h}/wk"),
                    in_dim,
                    att_dim,
                    Activation::Linear,
                ),
                wv: Dense::new(
                    builder,
                    &format!("{name}/h{h}/wv"),
                    in_dim,
                    att_dim,
                    Activation::Linear,
                ),
            })
            .collect();
        let residual = Dense::new(
            builder,
            &format!("{name}/res"),
            in_dim,
            n_heads * att_dim,
            Activation::Linear,
        );
        InteractingLayer { heads, residual, att_dim }
    }

    /// Output width per field.
    fn out_dim(&self) -> usize {
        self.heads.len() * self.att_dim
    }

    /// Maps per-field representations to attended per-field representations.
    fn forward<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        fields: &[Var],
        batch_len: usize,
    ) -> Vec<Var> {
        let nf = fields.len();
        let scale = 1.0 / (self.att_dim as f32).sqrt();
        let mut outputs: Vec<Vec<Var>> = vec![Vec::new(); nf];
        for head in &self.heads {
            let qs: Vec<Var> = fields.iter().map(|&e| head.wq.forward(ps, rec, e)).collect();
            let ks: Vec<Var> = fields.iter().map(|&e| head.wk.forward(ps, rec, e)).collect();
            let vs: Vec<Var> = fields.iter().map(|&e| head.wv.forward(ps, rec, e)).collect();
            for i in 0..nf {
                // score_ij = <q_i, k_j> / sqrt(a), per example.
                let mut score_cols = Vec::with_capacity(nf);
                for k in ks.iter().take(nf) {
                    let prod = rec.mul(qs[i], *k);
                    let s = rec.sum_cols_keep(prod);
                    score_cols.push(rec.scalar_mul(s, scale));
                }
                let scores = rec.concat_cols(&score_cols);
                let attn = rec.softmax_rows(scores);
                // out_i = Σ_j attn_ij · v_j
                let mut acc: Option<Var> = None;
                for (j, v) in vs.iter().enumerate().take(nf) {
                    let aij = rec.slice_cols(attn, j, 1);
                    let aij = rec.reshape(aij, &[batch_len]);
                    let w = rec.mul_col(*v, aij);
                    acc = Some(match acc {
                        Some(prev) => rec.add(prev, w),
                        None => w,
                    });
                }
                outputs[i].push(acc.expect("at least one field"));
            }
        }
        // Residual + ReLU per field.
        outputs
            .into_iter()
            .enumerate()
            .map(|(i, heads_out)| {
                let multi = rec.concat_cols(&heads_out);
                let res = self.residual.forward(ps, rec, fields[i]);
                let sum = rec.add(multi, res);
                rec.relu(sum)
            })
            .collect()
    }
}

impl AutoInt {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let fields = FieldEmbeddings::new(builder, "autoint", features, config);
        let n_layers = config.att_layers.max(1);
        let mut layers = Vec::with_capacity(n_layers);
        let mut width = config.embed_dim;
        for l in 0..n_layers {
            let layer = InteractingLayer::new(
                builder,
                &format!("autoint/l{l}"),
                width,
                config.att_dim,
                config.att_heads,
            );
            width = layer.out_dim();
            layers.push(layer);
        }
        let head_out =
            Dense::new(builder, "autoint/out", fields.n_fields() * width, 1, Activation::Linear);
        AutoInt { fields, layers, head_out }
    }
}

impl Architecture for AutoInt {
    const NAME: &'static str = "AutoInt";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let _ = ctx;
        let mut fields = self.fields.fields(ps, rec, batch);
        for layer in &self.layers {
            fields = layer.forward(ps, rec, &fields, batch.len());
        }
        let cat = rec.concat_cols(&fields);
        self.head_out.forward(ps, rec, cat)
    }
}

/// DeepFM: FM first-order + FM second-order (bi-interaction summed) + deep
/// MLP, sharing one set of field embeddings.
pub struct DeepFm {
    fields: FieldEmbeddings,
    linear: LinearEmbeddings,
    mlp: Mlp,
}

impl DeepFm {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let fields = FieldEmbeddings::new(builder, "deepfm", features, config);
        let linear = LinearEmbeddings::new(builder, "deepfm", features);
        let mut dims = vec![fields.concat_dim()];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mlp = Mlp::new(builder, "deepfm/deep", &dims, Activation::Linear, config.dropout);
        DeepFm { fields, linear, mlp }
    }
}

impl Architecture for DeepFm {
    const NAME: &'static str = "DeepFM";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let fields = self.fields.fields(ps, rec, batch);
        let lin = self.linear.forward(ps, rec, batch);
        let bi = bi_interaction(rec, &fields);
        let fm2 = rec.sum_cols_keep(bi);
        let cat = rec.concat_cols(&fields);
        let deep = self.mlp.forward(ps, rec, ctx, cat);
        let fm = rec.add(lin, fm2);
        rec.add(fm, deep)
    }
}

/// The "RAW" production model the industry experiments wrap: field
/// embeddings + deep MLP + a linear bypass (a WDL variant without the cross
/// feature, mirroring the serving model described in §V-F).
pub struct Raw {
    fields: FieldEmbeddings,
    linear: LinearEmbeddings,
    mlp: Mlp,
}

impl Raw {
    /// Registers the model's parameters.
    pub fn new(
        builder: &mut ParamStoreBuilder,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let fields = FieldEmbeddings::new(builder, "raw", features, config);
        let linear = LinearEmbeddings::new(builder, "raw", features);
        let mut dims = vec![fields.concat_dim()];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mlp = Mlp::new(builder, "raw/deep", &dims, Activation::Linear, config.dropout);
        Raw { fields, linear, mlp }
    }
}

impl Architecture for Raw {
    const NAME: &'static str = "RAW";

    fn logits<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        let x = self.fields.concat(ps, rec, batch);
        let deep = self.mlp.forward(ps, rec, ctx, x);
        let lin = self.linear.forward(ps, rec, batch);
        rec.add(deep, lin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{eval_logits, CtrModel};
    use mamdr_data::{make_batch, DomainSpec, GeneratorConfig};
    use mamdr_tensor::rng::seeded;

    fn fixture() -> (mamdr_data::MdrDataset, FeatureConfig, ModelConfig) {
        let mut cfg = GeneratorConfig::base("t", 30, 20, 21);
        cfg.domains = vec![DomainSpec::new("a", 150, 0.3)];
        let ds = cfg.generate();
        let fc = FeatureConfig::from_dataset(&ds);
        (ds, fc, ModelConfig::tiny())
    }

    #[test]
    fn wdl_cross_feature_changes_output() {
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = Wdl::new(&mut b, &fc, &mc);
        let mut ps = b.build(&mut seeded(1));
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..4]);
        let before = eval_logits(&model, &ps, &batch);
        // Bump the cross-table row used by example 0.
        let cross_id = (batch.user_groups[0] * fc.n_item_cats as u32 + batch.item_cats[0]) as usize;
        let idx = ps.index_of("wdl/cross").unwrap();
        ps.get_mut(idx).data_mut()[cross_id] += 1.0;
        let after = eval_logits(&model, &ps, &batch);
        assert!((after[0] - before[0] - 1.0).abs() < 1e-5, "cross weight should add to logit");
    }

    #[test]
    fn autoint_attention_is_permutation_sensitive() {
        // Swapping two examples swaps their logits (row-wise attention keeps
        // examples independent).
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = AutoInt::new(&mut b, &fc, &mc);
        let ps = b.build(&mut seeded(2));
        let inter = &ds.domains[0].train[..4];
        let batch = make_batch(&ds, 0, inter);
        let mut swapped_inter = inter.to_vec();
        swapped_inter.swap(0, 3);
        let swapped = make_batch(&ds, 0, &swapped_inter);
        let l1 = eval_logits(&model, &ps, &batch);
        let l2 = eval_logits(&model, &ps, &swapped);
        assert!((l1[0] - l2[3]).abs() < 1e-5);
        assert!((l1[3] - l2[0]).abs() < 1e-5);
        assert!((l1[1] - l2[1]).abs() < 1e-5);
    }

    #[test]
    fn deepfm_reduces_to_fm_when_deep_is_zeroed() {
        let (ds, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        let model = DeepFm::new(&mut b, &fc, &mc);
        let mut ps = b.build(&mut seeded(3));
        // Zero the deep tower output layer: logits become pure FM.
        for (i, spec, _) in ps.clone().iter() {
            if spec.name.starts_with("deepfm/deep/l1") {
                ps.get_mut(i).map_inplace(|_| 0.0);
            }
        }
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..5]);
        let logits = eval_logits(&model, &ps, &batch);
        assert!(logits.iter().all(|x| x.is_finite()));
        // With every embedding ~N(0, 0.01) the FM part is small but nonzero.
        assert!(logits.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn models_expose_paper_names() {
        let (_, fc, mc) = fixture();
        let mut b = ParamStoreBuilder::new();
        assert_eq!(MlpModel::new(&mut b, &fc, &mc).name(), "MLP");
        let mut b = ParamStoreBuilder::new();
        assert_eq!(NeurFm::new(&mut b, &fc, &mc).name(), "NeurFM");
        let mut b = ParamStoreBuilder::new();
        assert_eq!(Raw::new(&mut b, &fc, &mc).name(), "RAW");
    }
}
