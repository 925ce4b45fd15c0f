//! Shared feature encoding: every architecture starts from the same field
//! embeddings over the dataset's global feature storage (paper Fig. 2).

use crate::config::{FeatureConfig, ModelConfig};
use mamdr_autodiff::{Recorder, Var};
use mamdr_data::Batch;
use mamdr_nn::{Activation, Dense, Embedding, ParamStore, ParamStoreBuilder};

/// Field embeddings: user id, item id, user group, item category, and —
/// when the dataset carries frozen dense features — a learned projection of
/// those features as a fifth field.
#[derive(Debug, Clone)]
pub struct FieldEmbeddings {
    user: Embedding,
    item: Embedding,
    user_group: Embedding,
    item_cat: Embedding,
    dense_proj: Option<Dense>,
    embed_dim: usize,
}

impl FieldEmbeddings {
    /// Registers the embedding tables (and dense projection if needed).
    pub fn new(
        builder: &mut ParamStoreBuilder,
        name: &str,
        features: &FeatureConfig,
        config: &ModelConfig,
    ) -> Self {
        let d = config.embed_dim;
        let user = Embedding::new(builder, &format!("{name}/emb_user"), features.n_users, d);
        let item = Embedding::new(builder, &format!("{name}/emb_item"), features.n_items, d);
        let user_group =
            Embedding::new(builder, &format!("{name}/emb_ugroup"), features.n_user_groups, d);
        let item_cat =
            Embedding::new(builder, &format!("{name}/emb_icat"), features.n_item_cats, d);
        let dense_proj = (features.dense_dim > 0).then(|| {
            Dense::new(
                builder,
                &format!("{name}/dense_proj"),
                2 * features.dense_dim,
                d,
                Activation::Linear,
            )
        });
        FieldEmbeddings { user, item, user_group, item_cat, dense_proj, embed_dim: d }
    }

    /// Number of fields produced by [`FieldEmbeddings::fields`].
    pub fn n_fields(&self) -> usize {
        4 + usize::from(self.dense_proj.is_some())
    }

    /// Embedding width per field.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Width of the concatenated field vector.
    pub fn concat_dim(&self) -> usize {
        self.n_fields() * self.embed_dim
    }

    /// Looks up every field for a batch, each as a `[b, embed_dim]` node.
    pub fn fields<R: Recorder>(&self, ps: &ParamStore, rec: &mut R, batch: &Batch) -> Vec<Var> {
        let (fields, n) = self.field_array(ps, rec, batch);
        fields[..n].to_vec()
    }

    /// Fields concatenated to `[b, n_fields * embed_dim]`.
    pub fn concat<R: Recorder>(&self, ps: &ParamStore, rec: &mut R, batch: &Batch) -> Var {
        let (fields, n) = self.field_array(ps, rec, batch);
        rec.concat_cols(&fields[..n])
    }

    /// The fields [`fields`](Self::fields) returns, held on the stack: the
    /// first `n` entries of the array.
    fn field_array<R: Recorder>(
        &self,
        ps: &ParamStore,
        rec: &mut R,
        batch: &Batch,
    ) -> ([Var; 5], usize) {
        let user = self.user.forward(ps, rec, &batch.users);
        let mut fields = [user; 5];
        fields[1] = self.item.forward(ps, rec, &batch.items);
        fields[2] = self.user_group.forward(ps, rec, &batch.user_groups);
        fields[3] = self.item_cat.forward(ps, rec, &batch.item_cats);
        let Some(proj) = &self.dense_proj else {
            return (fields, 4);
        };
        let du =
            batch.dense_user.as_ref().expect("model built with dense features but batch has none");
        let di =
            batch.dense_item.as_ref().expect("model built with dense features but batch has none");
        let dense = rec.leaf_concat(&[du, di]);
        fields[4] = proj.forward(ps, rec, dense);
        (fields, 5)
    }
}

/// First-order (linear) embeddings: one scalar weight per categorical value,
/// used by WDL's wide part and DeepFM's FM first-order term.
#[derive(Debug, Clone)]
pub struct LinearEmbeddings {
    user: Embedding,
    item: Embedding,
    user_group: Embedding,
    item_cat: Embedding,
}

impl LinearEmbeddings {
    /// Registers the dim-1 tables.
    pub fn new(builder: &mut ParamStoreBuilder, name: &str, features: &FeatureConfig) -> Self {
        LinearEmbeddings {
            user: Embedding::new(builder, &format!("{name}/lin_user"), features.n_users, 1),
            item: Embedding::new(builder, &format!("{name}/lin_item"), features.n_items, 1),
            user_group: Embedding::new(
                builder,
                &format!("{name}/lin_ugroup"),
                features.n_user_groups,
                1,
            ),
            item_cat: Embedding::new(builder, &format!("{name}/lin_icat"), features.n_item_cats, 1),
        }
    }

    /// Sum of the first-order weights for a batch: `[b, 1]`.
    pub fn forward<R: Recorder>(&self, ps: &ParamStore, rec: &mut R, batch: &Batch) -> Var {
        let u = self.user.forward(ps, rec, &batch.users);
        let v = self.item.forward(ps, rec, &batch.items);
        let g = self.user_group.forward(ps, rec, &batch.user_groups);
        let c = self.item_cat.forward(ps, rec, &batch.item_cats);
        let uv = rec.add(u, v);
        let gc = rec.add(g, c);
        rec.add(uv, gc)
    }
}

/// Bi-interaction pooling over field embeddings:
/// `0.5 * ((Σᵢ eᵢ)² − Σᵢ eᵢ²)`, the FM second-order interaction in vector
/// form (NeurFM Eq. 4 / DeepFM's FM component).
pub fn bi_interaction<R: Recorder>(rec: &mut R, fields: &[Var]) -> Var {
    assert!(fields.len() >= 2, "bi-interaction needs at least two fields");
    let mut sum = fields[0];
    for &f in &fields[1..] {
        sum = rec.add(sum, f);
    }
    let sum_sq = rec.square(sum);
    let mut sq_sum = rec.square(fields[0]);
    for &f in &fields[1..] {
        let sq = rec.square(f);
        sq_sum = rec.add(sq_sum, sq);
    }
    let diff = rec.sub(sum_sq, sq_sum);
    rec.scalar_mul(diff, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamdr_autodiff::Tape;
    use mamdr_data::{make_batch, DomainSpec, GeneratorConfig};
    use mamdr_tensor::rng::seeded;

    fn setup(dense: usize) -> (mamdr_data::MdrDataset, FeatureConfig) {
        let mut cfg = GeneratorConfig::base("t", 30, 20, 3);
        cfg.dense_dim = dense;
        cfg.domains = vec![DomainSpec::new("a", 120, 0.3)];
        let ds = cfg.generate();
        let fc = FeatureConfig::from_dataset(&ds);
        (ds, fc)
    }

    #[test]
    fn fields_shapes_without_dense() {
        let (ds, fc) = setup(0);
        let mc = ModelConfig::tiny();
        let mut b = ParamStoreBuilder::new();
        let fe = FieldEmbeddings::new(&mut b, "f", &fc, &mc);
        let ps = b.build(&mut seeded(0));
        assert_eq!(fe.n_fields(), 4);
        assert_eq!(fe.concat_dim(), 16);
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..6]);
        let mut tape = Tape::new();
        let fields = fe.fields(&ps, &mut tape, &batch);
        assert_eq!(fields.len(), 4);
        for f in &fields {
            assert_eq!(tape.value(*f).shape(), &[6, 4]);
        }
        let cat = fe.concat(&ps, &mut tape, &batch);
        assert_eq!(tape.value(cat).shape(), &[6, 16]);
    }

    #[test]
    fn fields_include_dense_projection() {
        let (ds, fc) = setup(5);
        let mc = ModelConfig::tiny();
        let mut b = ParamStoreBuilder::new();
        let fe = FieldEmbeddings::new(&mut b, "f", &fc, &mc);
        let ps = b.build(&mut seeded(0));
        assert_eq!(fe.n_fields(), 5);
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..3]);
        let mut tape = Tape::new();
        let fields = fe.fields(&ps, &mut tape, &batch);
        assert_eq!(fields.len(), 5);
        assert_eq!(tape.value(fields[4]).shape(), &[3, 4]);
    }

    #[test]
    fn linear_embeddings_sum() {
        let (ds, fc) = setup(0);
        let mut b = ParamStoreBuilder::new();
        let le = LinearEmbeddings::new(&mut b, "l", &fc);
        let ps = b.build(&mut seeded(1));
        let batch = make_batch(&ds, 0, &ds.domains[0].train[..4]);
        let mut tape = Tape::new();
        let out = le.forward(&ps, &mut tape, &batch);
        assert_eq!(tape.value(out).shape(), &[4, 1]);
    }

    #[test]
    fn bi_interaction_matches_pairwise_sum() {
        // 0.5((Σe)² − Σe²) must equal Σ_{i<j} eᵢ ⊙ eⱼ.
        let mut tape = Tape::new();
        let a = tape.leaf(mamdr_tensor::Tensor::from_vec([1, 2], vec![1.0, 2.0]));
        let b = tape.leaf(mamdr_tensor::Tensor::from_vec([1, 2], vec![3.0, -1.0]));
        let c = tape.leaf(mamdr_tensor::Tensor::from_vec([1, 2], vec![0.5, 4.0]));
        let bi = bi_interaction(&mut tape, &[a, b, c]);
        let got = tape.value(bi).data().to_vec();
        // pairwise: a*b + a*c + b*c
        let expect = [1.0 * 3.0 + 1.0 * 0.5 + 3.0 * 0.5, -2.0 + 2.0 * 4.0 + -4.0];
        assert!((got[0] - expect[0]).abs() < 1e-5);
        assert!((got[1] - expect[1]).abs() < 1e-5);
    }
}
