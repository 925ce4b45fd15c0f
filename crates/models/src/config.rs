//! Model configuration and the architecture registry.

use mamdr_data::MdrDataset;

/// Sizes of the categorical/dense feature spaces a model embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of user-group values.
    pub n_user_groups: usize,
    /// Number of item-category values.
    pub n_item_cats: usize,
    /// Width of the frozen dense features (0 when the dataset has none).
    pub dense_dim: usize,
}

impl FeatureConfig {
    /// Reads the feature spaces off a dataset.
    pub fn from_dataset(ds: &MdrDataset) -> Self {
        FeatureConfig {
            n_users: ds.n_users,
            n_items: ds.n_items,
            n_user_groups: ds.n_user_groups,
            n_item_cats: ds.n_item_cats,
            dense_dim: ds.dense_dim(),
        }
    }
}

/// Hyper-parameters shared by all architectures.
///
/// Defaults are the paper's settings scaled to the synthetic benchmark size
/// (the paper: embedding 128, hidden `[256,128,64]`, dropout 0.5).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Embedding width per field.
    pub embed_dim: usize,
    /// Hidden widths of the deep towers.
    pub hidden: Vec<usize>,
    /// Dropout probability between hidden layers.
    pub dropout: f32,
    /// Number of experts (MMoE/CGC/PLE).
    pub n_experts: usize,
    /// Attention width per head (AutoInt).
    pub att_dim: usize,
    /// Attention heads (AutoInt).
    pub att_heads: usize,
    /// Stacked interacting layers (AutoInt).
    pub att_layers: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 16,
            hidden: vec![64, 32],
            dropout: 0.2,
            n_experts: 2,
            att_dim: 16,
            att_heads: 2,
            att_layers: 1,
        }
    }
}

impl ModelConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> Self {
        ModelConfig {
            embed_dim: 4,
            hidden: vec![8],
            dropout: 0.0,
            n_experts: 2,
            att_dim: 4,
            att_heads: 1,
            att_layers: 1,
        }
    }
}

/// The architecture registry: one entry per model row in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Plain multi-layer perceptron (the paper's base model for MAMDR).
    Mlp,
    /// Wide & Deep Learning (Cheng et al.).
    Wdl,
    /// Neural Factorization Machine (He & Chua).
    NeurFm,
    /// AutoInt self-attentive interaction model (Song et al.).
    AutoInt,
    /// DeepFM (Guo et al.).
    DeepFm,
    /// Shared-Bottom multi-task model (Ruder).
    SharedBottom,
    /// Multi-gate Mixture-of-Experts (Ma et al.).
    Mmoe,
    /// Customized Gate Control — single-layer PLE (Tang et al.).
    Cgc,
    /// Progressive Layered Extraction (Tang et al.).
    Ple,
    /// Star Topology Adaptive Recommender (Sheng et al.).
    Star,
    /// The in-production "RAW" model the industry experiments wrap.
    Raw,
}

impl ModelKind {
    /// Every architecture, in the paper's table order.
    pub const ALL: [ModelKind; 11] = [
        ModelKind::Mlp,
        ModelKind::Wdl,
        ModelKind::NeurFm,
        ModelKind::AutoInt,
        ModelKind::DeepFm,
        ModelKind::SharedBottom,
        ModelKind::Mmoe,
        ModelKind::Cgc,
        ModelKind::Ple,
        ModelKind::Star,
        ModelKind::Raw,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Mlp => "MLP",
            ModelKind::Wdl => "WDL",
            ModelKind::NeurFm => "NeurFM",
            ModelKind::AutoInt => "AutoInt",
            ModelKind::DeepFm => "DeepFM",
            ModelKind::SharedBottom => "Shared-Bottom",
            ModelKind::Mmoe => "MMOE",
            ModelKind::Cgc => "CGC",
            ModelKind::Ple => "PLE",
            ModelKind::Star => "Star",
            ModelKind::Raw => "RAW",
        }
    }

    /// True for architectures with per-domain structure (they need the
    /// domain count at construction).
    pub fn is_multi_domain(self) -> bool {
        matches!(
            self,
            ModelKind::SharedBottom
                | ModelKind::Mmoe
                | ModelKind::Cgc
                | ModelKind::Ple
                | ModelKind::Star
        )
    }

    /// True when an example's logit does not depend on the other examples
    /// of its batch, so scoring it alone or inside any batch gives the
    /// same bits. False only for STAR, whose partitioned normalization
    /// takes column statistics over the batch.
    pub fn scores_rows_independently(self) -> bool {
        self != ModelKind::Star
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ModelKind::ALL.len());
    }

    #[test]
    fn multi_domain_flags() {
        assert!(!ModelKind::Mlp.is_multi_domain());
        assert!(!ModelKind::DeepFm.is_multi_domain());
        assert!(ModelKind::Star.is_multi_domain());
        assert!(ModelKind::Ple.is_multi_domain());
    }
}
