//! Model-agnostic learning frameworks.
//!
//! Each framework consumes a [`TrainEnv`] (flat parameters + gradients
//! only) and produces a [`TrainedModel`]. The registry [`FrameworkKind`]
//! mirrors the method columns of the paper's Table X plus the proposed
//! DN / DR / MAMDR rows.

pub mod alternate;
pub mod cagrad;
pub mod mamdr;
pub mod meta;
pub mod multitask;

use crate::env::{TrainEnv, TrainedModel};

/// A learning framework: trains any model exposed through a [`TrainEnv`].
pub trait Framework: Send + Sync {
    /// Framework name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Runs the full training procedure.
    fn train(&self, env: &mut TrainEnv) -> TrainedModel;
}

/// Registry of every learning framework evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameworkKind {
    /// Alternate (one-by-one) training over domains.
    Alternate,
    /// Alternate training followed by per-domain finetuning.
    AlternateFinetune,
    /// An independent model per domain.
    Separate,
    /// Uncertainty-weighted loss (Kendall et al.).
    WeightedLoss,
    /// PCGrad gradient surgery (Yu et al.).
    PcGrad,
    /// Conflict-Averse Gradient descent (Liu et al., the paper's \[43\]).
    CaGrad,
    /// First-order MAML (Finn et al.).
    Maml,
    /// Reptile (Nichol et al.) — within-domain inner loops.
    Reptile,
    /// MLDG meta-learning for domain generalization (Li et al.).
    Mldg,
    /// Domain Negotiation only (paper Algorithm 1).
    Dn,
    /// Domain Regularization only (paper Algorithm 2; shared parameters
    /// trained alternately).
    Dr,
    /// Full MAMDR: DN + DR (paper Algorithm 3).
    Mamdr,
}

impl FrameworkKind {
    /// All frameworks in the paper's Table X column order (plus CAGrad,
    /// the conflict-averse baseline the paper cites but does not run).
    pub const ALL: [FrameworkKind; 12] = [
        FrameworkKind::Alternate,
        FrameworkKind::AlternateFinetune,
        FrameworkKind::Separate,
        FrameworkKind::WeightedLoss,
        FrameworkKind::PcGrad,
        FrameworkKind::CaGrad,
        FrameworkKind::Maml,
        FrameworkKind::Reptile,
        FrameworkKind::Mldg,
        FrameworkKind::Dn,
        FrameworkKind::Dr,
        FrameworkKind::Mamdr,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            FrameworkKind::Alternate => "Alternate",
            FrameworkKind::AlternateFinetune => "Alternate+Finetune",
            FrameworkKind::Separate => "Separate",
            FrameworkKind::WeightedLoss => "Weighted Loss",
            FrameworkKind::PcGrad => "PCGrad",
            FrameworkKind::CaGrad => "CAGrad",
            FrameworkKind::Maml => "MAML",
            FrameworkKind::Reptile => "Reptile",
            FrameworkKind::Mldg => "MLDG",
            FrameworkKind::Dn => "DN",
            FrameworkKind::Dr => "DR",
            FrameworkKind::Mamdr => "MAMDR (DN+DR)",
        }
    }

    /// Instantiates the framework.
    pub fn build(self) -> Box<dyn Framework> {
        match self {
            FrameworkKind::Alternate => Box::new(alternate::Alternate),
            FrameworkKind::AlternateFinetune => Box::new(alternate::AlternateFinetune),
            FrameworkKind::Separate => Box::new(alternate::Separate),
            FrameworkKind::WeightedLoss => Box::new(multitask::WeightedLoss),
            FrameworkKind::PcGrad => Box::new(multitask::PcGrad),
            FrameworkKind::CaGrad => Box::new(cagrad::CaGrad),
            FrameworkKind::Maml => Box::new(meta::Maml),
            FrameworkKind::Reptile => Box::new(meta::Reptile),
            FrameworkKind::Mldg => Box::new(meta::Mldg),
            FrameworkKind::Dn => Box::new(mamdr::Mamdr::dn_only()),
            FrameworkKind::Dr => Box::new(mamdr::Mamdr::dr_only()),
            FrameworkKind::Mamdr => Box::new(mamdr::Mamdr::full()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_buildable() {
        let mut names: Vec<&str> = FrameworkKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FrameworkKind::ALL.len());
        for kind in FrameworkKind::ALL {
            let f = kind.build();
            assert_eq!(f.name(), kind.name());
        }
    }
}
