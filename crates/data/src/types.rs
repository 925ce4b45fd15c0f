//! Core data types: interactions, domains, datasets and batches.

use mamdr_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One user–item interaction with a click label (paper Def. III.1:
/// `(u, v, y) ∈ Tⁱ`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interaction {
    /// Global user id.
    pub user: u32,
    /// Global item id.
    pub item: u32,
    /// Click label in {0.0, 1.0}.
    pub label: f32,
}

/// Which split of a domain's interactions to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training interactions.
    Train,
    /// Validation interactions.
    Val,
    /// Held-out test interactions.
    Test,
}

/// All interactions belonging to one domain, already split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainData {
    /// Domain name, e.g. `"Prime Pantry"` or `"D17"`.
    pub name: String,
    /// Training interactions.
    pub train: Vec<Interaction>,
    /// Validation interactions.
    pub val: Vec<Interaction>,
    /// Test interactions.
    pub test: Vec<Interaction>,
    /// Positive/negative ratio this domain was generated with (Eq. 23).
    pub ctr_ratio: f32,
}

impl DomainData {
    /// Interactions of the requested split.
    pub fn split(&self, split: Split) -> &[Interaction] {
        match split {
            Split::Train => &self.train,
            Split::Val => &self.val,
            Split::Test => &self.test,
        }
    }

    /// Total interactions across all splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True when the domain holds no interactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of positive labels in the training split.
    pub fn train_positive_rate(&self) -> f32 {
        if self.train.is_empty() {
            return 0.0;
        }
        self.train.iter().map(|i| i.label).sum::<f32>() / self.train.len() as f32
    }
}

/// A complete multi-domain dataset: the global feature storage
/// (paper Fig. 2) plus per-domain interaction sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MdrDataset {
    /// Dataset name, e.g. `"amazon-6"`.
    pub name: String,
    /// Number of distinct users across all domains.
    pub n_users: usize,
    /// Number of distinct items across all domains.
    pub n_items: usize,
    /// Number of user-group categorical values (side feature).
    pub n_user_groups: usize,
    /// Number of item-category values (side feature).
    pub n_item_cats: usize,
    /// Group id per user (`[n_users]`).
    pub user_group: Vec<u32>,
    /// Category id per item (`[n_items]`).
    pub item_cat: Vec<u32>,
    /// Frozen dense user features `[n_users, dense_dim]` (the stand-in for
    /// the paper's GraphSage features); `None` for Amazon-style presets.
    pub dense_user: Option<Tensor>,
    /// Frozen dense item features `[n_items, dense_dim]`.
    pub dense_item: Option<Tensor>,
    /// The domains.
    pub domains: Vec<DomainData>,
}

impl MdrDataset {
    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// Width of the dense side features (0 when absent).
    pub fn dense_dim(&self) -> usize {
        self.dense_user.as_ref().map_or(0, |t| t.shape()[1])
    }

    /// Total interactions in a split across domains.
    pub fn split_len(&self, split: Split) -> usize {
        self.domains.iter().map(|d| d.split(split).len()).sum()
    }

    /// Basic integrity checks: ids in range, labels binary, side features
    /// sized to the id spaces. Panics with a diagnostic on violation.
    pub fn validate(&self) {
        assert_eq!(self.user_group.len(), self.n_users, "user_group length");
        assert_eq!(self.item_cat.len(), self.n_items, "item_cat length");
        assert!(self.user_group.iter().all(|&g| (g as usize) < self.n_user_groups));
        assert!(self.item_cat.iter().all(|&c| (c as usize) < self.n_item_cats));
        if let Some(du) = &self.dense_user {
            assert_eq!(du.shape()[0], self.n_users, "dense_user rows");
        }
        if let Some(di) = &self.dense_item {
            assert_eq!(di.shape()[0], self.n_items, "dense_item rows");
        }
        for d in &self.domains {
            for split in [Split::Train, Split::Val, Split::Test] {
                for it in d.split(split) {
                    assert!((it.user as usize) < self.n_users, "user id out of range");
                    assert!((it.item as usize) < self.n_items, "item id out of range");
                    assert!(it.label == 0.0 || it.label == 1.0, "label not binary");
                }
            }
        }
    }
}

/// A materialized minibatch from one domain, ready for a model forward pass.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Index of the domain the interactions come from.
    pub domain: usize,
    /// User ids `[b]`.
    pub users: Vec<u32>,
    /// Item ids `[b]`.
    pub items: Vec<u32>,
    /// User group ids `[b]`.
    pub user_groups: Vec<u32>,
    /// Item category ids `[b]`.
    pub item_cats: Vec<u32>,
    /// Labels `[b]`.
    pub labels: Vec<f32>,
    /// Gathered dense user features `[b, dense_dim]`, if the dataset has any.
    pub dense_user: Option<Tensor>,
    /// Gathered dense item features `[b, dense_dim]`.
    pub dense_item: Option<Tensor>,
}

impl Batch {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Labels as a `[b]` tensor.
    pub fn labels_tensor(&self) -> Tensor {
        Tensor::from_vec([self.labels.len()], self.labels.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_domain() -> DomainData {
        DomainData {
            name: "d".into(),
            train: vec![
                Interaction { user: 0, item: 0, label: 1.0 },
                Interaction { user: 1, item: 1, label: 0.0 },
            ],
            val: vec![Interaction { user: 0, item: 1, label: 0.0 }],
            test: vec![],
            ctr_ratio: 0.3,
        }
    }

    #[test]
    fn split_access_and_lengths() {
        let d = tiny_domain();
        assert_eq!(d.split(Split::Train).len(), 2);
        assert_eq!(d.split(Split::Val).len(), 1);
        assert_eq!(d.split(Split::Test).len(), 0);
        assert_eq!(d.len(), 3);
        assert!((d.train_positive_rate() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dataset_validate_accepts_consistent() {
        let ds = MdrDataset {
            name: "t".into(),
            n_users: 2,
            n_items: 2,
            n_user_groups: 1,
            n_item_cats: 1,
            user_group: vec![0, 0],
            item_cat: vec![0, 0],
            dense_user: None,
            dense_item: None,
            domains: vec![tiny_domain()],
        };
        ds.validate();
        assert_eq!(ds.n_domains(), 1);
        assert_eq!(ds.dense_dim(), 0);
        assert_eq!(ds.split_len(Split::Train), 2);
    }

    #[test]
    #[should_panic(expected = "user id out of range")]
    fn dataset_validate_rejects_bad_ids() {
        let mut d = tiny_domain();
        d.train.push(Interaction { user: 7, item: 0, label: 1.0 });
        let ds = MdrDataset {
            name: "t".into(),
            n_users: 2,
            n_items: 2,
            n_user_groups: 1,
            n_item_cats: 1,
            user_group: vec![0, 0],
            item_cat: vec![0, 0],
            dense_user: None,
            dense_item: None,
            domains: vec![d],
        };
        ds.validate();
    }
}
