//! The ground-truth click model and the synthetic dataset generator.
//!
//! Each dataset is generated from a latent-factor ground truth:
//!
//! ```text
//! score(u, v, d) = s · (z_uᵀ A_d z_v) / dim + b_d
//! A_d = (1 − conflict) · A_shared + conflict · A_d_random
//! ```
//!
//! Users and items keep *shared* latent vectors across domains (overlapping
//! populations), while `A_d` rotates what "a good match" means per domain.
//! The `conflict` knob interpolates between a single global task
//! (`conflict = 0`) and fully independent tasks (`conflict = 1`); it is the
//! direct analogue of the gradient-conflict phenomenon in paper §III-B and
//! is measured explicitly by the `conflict` benchmark binary.
//!
//! Labels are assigned by ranking noisy scores within each domain and
//! marking the top `ctr/(1+ctr)` fraction positive (then flipping a small
//! fraction for irreducible noise), which reproduces the paper's per-domain
//! CTR ratios (Eq. 23) exactly.

use crate::types::{DomainData, Interaction, MdrDataset};
use mamdr_tensor::rng::{derive_seed, normal, seeded, shuffle, weighted_index};
use mamdr_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Specification of one domain to generate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Domain name.
    pub name: String,
    /// Total interactions to generate (before the train/val/test split).
    pub n_samples: usize,
    /// Positive/negative ratio (paper Eq. 23).
    pub ctr_ratio: f32,
    /// Fraction of the global user population active in this domain.
    pub user_frac: f64,
    /// Fraction of the global item population available in this domain.
    pub item_frac: f64,
}

impl DomainSpec {
    /// A spec with the default 40% user / 30% item participation.
    pub fn new(name: impl Into<String>, n_samples: usize, ctr_ratio: f32) -> Self {
        DomainSpec { name: name.into(), n_samples, ctr_ratio, user_frac: 0.4, item_frac: 0.3 }
    }
}

/// Full configuration for dataset generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Dataset name.
    pub name: String,
    /// Global user count.
    pub n_users: usize,
    /// Global item count.
    pub n_items: usize,
    /// Number of user-group side-feature values.
    pub n_user_groups: usize,
    /// Number of item-category side-feature values.
    pub n_item_cats: usize,
    /// Latent dimensionality of the ground truth.
    pub latent_dim: usize,
    /// Domain-conflict strength in `[0, 1]`.
    pub conflict: f32,
    /// Std of the Gaussian noise added to scores before ranking.
    pub score_noise: f32,
    /// Probability of flipping a label after assignment.
    pub label_noise: f32,
    /// Width of the frozen dense side features (0 disables them).
    pub dense_dim: usize,
    /// Train/val/test fractions (must sum to 1).
    pub split: (f64, f64, f64),
    /// Domains to generate.
    pub domains: Vec<DomainSpec>,
    /// Master seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A reasonable starting configuration with no domains.
    pub fn base(name: impl Into<String>, n_users: usize, n_items: usize, seed: u64) -> Self {
        GeneratorConfig {
            name: name.into(),
            n_users,
            n_items,
            n_user_groups: 8,
            n_item_cats: 16,
            latent_dim: 8,
            conflict: 0.5,
            score_noise: 0.4,
            label_noise: 0.02,
            dense_dim: 0,
            split: (0.6, 0.2, 0.2),
            domains: Vec::new(),
            seed,
        }
    }

    /// Generates the dataset (deterministic in `self.seed`).
    pub fn generate(&self) -> MdrDataset {
        assert!(!self.domains.is_empty(), "config declares no domains");
        assert!(
            (self.split.0 + self.split.1 + self.split.2 - 1.0).abs() < 1e-9,
            "split fractions must sum to 1"
        );
        let truth = GroundTruth::new(self);
        let mut rng = seeded(derive_seed(self.seed, 1));

        // Side features derived from the latents so they carry signal.
        let user_group = categorical_from_latents(
            &truth.user_latent,
            self.n_user_groups,
            &mut seeded(derive_seed(self.seed, 2)),
        );
        let item_cat = categorical_from_latents(
            &truth.item_latent,
            self.n_item_cats,
            &mut seeded(derive_seed(self.seed, 3)),
        );

        let (dense_user, dense_item) = if self.dense_dim > 0 {
            let mut frng = seeded(derive_seed(self.seed, 4));
            (
                Some(dense_from_latents(&truth.user_latent, self.dense_dim, &mut frng)),
                Some(dense_from_latents(&truth.item_latent, self.dense_dim, &mut frng)),
            )
        } else {
            (None, None)
        };

        let domains = self
            .domains
            .iter()
            .enumerate()
            .map(|(di, spec)| self.generate_domain(di, spec, &truth, &mut rng))
            .collect();

        let ds = MdrDataset {
            name: self.name.clone(),
            n_users: self.n_users,
            n_items: self.n_items,
            n_user_groups: self.n_user_groups,
            n_item_cats: self.n_item_cats,
            user_group,
            item_cat,
            dense_user,
            dense_item,
            domains,
        };
        ds.validate();
        ds
    }

    fn generate_domain(
        &self,
        domain_idx: usize,
        spec: &DomainSpec,
        truth: &GroundTruth,
        rng: &mut impl Rng,
    ) -> DomainData {
        // Domain sub-populations: random subsets of the global users/items.
        let users = sample_subset(rng, self.n_users, spec.user_frac);
        let items = sample_subset(rng, self.n_items, spec.item_frac);

        // Zipf-ish popularity over the domain's items.
        let item_pop: Vec<f64> =
            (0..items.len()).map(|i| 1.0 / (i as f64 + 1.0).powf(0.8)).collect();

        // Sample candidate pairs (deduplicated).
        let target = spec.n_samples;
        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(target * 2);
        let mut pairs: Vec<(u32, u32, f32)> = Vec::with_capacity(target);
        let mut attempts = 0usize;
        let max_attempts = target * 20 + 1000;
        while pairs.len() < target && attempts < max_attempts {
            attempts += 1;
            let u = users[rng.gen_range(0..users.len())];
            let v = items[weighted_index(rng, &item_pop)];
            if !seen.insert((u, v)) {
                continue;
            }
            let s = truth.score(domain_idx, u, v) + self.score_noise * normal(rng);
            pairs.push((u, v, s));
        }

        // Rank by noisy score; the top ctr/(1+ctr) fraction clicks.
        let n = pairs.len();
        let n_pos =
            ((spec.ctr_ratio as f64 / (1.0 + spec.ctr_ratio as f64)) * n as f64).round() as usize;
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        let mut interactions: Vec<Interaction> = pairs
            .into_iter()
            .enumerate()
            .map(|(rank, (u, v, _))| {
                let mut label = if rank < n_pos { 1.0 } else { 0.0 };
                if self.label_noise > 0.0 && rng.gen::<f32>() < self.label_noise {
                    label = 1.0 - label;
                }
                Interaction { user: u, item: v, label }
            })
            .collect();
        shuffle(rng, &mut interactions);

        let n_train = (self.split.0 * n as f64).round() as usize;
        let n_val = (self.split.1 * n as f64).round() as usize;
        let n_train = n_train.min(n);
        let n_val = n_val.min(n - n_train);
        let test = interactions.split_off(n_train + n_val);
        let val = interactions.split_off(n_train);
        DomainData {
            name: spec.name.clone(),
            train: interactions,
            val,
            test,
            ctr_ratio: spec.ctr_ratio,
        }
    }
}

/// The generative click model behind a dataset.
///
/// Kept public so tests and the conflict probe can query oracle scores.
pub struct GroundTruth {
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// User latent factors `[n_users, dim]` (shared across domains).
    pub user_latent: Tensor,
    /// Item latent factors `[n_items, dim]`.
    pub item_latent: Tensor,
    /// Per-domain mixing matrices `[dim, dim]`.
    pub domain_transform: Vec<Tensor>,
    /// Per-domain score offsets.
    pub domain_bias: Vec<f32>,
    /// Score sharpness multiplier.
    pub sharpness: f32,
}

impl GroundTruth {
    /// Draws a ground truth for `config`.
    pub fn new(config: &GeneratorConfig) -> Self {
        let d = config.latent_dim;
        let mut rng = seeded(derive_seed(config.seed, 0));
        let user_latent = Tensor::randn(&mut rng, [config.n_users, d], 0.0, 1.0);
        let item_latent = Tensor::randn(&mut rng, [config.n_items, d], 0.0, 1.0);
        let shared = Tensor::randn(&mut rng, [d, d], 0.0, 1.0);
        let c = config.conflict;
        let domain_transform = (0..config.domains.len())
            .map(|_| {
                let own = Tensor::randn(&mut rng, [d, d], 0.0, 1.0);
                // Renormalize so score variance does not depend on `conflict`.
                let norm = ((1.0 - c) * (1.0 - c) + c * c).sqrt().max(1e-6);
                shared.scale((1.0 - c) / norm).add(&own.scale(c / norm))
            })
            .collect();
        let domain_bias = (0..config.domains.len()).map(|_| 0.3 * normal(&mut rng)).collect();
        GroundTruth {
            latent_dim: d,
            user_latent,
            item_latent,
            domain_transform,
            domain_bias,
            sharpness: 3.0,
        }
    }

    /// Oracle affinity score of `(user, item)` under `domain`.
    pub fn score(&self, domain: usize, user: u32, item: u32) -> f32 {
        let d = self.latent_dim;
        let zu = self.user_latent.row(user as usize);
        let zv = self.item_latent.row(item as usize);
        let a = &self.domain_transform[domain];
        // z_uᵀ A z_v
        let mut acc = 0.0f32;
        for (i, &u) in zu.iter().enumerate() {
            let mut row = 0.0f32;
            for (j, &v) in zv.iter().enumerate() {
                row += a.at(i, j) * v;
            }
            acc += u * row;
        }
        self.sharpness * acc / d as f32 + self.domain_bias[domain]
    }
}

/// Samples `frac` of `0..n` without replacement (at least 2 elements).
fn sample_subset(rng: &mut impl Rng, n: usize, frac: f64) -> Vec<u32> {
    let k = ((n as f64 * frac).round() as usize).clamp(2.min(n), n);
    let mut all: Vec<u32> = (0..n as u32).collect();
    shuffle(rng, &mut all);
    all.truncate(k);
    all
}

/// Derives a categorical side feature correlated with the latents:
/// `argmax(z W)` over `k` random directions.
fn categorical_from_latents(latents: &Tensor, k: usize, rng: &mut impl Rng) -> Vec<u32> {
    let (n, d) = latents.matrix_dims();
    let proj = Tensor::randn(rng, [d, k], 0.0, 1.0);
    let scores = latents.gemm(&proj, false, false);
    (0..n)
        .map(|i| {
            let row = scores.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best as u32
        })
        .collect()
}

/// Frozen dense features: noisy random projection of the latents (the
/// GraphSage-feature stand-in for Taobao-style presets).
fn dense_from_latents(latents: &Tensor, dim: usize, rng: &mut impl Rng) -> Tensor {
    let (n, d) = latents.matrix_dims();
    let proj = Tensor::randn(rng, [d, dim], 0.0, (1.0 / d as f32).sqrt());
    let mut out = latents.gemm(&proj, false, false);
    for x in out.data_mut() {
        *x += 0.1 * normal(rng);
    }
    out.reshape([n, dim])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Split;

    fn small_config() -> GeneratorConfig {
        let mut cfg = GeneratorConfig::base("test", 200, 100, 42);
        cfg.domains = vec![DomainSpec::new("a", 1000, 0.25), DomainSpec::new("b", 400, 0.5)];
        cfg
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let d1 = cfg.generate();
        let d2 = cfg.generate();
        assert_eq!(d1.domains[0].train, d2.domains[0].train);
        assert_eq!(d1.user_group, d2.user_group);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small_config();
        let d1 = cfg.generate();
        cfg.seed = 43;
        let d2 = cfg.generate();
        assert_ne!(d1.domains[0].train, d2.domains[0].train);
    }

    #[test]
    fn ctr_ratio_is_respected() {
        let cfg = small_config();
        let ds = cfg.generate();
        for (dom, spec) in ds.domains.iter().zip(&cfg.domains) {
            let total = dom.len() as f32;
            let pos: f32 = [Split::Train, Split::Val, Split::Test]
                .iter()
                .flat_map(|&s| dom.split(s))
                .map(|i| i.label)
                .sum();
            let expect = spec.ctr_ratio / (1.0 + spec.ctr_ratio);
            let got = pos / total;
            // label noise flips ~2%, so allow a loose band
            assert!(
                (got - expect).abs() < 0.05,
                "domain {}: positive rate {} vs expected {}",
                dom.name,
                got,
                expect
            );
        }
    }

    #[test]
    fn split_sizes_match_fractions() {
        let cfg = small_config();
        let ds = cfg.generate();
        let d = &ds.domains[0];
        let n = d.len() as f64;
        assert!((d.train.len() as f64 / n - 0.6).abs() < 0.02);
        assert!((d.val.len() as f64 / n - 0.2).abs() < 0.02);
        assert!((d.test.len() as f64 / n - 0.2).abs() < 0.02);
    }

    #[test]
    fn domains_share_users() {
        // With 40% participation each, two domains of a 200-user population
        // should overlap substantially — the MDR premise.
        let cfg = small_config();
        let ds = cfg.generate();
        let users_a: HashSet<u32> = ds.domains[0].train.iter().map(|i| i.user).collect();
        let users_b: HashSet<u32> = ds.domains[1].train.iter().map(|i| i.user).collect();
        let shared = users_a.intersection(&users_b).count();
        assert!(shared > 5, "expected overlapping users, got {}", shared);
        assert!(users_a.len() < 200, "domain should not cover every user");
    }

    #[test]
    fn oracle_scores_are_learnable_signal() {
        // Positive pairs must have higher mean oracle score than negatives —
        // otherwise no model could do better than chance.
        let cfg = small_config();
        let ds = cfg.generate();
        let truth = GroundTruth::new(&cfg);
        for (di, dom) in ds.domains.iter().enumerate() {
            let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0usize, 0.0f64, 0usize);
            for it in &dom.train {
                let s = truth.score(di, it.user, it.item) as f64;
                if it.label > 0.5 {
                    pos_sum += s;
                    pos_n += 1;
                } else {
                    neg_sum += s;
                    neg_n += 1;
                }
            }
            assert!(
                pos_sum / pos_n as f64 > neg_sum / neg_n as f64 + 0.1,
                "domain {} lacks signal",
                dom.name
            );
        }
    }

    #[test]
    fn conflict_zero_gives_identical_transforms() {
        let mut cfg = small_config();
        cfg.conflict = 0.0;
        let truth = GroundTruth::new(&cfg);
        let diff = truth.domain_transform[0].max_abs_diff(&truth.domain_transform[1]);
        assert!(diff < 1e-6, "transforms should coincide at conflict=0, diff {}", diff);
    }

    #[test]
    fn conflict_one_gives_independent_transforms() {
        let mut cfg = small_config();
        cfg.conflict = 1.0;
        let truth = GroundTruth::new(&cfg);
        let diff = truth.domain_transform[0].max_abs_diff(&truth.domain_transform[1]);
        assert!(diff > 0.5, "transforms should differ at conflict=1, diff {}", diff);
    }

    #[test]
    fn dense_features_generated_when_requested() {
        let mut cfg = small_config();
        cfg.dense_dim = 6;
        let ds = cfg.generate();
        assert_eq!(ds.dense_dim(), 6);
        assert_eq!(ds.dense_user.as_ref().unwrap().shape(), &[200, 6]);
        assert_eq!(ds.dense_item.as_ref().unwrap().shape(), &[100, 6]);
    }
}
