//! Minibatch assembly.

use crate::types::{Batch, Interaction, MdrDataset, Split};
use mamdr_tensor::rng::shuffle;
use rand::Rng;

/// Materializes a [`Batch`] from a slice of interactions, gathering the side
/// features from the dataset's global feature storage.
pub fn make_batch(ds: &MdrDataset, domain: usize, interactions: &[Interaction]) -> Batch {
    let users: Vec<u32> = interactions.iter().map(|i| i.user).collect();
    let items: Vec<u32> = interactions.iter().map(|i| i.item).collect();
    let user_groups = users.iter().map(|&u| ds.user_group[u as usize]).collect();
    let item_cats = items.iter().map(|&v| ds.item_cat[v as usize]).collect();
    let labels = interactions.iter().map(|i| i.label).collect();
    let dense_user = ds.dense_user.as_ref().map(|t| t.gather_rows(&users));
    let dense_item = ds.dense_item.as_ref().map(|t| t.gather_rows(&items));
    Batch { domain, users, items, user_groups, item_cats, labels, dense_user, dense_item }
}

/// How to iterate a domain's split.
#[derive(Debug, Clone, Copy)]
pub struct BatchPlan {
    /// Examples per batch.
    pub batch_size: usize,
    /// Shuffle example order before batching (training only).
    pub shuffled: bool,
}

impl BatchPlan {
    /// A shuffled training plan.
    pub fn train(batch_size: usize) -> Self {
        BatchPlan { batch_size, shuffled: true }
    }

    /// A sequential evaluation plan.
    pub fn eval(batch_size: usize) -> Self {
        BatchPlan { batch_size, shuffled: false }
    }
}

/// Builds all batches of `split` for `domain`, according to `plan`.
///
/// The trailing partial batch is kept (never dropped) so evaluation sees
/// every example.
pub fn batches_for_domain(
    ds: &MdrDataset,
    domain: usize,
    split: Split,
    plan: BatchPlan,
    rng: &mut impl Rng,
) -> Vec<Batch> {
    first_batches_for_domain(ds, domain, split, plan, usize::MAX, rng)
}

/// The first `max_batches` of the batches [`batches_for_domain`] builds,
/// building only those. The shuffle still permutes the whole split, so
/// `rng` advances exactly as it does there, and [`make_batch`] draws
/// nothing: callers that keep a prefix get the same batches and the same
/// stream either way.
pub fn first_batches_for_domain(
    ds: &MdrDataset,
    domain: usize,
    split: Split,
    plan: BatchPlan,
    max_batches: usize,
    rng: &mut impl Rng,
) -> Vec<Batch> {
    assert!(plan.batch_size > 0, "batch_size must be positive");
    let mut interactions: Vec<Interaction> = ds.domains[domain].split(split).to_vec();
    if plan.shuffled {
        shuffle(rng, &mut interactions);
    }
    interactions
        .chunks(plan.batch_size)
        .take(max_batches)
        .map(|chunk| make_batch(ds, domain, chunk))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DomainSpec, GeneratorConfig};
    use mamdr_tensor::rng::seeded;

    fn dataset() -> MdrDataset {
        let mut cfg = GeneratorConfig::base("t", 50, 30, 5);
        cfg.dense_dim = 4;
        cfg.domains = vec![DomainSpec::new("a", 300, 0.3)];
        cfg.generate()
    }

    #[test]
    fn batches_cover_every_example() {
        let ds = dataset();
        let mut rng = seeded(1);
        let bs = batches_for_domain(&ds, 0, Split::Train, BatchPlan::train(32), &mut rng);
        let total: usize = bs.iter().map(|b| b.len()).sum();
        assert_eq!(total, ds.domains[0].train.len());
        // all but the last batch are full
        for b in &bs[..bs.len() - 1] {
            assert_eq!(b.len(), 32);
        }
    }

    #[test]
    fn batch_gathers_side_features() {
        let ds = dataset();
        let inter = &ds.domains[0].train[..8];
        let b = make_batch(&ds, 0, inter);
        assert_eq!(b.len(), 8);
        assert_eq!(b.dense_user.as_ref().unwrap().shape(), &[8, 4]);
        assert_eq!(b.dense_item.as_ref().unwrap().shape(), &[8, 4]);
        for (k, it) in inter.iter().enumerate() {
            assert_eq!(b.users[k], it.user);
            assert_eq!(b.user_groups[k], ds.user_group[it.user as usize]);
            assert_eq!(b.item_cats[k], ds.item_cat[it.item as usize]);
            assert_eq!(
                b.dense_user.as_ref().unwrap().row(k),
                ds.dense_user.as_ref().unwrap().row(it.user as usize)
            );
        }
    }

    #[test]
    fn eval_plan_is_stable_train_plan_shuffles() {
        let ds = dataset();
        let e1 = batches_for_domain(&ds, 0, Split::Val, BatchPlan::eval(16), &mut seeded(1));
        let e2 = batches_for_domain(&ds, 0, Split::Val, BatchPlan::eval(16), &mut seeded(2));
        assert_eq!(e1[0].users, e2[0].users, "eval order must not depend on rng");
        let t1 = batches_for_domain(&ds, 0, Split::Train, BatchPlan::train(16), &mut seeded(1));
        let t2 = batches_for_domain(&ds, 0, Split::Train, BatchPlan::train(16), &mut seeded(2));
        assert_ne!(t1[0].users, t2[0].users, "train order should be shuffled");
    }

    #[test]
    fn first_batches_are_a_prefix_and_leave_the_rng_where_all_batches_do() {
        let ds = dataset();
        let plan = BatchPlan::train(32);
        let (mut all_rng, mut first_rng) = (seeded(3), seeded(3));
        let all = batches_for_domain(&ds, 0, Split::Train, plan, &mut all_rng);
        let first = first_batches_for_domain(&ds, 0, Split::Train, plan, 2, &mut first_rng);
        assert_eq!(first.len(), 2);
        for (a, b) in all.iter().zip(&first) {
            assert_eq!((&a.users, &a.items, &a.labels), (&b.users, &b.items, &b.labels));
        }
        assert_eq!(all_rng.gen::<u64>(), first_rng.gen::<u64>(), "rng streams diverged");
    }

    #[test]
    fn labels_tensor_matches() {
        let ds = dataset();
        let b = make_batch(&ds, 0, &ds.domains[0].train[..5]);
        let t = b.labels_tensor();
        assert_eq!(t.shape(), &[5]);
        assert_eq!(t.data(), &b.labels[..]);
    }
}
