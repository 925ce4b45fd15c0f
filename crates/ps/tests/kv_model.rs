//! Model-based test of the one-record store: random operation sequences
//! run against [`ParameterServer`] and against a reference model that
//! keeps what the store used to keep — three independent hash maps
//! (values, Adagrad accumulators, versions) — and every observable is
//! compared after every step.
//!
//! The model differs from the three-map store in exactly one, deliberate
//! way: a row that `restore_state` drops takes its version with it (a
//! version is a field of the row's record, not an entry that can outlive
//! the row). No trainer path can observe the difference — every restore
//! carries the same key set the store already holds.
//!
//! The store is now one slab behind one index, so two more cases drive
//! what the slab adds: sparse table and row ids up to `u32::MAX` with
//! batched pushes, refused batches, flat dumps, restores and merges
//! against the same model, and an index grown key by key across ten
//! power-of-two boundaries.

use mamdr_ps::{merge_stores, ParamKey, ParameterServer, SlotIndex};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

const DIM: usize = 3;
const N_KEYS: u32 = 10;

type Rows = Vec<(ParamKey, Vec<f32>)>;

fn nth_key(i: u32) -> ParamKey {
    let i = i % N_KEYS;
    ParamKey::new(i % 3, i)
}

fn sorted(mut rows: Rows) -> Rows {
    rows.sort_by_key(|(k, _)| (k.table, k.row));
    rows
}

/// The pre-collapse store, minus locking: three maps and four counters.
#[derive(Default)]
struct Model {
    values: HashMap<ParamKey, Vec<f32>>,
    adagrad: HashMap<ParamKey, Vec<f32>>,
    versions: HashMap<ParamKey, u64>,
    traffic: (u64, u64, u64, u64),
}

impl Model {
    fn push(&mut self, key: ParamKey) {
        *self.versions.entry(key).or_insert(0) += 1;
        self.traffic.1 += 1;
        self.traffic.3 += (DIM * 4) as u64;
    }

    fn push_outer_grad(&mut self, key: ParamKey, grad: &[f32], lr: f32) {
        self.push(key);
        let acc = self.adagrad.entry(key).or_insert_with(|| vec![0.1; grad.len()]);
        let value = self.values.get_mut(&key).expect("generator pushes initialized keys only");
        for ((v, &g), a) in value.iter_mut().zip(grad).zip(acc.iter_mut()) {
            *a += g * g;
            *v += lr * g / (a.sqrt() + 1e-8);
        }
    }

    fn push_delta(&mut self, key: ParamKey, delta: &[f32]) {
        self.push(key);
        let value = self.values.get_mut(&key).expect("generator pushes initialized keys only");
        for (v, &d) in value.iter_mut().zip(delta) {
            *v += d;
        }
    }

    fn pull_batch(&mut self, keys: &[ParamKey]) -> Vec<(Vec<f32>, u64)> {
        self.traffic.0 += u64::from(!keys.is_empty());
        self.traffic.2 += (DIM * 4 * keys.len()) as u64;
        keys.iter().map(|k| (self.values[k].clone(), self.version(*k))).collect()
    }

    fn version(&self, key: ParamKey) -> u64 {
        self.versions.get(&key).copied().unwrap_or(0)
    }

    fn restore_state(&mut self, rows: &Rows, adagrad: &Rows) {
        self.values = rows.iter().cloned().collect();
        self.adagrad = adagrad.iter().cloned().collect();
        let values = &self.values;
        self.versions.retain(|k, _| values.contains_key(k));
    }

    fn resident_bytes(&self) -> u64 {
        let f32s: usize = self.values.values().chain(self.adagrad.values()).map(Vec::len).sum();
        (f32s * 4) as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn one_record_store_matches_the_three_map_model(
        ops in proptest::collection::vec(
            (0u8..9, 0u32..N_KEYS, proptest::collection::vec(-2.0f32..2.0, DIM), 0usize..4),
            1..80,
        ),
    ) {
        let ps = ParameterServer::new(4, DIM);
        let mut model = Model::default();
        let mut snapshots: Vec<(Rows, Rows)> = Vec::new();
        for (kind, k, vals, extra) in ops {
            let key = nth_key(k);
            let exists = model.values.contains_key(&key);
            match kind {
                2 | 3 if exists => {
                    let lr = 0.25 * (extra + 1) as f32;
                    ps.push_outer_grad(key, &vals, lr);
                    model.push_outer_grad(key, &vals, lr);
                }
                4 if exists => {
                    ps.push_delta(key, &vals);
                    model.push_delta(key, &vals);
                }
                5 => {
                    // A batch of up to three placed rows, possibly empty.
                    let keys: Vec<ParamKey> = (0..extra as u32)
                        .map(|i| nth_key(k + i))
                        .filter(|k| model.values.contains_key(k))
                        .collect();
                    prop_assert_eq!(ps.pull_batch(&keys), model.pull_batch(&keys));
                }
                6 if exists => {
                    let acc: Vec<f32> = vals.iter().map(|v| v.abs() + 0.1).collect();
                    ps.restore_adagrad_row(key, acc.clone());
                    model.adagrad.insert(key, acc);
                }
                7 => snapshots.push((ps.dump_rows(), ps.dump_adagrad())),
                8 if !snapshots.is_empty() => {
                    let (rows, adagrad) = &snapshots[extra % snapshots.len()];
                    ps.restore_state(rows, adagrad);
                    model.restore_state(rows, adagrad);
                }
                // Kinds 0 and 1 place a row. So does any operation aimed at
                // a row the driver never placed: that is the caller's bug
                // (it panics, see kv.rs's own tests), not a sequence the
                // model has an answer for.
                _ => {
                    ps.init_row(key, vals.clone());
                    model.values.insert(key, vals);
                }
            }
            prop_assert_eq!(sorted(ps.dump_rows()), sorted(model.values.clone().into_iter().collect()));
            prop_assert_eq!(
                sorted(ps.dump_adagrad()),
                sorted(model.adagrad.clone().into_iter().collect())
            );
            for i in 0..N_KEYS {
                prop_assert_eq!(ps.version(nth_key(i)), model.version(nth_key(i)));
            }
            prop_assert_eq!(ps.version(ParamKey::new(9, 999)), 0);
            prop_assert_eq!(ps.n_rows(), model.values.len());
            prop_assert_eq!(ps.resident_bytes(), model.resident_bytes());
            prop_assert_eq!(ps.traffic().snapshot(), model.traffic);
        }
    }
}

/// The slab's key universe for the sparse-key model: four scattered table
/// ids × six row ids, three of them at the top of the `u32` range.
const SPARSE_TABLES: [u32; 4] = [0, 7, 1 << 20, u32::MAX];
const SPARSE_ROWS: [u32; 6] = [0, 1, 1_000, u32::MAX - 2, u32::MAX - 1, u32::MAX];
const N_SPARSE: u32 = (SPARSE_TABLES.len() * SPARSE_ROWS.len()) as u32;

fn sparse_key(i: u32) -> ParamKey {
    let i = (i % N_SPARSE) as usize;
    ParamKey::new(SPARSE_TABLES[i % 4], SPARSE_ROWS[i / 4])
}

/// A key no operation of the sparse model ever places.
fn never_placed(i: u32) -> ParamKey {
    ParamKey::new(3, u32::MAX - (i % 4))
}

impl Model {
    /// A batch applies row by row, in key order — repeats included.
    fn push_outer_grads(&mut self, keys: &[ParamKey], grads: &[f32], lr: f32) {
        for (key, grad) in keys.iter().zip(grads.chunks_exact(DIM)) {
            self.push_outer_grad(*key, grad, lr);
        }
    }
}

/// Whole slots move: the later store's value, accumulator (or none) and
/// version win.
fn merged(parts: &[&Model]) -> Model {
    let mut out = Model::default();
    for part in parts {
        for (k, v) in &part.values {
            out.values.insert(*k, v.clone());
            match part.adagrad.get(k) {
                Some(a) => out.adagrad.insert(*k, a.clone()),
                None => out.adagrad.remove(k),
            };
            out.versions.insert(*k, part.version(*k));
        }
    }
    out
}

/// Every observable of `ps` equals the model's over the sparse universe.
fn assert_matches(ps: &ParameterServer, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(sorted(ps.dump_rows()), sorted(model.values.clone().into_iter().collect()));
    prop_assert_eq!(sorted(ps.dump_adagrad()), sorted(model.adagrad.clone().into_iter().collect()));
    for i in 0..N_SPARSE {
        prop_assert_eq!(ps.version(sparse_key(i)), model.version(sparse_key(i)));
    }
    prop_assert_eq!(ps.first_missing(&[never_placed(0)]), Some(never_placed(0)));
    prop_assert_eq!(ps.n_rows(), model.values.len());
    prop_assert_eq!(ps.resident_bytes(), model.resident_bytes());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The slab over sparse table and row ids, rows near `u32::MAX`
    /// included: batched outer pushes (repeats included) match the model
    /// row for row, a refused batch — a missing key anywhere in it, or one
    /// float too many — changes nothing and counts nothing, `dump_flat` is
    /// the sorted dump, a restore carries surviving rows' versions over,
    /// and a merge moves whole slots.
    #[test]
    fn slab_store_matches_the_model_over_sparse_keys(
        ops in proptest::collection::vec(
            (
                0u8..9,
                proptest::collection::vec(0u32..N_SPARSE, 0..6),
                proptest::collection::vec(-2.0f32..2.0, 6 * DIM),
                0usize..4,
            ),
            1..60,
        ),
    ) {
        let ps = ParameterServer::new(1, DIM);
        let mut model = Model::default();
        let mut snapshots: Vec<(Rows, Rows)> = Vec::new();
        for (kind, idxs, vals, extra) in ops {
            let keys: Vec<ParamKey> = idxs.iter().map(|&i| sparse_key(i)).collect();
            let placed: Vec<ParamKey> =
                keys.iter().copied().filter(|k| model.values.contains_key(k)).collect();
            let grads = &vals[..placed.len() * DIM];
            let lr = 0.25 * (extra + 1) as f32;
            match kind {
                2 | 3 => {
                    prop_assert_eq!(ps.push_outer_grads(&placed, grads, lr), Ok(()));
                    model.push_outer_grads(&placed, grads, lr);
                }
                4 => {
                    // The batch with a never-placed key spliced in: refused
                    // with that key, whatever precedes it.
                    let mut batch = placed.clone();
                    let missing = never_placed(extra as u32);
                    batch.insert(extra.min(batch.len()), missing);
                    let grads = &vals[..batch.len() * DIM];
                    prop_assert_eq!(ps.push_outer_grads(&batch, grads, lr), Err(missing));
                    let wide = &vals[..placed.len() * DIM + 1];
                    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ps.push_outer_grads(&placed, wide, lr)
                    }));
                    prop_assert!(refused.is_err(), "a batch of the wrong width is refused");
                }
                5 => {
                    let (keys, values) = ps.dump_flat();
                    let rows = sorted(model.values.clone().into_iter().collect());
                    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
                    prop_assert_eq!(keys, rows.iter().map(|(k, _)| *k).collect::<Vec<_>>());
                    prop_assert_eq!(values, rows.into_iter().flat_map(|(_, v)| v).collect::<Vec<_>>());
                }
                6 => snapshots.push((ps.dump_rows(), ps.dump_adagrad())),
                7 if !snapshots.is_empty() => {
                    let (rows, adagrad) = &snapshots[extra % snapshots.len()];
                    ps.restore_state(rows, adagrad);
                    model.restore_state(rows, adagrad);
                }
                8 => {
                    // A second store over some of the same keys, pushed to
                    // its own versions, merged on either side.
                    let other = ParameterServer::new(1, DIM);
                    let mut other_model = Model::default();
                    for (i, key) in keys.iter().enumerate() {
                        other.init_row(*key, vals[i * DIM..][..DIM].to_vec());
                        other_model.values.insert(*key, vals[i * DIM..][..DIM].to_vec());
                    }
                    let pushed = &keys[..keys.len().min(extra)];
                    let grads = &vals[..pushed.len() * DIM];
                    other.push_outer_grads(pushed, grads, lr).unwrap();
                    other_model.push_outer_grads(pushed, grads, lr);
                    let (first, second) = if extra % 2 == 0 {
                        ((&ps, &model), (&other, &other_model))
                    } else {
                        ((&other, &other_model), (&ps, &model))
                    };
                    let store = merge_stores(&[first.0, second.0], DIM);
                    assert_matches(&store, &merged(&[first.1, second.1]))?;
                    prop_assert_eq!(store.traffic().snapshot(), (0, 0, 0, 0), "a merge is not traffic");
                }
                _ => {
                    for (i, key) in keys.iter().enumerate() {
                        ps.init_row(*key, vals[i * DIM..][..DIM].to_vec());
                        model.values.insert(*key, vals[i * DIM..][..DIM].to_vec());
                    }
                }
            }
            assert_matches(&ps, &model)?;
            prop_assert_eq!(ps.traffic().snapshot(), model.traffic);
        }
    }
}

/// `n` scattered keys, distinct: table ids from a small set, row ids
/// spread over the whole `u32` range by an odd multiplier.
fn scattered_keys(n: u32) -> Vec<ParamKey> {
    (0..n)
        .map(|i| ParamKey::new(i % 5 * 1_000, i.wrapping_mul(0x9E37_79B1) ^ 0xFFFF_0000))
        .collect()
}

/// A store and an index grown one key at a time across ten power-of-two
/// boundaries: after every insert every key placed so far is found and
/// the next is not, and the grown index is the one built over the same
/// keys in one go.
#[test]
fn the_index_grows_across_power_of_two_boundaries_without_losing_a_key() {
    let keys = scattered_keys(3_000);
    let ps = ParameterServer::new(1, 1);
    let mut index = SlotIndex::build(&[]);
    let mut sizes = vec![index.n_buckets()];
    for (slot, &key) in keys.iter().enumerate() {
        ps.init_row(key, vec![slot as f32]);
        index.insert(&keys[..=slot], slot);
        if sizes.last() != Some(&index.n_buckets()) {
            sizes.push(index.n_buckets());
            assert_eq!(index, SlotIndex::build(&keys[..=slot]), "grown at {} keys", slot + 1);
        }
        assert_eq!(ps.first_missing(&keys[..=slot]), None, "lost a key at {} keys", slot + 1);
        assert_eq!(index.find(&keys[..=slot], key), Some(slot));
        if let Some(&next) = keys.get(slot + 1) {
            assert_eq!(index.find(&keys[..=slot], next), None);
            assert_eq!(ps.version(next), 0);
        }
    }
    assert_eq!(index, SlotIndex::build(&keys));
    assert_eq!(sizes, (0..=12).map(|b| 1 << b).collect::<Vec<usize>>());
    assert_eq!(
        ps.pull_batch(&keys).iter().map(|(v, _)| v[0]).collect::<Vec<_>>(),
        (0..keys.len()).map(|s| s as f32).collect::<Vec<_>>()
    );
}
