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

use mamdr_ps::{ParamKey, ParameterServer};
use proptest::prelude::*;
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
