//! Model-based test of the slot-slab worker cache: random operation
//! sequences run against [`WorkerCache`] and against a reference model
//! that keeps what the cache used to keep — one hash map from key to its
//! pulled row, its locally updated row and its pull version — over one
//! shared store, and every observable is compared after every step:
//! values read, hit/miss counts, pull traffic, staleness, and the drained
//! outer gradients, whose keys must come back strictly `(table, row)`-sorted
//! however the cache was filled. Sequences span several rounds, so a drain
//! that leaves anything behind shows up in the next round's reads.

use mamdr_ps::{CacheStats, OuterGrads, ParamKey, ParameterServer, WorkerCache};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const DIM: usize = 3;
const TABLES: u32 = 3;
const ROWS: u32 = 12;

fn nth_key(i: u32) -> ParamKey {
    let i = i % (TABLES * ROWS);
    ParamKey::new(i % TABLES, i / TABLES)
}

/// Every key the store holds, each row seeded from its key.
fn store() -> ParameterServer {
    let ps = ParameterServer::new(4, DIM);
    for i in 0..TABLES * ROWS {
        let key = nth_key(i);
        ps.init_row(
            key,
            (0..DIM).map(|j| (key.table * 100 + key.row) as f32 + j as f32 / 4.0).collect(),
        );
    }
    ps
}

/// The hash-map cache: `(pulled, local, version)` per key, read straight
/// from the store without traffic, with the pull count the cache should
/// have spent.
#[derive(Default)]
struct Model {
    rows: HashMap<ParamKey, (Vec<f32>, Vec<f32>, u64)>,
    stats: CacheStats,
    pulls: u64,
}

impl Model {
    fn seed(&mut self, ps: &ParameterServer, key: ParamKey) {
        let value = ps.read_silent(key).expect("seeded row");
        self.rows.insert(key, (value.clone(), value, ps.version(key)));
        self.stats.misses += 1;
    }

    fn prefetch(&mut self, ps: &ParameterServer, keys: &[ParamKey]) {
        let mut seen = HashSet::new();
        let missing: Vec<ParamKey> = keys
            .iter()
            .copied()
            .filter(|k| !self.rows.contains_key(k) && seen.insert(*k))
            .collect();
        self.pulls += u64::from(!missing.is_empty());
        for key in missing {
            self.seed(ps, key);
        }
    }

    fn get(&mut self, ps: &ParameterServer, key: ParamKey) -> Vec<f32> {
        if self.rows.contains_key(&key) {
            self.stats.hits += 1;
        } else {
            self.pulls += 1;
            self.seed(ps, key);
        }
        self.rows[&key].1.clone()
    }

    /// The largest lag of any cached row behind the concrete store.
    fn staleness(&self, ps: &ParameterServer) -> u64 {
        self.rows.iter().map(|(k, (_, _, v))| ps.version(*k).saturating_sub(*v)).max().unwrap_or(0)
    }

    fn drain(&mut self) -> OuterGrads {
        let mut rows: Vec<_> = self.rows.drain().collect();
        rows.sort_by_key(|(k, _)| *k);
        let mut grads = OuterGrads::default();
        for (key, (pulled, local, _)) in rows {
            grads.keys.push(key);
            grads.values.extend(local.iter().zip(&pulled).map(|(&d, &s)| d - s));
        }
        grads
    }
}

/// How a prefetch's key list is shaped.
fn shaped(mut keys: Vec<ParamKey>, shape: u8) -> Vec<ParamKey> {
    match shape {
        // Strictly sorted: the shape `run_cached_round` passes.
        0 => {
            keys.sort_unstable();
            keys.dedup();
        }
        // Sorted with duplicates.
        1 => keys.sort_unstable(),
        // As drawn: unsorted, duplicates likely.
        _ => {}
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn slot_cache_matches_the_hash_map_model(
        ops in proptest::collection::vec(
            (0u8..7, proptest::collection::vec(0u32..TABLES * ROWS, 0..10), 0u8..3,
             proptest::collection::vec(-1.0f32..1.0, DIM)),
            1..60,
        ),
    ) {
        let ps = store();
        let mut cache = WorkerCache::new();
        let mut model = Model::default();
        for (kind, idxs, shape, vals) in ops {
            let key = nth_key(idxs.first().copied().unwrap_or(0));
            match kind {
                0 => {
                    let keys = shaped(idxs.iter().map(|&i| nth_key(i)).collect(), shape);
                    cache.prefetch(&ps, &keys);
                    model.prefetch(&ps, &keys);
                }
                1 | 2 => prop_assert_eq!(cache.get(&ps, key), &model.get(&ps, key)[..]),
                3 if model.rows.contains_key(&key) => {
                    let add = |row: &mut [f32]| {
                        for (r, &v) in row.iter_mut().zip(&vals) {
                            *r += v;
                        }
                    };
                    cache.update(key, add);
                    add(&mut model.rows.get_mut(&key).unwrap().1);
                }
                // Another worker's push: the row moves on the server, so
                // staleness grows and a later miss must see the new value.
                4 => ps.push_delta(key, &vals),
                5 => prop_assert_eq!(cache.staleness(&ps), model.staleness(&ps)),
                6 => {
                    let grads = cache.drain_outer_grads();
                    prop_assert!(
                        grads.keys.windows(2).all(|w| w[0] < w[1]),
                        "drained keys not strictly sorted: {:?}", grads.keys
                    );
                    prop_assert_eq!(grads, model.drain());
                }
                _ => {}
            }
            prop_assert_eq!(cache.stats(), model.stats);
            prop_assert_eq!(cache.len(), model.rows.len());
            prop_assert_eq!(ps.traffic().snapshot().0, model.pulls);
        }
        // Whatever is left drains the same too.
        prop_assert_eq!(cache.drain_outer_grads(), model.drain());
        prop_assert!(cache.is_empty());
    }
}
