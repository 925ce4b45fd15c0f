//! Model-based test of the slot-slab worker cache: random operation
//! sequences run against [`WorkerCache`] and against a reference model
//! that keeps one hash map from key to its pulled row and its locally
//! updated row, over one shared store. Every observable is compared after
//! every step: values read, hit/miss counts, pull traffic, and the drained
//! outer gradients, whose keys must come back
//! strictly `(table, row)`-sorted. Sequences span several rounds, each
//! built from a fresh pull of a strictly sorted key batch — the shape
//! `partition_keys` returns — so a drain that leaves anything behind shows
//! up in the next round.

use mamdr_ps::{CacheStats, OuterGrads, ParamKey, ParameterServer, WorkerCache};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// The hash-map cache of one round: `(pulled, local)` per key, read
/// straight from the store without traffic.
#[derive(Default)]
struct Model {
    rows: HashMap<ParamKey, (Vec<f32>, Vec<f32>)>,
    stats: CacheStats,
}

impl Model {
    fn pull(ps: &ParameterServer, keys: &[ParamKey]) -> Self {
        let mut model = Model::default();
        for &key in keys {
            let value = ps.read_silent(key).expect("seeded row");
            model.rows.insert(key, (value.clone(), value));
            model.stats.misses += 1;
        }
        model
    }

    fn get(&mut self, key: ParamKey) -> Vec<f32> {
        self.stats.hits += 1;
        self.rows[&key].1.clone()
    }

    fn drain(self) -> OuterGrads {
        let mut rows: Vec<_> = self.rows.into_iter().collect();
        rows.sort_by_key(|(k, _)| *k);
        let mut grads = OuterGrads::default();
        for (key, (pulled, local)) in rows {
            grads.keys.push(key);
            grads.values.extend(local.iter().zip(&pulled).map(|(&d, &s)| d - s));
        }
        grads
    }
}

/// One round under test: the cache, the batch's keys and the model.
struct Round {
    cache: WorkerCache,
    keys: Vec<ParamKey>,
    model: Model,
}

impl Round {
    /// Pulls the strictly sorted set of `idxs`' keys and builds both caches.
    fn pull(ps: &ParameterServer, idxs: &[u32]) -> Self {
        let mut keys: Vec<ParamKey> = idxs.iter().map(|&i| nth_key(i)).collect();
        keys.sort_unstable();
        keys.dedup();
        let (_, values) = ps.pull_flat(&keys).expect("seeded rows");
        let model = Model::pull(ps, &keys);
        Round { cache: WorkerCache::new(keys.clone(), values), keys, model }
    }

    /// Drains both caches; the cache's keys must be strictly sorted.
    fn drain(self) -> Result<(), TestCaseError> {
        let grads = self.cache.drain_outer_grads();
        prop_assert!(
            grads.keys.windows(2).all(|w| w[0] < w[1]),
            "drained keys not strictly sorted: {:?}",
            grads.keys
        );
        prop_assert_eq!(grads, self.model.drain());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn slot_cache_matches_the_hash_map_model(
        ops in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(0u32..TABLES * ROWS, 0..10), 0usize..1 << 16,
             proptest::collection::vec(-1.0f32..1.0, DIM)),
            1..60,
        ),
    ) {
        let ps = store();
        let mut round = Round::pull(&ps, &[]);
        let mut pulls = 0;
        for (kind, idxs, pick, vals) in ops {
            // A key of the current batch (none when it is empty).
            let key = (!round.keys.is_empty())
                .then(|| round.keys[pick % round.keys.len()]);
            match (kind, key) {
                // End the round and pull the next one.
                (0, _) => {
                    round.drain()?;
                    round = Round::pull(&ps, &idxs);
                    pulls += u64::from(!round.keys.is_empty());
                }
                (1, Some(key)) => prop_assert_eq!(round.cache.get(key), &round.model.get(key)[..]),
                (2, Some(key)) => {
                    let add = |row: &mut [f32]| {
                        for (r, &v) in row.iter_mut().zip(&vals) {
                            *r += v;
                        }
                    };
                    round.cache.update(key, add);
                    add(&mut round.model.rows.get_mut(&key).unwrap().1);
                }
                // Another worker's push: the row moves on the server, and
                // the next round must see the new value.
                (3, _) => ps.push_delta(nth_key(idxs.first().copied().unwrap_or(0)), &vals),
                _ => {}
            }
            prop_assert_eq!(round.cache.stats(), round.model.stats);
            prop_assert_eq!(ps.traffic().snapshot().0, pulls);
        }
        // Whatever is left drains the same too.
        round.drain()?;
    }
}
