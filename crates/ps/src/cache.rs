//! The worker-side embedding cache (paper Fig. 7).
//!
//! The paper draws a static cache and a dynamic cache; they always hold
//! the same key set — the rows the round pulled at its start — so here
//! they are two parallel slabs of one slot per row, and a dense per-table
//! index turns a key into its slot with two array loads — no hashing and
//! no allocation per read or update.

use crate::kv::ParamKey;

/// Hit/miss counters for one worker's cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits (no PS round-trip): one per read.
    pub hits: u64,
    /// Rows pulled from the PS: one per key of the round's batch.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when nothing was read).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A worker round's outer gradients (Θ̃ − Θ per touched row, Eq. 3) as one
/// flat batch: `keys` strictly `(table, row)`-sorted, and
/// `values[i * dim..(i + 1) * dim]` the gradient of `keys[i]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OuterGrads {
    /// The touched rows, strictly `(table, row)`-ascending.
    pub keys: Vec<ParamKey>,
    /// Concatenated per-row gradients in key order.
    pub values: Vec<f32>,
}

impl OuterGrads {
    /// Row width (0 for an empty batch).
    pub fn dim(&self) -> usize {
        self.values.len().checked_div(self.keys.len()).unwrap_or(0)
    }

    /// Every `(key, gradient row)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamKey, &[f32])> {
        self.keys.iter().copied().zip(self.values.chunks_exact(self.dim().max(1)))
    }
}

/// The static/dynamic cache of one worker round: one slot per pulled row.
///
/// Built once from the round's pulled batch. Slot `s` holds `keys[s]` and
/// the row's two halves at `s * dim` in `pulled` — the static cache, the
/// value the row had when the round pulled it, the Θ reference point of
/// Eq. 3 — and in `local`, the dynamic cache, the worker's locally updated
/// value Θ̃. `index` maps each table's row id to `slot + 1` (0 = not
/// pulled): one `u32` per row id up to the table's largest pulled one,
/// which is bounded by the table's seeded rows because the store's row ids
/// are dense from 0.
///
/// The batch is the round's whole working set, so every read is a hit and
/// a read outside it is a bug. [`WorkerCache::drain_outer_grads`] ends the
/// round; the next round builds its cache from a fresh pull (bounded
/// staleness).
#[derive(Debug)]
pub struct WorkerCache {
    keys: Vec<ParamKey>,
    pulled: Vec<f32>,
    local: Vec<f32>,
    /// Row width.
    dim: usize,
    /// `(table id, row id → slot + 1)` per table pulled; a round touches a
    /// handful of tables, so a scan beats any map.
    index: Vec<(u32, Vec<u32>)>,
    stats: CacheStats,
}

impl WorkerCache {
    /// The cache of one round's pulled batch: `keys` strictly
    /// `(table, row)`-ascending and `values[i * dim..(i + 1) * dim]` the
    /// row of `keys[i]`. Both are moved in — the values become the static
    /// half, a copy of them the dynamic half — and each key counts one
    /// miss. Each table's index is sized once, to its last key's row id.
    ///
    /// # Panics
    ///
    /// Panics when `keys` is not strictly ascending or `values` is not one
    /// row per key.
    pub fn new(keys: Vec<ParamKey>, values: Vec<f32>) -> Self {
        let dim = values.len().checked_div(keys.len()).unwrap_or(0);
        assert_eq!(dim * keys.len(), values.len(), "every pulled row has one width");
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] >= pair[1]) {
            panic!("pulled keys not strictly ascending: {:?} then {:?}", pair[0], pair[1]);
        }
        let mut slot = 0u32;
        let mut index = Vec::new();
        for run in keys.chunk_by(|a, b| a.table == b.table) {
            let largest = run[run.len() - 1].row as usize;
            let mut rows = vec![0u32; largest + 1];
            for key in run {
                slot = slot.checked_add(1).expect("fewer than 2^32 pulled rows");
                rows[key.row as usize] = slot;
            }
            index.push((run[0].table, rows));
        }
        let stats = CacheStats { hits: 0, misses: keys.len() as u64 };
        WorkerCache { keys, local: values.clone(), pulled: values, dim, index, stats }
    }

    /// The slot of `key`.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, when the round did not pull it.
    #[inline]
    fn slot(&self, key: ParamKey) -> usize {
        self.index
            .iter()
            .find(|(table, _)| *table == key.table)
            .and_then(|(_, rows)| rows.get(key.row as usize))
            .filter(|&&slot| slot > 0)
            .map(|&slot| slot as usize - 1)
            .unwrap_or_else(|| panic!("{key:?} is outside the round's pulled batch"))
    }

    /// Reads the current (locally updated) value of a pulled row: a hit,
    /// with no traffic.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, when the round did not pull it.
    pub fn get(&mut self, key: ParamKey) -> &[f32] {
        let slot = self.slot(key);
        self.stats.hits += 1;
        &self.local[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Applies a local update to a pulled row.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, when the round did not pull it.
    pub fn update(&mut self, key: ParamKey, f: impl FnOnce(&mut [f32])) {
        let slot = self.slot(key);
        f(&mut self.local[slot * self.dim..(slot + 1) * self.dim]);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Ends the round: returns `local − pulled` for every pulled row in
    /// `(table, row)` order. The gradient is computed in place in the
    /// dynamic half, which becomes the batch, and the keys move with it.
    pub fn drain_outer_grads(self) -> OuterGrads {
        let mut values = self.local;
        for (d, &s) in values.iter_mut().zip(&self.pulled) {
            *d -= s;
        }
        OuterGrads { keys: self.keys, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::ParameterServer;

    fn server() -> ParameterServer {
        let ps = ParameterServer::new(2, 2);
        ps.init_row(ParamKey::new(0, 0), vec![1.0, 2.0]);
        ps.init_row(ParamKey::new(0, 1), vec![3.0, 4.0]);
        ps
    }

    /// The cache of one round that pulled `keys` from `ps`.
    fn pulled(ps: &ParameterServer, keys: &[ParamKey]) -> WorkerCache {
        let (_, values) = ps.pull_flat(keys).expect("seeded rows");
        WorkerCache::new(keys.to_vec(), values)
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let ps = server();
        let key = ParamKey::new(0, 0);
        let mut cache = pulled(&ps, &[key]);
        assert_eq!(cache.get(key), &[1.0, 2.0]);
        assert_eq!(cache.get(key), &[1.0, 2.0]);
        assert_eq!(cache.get(key), &[1.0, 2.0]);
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 1 });
    }

    #[test]
    fn updates_stay_local_until_drain() {
        let ps = server();
        let key = ParamKey::new(0, 0);
        let mut cache = pulled(&ps, &[key]);
        cache.update(key, |row| row[0] += 10.0);
        // The server still has the original value.
        assert_eq!(ps.read_silent(key).unwrap(), vec![1.0, 2.0]);
        // The cache serves the updated value.
        assert_eq!(cache.get(key), &[11.0, 2.0]);
    }

    #[test]
    fn drain_emits_deltas_and_clears() {
        let ps = server();
        let k0 = ParamKey::new(0, 0);
        let k1 = ParamKey::new(0, 1);
        let mut cache = pulled(&ps, &[k0, k1]);
        cache.update(k0, |row| {
            row[0] += 0.5;
            row[1] -= 0.25;
        });
        let grads = cache.drain_outer_grads();
        assert_eq!(grads.iter().collect::<Vec<_>>(), [(k0, &[0.5, -0.25][..]), (k1, &[0.0, 0.0])]);
    }

    #[test]
    #[should_panic(expected = "ParamKey { table: 0, row: 1 } is outside the round's pulled batch")]
    fn a_read_outside_the_batch_panics_naming_the_key() {
        let ps = server();
        let mut cache = pulled(&ps, &[ParamKey::new(0, 0)]);
        cache.get(ParamKey::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "outside the round's pulled batch")]
    fn update_requires_prior_read() {
        WorkerCache::new(Vec::new(), Vec::new()).update(ParamKey::new(0, 0), |_| {});
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn an_unsorted_batch_is_refused() {
        let ps = server();
        pulled(&ps, &[ParamKey::new(0, 1), ParamKey::new(0, 0)]);
    }
}
