//! The worker-side embedding cache (paper Fig. 7).
//!
//! The paper draws a static cache and a dynamic cache; they always hold
//! the same key set, so here they are two parallel slabs of one slot per
//! row, and a dense per-table index turns a key into its slot with two
//! array loads — no hashing and no allocation per read or update.

use crate::kv::{ParamKey, ParameterServer, RowSource};

/// Hit/miss counters for one worker's cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits (no PS round-trip).
    pub hits: u64,
    /// Misses that pulled the latest row from the PS.
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

/// The static/dynamic cache of one worker: one slot per touched row.
///
/// Slot `s` holds `keys[s]`, the version it was pulled at, and the row's
/// two halves at `s * dim` in `pulled` — the static cache, the value the
/// row had when this worker first pulled it during the current outer
/// round, the Θ reference point of Eq. 3 — and in `local`, the dynamic
/// cache, the worker's locally updated value Θ̃. `index` maps each table's
/// row id to `slot + 1` (0 = not cached): one `u32` per row id up to the
/// largest the round read, which is bounded by the table's seeded rows
/// because the store's row ids are dense from 0.
///
/// Emptied by [`WorkerCache::drain_outer_grads`] at the end of the round,
/// so the next round re-pulls fresh values (bounded staleness).
#[derive(Debug)]
pub struct WorkerCache {
    keys: Vec<ParamKey>,
    versions: Vec<u64>,
    pulled: Vec<f32>,
    local: Vec<f32>,
    /// Row width, learned from the first pull.
    dim: usize,
    /// `(table id, row id → slot + 1)` per table seen; a round touches a
    /// handful of tables, so a scan beats any map.
    index: Vec<(u32, Vec<u32>)>,
    /// True while `keys` is strictly `(table, row)`-ascending, which a
    /// prefetch of sorted keys keeps and only a lazy miss can break.
    sorted: bool,
    stats: CacheStats,
}

impl Default for WorkerCache {
    fn default() -> Self {
        WorkerCache {
            keys: Vec::new(),
            versions: Vec::new(),
            pulled: Vec::new(),
            local: Vec::new(),
            dim: 0,
            index: Vec::new(),
            sorted: true,
            stats: CacheStats::default(),
        }
    }
}

impl WorkerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot caching `key`, if any.
    #[inline]
    fn slot(&self, key: ParamKey) -> Option<usize> {
        let (_, rows) = self.index.iter().find(|(table, _)| *table == key.table)?;
        match rows.get(key.row as usize) {
            Some(&slot) if slot > 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    /// Gives `key` the next slot unless it already has one. Values arrive
    /// with the next [`WorkerCache::fill_from`].
    fn assign(&mut self, key: ParamKey) {
        if self.slot(key).is_some() {
            return;
        }
        let next = u32::try_from(self.keys.len() + 1).expect("fewer than 2^32 cached rows");
        self.table_index(key.table, key.row)[key.row as usize] = next;
        self.sorted &= self.keys.last().is_none_or(|last| *last < key);
        self.keys.push(key);
    }

    /// The index of `table`, grown to cover row id `row`.
    fn table_index(&mut self, table: u32, row: u32) -> &mut Vec<u32> {
        let pos = match self.index.iter().position(|(t, _)| *t == table) {
            Some(pos) => pos,
            None => {
                self.index.push((table, Vec::new()));
                self.index.len() - 1
            }
        };
        let rows = &mut self.index[pos].1;
        if row as usize >= rows.len() {
            rows.resize(row as usize + 1, 0);
        }
        rows
    }

    /// Pulls the keys of slots `start..` (distinct, just assigned) in one
    /// batched read and seeds both halves of each, counting one miss per
    /// key.
    fn fill_from<S: RowSource + ?Sized>(&mut self, src: &S, start: usize) {
        let n = self.keys.len() - start;
        if n == 0 {
            return;
        }
        let (versions, values) = src.pull_rows(&self.keys[start..]);
        debug_assert_eq!(versions.len(), n, "pull_rows preserves key order");
        let dim = values.len() / n;
        if start == 0 {
            self.dim = dim;
        }
        assert_eq!(dim, self.dim, "every cached row has one width");
        // A round's first fill moves the batch in; later ones append.
        self.local.extend_from_slice(&values);
        if self.versions.is_empty() {
            self.versions = versions;
            self.pulled = values;
        } else {
            self.versions.extend_from_slice(&versions);
            self.pulled.extend_from_slice(&values);
        }
        self.stats.misses += n as u64;
    }

    /// Reads the current (locally updated) value of a row.
    ///
    /// Hit → no traffic. Miss → a one-key batched pull of the latest value
    /// from the row source (the in-process PS or an RPC client).
    pub fn get<S: RowSource + ?Sized>(&mut self, src: &S, key: ParamKey) -> &[f32] {
        let slot = match self.slot(key) {
            Some(slot) => {
                self.stats.hits += 1;
                slot
            }
            None => {
                let slot = self.keys.len();
                self.assign(key);
                self.fill_from(src, slot);
                slot
            }
        };
        &self.local[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Warms the cache for a round's whole working set in one batched
    /// pull: every key not already cached is fetched through a single
    /// [`RowSource::pull_rows`] call (one RPC per wire chunk over the
    /// network), exactly as a lazy miss would fetch it. Duplicate and
    /// already-cached keys are skipped — the index sees a key's slot as
    /// soon as it is assigned, so no separate dedup set is built — and
    /// prefetching the keys a round will touch makes every subsequent
    /// [`WorkerCache::get`] a hit while leaving values, versions, and miss
    /// accounting identical to the lazy path. Strictly sorted keys keep
    /// the slots in key order, so the drain needs no sort. Each table's
    /// index is sized once per run of same-table keys, to the run's
    /// largest row id — for sorted keys, its last.
    pub fn prefetch<S: RowSource + ?Sized>(&mut self, src: &S, keys: &[ParamKey]) {
        let start = self.keys.len();
        self.keys.reserve(keys.len());
        for run in keys.chunk_by(|a, b| a.table == b.table) {
            let largest = run.iter().map(|key| key.row).max().expect("a run is never empty");
            self.table_index(run[0].table, largest);
            for &key in run {
                self.assign(key);
            }
        }
        self.fill_from(src, start);
    }

    /// Applies a local update to a cached row (must have been read first).
    pub fn update(&mut self, key: ParamKey, f: impl FnOnce(&mut [f32])) {
        let slot = self.slot(key).expect("update of a row that was never read");
        f(&mut self.local[slot * self.dim..(slot + 1) * self.dim]);
    }

    /// The slots in `(table, row)` order of their keys: `None` when the
    /// slots already are (the cache was filled from sorted prefetches).
    fn key_order(&self) -> Option<Vec<usize>> {
        if self.sorted {
            return None;
        }
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by_key(|&slot| self.keys[slot]);
        Some(order)
    }

    /// Measures how stale the cached rows are right now: the largest
    /// number of pushes any cached row received after this worker pulled
    /// it. This is the inconsistency the §IV-E protocol bounds — it resets
    /// to zero at every round boundary because the cache is drained and
    /// re-pulled. Only a worker racing others on a store it shares can see
    /// a lag, so the lag is read from that store directly (silently, one
    /// [`ParameterServer::version`] per row); a synchronous round cannot
    /// be stale and never asks.
    pub fn staleness(&self, ps: &ParameterServer) -> u64 {
        self.keys
            .iter()
            .zip(&self.versions)
            .map(|(&key, &pulled)| ps.version(key).saturating_sub(pulled))
            .max()
            .unwrap_or(0)
    }

    /// Ends the round: returns `local − pulled` for every touched row in
    /// `(table, row)` order, and empties the cache. The gradient is
    /// computed in place in the dynamic half, which becomes the batch.
    pub fn drain_outer_grads(&mut self) -> OuterGrads {
        let order = self.key_order();
        let mut keys = std::mem::take(&mut self.keys);
        let mut values = std::mem::take(&mut self.local);
        for (d, &s) in values.iter_mut().zip(&self.pulled) {
            *d -= s;
        }
        if let Some(order) = order {
            let dim = self.dim;
            keys = order.iter().map(|&s| keys[s]).collect();
            values = order.iter().flat_map(|&s| &values[s * dim..(s + 1) * dim]).copied().collect();
        }
        self.versions.clear();
        self.pulled.clear();
        for (_, rows) in &mut self.index {
            rows.clear();
        }
        self.sorted = true;
        OuterGrads { keys, values }
    }

    /// Number of rows currently cached.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True while the slots are in strictly ascending key order.
    #[cfg(test)]
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
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

    #[test]
    fn repeated_reads_hit_cache() {
        let ps = server();
        let mut cache = WorkerCache::new();
        let key = ParamKey::new(0, 0);
        assert_eq!(cache.get(&ps, key), &[1.0, 2.0]);
        assert_eq!(cache.get(&ps, key), &[1.0, 2.0]);
        assert_eq!(cache.get(&ps, key), &[1.0, 2.0]);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
        // exactly one pull hit the server
        assert_eq!(ps.traffic().snapshot().0, 1);
    }

    #[test]
    fn prefetch_turns_round_reads_into_hits() {
        let ps = server();
        let mut cache = WorkerCache::new();
        let k0 = ParamKey::new(0, 0);
        let k1 = ParamKey::new(0, 1);
        // Duplicates in the prefetch set are pulled once.
        cache.prefetch(&ps, &[k0, k1, k0]);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        // One batched pull hit the server for both rows.
        assert_eq!(ps.traffic().snapshot().0, 1);
        // Every read of a prefetched row is now a hit, values identical
        // to what lazy misses would have pulled.
        assert_eq!(cache.get(&ps, k0), &[1.0, 2.0]);
        assert_eq!(cache.get(&ps, k1), &[3.0, 4.0]);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(ps.traffic().snapshot().0, 1);
        // Re-prefetching cached keys is free.
        cache.prefetch(&ps, &[k0, k1]);
        assert_eq!(ps.traffic().snapshot().0, 1);
        // Drains behave exactly as with lazy population.
        cache.update(k0, |row| row[0] += 0.5);
        let grads = cache.drain_outer_grads();
        assert_eq!(grads, OuterGrads { keys: vec![k0, k1], values: vec![0.5, 0.0, 0.0, 0.0] });
    }

    #[test]
    fn updates_stay_local_until_drain() {
        let ps = server();
        let mut cache = WorkerCache::new();
        let key = ParamKey::new(0, 0);
        cache.get(&ps, key);
        cache.update(key, |row| row[0] += 10.0);
        // The server still has the original value.
        assert_eq!(ps.read_silent(key).unwrap(), vec![1.0, 2.0]);
        // The cache serves the updated value.
        assert_eq!(cache.get(&ps, key), &[11.0, 2.0]);
    }

    #[test]
    fn drain_emits_deltas_and_clears() {
        let ps = server();
        let mut cache = WorkerCache::new();
        let k0 = ParamKey::new(0, 0);
        let k1 = ParamKey::new(0, 1);
        cache.get(&ps, k0);
        cache.get(&ps, k1);
        cache.update(k0, |row| {
            row[0] += 0.5;
            row[1] -= 0.25;
        });
        let grads = cache.drain_outer_grads();
        assert_eq!(grads.iter().collect::<Vec<_>>(), [(k0, &[0.5, -0.25][..]), (k1, &[0.0, 0.0])]);
        assert!(cache.is_empty());
    }

    #[test]
    fn miss_after_drain_pulls_latest() {
        // Staleness bound: after a drain, the next read must see updates
        // other workers pushed in between.
        let ps = server();
        let mut cache = WorkerCache::new();
        let key = ParamKey::new(0, 0);
        cache.get(&ps, key);
        cache.drain_outer_grads();
        ps.push_delta(key, &[100.0, 0.0]);
        assert_eq!(cache.get(&ps, key), &[101.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "never read")]
    fn update_requires_prior_read() {
        let mut cache = WorkerCache::new();
        cache.update(ParamKey::new(0, 0), |_| {});
    }

    #[test]
    fn staleness_counts_foreign_pushes() {
        let ps = ParameterServer::new(2, 2);
        let key = ParamKey::new(0, 0);
        ps.init_row(key, vec![0.0, 0.0]);
        let mut mine = WorkerCache::new();
        mine.get(&ps, key);
        assert_eq!(mine.staleness(&ps), 0);
        // Another worker pushes twice after my pull.
        ps.push_delta(key, &[1.0, 0.0]);
        ps.push_delta(key, &[1.0, 0.0]);
        assert_eq!(mine.staleness(&ps), 2);
        // Reading the lag is silent: only the one pull was counted.
        assert_eq!(ps.traffic().snapshot().0, 1);
        // Draining re-pulls on the next read, resetting the lag.
        mine.drain_outer_grads();
        mine.get(&ps, key);
        assert_eq!(mine.staleness(&ps), 0);
    }

    #[test]
    fn staleness_of_empty_cache_is_zero() {
        let ps = ParameterServer::new(1, 1);
        let cache = WorkerCache::new();
        assert_eq!(cache.staleness(&ps), 0);
    }
}
