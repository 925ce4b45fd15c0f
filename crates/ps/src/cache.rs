//! The worker-side embedding cache (paper Fig. 7).
//!
//! The paper draws a static cache and a dynamic cache; they always hold
//! the same key set, so here they are the two halves of one record per
//! row — one map, one lookup per read or update.

use crate::kv::{ParamKey, RowSource};
use std::collections::HashMap;

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

/// Staleness of a worker's cached rows relative to the server.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StalenessStats {
    /// Largest per-row lag (server pushes since this worker's pull).
    pub max: u64,
    /// Mean per-row lag.
    pub mean: f64,
}

/// One cached row: the paper's static/dynamic pair plus the version it
/// was pulled at.
#[derive(Debug)]
struct CachedRow {
    /// `pulled ‖ local` in one allocation. The first half is the static
    /// cache — the value the row had when this worker first pulled it
    /// during the current outer round, the Θ reference point of Eq. 3 —
    /// and the second half the dynamic cache, the worker's locally updated
    /// value Θ̃. One allocation and a 32-byte record keep the round-lived
    /// map's table small; a table twice the size is retained by the
    /// allocator's per-thread arenas and is visible in peak RSS.
    buf: Vec<f32>,
    /// Server version of the row at the moment it was pulled.
    version: u64,
}

/// The static/dynamic cache of one worker: one record per touched row.
///
/// Emptied by [`WorkerCache::drain_outer_grads`] at the end of the round,
/// so the next round re-pulls fresh values (bounded staleness).
#[derive(Debug, Default)]
pub struct WorkerCache {
    rows: HashMap<ParamKey, CachedRow>,
    stats: CacheStats,
}

impl WorkerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pulls `missing` (distinct, uncached keys) in one batched read and
    /// seeds a record for each, counting one miss per key.
    fn fill<S: RowSource + ?Sized>(&mut self, src: &S, missing: &[ParamKey]) {
        let pulled = src.pull_rows(missing);
        debug_assert_eq!(pulled.len(), missing.len(), "pull_rows preserves key order");
        for (&key, (latest, version)) in missing.iter().zip(pulled) {
            let mut buf = latest;
            buf.extend_from_within(..);
            self.rows.insert(key, CachedRow { buf, version });
            self.stats.misses += 1;
        }
    }

    /// Reads the current (locally updated) value of a row.
    ///
    /// Hit → no traffic. Miss → a one-key batched pull of the latest value
    /// from the row source (the in-process PS or an RPC client).
    pub fn get<S: RowSource + ?Sized>(&mut self, src: &S, key: ParamKey) -> &[f32] {
        if self.rows.contains_key(&key) {
            self.stats.hits += 1;
        } else {
            self.fill(src, &[key]);
        }
        let buf = &self.rows[&key].buf;
        &buf[buf.len() / 2..]
    }

    /// Warms the cache for a round's whole working set in one batched
    /// pull: every key not already cached is fetched through a single
    /// [`RowSource::pull_rows`] call (one RPC per wire chunk over the
    /// network), exactly as a lazy miss would fetch it. Duplicate and
    /// already-cached keys are skipped, so prefetching the keys a round
    /// will touch makes every subsequent [`WorkerCache::get`] a hit while
    /// leaving values, versions, and miss accounting identical to the lazy
    /// path.
    pub fn prefetch<S: RowSource + ?Sized>(&mut self, src: &S, keys: &[ParamKey]) {
        let mut seen = std::collections::HashSet::new();
        let missing: Vec<ParamKey> = keys
            .iter()
            .copied()
            .filter(|key| !self.rows.contains_key(key) && seen.insert(*key))
            .collect();
        self.fill(src, &missing);
    }

    /// Applies a local update to a cached row (must have been read first).
    pub fn update(&mut self, key: ParamKey, f: impl FnOnce(&mut [f32])) {
        let row = self.rows.get_mut(&key).expect("update of a row that was never read");
        let half = row.buf.len() / 2;
        f(&mut row.buf[half..]);
    }

    /// Measures how stale the cached rows are right now: for each cached
    /// row, the number of server-side pushes that happened after this
    /// worker pulled it. This is the inconsistency the §IV-E protocol
    /// bounds — it resets to zero at every round boundary because the
    /// cache is drained and re-pulled.
    /// One batched version probe covers every cached row (a single
    /// version-only request per wire chunk over the network, instead of
    /// one per key).
    pub fn staleness<S: RowSource + ?Sized>(&self, src: &S) -> StalenessStats {
        if self.rows.is_empty() {
            return StalenessStats::default();
        }
        let mut keys: Vec<ParamKey> = self.rows.keys().copied().collect();
        keys.sort_by_key(|k| (k.table, k.row));
        let current = src.versions_of(&keys);
        let mut max = 0u64;
        let mut total = 0u64;
        for (key, now) in keys.iter().zip(current) {
            let lag = now.saturating_sub(self.rows[key].version);
            max = max.max(lag);
            total += lag;
        }
        let n = keys.len() as u64;
        StalenessStats { max, mean: total as f64 / n as f64 }
    }

    /// Ends the round: returns `(key, local − pulled)` for every touched
    /// row and empties the cache.
    pub fn drain_outer_grads(&mut self) -> Vec<(ParamKey, Vec<f32>)> {
        self.rows
            .drain()
            .map(|(key, row)| {
                let (pulled, local) = row.buf.split_at(row.buf.len() / 2);
                (key, local.iter().zip(pulled).map(|(&d, &s)| d - s).collect())
            })
            .collect()
    }

    /// Number of rows currently cached.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
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
        let mut grads = cache.drain_outer_grads();
        grads.sort_by_key(|(k, _)| k.row);
        assert_eq!(grads[0].1, vec![0.5, 0.0]);
        assert_eq!(grads[1].1, vec![0.0, 0.0]);
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
        let mut grads = cache.drain_outer_grads();
        grads.sort_by_key(|(k, _)| k.row);
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].1, vec![0.5, -0.25]);
        assert_eq!(grads[1].1, vec![0.0, 0.0]);
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
        assert_eq!(mine.staleness(&ps), StalenessStats { max: 0, mean: 0.0 });
        // Another worker pushes twice after my pull.
        ps.push_delta(key, &[1.0, 0.0]);
        ps.push_delta(key, &[1.0, 0.0]);
        let s = mine.staleness(&ps);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // Draining re-pulls on the next read, resetting the lag.
        mine.drain_outer_grads();
        mine.get(&ps, key);
        assert_eq!(mine.staleness(&ps).max, 0);
    }

    #[test]
    fn staleness_of_empty_cache_is_zero() {
        let ps = ParameterServer::new(1, 1);
        let cache = WorkerCache::new();
        assert_eq!(cache.staleness(&ps), StalenessStats::default());
    }
}
