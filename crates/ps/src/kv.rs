//! The parameter-server store: one record per row behind one striped map.
//!
//! A row's value, its Adagrad accumulator and its push version live in one
//! record, so every data-plane operation costs one lock and one
//! hash lookup per key, and a write validates the row before it mutates or
//! counts anything. A worker reads through one batch call
//! ([`ParameterServer::pull_flat`], no single-row variant on the cached
//! path), and the same file defines the traffic counters the §IV-E cache
//! exists to shrink.
//!
//! The stripes' maps hash a key by folding its [`ParamKey::fib_hash`]
//! (`h ^ (h >> 32)`), not with std's SipHash: the map takes its buckets
//! from the low bits, which the fold mixes with the high ones. SipHash's
//! resistance to hash flooding buys nothing here — only the driver inserts
//! keys (`init_row`, `restore_state`); a client can only probe, and a
//! probe's length depends on the stored set, not on the probe. The stripe
//! choice (`fib_hash() >> 33`) and the serving snapshot's index use the
//! unfolded `fib_hash`.

use mamdr_obs::MetricsRegistry;
use mamdr_util::codec::{CodecError, Reader, Writer};
use parking_lot::RwLock;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// 2^64 / φ, the multiplier of [`ParamKey::fib_hash`].
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Addresses one parameter row: an embedding table id plus a row index.
///
/// Dense (non-embedding) parameters use row 0 of their own table id. Keys
/// order by `(table, row)`, the order every batch travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamKey {
    /// Table identifier.
    pub table: u32,
    /// Row within the table.
    pub row: u32,
}

impl ParamKey {
    /// Convenience constructor.
    pub fn new(table: u32, row: u32) -> Self {
        ParamKey { table, row }
    }

    /// Writes the key as `table_le ‖ row_le`, its layout in every format.
    #[inline]
    pub fn write_to(&self, w: &mut Writer) {
        w.u32(self.table).u32(self.row);
    }

    /// Reads a key written by [`ParamKey::write_to`].
    #[inline]
    pub fn read_from(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(ParamKey::new(r.u32()?, r.u32()?))
    }

    /// Fibonacci hash of the packed key `table ‖ row`: its high bits are
    /// well mixed, so a table of `2^b` buckets takes the top `b` of them.
    /// The store's lock stripes and the serving snapshot's row index both
    /// hash keys this way.
    #[inline]
    pub fn fib_hash(self) -> u64 {
        let packed = ((self.table as u64) << 32) | self.row as u64;
        packed.wrapping_mul(FIB)
    }
}

/// Number of rows a single pull/push request may carry. Both sides of the
/// batch-first contract are pinned to this: the RPC client splits key sets
/// into frames of at most this many rows, and the in-process
/// [`ParameterServer`] counts one pull per chunk of this size — so the
/// `TrafficStats` pull counter reports the same number whether a batch
/// traveled over shared memory or over the wire. (At the default row width
/// a full chunk is ~128 KiB of values, far under the 16 MiB frame cap.)
pub const WIRE_BATCH_KEYS: usize = 4096;

/// Byte-accurate synchronization counters.
///
/// This is the measurement the embedding cache exists to improve: every
/// pull/push between a worker and the server increments these, exactly as
/// RPC volume would in the real deployment.
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Number of pull RPCs (one per key batch).
    pub pulls: AtomicU64,
    /// Number of push RPCs.
    pub pushes: AtomicU64,
    /// Bytes pulled from the server.
    pub bytes_pulled: AtomicU64,
    /// Bytes pushed to the server.
    pub bytes_pushed: AtomicU64,
}

impl TrafficStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_pulled.load(Ordering::Relaxed) + self.bytes_pushed.load(Ordering::Relaxed)
    }

    /// Total RPC count.
    pub fn total_rpcs(&self) -> u64 {
        self.pulls.load(Ordering::Relaxed) + self.pushes.load(Ordering::Relaxed)
    }

    /// Snapshot as plain numbers `(pulls, pushes, bytes_pulled, bytes_pushed)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.pulls.load(Ordering::Relaxed),
            self.pushes.load(Ordering::Relaxed),
            self.bytes_pulled.load(Ordering::Relaxed),
            self.bytes_pushed.load(Ordering::Relaxed),
        )
    }

    /// Overwrites the counters with a [`TrafficStats::snapshot`] — the
    /// recovery path: a shard store rebuilt from its committed journal
    /// resumes the traffic figures the dead store had at that boundary.
    pub fn restore(&self, snap: (u64, u64, u64, u64)) {
        self.pulls.store(snap.0, Ordering::Relaxed);
        self.pushes.store(snap.1, Ordering::Relaxed);
        self.bytes_pulled.store(snap.2, Ordering::Relaxed);
        self.bytes_pushed.store(snap.3, Ordering::Relaxed);
    }
}

/// Number of independently lockable stripes a store spreads its rows
/// over. A concurrency detail, not a tunable: results are bit-identical at
/// any value, and eight stripes keep concurrent workers off each other's
/// locks at every worker count the repo runs.
pub const LOCK_STRIPES: usize = 8;

/// The stripes' key hash: a [`ParamKey`] hashes as its two `u32` halves,
/// which this packs back into `table ‖ row` and finishes as the folded
/// [`ParamKey::fib_hash`]. Plain `fib_hash` would leave the low bits — the
/// map's buckets — a function of the row alone, so keys that differ only in
/// table would share buckets; the fold puts the well-mixed high half on top
/// of them without the stripe-selection bits lining up with the bucket
/// bits (a `rotate_left(32)` would make each stripe use one bucket in
/// eight).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u32(&mut self, half: u32) {
        self.0 = (self.0 << 32) | half as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(FIB);
        h ^ (h >> 32)
    }
}

/// One stripe's rows.
type RowMap = HashMap<ParamKey, Row, BuildHasherDefault<KeyHasher>>;

/// Everything the store knows about one parameter row, behind one lookup.
#[derive(Clone)]
struct Row {
    value: Vec<f32>,
    /// Adagrad accumulator of the outer update; empty until the row's
    /// first outer push materializes it.
    accum: Vec<f32>,
    /// Pushes this row has received — the basis of the staleness
    /// measurement (§IV-E "alleviate inconsistency").
    version: u64,
}

/// An in-memory parameter server: one record per row, one striped map.
///
/// Rows are assigned to lock stripes by key hash; each stripe is
/// independently lockable so concurrent workers rarely contend (the real
/// deployment's 40 server machines play the same role). Every operation
/// takes one lock and one lookup per key, and validates before it mutates
/// or counts anything.
pub struct ParameterServer {
    stripes: Vec<RwLock<RowMap>>,
    traffic: TrafficStats,
    dim_bytes: usize,
    /// Number of *server* shards pull batches are modeled as routed over
    /// (see [`ParameterServer::set_route_shards`]); 1 = the single-server
    /// wire, today's default.
    route_shards: AtomicUsize,
}

impl ParameterServer {
    /// A server with `n_stripes` lock stripes (in-crate callers pass
    /// [`LOCK_STRIPES`]); `value_dim` is the per-row vector width used for
    /// byte accounting.
    pub fn new(n_stripes: usize, value_dim: usize) -> Self {
        assert!(n_stripes >= 1);
        ParameterServer {
            stripes: (0..n_stripes).map(|_| RwLock::default()).collect(),
            traffic: TrafficStats::default(),
            dim_bytes: value_dim * std::mem::size_of::<f32>(),
            route_shards: AtomicUsize::new(1),
        }
    }

    /// Models this store's pull accounting as if key batches were routed
    /// over `n` server shards: [`ParameterServer::pull_flat`] then counts
    /// one RPC per [`WIRE_BATCH_KEYS`] chunk *per owning shard* (the
    /// frames a sharded client spends on the same key set). The default of
    /// 1 is exactly the single-server `div_ceil` accounting. Byte counters
    /// are unaffected — bytes are per-key on any route.
    pub fn set_route_shards(&self, n: usize) {
        assert!(n >= 1, "a route needs at least one shard");
        self.route_shards.store(n, Ordering::Relaxed);
    }

    /// The per-row vector width this server was built for.
    pub fn value_dim(&self) -> usize {
        self.dim_bytes / std::mem::size_of::<f32>()
    }

    fn stripe(&self, key: ParamKey) -> &RwLock<RowMap> {
        &self.stripes[(key.fib_hash() >> 33) as usize % self.stripes.len()]
    }

    /// Seeds a row without counting traffic (initial placement). Re-seeding
    /// an existing row replaces its value and keeps its accumulator and
    /// version.
    pub fn init_row(&self, key: ParamKey, value: Vec<f32>) {
        match self.stripe(key).write().entry(key) {
            Entry::Occupied(mut e) => e.get_mut().value = value,
            Entry::Vacant(e) => {
                e.insert(Row { value, accum: Vec::new(), version: 0 });
            }
        }
    }

    /// Pulls the latest value of a row (one RPC, counted) — the
    /// per-example read of the [`crate::SyncMode::NoCache`] baseline.
    ///
    /// Panics if the row was never initialized — workers may only touch
    /// rows the driver placed.
    pub fn pull(&self, key: ParamKey) -> Vec<f32> {
        let v =
            self.read_silent(key).unwrap_or_else(|| panic!("pull of uninitialized key {key:?}"));
        self.traffic.pulls.fetch_add(1, Ordering::Relaxed);
        self.traffic.bytes_pulled.fetch_add(self.dim_bytes as u64, Ordering::Relaxed);
        v
    }

    /// Pulls many rows as one flat batch `(versions, values)` in input-key
    /// order — the store's one batched read, behind a cached worker round's
    /// pull and the wire's `PullMany` handler, one lookup per key. Counts one
    /// RPC per [`WIRE_BATCH_KEYS`] chunk — exactly the frames the batched
    /// wire protocol would spend on the same key set, so in-process and
    /// loopback runs report identical pull counters.
    ///
    /// Returns the first key the store holds no row for as the error,
    /// before any traffic is counted: workers may only touch rows the
    /// driver placed. Panics if a row is not
    /// [`ParameterServer::value_dim`] wide.
    pub fn pull_flat(&self, keys: &[ParamKey]) -> Result<(Vec<u64>, Vec<f32>), ParamKey> {
        let dim = self.value_dim();
        let mut versions = Vec::with_capacity(keys.len());
        let mut values = Vec::with_capacity(keys.len() * dim);
        for &key in keys {
            let stripe = self.stripe(key).read();
            let row = stripe.get(&key).ok_or(key)?;
            assert_eq!(row.value.len(), dim, "row width mismatch: {key:?}");
            versions.push(row.version);
            values.extend_from_slice(&row.value);
        }
        let chunks = crate::shard::route_chunks(keys, self.route_shards.load(Ordering::Relaxed));
        self.traffic.pulls.fetch_add(chunks, Ordering::Relaxed);
        self.traffic
            .bytes_pulled
            .fetch_add((self.dim_bytes * keys.len()) as u64, Ordering::Relaxed);
        Ok((versions, values))
    }

    /// [`ParameterServer::pull_flat`] as one `(value, version)` pair per
    /// key — the per-row view probes and model tests compare against.
    ///
    /// Panics, before any traffic is counted, on a key the store holds no
    /// row for.
    pub fn pull_batch(&self, keys: &[ParamKey]) -> Vec<(Vec<f32>, u64)> {
        let (versions, values) =
            self.pull_flat(keys).unwrap_or_else(|key| panic!("pull of uninitialized key {key:?}"));
        values.chunks_exact(self.value_dim().max(1)).map(<[f32]>::to_vec).zip(versions).collect()
    }

    /// Reads a row without traffic accounting (driver-side evaluation).
    pub fn read_silent(&self, key: ParamKey) -> Option<Vec<f32>> {
        self.stripe(key).read().get(&key).map(|row| row.value.clone())
    }

    /// The first of `keys` the store holds no row for, if any — the
    /// non-cloning existence check a front end runs over a whole push
    /// batch before it applies any of it.
    pub fn first_missing(&self, keys: &[ParamKey]) -> Option<ParamKey> {
        keys.iter().copied().find(|key| !self.stripe(*key).read().contains_key(key))
    }

    /// The one write path: validates the target row, then applies `update`
    /// to it, bumps its version and counts one push — all under a single
    /// stripe lock and lookup. A push to an uninitialized key or of the
    /// wrong width panics with nothing mutated and nothing counted; the
    /// lock is released first, so a rejected push leaves the store usable.
    fn push_with(&self, key: ParamKey, width: usize, update: impl FnOnce(&mut Row)) {
        let rejected = {
            let mut stripe = self.stripe(key).write();
            match stripe.get_mut(&key) {
                None => Some(format!("push to uninitialized key {key:?}")),
                Some(row) if row.value.len() != width => Some(format!(
                    "row width mismatch: {key:?} is {} wide, push is {width}",
                    row.value.len()
                )),
                Some(row) => {
                    update(row);
                    row.version += 1;
                    None
                }
            }
        };
        if let Some(why) = rejected {
            panic!("{why}");
        }
        self.traffic.pushes.fetch_add(1, Ordering::Relaxed);
        self.traffic.bytes_pushed.fetch_add(self.dim_bytes as u64, Ordering::Relaxed);
    }

    /// Pushes an outer-loop gradient for one row (one RPC, counted) and
    /// applies the server-side update `θ ← θ + lr_scaled · g` where the
    /// scaling is Adagrad over accumulated squared gradients — the paper's
    /// industry configuration (SGD inner, Adagrad outer).
    pub fn push_outer_grad(&self, key: ParamKey, grad: &[f32], lr: f32) {
        self.push_with(key, grad.len(), |row| {
            // Accumulators start at 0.1 (the TensorFlow Adagrad default):
            // from zero, a row's first-ever update degenerates to
            // lr * sign(g), which on rarely-touched rows amplifies noise to
            // 10x the init scale regardless of how small the pushed delta
            // was.
            if row.accum.is_empty() {
                row.accum = vec![0.1; grad.len()];
            }
            for ((v, &g), a) in row.value.iter_mut().zip(grad).zip(row.accum.iter_mut()) {
                *a += g * g;
                *v += lr * g / (a.sqrt() + 1e-8);
            }
        });
    }

    /// Pushes a raw delta applied verbatim (used by the no-cache baseline's
    /// immediate writes).
    pub fn push_delta(&self, key: ParamKey, delta: &[f32]) {
        self.push_with(key, delta.len(), |row| {
            for (v, &d) in row.value.iter_mut().zip(delta) {
                *v += d;
            }
        });
    }

    /// The traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Number of rows stored.
    pub fn n_rows(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// Resident payload bytes: the f32 storage of every value row plus
    /// every materialized Adagrad accumulator. Map/key overhead is
    /// excluded — this measures the tensor mass a real PS shard would
    /// account against its memory budget.
    pub fn resident_bytes(&self) -> u64 {
        let f32s: usize = self
            .stripes
            .iter()
            .map(|s| s.read().values().map(|r| r.value.len() + r.accum.len()).sum::<usize>())
            .sum();
        (f32s * std::mem::size_of::<f32>()) as u64
    }

    /// Publishes store occupancy into a metrics registry:
    /// `ps_kv_entries` (rows resident) and `ps_kv_bytes` (resident
    /// payload bytes, see [`ParameterServer::resident_bytes`]).
    pub fn export_kv_gauges(&self, registry: &MetricsRegistry) {
        registry.gauge("ps_kv_entries").set(self.n_rows() as f64);
        registry.gauge("ps_kv_bytes").set(self.resident_bytes() as f64);
    }

    /// Publishes store occupancy labeled by server shard, e.g.
    /// `ps_kv_entries{shard="2"}`. The unlabeled family totals are the
    /// caller's job (sum the shards and call
    /// [`ParameterServer::export_kv_gauges`] on the merged store, or set
    /// the gauges directly) — this only writes the per-shard series.
    pub fn export_kv_gauges_for_shard(&self, registry: &MetricsRegistry, shard: usize) {
        registry.gauge(&format!("ps_kv_entries{{shard=\"{shard}\"}}")).set(self.n_rows() as f64);
        registry
            .gauge(&format!("ps_kv_bytes{{shard=\"{shard}\"}}"))
            .set(self.resident_bytes() as f64);
    }

    /// The number of pushes a row has received (0 if never pushed). Silent:
    /// a driver-side observability read, not an RPC.
    pub fn version(&self, key: ParamKey) -> u64 {
        self.stripe(key).read().get(&key).map_or(0, |row| row.version)
    }

    /// Copies one field of every record out of the store, skipping records
    /// for which `field` yields nothing (order unspecified).
    fn dump<T>(&self, field: impl Fn(&Row) -> Option<T>) -> Vec<(ParamKey, T)> {
        let mut out = Vec::with_capacity(self.n_rows());
        for stripe in &self.stripes {
            out.extend(stripe.read().iter().filter_map(|(k, row)| Some((*k, field(row)?))));
        }
        out
    }

    /// Copies every `(key, value)` pair out of the store (checkpointing;
    /// order is unspecified — callers sort).
    pub fn dump_rows(&self) -> Vec<(ParamKey, Vec<f32>)> {
        self.dump(|row| Some(row.value.clone()))
    }

    /// Copies every row's value out of the store as one flat batch
    /// `(keys, values)`: keys strictly `(table, row)`-ascending, row `i`'s
    /// value at `values[i * dim..(i + 1) * dim]`. Every stripe's read lock
    /// is held for the copy, so the batch is one consistent cut, and each
    /// value is copied exactly once — the whole-store read a serving
    /// snapshot is built from. Silent: no traffic is counted.
    ///
    /// Panics if a row is not [`ParameterServer::value_dim`] wide.
    pub fn dump_flat(&self) -> (Vec<ParamKey>, Vec<f32>) {
        let dim = self.value_dim();
        let stripes: Vec<_> = self.stripes.iter().map(|s| s.read()).collect();
        let mut rows: Vec<(ParamKey, &Row)> =
            Vec::with_capacity(stripes.iter().map(|s| s.len()).sum());
        rows.extend(stripes.iter().flat_map(|s| s.iter().map(|(k, row)| (*k, row))));
        rows.sort_unstable_by_key(|(k, _)| *k);
        let mut values = Vec::with_capacity(rows.len() * dim);
        for (key, row) in &rows {
            assert_eq!(row.value.len(), dim, "row width mismatch: {key:?}");
            values.extend_from_slice(&row.value);
        }
        (rows.into_iter().map(|(k, _)| k).collect(), values)
    }

    /// Copies every materialized Adagrad accumulator row out of the store
    /// (order unspecified — callers sort). Together with
    /// [`ParameterServer::dump_rows`] this is the complete optimizer state
    /// a resumed run needs to continue bit-identically: values alone are
    /// not enough, because a cold-started accumulator rescales the next
    /// update of every previously-touched row.
    pub fn dump_adagrad(&self) -> Vec<(ParamKey, Vec<f32>)> {
        self.dump(|row| (!row.accum.is_empty()).then(|| row.accum.clone()))
    }

    /// Copies every record of `other` — value, accumulator and version —
    /// into this store, replacing records already present under the same
    /// key. Traffic counters are not touched.
    pub(crate) fn absorb(&self, other: &ParameterServer) {
        for stripe in &other.stripes {
            for (key, row) in stripe.read().iter() {
                self.stripe(*key).write().insert(*key, row.clone());
            }
        }
    }

    /// Seeds one Adagrad accumulator row verbatim (resume/rollback; no
    /// traffic accounting, no version bump).
    ///
    /// Panics if the row was never initialized: an accumulator belongs to
    /// a row, so values are restored first.
    pub fn restore_adagrad_row(&self, key: ParamKey, acc: Vec<f32>) {
        let restored = self.stripe(key).write().get_mut(&key).map(|row| row.accum = acc);
        restored.unwrap_or_else(|| panic!("accumulator restore for uninitialized key {key:?}"));
    }

    /// Restores the full training state — values and Adagrad accumulators —
    /// in place, replacing whatever the store currently holds. Traffic
    /// counters and the versions of surviving rows are deliberately left
    /// alone: the RPCs that moved the now-discarded updates really
    /// happened, and versions only ever need to be monotonic (staleness is
    /// measured as a delta within one round). A row absent from `rows` is
    /// dropped whole, version included.
    ///
    /// This is the rollback primitive: the server object stays shared (the
    /// RPC front end holds an `Arc` to it), only its contents rewind.
    ///
    /// Panics, with the store untouched, if `adagrad` names a key `rows`
    /// does not.
    pub fn restore_state(&self, rows: &[(ParamKey, Vec<f32>)], adagrad: &[(ParamKey, Vec<f32>)]) {
        let mut fresh: RowMap = rows
            .iter()
            .map(|(k, v)| (*k, Row { value: v.clone(), accum: Vec::new(), version: 0 }))
            .collect();
        for (k, a) in adagrad {
            fresh
                .get_mut(k)
                .unwrap_or_else(|| panic!("accumulator restore for uninitialized key {k:?}"))
                .accum = a.clone();
        }
        for stripe in &self.stripes {
            for (k, old) in stripe.write().drain() {
                if let Some(row) = fresh.get_mut(&k) {
                    row.version = old.version;
                }
            }
        }
        for (k, row) in fresh {
            self.stripe(k).write().insert(k, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_pull_roundtrip_counts_traffic() {
        let ps = ParameterServer::new(4, 8);
        let key = ParamKey::new(1, 42);
        ps.init_row(key, vec![1.0; 8]);
        assert_eq!(ps.n_rows(), 1);
        let v = ps.pull(key);
        assert_eq!(v, vec![1.0; 8]);
        let (pulls, pushes, bp, bs) = ps.traffic().snapshot();
        assert_eq!((pulls, pushes), (1, 0));
        assert_eq!(bp, 32);
        assert_eq!(bs, 0);
    }

    #[test]
    #[should_panic(expected = "uninitialized key")]
    fn pull_of_missing_key_panics() {
        ParameterServer::new(2, 4).pull(ParamKey::new(0, 0));
    }

    #[test]
    fn push_outer_grad_applies_adagrad() {
        let ps = ParameterServer::new(2, 2);
        let key = ParamKey::new(0, 0);
        ps.init_row(key, vec![0.0, 0.0]);
        ps.push_outer_grad(key, &[1.0, -2.0], 0.5);
        let v = ps.read_silent(key).unwrap();
        // first Adagrad step from the 0.1 cold-start accumulator:
        // lr * g / sqrt(0.1 + g^2)
        assert!((v[0] - 0.5 / 1.1f32.sqrt()).abs() < 1e-4, "{:?}", v);
        assert!((v[1] + 1.0 / 4.1f32.sqrt()).abs() < 1e-4, "{:?}", v);
        // second identical push moves less (accumulated curvature)
        ps.push_outer_grad(key, &[1.0, -2.0], 0.5);
        let v2 = ps.read_silent(key).unwrap();
        assert!((v2[0] - v[0]) < 0.5 && (v2[0] - v[0]) > 0.0);
    }

    #[test]
    fn accounting_tracks_rows_and_bytes() {
        let ps = ParameterServer::new(2, 4);
        ps.init_row(ParamKey::new(0, 0), vec![0.0; 4]);
        ps.init_row(ParamKey::new(0, 1), vec![0.0; 4]);
        // Two value rows, no accumulators yet.
        assert_eq!(ps.n_rows(), 2);
        assert_eq!(ps.resident_bytes(), 2 * 4 * 4);
        // An outer push materializes one Adagrad accumulator row.
        ps.push_outer_grad(ParamKey::new(0, 0), &[1.0; 4], 0.1);
        assert_eq!(ps.resident_bytes(), 3 * 4 * 4);
        let registry = MetricsRegistry::new();
        ps.export_kv_gauges(&registry);
        assert_eq!(registry.gauge("ps_kv_entries").get(), 2.0);
        assert_eq!(registry.gauge("ps_kv_bytes").get(), 48.0);
    }

    #[test]
    fn a_one_key_pull_is_one_counted_batch() {
        let ps = ParameterServer::new(2, 2);
        let key = ParamKey::new(1, 3);
        ps.init_row(key, vec![1.0, -1.0]);
        ps.push_delta(key, &[1.0, 0.0]);
        // A single-row read is a one-key batch: one counted RPC.
        let before = ps.traffic().snapshot().0;
        assert_eq!(ps.pull_flat(&[key]), Ok((vec![1], vec![2.0, -1.0])));
        assert_eq!(ps.traffic().snapshot().0, before + 1);
    }

    #[test]
    fn batch_pull_counts_one_rpc_per_chunk() {
        let ps = ParameterServer::new(4, 2);
        let keys: Vec<ParamKey> =
            (0..WIRE_BATCH_KEYS as u32 + 1).map(|r| ParamKey::new(0, r)).collect();
        for &k in &keys {
            ps.init_row(k, vec![k.row as f32, 0.0]);
        }
        // An empty batch is free.
        assert!(ps.pull_batch(&[]).is_empty());
        assert_eq!(ps.traffic().snapshot().0, 0);
        // One chunk worth of keys is one counted pull …
        let rows = ps.pull_batch(&keys[..WIRE_BATCH_KEYS]);
        assert_eq!(rows.len(), WIRE_BATCH_KEYS);
        assert_eq!(ps.traffic().snapshot().0, 1);
        // … one key over the chunk size is two, and bytes follow the rows.
        ps.pull_batch(&keys);
        let (pulls, _, bp, _) = ps.traffic().snapshot();
        assert_eq!(pulls, 3);
        assert_eq!(bp as usize, (2 * WIRE_BATCH_KEYS + 1) * 8);
        // Rows come back in input-key order with their versions.
        let sample = ps.pull_batch(&[keys[7], keys[3]]);
        assert_eq!(sample[0].0[0], 7.0);
        assert_eq!(sample[1].0[0], 3.0);
    }

    /// Runs `f`, which must panic with a message containing `expected`.
    fn panics_with(expected: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
        let payload = std::panic::catch_unwind(f).expect_err("the operation must be rejected");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains(expected), "panicked with {msg:?}, expected {expected:?}");
    }

    #[test]
    fn rejected_operations_leave_no_trace() {
        let ps = std::panic::AssertUnwindSafe(ParameterServer::new(2, 2));
        let missing = ParamKey::new(7, 7);
        let present = ParamKey::new(0, 0);
        ps.init_row(present, vec![1.0, 2.0]);
        // An uninitialized key is refused before the version bump and the
        // traffic count — by either push flavour and by a batch pull that
        // names it anywhere.
        panics_with("uninitialized key", || ps.push_outer_grad(missing, &[1.0, 1.0], 0.5));
        panics_with("uninitialized key", || ps.push_delta(missing, &[1.0, 1.0]));
        panics_with("uninitialized key", || drop(ps.pull_batch(&[present, missing])));
        assert_eq!(ps.pull_flat(&[present, missing, ParamKey::new(8, 8)]), Err(missing));
        // So is a push of the wrong width to a row that does exist.
        panics_with("width mismatch", || ps.push_outer_grad(present, &[1.0], 0.5));
        panics_with("width mismatch", || ps.push_delta(present, &[1.0, 1.0, 1.0]));
        assert_eq!(ps.version(missing), 0);
        assert_eq!(ps.version(present), 0);
        assert_eq!(ps.traffic().snapshot(), (0, 0, 0, 0));
        assert_eq!(ps.read_silent(present), Some(vec![1.0, 2.0]));
        assert!(ps.dump_adagrad().is_empty());
        assert_eq!(ps.n_rows(), 1);
        // The store is still usable: no lock was poisoned by the refusals.
        ps.push_outer_grad(present, &[1.0, 1.0], 0.5);
        assert_eq!(ps.version(present), 1);
        assert_eq!(ps.first_missing(&[present, missing, ParamKey::new(8, 8)]), Some(missing));
        assert_eq!(ps.first_missing(&[present]), None);
    }

    #[test]
    fn restore_state_rewinds_values_and_accumulators() {
        let ps = ParameterServer::new(2, 2);
        let key = ParamKey::new(0, 0);
        ps.init_row(key, vec![1.0, 2.0]);
        ps.push_outer_grad(key, &[1.0, -1.0], 0.5);
        let rows = ps.dump_rows();
        let acc = ps.dump_adagrad();
        assert_eq!(acc.len(), 1, "one accumulator materialized");
        // Move further, then rewind.
        ps.push_outer_grad(key, &[4.0, 4.0], 0.5);
        ps.init_row(ParamKey::new(1, 1), vec![9.0, 9.0]);
        ps.restore_state(&rows, &acc);
        assert_eq!(ps.n_rows(), 1, "extra row dropped by restore");
        assert_eq!(ps.read_silent(key), rows[0].1.clone().into());
        assert_eq!(ps.dump_adagrad(), acc);
        // A post-restore push continues from the restored accumulator: it
        // must match a push applied directly after the snapshot point.
        let twin = ParameterServer::new(2, 2);
        twin.restore_state(&rows, &acc);
        ps.push_outer_grad(key, &[1.0, 1.0], 0.5);
        twin.push_outer_grad(key, &[1.0, 1.0], 0.5);
        assert_eq!(ps.read_silent(key), twin.read_silent(key));
    }

    #[test]
    fn push_delta_is_verbatim() {
        let ps = ParameterServer::new(1, 2);
        let key = ParamKey::new(3, 7);
        ps.init_row(key, vec![1.0, 1.0]);
        ps.push_delta(key, &[0.25, -0.5]);
        assert_eq!(ps.read_silent(key).unwrap(), vec![1.25, 0.5]);
    }

    #[test]
    fn dump_flat_is_the_sorted_silent_dump() {
        let ps = ParameterServer::new(LOCK_STRIPES, 2);
        for (t, r) in [(3, 0), (0, u32::MAX), (0, 5), (1, 2), (0, 0)] {
            ps.init_row(ParamKey::new(t, r), vec![t as f32, r as f32]);
        }
        ps.push_delta(ParamKey::new(1, 2), &[0.5, 0.5]);
        let before = ps.traffic().snapshot();
        let (keys, values) = ps.dump_flat();
        assert_eq!(ps.traffic().snapshot(), before, "a dump is not traffic");
        let mut rows = ps.dump_rows();
        rows.sort_by_key(|(k, _)| *k);
        assert_eq!(keys, rows.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        assert_eq!(values, rows.iter().flat_map(|(_, v)| v.clone()).collect::<Vec<f32>>());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    /// The map's hash over 5 tables × 4 096 dense rows: its low 16 bits —
    /// the bucket bits of any stripe up to 2^16 buckets — tell apart keys
    /// that differ only in table, and none of them is constant over the
    /// keys of one stripe. Plain `fib_hash` fails the first (its low bits
    /// are the row's alone); `fib_hash().rotate_left(32)` fails the second
    /// (the stripe-selection bits become bucket bits).
    #[test]
    fn store_hash_spreads_keys_over_buckets() {
        use std::hash::BuildHasher;
        let ps = ParameterServer::new(LOCK_STRIPES, 1);
        let map = ps.stripes[0].read();
        let low16 = |key: ParamKey| map.hasher().hash_one(key) as u16;
        for row in 0..4096 {
            let mut buckets: Vec<u16> = (0..5).map(|t| low16(ParamKey::new(t, row))).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert_eq!(buckets.len(), 5, "row {row}: keys of different tables share low bits");
        }
        // Per stripe: the OR of the low bits and the OR of their complements.
        let mut seen = [(0u16, 0u16); LOCK_STRIPES];
        for table in 0..5 {
            for row in 0..4096 {
                let key = ParamKey::new(table, row);
                let (ones, zeros) = &mut seen[(key.fib_hash() >> 33) as usize % LOCK_STRIPES];
                *ones |= low16(key);
                *zeros |= !low16(key);
            }
        }
        for (stripe, &(ones, zeros)) in seen.iter().enumerate() {
            assert_eq!(ones & zeros, u16::MAX, "stripe {stripe}: a bucket bit never varies");
        }
    }

    #[test]
    fn concurrent_pulls_and_pushes_are_safe() {
        let ps = ParameterServer::new(8, 4);
        for r in 0..64 {
            ps.init_row(ParamKey::new(0, r), vec![0.0; 4]);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let ps = &ps;
                s.spawn(move || {
                    for i in 0..200 {
                        let key = ParamKey::new(0, ((t * 53 + i) % 64) as u32);
                        let _ = ps.pull(key);
                        ps.push_delta(key, &[1.0, 0.0, 0.0, 0.0]);
                    }
                });
            }
        });
        // All pushes landed: total added mass is 4 threads * 200 pushes.
        let total: f32 = (0..64).map(|r| ps.read_silent(ParamKey::new(0, r)).unwrap()[0]).sum();
        assert_eq!(total, 800.0);
        assert_eq!(ps.traffic().total_rpcs(), 1600);
    }
}
