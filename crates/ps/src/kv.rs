//! The parameter-server store: one slab of rows behind one lock.
//!
//! Slot `s` of the slab holds one row in every column: `keys[s]`, its
//! value at `values[s * dim..][..dim]`, its Adagrad accumulator at the
//! same offset of `accum` (meaningful once the row's first outer push has
//! materialized it), and its push version. A [`SlotIndex`] finds a key's
//! slot. Every operation takes the lock once — a batch included — and a
//! write validates every key and the width before it mutates or counts
//! anything. A worker reads through one batch call
//! ([`ParameterServer::pull_flat`], no single-row variant on the cached
//! path), the driver writes through one
//! ([`ParameterServer::push_outer_grads`]), and the same file defines the
//! traffic counters the §IV-E cache exists to shrink.
//!
//! The index is the one open-addressed table of the tree: the serving
//! snapshot indexes its frozen slab with it too. It homes a key by the top
//! bits of [`ParamKey::fib_hash`] rather than std's SipHash: resistance to
//! hash flooding buys nothing here — only the driver inserts keys
//! (`init_row`, `restore_state`); a client can only probe, and a probe's
//! length depends on the stored set, not on the probe.

use mamdr_obs::MetricsRegistry;
use mamdr_util::codec::{CodecError, Reader, Writer};
use parking_lot::RwLock;
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
    /// well mixed, so a table of `2^b` buckets takes the top `b` of them
    /// (see [`SlotIndex`]).
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

/// An open-addressed index from the keys of a slab to their slots.
///
/// A power-of-two table of at least `4n/3` buckets for `n` keys (so at
/// least one is always empty), each holding slot + 1 of the key homed there
/// or linearly probed past it, 0 if empty. A key's home bucket is the top
/// `b` bits of its [`ParamKey::fib_hash`] in a table of `2^b` buckets, and
/// a lookup probes linearly until it meets the key's slot or an empty
/// bucket. The index holds slots, not keys: every call takes the slab's key
/// column.
///
/// Keys are indexed in slot order, by [`SlotIndex::build`] or one at a
/// time by [`SlotIndex::insert`], and both lay the table out the same way:
/// an index grown key by key equals the one built over the same keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotIndex {
    buckets: Vec<u32>,
}

impl SlotIndex {
    /// The index over `keys`, `keys[s]` at slot `s`.
    ///
    /// Panics if a slab of that many rows could not be indexed by `u32`.
    pub fn build(keys: &[ParamKey]) -> Self {
        assert!(keys.len() < u32::MAX as usize, "a slab indexes fewer than 2^32 - 1 rows");
        let len = (keys.len() + keys.len() / 3 + 1).next_power_of_two();
        let mut index = SlotIndex { buckets: vec![0; len] };
        for (slot, &key) in keys.iter().enumerate() {
            index.place(key, slot);
        }
        index
    }

    /// Indexes `keys[slot]`, the last key of `keys`, which the index does
    /// not hold yet. Past three-quarters load the table is rebuilt at the
    /// next power of two that keeps a quarter of it empty.
    pub fn insert(&mut self, keys: &[ParamKey], slot: usize) {
        debug_assert_eq!(slot + 1, keys.len(), "slots are indexed in order");
        let n = keys.len();
        if n + n / 3 + 1 > self.buckets.len() {
            *self = SlotIndex::build(keys);
        } else {
            self.place(keys[slot], slot);
        }
    }

    /// The home bucket of `key`: the top bits of its Fibonacci hash.
    #[inline]
    fn home(&self, key: ParamKey) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        key.fib_hash().checked_shr(64 - bits).unwrap_or(0) as usize
    }

    fn place(&mut self, key: ParamKey, slot: usize) {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(key);
        while self.buckets[b] != 0 {
            b = (b + 1) & mask;
        }
        self.buckets[b] = slot as u32 + 1;
    }

    /// The slot of `key` in the slab whose key column is `keys`, if any.
    #[inline]
    pub fn find(&self, keys: &[ParamKey], key: ParamKey) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(key);
        loop {
            let slot = (self.buckets[b] as usize).checked_sub(1)?;
            if keys[slot] == key {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// The number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The longest probe any indexed key takes: buckets visited from its
    /// home to its slot, both included.
    #[cfg(test)]
    fn longest_probe(&self, keys: &[ParamKey]) -> usize {
        let mask = self.buckets.len() - 1;
        let mut longest = 0;
        for (b, &entry) in self.buckets.iter().enumerate() {
            if let Some(slot) = (entry as usize).checked_sub(1) {
                longest = longest.max(((b.wrapping_sub(self.home(keys[slot]))) & mask) + 1);
            }
        }
        longest
    }
}

/// The store's columns, one slot per row (see the module docs).
struct Slab {
    dim: usize,
    keys: Vec<ParamKey>,
    values: Vec<f32>,
    /// Adagrad accumulators of the outer update, `dim` per slot; a slot's
    /// row is meaningful only once `has_accum` says its first outer push
    /// materialized it.
    accum: Vec<f32>,
    has_accum: Vec<bool>,
    /// Pushes each row has received — the basis of the staleness
    /// measurement (§IV-E "alleviate inconsistency").
    versions: Vec<u64>,
    index: SlotIndex,
}

impl Slab {
    fn new(dim: usize) -> Self {
        Slab {
            dim,
            keys: Vec::new(),
            values: Vec::new(),
            accum: Vec::new(),
            has_accum: Vec::new(),
            versions: Vec::new(),
            index: SlotIndex::build(&[]),
        }
    }

    #[inline]
    fn find(&self, key: ParamKey) -> Option<usize> {
        self.index.find(&self.keys, key)
    }

    #[inline]
    fn value(&self, slot: usize) -> &[f32] {
        &self.values[slot * self.dim..][..self.dim]
    }

    /// Writes `value` into `key`'s slot, appending the slot if the key is
    /// new (no accumulator, version 0), and returns the slot.
    fn upsert(&mut self, key: ParamKey, value: &[f32]) -> usize {
        let dim = self.dim;
        assert_eq!(
            value.len(),
            dim,
            "row width mismatch: {key:?} is {} wide, the store {dim}",
            value.len()
        );
        if let Some(slot) = self.find(key) {
            self.values[slot * dim..][..dim].copy_from_slice(value);
            return slot;
        }
        let slot = self.keys.len();
        self.keys.push(key);
        self.values.extend_from_slice(value);
        self.accum.resize(self.accum.len() + dim, 0.0);
        self.has_accum.push(false);
        self.versions.push(0);
        self.index.insert(&self.keys, slot);
        slot
    }

    /// Materializes `slot`'s accumulator as `acc`.
    fn set_accum(&mut self, slot: usize, acc: &[f32]) {
        self.accum[slot * self.dim..][..self.dim].copy_from_slice(acc);
        self.has_accum[slot] = true;
    }
}

/// An in-memory parameter server: one slab of rows behind one lock.
///
/// Every operation takes the lock once — shared for reads, exclusive for
/// writes — and a write validates before it mutates or counts anything.
/// The driver is the only writer and workers read one batch per round, so
/// the lock is held for a batch, never per row.
pub struct ParameterServer {
    slab: RwLock<Slab>,
    traffic: TrafficStats,
    dim: usize,
    /// Number of *server* shards pull batches are modeled as routed over
    /// (see [`ParameterServer::set_route_shards`]); 1 = the single-server
    /// wire, today's default.
    route_shards: AtomicUsize,
}

impl ParameterServer {
    /// An empty server whose rows are `value_dim` floats wide. The first
    /// argument is ignored: it once chose a lock-stripe count, and callers
    /// still pass one.
    pub fn new(_ignored: usize, value_dim: usize) -> Self {
        ParameterServer {
            slab: RwLock::new(Slab::new(value_dim)),
            traffic: TrafficStats::default(),
            dim: value_dim,
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
        self.dim
    }

    fn row_bytes(&self, rows: usize) -> u64 {
        (rows * self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// Seeds a row without counting traffic (initial placement). Re-seeding
    /// an existing row replaces its value and keeps its accumulator and
    /// version.
    ///
    /// Panics, naming the key, if `value` is not
    /// [`ParameterServer::value_dim`] wide.
    pub fn init_row(&self, key: ParamKey, value: Vec<f32>) {
        self.slab.write().upsert(key, &value);
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
        self.traffic.bytes_pulled.fetch_add(self.row_bytes(1), Ordering::Relaxed);
        v
    }

    /// Pulls many rows as one flat batch `(versions, values)` in input-key
    /// order — the store's one batched read, behind a cached worker round's
    /// pull and the wire's `PullMany` handler, under one shared lock. Counts
    /// one RPC per [`WIRE_BATCH_KEYS`] chunk — exactly the frames the
    /// batched wire protocol would spend on the same key set, so in-process
    /// and loopback runs report identical pull counters.
    ///
    /// Returns the first key the store holds no row for as the error,
    /// before any traffic is counted: workers may only touch rows the
    /// driver placed.
    pub fn pull_flat(&self, keys: &[ParamKey]) -> Result<(Vec<u64>, Vec<f32>), ParamKey> {
        let mut versions = Vec::with_capacity(keys.len());
        let mut values = Vec::with_capacity(keys.len() * self.dim);
        {
            let slab = self.slab.read();
            for &key in keys {
                let slot = slab.find(key).ok_or(key)?;
                versions.push(slab.versions[slot]);
                values.extend_from_slice(slab.value(slot));
            }
        }
        let chunks = crate::shard::route_chunks(keys, self.route_shards.load(Ordering::Relaxed));
        self.traffic.pulls.fetch_add(chunks, Ordering::Relaxed);
        self.traffic.bytes_pulled.fetch_add(self.row_bytes(keys.len()), Ordering::Relaxed);
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
        values.chunks_exact(self.dim.max(1)).map(<[f32]>::to_vec).zip(versions).collect()
    }

    /// Reads a row without traffic accounting (driver-side evaluation).
    pub fn read_silent(&self, key: ParamKey) -> Option<Vec<f32>> {
        let slab = self.slab.read();
        slab.find(key).map(|slot| slab.value(slot).to_vec())
    }

    /// The first of `keys` the store holds no row for, if any — the
    /// non-cloning existence check over a whole batch.
    pub fn first_missing(&self, keys: &[ParamKey]) -> Option<ParamKey> {
        let slab = self.slab.read();
        keys.iter().copied().find(|&key| slab.find(key).is_none())
    }

    /// The one write path: under one exclusive lock, finds the slot of
    /// every key, then applies `update(slab, slot, row)` to each row of
    /// `rows` (`dim` floats per key, in key order), bumps each version and
    /// counts one push per key. A batch naming a key the store holds no
    /// row for is refused with that key before anything is mutated or
    /// counted; one of the wrong width panics, equally untouched.
    fn push_rows(
        &self,
        keys: &[ParamKey],
        rows: &[f32],
        mut update: impl FnMut(&mut Slab, usize, &[f32]),
    ) -> Result<(), ParamKey> {
        let dim = self.dim;
        assert_eq!(
            rows.len(),
            keys.len() * dim,
            "push width mismatch: {} floats for {} rows {dim} wide",
            rows.len(),
            keys.len()
        );
        {
            let mut guard = self.slab.write();
            let slab = &mut *guard;
            let mut slots = Vec::with_capacity(keys.len());
            for &key in keys {
                slots.push(slab.find(key).ok_or(key)?);
            }
            for (&slot, row) in slots.iter().zip(rows.chunks_exact(dim.max(1))) {
                update(slab, slot, row);
                slab.versions[slot] += 1;
            }
        }
        self.traffic.pushes.fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.traffic.bytes_pushed.fetch_add(self.row_bytes(keys.len()), Ordering::Relaxed);
        Ok(())
    }

    /// Pushes one outer-loop gradient per key (one RPC per row, counted)
    /// and applies the server-side update `θ ← θ + lr_scaled · g`, where
    /// the scaling is Adagrad over accumulated squared gradients — the
    /// paper's industry configuration (SGD inner, Adagrad outer). `grads`
    /// holds [`ParameterServer::value_dim`] floats per key, in key order; a
    /// key may repeat, and its rows then apply in order.
    ///
    /// Returns the first key the store holds no row for, with nothing
    /// applied and nothing counted. Panics, equally untouched, if `grads`
    /// is not `value_dim` floats per key.
    pub fn push_outer_grads(
        &self,
        keys: &[ParamKey],
        grads: &[f32],
        lr: f32,
    ) -> Result<(), ParamKey> {
        self.push_rows(keys, grads, |slab, slot, grad| {
            // Accumulators start at 0.1 (the TensorFlow Adagrad default):
            // from zero, a row's first-ever update degenerates to
            // lr * sign(g), which on rarely-touched rows amplifies noise to
            // 10x the init scale regardless of how small the pushed delta
            // was.
            let dim = slab.dim;
            let acc = &mut slab.accum[slot * dim..][..dim];
            if !slab.has_accum[slot] {
                acc.fill(0.1);
                slab.has_accum[slot] = true;
            }
            let value = &mut slab.values[slot * dim..][..dim];
            for ((v, &g), a) in value.iter_mut().zip(grad).zip(acc.iter_mut()) {
                *a += g * g;
                *v += lr * g / (a.sqrt() + 1e-8);
            }
        })
    }

    /// [`ParameterServer::push_outer_grads`] of one row.
    ///
    /// Panics if the row was never initialized or `grad` is not
    /// [`ParameterServer::value_dim`] wide, with nothing mutated and
    /// nothing counted.
    pub fn push_outer_grad(&self, key: ParamKey, grad: &[f32], lr: f32) {
        self.push_outer_grads(&[key], grad, lr)
            .unwrap_or_else(|key| panic!("push to uninitialized key {key:?}"));
    }

    /// Pushes a raw delta applied verbatim (used by the no-cache baseline's
    /// immediate writes). Refuses a missing key or a wrong width as
    /// [`ParameterServer::push_outer_grad`] does.
    pub fn push_delta(&self, key: ParamKey, delta: &[f32]) {
        self.push_rows(&[key], delta, |slab, slot, delta| {
            let dim = slab.dim;
            for (v, &d) in slab.values[slot * dim..][..dim].iter_mut().zip(delta) {
                *v += d;
            }
        })
        .unwrap_or_else(|key| panic!("push to uninitialized key {key:?}"));
    }

    /// The traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Number of rows stored.
    pub fn n_rows(&self) -> usize {
        self.slab.read().keys.len()
    }

    /// Resident payload bytes: the f32 storage of every value row plus
    /// every materialized Adagrad accumulator. Index/key overhead and
    /// accumulator slots not yet materialized are excluded — this measures
    /// the tensor mass a real PS shard would account against its memory
    /// budget.
    pub fn resident_bytes(&self) -> u64 {
        let slab = self.slab.read();
        let rows = slab.keys.len() + slab.has_accum.iter().filter(|&&m| m).count();
        self.row_bytes(rows)
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
        let slab = self.slab.read();
        slab.find(key).map_or(0, |slot| slab.versions[slot])
    }

    /// Copies every `(key, value)` pair out of the store (checkpointing;
    /// order is unspecified — callers sort).
    pub fn dump_rows(&self) -> Vec<(ParamKey, Vec<f32>)> {
        let slab = self.slab.read();
        slab.keys.iter().enumerate().map(|(slot, &key)| (key, slab.value(slot).to_vec())).collect()
    }

    /// Copies every row's value out of the store as one flat batch
    /// `(keys, values)`: keys strictly `(table, row)`-ascending, row `i`'s
    /// value at `values[i * dim..(i + 1) * dim]`. The store's read lock is
    /// held for the copy, so the batch is one consistent cut, and each
    /// value is copied exactly once — the whole-store read a serving
    /// snapshot is built from. Silent: no traffic is counted.
    pub fn dump_flat(&self) -> (Vec<ParamKey>, Vec<f32>) {
        let slab = self.slab.read();
        let mut order: Vec<(ParamKey, u32)> = slab.keys.iter().copied().zip(0..).collect();
        order.sort_unstable_by_key(|&(key, _)| key);
        let mut values = Vec::with_capacity(order.len() * self.dim);
        for &(_, slot) in &order {
            values.extend_from_slice(slab.value(slot as usize));
        }
        (order.into_iter().map(|(key, _)| key).collect(), values)
    }

    /// Copies every materialized Adagrad accumulator row out of the store
    /// (order unspecified — callers sort). Together with
    /// [`ParameterServer::dump_rows`] this is the complete optimizer state
    /// a resumed run needs to continue bit-identically: values alone are
    /// not enough, because a cold-started accumulator rescales the next
    /// update of every previously-touched row.
    pub fn dump_adagrad(&self) -> Vec<(ParamKey, Vec<f32>)> {
        let slab = self.slab.read();
        let dim = self.dim;
        slab.keys
            .iter()
            .enumerate()
            .filter(|&(slot, _)| slab.has_accum[slot])
            .map(|(slot, &key)| (key, slab.accum[slot * dim..][..dim].to_vec()))
            .collect()
    }

    /// Copies every slot of `other` — value, accumulator and version —
    /// into this store, replacing slots already present under the same
    /// key. Traffic counters are not touched.
    ///
    /// Panics if the two stores' rows differ in width.
    pub(crate) fn absorb(&self, other: &ParameterServer) {
        assert_eq!(self.dim, other.dim, "absorbing a store of another row width");
        let (from, mut into) = (other.slab.read(), self.slab.write());
        let dim = self.dim;
        for (s, &key) in from.keys.iter().enumerate() {
            let slot = into.upsert(key, from.value(s));
            into.accum[slot * dim..][..dim].copy_from_slice(&from.accum[s * dim..][..dim]);
            into.has_accum[slot] = from.has_accum[s];
            into.versions[slot] = from.versions[s];
        }
    }

    /// Seeds one Adagrad accumulator row verbatim (resume/rollback; no
    /// traffic accounting, no version bump).
    ///
    /// Panics if the row was never initialized — an accumulator belongs to
    /// a row, so values are restored first — or if `acc` is not
    /// [`ParameterServer::value_dim`] wide.
    pub fn restore_adagrad_row(&self, key: ParamKey, acc: Vec<f32>) {
        assert_eq!(acc.len(), self.dim, "accumulator width mismatch: {key:?}");
        let mut slab = self.slab.write();
        let slot = slab
            .find(key)
            .unwrap_or_else(|| panic!("accumulator restore for uninitialized key {key:?}"));
        slab.set_accum(slot, &acc);
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
    /// does not, or if a row or accumulator is not
    /// [`ParameterServer::value_dim`] wide.
    pub fn restore_state(&self, rows: &[(ParamKey, Vec<f32>)], adagrad: &[(ParamKey, Vec<f32>)]) {
        let mut fresh = Slab::new(self.dim);
        for (key, value) in rows {
            fresh.upsert(*key, value);
        }
        for (key, acc) in adagrad {
            assert_eq!(acc.len(), self.dim, "accumulator width mismatch: {key:?}");
            let slot = fresh
                .find(*key)
                .unwrap_or_else(|| panic!("accumulator restore for uninitialized key {key:?}"));
            fresh.set_accum(slot, acc);
        }
        let mut slab = self.slab.write();
        for (slot, &key) in fresh.keys.iter().enumerate() {
            fresh.versions[slot] = slab.find(key).map_or(0, |old| slab.versions[old]);
        }
        *slab = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The longest probe run the index may take over the sharded key set
    /// (it takes 5 over the whole set, 6 over either shard's half).
    const LONGEST_PROBE: usize = 8;

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
        let ps = ParameterServer::new(8, 2);
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

    /// The store's index over `sharded_train`'s key set — `industry(64, ..)`
    /// seeds 8 000 user, 3 000 item, 16 group, 32 category and 64 domain
    /// rows — whole and split over its two shards: no key is more than a
    /// short run from its home bucket. Homing by the hash's low bits, which
    /// are the row's alone, piles the five tables' rows onto the same
    /// buckets and breaks the bound.
    #[test]
    fn index_probe_runs_stay_short_over_the_sharded_key_set() {
        use crate::model::tables;
        let keys: Vec<ParamKey> = [
            (tables::USER, 8_000),
            (tables::ITEM, 3_000),
            (tables::UGROUP, 16),
            (tables::ICAT, 32),
            (tables::DOMAIN_BIAS, 64),
        ]
        .into_iter()
        .flat_map(|(table, rows)| (0..rows).map(move |row| ParamKey::new(table, row)))
        .collect();
        let map = crate::shard::ShardMap::new(2);
        let shards: Vec<Vec<ParamKey>> =
            (0..2).map(|s| keys.iter().copied().filter(|&k| map.owner(k) == s).collect()).collect();
        for set in [&keys, &shards[0], &shards[1]] {
            let ps = ParameterServer::new(1, 1);
            for &key in set.iter() {
                ps.init_row(key, vec![0.0]);
            }
            let slab = ps.slab.read();
            assert_eq!(slab.keys, *set);
            let longest = slab.index.longest_probe(&slab.keys);
            assert!(longest <= LONGEST_PROBE, "{} keys: a probe run of {longest}", set.len());
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
