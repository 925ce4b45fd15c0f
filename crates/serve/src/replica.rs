//! Replicated scoring engines behind deterministic routing.
//!
//! One [`Server`] is one admission queue whose workers take turns at it;
//! past the point where one queue can admit and hand out the load, the
//! serving tier scales *out*: N complete replicas (engine, admission queue
//! and workers), each with its own bounded admission, behind a router that
//! assigns every request to a replica by FNV-1a hash of its user id modulo
//! the replica count. The discipline
//! mirrors `ps::ShardMap`: the route is a pure function of the key and
//! the replica count — no per-process state, no load feedback — so a
//! request's replica is reproducible across runs and across processes,
//! which is what makes a replicated run comparable (and bit-identical,
//! for row-independent models) to a single-replica run.
//!
//! Replicas share one `Arc<ServingSnapshot>` per published version: the
//! materialized Θ_d tables exist once in memory no matter the replica
//! count, and [`ReplicatedServer::publish`] swaps every replica to the
//! same allocation under one pool lock. In-flight batches keep the pin
//! they took, so the zero-loss/one-version-per-request guarantee of the
//! single engine carries over replica-by-replica; the pool lock only
//! orders concurrent publishes against each other (two racing publishes
//! cannot interleave their per-replica swaps).
//!
//! All replicas report into the same metric names, so `serve_*` counters
//! aggregate across the pool and the accounting identity
//! `admitted = scored + shed + expired + invalid` holds pool-wide.

use crate::engine::ScoringEngine;
use crate::request::{Pending, ScoreRequest, SloClass, SubmitError};
use crate::server::{ServeConfig, Server};
use crate::snapshot::ServingSnapshot;
use mamdr_obs::{MetricsRegistry, Tracer};
use mamdr_util::Checksum;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deterministic user→replica assignment: `FNV1a64(user_le) mod n`.
///
/// Same discipline as `ps::ShardMap::owner`: a pure function of the key
/// bytes and the pool size. Routing by *user* (not request id or domain)
/// keeps one user's traffic on one replica — cache-friendly, and the
/// natural unit for per-user features — while Zipf-heavy domains still
/// spread across the pool.
pub fn replica_of(user: u32, n_replicas: usize) -> usize {
    if n_replicas <= 1 {
        return 0;
    }
    (Checksum::of(&user.to_le_bytes()) % n_replicas as u64) as usize
}

/// N identical serving stacks behind the deterministic router.
pub struct ReplicatedServer {
    replicas: Vec<Server>,
    /// Orders concurrent publishes: per-replica swaps of two publishes
    /// never interleave.
    swap_lock: Mutex<()>,
}

impl ReplicatedServer {
    /// Starts `n_replicas` complete serving stacks over one shared
    /// snapshot, each configured with `config` (admission bounds are per
    /// replica). All replicas report into `registry` under the same
    /// metric names.
    pub fn start(
        snapshot: ServingSnapshot,
        n_replicas: usize,
        config: ServeConfig,
        registry: &MetricsRegistry,
        tracer: Option<Arc<Tracer>>,
    ) -> ReplicatedServer {
        assert!(n_replicas >= 1, "need at least one replica");
        let shared = Arc::new(snapshot);
        let replicas = (0..n_replicas)
            .map(|_| {
                let engine = Arc::new(
                    ScoringEngine::new_shared(Arc::clone(&shared), registry)
                        .with_tracer(tracer.clone()),
                );
                Server::start(engine, config.clone())
            })
            .collect();
        ReplicatedServer { replicas, swap_lock: Mutex::new(()) }
    }

    /// Number of replicas in the pool.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica that owns `user`'s traffic.
    pub fn route(&self, user: u32) -> usize {
        replica_of(user, self.replicas.len())
    }

    /// Submits to the owning replica ([`SloClass::Interactive`]).
    pub fn submit(
        &self,
        req: ScoreRequest,
        deadline: Option<Duration>,
    ) -> Result<Pending, SubmitError> {
        self.submit_class(req, deadline, SloClass::Interactive)
    }

    /// Submits to the owning replica with an explicit service class.
    /// Admission bounds are the owning replica's: a hot replica can shed
    /// while the rest of the pool admits (that is the overload signal a
    /// deterministic router gives — it never rebalances away from it).
    pub fn submit_class(
        &self,
        req: ScoreRequest,
        deadline: Option<Duration>,
        class: SloClass,
    ) -> Result<Pending, SubmitError> {
        let r = self.route(req.user);
        self.replicas[r].submit_class(req, deadline, class)
    }

    /// Atomically propagates a new snapshot to every replica and returns
    /// the retired version. Each in-flight batch finishes on the version
    /// it pinned; the retired snapshot's memory is freed when the last
    /// pin across all replicas drops. Concurrent publishes are ordered by
    /// the pool lock, so all replicas always converge to the same current
    /// version.
    pub fn publish(&self, snapshot: ServingSnapshot) -> u64 {
        self.publish_arc(Arc::new(snapshot))
    }

    /// [`publish`](Self::publish) for an already-shared snapshot: the gate
    /// keeps its last-good `Arc` and can re-publish *that exact
    /// allocation* on rollback — byte-exact by construction, no re-decode,
    /// no re-materialization.
    pub fn publish_arc(&self, next: Arc<ServingSnapshot>) -> u64 {
        let _guard = self.swap_lock.lock().expect("swap lock");
        let mut retired = 0;
        for server in &self.replicas {
            retired = server.engine().publish_shared(Arc::clone(&next)).version();
        }
        retired
    }

    /// Publishes `next` to the first `n_canary` replicas only, leaving the
    /// rest on the incumbent. Because routing is a pure hash of the user
    /// id, this exposes a *deterministic user-hash slice* of traffic to
    /// the candidate: exactly the users with `replica_of(user, n) <
    /// n_canary`, the same slice in every run. Held under the pool lock so
    /// a canary and a full publish never interleave per-replica swaps.
    /// Returns the number of replicas actually swapped (clamped to the
    /// pool size).
    pub fn publish_canary(&self, next: Arc<ServingSnapshot>, n_canary: usize) -> usize {
        let n = n_canary.min(self.replicas.len());
        let _guard = self.swap_lock.lock().expect("swap lock");
        for server in &self.replicas[..n] {
            server.engine().publish_shared(Arc::clone(&next));
        }
        n
    }

    /// Version currently served (identical across replicas outside a
    /// publish, which the pool lock makes non-interleaving). During a
    /// canary phase replica 0 is in the canary slice, so this reports the
    /// *candidate* version until the gate cuts over or rolls back.
    pub fn current_version(&self) -> u64 {
        self.replicas[0].engine().current_version()
    }

    /// The engine of one replica, for metrics or direct snapshot pins.
    pub fn engine(&self, replica: usize) -> &Arc<ScoringEngine> {
        self.replicas[replica].engine()
    }

    /// Graceful shutdown of every replica: stops admission, scores every
    /// queued request, joins all threads.
    pub fn shutdown(self) {
        for server in self.replicas {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServeResult;
    use crate::snapshot::tests_support::tiny_dense_snapshot;

    fn request(domain: usize, i: u32) -> ScoreRequest {
        ScoreRequest::new(domain, i % 30, i % 20, i % 4, i % 5)
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for n in [1usize, 2, 3, 4, 7] {
            for user in 0..200u32 {
                let a = replica_of(user, n);
                let b = replica_of(user, n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
        // One replica routes everything to 0 without hashing.
        assert_eq!(replica_of(12345, 1), 0);
    }

    #[test]
    fn routing_spreads_users_across_replicas() {
        let n = 4;
        let mut counts = vec![0usize; n];
        for user in 0..1000u32 {
            counts[replica_of(user, n)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "replica {i} owns {c} of 1000 users; FNV spread is broken"
            );
        }
    }

    #[test]
    fn pool_serves_and_aggregates_metrics() {
        let registry = MetricsRegistry::new();
        let pool = ReplicatedServer::start(
            tiny_dense_snapshot(1),
            3,
            ServeConfig::default(),
            &registry,
            None,
        );
        assert_eq!(pool.n_replicas(), 3);
        let pending: Vec<Pending> = (0..60)
            .map(|i| pool.submit(request(i as usize % 2, i), None).expect("admitted"))
            .collect();
        for p in &pending {
            assert!(matches!(p.wait(), ServeResult::Scored(_)));
        }
        pool.shutdown();
        assert_eq!(registry.counter("serve_requests_total").get(), 60);
        assert_eq!(registry.counter("serve_responses_total").get(), 60);
    }

    #[test]
    fn publish_converges_all_replicas() {
        let registry = MetricsRegistry::new();
        let pool = ReplicatedServer::start(
            tiny_dense_snapshot(1),
            4,
            ServeConfig::default(),
            &registry,
            None,
        );
        assert_eq!(pool.current_version(), 1);
        let retired = pool.publish(tiny_dense_snapshot(2));
        assert_eq!(retired, 1);
        for r in 0..4 {
            assert_eq!(pool.engine(r).current_version(), 2);
        }
        // One publish performs one swap per replica.
        assert_eq!(registry.counter("serve_swaps_total").get(), 4);
        pool.shutdown();
    }
}
