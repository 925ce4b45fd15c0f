//! The round engine: the outer loop of the paper's PS–Worker deployment
//! (§IV-E, Fig. 6), written once.
//!
//! Every distributed run is the same policy — partition the shuffled
//! domains over the workers, run the cached inner loop per worker, vet each
//! worker's outer gradients with the [`GuardRail`], apply the accepted ones
//! as the single writer in worker order, record the round loss, commit the
//! boundary, and after the last round evaluate and report. What differs
//! between deployments is only *where* reads and writes go, and that is
//! what a [`RoundTransport`] supplies: the write-side twin of
//! [`crate::RowSource`]. The in-process [`crate::DistributedMamdr`] is the
//! trivial transport (direct store calls, no failure mode); the networked
//! trainer in `mamdr-rpc` is the loopback one, where supervision, shard
//! recovery, journaling and publication are layers inside the transport's
//! methods rather than branches in this loop.

use crate::cache::{CacheStats, OuterGrads};
use crate::guard::{outer_grad_norm, GuardRail, GuardVerdict};
use crate::trainer::{CachedRoundOutput, DistributedConfig, DistributedReport};
use mamdr_obs::{maybe_child, maybe_span, SpanContext, Tracer};
use mamdr_tensor::pool;
use mamdr_tensor::rng::{derive_seed, seeded, shuffle};
use std::sync::Arc;

/// The report aggregates at a round boundary — both what a resumed run
/// starts from (all zero for a fresh run) and what the engine hands to
/// [`RoundTransport::end_round`] so the boundary can be made durable.
#[derive(Debug, Clone, Default)]
pub struct ResumeBase {
    /// Rounds fully applied; a run resumed from this state continues at
    /// this round index.
    pub rounds_done: usize,
    /// Combined worker cache counters over the completed rounds.
    pub cache: CacheStats,
    /// Worst observed staleness over the completed rounds.
    pub max_staleness: u64,
    /// Mean training loss of each completed round, in round order.
    pub round_losses: Vec<f64>,
    /// Guard trips over the completed rounds.
    pub guard_trips: u64,
    /// Guard rollbacks over the completed rounds.
    pub guard_rollbacks: u64,
}

/// What the round engine needs from a deployment.
pub trait RoundTransport {
    /// A failure the transport could not recover from; it ends the run.
    type Error;
    /// The guard's rollback target: values *and* optimizer state.
    type Snapshot;

    /// Runs round `epoch`'s workers, one per partition, and hands back
    /// their outputs in worker order. Worker spans parent under `parent`.
    fn run_workers(
        &mut self,
        epoch: usize,
        partitions: &[Vec<usize>],
        parent: Option<SpanContext>,
    ) -> Result<Vec<CachedRoundOutput>, Self::Error>;

    /// Queues one accepted worker's key-sorted outer gradients. Calls
    /// arrive in worker order; delivery must preserve it.
    fn queue_grads(&mut self, grads: OuterGrads);

    /// Delivers everything queued; on return the stores hold it.
    fn flush(&mut self, parent: Option<SpanContext>) -> Result<(), Self::Error>;

    /// Captures the stores for a later [`RoundTransport::restore`].
    fn snapshot(&self) -> Self::Snapshot;

    /// Rewinds the stores to `snapshot` in place.
    fn restore(&mut self, snapshot: &Self::Snapshot);

    /// Called once per completed round with the aggregates a run resumed
    /// at this boundary would start from. The default does nothing.
    fn end_round(
        &mut self,
        _boundary: &ResumeBase,
        _parent: Option<SpanContext>,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Store traffic so far: `(pulls, pushes, bytes_pulled, bytes_pushed)`.
    fn traffic(&self) -> (u64, u64, u64, u64);

    /// Mean per-domain test AUC of the current parameters.
    fn evaluate(&mut self) -> f64;
}

/// Rejects a configuration no transport can train: with no workers every
/// round would "train" zero partitions and report the seed AUC as a
/// success.
pub fn validate(cfg: &DistributedConfig) -> Result<(), String> {
    if cfg.n_workers == 0 {
        return Err("n_workers must be at least 1".into());
    }
    Ok(())
}

/// The per-epoch round-robin partition of shuffled domains over workers
/// (the driver-side analogue of DN's domain shuffle).
pub fn partition_domains(
    n_domains: usize,
    seed: u64,
    epoch: usize,
    n_workers: usize,
) -> Vec<Vec<usize>> {
    let mut domains: Vec<usize> = (0..n_domains).collect();
    let mut ep_rng = seeded(derive_seed(seed, 0xA0 + epoch as u64));
    shuffle(&mut ep_rng, &mut domains);
    (0..n_workers).map(|w| domains.iter().copied().skip(w).step_by(n_workers).collect()).collect()
}

fn mean_loss(loss_sum: f64, n_examples: u64) -> f64 {
    if n_examples == 0 {
        0.0
    } else {
        loss_sum / n_examples as f64
    }
}

/// Runs rounds `base.rounds_done..cfg.epochs` over `transport` and reports
/// traffic and final quality. The guard is consulted whenever
/// `cfg.guard.enabled`: the caller must only enable it when the engine is
/// the sole writer.
pub fn run_rounds<T: RoundTransport>(
    transport: &mut T,
    cfg: &DistributedConfig,
    n_domains: usize,
    tracer: &Option<Arc<Tracer>>,
    base: ResumeBase,
) -> Result<DistributedReport, T::Error> {
    if cfg.kernel_threads > 0 {
        pool::set_threads(cfg.kernel_threads);
    }
    let base_guard = (base.guard_trips, base.guard_rollbacks);
    let mut state = base;
    let guard_active = cfg.guard.enabled;
    let mut guard = GuardRail::new(cfg.guard);
    // The last-good snapshot carries both values and Adagrad accumulators
    // so a rollback rewinds the optimizer too.
    let mut last_good = guard_active.then(|| transport.snapshot());
    for epoch in state.rounds_done..cfg.epochs {
        let mut round_span = maybe_span(tracer, "round");
        if let Some(s) = &mut round_span {
            s.attr("epoch", epoch as u64);
        }
        let round_ctx = round_span.as_ref().map(|s| s.ctx());
        let partitions = {
            let _span = maybe_child(tracer, "round.partition", round_ctx);
            partition_domains(n_domains, cfg.seed, epoch, cfg.n_workers)
        };
        let outputs = {
            let span = maybe_child(tracer, "round.workers", round_ctx);
            transport.run_workers(epoch, &partitions, span.as_ref().map(|s| s.ctx()))?
        };
        let apply_span = maybe_child(tracer, "round.apply", round_ctx);
        let apply_ctx = apply_span.as_ref().map(|s| s.ctx());
        let mut loss_sum = 0.0f64;
        let mut n_examples = 0u64;
        let mut round_tripped = false;
        for out in outputs {
            state.cache.hits += out.cache.hits;
            state.cache.misses += out.cache.misses;
            state.max_staleness = state.max_staleness.max(out.staleness);
            if guard_active {
                let worker_loss = mean_loss(out.loss_sum, out.n_examples);
                match guard.check(worker_loss, outer_grad_norm(&out.grads.values)).0 {
                    GuardVerdict::Accept => {}
                    GuardVerdict::Skip => {
                        // Drop the update *and* its loss contribution: a
                        // NaN loss would otherwise poison the report.
                        round_tripped = true;
                        continue;
                    }
                    GuardVerdict::Rollback => {
                        // Rewind to the last clean round boundary; this
                        // also discards whatever this round already
                        // applied (the round is atomic under rollback).
                        round_tripped = true;
                        if let Some(snapshot) = &last_good {
                            transport.restore(snapshot);
                        }
                        continue;
                    }
                }
            }
            loss_sum += out.loss_sum;
            n_examples += out.n_examples;
            // Single writer, worker order, keys pre-sorted: the one total
            // order every transport reproduces.
            transport.queue_grads(out.grads);
            if guard_active {
                // Verdicts interleave with application (a rollback rewinds
                // the stores but never the traffic counters), so each
                // accepted update must land before the next verdict.
                transport.flush(apply_ctx)?;
            }
        }
        transport.flush(apply_ctx)?;
        drop(apply_span);
        state.round_losses.push(mean_loss(loss_sum, n_examples));
        // Only a round with zero trips advances the rollback target.
        if guard_active && !round_tripped {
            last_good = Some(transport.snapshot());
        }
        state.rounds_done = epoch + 1;
        state.guard_trips = base_guard.0 + guard.trips();
        state.guard_rollbacks = base_guard.1 + guard.rollbacks();
        transport.end_round(&state, round_ctx)?;
    }
    let (pulls, pushes, bytes_pulled, bytes_pushed) = transport.traffic();
    let mean_auc = {
        let _span = maybe_span(tracer, "round.evaluate");
        transport.evaluate()
    };
    Ok(DistributedReport {
        mean_auc,
        pulls,
        pushes,
        total_bytes: bytes_pulled + bytes_pushed,
        cache: state.cache,
        max_staleness: state.max_staleness,
        round_losses: state.round_losses,
        guard_trips: state.guard_trips,
        guard_rollbacks: state.guard_rollbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardConfig;
    use crate::kv::ParamKey;
    use std::convert::Infallible;

    /// A one-number "store": applying a gradient adds its first component.
    /// Each worker's scripted output is `(loss_sum, gradient)`.
    struct Scripted {
        rounds: Vec<Vec<(f64, f32)>>,
        queued: Vec<f32>,
        store: f32,
        applied: Vec<f32>,
    }

    impl RoundTransport for Scripted {
        type Error = Infallible;
        type Snapshot = f32;

        fn run_workers(
            &mut self,
            epoch: usize,
            partitions: &[Vec<usize>],
            _parent: Option<SpanContext>,
        ) -> Result<Vec<CachedRoundOutput>, Infallible> {
            assert_eq!(partitions.len(), self.rounds[epoch].len());
            let output = |&(loss_sum, grad): &(f64, f32)| CachedRoundOutput {
                cache: CacheStats::default(),
                staleness: 0,
                loss_sum,
                n_examples: 1,
                grads: OuterGrads { keys: vec![ParamKey::new(0, 0)], values: vec![grad] },
            };
            Ok(self.rounds[epoch].iter().map(output).collect())
        }

        fn queue_grads(&mut self, grads: OuterGrads) {
            self.queued.extend(grads.iter().map(|(_, g)| g[0]));
        }

        fn flush(&mut self, _parent: Option<SpanContext>) -> Result<(), Infallible> {
            self.store += self.queued.iter().sum::<f32>();
            self.applied.append(&mut self.queued);
            Ok(())
        }

        fn snapshot(&self) -> f32 {
            assert!(self.queued.is_empty(), "snapshot taken with undelivered gradients");
            self.store
        }

        fn restore(&mut self, snapshot: &f32) {
            self.store = *snapshot;
        }

        fn traffic(&self) -> (u64, u64, u64, u64) {
            (0, self.applied.len() as u64, 0, 0)
        }

        fn evaluate(&mut self) -> f64 {
            self.store as f64
        }
    }

    #[test]
    fn a_skip_drops_loss_and_gradients_and_a_rollback_restores_the_last_clean_round() {
        // Round 0 is clean (store 3). Round 1 applies worker 0 (store 7)
        // and skips poisoned worker 1, so it must not become the rollback
        // target. Round 2's poisoned worker 0 is the second consecutive
        // trip: the rollback lands on round 0's store, then worker 1's
        // healthy update applies on top of it.
        let mut transport = Scripted {
            rounds: vec![
                vec![(0.5, 1.0), (0.7, 2.0)],
                vec![(0.6, 4.0), (f64::NAN, f32::NAN)],
                vec![(f64::NAN, f32::NAN), (0.4, 8.0)],
            ],
            queued: Vec::new(),
            store: 0.0,
            applied: Vec::new(),
        };
        let cfg = DistributedConfig {
            n_workers: 2,
            epochs: 3,
            guard: GuardConfig { max_consecutive_trips: 2, ..GuardConfig::enabled() },
            ..Default::default()
        };
        let Ok(report) = run_rounds(&mut transport, &cfg, 4, &None, ResumeBase::default());
        assert_eq!(transport.applied, vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!(report.round_losses, vec![0.6, 0.6, 0.4]);
        assert_eq!((report.guard_trips, report.guard_rollbacks), (2, 1));
        assert_eq!(report.mean_auc, 11.0, "rollback target was 3.0, not round 1's 7.0");
        assert_eq!(report.pushes, 4);
    }
}
