//! The open-loop driver: submit on the trace clock, account for everything.
//!
//! Closed-loop benchmarks (PR 3's `serve_bench`) submit a new request only
//! when an old one completes, so the offered load adapts to the server —
//! overload is invisible and latency is flattered (coordinated omission).
//! An **open-loop** driver submits each request at its trace-scheduled
//! instant regardless of how the server is doing. If the server falls
//! behind, queues fill and the admission layer sheds — exactly the signal
//! this tier exists to produce — and client-observed latency includes the
//! queueing the trace actually caused.
//!
//! Every submitted request lands in exactly one terminal bucket, per
//! [`SloClass`]:
//!
//! ```text
//! submitted = admitted + shed_overload + rejected_full + closed
//! admitted  = scored + deadline_expired + invalid
//! ```
//!
//! [`LoadReport::accounting_ok`] checks both identities; a violation means
//! a request was silently dropped, which the serving tier promises never
//! happens.

use crate::trace::TraceGen;
use mamdr_obs::{Histogram, HistogramSnapshot};
use mamdr_serve::{Pending, ReplicatedServer, ScoreRequest, ServeResult, SloClass, SubmitError};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Client-side knobs of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Per-class deadline attached to every submission, indexed by
    /// [`SloClass::index`]; `None` means no deadline for that class.
    pub deadline: [Option<Duration>; SloClass::COUNT],
    /// Wall-seconds per trace-second. `1.0` replays in real time; `0.5`
    /// replays twice as fast (doubling the offered rate without touching
    /// the trace).
    pub time_scale: f64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { deadline: [None; SloClass::COUNT], time_scale: 1.0 }
    }
}

/// Terminal-outcome accounting for one service class.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Requests the trace scheduled for this class.
    pub submitted: u64,
    /// Requests past admission (each got exactly one [`ServeResult`]).
    pub admitted: u64,
    /// Typed per-class sheds ([`SubmitError::ShedOverload`]).
    pub shed_overload: u64,
    /// Global-bound rejections ([`SubmitError::QueueFull`]).
    pub rejected_full: u64,
    /// Submissions refused because the server was shutting down.
    pub closed: u64,
    /// Admitted requests that scored.
    pub scored: u64,
    /// Admitted requests whose deadline passed first (while queued, or
    /// after worker pickup but before their forward pass).
    pub deadline_expired: u64,
    /// Admitted requests that failed snapshot validation.
    pub invalid: u64,
    /// Client-observed latency of *scored* requests, microseconds, from
    /// submission to result receipt.
    pub latency_us: HistogramSnapshot,
}

impl ClassReport {
    /// Both accounting identities hold: no request vanished.
    pub fn accounting_ok(&self) -> bool {
        self.submitted == self.admitted + self.shed_overload + self.rejected_full + self.closed
            && self.admitted == self.scored + self.deadline_expired + self.invalid
    }

    /// Fraction of submitted requests refused admission (overload signal).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.shed_overload + self.rejected_full) as f64 / self.submitted as f64
    }
}

/// Everything one open-loop run observed, per class and in total.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-class accounting, indexed by [`SloClass::index`].
    pub classes: [ClassReport; SloClass::COUNT],
    /// Wall-clock seconds from first submission to last result.
    pub wall_secs: f64,
    /// Largest scheduling lag of the submitter (how far behind the trace
    /// clock a submission happened), microseconds. Large values mean the
    /// driver machine, not the server, was the bottleneck.
    pub max_sched_lag_us: u64,
    /// Snapshot versions that scored at least one request, ascending.
    pub versions_seen: Vec<u64>,
}

impl LoadReport {
    /// The report for `class`.
    pub fn class(&self, class: SloClass) -> &ClassReport {
        &self.classes[class.index()]
    }

    /// Accounting identities hold for every class.
    pub fn accounting_ok(&self) -> bool {
        self.classes.iter().all(ClassReport::accounting_ok)
    }

    /// Total requests the trace scheduled.
    pub fn submitted(&self) -> u64 {
        self.classes.iter().map(|c| c.submitted).sum()
    }

    /// Total scored requests.
    pub fn scored(&self) -> u64 {
        self.classes.iter().map(|c| c.scored).sum()
    }

    /// Scored requests per wall-clock second.
    pub fn scored_qps(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.scored() as f64 / self.wall_secs
    }
}

/// Runs `trace` through `pool` in open loop.
///
/// Submissions happen on the trace clock (scaled by
/// [`LoadOptions::time_scale`]); a collector thread concurrently resolves
/// every admitted request so the submitter never waits on completions.
/// `swap_at_us` names a trace instant at which `on_swap` runs once —
/// synchronously on the submitter thread, so it lands between two trace
/// arrivals, the natural place to publish a new snapshot mid-run.
pub fn run_open_loop<F: FnMut(u64)>(
    pool: &ReplicatedServer,
    trace: TraceGen,
    opts: &LoadOptions,
    swap_at_us: Option<u64>,
    mut on_swap: F,
) -> LoadReport {
    assert!(
        opts.time_scale.is_finite() && opts.time_scale >= 0.0,
        "time_scale must be a non-negative finite number"
    );
    let (tx, rx) = mpsc::channel::<(Pending, SloClass, Instant)>();

    // Submitter-side tallies (this thread is the only writer).
    let mut submitted = [0u64; SloClass::COUNT];
    let mut admitted = [0u64; SloClass::COUNT];
    let mut shed = [0u64; SloClass::COUNT];
    let mut full = [0u64; SloClass::COUNT];
    let mut closed = [0u64; SloClass::COUNT];
    let mut max_lag_us = 0u64;
    let mut swap_pending = swap_at_us;

    let start = Instant::now();
    let collector = std::thread::scope(|scope| {
        // Collector: resolves pendings in submission order. Results
        // arrive roughly in that order too (FIFO queues per class), so
        // head-of-line blocking on `wait` adds no systematic skew.
        let handle = scope.spawn(move || {
            let mut scored = [0u64; SloClass::COUNT];
            let mut expired = [0u64; SloClass::COUNT];
            let mut invalid = [0u64; SloClass::COUNT];
            let latency: [Histogram; SloClass::COUNT] = [Histogram::new(), Histogram::new()];
            let mut versions: Vec<u64> = Vec::new();
            for (pending, class, at) in rx {
                let result = pending.wait();
                let i = class.index();
                match result {
                    ServeResult::Scored(r) => {
                        scored[i] += 1;
                        latency[i].record(at.elapsed().as_secs_f64() * 1e6);
                        if let Err(p) = versions.binary_search(&r.snapshot_version) {
                            versions.insert(p, r.snapshot_version);
                        }
                    }
                    ServeResult::DeadlineExceeded { .. } => expired[i] += 1,
                    ServeResult::Invalid { .. } => invalid[i] += 1,
                }
            }
            let latency = [latency[0].snapshot(), latency[1].snapshot()];
            (scored, expired, invalid, latency, versions)
        });

        for arrival in trace {
            if let Some(at) = swap_pending {
                if arrival.at_us >= at {
                    on_swap(arrival.at_us);
                    swap_pending = None;
                }
            }
            // Open loop: sleep until the scheduled instant if it is still
            // ahead; if we are behind, submit immediately and record the
            // lag — never skip, never pace by completions.
            let target_us = (arrival.at_us as f64 * opts.time_scale) as u64;
            let target = Duration::from_micros(target_us);
            let now = start.elapsed();
            if target > now {
                std::thread::sleep(target - now);
            } else {
                max_lag_us = max_lag_us.max((now - target).as_micros() as u64);
            }

            let class = arrival.class;
            let i = class.index();
            submitted[i] += 1;
            let req = ScoreRequest::new(
                arrival.domain,
                arrival.user,
                arrival.item,
                arrival.user_group,
                arrival.item_cat,
            );
            match pool.submit_class(req, opts.deadline[i], class) {
                Ok(pending) => {
                    admitted[i] += 1;
                    tx.send((pending, class, Instant::now())).expect("collector alive");
                }
                Err(SubmitError::ShedOverload(c)) => shed[c.index()] += 1,
                Err(SubmitError::QueueFull) => full[i] += 1,
                Err(SubmitError::Closed) => closed[i] += 1,
            }
        }
        drop(tx);
        handle.join().expect("collector thread")
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let (scored, expired, invalid, latency, versions_seen) = collector;

    let class_report = |i: usize| ClassReport {
        submitted: submitted[i],
        admitted: admitted[i],
        shed_overload: shed[i],
        rejected_full: full[i],
        closed: closed[i],
        scored: scored[i],
        deadline_expired: expired[i],
        invalid: invalid[i],
        latency_us: latency[i].clone(),
    };
    LoadReport {
        classes: [class_report(0), class_report(1)],
        wall_secs,
        max_sched_lag_us: max_lag_us,
        versions_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;
    use mamdr_core::env::DomainParams;
    use mamdr_core::TrainedModel;
    use mamdr_models::{build_model, FeatureConfig, ModelConfig, ModelKind};
    use mamdr_obs::MetricsRegistry;
    use mamdr_serve::{ServeConfig, ServingSnapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A tiny 3-domain MLP snapshot sized to the default trace config's
    /// id spaces; weights derive from `version`.
    fn snapshot(version: u64) -> ServingSnapshot {
        let spec = mamdr_serve::ModelSpec {
            kind: ModelKind::Mlp,
            features: FeatureConfig {
                n_users: 200,
                n_items: 120,
                n_user_groups: 8,
                n_item_cats: 8,
                dense_dim: 0,
            },
            config: ModelConfig::tiny(),
            n_domains: 3,
        };
        let built = build_model(spec.kind, &spec.features, &spec.config, spec.n_domains, 7);
        let n = built.params.n_scalars();
        let mut rng = StdRng::seed_from_u64(version * 1000 + 17);
        let shared: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let deltas = (0..spec.n_domains)
            .map(|_| (0..n).map(|_| rng.gen_range(-0.1..0.1)).collect())
            .collect();
        let trained = TrainedModel { shared, domains: DomainParams::Deltas(deltas) };
        ServingSnapshot::from_trained(version, spec, trained).expect("consistent fixture")
    }

    fn quick_trace(rate: f64, secs: f64) -> TraceGen {
        TraceGen::new(TraceConfig::new(42, rate, secs))
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let registry = MetricsRegistry::new();
        let pool = ReplicatedServer::start(snapshot(1), 2, ServeConfig::default(), &registry, None);
        let report =
            run_open_loop(&pool, quick_trace(2_000.0, 0.5), &LoadOptions::default(), None, |_| {});
        pool.shutdown();
        assert!(report.submitted() > 0);
        assert!(report.accounting_ok(), "accounting identity violated: {report:?}");
        assert_eq!(report.scored(), report.submitted(), "no overload at this rate");
        assert_eq!(report.versions_seen, vec![1]);
        // Client-side tallies agree with the server's own counters.
        assert_eq!(registry.counter("serve_responses_total").get(), report.scored());
    }

    #[test]
    fn overload_sheds_typed_and_still_accounts() {
        let registry = MetricsRegistry::new();
        let config = ServeConfig {
            queue_cap: 8,
            class_caps: [6, 2],
            n_workers: 1,
            ..ServeConfig::default()
        };
        let pool = ReplicatedServer::start(snapshot(1), 1, config, &registry, None);
        // time_scale 0 submits the whole trace as fast as possible: far
        // beyond what a cap-8 queue admits, guaranteeing sheds.
        let opts = LoadOptions { time_scale: 0.0, ..LoadOptions::default() };
        let report = run_open_loop(&pool, quick_trace(20_000.0, 0.5), &opts, None, |_| {});
        pool.shutdown();
        assert!(report.accounting_ok(), "accounting identity violated: {report:?}");
        let shed: u64 = report.classes.iter().map(|c| c.shed_overload + c.rejected_full).sum();
        assert!(shed > 0, "a cap-8 queue must shed under a burst: {report:?}");
        assert_eq!(
            registry.counter("serve_requests_total").get(),
            report.classes.iter().map(|c| c.admitted).sum::<u64>(),
        );
    }

    #[test]
    fn mid_run_swap_fires_once_and_both_versions_score() {
        let registry = MetricsRegistry::new();
        let pool = ReplicatedServer::start(snapshot(1), 2, ServeConfig::default(), &registry, None);
        let mut fired = 0;
        let report = run_open_loop(
            &pool,
            quick_trace(2_000.0, 0.5),
            &LoadOptions::default(),
            Some(250_000),
            |_| {
                fired += 1;
                pool.publish(snapshot(2));
            },
        );
        pool.shutdown();
        assert_eq!(fired, 1, "swap hook must run exactly once");
        assert!(report.accounting_ok());
        assert_eq!(report.versions_seen, vec![1, 2], "both snapshot versions must score");
    }

    #[test]
    fn deadlines_expire_into_their_own_bucket() {
        let registry = MetricsRegistry::new();
        let config = ServeConfig { n_workers: 1, ..ServeConfig::default() };
        let pool = ReplicatedServer::start(snapshot(1), 1, config, &registry, None);
        let opts = LoadOptions {
            // A deadline that has always already passed: everything
            // admitted must resolve DeadlineExceeded, nothing scores.
            deadline: [Some(Duration::from_micros(0)); SloClass::COUNT],
            time_scale: 0.0,
        };
        let report = run_open_loop(&pool, quick_trace(2_000.0, 0.1), &opts, None, |_| {});
        pool.shutdown();
        assert!(report.accounting_ok(), "accounting identity violated: {report:?}");
        let expired: u64 = report.classes.iter().map(|c| c.deadline_expired).sum();
        let admitted: u64 = report.classes.iter().map(|c| c.admitted).sum();
        assert!(admitted > 0);
        assert_eq!(expired, admitted, "zero deadline must expire everything admitted");
        assert_eq!(
            registry.counter("serve_deadline_expired_total").get()
                + registry.counter("serve_deadline_exceeded_total").get(),
            expired,
        );
    }
}
