//! The benchmark's own open-loop driver.
//!
//! Arrivals come from `mamdr_load::TraceGen` (materialised before the
//! clock starts, so generation is never on it); each request is submitted
//! at its due instant whatever the server is doing, and its latency runs
//! **from that due instant** to result receipt — a stall of the generator
//! or the server is charged to every request it delayed. Samples are raw
//! nanoseconds; percentiles are exact (`stats::percentile`). How late the
//! generator itself ran is reported separately (`load.sched_lag_*`), so a
//! repetition disturbed by the load generator can be told from one
//! disturbed by the server.
//!
//! Two threads: the submitter (the caller's) and one collector that
//! resolves results in submission order. A result that overtakes an
//! earlier one is stamped when the collector reaches it, so a sample can
//! read late by at most the reordering distance (batches of different
//! domains), never early.

use crate::frozen::REQUEST_SPAN_EVERY;
use crate::spans::Spans;
use mamdr_load::{TraceConfig, TraceGen};
use mamdr_serve::{Pending, ReplicatedServer, ScoreRequest, ServeResult, SloClass, SubmitError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One request of the plan: when it is due and what it asks.
pub struct Planned {
    pub due_us: u64,
    pub req: ScoreRequest,
    pub class: SloClass,
}

/// One scored response, nanoseconds since the run's start.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    pub due_ns: u64,
    pub submit_ns: u64,
    pub receipt_ns: u64,
    pub version: u64,
}

impl Scored {
    pub fn latency_ns(&self) -> u64 {
        self.receipt_ns.saturating_sub(self.due_ns)
    }
}

/// Everything one open-loop run observed.
#[derive(Debug, Default)]
pub struct Report {
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub rejected: u64,
    pub closed: u64,
    pub expired: u64,
    pub invalid: u64,
    pub scored: Vec<Scored>,
    /// Submit instant minus due instant, per submitted request.
    pub lag_ns: Vec<u64>,
    /// When `on_swap` began and finished, on the run clock.
    pub swap_ns: Option<(u64, u64)>,
}

impl Report {
    /// `submitted = admitted + shed + rejected + closed` and
    /// `admitted = scored + expired + invalid`: nothing vanished.
    pub fn accounting_ok(&self) -> bool {
        self.submitted == self.admitted + self.shed + self.rejected + self.closed
            && self.admitted == self.scored.len() as u64 + self.expired + self.invalid
    }

    pub fn not_scored(&self) -> u64 {
        self.submitted - self.scored.len() as u64
    }
}

/// Materialises `cfg`'s arrivals into a plan; `dense` supplies the dense
/// side features of a (user, item) pair for models that embed them.
pub fn plan_from_trace(
    cfg: TraceConfig,
    dense: impl Fn(u32, u32) -> (Option<Vec<f32>>, Option<Vec<f32>>),
) -> Vec<Planned> {
    TraceGen::new(cfg)
        .map(|a| {
            let mut req = ScoreRequest::new(a.domain, a.user, a.item, a.user_group, a.item_cat);
            (req.dense_user, req.dense_item) = dense(a.user, a.item);
            Planned { due_us: a.at_us, req, class: a.class }
        })
        .collect()
}

/// How the submitter waits for the next due instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Spin until due. The generator occupies one of the two cores, which
    /// keeps that vCPU from halting. Yielding or sleeping between arrivals
    /// was measured and rejected at the steady rate: with every thread
    /// asleep between arrivals the vCPUs halt, and in this VM the wake-ups
    /// that follow cost 6 µs or 20 µs each depending on the host's mood —
    /// p50 latency swung 23 → 80 µs between identical runs an hour apart,
    /// against 46 → 60 µs with a spinning generator; and a `sleep` that
    /// overshoots (timer slack, ~50 µs and up) lands in p90.
    Spin,
    /// Sleep while the target is more than 250 µs away, spin the rest: for
    /// a light load beside other work that needs the cores.
    SleepThenSpin,
}

fn wait_until(target: Instant, pacing: Pacing) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let rem = target - now;
        if pacing == Pacing::SleepThenSpin && rem > Duration::from_micros(250) {
            std::thread::sleep(rem - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What may happen around the arrivals of one run.
pub struct Hooks<'a> {
    pub pacing: Pacing,
    /// Run `on_swap` once when the plan clock passes this instant — on a
    /// thread of its own, as a publisher would: building and retiring a
    /// snapshot must not stall the arrival schedule, only compete with
    /// the server for the machine.
    pub swap_at_us: Option<u64>,
    pub on_swap: Box<dyn FnOnce() + Send + 'a>,
    /// End early when set (the plan is then longer than the run).
    pub stop: Option<&'a AtomicBool>,
    /// Every `REQUEST_SPAN_EVERY`-th request is recorded here as `request →
    /// {load.sched_lag, serve.submit}`; the root's self time is the time
    /// the request spent inside the server.
    pub spans: Option<&'a Spans>,
}

/// Runs `plan` through `pool` in open loop on the clock that started at
/// `start`.
pub fn run(pool: &ReplicatedServer, start: Instant, plan: Vec<Planned>, hooks: Hooks) -> Report {
    let Hooks { pacing, mut swap_at_us, on_swap, stop, spans } = hooks;
    let mut on_swap = Some(on_swap);
    let swap_ns = Mutex::new(None);
    // (pending, due, submit, sampled request's root span id or 0)
    let (tx, rx) = mpsc::channel::<(Pending, u64, u64, u32)>();
    let mut report = Report::default();
    report.lag_ns.reserve(plan.len());
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let at = |ns: u64| start + Duration::from_nanos(ns);

    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut scored = Vec::new();
            let (mut expired, mut invalid) = (0u64, 0u64);
            for (pending, due_ns, submit_ns, root) in rx {
                let result = pending.wait();
                let receipt_ns = since(Instant::now());
                match result {
                    ServeResult::Scored(r) => {
                        scored.push(Scored {
                            due_ns,
                            submit_ns,
                            receipt_ns,
                            version: r.snapshot_version,
                        });
                        if let Some(s) = spans.filter(|_| root != 0) {
                            let unit = u64::from(root);
                            s.record_as(root, "request", 0, unit, at(due_ns), at(receipt_ns));
                        }
                    }
                    ServeResult::DeadlineExceeded { .. } => expired += 1,
                    ServeResult::Invalid { .. } => invalid += 1,
                }
            }
            (scored, expired, invalid)
        });

        for (idx, p) in plan.into_iter().enumerate() {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                break;
            }
            if swap_at_us.is_some_and(|at_us| p.due_us >= at_us) {
                swap_at_us = None;
                let (swap, swap_ns) = (on_swap.take().expect("one swap per run"), &swap_ns);
                scope.spawn(move || {
                    let began = since(Instant::now());
                    swap();
                    *swap_ns.lock().expect("swap stamp") = Some((began, since(Instant::now())));
                });
            }
            let due = start + Duration::from_micros(p.due_us);
            wait_until(due, pacing);
            let submit_start = Instant::now();
            let due_ns = p.due_us * 1_000;
            let submit_ns = since(submit_start);
            report.lag_ns.push(submit_ns.saturating_sub(due_ns));
            report.submitted += 1;
            match pool.submit_class(p.req, None, p.class) {
                Ok(pending) => {
                    report.admitted += 1;
                    // The collector closes the root once the result is in.
                    let mut root = 0;
                    if let Some(s) = spans.filter(|_| idx % REQUEST_SPAN_EVERY == 0) {
                        root = s.alloc();
                        let unit = u64::from(root);
                        s.record("load.sched_lag", root, unit, due.min(submit_start), submit_start);
                        s.record("serve.submit", root, unit, submit_start, Instant::now());
                    }
                    tx.send((pending, due_ns, submit_ns, root)).expect("collector alive");
                }
                Err(SubmitError::ShedOverload(_)) => report.shed += 1,
                Err(SubmitError::QueueFull) => report.rejected += 1,
                Err(SubmitError::Closed) => report.closed += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    (report.scored, report.expired, report.invalid) = collected;
    report.swap_ns = swap_ns.into_inner().expect("swap stamp");
    report
}

/// When which snapshot version could be served: `initial` from the start,
/// then each publish as `(version, swap began, swap finished)` in
/// nanoseconds on the run clock. A response must come from a version whose
/// swap had begun by its receipt and must not predate a swap that had
/// finished before its submission — that is "every response from a
/// published version, versions never going backwards" stated so that
/// legitimately reordered batches do not trip it.
pub struct VersionTimeline {
    pub initial: u64,
    pub publishes: Vec<(u64, u64, u64)>,
}

impl VersionTimeline {
    pub fn violations(&self, scored: &[Scored]) -> u64 {
        scored
            .iter()
            .filter(|s| {
                let known = s.version == self.initial
                    || self
                        .publishes
                        .iter()
                        .any(|&(v, began, _)| v == s.version && began <= s.receipt_ns);
                let floor = self
                    .publishes
                    .iter()
                    .filter(|&&(_, _, done)| done <= s.submit_ns)
                    .map(|&(v, _, _)| v)
                    .max()
                    .unwrap_or(self.initial);
                !known || s.version < floor
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(submit_ns: u64, receipt_ns: u64, version: u64) -> Scored {
        Scored { due_ns: submit_ns, submit_ns, receipt_ns, version }
    }

    #[test]
    fn timeline_accepts_overlap_and_rejects_time_travel() {
        let tl = VersionTimeline { initial: 1, publishes: vec![(2, 100, 120)] };
        // Old version before and during the swap, new one once it began.
        assert_eq!(tl.violations(&[resp(10, 50, 1), resp(90, 110, 1), resp(90, 130, 2)]), 0);
        // v2 before its swap began; v1 for a request submitted after it finished.
        assert_eq!(tl.violations(&[resp(10, 50, 2)]), 1);
        assert_eq!(tl.violations(&[resp(130, 150, 1)]), 1);
        // A version nobody published.
        assert_eq!(tl.violations(&[resp(130, 150, 9)]), 1);
    }
}
