//! Divergence guardrails for the outer-loop update path.
//!
//! One numerically diverging domain — a NaN loss, an exploding gradient —
//! is enough to poison θS forever: the outer update applies every worker's
//! gradients to shared rows, and Adagrad accumulators make the damage
//! permanent even if later rounds are healthy. The [`GuardRail`] sits
//! between a worker round's output and the server-side apply: it vets the
//! round's mean loss and outer-gradient norm against finiteness and a
//! trailing-median explosion threshold, *skips* offending updates, and —
//! after enough consecutive trips — tells the driver to roll the server
//! back to the last known-good round boundary.
//!
//! The guard is deliberately stateful but cheap: two bounded histories of
//! accepted values (loss and grad norm) and a consecutive-trip counter.
//! It never touches the server itself; the driver owns the rollback (see
//! the ordering argument in DESIGN.md §8).

use std::collections::VecDeque;

/// Configuration of the divergence guard. `Copy` so it can ride inside
/// [`crate::DistributedConfig`] without breaking its `Copy` ergonomics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Master switch; a disabled guard accepts everything and keeps no
    /// history.
    pub enabled: bool,
    /// A round metric counts as "exploding" when it exceeds this factor
    /// times the trailing median of accepted values.
    pub explode_factor: f64,
    /// How many accepted values the trailing median is computed over.
    pub window: usize,
    /// Minimum accepted history before the explosion check arms (the first
    /// rounds of training legitimately swing).
    pub warmup: usize,
    /// Consecutive trips before the driver is told to roll back (the K of
    /// the supervision design). Each rollback resets the streak.
    pub max_consecutive_trips: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            enabled: false,
            explode_factor: 10.0,
            window: 8,
            warmup: 3,
            max_consecutive_trips: 3,
        }
    }
}

impl GuardConfig {
    /// The default thresholds with the guard switched on.
    pub fn enabled() -> Self {
        GuardConfig { enabled: true, ..Default::default() }
    }
}

/// What the driver must do with one worker-round's gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// The update is healthy: apply it and record its metrics.
    Accept,
    /// The update is suspect: drop it, count a trip, keep training.
    Skip,
    /// Too many consecutive trips: drop it *and* restore the server to the
    /// last good round boundary before continuing.
    Rollback,
}

/// One bounded history of accepted metric values with a trailing median.
#[derive(Debug, Default)]
struct History {
    values: VecDeque<f64>,
}

impl History {
    fn push(&mut self, v: f64, window: usize) {
        self.values.push_back(v);
        while self.values.len() > window {
            self.values.pop_front();
        }
    }

    /// Median of the retained values (midpoint average for even counts).
    fn median(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.values.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mid = sorted.len() / 2;
        Some(if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        })
    }
}

/// The stateful divergence guard. One instance lives in the driver and
/// vets every worker-round output in application order.
#[derive(Debug)]
pub struct GuardRail {
    cfg: GuardConfig,
    loss: History,
    grad: History,
    consecutive: u32,
    trips: u64,
    rollbacks: u64,
}

impl GuardRail {
    /// A fresh guard under `cfg`.
    pub fn new(cfg: GuardConfig) -> Self {
        GuardRail {
            cfg,
            loss: History::default(),
            grad: History::default(),
            consecutive: 0,
            trips: 0,
            rollbacks: 0,
        }
    }

    /// Why the last trip fired, for logging (set by [`GuardRail::check`]).
    fn trip_reason(&self, loss: f64, grad_norm: f64) -> &'static str {
        if !loss.is_finite() || !grad_norm.is_finite() {
            "non-finite"
        } else {
            "exploding"
        }
    }

    /// Vets one worker-round update: `loss` is the round's mean training
    /// loss, `grad_norm` the L2 norm of its outer gradients.
    ///
    /// Returns the verdict and, for trips, a static reason string
    /// (`"non-finite"` / `"exploding"`) for the caller's event log.
    pub fn check(&mut self, loss: f64, grad_norm: f64) -> (GuardVerdict, Option<&'static str>) {
        if !self.cfg.enabled {
            return (GuardVerdict::Accept, None);
        }
        let exploded = |value: f64, hist: &History| {
            hist.values.len() >= self.cfg.warmup
                && hist.median().is_some_and(|m| value > self.cfg.explode_factor * m.max(1e-12))
        };
        let bad = !loss.is_finite()
            || !grad_norm.is_finite()
            || exploded(loss, &self.loss)
            || exploded(grad_norm, &self.grad);
        if !bad {
            self.loss.push(loss, self.cfg.window);
            self.grad.push(grad_norm, self.cfg.window);
            self.consecutive = 0;
            return (GuardVerdict::Accept, None);
        }
        let reason = self.trip_reason(loss, grad_norm);
        self.trips += 1;
        self.consecutive += 1;
        if self.consecutive >= self.cfg.max_consecutive_trips {
            self.consecutive = 0;
            self.rollbacks += 1;
            (GuardVerdict::Rollback, Some(reason))
        } else {
            (GuardVerdict::Skip, Some(reason))
        }
    }

    /// Total trips so far (skips plus rollbacks).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Total rollbacks demanded so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }
}

/// L2 norm over a worker round's outer gradients (the flat
/// [`crate::OuterGrads::values`], summed in row order) — the `grad_norm`
/// input to [`GuardRail::check`]. NaN/Inf anywhere propagates to the
/// result, so a single poisoned component is caught.
pub fn outer_grad_norm(values: &[f32]) -> f64 {
    let mut sum = 0.0f64;
    for &v in values {
        sum += (v as f64) * (v as f64);
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(k: u32) -> GuardRail {
        GuardRail::new(GuardConfig {
            enabled: true,
            max_consecutive_trips: k,
            ..GuardConfig::default()
        })
    }

    #[test]
    fn disabled_guard_accepts_everything() {
        let mut g = GuardRail::new(GuardConfig::default());
        assert_eq!(g.check(f64::NAN, f64::INFINITY).0, GuardVerdict::Accept);
        assert_eq!(g.trips(), 0);
    }

    #[test]
    fn healthy_stream_is_accepted_and_builds_history() {
        let mut g = armed(3);
        for i in 0..20 {
            let (v, why) = g.check(0.7 - 0.01 * i as f64, 1.0);
            assert_eq!(v, GuardVerdict::Accept);
            assert!(why.is_none());
        }
        assert_eq!(g.trips(), 0);
    }

    #[test]
    fn non_finite_trips_immediately_even_without_history() {
        let mut g = armed(3);
        let (v, why) = g.check(f64::NAN, 1.0);
        assert_eq!(v, GuardVerdict::Skip);
        assert_eq!(why, Some("non-finite"));
        assert_eq!(g.check(0.5, f64::INFINITY).0, GuardVerdict::Skip);
        assert_eq!(g.trips(), 2);
    }

    #[test]
    fn explosion_needs_warmup_then_trips_on_threshold() {
        let mut g = armed(10);
        // Before warmup the same spike passes.
        assert_eq!(g.check(100.0, 1.0).0, GuardVerdict::Accept);
        let mut g = armed(10);
        for _ in 0..5 {
            assert_eq!(g.check(0.7, 1.0).0, GuardVerdict::Accept);
        }
        // 10x the median of 0.7 is the boundary; just above trips.
        let (v, why) = g.check(7.1, 1.0);
        assert_eq!(v, GuardVerdict::Skip);
        assert_eq!(why, Some("exploding"));
        // A healthy value right after resets the streak.
        assert_eq!(g.check(0.69, 1.0).0, GuardVerdict::Accept);
        // Exploding grad norm trips independently of a healthy loss.
        assert_eq!(g.check(0.69, 11.0).0, GuardVerdict::Skip);
    }

    #[test]
    fn k_consecutive_trips_demand_rollback_and_reset() {
        let mut g = armed(3);
        assert_eq!(g.check(f64::NAN, 1.0).0, GuardVerdict::Skip);
        assert_eq!(g.check(f64::NAN, 1.0).0, GuardVerdict::Skip);
        assert_eq!(g.check(f64::NAN, 1.0).0, GuardVerdict::Rollback);
        assert_eq!(g.rollbacks(), 1);
        assert_eq!(g.trips(), 3);
        // The streak restarts after a rollback.
        assert_eq!(g.check(f64::NAN, 1.0).0, GuardVerdict::Skip);
    }

    #[test]
    fn grad_norm_helper_propagates_poison() {
        assert!((outer_grad_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!(outer_grad_norm(&[1.0, f32::NAN]).is_nan());
        assert_eq!(outer_grad_norm(&[]), 0.0);
    }
}
