//! A log-bucketed histogram with quantile estimation.
//!
//! Values land in geometrically spaced buckets (ratio [`GROWTH`]) covering
//! `[1e-9, ~1e12)`, giving ≤ ~7.5% relative quantile error over the whole
//! range at a fixed 2.6 KiB per histogram — no allocation per record, no
//! stored samples.

use std::sync::Mutex;

/// Geometric bucket growth factor.
const GROWTH: f64 = 1.15;
/// Lower edge of bucket 1 (bucket 0 catches everything at or below it).
const MIN_VALUE: f64 = 1e-9;
/// Bucket count: `log(1e21) / log(1.15)` rounded up, plus underflow and
/// overflow buckets.
const N_BUCKETS: usize = 348;

#[derive(Debug)]
struct State {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A concurrent log-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    state: Mutex<State>,
}

/// A point-in-time copy of a histogram's aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`0.0` when empty).
    pub min: f64,
    /// Largest recorded value (`0.0` when empty).
    pub max: f64,
    /// Estimated 50th / 90th / 99th percentiles (`0.0` when empty).
    pub p50: f64,
    /// See `p50`.
    pub p90: f64,
    /// See `p50`.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl State {
    fn add(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

fn bucket_index(v: f64) -> usize {
    if v <= MIN_VALUE {
        return 0;
    }
    let i = ((v / MIN_VALUE).ln() / GROWTH.ln()).ceil() as usize;
    i.min(N_BUCKETS - 1)
}

/// Geometric midpoint of a bucket — the canonical estimate for values
/// that landed in it.
fn bucket_mid(i: usize) -> f64 {
    if i == 0 {
        return MIN_VALUE;
    }
    MIN_VALUE * GROWTH.powf(i as f64 - 0.5)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            state: Mutex::new(State {
                buckets: vec![0; N_BUCKETS],
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value. Negative and non-finite values are clamped into
    /// the underflow bucket (durations and losses are non-negative; a NaN
    /// must not poison the aggregates).
    pub fn record(&self, v: f64) {
        self.state.lock().expect("histogram lock").add(v);
    }

    /// Records every value of `vs`, in order, under one lock: the same
    /// aggregates as one [`record`](Self::record) per value.
    pub fn record_all(&self, vs: &[f64]) {
        let mut s = self.state.lock().expect("histogram lock");
        for &v in vs {
            s.add(v);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.state.lock().expect("histogram lock").count
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the buckets. The
    /// estimate is the geometric midpoint of the target bucket, clamped to
    /// the exact observed `[min, max]`. Returns `0.0` for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let s = self.state.lock().expect("histogram lock");
        quantile_locked(&s, q)
    }

    /// A consistent snapshot of count/sum/min/max and key percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.state.lock().expect("histogram lock");
        let empty = s.count == 0;
        HistogramSnapshot {
            count: s.count,
            sum: s.sum,
            min: if empty { 0.0 } else { s.min },
            max: if empty { 0.0 } else { s.max },
            p50: quantile_locked(&s, 0.5),
            p90: quantile_locked(&s, 0.9),
            p99: quantile_locked(&s, 0.99),
        }
    }
}

fn quantile_locked(s: &State, q: f64) -> f64 {
    if s.count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target observation, 1-based (nearest-rank definition).
    let rank = ((q * s.count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in s.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_mid(i).clamp(s.min, s.max);
        }
    }
    s.max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.snapshot();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn quantiles_of_uniform_grid_are_accurate() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.08, "q={q}: got {got}, want ~{expect} (rel {rel})");
        }
        assert_eq!(h.count(), 1000);
        let s = h.snapshot();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_span_many_orders_of_magnitude() {
        let h = Histogram::new();
        // 90 tiny values, 10 huge ones: p50 must be tiny, p99 huge.
        for _ in 0..90 {
            h.record(1e-6);
        }
        for _ in 0..10 {
            h.record(1e6);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 1e-6).ln().abs() < 0.2, "p50 {p50}");
        assert!((p99 / 1e6).ln().abs() < 0.2, "p99 {p99}");
    }

    #[test]
    fn extreme_quantiles_clamp_to_observed_range() {
        let h = Histogram::new();
        h.record(3.0);
        h.record(7.0);
        assert_eq!(h.quantile(0.0).clamp(3.0, 7.0), h.quantile(0.0));
        assert_eq!(h.quantile(1.0).clamp(3.0, 7.0), h.quantile(1.0));
    }

    #[test]
    fn record_all_equals_one_record_per_value() {
        let values = [3.5, 0.0, 1e-12, 42.0, f64::NAN, -1.0, 7e5, 0.9];
        let (one_by_one, batched) = (Histogram::new(), Histogram::new());
        for &v in &values {
            one_by_one.record(v);
        }
        batched.record_all(&values[..3]);
        batched.record_all(&[]);
        batched.record_all(&values[3..]);
        let s = one_by_one.state.lock().unwrap();
        let b = batched.state.lock().unwrap();
        assert_eq!(s.buckets, b.buckets);
        assert_eq!((s.count, s.sum.to_bits()), (b.count, b.sum.to_bits()));
        assert_eq!((s.min, s.max), (b.min, b.max));
    }

    #[test]
    fn pathological_inputs_do_not_poison() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-5.0);
        h.record(2.0);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!(s.sum.is_finite());
        assert_eq!(s.max, 2.0);
    }
}
