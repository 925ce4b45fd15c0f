//! Seeded trace generation: who arrives, when, asking for what.
//!
//! A trace is a deterministic function of its [`TraceConfig`] — the same
//! seed always produces the same arrival sequence, byte for byte, which
//! is what lets a test pin exact per-class request counts and lets two bench
//! runs at different replica counts serve the *same* million requests.
//!
//! Three statistical properties model real multi-domain traffic:
//!
//! * **Zipf users and domains** — a few head users/domains dominate, a
//!   long tail trickles (the `longtail` preset's law, applied to request
//!   arrival instead of training-data volume).
//! * **Poisson arrivals** — requests are memoryless in open loop:
//!   exponential inter-arrival gaps at the instantaneous rate, so bursts
//!   and lulls happen naturally rather than on a metronome.
//! * **Diurnal modulation** — the instantaneous rate follows a sinusoid
//!   around the base rate (peak/trough like day/night traffic),
//!   implemented by Poisson thinning against the peak rate so the
//!   process stays exact, not binned.
//!
//! Generation is streaming: [`TraceGen`] is an iterator, so a ≥1M-request
//! trace never materializes in memory.

use mamdr_serve::SloClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one synthetic traffic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Trace seed: same seed, same arrivals, always.
    pub seed: u64,
    /// Base arrival rate, requests per second (the diurnal mean).
    pub rate_rps: f64,
    /// Virtual duration of the trace, seconds. Expected request count is
    /// `rate_rps * duration_secs`.
    pub duration_secs: f64,
    /// Domain id space (`0..n_domains`), Zipf-ranked by id.
    pub n_domains: usize,
    /// User id space (`0..n_users`), Zipf-ranked by id: user 0 is the
    /// heaviest head user.
    pub n_users: u32,
    /// Item id space, sampled uniformly.
    pub n_items: u32,
    /// User-group feature space, sampled uniformly.
    pub n_user_groups: u32,
    /// Item-category feature space, sampled uniformly.
    pub n_item_cats: u32,
    /// Zipf exponent of the user popularity law (`~1.1` is web-like;
    /// `0` degenerates to uniform).
    pub user_zipf: f64,
    /// Zipf exponent of the domain popularity law.
    pub domain_zipf: f64,
    /// Diurnal swing as a fraction of the base rate, in `[0, 1)`:
    /// instantaneous rate is `rate_rps * (1 + a·sin(2πt/period))`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid, seconds (a compressed "day").
    pub diurnal_period_secs: f64,
    /// Probability an arrival is [`SloClass::Bulk`] instead of
    /// [`SloClass::Interactive`].
    pub bulk_fraction: f64,
}

impl TraceConfig {
    /// A web-like default: Zipf(1.1) users, Zipf(1.0) domains, ±50%
    /// diurnal swing over a 20-second compressed day, 20% bulk traffic.
    pub fn new(seed: u64, rate_rps: f64, duration_secs: f64) -> Self {
        TraceConfig {
            seed,
            rate_rps,
            duration_secs,
            n_domains: 3,
            n_users: 200,
            n_items: 120,
            n_user_groups: 8,
            n_item_cats: 8,
            user_zipf: 1.1,
            domain_zipf: 1.0,
            diurnal_amplitude: 0.5,
            diurnal_period_secs: 20.0,
            bulk_fraction: 0.2,
        }
    }

    /// Validates the shape before any generation starts.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_rps.is_finite() && self.rate_rps > 0.0) {
            return Err(format!("rate_rps must be positive, got {}", self.rate_rps));
        }
        if !(self.duration_secs.is_finite() && self.duration_secs > 0.0) {
            return Err(format!("duration_secs must be positive, got {}", self.duration_secs));
        }
        if self.n_domains == 0 || self.n_users == 0 || self.n_items == 0 {
            return Err("domain/user/item spaces must be non-empty".into());
        }
        if self.n_user_groups == 0 || self.n_item_cats == 0 {
            return Err("feature spaces must be non-empty".into());
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(format!(
                "diurnal_amplitude must be in [0, 1), got {}",
                self.diurnal_amplitude
            ));
        }
        if !(self.diurnal_period_secs.is_finite() && self.diurnal_period_secs > 0.0) {
            return Err("diurnal_period_secs must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.bulk_fraction) {
            return Err(format!("bulk_fraction must be in [0, 1], got {}", self.bulk_fraction));
        }
        Ok(())
    }
}

/// One scheduled request: when it arrives and what it asks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from trace start, microseconds.
    pub at_us: u64,
    /// Target domain.
    pub domain: usize,
    /// Requesting user (Zipf-ranked id).
    pub user: u32,
    /// Candidate item.
    pub item: u32,
    /// User-group side feature.
    pub user_group: u32,
    /// Item-category side feature.
    pub item_cat: u32,
    /// Service class.
    pub class: SloClass,
}

/// Cumulative Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1/(k+1)^s`. Sampling is one uniform draw plus a binary
/// search — O(log n), no rejection.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cum: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the CDF for `n` ranks (`s = 0` is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        ZipfSampler { cum }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of ranks with cum < u, i.e.
        // the first rank whose cumulative mass reaches u.
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// Streaming generator of one trace. Iterates [`Arrival`]s in
/// non-decreasing `at_us` order until the virtual duration is exhausted.
#[derive(Debug)]
pub struct TraceGen {
    cfg: TraceConfig,
    rng: StdRng,
    users: ZipfSampler,
    domains: ZipfSampler,
    /// Virtual clock, microseconds (f64 for exact exponential steps).
    t_us: f64,
    end_us: f64,
    peak_rate_per_us: f64,
}

impl TraceGen {
    /// A generator for `cfg` (panics on an invalid config — call
    /// [`TraceConfig::validate`] first for a typed error).
    pub fn new(cfg: TraceConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid trace config: {e}");
        }
        let users = ZipfSampler::new(cfg.n_users as usize, cfg.user_zipf);
        let domains = ZipfSampler::new(cfg.n_domains, cfg.domain_zipf);
        // Domain-separate the trace stream from other consumers of the
        // same user-facing seed (ASCII "TRACEGEN").
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5452_4143_4547_454e);
        let end_us = cfg.duration_secs * 1e6;
        let peak_rate_per_us = cfg.rate_rps * (1.0 + cfg.diurnal_amplitude) / 1e6;
        TraceGen { cfg, rng, users, domains, t_us: 0.0, end_us, peak_rate_per_us }
    }

    /// The config this generator runs.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Instantaneous arrival rate at virtual time `t_us`, per microsecond.
    fn rate_at(&self, t_us: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t_us / 1e6) / self.cfg.diurnal_period_secs;
        (self.cfg.rate_rps / 1e6) * (1.0 + self.cfg.diurnal_amplitude * phase.sin())
    }
}

impl Iterator for TraceGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        // Inhomogeneous Poisson by thinning: candidate arrivals at the
        // peak rate, each kept with probability rate(t)/peak — an exact
        // sample of the sinusoidal process, not a binned approximation.
        loop {
            let u: f64 = self.rng.gen();
            // Exponential step at the peak rate. (1 - u) keeps ln away
            // from 0 exactly; the vendored RNG emits u in [0, 1).
            self.t_us += -(1.0 - u).ln() / self.peak_rate_per_us;
            if self.t_us >= self.end_us {
                return None;
            }
            let keep: f64 = self.rng.gen();
            if keep * self.peak_rate_per_us > self.rate_at(self.t_us) {
                continue;
            }
            let user = self.users.sample(&mut self.rng) as u32;
            let domain = self.domains.sample(&mut self.rng);
            let item = self.rng.gen_range(0..self.cfg.n_items);
            let user_group = self.rng.gen_range(0..self.cfg.n_user_groups);
            let item_cat = self.rng.gen_range(0..self.cfg.n_item_cats);
            let class = if self.cfg.bulk_fraction > 0.0 && self.rng.gen_bool(self.cfg.bulk_fraction)
            {
                SloClass::Bulk
            } else {
                SloClass::Interactive
            };
            return Some(Arrival {
                at_us: self.t_us as u64,
                domain,
                user,
                item,
                user_group,
                item_cat,
                class,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> TraceConfig {
        TraceConfig::new(seed, 5_000.0, 2.0)
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a: Vec<Arrival> = TraceGen::new(quick_cfg(7)).collect();
        let b: Vec<Arrival> = TraceGen::new(quick_cfg(7)).collect();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must replay the same trace");
        let c: Vec<Arrival> = TraceGen::new(quick_cfg(8)).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn arrival_times_are_ordered_and_bounded() {
        let cfg = quick_cfg(3);
        let end = (cfg.duration_secs * 1e6) as u64;
        let mut last = 0;
        for a in TraceGen::new(cfg) {
            assert!(a.at_us >= last, "arrivals must be time-ordered");
            assert!(a.at_us < end);
            last = a.at_us;
        }
    }

    #[test]
    fn mean_rate_matches_the_config() {
        // Zero amplitude isolates the homogeneous Poisson rate (with a
        // swing, the mean only matches over whole diurnal periods).
        let mut cfg = TraceConfig::new(11, 10_000.0, 4.0);
        cfg.diurnal_amplitude = 0.0;
        let n = TraceGen::new(cfg).count() as f64;
        let expect = 10_000.0 * 4.0;
        assert!(
            (n - expect).abs() < 0.05 * expect,
            "got {n} arrivals, want ~{expect} (Poisson mean)"
        );
    }

    #[test]
    fn diurnal_modulation_shifts_load_between_half_periods() {
        // Period = duration: first half is the peak, second the trough.
        let mut cfg = TraceConfig::new(5, 20_000.0, 2.0);
        cfg.diurnal_period_secs = 2.0;
        cfg.diurnal_amplitude = 0.8;
        let (mut first, mut second) = (0u64, 0u64);
        for a in TraceGen::new(cfg) {
            if a.at_us < 1_000_000 {
                first += 1;
            } else {
                second += 1;
            }
        }
        assert!(
            first as f64 > 2.0 * second as f64,
            "peak half {first} should dwarf trough half {second}"
        );
    }

    #[test]
    fn users_and_domains_are_zipf_skewed() {
        let mut cfg = TraceConfig::new(9, 20_000.0, 2.0);
        cfg.n_users = 100;
        cfg.user_zipf = 1.2;
        let mut user_counts = vec![0u64; 100];
        let mut domain_counts = vec![0u64; cfg.n_domains];
        for a in TraceGen::new(cfg) {
            user_counts[a.user as usize] += 1;
            domain_counts[a.domain] += 1;
        }
        // Head user far outweighs a mid-tail user; head domain leads.
        assert!(user_counts[0] > 8 * user_counts[50].max(1), "{:?}", &user_counts[..5]);
        assert!(domain_counts[0] > domain_counts[2], "{domain_counts:?}");
    }

    #[test]
    fn bulk_fraction_splits_classes() {
        let mut cfg = quick_cfg(13);
        cfg.bulk_fraction = 0.3;
        let (mut bulk, mut inter) = (0u64, 0u64);
        for a in TraceGen::new(cfg) {
            match a.class {
                SloClass::Bulk => bulk += 1,
                SloClass::Interactive => inter += 1,
            }
        }
        let frac = bulk as f64 / (bulk + inter) as f64;
        assert!((frac - 0.3).abs() < 0.05, "bulk fraction {frac}, want ~0.3");
    }

    #[test]
    fn zipf_sampler_handles_uniform_and_single_rank() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        let z = ZipfSampler::new(4, 0.0);
        let mut counts = [0u64; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700), "uniform at s=0: {counts:?}");
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut cfg = quick_cfg(1);
        cfg.rate_rps = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = quick_cfg(1);
        cfg.diurnal_amplitude = 1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = quick_cfg(1);
        cfg.bulk_fraction = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = quick_cfg(1);
        cfg.n_domains = 0;
        assert!(cfg.validate().is_err());
    }
}
