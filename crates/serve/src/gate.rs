//! The publish gate: the validation chain between a freshly published
//! snapshot and live traffic.
//!
//! A [`PublishGate`] sits in front of [`ReplicatedServer::publish`]. Every
//! candidate runs the chain **digest → version → structure → finite →
//! probe divergence → (optional) canary** in that fixed order, cheapest
//! and most-certain checks first:
//!
//! 1. **digest** — the snapshot file's trailing XXH64 digest must
//!    verify ([`ServingSnapshot::load_from_path`] enforces it), so torn
//!    or bit-rotted artifacts — and files of a retired format version —
//!    never even decode.
//! 2. **version** — candidates must move the version forward; a replayed
//!    or duplicate artifact is rejected, keeping the serving version
//!    monotonic.
//! 3. **structure** — domain counts and feature spaces must match the
//!    incumbent: a candidate that cannot answer today's traffic shape is
//!    wrong regardless of its scores.
//! 4. **finite** — every parameter must be finite
//!    ([`ServingSnapshot::check_finite`]): the serve-side twin of the
//!    `ps::guard` NaN rail, catching a poisoned round that trained
//!    without (or slipped past) the guard.
//! 5. **probe divergence** — a fixed seeded probe set (the PR 9
//!    bit-identity machinery, [`ServingSnapshot::probe_requests`]) is
//!    scored on candidate and incumbent; per-domain mean absolute score
//!    divergence above the bound means the round diverged semantically
//!    even though every number is finite.
//! 6. **canary** — optionally, the candidate is published to the first
//!    `n_canary` replicas only. Because routing is a pure FNV hash of
//!    the user id, this exposes a *deterministic user-hash slice* (the
//!    users with `replica_of(user, n) < n_canary`) to the candidate;
//!    live requests through the pool must come back scored (zero drops),
//!    attributed to the right version, bit-identical to direct scoring,
//!    and with bounded score drift against the incumbent — then the gate
//!    cuts the remaining replicas over. The probes travel as one *wave*:
//!    all submitted, then checked in probe order, so the canary pays one
//!    cross-thread hand-off rather than one per probe (see
//!    [`PublishGate::run_canary`]).
//!
//! Any failure leaves traffic on the **last-good** snapshot. The gate
//! holds it as an `Arc<ServingSnapshot>`: for failures before the canary
//! phase the pool pointer was never touched (rollback is the degenerate
//! no-op — the served bytes *are* the last-good bytes); a canary failure
//! re-publishes that exact `Arc` to the canary replicas — byte-exact by
//! construction, since it is the same allocation, not a re-decode.
//! Memory ordering is inherited from the engine swap path: the snapshot
//! is fully built before `publish_arc`, the engine's mutex release
//! happens-before every subsequent `snapshot()` acquire, and `Arc` frees
//! the retired version only after an acquire fence — see
//! `engine.rs`'s module docs and DESIGN.md §7.5.
//!
//! Every verdict increments typed counters
//! (`publish_rejected_total{reason=...}`, `publish_rollbacks_total`, …),
//! lands in the shared [`PublishState`] (surfacing in `/healthz` and
//! `/publish`), and is recorded as a `publish.gate` span chain with one
//! child span per executed check. Each check's time also lands, untraced,
//! in `publish_gate_seconds{phase="structural|probe|canary"}`.

use crate::replica::{replica_of, ReplicatedServer};
use crate::request::{Pending, ScoreRequest, ServeResult, SloClass, SubmitError};
use crate::snapshot::ServingSnapshot;
use mamdr_obs::{Counter, Histogram, MetricsRegistry, PublishState, SpanContext, Tracer};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every typed rejection reason, in gate-chain order. The gate registers
/// one `publish_rejected_total{reason="..."}` counter per entry up front,
/// so a clean run renders them all as 0 (CI greps exact values).
pub const GATE_REASONS: [&str; 6] =
    ["digest", "version", "structure", "nonfinite", "divergence", "canary"];

/// The timed checks after the file load, in chain order: each one's span
/// name and its `phase` label in `publish_gate_seconds`.
const GATE_PHASES: [(&str, &str); 3] =
    [("gate.structural", "structural"), ("gate.probe", "probe"), ("gate.canary", "canary")];
const STRUCTURAL: usize = 0;
const PROBE: usize = 1;
const CANARY: usize = 2;

/// Tuning of the validation chain.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Seed of the fixed probe set; one seed per deployment keeps the
    /// probe scores comparable across every publication.
    pub probe_seed: u64,
    /// Probes per domain in the divergence check (0 skips the check).
    pub probes_per_domain: usize,
    /// Per-domain mean |candidate − incumbent| score bound. Scores are
    /// pCTRs in [0, 1], so 1.0 admits everything structurally sound.
    pub max_divergence: f32,
    /// Canary slice size as percent of the replica pool, in (0, 50];
    /// 0 disables the canary phase. Pools with a single replica skip it
    /// (there is no non-canary remainder to keep safe).
    pub canary_pct: f64,
    /// Live requests submitted through the pool during the canary phase.
    pub canary_probes: usize,
    /// Mean |candidate − incumbent| score bound over the canary slice.
    pub max_canary_drift: f32,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            probe_seed: 0xC0FFEE,
            probes_per_domain: 8,
            max_divergence: 0.35,
            canary_pct: 0.0,
            canary_probes: 64,
            max_canary_drift: 0.35,
        }
    }
}

/// Why a candidate was kept away from traffic.
#[derive(Debug)]
pub enum GateReject {
    /// The snapshot file failed to load (bad digest, torn write, I/O).
    Digest(String),
    /// The candidate does not move the serving version forward.
    Version {
        /// The candidate's version.
        candidate: u64,
        /// The incumbent's version.
        incumbent: u64,
    },
    /// Domain count or feature spaces differ from the incumbent.
    Structure(String),
    /// A parameter is NaN or infinite.
    NonFinite(String),
    /// The probe set diverged beyond the per-domain bound.
    Divergence {
        /// The offending domain.
        domain: usize,
        /// Mean |candidate − incumbent| over the domain's probes.
        divergence: f32,
        /// The configured bound.
        bound: f32,
    },
    /// The live canary phase failed (drop, misattribution, or drift).
    Canary(String),
}

impl GateReject {
    /// The stable label used in `publish_rejected_total{reason=...}`.
    pub fn reason(&self) -> &'static str {
        match self {
            GateReject::Digest(_) => "digest",
            GateReject::Version { .. } => "version",
            GateReject::Structure(_) => "structure",
            GateReject::NonFinite(_) => "nonfinite",
            GateReject::Divergence { .. } => "divergence",
            GateReject::Canary(_) => "canary",
        }
    }
}

impl std::fmt::Display for GateReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateReject::Digest(m) => write!(f, "digest: {m}"),
            GateReject::Version { candidate, incumbent } => {
                write!(f, "version: candidate v{candidate} does not advance incumbent v{incumbent}")
            }
            GateReject::Structure(m) => write!(f, "structure: {m}"),
            GateReject::NonFinite(m) => write!(f, "nonfinite: {m}"),
            GateReject::Divergence { domain, divergence, bound } => {
                write!(f, "divergence: domain {domain} mean |Δscore| {divergence} > bound {bound}")
            }
            GateReject::Canary(m) => write!(f, "canary: {m}"),
        }
    }
}

impl std::error::Error for GateReject {}

/// `publish_*` gate counters and per-check times.
#[derive(Clone)]
struct GateMetrics {
    offered_total: Counter,
    accepted_total: Counter,
    rollbacks_total: Counter,
    canary_phases_total: Counter,
    rejected_total: [Counter; GATE_REASONS.len()],
    /// One `publish_gate_seconds{phase=...}` per entry of [`GATE_PHASES`].
    phase_seconds: [Arc<Histogram>; GATE_PHASES.len()],
}

impl GateMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        registry.describe("publish_offered_total", "Candidate snapshots offered to the gate.");
        registry.describe("publish_accepted_total", "Candidates that cut over to full traffic.");
        registry.describe(
            "publish_rollbacks_total",
            "Gate failures resolved by (re)pinning the last-good snapshot.",
        );
        registry
            .describe("publish_canary_phases_total", "Canary phases entered (accepted or not).");
        registry.describe(
            "publish_rejected_total",
            "Candidates rejected by the gate, by typed reason.",
        );
        registry.describe(
            "publish_gate_seconds",
            "Seconds per gate check, one sample per offer that reaches it: structural \
             (version, domains, finite), probe (divergence set) and canary (slice publish, \
             probe wave, rollback).",
        );
        GateMetrics {
            offered_total: registry.counter("publish_offered_total"),
            accepted_total: registry.counter("publish_accepted_total"),
            rollbacks_total: registry.counter("publish_rollbacks_total"),
            canary_phases_total: registry.counter("publish_canary_phases_total"),
            rejected_total: GATE_REASONS
                .map(|r| registry.counter(&format!("publish_rejected_total{{reason=\"{r}\"}}"))),
            phase_seconds: GATE_PHASES.map(|(_, phase)| {
                registry.histogram(&format!("publish_gate_seconds{{phase=\"{phase}\"}}"))
            }),
        }
    }
}

/// The validation gate in front of a replica pool.
pub struct PublishGate {
    config: GateConfig,
    last_good: Mutex<Arc<ServingSnapshot>>,
    metrics: GateMetrics,
    state: Option<Arc<PublishState>>,
    tracer: Option<Arc<Tracer>>,
}

impl PublishGate {
    /// A gate whose incumbent is `initial` — share the `Arc` the pool was
    /// started with ([`ReplicatedServer::engine`]`(0).snapshot()`), so
    /// last-good and the served snapshot are the same allocation from the
    /// first round on.
    pub fn new(
        config: GateConfig,
        initial: Arc<ServingSnapshot>,
        registry: &MetricsRegistry,
        state: Option<Arc<PublishState>>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        PublishGate {
            config,
            last_good: Mutex::new(initial),
            metrics: GateMetrics::register(registry),
            state,
            tracer,
        }
    }

    /// The snapshot traffic falls back to on any gate failure.
    pub fn last_good(&self) -> Arc<ServingSnapshot> {
        self.last_good.lock().expect("gate lock").clone()
    }

    /// Offers the committed snapshot file at `path` (as written by
    /// `ps::publish`): the digest check is the file load itself, then the
    /// decoded candidate runs the rest of the chain against `pool`.
    pub fn offer_file(
        &self,
        round: u64,
        path: &Path,
        pool: &ReplicatedServer,
    ) -> Result<u64, GateReject> {
        match ServingSnapshot::load_from_path(path) {
            Ok(candidate) => self.offer(round, candidate, pool),
            Err(e) => {
                self.metrics.offered_total.inc();
                let mut span = self.tracer.as_deref().map(|t| t.span("publish.gate"));
                if let Some(s) = span.as_mut() {
                    s.attr("round", round);
                    s.attr("accepted", 0);
                }
                Err(self.reject(round, 0, GateReject::Digest(e.to_string())))
            }
        }
    }

    /// Offers an in-memory candidate (already digest-verified or built
    /// directly from a store). Returns the retired incumbent version on
    /// cutover.
    pub fn offer(
        &self,
        round: u64,
        candidate: ServingSnapshot,
        pool: &ReplicatedServer,
    ) -> Result<u64, GateReject> {
        self.metrics.offered_total.inc();
        let candidate = Arc::new(candidate);
        let version = candidate.version();
        let incumbent = self.last_good();
        let mut span = self.tracer.as_deref().map(|t| t.span("publish.gate"));
        if let Some(s) = span.as_mut() {
            s.attr("round", round);
            s.attr("version", version);
            s.attr("incumbent", incumbent.version());
        }
        let ctx = span.as_ref().map(|s| s.ctx());
        let result = self.run_chain(&candidate, &incumbent, pool, ctx);
        match result {
            Ok(()) => {
                let retired = pool.publish_arc(Arc::clone(&candidate));
                *self.last_good.lock().expect("gate lock") = Arc::clone(&candidate);
                self.metrics.accepted_total.inc();
                if let Some(s) = span.as_mut() {
                    s.attr("accepted", 1);
                }
                if let Some(state) = &self.state {
                    state.record_accept(round, version, format!("cutover, retired v{retired}"));
                }
                Ok(retired)
            }
            Err(rej) => {
                if let Some(s) = span.as_mut() {
                    s.attr("accepted", 0);
                }
                Err(self.reject(round, version, rej))
            }
        }
    }

    /// Runs checks 2–6 (the file load was check 1). `Ok(())` means safe
    /// to cut over.
    fn run_chain(
        &self,
        candidate: &Arc<ServingSnapshot>,
        incumbent: &Arc<ServingSnapshot>,
        pool: &ReplicatedServer,
        parent: Option<SpanContext>,
    ) -> Result<(), GateReject> {
        self.timed(STRUCTURAL, parent, || {
            if candidate.version() <= incumbent.version() {
                return Err(GateReject::Version {
                    candidate: candidate.version(),
                    incumbent: incumbent.version(),
                });
            }
            if candidate.n_domains() != incumbent.n_domains() {
                return Err(GateReject::Structure(format!(
                    "candidate routes {} domains, incumbent {}",
                    candidate.n_domains(),
                    incumbent.n_domains()
                )));
            }
            candidate.check_finite().map_err(GateReject::NonFinite)
        })?;

        if self.config.probes_per_domain > 0 {
            self.timed(PROBE, parent, || self.check_probe_divergence(candidate, incumbent))?;
        }

        if self.config.canary_pct > 0.0 && pool.n_replicas() >= 2 {
            self.timed(CANARY, parent, || {
                self.metrics.canary_phases_total.inc();
                self.run_canary(candidate, incumbent, pool).inspect_err(|_| {
                    // The canary slice saw the candidate: roll those replicas
                    // back to the exact last-good allocation before failing.
                    let n_canary = self.canary_replicas(pool.n_replicas());
                    pool.publish_canary(Arc::clone(incumbent), n_canary);
                })
            })?;
        }
        Ok(())
    }

    /// Runs one check of the chain under its child span and records its
    /// time in `publish_gate_seconds{phase=...}`, pass or fail.
    fn timed(
        &self,
        phase: usize,
        parent: Option<SpanContext>,
        check: impl FnOnce() -> Result<(), GateReject>,
    ) -> Result<(), GateReject> {
        let (span, _) = GATE_PHASES[phase];
        let _s = self.tracer.as_deref().zip(parent).map(|(t, ctx)| t.child(span, ctx));
        let t0 = Instant::now();
        let out = check();
        self.metrics.phase_seconds[phase].record(t0.elapsed().as_secs_f64());
        out
    }

    /// Check 5: fixed seeded probe set, scored directly (not through the
    /// pool — deterministic and overload-immune) on both snapshots.
    fn check_probe_divergence(
        &self,
        candidate: &ServingSnapshot,
        incumbent: &ServingSnapshot,
    ) -> Result<(), GateReject> {
        let per = self.config.probes_per_domain;
        let probes = candidate.probe_requests(self.config.probe_seed, per);
        for req in &probes {
            incumbent
                .validate(req)
                .map_err(|e| GateReject::Structure(format!("probe invalid on incumbent ({e})")))?;
        }
        for (domain, reqs) in probes.chunks(per).enumerate() {
            let cand = candidate.score(domain, reqs);
            let inc = incumbent.score(domain, reqs);
            let mean = cand.iter().zip(&inc).map(|(c, i)| (c - i).abs()).sum::<f32>() / per as f32;
            // A NaN mean (possible if finite params still overflow an
            // activation) must also reject, hence the explicit check.
            if mean.is_nan() || mean > self.config.max_divergence {
                return Err(GateReject::Divergence {
                    domain,
                    divergence: mean,
                    bound: self.config.max_divergence,
                });
            }
        }
        Ok(())
    }

    /// How many replicas the canary slice covers: `⌊n·pct/100⌋`, at least
    /// 1, never the whole pool.
    fn canary_replicas(&self, n_replicas: usize) -> usize {
        ((n_replicas as f64 * self.config.canary_pct / 100.0).floor() as usize)
            .clamp(1, n_replicas - 1)
    }

    /// Check 6: serve the candidate to the canary slice and compare live
    /// behavior against the incumbent before full cutover.
    ///
    /// The probes go out as one wave: up to `width` of them in flight,
    /// checked oldest first, so every check and the drift sum run in probe
    /// order and the verdict does not depend on the width. A probe's two
    /// direct batch-of-1 scores are computed after its submit, while the
    /// pool works. `width` is 1 unless both snapshots score rows
    /// independently: a row-dependent model (STAR) scores a pickup of
    /// several probes differently from the direct reference.
    fn run_canary(
        &self,
        candidate: &Arc<ServingSnapshot>,
        incumbent: &Arc<ServingSnapshot>,
        pool: &ReplicatedServer,
    ) -> Result<(), GateReject> {
        let n = pool.n_replicas();
        let n_canary = self.canary_replicas(n);
        pool.publish_canary(Arc::clone(candidate), n_canary);

        let probes = canary_probes(&self.config, candidate);
        let width =
            if candidate.scores_rows_independently() && incumbent.scores_rows_independently() {
                probes.len()
            } else {
                1
            };
        let mut wave = Wave {
            candidate,
            incumbent,
            in_flight: VecDeque::with_capacity(width),
            drift_sum: 0.0,
            drift_n: 0,
        };
        let refused = |e: SubmitError| GateReject::Canary(format!("canary submit refused: {e}"));
        for req in &probes {
            if wave.in_flight.len() == width {
                wave.settle_to(width - 1)?;
            }
            let submit = || pool.submit_class(req.clone(), None, SloClass::Interactive);
            let pending = match submit() {
                Ok(pending) => pending,
                Err(e) => {
                    // The wave itself can fill a replica's queue or class
                    // cap. Earlier probes are checked first, as one at a
                    // time would have; then a refusal the wave caused is
                    // retried once, on an empty wave.
                    let wave_full = !wave.in_flight.is_empty()
                        && matches!(e, SubmitError::QueueFull | SubmitError::ShedOverload(_));
                    wave.settle_to(0)?;
                    if !wave_full {
                        return Err(refused(e));
                    }
                    submit().map_err(refused)?
                }
            };
            let direct = (
                candidate.score(req.domain, std::slice::from_ref(req))[0],
                incumbent.score(req.domain, std::slice::from_ref(req))[0],
            );
            let in_slice = replica_of(req.user, n) < n_canary;
            wave.in_flight.push_back(CanaryProbe { pending, in_slice, direct });
        }
        wave.settle_to(0)?;
        if wave.drift_n > 0 {
            let mean = wave.drift_sum / wave.drift_n as f32;
            if mean.is_nan() || mean > self.config.max_canary_drift {
                return Err(GateReject::Canary(format!(
                    "canary-slice mean |Δscore| {mean} > bound {}",
                    self.config.max_canary_drift
                )));
            }
        }
        Ok(())
    }

    /// Books a rejection: typed counter, rollback counter, shared state.
    /// The pool is already on (or back on) the last-good `Arc` when this
    /// runs — the rollback counter records that the candidate was
    /// discarded in its favor.
    fn reject(&self, round: u64, version: u64, rej: GateReject) -> GateReject {
        let idx = GATE_REASONS
            .iter()
            .position(|r| *r == rej.reason())
            .expect("every reason is registered");
        self.metrics.rejected_total[idx].inc();
        self.metrics.rollbacks_total.inc();
        if let Some(state) = &self.state {
            state.record_reject(round, version, rej.reason(), rej.to_string());
        }
        rej
    }
}

/// The canary's probe set, decorrelated from the divergence probes:
/// per-domain count sized to reach `canary_probes` total.
fn canary_probes(config: &GateConfig, candidate: &ServingSnapshot) -> Vec<ScoreRequest> {
    let per = (config.canary_probes / candidate.n_domains()).max(1);
    candidate.probe_requests(config.probe_seed ^ 0x9E37_79B9, per)
}

/// One canary probe the pool admitted and the gate has not checked yet.
struct CanaryProbe {
    pending: Pending,
    /// Routed to a replica of the canary slice.
    in_slice: bool,
    /// Direct batch-of-1 scores on the candidate and on the incumbent.
    direct: (f32, f32),
}

/// The canary's probes in flight, oldest first, and the drift over the
/// in-slice probes already checked.
struct Wave<'a> {
    candidate: &'a ServingSnapshot,
    incumbent: &'a ServingSnapshot,
    in_flight: VecDeque<CanaryProbe>,
    drift_sum: f32,
    drift_n: usize,
}

impl Wave<'_> {
    /// Waits for and checks the oldest probes until at most `keep` are in
    /// flight. A failed check waits out every other probe in flight before
    /// it returns, so the rollback never races a canary request.
    fn settle_to(&mut self, keep: usize) -> Result<(), GateReject> {
        while self.in_flight.len() > keep {
            let probe = self.in_flight.pop_front().expect("more than `keep` in flight");
            if let Err(rej) = self.check(probe) {
                for rest in self.in_flight.drain(..) {
                    rest.pending.wait();
                }
                return Err(rej);
            }
        }
        Ok(())
    }

    /// One probe's reply: scored, attributed to the version its replica
    /// should serve, bit-identical to the direct score; in-slice drift is
    /// added to the running sum.
    fn check(&mut self, probe: CanaryProbe) -> Result<(), GateReject> {
        let resp = match probe.pending.wait() {
            ServeResult::Scored(r) => r,
            other => {
                return Err(GateReject::Canary(format!("canary request not scored: {other:?}")))
            }
        };
        let (direct_cand, direct_inc) = probe.direct;
        let (want_version, want_score) = if probe.in_slice {
            (self.candidate.version(), direct_cand)
        } else {
            (self.incumbent.version(), direct_inc)
        };
        if resp.snapshot_version != want_version {
            return Err(GateReject::Canary(format!(
                "response attributed to v{}, expected v{want_version}",
                resp.snapshot_version
            )));
        }
        if resp.score.to_bits() != want_score.to_bits() {
            return Err(GateReject::Canary(format!(
                "pool score {} not bit-identical to direct score {}",
                resp.score, want_score
            )));
        }
        if probe.in_slice {
            self.drift_sum += (direct_cand - direct_inc).abs();
            self.drift_n += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use crate::snapshot::tests_support::{tiny_dense_snapshot, tiny_snapshot_of};
    use mamdr_models::ModelKind;

    fn pool(n: usize, registry: &MetricsRegistry) -> ReplicatedServer {
        ReplicatedServer::start(tiny_dense_snapshot(1), n, ServeConfig::default(), registry, None)
    }

    /// Loose bounds and a 50 % canary: every sound candidate passes.
    fn canary_config() -> GateConfig {
        GateConfig {
            max_divergence: 1.0,
            canary_pct: 50.0,
            max_canary_drift: 1.0,
            ..Default::default()
        }
    }

    fn phase_samples(registry: &MetricsRegistry, phase: &str) -> u64 {
        registry.histogram(&format!("publish_gate_seconds{{phase=\"{phase}\"}}")).count()
    }

    /// A gate sharing the pool's initial snapshot Arc, loose probe bound.
    fn gate(
        pool: &ReplicatedServer,
        registry: &MetricsRegistry,
        config: GateConfig,
    ) -> PublishGate {
        PublishGate::new(config, pool.engine(0).snapshot(), registry, None, None)
    }

    fn rejected(registry: &MetricsRegistry, reason: &str) -> u64 {
        registry.counter(&format!("publish_rejected_total{{reason=\"{reason}\"}}")).get()
    }

    #[test]
    fn accepts_a_sound_candidate_and_advances_last_good() {
        let registry = MetricsRegistry::new();
        let pool = pool(2, &registry);
        let g = gate(&pool, &registry, GateConfig { max_divergence: 1.0, ..Default::default() });
        let retired = g.offer(1, tiny_dense_snapshot(2), &pool).expect("sound candidate");
        assert_eq!(retired, 1);
        assert_eq!(pool.current_version(), 2);
        assert_eq!(g.last_good().version(), 2);
        assert_eq!(registry.counter("publish_accepted_total").get(), 1);
        assert_eq!(registry.counter("publish_rollbacks_total").get(), 0);
        pool.shutdown();
    }

    #[test]
    fn rejects_stale_version_and_keeps_serving_incumbent() {
        let registry = MetricsRegistry::new();
        let pool = pool(2, &registry);
        let g = gate(&pool, &registry, GateConfig { max_divergence: 1.0, ..Default::default() });
        let err = g.offer(1, tiny_dense_snapshot(1), &pool).unwrap_err();
        assert_eq!(err.reason(), "version");
        assert_eq!(pool.current_version(), 1, "pool untouched");
        assert_eq!(rejected(&registry, "version"), 1);
        assert_eq!(registry.counter("publish_rollbacks_total").get(), 1);
        // Every other reason counter exists and is zero (CI greps these).
        for reason in GATE_REASONS.iter().filter(|r| **r != "version") {
            assert_eq!(rejected(&registry, reason), 0, "{reason}");
        }
        pool.shutdown();
    }

    #[test]
    fn rejects_nonfinite_candidate() {
        let registry = MetricsRegistry::new();
        let pool = pool(1, &registry);
        let g = gate(&pool, &registry, GateConfig { max_divergence: 1.0, ..Default::default() });
        // Poison a candidate through the embedding path (mirrors a NaN
        // round reaching the store with the training guard off).
        let ps = mamdr_ps::ParameterServer::new(1, 2);
        ps.init_row(mamdr_ps::ParamKey::new(0, 0), vec![f32::NAN, 0.0]);
        let bad = ServingSnapshot::from_ps(5, &ps, 2);
        let err = g.offer(2, bad, &pool).unwrap_err();
        assert_eq!(err.reason(), "nonfinite");
        assert_eq!(pool.current_version(), 1);
        assert_eq!(rejected(&registry, "nonfinite"), 1);
        pool.shutdown();
    }

    #[test]
    fn rejects_probe_divergence_beyond_bound() {
        let registry = MetricsRegistry::new();
        let pool = pool(1, &registry);
        // Different fixture versions have different random weights; a
        // zero bound makes any real weight change a divergence rejection.
        let g = gate(&pool, &registry, GateConfig { max_divergence: 0.0, ..Default::default() });
        let err = g.offer(1, tiny_dense_snapshot(2), &pool).unwrap_err();
        assert_eq!(err.reason(), "divergence");
        assert!(matches!(err, GateReject::Divergence { bound, .. } if bound == 0.0));
        assert_eq!(pool.current_version(), 1);
        pool.shutdown();
    }

    #[test]
    fn rejects_mismatched_domain_count() {
        let registry = MetricsRegistry::new();
        let pool = pool(1, &registry);
        let g = gate(&pool, &registry, GateConfig { max_divergence: 1.0, ..Default::default() });
        let ps = mamdr_ps::ParameterServer::new(1, 2);
        let bad = ServingSnapshot::from_ps(7, &ps, 5); // 5 domains vs 2
        let err = g.offer(1, bad, &pool).unwrap_err();
        assert_eq!(err.reason(), "structure");
        pool.shutdown();
    }

    #[test]
    fn offer_file_rejects_corrupt_files_with_digest_reason() {
        let registry = MetricsRegistry::new();
        let pool = pool(1, &registry);
        let g = gate(&pool, &registry, GateConfig::default());
        let dir = std::env::temp_dir().join("mamdr-gate-digest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cand.mamdrsv");
        tiny_dense_snapshot(2).save_to_path(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = g.offer_file(3, &path, &pool).unwrap_err();
        assert_eq!(err.reason(), "digest");
        assert_eq!(rejected(&registry, "digest"), 1);
        assert_eq!(registry.counter("publish_rollbacks_total").get(), 1);
        assert_eq!(pool.current_version(), 1);
        std::fs::remove_dir_all(&dir).ok();
        pool.shutdown();
    }

    #[test]
    fn canary_accepts_within_drift_and_converges_pool() {
        let registry = MetricsRegistry::new();
        let pool = pool(4, &registry);
        let config = GateConfig {
            max_divergence: 1.0,
            canary_pct: 25.0, // 1 of 4 replicas
            max_canary_drift: 1.0,
            ..Default::default()
        };
        let g = gate(&pool, &registry, config);
        g.offer(1, tiny_dense_snapshot(2), &pool).expect("canary within bounds");
        for r in 0..4 {
            assert_eq!(pool.engine(r).current_version(), 2, "replica {r} converged");
        }
        assert_eq!(registry.counter("publish_canary_phases_total").get(), 1);
        assert_eq!(registry.counter("publish_accepted_total").get(), 1);
        pool.shutdown();
    }

    #[test]
    fn canary_drift_rolls_the_slice_back_byte_exactly() {
        let registry = MetricsRegistry::new();
        let pool = pool(4, &registry);
        let config = GateConfig {
            max_divergence: 1.0, // pass the offline probe check...
            canary_pct: 25.0,
            max_canary_drift: 0.0, // ...then fail on any live drift
            ..Default::default()
        };
        let g = gate(&pool, &registry, config);
        let incumbent = g.last_good();
        let err = g.offer(1, tiny_dense_snapshot(2), &pool).unwrap_err();
        assert_eq!(err.reason(), "canary");
        for r in 0..4 {
            assert_eq!(pool.engine(r).current_version(), 1, "replica {r} rolled back");
        }
        // Byte-exact rollback: the canary replica serves the *identical
        // allocation* the gate held as last-good, not a re-decoded copy.
        assert!(
            Arc::ptr_eq(&pool.engine(0).snapshot(), &incumbent),
            "rollback must re-pin the last-good Arc itself"
        );
        assert_eq!(rejected(&registry, "canary"), 1);
        assert_eq!(registry.counter("publish_rollbacks_total").get(), 1);
        pool.shutdown();
    }

    #[test]
    fn gate_phase_times_are_recorded_per_offer_that_reaches_them() {
        let registry = MetricsRegistry::new();
        let pool = pool(2, &registry);
        let g = gate(&pool, &registry, canary_config());
        g.offer(1, tiny_dense_snapshot(2), &pool).expect("sound candidate");
        for phase in ["structural", "probe", "canary"] {
            assert_eq!(phase_samples(&registry, phase), 1, "{phase}");
        }
        let ps = mamdr_ps::ParameterServer::new(1, 2);
        let err = g.offer(2, ServingSnapshot::from_ps(7, &ps, 5), &pool).unwrap_err();
        assert_eq!(err.reason(), "structure");
        assert_eq!(phase_samples(&registry, "structural"), 2);
        assert_eq!(phase_samples(&registry, "probe"), 1, "a structure reject runs no probe");
        assert_eq!(phase_samples(&registry, "canary"), 1, "a structure reject runs no canary");
        pool.shutdown();
    }

    #[test]
    fn star_canary_keeps_one_probe_in_flight_and_passes() {
        // STAR normalizes over the batch, so a pickup holding several
        // probes scores them differently from their direct batch-of-1
        // scores; only a one-probe wave makes pool and direct agree.
        let registry = MetricsRegistry::new();
        let star = |v| tiny_snapshot_of(ModelKind::Star, v, 2);
        assert!(!star(1).scores_rows_independently());
        let pool = ReplicatedServer::start(star(1), 2, ServeConfig::default(), &registry, None);
        let g = gate(&pool, &registry, canary_config());
        for v in 2..=7 {
            g.offer(v - 1, star(v), &pool).unwrap_or_else(|e| panic!("sound STAR v{v}: {e}"));
        }
        assert_eq!(registry.counter("publish_accepted_total").get(), 6);
        assert_eq!(pool.current_version(), 7);
        pool.shutdown();
    }

    #[test]
    fn a_wave_that_overfills_the_queue_is_retried_not_rejected() {
        let registry = MetricsRegistry::new();
        let config = ServeConfig { queue_cap: 4, ..ServeConfig::default() };
        let pool = ReplicatedServer::start(tiny_dense_snapshot(1), 2, config, &registry, None);
        let g = gate(&pool, &registry, canary_config());
        for v in 2..=6 {
            g.offer(v - 1, tiny_dense_snapshot(v), &pool)
                .unwrap_or_else(|e| panic!("sound v{v} under queue_cap 4: {e}"));
        }
        assert_eq!(pool.current_version(), 6);
        assert!(
            registry.counter("serve_rejected_total").get() > 0,
            "64-probe waves never filled a 4-deep queue: the retry went untested"
        );
        pool.shutdown();
    }

    #[test]
    fn a_canary_reject_waits_out_every_probe_before_it_returns() {
        let registry = MetricsRegistry::new();
        // One forward pass per request, so a backlog takes a while.
        let config =
            ServeConfig { max_batch: 1, queue_cap: 8192, n_workers: 1, ..ServeConfig::default() };
        let pool = ReplicatedServer::start(tiny_dense_snapshot(1), 2, config, &registry, None);
        // The probe seed puts the first canary probe outside the slice
        // (replica 1) and at least one probe inside it (replica 0).
        let candidate = tiny_dense_snapshot(2);
        let gate_config = (0u64..)
            .map(|probe_seed| GateConfig { probe_seed, ..canary_config() })
            .find(|c| {
                let probes = canary_probes(c, &candidate);
                pool.route(probes[0].user) == 1 && probes.iter().any(|p| pool.route(p.user) == 0)
            })
            .expect("a seed with an out-of-slice first probe");
        let g = gate(&pool, &registry, gate_config);
        // Behind the gate's back every replica moves to v5, so the first
        // out-of-slice reply is attributed to v5, not the incumbent v1:
        // the wave fails its first check while replica 0 is still busy
        // with a backlog queued ahead of the in-slice probes.
        pool.publish(tiny_dense_snapshot(5));
        let user0 = (0..30).find(|&u| pool.route(u) == 0).expect("a user on replica 0");
        let backlog: Vec<Pending> = (0..4000)
            .map(|i| {
                let req = ScoreRequest::new(0, user0, i % 20, i % 4, i % 5);
                pool.submit(req, None).expect("backlog admitted")
            })
            .collect();
        let err = g.offer(1, candidate, &pool).unwrap_err();
        assert_eq!(err.reason(), "canary");
        assert!(err.to_string().contains("attributed to v5, expected v1"), "{err}");
        // Domain 0 is scored first and in arrival order, so every in-slice
        // probe answered means the backlog was answered too.
        assert_eq!(
            registry.counter("serve_requests_total").get(),
            registry.counter("serve_responses_total").get(),
            "offer returned with canary requests in flight"
        );
        for p in backlog {
            assert!(matches!(p.wait(), ServeResult::Scored(_)));
        }
        pool.shutdown();
    }
}
