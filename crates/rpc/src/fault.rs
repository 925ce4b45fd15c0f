//! Deterministic fault injection at the framing boundary.
//!
//! A [`FaultPlan`] describes, with probabilities and a seed, the failures a
//! client connection suffers: dropped sends, dropped responses, delivery
//! delays, duplicated request frames, and forced disconnects. Each client
//! derives its own RNG stream from the plan seed and its client id, and
//! every request attempt consumes draws in a fixed order — so two runs with
//! the same plan, seed and workload inject *exactly* the same faults, and
//! every `rpc_faults_*` / `rpc_retries_total` counter is reproducible down
//! to the unit. That determinism is what lets CI grep exact counter values
//! out of a fault-injected training run.

use mamdr_tensor::rng::{derive_seed, seeded};
use rand::rngs::StdRng;
use rand::Rng;

/// A deterministic schedule of injected faults.
///
/// All probabilities are per request attempt, in `[0, 1]`. The default plan
/// injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed; client `c` draws from stream `derive_seed(seed, c)`.
    pub seed: u64,
    /// Probability a request frame is never sent (looks like a timeout).
    pub drop_send: f64,
    /// Probability a response frame is lost after the server processed the
    /// request (the retry then exercises the exactly-once path).
    pub drop_recv: f64,
    /// Probability an attempt is delayed by [`FaultPlan::delay_micros`].
    pub delay: f64,
    /// Injected delay duration in microseconds.
    pub delay_micros: u64,
    /// Probability the request frame is sent twice (the server must
    /// deduplicate the second copy).
    pub duplicate: f64,
    /// Request-attempt indices (per client, 0-based) at which the
    /// connection is torn down before sending.
    pub disconnect_at: Vec<u64>,
    /// `(round, worker)` pairs at which the worker *crashes* before doing
    /// any work: it reports a [`crate::trainer::WorkerFailure::Killed`] and
    /// the supervisor must recover the round without it.
    pub kill_worker: Vec<(u64, u32)>,
    /// `(round, worker)` pairs at which the worker *hangs* for
    /// [`FaultPlan::hang_micros`] before starting — long enough to trip the
    /// supervisor's deadline, which restarts the partition elsewhere.
    pub hang_worker: Vec<(u64, u32)>,
    /// How long a hung worker sleeps, in microseconds.
    pub hang_micros: u64,
    /// `(round, worker)` pairs whose outer gradients are poisoned with a
    /// NaN after the round — the deterministic trigger for the divergence
    /// guard.
    pub poison: Vec<(u64, u32)>,
    /// `(round, shard)` pairs at which an entire *server* shard is torn
    /// down before the round runs: every connection to it dies, the round
    /// attempt fails, and the supervisor must restart the shard from its
    /// last committed checkpoint and replay the round.
    pub kill_shard: Vec<(u64, u32)>,
    /// Rounds at which the continual *publisher* crashes mid-write: it
    /// persists only a partial temp file (no fsync, no rename) and offers
    /// nothing to the gate — the atomic-commit proof that a torn write can
    /// never be swapped into serving. Publisher rounds are 1-based
    /// completed-round counts: `kill_publish=2` faults the snapshot that
    /// would have been published as version 2.
    pub kill_publish: Vec<u64>,
    /// Rounds whose committed snapshot file has one byte flipped after the
    /// digest was computed — the gate's digest check must reject it.
    /// 1-based, like [`FaultPlan::kill_publish`].
    pub corrupt_snapshot: Vec<u64>,
    /// Rounds whose outer gradients are poisoned with a NaN on *every*
    /// worker — whole-round divergence. With the `ps::guard` rail armed
    /// the trainer skips/rolls back the round; without it the NaN reaches
    /// the store and the publish gate's finite check is the last line of
    /// defense before traffic. Indices are 0-based epochs, matching the
    /// per-worker `poison` schedule: `poison_round=4` taints the store
    /// from the round published as snapshot version 5 onward.
    pub poison_round: Vec<u64>,
}

impl FaultPlan {
    /// Parses the `paper dist --fault-plan` spec string: comma-separated
    /// `key=value` fields. Keys: `seed`, `drop_send`, `drop_recv`,
    /// `dup`, `delay` (as `prob:micros`), `disconnect` (as `+`-separated
    /// attempt indices), the scheduled worker faults `kill`, `hang`
    /// and `poison` (each `+`-separated `round:worker` pairs) plus
    /// `hang_micros`, and the scheduled publisher faults `kill_publish`,
    /// `corrupt_snapshot` and `poison_round` (each `+`-separated round
    /// indices). Example:
    ///
    /// ```text
    /// seed=7,drop_send=0.05,drop_recv=0.05,delay=0.1:200,dup=0.05,disconnect=40+90
    /// kill=1:0+2:3,hang=1:2,hang_micros=200000,poison=2:1
    /// kill_publish=2,corrupt_snapshot=3,poison_round=5
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for field in spec.split(',').filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field '{field}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 =
                    v.parse().map_err(|_| format!("fault-plan {key}: '{v}' is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault-plan {key}: probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("fault-plan seed: '{value}'"))?;
                }
                "drop_send" => plan.drop_send = prob(value)?,
                "drop_recv" => plan.drop_recv = prob(value)?,
                "dup" => plan.duplicate = prob(value)?,
                "delay" => {
                    let (p, micros) = value
                        .split_once(':')
                        .ok_or_else(|| format!("fault-plan delay: '{value}' is not prob:micros"))?;
                    plan.delay = prob(p)?;
                    plan.delay_micros = micros
                        .parse()
                        .map_err(|_| format!("fault-plan delay micros: '{micros}'"))?;
                }
                "disconnect" => {
                    plan.disconnect_at = value
                        .split('+')
                        .map(|i| i.parse().map_err(|_| format!("fault-plan disconnect: '{i}'")))
                        .collect::<Result<_, _>>()?;
                }
                "kill" => plan.kill_worker = parse_round_worker("kill", value)?,
                "kill_shard" => plan.kill_shard = parse_round_worker("kill_shard", value)?,
                "hang" => plan.hang_worker = parse_round_worker("hang", value)?,
                "poison" => plan.poison = parse_round_worker("poison", value)?,
                "kill_publish" => plan.kill_publish = parse_rounds("kill_publish", value)?,
                "corrupt_snapshot" => {
                    plan.corrupt_snapshot = parse_rounds("corrupt_snapshot", value)?;
                }
                "poison_round" => plan.poison_round = parse_rounds("poison_round", value)?,
                "hang_micros" => {
                    plan.hang_micros =
                        value.parse().map_err(|_| format!("fault-plan hang_micros: '{value}'"))?;
                }
                other => return Err(format!("fault-plan: unknown key '{other}'")),
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_noop(&self) -> bool {
        self.drop_send == 0.0
            && self.drop_recv == 0.0
            && self.delay == 0.0
            && self.duplicate == 0.0
            && self.disconnect_at.is_empty()
            && self.kill_worker.is_empty()
            && self.hang_worker.is_empty()
            && self.poison.is_empty()
            && self.kill_shard.is_empty()
            && self.kill_publish.is_empty()
            && self.corrupt_snapshot.is_empty()
            && self.poison_round.is_empty()
    }

    /// True when `worker` is scheduled to crash in `round`. Consulted by
    /// the supervisor on *initial* worker launch only — a restarted worker
    /// is never re-killed, so recovery always terminates. These checks
    /// consume no RNG draws: adding a kill/hang/poison schedule leaves the
    /// wire-fault stream (and every `rpc_faults_*` counter) untouched.
    pub fn should_kill(&self, round: u64, worker: u32) -> bool {
        self.kill_worker.contains(&(round, worker))
    }

    /// True when `worker` is scheduled to hang in `round` (initial launch
    /// only, like [`FaultPlan::should_kill`]).
    pub fn should_hang(&self, round: u64, worker: u32) -> bool {
        self.hang_worker.contains(&(round, worker))
    }

    /// True when `worker`'s round-`round` gradients are to be poisoned
    /// with a NaN (applies to restarts too: the poison models divergent
    /// *data*, which a re-run reproduces). A `poison_round` schedule
    /// poisons *every* worker of that round the same way.
    pub fn should_poison(&self, round: u64, worker: u32) -> bool {
        self.poison.contains(&(round, worker)) || self.poison_round.contains(&round)
    }

    /// True when the continual publisher is scheduled to crash mid-write
    /// after round `round`. Like every scheduled fault, consulting this
    /// consumes no RNG draws, so the wire-fault stream is unshifted.
    pub fn should_kill_publish(&self, round: u64) -> bool {
        self.kill_publish.contains(&round)
    }

    /// True when round `round`'s committed snapshot file is scheduled to
    /// have one byte flipped (post-digest disk corruption).
    pub fn should_corrupt_snapshot(&self, round: u64) -> bool {
        self.corrupt_snapshot.contains(&round)
    }

    /// The server shards scheduled to die in `round`, in schedule order.
    /// Like the worker schedules, consulting this consumes no RNG draws,
    /// and a restarted shard is never re-killed in the replay — recovery
    /// always terminates.
    pub fn shards_to_kill(&self, round: u64) -> Vec<u32> {
        self.kill_shard.iter().filter(|(r, _)| *r == round).map(|&(_, s)| s).collect()
    }
}

/// Parses `+`-separated `round:worker` pairs (e.g. `2:1+3:0`).
fn parse_round_worker(key: &str, value: &str) -> Result<Vec<(u64, u32)>, String> {
    value
        .split('+')
        .map(|pair| {
            let (r, w) = pair
                .split_once(':')
                .ok_or_else(|| format!("fault-plan {key}: '{pair}' is not round:worker"))?;
            let round = r.parse().map_err(|_| format!("fault-plan {key} round: '{r}'"))?;
            let worker = w.parse().map_err(|_| format!("fault-plan {key} worker: '{w}'"))?;
            Ok((round, worker))
        })
        .collect()
}

/// Parses `+`-separated round indices (e.g. `2+5`).
fn parse_rounds(key: &str, value: &str) -> Result<Vec<u64>, String> {
    value
        .split('+')
        .map(|r| r.parse().map_err(|_| format!("fault-plan {key} round: '{r}'")))
        .collect()
}

/// The faults chosen for one request attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Tear the connection down instead of sending.
    pub disconnect: bool,
    /// Pretend the request frame was lost.
    pub drop_send: bool,
    /// Sleep [`FaultPlan::delay_micros`] before sending.
    pub delay: bool,
    /// Send the request frame twice.
    pub duplicate: bool,
    /// Read the response, then pretend it was lost.
    pub drop_recv: bool,
}

/// One client's fault stream: the plan plus the client-specific RNG and
/// attempt counter.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    attempts: u64,
}

impl FaultState {
    /// The fault stream of client `client_id` under `plan`.
    pub fn new(plan: FaultPlan, client_id: u32) -> Self {
        let rng = seeded(derive_seed(plan.seed, client_id as u64));
        FaultState { plan, rng, attempts: 0 }
    }

    /// Decides the faults of the next request attempt.
    ///
    /// Exactly four RNG draws per call, in a fixed order (`drop_send`,
    /// `delay`, `duplicate`, `drop_recv`) regardless of the probabilities —
    /// the stream position depends only on the attempt count, never on
    /// which faults actually fired.
    pub fn decide(&mut self) -> FaultDecision {
        let attempt = self.attempts;
        self.attempts += 1;
        let mut d = FaultDecision {
            disconnect: self.plan.disconnect_at.contains(&attempt),
            drop_send: self.rng.gen_bool(self.plan.drop_send),
            delay: self.rng.gen_bool(self.plan.delay),
            duplicate: self.rng.gen_bool(self.plan.duplicate),
            drop_recv: self.rng.gen_bool(self.plan.drop_recv),
        };
        if d.disconnect {
            // The connection dies before any frame moves; the four draws
            // above were still consumed to keep the stream aligned.
            d.drop_send = false;
            d.delay = false;
            d.duplicate = false;
            d.drop_recv = false;
        }
        d
    }

    /// Injected delay duration.
    pub fn delay_micros(&self) -> u64 {
        self.plan.delay_micros
    }

    /// Number of attempts decided so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_field() {
        let plan = FaultPlan::parse(
            "seed=7,drop_send=0.05,drop_recv=0.1,delay=0.2:300,dup=0.02,disconnect=4+9",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_send, 0.05);
        assert_eq!(plan.drop_recv, 0.1);
        assert_eq!(plan.delay, 0.2);
        assert_eq!(plan.delay_micros, 300);
        assert_eq!(plan.duplicate, 0.02);
        assert_eq!(plan.disconnect_at, vec![4, 9]);
        assert!(!plan.is_noop());
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("drop_send").is_err());
        assert!(FaultPlan::parse("drop_send=2.0").is_err());
        assert!(FaultPlan::parse("delay=0.5").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("disconnect=1+x").is_err());
        assert!(FaultPlan::parse("kill=2").is_err());
        assert!(FaultPlan::parse("kill=x:0").is_err());
        assert!(FaultPlan::parse("hang_micros=soon").is_err());
        assert!(FaultPlan::parse("kill_publish=x").is_err());
        assert!(FaultPlan::parse("corrupt_snapshot=1:0").is_err());
        assert!(FaultPlan::parse("poison_round=2+y").is_err());
    }

    #[test]
    fn parse_scheduled_publisher_faults() {
        let plan = FaultPlan::parse("kill_publish=2+5,corrupt_snapshot=3,poison_round=4").unwrap();
        assert_eq!(plan.kill_publish, vec![2, 5]);
        assert_eq!(plan.corrupt_snapshot, vec![3]);
        assert_eq!(plan.poison_round, vec![4]);
        assert!(!plan.is_noop());
        assert!(plan.should_kill_publish(2) && plan.should_kill_publish(5));
        assert!(!plan.should_kill_publish(3));
        assert!(plan.should_corrupt_snapshot(3) && !plan.should_corrupt_snapshot(2));
        // poison_round poisons every worker of that round.
        assert!(plan.should_poison(4, 0) && plan.should_poison(4, 3));
        assert!(!plan.should_poison(5, 0));
    }

    #[test]
    fn parse_scheduled_worker_faults() {
        let plan = FaultPlan::parse("kill=1:0+2:3,hang=1:2,hang_micros=250000,poison=2:1").unwrap();
        assert_eq!(plan.kill_worker, vec![(1, 0), (2, 3)]);
        assert_eq!(plan.hang_worker, vec![(1, 2)]);
        assert_eq!(plan.hang_micros, 250_000);
        assert_eq!(plan.poison, vec![(2, 1)]);
        assert!(!plan.is_noop());
        assert!(plan.should_kill(1, 0) && plan.should_kill(2, 3));
        assert!(!plan.should_kill(1, 3));
        assert!(plan.should_hang(1, 2) && !plan.should_hang(2, 2));
        assert!(plan.should_poison(2, 1) && !plan.should_poison(1, 1));
    }

    #[test]
    fn parse_scheduled_shard_kills() {
        let plan = FaultPlan::parse("kill_shard=1:2+1:0+3:1").unwrap();
        assert_eq!(plan.kill_shard, vec![(1, 2), (1, 0), (3, 1)]);
        assert!(!plan.is_noop());
        assert_eq!(plan.shards_to_kill(1), vec![2, 0]);
        assert_eq!(plan.shards_to_kill(3), vec![1]);
        assert!(plan.shards_to_kill(0).is_empty());
        assert!(FaultPlan::parse("kill_shard=1").is_err());
        assert!(FaultPlan::parse("kill_shard=x:0").is_err());
    }

    #[test]
    fn scheduled_faults_do_not_shift_the_wire_fault_stream() {
        // A kill/hang/poison schedule must not perturb the per-attempt RNG
        // draws — CI greps exact wire-fault counters across such runs.
        let base = FaultPlan::parse("seed=3,drop_send=0.3,drop_recv=0.3,dup=0.2").unwrap();
        let mut with_sched = base.clone();
        with_sched.kill_worker = vec![(1, 0)];
        with_sched.hang_worker = vec![(2, 1)];
        with_sched.poison = vec![(0, 2)];
        with_sched.kill_shard = vec![(1, 1)];
        with_sched.kill_publish = vec![2];
        with_sched.corrupt_snapshot = vec![3];
        with_sched.poison_round = vec![4];
        let run = |plan: &FaultPlan| -> Vec<FaultDecision> {
            let mut fs = FaultState::new(plan.clone(), 1);
            (0..100).map(|_| fs.decide()).collect()
        };
        assert_eq!(run(&base), run(&with_sched));
    }

    #[test]
    fn decisions_are_deterministic_per_client() {
        let plan = FaultPlan::parse("seed=3,drop_send=0.3,drop_recv=0.3,dup=0.2").unwrap();
        let run = |client: u32| -> Vec<FaultDecision> {
            let mut fs = FaultState::new(plan.clone(), client);
            (0..200).map(|_| fs.decide()).collect()
        };
        assert_eq!(run(1), run(1));
        // Distinct clients draw from decorrelated streams.
        assert_ne!(run(1), run(2));
        // With these rates, every fault kind fires at least once in 200.
        let seq = run(1);
        assert!(seq.iter().any(|d| d.drop_send));
        assert!(seq.iter().any(|d| d.drop_recv));
        assert!(seq.iter().any(|d| d.duplicate));
    }

    #[test]
    fn disconnect_fires_at_exact_attempts_and_masks_other_faults() {
        let plan = FaultPlan::parse("seed=1,drop_send=1.0,disconnect=2").unwrap();
        let mut fs = FaultState::new(plan, 0);
        assert!(!fs.decide().disconnect);
        assert!(!fs.decide().disconnect);
        let d = fs.decide();
        assert!(d.disconnect && !d.drop_send);
        assert!(!fs.decide().disconnect);
        assert_eq!(fs.attempts(), 4);
    }
}
