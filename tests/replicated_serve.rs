//! Replicated serving integration: an N-replica pool swapped mid-run must
//! answer every request from exactly one published snapshot version, drop
//! nothing, and produce scores bit-identical to a single-replica run — and
//! to scoring the snapshot directly — under the same deterministic
//! user-id routing.

use mamdr::prelude::*;
use mamdr::serve::{
    replica_of, ModelSpec, ReplicatedServer, ScoreRequest, ServeResult, SloClass, SubmitError,
};
use std::collections::HashMap;
use std::sync::Arc;

fn dataset() -> MdrDataset {
    let mut gen = GeneratorConfig::base("replica-e2e", 80, 50, 17);
    gen.conflict = 0.3;
    gen.domains = vec![DomainSpec::new("a", 600, 0.3), DomainSpec::new("b", 300, 0.4)];
    gen.generate()
}

fn trained_pair(ds: &MdrDataset, seed: u64) -> (ModelSpec, TrainedModel) {
    let fc = FeatureConfig::from_dataset(ds);
    let mc = ModelConfig::tiny();
    let built = build_model(ModelKind::Mlp, &fc, &mc, ds.n_domains(), seed);
    let cfg = TrainConfig::quick().with_seed(seed);
    let mut env = TrainEnv::new(ds, built.model.as_ref(), built.params, cfg);
    let trained = FrameworkKind::Mamdr.build().train(&mut env);
    let spec =
        ModelSpec { kind: ModelKind::Mlp, features: fc, config: mc, n_domains: ds.n_domains() };
    (spec, trained)
}

fn requests(fc: &FeatureConfig, n: u32) -> Vec<ScoreRequest> {
    (0..n)
        .map(|i| {
            ScoreRequest::new(
                (i as usize) % 2,
                (i * 7) % fc.n_users as u32,
                (i * 3) % fc.n_items as u32,
                i % fc.n_user_groups as u32,
                i % fc.n_item_cats as u32,
            )
        })
        .collect()
}

/// Runs `reqs` through a fresh pool of `n_replicas`, publishing v2 after
/// the first `swap_after` submissions — with the second quarter of those
/// still in flight when the swap lands. Returns `(version, score_bits)`
/// per request, in submission order.
fn run_pool(
    n_replicas: usize,
    swap_after: usize,
    spec: &ModelSpec,
    tm1: &TrainedModel,
    tm2: &TrainedModel,
    reqs: &[ScoreRequest],
) -> Vec<(u64, u32)> {
    let v1 = ServingSnapshot::from_trained(1, spec.clone(), tm1.clone()).unwrap();
    let v2 = ServingSnapshot::from_trained(2, spec.clone(), tm2.clone()).unwrap();
    let registry = MetricsRegistry::new();
    let pool = ReplicatedServer::start(v1, n_replicas, ServeConfig::default(), &registry, None);

    let resolve = |p: &mamdr::serve::Pending| match p.wait() {
        ServeResult::Scored(r) => (r.snapshot_version, r.score.to_bits()),
        other => panic!("request dropped or failed: {other:?}"),
    };
    let submit =
        |r: &ScoreRequest| pool.submit(r.clone(), None).expect("pool admits under capacity");

    // Submit the pre-swap half; resolve the first half of it *before* the
    // swap (pinning those results to v1), leave the rest in flight.
    let pre: Vec<_> = reqs[..swap_after].iter().map(submit).collect();
    let mut results: Vec<(u64, u32)> = pre[..swap_after / 2].iter().map(resolve).collect();
    assert_eq!(pool.publish(v2), 1, "swap must retire exactly version 1");
    // In-flight requests finish on whichever version their batch pinned.
    results.extend(pre[swap_after / 2..].iter().map(resolve));
    // Everything submitted after the swap can only ever see v2.
    let post: Vec<_> = reqs[swap_after..].iter().map(submit).collect();
    results.extend(post.iter().map(resolve));
    pool.shutdown();

    // Zero loss, server-side view: every admitted request responded.
    assert_eq!(registry.counter("serve_requests_total").get(), reqs.len() as u64);
    assert_eq!(registry.counter("serve_responses_total").get(), reqs.len() as u64);
    results
}

#[test]
fn replicated_pool_swaps_with_zero_loss_and_bit_identical_scores() {
    let ds = dataset();
    let (spec, tm1) = trained_pair(&ds, 3);
    let (_, tm2) = trained_pair(&ds, 11);
    let fc = spec.features;
    let reqs = requests(&fc, 120);
    let swap_after = reqs.len() / 2;

    // The request set must actually exercise multiple replicas.
    let owners: std::collections::HashSet<usize> =
        reqs.iter().map(|r| replica_of(r.user, 4)).collect();
    assert!(owners.len() > 1, "fixture routes everything to one replica");

    // Reference scores, straight off each snapshot — no server, no
    // batching, no replication.
    let direct: HashMap<u64, Vec<u32>> = [(1u64, &tm1), (2u64, &tm2)]
        .into_iter()
        .map(|(version, tm)| {
            let snap = ServingSnapshot::from_trained(version, spec.clone(), (*tm).clone()).unwrap();
            let bits = reqs
                .iter()
                .map(|r| snap.score(r.domain, std::slice::from_ref(r))[0].to_bits())
                .collect();
            (version, bits)
        })
        .collect();

    let four = run_pool(4, swap_after, &spec, &tm1, &tm2, &reqs);
    let one = run_pool(1, swap_after, &spec, &tm1, &tm2, &reqs);

    for (i, &(version, bits)) in four.iter().enumerate() {
        // Exactly one published version answered each request...
        assert!(version == 1 || version == 2, "request {i} scored by unknown v{version}");
        // ...and its score is bit-identical to that snapshot scored
        // directly, so neither replication nor batching changed a bit.
        assert_eq!(
            bits, direct[&version][i],
            "request {i}: 4-replica score diverged from direct v{version} scoring"
        );
    }
    for (i, &(version, bits)) in one.iter().enumerate() {
        assert_eq!(
            bits, direct[&version][i],
            "request {i}: 1-replica score diverged from direct v{version} scoring"
        );
    }

    // Results resolved before the swap are all v1; submissions after the
    // swap can only score on v2 — on every pool size.
    for results in [&four, &one] {
        for (i, &(version, _)) in results[..swap_after / 2].iter().enumerate() {
            assert_eq!(version, 1, "request {i} resolved pre-swap but scored on v{version}");
        }
        for (i, &(version, _)) in results.iter().enumerate().skip(swap_after) {
            assert_eq!(version, 2, "request {i} submitted after the swap scored on v{version}");
        }
    }

    // Where both runs answered a request with the same version, the bits
    // agree — replica count never changes a score.
    let mut compared = 0;
    for i in 0..reqs.len() {
        if four[i].0 == one[i].0 {
            assert_eq!(four[i].1, one[i].1, "request {i}: replica count changed the score");
            compared += 1;
        }
    }
    assert!(compared > reqs.len() / 2, "too few comparable requests ({compared})");
}

/// What one submitter thread observed, client side.
#[derive(Default)]
struct ClientTally {
    submitted: u64,
    admitted: u64,
    shed: [u64; SloClass::COUNT],
    rejected: u64,
    closed: u64,
    scored: u64,
    other: u64,
    versions: std::collections::BTreeSet<u64>,
}

/// A version swap racing per-class shed under sustained overload must not
/// lose a single submission from the accounting: client-side,
/// `submitted = admitted + shed + rejected + closed` per class by
/// construction, and every one of those outcomes must land in exactly one
/// server-side counter — across the publish, with the bulk class
/// shedding the whole time.
#[test]
fn publish_racing_shed_conserves_every_submission() {
    let ds = dataset();
    let (spec, tm1) = trained_pair(&ds, 3);
    let (_, tm2) = trained_pair(&ds, 11);
    let fc = spec.features;
    let v1 = ServingSnapshot::from_trained(1, spec.clone(), tm1).unwrap();
    let v2 = Arc::new(ServingSnapshot::from_trained(2, spec, tm2).unwrap());

    // A deliberately starved pool: one worker per replica and a bulk cap
    // of 2, so bulk traffic sheds almost immediately while interactive
    // traffic keeps landing under the global cap.
    let cfg = ServeConfig {
        max_batch: 4,
        queue_cap: 64,
        class_caps: {
            let mut c = [0; SloClass::COUNT];
            c[SloClass::Bulk.index()] = 2;
            c
        },
        n_workers: 1,
    };
    let registry = MetricsRegistry::new();
    let pool = Arc::new(ReplicatedServer::start(v1, 2, cfg, &registry, None));

    // Pin a few v1 responses before the storm so both versions provably
    // answered traffic in this run.
    let warmup = requests(&fc, 4);
    for r in &warmup {
        match pool.submit(r.clone(), None).unwrap().wait() {
            ServeResult::Scored(resp) => assert_eq!(resp.snapshot_version, 1),
            other => panic!("warmup request failed: {other:?}"),
        }
    }

    let reqs = requests(&fc, 64);
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let reqs = reqs.clone();
            std::thread::spawn(move || {
                let mut tally = ClientTally::default();
                for i in 0..400usize {
                    let class =
                        if (t + i) % 3 == 0 { SloClass::Interactive } else { SloClass::Bulk };
                    let req = reqs[(t * 31 + i) % reqs.len()].clone();
                    tally.submitted += 1;
                    match pool.submit_class(req, None, class) {
                        Ok(pending) => {
                            tally.admitted += 1;
                            match pending.wait() {
                                ServeResult::Scored(r) => {
                                    tally.scored += 1;
                                    tally.versions.insert(r.snapshot_version);
                                }
                                _ => tally.other += 1,
                            }
                        }
                        Err(SubmitError::ShedOverload(c)) => tally.shed[c.index()] += 1,
                        Err(SubmitError::QueueFull) => tally.rejected += 1,
                        Err(SubmitError::Closed) => tally.closed += 1,
                    }
                }
                tally
            })
        })
        .collect();

    // Land the swap squarely inside the overload window.
    std::thread::sleep(std::time::Duration::from_millis(3));
    assert_eq!(pool.publish_arc(Arc::clone(&v2)), 1, "swap must retire exactly version 1");

    let mut total = ClientTally::default();
    for w in workers {
        let t = w.join().unwrap();
        total.submitted += t.submitted;
        total.admitted += t.admitted;
        for c in 0..SloClass::COUNT {
            total.shed[c] += t.shed[c];
        }
        total.rejected += t.rejected;
        total.closed += t.closed;
        total.scored += t.scored;
        total.other += t.other;
        total.versions.extend(t.versions);
    }
    Arc::try_unwrap(pool).ok().expect("pool unshared after joins").shutdown();

    // The storm must actually have raced the swap: bulk shed fired, and
    // traffic scored on both the retired and the new version.
    assert!(total.shed[SloClass::Bulk.index()] > 0, "bulk class never shed — no overload");
    assert!(total.versions.contains(&2), "no request ever saw the published version");
    assert!(total.versions.iter().all(|v| [1, 2].contains(v)), "unknown version served");

    // Client-side conservation: every submission took exactly one exit.
    let shed_total: u64 = total.shed.iter().sum();
    assert_eq!(
        total.submitted,
        total.admitted + shed_total + total.rejected + total.closed,
        "a submission fell out of the accounting"
    );
    assert_eq!(total.closed, 0, "pool reported Closed while still running");
    // Every admitted request resolved (no deadline was set, so all score).
    assert_eq!(total.scored + total.other, total.admitted);
    assert_eq!(total.other, 0, "an admitted request with no deadline failed to score");

    // Server-side counters agree exactly with the client tallies — the
    // swap neither double-counted nor dropped an admission, a shed, or a
    // rejection in any class.
    let warm = warmup.len() as u64;
    assert_eq!(registry.counter("serve_requests_total").get(), total.admitted + warm);
    assert_eq!(registry.counter("serve_responses_total").get(), total.scored + warm);
    assert_eq!(registry.counter("serve_rejected_total").get(), total.rejected);
    for class in SloClass::ALL {
        assert_eq!(
            registry.counter(&format!("serve_shed_total{{class=\"{}\"}}", class.label())).get(),
            total.shed[class.index()],
            "shed counter for class {} diverged from client observations",
            class.label()
        );
    }
}
