//! Integration tests of the client/server pair over real loopback TCP:
//! request round trips, typed server errors, exactly-once push semantics
//! under duplication and retry, reconnect-after-disconnect, and graceful
//! drain.

use mamdr_obs::MetricsRegistry;
use mamdr_ps::{ParamKey, ParameterServer};
use mamdr_rpc::frame::{decode_error, PullManyReq, PullManyResp};
use mamdr_rpc::{
    FaultPlan, FaultState, Frame, OpCode, PsServer, Request, Response, RetryPolicy, RpcError,
    WorkerClient,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn harness(dim: usize) -> (PsServer, Arc<ParameterServer>, Arc<MetricsRegistry>) {
    let ps = Arc::new(ParameterServer::new(4, dim));
    let metrics = Arc::new(MetricsRegistry::new());
    let server =
        PsServer::bind("127.0.0.1:0", Arc::clone(&ps), dim, Arc::clone(&metrics), None, None)
            .unwrap();
    (server, ps, metrics)
}

fn client(server: &PsServer, id: u32, metrics: &Arc<MetricsRegistry>) -> WorkerClient {
    WorkerClient::new(server.addr(), id, RetryPolicy::default(), None, Arc::clone(metrics))
}

fn faulted_client(
    server: &PsServer,
    id: u32,
    metrics: &Arc<MetricsRegistry>,
    policy: RetryPolicy,
    spec: &str,
) -> WorkerClient {
    let plan = FaultPlan::parse(spec).unwrap();
    let fault = Some(FaultState::new(plan, id));
    WorkerClient::new(server.addr(), id, policy, fault, Arc::clone(metrics))
}

/// A single-row read is a one-key `PullMany`: `(value, version)`.
fn pull_one(c: &mut WorkerClient, key: ParamKey) -> Result<(Vec<f32>, u64), RpcError> {
    match c.call(Request::PullMany { keys: vec![key] })? {
        Response::PullMany { mut versions, values } => Ok((values, versions.remove(0))),
        other => panic!("PullMany answered with {other:?}"),
    }
}

/// A single-row write is a one-key `PushMany`; `false` means deduplicated.
fn push_one(c: &mut WorkerClient, key: ParamKey, grad: &[f32], lr: f32) -> Result<bool, RpcError> {
    match c.call(Request::PushMany { lr, keys: vec![key], grads: grad.to_vec() })? {
        Response::PushMany { applied } => Ok(applied),
        other => panic!("PushMany answered with {other:?}"),
    }
}

#[test]
fn pull_and_push_roundtrip_with_traffic_accounting() {
    let (server, ps, metrics) = harness(4);
    let key = ParamKey::new(0, 7);
    ps.init_row(key, vec![1.0, 2.0, 3.0, 4.0]);
    let mut c = client(&server, 1, &metrics);

    let (value, version) = pull_one(&mut c, key).unwrap();
    assert_eq!(value, vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(version, 0);

    assert!(push_one(&mut c, key, &[1.0, 0.0, 0.0, 0.0], 0.5).unwrap());
    let (after, version) = pull_one(&mut c, key).unwrap();
    assert!(after[0] > 1.0, "{after:?}");
    assert_eq!(version, 1);

    // The wire path drives the same counted store operations as the
    // in-process path: two pulls, one push.
    let (pulls, pushes, _, _) = ps.traffic().snapshot();
    assert_eq!((pulls, pushes), (2, 1));
    assert!(metrics.counter("rpc_frames_total").get() >= 3);
}

#[test]
fn uninitialized_key_is_a_server_error_not_a_crash() {
    let (server, _ps, metrics) = harness(2);
    let mut c = client(&server, 1, &metrics);
    // Both the pull and push paths must answer with a typed Error frame
    // (the in-process store would panic) — also when the missing key sits
    // behind valid ones in a batch, in which case nothing of the batch is
    // read or applied; later requests still work.
    match pull_one(&mut c, ParamKey::new(9, 9)) {
        Err(RpcError::Server(msg)) => assert!(msg.contains("uninitialized")),
        other => panic!("expected server error, got {other:?}"),
    }
    match push_one(&mut c, ParamKey::new(9, 9), &[0.0, 0.0], 0.1) {
        Err(RpcError::Server(msg)) => assert!(msg.contains("uninitialized")),
        other => panic!("expected server error, got {other:?}"),
    }
    let key = ParamKey::new(0, 0);
    server.store().init_row(key, vec![1.0, 1.0]);
    let batch = vec![key, ParamKey::new(9, 9)];
    match c.call(Request::PullMany { keys: batch.clone() }) {
        Err(RpcError::Server(msg)) => assert!(msg.contains("uninitialized")),
        other => panic!("expected server error, got {other:?}"),
    }
    match c.call(Request::PushMany { lr: 0.1, keys: batch, grads: vec![1.0; 4] }) {
        Err(RpcError::Server(msg)) => assert!(msg.contains("uninitialized")),
        other => panic!("expected server error, got {other:?}"),
    }
    assert_eq!(server.store().traffic().snapshot(), (0, 0, 0, 0), "refused batches leave no trace");
    assert_eq!(server.store().version(key), 0);
    // Server errors are authoritative: none of the retry budget was spent.
    assert_eq!(metrics.counter("rpc_retries_total").get(), 0);
    // The connection survived and still serves requests.
    assert_eq!(pull_one(&mut c, key).unwrap().0, vec![1.0, 1.0]);
}

#[test]
fn duplicated_push_frames_are_applied_exactly_once() {
    let (server, ps, metrics) = harness(2);
    let key = ParamKey::new(0, 0);
    ps.init_row(key, vec![0.0, 0.0]);
    // Every request frame is sent twice; the server must deduplicate the
    // copy by (client, seq).
    let mut c = faulted_client(&server, 3, &metrics, RetryPolicy::default(), "seed=1,dup=1.0");
    for _ in 0..10 {
        assert!(push_one(&mut c, key, &[1.0, 0.0], 1.0).unwrap());
    }
    // The last push's duplicate may still be in flight when its response
    // arrives; frames on one connection are served in order, so a trailing
    // round trip guarantees the server has processed every duplicate.
    pull_one(&mut c, key).unwrap();
    assert_eq!(ps.traffic().snapshot().1, 10, "store saw each push once");
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), 10);
    assert_eq!(metrics.counter("rpc_push_deduped_total").get(), 10);
    // 10 duplicated pushes plus the duplicated trailing pull.
    assert_eq!(metrics.counter("rpc_faults_duplicated_total").get(), 11);
    // The duplicate responses were recognized as stale and discarded.
    assert!(metrics.counter("rpc_stale_responses_total").get() >= 9);
}

#[test]
fn lost_responses_retry_without_double_applying() {
    let (server, ps, metrics) = harness(2);
    let key = ParamKey::new(0, 0);
    ps.init_row(key, vec![0.0, 0.0]);
    // Half the responses vanish after the server processed the request:
    // the client retries the same sequence number and the server answers
    // from its dedup state instead of re-applying.
    let mut c = faulted_client(
        &server,
        4,
        &metrics,
        RetryPolicy { base_backoff_micros: 10, ..Default::default() },
        "seed=2,drop_recv=0.3",
    );
    for _ in 0..40 {
        push_one(&mut c, key, &[1.0, 0.0], 1.0).unwrap();
    }
    assert_eq!(ps.traffic().snapshot().1, 40, "exactly one application per logical push");
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), 40);
    let deduped = metrics.counter("rpc_push_deduped_total").get();
    let retries = metrics.counter("rpc_retries_total").get();
    assert!(deduped > 0, "some retries must have hit the dedup path");
    assert_eq!(retries, metrics.counter("rpc_faults_dropped_total").get());
}

#[test]
fn injected_disconnect_reconnects_and_recovers() {
    let (server, ps, metrics) = harness(2);
    let key = ParamKey::new(0, 0);
    ps.init_row(key, vec![5.0, 5.0]);
    let mut c = faulted_client(
        &server,
        5,
        &metrics,
        RetryPolicy { base_backoff_micros: 10, ..Default::default() },
        "seed=3,disconnect=1+3",
    );
    for _ in 0..6 {
        assert_eq!(pull_one(&mut c, key).unwrap().0, vec![5.0, 5.0]);
    }
    assert_eq!(metrics.counter("rpc_faults_disconnects_total").get(), 2);
    // Initial connect plus one reconnect per injected disconnect.
    assert_eq!(metrics.counter("rpc_connects_total").get(), 3);
    assert_eq!(metrics.counter("rpc_retries_total").get(), 2);
}

#[test]
fn unsendable_requests_exhaust_the_retry_budget() {
    let (server, ps, metrics) = harness(2);
    let key = ParamKey::new(0, 0);
    ps.init_row(key, vec![0.0, 0.0]);
    let mut c = faulted_client(
        &server,
        6,
        &metrics,
        RetryPolicy { max_attempts: 3, base_backoff_micros: 10, ..Default::default() },
        "seed=4,drop_send=1.0",
    );
    match pull_one(&mut c, key) {
        Err(RpcError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected exhaustion, got {other:?}"),
    }
    assert_eq!(metrics.counter("rpc_retries_total").get(), 2);
    assert_eq!(metrics.counter("rpc_timeouts_total").get(), 3);
    // Nothing ever reached the server.
    assert_eq!(ps.traffic().snapshot().0, 0);
}

#[test]
fn batched_pull_and_push_roundtrip_with_chunked_accounting() {
    let (server, ps, metrics) = harness(2);
    let keys: Vec<ParamKey> = (0..5).map(|i| ParamKey::new(0, i)).collect();
    for (i, &k) in keys.iter().enumerate() {
        ps.init_row(k, vec![i as f32, 0.0]);
    }
    let mut c = client(&server, 1, &metrics);

    match c.call(Request::PullMany { keys: keys.clone() }).unwrap() {
        Response::PullMany { versions, values } => {
            assert_eq!(versions, vec![0; 5]);
            for (i, row) in values.chunks(2).enumerate() {
                assert_eq!(row, &[i as f32, 0.0]);
            }
        }
        other => panic!("unexpected response {other:?}"),
    }
    // The whole batch rode one frame and counted as one store pull.
    assert_eq!(ps.traffic().snapshot().0, 1);

    // One PushMany applies every row under a single sequence number.
    let grads: Vec<f32> = keys.iter().flat_map(|_| [1.0, -1.0]).collect();
    match c.call(Request::PushMany { lr: 1.0, keys: keys.clone(), grads }).unwrap() {
        Response::PushMany { applied } => assert!(applied),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(ps.traffic().snapshot().1, 5, "one per-row application per batch row");
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), 5);
    assert!(keys.iter().all(|&k| ps.version(k) == 1), "every row bumped once");
}

#[test]
fn a_frame_with_the_retired_probe_bit_is_refused_untouched() {
    let (server, ps, metrics) = harness(2);
    let key = ParamKey::new(0, 3);
    ps.init_row(key, vec![1.0, -1.0]);
    ps.push_delta(key, &[1.0, 0.0]);
    let before = ps.traffic().snapshot();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut send = |flags: u8, seq: u64| {
        let payload = PullManyReq { keys: vec![key] }.encode();
        let frame = Frame { opcode: OpCode::PullMany, flags, seq, payload };
        stream.write_all(&frame.to_bytes()).unwrap();
        Frame::decode(&mut stream).unwrap()
    };
    // Bit 0 was the version-only probe: its frame layout is still a valid
    // `PullMany`, but the server answers it with a typed error.
    let refused = send(0b0000_0001, 7);
    assert_eq!((refused.opcode, refused.seq), (OpCode::Error, 7));
    assert!(decode_error(&refused.payload).contains("flags"), "{}", decode_error(&refused.payload));
    assert_eq!(ps.traffic().snapshot(), before, "a refused frame reads nothing");
    assert_eq!(ps.version(key), 1);
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), 0);
    // The connection survives and answers the next, well-formed request.
    let ok = send(0, 8);
    assert_eq!((ok.opcode, ok.seq), (OpCode::PullManyOk, 8));
    let rows = PullManyResp::decode(&ok.payload).unwrap();
    assert_eq!((rows.versions, rows.values), (vec![1], vec![2.0, -1.0]));
    assert_eq!(ps.traffic().snapshot().0, before.0 + 1);
}

#[test]
fn batched_push_retries_dedup_the_whole_batch() {
    let (server, ps, metrics) = harness(2);
    let keys: Vec<ParamKey> = (0..4).map(|i| ParamKey::new(0, i)).collect();
    for &k in &keys {
        ps.init_row(k, vec![0.0, 0.0]);
    }
    // Every response vanishes once: each logical PushMany is sent twice
    // (original + retry) and the server must apply its rows exactly once,
    // deduplicating the retry as a unit.
    let mut c = faulted_client(
        &server,
        7,
        &metrics,
        RetryPolicy { base_backoff_micros: 10, ..Default::default() },
        "seed=5,drop_recv=0.5",
    );
    let mut sent_rows = 0u64;
    for _ in 0..10 {
        let grads: Vec<f32> = keys.iter().flat_map(|_| [1.0, 0.0]).collect();
        let resps =
            c.call_many(vec![Request::PushMany { lr: 1.0, keys: keys.clone(), grads }]).unwrap();
        assert_eq!(resps.len(), 1);
        sent_rows += keys.len() as u64;
    }
    assert_eq!(ps.traffic().snapshot().1, sent_rows, "each batch row applied exactly once");
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), sent_rows);
    let deduped = metrics.counter("rpc_push_deduped_total").get();
    assert!(deduped > 0, "some retried batches must have hit the dedup path");
    assert_eq!(deduped % keys.len() as u64, 0, "dedup counts whole batches");
}

#[test]
fn pipelining_depth_changes_scheduling_not_results() {
    let run = |depth: usize| {
        let (server, ps, metrics) = harness(2);
        let keys: Vec<ParamKey> = (0..6).map(|i| ParamKey::new(i % 4, i)).collect();
        for &k in &keys {
            ps.init_row(k, vec![1.0, 1.0]);
        }
        let policy = RetryPolicy { pipeline_depth: depth, ..Default::default() };
        let mut c = WorkerClient::new(server.addr(), 2, policy, None, Arc::clone(&metrics));
        let reqs: Vec<Request> = keys
            .iter()
            .map(|&k| Request::PushMany { lr: 0.5, keys: vec![k], grads: vec![1.0, -1.0] })
            .collect();
        c.call_many(reqs).unwrap();
        let pulls = c.call_many(vec![Request::PullMany { keys: keys.clone() }]).unwrap();
        let values = match &pulls[0] {
            Response::PullMany { values, .. } => values.clone(),
            other => panic!("unexpected response {other:?}"),
        };
        let frames = metrics.counter("rpc_frames_total").get();
        (values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), ps.traffic().snapshot(), frames)
    };
    // Depth 1 serializes every request; depth 8 keeps the window full.
    // Same requests, same sequence numbers, same store mutations — the
    // depth only changes when frames sit on the wire.
    assert_eq!(run(1), run(8));
}

#[test]
fn window_aborts_sends_after_an_injected_disconnect_preserving_order() {
    let (server, ps, metrics) = harness(2);
    let keys: Vec<ParamKey> = (0..8).map(|i| ParamKey::new(0, i)).collect();
    for &k in &keys {
        ps.init_row(k, vec![0.0, 0.0]);
    }
    // The third request of the pipelined window hits a disconnect: the
    // send loop must stop there (a later-seq frame reaching the server
    // first would poison the highest-seq dedup for the earlier ones) and
    // the sequential path must finish everything in request order.
    let mut c = faulted_client(
        &server,
        8,
        &metrics,
        RetryPolicy { base_backoff_micros: 10, ..Default::default() },
        "seed=6,disconnect=2",
    );
    let reqs: Vec<Request> = keys
        .iter()
        .map(|&k| Request::PushMany { lr: 1.0, keys: vec![k], grads: vec![1.0, 0.0] })
        .collect();
    let resps = c.call_many(reqs).unwrap();
    assert_eq!(resps.len(), keys.len());
    assert_eq!(metrics.counter("rpc_faults_disconnects_total").get(), 1);
    assert_eq!(ps.traffic().snapshot().1, keys.len() as u64, "every push applied exactly once");
    assert_eq!(metrics.counter("rpc_push_applied_total").get(), keys.len() as u64);
    assert_eq!(metrics.counter("rpc_push_deduped_total").get(), 0);
}

#[test]
fn barrier_releases_all_workers_and_dedups_retried_arrivals() {
    let (server, _ps, metrics) = harness(2);
    let n = 4u32;
    let arrived: Vec<_> = std::thread::scope(|scope| {
        (0..n)
            .map(|w| {
                let metrics = Arc::clone(&metrics);
                let addr = server.addr();
                scope.spawn(move || {
                    let mut c =
                        WorkerClient::new(addr, w + 1, RetryPolicy::default(), None, metrics);
                    // Stagger arrivals so the barrier genuinely blocks.
                    std::thread::sleep(std::time::Duration::from_millis(5 * w as u64));
                    c.barrier(1, n).unwrap();
                    std::time::Instant::now()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    // Everyone was released at (nearly) the same instant: after the last
    // arrival, not at their own.
    let first = arrived.iter().min().unwrap();
    let last = arrived.iter().max().unwrap();
    assert!(last.duration_since(*first).as_millis() < 200);
}

#[test]
fn checkpoint_rpc_writes_a_loadable_snapshot() {
    let dim = 2;
    let ps = Arc::new(ParameterServer::new(4, dim));
    ps.init_row(ParamKey::new(0, 0), vec![1.5, -2.5]);
    let metrics = Arc::new(MetricsRegistry::new());
    let dir = std::env::temp_dir().join(format!("mamdr-rpc-ckpt-{}", std::process::id()));
    let server = PsServer::bind(
        "127.0.0.1:0",
        Arc::clone(&ps),
        dim,
        Arc::clone(&metrics),
        Some(dir.clone()),
        None,
    )
    .unwrap();
    let mut c = client(&server, 1, &metrics);
    let path = c.checkpoint(3).unwrap();
    assert!(path.ends_with("ckpt-0000000003.mamdrps"), "{path}");
    let restored = mamdr_ps::checkpoint::load_from_path(std::path::Path::new(&path)).unwrap();
    assert_eq!(restored.read_silent(ParamKey::new(0, 0)).unwrap(), vec![1.5, -2.5]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_drain_stops_accepting_and_joins() {
    let (server, _ps, metrics) = harness(2);
    let addr = server.addr();
    let mut c = client(&server, 1, &metrics);
    c.shutdown().unwrap();
    assert!(server.is_draining());
    drop(c);
    server.join();
    // The listener is gone: a fresh connection must fail.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(300)).is_err()
    );
}
