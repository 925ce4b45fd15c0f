//! The networked parameter server: a thread-per-connection TCP front end
//! over the in-process [`ParameterServer`] store.
//!
//! Responsibilities beyond plain request dispatch:
//!
//! * **Exactly-once pushes.** Clients send pushes with monotonically
//!   increasing sequence numbers; the server remembers the highest applied
//!   sequence per client and applies a push only when its sequence is new.
//!   A retried or duplicated push frame is acknowledged (`applied: false`)
//!   without touching the store. The check-and-apply holds one lock, so
//!   the guarantee survives concurrent connections.
//! * **Round barriers.** `BarrierSync` blocks its connection thread until
//!   the expected number of *distinct* clients has arrived at the round —
//!   arrival is a set insert, so a retried arrival cannot double-count.
//! * **Graceful drain.** `Shutdown` stops the accept loop; existing
//!   connections keep being served until their clients hang up, then
//!   [`PsServer::join`] returns.
//!
//! Every frame in or out is counted (`rpc_frames_total`,
//! `rpc_bytes_in_total`, `rpc_bytes_out_total`), and push dedup is visible
//! as `rpc_push_applied_total` / `rpc_push_deduped_total`.

use crate::frame::{
    encode_error, BarrierReq, CheckpointReq, Frame, FrameError, OpCode, PullManyReq, PullManyResp,
    PushManyReq, PushResp, TraceContext, FLAG_VERSION_ONLY, TRACE_EXT_LEN,
};
use mamdr_obs::{MetricsRegistry, SpanContext, Tracer};
use mamdr_ps::{checkpoint, ParameterServer};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Inner {
    ps: Arc<ParameterServer>,
    dim: usize,
    metrics: Arc<MetricsRegistry>,
    /// Highest applied push sequence per client id.
    last_push_seq: Mutex<HashMap<u32, u64>>,
    /// Distinct clients arrived at each barrier round.
    barrier: Mutex<HashMap<u64, HashSet<u32>>>,
    barrier_cv: Condvar,
    draining: AtomicBool,
    /// Set by [`PsServer::kill`]: the shard died hard. Barrier waiters
    /// abort instead of waiting for arrivals that can never come.
    killed: AtomicBool,
    /// Every accepted connection's stream, cloned so a kill can tear the
    /// sockets down under the blocked connection threads.
    conns: Mutex<Vec<TcpStream>>,
    /// Server-shard id when this front end is one of several; frames it
    /// serves are additionally counted as `rpc_frames_total{shard="i"}`.
    shard_label: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    /// When present, each traced request's handling is recorded as a span
    /// parented to the client-side logical span carried in the frame's
    /// trace extension.
    tracer: Option<Arc<Tracer>>,
}

/// The TCP parameter-server front end.
pub struct PsServer {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl PsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop. The store is shared — the driver keeps direct access
    /// for evaluation and checkpoint comparison.
    pub fn bind(
        addr: &str,
        ps: Arc<ParameterServer>,
        dim: usize,
        metrics: Arc<MetricsRegistry>,
        checkpoint_dir: Option<PathBuf>,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<Self> {
        Self::bind_shard(addr, ps, dim, metrics, checkpoint_dir, tracer, None)
    }

    /// [`PsServer::bind`] for one shard of a sharded deployment: frames
    /// this server handles are additionally counted under
    /// `rpc_frames_total{shard="<label>"}` (the unlabeled total still
    /// moves, so single-server dashboards and CI pins keep working).
    pub fn bind_shard(
        addr: &str,
        ps: Arc<ParameterServer>,
        dim: usize,
        metrics: Arc<MetricsRegistry>,
        checkpoint_dir: Option<PathBuf>,
        tracer: Option<Arc<Tracer>>,
        shard_label: Option<usize>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking so the accept loop can observe the drain flag.
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            ps,
            dim,
            metrics,
            last_push_seq: Mutex::new(HashMap::new()),
            barrier: Mutex::new(HashMap::new()),
            barrier_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            shard_label,
            checkpoint_dir,
            tracer,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                if accept_inner.draining.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(clone) = stream.try_clone() {
                            accept_inner.conns.lock().expect("conn registry lock").push(clone);
                        }
                        let conn_inner = Arc::clone(&accept_inner);
                        conns.push(std::thread::spawn(move || serve_conn(stream, &conn_inner)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    Err(_) => break,
                }
            }
            // Drain: wait for every open connection to finish.
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(PsServer { addr, inner, accept: Some(accept) })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<ParameterServer> {
        &self.inner.ps
    }

    /// Waits for the accept loop (and every connection it spawned) to
    /// finish. Returns immediately useful only after a `Shutdown` request
    /// and the clients disconnecting.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// True once a `Shutdown` request was processed.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain directly, bypassing the `Shutdown` RPC — the
    /// fallback the trainer uses when the drain request itself fails, so a
    /// dead wire can never wedge [`PsServer::join`].
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Kills the shard *hard*, simulating a server-machine death: every
    /// open connection's socket is shut down under its thread (in-flight
    /// requests fail mid-read or mid-write, nothing is drained), barrier
    /// waiters are woken to abort, the accept loop stops, and the call
    /// returns once every server thread has exited. Unlike the graceful
    /// drain there is no goodbye on the wire — clients observe exactly
    /// what a crashed machine looks like: connection reset.
    pub fn kill(mut self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        // Take the barrier lock before notifying: a waiter is either
        // holding it (it will re-check `killed` before waiting again) or
        // blocked in `wait` (the notification reaches it) — the flag can
        // never slip between a waiter's check and its sleep.
        {
            let _rounds = self.inner.barrier.lock().expect("barrier lock");
            self.inner.barrier_cv.notify_all();
        }
        for conn in self.inner.conns.lock().expect("conn registry lock").drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Span name of a server-side request handling, by op-code.
fn server_span_name(op: OpCode) -> &'static str {
    match op {
        OpCode::PullMany => "server.pull",
        // The push handler's job is applying the update to the store;
        // this is the span the issue's "worker pull/push parents server
        // apply" contract names.
        OpCode::PushMany => "server.apply",
        OpCode::BarrierSync => "server.barrier",
        OpCode::Checkpoint => "server.checkpoint",
        OpCode::Shutdown => "server.shutdown",
        _ => "server.request",
    }
}

/// Serves one client connection until EOF, error, or drain + hangup.
fn serve_conn(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let m = &inner.metrics;
    loop {
        let decoded = match &inner.tracer {
            Some(t) => Frame::decode_timed(&mut stream).map(|(f, d)| {
                t.record_phase("wire.decode", d);
                f
            }),
            None => Frame::decode(&mut stream),
        };
        let mut req = match decoded {
            Ok(f) => f,
            // EOF is the clean hangup; a reset is the same hangup when the
            // peer closed with undrained bytes (e.g. a pipelining client
            // that abandoned in-flight responses) — neither is a protocol
            // violation, so neither counts as a bad frame.
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::UnexpectedEof
                    || e.kind() == std::io::ErrorKind::ConnectionReset =>
            {
                return
            }
            Err(_) => {
                // Undecodable bytes: the stream cannot be resynchronized,
                // so count and hang up; the client reconnects and retries.
                m.counter("rpc_frames_bad_total").inc();
                return;
            }
        };
        // Strip the trace extension *before* any accounting or dispatch:
        // from here on the frame is byte-identical to its untraced form,
        // so `rpc_bytes_in_total` (and every payload codec) sees the same
        // bytes with tracing on or off. Extension traffic is visible
        // separately as `rpc_trace_bytes_total`.
        let trace_ctx = match req.take_trace_context() {
            Ok(ctx) => ctx,
            Err(_) => {
                m.counter("rpc_frames_bad_total").inc();
                return;
            }
        };
        if trace_ctx.is_some() {
            m.counter("rpc_trace_bytes_total").add(TRACE_EXT_LEN as u64);
        }
        m.counter("rpc_frames_total").inc();
        if let Some(shard) = inner.shard_label {
            m.counter(&format!("rpc_frames_total{{shard=\"{shard}\"}}")).inc();
        }
        m.counter("rpc_bytes_in_total").add(req.wire_len() as u64);
        let span = match (&inner.tracer, trace_ctx) {
            (Some(t), Some(TraceContext { trace_id, span_id })) => {
                let mut span =
                    t.child(server_span_name(req.opcode), SpanContext { trace_id, span_id });
                span.attr("seq", req.seq);
                Some(span)
            }
            _ => None,
        };
        let resp = handle(&req, inner);
        if let Some(mut span) = span {
            if resp.opcode == OpCode::PushManyOk {
                // `applied: false` means the exactly-once path recognized
                // a retransmission — visible in the trace as a deduped
                // sibling attempt under the same logical push span.
                span.attr("deduped", (resp.payload == [0u8]) as u64);
            }
            span.finish();
        }
        m.counter("rpc_bytes_out_total").add(resp.wire_len() as u64);
        let write_ok = match &inner.tracer {
            Some(t) => {
                let t0 = std::time::Instant::now();
                let buf = resp.to_bytes();
                t.record_phase("wire.encode", t0.elapsed());
                stream.write_all(&buf).is_ok()
            }
            None => resp.encode(&mut stream).is_ok(),
        };
        if !write_ok || stream.flush().is_err() {
            return;
        }
    }
}

/// Dispatches one request frame to the store. The response echoes the
/// request's sequence number.
fn handle(req: &Frame, inner: &Inner) -> Frame {
    let seq = req.seq;
    let error = |msg: String| Frame::new(OpCode::Error, seq, encode_error(&msg));
    match req.opcode {
        OpCode::PullMany => match PullManyReq::decode(&req.payload) {
            Ok(pull) => {
                if req.flags & FLAG_VERSION_ONLY != 0 {
                    // Silent observability probe, batched: one frame carries
                    // every version, no value bytes, no traffic accounting.
                    let versions = pull.keys.iter().map(|&k| inner.ps.version(k)).collect();
                    let payload = PullManyResp { versions, values: Vec::new() }.encode();
                    return Frame::new(OpCode::PullManyOk, seq, payload);
                }
                if let Some(key) = inner.ps.first_missing(&pull.keys) {
                    return error(format!("pull of uninitialized key {key:?}"));
                }
                // One batched store read: counts a single pull per wire
                // chunk, keeping the traffic counter identical to the
                // in-process trainer's.
                let rows = inner.ps.pull_batch(&pull.keys);
                let mut versions = Vec::with_capacity(rows.len());
                let mut values = Vec::with_capacity(rows.len() * inner.dim);
                for (value, version) in rows {
                    versions.push(version);
                    values.extend_from_slice(&value);
                }
                Frame::new(OpCode::PullManyOk, seq, PullManyResp { versions, values }.encode())
            }
            Err(e) => error(format!("bad pull-many payload: {e}")),
        },
        OpCode::PushMany => match PushManyReq::decode(&req.payload) {
            Ok(push) => {
                if push.grads.len() != push.keys.len() * inner.dim {
                    return error(format!(
                        "push-many grad width mismatch: {} grads for {} keys of dim {}",
                        push.grads.len(),
                        push.keys.len(),
                        inner.dim
                    ));
                }
                if let Some(key) = inner.ps.first_missing(&push.keys) {
                    return error(format!("push to uninitialized key {key:?}"));
                }
                // Exactly-once for the *whole batch*: the frame carries one
                // sequence number, so a retry of a partially lost response
                // dedups the entire row set as a unit — either every row
                // was applied under this seq or none was.
                let mut last = inner.last_push_seq.lock().expect("push-seq lock");
                let applied = match last.get(&push.client_id) {
                    Some(&prev) if seq <= prev => false,
                    _ => {
                        for (key, grad) in push.keys.iter().zip(push.grads.chunks(inner.dim)) {
                            inner.ps.push_outer_grad(*key, grad, push.lr);
                        }
                        last.insert(push.client_id, seq);
                        true
                    }
                };
                drop(last);
                let name =
                    if applied { "rpc_push_applied_total" } else { "rpc_push_deduped_total" };
                inner.metrics.counter(name).add(push.keys.len() as u64);
                Frame::new(OpCode::PushManyOk, seq, PushResp { applied }.encode())
            }
            Err(e) => error(format!("bad push-many payload: {e}")),
        },
        OpCode::BarrierSync => match BarrierReq::decode(&req.payload) {
            Ok(bar) => {
                let mut rounds = inner.barrier.lock().expect("barrier lock");
                rounds.entry(bar.round).or_default().insert(bar.client_id);
                inner.barrier_cv.notify_all();
                while rounds.get(&bar.round).map_or(0, HashSet::len) < bar.expected as usize {
                    if inner.killed.load(Ordering::SeqCst) {
                        // The shard died under us: the remaining arrivals
                        // can never come. (The response rarely reaches the
                        // client — the kill shut the socket down too.)
                        return error("server shard killed".into());
                    }
                    rounds = inner.barrier_cv.wait(rounds).expect("barrier wait");
                }
                Frame::new(OpCode::BarrierOk, seq, Vec::new())
            }
            Err(e) => error(format!("bad barrier payload: {e}")),
        },
        OpCode::Checkpoint => match CheckpointReq::decode(&req.payload) {
            Ok(ck) => match &inner.checkpoint_dir {
                Some(dir) => match checkpoint::save_to_dir(&inner.ps, inner.dim, dir, ck.round) {
                    Ok(path) => Frame::new(
                        OpCode::CheckpointOk,
                        seq,
                        path.to_string_lossy().into_owned().into_bytes(),
                    ),
                    Err(e) => error(format!("checkpoint failed: {e}")),
                },
                None => error("server has no checkpoint directory".into()),
            },
            Err(e) => error(format!("bad checkpoint payload: {e}")),
        },
        OpCode::Shutdown => {
            inner.draining.store(true, Ordering::SeqCst);
            Frame::new(OpCode::ShutdownOk, seq, Vec::new())
        }
        // Response op-codes arriving as requests are protocol violations.
        other => error(format!("unexpected request op-code {other:?}")),
    }
}
