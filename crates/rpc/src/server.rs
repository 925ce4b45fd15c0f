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
//! * **Graceful drain.** `Shutdown` stops the accept loop; existing
//!   connections keep being served until their clients hang up, then
//!   [`PsServer::join`] returns. The loop blocks in `accept`, so a drain
//!   wakes it with one connection of its own, which the loop drops.
//! * **Bounded descriptors.** A connection is forgotten the moment its
//!   client hangs up: its registry entry (the stream clone a kill tears
//!   down) is removed and its thread handle reaped, so a long run holds
//!   descriptors for the connections that are open, not for every one it
//!   ever accepted. Running out of descriptors anyway (EMFILE, ENFILE) or a
//!   connection aborted before it was accepted (ECONNABORTED) is counted in
//!   `rpc_accept_errors_total`, and the accept loop backs off and keeps
//!   accepting; `rpc_open_connections` is the live count.
//!
//! Every frame in or out is counted (`rpc_frames_total`,
//! `rpc_bytes_in_total`, `rpc_bytes_out_total`), and push dedup is visible
//! as `rpc_push_applied_total` / `rpc_push_deduped_total`.

use crate::frame::{
    encode_error, CheckpointReq, Frame, FrameError, OpCode, PullManyReq, PullManyResp, PushManyReq,
    PushResp, TraceContext, TRACE_EXT_LEN,
};
use mamdr_obs::{MetricsRegistry, SpanContext, Tracer};
use mamdr_ps::{checkpoint, ParameterServer};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept errors that say "not now" rather than "never": out of
/// descriptors, per process (EMFILE) or system-wide (ENFILE), or a peer
/// that gave up while queued (ECONNABORTED). The errno values are the
/// same on Linux, macOS and the BSDs.
fn accept_error_is_transient(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    e.kind() == std::io::ErrorKind::ConnectionAborted
        || matches!(e.raw_os_error(), Some(ENFILE | EMFILE))
}

/// How long the accept loop waits after a transient accept error — long
/// enough for hung-up connections to hand their descriptors back.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

struct Inner {
    /// The bound address, which a drain connects to so that the accept
    /// loop wakes.
    addr: SocketAddr,
    ps: Arc<ParameterServer>,
    dim: usize,
    metrics: Arc<MetricsRegistry>,
    /// Highest applied push sequence per client id.
    last_push_seq: Mutex<HashMap<u32, u64>>,
    draining: AtomicBool,
    /// Every open connection's stream, by connection id, cloned so a kill
    /// can tear the sockets down under the blocked connection threads. A
    /// connection's entry is removed when its thread finishes serving it.
    conns: Mutex<HashMap<u64, TcpStream>>,
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
        let inner = Arc::new(Inner {
            addr,
            ps,
            dim,
            metrics,
            last_push_seq: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            shard_label,
            checkpoint_dir,
            tracer,
        });
        let m = &inner.metrics;
        m.describe(
            "rpc_accept_errors_total",
            "Accept failures the loop backed off from (EMFILE, ENFILE, ECONNABORTED).",
        );
        m.describe("rpc_open_connections", "Client connections the PS front ends are serving now.");
        m.counter("rpc_accept_errors_total");
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            let open = accept_inner.metrics.gauge("rpc_open_connections");
            let mut next_id = 0u64;
            loop {
                match listener.accept() {
                    // The drain's wake-up (or a client that came with it),
                    // or an accept that failed once draining — out of
                    // descriptors, the wake-up may never be accepted.
                    _ if accept_inner.draining.load(Ordering::SeqCst) => break,
                    Ok((stream, _)) => {
                        // Reap the threads of connections that hung up, so
                        // the list holds only open ones (a finished thread's
                        // result is ignored, as in the drain below).
                        for done in conns.extract_if(.., |c| c.is_finished()) {
                            let _ = done.join();
                        }
                        let id = next_id;
                        next_id += 1;
                        if let Ok(clone) = stream.try_clone() {
                            accept_inner
                                .conns
                                .lock()
                                .expect("conn registry lock")
                                .insert(id, clone);
                        }
                        open.add(1.0);
                        let (conn_inner, open) = (Arc::clone(&accept_inner), open.clone());
                        conns.push(std::thread::spawn(move || {
                            serve_conn(stream, &conn_inner);
                            conn_inner.conns.lock().expect("conn registry lock").remove(&id);
                            open.add(-1.0);
                        }));
                    }
                    Err(e) if accept_error_is_transient(&e) => {
                        accept_inner.metrics.counter("rpc_accept_errors_total").inc();
                        std::thread::sleep(ACCEPT_BACKOFF);
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
        self.inner.begin_drain();
    }

    /// Kills the shard *hard*, simulating a server-machine death: every
    /// open connection's socket is shut down under its thread (in-flight
    /// requests fail mid-read or mid-write, nothing is drained), the accept
    /// loop stops, and the call returns once every server thread has
    /// exited. Unlike the graceful drain there is no goodbye on the wire —
    /// clients observe exactly what a crashed machine looks like:
    /// connection reset.
    pub fn kill(mut self) {
        self.begin_drain();
        for (_, conn) in self.inner.conns.lock().expect("conn registry lock").drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Inner {
    /// Sets the drain flag and wakes the accept loop blocked in `accept`
    /// by connecting to it — over loopback when the bound address is
    /// unspecified. A loop that already exited refuses the connection,
    /// which is as good.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let v4 = wake.is_ipv4();
            wake.set_ip(if v4 { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
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
        // One buffer, one `write_all`: on a `TCP_NODELAY` socket a frame
        // written field by field would be four sends.
        let buf = match &inner.tracer {
            Some(t) => {
                let t0 = std::time::Instant::now();
                let buf = resp.to_bytes();
                t.record_phase("wire.encode", t0.elapsed());
                buf
            }
            None => resp.to_bytes(),
        };
        if stream.write_all(&buf).is_err() || stream.flush().is_err() {
            return;
        }
    }
}

/// Dispatches one request frame to the store. The response echoes the
/// request's sequence number. The frame arrives with its trace extension
/// stripped, so any flag bit still set is one no request defines (bit 0 is
/// the retired version-only probe): the frame is refused with an `Error`
/// before anything is read, applied or counted.
fn handle(req: &Frame, inner: &Inner) -> Frame {
    let seq = req.seq;
    let error = |msg: String| Frame::new(OpCode::Error, seq, encode_error(&msg));
    if req.flags != 0 {
        return error(format!("unsupported frame flags {:#010b}", req.flags));
    }
    match req.opcode {
        OpCode::PullMany => match PullManyReq::decode(&req.payload) {
            // One batched store read, one lookup per key, already in the
            // response's flat layout: counts a single pull per wire chunk,
            // keeping the traffic counter identical to the in-process
            // trainer's, and nothing at all when a key is missing.
            Ok(pull) => match inner.ps.pull_flat(&pull.keys) {
                Ok((versions, values)) => {
                    Frame::new(OpCode::PullManyOk, seq, PullManyResp { versions, values }.encode())
                }
                Err(key) => error(format!("pull of uninitialized key {key:?}")),
            },
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
                // Exactly-once for the *whole batch*: the frame carries one
                // sequence number, so a retry of a partially lost response
                // dedups the entire row set as a unit — either every row
                // was applied under this seq or none was. The store applies
                // the batch under one lock, or refuses all of it.
                let mut last = inner.last_push_seq.lock().expect("push-seq lock");
                let applied = match last.get(&push.client_id) {
                    Some(&prev) if seq <= prev => false,
                    _ => {
                        if let Err(key) =
                            inner.ps.push_outer_grads(&push.keys, &push.grads, push.lr)
                        {
                            return error(format!("push to uninitialized key {key:?}"));
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
            inner.begin_drain();
            Frame::new(OpCode::ShutdownOk, seq, Vec::new())
        }
        // Response op-codes arriving as requests are protocol violations.
        other => error(format!("unexpected request op-code {other:?}")),
    }
}
