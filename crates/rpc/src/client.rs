//! The worker-side RPC client: a typed request/response surface with
//! per-request deadlines, bounded exponential backoff with seeded jitter,
//! reconnect-on-failure, idempotent retries, and request pipelining.
//!
//! Every logical request is assigned one sequence number that is *reused*
//! across its retries. Responses echo the request's sequence number, so a
//! stale response (left over from a duplicated frame or a dropped read) is
//! recognized and discarded instead of being mistaken for the current
//! reply; and the server deduplicates re-sent pushes by `(client, seq)`,
//! which is what makes a retried push exactly-once even when the original
//! was applied but its acknowledgement was lost.
//!
//! All requests flow through one code path: [`WorkerClient::call`] for a
//! single request, [`WorkerClient::call_many`] to pipeline a batch with a
//! bounded in-flight window. The named wrappers (`barrier`, `checkpoint`,
//! `shutdown`) are thin conveniences over [`Request`] values, so
//! pipelining, retry, tracing, and fault injection live in exactly one
//! place. Reads and writes are batch-only: a single row is a one-key
//! `PullMany`/`PushMany`.

use crate::fault::{FaultDecision, FaultState};
use crate::frame::{
    decode_error, BarrierReq, CheckpointReq, Frame, FrameError, OpCode, PullManyReq, PullManyResp,
    PushManyReq, PushResp, TraceContext, FLAG_VERSION_ONLY,
};
use mamdr_obs::{MetricsRegistry, SpanContext, SpanGuard, Tracer};
use mamdr_ps::{ParamKey, RowSource, ShardMap, WIRE_BATCH_KEYS};
use mamdr_tensor::rng::{derive_seed, seeded};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry and deadline policy of a [`WorkerClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per logical request before giving up.
    pub max_attempts: u32,
    /// First backoff interval; doubles per retry.
    pub base_backoff_micros: u64,
    /// Backoff ceiling.
    pub max_backoff_micros: u64,
    /// Read/write deadline of ordinary requests.
    pub timeout: Duration,
    /// Read deadline of barrier waits, which legitimately block until the
    /// slowest worker arrives — far longer than any ordinary round trip.
    pub barrier_timeout: Duration,
    /// In-flight window of [`WorkerClient::call_many`]: how many requests
    /// may be on the wire before the client starts reading responses.
    /// Depth 1 degenerates to strictly sequential request/response.
    pub pipeline_depth: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 10,
            base_backoff_micros: 100,
            max_backoff_micros: 50_000,
            timeout: Duration::from_secs(5),
            barrier_timeout: Duration::from_secs(300),
            pipeline_depth: 8,
        }
    }
}

/// A typed request to the parameter server — the single client-side
/// vocabulary behind [`WorkerClient::call`] / [`WorkerClient::call_many`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Read many rows in one frame. Keys should be `(table, row)`-sorted.
    PullMany {
        /// The rows to read.
        keys: Vec<ParamKey>,
    },
    /// Read many rows' push versions in one frame (silent server-side).
    PullVersions {
        /// The rows to probe.
        keys: Vec<ParamKey>,
    },
    /// Apply many outer-gradient rows atomically under one sequence
    /// number. Keys should be `(table, row)`-sorted; `grads` holds the
    /// concatenated per-row gradients in key order.
    PushMany {
        /// Server-side Adagrad learning rate.
        lr: f32,
        /// The rows to update.
        keys: Vec<ParamKey>,
        /// Concatenated gradients, `keys.len() * dim` values.
        grads: Vec<f32>,
    },
    /// Block until `expected` distinct clients reached `round`.
    Barrier {
        /// The round boundary.
        round: u64,
        /// Distinct clients required for release.
        expected: u32,
    },
    /// Ask the server to write a checkpoint labelled `round`.
    Checkpoint {
        /// Round label.
        round: u64,
    },
    /// Begin the server's graceful drain.
    Shutdown,
}

impl Request {
    /// The request's op-code and the op-code of its success response.
    fn opcodes(&self) -> (OpCode, OpCode) {
        match self {
            Request::PullMany { .. } | Request::PullVersions { .. } => {
                (OpCode::PullMany, OpCode::PullManyOk)
            }
            Request::PushMany { .. } => (OpCode::PushMany, OpCode::PushManyOk),
            Request::Barrier { .. } => (OpCode::BarrierSync, OpCode::BarrierOk),
            Request::Checkpoint { .. } => (OpCode::Checkpoint, OpCode::CheckpointOk),
            Request::Shutdown => (OpCode::Shutdown, OpCode::ShutdownOk),
        }
    }

    fn flags(&self) -> u8 {
        match self {
            Request::PullVersions { .. } => FLAG_VERSION_ONLY,
            _ => 0,
        }
    }

    fn payload(&self, client_id: u32) -> Vec<u8> {
        match self {
            Request::PullMany { keys } | Request::PullVersions { keys } => {
                PullManyReq { keys: keys.clone() }.encode()
            }
            Request::PushMany { lr, keys, grads } => {
                PushManyReq { client_id, lr: *lr, keys: keys.clone(), grads: grads.clone() }
                    .encode()
            }
            Request::Barrier { round, expected } => {
                BarrierReq { client_id, round: *round, expected: *expected }.encode()
            }
            Request::Checkpoint { round } => CheckpointReq { round: *round }.encode(),
            Request::Shutdown => Vec::new(),
        }
    }

    fn is_barrier(&self) -> bool {
        matches!(self, Request::Barrier { .. })
    }

    /// Span name of the logical request: a span consumer cares about pull
    /// vs push, not about the frame-level batching.
    fn span_name(&self) -> &'static str {
        match self {
            Request::PullMany { .. } | Request::PullVersions { .. } => "rpc.pull",
            Request::PushMany { .. } => "rpc.push",
            Request::Barrier { .. } => "rpc.barrier",
            Request::Checkpoint { .. } => "rpc.checkpoint",
            Request::Shutdown => "rpc.shutdown",
        }
    }

    /// Decodes (and validates) the server's response frame for this
    /// request. The response op-code must be the request's success
    /// op-code — anything else is a protocol violation.
    fn decode_response(&self, resp: &Frame) -> Result<Response, RpcError> {
        let expect = self.opcodes().1;
        if resp.opcode != expect {
            return Err(RpcError::Frame(FrameError::Malformed(format!(
                "expected {expect:?} response, got {:?}",
                resp.opcode
            ))));
        }
        Ok(match self {
            Request::PullMany { keys } => {
                let r = PullManyResp::decode(&resp.payload)?;
                if r.versions.len() != keys.len() {
                    return Err(RpcError::Frame(FrameError::Malformed(format!(
                        "asked for {} rows, response covers {}",
                        keys.len(),
                        r.versions.len()
                    ))));
                }
                Response::PullMany { versions: r.versions, values: r.values }
            }
            Request::PullVersions { keys } => {
                let r = PullManyResp::decode(&resp.payload)?;
                if r.versions.len() != keys.len() || !r.values.is_empty() {
                    return Err(RpcError::Frame(FrameError::Malformed(format!(
                        "version probe of {} rows answered with {} versions, {} values",
                        keys.len(),
                        r.versions.len(),
                        r.values.len()
                    ))));
                }
                Response::PullVersions { versions: r.versions }
            }
            Request::PushMany { .. } => {
                Response::PushMany { applied: PushResp::decode(&resp.payload)?.applied }
            }
            Request::Barrier { .. } => Response::Barrier,
            Request::Checkpoint { .. } => {
                Response::Checkpoint { path: String::from_utf8_lossy(&resp.payload).into_owned() }
            }
            Request::Shutdown => Response::Shutdown,
        })
    }
}

/// A typed, validated server response — one variant per [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Batched rows: versions and concatenated values in request order.
    PullMany {
        /// Per-key versions.
        versions: Vec<u64>,
        /// Concatenated values, `keys.len() * dim` floats.
        values: Vec<f32>,
    },
    /// Batched version probe result.
    PullVersions {
        /// Per-key versions.
        versions: Vec<u64>,
    },
    /// Batch push acknowledged (the whole batch applied or deduplicated).
    PushMany {
        /// False when the server recognized a duplicate and skipped it.
        applied: bool,
    },
    /// Barrier released.
    Barrier,
    /// Checkpoint written.
    Checkpoint {
        /// Path of the checkpoint file on the server.
        path: String,
    },
    /// Drain acknowledged.
    Shutdown,
}

/// A client-side RPC failure.
#[derive(Debug)]
pub enum RpcError {
    /// Wire-level failure (I/O, corruption, protocol violation).
    Frame(FrameError),
    /// The request's deadline expired (real or injected).
    Timeout,
    /// The connection died; the next attempt reconnects.
    ConnectionLost(String),
    /// The server answered with an `Error` frame.
    Server(String),
    /// Every attempt failed; carries the last failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Description of the final failure.
        last: String,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Frame(e) => write!(f, "frame error: {e}"),
            RpcError::Timeout => write!(f, "request deadline expired"),
            RpcError::ConnectionLost(m) => write!(f, "connection lost: {m}"),
            RpcError::Server(m) => write!(f, "server error: {m}"),
            RpcError::Exhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for RpcError {}

impl From<FrameError> for RpcError {
    fn from(e: FrameError) -> Self {
        RpcError::Frame(e)
    }
}

/// The worker's connection to the parameter server.
pub struct WorkerClient {
    addr: SocketAddr,
    client_id: u32,
    stream: Option<TcpStream>,
    next_seq: u64,
    policy: RetryPolicy,
    fault: Option<FaultState>,
    backoff_rng: StdRng,
    metrics: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    trace_parent: Option<SpanContext>,
}

impl WorkerClient {
    /// A client for `addr`. `client_id` must be unique among concurrent
    /// clients of the same server (it namespaces push deduplication and
    /// barrier arrival). The connection itself is opened lazily on the
    /// first request.
    pub fn new(
        addr: SocketAddr,
        client_id: u32,
        policy: RetryPolicy,
        fault: Option<FaultState>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        WorkerClient {
            addr,
            client_id,
            stream: None,
            next_seq: 0,
            policy,
            fault,
            // The jitter stream is seeded off the client id, not wall time:
            // backoff schedules are reproducible like everything else.
            backoff_rng: seeded(derive_seed(0xBAC0FF, client_id as u64)),
            metrics,
            tracer: None,
            trace_parent: None,
        }
    }

    /// Attaches (or detaches) a tracer. When present, every logical
    /// request opens a span, each network attempt a child span, and
    /// request frames carry the logical span's [`TraceContext`] so the
    /// server side can parent its handling span to it. Never changes what
    /// goes over the wire beyond the trace extension — frame counts,
    /// sequence numbers and fault decisions are identical with or without
    /// it.
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the span under which subsequent logical request spans are
    /// parented (e.g. the current worker-round span). `None` makes each
    /// request a root span of its own trace.
    pub fn set_trace_parent(&mut self, parent: Option<SpanContext>) {
        self.trace_parent = parent;
    }

    /// This client's id.
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// Blocks until `expected` distinct clients have arrived at `round`.
    pub fn barrier(&mut self, round: u64, expected: u32) -> Result<(), RpcError> {
        self.call(Request::Barrier { round, expected })?;
        Ok(())
    }

    /// Asks the server to write a checkpoint; returns its path.
    pub fn checkpoint(&mut self, round: u64) -> Result<String, RpcError> {
        match self.call(Request::Checkpoint { round })? {
            Response::Checkpoint { path } => Ok(path),
            other => unreachable!("Checkpoint answered with {other:?}"),
        }
    }

    /// Starts the server's graceful drain.
    pub fn shutdown(&mut self) -> Result<(), RpcError> {
        self.call(Request::Shutdown)?;
        Ok(())
    }

    /// Assigns `req` its sequence number and builds its frame. When traced,
    /// opens the logical request's span and embeds its context in the frame
    /// before the first send, so every retry re-uses both.
    fn prepare<'t>(
        &mut self,
        req: &Request,
        tracer: Option<&'t Tracer>,
    ) -> (Frame, Option<SpanGuard<'t>>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut frame = Frame {
            opcode: req.opcodes().0,
            flags: req.flags(),
            seq,
            payload: req.payload(self.client_id),
        };
        let logical = tracer.map(|t| {
            let mut span = match self.trace_parent {
                Some(p) => t.child(req.span_name(), p),
                None => t.span(req.span_name()),
            };
            span.attr("seq", seq);
            span
        });
        if let Some(span) = &logical {
            let ctx = span.ctx();
            frame = frame
                .with_trace_context(TraceContext { trace_id: ctx.trace_id, span_id: ctx.span_id });
        }
        (frame, logical)
    }

    /// One logical request: a single sequence number, retried with
    /// exponential backoff until a response arrives or the attempt budget
    /// is spent. When traced, the logical request is one span; every
    /// network attempt (including retries) is a child of it, and the
    /// frame carries the logical span's context so server-side handling
    /// spans parent to it — a retried/deduplicated push shows up as
    /// multiple attempts and multiple server spans under one logical
    /// span.
    pub fn call(&mut self, req: Request) -> Result<Response, RpcError> {
        // Clone the handle so the span guard borrows a local, leaving
        // `self` free for `&mut` attempts.
        let tracer = self.tracer.clone();
        let (frame, logical) = self.prepare(&req, tracer.as_deref());
        let trace_ctx = logical.as_ref().map(|s| s.ctx());
        let resp = self.finish_with_retries(&frame, req.is_barrier(), trace_ctx, None)?;
        req.decode_response(&resp)
    }

    /// Pipelines a batch of requests: up to `pipeline_depth` frames are
    /// on the wire before the client starts reading responses, which are
    /// matched back to their requests by sequence number (the server
    /// answers a connection's frames in order, so completions arrive
    /// seq-ordered). Each request keeps its own sequence number across
    /// retries, so the exactly-once dedup contract is exactly that of
    /// sequential [`WorkerClient::call`]s — including under injected
    /// faults, where any request the window could not complete falls back
    /// to the sequential retry path *in request order* (see
    /// [`WorkerClient::attempt_window`] for why ordering is load-bearing).
    ///
    /// Responses are returned in request order. A server `Error` response
    /// is authoritative and fails the whole call. Barrier requests are
    /// not supported here (their read deadline differs) — use
    /// [`WorkerClient::call`].
    pub fn call_many(&mut self, reqs: Vec<Request>) -> Result<Vec<Response>, RpcError> {
        debug_assert!(!reqs.iter().any(Request::is_barrier), "barriers are not pipelined");
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let depth = self.policy.pipeline_depth.max(1);
        let tracer = self.tracer.clone();
        // Prepare every frame up front, sequence numbers in request order.
        let mut frames = Vec::with_capacity(reqs.len());
        let mut spans = Vec::with_capacity(reqs.len());
        for req in &reqs {
            let (frame, logical) = self.prepare(req, tracer.as_deref());
            frames.push(frame);
            spans.push(logical);
        }
        let ctxs: Vec<Option<SpanContext>> =
            spans.iter().map(|s| s.as_ref().map(|s| s.ctx())).collect();
        let n = reqs.len();
        let mut resolved: Vec<Option<Frame>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<Option<RpcError>> = (0..n).map(|_| None).collect();
        let mut start = 0;
        while start < n {
            let end = (start + depth).min(n);
            self.attempt_window(
                &frames[start..end],
                &ctxs[start..end],
                &mut resolved[start..end],
                &mut failures[start..end],
                1,
                false,
            );
            // Sequential completion of whatever the window could not
            // finish, in request order.
            for i in start..end {
                if resolved[i].is_none() {
                    let first_err = failures[i].take();
                    let resp = self.finish_with_retries(&frames[i], false, ctxs[i], first_err)?;
                    resolved[i] = Some(resp);
                }
            }
            start = end;
        }
        drop(spans);
        let mut out = Vec::with_capacity(n);
        for (req, resp) in reqs.iter().zip(resolved) {
            let resp = resp.expect("every slot resolved above");
            if resp.opcode == OpCode::Error {
                return Err(RpcError::Server(decode_error(&resp.payload)));
            }
            out.push(req.decode_response(&resp)?);
        }
        Ok(out)
    }

    /// Drives one prepared frame to completion: retried with exponential
    /// backoff until a response arrives or the attempt budget is spent.
    /// `window_failure` carries the outcome of a failed pipelined attempt
    /// (which already consumed attempt #1 and its fault draws), so the
    /// retry accounting is identical whether the first attempt ran alone
    /// or inside a window.
    fn finish_with_retries(
        &mut self,
        frame: &Frame,
        barrier: bool,
        trace_ctx: Option<SpanContext>,
        window_failure: Option<RpcError>,
    ) -> Result<Frame, RpcError> {
        let mut attempt = u32::from(window_failure.is_some());
        let mut pending = window_failure;
        loop {
            if let Some(err) = pending.take() {
                if attempt >= self.policy.max_attempts {
                    return Err(RpcError::Exhausted { attempts: attempt, last: err.to_string() });
                }
                self.metrics.counter("rpc_retries_total").inc();
                let backoff = (self.policy.base_backoff_micros << (attempt - 1).min(20))
                    .min(self.policy.max_backoff_micros);
                // Full jitter: a uniform slice of the exponential window,
                // from the client's seeded stream.
                let jittered = self.backoff_rng.gen_range(0..=backoff);
                std::thread::sleep(Duration::from_micros(jittered));
            }
            attempt += 1;
            let (mut resolved, mut failed) = ([None], [None]);
            self.attempt_window(
                std::slice::from_ref(frame),
                &[trace_ctx],
                &mut resolved,
                &mut failed,
                attempt,
                barrier,
            );
            match (resolved, failed) {
                // An application-level refusal is authoritative: the server
                // received the request and rejected it, so retrying cannot
                // change the answer.
                ([Some(resp)], _) if resp.opcode == OpCode::Error => {
                    return Err(RpcError::Server(decode_error(&resp.payload)))
                }
                ([Some(resp)], _) => return Ok(resp),
                (_, [e]) => pending = Some(e.expect("an unresolved attempt records its failure")),
            }
        }
    }

    /// The one network attempt path, over a window of prepared frames: send
    /// every frame back to back (fault dice rolled per request, in send
    /// order — one four-draw decision per attempted request), then read
    /// responses until every sent frame is resolved or the connection
    /// fails. A slot that was attempted but not resolved keeps its error in
    /// `failures` for the caller's sequential retry path; a sequential
    /// retry is itself a window of one, numbered `attempt_no`. `barrier`
    /// selects the long read deadline barrier waits need.
    ///
    /// Ordering is load-bearing: the server's exactly-once dedup keeps
    /// only the *highest* applied sequence number per client, so a
    /// request must never be (re)sent after a later-seq request has been
    /// applied unless it was itself already on the wire (and therefore
    /// possibly applied). The send loop aborts at the first frame that
    /// fails to reach the wire (injected disconnect/drop, write error);
    /// later frames stay unsent and are driven — in request order — by
    /// the sequential path, which preserves the monotonic-seq invariant.
    /// A frame lost *after* sending (dropped response, read failure) is
    /// safe to retry out of that order: it was applied-or-lost before any
    /// later frame, so a dedup answer is truthful.
    fn attempt_window(
        &mut self,
        frames: &[Frame],
        ctxs: &[Option<SpanContext>],
        resolved: &mut [Option<Frame>],
        failures: &mut [Option<RpcError>],
        attempt_no: u32,
        barrier: bool,
    ) {
        let tracer = self.tracer.clone();
        let t = tracer.as_deref();
        let timeout = if barrier { self.policy.barrier_timeout } else { self.policy.timeout };
        let mut attempt_spans: Vec<Option<SpanGuard<'_>>> = Vec::with_capacity(frames.len());
        let mut outstanding: HashMap<u64, usize> = HashMap::new();
        let mut drop_recv = vec![false; frames.len()];
        // An injected disconnect severs the connection *after* the
        // responses already in flight are drained (they arrived before
        // the cut) — dropping immediately would close the socket with
        // unread data and turn the close into a reset, making server-side
        // accounting racy.
        let mut pending_disconnect = false;
        for (i, frame) in frames.iter().enumerate() {
            let decision = match &mut self.fault {
                Some(fs) => fs.decide(),
                None => FaultDecision::default(),
            };
            let mut span = match (t, ctxs[i]) {
                (Some(t), Some(ctx)) => {
                    let mut s = t.child("rpc.attempt", ctx);
                    s.attr("attempt", attempt_no as u64);
                    Some(s)
                }
                _ => None,
            };
            if decision.disconnect {
                self.metrics.counter("rpc_faults_disconnects_total").inc();
                pending_disconnect = true;
                failures[i] = Some(RpcError::ConnectionLost("injected disconnect".into()));
                if let Some(s) = &mut span {
                    s.attr("ok", 0);
                }
                attempt_spans.push(span);
                break;
            }
            if decision.drop_send {
                self.metrics.counter("rpc_faults_dropped_total").inc();
                self.metrics.counter("rpc_timeouts_total").inc();
                failures[i] = Some(RpcError::Timeout);
                if let Some(s) = &mut span {
                    s.attr("ok", 0);
                }
                attempt_spans.push(span);
                break;
            }
            if decision.delay {
                self.metrics.counter("rpc_faults_delayed_total").inc();
                let micros = self.fault.as_ref().expect("delay implies plan").delay_micros();
                std::thread::sleep(Duration::from_micros(micros));
            }
            let mut buf = match t {
                Some(t) => {
                    let t0 = Instant::now();
                    let buf = frame.to_bytes();
                    t.record_phase("wire.encode", t0.elapsed());
                    buf
                }
                None => frame.to_bytes(),
            };
            if decision.duplicate {
                self.metrics.counter("rpc_faults_duplicated_total").inc();
                buf.extend_from_slice(&frame.to_bytes());
            }
            let sent: Result<(), RpcError> = match self.ensure_connected() {
                Ok(stream) => {
                    if let Err(e) = stream.set_read_timeout(Some(timeout)) {
                        Err(RpcError::Frame(FrameError::Io(e)))
                    } else if let Err(e) = stream.write_all(&buf) {
                        Err(RpcError::ConnectionLost(e.to_string()))
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(e),
            };
            match sent {
                Ok(()) => {
                    drop_recv[i] = decision.drop_recv;
                    outstanding.insert(frame.seq, i);
                    attempt_spans.push(span);
                }
                Err(e) => {
                    self.drop_connection();
                    failures[i] = Some(e);
                    if let Some(s) = &mut span {
                        s.attr("ok", 0);
                    }
                    attempt_spans.push(span);
                    break;
                }
            }
        }
        // Read phase: completions arrive seq-ordered per connection;
        // unknown sequence numbers are stale leftovers (duplicates,
        // dropped reads) and are discarded exactly as in the sequential
        // path.
        let mut drained_by_timeout = false;
        while !outstanding.is_empty() && self.stream.is_some() {
            let decoded = match t {
                Some(t) => Frame::decode_timed(&mut *self.stream.as_mut().expect("connected")).map(
                    |(f, d)| {
                        t.record_phase("wire.decode", d);
                        f
                    },
                ),
                None => Frame::decode(&mut *self.stream.as_mut().expect("connected")),
            };
            match decoded {
                Ok(resp) => {
                    let Some(i) = outstanding.remove(&resp.seq) else {
                        self.metrics.counter("rpc_stale_responses_total").inc();
                        continue;
                    };
                    if drop_recv[i] {
                        // The server processed the request but its response
                        // "got lost"; the sequential retry re-sends the same
                        // sequence number and exercises the dedup path.
                        self.metrics.counter("rpc_faults_dropped_total").inc();
                        self.metrics.counter("rpc_timeouts_total").inc();
                        failures[i] = Some(RpcError::Timeout);
                        if let Some(s) = &mut attempt_spans[i] {
                            s.attr("ok", 0);
                        }
                    } else {
                        if let Some(s) = &mut attempt_spans[i] {
                            s.attr("ok", u64::from(resp.opcode != OpCode::Error));
                        }
                        resolved[i] = Some(resp);
                    }
                }
                Err(FrameError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // One socket-level deadline expiry; everything still
                    // in flight on this connection is lost with it.
                    self.metrics.counter("rpc_timeouts_total").inc();
                    self.drop_connection();
                    drained_by_timeout = true;
                }
                Err(e) => {
                    self.drop_connection();
                    let mut idxs: Vec<usize> = outstanding.values().copied().collect();
                    idxs.sort_unstable();
                    failures[idxs[0]] = Some(e.into());
                }
            }
        }
        for (_, i) in outstanding {
            if failures[i].is_none() {
                failures[i] = Some(if drained_by_timeout {
                    RpcError::Timeout
                } else {
                    RpcError::ConnectionLost("connection failed mid-window".into())
                });
            }
            if let Some(s) = &mut attempt_spans[i] {
                s.attr("ok", 0);
            }
        }
        if pending_disconnect {
            self.drop_connection();
        }
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, RpcError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.policy.timeout)
                .map_err(|e| RpcError::ConnectionLost(e.to_string()))?;
            stream.set_nodelay(true).map_err(FrameError::Io)?;
            stream.set_write_timeout(Some(self.policy.timeout)).map_err(FrameError::Io)?;
            self.metrics.counter("rpc_connects_total").inc();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn drop_connection(&mut self) {
        self.stream = None;
    }
}

/// Builds one request per [`WIRE_BATCH_KEYS`] chunk of a shard's sub-batch
/// (`idxs` indexes into the caller's key slice, input order preserved).
fn shard_requests<F>(idxs: &[usize], keys: &[ParamKey], make_req: &F) -> Vec<Request>
where
    F: Fn(Vec<ParamKey>) -> Request,
{
    idxs.chunks(WIRE_BATCH_KEYS)
        .map(|chunk| make_req(chunk.iter().map(|&i| keys[i]).collect()))
        .collect()
}

/// Issues one pipelined [`WorkerClient::call_many`] per non-empty shard and
/// returns the per-shard results (`None` for shards the batch never
/// touches). A single live shard is called inline on the caller's thread,
/// while two or more live shards run concurrently on scoped threads, one
/// per shard. Concurrency cannot perturb determinism: each client owns its
/// socket, sequence space, and fault RNG, so nothing is shared across
/// threads.
fn call_shards<F>(
    clients: &mut [WorkerClient],
    parts: &[Vec<usize>],
    keys: &[ParamKey],
    make_req: F,
) -> Vec<Option<Result<Vec<Response>, RpcError>>>
where
    F: Fn(Vec<ParamKey>) -> Request + Sync,
{
    let mut results: Vec<Option<Result<Vec<Response>, RpcError>>> =
        (0..parts.len()).map(|_| None).collect();
    let live = parts.iter().filter(|p| !p.is_empty()).count();
    if live <= 1 {
        if let Some((s, idxs)) = parts.iter().enumerate().find(|(_, p)| !p.is_empty()) {
            let reqs = shard_requests(idxs, keys, &make_req);
            results[s] = Some(clients[s].call_many(reqs));
        }
        return results;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| !parts[*s].is_empty())
            .map(|(s, client)| {
                let reqs = shard_requests(&parts[s], keys, &make_req);
                scope.spawn(move || (s, client.call_many(reqs)))
            })
            .collect();
        for h in handles {
            let (s, r) = h.join().expect("shard rpc thread never panics");
            results[s] = Some(r);
        }
    });
    results
}

/// A [`RowSource`] over a *fleet* of per-shard [`WorkerClient`]s, letting
/// the generic cached training round ([`mamdr_ps::run_cached_round`]) read
/// rows over the wire exactly as it reads the in-process server. Every
/// batched read is partitioned by the [`ShardMap`], the per-shard
/// sub-batches are pulled concurrently (pipelined within each connection,
/// parallel across shards), and the responses are re-assembled into the
/// caller's key order. A single-server deployment is the one-client fleet:
/// one `PullMany` frame per [`WIRE_BATCH_KEYS`] chunk, no extra threads.
///
/// Interior mutability because the socket clients need `&mut` for I/O
/// while `RowSource` reads take `&self`; single-threaded per worker, so a
/// `RefCell` suffices.
///
/// The `RowSource` trait is infallible (the in-process store cannot fail)
/// but the wire can. Instead of panicking — which would abort the whole
/// training process on one worker's bad connection — the source records
/// the *first* RPC failure (in shard order, so the record is
/// deterministic), stops touching the network, and serves zero-filled rows
/// for the remainder of the round. The worker loop then finds the poisoned
/// flag via [`ShardedRowSource::take_error`] and reports a typed failure
/// to the supervisor, which discards the round's output and re-runs the
/// partition.
pub struct ShardedRowSource {
    clients: RefCell<Vec<WorkerClient>>,
    map: ShardMap,
    dim: usize,
    error: RefCell<Option<RpcError>>,
}

impl ShardedRowSource {
    /// Wraps one client per shard of `map` (panics on a count mismatch).
    pub fn new(clients: Vec<WorkerClient>, map: ShardMap, dim: usize) -> Self {
        assert_eq!(clients.len(), map.n_shards(), "one client per shard");
        ShardedRowSource { clients: RefCell::new(clients), map, dim, error: RefCell::new(None) }
    }

    /// Unwraps the per-shard clients (e.g. to run the end-of-round
    /// barrier, which goes through shard 0 only).
    pub fn into_clients(self) -> Vec<WorkerClient> {
        self.clients.into_inner()
    }

    /// Takes the first RPC failure, if any read failed. Once set, every
    /// subsequent read was served locally as zeros — the round's output is
    /// garbage and must be discarded.
    pub fn take_error(&self) -> Option<RpcError> {
        self.error.borrow_mut().take()
    }

    fn poisoned(&self) -> bool {
        self.error.borrow().is_some()
    }

    fn record(&self, e: RpcError) {
        let mut slot = self.error.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// The one batched read path: scatters `keys` over the shard fleet as
    /// `make_req` requests (one per [`WIRE_BATCH_KEYS`] chunk per shard),
    /// turns each chunk's response into its per-key items with `unpack`,
    /// and gathers them back into input-key order. Any failure poisons the
    /// source, and a poisoned source answers `zero` for every key without
    /// touching the network.
    fn gather<T: Clone + Default>(
        &self,
        keys: &[ParamKey],
        zero: T,
        make_req: impl Fn(Vec<ParamKey>) -> Request + Sync,
        unpack: impl Fn(Response, usize) -> Result<Vec<T>, RpcError>,
    ) -> Vec<T> {
        if self.poisoned() {
            return vec![zero; keys.len()];
        }
        let parts = self.map.partition_indices(keys);
        let results = call_shards(&mut self.clients.borrow_mut(), &parts, keys, make_req);
        let mut out = vec![T::default(); keys.len()];
        for (idxs, result) in parts.iter().zip(results) {
            let Some(result) = result else { continue };
            let gathered = result.and_then(|resps| {
                for (chunk, resp) in idxs.chunks(WIRE_BATCH_KEYS).zip(resps) {
                    for (&i, item) in chunk.iter().zip(unpack(resp, chunk.len())?) {
                        out[i] = item;
                    }
                }
                Ok(())
            });
            if let Err(e) = gathered {
                self.record(e);
            }
        }
        if self.poisoned() {
            return vec![zero; keys.len()];
        }
        out
    }
}

impl RowSource for ShardedRowSource {
    fn pull_rows(&self, keys: &[ParamKey]) -> Vec<(Vec<f32>, u64)> {
        let dim = self.dim;
        let pull = |keys| Request::PullMany { keys };
        self.gather(keys, (vec![0.0; dim], 0), pull, |resp, n_rows| {
            let Response::PullMany { versions, values } = resp else {
                unreachable!("PullMany answered with a different variant")
            };
            if values.len() != n_rows * dim {
                return Err(RpcError::Frame(FrameError::Malformed(format!(
                    "expected {} values for {n_rows} rows of width {dim}, got {}",
                    n_rows * dim,
                    values.len()
                ))));
            }
            Ok(values.chunks(dim).map(<[f32]>::to_vec).zip(versions).collect())
        })
    }

    fn versions_of(&self, keys: &[ParamKey]) -> Vec<u64> {
        let probe = |keys| Request::PullVersions { keys };
        self.gather(keys, 0, probe, |resp, _| {
            let Response::PullVersions { versions } = resp else {
                unreachable!("PullVersions answered with a different variant")
            };
            Ok(versions)
        })
    }
}
