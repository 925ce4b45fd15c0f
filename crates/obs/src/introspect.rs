//! Live introspection over plain `std::net`: a tiny HTTP/1.0 endpoint a
//! running trainer or server opts into (`--introspect-addr`) so operators
//! can inspect it mid-run without attaching a debugger.
//!
//! Routes:
//!
//! * `GET /healthz` — `200 ok` while the process is up. With a
//!   [`PublishState`] attached, reports `degraded` (last-good version,
//!   consecutive gate-failure count) when the publish gate rejected the
//!   most recent candidate — still HTTP 200, because traffic is still
//!   answered from the last-good snapshot.
//! * `GET /metrics` — the registry's Prometheus text snapshot.
//! * `GET /spans`   — the tracer's recent-span ring as JSON (`404` when
//!   no tracer is attached).
//! * `GET /publish` — the publish gate's verdict history as JSON (`404`
//!   when no gate is attached).
//!
//! The server is deliberately minimal: one accept thread blocked in
//! `accept`, one connection handled at a time, request line parsed and the
//! rest of the request discarded, connection closed after each response.
//! Stopping it sets a flag and wakes the thread with one connection of its
//! own, which the loop drops. It runs entirely off the training/serving
//! hot path — handlers only *read* shared state (atomic counters, the span
//! ring) — so attaching it never perturbs results.

use crate::health::PublishState;
use crate::metrics::MetricsRegistry;
use crate::trace::Tracer;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum spans `/spans` returns (newest are kept).
const SPANS_LIMIT: usize = 256;

/// A running introspection endpoint. Dropping it (or calling
/// [`IntrospectServer::stop`]) shuts the listener down.
pub struct IntrospectServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving in a background thread.
    pub fn start(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<IntrospectServer> {
        Self::start_with_publish(addr, registry, tracer, None)
    }

    /// [`start`](Self::start) with a publish-gate state attached:
    /// `/healthz` reflects gate degradation and `/publish` serves the
    /// verdict history.
    pub fn start_with_publish(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        tracer: Option<Arc<Tracer>>,
        publish: Option<Arc<PublishState>>,
    ) -> std::io::Result<IntrospectServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mamdr-introspect".into())
            .spawn(move || accept_loop(listener, registry, tracer, publish, stop_flag))
            .expect("spawn introspect thread");
        Ok(IntrospectServer { addr: bound, stop, handle: Some(handle) })
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Sets the stop flag, wakes the accept loop blocked in `accept` by
    /// connecting to it — over loopback when the bound address is
    /// unspecified — and joins it.
    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let v4 = wake.is_ipv4();
            wake.set_ip(if v4 { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = handle.join();
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    publish: Option<Arc<PublishState>>,
    stop: Arc<AtomicBool>,
) {
    loop {
        match listener.accept() {
            // The stop's wake-up, or a client that came with it.
            _ if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                // Introspection is best-effort: a misbehaving client is
                // dropped, never propagated into the host process.
                let _ = handle_conn(stream, &registry, tracer.as_deref(), publish.as_deref());
            }
            // Backs off, so a persistent failure (out of descriptors)
            // cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_conn(
    stream: TcpStream,
    registry: &MetricsRegistry,
    tracer: Option<&Tracer>,
    publish: Option<&PublishState>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = parse_path(&request_line);
    let (status, content_type, body) = match path.as_deref() {
        Some("/healthz") => (
            "200 OK",
            "text/plain; charset=utf-8",
            publish.map_or_else(|| "ok\n".to_string(), PublishState::healthz_body),
        ),
        Some("/metrics") => {
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", registry.render_prometheus())
        }
        Some("/spans") => match tracer {
            Some(t) => ("200 OK", "application/json", t.spans_json(SPANS_LIMIT)),
            None => ("404 Not Found", "text/plain; charset=utf-8", "no tracer attached\n".into()),
        },
        Some("/publish") => match publish {
            Some(p) => ("200 OK", "application/json", p.history_json()),
            None => {
                ("404 Not Found", "text/plain; charset=utf-8", "no publish gate attached\n".into())
            }
        },
        Some(_) => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        None => ("400 Bad Request", "text/plain; charset=utf-8", "bad request\n".to_string()),
    };
    let mut out = stream;
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// Extracts the path of `GET <path> HTTP/1.x`; `None` for anything else.
fn parse_path(request_line: &str) -> Option<String> {
    let mut parts = request_line.split_whitespace();
    if parts.next() != Some("GET") {
        return None;
    }
    let target = parts.next()?;
    // Strip any query string: routes here take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    Some(path.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("write");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        body
    }

    #[test]
    fn serves_healthz_metrics_and_spans() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("demo_total").add(3);
        let tracer = Arc::new(Tracer::new());
        tracer.span("warmup").finish();
        let server = IntrospectServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            Some(Arc::clone(&tracer)),
        )
        .expect("start");
        let addr = server.addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("demo_total 3"), "{metrics}");
        assert!(metrics.contains("# TYPE demo_total counter"), "{metrics}");

        let spans = get(addr, "/spans");
        assert!(spans.contains("HTTP/1.0 200 OK"), "{spans}");
        assert!(spans.contains("\"name\":\"warmup\""), "{spans}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        server.stop();
    }

    #[test]
    fn healthz_reports_gate_degradation_and_publish_dumps_history() {
        let registry = Arc::new(MetricsRegistry::new());
        let state = Arc::new(PublishState::new(7));
        let server = IntrospectServer::start_with_publish(
            "127.0.0.1:0",
            Arc::clone(&registry),
            None,
            Some(Arc::clone(&state)),
        )
        .expect("start");
        let addr = server.addr();

        // Healthy gate: plain ok, exactly as without a gate.
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        // Rejected candidate: still 200 (traffic is served from
        // last-good), body flips to degraded with version + failure count.
        state.record_reject(8, 8, "digest", "checksum mismatch");
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
        assert!(
            health.ends_with("degraded last_good_version=7 consecutive_gate_failures=1\n"),
            "{health}"
        );

        let publish = get(addr, "/publish");
        assert!(publish.contains("HTTP/1.0 200 OK"), "{publish}");
        assert!(publish.contains("\"reason\":\"digest\""), "{publish}");
        assert!(publish.contains("\"last_good_version\":7"), "{publish}");

        // An accepted candidate clears the degradation.
        state.record_accept(9, 9, "cutover");
        assert!(get(addr, "/healthz").ends_with("ok\n"));
        server.stop();
    }

    #[test]
    fn publish_route_is_404_without_gate() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = IntrospectServer::start("127.0.0.1:0", registry, None).expect("start");
        let body = get(server.addr(), "/publish");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }

    #[test]
    fn spans_route_is_404_without_tracer() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = IntrospectServer::start("127.0.0.1:0", registry, None).expect("start");
        let body = get(server.addr(), "/spans");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }

    /// A loop blocked in `accept` is woken by the stop itself, on a
    /// loopback and on an unspecified bind.
    #[test]
    fn stop_returns_on_a_server_that_never_accepted_a_request() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server =
                IntrospectServer::start(addr, Arc::new(MetricsRegistry::new()), None).expect(addr);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                server.stop();
                tx.send(()).unwrap();
            });
            rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| panic!("{addr}: hung"));
        }
    }

    #[test]
    fn non_get_is_rejected() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = IntrospectServer::start("127.0.0.1:0", registry, None).expect("start");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").expect("write");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        assert!(body.starts_with("HTTP/1.0 400"), "{body}");
    }
}
