//! `--metrics-out` plumbing shared by the `paper` experiments: one
//! process-wide [`MetricsRegistry`] + [`EventLog`] pair, observer handout
//! for training jobs, and the exit-time dump.

use crate::args::BenchArgs;
use mamdr_obs::{
    EventLog, IntrospectServer, MetricsRegistry, TelemetryObserver, Tracer, TrainObserver, Value,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The telemetry sink of one benchmark process.
///
/// When `--metrics-out` is absent the sink is disabled: [`observer`]
/// returns `None` (training runs fully unobserved and pays nothing) and
/// [`finish`] is a no-op. When present, events stream to the JSONL file as
/// they happen and [`finish`] appends a registry dump plus writes a
/// sibling Prometheus-style `.prom` snapshot.
///
/// [`observer`]: BenchTelemetry::observer
/// [`finish`]: BenchTelemetry::finish
pub struct BenchTelemetry {
    registry: Arc<MetricsRegistry>,
    log: Arc<EventLog>,
    out: Option<PathBuf>,
    tracer: Option<Arc<Tracer>>,
    trace_out: Option<PathBuf>,
    /// Held for the process lifetime; stops serving when the telemetry
    /// sink (and with it the process's run) ends.
    _introspect: Option<IntrospectServer>,
}

impl BenchTelemetry {
    /// Builds the sink from the parsed arguments.
    pub fn from_args(args: &BenchArgs) -> Self {
        let out = args.metrics_out.as_ref().map(PathBuf::from);
        let log = match &out {
            Some(p) => EventLog::to_file(p)
                .unwrap_or_else(|e| panic!("cannot open --metrics-out {}: {e}", p.display())),
            None => EventLog::in_memory(),
        };
        let registry = Arc::new(MetricsRegistry::new());
        // A tracer exists only when some consumer asked for spans; every
        // traced code path checks for it, so without one tracing costs
        // nothing.
        let tracer =
            (args.trace_out.is_some() || args.phase_summary || args.introspect_addr.is_some())
                .then(|| Arc::new(Tracer::new()));
        let introspect = args.introspect_addr.as_deref().map(|addr| {
            let server = IntrospectServer::start(addr, Arc::clone(&registry), tracer.clone())
                .unwrap_or_else(|e| panic!("cannot bind --introspect-addr {addr}: {e}"));
            eprintln!("[introspect] serving /healthz /metrics /spans on http://{}", server.addr());
            server
        });
        BenchTelemetry {
            registry,
            log: Arc::new(log),
            out,
            tracer,
            trace_out: args.trace_out.as_ref().map(PathBuf::from),
            _introspect: introspect,
        }
    }

    /// Whether `--metrics-out` was given.
    pub fn enabled(&self) -> bool {
        self.out.is_some()
    }

    /// The process-wide registry (e.g. for `DistributedReport::export`).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A shared handle to the registry, for subsystems that keep one
    /// (e.g. the networked trainer's `rpc_*` instrumentation).
    pub fn registry_arc(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The event log, for experiments emitting events outside training runs.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// A fresh observer feeding this sink, or `None` when disabled.
    /// Jobs running in parallel can each hold their own; the shared
    /// registry and log are thread-safe.
    pub fn observer(&self) -> Option<Box<dyn TrainObserver>> {
        self.enabled().then(|| {
            Box::new(TelemetryObserver::new(self.registry.clone(), self.log.clone()))
                as Box<dyn TrainObserver>
        })
    }

    /// Records one finished run's headline quality as a `result` event;
    /// `label` is the run's row in the experiment's table.
    pub fn emit_result(&self, dataset: &str, label: &str, r: &mamdr_core::experiment::RunResult) {
        if !self.enabled() {
            return;
        }
        self.log.emit(
            "result",
            &[
                ("dataset", Value::from(dataset)),
                ("label", Value::from(label)),
                ("model", Value::from(r.model.as_str())),
                ("framework", Value::from(r.framework.as_str())),
                ("mean_auc", Value::from(r.mean_auc)),
                ("wall_secs", Value::from(r.wall_secs)),
            ],
        );
    }

    /// The process-wide span tracer, when `--trace-out`, `--phase-summary`
    /// or `--introspect-addr` asked for one.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    /// Appends the registry dump to the JSONL stream, flushes it, writes
    /// the Prometheus-style snapshot, and exports the Chrome trace when
    /// `--trace-out` was given. No-op with neither sink configured.
    pub fn finish(&self) {
        if let (Some(tracer), Some(path)) = (&self.tracer, &self.trace_out) {
            match std::fs::write(path, tracer.to_chrome_trace()) {
                Ok(()) => eprintln!(
                    "[trace] wrote {} ({} spans{}); load it at chrome://tracing",
                    path.display(),
                    tracer.span_count(),
                    match tracer.dropped() {
                        0 => String::new(),
                        n => format!(", {n} evicted from the ring"),
                    }
                ),
                Err(e) => eprintln!("[trace] failed to write {}: {e}", path.display()),
            }
        }
        let Some(out) = &self.out else { return };
        self.log.append_raw(&self.registry.dump_jsonl());
        self.log.flush();
        let prom = out.with_extension("prom");
        match std::fs::write(&prom, self.registry.render_prometheus()) {
            Ok(()) => eprintln!("[metrics] wrote {} and {}", out.display(), prom.display()),
            Err(e) => eprintln!("[metrics] failed to write {}: {e}", prom.display()),
        }
    }
}

/// Renders a tracer's per-phase wall-clock aggregates as an aligned table,
/// sorted by total time. `wall_secs` scales the share column; nested
/// phases overlap their parents, so shares are attribution per phase, not
/// a partition of the wall.
pub fn render_phase_table(tracer: &Tracer, wall_secs: f64) -> String {
    let mut rows = tracer.phase_summary();
    rows.sort_by(|a, b| b.1.total_secs.total_cmp(&a.1.total_secs));
    let mut out = String::new();
    out.push_str(&format!("  {:<16} {:>9} {:>11} {:>8}\n", "phase", "count", "total_s", "share"));
    for (name, p) in rows {
        out.push_str(&format!(
            "  {:<16} {:>9} {:>11.4} {:>7.1}%\n",
            name,
            p.count,
            p.total_secs,
            100.0 * p.total_secs / wall_secs.max(1e-9)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_hands_out_no_observers_and_writes_nothing() {
        let t = BenchTelemetry::from_args(&BenchArgs::default());
        assert!(!t.enabled());
        assert!(t.observer().is_none());
        assert!(t.tracer().is_none());
        t.finish(); // must not panic or write anywhere
        assert!(t.log().is_empty());
    }

    #[test]
    fn trace_out_builds_a_tracer_and_exports_chrome_json_at_finish() {
        let dir = std::env::temp_dir().join("mamdr-bench-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let args = BenchArgs {
            trace_out: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let t = BenchTelemetry::from_args(&args);
        let tracer = t.tracer().expect("--trace-out implies a tracer");
        tracer.span("demo.work").finish();
        t.finish();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("demo.work"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_table_lists_phases_with_counts() {
        let tracer = Tracer::new();
        tracer.record_phase("wire.encode", std::time::Duration::from_millis(5));
        tracer.record_phase("wire.encode", std::time::Duration::from_millis(5));
        tracer.record_phase("round.pull", std::time::Duration::from_millis(90));
        let table = render_phase_table(&tracer, 0.1);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("phase"), "{table}");
        // Sorted by total time: pull (90ms) above encode (10ms).
        assert!(lines[1].contains("round.pull") && lines[1].contains("90.0%"), "{table}");
        assert!(lines[2].contains("wire.encode") && lines[2].contains('2'), "{table}");
    }

    #[test]
    fn enabled_sink_streams_events_and_dumps_at_finish() {
        let dir = std::env::temp_dir().join("mamdr-bench-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let args = BenchArgs {
            metrics_out: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let t = BenchTelemetry::from_args(&args);
        assert!(t.enabled() && t.observer().is_some());
        t.registry().counter("demo_total").add(3);
        t.log().emit("demo", &[("k", Value::from(1u64))]);
        t.finish();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(jsonl.contains("\"event\":\"demo\""), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"metric\""), "{jsonl}");
        assert!(jsonl.contains("demo_total"), "{jsonl}");
        let prom = std::fs::read_to_string(dir.join("m.prom")).unwrap();
        assert!(prom.contains("demo_total 3"), "{prom}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
