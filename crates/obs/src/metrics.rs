//! The metrics registry: named counters, gauges and histograms.
//!
//! Handles are `Arc`-backed and cheap to clone; looking a metric up twice
//! returns the same underlying cell. Counter/gauge updates are lock-free
//! atomics; only histogram records take a (per-histogram) lock.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a float that can move in either direction.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `dv` in one read-modify-write, so concurrent adds are never
    /// lost: a running float total, such as seconds spent, which a
    /// [`Counter`]'s integers cannot hold.
    pub fn add(&self, dv: f64) {
        let add = |bits| Some((f64::from_bits(bits) + dv).to_bits());
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Registry of every metric a process exposes, keyed by name.
///
/// Names follow Prometheus conventions: `snake_case`, unit-suffixed
/// (`_total` for counters, `_seconds` / `_bytes` where applicable).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.counters.lock().expect("registry lock");
        m.entry(name.to_string()).or_insert_with(|| Counter(Arc::new(AtomicU64::new(0)))).clone()
    }

    /// The gauge named `name`, created on first use (initial value 0).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.gauges.lock().expect("registry lock");
        m.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock().expect("registry lock");
        m.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new())).clone()
    }

    /// Attaches Prometheus `# HELP` text to `name`. Idempotent; the last
    /// description wins. Metrics without one render a generated default
    /// so the exposition always carries a `# HELP` line per family.
    pub fn describe(&self, name: &str, help: &str) {
        let mut m = self.help.lock().expect("registry lock");
        m.insert(name.to_string(), help.to_string());
    }

    fn help_line(&self, name: &str, kind: &str) -> String {
        let m = self.help.lock().expect("registry lock");
        let text = match m.get(name) {
            // HELP text escaping per the exposition format: `\` and
            // newline are the only characters that need it.
            Some(h) => h.replace('\\', "\\\\").replace('\n', "\\n"),
            None => format!("mamdr {kind} {name}."),
        };
        format!("# HELP {name} {text}\n")
    }

    /// All counters as `(name, value)`, name-sorted.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let m = self.counters.lock().expect("registry lock");
        m.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All gauges as `(name, value)`, name-sorted.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        let m = self.gauges.lock().expect("registry lock");
        m.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All histograms as `(name, snapshot)`, name-sorted.
    pub fn histogram_values(&self) -> Vec<(String, HistogramSnapshot)> {
        let m = self.histograms.lock().expect("registry lock");
        m.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Renders every metric in the Prometheus text exposition format:
    /// a `# HELP` + `# TYPE` header per family, histograms rendered
    /// summary-style (`quantile`-labelled sample lines plus `_sum` /
    /// `_count`), so the output is scrapeable as-is.
    ///
    /// A labelled series like `ps_kv_entries{shard="2"}` belongs to the
    /// `ps_kv_entries` family: the header is emitted once per family, not
    /// per series. Name-sorted iteration keeps a family's members adjacent
    /// (`{` sorts after every identifier character), so one pass with a
    /// last-family cursor suffices.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let header = |out: &mut String, last: &mut String, name: &str, kind: &str| {
            let family = name.split('{').next().unwrap_or(name);
            if family != last {
                out.push_str(&self.help_line(family, kind));
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last.clear();
                last.push_str(family);
            }
        };
        for (name, v) in self.counter_values() {
            header(&mut out, &mut last_family, &name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        last_family.clear();
        for (name, v) in self.gauge_values() {
            header(&mut out, &mut last_family, &name, "gauge");
            out.push_str(&format!("{name} {}\n", fmt_f64(v)));
        }
        last_family.clear();
        for (name, s) in self.histogram_values() {
            header(&mut out, &mut last_family, &name, "summary");
            // A labelled series puts its labels beside `quantile` and after
            // the `_sum` / `_count` suffixes.
            let (family, labels) = match name.split_once('{') {
                Some((f, rest)) => (f, rest.trim_end_matches('}')),
                None => (name.as_str(), ""),
            };
            let sep = if labels.is_empty() { "" } else { "," };
            let braced = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
            for (q, v) in [(0.5, s.p50), (0.9, s.p90), (0.99, s.p99)] {
                out.push_str(&format!(
                    "{family}{{{labels}{sep}quantile=\"{q}\"}} {}\n",
                    fmt_f64(v)
                ));
            }
            out.push_str(&format!(
                "{family}_sum{braced} {}\n{family}_count{braced} {}\n",
                fmt_f64(s.sum),
                s.count
            ));
        }
        out
    }

    /// Dumps every metric as one JSON line each (kind-tagged), suitable
    /// for appending to an event log file.
    pub fn dump_jsonl(&self) -> String {
        use crate::events::Value;
        let mut out = String::new();
        for (name, v) in self.counter_values() {
            out.push_str(&crate::events::render_line(
                "metric",
                &[
                    ("kind", Value::from("counter")),
                    ("name", Value::from(name.as_str())),
                    ("value", Value::from(v)),
                ],
            ));
            out.push('\n');
        }
        for (name, v) in self.gauge_values() {
            out.push_str(&crate::events::render_line(
                "metric",
                &[
                    ("kind", Value::from("gauge")),
                    ("name", Value::from(name.as_str())),
                    ("value", Value::from(v)),
                ],
            ));
            out.push('\n');
        }
        for (name, s) in self.histogram_values() {
            out.push_str(&crate::events::render_line(
                "metric",
                &[
                    ("kind", Value::from("histogram")),
                    ("name", Value::from(name.as_str())),
                    ("count", Value::from(s.count)),
                    ("sum", Value::from(s.sum)),
                    ("min", Value::from(s.min)),
                    ("max", Value::from(s.max)),
                    ("p50", Value::from(s.p50)),
                    ("p90", Value::from(s.p90)),
                    ("p99", Value::from(s.p99)),
                ],
            ));
            out.push('\n');
        }
        out
    }
}

pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("requests_total").get(), 5);
        assert_eq!(reg.counter_values(), vec![("requests_total".to_string(), 5)]);
    }

    #[test]
    fn gauges_hold_floats() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("cache_hit_ratio");
        assert_eq!(g.get(), 0.0);
        g.set(0.75);
        assert_eq!(reg.gauge("cache_hit_ratio").get(), 0.75);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn gauge_adds_from_many_threads_are_not_lost() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.gauge("busy_seconds_total").add(0.5);
                    }
                });
            }
        });
        assert_eq!(reg.gauge("busy_seconds_total").get(), 2000.0);
    }

    #[test]
    fn histograms_register_once() {
        let reg = MetricsRegistry::new();
        reg.histogram("epoch_seconds").record(1.0);
        reg.histogram("epoch_seconds").record(3.0);
        let vals = reg.histogram_values();
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].1.count, 2);
        assert_eq!(vals[0].1.sum, 4.0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = reg.counter("n");
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("n").get(), 4000);
    }

    #[test]
    fn prometheus_rendering_has_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(2);
        reg.gauge("b").set(1.5);
        reg.histogram("c_seconds").record(0.25);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE a_total counter\na_total 2\n"), "{text}");
        assert!(text.contains("# TYPE b gauge\nb 1.5\n"), "{text}");
        assert!(text.contains("# TYPE c_seconds summary\n"), "{text}");
        assert!(text.contains("c_seconds_count 1\n"), "{text}");
        assert!(text.contains("quantile=\"0.5\""), "{text}");
    }

    #[test]
    fn prometheus_rendering_emits_help_per_family() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(2);
        reg.describe("a_total", "Things that\nhappened.");
        reg.gauge("b").set(1.0);
        reg.histogram("c_seconds").record(0.25);
        let text = reg.render_prometheus();
        // Described metric: escaped text; undescribed: generated default.
        assert!(text.contains("# HELP a_total Things that\\nhappened.\n"), "{text}");
        assert!(text.contains("# HELP b mamdr gauge b.\n"), "{text}");
        assert!(
            text.contains("# HELP c_seconds mamdr summary c_seconds.\n# TYPE c_seconds summary\n"),
            "{text}"
        );
        // Every family has exactly one HELP and one TYPE line.
        let helps = text.matches("# HELP ").count();
        let types = text.matches("# TYPE ").count();
        assert_eq!(helps, 3, "{text}");
        assert_eq!(types, 3, "{text}");
    }

    #[test]
    fn prometheus_rendering_groups_labelled_series_into_families() {
        let reg = MetricsRegistry::new();
        reg.gauge("ps_kv_entries").set(10.0);
        reg.gauge("ps_kv_entries{shard=\"0\"}").set(4.0);
        reg.gauge("ps_kv_entries{shard=\"1\"}").set(6.0);
        reg.describe("ps_kv_entries", "Rows resident in the KV store.");
        reg.counter("rpc_frames_total{shard=\"0\"}").add(7);
        let text = reg.render_prometheus();
        // One header pair for the three-gauge family, above its samples.
        assert_eq!(text.matches("# HELP ps_kv_entries ").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE ps_kv_entries gauge\n").count(), 1, "{text}");
        assert!(text.contains("# HELP ps_kv_entries Rows resident in the KV store.\n"), "{text}");
        assert!(text.contains("ps_kv_entries 10\n"), "{text}");
        assert!(text.contains("ps_kv_entries{shard=\"0\"} 4\n"), "{text}");
        assert!(text.contains("ps_kv_entries{shard=\"1\"} 6\n"), "{text}");
        let family_at = text.find("# TYPE ps_kv_entries gauge").unwrap();
        for sample in ["ps_kv_entries 10", "ps_kv_entries{shard=\"0\"}"] {
            assert!(text.find(sample).unwrap() > family_at, "{text}");
        }
        // A family whose only series is labelled still gets headers named
        // after the family, not the series.
        assert!(text.contains("# TYPE rpc_frames_total counter\n"), "{text}");
        assert!(text.contains("rpc_frames_total{shard=\"0\"} 7\n"), "{text}");
        assert!(!text.contains("# TYPE rpc_frames_total{"), "{text}");
    }

    #[test]
    fn prometheus_rendering_merges_histogram_labels() {
        let reg = MetricsRegistry::new();
        reg.histogram("g_seconds{phase=\"a\"}").record(0.5);
        reg.histogram("g_seconds{phase=\"b\"}").record(0.25);
        reg.describe("g_seconds", "Per-phase time.");
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# HELP g_seconds Per-phase time.\n").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE g_seconds summary\n").count(), 1, "{text}");
        assert!(text.contains("g_seconds{phase=\"a\",quantile=\"0.5\"} 0.5\n"), "{text}");
        assert!(text.contains("g_seconds_sum{phase=\"b\"} 0.25\n"), "{text}");
        assert!(text.contains("g_seconds_count{phase=\"b\"} 1\n"), "{text}");
        assert!(!text.contains("}{"), "{text}");
    }

    #[test]
    fn jsonl_dump_is_one_object_per_line() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").inc();
        reg.gauge("b").set(2.0);
        reg.histogram("c").record(1.0);
        let dump = reg.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"event\":\"metric\""), "{line}");
        }
    }
}
