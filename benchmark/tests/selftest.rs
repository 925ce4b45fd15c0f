//! The benchmark checking itself: `BENCHMARK.json` and `spec.rs` name the
//! same things, every declared metric is really produced, and a seed fixes
//! the inputs (same seed ⇒ same exact counts, another seed ⇒ other inputs).

use mamdr_benchmark::json::{parse, Json};
use mamdr_benchmark::spans::Spans;
use mamdr_benchmark::spec::{valid_name, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use mamdr_benchmark::{workloads, Ctx, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json exceeds 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    obj.get(key).unwrap_or_else(|| panic!("missing key {key:?} in {obj:?}"))
}

fn keys_of(obj: &Json) -> BTreeSet<&str> {
    obj.as_obj().expect("an object").keys().map(String::as_str).collect()
}

/// Asserts that the JSON metric list says exactly what `specs` says.
fn assert_metrics_match(list: &Json, specs: &[MetricSpec], with_bound: bool) {
    let list = list.as_arr().expect("a metric list");
    assert_eq!(
        list.iter().map(|m| field(m, "name").as_str().expect("name")).collect::<Vec<_>>(),
        specs.iter().map(|s| s.name).collect::<Vec<_>>(),
        "BENCHMARK.json and spec.rs list different metrics (or in a different order)"
    );
    for (m, spec) in list.iter().zip(specs) {
        let expected: BTreeSet<&str> = if with_bound {
            ["name", "unit", "better", "bound"].into()
        } else {
            ["name", "unit", "better"].into()
        };
        assert_eq!(keys_of(m), expected, "{}", spec.name);
        assert_eq!(field(m, "unit").as_str(), Some(spec.unit), "{}", spec.name);
        assert_eq!(field(m, "better").as_str(), Some(spec.better.label()), "{}", spec.name);
        assert!(spec.unit.len() <= 16, "{} unit too long", spec.name);
        if with_bound {
            let bound = field(m, "bound").as_f64().expect("bound is a number");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", spec.name);
        }
    }
}

#[test]
fn benchmark_json_and_spec_agree() {
    let doc = benchmark_json();
    assert_eq!(
        keys_of(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"].into()
    );
    let names: Vec<&str> = field(&doc, "workloads")
        .as_arr()
        .expect("workload list")
        .iter()
        .map(|w| {
            assert_eq!(keys_of(w), ["name", "why"].into());
            let why = field(w, "why").as_str().expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "why: {why:?}");
            field(w, "name").as_str().expect("name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_metrics_match(field(&doc, "end_to_end"), END_TO_END, true);
    assert_metrics_match(field(&doc, "per_layer"), PER_LAYER, false);

    let all: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert!(all.iter().all(|n| valid_name(n)), "a name breaks the [A-Za-z0-9_.-] grammar");
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));

    let seconds = field(&doc, "run_seconds").as_f64().expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert_eq!(
        field(&doc, "paths")
            .as_arr()
            .map(|p| p.iter().filter_map(Json::as_str).collect::<Vec<_>>()),
        Some(vec!["benchmark"])
    );
}

fn quick(workload: &str, seed: u64, traced: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join("selftest");
    std::fs::create_dir_all(&out_dir).expect("create out/selftest");
    let ctx = Ctx { seed, seconds: 3.0, out_dir, spans: traced.then(|| Arc::new(Spans::new())) };
    let outcome = workloads::run(workload, &ctx).expect("a declared workload");
    assert!(
        outcome.failures.is_empty(),
        "{workload} seed {seed} traced {traced}: {:?}",
        outcome.failures
    );
    outcome
}

/// One test, run sequentially: the workloads set process-wide state (the
/// kernel thread pool) and measure time, so they must not overlap.
#[test]
fn workloads_print_the_declared_metrics_and_seeds_fix_the_inputs() {
    let declared_e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let declared_layer: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    // `main` adds these three from the process, not from the workload.
    let from_main: BTreeSet<&str> = ["peak_rss_mb", "machine.calib_ms"].into();
    let mut layer_seen: BTreeSet<&str> = from_main.clone();

    for workload in WORKLOADS {
        let a = quick(workload, 42, false);
        let b = quick(workload, 42, false);
        let c = quick(workload, 43, false);
        let measured: BTreeSet<&str> = a.metrics.keys().copied().chain(from_main.clone()).collect();
        assert!(
            declared_e2e.is_subset(&measured),
            "{workload} misses end-to-end metrics: {:?}",
            declared_e2e.difference(&measured).collect::<Vec<_>>()
        );
        assert!(
            a.metrics.keys().all(|k| declared_e2e.contains(k)),
            "{workload} prints undeclared untraced metrics: {:?}",
            a.metrics.keys().collect::<Vec<_>>()
        );
        assert!(
            a.metrics.values().all(|v| v.is_finite() && *v > 0.0),
            "{workload}: {:?}",
            a.metrics
        );
        assert!(!a.counts.is_empty(), "{workload} records no exact counts");
        assert_eq!(a.counts, b.counts, "{workload}: same seed, different counts");
        assert_ne!(a.counts, c.counts, "{workload}: another seed left every count unchanged");

        // (`setup_s` is measured in both modes and printed only untraced.)
        let t = quick(workload, 42, true);
        let stray: Vec<_> =
            t.metrics.keys().filter(|k| !declared_layer.contains(*k) && **k != "setup_s").collect();
        assert!(stray.is_empty(), "{workload} prints undeclared traced metrics: {stray:?}");
        let shared: BTreeMap<_, _> =
            a.counts.iter().filter(|(k, _)| t.counts.contains_key(*k)).collect();
        for (k, v) in shared {
            assert_eq!(t.counts[k], *v, "{workload}: traced and untraced runs disagree on {k}");
        }
        layer_seen.extend(t.metrics.keys().copied());
    }
    assert_eq!(
        layer_seen.intersection(&declared_layer).count(),
        declared_layer.len(),
        "declared per-layer metrics no workload measures: {:?}",
        declared_layer.difference(&layer_seen).collect::<Vec<_>>()
    );
}
