//! `mamdr-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload in this process (so `peak_rss_mb` is per workload),
//! prints every metric by name with its unit, writes a result file with
//! the environment fingerprint, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when an output check failed.

use mamdr_benchmark::fingerprint::{peak_rss_mb, Fingerprint};
use mamdr_benchmark::json::quote;
use mamdr_benchmark::spans::Spans;
use mamdr_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use mamdr_benchmark::{frozen, workloads, Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: mamdr-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--out-dir DIR]\n       mamdr-benchmark --list-workloads",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-workloads" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(args.seconds.is_finite() && (1.0..=60.0).contains(&args.seconds)) {
                    return Err(format!("--seconds must be within 1..=60, got {value:?}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(Some(args))
}

/// The metric lines of one run, in spec order. An end-to-end metric must
/// have been measured (finite, non-zero); a per-layer metric the workload
/// does not exercise reads 0.
fn collect(
    outcome: &mut Outcome,
    specs: &'static [MetricSpec],
    required: bool,
) -> Vec<(MetricSpec, f64)> {
    specs
        .iter()
        .map(|&spec| {
            let value = outcome.metrics.get(spec.name).copied();
            if required {
                let ok = value.is_some_and(|v| v.is_finite() && v > 0.0);
                outcome.check(ok, || {
                    format!("end-to-end metric {} missing or not positive: {value:?}", spec.name)
                });
            } else if let Some(v) = value {
                outcome.check(v.is_finite(), || format!("per-layer metric {} is {v}", spec.name));
            }
            (spec, value.filter(|v| v.is_finite()).unwrap_or(0.0))
        })
        .collect()
}

fn metrics_json(lines: &[(MetricSpec, f64)]) -> String {
    let body: Vec<String> = lines
        .iter()
        .map(|(m, v)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(m.name), quote(m.unit)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", WORKLOADS.join("\n"));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("mamdr-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::capture();
    if fingerprint.nproc < frozen::CORES {
        eprintln!(
            "mamdr-benchmark: sizes are frozen for {} cores, this machine offers {}",
            frozen::CORES,
            fingerprint.nproc
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("mamdr-benchmark: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let spans = args.trace.then(|| Arc::new(Spans::new()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
        spans: spans.clone(),
    };
    let mut outcome = workloads::run(&args.workload, &ctx).expect("workload name was validated");
    // Scratch directories are this process's own; leave only results behind.
    if let Ok(entries) = std::fs::read_dir(&args.out_dir) {
        let mine = format!("tmp-{}-", std::process::id());
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&mine) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }

    let lines = if let Some(spans) = &spans {
        let path = args.out_dir.join(format!("{}.trace.json", args.workload));
        if let Err(e) = spans.write_json(&path, &args.workload) {
            outcome.check(false, || format!("cannot write {}: {e}", path.display()));
        }
        let dropped = outcome.metrics.get("obs.spans_dropped").copied().unwrap_or(0.0);
        outcome.set("obs.spans_dropped", dropped + spans.dropped() as f64);
        outcome.set("machine.calib_ms", fingerprint.calib_ms);
        collect(&mut outcome, PER_LAYER, false)
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb());
        collect(&mut outcome, END_TO_END, true)
    };

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (m, v) in &lines {
        match outcome.ranges.get(m.name) {
            Some((min, max)) => println!(
                "  {:<32} {v:>16.6} {:<8} median of {} repetitions, min {min:.6} max {max:.6}",
                m.name,
                m.unit,
                frozen::MEASURED_REPS
            ),
            None => println!("  {:<32} {v:>16.6} {}", m.name, m.unit),
        }
    }
    for f in &outcome.failures {
        eprintln!("mamdr-benchmark: FAILED CHECK: {f}");
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  attempted {}  failed {}  failed_share {failed_share}",
        outcome.attempted, outcome.failed
    );

    let metrics = metrics_json(&lines);
    let counts: Vec<String> =
        outcome.counts.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| quote(f)).collect();
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \"frozen\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"counts\": {{{}}}, \"metrics\": {metrics}}}\n",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.to_json(),
        frozen::to_json(ctx.rep_seconds()),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        failures.join(", "),
        counts.join(", "),
    );
    let result_path = args.out_dir.join(format!(
        "{}.trace{}.seed{}.json",
        args.workload,
        u8::from(args.trace),
        args.seed
    ));
    if let Err(e) = std::fs::write(&result_path, result) {
        eprintln!("mamdr-benchmark: cannot write {}: {e}", result_path.display());
        return ExitCode::from(2);
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
