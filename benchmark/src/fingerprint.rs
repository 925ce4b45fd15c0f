//! Where and on what a result was taken: machine, toolchain, commit, and a
//! fixed spin-loop calibration so a noisy neighbour is visible next to the
//! numbers it disturbed.

use crate::json::quote;
use std::process::Command;
use std::time::Instant;

/// The environment of one benchmark process.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub calib_ms: f64,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fixed amount of dependent integer work (xorshift, 40M steps): its
/// wall time depends on the core and on who else is using it, not on
/// anything in this repository.
pub fn spin_calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..40_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

impl Fingerprint {
    pub fn capture() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // The driver's checkout is not a git repository; that is a
            // valid answer, not an error.
            git_commit: first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            calib_ms: spin_calibration_ms(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"machine.calib_ms\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.rustc),
            quote(&self.git_commit),
            self.calib_ms
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
