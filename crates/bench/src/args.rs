//! Minimal command-line parsing shared by the `paper` experiments.

/// Common knobs for every `paper` experiment.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset size multiplier relative to the preset defaults.
    pub scale: f64,
    /// Training epochs (0 = keep the experiment's default).
    pub epochs: usize,
    /// Worker threads, both for independent runs and for the deterministic
    /// kernel pool (results are bit-identical at any value).
    pub threads: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Smoke-run mode: shrinks the dataset scale and caps epochs so a full
    /// table regenerates in seconds. Output keeps the same shape.
    pub quick: bool,
    /// Telemetry sink: JSONL event/metric dump path (plus a sibling
    /// `.prom` Prometheus-style snapshot). `None` disables telemetry.
    pub metrics_out: Option<String>,
    /// PS–worker count for `paper dist` (0 = keep its default). Distinct
    /// from `--threads`, which sizes the kernel pool inside each worker.
    pub workers: usize,
    /// Deterministic fault-injection spec for the networked runtime,
    /// e.g. `seed=7,drop_send=0.05,dup=0.05,disconnect=3`. `None` runs a
    /// perfect network.
    pub fault_plan: Option<String>,
    /// Write a parameter checkpoint + round journal every this many
    /// rounds (0 disables journaling). Requires `--checkpoint-dir` or
    /// `--resume`.
    pub checkpoint_every: usize,
    /// Directory `paper dist` writes checkpoints/journals to.
    pub checkpoint_dir: Option<String>,
    /// Resume a distributed run from the newest committed manifest in this
    /// directory (also used as the checkpoint destination).
    pub resume: Option<String>,
    /// Chrome `trace_event` JSON output path. Setting it attaches a span
    /// tracer to the run; load the file at `chrome://tracing` or in
    /// Perfetto. `None` runs untraced (the span paths cost nothing).
    pub trace_out: Option<String>,
    /// Print a per-phase wall-clock attribution table at exit (implies a
    /// tracer, like `--trace-out`).
    pub phase_summary: bool,
    /// Bind a live introspection HTTP endpoint (`/healthz`, `/metrics`,
    /// `/spans`) on this address for the duration of the run,
    /// e.g. `127.0.0.1:9115`. `None` disables it.
    pub introspect_addr: Option<String>,
    /// Parameter-server shard count for `paper dist`. `1` (the default)
    /// runs the classic single-server loopback; higher values split the
    /// key space across that many servers by consistent hash. Results are
    /// bit-identical at any shard count.
    pub shards: usize,
    /// Dataset preset for `paper dist` (`None` keeps its default).
    /// `industry` is the 64-domain learning-dynamics simulation;
    /// `longtail` is the 2048-domain Zipf key-space stress preset for
    /// sharding runs.
    pub preset: Option<String>,
    /// Serving replica count behind the deterministic user router.
    pub replicas: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 1.0,
            epochs: 0,
            threads: default_threads(),
            seed: 42,
            quick: false,
            metrics_out: None,
            workers: 0,
            fault_plan: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: None,
            trace_out: None,
            phase_summary: false,
            introspect_addr: None,
            shards: 1,
            preset: None,
            replicas: 1,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Rejects an output path that cannot possibly be written: an existing
/// directory, or a file under a missing parent directory.
fn check_out_path(flag: &str, path: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        return Err(format!("{flag} {path} is a directory; pass a file path"));
    }
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!("{flag} parent directory {} does not exist", parent.display()));
        }
    }
    Ok(())
}

/// Rejects a count flag outside `min..=max`.
fn check_count(flag: &str, value: usize, min: usize, max: usize) -> Result<(), String> {
    if value < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    if value > max {
        return Err(format!("{flag} {value} exceeds the supported maximum of {max}"));
    }
    Ok(())
}

impl BenchArgs {
    /// Parses the flags of command `bin` (`paper <name>`) from an argument
    /// iterator. A flag not in `reads` (the space-separated flags the
    /// experiment's row names), a missing
    /// value, or a value that is not a number of the flag's type is an
    /// error naming the flag: integer flags take decimal integers only, so
    /// `--seed -1` or `--threads 2.5` never round to a different run.
    pub fn parse(
        bin: &str,
        reads: &str,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("bad value for {flag}: {v:?} ({e})"))
        }
        let mut out = BenchArgs::default();
        while let Some(flag) = args.next() {
            if !reads.split(' ').any(|f| f == flag) {
                return Err(format!("unknown flag {flag} for {bin}; {bin} reads {reads}"));
            }
            let mut take = || args.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--scale" => out.scale = num(&flag, take()?)?,
                "--epochs" => out.epochs = num(&flag, take()?)?,
                "--threads" => out.threads = num(&flag, take()?)?,
                "--seed" => out.seed = num(&flag, take()?)?,
                "--quick" => out.quick = true,
                "--metrics-out" => out.metrics_out = Some(take()?),
                "--workers" => out.workers = num(&flag, take()?)?,
                "--fault-plan" => out.fault_plan = Some(take()?),
                "--checkpoint-every" => out.checkpoint_every = num(&flag, take()?)?,
                "--checkpoint-dir" => out.checkpoint_dir = Some(take()?),
                "--resume" => out.resume = Some(take()?),
                "--trace-out" => out.trace_out = Some(take()?),
                "--phase-summary" => out.phase_summary = true,
                "--introspect-addr" => out.introspect_addr = Some(take()?),
                "--shards" => out.shards = num(&flag, take()?)?,
                "--preset" => out.preset = Some(take()?),
                "--replicas" => out.replicas = num(&flag, take()?)?,
                other => unreachable!("{bin} lists {other}, which no arm parses"),
            }
        }
        Ok(out)
    }

    /// Parses `args` as [`parse`](Self::parse) does, validates them up
    /// front (a bad `--threads` or `--metrics-out` aborts with a clear
    /// message *before* any dataset generation or training starts), and
    /// applies `--threads` to the kernel pool so every experiment honors the
    /// knob without its own wiring. Any error exits 2.
    pub fn from_args(bin: &str, reads: &str, args: impl Iterator<Item = String>) -> Self {
        let args = Self::parse(bin, reads, args).and_then(|a| a.validate().map(|()| a));
        let args = args.unwrap_or_else(|msg| {
            eprintln!("invalid arguments: {msg}");
            std::process::exit(2);
        });
        args.apply_kernel_threads();
        args
    }

    /// Checks flag values for problems that would otherwise only surface
    /// minutes into a run: a zero or absurd count (`--threads`,
    /// `--workers`, `--shards`, `--replicas`), a non-positive
    /// `--scale`, or a `--metrics-out` path that cannot possibly be written
    /// (missing parent directory, or an existing directory).
    pub fn validate(&self) -> Result<(), String> {
        check_count("--threads", self.threads, 1, MAX_THREADS)?;
        check_count("--workers", self.workers, 0, MAX_THREADS)?;
        check_count("--shards", self.shards, 1, MAX_SHARDS)?;
        check_count("--replicas", self.replicas, 1, MAX_REPLICAS)?;
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("--scale must be a positive number, got {}", self.scale));
        }
        if let Some(spec) = &self.fault_plan {
            if let Err(e) = mamdr_rpc::FaultPlan::parse(spec) {
                return Err(format!("--fault-plan {spec}: {e}"));
            }
        }
        if self.checkpoint_every > 0 && self.checkpoint_dir.is_none() && self.resume.is_none() {
            return Err(
                "--checkpoint-every requires --checkpoint-dir <dir> (or --resume <dir>)".into()
            );
        }
        if let Some(dir) = &self.resume {
            if !std::path::Path::new(dir).is_dir() {
                return Err(format!("--resume {dir} is not an existing directory"));
            }
            // Every resume restores from a committed manifest — catch a
            // directory that cannot possibly satisfy it before any
            // training starts.
            let has_manifest = std::fs::read_dir(dir)
                .ok()
                .into_iter()
                .flatten()
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == "mamdrmf"));
            if !has_manifest {
                return Err(format!("--resume {dir} holds no committed manifest (*.mamdrmf)"));
            }
        }
        if let Some(path) = &self.metrics_out {
            check_out_path("--metrics-out", path)?;
        }
        if let Some(path) = &self.trace_out {
            check_out_path("--trace-out", path)?;
        }
        if let Some(addr) = &self.introspect_addr {
            if addr.parse::<std::net::SocketAddr>().is_err() {
                return Err(format!(
                    "--introspect-addr {addr} is not a socket address (try 127.0.0.1:9115)"
                ));
            }
        }
        if let Some(p) = &self.preset {
            if !matches!(p.as_str(), "industry" | "longtail") {
                return Err(format!("--preset {p} is unknown (expected industry or longtail)"));
            }
        }
        Ok(())
    }

    /// Epochs to use given an experiment default, after the `--quick` cap.
    pub fn epochs_or(&self, default: usize) -> usize {
        let d = if self.quick { default.min(QUICK_EPOCH_CAP) } else { default };
        if self.epochs == 0 {
            d
        } else {
            self.epochs
        }
    }

    /// Workers to use given an experiment default (`--workers 0` keeps it).
    pub fn workers_or(&self, default: usize) -> usize {
        if self.workers == 0 {
            default
        } else {
            self.workers
        }
    }

    /// Applies `--threads` to the process-wide deterministic kernel pool.
    /// `paper` calls this once at startup; runs driven through
    /// `TrainConfig::threads` re-apply the same value.
    pub fn apply_kernel_threads(&self) {
        mamdr_tensor::pool::set_threads(self.threads);
    }
}

/// Upper bound [`BenchArgs::validate`] accepts for `--threads`; values past
/// it are always typos, and spawning that many OS threads would thrash.
pub const MAX_THREADS: usize = 1024;

/// Upper bound [`BenchArgs::validate`] accepts for `--shards`; one
/// loopback process cannot usefully host more servers than this, and the
/// manifest format itself caps a deployment at 4096 shards.
pub const MAX_SHARDS: usize = 64;

/// Upper bound [`BenchArgs::validate`] accepts for `--replicas`; one
/// process cannot usefully host more complete serving stacks than this.
pub const MAX_REPLICAS: usize = 64;

/// `--quick` caps per-experiment default epochs at this many.
pub const QUICK_EPOCH_CAP: usize = 3;

/// `--quick` multiplies the dataset scale by this factor.
pub const QUICK_SCALE_FACTOR: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::EXPERIMENTS;

    fn parse(words: &[&str]) -> BenchArgs {
        try_parse(words).unwrap()
    }

    /// Parses as an experiment that reads every flag some experiment reads.
    fn try_parse(words: &[&str]) -> Result<BenchArgs, String> {
        let mut all: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.reads.split(' ')).collect();
        all.sort_unstable();
        all.dedup();
        BenchArgs::parse("test", &all.join(" "), words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn a_flag_the_binary_does_not_read_is_rejected_naming_flag_and_binary() {
        for (name, words) in [
            ("table5", ["--workers", "4"]),
            ("pscache", ["--fault-plan", "seed=1"]),
            ("serve", ["--shards", "4"]),
            ("dist", ["--replicas", "2"]),
        ] {
            let reads = EXPERIMENTS.iter().find(|e| e.name == name).unwrap().reads;
            let bin = format!("paper {name}");
            let err = BenchArgs::parse(&bin, reads, words.iter().map(|s| s.to_string()))
                .expect_err(&format!("{bin} {words:?} must be rejected"));
            assert!(err.contains(words[0]) && err.contains(&bin), "{bin} {words:?}: {err}");
        }
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&[]);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.epochs, 0);
        let a = parse(&["--scale", "0.25", "--epochs", "3", "--seed", "9"]);
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.epochs, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.epochs_or(10), 3);
        assert_eq!(parse(&[]).epochs_or(10), 10);
    }

    #[test]
    fn validation_rejects_bad_threads_and_scale() {
        assert!(parse(&[]).validate().is_ok());
        let err = parse(&["--threads", "0"]).validate().unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = parse(&["--threads", "1000000"]).validate().unwrap_err();
        assert!(err.contains("maximum"), "{err}");
        let err = parse(&["--scale", "-2"]).validate().unwrap_err();
        assert!(err.contains("--scale"), "{err}");
        assert!(parse(&["--threads", "4", "--scale", "0.5"]).validate().is_ok());
    }

    #[test]
    fn validation_rejects_unwritable_metrics_out() {
        let err = parse(&["--metrics-out", "/no/such/dir/ever/m.jsonl"]).validate().unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        let dir = std::env::temp_dir();
        let err = parse(&["--metrics-out", dir.to_str().unwrap()]).validate().unwrap_err();
        assert!(err.contains("directory"), "{err}");
        let ok = dir.join("mamdr-args-test.jsonl");
        assert!(parse(&["--metrics-out", ok.to_str().unwrap()]).validate().is_ok());
    }

    #[test]
    fn quick_caps_default_epochs_but_not_explicit_ones() {
        let a = parse(&["--quick"]);
        assert!(a.quick);
        assert_eq!(a.epochs_or(20), QUICK_EPOCH_CAP);
        assert_eq!(a.epochs_or(2), 2);
        let a = parse(&["--quick", "--epochs", "7"]);
        assert_eq!(a.epochs_or(20), 7);
    }

    #[test]
    fn workers_and_fault_plan_parse_and_validate() {
        let a = parse(&[]);
        assert_eq!(a.workers, 0);
        assert_eq!(a.fault_plan, None);
        assert_eq!(a.workers_or(2), 2);
        let a = parse(&["--workers", "4", "--fault-plan", "seed=7,drop_send=0.05,disconnect=3"]);
        assert_eq!(a.workers, 4);
        assert_eq!(a.workers_or(2), 4);
        assert!(a.validate().is_ok());
        let err = parse(&["--workers", "9999"]).validate().unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse(&["--fault-plan", "drop_send=banana"]).validate().unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
        let err = parse(&["--fault-plan", "nonsense=1"]).validate().unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
    }

    #[test]
    fn checkpoint_and_resume_flags_parse_and_validate() {
        let a = parse(&[]);
        assert_eq!(a.checkpoint_every, 0);
        assert_eq!(a.checkpoint_dir, None);
        assert_eq!(a.resume, None);
        assert!(a.validate().is_ok());

        // Journaling needs a destination directory.
        let err = parse(&["--checkpoint-every", "2"]).validate().unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
        let a = parse(&["--checkpoint-every", "2", "--checkpoint-dir", "/tmp/ckpts"]);
        assert_eq!(a.checkpoint_every, 2);
        assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ckpts"));
        assert!(a.validate().is_ok());

        // Resume demands an existing directory up front.
        let err = parse(&["--resume", "/no/such/dir/ever"]).validate().unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        let dir = std::env::temp_dir().join(format!("mamdr-args-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_str().unwrap();
        assert_eq!(parse(&["--resume", dir_s]).resume.as_deref(), Some(dir_s));

        // ...holding a committed manifest, at any shard count: a directory
        // without one cannot be resumed from and is rejected up front.
        for shards in ["1", "2"] {
            let err = parse(&["--shards", shards, "--resume", dir_s]).validate().unwrap_err();
            assert!(err.contains("manifest"), "{err}");
        }
        std::fs::write(dir.join("manifest-0000000001.mamdrmf"), b"x").unwrap();
        for shards in ["1", "2"] {
            assert!(parse(&["--shards", shards, "--resume", dir_s]).validate().is_ok());
        }
        // A resume directory doubles as the checkpoint destination.
        assert!(parse(&["--checkpoint-every", "2", "--resume", dir_s]).validate().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_out_is_captured_verbatim() {
        assert_eq!(parse(&[]).metrics_out, None);
        let a = parse(&["--metrics-out", "/tmp/run.jsonl"]);
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/run.jsonl"));
    }

    #[test]
    fn tracing_flags_parse_and_validate() {
        let a = parse(&[]);
        assert_eq!(a.trace_out, None);
        assert!(!a.phase_summary);
        assert_eq!(a.introspect_addr, None);

        let a = parse(&["--trace-out", "/tmp/trace.json", "--phase-summary"]);
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/trace.json"));
        assert!(a.phase_summary);
        assert!(a.validate().is_ok());

        // --trace-out paths get the same early checks as --metrics-out.
        let err = parse(&["--trace-out", "/no/such/dir/ever/t.json"]).validate().unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
        let dir = std::env::temp_dir();
        let err = parse(&["--trace-out", dir.to_str().unwrap()]).validate().unwrap_err();
        assert!(err.contains("directory"), "{err}");
    }

    #[test]
    fn shards_parse_and_validate() {
        let a = parse(&[]);
        assert_eq!(a.shards, 1);
        assert!(a.validate().is_ok());
        let a = parse(&["--shards", "4"]);
        assert_eq!(a.shards, 4);
        assert!(a.validate().is_ok());
        assert!(parse(&["--shards", "64"]).validate().is_ok());
    }

    #[test]
    fn zero_shards_are_rejected() {
        let err = parse(&["--shards", "0"]).validate().unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn absurd_shard_counts_are_rejected() {
        let err = parse(&["--shards", "65"]).validate().unwrap_err();
        assert!(err.contains("maximum"), "{err}");
    }

    #[test]
    fn unknown_presets_are_rejected() {
        assert!(parse(&["--preset", "industry"]).validate().is_ok());
        assert!(parse(&["--preset", "longtail"]).validate().is_ok());
        let err = parse(&["--preset", "banana"]).validate().unwrap_err();
        assert!(err.contains("--preset"), "{err}");
    }

    #[test]
    fn replicas_parse_and_validate() {
        let a = parse(&[]);
        assert_eq!(a.replicas, 1);
        assert!(a.validate().is_ok());
        let a = parse(&["--replicas", "4"]);
        assert_eq!(a.replicas, 4);
        assert!(a.validate().is_ok());

        let err = parse(&["--replicas", "0"]).validate().unwrap_err();
        assert!(err.contains("--replicas"), "{err}");
        let err = parse(&["--replicas", "65"]).validate().unwrap_err();
        assert!(err.contains("maximum"), "{err}");
    }

    #[test]
    fn integer_flags_parse_as_integers_or_fail_naming_the_flag() {
        // 2^53 + 1 has no f64: read through a float it ran seed ...992.
        assert_eq!(parse(&["--seed", "9007199254740993"]).seed, 9_007_199_254_740_993);
        for (flag, bad) in [("--seed", "-1"), ("--workers", "-1"), ("--threads", "2.5")] {
            let err = try_parse(&[flag, bad]).unwrap_err();
            assert!(err.contains(flag), "{flag} {bad}: {err}");
        }
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let err = try_parse(&["--open-loop"]).unwrap_err();
        assert!(err.contains("unknown flag --open-loop"), "{err}");
        let err = try_parse(&["--seed"]).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
    }

    #[test]
    fn introspect_addr_must_be_a_socket_address() {
        assert!(parse(&["--introspect-addr", "127.0.0.1:0"]).validate().is_ok());
        assert!(parse(&["--introspect-addr", "127.0.0.1:9115"]).validate().is_ok());
        let err = parse(&["--introspect-addr", "localhost"]).validate().unwrap_err();
        assert!(err.contains("--introspect-addr"), "{err}");
        let err = parse(&["--introspect-addr", "9115"]).validate().unwrap_err();
        assert!(err.contains("socket address"), "{err}");
    }
}
