//! Minimal command-line parsing shared by the table binaries.

/// Common knobs for every benchmark binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset size multiplier relative to the preset defaults.
    pub scale: f64,
    /// Training epochs (0 = keep the binary's default).
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
    /// PS–worker count for the distributed binaries (0 = keep the
    /// binary's default). Distinct from `--threads`, which sizes the
    /// kernel pool inside each worker.
    pub workers: usize,
    /// Deterministic fault-injection spec for the networked runtime,
    /// e.g. `seed=7,drop_send=0.05,dup=0.05,disconnect=3`. `None` runs a
    /// perfect network.
    pub fault_plan: Option<String>,
    /// Write a parameter checkpoint + round journal every this many
    /// rounds (0 disables journaling). Requires `--checkpoint-dir` or
    /// `--resume`.
    pub checkpoint_every: usize,
    /// Directory the distributed binaries write checkpoints/journals to.
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
    /// In-flight request window per RPC client connection (0 = keep the
    /// retry policy's default). Depth 1 serializes requests; results are
    /// bit-identical at any depth.
    pub pipeline_depth: usize,
    /// Parameter-server shard count for the distributed binaries. `1`
    /// (the default) runs the classic single-server loopback; higher
    /// values split the key space across that many servers by consistent
    /// hash. Results are bit-identical at any shard count.
    pub shards: usize,
    /// Dataset preset for the distributed binaries (`None` keeps the
    /// binary's default). `industry` is the 64-domain learning-dynamics
    /// simulation; `longtail` is the 2048-domain Zipf key-space stress
    /// preset for sharding runs.
    pub preset: Option<String>,
    /// Serve-bench mode: drive a trace-scheduled open-loop load (arrivals
    /// on the trace clock, overload sheds) instead of closed-loop clients.
    pub open_loop: bool,
    /// Open-loop offered rate, requests per second (0 = the binary's
    /// default).
    pub rate: f64,
    /// Open-loop trace duration, seconds (0 = the binary's default).
    pub duration: f64,
    /// Serving replica count behind the deterministic user router.
    pub replicas: usize,
    /// Micro-batch close policy for the serving dispatcher
    /// (`fixed` | `adaptive`; `None` keeps the server default, adaptive).
    pub policy: Option<String>,
    /// Continual publishing: commit a serving snapshot every this many
    /// training rounds (0 disables). Snapshots land under the checkpoint
    /// directory, so `--publish-every` requires `--checkpoint-dir`.
    pub publish_every: usize,
    /// Canary slice size as a percentage of the replica pool, in (0, 50]
    /// (0 disables the canary phase of the publish gate).
    pub canary_pct: f64,
    /// Live continual-serving mode for `dist_bench`: stand up a gated
    /// replica pool next to the trainer, publish through the gate every
    /// `--publish-every` rounds, and drive closed-loop traffic across the
    /// swaps. Requires `--publish-every`.
    pub serve_live: bool,
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
            pipeline_depth: 0,
            shards: 1,
            preset: None,
            open_loop: false,
            rate: 0.0,
            duration: 0.0,
            replicas: 1,
            policy: None,
            publish_every: 0,
            canary_pct: 0.0,
            serve_live: false,
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

impl BenchArgs {
    /// Parses `--scale`, `--epochs`, `--threads`, `--seed`, `--quick`,
    /// `--metrics-out`, `--workers` and `--fault-plan` from an argument
    /// iterator (unknown flags abort with a usage message).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        fn num(name: &str, v: String) -> f64 {
            v.parse::<f64>().unwrap_or_else(|e| panic!("bad value for {name}: {e}"))
        }
        let mut out = BenchArgs::default();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut take = |name: &str| -> String {
                args.next().unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--scale" => out.scale = num("--scale", take("--scale")),
                "--epochs" => out.epochs = num("--epochs", take("--epochs")) as usize,
                "--threads" => out.threads = num("--threads", take("--threads")) as usize,
                "--seed" => out.seed = num("--seed", take("--seed")) as u64,
                "--quick" => out.quick = true,
                "--metrics-out" => out.metrics_out = Some(take("--metrics-out")),
                "--workers" => out.workers = num("--workers", take("--workers")) as usize,
                "--fault-plan" => out.fault_plan = Some(take("--fault-plan")),
                "--checkpoint-every" => {
                    out.checkpoint_every =
                        num("--checkpoint-every", take("--checkpoint-every")) as usize;
                }
                "--checkpoint-dir" => out.checkpoint_dir = Some(take("--checkpoint-dir")),
                "--resume" => out.resume = Some(take("--resume")),
                "--trace-out" => out.trace_out = Some(take("--trace-out")),
                "--phase-summary" => out.phase_summary = true,
                "--introspect-addr" => out.introspect_addr = Some(take("--introspect-addr")),
                "--pipeline-depth" => {
                    out.pipeline_depth = num("--pipeline-depth", take("--pipeline-depth")) as usize;
                }
                "--shards" => out.shards = num("--shards", take("--shards")) as usize,
                "--preset" => out.preset = Some(take("--preset")),
                "--open-loop" => out.open_loop = true,
                "--rate" => out.rate = num("--rate", take("--rate")),
                "--duration" => out.duration = num("--duration", take("--duration")),
                "--replicas" => out.replicas = num("--replicas", take("--replicas")) as usize,
                "--policy" => out.policy = Some(take("--policy")),
                "--publish-every" => {
                    out.publish_every = num("--publish-every", take("--publish-every")) as usize;
                }
                "--canary-pct" => out.canary_pct = num("--canary-pct", take("--canary-pct")),
                "--serve-live" => out.serve_live = true,
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --scale <f> --epochs <n> --threads <n> --seed <n> --quick --metrics-out <path> --workers <n> --fault-plan <spec> --checkpoint-every <n> --checkpoint-dir <dir> --resume <dir> --trace-out <path> --phase-summary --introspect-addr <addr> --pipeline-depth <n> --shards <n> --preset <industry|longtail> --open-loop --rate <rps> --duration <s> --replicas <n> --policy <fixed|adaptive> --publish-every <n> --canary-pct <p> --serve-live"
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// Parses the process arguments, validates them up front (a bad
    /// `--threads` or `--metrics-out` aborts with a clear message *before*
    /// any dataset generation or training starts), and applies `--threads`
    /// to the kernel pool so every binary honors the knob without its own
    /// wiring.
    pub fn from_env() -> Self {
        let args = Self::parse(std::env::args().skip(1));
        if let Err(msg) = args.validate() {
            eprintln!("invalid arguments: {msg}");
            std::process::exit(2);
        }
        args.apply_kernel_threads();
        args
    }

    /// Checks flag values for problems that would otherwise only surface
    /// minutes into a run: a zero or absurd `--threads`, a non-positive
    /// `--scale`, or a `--metrics-out` path that cannot possibly be written
    /// (missing parent directory, or an existing directory).
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        if self.threads > MAX_THREADS {
            return Err(format!(
                "--threads {} exceeds the supported maximum of {MAX_THREADS}",
                self.threads
            ));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("--scale must be a positive number, got {}", self.scale));
        }
        if self.workers > MAX_THREADS {
            return Err(format!(
                "--workers {} exceeds the supported maximum of {MAX_THREADS}",
                self.workers
            ));
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
        if self.pipeline_depth > MAX_PIPELINE_DEPTH {
            return Err(format!(
                "--pipeline-depth {} exceeds the supported maximum of {MAX_PIPELINE_DEPTH}",
                self.pipeline_depth
            ));
        }
        if self.shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        if self.shards > MAX_SHARDS {
            return Err(format!(
                "--shards {} exceeds the supported maximum of {MAX_SHARDS}",
                self.shards
            ));
        }
        if let Some(p) = &self.preset {
            if !matches!(p.as_str(), "industry" | "longtail") {
                return Err(format!("--preset {p} is unknown (expected industry or longtail)"));
            }
        }
        if self.replicas == 0 {
            return Err("--replicas must be at least 1".into());
        }
        if self.replicas > MAX_REPLICAS {
            return Err(format!(
                "--replicas {} exceeds the supported maximum of {MAX_REPLICAS}",
                self.replicas
            ));
        }
        if !(self.rate.is_finite() && self.rate >= 0.0) {
            return Err(format!("--rate must be a non-negative number, got {}", self.rate));
        }
        if !(self.duration.is_finite() && self.duration >= 0.0) {
            return Err(format!("--duration must be a non-negative number, got {}", self.duration));
        }
        if let Some(p) = &self.policy {
            if let Err(e) = mamdr_serve::BatchPolicy::parse(p) {
                return Err(format!("--policy: {e}"));
            }
        }
        if self.publish_every > 0 && self.checkpoint_dir.is_none() {
            return Err("--publish-every requires --checkpoint-dir <dir> (snapshots are \
                        committed next to the checkpoints)"
                .into());
        }
        // NaN-safe: a NaN --canary-pct fails the range check too.
        if self.canary_pct != 0.0 && !(self.canary_pct > 0.0 && self.canary_pct <= 50.0) {
            return Err(format!(
                "--canary-pct must be in (0, 50] (a canary larger than half the pool is a \
                 cutover, not a canary), got {}",
                self.canary_pct
            ));
        }
        if self.serve_live && self.publish_every == 0 {
            return Err("--serve-live requires --publish-every <n> (live serving without \
                        publication has nothing to swap)"
                .into());
        }
        Ok(())
    }

    /// Epochs to use given a binary default, after the `--quick` cap.
    pub fn epochs_or(&self, default: usize) -> usize {
        let d = if self.quick { default.min(QUICK_EPOCH_CAP) } else { default };
        if self.epochs == 0 {
            d
        } else {
            self.epochs
        }
    }

    /// Workers to use given a binary default (`--workers 0` keeps it).
    pub fn workers_or(&self, default: usize) -> usize {
        if self.workers == 0 {
            default
        } else {
            self.workers
        }
    }

    /// Applies `--threads` to the process-wide deterministic kernel pool.
    /// Binaries call this once at startup; runs driven through
    /// `TrainConfig::threads` re-apply the same value.
    pub fn apply_kernel_threads(&self) {
        mamdr_tensor::pool::set_threads(self.threads);
    }
}

/// Upper bound [`BenchArgs::validate`] accepts for `--threads`; values past
/// it are always typos, and spawning that many OS threads would thrash.
pub const MAX_THREADS: usize = 1024;

/// Upper bound [`BenchArgs::validate`] accepts for `--pipeline-depth`;
/// a deeper window than this buys nothing and risks absurd batching.
pub const MAX_PIPELINE_DEPTH: usize = 4096;

/// Upper bound [`BenchArgs::validate`] accepts for `--shards`; one
/// loopback process cannot usefully host more servers than this, and the
/// manifest format itself caps a deployment at 4096 shards.
pub const MAX_SHARDS: usize = 64;

/// Upper bound [`BenchArgs::validate`] accepts for `--replicas`; one
/// process cannot usefully host more complete serving stacks than this.
pub const MAX_REPLICAS: usize = 64;

/// `--quick` caps per-binary default epochs at this many.
pub const QUICK_EPOCH_CAP: usize = 3;

/// `--quick` multiplies the dataset scale by this factor.
pub const QUICK_SCALE_FACTOR: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> BenchArgs {
        BenchArgs::parse(words.iter().map(|s| s.to_string()))
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
    fn pipeline_depth_parses_and_validates() {
        let a = parse(&[]);
        assert_eq!(a.pipeline_depth, 0);
        assert!(a.validate().is_ok());
        let a = parse(&["--pipeline-depth", "8"]);
        assert_eq!(a.pipeline_depth, 8);
        assert!(a.validate().is_ok());
        assert!(parse(&["--pipeline-depth", "1"]).validate().is_ok());
        let err = parse(&["--pipeline-depth", "100000"]).validate().unwrap_err();
        assert!(err.contains("--pipeline-depth"), "{err}");
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
    fn open_loop_flags_parse_and_validate() {
        let a = parse(&[]);
        assert!(!a.open_loop);
        assert_eq!(a.rate, 0.0);
        assert_eq!(a.duration, 0.0);
        assert_eq!(a.replicas, 1);
        assert_eq!(a.policy, None);
        assert!(a.validate().is_ok());

        let a = parse(&[
            "--open-loop",
            "--rate",
            "50000",
            "--duration",
            "20",
            "--replicas",
            "4",
            "--policy",
            "adaptive",
        ]);
        assert!(a.open_loop);
        assert_eq!(a.rate, 50_000.0);
        assert_eq!(a.duration, 20.0);
        assert_eq!(a.replicas, 4);
        assert_eq!(a.policy.as_deref(), Some("adaptive"));
        assert!(a.validate().is_ok());
        assert!(parse(&["--policy", "fixed"]).validate().is_ok());

        let err = parse(&["--replicas", "0"]).validate().unwrap_err();
        assert!(err.contains("--replicas"), "{err}");
        let err = parse(&["--replicas", "65"]).validate().unwrap_err();
        assert!(err.contains("maximum"), "{err}");
        let err = parse(&["--rate", "-5"]).validate().unwrap_err();
        assert!(err.contains("--rate"), "{err}");
        let err = parse(&["--duration", "-1"]).validate().unwrap_err();
        assert!(err.contains("--duration"), "{err}");
        let err = parse(&["--policy", "banana"]).validate().unwrap_err();
        assert!(err.contains("--policy"), "{err}");
    }

    #[test]
    fn publish_flags_parse_and_validate() {
        let a = parse(&[]);
        assert_eq!(a.publish_every, 0);
        assert_eq!(a.canary_pct, 0.0);
        assert!(!a.serve_live);
        assert!(a.validate().is_ok());

        let a = parse(&[
            "--publish-every",
            "2",
            "--checkpoint-dir",
            "/tmp/ckpts",
            "--canary-pct",
            "25",
            "--serve-live",
        ]);
        assert_eq!(a.publish_every, 2);
        assert_eq!(a.canary_pct, 25.0);
        assert!(a.serve_live);
        assert!(a.validate().is_ok());

        // Snapshots are committed under the checkpoint directory.
        let err = parse(&["--publish-every", "2"]).validate().unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");

        // Live serving without publication has nothing to swap.
        let err = parse(&["--serve-live"]).validate().unwrap_err();
        assert!(err.contains("--publish-every"), "{err}");

        // The canary slice must stay a minority of the pool.
        for bad in ["-1", "0.0000001", "50.5", "100", "NaN"] {
            let words = ["--canary-pct", bad];
            let a = parse(&words);
            if bad == "0.0000001" {
                assert!(a.validate().is_ok(), "tiny positive pct is valid");
            } else {
                let err = a.validate().unwrap_err();
                assert!(err.contains("--canary-pct"), "{bad}: {err}");
            }
        }
        assert!(parse(&["--canary-pct", "50"]).validate().is_ok());
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
