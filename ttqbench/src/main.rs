//! Time-to-quality benchmark of the rdp stack.
//!
//! ```text
//! rdp-ttqbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload (`flow-hier`, `flow-hier-eplace`, `route-congested`,
//! `serve-batch`) through the public APIs of `rdp-core`, `rdp-route`,
//! `rdp-eval` and `rdp-serve` for `--seconds` of measured time, checks its
//! outputs, and prints as the last stdout line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end set ([`E2E`]); with `--trace 1` they are
//! the per-layer set ([`LAYERS`]), measured by a traced run that also
//! reports its own overhead. A stamp line (`{"meta": ...}`) precedes the
//! result. The exit code is 0 when every correctness check passed, 1 when
//! one failed, 2 on bad arguments and 3 when the machine has fewer cores
//! than the workload's threads. See `README.md` for the workloads and the
//! meaning of each metric.

mod probe;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Busy threads every workload asks for: kernel threads of one placement,
/// or job-server workers × 1 thread per job.
pub const THREADS: usize = 2;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_s", "s"),
    ("ops_per_s", "1/s"),
    ("hpwl", "dbu"),
    ("scaled_hpwl", "dbu"),
    ("rc", "%"),
    ("routed_overflow", "tracks"),
    ("peak_rss_mb", "MiB"),
];

/// Names of the kernels timed at 1 and 2 threads in the traced run.
pub const KERNELS: &[&str] = &[
    "core.wirelength.grad",
    "core.density.bell_grad",
    "core.fused.wl_bell_grad",
    "core.electrostatics.grad",
    "core.fused.wl_electro_grad",
    "geom.fft.fft2d",
    "route.pattern.estimate",
    "route.learned.predict",
];

/// Per-layer metrics other than the per-kernel ones: `(name, unit)`.
pub const LAYERS: &[(&str, &str)] = &[
    ("core.placer.stage.gp_s", "s"),
    ("core.placer.stage.inflate_s", "s"),
    ("core.placer.stage.legalize_s", "s"),
    ("core.placer.stage.detail_s", "s"),
    ("core.placer.rounds", "count"),
    ("core.optimizer.gradient_evals", "count"),
    ("core.optimizer.outer_rounds", "count"),
    ("core.optimizer.recoveries", "count"),
    ("core.optimizer.overflow", "ratio"),
    ("core.optimizer.grad_share", "ratio"),
    ("core.model.build_s", "s"),
    ("core.cluster.build_levels_s", "s"),
    ("core.cluster.levels", "count"),
    ("gen.generate_s", "s"),
    ("db.bookshelf_write_s", "s"),
    ("db.bookshelf_read_s", "s"),
    ("db.check_legal_s", "s"),
    ("core.inflation.inflate_s", "s"),
    ("core.inflation.cells_inflated", "count"),
    ("route.router.pattern_s", "s"),
    ("route.router.negotiation_s", "s"),
    ("route.router.iterations", "count"),
    ("route.router.segments", "count"),
    ("route.router.route2d_s", "s"),
    ("route.router.route3d_s", "s"),
    ("route.router.reroute_s", "s"),
    ("route.router.reroute.dirty_nets", "count"),
    ("route.router.reroute.vs_route", "ratio"),
    ("core.legalize.legalize_s", "s"),
    ("core.legalize.failed", "count"),
    ("core.legalize.displacement", "dbu"),
    ("core.detail.detail_s", "s"),
    ("core.detail.swaps", "count"),
    ("core.detail.reorders", "count"),
    ("eval.score_s", "s"),
    ("geom.parallel.dispatch_us", "us"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.attempts", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name with its unit, in output order: the
/// per-kernel triples (`<kernel>_s.t1`, `<kernel>_s.t2`,
/// `geom.parallel.eff_2t.<kernel>`) then [`LAYERS`].
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for k in KERNELS {
        out.push((format!("{k}_s.t1"), "s"));
        out.push((format!("{k}_s.t2"), "s"));
        out.push((format!("geom.parallel.eff_2t.{k}"), "ratio"));
    }
    out.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

pub const WORKLOADS: &[&str] = &[
    "flow-hier",
    "flow-hier-eplace",
    "route-congested",
    "serve-batch",
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced design sizes for the benchmark's own tests.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// What a workload run hands back: every metric it measured plus the
/// correctness verdict and operation counts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    /// Correctness failures (empty = correct).
    pub errors: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Directory for the run's scratch files (Bookshelf round trip, span
/// dumps): under `CARGO_TARGET_DIR` when set, else `target/`, relative to
/// the working directory.
pub fn out_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("ttqbench")
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (`{:?}` round-trips `f64`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: rdp-ttqbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let revision = git_revision();
    let stamp = format!(
        "{{\"revision\": {}, \"cores\": {cores}, \"kernel_threads\": {THREADS}, \"profile\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}}}",
        json_str(&revision),
        json_str(profile),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        args.smoke,
    );
    if cores < THREADS {
        eprintln!(
            "error: refusing to record: {cores} core(s) detected but the workload runs {THREADS} busy threads; \
             a recording with fewer cores than threads measures time-slicing, not the program"
        );
        return ExitCode::from(3);
    }
    println!("{{\"meta\": {stamp}}}");

    let mut rec = spans::Recorder::new(args.trace);
    let mut outcome = workloads::run(&args, &mut rec);
    outcome.set("peak_rss_mb", stats::peak_rss_mb());

    if args.trace {
        outcome.set("trace.spans", rec.len() as f64);
        let dir = out_dir();
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        let header = format!(
            "run {}-{}-{} {stamp}",
            args.workload,
            args.seed,
            std::process::id()
        );
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, rec.to_tsv(&header)))
        {
            Ok(()) => eprintln!("[ttqbench] spans written to {}", path.display()),
            Err(e) => eprintln!(
                "[ttqbench] could not write spans to {}: {e}",
                path.display()
            ),
        }
        let mut self_times: Vec<_> = rec.self_times().into_iter().collect();
        self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
        eprintln!("[ttqbench] self time per span (s):");
        for (name, t) in self_times {
            eprintln!("  {t:>10.4}  {name}");
        }
    }

    let wanted: Vec<(String, &str)> = if args.trace {
        layer_metrics()
    } else {
        E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut metrics = String::new();
    for (name, unit) in &wanted {
        let value = outcome.get(name);
        if value.is_none_or(|v| !v.is_finite()) {
            outcome
                .errors
                .push(format!("metric {name} was not measured"));
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value.unwrap_or(f64::NAN)),
            json_str(unit)
        );
    }
    for e in &outcome.errors {
        eprintln!("[ttqbench] CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
