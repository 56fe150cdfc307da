//! The sweep benchmark: what a user of `runbms` waits for, and where the
//! time goes.
//!
//! End-to-end numbers come from timing the real `runbms` binary as a
//! subprocess with tracing off ([`timed`]); per-layer numbers come from
//! a separate traced pass that calls each layer's public functions on
//! the same matrix ([`layers`]). Every run's CSV is compared byte for
//! byte with a sequential reference made from the same seed.
//!
//! ```text
//! cargo build --release -p chopin-harness --bin runbms
//! cargo bench --manifest-path sweepbench/Cargo.toml --bench sweep -- --seed 1
//! ```
//!
//! Flags: `--workload NAME` (default: all five, interleaved), `--seed N`
//! (default 1), `--seconds S` of timed runs per workload (default 10),
//! `--trace 0|1` (end-to-end metrics only, or per-layer metrics only;
//! default both). The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 when
//! every output was correct and 1 otherwise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod stats;
pub mod timed;
pub mod workloads;

use chopin_harness::cli::Args;
use chopin_obs::json::json_string;
use chopin_sandbox::clock::WallSpan;
use layers::{chrome_trace, sample, trace_layers, LayerReport, Matrix, Tracer};
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use timed::{run_rep, time_setup, Rep};
use workloads::{permutation, Workload, CELLS, END_TO_END, PER_LAYER, WORKLOADS};

/// Rounds of timed runs made even when the time budget is spent.
const MIN_ROUNDS: usize = 3;

/// Runs timed only up to their CSV header after each full run.
const SETUP_SAMPLES_PER_RUN: usize = 5;

/// Spans of each layer operation and workload written to the trace.
const TRACE_SPANS_PER_OPERATION: usize = 100;

/// What one invocation of the benchmark runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads, interleaved round-robin.
    pub workloads: Vec<&'static Workload>,
    /// Seed of the benchmark-name permutation.
    pub seed: u64,
    /// Seconds of timed runs per workload.
    pub seconds: f64,
    /// Report end-to-end metrics.
    pub end_to_end: bool,
    /// Run the traced pass and report per-layer metrics.
    pub per_layer: bool,
}

impl Options {
    /// Parse the benchmark's flags. `--bench`, which `cargo bench`
    /// appends, is ignored.
    ///
    /// # Errors
    ///
    /// An unknown workload or a malformed value.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let args = Args::parse(argv.iter().cloned());
        let workloads = match args.value("workload") {
            None => WORKLOADS.iter().collect(),
            Some(name) => {
                vec![workloads::workload(name).ok_or(format!("unknown workload `{name}`"))?]
            }
        };
        let seconds: f64 = args.get_or("seconds", 10.0).map_err(|e| e.to_string())?;
        if !(seconds >= 0.0 && seconds.is_finite()) {
            return Err(format!(
                "--seconds must be a non-negative number, not {seconds}"
            ));
        }
        let (end_to_end, per_layer) = match args.value("trace") {
            None => (true, true),
            Some("0") => (true, false),
            Some("1") => (false, true),
            Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        };
        Ok(Options {
            workloads,
            seed: args.get_or("seed", 1).map_err(|e| e.to_string())?,
            seconds,
            end_to_end,
            per_layer,
        })
    }
}

/// The result line the benchmark ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output matched its reference and every layer check passed.
    pub correct: bool,
    /// Cells run plus layer checks made.
    pub attempted: u64,
    /// Cells and layer checks that failed.
    pub failed: u64,
    /// Metric name, value and unit, in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The outcome of `attempted` checked cells and layer checks of
    /// which `failed` failed: correct only when none did.
    pub fn new(attempted: u64, failed: u64, metrics: Vec<(String, f64, &'static str)>) -> Outcome {
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The process exit code: 0 when correct, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.correct {
            0
        } else {
            1
        }
    }

    /// The one-line JSON object printed last.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit `f64` holds; `null` if not finite.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Everything measured for one workload.
struct WorkloadRun {
    workload: &'static Workload,
    args: Vec<String>,
    reference: Arc<Vec<u8>>,
    reps: Vec<Rep>,
    /// Set-up times of runs killed right after their CSV header.
    setups: Vec<f64>,
    layers: Option<LayerReport>,
}

/// The end-to-end metrics measured directly; `cells_per_s` derives
/// from `sweep_s`.
const SAMPLED: [&str; 3] = ["sweep_s", "setup_s", "peak_rss_mb"];

impl WorkloadRun {
    fn samples(&self, name: &str) -> Vec<f64> {
        let field: fn(&Rep) -> f64 = match name {
            "sweep_s" => |r| r.wall_s,
            "setup_s" => |r| r.setup_s,
            "peak_rss_mb" => |r| r.peak_rss_mb,
            _ => return Vec::new(),
        };
        let mut values: Vec<f64> = self.reps.iter().map(field).collect();
        if name == "setup_s" {
            values.extend(&self.setups);
        }
        values
    }

    fn e2e_value(&self, name: &str) -> f64 {
        match name {
            "cells_per_s" => CELLS as f64 / stats::median(&self.samples("sweep_s")),
            _ => stats::median(&self.samples(name)),
        }
    }
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// Where `cargo build --release` puts `runbms`, honouring
/// `CARGO_TARGET_DIR` (relative to the root, where cargo is invoked).
fn runbms_path(root: &Path) -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    target.join("release").join("runbms")
}

/// Tally of checked outputs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, label: &str, rep: &Rep) {
        self.attempted += rep.cells;
        self.failed += rep.failed;
        if let Some(problem) = &rep.problem {
            eprintln!("sweepbench: {label}: {problem}");
        }
    }
}

/// Run the sequential reference: the grid alone, no supervisor.
fn reference_csv(runbms: &Path, args: &[String], root: &Path) -> Result<Vec<u8>, String> {
    let out = Command::new(runbms)
        .args(args)
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", runbms.display()))?;
    if !out.status.success() || out.stdout.is_empty() {
        return Err(format!(
            "reference run `runbms {}` failed: {}",
            args.join(" "),
            out.status
        ));
    }
    Ok(out.stdout)
}

/// Run the benchmark from `root`.
///
/// # Errors
///
/// Set-up failed: `runbms` is missing, a reference run failed, or a
/// layer could not be set up. Wrong outputs are not errors; they make
/// the outcome incorrect.
pub fn run(opts: &Options, root: &Path) -> Result<Outcome, String> {
    let runbms = runbms_path(root);
    if !runbms.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release -p chopin-harness --bin runbms`",
            runbms.display()
        ));
    }
    let dir = root.join("results").join("bench");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stderr_path = dir.join("runbms.stderr");
    let benchmarks = permutation(opts.seed);
    let mut tally = Tally::default();
    let rep = |w: &WorkloadRun, tally: &mut Tally, label: &str| -> Result<Rep, String> {
        let rep = run_rep(&runbms, &w.args, root, &w.reference, CELLS, &stderr_path)
            .map_err(|e| format!("{}: cannot run runbms: {e}", w.workload.name))?;
        tally.add(&format!("{} {label}", w.workload.name), &rep);
        Ok(rep)
    };
    // setup_s is ~1 ms and flips between host states that last ~100 ms,
    // so one sample per timed run gives no steady median: every run is
    // followed by a few more, stopped at the header.
    let sample_setups = |w: &mut WorkloadRun| -> Result<(), String> {
        for _ in 0..SETUP_SAMPLES_PER_RUN {
            let setup = time_setup(&runbms, &w.args, root)
                .map_err(|e| format!("{}: set-up timing: {e}", w.workload.name))?;
            w.setups.push(setup);
        }
        Ok(())
    };

    // Set-up, untimed: references, the resume journal, one warm-up each.
    let mut references: BTreeMap<Vec<String>, Arc<Vec<u8>>> = BTreeMap::new();
    let mut runs = Vec::new();
    let mut warm_s = Vec::new();
    for &workload in &opts.workloads {
        let reference_args = workload.reference_args(&benchmarks);
        let reference = match references.get(&reference_args) {
            Some(reference) => Arc::clone(reference),
            None => {
                let csv = Arc::new(reference_csv(&runbms, &reference_args, root)?);
                references.insert(reference_args, Arc::clone(&csv));
                csv
            }
        };
        let mut run = WorkloadRun {
            workload,
            args: Vec::new(),
            reference,
            reps: Vec::new(),
            setups: Vec::new(),
            layers: None,
        };
        if let Some(args) = workload.journal_setup_args(&benchmarks) {
            run.args = args;
            rep(&run, &mut tally, "journal set-up")?;
        }
        run.args = workload.run_args(&benchmarks);
        warm_s.push(rep(&run, &mut tally, "warm-up")?.wall_s);
        sample_setups(&mut run)?;
        runs.push(run);
    }

    // Timed runs, round-robin so drift on the host falls on every
    // workload alike; shorter workloads run more times per round.
    let longest = warm_s.iter().copied().fold(0.0, f64::max);
    let per_round: Vec<usize> = warm_s
        .iter()
        .map(|w| ((longest / w).floor() as usize).max(1))
        .collect();
    let budget = if opts.end_to_end {
        opts.seconds * runs.len() as f64
    } else {
        0.0
    };
    let clock = WallSpan::begin();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || clock.elapsed().as_secs_f64() < budget {
        for (run, times) in runs.iter_mut().zip(&per_round) {
            for _ in 0..*times {
                let timed = rep(run, &mut tally, "timed run")?;
                run.reps.push(timed);
                sample_setups(run)?;
            }
        }
        rounds += 1;
    }

    // The traced pass, last, once per workload.
    let mut spans = Vec::new();
    if opts.per_layer {
        let worker_exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let origin = WallSpan::begin();
        for run in &mut runs {
            let matrix = Matrix::from_args(&run.args)?;
            let tracer = Arc::new(Tracer::new(origin));
            let report = trace_layers(
                &tracer,
                &matrix,
                run.workload.path,
                run.e2e_value("sweep_s"),
                run.e2e_value("setup_s"),
                &worker_exe,
                &dir,
            )?;
            tally.attempted += report.checks;
            tally.failed += report.failures.len() as u64;
            for failure in &report.failures {
                eprintln!("sweepbench: {} layers: {failure}", run.workload.name);
            }
            run.layers = Some(report);
            let tracer = Arc::try_unwrap(tracer).map_err(|_| "tracer still shared")?;
            spans.extend(sample(tracer.into_spans(), TRACE_SPANS_PER_OPERATION));
        }
        let trace = chrome_trace(&spans).to_json();
        tally.attempted += 1;
        if let Err(e) = check_trace(&trace, &spans) {
            eprintln!("sweepbench: trace export: {e}");
            tally.failed += 1;
        }
        let path = root.join("results").join("bench-trace.json");
        fs::write(&path, trace).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let mut metrics = Vec::new();
    let prefix = |run: &WorkloadRun, name: &str| match opts.workloads.len() {
        1 => name.to_string(),
        _ => format!("{}.{name}", run.workload.name),
    };
    for run in &runs {
        if opts.end_to_end {
            for metric in &END_TO_END {
                let value = run.e2e_value(metric.name);
                metrics.push((prefix(run, metric.name), value, metric.unit));
            }
        }
        if let Some(layers) = &run.layers {
            for (metric, (name, value)) in PER_LAYER.iter().zip(&layers.metrics) {
                debug_assert_eq!(metric.name, *name);
                metrics.push((prefix(run, name), *value, metric.unit));
            }
        }
    }
    tally.attempted += metrics.len() as u64;
    for (name, _, _) in metrics.iter().filter(|(_, v, _)| !v.is_finite()) {
        eprintln!("sweepbench: metric {name} is not a finite number");
        tally.failed += 1;
    }
    let outcome = Outcome::new(tally.attempted, tally.failed, metrics);
    let record = bench_record(opts, root, &runs, &outcome);
    let path = root.join("results").join("bench.json");
    fs::write(&path, record).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print_table(&runs);
    Ok(outcome)
}

/// The exported trace must validate and hold every span on its layer's
/// track.
fn check_trace(trace: &str, spans: &[layers::Span]) -> Result<(), String> {
    let stats = chopin_obs::validate_chrome_trace(trace)?;
    let mut expected: BTreeMap<&str, usize> = BTreeMap::new();
    for span in spans {
        *expected.entry(span.layer).or_default() += 1;
    }
    for (layer, count) in expected {
        if stats.spans_on(layer) != count {
            return Err(format!(
                "track `{layer}` holds {} spans, expected {count}",
                stats.spans_on(layer)
            ));
        }
    }
    Ok(())
}

/// Print every metric by name with its unit; timings with their sample
/// count and quartiles.
fn print_table(runs: &[WorkloadRun]) {
    for run in runs {
        println!("{}  (runbms {})", run.workload.name, run.args.join(" "));
        if !run.reps.is_empty() {
            for name in SAMPLED {
                let s = Summary::of(&run.samples(name));
                let unit = END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .map_or("", |m| m.unit);
                println!(
                    "  {name:<34} {:>12.6} {unit:<8} n={} q1={:.6} q3={:.6}",
                    s.median, s.n, s.q1, s.q3
                );
            }
            println!(
                "  {:<34} {:>12.3} cells/s",
                "cells_per_s",
                run.e2e_value("cells_per_s")
            );
        }
        if let Some(layers) = &run.layers {
            for (metric, (name, value)) in PER_LAYER.iter().zip(&layers.metrics) {
                println!("  {name:<34} {value:>12.6} {}", metric.unit);
            }
        }
    }
}

/// `results/bench.json`: the host, every raw sample, and each metric's
/// sample count, median and quartiles.
fn bench_record(opts: &Options, root: &Path, runs: &[WorkloadRun], outcome: &Outcome) -> String {
    let mut out = String::from("{\n  \"host\": ");
    out.push_str(&host_record(opts, root));
    out.push_str(",\n  \"workloads\": {");
    for (i, run) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let args: Vec<String> = run.args.iter().map(|a| json_string(a)).collect();
        let _ = write!(
            out,
            "{sep}\n    {}: {{\n      \"runbms_args\": [{}],\n      \"reps\": [",
            json_string(run.workload.name),
            args.join(",")
        );
        let reps: Vec<String> = run
            .reps
            .iter()
            .map(|r| {
                format!(
                    "{{\"wall_s\":{},\"setup_s\":{},\"peak_rss_mb\":{},\"failed\":{}}}",
                    json_number(r.wall_s),
                    json_number(r.setup_s),
                    json_number(r.peak_rss_mb),
                    r.failed
                )
            })
            .collect();
        out.push_str(&reps.join(","));
        let setups: Vec<String> = run.setups.iter().map(|s| json_number(*s)).collect();
        let _ = write!(out, "],\n      \"setup_samples_s\": [{}]", setups.join(","));
        out.push_str(",\n      \"summary\": {");
        let summaries: Vec<String> = SAMPLED
            .iter()
            .map(|name| {
                let s = Summary::of(&run.samples(name));
                format!(
                    "\"{name}\":{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
                    s.n,
                    json_number(s.median),
                    json_number(s.q1),
                    json_number(s.q3)
                )
            })
            .collect();
        out.push_str(&summaries.join(","));
        out.push_str("},\n      \"layers\": {");
        if let Some(layers) = &run.layers {
            let values: Vec<String> = layers
                .metrics
                .iter()
                .map(|(name, v)| format!("{}:{}", json_string(name), json_number(*v)))
                .collect();
            out.push_str(&values.join(","));
        }
        out.push_str("}\n    }");
    }
    let _ = write!(
        out,
        "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {}\n}}\n",
        outcome.correct, outcome.attempted, outcome.failed
    );
    out
}

/// Git revision, `nproc`, kernel, the filesystem holding `results/`,
/// seed, run length and timestamp.
fn host_record(opts: &Options, root: &Path) -> String {
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // srclint:allow(R1002, reason = "the host record stamps when the benchmark ran; no measured number depends on it")
    let now = std::time::SystemTime::now();
    let timestamp = now
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"git_rev\":{},\"nproc\":{nproc},\"kernel\":{},\"results_fs\":{},\"seed\":{},\
         \"seconds\":{},\"timestamp_unix_s\":{timestamp}}}",
        json_string(&git_rev),
        json_string(kernel.trim()),
        json_string(&results_filesystem(&root.join("results"))),
        opts.seed,
        json_number(opts.seconds),
    )
}

/// Type of the filesystem mounted deepest above `path`, from
/// `/proc/self/mounts`.
fn results_filesystem(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// The benchmark's `main`: parse flags, run, print the result line, and
/// return the exit code.
pub fn main_with(argv: &[String]) -> i32 {
    let opts = match Options::parse(argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            eprintln!("usage: sweep [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]");
            return 2;
        }
    };
    match run(&opts, &repo_root()) {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            outcome.exit_code()
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            1
        }
    }
}
