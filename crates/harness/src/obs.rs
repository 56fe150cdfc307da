//! Harness-side observability: the `--trace-out`/`--events-out` CLI
//! plumbing, observed single runs, and wall-clock spans for experiment
//! phases.
//!
//! Two clocks meet here. Engine events carry *simulated* nanoseconds and
//! render on the trace tracks the obs crate defines (mutator, gc-stw,
//! gc-concurrent, pacing, engine). The harness's own phases — sweeps,
//! analyses, per-cell latency runs — are measured in *wall* time and land
//! on a separate [`TID_HARNESS`] track, so a Perfetto view of one file
//! shows both what the simulation did and what the harness spent doing it.

use crate::cli::Args;
use crate::experiments::ExperimentError;
use crate::supervisor::lock;
use chopin_core::{BenchmarkError, Suite};
use chopin_faults::{FaultPlan, NoFaults, ScheduledFaults};
use chopin_obs::{ChromeTrace, EventRecorder, MetricsObserver, MetricsRegistry, ObsConfig, Tee};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::config::RunConfig;
use chopin_runtime::engine::run_with_observer_and_faults;
use chopin_runtime::result::{RunError, RunResult};
use chopin_sandbox::clock::WallSpan;
use chopin_workloads::SizeClass;
use std::path::PathBuf;
use std::sync::Mutex;

/// Chrome-trace track id for harness wall-time spans (the engine uses
/// tracks 1–5; see [`chopin_obs::ChromeTrace::from_events`]).
pub const TID_HARNESS: u32 = 10;

/// Default path for `artifact trace` Chrome-trace output.
pub const DEFAULT_TRACE_OUT: &str = "results/trace.json";
/// Default path for `artifact trace` JSONL event output.
pub const DEFAULT_EVENTS_OUT: &str = "results/events.jsonl";

/// The flags [`ObsOptions::from_args`] reads.
pub const OBS_FLAGS: [&str; 2] = ["trace-out", "events-out"];

/// The observability flags shared by the harness binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// `--trace-out FILE`: write a Chrome-trace/Perfetto JSON document.
    pub trace_out: Option<String>,
    /// `--events-out FILE`: write the engine event stream as JSON Lines.
    pub events_out: Option<String>,
}

impl ObsOptions {
    /// Read `--trace-out` and `--events-out` from parsed arguments.
    pub fn from_args(args: &Args) -> ObsOptions {
        ObsOptions {
            trace_out: args.value("trace-out").map(str::to_string),
            events_out: args.value("events-out").map(str::to_string),
        }
    }

    /// Whether any output was requested.
    pub fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.events_out.is_some()
    }

    /// The equivalent [`ObsConfig`] (for static validation).
    pub fn to_config(&self) -> ObsConfig {
        ObsConfig {
            trace_out: self.trace_out.clone(),
            events_out: self.events_out.clone(),
            ..ObsConfig::default()
        }
    }

    /// Validate the options with the linter's R6xx rules (paths must be
    /// writable-shaped), so a typo'd `--trace-out results/` fails before
    /// the sweep runs instead of after.
    ///
    /// # Errors
    ///
    /// Returns the first diagnostic's message.
    pub fn validate(&self) -> Result<(), String> {
        let diags = chopin_lint::lint_obs_config("cli", &self.to_config());
        match diags.first() {
            None => Ok(()),
            Some(d) => Err(format!("{}: {}", d.rule, d.message)),
        }
    }

    /// Write the requested outputs: the trace document (when `--trace-out`
    /// was given) and the recorder's JSONL (when `--events-out` was).
    /// Returns the paths written.
    ///
    /// # Errors
    ///
    /// Returns any I/O error, tagged with the offending path.
    pub fn export(
        &self,
        trace: Option<&ChromeTrace>,
        recorder: Option<&EventRecorder>,
    ) -> Result<Vec<PathBuf>, String> {
        let mut written = Vec::new();
        if let (Some(path), Some(trace)) = (&self.trace_out, trace) {
            written.push(write_text(path, &trace.to_json())?);
        }
        if let (Some(path), Some(recorder)) = (&self.events_out, recorder) {
            written.push(write_text(path, &recorder.to_jsonl())?);
        }
        Ok(written)
    }
}

/// Write `contents` to `path`, creating parent directories on demand.
///
/// # Errors
///
/// Returns a message naming the path on any I/O failure.
pub fn write_text(path: &str, contents: &str) -> Result<PathBuf, String> {
    let path = PathBuf::from(path);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {parent:?}: {e}"))?;
    }
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Insert `-suffix` before the path's extension (`trace.json` →
/// `trace-h2.json`), for binaries that export one file per benchmark.
pub fn with_suffix(path: &str, suffix: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{suffix}.{ext}"),
        _ => format!("{path}-{suffix}"),
    }
}

/// One harness phase measured in wall-clock microseconds since the sink's
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessSpan {
    /// Phase name (e.g. `sweep:fop`, `lbo:analysis`).
    pub name: String,
    /// Start, µs since the sink was created.
    pub start_us: f64,
    /// End, µs since the sink was created.
    pub end_us: f64,
}

/// A thread-safe collector of [`HarnessSpan`]s — cheap enough to share
/// across threads.
#[derive(Debug, Default)]
pub struct SpanSink {
    epoch: Option<WallSpan>,
    spans: Mutex<Vec<HarnessSpan>>,
}

impl SpanSink {
    /// A sink whose epoch is now.
    pub fn new() -> SpanSink {
        SpanSink {
            epoch: Some(WallSpan::begin()),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch
            .map(|e| e.elapsed().as_secs_f64() * 1e6)
            .unwrap_or(0.0)
    }

    /// Run `f`, recording a named span around it.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        lock(&self.spans).push(HarnessSpan {
            name: name.to_string(),
            start_us,
            end_us,
        });
        out
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<HarnessSpan> {
        lock(&self.spans).clone()
    }
}

/// Add harness spans to a trace on the [`TID_HARNESS`] track. The track is
/// labelled as wall time since engine tracks carry simulated time.
pub fn add_spans_to_trace(trace: &mut ChromeTrace, spans: &[HarnessSpan]) {
    if spans.is_empty() {
        return;
    }
    trace.thread_name(TID_HARNESS, "harness (wall time)");
    for s in spans {
        trace.span(TID_HARNESS, &s.name, s.start_us, s.end_us);
    }
}

/// One benchmark run executed with a recording observer attached: the full
/// engine event stream (ring-buffered) plus the folded metrics registry.
#[derive(Debug)]
pub struct ObservedRun {
    /// The benchmark observed.
    pub benchmark: String,
    /// The collector used.
    pub collector: CollectorKind,
    /// Heap factor over the benchmark's published minimum heap.
    pub heap_factor: f64,
    /// The run's outcome. Failures (e.g. OOM) are kept, not propagated:
    /// the event stream of a failing run is exactly what a trace is for.
    pub outcome: Result<RunResult, RunError>,
    /// The recorded engine events (most recent
    /// [`chopin_obs::DEFAULT_RING_CAPACITY`]).
    pub recorder: EventRecorder,
    /// Counters, gauges and the pause histogram folded from the stream.
    pub metrics: MetricsRegistry,
}

impl ObservedRun {
    /// The run's Chrome trace (engine tracks only; merge harness spans
    /// with [`add_spans_to_trace`]).
    pub fn trace(&self) -> ChromeTrace {
        ChromeTrace::from_events(self.recorder.events())
    }
}

/// Run one benchmark (default size, single iteration, noise-free) with an
/// [`EventRecorder`] and [`MetricsObserver`] attached.
///
/// The run mirrors `BenchmarkRunner`'s heap resolution (`heap_factor` ×
/// the published minimum heap) but pins noise to zero so a trace is
/// reproducible run-to-run.
///
/// # Errors
///
/// Returns [`ExperimentError`] for unknown benchmarks or invalid specs;
/// engine failures land in [`ObservedRun::outcome`] instead.
pub fn observe_benchmark(
    benchmark: &str,
    collector: CollectorKind,
    heap_factor: f64,
) -> Result<ObservedRun, ExperimentError> {
    observe_benchmark_with_faults(benchmark, collector, heap_factor, None)
}

/// [`observe_benchmark`] with an optional deterministic fault plan
/// injected into the run (the `--faults` flag): fault onsets and clears
/// land on their own trace track alongside the engine's.
///
/// # Errors
///
/// See [`observe_benchmark`].
pub fn observe_benchmark_with_faults(
    benchmark: &str,
    collector: CollectorKind,
    heap_factor: f64,
    faults: Option<&FaultPlan>,
) -> Result<ObservedRun, ExperimentError> {
    let suite = Suite::chopin();
    let bench = suite
        .benchmark(benchmark)
        .ok_or_else(|| ExperimentError::UnknownBenchmark(benchmark.to_string()))?;
    let profile = bench.profile();
    let min_heap = profile
        .min_heap_bytes(SizeClass::Default)
        .ok_or_else(|| ExperimentError::UnknownBenchmark(benchmark.to_string()))?;
    let heap = (min_heap as f64 * heap_factor).round() as u64;
    let spec = profile
        .to_spec(SizeClass::Default)
        .ok_or_else(|| ExperimentError::UnknownBenchmark(benchmark.to_string()))?
        .map_err(|e| ExperimentError::Benchmark(BenchmarkError::Spec(e.to_string())))?;
    let config = RunConfig::new(heap, collector).with_noise(0.0);

    let mut tee = Tee(EventRecorder::new(), MetricsObserver::new());
    let outcome = match faults {
        None => run_with_observer_and_faults(&spec, &config, &mut tee, NoFaults),
        Some(plan) => {
            run_with_observer_and_faults(&spec, &config, &mut tee, ScheduledFaults::new(plan))
        }
    };
    let Tee(recorder, metrics) = tee;
    Ok(ObservedRun {
        benchmark: benchmark.to_string(),
        collector,
        heap_factor,
        outcome,
        recorder,
        metrics: metrics.into_registry(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_obs::validate_chrome_trace;

    #[test]
    fn options_parse_and_validate() {
        let args = Args::parse(["--trace-out", "out/t.json", "--events-out", "out/e.jsonl"]);
        let opts = ObsOptions::from_args(&args);
        assert!(opts.enabled());
        assert_eq!(opts.trace_out.as_deref(), Some("out/t.json"));
        assert!(opts.validate().is_ok());

        let bad = ObsOptions {
            trace_out: Some("out/".into()),
            events_out: None,
        };
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with("R601"), "{err}");
        assert!(!ObsOptions::default().enabled());
    }

    #[test]
    fn suffix_lands_before_the_extension() {
        assert_eq!(with_suffix("trace.json", "h2"), "trace-h2.json");
        assert_eq!(with_suffix("a/b/t.json", "fop"), "a/b/t-fop.json");
        assert_eq!(with_suffix("noext", "x"), "noext-x");
    }

    #[test]
    fn span_sink_produces_a_valid_harness_track() {
        let sink = SpanSink::new();
        let v = sink.time("phase:one", || 7);
        assert_eq!(v, 7);
        sink.time("phase:two", || ());
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));

        let mut trace = ChromeTrace::new();
        add_spans_to_trace(&mut trace, &spans);
        let stats = validate_chrome_trace(&trace.to_json()).unwrap();
        assert_eq!(stats.spans_on("harness (wall time)"), 2);
    }

    #[test]
    fn observe_benchmark_records_a_run() {
        let observed = observe_benchmark("fop", CollectorKind::G1, 2.0).unwrap();
        let result = observed.outcome.as_ref().expect("fop runs at 2x heap");
        assert!(!observed.recorder.is_empty());
        let h = observed
            .metrics
            .get_histogram("pause_ns")
            .expect("pauses were observed");
        assert_eq!(
            h.count(),
            result.telemetry().pause_histogram().count(),
            "the metrics observer sees every pause"
        );
        let stats = validate_chrome_trace(&observed.trace().to_json()).unwrap();
        assert!(stats.spans_on("mutator") >= 1);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(observe_benchmark("specjbb", CollectorKind::G1, 2.0).is_err());
    }
}
