//! Experiment definitions: one function per figure/table of the paper's
//! evaluation. Each returns structured data plus a rendered text report, so
//! the binaries and the integration tests share one implementation.

use crate::obs::{HarnessSpan, SpanSink};
use crate::plot::{render_chart, render_table, to_csv, ChartOptions, Series};
use crate::supervisor::{SuiteSupervisor, SuperviseError};
use chopin_core::latency::{
    events_of, metered_latencies, simple_latencies, LatencyDistribution, SmoothingWindow,
};
use chopin_core::lbo::{geomean_curves, Clock, LboAnalysis};
use chopin_core::nominal::{self, score_table, METRICS, TABLE2_METRICS};
use chopin_core::sweep::{SweepConfig, SweepResult};
use chopin_core::{BenchmarkError, BenchmarkRunner, Suite};
use chopin_faults::SupervisorPolicy;
use chopin_obs::{format_ns, LogHistogram};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::time::SimDuration;
use chopin_workloads::{suite, SizeClass, WorkloadProfile};
use std::collections::BTreeMap;
use std::fmt;

/// Error raised by experiment execution.
#[derive(Debug)]
pub enum ExperimentError {
    /// A benchmark name was not found in the suite.
    UnknownBenchmark(String),
    /// A run failed in a way the experiment cannot tolerate.
    Benchmark(BenchmarkError),
    /// Analysis over the collected samples failed.
    Analysis(chopin_analysis::AnalysisError),
    /// The requested workload has no latency events.
    NotLatencySensitive(String),
    /// Persisting experiment output (trace/event files) failed.
    Io(String),
    /// The sweep scheduler could not start, or quarantined cells the
    /// experiment cannot do without.
    Sweep(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownBenchmark(b) => write!(f, "unknown benchmark `{b}`"),
            ExperimentError::Benchmark(e) => write!(f, "benchmark error: {e}"),
            ExperimentError::Analysis(e) => write!(f, "analysis error: {e}"),
            ExperimentError::NotLatencySensitive(b) => {
                write!(f, "{b} is not a latency-sensitive workload")
            }
            ExperimentError::Io(e) | ExperimentError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<BenchmarkError> for ExperimentError {
    fn from(e: BenchmarkError) -> Self {
        ExperimentError::Benchmark(e)
    }
}

impl From<SuperviseError> for ExperimentError {
    fn from(e: SuperviseError) -> Self {
        ExperimentError::Sweep(e.to_string())
    }
}

impl From<chopin_analysis::AnalysisError> for ExperimentError {
    fn from(e: chopin_analysis::AnalysisError) -> Self {
        ExperimentError::Analysis(e)
    }
}

/// The result of an LBO experiment over one or more benchmarks
/// (Figures 1, 5 and the appendix LBO figures).
#[derive(Debug)]
pub struct LboExperiment {
    /// Per-benchmark sweep results (kept for failure reporting).
    pub sweeps: Vec<SweepResult>,
    /// Per-benchmark wall-clock LBO analyses.
    pub wall: Vec<LboAnalysis>,
    /// Per-benchmark task-clock LBO analyses.
    pub task: Vec<LboAnalysis>,
    /// Wall-time spans of the experiment's phases (the scheduler run
    /// plus the analysis pass) for the `--trace-out` harness track.
    pub spans: Vec<HarnessSpan>,
}

/// Look up every named benchmark's profile, in the order given.
///
/// # Errors
///
/// [`ExperimentError::UnknownBenchmark`] for the first name the suite
/// does not know.
pub fn resolve_profiles(names: &[String]) -> Result<Vec<WorkloadProfile>, ExperimentError> {
    let suite = suite::all();
    names
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|p| p.name == name)
                .cloned()
                .ok_or_else(|| ExperimentError::UnknownBenchmark(name.clone()))
        })
        .collect()
}

impl LboExperiment {
    /// Run the LBO experiment for the named benchmarks (or the whole suite
    /// when `benchmarks` is empty) on the sweep scheduler, under the
    /// default policy and thread isolation.
    ///
    /// # Errors
    ///
    /// See [`ExperimentError`]; a quarantined cell is an
    /// [`ExperimentError::Sweep`], since a hole would corrupt a geomean.
    pub fn run(
        benchmarks: &[String],
        sweep: &SweepConfig,
    ) -> Result<LboExperiment, ExperimentError> {
        let profiles = if benchmarks.is_empty() {
            suite::all()
        } else {
            resolve_profiles(benchmarks)?
        };
        let sink = SpanSink::new();
        let report = sink.time("sweep", || {
            SuiteSupervisor::new(SupervisorPolicy::default()).run(&profiles, sweep)
        })?;
        if !report.is_clean() {
            return Err(ExperimentError::Sweep(report.quarantine_summary()));
        }
        LboExperiment::analyse(report.results, &sink)
    }

    /// Compute both clocks' LBO analyses of `sweeps`, timed as the
    /// `lbo:analysis` span of `sink`, whose spans the experiment keeps.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Analysis`] when a benchmark's samples do not
    /// support an analysis (e.g. none completed).
    pub fn analyse(
        sweeps: Vec<SweepResult>,
        sink: &SpanSink,
    ) -> Result<LboExperiment, ExperimentError> {
        let (wall, task) = sink.time("lbo:analysis", || {
            let mut wall = Vec::with_capacity(sweeps.len());
            let mut task = Vec::with_capacity(sweeps.len());
            for s in &sweeps {
                wall.push(LboAnalysis::compute(&s.samples, Clock::Wall));
                task.push(LboAnalysis::compute(&s.samples, Clock::Task));
            }
            (wall, task)
        });
        let wall = wall.into_iter().collect::<Result<Vec<_>, _>>()?;
        let task = task.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(LboExperiment {
            sweeps,
            wall,
            task,
            spans: sink.spans(),
        })
    }

    /// The geometric-mean curves over all swept benchmarks (Figure 1).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (empty experiment).
    pub fn geomean(
        &self,
        clock: Clock,
    ) -> Result<BTreeMap<CollectorKind, Vec<(f64, f64)>>, ExperimentError> {
        let analyses = match clock {
            Clock::Wall => &self.wall,
            Clock::Task => &self.task,
        };
        Ok(geomean_curves(analyses)?)
    }

    /// Render the Figure 1 style report (geomean over benchmarks) for one
    /// clock.
    ///
    /// # Errors
    ///
    /// See [`LboExperiment::geomean`].
    pub fn render_geomean(&self, clock: Clock) -> Result<String, ExperimentError> {
        let curves = self.geomean(clock)?;
        let series: Vec<Series> = curves
            .iter()
            .map(|(c, pts)| Series::new(c.label(), pts.clone()))
            .collect();
        let label = match clock {
            Clock::Wall => "Normalized time overhead (LBO)",
            Clock::Task => "Normalized CPU overhead (LBO)",
        };
        let mut out = render_chart(
            &series,
            &ChartOptions {
                title: format!(
                    "Figure 1({}): geomean lower-bound {} overhead vs heap size",
                    if clock == Clock::Wall { "a" } else { "b" },
                    clock
                ),
                x_label: "Heap size (x minheap)".into(),
                y_label: label.into(),
                y_max: Some(2.0),
                ..Default::default()
            },
        );
        out.push('\n');
        out.push_str(&to_csv(&series));
        Ok(out)
    }

    /// Render the per-benchmark LBO report (Figure 5 / appendix figures)
    /// for benchmark index `i`.
    pub fn render_benchmark(&self, i: usize) -> String {
        let name = &self.sweeps[i].benchmark;
        let mut out = String::new();
        for (clock, analysis) in [(Clock::Wall, &self.wall[i]), (Clock::Task, &self.task[i])] {
            let series: Vec<Series> = analysis
                .curves()
                .iter()
                .map(|(c, pts)| {
                    Series::new(
                        c.label(),
                        pts.iter()
                            .map(|p| (p.heap_factor, p.overhead.mean()))
                            .collect(),
                    )
                })
                .collect();
            out.push_str(&render_chart(
                &series,
                &ChartOptions {
                    title: format!("LBO {clock} overheads for {name}"),
                    x_label: "Heap size (x minheap)".into(),
                    y_label: format!("Normalized {clock} overhead (LBO)"),
                    y_max: Some(2.0),
                    ..Default::default()
                },
            ));
            out.push('\n');
        }
        if !self.sweeps[i].failures.is_empty() {
            out.push_str("unplotted points (collector cannot run at this heap):\n");
            for f in &self.sweeps[i].failures {
                out.push_str(&format!(
                    "  {} @ {:.2}x: {}\n",
                    f.collector, f.heap_factor, f.reason
                ));
            }
        }
        out
    }
}

/// A latency experiment for one benchmark (Figures 3, 6 and the appendix
/// latency figures): simple and metered latency at several heap factors for
/// all collectors.
#[derive(Debug)]
pub struct LatencyExperiment {
    /// The benchmark measured.
    pub benchmark: String,
    /// (collector, heap factor, window) → distribution.
    pub distributions: Vec<(CollectorKind, f64, SmoothingWindow, LatencyDistribution)>,
    /// Raw events per (collector, heap factor) — §4.4's "optionally saving
    /// the complete data to file for offline analysis".
    raw_events: Vec<(
        CollectorKind,
        f64,
        Vec<chopin_runtime::requests::RequestEvent>,
    )>,
    /// Per-cell GC pause histograms from the timed iteration's telemetry
    /// ([`chopin_runtime::telemetry::Telemetry::pause_histogram`], which
    /// counts every pause, replayed ones included) — the quantile source
    /// for the pause report.
    pub pause_histograms: Vec<(CollectorKind, f64, LogHistogram)>,
    /// Wall-time spans of each measured (collector, heap-factor) cell for
    /// the `--trace-out` harness track.
    pub spans: Vec<HarnessSpan>,
}

impl LatencyExperiment {
    /// Run the latency experiment: `heap_factors` (the paper uses 2.0 and
    /// 6.0) × all collectors × the windows `[None, 100ms, Full]`.
    ///
    /// Collectors that cannot run a configuration are skipped, like the
    /// paper's missing curves.
    ///
    /// # Errors
    ///
    /// See [`ExperimentError`].
    pub fn run(
        benchmark: &str,
        heap_factors: &[f64],
    ) -> Result<LatencyExperiment, ExperimentError> {
        let suite = Suite::chopin();
        let bench = suite
            .benchmark(benchmark)
            .ok_or_else(|| ExperimentError::UnknownBenchmark(benchmark.to_string()))?;
        let profile = bench.profile().clone();
        if !profile.is_latency_sensitive() {
            return Err(ExperimentError::NotLatencySensitive(benchmark.to_string()));
        }
        let spec = profile
            .to_spec(SizeClass::Default)
            .expect("default size exists")
            .map_err(|e| ExperimentError::Benchmark(BenchmarkError::Spec(e.to_string())))?;

        let windows = [
            SmoothingWindow::None,
            SmoothingWindow::Duration(SimDuration::from_millis(100)),
            SmoothingWindow::Full,
        ];
        let sink = SpanSink::new();
        let mut distributions = Vec::new();
        let mut raw_events = Vec::new();
        let mut pause_histograms = Vec::new();
        for &factor in heap_factors {
            for collector in CollectorKind::ALL {
                let outcome = sink.time(&format!("latency:{collector}@{factor:.1}x"), || {
                    BenchmarkRunner::for_profile(profile.clone())
                        .collector(collector)
                        .heap_factor(factor)
                        .iterations(2)
                        .run_timed()
                });
                let timed = match outcome {
                    Ok(timed) => timed,
                    Err(BenchmarkError::Run(_)) => continue,
                    Err(e) => return Err(e.into()),
                };
                pause_histograms.push((
                    collector,
                    factor,
                    timed.telemetry().pause_histogram().clone(),
                ));
                let events =
                    events_of(&timed, spec.requests()).expect("latency-sensitive by construction");
                raw_events.push((collector, factor, events.clone()));
                for window in windows {
                    let latencies = match window {
                        SmoothingWindow::None => simple_latencies(&events),
                        w => metered_latencies(&events, w),
                    };
                    if let Some(dist) = LatencyDistribution::from_durations(latencies) {
                        distributions.push((collector, factor, window, dist));
                    }
                }
            }
        }
        Ok(LatencyExperiment {
            benchmark: benchmark.to_string(),
            distributions,
            raw_events,
            pause_histograms,
            spans: sink.spans(),
        })
    }

    /// The raw events of every measured (collector, heap-factor) cell.
    pub fn raw_events(
        &self,
    ) -> impl Iterator<
        Item = (
            CollectorKind,
            f64,
            &[chopin_runtime::requests::RequestEvent],
        ),
    > {
        self.raw_events
            .iter()
            .map(|(c, f, e)| (*c, *f, e.as_slice()))
    }

    /// Render the figure panel for one (heap factor, window) combination:
    /// one curve per collector over the percentile axis.
    pub fn render_panel(&self, heap_factor: f64, window: SmoothingWindow) -> String {
        let series: Vec<Series> = self
            .distributions
            .iter()
            .filter(|(_, f, w, _)| *f == heap_factor && *w == window)
            .map(|(c, _, _, dist)| {
                Series::new(
                    c.label(),
                    dist.figure_curve()
                        .into_iter()
                        // The paper's log-scaled percentile axis: 0, 90, 99,
                        // 99.9, ... are equally spaced.
                        .map(|(p, ms)| {
                            (
                                chopin_core::latency::percentile::percentile_axis_position(p),
                                ms,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let window_name = match window {
            SmoothingWindow::None => "simple latency".to_string(),
            SmoothingWindow::Duration(d) => format!("metered latency, {d} smoothing"),
            SmoothingWindow::Full => "metered latency, full smoothing".to_string(),
        };
        render_chart(
            &series,
            &ChartOptions {
                title: format!(
                    "{}: {} at {:.1}x heap (x-axis: -log10(1-p), i.e. 0,90,99,99.9,...)",
                    self.benchmark, window_name, heap_factor
                ),
                x_label: "percentile index".into(),
                y_label: "Request latency (ms, log)".into(),
                log_y: true,
                ..Default::default()
            },
        )
    }

    /// The tabular percentile report for every measured configuration.
    pub fn render_report(&self) -> String {
        let mut rows = Vec::new();
        for (collector, factor, window, dist) in &self.distributions {
            let mut row = vec![
                collector.label().to_string(),
                format!("{factor:.1}"),
                window.to_string(),
            ];
            for (_, ms) in dist.report() {
                row.push(format!("{ms:.3}"));
            }
            rows.push(row);
        }
        render_table(
            &[
                "collector",
                "heap",
                "window",
                "p50",
                "p90",
                "p99",
                "p99.9",
                "p99.99",
            ],
            &rows,
        )
    }

    /// The GC pause tail per (collector, heap factor), read off the
    /// telemetry's log-bucketed pause histogram. Request latency tails
    /// (above) and the pause tails that cause them side by side is exactly
    /// the comparison §4.4 makes.
    pub fn render_pause_report(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .pause_histograms
            .iter()
            .map(|(collector, factor, h)| {
                vec![
                    collector.label().to_string(),
                    format!("{factor:.1}"),
                    h.count().to_string(),
                    format_ns(h.p50()),
                    format_ns(h.p99()),
                    format_ns(h.p999()),
                    format_ns(h.max()),
                ]
            })
            .collect();
        render_table(
            &[
                "collector",
                "heap",
                "pauses",
                "pause p50",
                "pause p99",
                "pause p99.9",
                "pause max",
            ],
            &rows,
        )
    }
}

/// The Figure 4 PCA experiment: scatter of the 22 workloads against the
/// top four principal components.
///
/// # Errors
///
/// Propagates analysis errors from the PCA fit.
pub fn pca_figure() -> Result<String, ExperimentError> {
    let (benchmarks, metrics, pca) = nominal::suite_pca()?;
    let ratios = pca.explained_variance_ratio();
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4: PCA of the 22 workloads over {} complete nominal metrics\n",
        metrics.len()
    ));
    for pair in [(0usize, 1usize), (2, 3)] {
        out.push_str(&format!(
            "\nPC{} ({:.0}% variance) vs PC{} ({:.0}% variance)\n",
            pair.0 + 1,
            ratios[pair.0] * 100.0,
            pair.1 + 1,
            ratios[pair.1] * 100.0
        ));
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, name) in benchmarks.iter().enumerate() {
            rows.push(vec![
                name.to_string(),
                format!("{:+.2}", pca.scores()[i][pair.0]),
                format!("{:+.2}", pca.scores()[i][pair.1]),
            ]);
        }
        out.push_str(&render_table(&["benchmark", "x", "y"], &rows));
    }
    out.push_str(&format!(
        "\ncumulative variance of PC1-PC4: {:.1}% (paper: >50%)\n",
        pca.cumulative_explained_variance(4) * 100.0
    ));
    // §6.4 reads the dominant loadings off the PCA; print the top-5 per
    // component so the same analysis is possible here.
    for pc in 0..4 {
        let mut loadings: Vec<(usize, f64)> = (0..pca.variable_count())
            .map(|v| (v, pca.loading(v, pc)))
            .collect();
        loadings.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let top: Vec<String> = loadings
            .iter()
            .take(5)
            .map(|(v, w)| format!("{}({:+.2})", metrics[*v], w))
            .collect();
        out.push_str(&format!("PC{} top loadings: {}\n", pc + 1, top.join(" ")));
    }
    let top = pca.most_determinant_variables(12, 4);
    let top_codes: Vec<&str> = top.iter().map(|&i| metrics[i]).collect();
    out.push_str(&format!(
        "twelve most determinant metrics (PCA): {}\n",
        top_codes.join(" ")
    ));
    out.push_str(&format!(
        "twelve most determinant metrics (paper Table 2): {}\n",
        TABLE2_METRICS.join(" ")
    ));
    Ok(out)
}

/// Table 1: the nominal statistics and their descriptions.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = METRICS
        .iter()
        .map(|m| {
            vec![
                m.code.to_string(),
                m.group.to_string(),
                m.description.to_string(),
            ]
        })
        .collect();
    render_table(&["Metric", "Group", "Description"], &rows)
}

/// Table 2: the twelve most determinant statistics for every benchmark
/// (rank above value, as in the paper).
pub fn table2() -> String {
    let mut headers = vec!["Benchmark"];
    headers.extend(TABLE2_METRICS.iter().copied());
    let mut rows = Vec::new();
    for bench in Suite::chopin().names() {
        let table = score_table(bench).expect("suite benchmark");
        let mut row = vec![bench.to_string()];
        for code in TABLE2_METRICS {
            match table.iter().find(|s| s.code == code) {
                Some(s) => row.push(format!("{} ({})", s.rank, s.value)),
                None => row.push("-".into()),
            }
        }
        rows.push(row);
    }
    render_table(&headers, &rows)
}

/// An appendix-style complete nominal-statistics table for one benchmark
/// (Tables 3–19; the suite's `-p` flag).
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownBenchmark`] for names outside the
/// suite.
pub fn nominal_table(benchmark: &str) -> Result<String, ExperimentError> {
    let table = score_table(benchmark)
        .ok_or_else(|| ExperimentError::UnknownBenchmark(benchmark.to_string()))?;
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|s| {
            vec![
                s.code.to_string(),
                s.score.to_string(),
                format!("{}", s.value),
                format!("{}/{}", s.rank, s.of),
                format!("{}", s.min),
                format!("{}", s.median),
                format!("{}", s.max),
            ]
        })
        .collect();
    let mut out = format!("Complete nominal statistics for {benchmark}\n");
    if let Some(highlights) = chopin_workloads::suite::highlights(benchmark) {
        for h in highlights {
            out.push_str(&format!("  - {h}\n"));
        }
        out.push('\n');
    }
    out.push_str(&render_table(
        &["Metric", "Score", "Value", "Rank", "Min", "Median", "Max"],
        &rows,
    ));
    Ok(out)
}

/// The appendix post-GC heap trace (e.g. Figure 8): heap size after every
/// collection at 2× heap with G1, over the last iteration.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn heap_trace(benchmark: &str) -> Result<String, ExperimentError> {
    let suite = Suite::chopin();
    let bench = suite
        .benchmark(benchmark)
        .ok_or_else(|| ExperimentError::UnknownBenchmark(benchmark.to_string()))?;
    let set = bench.runner().heap_factor(2.0).iterations(2).run()?;
    let timed = set.timed();
    let points: Vec<(f64, f64)> = timed
        .telemetry()
        .heap_trace
        .iter()
        .map(|s| (s.time.as_secs_f64(), s.occupied_bytes / (1 << 20) as f64))
        .collect();
    let count = points.len();
    let series = [Series::new("post-GC heap", points)];
    let mut out = render_chart(
        &series,
        &ChartOptions {
            title: format!("{benchmark}: heap size post each GC (G1, 2.0x heap)"),
            x_label: "Time (s)".into(),
            y_label: "Heap size (MB)".into(),
            ..Default::default()
        },
    );
    out.push_str(&format!(
        "samples: {count}, collections: {}\n",
        timed.telemetry().gc_count
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            collectors: vec![CollectorKind::Serial, CollectorKind::G1],
            heap_factors: vec![2.0, 6.0],
            invocations: 1,
            iterations: 1,
            size: SizeClass::Default,
        }
    }

    #[test]
    fn lbo_experiment_on_fop_renders() {
        let exp = LboExperiment::run(&["fop".to_string()], &tiny_sweep()).unwrap();
        assert_eq!(exp.sweeps.len(), 1);
        let report = exp.render_benchmark(0);
        assert!(report.contains("LBO wall overheads for fop"), "{report}");
        let geo = exp.render_geomean(Clock::Task).unwrap();
        assert!(geo.contains("Figure 1(b)"), "{geo}");
        let names: Vec<&str> = exp.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["sweep", "lbo:analysis"]);
    }

    #[test]
    fn lbo_on_the_scheduler_matches_the_reference_sweeps() {
        let sweep = SweepConfig {
            collectors: vec![CollectorKind::G1, CollectorKind::Zgc],
            heap_factors: vec![1.0, 2.0, 4.0],
            invocations: 2,
            iterations: 1,
            size: SizeClass::Default,
        };
        let names = ["fop".to_string(), "jython".to_string()];
        let exp = LboExperiment::run(&names, &sweep).unwrap();
        assert!(
            exp.sweeps[0]
                .failures
                .iter()
                .any(|f| f.collector == CollectorKind::Zgc && f.heap_factor == 1.0),
            "the grid holds an infeasible ZGC cell: {:?}",
            exp.sweeps[0].failures
        );
        for (i, name) in names.iter().enumerate() {
            let profile = suite::by_name(name).unwrap();
            let reference = chopin_core::sweep::run_sweep(&profile, &sweep).unwrap();
            assert_eq!(exp.sweeps[i], reference, "{name}");
            for (analyses, clock) in [(&exp.wall, Clock::Wall), (&exp.task, Clock::Task)] {
                let expected = LboAnalysis::compute(&reference.samples, clock).unwrap();
                assert_eq!(analyses[i], expected, "{name} {clock}");
            }
        }
    }

    #[test]
    fn latency_experiment_exposes_pause_histograms_and_spans() {
        let exp = LatencyExperiment::run("cassandra", &[2.0]).unwrap();
        assert!(!exp.pause_histograms.is_empty());
        assert!(exp
            .pause_histograms
            .iter()
            .all(|(_, f, h)| *f == 2.0 && h.count() > 0));
        let report = exp.render_pause_report();
        assert!(report.contains("pause p99"), "{report}");
        assert!(
            exp.spans.iter().any(|s| s.name.starts_with("latency:")),
            "{:?}",
            exp.spans
        );
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        let err = LboExperiment::run(&["specjbb".to_string()], &tiny_sweep()).unwrap_err();
        assert!(matches!(err, ExperimentError::UnknownBenchmark(_)));
    }

    #[test]
    fn latency_experiment_rejects_batch_workloads() {
        let err = LatencyExperiment::run("fop", &[2.0]).unwrap_err();
        assert!(matches!(err, ExperimentError::NotLatencySensitive(_)));
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("ARA"));
        assert!(t1.contains("allocation rate"));
        let t2 = table2();
        assert!(t2.contains("avrora"));
        assert!(t2.contains("GLK"));
        let fop = nominal_table("fop").unwrap();
        assert!(fop.contains("PWU"));
        assert!(nominal_table("unknown").is_err());
    }

    #[test]
    fn pca_figure_renders() {
        let fig = pca_figure().unwrap();
        assert!(fig.contains("PC1"));
        assert!(fig.contains("lusearch"));
        assert!(fig.contains("Table 2"));
    }

    #[test]
    fn heap_trace_renders_for_fop() {
        let t = heap_trace("fop").unwrap();
        assert!(t.contains("post each GC"), "{t}");
        assert!(t.contains("collections:"));
    }
}
