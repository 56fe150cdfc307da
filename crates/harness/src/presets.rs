//! Artifact-appendix experiment presets.
//!
//! The paper's artifact (appendix A) automates its experiments with
//! `running-ng` and three experiment definitions: a **kick-the-tires**
//! smoke test (A.5), the **lbo** experiment reproducing Figures 1 and 5
//! (A.7), and the **latency** experiment reproducing Figures 3 and 6
//! (A.7). This module provides the same three entry points over the
//! simulated runtime, so `artifact kick-the-tires` is the reproduction's
//! analog of
//! `running runbms ./results/ ./experiments/kick-the-tires.yml`.

use crate::experiments::{ExperimentError, LatencyExperiment, LboExperiment};
use chopin_core::latency::SmoothingWindow;
use chopin_core::lbo::Clock;
use chopin_core::sweep::SweepConfig;
use chopin_core::Suite;
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::time::SimDuration;
use chopin_workloads::SizeClass;
use std::fmt::Write as _;

/// The available presets, mirroring the artifact's experiment files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// A.5's basic test: one benchmark, two collectors, a couple of heap
    /// sizes — finishes in seconds and touches every moving part.
    KickTheTires,
    /// A.7's LBO experiment: "the results can reproduce Figure 1 and
    /// Figure 5".
    Lbo,
    /// A.7's latency experiment: "the results can reproduce Figure 3 and
    /// Figure 6".
    Latency,
    /// The reproduction scorecard: fresh measurements of every headline
    /// claim with PASS/FAIL verdicts (this reproduction's addition to the
    /// artifact workflow).
    Validate,
}

impl Preset {
    /// Parse a preset name as it appears on the artifact command lines.
    pub fn parse(name: &str) -> Option<Preset> {
        match name.to_ascii_lowercase().as_str() {
            "kick-the-tires" | "kick_the_tires" | "ktt" => Some(Preset::KickTheTires),
            "lbo" => Some(Preset::Lbo),
            "latency" => Some(Preset::Latency),
            "validate" | "scorecard" => Some(Preset::Validate),
            _ => None,
        }
    }

    /// Run the preset and return its textual report with the exit code
    /// the gate contract gives it: 1 when the report names a failed
    /// headline claim (a scorecard `[FAIL]` line), 0 otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`ExperimentError`] from the underlying experiments.
    pub fn run(self) -> Result<(String, i32), ExperimentError> {
        Ok(match self {
            Preset::KickTheTires => (kick_the_tires()?, 0),
            Preset::Lbo => (lbo_experiment()?, 0),
            Preset::Latency => (latency_experiment()?, 0),
            Preset::Validate => {
                let results = crate::validate::run_scorecard();
                (
                    crate::validate::render_scorecard(&results),
                    crate::validate::scorecard_exit_code(&results),
                )
            }
        })
    }
}

/// Heap factors the kick-the-tires smoke test sweeps.
pub const KICK_THE_TIRES_HEAP_FACTORS: [f64; 2] = [2.0, 6.0];

/// Heap factors the latency experiment sweeps (Figures 3 and 6 panels).
pub const LATENCY_HEAP_FACTORS: [f64; 2] = [2.0, 6.0];

/// The LBO experiment's sweep configuration: every collector over the
/// artifact's six heap factors. Exposed so `artifact lint` can statically
/// validate the exact configuration `artifact lbo` executes.
pub fn lbo_sweep_config() -> SweepConfig {
    SweepConfig {
        collectors: CollectorKind::ALL.to_vec(),
        heap_factors: vec![1.25, 1.5, 2.0, 3.0, 4.0, 6.0],
        invocations: 2,
        iterations: 2,
        size: SizeClass::Default,
    }
}

/// The chaos suite's sweep configuration: every collector over a tight
/// and a generous heap, run under injected faults by `artifact chaos`.
/// Exposed so `artifact lint` can statically validate it.
pub fn chaos_sweep_config() -> SweepConfig {
    SweepConfig {
        heap_factors: vec![2.0, 4.0],
        invocations: 1,
        iterations: 2,
        ..SweepConfig::default()
    }
}

/// The A.5 basic test: fop (the fastest benchmark) on the default and one
/// concurrent collector at two heap sizes, with latency from one
/// latency-sensitive workload.
pub fn kick_the_tires() -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(out, "kick-the-tires: fop on G1 and ZGC at 2x and 6x heap");
    let suite = Suite::chopin();
    let fop = suite.benchmark("fop").expect("fop is in the suite");
    for collector in [CollectorKind::G1, CollectorKind::Zgc] {
        for factor in KICK_THE_TIRES_HEAP_FACTORS {
            let runs = fop
                .runner()
                .collector(collector)
                .heap_factor(factor)
                .iterations(2)
                .run()?;
            let timed = runs.timed();
            let _ = writeln!(
                out,
                "  fop {collector} @ {factor:.1}x: wall {} task {} gcs {}",
                timed.wall_time(),
                timed.task_clock(),
                timed.telemetry().gc_count
            );
        }
    }
    let latency = LatencyExperiment::run("spring", &[2.0])?;
    let _ = writeln!(out, "\n{}", latency.render_report());
    let _ = writeln!(out, "kick-the-tires: PASSED");
    Ok(out)
}

/// The A.7 LBO experiment: geomean Figure 1 plus the Figure 5 case
/// studies.
pub fn lbo_experiment() -> Result<String, ExperimentError> {
    let sweep = lbo_sweep_config();
    let experiment = LboExperiment::run(&[], &sweep)?;
    let mut out = String::new();
    for clock in [Clock::Wall, Clock::Task] {
        out.push_str(&experiment.render_geomean(clock)?);
        out.push('\n');
    }
    for (i, s) in experiment.sweeps.iter().enumerate() {
        if s.benchmark == "cassandra" || s.benchmark == "lusearch" {
            out.push_str(&experiment.render_benchmark(i));
            out.push('\n');
        }
    }
    Ok(out)
}

/// The A.7 latency experiment: the Figure 3 (cassandra) and Figure 6 (h2)
/// panels.
pub fn latency_experiment() -> Result<String, ExperimentError> {
    let mut out = String::new();
    for bench in ["cassandra", "h2"] {
        let experiment = LatencyExperiment::run(bench, &LATENCY_HEAP_FACTORS)?;
        for factor in LATENCY_HEAP_FACTORS {
            for window in [
                SmoothingWindow::None,
                SmoothingWindow::Duration(SimDuration::from_millis(100)),
                SmoothingWindow::Full,
            ] {
                out.push_str(&experiment.render_panel(factor, window));
                out.push('\n');
            }
        }
        out.push_str(&experiment.render_report());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_parse() {
        assert_eq!(Preset::parse("kick-the-tires"), Some(Preset::KickTheTires));
        assert_eq!(Preset::parse("KTT"), Some(Preset::KickTheTires));
        assert_eq!(Preset::parse("lbo"), Some(Preset::Lbo));
        assert_eq!(Preset::parse("latency"), Some(Preset::Latency));
        assert_eq!(Preset::parse("full"), None);
    }

    #[test]
    fn kick_the_tires_passes() {
        let report = kick_the_tires().expect("runs");
        assert!(report.contains("PASSED"), "{report}");
        assert!(report.contains("fop G1 @ 2.0x"));
        assert!(report.contains("fop ZGC* @ 6.0x"));
    }
}
