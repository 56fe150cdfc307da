//! Workload characterisation measurement: re-deriving nominal statistics
//! from the simulated runtime.
//!
//! DaCapo Chopin ships precomputed nominal statistics because they are
//! "methodologically and computationally non-trivial to calculate" (§5.1);
//! the suite also ships the instrumentation so others can reproduce them.
//! This module is that instrumentation for the reproduction: it runs the
//! measurement experiments (§6.1.3's frequency/memory/LLC configurations,
//! 2× heap G1 baselines, heap-size sweeps) against the simulator and
//! reports the measured counterparts of the G- and P-family statistics.
//!
//! Two kinds of validation fall out:
//!
//! * **Emergent statistics** (GCC, GCP, GCA, GCM, GSS, GMD) are produced by
//!   the interaction of the live-set model, the collector behaviour and the
//!   engine — comparing their *ranking* across the suite against the
//!   published ranking (Spearman) tests the simulation's fidelity.
//! * **Replayed statistics** (PFS, PMS, PLS, PWU) are driven by calibrated
//!   sensitivities — measuring them closes the loop on the calibration
//!   (the experiment machinery must reproduce what it was told).

use crate::benchmark::{BenchmarkError, BenchmarkRunner};
use crate::minheap::MinHeapSearch;
use chopin_analysis::descriptive::percentile;
use chopin_analysis::rank::spearman;
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::config::CompilerMode;
use chopin_runtime::machine::MachineConfig;
use chopin_workloads::WorkloadProfile;

/// The measured counterparts of the suite's G- and P-family nominal
/// statistics for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredStats {
    /// Benchmark name.
    pub benchmark: String,
    /// Empirical minimum heap in bytes (GMD analog); only present when the
    /// characterisation was configured to search for it.
    pub min_heap_bytes: Option<u64>,
    /// Collections during the timed iteration at 2× heap with G1 (GCC).
    pub gc_count_2x: u64,
    /// Percentage of wall time in GC pauses at 2× heap with G1 (GCP).
    pub gc_pause_pct_2x: f64,
    /// Average post-GC heap as a percentage of the nominal minimum heap at
    /// 2× with G1 (GCA); `None` when no collection occurred.
    pub avg_post_gc_pct: Option<f64>,
    /// Median post-GC heap percentage (GCM); `None` when no collection
    /// occurred.
    pub median_post_gc_pct: Option<f64>,
    /// Heap-size sensitivity: percentage slowdown at a tight (1.25×) heap
    /// relative to a generous (6×) one (GSS).
    pub heap_sensitivity_pct: f64,
    /// Percentage speedup from enabling Core Performance Boost (PFS).
    pub freq_speedup_pct: f64,
    /// Percentage slowdown under the slow-DRAM profile (PMS).
    pub slow_memory_slowdown_pct: f64,
    /// Percentage slowdown under the 1/16-LLC restriction (PLS).
    pub reduced_llc_slowdown_pct: f64,
    /// Percent 10th-iteration memory leakage: growth of the post-collection
    /// live level from the first to the tenth iteration (GLK).
    pub leakage_pct: Option<f64>,
    /// Percentage slowdown under forced C2 compilation (PCC).
    pub forced_c2_slowdown_pct: f64,
    /// Percentage slowdown under the interpreter (PIN).
    pub interpreter_slowdown_pct: f64,
    /// Iterations to warm up to within 1.5 % of best (PWU).
    pub warmup_iterations: usize,
    /// Wall time of the timed iteration at 2× with G1, seconds (PET).
    pub exec_time_s: f64,
}

/// Configuration of the characterisation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizeConfig {
    /// Also run the (more expensive) empirical minimum-heap search.
    pub with_min_heap: bool,
    /// Iterations per measurement invocation; the PWU measurement uses
    /// `max(iterations, 10)` to observe the warmup curve.
    pub iterations: u32,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            with_min_heap: false,
            iterations: 5,
        }
    }
}

/// Measure one workload.
///
/// # Errors
///
/// Propagates [`BenchmarkError`] from any measurement run; individual
/// sensitivity experiments use the baseline G1 configuration at 2× heap,
/// which every workload supports.
pub fn characterize(
    profile: &WorkloadProfile,
    config: &CharacterizeConfig,
) -> Result<MeasuredStats, BenchmarkError> {
    let runner = || {
        BenchmarkRunner::for_profile(profile.clone())
            .collector(CollectorKind::G1)
            .heap_factor(2.0)
            .noise(0.0)
    };

    // Baseline at 2×: GCC, GCP, GCA, GCM, PET. The published nominal
    // statistics are defined over 5-iteration invocations (§6.1.2), and
    // leaky workloads (GLK — zxing doubles its live set by iteration 10)
    // may not fit 2× for longer invocations.
    let baseline = runner().iterations(config.iterations).run()?;
    let timed = baseline.timed();
    let wall_s = timed.wall_time().as_secs_f64();
    let pause_s = timed.telemetry().total_pause_wall().as_secs_f64();
    // SizeClass::Default always exists (the field is not optional), so
    // read it directly rather than through the fallible accessor.
    let min_heap_nominal = profile.min_heap_default_mb * (1u64 << 20) as f64;

    let post_gc_pcts: Vec<f64> = timed
        .telemetry()
        .heap_trace
        .iter()
        .map(|s| s.occupied_bytes / min_heap_nominal * 100.0)
        .collect();
    let (avg_post_gc_pct, median_post_gc_pct) = if post_gc_pcts.is_empty() {
        (None, None)
    } else {
        let avg = post_gc_pcts.iter().sum::<f64>() / post_gc_pcts.len() as f64;
        (Some(avg), percentile(&post_gc_pcts, 50.0).ok())
    };

    // GSS: tight vs generous heap.
    let tight = runner()
        .heap_factor(1.25)
        .iterations(config.iterations)
        .run()?
        .timed()
        .wall_time()
        .as_secs_f64();
    let generous = runner()
        .heap_factor(6.0)
        .iterations(config.iterations)
        .run()?
        .timed()
        .wall_time()
        .as_secs_f64();
    let heap_sensitivity_pct = (tight / generous - 1.0) * 100.0;

    // Machine-sensitivity experiments (§6.1.3). All four configurations
    // (including the reference) run the same iteration count so warmup
    // state is identical across the comparison.
    let wall_with = |machine: MachineConfig| -> Result<f64, BenchmarkError> {
        Ok(runner()
            .machine(machine)
            .iterations(config.iterations)
            .run()?
            .timed()
            .wall_time()
            .as_secs_f64())
    };
    let reference = wall_with(MachineConfig::default())?;
    let boosted = wall_with(MachineConfig::default().with_frequency_boost(true))?;
    let slow_mem = wall_with(MachineConfig::default().with_slow_memory(true))?;
    let small_llc = wall_with(MachineConfig::default().with_reduced_llc(true))?;

    // Compiler-configuration experiments (§4.3's axis; PCC and PIN).
    let wall_with_compiler = |mode: CompilerMode| -> Result<f64, BenchmarkError> {
        Ok(runner()
            .compiler_mode(mode)
            .iterations(config.iterations)
            .run()?
            .timed()
            .wall_time()
            .as_secs_f64())
    };
    let forced_c2 = wall_with_compiler(CompilerMode::ForcedC2)?;
    let interpreter = wall_with_compiler(CompilerMode::InterpreterOnly)?;

    // PWU needs enough iterations to watch the warmup curve flatten; run
    // it on a generous heap so leaky workloads still fit. The same run
    // measures GLK: growth of the post-collection live level from the
    // first iteration to the tenth.
    let warm_run = runner()
        .heap_factor(6.0)
        .iterations(config.iterations.max(10))
        .run()?;
    let warmup_iterations = warm_run.measured_warmup(0.015);
    let live_level = |r: &chopin_runtime::result::RunResult| -> Option<f64> {
        let trace = &r.telemetry().heap_trace;
        if trace.is_empty() {
            return None;
        }
        // The minimum post-collection occupancy approximates the live set.
        Some(
            trace
                .iter()
                .map(|s| s.occupied_bytes)
                .fold(f64::INFINITY, f64::min),
        )
    };
    let leakage_pct = match (
        warm_run.iterations().first().and_then(live_level),
        warm_run.iterations().last().and_then(live_level),
    ) {
        (Some(first), Some(last)) if first > 0.0 => Some((last / first - 1.0) * 100.0),
        _ => None,
    };

    let min_heap_bytes = if config.with_min_heap {
        Some(
            MinHeapSearch::default()
                .find(profile)
                .map_err(|e| BenchmarkError::Spec(e.to_string()))?,
        )
    } else {
        None
    };

    Ok(MeasuredStats {
        benchmark: profile.name.to_string(),
        min_heap_bytes,
        gc_count_2x: timed.telemetry().gc_count,
        gc_pause_pct_2x: pause_s / wall_s * 100.0,
        avg_post_gc_pct,
        median_post_gc_pct,
        heap_sensitivity_pct,
        freq_speedup_pct: (reference / boosted - 1.0) * 100.0,
        slow_memory_slowdown_pct: (slow_mem / reference - 1.0) * 100.0,
        reduced_llc_slowdown_pct: (small_llc / reference - 1.0) * 100.0,
        leakage_pct,
        forced_c2_slowdown_pct: (forced_c2 / reference - 1.0) * 100.0,
        interpreter_slowdown_pct: (interpreter / reference - 1.0) * 100.0,
        warmup_iterations,
        exec_time_s: wall_s,
    })
}

/// Measure every workload in the suite (sequentially; use the harness's
/// parallel runner for bulk work).
///
/// # Errors
///
/// Propagates the first failing measurement.
pub fn characterize_suite(
    config: &CharacterizeConfig,
) -> Result<Vec<MeasuredStats>, BenchmarkError> {
    chopin_workloads::suite::all()
        .iter()
        .map(|p| characterize(p, config))
        .collect()
}

/// Spearman rank correlation between a measured column and its published
/// counterpart, paired by position. Returns `None` when the correlation is
/// undefined (fewer than two pairs or a constant column).
pub fn rank_agreement(published: &[f64], measured: &[f64]) -> Option<f64> {
    spearman(published, measured).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_workloads::suite;

    #[test]
    fn characterize_fop_produces_plausible_stats() {
        let fop = suite::by_name("fop").expect("in suite");
        let stats = characterize(&fop, &CharacterizeConfig::default()).unwrap();
        assert_eq!(stats.benchmark, "fop");
        assert!(stats.gc_count_2x > 10, "fop churns 75x its heap: {stats:?}");
        assert!(stats.gc_pause_pct_2x > 0.0 && stats.gc_pause_pct_2x < 60.0);
        assert!(stats.heap_sensitivity_pct > 0.0, "{stats:?}");
        assert!(stats.exec_time_s > 0.0);
        let gca = stats.avg_post_gc_pct.expect("fop collects");
        assert!((50.0..200.0).contains(&gca), "GCA {gca}");
    }

    #[test]
    fn sensitivity_experiments_reproduce_the_calibration() {
        // jython: PFS 20 (fully frequency-bound), PMS 0, PLS 1.
        let jython = suite::by_name("jython").expect("in suite");
        let stats = characterize(&jython, &CharacterizeConfig::default()).unwrap();
        assert!(
            (stats.freq_speedup_pct - 20.0).abs() < 4.0,
            "jython realises the full boost: {stats:?}"
        );
        assert!(stats.slow_memory_slowdown_pct.abs() < 3.0, "{stats:?}");

        // h2: PMS 40 (the most memory-bound workload).
        let h2 = suite::by_name("h2").expect("in suite");
        let stats = characterize(&h2, &CharacterizeConfig::default()).unwrap();
        assert!(
            stats.slow_memory_slowdown_pct > 20.0,
            "h2 suffers under slow DRAM: {stats:?}"
        );
    }

    #[test]
    fn compiler_modes_reproduce_pcc_and_pin() {
        // fop has the suite's highest forced-C2 cost (PCC 1083%) but is
        // barely interpreter-sensitive (PIN 23%); graphchi is the
        // opposite extreme for PIN (323%).
        let fop = suite::by_name("fop").expect("in suite");
        let stats = characterize(&fop, &CharacterizeConfig::default()).unwrap();
        assert!(
            stats.forced_c2_slowdown_pct > 800.0,
            "fop under -Xcomp: {stats:?}"
        );
        assert!(stats.interpreter_slowdown_pct < 60.0, "{stats:?}");

        let graphchi = suite::by_name("graphchi").expect("in suite");
        let stats = characterize(&graphchi, &CharacterizeConfig::default()).unwrap();
        assert!(
            (stats.interpreter_slowdown_pct - 323.0).abs() < 50.0,
            "graphchi under -Xint: {stats:?}"
        );
    }

    #[test]
    fn jme_is_insensitive_to_everything() {
        // §B.10: jme is "insensitive to frequency scaling, compiler or
        // interpreter choice" and the least GC-intensive workload.
        let jme = suite::by_name("jme").expect("in suite");
        let stats = characterize(&jme, &CharacterizeConfig::default()).unwrap();
        assert!(stats.freq_speedup_pct.abs() < 2.0, "{stats:?}");
        assert!(stats.heap_sensitivity_pct.abs() < 10.0, "{stats:?}");
        assert!(stats.gc_pause_pct_2x < 1.0, "{stats:?}");
    }

    #[test]
    fn leakage_measurement_tracks_glk() {
        // zxing: GLK 120 (largest in the suite); fop: GLK 0.
        let zxing = suite::by_name("zxing").expect("in suite");
        let stats = characterize(&zxing, &CharacterizeConfig::default()).unwrap();
        let leak = stats.leakage_pct.expect("zxing collects");
        assert!((80.0..160.0).contains(&leak), "zxing leak: {leak}");

        let fop = suite::by_name("fop").expect("in suite");
        let stats = characterize(&fop, &CharacterizeConfig::default()).unwrap();
        let leak = stats.leakage_pct.expect("fop collects");
        assert!(leak.abs() < 20.0, "fop should not leak: {leak}");
    }

    #[test]
    fn rank_agreement_of_identical_columns_is_one() {
        let a = [3.0, 1.0, 2.0, 5.0];
        assert!((rank_agreement(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        assert!(rank_agreement(&a, &[1.0]).is_none());
    }
}
