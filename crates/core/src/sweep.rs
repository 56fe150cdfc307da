//! Heap-size sweeps (recommendations H1 and H2).
//!
//! "Garbage collectors should be evaluated across a range of heap sizes to
//! demonstrate the sensitivity of the collector to the time–space
//! tradeoff" (H1), with "heap sizes ... chosen on a benchmark-by-benchmark
//! basis" as multiples of the per-benchmark minimum heap (H2). "Because the
//! time-space tradeoff is not linear ... we suggest selecting heap sizes in
//! a distribution that gives more resolution to small heap sizes."

use crate::benchmark::{BenchmarkError, BenchmarkRunner};
use crate::lbo::RunSample;
use chopin_faults::FaultPlan;
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::result::RunError;
use chopin_workloads::{SizeClass, WorkloadProfile};

/// The heap factors Figure 1 and Figure 5 sweep: denser at small heaps,
/// 1–6 × the minimum.
pub const PAPER_HEAP_FACTORS: [f64; 11] = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0];

/// Configuration of a sweep over collectors × heap factors × invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Collectors to sweep (default: all five).
    pub collectors: Vec<CollectorKind>,
    /// Heap factors, in multiples of the nominal minimum heap.
    pub heap_factors: Vec<f64>,
    /// Invocations per cell (the paper runs 10; smaller counts keep quick
    /// runs cheap and still produce CIs from 2 upward).
    pub invocations: u32,
    /// Iterations per invocation, timing the last (paper: 5).
    pub iterations: u32,
    /// Input size class.
    pub size: SizeClass,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            collectors: CollectorKind::ALL.to_vec(),
            heap_factors: PAPER_HEAP_FACTORS.to_vec(),
            invocations: 3,
            iterations: 5,
            size: SizeClass::Default,
        }
    }
}

impl SweepConfig {
    /// A cheap configuration for tests and smoke runs: three collectors
    /// would lose information, so all five are kept but with a coarse
    /// factor grid, single invocation, and two iterations.
    pub fn quick() -> Self {
        SweepConfig {
            collectors: CollectorKind::ALL.to_vec(),
            heap_factors: vec![1.5, 2.0, 3.0, 6.0],
            invocations: 1,
            iterations: 2,
            size: SizeClass::Default,
        }
    }

    /// Number of (collector, heap factor) cells per benchmark this
    /// configuration sweeps.
    ///
    /// # Examples
    ///
    /// ```
    /// use chopin_core::sweep::SweepConfig;
    ///
    /// assert_eq!(SweepConfig::default().cell_count(), 5 * 11);
    /// ```
    pub fn cell_count(&self) -> usize {
        self.collectors.len() * self.heap_factors.len()
    }
}

/// A cell that failed to run, with the reason — the paper's missing data
/// points ("we only plot data points where the respective collector can
/// run all 22 benchmarks").
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// The collector that failed.
    pub collector: CollectorKind,
    /// The heap factor at which it failed.
    pub heap_factor: f64,
    /// Stringified failure reason.
    pub reason: String,
}

/// The outcome of sweeping one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Benchmark name.
    pub benchmark: String,
    /// One sample per completed (collector, factor, invocation).
    pub samples: Vec<RunSample>,
    /// Cells that could not run (OOM/thrash at small heaps).
    pub failures: Vec<SweepFailure>,
}

impl SweepResult {
    /// Heap factors at which `collector` completed every invocation.
    pub fn completed_factors(&self, collector: CollectorKind) -> Vec<f64> {
        let mut factors: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.collector == collector)
            .map(|s| s.heap_factor)
            .collect();
        factors.sort_by(f64::total_cmp);
        factors.dedup();
        factors
            .into_iter()
            .filter(|f| {
                !self
                    .failures
                    .iter()
                    .any(|fail| fail.collector == collector && fail.heap_factor == *f)
            })
            .collect()
    }
}

/// Run every invocation of one (collector, heap factor) cell of
/// `profile`, appending one sample per completed invocation to
/// `samples`: invocation `i` runs with seed `1 + i`, and `faults`, when
/// given, is injected into every run. Each invocation simulates only its
/// timed iteration ([`BenchmarkRunner::run_timed`]), the one a sample
/// reads. The first out-of-memory or GC thrash ends the cell as
/// infeasible and returns its reason.
///
/// # Errors
///
/// Any other [`BenchmarkError`] (e.g. an unsupported size class).
pub fn run_cell(
    profile: &WorkloadProfile,
    collector: CollectorKind,
    heap_factor: f64,
    config: &SweepConfig,
    faults: Option<&FaultPlan>,
    samples: &mut Vec<RunSample>,
) -> Result<Option<String>, BenchmarkError> {
    for invocation in 0..config.invocations {
        let mut runner = BenchmarkRunner::for_profile(profile.clone())
            .collector(collector)
            .size(config.size)
            .heap_factor(heap_factor)
            .iterations(config.iterations)
            .seed(1 + u64::from(invocation));
        if let Some(plan) = faults {
            runner = runner.faults(plan.clone());
        }
        match runner.run_timed() {
            Ok(timed) => samples.push(RunSample::from_result(&timed, heap_factor)),
            Err(BenchmarkError::Run(
                e @ (RunError::OutOfMemory { .. } | RunError::GcThrash { .. }),
            )) => return Ok(Some(e.to_string())),
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Run a full sweep of `profile` under `config`, one [`run_cell`] per
/// (collector, heap factor) cell in grid order.
///
/// Cells that fail with out-of-memory or GC thrash are recorded in
/// [`SweepResult::failures`] rather than aborting the sweep; other errors
/// propagate.
///
/// # Errors
///
/// Returns [`BenchmarkError`] for configuration errors (e.g. an
/// unsupported size class).
pub fn run_sweep(
    profile: &WorkloadProfile,
    config: &SweepConfig,
) -> Result<SweepResult, BenchmarkError> {
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for &collector in &config.collectors {
        for &heap_factor in &config.heap_factors {
            if let Some(reason) =
                run_cell(profile, collector, heap_factor, config, None, &mut samples)?
            {
                failures.push(SweepFailure {
                    collector,
                    heap_factor,
                    reason,
                });
            }
        }
    }
    Ok(SweepResult {
        benchmark: profile.name.to_string(),
        samples,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbo::{Clock, LboAnalysis};
    use chopin_workloads::suite;

    #[test]
    fn paper_factors_are_denser_at_small_heaps() {
        let gaps: Vec<f64> = PAPER_HEAP_FACTORS.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.windows(2).all(|g| g[0] <= g[1] + 1e-12), "{gaps:?}");
        assert_eq!(PAPER_HEAP_FACTORS[0], 1.0);
        assert_eq!(*PAPER_HEAP_FACTORS.last().unwrap(), 6.0);
    }

    #[test]
    fn sweep_of_fop_produces_samples_and_zgc_failures() {
        let fop = suite::by_name("fop").unwrap();
        let cfg = SweepConfig {
            collectors: vec![CollectorKind::G1, CollectorKind::Zgc],
            heap_factors: vec![1.0, 2.0, 4.0],
            invocations: 1,
            iterations: 1,
            size: SizeClass::Default,
        };
        let result = run_sweep(&fop, &cfg).unwrap();
        assert!(!result.samples.is_empty());
        // G1 completes everywhere.
        assert_eq!(
            result.completed_factors(CollectorKind::G1),
            vec![1.0, 2.0, 4.0]
        );
        // ZGC (uncompressed pointers, fop GMU/GMD = 17/13 ≈ 1.3) fails at 1×.
        assert!(
            result
                .failures
                .iter()
                .any(|f| f.collector == CollectorKind::Zgc && f.heap_factor == 1.0),
            "failures: {:?}",
            result.failures
        );
    }

    #[test]
    fn sweep_feeds_lbo_with_hyperbolic_overheads() {
        let fop = suite::by_name("fop").unwrap();
        let cfg = SweepConfig {
            collectors: vec![CollectorKind::Parallel],
            heap_factors: vec![1.25, 2.0, 6.0],
            invocations: 2,
            iterations: 2,
            size: SizeClass::Default,
        };
        let result = run_sweep(&fop, &cfg).unwrap();
        let lbo = LboAnalysis::compute(&result.samples, Clock::Task).unwrap();
        let curve = lbo.curve(CollectorKind::Parallel).unwrap();
        assert_eq!(curve.len(), 3);
        // Time–space tradeoff: overhead decreases as heap grows.
        assert!(
            curve[0].overhead.mean() > curve[2].overhead.mean(),
            "small heaps cost more: {:?}",
            curve
        );
    }
}
