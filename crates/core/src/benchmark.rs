//! The suite registry and the benchmark runner.
//!
//! This is the user-facing entry point of the reproduction: look up a
//! benchmark in the [`Suite`], configure a run with the builder returned by
//! [`Benchmark::runner`] (collector, heap size in bytes or in multiples of
//! the nominal minimum heap, input size, iteration count), and execute it
//! on the simulated runtime. Defaults follow the paper's methodology
//! (§6.1): five iterations timing the last, a heap of 2 × GMD, and the
//! machine of §6.1.3.

use crate::iteration::{warmup_scale, IterationSet};
use chopin_faults::FaultPlan;
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::config::{CompilerMode, RunConfig};
use chopin_runtime::machine::MachineConfig;
use chopin_runtime::result::{RunError, RunResult};
use chopin_workloads::{suite, SizeClass, WorkloadProfile};
use std::fmt;

/// Error raised when configuring a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchmarkError {
    /// The requested size class is not provided by this workload.
    UnsupportedSize {
        /// The benchmark.
        benchmark: String,
        /// The requested size.
        size: SizeClass,
    },
    /// The underlying run failed (out of memory, thrash, bad config).
    Run(RunError),
    /// The profile produced an invalid mutator spec (calibration bug).
    Spec(String),
}

impl fmt::Display for BenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchmarkError::UnsupportedSize { benchmark, size } => {
                write!(f, "{benchmark} has no {size} size configuration")
            }
            BenchmarkError::Run(e) => write!(f, "run failed: {e}"),
            BenchmarkError::Spec(msg) => write!(f, "invalid workload spec: {msg}"),
        }
    }
}

impl std::error::Error for BenchmarkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchmarkError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for BenchmarkError {
    fn from(e: RunError) -> Self {
        BenchmarkError::Run(e)
    }
}

/// The DaCapo Chopin suite.
///
/// # Examples
///
/// ```
/// use chopin_core::Suite;
///
/// let suite = Suite::chopin();
/// assert_eq!(suite.len(), 22);
/// assert!(suite.benchmark("cassandra").is_some());
/// assert!(suite.benchmark("nonexistent").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Suite {
    benchmarks: Vec<Benchmark>,
}

impl Suite {
    /// The full 22-benchmark Chopin suite.
    pub fn chopin() -> Suite {
        Suite {
            benchmarks: suite::all().into_iter().map(Benchmark::new).collect(),
        }
    }

    /// Number of benchmarks in the suite.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Whether the suite is empty (never, for the stock suite).
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// Iterate over the benchmarks in suite order.
    pub fn iter(&self) -> impl Iterator<Item = &Benchmark> {
        self.benchmarks.iter()
    }

    /// Look up a benchmark by name.
    pub fn benchmark(&self, name: &str) -> Option<&Benchmark> {
        self.benchmarks.iter().find(|b| b.name() == name)
    }

    /// The names of all benchmarks, in suite order.
    pub fn names(&self) -> Vec<&'static str> {
        self.benchmarks.iter().map(|b| b.profile().name).collect()
    }

    /// The nine latency-sensitive benchmarks.
    pub fn latency_sensitive(&self) -> impl Iterator<Item = &Benchmark> {
        self.benchmarks
            .iter()
            .filter(|b| b.profile().is_latency_sensitive())
    }
}

/// One benchmark of the suite: a profile plus run plumbing.
#[derive(Debug, Clone)]
pub struct Benchmark {
    profile: WorkloadProfile,
}

impl Benchmark {
    /// Wrap a workload profile as a runnable benchmark.
    pub fn new(profile: WorkloadProfile) -> Benchmark {
        Benchmark { profile }
    }

    /// The benchmark's name.
    pub fn name(&self) -> &str {
        self.profile.name
    }

    /// The calibrated workload profile (nominal statistics live in
    /// [`crate::nominal`]).
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The nominal minimum heap (GMD and friends) for `size`, in bytes.
    /// This is the denominator of recommendation H2's "heap sizes should be
    /// expressed in terms of multiples of the minimum heap size".
    pub fn nominal_min_heap(&self, size: SizeClass) -> Option<u64> {
        self.profile.min_heap_bytes(size)
    }

    /// Start configuring a run of this benchmark.
    pub fn runner(&self) -> BenchmarkRunner {
        BenchmarkRunner::new(self.profile.clone())
    }
}

/// Builder configuring and executing benchmark runs.
///
/// # Examples
///
/// ```
/// use chopin_core::Suite;
/// use chopin_runtime::collector::CollectorKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let suite = Suite::chopin();
/// let runs = suite
///     .benchmark("fop")
///     .expect("fop is in the suite")
///     .runner()
///     .collector(CollectorKind::Parallel)
///     .heap_factor(2.0)
///     .iterations(5)
///     .run()?;
/// // Per §6.1: five iterations, timing the last.
/// assert_eq!(runs.iterations().len(), 5);
/// assert!(runs.timed().wall_time().as_nanos() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BenchmarkRunner {
    profile: WorkloadProfile,
    collector: CollectorKind,
    size: SizeClass,
    heap_bytes: Option<u64>,
    heap_factor: f64,
    iterations: u32,
    seed: u64,
    machine: MachineConfig,
    noise_override: Option<f64>,
    compressed_oops: Option<bool>,
    compiler_mode: CompilerMode,
    fault_plan: Option<FaultPlan>,
}

impl BenchmarkRunner {
    /// Build a runner directly from a workload profile (equivalent to
    /// `Benchmark::new(profile).runner()`).
    pub fn for_profile(profile: WorkloadProfile) -> Self {
        Self::new(profile)
    }

    fn new(profile: WorkloadProfile) -> Self {
        BenchmarkRunner {
            profile,
            collector: CollectorKind::G1,
            size: SizeClass::Default,
            heap_bytes: None,
            heap_factor: 2.0,
            iterations: 5,
            seed: 1,
            machine: MachineConfig::default(),
            noise_override: None,
            compressed_oops: None,
            compiler_mode: CompilerMode::Tiered,
            fault_plan: None,
        }
    }

    /// Select the garbage collector (default: G1, the OpenJDK default and
    /// the paper's baseline).
    pub fn collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        self
    }

    /// Select the input size class (default: `default`).
    pub fn size(mut self, size: SizeClass) -> Self {
        self.size = size;
        self
    }

    /// Set the heap as a multiple of the nominal minimum heap for the
    /// selected size (recommendation H2). Default: 2.0, the paper's
    /// baseline of "2× the benchmark's GMD nominal statistic" (§6.1.2).
    pub fn heap_factor(mut self, factor: f64) -> Self {
        self.heap_factor = factor;
        self.heap_bytes = None;
        self
    }

    /// Set the heap size explicitly in bytes (overrides
    /// [`BenchmarkRunner::heap_factor`]).
    pub fn heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = Some(bytes);
        self
    }

    /// Number of iterations to run; the last is the timed one (default 5,
    /// per §6.1.2 "we ran 5 iterations of each benchmark, timing the
    /// last").
    pub fn iterations(mut self, n: u32) -> Self {
        self.iterations = n.max(1);
        self
    }

    /// Seed for this invocation; vary it across invocations to obtain
    /// confidence intervals.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use a non-default machine.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Override the invocation noise (e.g. 0.0 for bitwise-deterministic
    /// minimum-heap searches).
    pub fn noise(mut self, noise: f64) -> Self {
        self.noise_override = Some(noise);
        self
    }

    /// Force compressed pointers on or off (default: the collector's
    /// capability).
    pub fn compressed_oops(mut self, enabled: bool) -> Self {
        self.compressed_oops = Some(enabled);
        self
    }

    /// Select the compiler configuration (§4.3's tiered/-Xcomp/-Xint axis;
    /// default: tiered).
    pub fn compiler_mode(mut self, mode: CompilerMode) -> Self {
        self.compiler_mode = mode;
        self
    }

    /// Inject a deterministic fault plan into every iteration of the run
    /// (chaos experiments). The plan should already pass lint rules
    /// R701–R703; an empty plan is equivalent to no plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// The heap size this configuration resolves to, in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BenchmarkError::UnsupportedSize`] when the profile lacks
    /// the selected size class.
    pub fn resolved_heap_bytes(&self) -> Result<u64, BenchmarkError> {
        if let Some(b) = self.heap_bytes {
            return Ok(b);
        }
        let min =
            self.profile
                .min_heap_bytes(self.size)
                .ok_or(BenchmarkError::UnsupportedSize {
                    benchmark: self.profile.name.to_string(),
                    size: self.size,
                })?;
        Ok((min as f64 * self.heap_factor).round() as u64)
    }

    /// Execute the configured run: `iterations` back-to-back iterations in
    /// one simulated JVM invocation, with JIT warmup modelled as a
    /// per-iteration work scale (derived from the workload's PWU nominal
    /// statistic) and heap leakage as a per-iteration live-set scale (GLK).
    ///
    /// # Errors
    ///
    /// Returns [`BenchmarkError`] if the workload cannot run in the
    /// configured heap or the configuration is inconsistent.
    pub fn run(&self) -> Result<IterationSet, BenchmarkError> {
        let heap = self.resolved_heap_bytes()?;
        let iterations = (0..self.iterations)
            .map(|i| self.run_iteration(heap, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IterationSet::new(iterations))
    }

    /// Simulate the timed iteration alone: iteration `iterations − 1`,
    /// with the seed, work scale and live scale [`BenchmarkRunner::run`]
    /// gives it, so the result equals `run()?.timed()` whenever `run()`
    /// succeeds. No state carries from one simulated iteration to the
    /// next, so the warm-ups could only fail; here the timed iteration
    /// alone decides whether the invocation is infeasible (DESIGN.md D6).
    ///
    /// # Errors
    ///
    /// As [`BenchmarkRunner::run`], for the timed iteration.
    pub fn run_timed(&self) -> Result<RunResult, BenchmarkError> {
        let heap = self.resolved_heap_bytes()?;
        self.run_iteration(heap, self.iterations - 1)
    }

    /// Simulate iteration `i` (0-based) of the invocation in a heap of
    /// `heap` bytes.
    fn run_iteration(&self, heap: u64, i: u32) -> Result<RunResult, BenchmarkError> {
        // GLK models live-set leakage across iterations. The published
        // minimum heaps are defined over 5-iteration invocations
        // (§6.1.2), so the scale is normalised to reach 1.0 at the fifth
        // iteration: earlier iterations are lighter, later ones (beyond
        // the GMD definition) heavier.
        let leak = self.profile.leak_pct / 100.0;
        let live_scale = (1.0 + leak * (i as f64 / 9.0)) / (1.0 + leak * (4.0 / 9.0));
        let spec = self
            .profile
            .to_spec_scaled(self.size, live_scale)
            .ok_or(BenchmarkError::UnsupportedSize {
                benchmark: self.profile.name.to_string(),
                size: self.size,
            })?
            .map_err(|e| BenchmarkError::Spec(e.to_string()))?;
        let mut config = RunConfig::new(heap, self.collector)
            .with_machine(self.machine)
            .with_seed(
                self.seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(i as u64),
            )
            .with_work_scale(warmup_scale(i, self.profile.warmup_iterations))
            .with_noise(
                self.noise_override
                    .unwrap_or(self.profile.invocation_noise_pct / 100.0),
            )
            .with_compiler_mode(self.compiler_mode);
        if let Some(oops) = self.compressed_oops {
            config = config.with_compressed_oops(oops);
        }
        Ok(match &self.fault_plan {
            None => chopin_runtime::engine::run(&spec, &config)?,
            Some(plan) => chopin_runtime::engine::run_with_faults(&spec, &config, plan)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_all_names() {
        let s = Suite::chopin();
        assert_eq!(s.len(), 22);
        assert!(!s.is_empty());
        assert_eq!(s.names().len(), 22);
        assert_eq!(s.latency_sensitive().count(), 9);
    }

    #[test]
    fn unsupported_size_is_reported() {
        let s = Suite::chopin();
        // fop has no large configuration in the published tables.
        let err = s
            .benchmark("fop")
            .unwrap()
            .runner()
            .size(SizeClass::Large)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, BenchmarkError::UnsupportedSize { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("fop"));
    }

    #[test]
    fn heap_factor_resolves_against_nominal_min_heap() {
        let s = Suite::chopin();
        let runner = s.benchmark("fop").unwrap().runner().heap_factor(2.0);
        let heap = runner.resolved_heap_bytes().unwrap();
        assert_eq!(heap, 2 * 13 * (1 << 20), "2 × fop's 13 MB GMD");
    }

    #[test]
    fn explicit_heap_bytes_override_factor() {
        let s = Suite::chopin();
        let runner = s
            .benchmark("fop")
            .unwrap()
            .runner()
            .heap_factor(3.0)
            .heap_bytes(42 << 20);
        assert_eq!(runner.resolved_heap_bytes().unwrap(), 42 << 20);
    }

    #[test]
    fn five_iterations_warm_up() {
        let s = Suite::chopin();
        let set = s
            .benchmark("fop")
            .unwrap()
            .runner()
            .iterations(5)
            .noise(0.0)
            .run()
            .unwrap();
        let walls: Vec<f64> = set
            .iterations()
            .iter()
            .map(|r| r.wall_time().as_secs_f64())
            .collect();
        assert_eq!(walls.len(), 5);
        assert!(walls[0] > walls[4], "first iteration is cold: {walls:?}");
        assert_eq!(
            set.timed().wall_time().as_secs_f64(),
            walls[4],
            "the timed iteration is the last"
        );
    }

    #[test]
    fn the_timed_iteration_alone_equals_the_last_of_five() {
        // zxing leaks (GLK 120), so its live set grows across iterations
        // and iteration 4 differs from every earlier one.
        let s = Suite::chopin();
        let runner = s.benchmark("zxing").unwrap().runner().iterations(5);
        let set = runner.run().unwrap();
        let timed = runner.run_timed().unwrap();
        assert_eq!(&timed, &set.iterations()[4]);
        assert_ne!(&timed, &set.iterations()[0], "iterations differ");

        let err = runner.heap_factor(0.5).run_timed().unwrap_err();
        assert!(
            matches!(err, BenchmarkError::Run(RunError::OutOfMemory { .. })),
            "{err}"
        );
    }

    #[test]
    fn fault_plan_perturbs_the_run_deterministically() {
        let s = Suite::chopin();
        let plan = FaultPlan::new(5).with_window(
            1_000_000,
            50_000_000,
            chopin_faults::FaultKind::AllocSpike { factor: 3.0 },
        );
        let runner = s
            .benchmark("fop")
            .unwrap()
            .runner()
            .iterations(1)
            .noise(0.0);
        let clean = runner.clone().run().unwrap();
        let faulted = runner.clone().faults(plan.clone()).run().unwrap();
        let again = runner.faults(plan).run().unwrap();
        assert!(faulted.timed().telemetry().faults_injected > 0);
        assert_eq!(
            faulted.timed(),
            again.timed(),
            "fault-injected runs are as deterministic as clean ones"
        );
        assert_ne!(
            clean.timed(),
            faulted.timed(),
            "the injected spike must leave a mark"
        );
    }

    #[test]
    fn too_small_heap_fails_with_oom() {
        let s = Suite::chopin();
        let err = s
            .benchmark("fop")
            .unwrap()
            .runner()
            .heap_factor(0.5)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, BenchmarkError::Run(RunError::OutOfMemory { .. })),
            "{err}"
        );
    }

    #[test]
    fn zgc_cannot_run_at_one_times_baseline_min_heap() {
        // ZGC's lack of compressed pointers inflates its footprint past the
        // compressed-pointer minimum heap — the reason Figure 1 has no ZGC
        // points at small multiples.
        let s = Suite::chopin();
        let b = s.benchmark("pmd").unwrap(); // GMU/GMD = 269/191 ≈ 1.41
        let result = b
            .runner()
            .collector(CollectorKind::Zgc)
            .heap_factor(1.0)
            .iterations(1)
            .run();
        assert!(result.is_err());
        let ok = b
            .runner()
            .collector(CollectorKind::Zgc)
            .heap_factor(2.0)
            .iterations(1)
            .run();
        assert!(ok.is_ok(), "{:?}", ok.err());
    }
}
