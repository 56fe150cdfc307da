//! PlanIR: the typed intermediate representation every runnable
//! configuration compiles into before analysis.
//!
//! A binary's command line names a methodology, some benchmarks, a sweep
//! grid, maybe a fault plan and a supervisor policy. [`PlanIR::compile`]
//! resolves all of that against the suite's published nominal statistics
//! into plain data — per-benchmark minimum heaps, pointer-compression
//! inflation, warmup statistics, time estimates — so the analyses in
//! [`crate::analyses`] can reason about the whole experiment without
//! executing a single simulated slice.

use crate::fingerprint::{runner_fingerprint, sweep_fingerprint};
use chopin_core::iteration::warmup_scale;
use chopin_core::sweep::SweepConfig;
use chopin_faults::{FaultPlan, HardFaultPlan, NetFaultPlan, SupervisorPolicy};
use chopin_fleet::FleetPlan;
use chopin_runtime::collector::CollectorKind;
use chopin_sandbox::{IsolationMode, SandboxPolicy};
use chopin_workloads::{SizeClass, WorkloadProfile};

/// Which experiment methodology the plan drives — the analyses differ:
/// e.g. warmup sufficiency applies to timed-iteration methodologies, and
/// the latency methodology only makes sense on latency-sensitive
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Methodology {
    /// A plain heap sweep timing the last iteration (`runbms`).
    Sweep,
    /// A sweep feeding the lower-bound-overhead analysis (`lbo`).
    Lbo,
    /// The metered-latency methodology (`latency`).
    Latency,
    /// The informational whole-suite characterization run (`suite`),
    /// which reports per-iteration telemetry rather than a timed
    /// steady-state iteration.
    Suite,
}

impl Methodology {
    /// Lower-case label used in report locations.
    pub fn label(self) -> &'static str {
        match self {
            Methodology::Sweep => "sweep",
            Methodology::Lbo => "lbo",
            Methodology::Latency => "latency",
            Methodology::Suite => "suite",
        }
    }

    /// Whether the methodology times a steady-state iteration (and so is
    /// subject to the warmup-sufficiency rules R804/R805).
    pub fn times_steady_state(self) -> bool {
        !matches!(self, Methodology::Suite)
    }
}

/// One benchmark's statically-known facts, resolved from its profile.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkIR {
    /// Benchmark name.
    pub name: String,
    /// Nominal minimum heap at the plan's size class, bytes.
    pub min_heap_bytes: u64,
    /// GMU/GMD inflation a collector without compressed pointers pays.
    pub inflation: f64,
    /// Iterations to warm up to within 1.5 % of best (the PWU statistic).
    pub pwu: u32,
    /// Estimated simulated seconds of one warmed-up iteration.
    pub est_iteration_s: f64,
    /// Whether the benchmark carries a request stream (latency-capable).
    pub latency_sensitive: bool,
}

impl BenchmarkIR {
    /// The heap this benchmark needs under `collector`, in bytes:
    /// the nominal minimum, inflated when the collector cannot compress
    /// pointers.
    pub fn required_heap_bytes(&self, collector: CollectorKind) -> u64 {
        if collector.supports_compressed_oops() {
            self.min_heap_bytes
        } else {
            (self.min_heap_bytes as f64 * self.inflation).ceil() as u64
        }
    }

    /// Resolve `profile`'s facts at size class `size`.
    ///
    /// # Errors
    ///
    /// The profile publishes no minimum heap for `size`.
    pub fn from_profile(profile: &WorkloadProfile, size: SizeClass) -> Result<BenchmarkIR, String> {
        let min_heap_bytes = profile.min_heap_bytes(size).ok_or_else(|| {
            format!(
                "{}: no published minimum heap for size {size:?}",
                profile.name
            )
        })?;
        Ok(BenchmarkIR {
            name: profile.name.to_string(),
            min_heap_bytes,
            inflation: profile.uncompressed_inflation(),
            pwu: profile.warmup_iterations,
            est_iteration_s: profile.derived_exec_time_s(),
            latency_sensitive: profile.is_latency_sensitive(),
        })
    }

    /// Estimated simulated seconds of one invocation of `iterations`
    /// iterations, warmup multipliers included: how far a whole
    /// invocation's simulated clock can reach.
    pub fn est_invocation_s(&self, iterations: u32) -> f64 {
        (0..iterations)
            .map(|i| warmup_scale(i, self.pwu) * self.est_iteration_s)
            .sum()
    }

    /// Estimated simulated seconds of the one iteration a sweep cell
    /// simulates per invocation: the timed iteration, `iterations − 1`,
    /// with its warmup multiplier (DESIGN.md D6).
    pub fn est_timed_iteration_s(&self, iterations: u32) -> f64 {
        warmup_scale(iterations.saturating_sub(1), self.pwu) * self.est_iteration_s
    }
}

/// One concrete sweep cell: a benchmark under a collector at a heap size.
#[derive(Debug, Clone, PartialEq)]
pub struct CellIR {
    /// Index into [`PlanIR::benchmarks`].
    pub benchmark: usize,
    /// Collector under test.
    pub collector: CollectorKind,
    /// Heap factor (multiple of the nominal minimum heap).
    pub heap_factor: f64,
    /// The actual heap the cell runs with, bytes.
    pub heap_bytes: u64,
    /// Whether the heap meets the collector-adjusted minimum. `false`
    /// cells are the paper's predictable missing data points.
    pub feasible: bool,
    /// Estimated simulated seconds per invocation of this cell.
    pub est_invocation_s: f64,
}

/// A whole experiment plan, compiled to analysable data.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanIR {
    /// Human-facing plan name (preset or binary invocation), used in
    /// diagnostic locations.
    pub name: String,
    /// The methodology the plan drives.
    pub methodology: Methodology,
    /// Every benchmark in the plan.
    pub benchmarks: Vec<BenchmarkIR>,
    /// The sweep grid: collectors × heap factors × invocations ×
    /// iterations × size.
    pub config: SweepConfig,
    /// The fault plan injected into every cell, if any. Normalised:
    /// an empty plan compiles to `None`, matching the supervisor's
    /// runner, so fingerprints agree.
    pub faults: Option<FaultPlan>,
    /// The supervisor policy the plan runs under.
    pub policy: SupervisorPolicy,
    /// Whether completed cells are journalled (`--journal`/`--resume`).
    pub journalled: bool,
    /// Which execution backend runs cells (`--isolation`). Not part of
    /// the resume fingerprint: thread and process runs of the same plan
    /// are the same experiment on a different engine, and their journals
    /// are interchangeable.
    pub isolation: IsolationMode,
    /// Sandbox tunables (heartbeat cadence, explicit rlimit overrides)
    /// in effect when `isolation` is process.
    pub sandbox: SandboxPolicy,
    /// The hard-fault plan (`--hard-faults`), if any. *Is* part of the
    /// resume fingerprint: a storm of process deaths changes which cells
    /// can complete, so its journal must not resume an undisturbed run.
    pub hard_faults: Option<HardFaultPlan>,
    /// The fleet shape (`--fleet`), if the matrix is sharded across
    /// worker processes. Like `isolation`, **not** part of the resume
    /// fingerprint: a fleet run is the same experiment on more engines,
    /// and its merged journal must interchange with a sequential one.
    pub fleet: Option<FleetPlan>,
    /// The seeded network-fault plan (`--net-faults`), if the fleet
    /// transport runs behind the fault shim. Not part of the resume
    /// fingerprint either: a stormed run must merge byte-identical to
    /// an undisturbed one, so their journals are interchangeable by
    /// design.
    pub net_faults: Option<NetFaultPlan>,
    /// Whether a standby coordinator is registered (`--fleet-standby`
    /// on a second host pointed at this run).
    pub standby: bool,
}

impl PlanIR {
    /// Compile `profiles` under `config` into a plan.
    ///
    /// # Errors
    ///
    /// A human-readable message when a profile does not publish a minimum
    /// heap for the plan's size class — such a plan cannot run at all, so
    /// there is nothing to analyse.
    // The compile surface mirrors the plan's seven orthogonal inputs;
    // bundling them into a struct would just move the arity one level up.
    #[allow(clippy::too_many_arguments)]
    pub fn compile(
        name: impl Into<String>,
        methodology: Methodology,
        profiles: &[WorkloadProfile],
        config: SweepConfig,
        faults: Option<FaultPlan>,
        policy: SupervisorPolicy,
        journalled: bool,
    ) -> Result<PlanIR, String> {
        let benchmarks = profiles
            .iter()
            .map(|p| BenchmarkIR::from_profile(p, config.size))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PlanIR {
            name: name.into(),
            methodology,
            benchmarks,
            config,
            faults: faults.filter(|p| !p.is_empty()),
            policy,
            journalled,
            isolation: IsolationMode::default(),
            sandbox: SandboxPolicy::default(),
            hard_faults: None,
            fleet: None,
            net_faults: None,
            standby: false,
        })
    }

    /// Select the execution backend (the `--isolation` flag).
    #[must_use]
    pub fn with_isolation(mut self, isolation: IsolationMode) -> Self {
        self.isolation = isolation;
        self
    }

    /// Override the sandbox tunables.
    #[must_use]
    pub fn with_sandbox(mut self, sandbox: SandboxPolicy) -> Self {
        self.sandbox = sandbox;
        self
    }

    /// Attach a hard-fault plan (the `--hard-faults` flag).
    #[must_use]
    pub fn with_hard_faults(mut self, hard_faults: Option<HardFaultPlan>) -> Self {
        self.hard_faults = hard_faults;
        self
    }

    /// Attach a fleet shape (the `--fleet` flag).
    #[must_use]
    pub fn with_fleet(mut self, fleet: Option<FleetPlan>) -> Self {
        self.fleet = fleet;
        self
    }

    /// Attach a seeded network-fault plan (the `--net-faults` flag).
    #[must_use]
    pub fn with_net_faults(mut self, net_faults: Option<NetFaultPlan>) -> Self {
        self.net_faults = net_faults;
        self
    }

    /// Register a standby coordinator (the `--fleet-standby` flag on
    /// the watching side of the run).
    #[must_use]
    pub fn with_standby(mut self, standby: bool) -> Self {
        self.standby = standby;
        self
    }

    /// Every cell of the plan, in the supervisor's deterministic
    /// (benchmark, collector, factor) schedule order.
    pub fn cells(&self) -> Vec<CellIR> {
        let mut cells = Vec::with_capacity(self.benchmarks.len() * self.config.cell_count());
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let est_invocation_s = b.est_invocation_s(self.config.iterations);
            for &collector in &self.config.collectors {
                for &factor in &self.config.heap_factors {
                    let heap_bytes = (b.min_heap_bytes as f64 * factor) as u64;
                    cells.push(CellIR {
                        benchmark: bi,
                        collector,
                        heap_factor: factor,
                        heap_bytes,
                        feasible: heap_bytes >= b.required_heap_bytes(collector),
                        est_invocation_s,
                    });
                }
            }
        }
        cells
    }

    /// The location prefix diagnostics about this plan use.
    pub fn location(&self) -> String {
        format!("plan:{}", self.name)
    }

    /// The fingerprint a journal written by this plan's supervised run
    /// carries — computed by the same [`sweep_fingerprint`] the
    /// supervisor uses, so provenance checks and `--resume` agree.
    pub fn resume_fingerprint(&self) -> u64 {
        let names: Vec<&str> = self.benchmarks.iter().map(|b| b.name.as_str()).collect();
        let runner = runner_fingerprint(self.faults.as_ref(), self.hard_faults.as_ref());
        sweep_fingerprint(&names, &self.config, &runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_workloads::suite;

    fn plan(config: SweepConfig) -> PlanIR {
        let profiles = vec![
            suite::by_name("fop").unwrap(),
            suite::by_name("biojava").unwrap(),
        ];
        PlanIR::compile(
            "test",
            Methodology::Sweep,
            &profiles,
            config,
            None,
            SupervisorPolicy::default(),
            false,
        )
        .unwrap()
    }

    #[test]
    fn compile_resolves_nominal_statistics() {
        let p = plan(SweepConfig::quick());
        assert_eq!(p.benchmarks.len(), 2);
        let fop = &p.benchmarks[0];
        assert_eq!(fop.name, "fop");
        assert!(fop.min_heap_bytes > 0);
        assert!(fop.inflation >= 1.0);
        assert!(fop.est_iteration_s > 0.0);
        assert!(!fop.latency_sensitive);
    }

    #[test]
    fn cells_cover_the_grid_and_flag_zgc_small_heaps() {
        let mut config = SweepConfig::quick();
        config.collectors = vec![CollectorKind::G1, CollectorKind::Zgc];
        config.heap_factors = vec![1.0, 4.0];
        let p = plan(config);
        let cells = p.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        // G1 compresses pointers: feasible at 1.0x by definition.
        assert!(cells
            .iter()
            .filter(|c| c.collector == CollectorKind::G1)
            .all(|c| c.feasible));
        // biojava's GMU/GMD inflation (~1.97) makes ZGC at 1.0x infeasible.
        let biojava_zgc_small = cells
            .iter()
            .find(|c| c.benchmark == 1 && c.collector == CollectorKind::Zgc && c.heap_factor == 1.0)
            .unwrap();
        assert!(!biojava_zgc_small.feasible);
        let biojava_zgc_big = cells
            .iter()
            .find(|c| c.benchmark == 1 && c.collector == CollectorKind::Zgc && c.heap_factor == 4.0)
            .unwrap();
        assert!(biojava_zgc_big.feasible);
    }

    #[test]
    fn a_cell_is_costed_by_its_timed_iteration_alone() {
        let p = plan(SweepConfig::quick());
        let b = &p.benchmarks[0];
        let timed = b.est_timed_iteration_s(5);
        assert_eq!(timed, warmup_scale(4, b.pwu) * b.est_iteration_s);
        assert!(timed < b.est_invocation_s(5) / 5.0, "warm-ups cost more");
        assert_eq!(b.est_timed_iteration_s(1), b.est_invocation_s(1));
    }

    #[test]
    fn invocation_estimates_include_warmup() {
        let p = plan(SweepConfig::quick());
        let b = &p.benchmarks[0];
        let one = b.est_invocation_s(1);
        let five = b.est_invocation_s(5);
        assert!(one > b.est_iteration_s, "iteration 0 is cold");
        assert!(five > 5.0 * b.est_iteration_s);
        assert!(five < 5.0 * one);
    }

    #[test]
    fn empty_fault_plans_normalise_to_none() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let p = PlanIR::compile(
            "t",
            Methodology::Sweep,
            &profiles,
            SweepConfig::quick(),
            Some(FaultPlan::new(7)),
            SupervisorPolicy::default(),
            false,
        )
        .unwrap();
        assert_eq!(p.faults, None);
    }

    #[test]
    fn fingerprint_depends_on_the_fault_plan() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let compile = |faults| {
            PlanIR::compile(
                "t",
                Methodology::Sweep,
                &profiles,
                SweepConfig::quick(),
                faults,
                SupervisorPolicy::default(),
                false,
            )
            .unwrap()
        };
        let bare = compile(None).resume_fingerprint();
        let horizon = chopin_workloads::faults::DEFAULT_HORIZON_NS;
        let chaos1 =
            compile(chopin_workloads::faults::preset("chaos", 1, horizon)).resume_fingerprint();
        let chaos2 =
            compile(chopin_workloads::faults::preset("chaos", 2, horizon)).resume_fingerprint();
        let storm1 =
            compile(chopin_workloads::faults::preset("storm", 1, horizon)).resume_fingerprint();
        assert_ne!(bare, chaos1, "fault preset is part of the identity");
        assert_ne!(chaos1, chaos2, "fault seed is part of the identity");
        assert_ne!(chaos1, storm1, "fault preset name is part of the identity");
    }

    #[test]
    fn hard_faults_change_the_fingerprint_but_isolation_does_not() {
        use chopin_faults::{HardFaultKind, HardFaultPlan};
        let base = plan(SweepConfig::quick());
        let bare = base.resume_fingerprint();
        let process = base.clone().with_isolation(IsolationMode::Process);
        assert_eq!(
            bare,
            process.resume_fingerprint(),
            "same experiment, different engine: journals must interchange"
        );
        let hard = base
            .clone()
            .with_hard_faults(Some(HardFaultPlan::new(HardFaultKind::Kill, 7)));
        assert_ne!(
            bare,
            hard.resume_fingerprint(),
            "a death storm is a different experiment"
        );
    }

    #[test]
    fn fleet_shape_does_not_change_the_fingerprint() {
        let base = plan(SweepConfig::quick());
        let bare = base.resume_fingerprint();
        let fleet = base.clone().with_fleet(Some(FleetPlan::new(4)));
        assert_eq!(
            bare,
            fleet.resume_fingerprint(),
            "a sharded run is the same experiment on more engines: journals must interchange"
        );
    }
}
