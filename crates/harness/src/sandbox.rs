//! Process-isolated cell execution: the harness side of `chopin-sandbox`.
//!
//! Under `--isolation process` every sweep cell runs in a sandboxed
//! worker process instead of on a worker thread. Each scheduler thread
//! owns one persistent worker, which runs one cell after another; a
//! cell's independence comes from its seed, not from a fresh process.
//! The pieces living here:
//!
//! * [`worker_entry`] — the worker half. Every binary that can spawn
//!   itself as a worker (`runbms`, `lbo`, `artifact`) calls it first
//!   thing in `main`; when the process was spawned as a sandbox worker
//!   it serves cell requests from stdin until stdin closes: it decodes
//!   each, runs the cell on the in-process [`SweepCellRunner`] itself,
//!   and reports the outcome over the framed stdout protocol.
//! * [`ProcessBackend`] — the parent half. Each scheduler thread owns
//!   one [`CellWorker`] from it: a persistent worker it spawns on its
//!   first cell and serves its cells on directly, each with its own
//!   resource limits (RLIMIT_AS from the cell's heap, RLIMIT_CPU from the
//!   analyzer's R808 cost bound), classifying every ending into the
//!   crash taxonomy the supervisor quarantines by. A worker that dies is
//!   charged to the one cell it was running and replaced; one found dead
//!   between cells is replaced without charging anyone. The worker's
//!   counters and crash reports come back as a [`SandboxTally`] when the
//!   thread closes it.
//! * Hard-fault injection (`--hard-faults kill|abort|oom`): the parent
//!   decides victim cells deterministically
//!   ([`HardFaultPlan::is_victim`]) and ships only the death directive to
//!   the worker, so victim selection is identical across attempts,
//!   backends and hosts. A victim never answers, so its death can never
//!   land on the next cell.
//! * [`CrashReport`] — one JSONL record per hard child failure
//!   (`--crash-reports FILE`), the artifact CI uploads from chaos runs.
//!
//! Requests, responses and crash reports are rendered and parsed by the
//! one cell-record codec (`codec.rs`), whose exact float and `u64`
//! round trips let a process-isolated clean run reproduce the
//! thread-mode results CSV byte for byte.

use crate::cli::Args;
use crate::codec::{self, Record};
use crate::supervisor::{
    Cell, CellFailure, CellOutcome, CellRunner, QuarantineReason, SweepCellRunner,
};
use chopin_analyzer::analyses::cost::cell_cost_bound_s;
use chopin_analyzer::BenchmarkIR;
use chopin_core::sweep::SweepConfig;
use chopin_faults::{parse_hard_flag, FaultPlan, HardFaultKind, HardFaultPlan};
use chopin_obs::metrics::sandbox_metrics;
use chopin_obs::MetricsRegistry;
use chopin_sandbox::parent::RequestLimits;
use chopin_sandbox::policy::{derived_rlimit_cpu_s, required_rlimit_as};
use chopin_sandbox::{ChildOutcome, ChildReport, SandboxPolicy, SandboxPool, Session};
use chopin_workloads::{SizeClass, WorkloadProfile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

pub use chopin_sandbox::IsolationMode;

/// RLIMIT_AS override applied to `--hard-faults oom` victims, in bytes:
/// small enough that the injected allocation blow-up trips the backstop
/// within a few chunks, large enough for the worker itself (binary
/// mappings, allocator arenas, a few thread stacks) to run normally.
pub const OOM_VICTIM_RLIMIT_AS: u64 = 256 << 20;

/// Resolve `--isolation {thread,process}`; defaults to thread. On a
/// platform without fork/rlimit support, process isolation degrades to
/// thread isolation with a warning rather than failing the run.
///
/// # Errors
///
/// An unknown mode name.
pub fn isolation_from_args(args: &Args) -> Result<IsolationMode, String> {
    let Some(value) = args.value("isolation") else {
        return Ok(IsolationMode::Thread);
    };
    let mode: IsolationMode = value.parse()?;
    if mode == IsolationMode::Process && !chopin_sandbox::supported() {
        eprintln!(
            "warning: process isolation is unsupported on this platform; \
             falling back to thread isolation"
        );
        return Ok(IsolationMode::Thread);
    }
    Ok(mode)
}

/// Parse `--hard-faults KIND[:SEED[:STRIDE]]` into a plan, if present.
///
/// # Errors
///
/// The flag is present without a value, names an unknown kind, or fails
/// validation.
pub fn hard_plan_from_args(args: &Args) -> Result<Option<HardFaultPlan>, String> {
    if !args.has("hard-faults") {
        return Ok(None);
    }
    let flag = args
        .value("hard-faults")
        .ok_or("--hard-faults needs a preset (kill, abort or oom)")?;
    parse_hard_flag(flag).map(Some)
}

/// Apply the isolation-family flags to a supervisor: `--isolation`,
/// `--hard-faults` and `--crash-reports`. The shared wiring for every
/// supervised binary.
///
/// # Errors
///
/// Any flag that fails to parse or validate.
pub fn configure_isolation(
    supervisor: crate::supervisor::SuiteSupervisor,
    args: &Args,
) -> Result<crate::supervisor::SuiteSupervisor, String> {
    let mut supervisor = supervisor
        .with_isolation(isolation_from_args(args)?)
        .with_hard_faults(hard_plan_from_args(args)?);
    if let Some(path) = args.value("crash-reports") {
        supervisor = supervisor.with_crash_reports(path);
    }
    Ok(supervisor)
}

/// Run the sandbox worker protocol when this process was spawned as a
/// cell worker, or the fleet worker loop when it was spawned (or
/// environment-configured) as a fleet worker; return immediately
/// otherwise. Every binary that runs the sweep scheduler (and every
/// `harness = false` test binary that exercises process isolation) must
/// call this first thing in `main`.
pub fn worker_entry() {
    crate::fleet::maybe_fleet_worker();
    chopin_sandbox::worker::maybe_worker(handle_request);
}

// ---------------------------------------------------------------------
// The child side: decode the request, run the cell, encode the outcome.
// ---------------------------------------------------------------------

/// One cell's worth of work, as marshalled to a worker process. The
/// fleet coordinator reuses this exact shape (and its marshalling) as
/// lease payloads, so fleet workers run cells bit-identically to
/// sandboxed children.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellRequest {
    pub(crate) cell: Cell,
    pub(crate) invocations: u32,
    pub(crate) iterations: u32,
    pub(crate) size: SizeClass,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) hard: Option<(HardFaultKind, u64)>,
}

impl CellRequest {
    /// Run the requested cell on the thread backend's runner, so every
    /// executor produces the samples an in-process cell would.
    pub(crate) fn run(&self) -> Result<CellOutcome, CellFailure> {
        let profile = chopin_workloads::suite::by_name(&self.cell.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}`", self.cell.benchmark))?;
        let runner = self
            .faults
            .clone()
            .map_or_else(SweepCellRunner::new, SweepCellRunner::with_faults);
        let config = SweepConfig {
            collectors: vec![self.cell.collector],
            heap_factors: vec![self.cell.heap_factor],
            invocations: self.invocations,
            iterations: self.iterations,
            size: self.size,
        };
        runner.run_cell(&profile, &self.cell, &config)
    }
}

fn handle_request(request: &str) -> Result<String, String> {
    let req: CellRequest =
        codec::decode(request).map_err(|e| format!("unreadable cell request: {e}"))?;
    let Some((kind, delay_ms)) = req.hard else {
        let outcome = req.run().map_err(|failure| match failure {
            CellFailure::Transient(message) => message,
            CellFailure::Crash(reason) => reason.to_string(),
        })?;
        return Ok(codec::encode(&outcome));
    };
    // A victim never answers and never returns to the serve loop, on any
    // path (outcome, error or panic): if the cell outran the scheduled
    // death, park until it fires, so the death cannot land on the next
    // cell and the victim set stays exactly the set the plan selected,
    // independent of cell speed.
    schedule_death(kind, delay_ms);
    let _ = catch_unwind(AssertUnwindSafe(|| req.run()));
    loop {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Inject the scheduled death: after `delay_ms` the process dies the way
/// the plan says, from a thread of its own so the cell is genuinely
/// mid-execution when it happens. A worker that cannot start that thread
/// (an `oom` victim's address-space limit may already be spent) dies
/// the same way at once.
fn schedule_death(kind: HardFaultKind, delay_ms: u64) {
    let scheduled = std::thread::Builder::new().spawn(move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        die(kind)
    });
    if scheduled.is_err() {
        die(kind);
    }
}

/// Die the way `kind` says.
fn die(kind: HardFaultKind) -> ! {
    match kind {
        HardFaultKind::Kill => {
            chopin_sandbox::limits::die_by_signal(chopin_sandbox::limits::SIGKILL)
        }
        HardFaultKind::Abort => std::process::abort(),
        HardFaultKind::OomBlowup => {
            // Hoard touched memory until the RLIMIT_AS backstop fires;
            // the allocator aborts with its out-of-memory message, which
            // is exactly what the parent classifies as OomKilled.
            let mut hoard: Vec<Vec<u8>> = Vec::new();
            loop {
                let mut chunk = vec![0u8; 32 << 20];
                for byte in chunk.iter_mut().step_by(4096) {
                    *byte = 1;
                }
                hoard.push(chunk);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The parent side: each scheduler thread's own sandboxed worker.
// ---------------------------------------------------------------------

/// One hard child failure, flattened for the crash-report JSONL file the
/// chaos CI job uploads.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// Benchmark of the cell that crashed.
    pub benchmark: String,
    /// Collector label of the cell.
    pub collector: String,
    /// Heap factor of the cell.
    pub heap_factor: f64,
    /// Crash-taxonomy label ([`ChildOutcome::label`]).
    pub outcome: String,
    /// Exit code, when the child exited normally.
    pub exit_code: Option<i32>,
    /// Terminating signal, when the child died to one.
    pub signal: Option<i32>,
    /// Milliseconds after the cell's request of the last heartbeat, if
    /// any arrived.
    pub last_heartbeat_ms: Option<u64>,
    /// The worker's lifetime peak resident set (VmHWM), bytes: it may
    /// have run other cells before this one.
    pub peak_rss_bytes: Option<u64>,
    /// Wall milliseconds from the cell's request to the worker's death.
    pub wall_ms: u64,
}

/// Write crash reports as JSONL (one report per line, empty file for a
/// clean run).
///
/// # Errors
///
/// Filesystem failure writing `path`.
pub fn write_crash_reports(path: &Path, reports: &[CrashReport]) -> std::io::Result<()> {
    let mut text = String::new();
    for report in reports {
        report.write(&mut text);
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// What the process backend runs every cell with: the worker executable,
/// the cell deadline each worker enforces, and the fault plans shipped
/// with each cell. Every scheduler thread runs its cells on a
/// [`CellWorker`] of its own ([`ProcessBackend::worker`]).
#[derive(Debug)]
pub struct ProcessBackend {
    pool: SandboxPool,
    deadline_ms: Option<u64>,
    faults: Option<FaultPlan>,
    hard: Option<HardFaultPlan>,
}

impl ProcessBackend {
    /// A backend spawning `exe` (normally the current executable, whose
    /// `main` calls [`worker_entry`]) as its workers, each killing a
    /// cell that outlives `deadline_ms`.
    pub fn new(
        exe: PathBuf,
        deadline_ms: Option<u64>,
        faults: Option<FaultPlan>,
        hard: Option<HardFaultPlan>,
    ) -> ProcessBackend {
        ProcessBackend {
            pool: SandboxPool::new(exe, SandboxPolicy::default()).with_deadline_ms(deadline_ms),
            deadline_ms,
            faults: faults.filter(|p| !p.is_empty()),
            hard,
        }
    }

    /// Extra material for the resume fingerprint: the fault plans every
    /// cell runs under.
    pub fn fingerprint(&self) -> String {
        chopin_analyzer::runner_fingerprint(self.faults.as_ref(), self.hard.as_ref())
    }

    /// A worker for one scheduler thread. It spawns its process on its
    /// first cell.
    pub fn worker(&self) -> CellWorker<'_> {
        CellWorker {
            backend: self,
            session: None,
            tally: SandboxTally::default(),
        }
    }

    /// Derive this cell's resource limits: RLIMIT_AS covers the cell's
    /// collector-adjusted heap plus the worker base, and the RLIMIT_CPU
    /// budget scales the analyzer's R808 cost lower bound (capped just
    /// above the cell deadline when one exists).
    /// `oom` victims instead get [`OOM_VICTIM_RLIMIT_AS`] so the injected
    /// blow-up trips the backstop quickly.
    fn derive_limits(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
        victim: Option<&HardFaultPlan>,
    ) -> RequestLimits {
        let cost_bound_s = BenchmarkIR::from_profile(profile, config.size)
            .map_or(0.0, |benchmark| cell_cost_bound_s(&benchmark, config));
        let rlimit_cpu_s = Some(derived_rlimit_cpu_s(cost_bound_s, self.deadline_ms));
        if victim.is_some_and(|v| v.kind == HardFaultKind::OomBlowup) {
            return RequestLimits {
                rlimit_as_bytes: Some(OOM_VICTIM_RLIMIT_AS),
                rlimit_cpu_s,
            };
        }
        let rlimit_as_bytes = profile.min_heap_bytes(config.size).map(|min| {
            let heap = (min as f64 * cell.heap_factor * profile.uncompressed_inflation()).ceil();
            required_rlimit_as(heap as u64)
        });
        RequestLimits {
            rlimit_as_bytes,
            rlimit_cpu_s,
        }
    }
}

/// One scheduler thread's sandboxed worker: spawned on the thread's
/// first cell, serving one cell after another, and replaced when it
/// dies. A worker that dies mid-cell is charged to that one cell; one
/// found dead between cells is replaced before any request is written
/// to it, so no cell is charged for it.
#[derive(Debug)]
pub struct CellWorker<'a> {
    backend: &'a ProcessBackend,
    session: Option<Session>,
    tally: SandboxTally,
}

impl CellWorker<'_> {
    /// Run every invocation of `cell` in the worker, classifying a hard
    /// ending into the crash taxonomy the supervisor quarantines by.
    ///
    /// # Errors
    ///
    /// A [`CellFailure`]: transient for a spawn failure, an error the
    /// cell reported or a garbled payload; a crash for a worker death.
    pub fn run_cell(
        &mut self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure> {
        let backend = self.backend;
        let victim = backend.hard.as_ref().filter(|h| {
            h.is_victim(
                &cell.benchmark,
                &cell.collector.to_string(),
                cell.heap_factor,
            )
        });
        let request = codec::encode(&CellRequest {
            cell: cell.clone(),
            invocations: config.invocations,
            iterations: config.iterations,
            size: config.size,
            faults: backend.faults.clone(),
            hard: victim.map(|v| (v.kind, v.delay_ms)),
        });
        let limits = backend.derive_limits(profile, cell, config, victim);
        let report = self.serve(&request, limits);
        self.tally.absorb(cell, &report);
        match report.outcome {
            ChildOutcome::Completed(payload) => codec::decode(&payload)
                .map_err(|e| CellFailure::Transient(format!("worker payload: {e}"))),
            ChildOutcome::Failed(message) => Err(CellFailure::Transient(message)),
            ChildOutcome::SpawnFailed(message) => Err(CellFailure::Transient(message)),
            ChildOutcome::Panicked(message) => {
                Err(CellFailure::Crash(QuarantineReason::Panicked(message)))
            }
            ChildOutcome::Signalled { signal } => {
                Err(CellFailure::Crash(QuarantineReason::Signalled { signal }))
            }
            ChildOutcome::OomKilled => Err(CellFailure::Crash(QuarantineReason::OomKilled)),
            ChildOutcome::HeartbeatLost { silent_ms } => {
                Err(CellFailure::Crash(QuarantineReason::HeartbeatLost {
                    silent_ms,
                }))
            }
            ChildOutcome::DeadlineExceeded { budget_ms } => {
                Err(CellFailure::Crash(QuarantineReason::DeadlineExceeded {
                    budget_ms,
                }))
            }
        }
    }

    /// Serve one request on the worker, spawning a fresh one when there
    /// is none or the last one died. The session is held only while it
    /// is alive, so one that a panic unwinds through is closed and
    /// reaped.
    fn serve(&mut self, request: &str, limits: RequestLimits) -> ChildReport {
        let alive = self.session.as_mut().is_some_and(Session::is_alive);
        let mut session = match self.session.take() {
            Some(session) if alive => session,
            _ => {
                self.tally.spawns += 1;
                match self.backend.pool.spawn() {
                    Ok(session) => session,
                    Err(report) => return report,
                }
            }
        };
        let report = session.serve(request, limits);
        if session.is_alive() {
            self.session = Some(session);
        }
        report
    }

    /// Close and reap the worker, and hand back what it saw.
    pub fn close(mut self) -> SandboxTally {
        if let Some(mut session) = self.session.take() {
            session.close();
        }
        self.tally
    }
}

/// What one [`CellWorker`] saw: the `sandbox.*` counters and one crash
/// report per hard worker death. The supervisor folds every scheduler
/// thread's tally once, after the sweep drains ([`SandboxTally::fold`]).
#[derive(Debug, Default)]
pub struct SandboxTally {
    spawns: u64,
    kills_deadline: u64,
    kills_heartbeat: u64,
    signalled: u64,
    oom_killed: u64,
    heartbeats: u64,
    heartbeat_gaps_ns: Vec<u64>,
    peak_rss_max_bytes: u64,
    reports: Vec<CrashReport>,
}

impl SandboxTally {
    fn absorb(&mut self, cell: &Cell, report: &ChildReport) {
        self.heartbeats += report.heartbeats;
        if let Some(beat_ms) = report.last_heartbeat_ms {
            self.heartbeat_gaps_ns
                .push(report.wall_ms.saturating_sub(beat_ms) * 1_000_000);
        }
        if let Some(rss) = report.peak_rss_bytes {
            self.peak_rss_max_bytes = self.peak_rss_max_bytes.max(rss);
        }
        match &report.outcome {
            ChildOutcome::DeadlineExceeded { .. } => self.kills_deadline += 1,
            ChildOutcome::HeartbeatLost { .. } => self.kills_heartbeat += 1,
            ChildOutcome::OomKilled => self.oom_killed += 1,
            ChildOutcome::Signalled { .. } => self.signalled += 1,
            ChildOutcome::Completed(_) | ChildOutcome::Failed(_) => return,
            ChildOutcome::Panicked(_) | ChildOutcome::SpawnFailed(_) => {}
        }
        self.reports.push(CrashReport {
            benchmark: cell.benchmark.clone(),
            collector: cell.collector.to_string(),
            heap_factor: cell.heap_factor,
            outcome: report.outcome.label().to_string(),
            exit_code: report.exit_code,
            signal: report.signal,
            last_heartbeat_ms: report.last_heartbeat_ms,
            peak_rss_bytes: report.peak_rss_bytes,
            wall_ms: report.wall_ms,
        });
    }

    /// Fold `tallies` into `metrics` under the [`sandbox_metrics`] names
    /// and return their crash reports.
    pub fn fold(
        tallies: impl IntoIterator<Item = SandboxTally>,
        metrics: &mut MetricsRegistry,
    ) -> Vec<CrashReport> {
        let mut reports = Vec::new();
        let mut peak_rss_max_bytes = 0;
        for tally in tallies {
            metrics.inc(sandbox_metrics::SPAWNS, tally.spawns);
            metrics.inc(sandbox_metrics::KILLS_DEADLINE, tally.kills_deadline);
            metrics.inc(sandbox_metrics::KILLS_HEARTBEAT, tally.kills_heartbeat);
            metrics.inc(sandbox_metrics::SIGNALLED, tally.signalled);
            metrics.inc(sandbox_metrics::OOM_KILLED, tally.oom_killed);
            metrics.inc(sandbox_metrics::HEARTBEATS, tally.heartbeats);
            for gap in tally.heartbeat_gaps_ns {
                metrics.observe(sandbox_metrics::HEARTBEAT_GAP_NS, gap);
            }
            peak_rss_max_bytes = peak_rss_max_bytes.max(tally.peak_rss_max_bytes);
            reports.extend(tally.reports);
        }
        if peak_rss_max_bytes > 0 {
            metrics.set_gauge(
                sandbox_metrics::PEAK_RSS_MAX_BYTES,
                peak_rss_max_bytes as f64,
            );
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::lbo::RunSample;
    use chopin_faults::{FaultKind, DEFAULT_HARD_SEED};
    use chopin_obs::json::{self, JsonValue};
    use chopin_runtime::collector::CollectorKind;

    fn request() -> CellRequest {
        CellRequest {
            cell: Cell {
                benchmark: "fop".to_string(),
                collector: CollectorKind::Shenandoah,
                heap_factor: 2.5,
            },
            invocations: 3,
            iterations: 2,
            size: SizeClass::Default,
            faults: Some(FaultPlan::new(DEFAULT_HARD_SEED).with_window(
                1_000_000,
                9_007_199_254_740_993, // above 2^53: a JSON f64 would mangle it
                FaultKind::AllocSpike { factor: 4.0 },
            )),
            hard: Some((HardFaultKind::Kill, 5)),
        }
    }

    #[test]
    fn cell_requests_round_trip_bit_exactly() {
        let req = request();
        assert_eq!(
            codec::decode::<CellRequest>(&codec::encode(&req)).unwrap(),
            req
        );

        let bare = CellRequest {
            faults: None,
            hard: None,
            ..request()
        };
        assert_eq!(
            codec::decode::<CellRequest>(&codec::encode(&bare)).unwrap(),
            bare
        );
    }

    #[test]
    fn cell_responses_round_trip_bit_exactly() {
        let outcome = CellOutcome {
            samples: vec![RunSample {
                collector: CollectorKind::Zgc,
                heap_factor: 2.0,
                wall_s: 0.123_456_789_012_3,
                task_s: 1e-7,
                wall_distillable_s: 0.1,
                task_distillable_s: 9.9e-8,
            }],
            infeasible: Some("out of memory \"quoted\"\n".to_string()),
        };
        let parsed: CellOutcome = codec::decode(&codec::encode(&outcome)).unwrap();
        assert_eq!(parsed.infeasible, outcome.infeasible);
        assert_eq!(
            parsed.samples[0].wall_s.to_bits(),
            outcome.samples[0].wall_s.to_bits()
        );
        assert_eq!(
            parsed.samples[0].task_s.to_bits(),
            outcome.samples[0].task_s.to_bits()
        );
    }

    #[test]
    fn limits_derive_from_the_cell_and_overrides_win() {
        let profile = chopin_workloads::suite::by_name("fop").unwrap();
        let cell = Cell {
            benchmark: "fop".to_string(),
            collector: CollectorKind::G1,
            heap_factor: 2.0,
        };
        let config = SweepConfig::quick();
        let backend = ProcessBackend::new(PathBuf::from("/bin/true"), Some(60_000), None, None);
        let limits = backend.derive_limits(&profile, &cell, &config, None);
        let min = profile.min_heap_bytes(config.size).unwrap();
        assert!(
            limits.rlimit_as_bytes.unwrap() > chopin_sandbox::policy::CHILD_BASE_BYTES + min,
            "AS covers the scaled heap above the worker base"
        );
        assert!(limits.rlimit_cpu_s.unwrap() >= chopin_sandbox::policy::MIN_RLIMIT_CPU_S);

        // An oom victim's small backstop limit wins over derivation.
        let oom = HardFaultPlan::new(HardFaultKind::OomBlowup, DEFAULT_HARD_SEED);
        let victim = backend.derive_limits(&profile, &cell, &config, Some(&oom));
        assert_eq!(victim.rlimit_as_bytes, Some(OOM_VICTIM_RLIMIT_AS));
        assert_eq!(victim.rlimit_cpu_s, limits.rlimit_cpu_s);
    }

    #[test]
    fn process_fingerprint_matches_the_plan_ir_recipe() {
        let plan = chopin_workloads::faults::preset(
            "chaos",
            7,
            chopin_workloads::faults::DEFAULT_HORIZON_NS,
        )
        .unwrap();
        let hard = HardFaultPlan::new(HardFaultKind::Kill, DEFAULT_HARD_SEED);
        let backend = ProcessBackend::new(
            PathBuf::from("/bin/true"),
            None,
            Some(plan.clone()),
            Some(hard),
        );
        assert_eq!(
            backend.fingerprint(),
            format!("timed-iteration{plan:?}+hard:{hard:?}"),
            "the runner fingerprint journals carry"
        );
    }

    #[test]
    fn cli_flags_resolve_isolation_sandbox_and_hard_plans() {
        let args = Args::parse(["--isolation", "process"]);
        assert_eq!(
            isolation_from_args(&args).unwrap(),
            if chopin_sandbox::supported() {
                IsolationMode::Process
            } else {
                IsolationMode::Thread
            }
        );
        assert_eq!(
            isolation_from_args(&Args::parse(Vec::<String>::new())).unwrap(),
            IsolationMode::Thread
        );
        assert!(isolation_from_args(&Args::parse(["--isolation", "vm"])).is_err());

        let plan = hard_plan_from_args(&Args::parse(["--hard-faults", "kill:9:3"]))
            .unwrap()
            .unwrap();
        assert_eq!(plan.kind, HardFaultKind::Kill);
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.stride, 3);
        assert!(hard_plan_from_args(&Args::parse(Vec::<String>::new()))
            .unwrap()
            .is_none());
        assert!(hard_plan_from_args(&Args::parse(["--hard-faults", "segv"])).is_err());

        // The sandbox family wires into the supervisor, and an unusable
        // value refuses the run.
        let supervisor = crate::supervisor::SuiteSupervisor::new(Default::default());
        let args = Args::parse(["--isolation", "process", "--hard-faults", "kill"]);
        assert!(configure_isolation(supervisor, &args).is_ok());
        let supervisor = crate::supervisor::SuiteSupervisor::new(Default::default());
        let args = Args::parse(["--hard-faults", "segv"]);
        assert!(configure_isolation(supervisor, &args).is_err());
    }

    #[test]
    fn crash_reports_render_parseable_jsonl() {
        let report = CrashReport {
            benchmark: "fop".to_string(),
            collector: "G1".to_string(),
            heap_factor: 2.0,
            outcome: "signalled".to_string(),
            exit_code: None,
            signal: Some(9),
            last_heartbeat_ms: Some(12),
            peak_rss_bytes: None,
            wall_ms: 40,
        };
        let line = codec::encode(&report);
        let obj = json::parse(&line).expect("valid JSON");
        assert_eq!(
            obj.get("outcome").and_then(JsonValue::as_str),
            Some("signalled")
        );
        assert_eq!(obj.get("signal").and_then(JsonValue::as_num), Some(9.0));
        assert!(matches!(obj.get("exit_code"), Some(JsonValue::Null)));
    }
}
