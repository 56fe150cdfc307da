//! Process-isolated cell execution: the harness side of `chopin-sandbox`.
//!
//! Under `--isolation process` every sweep cell runs in a sandboxed
//! worker process instead of on a worker thread. Each scheduler thread
//! keeps at most one persistent worker busy, which runs one cell after
//! another; a cell's independence comes from its seed, not from a fresh
//! process. The pieces living here:
//!
//! * [`worker_entry`] — the worker half. Every binary calls it first
//!   thing in `main`; when the process was spawned as a sandbox worker
//!   it serves cell requests from stdin until stdin closes: it decodes
//!   each, runs the cell on the in-process [`SweepCellRunner`] itself,
//!   and reports the outcome over the framed stdout protocol.
//! * [`ProcessCellRunner`] — the parent half: a [`CellRunner`] that keeps
//!   the idle workers, spawns one when none is idle, marshals each cell
//!   into a worker with its own resource limits (RLIMIT_AS from the
//!   cell's heap, RLIMIT_CPU from the analyzer's R808 cost bound), and
//!   classifies every ending into the crash taxonomy the supervisor
//!   quarantines by. A worker that dies is charged to the one cell it
//!   was running and replaced; one found dead while idle is replaced
//!   without charging anyone.
//! * Hard-fault injection (`--hard-faults kill|abort|oom`): the parent
//!   decides victim cells deterministically
//!   ([`HardFaultPlan::is_victim`]) and ships only the death directive to
//!   the worker, so victim selection is identical across attempts,
//!   backends and hosts. A victim never answers, so its death can never
//!   land on the next cell.
//! * [`CrashReport`] — one JSONL record per hard child failure
//!   (`--crash-reports FILE`), the artifact CI uploads from chaos runs.
//! * [`reexec_isolated`] — whole-run isolation for the binaries without a
//!   per-cell supervisor path (`latency`, `suite`): re-execute the
//!   current invocation under thread isolation inside a monitored child
//!   and classify a hard death instead of inheriting it.
//!
//! Requests, responses and crash reports are rendered and parsed by the
//! one cell-record codec (`codec.rs`), whose exact float and `u64`
//! round trips let a process-isolated clean run reproduce the
//! thread-mode results CSV byte for byte.

use crate::cli::Args;
use crate::codec::{self, Record};
use crate::supervisor::{
    lock, Cell, CellFailure, CellOutcome, CellRunner, QuarantineReason, SweepCellRunner,
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
use std::sync::Mutex;
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

/// Build a [`SandboxPolicy`] from `--heartbeat-ms MS`, `--rlimit-as-mb
/// MB` and `--rlimit-cpu-s S`, starting from the defaults (absent
/// override flags leave limits derived per cell).
///
/// # Errors
///
/// An unparsable value, or a policy that fails
/// [`SandboxPolicy::validate`].
pub fn sandbox_policy_from_args(args: &Args) -> Result<SandboxPolicy, String> {
    let mut policy = SandboxPolicy::default();
    policy.heartbeat_interval_ms = args
        .get_or("heartbeat-ms", policy.heartbeat_interval_ms)
        .map_err(|e| e.to_string())?;
    if args.has("rlimit-as-mb") {
        let mb: u64 = args.get_or("rlimit-as-mb", 0).map_err(|e| e.to_string())?;
        policy.rlimit_as_bytes = Some(mb << 20);
    }
    if args.has("rlimit-cpu-s") {
        let s: u64 = args.get_or("rlimit-cpu-s", 0).map_err(|e| e.to_string())?;
        policy.rlimit_cpu_s = Some(s);
    }
    policy.validate().map_err(|e| e.to_string())?;
    Ok(policy)
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
/// `--heartbeat-ms`/`--rlimit-as-mb`/`--rlimit-cpu-s`, `--hard-faults`
/// and `--crash-reports`. The shared wiring for every supervised binary.
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
        .with_sandbox(sandbox_policy_from_args(args)?)
        .with_hard_faults(hard_plan_from_args(args)?);
    if let Some(path) = args.value("crash-reports") {
        supervisor = supervisor.with_crash_reports(path);
    }
    Ok(supervisor)
}

/// Run the sandbox worker protocol when this process was spawned as a
/// cell worker, or the fleet worker loop when it was spawned (or
/// environment-configured) as a fleet worker; return immediately
/// otherwise. Every harness binary (and every `harness = false` test
/// binary that exercises process isolation) must call this first thing
/// in `main`.
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
// The parent side: the process-isolation CellRunner.
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

#[derive(Debug, Default)]
struct SandboxStats {
    spawns: u64,
    kills_deadline: u64,
    kills_heartbeat: u64,
    signalled: u64,
    oom_killed: u64,
    heartbeats: u64,
    heartbeat_gaps_ns: Vec<u64>,
    peak_rss_max_bytes: u64,
}

/// The process-isolation [`CellRunner`]: every cell in a persistent
/// sandboxed worker, hard endings classified into the crash taxonomy the
/// supervisor quarantines by. It never holds more workers than cells run
/// at once: one per scheduler thread.
#[derive(Debug)]
pub struct ProcessCellRunner {
    pool: SandboxPool,
    policy: SandboxPolicy,
    deadline_ms: Option<u64>,
    faults: Option<FaultPlan>,
    hard: Option<HardFaultPlan>,
    /// Workers between cells.
    idle: Mutex<Vec<Session>>,
    stats: Mutex<SandboxStats>,
    reports: Mutex<Vec<CrashReport>>,
}

impl ProcessCellRunner {
    /// A runner spawning `exe` (normally the current executable, whose
    /// `main` calls [`worker_entry`]) under `policy`, with the
    /// supervisor's per-cell deadline enforced by the parent.
    pub fn new(
        exe: PathBuf,
        policy: SandboxPolicy,
        deadline_ms: Option<u64>,
        faults: Option<FaultPlan>,
        hard: Option<HardFaultPlan>,
    ) -> ProcessCellRunner {
        ProcessCellRunner {
            pool: SandboxPool::new(exe, policy).with_deadline_ms(deadline_ms),
            policy,
            deadline_ms,
            faults: faults.filter(|p| !p.is_empty()),
            hard,
            idle: Mutex::new(Vec::new()),
            stats: Mutex::new(SandboxStats::default()),
            reports: Mutex::new(Vec::new()),
        }
    }

    /// An idle worker that is still alive, or a fresh one when none is.
    /// A worker found dead while idle is reaped and replaced here, before
    /// any request is written to it, so no cell is charged for it.
    fn checkout(&self) -> Result<Session, ChildReport> {
        loop {
            let Some(mut worker) = lock(&self.idle).pop() else {
                break;
            };
            if worker.is_alive() {
                return Ok(worker);
            }
        }
        lock(&self.stats).spawns += 1;
        self.pool.spawn()
    }

    /// Close and reap every idle worker. Call once no cell is running:
    /// a worker busy with a cell is not idle, and is not closed.
    pub fn close_workers(&self) {
        let idle = std::mem::take(&mut *lock(&self.idle));
        for mut worker in idle {
            worker.close();
        }
    }

    /// Derive this cell's resource limits: explicit policy overrides win;
    /// otherwise RLIMIT_AS covers the cell's collector-adjusted heap plus
    /// the worker base, and the RLIMIT_CPU budget scales the analyzer's
    /// R808 cost lower bound (capped just above the cell deadline when
    /// one exists).
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
        let rlimit_cpu_s = self
            .policy
            .rlimit_cpu_s
            .or(Some(derived_rlimit_cpu_s(cost_bound_s, self.deadline_ms)));
        if victim.is_some_and(|v| v.kind == HardFaultKind::OomBlowup) {
            return RequestLimits {
                rlimit_as_bytes: Some(OOM_VICTIM_RLIMIT_AS),
                rlimit_cpu_s,
            };
        }
        let rlimit_as_bytes = self.policy.rlimit_as_bytes.or_else(|| {
            profile.min_heap_bytes(config.size).map(|min| {
                let heap = (min as f64 * cell.heap_factor * profile.uncompressed_inflation()).ceil()
                    as u64;
                required_rlimit_as(heap)
            })
        });
        RequestLimits {
            rlimit_as_bytes,
            rlimit_cpu_s,
        }
    }

    fn absorb(&self, cell: &Cell, report: &ChildReport) {
        let mut stats = lock(&self.stats);
        stats.heartbeats += report.heartbeats;
        if let Some(beat_ms) = report.last_heartbeat_ms {
            stats
                .heartbeat_gaps_ns
                .push(report.wall_ms.saturating_sub(beat_ms) * 1_000_000);
        }
        if let Some(rss) = report.peak_rss_bytes {
            stats.peak_rss_max_bytes = stats.peak_rss_max_bytes.max(rss);
        }
        match &report.outcome {
            ChildOutcome::DeadlineExceeded { .. } => stats.kills_deadline += 1,
            ChildOutcome::HeartbeatLost { .. } => stats.kills_heartbeat += 1,
            ChildOutcome::OomKilled => stats.oom_killed += 1,
            ChildOutcome::Signalled { .. } => stats.signalled += 1,
            _ => {}
        }
        drop(stats);
        if !matches!(
            report.outcome,
            ChildOutcome::Completed(_) | ChildOutcome::Failed(_)
        ) {
            lock(&self.reports).push(CrashReport {
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
    }

    /// Fold the sandbox counters into `metrics` under the
    /// [`sandbox_metrics`] names.
    pub fn merge_metrics(&self, metrics: &mut MetricsRegistry) {
        let stats = lock(&self.stats);
        metrics.inc(sandbox_metrics::SPAWNS, stats.spawns);
        metrics.inc(sandbox_metrics::KILLS_DEADLINE, stats.kills_deadline);
        metrics.inc(sandbox_metrics::KILLS_HEARTBEAT, stats.kills_heartbeat);
        metrics.inc(sandbox_metrics::SIGNALLED, stats.signalled);
        metrics.inc(sandbox_metrics::OOM_KILLED, stats.oom_killed);
        metrics.inc(sandbox_metrics::HEARTBEATS, stats.heartbeats);
        for &gap in &stats.heartbeat_gaps_ns {
            metrics.observe(sandbox_metrics::HEARTBEAT_GAP_NS, gap);
        }
        if stats.peak_rss_max_bytes > 0 {
            metrics.set_gauge(
                sandbox_metrics::PEAK_RSS_MAX_BYTES,
                stats.peak_rss_max_bytes as f64,
            );
        }
    }

    /// Drain the crash reports accumulated so far.
    pub fn take_reports(&self) -> Vec<CrashReport> {
        std::mem::take(&mut lock(&self.reports))
    }
}

impl CellRunner for ProcessCellRunner {
    fn run_cell(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure> {
        let victim = self.hard.as_ref().filter(|h| {
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
            faults: self.faults.clone(),
            hard: victim.map(|v| (v.kind, v.delay_ms)),
        });
        let limits = self.derive_limits(profile, cell, config, victim);
        let report = match self.checkout() {
            Ok(mut worker) => {
                let report = worker.serve(&request, limits);
                if worker.is_alive() {
                    lock(&self.idle).push(worker);
                }
                report
            }
            Err(report) => report,
        };
        self.absorb(cell, &report);
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

    fn fingerprint(&self) -> String {
        chopin_analyzer::runner_fingerprint(self.faults.as_ref(), self.hard.as_ref())
    }

    fn handles_deadline(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Whole-run isolation for binaries without a per-cell supervisor path.
// ---------------------------------------------------------------------

/// Rewrite an argument vector so the re-executed child runs under thread
/// isolation (every `--isolation` value becomes `thread`).
fn rewrite_isolation_args(mut argv: Vec<String>) -> Vec<String> {
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--isolation" || argv[i] == "-isolation" {
            if i + 1 < argv.len() && !argv[i + 1].starts_with('-') {
                argv[i + 1] = "thread".to_string();
            } else {
                argv.insert(i + 1, "thread".to_string());
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    argv
}

/// Whole-run process isolation for `latency` and `suite`: re-execute the
/// current invocation under `--isolation thread` in a child process with
/// inherited stdio, classify a hard death (signal) instead of dying with
/// it, and return the exit code the parent should use (4 for a crashed
/// child).
#[must_use]
pub fn reexec_isolated() -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: process isolation cannot resolve the current executable: {e}");
            return 2;
        }
    };
    let argv = rewrite_isolation_args(std::env::args().skip(1).collect());
    match std::process::Command::new(exe).args(&argv).status() {
        Err(e) => {
            eprintln!("error: process isolation could not spawn the isolated run: {e}");
            2
        }
        Ok(status) => {
            if let Some(signal) = status_signal(&status) {
                eprintln!(
                    "error: the isolated run died to signal {signal} ({})",
                    chopin_sandbox::limits::signal_name(signal)
                );
                return 4;
            }
            status.code().unwrap_or(4)
        }
    }
}

#[cfg(unix)]
pub(crate) fn status_signal(status: &std::process::ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

#[cfg(not(unix))]
pub(crate) fn status_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
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
        let runner = ProcessCellRunner::new(
            PathBuf::from("/bin/true"),
            SandboxPolicy::default(),
            Some(60_000),
            None,
            None,
        );
        let limits = runner.derive_limits(&profile, &cell, &config, None);
        let min = profile.min_heap_bytes(config.size).unwrap();
        assert!(
            limits.rlimit_as_bytes.unwrap() > chopin_sandbox::policy::CHILD_BASE_BYTES + min,
            "AS covers the scaled heap above the worker base"
        );
        assert!(limits.rlimit_cpu_s.unwrap() >= chopin_sandbox::policy::MIN_RLIMIT_CPU_S);

        // An oom victim gets the small backstop limit instead.
        let oom = HardFaultPlan::new(HardFaultKind::OomBlowup, DEFAULT_HARD_SEED);
        let limits = runner.derive_limits(&profile, &cell, &config, Some(&oom));
        assert_eq!(limits.rlimit_as_bytes, Some(OOM_VICTIM_RLIMIT_AS));

        // Explicit policy overrides win over derivation.
        let runner = ProcessCellRunner::new(
            PathBuf::from("/bin/true"),
            SandboxPolicy {
                rlimit_as_bytes: Some(123 << 20),
                rlimit_cpu_s: Some(77),
                ..SandboxPolicy::default()
            },
            None,
            None,
            None,
        );
        let limits = runner.derive_limits(&profile, &cell, &config, None);
        assert_eq!(limits.rlimit_as_bytes, Some(123 << 20));
        assert_eq!(limits.rlimit_cpu_s, Some(77));
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
        let runner = ProcessCellRunner::new(
            PathBuf::from("/bin/true"),
            SandboxPolicy::default(),
            None,
            Some(plan.clone()),
            Some(hard),
        );
        assert_eq!(
            runner.fingerprint(),
            format!("timed-iteration{plan:?}+hard:{hard:?}"),
            "the runner fingerprint journals carry"
        );
        assert!(runner.handles_deadline());
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

        let args = Args::parse([
            "--heartbeat-ms",
            "50",
            "--rlimit-as-mb",
            "2048",
            "--rlimit-cpu-s",
            "9",
        ]);
        let policy = sandbox_policy_from_args(&args).unwrap();
        assert_eq!(policy.heartbeat_interval_ms, 50);
        assert_eq!(policy.rlimit_as_bytes, Some(2048 << 20));
        assert_eq!(policy.rlimit_cpu_s, Some(9));
        assert!(sandbox_policy_from_args(&Args::parse(["--heartbeat-ms", "0"])).is_err());

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
    }

    #[test]
    fn reexec_rewrites_every_isolation_flag_to_thread() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            rewrite_isolation_args(argv(&["-b", "h2", "--isolation", "process", "--check"])),
            argv(&["-b", "h2", "--isolation", "thread", "--check"])
        );
        // A bare flag (no value) gains an explicit thread value.
        assert_eq!(
            rewrite_isolation_args(argv(&["--isolation", "--check"])),
            argv(&["--isolation", "thread", "--check"])
        );
        assert_eq!(
            rewrite_isolation_args(argv(&["-b", "h2"])),
            argv(&["-b", "h2"])
        );
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
