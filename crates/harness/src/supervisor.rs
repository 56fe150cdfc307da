//! The resilient sweep supervisor: per-cell panic isolation, wall-clock
//! deadlines, retry with jittered exponential backoff, a crash-safe
//! resume journal and graceful degradation into a quarantine report.
//!
//! A long unattended campaign cannot assume every cell is well-behaved.
//! The supervisor wraps each cell (benchmark × collector × heap factor)
//! in an isolation boundary: a panicking cell is caught, a hung cell is
//! abandoned at its deadline, and both are retried with exponential
//! backoff before being quarantined with a structured reason. The
//! supervisor never aborts on a bad cell: it always returns every
//! completed [`SweepResult`] plus the quarantine list. It is the only
//! way a sweep runs, apart from the sequential reference `run_sweep`
//! that `runbms` keeps for byte comparisons.
//!
//! Every isolation mode runs on one scheduler: a [`LeaseTable`] over
//! typed cell outcomes, which owns retry, seeded full-jitter backoff and
//! quarantine (the one retry policy `artifact model` checks). Resume is
//! one absorption of the base journal and any fleet worker shards, and
//! one assembly turns the drained table into the report in schedule
//! order, so a resumed or differently-isolated suite reproduces the
//! uninterrupted run byte for byte. Only the executor differs by mode:
//!
//! * `--isolation thread` — `min(nproc, cells)` scheduler threads loop
//!   grant → attempt → complete or fail. Each hands its attempts to one
//!   long-lived attempt thread and waits for the reply within the cell
//!   deadline; an attempt thread abandoned at a deadline is replaced by
//!   a fresh one. Completed cells are journalled atomically
//!   ([`crate::journal`]) as they finish.
//! * `--isolation process` — the same loop, but each scheduler thread
//!   owns one sandboxed worker process ([`crate::sandbox::CellWorker`]),
//!   spawned on its first cell, and serves its attempts on it directly:
//!   the worker's session enforces the cell deadline and the heartbeat,
//!   so no attempt thread is needed. Cells that SIGSEGV, get SIGKILLed,
//!   blow their address-space limit or stop heartbeating are quarantined
//!   as [`QuarantineReason::Signalled`], [`QuarantineReason::OomKilled`]
//!   or [`QuarantineReason::HeartbeatLost`] instead of taking the sweep
//!   down; the dead worker is replaced. Each thread closes and reaps its
//!   worker when its loop ends and hands back the worker's counters and
//!   crash reports, which are folded once. Hard-fault injection
//!   (`--hard-faults`) requires this backend and is rejected up front
//!   under threads (rule R903).
//! * `--fleet N` — leases cross a TCP socket to worker processes
//!   ([`crate::fleet`]), which journal into per-worker shards.
//!
//! Both in-process executors enforce the cell deadline and report a
//! blown one as a cell failure, so they never expire or steal a lease: a
//! thread simply stops once no cell is pending.

use crate::codec::{self, decode_reason};
use crate::journal::{
    sibling_worker_journals, CellProvenance, Journal, JournalEntry, JournalError, QuarantineRecord,
};
use crate::sandbox::{write_crash_reports, CellWorker, CrashReport, ProcessBackend, SandboxTally};
use chopin_core::lbo::RunSample;
use chopin_core::sweep::{SweepConfig, SweepFailure, SweepResult};
use chopin_faults::{FaultPlan, HardFaultPlan, PolicyError, SupervisorPolicy};
use chopin_fleet::config::DEFAULT_LEASE_DEADLINE_MS;
use chopin_fleet::lease::CellResolution;
use chopin_fleet::{recover, Candidate, FleetConfig, Grant, LeaseTable};
use chopin_obs::metrics::fleet_metrics;
use chopin_obs::MetricsRegistry;
use chopin_runtime::collector::CollectorKind;
use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::limits::signal_name;
use chopin_sandbox::IsolationMode;
use chopin_workloads::WorkloadProfile;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `mutex`, ignoring poison: a cell that panics while another
/// thread holds a lock must not take the lease table, the journal or
/// a telemetry sink down with it.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unit of supervised work: a benchmark × collector × heap-factor
/// cell, covering all of the cell's invocations. It is also the cell's
/// journal key ([`CellKey`](crate::journal::CellKey)).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector under test.
    pub collector: CollectorKind,
    /// Heap factor (multiple of the nominal minimum heap).
    pub heap_factor: f64,
}

impl Cell {
    /// Exact-key equality (heap factors compared bitwise: journalled
    /// factors round-trip exactly through `{:?}`).
    pub fn matches(&self, other: &Cell) -> bool {
        self.benchmark == other.benchmark
            && self.collector == other.collector
            && self.heap_factor.to_bits() == other.heap_factor.to_bits()
    }
}

/// The deterministic per-cell seed used to de-correlate retry backoff
/// across cells (full jitter): a stable hash of the cell identity, so the
/// same cell jitters the same way on every host and every resume.
pub fn cell_seed(cell: &Cell) -> u64 {
    chopin_analyzer::fingerprint_of(&[
        &cell.benchmark,
        &cell.collector.to_string(),
        &format!("{:x}", cell.heap_factor.to_bits()),
    ])
}

/// What a cell produced when it ran to completion.
///
/// Outcomes compare by their rendered response bytes: the order the
/// `(attempt, worker)` merge falls back to when two candidates for one
/// cell share their provenance, so it agrees with the journalled bytes.
#[derive(Debug, Clone, Default)]
pub struct CellOutcome {
    /// One sample per completed invocation.
    pub samples: Vec<RunSample>,
    /// Set when the cell is infeasible at this heap size (OOM/thrash) —
    /// a real, deterministic outcome, recorded as a [`SweepFailure`]
    /// rather than retried.
    pub infeasible: Option<String>,
}

impl Ord for CellOutcome {
    fn cmp(&self, other: &Self) -> Ordering {
        codec::encode(self).cmp(&codec::encode(other))
    }
}

impl PartialOrd for CellOutcome {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for CellOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CellOutcome {}

/// The sweep's one scheduler: a lease table over typed cell outcomes,
/// shared by every isolation mode.
pub(crate) type CellTable = LeaseTable<CellOutcome>;

/// How a cell attempt failed, as reported by a [`CellRunner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// A soft failure worth retrying (I/O hiccup, spawn failure, garbled
    /// worker payload).
    Transient(String),
    /// A classified hard failure from the crash taxonomy. Retried like
    /// any failure — deterministic victims die identically every attempt
    /// — and the final attempt's reason becomes the quarantine reason.
    Crash(QuarantineReason),
}

impl From<String> for CellFailure {
    fn from(message: String) -> Self {
        CellFailure::Transient(message)
    }
}

/// Executes one cell under thread isolation. The default implementation
/// ([`SweepCellRunner`]) runs the sweep's invocation loop in this
/// process; chaos tests substitute runners that panic, hang or fail on
/// schedule.
pub trait CellRunner: Send + Sync {
    /// Run every invocation of `cell` and return the outcome.
    ///
    /// # Errors
    ///
    /// A [`CellFailure`]: transient failures are retried with backoff;
    /// crash failures carry their taxonomy into the quarantine report.
    fn run_cell(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure>;

    /// Extra material for the resume fingerprint (e.g. a fault plan):
    /// journals written under a different runner configuration must not
    /// be resumed from.
    fn fingerprint(&self) -> String {
        String::new()
    }
}

/// The production thread-backend [`CellRunner`]: the sweep's one
/// invocation loop ([`chopin_core::sweep::run_cell`]) with an optional
/// deterministic fault plan injected into every run.
#[derive(Debug, Clone, Default)]
pub struct SweepCellRunner {
    faults: Option<FaultPlan>,
}

impl SweepCellRunner {
    /// A fault-free runner.
    pub fn new() -> SweepCellRunner {
        SweepCellRunner::default()
    }

    /// A runner injecting `plan` into every invocation.
    pub fn with_faults(plan: FaultPlan) -> SweepCellRunner {
        SweepCellRunner {
            faults: (!plan.is_empty()).then_some(plan),
        }
    }
}

impl CellRunner for SweepCellRunner {
    fn run_cell(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure> {
        let mut samples = Vec::new();
        let infeasible = chopin_core::sweep::run_cell(
            profile,
            cell.collector,
            cell.heap_factor,
            config,
            self.faults.as_ref(),
            &mut samples,
        )
        .map_err(|e| e.to_string())?;
        Ok(CellOutcome {
            samples,
            infeasible,
        })
    }

    fn fingerprint(&self) -> String {
        chopin_analyzer::runner_fingerprint(self.faults.as_ref(), None)
    }
}

/// Why a cell was quarantined after exhausting its retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The cell panicked; the payload message is preserved.
    Panicked(String),
    /// The cell exceeded its wall-clock budget and was abandoned (thread
    /// backend) or killed (process backend).
    DeadlineExceeded {
        /// The budget it blew, in milliseconds.
        budget_ms: u64,
    },
    /// The cell returned a transient error every attempt.
    Errored(String),
    /// The cell's worker process died to a signal (SIGSEGV, SIGABRT,
    /// SIGKILL, …). Process backend only.
    Signalled {
        /// The terminating signal number.
        signal: i32,
    },
    /// The cell's worker process blew its address-space limit and was
    /// killed by the out-of-memory backstop. Process backend only.
    OomKilled,
    /// The cell's worker process stopped heartbeating (wedged, not
    /// computing) and was killed. Process backend only.
    HeartbeatLost {
        /// How long the worker was silent before the kill, milliseconds.
        silent_ms: u64,
    },
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Panicked(msg) => write!(f, "panicked: {msg}"),
            QuarantineReason::DeadlineExceeded { budget_ms } => {
                write!(f, "exceeded the {budget_ms}ms cell deadline")
            }
            QuarantineReason::Errored(msg) => write!(f, "errored: {msg}"),
            QuarantineReason::Signalled { signal } => {
                write!(f, "killed by signal {signal} ({})", signal_name(*signal))
            }
            QuarantineReason::OomKilled => {
                write!(f, "killed by the out-of-memory backstop (RLIMIT_AS)")
            }
            QuarantineReason::HeartbeatLost { silent_ms } => {
                write!(f, "heartbeat lost: worker silent for {silent_ms}ms")
            }
        }
    }
}

/// One quarantined cell: which, after how many attempts, and why.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// The cell that never completed.
    pub cell: Cell,
    /// Total attempts made (first try plus retries).
    pub attempts: u32,
    /// The final failure.
    pub reason: QuarantineReason,
}

/// The supervisor's product: every completed sweep result, the structured
/// quarantine report, and execution counters.
#[derive(Debug)]
pub struct SuiteReport {
    /// One result per input profile, in input order, holding every
    /// completed cell's samples and infeasibility failures.
    pub results: Vec<SweepResult>,
    /// Cells that never completed, with structured reasons.
    pub quarantined: Vec<QuarantineEntry>,
    /// One report per hard child failure (process backend only; empty
    /// under thread isolation).
    pub crash_reports: Vec<CrashReport>,
    /// Supervision counters: `supervisor.cells`, `.cells.completed`,
    /// `.cells.resumed`, `.cells.infeasible`, `.cells.quarantined`,
    /// `supervisor.retries` — plus the `sandbox.*` family under process
    /// isolation.
    pub metrics: MetricsRegistry,
}

impl SuiteReport {
    /// Whether every cell completed (nothing quarantined).
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Render the quarantine report as text, one line per cell.
    pub fn quarantine_summary(&self) -> String {
        if self.is_clean() {
            return "all cells completed\n".to_string();
        }
        let mut out = format!("{} cell(s) quarantined:\n", self.quarantined.len());
        for q in &self.quarantined {
            out.push_str(&format!(
                "  {} / {} / {:.2}x after {} attempt(s): {}\n",
                q.cell.benchmark, q.cell.collector, q.cell.heap_factor, q.attempts, q.reason
            ));
        }
        out
    }
}

/// The supervisor failed before any cell ran.
#[derive(Debug, Clone, PartialEq)]
pub enum SuperviseError {
    /// The policy failed validation (rule R704).
    Policy(PolicyError),
    /// The journal could not be created, read or written.
    Journal(JournalError),
    /// `--resume` pointed at a journal from a different configuration.
    JournalMismatch {
        /// Fingerprint of the requested configuration.
        expected: u64,
        /// Fingerprint found in the journal.
        found: u64,
    },
    /// The isolation configuration is unusable: hard faults under the
    /// thread backend (rule R903), an invalid sandbox policy, or no
    /// resolvable worker executable.
    Isolation(String),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::Policy(e) => write!(f, "{e}"),
            SuperviseError::Journal(e) => write!(f, "{e}"),
            SuperviseError::JournalMismatch { expected, found } => write!(
                f,
                "journal fingerprint {found:016x} does not match this configuration \
                 ({expected:016x}); refusing to resume across configurations"
            ),
            SuperviseError::Isolation(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<JournalError> for SuperviseError {
    fn from(e: JournalError) -> Self {
        SuperviseError::Journal(e)
    }
}

/// Flags only the sweep scheduler honours. `latency` and `suite` have no
/// per-cell scheduler path, so [`crate::cli::check_flags`] refuses every
/// one of them there, pointing at the binaries that take them;
/// `--faults` and `--isolation`, which those two honour on their own
/// terms, are not on the list.
pub const SCHEDULER_FLAGS: [&str; 16] = [
    "journal",
    "resume",
    "cell-deadline",
    "retries",
    "backoff-ms",
    "hard-faults",
    "crash-reports",
    "fleet",
    "fleet-connect",
    "lease-deadline",
    "fleet-storm",
    "fleet-bind",
    "fleet-token",
    "fleet-standby",
    "fleet-await-standby",
    "net-faults",
];

/// Whether any supervisor flag is on the command line: `runbms` runs
/// its sequential reference sweep only when none is.
pub fn supervision_requested(args: &crate::cli::Args) -> bool {
    args.has("faults") || args.has("isolation") || SCHEDULER_FLAGS.iter().any(|f| args.has(f))
}

/// Build the supervisor a command line asks for: the policy
/// ([`policy_from_args`]), `--resume`, `--faults`, `--journal`, the
/// isolation family ([`crate::sandbox::configure_isolation`]) and the
/// fleet family ([`crate::fleet::fleet_config_from_args`]). The one
/// recipe `runbms`, `lbo` and `artifact chaos` share.
///
/// # Errors
///
/// A human-readable message for any malformed flag.
pub fn supervisor_from_args(args: &crate::cli::Args) -> Result<SuiteSupervisor, String> {
    let mut supervisor = SuiteSupervisor::new(policy_from_args(args)?).resume(args.has("resume"));
    if let Some(plan) = plan_from_args(args)? {
        supervisor = supervisor.with_faults(plan);
    }
    if let Some(path) = args.value("journal") {
        supervisor = supervisor.with_journal(path);
    }
    let supervisor = crate::sandbox::configure_isolation(supervisor, args)?;
    Ok(supervisor.with_fleet(crate::fleet::fleet_config_from_args(args)?))
}

/// Build a [`SupervisorPolicy`] from `--cell-deadline MS` (0 disables the
/// watchdog), `--retries N` and `--backoff-ms MS`, starting from the
/// defaults.
///
/// # Errors
///
/// A human-readable message for an unparsable value; range checks are
/// left to [`SupervisorPolicy::validate`] (rule R704).
pub fn policy_from_args(args: &crate::cli::Args) -> Result<SupervisorPolicy, String> {
    let defaults = SupervisorPolicy::default();
    let deadline_ms = args
        .get_or("cell-deadline", defaults.cell_deadline_ms.unwrap_or(0))
        .map_err(|e| e.to_string())?;
    Ok(SupervisorPolicy {
        cell_deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        max_retries: args
            .get_or("retries", defaults.max_retries)
            .map_err(|e| e.to_string())?,
        backoff_base_ms: args
            .get_or("backoff-ms", defaults.backoff_base_ms)
            .map_err(|e| e.to_string())?,
        backoff_max_ms: defaults.backoff_max_ms,
    })
}

/// Parse `--faults PRESET[:SEED]` into a plan, if the flag is present.
///
/// # Errors
///
/// The flag is present without a value, names an unknown preset, or
/// carries a malformed seed.
pub fn plan_from_args(args: &crate::cli::Args) -> Result<Option<FaultPlan>, String> {
    if !args.has("faults") {
        return Ok(None);
    }
    let flag = args
        .value("faults")
        .ok_or("--faults needs a preset name (e.g. --faults chaos)")?;
    chopin_workloads::faults::parse_flag(flag, chopin_workloads::faults::DEFAULT_HORIZON_NS)
        .map(Some)
}

/// What one cell attempt sends back from its attempt thread: the
/// `catch_unwind`-wrapped runner result.
pub type AttemptPayload = std::thread::Result<Result<CellOutcome, CellFailure>>;

/// The supervisor's clock: the scheduler's notion of now, backoff sleeps
/// and attempt waits go through this trait so tests can substitute a
/// virtual clock and assert exact backoff schedules without real
/// sleeping.
pub trait SupervisorClock: Send + Sync {
    /// Milliseconds since the clock's origin — the lease table's time.
    fn now_ms(&self) -> u64;

    /// Sleep between retries.
    fn sleep(&self, duration: Duration);

    /// Wait for an attempt's payload, bounded by `budget` when present.
    ///
    /// # Errors
    ///
    /// `Timeout` when the budget expires first, `Disconnected` when the
    /// worker vanished without sending.
    fn recv(
        &self,
        rx: &mpsc::Receiver<AttemptPayload>,
        budget: Option<Duration>,
    ) -> Result<AttemptPayload, mpsc::RecvTimeoutError>;
}

/// The production clock: wall time since the clock was made, real
/// sleeps, real waits.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    origin: WallSpan,
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock {
            origin: WallSpan::begin(),
        }
    }
}

impl SupervisorClock for RealClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed_ms() as u64
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    fn recv(
        &self,
        rx: &mpsc::Receiver<AttemptPayload>,
        budget: Option<Duration>,
    ) -> Result<AttemptPayload, mpsc::RecvTimeoutError> {
        match budget {
            Some(budget) => rx.recv_timeout(budget),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        }
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classify one attempt's `catch_unwind`-wrapped runner result: the
/// outcome, or the reason the attempt failed.
pub(crate) fn settle(payload: AttemptPayload) -> Result<CellOutcome, QuarantineReason> {
    match payload {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(CellFailure::Transient(message))) => Err(QuarantineReason::Errored(message)),
        Ok(Err(CellFailure::Crash(reason))) => Err(reason),
        Err(payload) => Err(QuarantineReason::Panicked(panic_message(payload))),
    }
}

/// How one scheduler thread runs the attempts it is granted.
enum Executor<'a> {
    /// Thread isolation: on the thread's attempt thread, waited on within
    /// the cell deadline.
    Thread(Option<AttemptThread>),
    /// Process isolation: on the thread's own sandboxed worker, whose
    /// session enforces the deadline and the heartbeat.
    Process(Box<CellWorker<'a>>),
}

/// What every attempt of one local run shares: the runner, the profiles,
/// the schedule and the sweep configuration. Attempt threads outlive
/// the scheduler's borrows when abandoned, so they hold it by `Arc`.
struct AttemptWork {
    runner: Arc<dyn CellRunner>,
    profiles: Vec<WorkloadProfile>,
    cells: Vec<(usize, Cell)>,
    config: SweepConfig,
}

/// A scheduler thread's attempt thread: one long-lived OS thread that
/// runs each cell it is handed under `catch_unwind` and replies over a
/// channel, so the scheduler thread can wait on the reply with a
/// deadline. An abandoned attempt thread finishes its run, finds its
/// reply channel dead and exits.
struct AttemptThread {
    cells: mpsc::Sender<usize>,
    replies: mpsc::Receiver<AttemptPayload>,
}

impl AttemptThread {
    fn spawn(work: &Arc<AttemptWork>) -> AttemptThread {
        let (cells, inbox) = mpsc::channel::<usize>();
        let (outbox, replies) = mpsc::channel();
        let work = Arc::clone(work);
        std::thread::spawn(move || {
            for idx in inbox {
                let (pi, cell) = &work.cells[idx];
                let result = catch_unwind(AssertUnwindSafe(|| {
                    work.runner
                        .run_cell(&work.profiles[*pi], cell, &work.config)
                }));
                if outbox.send(result).is_err() {
                    break;
                }
            }
        });
        AttemptThread { cells, replies }
    }
}

/// Run one attempt of schedule cell `idx` on `thread` (spawning it when
/// there is none) and wait for the reply within the cell deadline. A
/// blown deadline abandons the attempt thread, as does its vanishing;
/// the next attempt then gets a fresh one.
fn run_attempt(
    work: &Arc<AttemptWork>,
    thread: &mut Option<AttemptThread>,
    idx: usize,
    deadline_ms: Option<u64>,
    clock: &dyn SupervisorClock,
) -> Result<CellOutcome, QuarantineReason> {
    let attempt = thread.get_or_insert_with(|| AttemptThread::spawn(work));
    let reply = match attempt.cells.send(idx) {
        Ok(()) => clock.recv(&attempt.replies, deadline_ms.map(Duration::from_millis)),
        Err(_) => Err(mpsc::RecvTimeoutError::Disconnected),
    };
    if reply.is_err() {
        *thread = None;
    }
    match reply {
        Err(mpsc::RecvTimeoutError::Timeout) => Err(QuarantineReason::DeadlineExceeded {
            budget_ms: deadline_ms.unwrap_or(0),
        }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(QuarantineReason::Panicked(
            "cell worker vanished".to_string(),
        )),
        Ok(payload) => settle(payload),
    }
}

/// The resilient suite supervisor. See the module docs for the contract.
///
/// # Examples
///
/// ```
/// use chopin_core::sweep::SweepConfig;
/// use chopin_faults::SupervisorPolicy;
/// use chopin_harness::supervisor::SuiteSupervisor;
/// use chopin_workloads::suite;
///
/// let profiles = vec![suite::by_name("fop").expect("in the suite")];
/// let mut config = SweepConfig::quick();
/// config.heap_factors = vec![2.0];
/// let report = SuiteSupervisor::new(SupervisorPolicy::default())
///     .run(&profiles, &config)
///     .expect("policy and journal are fine");
/// assert!(report.is_clean());
/// assert_eq!(report.results.len(), 1);
/// assert!(!report.results[0].samples.is_empty());
/// ```
pub struct SuiteSupervisor {
    policy: SupervisorPolicy,
    runner: Arc<dyn CellRunner>,
    faults: Option<FaultPlan>,
    isolation: IsolationMode,
    hard_faults: Option<HardFaultPlan>,
    fleet: Option<FleetConfig>,
    crash_reports_path: Option<PathBuf>,
    journal_path: Option<PathBuf>,
    resume: bool,
    clock: Arc<dyn SupervisorClock>,
}

impl SuiteSupervisor {
    /// A supervisor running real benchmark cells under `policy`, thread
    /// isolation and the real clock.
    pub fn new(policy: SupervisorPolicy) -> SuiteSupervisor {
        SuiteSupervisor {
            policy,
            runner: Arc::new(SweepCellRunner::new()),
            faults: None,
            isolation: IsolationMode::Thread,
            hard_faults: None,
            fleet: None,
            crash_reports_path: None,
            journal_path: None,
            resume: false,
            clock: Arc::new(RealClock::default()),
        }
    }

    /// Inject a deterministic fault plan into every cell (`--faults`).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> SuiteSupervisor {
        self.faults = (!plan.is_empty()).then(|| plan.clone());
        self.runner = Arc::new(SweepCellRunner::with_faults(plan));
        self
    }

    /// Substitute the cell runner (chaos tests). Only thread isolation
    /// runs it: sandboxed workers run the sweep's own runner.
    #[must_use]
    pub fn with_runner(mut self, runner: Arc<dyn CellRunner>) -> SuiteSupervisor {
        self.runner = runner;
        self
    }

    /// Select the isolation backend (`--isolation {thread,process}`).
    #[must_use]
    pub fn with_isolation(mut self, isolation: IsolationMode) -> SuiteSupervisor {
        self.isolation = isolation;
        self
    }

    /// Inject hard faults — worker-process deaths — into deterministically
    /// chosen victim cells (`--hard-faults`). Requires process isolation;
    /// [`SuiteSupervisor::run`] rejects the combination with threads
    /// (rule R903).
    #[must_use]
    pub fn with_hard_faults(mut self, plan: Option<HardFaultPlan>) -> SuiteSupervisor {
        self.hard_faults = plan;
        self
    }

    /// Shard the sweep across `--fleet N` worker processes via the
    /// fleet coordinator ([`crate::fleet`]). `None` turns fleet mode
    /// off. Incompatible with per-cell hard faults (rule R1203);
    /// worker-level deaths come from [`FleetConfig`]'s storm instead.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Option<FleetConfig>) -> SuiteSupervisor {
        self.fleet = fleet;
        self
    }

    /// Write one JSONL crash report per hard child failure to `path`
    /// (`--crash-reports`).
    #[must_use]
    pub fn with_crash_reports(mut self, path: impl Into<PathBuf>) -> SuiteSupervisor {
        self.crash_reports_path = Some(path.into());
        self
    }

    /// Substitute the supervisor clock (virtual-clock tests).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn SupervisorClock>) -> SuiteSupervisor {
        self.clock = clock;
        self
    }

    /// Journal completed cells to `path` (`--journal`).
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> SuiteSupervisor {
        self.journal_path = Some(path.into());
        self
    }

    /// Resume from the journal if it exists (`--resume`): journalled cells
    /// are replayed from disk instead of re-run; quarantined cells were
    /// never journalled as completed, so they are retried.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> SuiteSupervisor {
        self.resume = resume;
        self
    }

    /// The fault plan injected into every cell, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }
}

impl SuiteSupervisor {
    /// The process backend when cells run in sandboxed workers, or
    /// `None` under thread isolation.
    fn process_backend(&self) -> Result<Option<ProcessBackend>, SuperviseError> {
        match self.isolation {
            IsolationMode::Thread if self.hard_faults.is_some() => Err(SuperviseError::Isolation(
                "hard-fault injection requires --isolation process: under thread \
                     isolation the first victim kills the whole sweep (rule R903)"
                    .to_string(),
            )),
            IsolationMode::Thread => Ok(None),
            IsolationMode::Process => {
                let exe = std::env::current_exe().map_err(|e| {
                    SuperviseError::Isolation(format!(
                        "process isolation cannot resolve the worker executable: {e}"
                    ))
                })?;
                Ok(Some(ProcessBackend::new(
                    exe,
                    self.policy.cell_deadline_ms,
                    self.faults.clone(),
                    self.hard_faults,
                )))
            }
        }
    }

    fn fingerprint(
        &self,
        profiles: &[WorkloadProfile],
        config: &SweepConfig,
        process: Option<&ProcessBackend>,
    ) -> u64 {
        // The canonical recipe lives in chopin-analyzer so the static
        // pre-flight pass predicts the exact same value. The isolation
        // mode is deliberately not part of it: thread- and process-mode
        // runs of the same experiment produce identical journals, so a
        // sweep may be resumed across backends.
        let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        let runner = process.map_or_else(|| self.runner.fingerprint(), ProcessBackend::fingerprint);
        chopin_analyzer::sweep_fingerprint(&names, config, &runner)
    }

    /// Run the supervised suite: every cell of `profiles` × the sweep
    /// grid, in parallel, with retries, deadlines and quarantine.
    ///
    /// # Errors
    ///
    /// Only setup can fail ([`SuperviseError`]): an invalid policy, a
    /// journal that cannot be opened, a resume fingerprint mismatch, or
    /// an unusable isolation configuration. Cell failures never abort
    /// the suite.
    pub fn run(
        &self,
        profiles: &[WorkloadProfile],
        config: &SweepConfig,
    ) -> Result<SuiteReport, SuperviseError> {
        self.policy.validate().map_err(SuperviseError::Policy)?;
        if self.fleet.is_some() && self.hard_faults.is_some() {
            return Err(SuperviseError::Isolation(
                "per-cell hard faults cannot run inside a fleet: a fleet worker carries no \
                 per-cell sandbox backstop; use --fleet-storm for worker-level deaths \
                 (rule R1203)"
                    .to_string(),
            ));
        }
        let process = self.process_backend()?;
        let fingerprint = self.fingerprint(profiles, config, process.as_ref());

        let standby = self.fleet.as_ref().is_some_and(|f| f.standby_of.is_some());
        let mut journal = match &self.journal_path {
            // A standby coordinator must not open (and truncate) the base
            // journal the primary is writing; it reloads it at takeover.
            Some(path) if !standby => Some(open_journal(path, fingerprint, self.resume)?),
            _ => None,
        };

        // The schedule: cells in deterministic (profile, collector,
        // factor) order. Results are assembled in this order regardless of
        // completion order, so parallel supervision stays reproducible.
        let mut cells: Vec<(usize, Cell)> = Vec::new();
        for (pi, profile) in profiles.iter().enumerate() {
            for &collector in &config.collectors {
                for &factor in &config.heap_factors {
                    cells.push((
                        pi,
                        Cell {
                            benchmark: profile.name.to_string(),
                            collector,
                            heap_factor: factor,
                        },
                    ));
                }
            }
        }

        let seeds = cells.iter().map(|(_, cell)| cell_seed(cell)).collect();
        // In-process modes never expire or steal a lease, so only the
        // fleet's deadline is ever consulted.
        let deadline_ms = self
            .fleet
            .as_ref()
            .map_or(DEFAULT_LEASE_DEADLINE_MS, |f| f.plan.deadline_ms());
        let mut table = CellTable::new(seeds, self.policy, deadline_ms);
        // Worker shards are read only when resuming; a standby reloads the
        // primary's journals itself, at takeover.
        let shard_base = self
            .journal_path
            .as_deref()
            .filter(|_| self.resume && !standby);
        let absorbed = absorb_recovered(&mut table, &cells, &mut journal, shard_base, fingerprint);
        let metrics = absorbed.metrics(cells.len());

        let drained = match &self.fleet {
            Some(fleet) => crate::fleet::coordinate(crate::fleet::FleetRun {
                config: fleet.clone(),
                policy: self.policy,
                faults: self.faults.clone(),
                sweep: config,
                cells: &cells,
                table,
                journal,
                journal_path: self.journal_path.clone(),
                fingerprint,
                metrics,
            })?,
            None => {
                let (table, journal, tallies) =
                    self.drain_locally(process.as_ref(), profiles, config, &cells, table, journal);
                let mut metrics = metrics;
                let crash_reports = SandboxTally::fold(tallies, &mut metrics);
                Drained {
                    table,
                    journal,
                    metrics,
                    crash_reports,
                }
            }
        };
        Ok(assemble_report(
            profiles,
            &cells,
            self.policy,
            drained,
            self.crash_reports_path.as_deref(),
        ))
    }

    /// Drain the table in this process: `min(nproc, cells)` scheduler
    /// threads each loop grant → attempt → complete or fail, journalling
    /// every completion as it lands. An attempt runs on the thread's
    /// attempt thread ([`run_attempt`]), or, given a process backend, on
    /// the thread's own sandboxed worker. Retries wait out the table's
    /// backoff on the supervisor clock. Each thread stops once no cell is
    /// pending: a failed cell is requeued by the thread that failed it,
    /// which keeps asking. Returns every thread's sandbox tally.
    fn drain_locally(
        &self,
        process: Option<&ProcessBackend>,
        profiles: &[WorkloadProfile],
        config: &SweepConfig,
        cells: &[(usize, Cell)],
        table: CellTable,
        journal: Option<Journal>,
    ) -> (CellTable, Option<Journal>, Vec<SandboxTally>) {
        let work = Arc::new(AttemptWork {
            runner: Arc::clone(&self.runner),
            profiles: profiles.to_vec(),
            cells: cells.to_vec(),
            config: config.clone(),
        });
        let table = Mutex::new(table);
        let journal = Mutex::new(journal);
        let serve = |worker: u64| {
            let mut executor = match process {
                Some(backend) => Executor::Process(Box::new(backend.worker())),
                None => Executor::Thread(None),
            };
            loop {
                let grant = {
                    let mut table = lock(&table);
                    if !table.has_pending() {
                        break;
                    }
                    table.grant(worker, self.clock.now_ms())
                };
                let lease = match grant {
                    Grant::Lease(lease) => lease,
                    Grant::Wait(ms) => {
                        self.clock.sleep(Duration::from_millis(ms));
                        continue;
                    }
                    Grant::Drain => break,
                };
                let attempt = match &mut executor {
                    Executor::Thread(attempts) => run_attempt(
                        &work,
                        attempts,
                        lease.cell,
                        self.policy.cell_deadline_ms,
                        self.clock.as_ref(),
                    ),
                    Executor::Process(sandboxed) => {
                        let (pi, cell) = &cells[lease.cell];
                        settle(catch_unwind(AssertUnwindSafe(|| {
                            sandboxed.run_cell(&profiles[*pi], cell, config)
                        })))
                    }
                };
                match attempt {
                    Ok(outcome) => {
                        if let Some(j) = lock(&journal).as_mut() {
                            // A journal write failure must not lose the
                            // computed outcome; the suite continues and
                            // only resume fidelity degrades.
                            let _ = j.record(JournalEntry {
                                key: cells[lease.cell].1.clone(),
                                record: outcome.clone(),
                                provenance: None,
                            });
                        }
                        lock(&table).complete(lease.lease, outcome);
                    }
                    Err(reason) => {
                        let now = self.clock.now_ms();
                        lock(&table).fail(lease.lease, &codec::encode(&reason), now);
                    }
                }
            }
            match executor {
                Executor::Process(sandboxed) => Some(sandboxed.close()),
                Executor::Thread(_) => None,
            }
        };
        // A complete resume leaves nothing pending: start no threads.
        let workers = if lock(&table).has_pending() {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(cells.len().max(1))
        } else {
            0
        };
        let tallies = std::thread::scope(|scope| {
            let serve = &serve;
            let threads: Vec<_> = (0..workers as u64)
                .map(|worker| scope.spawn(move || serve(worker)))
                .collect();
            let joined = threads.into_iter().map(|thread| thread.join());
            joined.filter_map(|tally| tally.ok().flatten()).collect()
        });
        (
            table.into_inner().unwrap_or_else(PoisonError::into_inner),
            journal.into_inner().unwrap_or_else(PoisonError::into_inner),
            tallies,
        )
    }
}

/// Open the base journal at `path`: with `resume`, reload an existing one
/// (refusing a different configuration's fingerprint, and dropping stale
/// quarantine records from memory and file — this run re-attempts those
/// cells and records its own verdicts); otherwise, or when there is none
/// yet, start it fresh. A reloaded journal is rewritten only to drop
/// quarantine lines, and its first append truncates any torn last line
/// a crash left, so resuming a complete journal without quarantine
/// lines writes nothing.
pub(crate) fn open_journal(
    path: &Path,
    fingerprint: u64,
    resume: bool,
) -> Result<Journal, SuperviseError> {
    if !(resume && path.exists()) {
        return Ok(Journal::create(path, fingerprint)?);
    }
    let mut loaded = Journal::load(path)?;
    if loaded.fingerprint() != fingerprint {
        return Err(SuperviseError::JournalMismatch {
            expected: fingerprint,
            found: loaded.fingerprint(),
        });
    }
    loaded.clear_quarantines()?;
    Ok(loaded)
}

/// What an executor hands back once the table has drained: the
/// resolved table, the base journal, and the run's counters and crash
/// reports so far.
pub(crate) struct Drained {
    pub(crate) table: CellTable,
    pub(crate) journal: Option<Journal>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) crash_reports: Vec<CrashReport>,
}

/// A cell's identity as an ordered map key (heap factor bitwise, as
/// [`Cell::matches`] compares it).
type CellIdent<'a> = (&'a str, CollectorKind, u64);

fn ident(key: &Cell) -> CellIdent<'_> {
    (&key.benchmark, key.collector, key.heap_factor.to_bits())
}

/// Schedule index of every cell by identity.
fn schedule_index(cells: &[(usize, Cell)]) -> BTreeMap<CellIdent<'_>, usize> {
    let mut index = BTreeMap::new();
    for (idx, (_, cell)) in cells.iter().enumerate() {
        index.insert(
            (
                cell.benchmark.as_str(),
                cell.collector,
                cell.heap_factor.to_bits(),
            ),
            idx,
        );
    }
    index
}

/// What [`absorb_recovered`] found on disk.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct AbsorbStats {
    /// Cells pre-resolved from recovered journal entries.
    pub(crate) recovered: usize,
    /// Duplicate completions folded away by the merge tiebreak.
    pub(crate) conflicts: u64,
    /// Sibling shards rejected for carrying a foreign fingerprint.
    pub(crate) foreign_shards: u64,
}

impl AbsorbStats {
    /// A run's opening counters: its cell count and what resume recovered.
    pub(crate) fn metrics(&self, cells: usize) -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        metrics.inc("supervisor.cells", cells as u64);
        metrics.inc("supervisor.cells.resumed", self.recovered as u64);
        metrics.inc(fleet_metrics::CELLS_RECOVERED, self.recovered as u64);
        metrics.inc(fleet_metrics::MERGE_CONFLICTS, self.conflicts);
        metrics.inc(fleet_metrics::SHARDS_REJECTED, self.foreign_shards);
        metrics
    }
}

/// The journal rows of `entries` that name a cell of the schedule, as
/// merge candidates carrying `payload` of each row's outcome (rows
/// without provenance are attempt 1 of worker 0).
fn candidates<'a, P>(
    index: &'a BTreeMap<CellIdent<'a>, usize>,
    entries: &'a [JournalEntry],
    payload: impl Fn(&'a CellOutcome) -> P + 'a,
) -> impl Iterator<Item = Candidate<P>> + 'a {
    entries.iter().filter_map(move |entry| {
        let &cell = index.get(&ident(&entry.key))?;
        let (attempt, worker) = entry.provenance.map_or((1, 0), |p| (p.attempt, p.worker));
        let payload = payload(&entry.record);
        Some(Candidate {
            cell,
            attempt,
            worker,
            payload,
        })
    })
}

/// The base-journal row recording a merged winner.
fn winner_entry(key: &Cell, attempt: u32, worker: u64, record: CellOutcome) -> JournalEntry {
    let provenance = Some(CellProvenance { attempt, worker });
    JournalEntry {
        key: key.clone(),
        record,
        provenance,
    }
}

/// Absorb every recovered completion — from the base journal and, given
/// `shard_base`, every fingerprint-matching sibling worker journal — into
/// the lease table, merged by [`recover`] with the deterministic
/// `(attempt, worker)` tiebreak (equal provenance falls through to the
/// outcomes' rendered bytes, exactly as in the live merge). Winners
/// missing from the base journal are persisted into it *now*, before any
/// worker spawns: fleet workers truncate their own `.w<id>` files on
/// startup, so a second coordinator crash must not be able to lose cells
/// recovered from the first.
///
/// Sibling shards whose fingerprint does not match the sweep are
/// **rejected, loudly**: they are counted, named on stderr and surfaced
/// as `fleet.shards.rejected` — a stale shard silently vanishing would
/// be indistinguishable from data loss.
pub(crate) fn absorb_recovered(
    table: &mut CellTable,
    cells: &[(usize, Cell)],
    journal: &mut Option<Journal>,
    shard_base: Option<&Path>,
    fingerprint: u64,
) -> AbsorbStats {
    let mut stats = AbsorbStats::default();
    let mut shards = Vec::new();
    for worker_path in shard_base.map(sibling_worker_journals).unwrap_or_default() {
        let Ok(worker_journal) = Journal::load(&worker_path) else {
            continue;
        };
        if worker_journal.fingerprint() != fingerprint {
            stats.foreign_shards += 1;
            eprintln!(
                "fleet: rejecting worker journal {} (fingerprint {:016x}, sweep is {:016x})",
                worker_path.display(),
                worker_journal.fingerprint(),
                fingerprint,
            );
            continue;
        }
        shards.push(worker_journal);
    }
    let index = schedule_index(cells);
    let base = journal.as_ref().map_or(&[][..], Journal::entries);
    let shard_rows = shards
        .iter()
        .flat_map(|j| candidates(&index, j.entries(), CellOutcome::clone));
    let (recovered, conflicts) = recover(candidates(&index, base, CellOutcome::clone), shard_rows);
    stats.conflicts = conflicts;
    for r in recovered {
        let w = r.winner;
        if let Some(j) = journal.as_mut().filter(|_| !r.in_base) {
            let key = &cells[w.cell].1;
            let _ = j.record(winner_entry(key, w.attempt, w.worker, w.payload.clone()));
        }
        table.absorb(w.cell, w.attempt, w.worker, w.payload);
        stats.recovered += 1;
    }
    stats
}

/// Assemble the report from a drained table, in schedule order — the
/// one assembly every isolation mode (and the fleet standby) shares.
/// Completed winners the base journal lacks are appended to it, and
/// quarantine verdicts are recorded with their decoded taxonomy.
pub(crate) fn assemble_report(
    profiles: &[WorkloadProfile],
    cells: &[(usize, Cell)],
    policy: SupervisorPolicy,
    drained: Drained,
    crash_reports_path: Option<&Path>,
) -> SuiteReport {
    let Drained {
        table,
        mut journal,
        mut metrics,
        crash_reports,
    } = drained;
    metrics.inc("supervisor.retries", table.metrics().requeued);
    if let Some(j) = journal.as_mut() {
        // Seal the base journal with the completed winners it lacks. Its
        // own rows enter the merge without payloads: presence is all
        // that decides here, and it spares the tiebreak from rendering
        // outcomes.
        let index = schedule_index(cells);
        let base = candidates(&index, j.entries(), |_| None);
        let live = (0..cells.len()).filter_map(|cell| {
            let (attempt, worker, outcome) = table.cell_winner(cell)?;
            let payload = Some(outcome);
            Some(Candidate {
                cell,
                attempt,
                worker,
                payload,
            })
        });
        let missing: Vec<JournalEntry> = (recover(base, live).0.into_iter())
            .filter(|r| !r.in_base)
            .filter_map(|r| {
                let w = r.winner;
                let key = &cells[w.cell].1;
                Some(winner_entry(key, w.attempt, w.worker, w.payload?.clone()))
            })
            .collect();
        for entry in missing {
            let _ = j.record(entry);
        }
    }
    let mut results: Vec<SweepResult> = profiles
        .iter()
        .map(|p| SweepResult {
            benchmark: p.name.to_string(),
            samples: Vec::new(),
            failures: Vec::new(),
        })
        .collect();
    let mut quarantined = Vec::new();
    let resolutions = table.into_resolutions().into_iter().zip(cells);
    for (resolution, (pi, cell)) in resolutions {
        match resolution {
            CellResolution::Completed {
                payload: outcome, ..
            } => {
                metrics.inc("supervisor.cells.completed", 1);
                if outcome.infeasible.is_some() {
                    metrics.inc("supervisor.cells.infeasible", 1);
                }
                results[*pi].samples.extend(outcome.samples);
                if let Some(reason) = outcome.infeasible {
                    results[*pi].failures.push(SweepFailure {
                        collector: cell.collector,
                        heap_factor: cell.heap_factor,
                        reason,
                    });
                }
            }
            CellResolution::Quarantined { reason } => {
                metrics.inc("supervisor.cells.quarantined", 1);
                let entry = QuarantineEntry {
                    cell: cell.clone(),
                    attempts: 1 + policy.max_retries,
                    reason: decode_reason(&reason),
                };
                if let Some(j) = journal.as_mut() {
                    let _ = j.record_quarantine(QuarantineRecord {
                        key: cell.clone(),
                        attempts: entry.attempts,
                        reason: entry.reason.clone(),
                    });
                }
                quarantined.push(entry);
            }
            CellResolution::Unresolved => {
                // Unreachable in practice: executors only return once the
                // table drains, and errors propagate above.
                metrics.inc("supervisor.cells.quarantined", 1);
                quarantined.push(QuarantineEntry {
                    cell: cell.clone(),
                    attempts: 0,
                    reason: QuarantineReason::Errored(
                        "unresolved: the scheduler stopped before this cell".to_string(),
                    ),
                });
            }
        }
    }

    if let Some(path) = crash_reports_path {
        if let Err(e) = write_crash_reports(path, &crash_reports) {
            eprintln!(
                "warning: could not write crash reports to {}: {e}",
                path.display()
            );
        }
    }

    SuiteReport {
        results,
        quarantined,
        crash_reports,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{worker_journal_path, CellKey};
    use chopin_faults::{HardFaultKind, DEFAULT_HARD_SEED};
    use chopin_workloads::suite;
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chopin-supervisor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(wall: f64) -> RunSample {
        RunSample {
            collector: CollectorKind::Shenandoah,
            heap_factor: 2.0,
            wall_s: wall,
            task_s: wall * 7.0,
            wall_distillable_s: wall * 0.9,
            task_distillable_s: wall * 6.3,
        }
    }

    fn cell(benchmark: &str) -> Cell {
        Cell {
            benchmark: benchmark.to_string(),
            collector: CollectorKind::Shenandoah,
            heap_factor: 2.0,
        }
    }

    fn entry(benchmark: &str, wall: f64, provenance: Option<CellProvenance>) -> JournalEntry {
        JournalEntry {
            key: CellKey {
                benchmark: benchmark.to_string(),
                collector: CollectorKind::Shenandoah,
                heap_factor: 2.0,
            },
            record: CellOutcome {
                samples: vec![sample(wall)],
                infeasible: None,
            },
            provenance,
        }
    }

    /// The steal-race edge case, hand-crafted: the same cell completed
    /// twice — once by the original leaseholder on attempt 2, once by a
    /// thief on attempt 1 (the steal reuses the outstanding attempt
    /// number; a *re-lease after expiry* bumps it). The merge must pick
    /// the lower attempt, and between equal attempts the lower worker
    /// id, regardless of which journal is read first.
    #[test]
    fn steal_race_merge_is_deterministic_and_persists_the_winner() {
        let fingerprint = 0xdead_beef;
        let base_path = scratch("steal.journal");
        let _ = std::fs::remove_file(&base_path);
        // Worker 3 (the thief, attempt 1) and worker 1 (the straggler,
        // re-leased attempt 2) both journalled the cell; worker 5 also
        // duplicates attempt 1 to exercise the worker-id tiebreak.
        for (worker, attempt, wall) in [(3u64, 1u32, 0.25), (1, 2, 0.5), (5, 1, 0.75)] {
            let mut j =
                Journal::create(&worker_journal_path(&base_path, worker), fingerprint).unwrap();
            j.record(entry("fop", wall, Some(CellProvenance { attempt, worker })))
                .unwrap();
        }
        // A sibling journal from a *different* configuration must not
        // contribute candidates — but it must be *counted* as rejected,
        // never silently dropped.
        let mut stale = Journal::create(&worker_journal_path(&base_path, 9), 0x0bad).unwrap();
        stale
            .record(entry(
                "fop",
                9.0,
                Some(CellProvenance {
                    attempt: 1,
                    worker: 9,
                }),
            ))
            .unwrap();

        let cells = vec![(0usize, cell("fop"))];
        let seeds: Vec<u64> = cells.iter().map(|(_, c)| cell_seed(c)).collect();
        let mut table = CellTable::new(seeds, SupervisorPolicy::default(), 1_000);
        let mut journal = Some(Journal::create(&base_path, fingerprint).unwrap());
        let absorbed = absorb_recovered(
            &mut table,
            &cells,
            &mut journal,
            Some(&base_path),
            fingerprint,
        );
        assert_eq!(absorbed.recovered, 1);
        assert_eq!(absorbed.conflicts, 2);
        assert_eq!(
            absorbed.foreign_shards, 1,
            "the stale shard is rejected, visibly"
        );
        assert!(table.is_done());

        // Winner: attempt 1, worker 3 (lower attempt beats lower
        // worker; then worker 3 beats worker 5).
        match table.into_resolutions().pop().unwrap() {
            CellResolution::Completed {
                attempt,
                worker,
                payload,
            } => {
                assert_eq!((attempt, worker), (1, 3));
                assert_eq!(payload.samples[0].wall_s, 0.25);
            }
            other => panic!("expected a completion, got {other:?}"),
        }

        // And the winner was persisted into the base journal at absorb
        // time, so a second coordinator crash cannot lose it.
        let reloaded = Journal::load(&base_path).unwrap();
        let record = reloaded.lookup(&cell("fop")).unwrap();
        assert_eq!(record.samples[0].wall_s, 0.25);
        assert_eq!(
            reloaded.entries()[0].provenance,
            Some(CellProvenance {
                attempt: 1,
                worker: 3
            })
        );
    }

    /// A shard line claiming attempt -1 must not win the merge: the
    /// checked decoder rejects that shard, so the real attempt does.
    #[test]
    fn a_negative_attempt_shard_cannot_win_the_merge() {
        let fingerprint = 0xfeed_0001;
        let base_path = scratch("negattempt.journal");
        let _ = std::fs::remove_file(&base_path);
        for (worker, wall) in [(3u64, 0.5), (5, 0.25)] {
            let mut shard =
                Journal::create(&worker_journal_path(&base_path, worker), fingerprint).unwrap();
            let prov = CellProvenance { attempt: 1, worker };
            shard.record(entry("fop", wall, Some(prov))).unwrap();
        }
        let forged = worker_journal_path(&base_path, 5);
        let text = std::fs::read_to_string(&forged).unwrap();
        std::fs::write(&forged, text.replace("\"attempt\":1,", "\"attempt\":-1,")).unwrap();

        let cells = vec![(0usize, cell("fop"))];
        let seeds: Vec<u64> = cells.iter().map(|(_, c)| cell_seed(c)).collect();
        let mut table = CellTable::new(seeds, SupervisorPolicy::default(), 1_000);
        let mut journal = Some(Journal::create(&base_path, fingerprint).unwrap());
        let absorbed = absorb_recovered(
            &mut table,
            &cells,
            &mut journal,
            Some(&base_path),
            fingerprint,
        );
        assert_eq!(absorbed.recovered, 1);
        match table.into_resolutions().pop().unwrap() {
            CellResolution::Completed {
                attempt,
                worker,
                payload,
            } => {
                assert_eq!((attempt, worker), (1, 3));
                assert_eq!(payload.samples[0].wall_s, 0.5);
            }
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    /// Equal `(attempt, worker)` candidates from *different* journals:
    /// the base journal already holds a winner persisted by an earlier
    /// resume while the worker's own shard (not yet truncated) carries
    /// the same completion — possibly with a different byte rendering
    /// if the shard tail was torn. The payload tiebreak must pick one
    /// deterministically instead of trusting arrival order.
    #[test]
    fn equal_provenance_shard_conflicts_tiebreak_on_payload_bytes() {
        let fingerprint = 0xfeed_f00d;
        let base_path = scratch("equalprov.journal");
        let _ = std::fs::remove_file(&base_path);
        let prov = CellProvenance {
            attempt: 1,
            worker: 3,
        };
        let mut base = Journal::create(&base_path, fingerprint).unwrap();
        base.record(entry("fop", 0.5, Some(prov))).unwrap();
        drop(base);
        let mut shard = Journal::create(&worker_journal_path(&base_path, 3), fingerprint).unwrap();
        shard.record(entry("fop", 0.25, Some(prov))).unwrap();
        drop(shard);

        let cells = vec![(0usize, cell("fop"))];
        let seeds: Vec<u64> = cells.iter().map(|(_, c)| cell_seed(c)).collect();
        let mut table = CellTable::new(seeds, SupervisorPolicy::default(), 1_000);
        let mut journal = Some(Journal::load(&base_path).unwrap());
        let absorbed = absorb_recovered(
            &mut table,
            &cells,
            &mut journal,
            Some(&base_path),
            fingerprint,
        );
        assert_eq!(absorbed.recovered, 1);
        assert_eq!(absorbed.conflicts, 1);
        assert_eq!(absorbed.foreign_shards, 0);
        match table.into_resolutions().pop().unwrap() {
            CellResolution::Completed {
                attempt,
                worker,
                payload,
            } => {
                assert_eq!((attempt, worker), (1, 3));
                // The winner is the byte-wise minimum of the two
                // renderings — a pure function of the candidate set.
                let rendered = |wall: f64| codec::encode(&entry("fop", wall, Some(prov)).record);
                let expected = rendered(0.5).min(rendered(0.25));
                assert_eq!(codec::encode(&payload), expected);
            }
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    fn one_cell_config() -> SweepConfig {
        SweepConfig {
            collectors: vec![CollectorKind::G1],
            heap_factors: vec![2.0],
            invocations: 1,
            iterations: 1,
            size: chopin_workloads::SizeClass::Default,
        }
    }

    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            cell_deadline_ms: Some(30_000),
            max_retries: 2,
            backoff_base_ms: 1,
            backoff_max_ms: 4,
        }
    }

    /// The virtual clock (no real sleeping): backoff durations are
    /// recorded for exact assertions, time advances only by them, and
    /// `expire_deadlines` makes a bounded wait time out as soon as its
    /// attempt parks in [`VirtualClock::park`], so deadline tests take no
    /// wall time. Expiry pairs each park with one wait, so those tests
    /// run one cell.
    struct VirtualClock {
        sleeps: Mutex<Vec<u64>>,
        expire_deadlines: bool,
        parked: AtomicU32,
        expired: AtomicU32,
    }

    impl VirtualClock {
        fn new(expire_deadlines: bool) -> Arc<VirtualClock> {
            Arc::new(VirtualClock {
                sleeps: Mutex::new(Vec::new()),
                expire_deadlines,
                parked: AtomicU32::new(0),
                expired: AtomicU32::new(0),
            })
        }

        /// Hang the calling attempt for good.
        fn park(&self) -> ! {
            self.parked.fetch_add(1, AtomicOrdering::SeqCst);
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    impl SupervisorClock for VirtualClock {
        fn now_ms(&self) -> u64 {
            lock(&self.sleeps).iter().sum()
        }

        fn sleep(&self, duration: Duration) {
            lock(&self.sleeps).push(duration.as_millis() as u64);
        }

        fn recv(
            &self,
            rx: &mpsc::Receiver<AttemptPayload>,
            budget: Option<Duration>,
        ) -> Result<AttemptPayload, mpsc::RecvTimeoutError> {
            if self.expire_deadlines && budget.is_some() {
                let mut waited_ms = 0u32;
                loop {
                    match rx.try_recv() {
                        Ok(payload) => return Ok(payload),
                        Err(mpsc::TryRecvError::Disconnected) => {
                            return Err(mpsc::RecvTimeoutError::Disconnected)
                        }
                        Err(mpsc::TryRecvError::Empty) => {}
                    }
                    if self.parked.load(AtomicOrdering::SeqCst)
                        > self.expired.load(AtomicOrdering::SeqCst)
                    {
                        self.expired.fetch_add(1, AtomicOrdering::SeqCst);
                        return Err(mpsc::RecvTimeoutError::Timeout);
                    }
                    waited_ms += 1;
                    assert!(
                        waited_ms < 30_000,
                        "an attempt neither answered nor parked within 30 s"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            match budget {
                Some(budget) => rx.recv_timeout(budget),
                None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            }
        }
    }

    /// A runner that fails (panic or error) a set number of times per cell
    /// before succeeding with a canned sample.
    struct FlakyRunner {
        failures_before_success: u32,
        panic_instead: bool,
        calls: AtomicU32,
    }

    impl CellRunner for FlakyRunner {
        fn run_cell(
            &self,
            _profile: &WorkloadProfile,
            cell: &Cell,
            _config: &SweepConfig,
        ) -> Result<CellOutcome, CellFailure> {
            let n = self.calls.fetch_add(1, AtomicOrdering::Relaxed);
            if n < self.failures_before_success {
                if self.panic_instead {
                    panic!("injected chaos panic #{n}");
                }
                return Err(format!("injected transient error #{n}").into());
            }
            Ok(canned(cell))
        }
    }

    /// The one-sample outcome the test runners complete a cell with.
    fn canned(cell: &Cell) -> CellOutcome {
        CellOutcome {
            samples: vec![RunSample {
                collector: cell.collector,
                heap_factor: cell.heap_factor,
                wall_s: 1.0,
                task_s: 2.0,
                wall_distillable_s: 0.9,
                task_distillable_s: 1.8,
            }],
            infeasible: None,
        }
    }

    /// A runner whose first `hangs` calls hang forever (parked on the
    /// virtual clock) and whose later calls succeed.
    struct HangingRunner {
        clock: Arc<VirtualClock>,
        hangs: u32,
        calls: AtomicU32,
    }

    impl CellRunner for HangingRunner {
        fn run_cell(
            &self,
            _profile: &WorkloadProfile,
            cell: &Cell,
            _config: &SweepConfig,
        ) -> Result<CellOutcome, CellFailure> {
            if self.calls.fetch_add(1, AtomicOrdering::SeqCst) < self.hangs {
                self.clock.park();
            }
            Ok(canned(cell))
        }
    }

    /// A runner whose cells always die a classified hard death.
    struct CrashingRunner(QuarantineReason);

    impl CellRunner for CrashingRunner {
        fn run_cell(
            &self,
            _profile: &WorkloadProfile,
            _cell: &Cell,
            _config: &SweepConfig,
        ) -> Result<CellOutcome, CellFailure> {
            Err(CellFailure::Crash(self.0.clone()))
        }
    }

    #[test]
    fn transient_errors_are_retried_to_success_with_jittered_backoff() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let clock = VirtualClock::new(false);
        let policy = fast_policy();
        let report = SuiteSupervisor::new(policy)
            .with_runner(Arc::new(FlakyRunner {
                failures_before_success: 2,
                panic_instead: false,
                calls: AtomicU32::new(0),
            }))
            .with_clock(clock.clone())
            .run(&profiles, &one_cell_config())
            .unwrap();
        assert!(report.is_clean(), "{}", report.quarantine_summary());
        assert_eq!(report.results[0].samples.len(), 1);
        assert_eq!(report.metrics.counter("supervisor.retries"), 2);
        assert_eq!(report.metrics.counter("supervisor.cells.completed"), 1);

        // The backoff schedule is the deterministic full-jitter sequence
        // for this cell's seed — asserted exactly, no timing involved. A
        // zero backoff is no wait at all, so it records no sleep.
        let cell = Cell {
            benchmark: "fop".to_string(),
            collector: CollectorKind::G1,
            heap_factor: 2.0,
        };
        let seed = cell_seed(&cell);
        let expected: Vec<u64> = (0..2)
            .map(|a| policy.backoff_jitter_ms(a, seed))
            .filter(|&ms| ms > 0)
            .collect();
        assert_eq!(*lock(&clock.sleeps), expected);
        for (attempt, &slept) in lock(&clock.sleeps).iter().enumerate() {
            assert!(
                slept <= policy.backoff_ms(attempt as u32),
                "jitter stays under the deterministic ceiling"
            );
        }
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let report = SuiteSupervisor::new(fast_policy())
            .with_runner(Arc::new(FlakyRunner {
                failures_before_success: 1,
                panic_instead: true,
                calls: AtomicU32::new(0),
            }))
            .with_clock(VirtualClock::new(false))
            .run(&profiles, &one_cell_config())
            .unwrap();
        assert!(report.is_clean());
        assert_eq!(report.metrics.counter("supervisor.retries"), 1);
    }

    #[test]
    fn persistent_panics_end_in_quarantine_not_abort() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let report = SuiteSupervisor::new(fast_policy())
            .with_runner(Arc::new(FlakyRunner {
                failures_before_success: u32::MAX,
                panic_instead: true,
                calls: AtomicU32::new(0),
            }))
            .with_clock(VirtualClock::new(false))
            .run(&profiles, &one_cell_config())
            .unwrap();
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.attempts, 3, "one try plus two retries");
        assert!(
            matches!(&q.reason, QuarantineReason::Panicked(m) if m.contains("injected chaos")),
            "{:?}",
            q.reason
        );
        assert!(report.quarantine_summary().contains("fop"));
        assert_eq!(report.metrics.counter("supervisor.cells.quarantined"), 1);
    }

    #[test]
    fn hung_cells_hit_the_deadline_and_quarantine() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let policy = SupervisorPolicy {
            cell_deadline_ms: Some(30),
            max_retries: 1,
            backoff_base_ms: 1,
            backoff_max_ms: 2,
        };
        // expire_deadlines: a hung attempt's wait times out at once, so
        // this test asserts deadline *classification* with zero wall
        // time spent waiting on the hung attempts.
        let clock = VirtualClock::new(true);
        let report = SuiteSupervisor::new(policy)
            .with_runner(Arc::new(HangingRunner {
                clock: Arc::clone(&clock),
                hangs: u32::MAX,
                calls: AtomicU32::new(0),
            }))
            .with_clock(clock)
            .run(&profiles, &one_cell_config())
            .unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(matches!(
            report.quarantined[0].reason,
            QuarantineReason::DeadlineExceeded { budget_ms: 30 }
        ));
    }

    #[test]
    fn a_retry_after_a_deadline_gets_a_fresh_attempt_thread() {
        // The first attempt hangs for good and is abandoned at the
        // deadline with its attempt thread; the retry must run on a fresh
        // thread, not queue behind the hung one.
        let profiles = vec![suite::by_name("fop").unwrap()];
        let clock = VirtualClock::new(true);
        let report = SuiteSupervisor::new(fast_policy())
            .with_runner(Arc::new(HangingRunner {
                clock: Arc::clone(&clock),
                hangs: 1,
                calls: AtomicU32::new(0),
            }))
            .with_clock(clock)
            .run(&profiles, &one_cell_config())
            .unwrap();
        assert!(report.is_clean(), "{}", report.quarantine_summary());
        assert_eq!(report.results[0].samples.len(), 1);
        assert_eq!(
            report.metrics.counter("supervisor.retries"),
            1,
            "the cell completes on attempt 2"
        );
    }

    /// A runner that records the thread each attempt runs on.
    #[derive(Default)]
    struct ThreadRecorder(Mutex<Vec<std::thread::ThreadId>>);

    impl CellRunner for ThreadRecorder {
        fn run_cell(
            &self,
            _profile: &WorkloadProfile,
            cell: &Cell,
            _config: &SweepConfig,
        ) -> Result<CellOutcome, CellFailure> {
            let id = std::thread::current().id();
            let mut seen = lock(&self.0);
            if !seen.contains(&id) {
                seen.push(id);
            }
            Ok(canned(cell))
        }
    }

    #[test]
    fn attempt_threads_are_reused_across_cells() {
        let profiles = vec![
            suite::by_name("fop").unwrap(),
            suite::by_name("jython").unwrap(),
        ];
        let config = SweepConfig::quick();
        let cells = profiles.len() * config.cell_count();
        assert!(cells >= 20);
        let recorder = Arc::new(ThreadRecorder::default());
        let report = SuiteSupervisor::new(fast_policy())
            .with_runner(Arc::clone(&recorder) as Arc<dyn CellRunner>)
            .with_clock(VirtualClock::new(false))
            .run(&profiles, &config)
            .unwrap();
        assert!(report.is_clean(), "{}", report.quarantine_summary());
        assert_eq!(
            report.metrics.counter("supervisor.cells.completed"),
            cells as u64
        );
        let schedulers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(cells);
        let threads = lock(&recorder.0).len();
        assert!(
            threads <= schedulers,
            "{cells} attempts ran on {threads} threads; at most one per scheduler \
             thread ({schedulers}) when no deadline expires"
        );
    }

    #[test]
    fn lock_sees_through_poison() {
        let counter = Mutex::new(1);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock(&counter);
            panic!("a cell panics while holding the lock");
        }));
        assert!(poisoned.is_err() && counter.is_poisoned());
        *lock(&counter) += 41;
        assert_eq!(*lock(&counter), 42);
    }

    #[test]
    fn an_empty_suite_is_an_empty_clean_report() {
        let report = SuiteSupervisor::new(SupervisorPolicy::default())
            .run(&[], &one_cell_config())
            .unwrap();
        assert!(report.results.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.metrics.counter("supervisor.cells"), 0);
    }

    #[test]
    fn results_follow_input_order_across_benchmarks() {
        let profiles = vec![
            suite::by_name("jython").unwrap(),
            suite::by_name("fop").unwrap(),
        ];
        let report = SuiteSupervisor::new(SupervisorPolicy::default())
            .run(&profiles, &one_cell_config())
            .unwrap();
        let names: Vec<&str> = report
            .results
            .iter()
            .map(|r| r.benchmark.as_str())
            .collect();
        assert_eq!(names, ["jython", "fop"]);
        assert!(report.results.iter().all(|r| !r.samples.is_empty()));
    }

    #[test]
    fn a_failing_benchmark_is_quarantined_without_discarding_the_others() {
        // fop models no Large input size while jython does: at Large,
        // every fop cell errors and jython's results must survive.
        let fop = suite::by_name("fop").unwrap();
        let jython = suite::by_name("jython").unwrap();
        assert!(fop.to_spec(chopin_workloads::SizeClass::Large).is_none());
        assert!(jython.to_spec(chopin_workloads::SizeClass::Large).is_some());
        let config = SweepConfig {
            size: chopin_workloads::SizeClass::Large,
            ..one_cell_config()
        };
        let report = SuiteSupervisor::new(fast_policy())
            .with_clock(VirtualClock::new(false))
            .run(&[fop, jython], &config)
            .unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].cell.benchmark, "fop");
        assert!(
            matches!(report.quarantined[0].reason, QuarantineReason::Errored(_)),
            "{:?}",
            report.quarantined[0].reason
        );
        assert!(report.results[0].samples.is_empty());
        assert_eq!(report.results[1].benchmark, "jython");
        assert!(!report.results[1].samples.is_empty());
        assert!(report.quarantine_summary().contains("fop"));
    }

    #[test]
    fn crash_failures_carry_their_taxonomy_into_quarantine() {
        // The reason crosses the lease table as an encoded string; every
        // variant of the taxonomy must come back out of it intact.
        let profiles = vec![suite::by_name("fop").unwrap()];
        for reason in [
            QuarantineReason::Panicked("boom \"quoted\"\nline".to_string()),
            QuarantineReason::DeadlineExceeded { budget_ms: 30 },
            QuarantineReason::Errored("flaky disk".to_string()),
            QuarantineReason::Signalled { signal: 9 },
            QuarantineReason::OomKilled,
            QuarantineReason::HeartbeatLost { silent_ms: 1_500 },
        ] {
            let report = SuiteSupervisor::new(fast_policy())
                .with_runner(Arc::new(CrashingRunner(reason.clone())))
                .with_clock(VirtualClock::new(false))
                .run(&profiles, &one_cell_config())
                .unwrap();
            assert_eq!(report.quarantined.len(), 1);
            let q = &report.quarantined[0];
            assert_eq!(q.attempts, 3, "hard deaths are retried like any failure");
            assert_eq!(q.reason, reason);
            assert!(
                report.quarantine_summary().contains(&reason.to_string()),
                "{}",
                report.quarantine_summary()
            );
        }
    }

    #[test]
    fn quarantine_reasons_render_the_crash_taxonomy() {
        assert_eq!(
            QuarantineReason::Signalled { signal: 9 }.to_string(),
            "killed by signal 9 (SIGKILL)"
        );
        assert_eq!(
            QuarantineReason::Signalled { signal: 11 }.to_string(),
            "killed by signal 11 (SIGSEGV)"
        );
        assert!(QuarantineReason::OomKilled
            .to_string()
            .contains("out-of-memory"));
        assert!(QuarantineReason::HeartbeatLost { silent_ms: 1500 }
            .to_string()
            .contains("1500"));
    }

    #[test]
    fn hard_faults_under_thread_isolation_are_rejected() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let err = SuiteSupervisor::new(fast_policy())
            .with_hard_faults(Some(HardFaultPlan::new(
                HardFaultKind::Kill,
                DEFAULT_HARD_SEED,
            )))
            .run(&profiles, &one_cell_config())
            .unwrap_err();
        assert!(matches!(err, SuperviseError::Isolation(_)), "{err}");
        assert!(err.to_string().contains("R903"), "{err}");
    }

    #[test]
    fn invalid_policy_is_rejected_up_front() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let bad = SupervisorPolicy {
            backoff_base_ms: 0,
            ..SupervisorPolicy::default()
        };
        let err = SuiteSupervisor::new(bad)
            .run(&profiles, &one_cell_config())
            .unwrap_err();
        assert!(matches!(err, SuperviseError::Policy(_)), "{err}");
    }

    #[test]
    fn supervised_suite_matches_the_plain_runner() {
        // With nothing going wrong, supervision is invisible: same samples,
        // same failures, same order as a direct sweep.
        let profiles = vec![suite::by_name("fop").unwrap()];
        let config = SweepConfig {
            collectors: vec![CollectorKind::G1, CollectorKind::Zgc],
            heap_factors: vec![1.0, 2.0],
            invocations: 2,
            iterations: 1,
            size: chopin_workloads::SizeClass::Default,
        };
        let report = SuiteSupervisor::new(SupervisorPolicy::default())
            .run(&profiles, &config)
            .unwrap();
        let direct = chopin_core::sweep::run_sweep(&profiles[0], &config).unwrap();
        assert_eq!(report.results[0].samples, direct.samples);
        assert_eq!(report.results[0].failures, direct.failures);
    }

    #[test]
    fn cli_flags_build_policies_and_plans() {
        use crate::cli::Args;
        let args = Args::parse([
            "--cell-deadline",
            "0",
            "--retries",
            "5",
            "--faults",
            "storm:9",
        ]);
        assert!(supervision_requested(&args));
        let policy = policy_from_args(&args).unwrap();
        assert_eq!(policy.cell_deadline_ms, None, "0 disables the watchdog");
        assert_eq!(policy.max_retries, 5);
        let plan = plan_from_args(&args).unwrap().unwrap();
        assert_eq!(plan.seed, 9);

        assert!(supervision_requested(&Args::parse([
            "--isolation",
            "process"
        ])));
        assert!(supervision_requested(&Args::parse([
            "--hard-faults",
            "kill"
        ])));
        assert!(!supervision_requested(&Args::parse(["-b", "fop"])));
        assert!(plan_from_args(&Args::parse(["-b", "fop"]))
            .unwrap()
            .is_none());
        assert!(plan_from_args(&Args::parse(["--faults", "tsunami"])).is_err());

        // One recipe builds every scheduler run, and a malformed flag is
        // an error, never a silently fault-free run.
        let built = supervisor_from_args(&Args::parse(["--faults", "storm:9"])).unwrap();
        assert_eq!(built.faults().map(|p| p.seed), Some(9));
        assert!(supervisor_from_args(&Args::parse(["--faults", "tsunami"])).is_err());
        assert!(supervisor_from_args(&Args::parse(["--fleet-token", "t"])).is_err());

        for flag in SCHEDULER_FLAGS {
            let args = Args::parse([format!("--{flag}"), "1".to_string()]);
            assert!(supervision_requested(&args), "--{flag}");
        }
    }

    #[test]
    fn infeasible_cells_are_recorded_not_retried() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let config = SweepConfig {
            collectors: vec![CollectorKind::Zgc],
            heap_factors: vec![1.0],
            invocations: 2,
            iterations: 1,
            size: chopin_workloads::SizeClass::Default,
        };
        let report = SuiteSupervisor::new(fast_policy())
            .run(&profiles, &config)
            .unwrap();
        assert!(report.is_clean(), "infeasible is an outcome, not a fault");
        assert_eq!(report.results[0].failures.len(), 1);
        assert_eq!(report.metrics.counter("supervisor.cells.infeasible"), 1);
        assert_eq!(report.metrics.counter("supervisor.retries"), 0);
    }
}
