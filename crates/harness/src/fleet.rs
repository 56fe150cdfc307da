//! The fleet transport: crash-tolerant coordinator/worker sharding of
//! the sweep matrix over TCP, with lease-based reassignment and a
//! deterministic journal merge.
//!
//! `--fleet N` shards the supervised sweep across `N` worker
//! *processes*. The fleet is one executor of the supervisor's single
//! scheduler: the supervisor compiles the cell list, builds the
//! [`LeaseTable`](chopin_fleet::LeaseTable) over typed cell outcomes,
//! absorbs any resumed cells and assembles the report. Every coordinator
//! decision — admission, nonce fencing, standby adoption, the heartbeat
//! reaper, slot respawn and quarantine, the rescue window, the drain —
//! is the sans-IO [`Coordinator`], the same
//! machine `chopin-model` checks. This module is its pump: it keeps the
//! sockets, the reader, acceptor and reaper threads, process spawning,
//! the seeded net-fault shim, the standby's registration loop and the
//! worker loop, turns what happens on them into machine inputs (a tick
//! after every event), and applies the machine's outputs in order.
//!
//! Every worker runs its cells on the in-process
//! [`SweepCellRunner`](crate::supervisor::SweepCellRunner) and appends
//! completed cells to its own fingerprinted journal (`<base>.w<id>`), so
//! no two processes ever contend on one file. On `--resume` (in any
//! isolation mode) and at a standby's takeover the supervisor merges the
//! base journal *and* every sibling worker journal through
//! [`chopin_fleet::recover`], whose fixed `(attempt, worker)` tiebreak
//! resolves duplicate completions. Because cells are deterministic and
//! results are assembled in schedule order, the merged output is
//! byte-identical to a sequential run.
//!
//! The wire protocol ([`chopin_fleet::protocol`]) uses the sandbox
//! heartbeat pipe's `@name field …` framing and line escape; payloads
//! are the cell-record codec's requests and responses (`codec.rs`), and
//! a `Done` payload that does not decode is a cell failure (`worker
//! payload: …`). External workers attach with `--fleet-connect ADDR`
//! (rule R1202's appetite for more workers without more local spawns).

use crate::cli::Args;
use crate::codec;
use crate::journal::{
    worker_journal_path, CellKey, CellProvenance, Journal, JournalEntry, JournalError,
};
use crate::sandbox::{CellRequest, CrashReport};
use crate::supervisor::{
    absorb_recovered, cell_seed, lock, open_journal, settle, Cell, CellOutcome, CellTable, Drained,
    QuarantineReason, SuperviseError,
};
use chopin_core::sweep::SweepConfig;
use chopin_faults::net::NetFaultPlan;
use chopin_faults::{
    parse_net_flag, FaultPlan, FrameFate, HardFaultKind, SupervisorPolicy, NET_PRESET_NAMES,
};
use chopin_fleet::config::lease_deadline_ms;
use chopin_fleet::coordinator::{
    HEARTBEAT_EVERY_MS, HEARTBEAT_TIMEOUT_MS, POLL_MS, STANDBY_RESCUE_MS,
};
use chopin_fleet::protocol;
use chopin_fleet::{
    incarnation_nonce, parse_storm_flag, Codec, Coordinator, FleetConfig, FleetFrame, Incarnation,
    Input, Output, WorkerStormPlan,
};
use chopin_obs::metrics::fleet_metrics;
use chopin_obs::MetricsRegistry;
use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::limits::{die_by_signal, status_signal, SIGKILL};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Ceiling a worker applies to a coordinator-suggested wait.
const MAX_WORKER_WAIT_MS: u64 = 1_000;

/// Default coordinator bind address: an ephemeral loopback port.
const DEFAULT_FLEET_BIND: &str = "127.0.0.1:0";

/// Worker-side read timeout: after this much silence the worker re-sends
/// its unacknowledged reply (if any) and another `Next` — the resend leg
/// of the retry/timeout/backoff wire semantics that makes dropped frames
/// converge instead of wedging.
const WORKER_RESEND_MS: u64 = 2_000;

/// Worker-side silence ceiling: past this the connection is presumed
/// lost (coordinator dead or partitioned away) and the worker reconnects.
const WORKER_SILENCE_MS: u64 = 12_000;

/// First reconnect backoff step; doubles per attempt (full exponential).
const RECONNECT_BASE_MS: u64 = 100;

/// Reconnect backoff ceiling.
const RECONNECT_MAX_MS: u64 = 3_200;

/// Reconnect attempts before a worker gives up on ever seeing a
/// coordinator again. Its journal shard keeps everything it finished.
const MAX_RECONNECT_ATTEMPTS: u32 = 8;

/// How long a standby keeps retrying its initial connection to the
/// primary (the primary may still be compiling its cell list).
const STANDBY_CONNECT_ATTEMPTS: u32 = 40;

/// Backoff between standby registration attempts.
const STANDBY_CONNECT_BACKOFF_MS: u64 = 250;

/// After a clean `Drain`, how long the standby waits for the primary's
/// assembly writes to land in the base journal before giving up.
const STANDBY_DRAIN_GRACE_MS: u64 = 5_000;

// ---------------------------------------------------------------------
// Flag parsing and process entry points.
// ---------------------------------------------------------------------

/// Parse the fleet flag family into a [`FleetConfig`]: `--fleet N`
/// (worker count), `--fleet-storm KIND[:SEED[:STRIDE]]` (the worker-kill
/// storm), `--fleet-bind HOST:PORT` (routable listener address),
/// `--fleet-token TOKEN` (per-run admission token), `--net-faults
/// PRESET[:SEED]` (the seeded network-fault shim), `--fleet-standby ADDR`
/// (run as the standby coordinator for the primary at `ADDR`) and
/// `--fleet-await-standby` (the primary issues no leases until a standby
/// has adopted — the armed-failover drill mode). No flag sets the lease
/// deadline: [`lease_deadline_ms`] derives it from the supervisor policy.
///
/// # Errors
///
/// A human-readable message when a value is unparsable, a preset is
/// unknown, validation fails, or a satellite flag appears without
/// `--fleet` itself.
pub fn fleet_config_from_args(args: &Args) -> Result<Option<FleetConfig>, String> {
    if !args.has("fleet") {
        for flag in [
            "fleet-storm",
            "fleet-bind",
            "fleet-token",
            "net-faults",
            "fleet-standby",
            "fleet-await-standby",
        ] {
            if args.has(flag) {
                return Err(format!("--{flag} needs --fleet N"));
            }
        }
        return Ok(None);
    }
    let workers: u32 = args.get_or("fleet", 0u32).map_err(|e| e.to_string())?;
    let mut config = FleetConfig::new(workers);
    let value = |flag: &str, needs: &str| {
        let missing = || format!("--{flag} needs {needs}");
        args.value(flag).map(str::to_string).ok_or_else(missing)
    };
    if args.has("fleet-storm") {
        let flag = value("fleet-storm", "a preset (kill or abort)")?;
        config.storm = Some(parse_storm_flag(&flag)?);
    }
    if args.has("fleet-bind") {
        config.bind = Some(value("fleet-bind", "HOST:PORT (e.g. 0.0.0.0:7400)")?);
    }
    if args.has("fleet-token") {
        config.token = Some(value("fleet-token", "a token value")?);
    }
    if args.has("net-faults") {
        let presets = NET_PRESET_NAMES.join(", ");
        let flag = value(
            "net-faults",
            &format!("a preset ({presets}), optionally PRESET:SEED"),
        )?;
        config.net = Some(parse_net_flag(&flag)?);
    }
    if args.has("fleet-standby") {
        let needs = "the primary coordinator's address";
        config.standby_of = Some(value("fleet-standby", needs)?);
    }
    config.await_standby = args.has("fleet-await-standby");
    config.validate().map_err(|e| e.to_string())?;
    Ok(Some(config))
}

/// Run this process as an externally-attached fleet worker when
/// `--fleet-connect ADDR` is on the command line, returning the exit
/// code to use; `None` means the flag is absent and the binary should
/// proceed normally. `--fleet-storm` composes, so an external worker
/// can be a storm victim too.
pub fn maybe_connect(args: &Args) -> Option<i32> {
    if !args.has("fleet-connect") {
        return None;
    }
    let Some(addr) = args.value("fleet-connect") else {
        eprintln!("error: --fleet-connect needs the coordinator address it printed at startup");
        return Some(2);
    };
    let storm = match args.value("fleet-storm").map(parse_storm_flag).transpose() {
        Ok(storm) => storm,
        Err(e) => {
            eprintln!("error: {e}");
            return Some(2);
        }
    };
    let token = args
        .value("fleet-token")
        .map(str::to_string)
        .or_else(|| std::env::var(protocol::ENV_FLEET_TOKEN).ok());
    Some(run_worker(addr, None, storm, token))
}

/// Enter the fleet worker loop and exit when this process was spawned
/// as a fleet worker (`CHOPIN_FLEET_WORKER` in the environment);
/// returns immediately otherwise. Called by
/// [`worker_entry`](crate::sandbox::worker_entry) before the sandbox
/// worker hook, so every harness binary can serve as a fleet worker.
pub(crate) fn maybe_fleet_worker() {
    if std::env::var_os(protocol::ENV_FLEET_WORKER).is_none() {
        return;
    }
    let code = fleet_worker_env();
    // srclint:allow(R1006, reason = "a fleet worker owns the whole process; returning would fall through into the binary's own main")
    std::process::exit(code);
}

/// Resolve the worker's environment (address, pre-assigned id, storm)
/// and run the worker loop, returning the process exit code.
fn fleet_worker_env() -> i32 {
    let Ok(addr) = std::env::var(protocol::ENV_FLEET_ADDR) else {
        eprintln!(
            "error: {} is set but {} is not",
            protocol::ENV_FLEET_WORKER,
            protocol::ENV_FLEET_ADDR
        );
        return 2;
    };
    let id = std::env::var(protocol::ENV_FLEET_WORKER_ID)
        .ok()
        .and_then(|v| v.parse().ok());
    let storm = std::env::var(protocol::ENV_FLEET_STORM).ok();
    let storm = match storm.as_deref().map(parse_storm_flag).transpose() {
        Ok(storm) => storm,
        Err(e) => {
            eprintln!("error: bad {}: {e}", protocol::ENV_FLEET_STORM);
            return 2;
        }
    };
    let token = std::env::var(protocol::ENV_FLEET_TOKEN).ok();
    run_worker(&addr, id, storm, token)
}

// ---------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------

/// Everything the supervisor hands the coordinator for one fleet run:
/// the schedule, its lease table with any resumed cells already
/// absorbed, the base journal and the opening counters.
pub(crate) struct FleetRun<'a> {
    pub(crate) config: FleetConfig,
    pub(crate) policy: SupervisorPolicy,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) sweep: &'a SweepConfig,
    pub(crate) cells: &'a [(usize, Cell)],
    pub(crate) table: CellTable,
    pub(crate) journal: Option<Journal>,
    pub(crate) journal_path: Option<PathBuf>,
    pub(crate) fingerprint: u64,
    pub(crate) metrics: MetricsRegistry,
}

/// Run the sweep as a fleet: drive the worker pool until the lease table
/// drains, then hand the drained table back for the supervisor's shared
/// assembly.
///
/// With `--fleet-standby ADDR` this process is not the primary at all:
/// it routes into [`run_standby`], registering with the primary and
/// taking over its lease table if the primary goes silent.
pub(crate) fn coordinate(run: FleetRun<'_>) -> Result<Drained, SuperviseError> {
    run.config
        .validate()
        .map_err(|e| SuperviseError::Isolation(format!("fleet configuration: {e}")))?;
    if run.config.standby_of.is_some() {
        return run_standby(run);
    }

    let FleetRun {
        config,
        faults,
        sweep,
        cells,
        mut table,
        journal,
        journal_path,
        fingerprint,
        mut metrics,
        ..
    } = run;

    let mut crash_reports = Vec::new();
    if !table.is_done() {
        let (listener, addr) = bind(&config, "fleet")?;
        (table, crash_reports) = run_transport(
            &config,
            &faults,
            sweep,
            cells,
            table,
            journal_path.as_deref(),
            fingerprint,
            &mut metrics,
            Transport {
                listener,
                addr,
                epoch: 1,
                rescue_after_ms: None,
                shards: Vec::new(),
            },
        )?;
    }
    Ok(Drained {
        table,
        journal,
        metrics,
        crash_reports,
    })
}

/// Bind the coordinator's listener (`--fleet-bind`, else an ephemeral
/// loopback port), returning it with the address it actually bound.
fn bind(config: &FleetConfig, role: &str) -> Result<(TcpListener, String), SuperviseError> {
    let bind = config.bind.as_deref().unwrap_or(DEFAULT_FLEET_BIND);
    let listener = TcpListener::bind(bind).map_err(|e| {
        SuperviseError::Isolation(format!("{role} cannot bind its socket at {bind}: {e}"))
    })?;
    let addr = listener
        .local_addr()
        .map_err(|e| SuperviseError::Isolation(format!("{role} cannot resolve its socket: {e}")))?;
    Ok((listener, addr.to_string()))
}

/// The successor's takeover log: `<base>.takeover` beside the base
/// journal, recording the hand-off so operators (and the CI chaos gate)
/// can assert a takeover actually happened and what it recovered.
pub(crate) fn takeover_log_path(base: &Path) -> PathBuf {
    match base.file_name() {
        Some(name) => base.with_file_name(format!("{}.takeover", name.to_string_lossy())),
        None => base.with_extension("takeover"),
    }
}

/// Run as a standby coordinator: register with the primary, watch its
/// heartbeat, and — if the primary goes silent — take over the lease
/// table reloaded from the merged journals, serving the next epoch
/// without restarting workers (they reconnect to the address the
/// primary advertised on their behalf).
fn run_standby(run: FleetRun<'_>) -> Result<Drained, SuperviseError> {
    let FleetRun {
        config,
        policy,
        faults,
        sweep,
        cells,
        journal_path,
        fingerprint,
        ..
    } = run;
    let primary = config.standby_of.clone().unwrap_or_default();
    let Some(journal_path) = journal_path else {
        return Err(SuperviseError::Isolation(
            "--fleet-standby needs --journal pointing at the primary's journal \
             (rule R1405): the successor reloads the lease table from it"
                .to_string(),
        ));
    };
    // Bind the successor's listener *before* registering: reconnecting
    // workers land in the OS accept backlog while the takeover absorbs
    // the journals, so no reconnect attempt is lost to a closed port.
    let (listener, my_addr) = bind(&config, "standby")?;

    // Register with retries — the standby is usually started alongside
    // the primary, possibly before it listens.
    let mut registered = None;
    for _ in 0..STANDBY_CONNECT_ATTEMPTS {
        match TcpStream::connect(&primary) {
            Ok(s) => {
                registered = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(STANDBY_CONNECT_BACKOFF_MS)),
        }
    }
    let Some(mut stream) = registered else {
        return Err(SuperviseError::Isolation(format!(
            "standby cannot reach the primary coordinator at {primary}"
        )));
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let read_half = stream.try_clone().map_err(|e| {
        SuperviseError::Isolation(format!("standby cannot clone its primary socket: {e}"))
    })?;
    let mut reader = LineReader::new(read_half);
    let send = |stream: &mut TcpStream, frame: &FleetFrame| {
        let line = format!("{}\n", protocol::render(frame));
        stream.write_all(line.as_bytes()).is_ok()
    };
    if !send(
        &mut stream,
        &FleetFrame::Hello {
            worker: None,
            token: config.token.clone(),
        },
    ) {
        return Err(SuperviseError::Isolation(
            "standby lost the primary connection during registration".to_string(),
        ));
    }

    // Wait for admission (learning the primary's epoch), adopt, then
    // watch the primary's heartbeat. Silence past the reaper timeout or
    // a hangup after admission triggers takeover; a Drain means the run
    // finished and we only reconstruct the report. A Reject refuses the
    // admission or the adoption (fingerprint mismatch).
    let span = WallSpan::begin();
    let (mut epoch, mut last_beat) = (None, 0);
    let (epoch, drained) = loop {
        let now = span.elapsed_ms() as u64;
        let frame = match (reader.next_line(), epoch) {
            (LineEvent::Line(line), _) => protocol::parse(&line),
            (LineEvent::TimedOut, _) if now.saturating_sub(last_beat) <= HEARTBEAT_TIMEOUT_MS => {
                None
            }
            (_, Some(e)) => break (e, false),
            (LineEvent::Eof, None) => {
                let why = format!("the primary at {primary} hung up before admitting this standby");
                return Err(SuperviseError::Isolation(why));
            }
            (LineEvent::TimedOut, None) => {
                let why = format!("the primary at {primary} never admitted this standby");
                return Err(SuperviseError::Isolation(why));
            }
        };
        match (frame, epoch) {
            (Some(FleetFrame::Welcome { epoch: e, .. }), None) => {
                let adopt = FleetFrame::Adopt {
                    addr: my_addr.clone(),
                    fingerprint: format!("{fingerprint:016x}"),
                };
                if !send(&mut stream, &adopt) {
                    let why = "standby lost the primary connection while adopting";
                    return Err(SuperviseError::Isolation(why.to_string()));
                }
                eprintln!(
                    "fleet: standby registered with primary {primary} (epoch {e}), \
                     watching heartbeats; successor address is {my_addr}"
                );
                (epoch, last_beat) = (Some(e), now);
            }
            (Some(FleetFrame::Beat { .. }), _) => last_beat = now,
            (Some(FleetFrame::Drain), Some(e)) => break (e, true),
            (Some(FleetFrame::Reject { reason }), _) => {
                let why = format!("the primary at {primary} rejected this standby: {reason}");
                return Err(SuperviseError::Isolation(why));
            }
            _ => {}
        }
    };
    let _ = stream.shutdown(Shutdown::Both);

    let seeds: Vec<u64> = cells.iter().map(|(_, cell)| cell_seed(cell)).collect();
    let recovered = |mut journal: Option<Journal>| {
        let mut table = CellTable::new(seeds.clone(), policy, lease_deadline_ms(&policy));
        let shards = Some(journal_path.as_path());
        let absorbed = absorb_recovered(&mut table, cells, &mut journal, shards, fingerprint);
        (table, journal, absorbed)
    };

    if drained {
        // The primary finished the sweep itself. Reconstruct the same
        // report from the merged journals; grace-loop briefly in case
        // the primary's last appends are still landing. A load reads
        // only newline-terminated lines and never writes, so a line
        // mid-append is simply not there yet.
        let grace = WallSpan::begin();
        loop {
            let (table, journal, absorbed) = recovered(Journal::load(&journal_path).ok());
            if table.is_done() {
                eprintln!("fleet: primary drained cleanly; standby reconstructed the report");
                return Ok(Drained {
                    table,
                    journal,
                    metrics: absorbed.metrics(cells.len()),
                    crash_reports: Vec::new(),
                });
            }
            if grace.elapsed_ms() as u64 > STANDBY_DRAIN_GRACE_MS {
                return Err(SuperviseError::Isolation(
                    "the primary drained but the merged journals do not cover the \
                     matrix; rerun with --resume"
                        .to_string(),
                ));
            }
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
    }

    // Takeover: the primary is gone. Absorb everything the fleet has
    // committed to disk and serve the remainder at the next epoch.
    eprintln!(
        "fleet: primary at {primary} went silent; taking over at epoch {}",
        epoch + 1
    );
    // The primary may have died mid-append: the reloaded journal's
    // first append truncates that torn last line.
    let journal = open_journal(&journal_path, fingerprint, true)?;
    let (mut table, journal, absorbed) = recovered(Some(journal));
    let mut metrics = absorbed.metrics(cells.len());
    metrics.inc(fleet_metrics::TAKEOVERS, 1);
    let _ = std::fs::write(
        takeover_log_path(&journal_path),
        format!(
            "takeover epoch={} primary={primary} addr={my_addr}\n\
             recovered={} conflicts={} foreign_shards={}\n",
            epoch + 1,
            absorbed.recovered,
            absorbed.conflicts,
            absorbed.foreign_shards,
        ),
    );

    let mut crash_reports = Vec::new();
    if !table.is_done() {
        (table, crash_reports) = run_transport(
            &config,
            &faults,
            sweep,
            cells,
            table,
            Some(journal_path.as_path()),
            fingerprint,
            &mut metrics,
            Transport {
                listener,
                addr: my_addr,
                epoch: epoch + 1,
                rescue_after_ms: Some(STANDBY_RESCUE_MS),
                shards: absorbed.shards,
            },
        )?;
    }
    Ok(Drained {
        table,
        journal,
        metrics,
        crash_reports,
    })
}

/// What the reader, acceptor and reaper threads hand the pump: a
/// machine input, with a connection's write half riding along with its
/// `Hello` so the pump owns all outbound traffic.
type Event = (Input, Option<TcpStream>);

/// Re-render a storm plan into the env grammar workers parse
/// (`KIND:SEED:STRIDE`, same as the `--fleet-storm` flag).
fn render_storm(storm: &WorkerStormPlan) -> String {
    format!(
        "{}:{}:{}",
        storm.plan.kind.label(),
        storm.plan.seed,
        storm.plan.stride
    )
}

fn accept_loop(listener: TcpListener, tx: mpsc::Sender<Event>, stop: Arc<AtomicBool>) {
    let mut next_conn: u64 = 1;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn = next_conn;
        next_conn += 1;
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(conn, stream, tx));
    }
}

fn reader_loop(conn: u64, stream: TcpStream, tx: mpsc::Sender<Event>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        let _ = tx.send((Input::Eof(conn), None));
        return;
    };
    let mut write_half = Some(stream);
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let Some(frame) = protocol::parse(&line) else {
            continue;
        };
        let event = match (frame, write_half.take()) {
            // The first frame must be the Hello; the write half rides
            // along so the pump owns all outbound traffic.
            (
                FleetFrame::Hello {
                    worker: hint,
                    token,
                },
                Some(stream),
            ) => (Input::Hello { conn, hint, token }, Some(stream)),
            (_, Some(stream)) => {
                // Pre-Hello garbage: keep waiting for the Hello.
                write_half = Some(stream);
                continue;
            }
            (frame, None) => (Input::Frame { conn, frame }, None),
        };
        if tx.send(event).is_err() {
            return;
        }
    }
    let _ = tx.send((Input::Eof(conn), None));
}

/// The pump's half of the coordinator: the write half of every joined
/// connection, the seeded net-fault shim over the worker links, worker
/// process spawning, and the crash reports the machine's deaths turn
/// into.
struct Pump<'a> {
    cells: &'a [(usize, Cell)],
    /// The worker executable, and the environment it gets.
    exe: PathBuf,
    addr: String,
    storm_env: Option<String>,
    token_env: Option<String>,
    tx: mpsc::Sender<Event>,
    streams: BTreeMap<u64, TcpStream>,
    /// The seeded net-fault shim over the worker links (`--net-faults`).
    net: Option<NetFaultPlan>,
    /// Per-worker outbound frame counter feeding the shim's fate rolls.
    net_seq: BTreeMap<u64, u64>,
    /// Shim-delayed outbound frames: `(due_ms, conn, frame)`.
    delayed: Vec<(u64, u64, FleetFrame)>,
    net_dropped: u64,
    net_delayed: u64,
    net_duplicated: u64,
    net_partitioned: u64,
    reports: Vec<CrashReport>,
}

impl Pump<'_> {
    /// Start a local worker process (this same executable, marked via
    /// the environment) and reap it onto the event channel.
    fn spawn(&self, slot: usize, worker: u64) -> std::io::Result<()> {
        let mut cmd = Command::new(&self.exe);
        cmd.env(protocol::ENV_FLEET_WORKER, "1")
            .env(protocol::ENV_FLEET_ADDR, &self.addr)
            .env(protocol::ENV_FLEET_WORKER_ID, worker.to_string())
            // The die-after hook targets the *coordinator*; a worker
            // inheriting it would re-enter coordination on exec.
            .env_remove(protocol::ENV_FLEET_DIE_AFTER)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(storm) = &self.storm_env {
            cmd.env(protocol::ENV_FLEET_STORM, storm);
        }
        if let Some(token) = &self.token_env {
            cmd.env(protocol::ENV_FLEET_TOKEN, token);
        }
        let mut child = cmd.spawn()?;
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let (clean, signal) = match child.wait() {
                Ok(status) => (status.success(), status_signal(&status)),
                Err(_) => (false, None),
            };
            let exit = Input::Exited {
                slot,
                worker,
                clean,
                signal,
            };
            let _ = tx.send((exit, None));
        });
        Ok(())
    }

    fn write(&mut self, conn: u64, frame: &FleetFrame) {
        if let Some(stream) = self.streams.get_mut(&conn) {
            let line = format!("{}\n", protocol::render(frame));
            let _ = stream.write_all(line.as_bytes());
        }
    }

    /// Send a frame, through the net-fault shim when the machine marked
    /// it as faultable: a partition window swallows it; otherwise the
    /// seeded per-frame fate may drop, delay or duplicate it.
    fn send(&mut self, conn: u64, frame: FleetFrame, shim: Option<u64>, now: u64) {
        if let (Some(plan), Some(worker)) = (self.net, shim) {
            if plan.partitioned(worker, now) {
                self.net_partitioned += 1;
                return;
            }
            let seq = self.net_seq.entry(worker).or_insert(0);
            *seq += 1;
            match plan.fate(worker, *seq) {
                FrameFate::Deliver => {}
                FrameFate::Drop => {
                    self.net_dropped += 1;
                    return;
                }
                FrameFate::Delay(ms) => {
                    self.net_delayed += 1;
                    self.delayed.push((now + ms, conn, frame));
                    return;
                }
                FrameFate::Duplicate => {
                    self.net_duplicated += 1;
                    self.write(conn, &frame);
                }
            }
        }
        self.write(conn, &frame);
    }

    /// Deliver every shim-delayed frame whose due time has passed.
    fn flush_delayed(&mut self, now: u64) {
        let (due, later) = std::mem::take(&mut self.delayed)
            .into_iter()
            .partition(|(at, ..)| *at <= now);
        self.delayed = later;
        for (_, conn, frame) in due {
            self.write(conn, &frame);
        }
    }

    /// Whether an active partition window swallows an inbound frame.
    /// Only a worker's data plane (`Next`/`Done`/`Fail`/`Beat`)
    /// partitions — `@beat` included, so the reaper sees real silence;
    /// the worker's retry discipline re-sends once the window heals.
    fn inbound_blocked(&mut self, worker: Option<u64>, frame: &FleetFrame, now: u64) -> bool {
        let (Some(plan), Some(worker)) = (self.net, worker) else {
            return false;
        };
        let data_plane = matches!(
            frame,
            FleetFrame::Next { .. }
                | FleetFrame::Done { .. }
                | FleetFrame::Fail { .. }
                | FleetFrame::Beat { .. }
        );
        let blocked = data_plane && plan.partitioned(worker, now);
        self.net_partitioned += u64::from(blocked);
        blocked
    }

    /// Apply the machine's outputs in order. A spawn that fails is fed
    /// back as that worker's crash. Returns how the run ended, if it
    /// did: `Ok` once drained, `Err` with the reason once failed.
    fn apply<L: Fn(usize) -> String>(
        &mut self,
        coordinator: &mut Coordinator<CellOutcome, L>,
        outputs: Vec<Output>,
        now: u64,
    ) -> Option<Result<(), String>> {
        let mut end = None;
        let mut outputs = VecDeque::from(outputs);
        while let Some(output) = outputs.pop_front() {
            match output {
                Output::Send { conn, frame, shim } => self.send(conn, frame, shim, now),
                Output::Close(conn) => {
                    if let Some(stream) = self.streams.remove(&conn) {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
                Output::Spawn { slot, worker } => {
                    if let Err(e) = self.spawn(slot, worker) {
                        eprintln!("fleet: could not spawn worker slot {slot}: {e}");
                        let crash = Input::Exited {
                            slot,
                            worker,
                            clean: false,
                            signal: None,
                        };
                        outputs.extend(coordinator.step(crash, now));
                    }
                }
                Output::Died {
                    cells,
                    last_seen,
                    signal,
                } => {
                    for idx in cells {
                        let (_, cell) = &self.cells[idx];
                        self.reports.push(CrashReport {
                            benchmark: cell.benchmark.clone(),
                            collector: cell.collector.to_string(),
                            heap_factor: cell.heap_factor,
                            outcome: "worker-died".to_string(),
                            exit_code: None,
                            signal,
                            last_heartbeat_ms: last_seen,
                            peak_rss_bytes: None,
                            wall_ms: now,
                        });
                    }
                }
                Output::Log(line) => eprintln!("{line}"),
                Output::Drained => end = Some(Ok(())),
                Output::Failed(why) => end = Some(Err(why)),
            }
        }
        end
    }
}

/// The transport's bind/epoch parameters: the primary binds fresh and
/// spawns its pool at epoch 1; a takeover inherits the standby's
/// pre-bound listener, serves at the next epoch, and only spawns its own
/// workers if none of the primary's reconnect within the rescue window,
/// above the ids of the shards it absorbed.
struct Transport {
    listener: TcpListener,
    addr: String,
    epoch: u32,
    rescue_after_ms: Option<u64>,
    shards: Vec<u64>,
}

/// Pump the coordinator machine until the lease table drains (or the run
/// dies), then answer late joiners with `Drain` until every spawned
/// worker has exited or the heartbeat timeout has passed. Returns the
/// drained table and the crash reports of worker deaths.
#[allow(clippy::too_many_arguments)]
fn run_transport(
    config: &FleetConfig,
    faults: &Option<FaultPlan>,
    sweep: &SweepConfig,
    cells: &[(usize, Cell)],
    table: CellTable,
    journal_base: Option<&Path>,
    fingerprint: u64,
    metrics: &mut MetricsRegistry,
    transport: Transport,
) -> Result<(CellTable, Vec<CrashReport>), SuperviseError> {
    let Transport {
        listener,
        addr,
        epoch,
        rescue_after_ms,
        shards,
    } = transport;
    let exe = std::env::current_exe().map_err(|e| {
        SuperviseError::Isolation(format!("fleet cannot resolve the worker executable: {e}"))
    })?;
    // `CHOPIN_FLEET_DIE_AFTER`: SIGKILL the coordinator after this many
    // completions — a real crash, no cleanup, no persisted base journal.
    let hard_die: Option<u64> = std::env::var(protocol::ENV_FLEET_DIE_AFTER)
        .ok()
        .and_then(|v| v.parse().ok());
    // Every incarnation mints a fresh nonce; workers echo it on
    // `Done`/`Fail` so a successor can fence the previous incarnation's
    // completions out of its own lease-id space.
    let nonce = incarnation_nonce(u64::from(std::process::id()), fingerprint, epoch);

    eprintln!(
        "fleet: coordinating {} cell(s) across {} worker(s) at {addr} (attach with --fleet-connect {addr})",
        table.len() - table.resolved_count(),
        config.plan.workers,
    );
    if epoch > 1 {
        eprintln!("fleet: serving epoch {epoch} (incarnation {nonce:016x})");
    }
    if let Some(plan) = &config.net {
        eprintln!("fleet: net-fault shim active: {plan}");
    }

    let (tx, rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(listener, tx, stop));
    }
    let mut pump = Pump {
        cells,
        exe,
        addr: addr.clone(),
        storm_env: config.storm.as_ref().map(render_storm),
        token_env: config.token.clone(),
        tx,
        streams: BTreeMap::new(),
        net: config.net,
        net_seq: BTreeMap::new(),
        delayed: Vec::new(),
        net_dropped: 0,
        net_delayed: 0,
        net_duplicated: 0,
        net_partitioned: 0,
        reports: Vec::new(),
    };
    let codec = Codec {
        lease: |cell: usize| {
            codec::encode(&CellRequest {
                cell: cells[cell].1.clone(),
                invocations: sweep.invocations,
                iterations: sweep.iterations,
                size: sweep.size,
                faults: faults.clone(),
                hard: None,
            })
        },
        // An unreadable payload is a cell failure, exactly as the
        // process backend treats one.
        decode: |payload| {
            codec::decode::<CellOutcome>(payload).map_err(|e| {
                codec::encode(&QuarantineReason::Errored(format!("worker payload: {e}")))
            })
        },
    };
    let incarnation = Incarnation {
        epoch,
        nonce,
        fingerprint,
        journal: journal_base.map(|p| p.to_string_lossy().into_owned()),
        rescue_after_ms,
        shards,
    };

    let span = WallSpan::begin();
    let now_ms = |span: &WallSpan| span.elapsed_ms() as u64;
    let (mut coordinator, started) = Coordinator::start(config, incarnation, table, codec, 0);
    let mut end = pump.apply(&mut coordinator, started, 0);
    let mut drained_at: Option<u64> = None;
    let outcome = loop {
        let now = now_ms(&span);
        match end.take() {
            Some(Err(why)) => break Err(SuperviseError::Isolation(why)),
            Some(Ok(())) => drained_at = Some(now),
            None => {}
        }
        if drained_at.is_some_and(|at| {
            !coordinator.slots_alive() || now.saturating_sub(at) >= HEARTBEAT_TIMEOUT_MS
        }) {
            break Ok(());
        }
        pump.flush_delayed(now);
        let timeout = Duration::from_millis(coordinator.next_deadline_in(now));
        let input = match rx.recv_timeout(timeout) {
            Ok((input, stream)) => {
                if let (Input::Hello { conn, .. }, Some(stream)) = (&input, stream) {
                    pump.streams.insert(*conn, stream);
                }
                match &input {
                    Input::Frame { conn, frame }
                        if pump.inbound_blocked(
                            coordinator.worker_of(*conn),
                            frame,
                            now_ms(&span),
                        ) =>
                    {
                        None
                    }
                    _ => Some(input),
                }
            }
            Err(_) => None,
        };
        let now = now_ms(&span);
        if let Some(input) = input {
            let outputs = coordinator.step(input, now);
            end = pump.apply(&mut coordinator, outputs, now);
        }
        if hard_die.is_some_and(|limit| coordinator.counters().completions >= limit) {
            die_by_signal(SIGKILL);
        }
        pump.flush_delayed(now);
        let outputs = coordinator.step(Input::Tick, now);
        end = end.or(pump.apply(&mut coordinator, outputs, now));
    };

    // Wake the acceptor so its thread exits, then drop every connection.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&addr);
    for stream in pump.streams.values() {
        let _ = stream.shutdown(Shutdown::Both);
    }

    let counters = coordinator.counters();
    let table = coordinator.into_table();
    let lease_metrics = table.metrics();
    metrics.inc(fleet_metrics::WORKERS_SPAWNED, counters.spawned);
    metrics.inc(fleet_metrics::WORKER_DEATHS, counters.deaths);
    metrics.inc(fleet_metrics::WORKERS_QUARANTINED, counters.quarantined);
    metrics.inc(fleet_metrics::LEASES_ISSUED, lease_metrics.issued);
    metrics.inc(fleet_metrics::LEASES_EXPIRED, lease_metrics.expired);
    metrics.inc(fleet_metrics::LEASES_STOLEN, lease_metrics.stolen);
    metrics.inc(fleet_metrics::CELLS_REQUEUED, lease_metrics.requeued);
    metrics.inc(fleet_metrics::MERGE_CONFLICTS, lease_metrics.conflicts);
    metrics.inc(fleet_metrics::NET_DROPPED, pump.net_dropped);
    metrics.inc(fleet_metrics::NET_DELAYED, pump.net_delayed);
    metrics.inc(fleet_metrics::NET_DUPLICATED, pump.net_duplicated);
    metrics.inc(fleet_metrics::NET_PARTITIONED, pump.net_partitioned);
    metrics.inc(fleet_metrics::AUTH_REJECTED, counters.auth_rejected);
    metrics.inc(fleet_metrics::STALE_FENCED, counters.stale_fenced);
    metrics.inc(fleet_metrics::WORKERS_REVIVED, counters.revived);
    outcome.map(|()| (table, pump.reports))
}

// ---------------------------------------------------------------------
// The worker.
// ---------------------------------------------------------------------

fn send_frame(writer: &Mutex<TcpStream>, frame: &FleetFrame) -> bool {
    let line = format!("{}\n", protocol::render(frame));
    lock(writer).write_all(line.as_bytes()).is_ok()
}

/// Send the un-acknowledged reply, if any, then ask for work: both are
/// idempotent (the lease table keys completions on the lease id), so
/// this is the answer to any doubt about what the wire delivered.
fn reack(writer: &Mutex<TcpStream>, pending: &Option<FleetFrame>, me: u64) -> bool {
    pending.iter().all(|reply| send_frame(writer, reply))
        && send_frame(writer, &FleetFrame::Next { worker: me })
}

fn spawn_heartbeat(writer: Arc<Mutex<TcpStream>>, me: u64) {
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(HEARTBEAT_EVERY_MS));
        if !send_frame(&writer, &FleetFrame::Beat { worker: me }) {
            break;
        }
    });
}

/// Run one lease: decode the request and run the cell on the
/// in-process runner, classifying any failure into the crash taxonomy.
fn execute_lease(payload: &str) -> Result<(CellKey, CellOutcome), QuarantineReason> {
    let request: CellRequest = codec::decode(payload)
        .map_err(|e| QuarantineReason::Errored(format!("unreadable cell request: {e}")))?;
    let outcome = settle(catch_unwind(AssertUnwindSafe(|| request.run())))?;
    Ok((request.cell, outcome))
}

/// One event from the worker's manual line reader.
enum LineEvent {
    Line(String),
    TimedOut,
    Eof,
}

/// A line reader over a read-timeout socket that never loses partial
/// data: `BufReader::read_line` drops its accumulator on a timeout,
/// which under the net-fault shim's injected delays would tear frames.
/// This reader keeps every byte across timeouts.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// The next line, waiting at most `timeout` for it rather than the
    /// socket's standing read timeout.
    fn next_line_within(&mut self, timeout: Duration) -> LineEvent {
        if timeout.is_zero() || self.stream.set_read_timeout(Some(timeout)).is_err() {
            return LineEvent::TimedOut;
        }
        let event = self.next_line();
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(WORKER_RESEND_MS)));
        event
    }

    fn next_line(&mut self) -> LineEvent {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            let mut chunk = [0u8; 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineEvent::TimedOut
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Eof,
            }
        }
    }
}

/// Worker-side state that survives reconnects: identity, the journal
/// shard (created once per process, never re-truncated), the advertised
/// successor address, and the last un-acknowledged reply for the
/// resend discipline.
#[derive(Default)]
struct WorkerSession {
    token: Option<String>,
    storm: Option<WorkerStormPlan>,
    me: Option<u64>,
    journal: Option<Journal>,
    /// Whether a failed shard create, append or sync has been reported.
    journal_warned: bool,
    successor: Option<String>,
    leases_received: u32,
    pending: Option<FleetFrame>,
    last_lease: Option<u64>,
    /// The `coord` nonce of the incarnation that last welcomed us
    /// (0 = never joined). A Welcome carrying a *different* nonce means
    /// the old incarnation is dead: its pending reply and lease id are
    /// dropped, because a successor's lease ids restart at 0 and must
    /// not be shadowed by the dead id space.
    last_coord: u64,
    joined_once: bool,
}

impl WorkerSession {
    /// Report a shard failure on the worker's inherited stderr, once per
    /// process: the cells still reach the coordinator, but only its seal
    /// journals them, so a coordinator crash before it re-runs them.
    fn journal_failed(&mut self, e: &JournalError) {
        if !self.journal_warned {
            self.journal_warned = true;
            eprintln!(
                "fleet worker {}: journal shard failed ({e}); finished cells are journalled \
                 only when the coordinator seals the base journal",
                self.me.unwrap_or(0)
            );
        }
    }

    /// The drain barrier: every record of the shard is on disk before the
    /// worker exits.
    fn sync_journal(&mut self) {
        if let Some(Err(e)) = self.journal.as_mut().map(Journal::sync) {
            self.journal_failed(&e);
        }
    }
}

/// Why one coordinator connection ended.
enum ServeEnd {
    /// The coordinator drained the matrix; the run is over.
    Drained,
    /// The coordinator refused admission (bad token); do not retry.
    Rejected(String),
    /// The connection died or went silent; reconnect with backoff.
    Lost,
}

/// A write to the coordinator failed. A coordinator that drained the
/// matrix sends `Drain` and closes, so that frame may already sit in the
/// receive buffer: read what is buffered before calling the connection
/// lost.
fn lost_unless_drained(reader: &mut LineReader, s: &mut WorkerSession) -> ServeEnd {
    if reader.stream.set_nonblocking(true).is_err() {
        return ServeEnd::Lost;
    }
    loop {
        match reader.next_line() {
            LineEvent::Line(line) => match protocol::parse(&line) {
                Some(FleetFrame::Drain) => return ServeEnd::Drained,
                Some(FleetFrame::Standby { addr }) => s.successor = Some(addr),
                _ => {}
            },
            LineEvent::TimedOut | LineEvent::Eof => return ServeEnd::Lost,
        }
    }
}

/// Serve one coordinator connection: join, run leases, ride out
/// dropped and duplicated frames. Timeouts re-send the pending reply
/// and re-ask for work (the wire may have eaten either direction);
/// sustained silence abandons the connection for a reconnect. A `Wait`
/// is spent reading the socket, so a `Drain`, `Standby` or `Lease` that
/// arrives meanwhile is handled at once; `Next` goes out when the wait
/// runs out.
fn serve_coordinator(addr: &str, s: &mut WorkerSession, attempts: &mut u32) -> ServeEnd {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(_) => return ServeEnd::Lost,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(WORKER_RESEND_MS)));
    let Ok(read_half) = stream.try_clone() else {
        return ServeEnd::Lost;
    };
    let writer = Arc::new(Mutex::new(stream));
    if !send_frame(
        &writer,
        &FleetFrame::Hello {
            worker: s.me,
            token: s.token.clone(),
        },
    ) {
        return ServeEnd::Lost;
    }

    let mut reader = LineReader::new(read_half);
    let mut me = s.me.unwrap_or(0);
    let mut coord = 0u64;
    let mut joined = false;
    let mut silent_ms = 0u64;
    // The coordinator's `Wait` being served: when it began, how long.
    let mut waiting: Option<(WallSpan, Duration)> = None;
    loop {
        let event = match waiting {
            Some((since, wait)) => reader.next_line_within(wait.saturating_sub(since.elapsed())),
            None => reader.next_line(),
        };
        match event {
            LineEvent::Eof => return ServeEnd::Lost,
            LineEvent::TimedOut if waiting.is_some() => {
                // The wait ran out: ask for work again.
                waiting = None;
                if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                    break;
                }
            }
            LineEvent::TimedOut => {
                silent_ms += WORKER_RESEND_MS;
                if silent_ms >= WORKER_SILENCE_MS {
                    return ServeEnd::Lost;
                }
                // The wire may have eaten our reply or the next Lease.
                if joined && !reack(&writer, &s.pending, me) {
                    break;
                }
            }
            LineEvent::Line(line) => {
                silent_ms = 0;
                let Some(frame) = protocol::parse(&line) else {
                    continue;
                };
                match frame {
                    FleetFrame::Welcome {
                        worker,
                        fingerprint,
                        coord: c,
                        journal: base,
                        ..
                    } => {
                        waiting = None;
                        me = worker;
                        s.me = Some(worker);
                        coord = c;
                        if s.last_coord != c {
                            if s.last_coord != 0 {
                                // A different incarnation welcomed us: the
                                // reply we were holding belongs to a dead
                                // lease-id space. Resending it would at
                                // best be fenced noise, and its lease id
                                // must not dedup this incarnation's
                                // grants (successor ids restart at 0).
                                // The journal shard already holds the
                                // finished work — nothing is lost.
                                s.pending = None;
                                s.last_lease = None;
                            }
                            s.last_coord = c;
                        }
                        joined = true;
                        s.joined_once = true;
                        *attempts = 0;
                        // Create the shard only on the FIRST admission
                        // of this process: re-creating on reconnect
                        // would truncate the very work a reconnect is
                        // supposed to preserve.
                        if s.journal.is_none() {
                            let fp = u64::from_str_radix(&fingerprint, 16).unwrap_or(0);
                            let shard = base.map(|b| worker_journal_path(Path::new(&b), me));
                            match shard.map(|path| Journal::create(&path, fp)).transpose() {
                                Ok(journal) => s.journal = journal,
                                Err(e) => s.journal_failed(&e),
                            }
                        }
                        spawn_heartbeat(Arc::clone(&writer), me);
                        if !reack(&writer, &s.pending, me) {
                            break;
                        }
                    }
                    FleetFrame::Reject { reason } => return ServeEnd::Rejected(reason),
                    FleetFrame::Standby { addr } => s.successor = Some(addr),
                    FleetFrame::Wait { ms } => {
                        let wait = Duration::from_millis(ms.clamp(1, MAX_WORKER_WAIT_MS));
                        waiting = Some((WallSpan::begin(), wait));
                    }
                    FleetFrame::Lease {
                        lease,
                        attempt,
                        payload,
                    } => {
                        waiting = None;
                        if s.last_lease == Some(lease) {
                            // A duplicated Lease frame: the work already
                            // ran (or is our current grant); just re-ack.
                            if !reack(&writer, &s.pending, me) {
                                break;
                            }
                            continue;
                        }
                        s.last_lease = Some(lease);
                        s.pending = None;
                        s.leases_received += 1;
                        if let Some(storm) = &s.storm {
                            if storm.is_victim(me) && s.leases_received >= storm.kill_after_leases {
                                // The storm: die mid-lease exactly as a
                                // crashed worker would, before any work
                                // happens.
                                if storm.plan.kind == HardFaultKind::Abort {
                                    std::process::abort();
                                }
                                die_by_signal(SIGKILL);
                            }
                        }
                        let reply = match execute_lease(&payload) {
                            Ok((key, outcome)) => {
                                let payload = codec::encode(&outcome);
                                let entry = JournalEntry {
                                    key,
                                    record: outcome,
                                    provenance: Some(CellProvenance {
                                        attempt,
                                        worker: me,
                                    }),
                                };
                                if let Some(Err(e)) = s.journal.as_mut().map(|j| j.record(entry)) {
                                    s.journal_failed(&e);
                                }
                                FleetFrame::Done {
                                    worker: me,
                                    lease,
                                    coord,
                                    payload,
                                }
                            }
                            Err(reason) => FleetFrame::Fail {
                                worker: me,
                                lease,
                                coord,
                                reason: codec::encode(&reason),
                            },
                        };
                        s.pending = Some(reply);
                        if !reack(&writer, &s.pending, me) {
                            break;
                        }
                    }
                    FleetFrame::Drain => return ServeEnd::Drained,
                    _ => {}
                }
            }
        }
    }
    // Only a failed write leaves the loop.
    lost_unless_drained(&mut reader, s)
}

/// The fleet worker loop: serve the coordinator until drained,
/// reconnecting with exponential backoff when a connection is lost —
/// alternating between the primary address and any advertised standby
/// successor. A worker that joined at least once exits cleanly when the
/// fleet stays unreachable (its shard keeps everything it finished); a
/// worker that never joined reports infrastructure failure.
fn run_worker(
    addr: &str,
    id: Option<u64>,
    storm: Option<WorkerStormPlan>,
    token: Option<String>,
) -> i32 {
    let mut session = WorkerSession {
        token,
        storm,
        me: id,
        ..WorkerSession::default()
    };
    let mut attempts: u32 = 0;
    let mut backoff = RECONNECT_BASE_MS;
    loop {
        let target = match &session.successor {
            Some(successor) if attempts.is_multiple_of(2) => successor.clone(),
            _ => addr.to_string(),
        };
        match serve_coordinator(&target, &mut session, &mut attempts) {
            ServeEnd::Drained => {
                session.sync_journal();
                return 0;
            }
            ServeEnd::Rejected(reason) => {
                eprintln!("error: fleet worker rejected by the coordinator: {reason}");
                return 2;
            }
            ServeEnd::Lost => {
                if attempts == 0 {
                    // The last connection joined successfully; restart
                    // the backoff schedule from scratch.
                    backoff = RECONNECT_BASE_MS;
                }
                attempts += 1;
                if attempts > MAX_RECONNECT_ATTEMPTS {
                    if session.joined_once {
                        eprintln!(
                            "fleet worker: coordinator unreachable after \
                             {MAX_RECONNECT_ATTEMPTS} reconnect attempts; exiting \
                             (the journal shard keeps finished work)"
                        );
                        return 0;
                    }
                    eprintln!("error: fleet worker cannot reach the coordinator at {addr}");
                    return 2;
                }
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = (backoff * 2).min(RECONNECT_MAX_MS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_flags_parse_and_reject_orphans() {
        let none = Args::parse(["--quick"]);
        assert_eq!(fleet_config_from_args(&none).unwrap(), None);

        for orphan_flag in [
            ["--fleet-bind", "127.0.0.1:7000"],
            ["--fleet-token", "s3cret"],
            ["--net-faults", "storm"],
            ["--fleet-standby", "127.0.0.1:7001"],
        ] {
            let orphan = Args::parse(orphan_flag);
            assert!(
                fleet_config_from_args(&orphan)
                    .unwrap_err()
                    .contains("--fleet"),
                "{} must require --fleet",
                orphan_flag[0]
            );
        }

        let full = Args::parse([
            "--fleet",
            "4",
            "--fleet-storm",
            "kill:7",
            "--fleet-bind",
            "127.0.0.1:0",
            "--fleet-token",
            "s3cret",
            "--net-faults",
            "partition:11",
        ]);
        let config = fleet_config_from_args(&full).unwrap().unwrap();
        assert_eq!(config.plan.workers, 4);
        assert_eq!(config.bind.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.token.as_deref(), Some("s3cret"));
        let net = config.net.unwrap();
        assert_eq!(net.seed, 11);
        assert!(net.partition_period_ms > 0);
        let storm = config.storm.unwrap();
        assert_eq!(storm.plan.seed, 7);
        assert_eq!(storm.plan.kind, HardFaultKind::Kill);

        let standby = Args::parse(["--fleet", "2", "--fleet-standby", "127.0.0.1:7001"]);
        let config = fleet_config_from_args(&standby).unwrap().unwrap();
        assert_eq!(config.standby_of.as_deref(), Some("127.0.0.1:7001"));

        let zero = Args::parse(["--fleet", "0"]);
        assert!(fleet_config_from_args(&zero).is_err());

        let bad_bind = Args::parse(["--fleet", "2", "--fleet-bind", "not-an-addr"]);
        assert!(
            fleet_config_from_args(&bad_bind)
                .unwrap_err()
                .contains("routable"),
            "bad bind must fail validation"
        );

        let bad_net = Args::parse(["--fleet", "2", "--net-faults", "tsunami"]);
        assert!(fleet_config_from_args(&bad_net).is_err());
    }

    #[test]
    fn storm_env_round_trips_through_the_flag_grammar() {
        let storm = parse_storm_flag("kill:41:3").unwrap();
        let rendered = render_storm(&storm);
        let reparsed = parse_storm_flag(&rendered).unwrap();
        assert_eq!(reparsed.plan, storm.plan);
    }
}
