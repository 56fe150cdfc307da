//! The fleet transport: crash-tolerant coordinator/worker sharding of
//! the sweep matrix over a line-framed local socket, with lease-based
//! reassignment and a deterministic journal merge.
//!
//! `--fleet N` shards the supervised sweep across `N` worker
//! *processes*. The fleet is one executor of the supervisor's single
//! scheduler: the supervisor compiles the cell list, builds the
//! [`LeaseTable`](chopin_fleet::LeaseTable) over typed cell outcomes,
//! absorbs any resumed cells and assembles the report; this module only
//! carries leases (cell + deadline + attempt) over the wire to whichever
//! worker asks next and feeds the replies back into the table. Retry,
//! backoff and quarantine are therefore the table's, identical in every
//! mode. Workers are crash domains, not trust domains: a worker that is
//! SIGKILLed, aborts, or stops heartbeating merely returns its leases to
//! the pool — the cells are re-leased to surviving workers with the same
//! seeded full-jitter backoff. Worker *slots* carry a crash budget
//! ([`FleetConfig::max_worker_crashes`]): a slot is respawned under a
//! fresh worker id until the budget runs out, then quarantined.
//!
//! Every worker runs its cells on the in-process
//! [`SweepCellRunner`](crate::supervisor::SweepCellRunner) and appends
//! completed cells to its own fingerprinted journal (`<base>.w<id>`), so
//! no two processes ever contend on one file. On `--resume` (in any
//! isolation mode) the supervisor absorbs the base journal *and* every
//! sibling worker journal, resolving duplicate completions (a stolen
//! lease finishing twice, a re-lease racing its original) by the fixed
//! `(attempt, worker)` tiebreak in [`chopin_fleet::CellMerge`]. Because
//! cells are deterministic and results are assembled in schedule order,
//! the merged output is byte-identical to a sequential `--isolation
//! process` run — the property `artifact chaos --check --workers` and the
//! `fleet` integration test pin.
//!
//! A `Done` payload is decoded when it arrives; one that does not decode
//! is a cell failure (`worker payload: …`). Failure reasons cross the
//! wire in the journal's quarantine-reason encoding, so the whole crash
//! taxonomy survives.
//!
//! The wire protocol ([`chopin_fleet::protocol`]) uses the same
//! `@name field …` line framing and the same line escape as the sandbox
//! heartbeat pipe; payloads are the cell-record codec's requests and
//! responses (`codec.rs`). It runs over a TCP socket
//! (loopback by default) so external workers can attach with
//! `--fleet-connect ADDR` (satisfying rule R1202's appetite for more
//! workers without more local spawns).

use crate::cli::Args;
use crate::codec;
use crate::journal::{worker_journal_path, CellKey, CellProvenance, Journal, JournalEntry};
use crate::sandbox::{status_signal, CellRequest, CrashReport};
use crate::supervisor::{
    absorb_recovered, cell_seed, lock, open_journal, settle, Cell, CellOutcome, CellTable, Drained,
    QuarantineReason, SuperviseError,
};
use chopin_core::sweep::SweepConfig;
use chopin_faults::hard::splitmix64;
use chopin_faults::net::NetFaultPlan;
use chopin_faults::{
    parse_net_flag, FaultPlan, FrameFate, HardFaultKind, SupervisorPolicy, NET_PRESET_NAMES,
};
use chopin_fleet::protocol;
use chopin_fleet::{
    admission, parse_storm_flag, FleetConfig, FleetFrame, Grant, Liveness, WorkerStormPlan,
};
use chopin_obs::metrics::fleet_metrics;
use chopin_obs::MetricsRegistry;
use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::limits::{die_by_signal, SIGKILL};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How often a worker's heartbeat thread beats, in milliseconds.
const HEARTBEAT_EVERY_MS: u64 = 500;

/// Coordinator-side silence threshold before a worker is declared dead
/// and its leases reassigned. Generous (20 beats) because a beat only
/// needs the worker's heartbeat *thread* alive, not the cell.
const HEARTBEAT_TIMEOUT_MS: u64 = 10_000;

/// Event-loop poll ceiling: lease expiry and heartbeat staleness are
/// re-checked at least this often, in milliseconds.
const POLL_MS: u64 = 250;

/// Worker ids for `--fleet-connect` attachers are assigned from this
/// base, far above any local slot id (`slot + N * generation`).
const EXTERNAL_WORKER_BASE: u64 = 1 << 32;

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

/// How long a takeover coordinator waits for the primary's workers to
/// reconnect before spawning its own.
const STANDBY_RESCUE_MS: u64 = 5_000;

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
/// (worker count), `--lease-deadline MS` (lease expiry), `--fleet-storm
/// KIND[:SEED[:STRIDE]]` (the worker-kill storm), `--fleet-bind
/// HOST:PORT` (routable listener address), `--fleet-token TOKEN`
/// (per-run admission token), `--net-faults PRESET[:SEED]` (the seeded
/// network-fault shim), `--fleet-standby ADDR` (run as the standby
/// coordinator for the primary at `ADDR`) and `--fleet-await-standby`
/// (the primary issues no leases until a standby has adopted — the
/// armed-failover drill mode).
///
/// # Errors
///
/// A human-readable message when a value is unparsable, a preset is
/// unknown, validation fails, or a satellite flag appears without
/// `--fleet` itself.
pub fn fleet_config_from_args(args: &Args) -> Result<Option<FleetConfig>, String> {
    if !args.has("fleet") {
        for flag in [
            "lease-deadline",
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
    if args.has("lease-deadline") {
        let ms: u64 = args
            .get_or("lease-deadline", 0u64)
            .map_err(|e| e.to_string())?;
        config.plan.lease_deadline_ms = Some(ms);
    }
    if args.has("fleet-storm") {
        let flag = args
            .value("fleet-storm")
            .ok_or("--fleet-storm needs a preset (kill or abort)")?;
        config.storm = Some(parse_storm_flag(flag)?);
    }
    if args.has("fleet-bind") {
        let addr = args
            .value("fleet-bind")
            .ok_or("--fleet-bind needs HOST:PORT (e.g. 0.0.0.0:7400)")?;
        config.bind = Some(addr.to_string());
    }
    if args.has("fleet-token") {
        let token = args
            .value("fleet-token")
            .ok_or("--fleet-token needs a token value")?;
        config.token = Some(token.to_string());
    }
    if args.has("net-faults") {
        let flag = args.value("net-faults").ok_or_else(|| {
            format!(
                "--net-faults needs a preset ({}), optionally PRESET:SEED",
                NET_PRESET_NAMES.join(", ")
            )
        })?;
        config.net = Some(parse_net_flag(flag)?);
    }
    if args.has("fleet-standby") {
        let addr = args
            .value("fleet-standby")
            .ok_or("--fleet-standby needs the primary coordinator's address")?;
        config.standby_of = Some(addr.to_string());
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
    let storm = match args.value("fleet-storm") {
        None => None,
        Some(flag) => match parse_storm_flag(flag) {
            Ok(storm) => Some(storm),
            Err(e) => {
                eprintln!("error: {e}");
                return Some(2);
            }
        },
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
    let storm = match std::env::var(protocol::ENV_FLEET_STORM) {
        Err(_) => None,
        Ok(flag) => match parse_storm_flag(&flag) {
            Ok(storm) => Some(storm),
            Err(e) => {
                eprintln!("error: bad {}: {e}", protocol::ENV_FLEET_STORM);
                return 2;
            }
        },
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
        crash_reports = run_transport(
            &config,
            &faults,
            sweep,
            cells,
            &mut table,
            journal_path.as_deref(),
            fingerprint,
            &mut metrics,
            Transport {
                listener,
                addr,
                epoch: 1,
                spawn_workers: true,
                rescue_after_ms: None,
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

    let span = WallSpan::begin();
    let now_ms = |span: &WallSpan| span.elapsed_ms() as u64;
    // Wait for admission and learn the primary's epoch.
    let mut epoch = 0u32;
    let mut admitted = false;
    while !admitted {
        if now_ms(&span) > HEARTBEAT_TIMEOUT_MS {
            return Err(SuperviseError::Isolation(format!(
                "the primary at {primary} never admitted this standby"
            )));
        }
        match reader.next_line() {
            LineEvent::TimedOut => {}
            LineEvent::Eof => {
                return Err(SuperviseError::Isolation(format!(
                    "the primary at {primary} hung up before admitting this standby"
                )));
            }
            LineEvent::Line(line) => match protocol::parse(&line) {
                Some(FleetFrame::Welcome { epoch: e, .. }) => {
                    epoch = e;
                    admitted = true;
                }
                Some(FleetFrame::Reject { reason }) => {
                    return Err(SuperviseError::Isolation(format!(
                        "the primary at {primary} rejected this standby: {reason}"
                    )));
                }
                _ => {}
            },
        }
    }
    if !send(
        &mut stream,
        &FleetFrame::Adopt {
            addr: my_addr.clone(),
            fingerprint: format!("{fingerprint:016x}"),
        },
    ) {
        return Err(SuperviseError::Isolation(
            "standby lost the primary connection while adopting".to_string(),
        ));
    }
    eprintln!(
        "fleet: standby registered with primary {primary} (epoch {epoch}), \
         watching heartbeats; successor address is {my_addr}"
    );

    // Watch the primary's heartbeat. Silence past the reaper timeout or
    // a hangup triggers takeover; a Drain means the run finished and we
    // only reconstruct the report. A Reject here means the adoption
    // itself was refused (fingerprint mismatch).
    let mut last_beat = now_ms(&span);
    let mut drained = false;
    loop {
        let now = now_ms(&span);
        match reader.next_line() {
            LineEvent::TimedOut => {
                if now.saturating_sub(last_beat) > HEARTBEAT_TIMEOUT_MS {
                    break;
                }
            }
            LineEvent::Eof => break,
            LineEvent::Line(line) => match protocol::parse(&line) {
                Some(FleetFrame::Beat { .. }) => last_beat = now,
                Some(FleetFrame::Drain) => {
                    drained = true;
                    break;
                }
                Some(FleetFrame::Reject { reason }) => {
                    return Err(SuperviseError::Isolation(format!(
                        "the primary at {primary} rejected this standby: {reason}"
                    )));
                }
                _ => {}
            },
        }
    }
    let _ = stream.shutdown(Shutdown::Both);

    let seeds: Vec<u64> = cells.iter().map(|(_, cell)| cell_seed(cell)).collect();
    let deadline_ms = config.plan.deadline_ms();

    if drained {
        // The primary finished the sweep itself. Reconstruct the same
        // report from the merged journals; grace-loop briefly in case
        // the base journal's last append is still landing.
        let grace = WallSpan::begin();
        loop {
            let mut table = CellTable::new(seeds.clone(), policy, deadline_ms);
            let mut journal = Journal::load(&journal_path).ok();
            let absorbed = absorb_recovered(
                &mut table,
                cells,
                &mut journal,
                Some(journal_path.as_path()),
                fingerprint,
            );
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
    let mut table = CellTable::new(seeds, policy, deadline_ms);
    let mut journal = Some(open_journal(&journal_path, fingerprint, true)?);
    let absorbed = absorb_recovered(
        &mut table,
        cells,
        &mut journal,
        Some(journal_path.as_path()),
        fingerprint,
    );
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
        crash_reports = run_transport(
            &config,
            &faults,
            sweep,
            cells,
            &mut table,
            Some(journal_path.as_path()),
            fingerprint,
            &mut metrics,
            Transport {
                listener,
                addr: my_addr,
                epoch: epoch + 1,
                spawn_workers: false,
                rescue_after_ms: Some(STANDBY_RESCUE_MS),
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

/// An event delivered to the coordinator loop by its reader, acceptor
/// and reaper threads. Connections are identified by a local counter
/// until their `Hello` binds them to a worker id.
enum Event {
    /// A connection sent its `Hello`; the write half rides along.
    Joined {
        conn: u64,
        hint: Option<u64>,
        token: Option<String>,
        stream: TcpStream,
    },
    /// A post-join frame.
    Frame { conn: u64, frame: FleetFrame },
    /// The connection closed or errored.
    Eof { conn: u64 },
    /// A locally-spawned worker process exited.
    ChildExit {
        slot: usize,
        worker: u64,
        clean: bool,
        signal: Option<i32>,
    },
}

/// A joined connection: the worker it speaks for and the write half.
struct Peer {
    worker: u64,
    stream: TcpStream,
}

/// One local worker slot: respawned with a fresh id on each crash until
/// its crash budget runs out.
struct SlotState {
    worker: u64,
    generation: u32,
    crashes: u32,
    alive: bool,
    quarantined: bool,
}

/// Coordinator state shared by the event handlers.
struct FleetState<'a> {
    cells: &'a [(usize, Cell)],
    table: &'a mut CellTable,
    /// Joined connections by connection id.
    peers: BTreeMap<u64, Peer>,
    /// Worker id → connection id, for targeted shutdown.
    worker_conns: BTreeMap<u64, u64>,
    /// The heartbeat reaper: staleness, idempotent death declaration,
    /// revival on reconnect ([`chopin_fleet::Liveness`]).
    liveness: Liveness,
    slots: Vec<SlotState>,
    reports: Vec<CrashReport>,
    spawned: u64,
    deaths: u64,
    quarantined_slots: u64,
    completions: u64,
    next_external: u64,
    journal_base: Option<String>,
    fingerprint: u64,
    /// `CHOPIN_FLEET_DIE_AFTER`: SIGKILL the coordinator after this
    /// many completions (the integration test's crash trigger).
    hard_die: Option<u64>,
    /// This incarnation's nonce, carried in `Welcome` and required as an
    /// echo on `Done`/`Fail` — the fence against stale completions from
    /// a previous coordinator's lease-id space.
    coord: u64,
    /// Logical hand-off depth: the primary serves 1, takeovers increment.
    epoch: u32,
    /// Per-run admission token (`--fleet-token`), if any.
    expected_token: Option<String>,
    /// The seeded net-fault shim over the worker links (`--net-faults`).
    net: Option<NetFaultPlan>,
    /// Per-worker outbound frame counter feeding the shim's fate rolls.
    net_seq: BTreeMap<u64, u64>,
    /// Shim-delayed outbound frames: `(due_ms, conn, frame)`.
    delayed: Vec<(u64, u64, FleetFrame)>,
    /// Connections registered as standby coordinators (exempt from the
    /// shim and from worker accounting).
    standby_conns: BTreeSet<u64>,
    /// The advertised successor address, broadcast to every worker.
    successor: Option<String>,
    net_dropped: u64,
    net_delayed: u64,
    net_duplicated: u64,
    net_partitioned: u64,
    auth_rejected: u64,
    stale_fenced: u64,
    revived: u64,
}

impl FleetState<'_> {
    /// Write a frame straight to the connection, bypassing the net-fault
    /// shim — the control plane (welcomes, rejections, drains, standby
    /// advertisements) stays reliable so chaos stays convergent.
    fn send_raw(&mut self, conn: u64, frame: &FleetFrame) {
        if let Some(peer) = self.peers.get_mut(&conn) {
            let line = format!("{}\n", protocol::render(frame));
            let _ = peer.stream.write_all(line.as_bytes());
        }
    }

    /// Send a data-plane frame through the net-fault shim: a partition
    /// window swallows it; otherwise the seeded per-frame fate may drop,
    /// delay or duplicate it. Without `--net-faults` this is a plain
    /// write.
    fn send(&mut self, conn: u64, frame: &FleetFrame, now: u64) {
        let data_plane = matches!(frame, FleetFrame::Lease { .. } | FleetFrame::Wait { .. });
        if data_plane && !self.standby_conns.contains(&conn) {
            if let Some(plan) = self.net {
                let Some(worker) = self.peers.get(&conn).map(|p| p.worker) else {
                    return;
                };
                if plan.partitioned(worker, now) {
                    self.net_partitioned += 1;
                    return;
                }
                let seq = self.net_seq.entry(worker).or_insert(0);
                *seq += 1;
                let seq = *seq;
                match plan.fate(worker, seq) {
                    FrameFate::Deliver => {}
                    FrameFate::Drop => {
                        self.net_dropped += 1;
                        return;
                    }
                    FrameFate::Delay(ms) => {
                        self.net_delayed += 1;
                        self.delayed.push((now + ms, conn, frame.clone()));
                        return;
                    }
                    FrameFate::Duplicate => {
                        self.net_duplicated += 1;
                        self.send_raw(conn, frame);
                    }
                }
            }
        }
        self.send_raw(conn, frame);
    }

    /// Deliver every shim-delayed frame whose due time has passed.
    fn flush_delayed(&mut self, now: u64) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, conn, frame) = self.delayed.remove(i);
                self.send_raw(conn, &frame);
            } else {
                i += 1;
            }
        }
    }

    /// Whether an inbound frame is swallowed by an active partition
    /// window. Only the worker data plane (`Next`/`Done`/`Fail`/`Beat`)
    /// partitions — `@beat` included, so the reaper sees real silence.
    fn inbound_blocked(&mut self, conn: u64, frame: &FleetFrame, now: u64) -> bool {
        let Some(plan) = self.net else { return false };
        if self.standby_conns.contains(&conn) {
            return false;
        }
        let Some(worker) = self.peers.get(&conn).map(|p| p.worker) else {
            return false;
        };
        let data_plane = matches!(
            frame,
            FleetFrame::Next { .. }
                | FleetFrame::Done { .. }
                | FleetFrame::Fail { .. }
                | FleetFrame::Beat { .. }
        );
        if data_plane && plan.partitioned(worker, now) {
            self.net_partitioned += 1;
            return true;
        }
        false
    }

    /// Admit a joined connection: check the run token, assign (or
    /// honour) its worker id and welcome it with the journal
    /// fingerprint, base path and this incarnation's coord/epoch.
    fn admit(
        &mut self,
        conn: u64,
        hint: Option<u64>,
        token: Option<String>,
        mut stream: TcpStream,
        now: u64,
    ) {
        if !admission(self.expected_token.as_deref(), token.as_deref()) {
            self.auth_rejected += 1;
            eprintln!("fleet: refusing a connection: auth token mismatch");
            let line = format!(
                "{}\n",
                protocol::render(&FleetFrame::Reject {
                    reason: "auth token mismatch: this run requires --fleet-token".to_string(),
                })
            );
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let worker = hint.unwrap_or_else(|| {
            let id = self.next_external;
            self.next_external += 1;
            id
        });
        // A reconnect under the same id replaces the old connection.
        if let Some(old) = self.worker_conns.insert(worker, conn) {
            self.standby_conns.remove(&old);
            if let Some(peer) = self.peers.remove(&old) {
                let _ = peer.stream.shutdown(Shutdown::Both);
            }
        }
        self.peers.insert(conn, Peer { worker, stream });
        if self.liveness.revive(worker, now) {
            self.revived += 1;
            eprintln!("fleet: worker {worker} reconnected after being reaped; revived");
        }
        let welcome = FleetFrame::Welcome {
            worker,
            fingerprint: format!("{:016x}", self.fingerprint),
            coord: self.coord,
            epoch: self.epoch,
            journal: self.journal_base.clone(),
        };
        self.send_raw(conn, &welcome);
        if let Some(addr) = self.successor.clone() {
            self.send_raw(conn, &FleetFrame::Standby { addr });
        }
    }

    /// Declare a worker dead exactly once: file a crash report per held
    /// lease, return its leases to the pool, drop its connection.
    /// Returns `false` when the worker was already declared.
    fn declare_dead(&mut self, worker: u64, now: u64, signal: Option<i32>) -> bool {
        let last_beat = self.liveness.last_seen(worker);
        if !self.liveness.declare_dead(worker) {
            return false;
        }
        self.deaths += 1;
        for cell_idx in self.table.held_cells(worker) {
            let (_, cell) = &self.cells[cell_idx];
            self.reports.push(CrashReport {
                benchmark: cell.benchmark.clone(),
                collector: cell.collector.to_string(),
                heap_factor: cell.heap_factor,
                outcome: "worker-died".to_string(),
                exit_code: None,
                signal,
                last_heartbeat_ms: last_beat,
                peak_rss_bytes: None,
                wall_ms: now,
            });
        }
        self.table.worker_dead(worker, now);
        if let Some(conn) = self.worker_conns.remove(&worker) {
            if let Some(peer) = self.peers.remove(&conn) {
                let _ = peer.stream.shutdown(Shutdown::Both);
            }
        }
        true
    }

    fn slot_of(&self, worker: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.worker == worker)
    }
}

/// Spawns local worker processes (this same executable, marked via the
/// environment) and reaps them onto the event channel.
struct Spawner {
    exe: PathBuf,
    addr: String,
    storm_env: Option<String>,
    token_env: Option<String>,
    tx: mpsc::Sender<Event>,
}

impl Spawner {
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
            let _ = tx.send(Event::ChildExit {
                slot,
                worker,
                clean,
                signal,
            });
        });
        Ok(())
    }
}

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
        let _ = tx.send(Event::Eof { conn });
        return;
    };
    let mut write_half = Some(stream);
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let Some(frame) = protocol::parse(&line) else {
            continue;
        };
        match (&frame, write_half.take()) {
            // The first frame must be the Hello; the write half rides
            // along so the coordinator owns all outbound traffic.
            (FleetFrame::Hello { worker, token }, Some(stream)) => {
                let hint = *worker;
                let token = token.clone();
                if tx
                    .send(Event::Joined {
                        conn,
                        hint,
                        token,
                        stream,
                    })
                    .is_err()
                {
                    return;
                }
            }
            (_, Some(stream)) => {
                // Pre-Hello garbage: keep waiting for the Hello.
                write_half = Some(stream);
            }
            (_, None) => {
                if tx.send(Event::Frame { conn, frame }).is_err() {
                    return;
                }
            }
        }
    }
    let _ = tx.send(Event::Eof { conn });
}

/// Quarantine or respawn a local slot after its worker crashed. The
/// caller has already declared the old worker dead.
fn crash_slot(st: &mut FleetState<'_>, spawner: &Spawner, slot: usize, config: &FleetConfig) {
    let done = st.table.is_done();
    st.slots[slot].alive = false;
    st.slots[slot].crashes += 1;
    if done || st.slots[slot].quarantined {
        return;
    }
    if st.slots[slot].crashes >= config.max_worker_crashes {
        st.slots[slot].quarantined = true;
        st.quarantined_slots += 1;
        eprintln!(
            "fleet: worker slot {slot} quarantined after {} crash(es)",
            st.slots[slot].crashes
        );
        return;
    }
    st.slots[slot].generation += 1;
    let worker =
        slot as u64 + u64::from(config.plan.workers) * u64::from(st.slots[slot].generation);
    st.slots[slot].worker = worker;
    match spawner.spawn(slot, worker) {
        Ok(()) => {
            st.slots[slot].alive = true;
            st.spawned += 1;
        }
        Err(e) => {
            eprintln!("fleet: could not respawn worker slot {slot}: {e}");
            st.slots[slot].quarantined = true;
            st.quarantined_slots += 1;
        }
    }
}

/// Declare workers that stopped heartbeating dead and respawn their
/// slots. A worker whose process is merely wedged (not exited) keeps
/// its socket open, so the reaper never fires for it — staleness is the
/// only way its leases come back.
fn check_heartbeats(st: &mut FleetState<'_>, spawner: &Spawner, config: &FleetConfig, now: u64) {
    for worker in st.liveness.stale(now) {
        if st.net.is_some() {
            // Under injected net faults silence usually means partition,
            // not death: reassign the leases but leave the slot alone —
            // the process is alive and will reconnect (revive). A real
            // exit still respawns via its ChildExit event.
            eprintln!(
                "fleet: worker {worker} went silent under net faults; \
                 leases reassigned, awaiting reconnect"
            );
            st.declare_dead(worker, now, None);
        } else {
            eprintln!("fleet: worker {worker} went silent; reassigning its leases");
            st.declare_dead(worker, now, None);
            if let Some(slot) = st.slot_of(worker) {
                crash_slot(st, spawner, slot, config);
            }
        }
    }
}

/// Handle one post-join frame. Only a `Done` can error (the soft
/// die-after test hook aborts the coordinator mid-run).
fn handle_frame(
    st: &mut FleetState<'_>,
    conn: u64,
    frame: FleetFrame,
    now: u64,
    faults: &Option<FaultPlan>,
    sweep: &SweepConfig,
    config: &FleetConfig,
) -> Result<(), SuperviseError> {
    let Some(worker) = st.peers.get(&conn).map(|p| p.worker) else {
        return Ok(());
    };
    if !st.standby_conns.contains(&conn) {
        st.liveness.observe(worker, now);
    }
    match frame {
        FleetFrame::Next { .. } => {
            // The armed-failover drill: no lease leaves the primary
            // until a standby has adopted, so a drill's coordinator
            // death always has a successor to hand over to. Takeover
            // epochs are exempt — the drill armed before epoch 1 ended.
            if config.await_standby && st.epoch == 1 && st.successor.is_none() {
                st.send(conn, &FleetFrame::Wait { ms: POLL_MS }, now);
                return Ok(());
            }
            match st.table.grant(worker, now) {
                Grant::Lease(grant) => {
                    let (_, cell) = &st.cells[grant.cell];
                    let request = CellRequest {
                        cell: cell.clone(),
                        invocations: sweep.invocations,
                        iterations: sweep.iterations,
                        size: sweep.size,
                        faults: faults.clone(),
                        hard: None,
                    };
                    let lease = FleetFrame::Lease {
                        lease: grant.lease,
                        attempt: grant.attempt,
                        payload: codec::encode(&request),
                    };
                    st.send(conn, &lease, now);
                }
                Grant::Wait(ms) => st.send(conn, &FleetFrame::Wait { ms }, now),
                Grant::Drain => st.send_raw(conn, &FleetFrame::Drain),
            }
        }
        FleetFrame::Done {
            lease,
            coord,
            payload,
            ..
        } => {
            // A completion echoing a stale coordinator nonce belongs to a
            // previous incarnation's lease-id space: fence it — this
            // incarnation's ids restart at 0 and could collide.
            if coord != st.coord {
                st.stale_fenced += 1;
                return Ok(());
            }
            // An unreadable payload is a cell failure, exactly as the
            // process backend treats one.
            let outcome = match codec::decode(&payload) {
                Ok(outcome) => outcome,
                Err(e) => {
                    let reason = QuarantineReason::Errored(format!("worker payload: {e}"));
                    st.table.fail(lease, &codec::encode(&reason), now);
                    return Ok(());
                }
            };
            // A late Done from a stolen lease is rejected by the table.
            if !st.table.complete(lease, outcome) {
                return Ok(());
            }
            st.completions += 1;
            if st.hard_die.is_some_and(|limit| st.completions >= limit) {
                // Integration-test hook: a real coordinator crash — no
                // cleanup, no persisted base journal.
                die_by_signal(SIGKILL);
            }
            if let Some(limit) = config.die_after {
                if st.completions >= limit {
                    return Err(SuperviseError::Isolation(format!(
                        "fleet coordinator aborted after {limit} completion(s) \
                         (die-after test hook); worker journals remain for --resume"
                    )));
                }
            }
        }
        FleetFrame::Fail {
            lease,
            coord,
            reason,
            ..
        } => {
            if coord != st.coord {
                st.stale_fenced += 1;
                return Ok(());
            }
            st.table.fail(lease, &reason, now);
        }
        FleetFrame::Adopt { addr, fingerprint } => {
            let want = format!("{:016x}", st.fingerprint);
            if fingerprint != want {
                eprintln!(
                    "fleet: rejecting standby at {addr}: fingerprint {fingerprint} does not \
                     match this sweep ({want})"
                );
                st.send_raw(
                    conn,
                    &FleetFrame::Reject {
                        reason: "standby fingerprint mismatch: different experiment".to_string(),
                    },
                );
                st.worker_conns.remove(&worker);
                if let Some(peer) = st.peers.remove(&conn) {
                    let _ = peer.stream.shutdown(Shutdown::Both);
                }
                return Ok(());
            }
            st.standby_conns.insert(conn);
            st.liveness.forget(worker);
            st.successor = Some(addr.clone());
            eprintln!(
                "fleet: standby coordinator registered at {addr}; workers will fail over to it"
            );
            let worker_conns: Vec<u64> = st
                .peers
                .keys()
                .filter(|c| !st.standby_conns.contains(c))
                .copied()
                .collect();
            for c in worker_conns {
                st.send_raw(c, &FleetFrame::Standby { addr: addr.clone() });
            }
        }
        // Beat only refreshes liveness (done above); the rest are
        // coordinator→worker frames echoed back by a confused peer.
        _ => {}
    }
    Ok(())
}

/// The transport's bind/epoch parameters: the primary binds fresh and
/// spawns its pool at epoch 1; a takeover inherits the standby's
/// pre-bound listener, serves at the next epoch, and only spawns its own
/// workers if none of the primary's reconnect within the rescue window.
struct Transport {
    listener: TcpListener,
    addr: String,
    epoch: u32,
    spawn_workers: bool,
    rescue_after_ms: Option<u64>,
}

/// Mint a coordinator incarnation's `coord` nonce. Every input is
/// diffused through `splitmix64` *before* it is combined with the next:
/// a raw `pid ^ fingerprint ^ epoch` XOR is not injective across
/// incarnations. A standby spawned just before its primary gets a
/// neighbouring pid, and whenever `pid_a ^ pid_b == epoch_a ^ epoch_b`
/// (pids `4k+1`/`4k+2` with epochs 1/2 — a quarter of consecutive-pid
/// spawns) the raw XORs cancel, the two incarnations mint the *same*
/// nonce, and the stale-completion fence goes vacuous: a veteran
/// worker's resent epoch-1 `Done` lands on the colliding epoch-2 lease
/// id and corrupts the merge.
fn incarnation_nonce(pid: u64, fingerprint: u64, epoch: u32) -> u64 {
    splitmix64(pid ^ splitmix64(fingerprint ^ splitmix64(u64::from(epoch))))
}

/// Drive the worker pool until the lease table drains (or the run dies).
/// Returns the crash reports collected from worker deaths.
#[allow(clippy::too_many_arguments)]
fn run_transport(
    config: &FleetConfig,
    faults: &Option<FaultPlan>,
    sweep: &SweepConfig,
    cells: &[(usize, Cell)],
    table: &mut CellTable,
    journal_base: Option<&Path>,
    fingerprint: u64,
    metrics: &mut MetricsRegistry,
    transport: Transport,
) -> Result<Vec<CrashReport>, SuperviseError> {
    let Transport {
        listener,
        addr,
        epoch,
        spawn_workers,
        rescue_after_ms,
    } = transport;
    let exe = std::env::current_exe().map_err(|e| {
        SuperviseError::Isolation(format!("fleet cannot resolve the worker executable: {e}"))
    })?;
    let hard_die: Option<u64> = std::env::var(protocol::ENV_FLEET_DIE_AFTER)
        .ok()
        .and_then(|v| v.parse().ok());
    // Every incarnation mints a fresh nonce; workers echo it on
    // `Done`/`Fail` so a successor can fence the previous incarnation's
    // completions out of its own lease-id space.
    let coord = incarnation_nonce(u64::from(std::process::id()), fingerprint, epoch);

    eprintln!(
        "fleet: coordinating {} cell(s) across {} worker(s) at {addr} (attach with --fleet-connect {addr})",
        table.len() - table.resolved_count(),
        config.plan.workers,
    );
    if epoch > 1 {
        eprintln!("fleet: serving epoch {epoch} (incarnation {coord:016x})");
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
    let spawner = Spawner {
        exe,
        addr: addr.clone(),
        storm_env: config.storm.as_ref().map(render_storm),
        token_env: config.token.clone(),
        tx,
    };

    let mut st = FleetState {
        cells,
        table,
        peers: BTreeMap::new(),
        worker_conns: BTreeMap::new(),
        liveness: Liveness::new(HEARTBEAT_TIMEOUT_MS),
        slots: Vec::new(),
        reports: Vec::new(),
        spawned: 0,
        deaths: 0,
        quarantined_slots: 0,
        completions: 0,
        next_external: EXTERNAL_WORKER_BASE,
        journal_base: journal_base.map(|p| p.to_string_lossy().into_owned()),
        fingerprint,
        hard_die,
        coord,
        epoch,
        expected_token: config.token.clone(),
        net: config.net,
        net_seq: BTreeMap::new(),
        delayed: Vec::new(),
        standby_conns: BTreeSet::new(),
        successor: None,
        net_dropped: 0,
        net_delayed: 0,
        net_duplicated: 0,
        net_partitioned: 0,
        auth_rejected: 0,
        stale_fenced: 0,
        revived: 0,
    };

    if spawn_workers {
        for slot in 0..config.plan.workers as usize {
            let worker = slot as u64;
            spawner.spawn(slot, worker).map_err(|e| {
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(&addr);
                SuperviseError::Isolation(format!("fleet cannot spawn worker {slot}: {e}"))
            })?;
            st.slots.push(SlotState {
                worker,
                generation: 0,
                crashes: 0,
                alive: true,
                quarantined: false,
            });
            st.spawned += 1;
        }
    }

    let span = WallSpan::begin();
    let now_ms = |span: &WallSpan| span.elapsed_ms() as u64;
    let mut fail: Option<SuperviseError> = None;
    let mut rescue_at: Option<u64> = rescue_after_ms.map(|ms| now_ms(&span) + ms);
    let mut last_standby_beat: u64 = 0;

    loop {
        let now = now_ms(&span);
        st.flush_delayed(now);
        let timeout = st
            .table
            .next_deadline_in(now)
            .map_or(POLL_MS, |d| d.clamp(1, POLL_MS));
        match rx.recv_timeout(Duration::from_millis(timeout)) {
            Ok(Event::Joined {
                conn,
                hint,
                token,
                stream,
            }) => {
                st.admit(conn, hint, token, stream, now_ms(&span));
            }
            Ok(Event::Frame { conn, frame }) => {
                if st.inbound_blocked(conn, &frame, now_ms(&span)) {
                    // The partition eats the frame; the worker's retry
                    // discipline re-sends it once the window heals.
                } else if let Err(e) =
                    handle_frame(&mut st, conn, frame, now_ms(&span), faults, sweep, config)
                {
                    fail = Some(e);
                    break;
                }
            }
            Ok(Event::Eof { conn }) => {
                if st.standby_conns.remove(&conn) {
                    eprintln!("fleet: standby coordinator disconnected");
                    st.worker_conns.retain(|_, c| *c != conn);
                    st.peers.remove(&conn);
                } else {
                    // Free the leases immediately; for local workers the
                    // reaper's ChildExit still drives respawn accounting.
                    if let Some(worker) = st.peers.get(&conn).map(|p| p.worker) {
                        st.declare_dead(worker, now_ms(&span), None);
                    }
                    st.peers.remove(&conn);
                }
            }
            Ok(Event::ChildExit {
                slot,
                worker,
                clean,
                signal,
            }) => {
                let now = now_ms(&span);
                if clean {
                    if st.slots.get(slot).map(|s| s.worker) == Some(worker) {
                        st.slots[slot].alive = false;
                    }
                } else {
                    st.declare_dead(worker, now, signal);
                    // Skip respawn if staleness already rotated the slot
                    // to a new generation.
                    if st.slots.get(slot).map(|s| s.worker) == Some(worker) {
                        crash_slot(&mut st, &spawner, slot, config);
                    }
                }
            }
            Err(_) => {}
        }

        let now = now_ms(&span);
        st.flush_delayed(now);
        let expired = st.table.expire(now);
        if expired > 0 {
            eprintln!("fleet: {expired} lease(s) expired; cells requeued");
        }
        check_heartbeats(&mut st, &spawner, config, now);

        // The primary proves its own liveness to any registered standby;
        // heartbeat loss is the standby's takeover trigger.
        if !st.standby_conns.is_empty()
            && now.saturating_sub(last_standby_beat) >= HEARTBEAT_EVERY_MS
        {
            last_standby_beat = now;
            let conns: Vec<u64> = st.standby_conns.iter().copied().collect();
            for conn in conns {
                st.send_raw(conn, &FleetFrame::Beat { worker: 0 });
            }
        }

        if st.table.is_done() {
            let conns: Vec<u64> = st.peers.keys().copied().collect();
            for conn in conns {
                st.send_raw(conn, &FleetFrame::Drain);
            }
            break;
        }
        let workers_connected = st.peers.keys().any(|c| !st.standby_conns.contains(c));
        if let Some(at) = rescue_at {
            if workers_connected || st.spawned > 0 {
                // At least one of the primary's workers made it across;
                // the successor never needs a pool of its own.
                rescue_at = None;
            } else if now >= at {
                rescue_at = None;
                eprintln!(
                    "fleet: no workers reconnected within the rescue window; \
                     spawning a fresh pool of {}",
                    config.plan.workers
                );
                for slot in 0..config.plan.workers as usize {
                    let worker = slot as u64;
                    if let Err(e) = spawner.spawn(slot, worker) {
                        fail = Some(SuperviseError::Isolation(format!(
                            "fleet cannot spawn rescue worker {slot}: {e}"
                        )));
                        break;
                    }
                    st.slots.push(SlotState {
                        worker,
                        generation: 0,
                        crashes: 0,
                        alive: true,
                        quarantined: false,
                    });
                    st.spawned += 1;
                }
                if fail.is_some() {
                    break;
                }
            }
        }
        if rescue_at.is_none() && !workers_connected && !st.slots.iter().any(|s| s.alive) {
            fail = Some(SuperviseError::Isolation(
                "the fleet lost every worker (crash budgets exhausted) before the \
                 matrix resolved; worker journals remain for --resume"
                    .to_string(),
            ));
            break;
        }
    }

    if fail.is_none() {
        drain_late_joiners(&mut st.slots, &rx, HEARTBEAT_TIMEOUT_MS);
    }
    // Wake the acceptor so its thread exits, then drop every peer.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&addr);
    for peer in st.peers.values() {
        let _ = peer.stream.shutdown(Shutdown::Both);
    }

    let lease_metrics = st.table.metrics();
    metrics.inc(fleet_metrics::WORKERS_SPAWNED, st.spawned);
    metrics.inc(fleet_metrics::WORKER_DEATHS, st.deaths);
    metrics.inc(fleet_metrics::WORKERS_QUARANTINED, st.quarantined_slots);
    metrics.inc(fleet_metrics::LEASES_ISSUED, lease_metrics.issued);
    metrics.inc(fleet_metrics::LEASES_EXPIRED, lease_metrics.expired);
    metrics.inc(fleet_metrics::LEASES_STOLEN, lease_metrics.stolen);
    metrics.inc(fleet_metrics::CELLS_REQUEUED, lease_metrics.requeued);
    metrics.inc(fleet_metrics::MERGE_CONFLICTS, lease_metrics.conflicts);
    metrics.inc(fleet_metrics::NET_DROPPED, st.net_dropped);
    metrics.inc(fleet_metrics::NET_DELAYED, st.net_delayed);
    metrics.inc(fleet_metrics::NET_DUPLICATED, st.net_duplicated);
    metrics.inc(fleet_metrics::NET_PARTITIONED, st.net_partitioned);
    metrics.inc(fleet_metrics::AUTH_REJECTED, st.auth_rejected);
    metrics.inc(fleet_metrics::STALE_FENCED, st.stale_fenced);
    metrics.inc(fleet_metrics::WORKERS_REVIVED, st.revived);

    let reports = std::mem::take(&mut st.reports);
    match fail {
        Some(e) => Err(e),
        None => Ok(reports),
    }
}

/// After a clean finish, answer every late-joining connection with
/// `Drain` until each spawned worker has exited or `grace_ms` has
/// passed. A worker whose `Hello` was still queued, or that had not
/// connected yet, when the matrix drained never got the final `Drain`;
/// without this it would retry a vanished coordinator for its whole
/// reconnect schedule.
fn drain_late_joiners(slots: &mut [SlotState], rx: &mpsc::Receiver<Event>, grace_ms: u64) {
    let span = WallSpan::begin();
    while slots.iter().any(|s| s.alive) {
        let left = grace_ms.saturating_sub(span.elapsed_ms() as u64);
        match rx.recv_timeout(Duration::from_millis(left)) {
            Ok(Event::Joined { mut stream, .. }) => {
                let line = format!("{}\n", protocol::render(&FleetFrame::Drain));
                let _ = stream.write_all(line.as_bytes());
                let _ = stream.shutdown(Shutdown::Both);
            }
            Ok(Event::ChildExit { slot, worker, .. }) => {
                if let Some(s) = slots.get_mut(slot).filter(|s| s.worker == worker) {
                    s.alive = false;
                }
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------
// The worker.
// ---------------------------------------------------------------------

fn send_frame(writer: &Mutex<TcpStream>, frame: &FleetFrame) -> bool {
    let line = format!("{}\n", protocol::render(frame));
    lock(writer).write_all(line.as_bytes()).is_ok()
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
struct WorkerSession {
    token: Option<String>,
    storm: Option<WorkerStormPlan>,
    me: Option<u64>,
    journal: Option<Journal>,
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
                if joined {
                    // The wire may have eaten our reply or the next
                    // Lease; resending both is idempotent (the lease
                    // table keys completions on the lease id).
                    if let Some(pending) = &s.pending {
                        if !send_frame(&writer, pending) {
                            break;
                        }
                    }
                    if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
                        break;
                    }
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
                            s.journal = base.and_then(|b| {
                                Journal::create(&worker_journal_path(Path::new(&b), me), fp).ok()
                            });
                        }
                        spawn_heartbeat(Arc::clone(&writer), me);
                        if let Some(pending) = &s.pending {
                            if !send_frame(&writer, pending) {
                                break;
                            }
                        }
                        if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
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
                            if let Some(pending) = &s.pending {
                                if !send_frame(&writer, pending) {
                                    break;
                                }
                            }
                            if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
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
                                if let Some(j) = s.journal.as_mut() {
                                    let _ = j.record(JournalEntry {
                                        key,
                                        record: outcome,
                                        provenance: Some(CellProvenance {
                                            attempt,
                                            worker: me,
                                        }),
                                    });
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
                        let sent = send_frame(&writer, &reply);
                        s.pending = Some(reply);
                        if !sent {
                            break;
                        }
                        if !send_frame(&writer, &FleetFrame::Next { worker: me }) {
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
        journal: None,
        successor: None,
        leases_received: 0,
        pending: None,
        last_lease: None,
        last_coord: 0,
        joined_once: false,
    };
    let mut attempts: u32 = 0;
    let mut backoff = RECONNECT_BASE_MS;
    loop {
        let target = match &session.successor {
            Some(successor) if attempts.is_multiple_of(2) => successor.clone(),
            _ => addr.to_string(),
        };
        match serve_coordinator(&target, &mut session, &mut attempts) {
            ServeEnd::Drained => return 0,
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

    /// A worker whose `Hello` is still queued when the matrix drains is
    /// answered with `Drain`, and the coordinator stops waiting once its
    /// spawned workers have exited.
    #[test]
    fn a_worker_joining_after_the_matrix_drained_is_told_to_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker_side = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (coordinator_side, _) = listener.accept().unwrap();
        let (tx, rx) = mpsc::channel();
        tx.send(Event::Joined {
            conn: 7,
            hint: Some(1),
            token: None,
            stream: coordinator_side,
        })
        .unwrap();
        tx.send(Event::ChildExit {
            slot: 0,
            worker: 1,
            clean: true,
            signal: None,
        })
        .unwrap();
        let mut slots = vec![SlotState {
            worker: 1,
            generation: 0,
            crashes: 0,
            alive: true,
            quarantined: false,
        }];
        let span = WallSpan::begin();
        drain_late_joiners(&mut slots, &rx, HEARTBEAT_TIMEOUT_MS);
        assert!(
            span.elapsed_ms() < HEARTBEAT_TIMEOUT_MS as u128,
            "the last worker's exit ends the wait"
        );
        assert!(!slots[0].alive);
        let mut line = String::new();
        BufReader::new(worker_side).read_line(&mut line).unwrap();
        assert_eq!(protocol::parse(line.trim_end()), Some(FleetFrame::Drain));
    }

    #[test]
    fn incarnation_nonces_survive_xor_cancelling_pid_epoch_pairs() {
        // Regression: the nonce used to be splitmix64(pid ^ fp ^ epoch),
        // so any pid pair whose XOR equals the epoch pair's XOR minted
        // the SAME nonce for both incarnations — e.g. a standby at pid
        // 4k+1 taking over (epoch 2) from a primary at pid 4k+2
        // (epoch 1). The fence against stale cross-epoch completions
        // was then vacuous and resent epoch-1 Dones corrupted the
        // epoch-2 merge on colliding lease ids.
        let fp = 0x000c_0ffe_e0dd_f00d_u64;
        for standby_pid in [1u64, 5, 1021, 40_961, 65_537] {
            let primary_pid = standby_pid ^ 3;
            assert_ne!(
                incarnation_nonce(primary_pid, fp, 1),
                incarnation_nonce(standby_pid, fp, 2),
                "primary pid {primary_pid} epoch 1 vs standby pid {standby_pid} epoch 2"
            );
        }
        // And the generic guarantees: epoch bumps and pid changes each
        // move the nonce on their own.
        assert_ne!(
            incarnation_nonce(1234, fp, 1),
            incarnation_nonce(1234, fp, 2)
        );
        assert_ne!(
            incarnation_nonce(1234, fp, 1),
            incarnation_nonce(1235, fp, 1)
        );
    }

    #[test]
    fn fleet_flags_parse_and_reject_orphans() {
        let none = Args::parse(["--quick"]);
        assert_eq!(fleet_config_from_args(&none).unwrap(), None);

        let orphan = Args::parse(["--lease-deadline", "500"]);
        assert!(fleet_config_from_args(&orphan)
            .unwrap_err()
            .contains("--fleet"));

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
            "--lease-deadline",
            "750",
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
        assert_eq!(config.plan.deadline_ms(), 750);
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
