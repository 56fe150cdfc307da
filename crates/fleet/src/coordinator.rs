//! The fleet coordinator as a sans-IO state machine.
//!
//! Every decision the coordinator makes lives here: admission, frame
//! dispatch, nonce fencing, standby adoption, the heartbeat reaper,
//! worker-slot respawn and quarantine, the successor's rescue window and
//! the drain. [`Coordinator::step`] takes one [`Input`] at a
//! caller-supplied millisecond clock and returns the [`Output`]s in the
//! order the caller must apply them; nothing in here reads a socket, a
//! clock or the environment.
//!
//! The transport (`chopin_harness::fleet`) is a pump around it: socket
//! lines, hang-ups and child exits become inputs, outputs become writes,
//! closes, spawns and crash reports, and a [`Input::Tick`] follows every
//! event. The `chopin-model` checker drives the same machine under its
//! virtual clock, so the decisions it explores are the ones that ship.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use chopin_faults::hard::splitmix64;

use crate::config::FleetConfig;
use crate::lease::{Grant, LeaseTable};
use crate::liveness::Liveness;
use crate::protocol::{admission, FleetFrame};

/// How often a worker beats, and how often the coordinator beats to a
/// registered standby, in milliseconds.
pub const HEARTBEAT_EVERY_MS: u64 = 500;

/// Silence after which a worker is declared dead and its leases
/// reassigned. Generous (20 beats) because a beat only needs the
/// worker's heartbeat *thread* alive, not the cell.
pub const HEARTBEAT_TIMEOUT_MS: u64 = 10_000;

/// Ceiling on [`Coordinator::next_deadline_in`]: heartbeat staleness and
/// standby beats are re-checked at least this often, in milliseconds.
pub const POLL_MS: u64 = 250;

/// How long a takeover coordinator waits for the primary's workers to
/// reconnect before spawning its own.
pub const STANDBY_RESCUE_MS: u64 = 5_000;

/// Worker ids for `--fleet-connect` attachers are assigned from this
/// base, far above any local slot id (`slot + N * generation`).
const EXTERNAL_WORKER_BASE: u64 = 1 << 32;

/// Mint a coordinator incarnation's nonce. Every input is diffused
/// through `splitmix64` *before* it is combined with the next: a raw
/// `pid ^ fingerprint ^ epoch` XOR is not injective across
/// incarnations. A standby spawned just before its primary gets a
/// neighbouring pid, and whenever `pid_a ^ pid_b == epoch_a ^ epoch_b`
/// (pids `4k+1`/`4k+2` with epochs 2/1 — a quarter of consecutive-pid
/// spawns) the raw XORs cancel, the two incarnations mint the *same*
/// nonce, and the stale-completion fence goes vacuous: a veteran
/// worker's resent epoch-1 `Done` lands on the colliding epoch-2 lease
/// id and corrupts the merge.
#[must_use]
pub fn incarnation_nonce(pid: u64, fingerprint: u64, epoch: u32) -> u64 {
    splitmix64(pid ^ splitmix64(fingerprint ^ splitmix64(u64::from(epoch))))
}

/// One thing that happened to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A connection's first frame, its `Hello`.
    Hello {
        /// The connection.
        conn: u64,
        /// The worker id a locally spawned worker was assigned.
        hint: Option<u64>,
        /// The offered run token.
        token: Option<String>,
    },
    /// A later frame on a connection.
    Frame {
        /// The connection.
        conn: u64,
        /// The frame.
        frame: FleetFrame,
    },
    /// The connection closed or errored.
    Eof(u64),
    /// A locally spawned worker process exited.
    Exited {
        /// The slot it was spawned for.
        slot: usize,
        /// The id it was spawned under.
        worker: u64,
        /// Whether it exited with status 0.
        clean: bool,
        /// The signal that killed it, if any.
        signal: Option<i32>,
    },
    /// Time passed: sweep expired leases, reap silent workers, beat to
    /// the standby, drain, rescue.
    Tick,
}

/// One effect for the caller to apply, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Write a frame to a connection.
    Send {
        /// The connection.
        conn: u64,
        /// The frame.
        frame: FleetFrame,
        /// The worker whose link the net-fault shim may fault: set only
        /// for `Lease` and `Wait` on a worker connection, so the control
        /// plane stays reliable and chaos stays convergent.
        shim: Option<u64>,
    },
    /// Shut a connection down.
    Close(u64),
    /// Start a local worker process.
    Spawn {
        /// The slot it fills.
        slot: usize,
        /// Its worker id.
        worker: u64,
    },
    /// A worker was declared dead; one crash report per held cell.
    Died {
        /// Schedule indices of the cells it held.
        cells: Vec<usize>,
        /// When it was last heard from.
        last_seen: Option<u64>,
        /// The signal that killed it, if known.
        signal: Option<i32>,
    },
    /// A line for the operator's log.
    Log(String),
    /// Every cell is resolved and every connection was told to drain.
    Drained,
    /// The run cannot finish; the message says why.
    Failed(String),
}

/// How the machine renders lease payloads and reads `Done` payloads.
#[derive(Clone)]
pub struct Codec<P, L> {
    /// The `Lease` payload of a cell (by schedule index): the request
    /// the worker runs.
    pub lease: L,
    /// Decode a `Done` payload. `Err` carries the reason the cell is
    /// failed with instead: a payload that does not decode is a cell
    /// failure, not a completion.
    pub decode: fn(&str) -> Result<P, String>,
}

impl<P, L> fmt::Debug for Codec<P, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Codec")
    }
}

/// Who this coordinator incarnation is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incarnation {
    /// Hand-off depth: the primary serves 1, each takeover adds one.
    pub epoch: u32,
    /// The nonce every `Done`/`Fail` must echo ([`incarnation_nonce`]).
    pub nonce: u64,
    /// The sweep fingerprint sent in `Welcome` and required of `Adopt`.
    pub fingerprint: u64,
    /// The journal base sent in `Welcome`.
    pub journal: Option<String>,
    /// `None` for a primary, which spawns its pool at start. A successor
    /// spawns one only if no worker joins within this many milliseconds.
    pub rescue_after_ms: Option<u64>,
    /// The worker ids of the journal shards (`<base>.w<id>`) a
    /// successor's takeover absorbed. Its pools spawn above every one: a
    /// fresh worker truncates its id's shard, and a predecessor's worker
    /// that reconnects after the rescue window may still be writing one.
    pub shards: Vec<u64>,
}

/// The counters the transport reports as `fleet.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Local worker processes spawned.
    pub spawned: u64,
    /// Workers declared dead.
    pub deaths: u64,
    /// Slots quarantined after spending their crash budget.
    pub quarantined: u64,
    /// `Done` frames that merged into the table.
    pub completions: u64,
    /// Connections refused for a wrong token.
    pub auth_rejected: u64,
    /// `Done`/`Fail` frames fenced for echoing another incarnation.
    pub stale_fenced: u64,
    /// Reaped workers that reconnected.
    pub revived: u64,
}

/// One local worker slot: respawned with a fresh id on each crash until
/// its crash budget runs out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Slot {
    worker: u64,
    generation: u32,
    crashes: u32,
    alive: bool,
    quarantined: bool,
}

/// The coordinator state machine over completion payloads `P`. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Coordinator<P, L = fn(usize) -> String> {
    table: LeaseTable<P>,
    liveness: Liveness,
    codec: Codec<P, L>,
    me: Incarnation,
    config: FleetConfig,
    slots: Vec<Slot>,
    /// Joined connection → the worker it speaks for (one each).
    peers: BTreeMap<u64, u64>,
    /// Connections registered as standby coordinators.
    standbys: BTreeSet<u64>,
    /// The advertised successor address, broadcast to every worker.
    successor: Option<String>,
    next_external: u64,
    rescue_at: Option<u64>,
    last_standby_beat: u64,
    drained: bool,
    failed: bool,
    counters: Counters,
}

fn send(conn: u64, frame: FleetFrame) -> Output {
    Output::Send {
        conn,
        frame,
        shim: None,
    }
}

impl<P: Ord + Clone + fmt::Debug, L: Fn(usize) -> String> Coordinator<P, L> {
    /// Start an incarnation over `table` (resumed cells already
    /// absorbed) at time `now`. A primary's outputs spawn its pool.
    #[must_use]
    pub fn start(
        config: &FleetConfig,
        me: Incarnation,
        table: LeaseTable<P>,
        codec: Codec<P, L>,
        now: u64,
    ) -> (Coordinator<P, L>, Vec<Output>) {
        let mut coordinator = Coordinator {
            table,
            liveness: Liveness::new(HEARTBEAT_TIMEOUT_MS),
            codec,
            rescue_at: me.rescue_after_ms.map(|ms| now + ms),
            me,
            config: config.clone(),
            slots: Vec::new(),
            peers: BTreeMap::new(),
            standbys: BTreeSet::new(),
            successor: None,
            next_external: EXTERNAL_WORKER_BASE,
            last_standby_beat: 0,
            drained: false,
            failed: false,
            counters: Counters::default(),
        };
        let mut out = Vec::new();
        if coordinator.me.rescue_after_ms.is_none() {
            coordinator.spawn_pool(0, &mut out);
        }
        (coordinator, out)
    }

    /// Apply one input at time `now`, returning the outputs in order.
    /// Once the matrix drained, the machine only answers late `Hello`s
    /// with `Drain` and tracks worker exits; once it failed, nothing.
    pub fn step(&mut self, input: Input, now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        if self.failed {
            return out;
        }
        match input {
            Input::Hello { conn, hint, token } => {
                self.admit(conn, hint, token.as_deref(), now, &mut out);
            }
            Input::Exited {
                slot,
                worker,
                clean,
                signal,
            } => {
                // Staleness may already have rotated the slot to a new
                // generation; then this exit belongs to a worker it
                // replaced.
                let current = self.slots.get(slot).is_some_and(|s| s.worker == worker);
                if clean || self.drained {
                    if current {
                        self.slots[slot].alive = false;
                    }
                } else {
                    self.declare_dead(worker, signal, now, &mut out);
                    if current {
                        self.crash_slot(slot, &mut out);
                    }
                }
            }
            _ if self.drained => {}
            Input::Frame { conn, frame } => self.frame(conn, frame, now, &mut out),
            Input::Eof(conn) => self.hang_up(conn, now, &mut out),
            Input::Tick => self.tick(now, &mut out),
        }
        out
    }

    /// The pump's poll timeout: milliseconds until the earliest lease or
    /// rescue deadline, clamped to `[1, POLL_MS]`.
    #[must_use]
    pub fn next_deadline_in(&self, now: u64) -> u64 {
        let rescue = self.rescue_at.map(|at| at.saturating_sub(now));
        self.table
            .next_deadline_in(now)
            .into_iter()
            .chain(rescue)
            .min()
            .map_or(POLL_MS, |d| d.clamp(1, POLL_MS))
    }

    /// The worker a connection speaks for, unless it is unjoined or a
    /// standby — what the net-fault shim keys inbound partitions on.
    #[must_use]
    pub fn worker_of(&self, conn: u64) -> Option<u64> {
        if self.standbys.contains(&conn) {
            return None;
        }
        self.peers.get(&conn).copied()
    }

    /// Whether any local worker process is still running.
    #[must_use]
    pub fn slots_alive(&self) -> bool {
        self.slots.iter().any(|s| s.alive)
    }

    /// The lease table.
    #[must_use]
    pub fn table(&self) -> &LeaseTable<P> {
        &self.table
    }

    /// Consume the machine, yielding its lease table for assembly.
    #[must_use]
    pub fn into_table(self) -> LeaseTable<P> {
        self.table
    }

    /// The report counters so far.
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Canonical rendering at time `now`, the way
    /// [`LeaseTable::snapshot`] renders the table: instants are rebased
    /// against `now`; report-only counters, the fixed configuration and
    /// the pacing of standby beats are left out. Liveness is rendered as
    /// the tracked and dead worker sets without their timestamps: those
    /// only matter once a worker has been silent for
    /// [`HEARTBEAT_TIMEOUT_MS`], and a clock that never runs that long
    /// (the model checker's never does) behaves the same whatever they
    /// are.
    #[must_use]
    pub fn snapshot(&self, now: u64) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "epoch {} nonce {:016x} drained={} failed={} rescue {:?} successor {:?} \
             next-external {} shards {:?}\n{}\npeers {:?} standbys {:?}\n",
            self.me.epoch,
            self.me.nonce,
            self.drained,
            self.failed,
            self.rescue_at.map(|at| at.saturating_sub(now)),
            self.successor,
            self.next_external,
            self.me.shards,
            self.liveness.members(),
            self.peers,
            self.standbys,
        );
        for (i, s) in self.slots.iter().enumerate() {
            let (alive, quarantined) = (u8::from(s.alive), u8::from(s.quarantined));
            let (w, g, c) = (s.worker, s.generation, s.crashes);
            let _ = writeln!(out, "slot {i} w{w} g{g} c{c} a{alive} q{quarantined}");
        }
        out.push_str(&self.table.snapshot(now));
        out
    }

    fn admit(
        &mut self,
        conn: u64,
        hint: Option<u64>,
        token: Option<&str>,
        now: u64,
        out: &mut Vec<Output>,
    ) {
        if self.drained {
            // A worker whose Hello was still queued, or that had not
            // connected yet, when the matrix drained never got the
            // final Drain; without this it would retry a vanished
            // coordinator for its whole reconnect schedule.
            out.push(send(conn, FleetFrame::Drain));
            out.push(Output::Close(conn));
            return;
        }
        if !admission(self.config.token.as_deref(), token) {
            self.counters.auth_rejected += 1;
            out.push(Output::Log(
                "fleet: refusing a connection: auth token mismatch".to_string(),
            ));
            let reason = "auth token mismatch: this run requires --fleet-token".to_string();
            out.push(send(conn, FleetFrame::Reject { reason }));
            out.push(Output::Close(conn));
            return;
        }
        let worker = hint.unwrap_or_else(|| {
            let id = self.next_external;
            self.next_external += 1;
            id
        });
        // A reconnect under the same id replaces the old connection.
        if let Some(old) = self.conn_of(worker) {
            self.standbys.remove(&old);
            self.peers.remove(&old);
            out.push(Output::Close(old));
        }
        self.peers.insert(conn, worker);
        // Someone made it across: a successor never needs a pool of its
        // own.
        self.rescue_at = None;
        if self.liveness.revive(worker, now) {
            self.counters.revived += 1;
            out.push(Output::Log(format!(
                "fleet: worker {worker} reconnected after being reaped; revived"
            )));
        }
        out.push(send(
            conn,
            FleetFrame::Welcome {
                worker,
                fingerprint: format!("{:016x}", self.me.fingerprint),
                coord: self.me.nonce,
                epoch: self.me.epoch,
                journal: self.me.journal.clone(),
            },
        ));
        if let Some(addr) = &self.successor {
            out.push(send(conn, FleetFrame::Standby { addr: addr.clone() }));
        }
    }

    fn frame(&mut self, conn: u64, frame: FleetFrame, now: u64, out: &mut Vec<Output>) {
        let Some(&worker) = self.peers.get(&conn) else {
            return;
        };
        let standby = self.standbys.contains(&conn);
        if !standby {
            self.liveness.observe(worker, now);
        }
        let shim = (!standby).then_some(worker);
        match frame {
            FleetFrame::Next { .. } => {
                // The armed-failover drill: no lease leaves the primary
                // until a standby has adopted, so a drill's coordinator
                // death always has a successor to hand over to. Takeover
                // epochs are exempt — the drill armed before epoch 1
                // ended.
                let frame = if self.config.await_standby
                    && self.me.epoch == 1
                    && self.successor.is_none()
                {
                    FleetFrame::Wait { ms: POLL_MS }
                } else {
                    match self.table.grant(worker, now) {
                        Grant::Lease(grant) => FleetFrame::Lease {
                            lease: grant.lease,
                            attempt: grant.attempt,
                            payload: (self.codec.lease)(grant.cell),
                        },
                        Grant::Wait(ms) => FleetFrame::Wait { ms },
                        Grant::Drain => {
                            out.push(send(conn, FleetFrame::Drain));
                            return;
                        }
                    }
                };
                out.push(Output::Send { conn, frame, shim });
            }
            FleetFrame::Done {
                lease,
                coord,
                payload,
                ..
            } => {
                if self.fenced(coord) {
                    return;
                }
                match (self.codec.decode)(&payload) {
                    // A late Done from a stolen lease is rejected by the
                    // table.
                    Ok(outcome) => {
                        if self.table.complete(lease, outcome) {
                            self.counters.completions += 1;
                        }
                    }
                    Err(reason) => {
                        self.table.fail(lease, &reason, now);
                    }
                }
            }
            FleetFrame::Fail {
                lease,
                coord,
                reason,
                ..
            } if !self.fenced(coord) => {
                self.table.fail(lease, &reason, now);
            }
            FleetFrame::Adopt { addr, fingerprint } => {
                let want = format!("{:016x}", self.me.fingerprint);
                if fingerprint == want {
                    self.adopt(conn, worker, addr, out);
                    return;
                }
                out.push(Output::Log(format!(
                    "fleet: rejecting standby at {addr}: fingerprint {fingerprint} does not \
                     match this sweep ({want})"
                )));
                let reason = "standby fingerprint mismatch: different experiment".to_string();
                out.push(send(conn, FleetFrame::Reject { reason }));
                self.peers.remove(&conn);
                // Its Hello started liveness tracking; a refused standby
                // held no lease, so its silence must not count as a
                // worker death.
                self.liveness.forget(worker);
                out.push(Output::Close(conn));
            }
            // Beat only refreshes liveness (done above); the rest are
            // coordinator→worker frames echoed back by a confused peer.
            _ => {}
        }
    }

    /// Whether a `Done`/`Fail` echoing `coord` belongs to another
    /// incarnation's lease-id space — this incarnation's ids restart at
    /// 0 and could collide — and so must be dropped (and counted).
    fn fenced(&mut self, coord: u64) -> bool {
        let stale = coord != self.me.nonce;
        if stale {
            self.counters.stale_fenced += 1;
        }
        stale
    }

    fn adopt(&mut self, conn: u64, worker: u64, addr: String, out: &mut Vec<Output>) {
        self.standbys.insert(conn);
        self.liveness.forget(worker);
        out.push(Output::Log(format!(
            "fleet: standby coordinator registered at {addr}; workers will fail over to it"
        )));
        for conn in self.peers.keys().filter(|c| !self.standbys.contains(c)) {
            out.push(send(*conn, FleetFrame::Standby { addr: addr.clone() }));
        }
        self.successor = Some(addr);
    }

    fn hang_up(&mut self, conn: u64, now: u64, out: &mut Vec<Output>) {
        if self.standbys.remove(&conn) {
            out.push(Output::Log(
                "fleet: standby coordinator disconnected".to_string(),
            ));
            self.peers.remove(&conn);
            out.push(Output::Close(conn));
            return;
        }
        // Free the leases at once; for a local worker its exit still
        // drives the respawn.
        if let Some(&worker) = self.peers.get(&conn) {
            self.declare_dead(worker, None, now, out);
        }
        if self.peers.remove(&conn).is_some() {
            out.push(Output::Close(conn));
        }
    }

    /// Declare a worker dead exactly once: report the cells it held,
    /// return its leases to the pool, drop its connection.
    fn declare_dead(&mut self, worker: u64, signal: Option<i32>, now: u64, out: &mut Vec<Output>) {
        let last_seen = self.liveness.last_seen(worker);
        if !self.liveness.declare_dead(worker) {
            return;
        }
        self.counters.deaths += 1;
        out.push(Output::Died {
            cells: self.table.held_cells(worker),
            last_seen,
            signal,
        });
        self.table.worker_dead(worker, now);
        if let Some(conn) = self.conn_of(worker) {
            self.peers.remove(&conn);
            out.push(Output::Close(conn));
        }
    }

    fn conn_of(&self, worker: u64) -> Option<u64> {
        let mut joined = self.peers.iter();
        joined.find(|(_, w)| **w == worker).map(|(conn, _)| *conn)
    }

    /// Quarantine or respawn a slot whose worker crashed (and was
    /// already declared dead).
    fn crash_slot(&mut self, slot: usize, out: &mut Vec<Output>) {
        let done = self.table.is_done();
        let s = &mut self.slots[slot];
        s.alive = false;
        s.crashes += 1;
        if done || s.quarantined {
            return;
        }
        if s.crashes >= self.config.max_worker_crashes {
            s.quarantined = true;
            self.counters.quarantined += 1;
            out.push(Output::Log(format!(
                "fleet: worker slot {slot} quarantined after {} crash(es)",
                s.crashes
            )));
            return;
        }
        s.generation += 1;
        s.worker = slot as u64 + u64::from(self.config.plan.workers) * u64::from(s.generation);
        s.alive = true;
        self.counters.spawned += 1;
        out.push(Output::Spawn {
            slot,
            worker: s.worker,
        });
    }

    /// Spawn a slot per configured worker at `generation`, whose ids
    /// (`slot + workers × generation`) its respawns continue from.
    fn spawn_pool(&mut self, generation: u32, out: &mut Vec<Output>) {
        let workers = self.config.plan.workers;
        for slot in 0..workers as usize {
            let worker = slot as u64 + u64::from(workers) * u64::from(generation);
            self.slots.push(Slot {
                worker,
                generation,
                alive: true,
                ..Slot::default()
            });
            self.counters.spawned += 1;
            out.push(Output::Spawn { slot, worker });
        }
    }

    /// The first generation whose ids no worker this incarnation has
    /// seen used and no absorbed shard names: a fresh worker truncates
    /// its id's shard, which must not be one that may hold a completion
    /// not yet merged.
    fn unused_generation(&self) -> u32 {
        let workers = u64::from(self.config.plan.workers);
        let used = self
            .liveness
            .workers()
            .chain(self.me.shards.iter().copied())
            .filter(|&w| w < EXTERNAL_WORKER_BASE);
        let generation = used.map(|w| w / workers + 1).max().unwrap_or(0);
        u32::try_from(generation).unwrap_or(u32::MAX)
    }

    fn tick(&mut self, now: u64, out: &mut Vec<Output>) {
        let expired = self.table.expire(now);
        if expired > 0 {
            out.push(Output::Log(format!(
                "fleet: {expired} lease(s) expired; cells requeued"
            )));
        }
        // A worker whose process is merely wedged keeps its socket open,
        // so only staleness brings its leases back.
        // Under injected net faults silence usually means partition, not
        // death: the leases go back but the slot is left alone — the
        // process is alive and will reconnect (revive); a real exit
        // still respawns.
        let partitioned = self.config.net.is_some();
        for worker in self.liveness.stale(now) {
            let why = if partitioned {
                "went silent under net faults; leases reassigned, awaiting reconnect"
            } else {
                "went silent; reassigning its leases"
            };
            out.push(Output::Log(format!("fleet: worker {worker} {why}")));
            self.declare_dead(worker, None, now, out);
            match self.slots.iter().position(|s| s.worker == worker) {
                Some(slot) if !partitioned => self.crash_slot(slot, out),
                _ => {}
            }
        }
        // The primary proves its own liveness to any registered standby;
        // heartbeat loss is the standby's takeover trigger.
        if !self.standbys.is_empty()
            && now.saturating_sub(self.last_standby_beat) >= HEARTBEAT_EVERY_MS
        {
            self.last_standby_beat = now;
            for conn in &self.standbys {
                out.push(send(*conn, FleetFrame::Beat { worker: 0 }));
            }
        }
        if self.table.is_done() {
            for conn in self.peers.keys() {
                out.push(send(*conn, FleetFrame::Drain));
            }
            self.drained = true;
            out.push(Output::Drained);
            return;
        }
        if self.rescue_at.is_some_and(|at| now >= at) {
            self.rescue_at = None;
            out.push(Output::Log(format!(
                "fleet: no workers reconnected within the rescue window; spawning a fresh \
                 pool of {}",
                self.config.plan.workers
            )));
            let generation = self.unused_generation();
            self.spawn_pool(generation, out);
        }
        let workers_connected = self.peers.keys().any(|c| !self.standbys.contains(c));
        if self.rescue_at.is_none() && !workers_connected && !self.slots_alive() {
            if self.slots.is_empty() {
                // A successor that adopted every worker owns no slot, so
                // no crash budget was spent: it spawns a pool of its own.
                out.push(Output::Log(format!(
                    "fleet: every adopted worker is gone; spawning a fresh pool of {}",
                    self.config.plan.workers
                )));
                let generation = self.unused_generation();
                self.spawn_pool(generation, out);
                return;
            }
            self.failed = true;
            out.push(Output::Failed(
                "the fleet lost every worker (crash budgets exhausted) before the matrix \
                 resolved; worker journals remain for --resume"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_faults::SupervisorPolicy;
    use proptest::prelude::*;

    const FP: u64 = 0x00c0_ffee;

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy {
            cell_deadline_ms: None,
            max_retries: 1,
            backoff_base_ms: 2,
            backoff_max_ms: 8,
        }
    }

    fn codec() -> Codec<String, fn(usize) -> String> {
        Codec {
            lease: |cell| format!("cell{cell}"),
            decode: |payload| match payload {
                "garbled" => Err("worker payload: garbled".to_string()),
                p => Ok(p.to_string()),
            },
        }
    }

    fn incarnation(epoch: u32, rescue_after_ms: Option<u64>) -> Incarnation {
        Incarnation {
            epoch,
            nonce: incarnation_nonce(4242, FP, epoch),
            fingerprint: FP,
            journal: Some("j".to_string()),
            rescue_after_ms,
            shards: Vec::new(),
        }
    }

    fn machine(
        config: &FleetConfig,
        cells: usize,
        rescue_after_ms: Option<u64>,
    ) -> (Coordinator<String>, Vec<Output>) {
        let table = LeaseTable::new(vec![7; cells], policy(), 1_000);
        Coordinator::start(config, incarnation(1, rescue_after_ms), table, codec(), 0)
    }

    fn hello(conn: u64, hint: Option<u64>, token: Option<&str>) -> Input {
        Input::Hello {
            conn,
            hint,
            token: token.map(str::to_string),
        }
    }

    fn frame(conn: u64, frame: FleetFrame) -> Input {
        Input::Frame { conn, frame }
    }

    fn sent(out: &[Output]) -> Vec<&FleetFrame> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send { frame, .. } => Some(frame),
                _ => None,
            })
            .collect()
    }

    fn lease_of(out: &[Output]) -> u64 {
        match sent(out).as_slice() {
            [FleetFrame::Lease { lease, .. }] => *lease,
            other => panic!("expected one lease, got {other:?}"),
        }
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
    fn a_stale_nonce_done_or_fail_is_fenced_counted_and_changes_nothing() {
        let (mut c, spawned) = machine(&FleetConfig::new(1), 1, None);
        assert_eq!(spawned, vec![Output::Spawn { slot: 0, worker: 0 }]);
        c.step(hello(1, Some(0), None), 0);
        let lease = lease_of(&c.step(frame(1, FleetFrame::Next { worker: 0 }), 1));
        let before = c.snapshot(2);
        let stale = incarnation_nonce(4242, FP, 7);
        let done = FleetFrame::Done {
            worker: 0,
            lease,
            coord: stale,
            payload: "p".to_string(),
        };
        let fail = FleetFrame::Fail {
            worker: 0,
            lease,
            coord: stale,
            reason: "r".to_string(),
        };
        assert!(c.step(frame(1, done), 2).is_empty());
        assert!(c.step(frame(1, fail), 2).is_empty());
        assert_eq!(c.counters().stale_fenced, 2);
        assert_eq!(c.counters().completions, 0);
        assert_eq!(c.snapshot(2), before, "the table must not move");
    }

    #[test]
    fn a_wrong_token_is_rejected_closed_and_counted() {
        let mut config = FleetConfig::new(1);
        config.token = Some("s3cret".to_string());
        let (mut c, _) = machine(&config, 1, None);
        for token in [Some("wrong"), None] {
            let out = c.step(hello(9, None, token), 0);
            assert!(matches!(
                sent(&out).as_slice(),
                [FleetFrame::Reject { reason }] if reason.contains("auth token")
            ));
            assert_eq!(out.last(), Some(&Output::Close(9)));
        }
        assert_eq!(c.counters().auth_rejected, 2);
        assert_eq!(c.worker_of(9), None);
        let out = c.step(hello(1, Some(0), Some("s3cret")), 0);
        assert!(matches!(
            sent(&out).as_slice(),
            [FleetFrame::Welcome { worker: 0, .. }]
        ));
    }

    #[test]
    fn the_await_standby_gate_answers_wait_until_an_adopt_lands() {
        let mut config = FleetConfig::new(1);
        config.await_standby = true;
        let (mut c, _) = machine(&config, 1, None);
        c.step(hello(1, Some(0), None), 0);
        let out = c.step(frame(1, FleetFrame::Next { worker: 0 }), 1);
        assert_eq!(
            out,
            vec![Output::Send {
                conn: 1,
                frame: FleetFrame::Wait { ms: POLL_MS },
                shim: Some(0),
            }]
        );
        c.step(hello(2, None, None), 2);
        let adopt = FleetFrame::Adopt {
            addr: "127.0.0.1:9".to_string(),
            fingerprint: format!("{FP:016x}"),
        };
        let out = c.step(frame(2, adopt), 3);
        assert!(
            sent(&out).contains(&&FleetFrame::Standby {
                addr: "127.0.0.1:9".to_string()
            }),
            "the successor is advertised: {out:?}"
        );
        lease_of(&c.step(frame(1, FleetFrame::Next { worker: 0 }), 4));
    }

    #[test]
    fn a_slot_that_spends_its_crash_budget_is_quarantined_without_a_respawn() {
        let mut config = FleetConfig::new(1);
        config.max_worker_crashes = 2;
        let (mut c, _) = machine(&config, 1, None);
        let crash = |worker| Input::Exited {
            slot: 0,
            worker,
            clean: false,
            signal: Some(9),
        };
        let out = c.step(crash(0), 1);
        assert!(
            out.contains(&Output::Spawn { slot: 0, worker: 1 }),
            "{out:?}"
        );
        let out = c.step(crash(1), 2);
        assert!(
            !out.iter().any(|o| matches!(o, Output::Spawn { .. })),
            "{out:?}"
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Log(l) if l.contains("quarantined after 2"))));
        assert_eq!(c.counters().quarantined, 1);
        assert_eq!(c.counters().deaths, 2);
        assert!(!c.slots_alive());
    }

    #[test]
    fn the_rescue_window_spawns_a_pool_at_its_deadline_and_not_before() {
        let (mut c, started) = machine(&FleetConfig::new(3), 2, Some(STANDBY_RESCUE_MS));
        assert!(started.is_empty(), "a successor spawns nothing at start");
        assert_eq!(c.next_deadline_in(0), POLL_MS);
        assert!(c.step(Input::Tick, STANDBY_RESCUE_MS - 1).is_empty());
        let out = c.step(Input::Tick, STANDBY_RESCUE_MS);
        let spawns: Vec<&Output> = out
            .iter()
            .filter(|o| matches!(o, Output::Spawn { .. }))
            .collect();
        assert_eq!(spawns.len(), 3, "{out:?}");
        assert_eq!(c.counters().spawned, 3);
        assert!(!out.iter().any(|o| matches!(o, Output::Failed(_))));
    }

    #[test]
    fn the_rescue_pool_spawns_above_every_absorbed_shard() {
        // The takeover absorbed shards w0..w3; a predecessor worker that
        // reconnects after the window may still be writing one of them.
        let me = Incarnation {
            shards: vec![0, 1, 2, 3],
            ..incarnation(2, Some(STANDBY_RESCUE_MS))
        };
        let table = LeaseTable::new(vec![7; 2], policy(), 1_000);
        let (mut c, _) = Coordinator::start(&FleetConfig::new(2), me, table, codec(), 0);
        let out = c.step(Input::Tick, STANDBY_RESCUE_MS);
        let spawned: Vec<&Output> = out
            .iter()
            .filter(|o| matches!(o, Output::Spawn { .. }))
            .collect();
        assert_eq!(
            spawned,
            [
                &Output::Spawn { slot: 0, worker: 4 },
                &Output::Spawn { slot: 1, worker: 5 }
            ]
        );
    }

    #[test]
    fn a_worker_joining_within_the_rescue_window_cancels_the_rescue() {
        let (mut c, _) = machine(&FleetConfig::new(2), 1, Some(STANDBY_RESCUE_MS));
        c.step(hello(1, Some(0), None), 10);
        let out = c.step(Input::Tick, 2 * STANDBY_RESCUE_MS);
        assert!(
            !out.iter().any(|o| matches!(o, Output::Spawn { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn a_successor_that_loses_every_adopted_worker_spawns_a_fresh_pool() {
        let (mut c, _) = machine(&FleetConfig::new(2), 2, Some(STANDBY_RESCUE_MS));
        // Both workers the predecessor spawned reconnect, so the rescue
        // window closes with no slot of the successor's own.
        for worker in [0, 3] {
            c.step(hello(worker, Some(worker), None), 1);
        }
        let out = c.step(Input::Eof(0), 2);
        assert!(!out.iter().any(|o| matches!(o, Output::Spawn { .. })));
        c.step(Input::Eof(3), 2);
        let out = c.step(Input::Tick, 3);
        assert!(
            !out.iter().any(|o| matches!(o, Output::Failed(_))),
            "{out:?}"
        );
        let spawned: Vec<&Output> = out
            .iter()
            .filter(|o| matches!(o, Output::Spawn { .. }))
            .collect();
        // Worker 3 is generation 1 of slot 1, so the pool takes
        // generation 2: no fresh worker reuses an adopted id's shard.
        assert_eq!(
            spawned,
            [
                &Output::Spawn { slot: 0, worker: 4 },
                &Output::Spawn { slot: 1, worker: 5 }
            ]
        );
        assert_eq!(c.counters().spawned, 2);
        assert!(c.slots_alive());
        // A fresh worker's crash respawns into the next generation.
        let out = c.step(
            Input::Exited {
                slot: 0,
                worker: 4,
                clean: false,
                signal: Some(9),
            },
            4,
        );
        assert!(
            out.contains(&Output::Spawn { slot: 0, worker: 6 }),
            "{out:?}"
        );
    }

    #[test]
    fn losing_every_slot_with_no_worker_connected_fails_the_run() {
        let mut config = FleetConfig::new(2);
        config.max_worker_crashes = 1;
        let (mut c, _) = machine(&config, 1, None);
        for slot in 0..2 {
            c.step(
                Input::Exited {
                    slot,
                    worker: slot as u64,
                    clean: false,
                    signal: None,
                },
                1,
            );
        }
        let out = c.step(Input::Tick, 2);
        assert!(
            matches!(out.last(), Some(Output::Failed(m)) if m.contains("lost every worker")),
            "{out:?}"
        );
        assert!(
            c.step(Input::Tick, 3).is_empty(),
            "a failed machine is inert"
        );
    }

    #[test]
    fn a_hello_after_the_drain_is_told_to_drain() {
        let (mut c, _) = machine(&FleetConfig::new(1), 1, None);
        c.step(hello(1, Some(0), None), 0);
        let lease = lease_of(&c.step(frame(1, FleetFrame::Next { worker: 0 }), 1));
        let nonce = incarnation_nonce(4242, FP, 1);
        c.step(
            frame(
                1,
                FleetFrame::Done {
                    worker: 0,
                    lease,
                    coord: nonce,
                    payload: "p".to_string(),
                },
            ),
            2,
        );
        let out = c.step(Input::Tick, 2);
        assert_eq!(out.last(), Some(&Output::Drained));
        assert!(c.slots_alive(), "the drain waits for the spawned worker");
        let late = c.step(hello(5, Some(3), None), 3);
        assert_eq!(
            late,
            vec![
                Output::Send {
                    conn: 5,
                    frame: FleetFrame::Drain,
                    shim: None
                },
                Output::Close(5)
            ]
        );
        c.step(
            Input::Exited {
                slot: 0,
                worker: 0,
                clean: true,
                signal: None,
            },
            4,
        );
        assert!(!c.slots_alive());
    }

    #[test]
    fn an_undecodable_done_fails_the_cell() {
        let (mut c, _) = machine(&FleetConfig::new(1), 1, None);
        c.step(hello(1, Some(0), None), 0);
        let lease = lease_of(&c.step(frame(1, FleetFrame::Next { worker: 0 }), 1));
        let done = FleetFrame::Done {
            worker: 0,
            lease,
            coord: incarnation_nonce(4242, FP, 1),
            payload: "garbled".to_string(),
        };
        c.step(frame(1, done), 2);
        assert_eq!(c.counters().completions, 0);
        assert!(c.snapshot(2).contains("worker payload: garbled"));
    }

    #[test]
    fn a_refused_standby_is_never_reaped_as_a_dead_worker() {
        // Its Hello started liveness tracking; the fingerprint-mismatch
        // branch of Adopt must forget it, or the reaper later declares a
        // process that never held a lease dead.
        let (mut c, _) = machine(&FleetConfig::new(1), 1, None);
        c.step(hello(1, Some(0), None), 0);
        c.step(hello(2, None, None), 0);
        let adopt = FleetFrame::Adopt {
            addr: "127.0.0.1:9".to_string(),
            fingerprint: "0000000000000bad".to_string(),
        };
        let out = c.step(frame(2, adopt), 1);
        assert!(matches!(
            sent(&out).as_slice(),
            [FleetFrame::Reject { reason }] if reason.contains("fingerprint")
        ));
        assert_eq!(out.last(), Some(&Output::Close(2)));
        // Worker 0 keeps beating; the refused standby is silent.
        c.step(
            frame(1, FleetFrame::Beat { worker: 0 }),
            HEARTBEAT_TIMEOUT_MS,
        );
        let out = c.step(Input::Tick, HEARTBEAT_TIMEOUT_MS + 2);
        assert!(
            !out.iter().any(|o| matches!(o, Output::Died { .. })),
            "{out:?}"
        );
        assert_eq!(c.counters().deaths, 0);
    }

    /// One arbitrary input, from a small alphabet of connections,
    /// workers, leases and nonces so the sequences actually collide.
    fn input_of(kind: u8, a: u64, b: u64, nonce: bool) -> Input {
        let coord = if nonce {
            incarnation_nonce(4242, FP, 1)
        } else {
            1
        };
        match kind {
            0 => hello(a, (b < 3).then_some(b), b.is_multiple_of(2).then_some("t")),
            1 => frame(a, FleetFrame::Next { worker: b }),
            2 => frame(
                a,
                FleetFrame::Done {
                    worker: a,
                    lease: b,
                    coord,
                    payload: format!("p{b}"),
                },
            ),
            3 => frame(
                a,
                FleetFrame::Fail {
                    worker: a,
                    lease: b,
                    coord,
                    reason: "r".to_string(),
                },
            ),
            4 => frame(a, FleetFrame::Beat { worker: a }),
            5 => frame(
                a,
                FleetFrame::Adopt {
                    addr: "s".to_string(),
                    fingerprint: format!("{:016x}", if nonce { FP } else { 0 }),
                },
            ),
            6 => Input::Eof(a),
            7 => Input::Exited {
                slot: (a % 3) as usize,
                worker: b,
                clean: nonce,
                signal: None,
            },
            _ => Input::Tick,
        }
    }

    proptest! {
        #[test]
        fn replaying_an_input_sequence_reproduces_outputs_and_snapshots(
            script in proptest::collection::vec(
                (0u8..9, 0u64..4, 0u64..5, 0u64..4_000, 0u8..2),
                1..80,
            ),
        ) {
            let mut config = FleetConfig::new(2);
            config.token = Some("t".to_string());
            let run = || {
                let (mut c, first) = machine(&config, 3, None);
                let mut trace = vec![format!("{first:?}")];
                let mut now = 0;
                for (kind, a, b, dt, nonce) in &script {
                    now += dt;
                    let out = c.step(input_of(*kind, *a, *b, *nonce == 1), now);
                    trace.push(format!("{out:?}"));
                    trace.push(c.snapshot(now));
                }
                trace
            };
            prop_assert_eq!(run(), run());
        }
    }
}
