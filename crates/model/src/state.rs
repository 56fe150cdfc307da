//! The typed model state and its transition relation.
//!
//! One [`ModelState`] is a global snapshot of the modelled fleet: the
//! coordinator (the *shipped* [`Coordinator`] machine, or `None` after a
//! crash), every worker slot, the in-flight worker→coordinator frames,
//! the durable journals (per-worker shards plus the append-only base),
//! the virtual clock, the adversarial budgets, and two ghost variables
//! that exist only for invariant checking — which cells ever had a
//! durable completion record, and which `(attempt, worker)` candidates
//! were offered to the current coordinator incarnation.
//!
//! The model is a pump around the machine, as the transport is: worker
//! frames, hang-ups, crashes and poll timeouts become [`Input`]s, and the
//! machine's [`Output`]s — leases, waits, drains, spawns, rejections —
//! decide what happens next. Fencing, respawn ids, admission and the
//! rescue window are therefore the shipped code's, and recovery merges
//! through the shipped [`recover`].
//!
//! [`ModelState::successors`] is the full transition relation:
//! protocol moves (ask/complete/fail/deliver/detect/poll), clock moves
//! (advance to the next interesting instant) and adversary moves
//! (worker death, death mid-completion, coordinator crash, resume).
//! Coordinator replies are synchronous — the worker loop blocks on each
//! `@next` round-trip — so the only queued direction is
//! worker→coordinator, per-channel FIFO, exactly the TCP guarantee. A
//! dead worker's already-written frames stay deliverable until its
//! channel drains, and only then can the coordinator see the EOF: the
//! kernel hands the reader buffered bytes before the hangup.

use std::collections::{BTreeMap, BTreeSet};

use chopin_faults::hard::splitmix64;
use chopin_fleet::coordinator::STANDBY_RESCUE_MS;
use chopin_fleet::lease::LeaseTable;
use chopin_fleet::{
    incarnation_nonce, recover, Candidate, Codec, Coordinator, FleetConfig, FleetFrame,
    Incarnation, Input, Output,
};

use crate::bounds::Bounds;

/// The per-run token the modelled fleet is gated on when
/// [`Bounds::token`] is set; the intruder offers a different one.
pub const MODEL_TOKEN: &str = "model-fleet-token";

/// The modelled sweep's fingerprint.
const MODEL_FINGERPRINT: u64 = 0x000c_0ffe_e0dd_f00d;

/// The intruder's connection id (worker connections use their worker
/// id).
const INTRUDER_CONN: u64 = u64::MAX;

/// The deterministic payload a completing worker reports for `cell` —
/// making the expected merged output a pure function of the bounds, so
/// determinism is checkable per state instead of by comparing runs.
#[must_use]
pub fn payload_of(cell: usize) -> String {
    format!("payload(cell{cell})")
}

/// The reason every modelled cell-level failure reports.
pub const FAIL_REASON: &str = "errored:model-fault";

/// Which seeded protocol bug, if any, the model's pump or adversary
/// carries. The shipped coordinator never has a switch for either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// The shipped semantics.
    None,
    /// `demo:lost-lease` — resume drops the merged winners the recovery
    /// says to persist into the base journal, then respawns workers that
    /// truncate their shards. One crash absorbs the completion into
    /// coordinator memory; the truncation erases the only durable copy;
    /// a second crash loses the cell (R1303).
    LostLease,
    /// `demo:split-brain` — incarnations mint their nonce as the raw
    /// `pid ^ fingerprint ^ epoch` XOR an earlier release shipped. Each
    /// successor starts one pid below its predecessor, so the XORs
    /// cancel, the successor is handed its predecessor's nonce, and a
    /// `@done` written against the dead incarnation's lease-id space
    /// passes the shipped fence (R1402).
    SplitBrain,
}

/// The nonce of epoch `epoch`'s incarnation. Incarnation `e` runs at pid
/// `4098 - (e - 1)` (pids `4k+2`, `4k+1`, …): a standby launched just
/// before its primary gets the neighbouring pid. A resumed coordinator
/// serves epoch 1 again and mints its predecessor's nonce, which is
/// harmless: no frame survives a coordinator crash.
fn nonce_of(epoch: u32, bug: SeededBug) -> u64 {
    let pid = 4099 - u64::from(epoch);
    match bug {
        SeededBug::SplitBrain => splitmix64(pid ^ MODEL_FINGERPRINT ^ u64::from(epoch)),
        _ => incarnation_nonce(pid, MODEL_FINGERPRINT, epoch),
    }
}

/// One worker→coordinator report: in flight, or the one a running
/// worker will write when its cell finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// The lease being reported.
    pub lease: u64,
    /// The leased cell.
    pub cell: usize,
    /// The lease's attempt number.
    pub attempt: u32,
    /// The reporting worker.
    pub worker: u64,
    /// The granting incarnation's nonce, echoed on the wire.
    pub coord: u64,
    /// Ghost: the granting incarnation's epoch.
    pub epoch: u32,
    /// `@fail` (the cell fails deterministically) rather than `@done`.
    pub failed: bool,
}

impl Msg {
    /// The frame as traces and canonical states show it. A `@fail`
    /// frame carries no cell or attempt, so neither is rendered: states
    /// differing only there behave identically.
    fn label(&self) -> String {
        let (lease, worker, epoch) = (self.lease, self.worker, self.epoch);
        if self.failed {
            return format!("@fail L{lease} w{worker} e{epoch}");
        }
        format!(
            "@done L{lease} c{} a{} w{worker} e{epoch}",
            self.cell, self.attempt
        )
    }

    fn frame(&self) -> FleetFrame {
        let (worker, lease, coord) = (self.worker, self.lease, self.coord);
        if self.failed {
            let reason = FAIL_REASON.to_string();
            FleetFrame::Fail {
                worker,
                lease,
                coord,
                reason,
            }
        } else {
            let payload = payload_of(self.cell);
            FleetFrame::Done {
                worker,
                lease,
                coord,
                payload,
            }
        }
    }
}

/// One durable journal row: a completion record with provenance, in
/// the shape the shipped recovery merges.
pub type Row = Candidate<String>;

fn label(row: &Row) -> String {
    format!("c{} a{} w{}", row.cell, row.attempt, row.worker)
}

/// One worker slot's automaton state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Alive, about to send `@next`.
    Idle {
        /// Current worker id of the slot.
        worker: u64,
    },
    /// Told to `@wait`; re-asks at `until`.
    Waiting {
        /// Current worker id of the slot.
        worker: u64,
        /// Virtual instant of the next `@next`.
        until: u64,
    },
    /// Holds a lease and is executing its cell; the report it will
    /// write.
    Running(Msg),
    /// Crashed; the coordinator has not yet seen the EOF.
    Dead {
        /// The dead worker's id.
        worker: u64,
    },
    /// Drained cleanly, orphaned by a coordinator crash, or never
    /// respawned.
    Exited,
}

impl Slot {
    fn alive(&self) -> bool {
        matches!(
            self,
            Slot::Idle { .. } | Slot::Waiting { .. } | Slot::Running(_)
        )
    }
}

/// A global snapshot of the modelled fleet. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ModelState {
    /// The virtual clock, in milliseconds.
    pub now: u64,
    /// The coordinator — the shipped state machine — or `None` while it
    /// is down.
    pub coordinator: Option<Coordinator<String>>,
    /// Worker slots, indexed by slot number.
    pub slots: Vec<Slot>,
    /// The nonce each slot's worker was last welcomed with. Only read
    /// while the slot is alive, when it is always the live
    /// incarnation's, so it is not rendered.
    pub welcomed: Vec<u64>,
    /// Per-slot worker→coordinator FIFO channels.
    pub channels: Vec<Vec<Msg>>,
    /// Durable per-worker shard journals, keyed by worker id. Files
    /// persist across the death of their writer; a (re)spawned worker
    /// truncates its own shard.
    pub shards: BTreeMap<u64, Vec<Row>>,
    /// The append-only base journal.
    pub base: Vec<Row>,
    /// Adversarial crash events spent (worker deaths + coordinator
    /// crashes).
    pub crashes_used: u32,
    /// Adversarial lease-expiry events spent (clock advances that land
    /// on a live lease's deadline).
    pub expiries_used: u32,
    /// Adversarial network events spent (frame drops + duplications).
    pub net_used: u32,
    /// The serving (or last) coordinator incarnation's epoch (1 for the
    /// primary; bumped by every standby takeover).
    pub epoch: u32,
    /// Whether the coordinator died with a standby registered: the next
    /// coordinator move is a takeover, not a crash-and-resume.
    pub handoff: bool,
    /// Ghost: the coordinator admitted a `Hello` offering the wrong (or
    /// no) token (R1403). Probed once at [`ModelState::init`] by feeding
    /// the intruder's `Hello` to the machine and reading its answer —
    /// interleaving the probe with protocol moves would double the state
    /// space without adding coverage, so a broken gate violates R1403 on
    /// the initial state itself.
    pub intruder_admitted: bool,
    /// Ghost: the coordinator refused the run's own token (the other way
    /// token gating can be wrong; also R1403).
    pub legit_refused: bool,
    /// Ghost: a frame from a dead incarnation passed the fence and
    /// reached the live lease table — split brain (R1402).
    pub stale_applied: bool,
    /// Whether the matrix drained and the run assembled (terminal).
    pub done: bool,
    /// Ghost: cells that ever had a durable completion record (every
    /// completion journals its shard before `@done`, so this is also
    /// "cells ever completed").
    pub durable: BTreeSet<usize>,
    /// Ghost: `(attempt, worker)` completion candidates offered to the
    /// *current* coordinator incarnation (reset on crash, re-seeded by
    /// what resume absorbs) — the oracle for the merge-minimality rule.
    pub offers: Vec<BTreeSet<(u32, u64)>>,
}

fn is_reject(output: &Output) -> bool {
    let reject = |frame: &FleetFrame| matches!(frame, FleetFrame::Reject { .. });
    matches!(output, Output::Send { frame, .. } if reject(frame))
}

impl ModelState {
    /// The initial state: the primary up with an empty table, its pool
    /// spawned at generation zero with freshly truncated shards and
    /// joined. When the fleet is token-gated the intruder's admission
    /// probe happens here — see [`ModelState::intruder_admitted`].
    #[must_use]
    pub fn init(bounds: &Bounds, bug: SeededBug) -> ModelState {
        let mut s = ModelState {
            slots: vec![Slot::Exited; bounds.workers],
            welcomed: vec![0; bounds.workers],
            channels: vec![Vec::new(); bounds.workers],
            epoch: 1,
            offers: vec![BTreeSet::new(); bounds.cells],
            ..ModelState::default()
        };
        let table = LeaseTable::new(bounds.seeds(), bounds.policy(), bounds.deadline_ms);
        s.start(bounds, table, false, bug);
        for token in [Some("wrong-token"), None]
            .into_iter()
            .filter(|_| bounds.token)
        {
            let token = token.map(str::to_string);
            let hello = Input::Hello {
                conn: INTRUDER_CONN,
                hint: None,
                token,
            };
            if let Some(c) = s.coordinator.as_mut() {
                s.intruder_admitted |= !c.step(hello, 0).iter().any(is_reject);
            }
        }
        s
    }

    /// The live coordinator's lease table, if one is up.
    #[must_use]
    pub fn table(&self) -> Option<&LeaseTable> {
        self.coordinator.as_ref().map(Coordinator::table)
    }

    /// Canonical rendering for state hashing: every embedded instant
    /// (lease ages, backoff edges, worker wake-ups) is rebased against
    /// `now`, so states that differ only by a uniform clock shift
    /// collapse into one. Includes everything that can influence
    /// future behaviour plus the invariant ghosts; excludes report-only
    /// counters.
    #[must_use]
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "done={} crashes={} expiries={} net={} epoch={} handoff={} \
             intruder={}/{} stale={}",
            self.done,
            self.crashes_used,
            self.expiries_used,
            self.net_used,
            self.epoch,
            self.handoff,
            self.intruder_admitted,
            self.legit_refused,
            self.stale_applied
        );
        match &self.coordinator {
            None => {
                let _ = writeln!(out, "coordinator down");
            }
            Some(c) => {
                let _ = write!(out, "coordinator up\n{}", c.snapshot(self.now));
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let desc = match slot {
                Slot::Idle { worker } => format!("idle w{worker}"),
                Slot::Waiting { worker, until } => {
                    format!("waiting w{worker} +{}", until.saturating_sub(self.now))
                }
                Slot::Running(m) => format!(
                    "running w{} L{} c{} a{} e{}",
                    m.worker, m.lease, m.cell, m.attempt, m.epoch
                ),
                Slot::Dead { worker } => format!("dead w{worker}"),
                Slot::Exited => "exited".to_string(),
            };
            let chan: Vec<String> = self.channels[i].iter().map(Msg::label).collect();
            let _ = writeln!(out, "slot {i} {desc} chan[{}]", chan.join(", "));
        }
        for (id, rows) in &self.shards {
            let rendered: Vec<String> = rows.iter().map(label).collect();
            let _ = writeln!(out, "shard w{id} [{}]", rendered.join(", "));
        }
        let rendered: Vec<String> = self.base.iter().map(label).collect();
        let _ = writeln!(out, "base [{}]", rendered.join(", "));
        let durable: Vec<String> = self.durable.iter().map(usize::to_string).collect();
        let _ = writeln!(out, "durable [{}]", durable.join(", "));
        for (cell, offers) in self.offers.iter().enumerate() {
            let o: Vec<String> = offers.iter().map(|(a, w)| format!("{a}/{w}")).collect();
            let _ = writeln!(out, "offers c{cell} [{}]", o.join(", "));
        }
        out
    }

    /// Every enabled transition, as `(trace label, successor)` pairs in
    /// a fixed order. Empty exactly for terminal (drained) states — a
    /// non-terminal state with no successors is a drain deadlock.
    #[must_use]
    pub fn successors(&self, bounds: &Bounds, bug: SeededBug) -> Vec<(String, ModelState)> {
        if self.done {
            return Vec::new();
        }
        let mut out: Vec<(String, ModelState)> = Vec::new();
        let Some(table) = self.table() else {
            if self.handoff {
                out.push(self.takeover(bounds, bug));
            } else {
                out.push(self.resume(bounds, bug));
            }
            return out;
        };
        let expired_lease = table.next_deadline_in(self.now) == Some(0);
        for slot in 0..self.slots.len() {
            match self.slots[slot] {
                // `@next` rides the same FIFO channel as `@done`/`@fail`,
                // so the coordinator always consumes a worker's buffered
                // report before it can see that worker's next ask.
                Slot::Idle { .. } if self.channels[slot].is_empty() => {
                    out.extend(self.ask(slot, bounds));
                }
                Slot::Idle { .. } => {}
                Slot::Running(msg) => {
                    out.push(self.finish(slot, msg, false));
                    if !msg.failed && self.crashes_used < bounds.crashes {
                        out.push(self.finish(slot, msg, true));
                    }
                }
                Slot::Waiting { .. } | Slot::Dead { .. } | Slot::Exited => {}
            }
            if !self.channels[slot].is_empty() {
                out.extend(self.deliver(slot));
                if self.net_used < bounds.net {
                    out.push(self.net_drop(slot));
                    out.push(self.net_dup(slot));
                }
            }
            if matches!(self.slots[slot], Slot::Dead { .. }) && self.channels[slot].is_empty() {
                out.push(self.detect(slot, bounds));
            }
            if self.slots[slot].alive() && self.crashes_used < bounds.crashes {
                out.push(self.die(slot));
            }
        }
        out.extend(self.poll(bounds));
        if self.crashes_used < bounds.crashes {
            out.push(self.coordinator_dies(bounds.standby));
        }
        if let Some((target, crosses)) = self.next_instant().filter(|_| !expired_lease) {
            // The expiry budget bounds the adversary's *choice* to
            // delay a worker past a lease deadline. When the crossing
            // is the only event left (e.g. a dropped `@fail` whose
            // lease must expire to requeue the cell, with every other
            // budget spent), it is inevitability, not choice: real
            // time always flows, so the forced crossing proceeds
            // budget-free rather than deadlocking the bounded space
            // (the same fairness assumption that underpins R1305).
            if !crosses || self.expiries_used < bounds.expiries() || out.is_empty() {
                out.push(self.advance(target, crosses));
            }
        }
        out
    }

    fn slot_worker(&self, slot: usize) -> u64 {
        match self.slots[slot] {
            Slot::Idle { worker }
            | Slot::Waiting { worker, .. }
            | Slot::Running(Msg { worker, .. })
            | Slot::Dead { worker } => worker,
            Slot::Exited => u64::MAX,
        }
    }

    /// Start a coordinator incarnation at the current epoch over `table`
    /// (a successor waits out its rescue window instead of spawning, and
    /// is told every shard its takeover absorbed) and apply its spawns.
    fn start(&mut self, bounds: &Bounds, table: LeaseTable, successor: bool, bug: SeededBug) {
        let me = Incarnation {
            epoch: self.epoch,
            nonce: nonce_of(self.epoch, bug),
            fingerprint: MODEL_FINGERPRINT,
            journal: None,
            rescue_after_ms: successor.then_some(STANDBY_RESCUE_MS),
            shards: if successor {
                self.shards.keys().copied().collect()
            } else {
                Vec::new()
            },
        };
        let mut config = FleetConfig::new(bounds.workers as u32);
        config.token = bounds.token.then(|| MODEL_TOKEN.to_string());
        // Leases carry the cell index; `Done` payloads are taken verbatim.
        let lease: fn(usize) -> String = |cell| cell.to_string();
        let codec = Codec {
            lease,
            decode: |payload| Ok(payload.to_string()),
        };
        let (coordinator, outputs) = Coordinator::start(&config, me, table, codec, self.now);
        self.coordinator = Some(coordinator);
        self.spawn(&outputs, bounds);
    }

    /// Apply the machine's spawn outputs: each new worker truncates its
    /// shard and joins at once (`@hello`/`@welcome` collapse into the
    /// spawn). Returns the spawned ids.
    fn spawn(&mut self, outputs: &[Output], bounds: &Bounds) -> Vec<u64> {
        let mut spawned = Vec::new();
        for output in outputs {
            if let Output::Spawn { slot, worker } = *output {
                self.shards.insert(worker, Vec::new());
                self.slots[slot] = Slot::Idle { worker };
                self.join(slot, bounds);
                spawned.push(worker);
            }
        }
        spawned
    }

    /// A slot's worker sends its `@hello`; the `@welcome` hands it the
    /// nonce it will echo.
    fn join(&mut self, slot: usize, bounds: &Bounds) {
        let worker = self.slot_worker(slot);
        let hello = Input::Hello {
            conn: worker,
            hint: Some(worker),
            token: bounds.token.then(|| MODEL_TOKEN.to_string()),
        };
        let Some(c) = self.coordinator.as_mut() else {
            return;
        };
        for output in c.step(hello, self.now) {
            self.legit_refused |= is_reject(&output);
            if let Output::Send {
                frame: FleetFrame::Welcome { coord, .. },
                ..
            } = output
            {
                self.welcomed[slot] = coord;
            }
        }
    }

    /// `@next` round-trip: the synchronous ask-and-reply.
    fn ask(&self, slot: usize, bounds: &Bounds) -> Option<(String, ModelState)> {
        let mut s = self.clone();
        let worker = s.slot_worker(slot);
        let next = Input::Frame {
            conn: worker,
            frame: FleetFrame::Next { worker },
        };
        let reply = s
            .coordinator
            .as_mut()?
            .step(next, s.now)
            .into_iter()
            .find_map(|o| match o {
                Output::Send { frame, .. } => Some(frame),
                _ => None,
            })?;
        let label = match reply {
            FleetFrame::Lease {
                lease,
                attempt,
                payload,
            } => {
                let cell = payload.parse().ok()?;
                s.slots[slot] = Slot::Running(Msg {
                    lease,
                    cell,
                    attempt,
                    worker,
                    coord: s.welcomed[slot],
                    epoch: s.epoch,
                    failed: cell < bounds.failing_cells,
                });
                format!("w{worker} → @next; ← @lease L{lease} (cell {cell}, attempt {attempt})")
            }
            FleetFrame::Wait { ms } => {
                s.slots[slot] = Slot::Waiting {
                    worker,
                    until: s.now + ms,
                };
                format!("w{worker} → @next; ← @wait {ms}ms")
            }
            FleetFrame::Drain => {
                s.slots[slot] = Slot::Exited;
                format!("w{worker} → @next; ← @drain, exits cleanly")
            }
            _ => return None,
        };
        Some((label, s))
    }

    /// A running worker finishes its cell. A failing cell reports
    /// `@fail`; any other journals its shard row first and sends `@done`
    /// second — the real worker's write order — unless `crash`: the
    /// nastiest death, after the shard write and before the socket
    /// write, leaves the completion durable but the coordinator untold.
    fn finish(&self, slot: usize, msg: Msg, crash: bool) -> (String, ModelState) {
        let mut s = self.clone();
        let (worker, cell) = (msg.worker, msg.cell);
        s.slots[slot] = Slot::Idle { worker };
        if msg.failed {
            s.channels[slot].push(msg);
            let label = format!("w{worker} fails cell {cell} ({FAIL_REASON}), sends @fail");
            return (format!("{label} L{}", msg.lease), s);
        }
        s.shards.entry(worker).or_default().push(Row {
            cell,
            attempt: msg.attempt,
            worker,
            payload: payload_of(cell),
        });
        s.durable.insert(cell);
        if crash {
            s.slots[slot] = Slot::Dead { worker };
            s.crashes_used += 1;
            let label = format!("w{worker} journals cell {cell} then dies before sending @done");
            return (label, s);
        }
        s.channels[slot].push(msg);
        let label = format!("w{worker} completes cell {cell}: journals shard row, sends @done");
        (format!("{label} L{}", msg.lease), s)
    }

    /// Deliver the oldest buffered frame from one worker's channel to
    /// the coordinator. Whether a frame echoing a dead incarnation's
    /// nonce is fenced is the machine's decision, read off its
    /// `stale_fenced` counter; one that gets through sets the R1402
    /// ghost.
    fn deliver(&self, slot: usize) -> Option<(String, ModelState)> {
        let mut s = self.clone();
        if s.channels[slot].is_empty() {
            return None;
        }
        let msg = s.channels[slot].remove(0);
        let c = s.coordinator.as_mut()?;
        let before = c.counters();
        let frame = msg.frame();
        c.step(
            Input::Frame {
                conn: msg.worker,
                frame,
            },
            s.now,
        );
        let after = c.counters();
        let read = format!("coordinator reads {}", msg.label());
        if after.stale_fenced > before.stale_fenced {
            let label = format!("coordinator fences {} (stale nonce)", msg.label());
            return Some((label, s));
        }
        s.stale_applied |= msg.epoch != s.epoch;
        if msg.failed {
            return Some((read, s));
        }
        s.offers[msg.cell].insert((msg.attempt, msg.worker));
        let merged = after.completions > before.completions;
        let note = if merged { "merged" } else { "unknown lease" };
        Some((format!("{read} → {note}"), s))
    }

    /// SIGKILL a live worker. Its shard and already-written frames
    /// survive; its in-progress cell (if any) simply never reports.
    fn die(&self, slot: usize) -> (String, ModelState) {
        let mut s = self.clone();
        let worker = s.slot_worker(slot);
        let doing = match s.slots[slot] {
            Slot::Running(msg) => format!(" mid-cell {}", msg.cell),
            _ => String::new(),
        };
        s.slots[slot] = Slot::Dead { worker };
        s.crashes_used += 1;
        (
            format!("w{worker} dies{doing} (SIGKILL); shard and buffered frames survive"),
            s,
        )
    }

    /// The coordinator sees the dead worker's EOF — only after its
    /// buffered frames drained — and then its process exit. The machine
    /// releases the worker's leases and decides the respawn: a fresh id
    /// for a slot it spawned (whose startup truncates that id's shard),
    /// nothing for a worker it merely adopted.
    fn detect(&self, slot: usize, bounds: &Bounds) -> (String, ModelState) {
        let mut s = self.clone();
        let worker = s.slot_worker(slot);
        s.slots[slot] = Slot::Exited;
        let mut outputs = Vec::new();
        if let Some(c) = s.coordinator.as_mut() {
            outputs = c.step(Input::Eof(worker), s.now);
            let exit = Input::Exited {
                slot,
                worker,
                clean: false,
                signal: None,
            };
            outputs.extend(c.step(exit, s.now));
        }
        let tail = match s.spawn(&outputs, bounds).as_slice() {
            [fresh] => format!("respawns slot {slot} as w{fresh}"),
            _ => format!("slot {slot} is not respawned"),
        };
        (
            format!("coordinator sees w{worker} EOF: requeues its cells, {tail}"),
            s,
        )
    }

    /// The pump's poll: a `Tick` that the machine answers with anything
    /// — expired leases swept, the drain, a give-up, a successor's fresh
    /// pool. Competes with frame
    /// delivery at a lease's deadline instant, the `Done`-at-deadline
    /// race the lease table pins as order-independent.
    fn poll(&self, bounds: &Bounds) -> Option<(String, ModelState)> {
        let mut c = self.coordinator.clone()?;
        let expired_before = c.table().metrics().expired;
        let outputs = c.step(Input::Tick, self.now);
        let expired = c.table().metrics().expired - expired_before;
        if outputs.is_empty() {
            return None;
        }
        let mut s = self.clone();
        s.coordinator = Some(c);
        if outputs.contains(&Output::Drained) {
            return Some(s.assemble(bounds));
        }
        if let Some(why) = outputs.iter().find_map(|o| match o {
            Output::Failed(why) => Some(why.clone()),
            _ => None,
        }) {
            // The coordinator exits with an error; its journals remain
            // for the operator's `--resume`.
            s.coordinator_gone(false);
            return Some((format!("coordinator gives up: {why}"), s));
        }
        let spawned = s.spawn(&outputs, bounds);
        if !spawned.is_empty() {
            let ids: Vec<String> = spawned.iter().map(|w| format!("w{w}")).collect();
            let label = format!(
                "poll: every adopted worker is gone; the successor spawns {}",
                ids.join(" ")
            );
            return Some((label, s));
        }
        Some((
            format!("poll timeout: {expired} lease(s) expired and requeued"),
            s,
        ))
    }

    /// The next interesting instant: a waiting worker's wake-up or a
    /// live lease's deadline, whichever comes first. `crosses` marks a
    /// target that lands on a lease deadline — the adversarial delay
    /// that draws on the expiry budget.
    fn next_instant(&self) -> Option<(u64, bool)> {
        let deadline = self
            .table()?
            .next_deadline_in(self.now)
            .map(|delta| self.now + delta);
        let mut target: Option<u64> = deadline;
        for slot in &self.slots {
            if let Slot::Waiting { until, .. } = slot {
                if *until > self.now {
                    target = Some(target.map_or(*until, |t| t.min(*until)));
                }
            }
        }
        let target = target?;
        let crosses = deadline.is_some_and(|d| target >= d);
        Some((target, crosses))
    }

    /// Advance the clock to `target`, waking due workers. No sweep
    /// happens here: expiry is the separate, competing poll.
    fn advance(&self, target: u64, crosses: bool) -> (String, ModelState) {
        let mut s = self.clone();
        let delta = target - s.now;
        s.now = target;
        let mut woke = Vec::new();
        for slot in &mut s.slots {
            if let Slot::Waiting { worker, until } = slot {
                if *until <= target {
                    woke.push(format!("w{worker}"));
                    *slot = Slot::Idle { worker: *worker };
                }
            }
        }
        if crosses {
            s.expiries_used += 1;
        }
        let mut notes = Vec::new();
        if !woke.is_empty() {
            notes.push(format!("{} wake", woke.join(" ")));
        }
        if crosses {
            notes.push("a lease hits its deadline".to_string());
        }
        let suffix = if notes.is_empty() {
            String::new()
        } else {
            format!(" ({})", notes.join("; "))
        };
        (format!("clock +{delta}ms → t={target}ms{suffix}"), s)
    }

    /// SIGKILL the coordinator; frames buffered in the dead process die
    /// with it. With a standby registered, workers survive — they
    /// reconnect to the successor with backoff — and recovery rides on
    /// the shard-first write order plus takeover absorption. Without
    /// one, worker sockets close and every worker exits.
    fn coordinator_dies(&self, standby: bool) -> (String, ModelState) {
        let mut s = self.clone();
        s.coordinator_gone(standby);
        s.crashes_used += 1;
        let label = if standby {
            "coordinator dies (SIGKILL); the standby watches its heartbeat lapse, workers \
             reconnect to the successor"
        } else {
            "coordinator crashes (SIGKILL); workers orphaned, in-flight frames lost"
        };
        (label.to_string(), s)
    }

    /// The coordinator process is gone: in-flight frames die with it,
    /// and its workers exit unless a successor will adopt them.
    fn coordinator_gone(&mut self, handoff: bool) {
        self.coordinator = None;
        self.handoff = handoff;
        for chan in &mut self.channels {
            chan.clear();
        }
        if !handoff {
            self.slots.fill(Slot::Exited);
        }
    }

    /// Rebuild a fresh table from the base journal and every shard
    /// through the shipped [`recover`], re-seeding the offer ghost, and
    /// append the winners the base lacks unless `persist` is off (the
    /// lost-lease bug). Returns the table, the rows absorbed and the
    /// rows persisted.
    fn recover_table(&mut self, bounds: &Bounds, persist: bool) -> (LeaseTable, usize, usize) {
        let shard_rows: Vec<Row> = self.shards.values().flatten().cloned().collect();
        let absorbed = self.base.len() + shard_rows.len();
        self.offers = vec![BTreeSet::new(); bounds.cells];
        for row in self.base.iter().chain(&shard_rows) {
            self.offers[row.cell].insert((row.attempt, row.worker));
        }
        let (recovered, _) = recover(self.base.clone(), shard_rows);
        let mut table = LeaseTable::new(bounds.seeds(), bounds.policy(), bounds.deadline_ms);
        let mut persisted = 0;
        for r in recovered {
            let w = r.winner;
            if !r.in_base && persist {
                self.base.push(w.clone());
                persisted += 1;
            }
            table.absorb(w.cell, w.attempt, w.worker, w.payload);
        }
        (table, absorbed, persisted)
    }

    /// The standby takes over: a successor at the next epoch absorbs the
    /// base journal and every shard — **without** truncating shards or
    /// respawning workers — and persists merged winners into the base
    /// before serving, exactly the shipped `run_standby` order.
    /// Surviving workers reconnect under their old ids; workers that
    /// died under the predecessor are never heard of again.
    ///
    /// Quarantine verdicts live only in the dead coordinator's memory (a
    /// failed cell has no journal row), so a takeover from a
    /// drained-then-killed primary rebuilds a table with unresolved
    /// cells and possibly nobody left to run them. The machine's rescue
    /// window answers that: when no worker reconnects within
    /// `STANDBY_RESCUE_MS`, the successor spawns a fresh pool, and the
    /// deterministic re-execution re-quarantines the failed cells.
    fn takeover(&self, bounds: &Bounds, bug: SeededBug) -> (String, ModelState) {
        let mut s = self.clone();
        let (table, absorbed, persisted) = s.recover_table(bounds, true);
        s.epoch += 1;
        s.handoff = false;
        for slot in &mut s.slots {
            if matches!(slot, Slot::Dead { .. }) {
                *slot = Slot::Exited;
            }
        }
        let done = table.is_done();
        s.start(bounds, table, true, bug);
        for slot in 0..s.slots.len() {
            if s.slots[slot].alive() {
                s.join(slot, bounds);
            }
        }
        let mut spawned = Vec::new();
        if !done && !s.slots.iter().any(Slot::alive) {
            s.now += STANDBY_RESCUE_MS;
            if let Some(c) = s.coordinator.as_mut() {
                let outputs = c.step(Input::Tick, s.now);
                spawned = s.spawn(&outputs, bounds);
            }
        }
        let tail = if spawned.is_empty() {
            "; workers reconnect under their old ids".to_string()
        } else {
            format!(
                "; no worker reconnects within the rescue window — {} fresh worker(s) spawned",
                spawned.len()
            )
        };
        (
            format!(
                "standby takes over at epoch {}: absorbs {absorbed} journal row(s) \
                 (shards kept), persists {persisted} winner(s) to base{tail}",
                s.epoch
            ),
            s,
        )
    }

    /// The net adversary eats the oldest buffered frame. The worker is
    /// oblivious (its reply raced a granted follow-up, so no timeout
    /// resend fires); the cell comes back only through lease expiry —
    /// which is why the expiry budget scales with the net budget.
    fn net_drop(&self, slot: usize) -> (String, ModelState) {
        let mut s = self.clone();
        let msg = s.channels[slot].remove(0);
        s.net_used += 1;
        (format!("the wire drops {}", msg.label()), s)
    }

    /// The net adversary duplicates the oldest buffered frame (a retry
    /// racing its own original): the second copy must read as a
    /// harmless stale duplicate.
    fn net_dup(&self, slot: usize) -> (String, ModelState) {
        let mut s = self.clone();
        let msg = s.channels[slot][0];
        s.channels[slot].insert(1, msg);
        s.net_used += 1;
        (format!("the wire duplicates {}", msg.label()), s)
    }

    /// `--resume`: a fresh coordinator absorbs the base journal and
    /// every shard, persists the merged winners into the base journal,
    /// and only then spawns workers — whose startup truncates their
    /// shards. The `LostLease` bug drops the rows the recovery says to
    /// persist, leaving absorbed completions in coordinator memory only.
    fn resume(&self, bounds: &Bounds, bug: SeededBug) -> (String, ModelState) {
        let mut s = self.clone();
        let (table, absorbed, persisted) = s.recover_table(bounds, bug != SeededBug::LostLease);
        for chan in &mut s.channels {
            chan.clear();
        }
        s.start(bounds, table, false, bug);
        let skipped = if bug == SeededBug::LostLease {
            " [bug: persist skipped]"
        } else {
            ""
        };
        (
            format!(
                "coordinator resumes: absorbs {absorbed} journal row(s), persists {persisted} \
                 winner(s) to base{skipped}, respawns w0..w{} (truncating their shards)",
                bounds.workers - 1
            ),
            s,
        )
    }

    /// The matrix drained: every worker got `@drain`; seal the base
    /// journal with the completed winners it lacks, through the same
    /// recovery the harness's assembly uses. Terminal.
    fn assemble(mut self, bounds: &Bounds) -> (String, ModelState) {
        let live: Vec<Row> = (0..bounds.cells)
            .filter_map(|cell| {
                let (attempt, worker, payload) = self.table()?.cell_winner(cell)?;
                let payload = payload.clone();
                Some(Row {
                    cell,
                    attempt,
                    worker,
                    payload,
                })
            })
            .collect();
        let (recovered, _) = recover(self.base.clone(), live);
        let sealed: Vec<Row> = recovered
            .into_iter()
            .filter(|r| !r.in_base)
            .map(|r| r.winner)
            .collect();
        let label = format!(
            "matrix resolved: @drain all workers, base journal sealed (+{} row(s))",
            sealed.len()
        );
        self.base.extend(sealed);
        self.slots.fill(Slot::Exited);
        for chan in &mut self.channels {
            chan.clear();
        }
        self.done = true;
        (label, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Let slot `slot`'s running worker complete its cell.
    fn finish(s: &ModelState, slot: usize) -> (String, ModelState) {
        let Slot::Running(msg) = s.slots[slot] else {
            panic!("slot {slot} is not running")
        };
        s.finish(slot, msg, false)
    }

    #[test]
    fn init_state_has_the_expected_shape() {
        let bounds = Bounds::default();
        let s = ModelState::init(&bounds, SeededBug::None);
        assert_eq!(s.slots.len(), bounds.workers);
        assert_eq!(s.offers.len(), bounds.cells);
        assert!(!s.done);
        let succ = s.successors(&bounds, SeededBug::None);
        // Two idle asks, one worker death per slot, one coordinator
        // hand-off (standby is registered by default); no poll (the
        // machine has nothing to do), no clock moves yet (nothing
        // waiting, nothing leased), no net moves (channels empty), and
        // the intruder's admission probe happened at init.
        assert_eq!(succ.len(), 2 * bounds.workers + 1);
    }

    #[test]
    fn canonicalization_collapses_clock_shifts() {
        let bounds = Bounds::default();
        let s = ModelState::init(&bounds, SeededBug::None);
        let Some((_, asked)) = s.ask(0, &bounds) else {
            panic!("idle worker must be grantable")
        };
        // The same state under a shifted clock must NOT collapse (the
        // lease age differs).
        let mut shifted = asked.clone();
        shifted.now += 500;
        assert_ne!(asked.canonical(), shifted.canonical());
        // A true uniform shift: replay the same transition at a later
        // clock.
        let mut late = ModelState::init(&bounds, SeededBug::None);
        late.now = 500;
        let Some((_, late_asked)) = late.ask(0, &bounds) else {
            panic!("idle worker must be grantable")
        };
        assert_eq!(asked.canonical(), late_asked.canonical());
    }

    #[test]
    fn a_completion_round_trip_reaches_done_for_a_tiny_matrix() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 0,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds, SeededBug::None);
        let (_, s) = s.ask(0, &bounds).unwrap();
        let (_, s) = finish(&s, 0);
        let (_, s) = s.deliver(0).unwrap();
        assert!(s.table().unwrap().is_done());
        let (label, s) = s.poll(&bounds).unwrap();
        assert!(label.contains("matrix resolved"), "{label}");
        assert!(s.done);
        assert_eq!(s.base.len(), 1);
        assert_eq!(s.base[0].payload, payload_of(0));
        assert!(s.successors(&bounds, SeededBug::None).is_empty());
    }

    #[test]
    fn a_takeover_fences_the_old_incarnations_frames() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 1,
            failing_cells: 0,
            ..Bounds::default()
        };
        let finished_after_takeover = |bug| {
            let s = ModelState::init(&bounds, bug);
            let (_, s) = s.ask(0, &bounds).unwrap();
            let (_, s) = s.coordinator_dies(true);
            assert!(s.coordinator.is_none() && s.handoff);
            let (_, s) = s.takeover(&bounds, bug);
            assert_eq!(s.epoch, 2);
            assert!(s.coordinator.is_some() && !s.handoff);
            // The worker finishes the cell it was running under epoch 1
            // and resends its @done to the successor.
            finish(&s, 0).1
        };

        // The shipped nonce fences it (the lease id belongs to the dead
        // incarnation's id space).
        let s = finished_after_takeover(SeededBug::None);
        let (label, fenced) = s.deliver(0).unwrap();
        assert!(label.contains("fences"), "{label}");
        assert!(!fenced.stale_applied);
        assert_eq!(
            fenced.coordinator.as_ref().unwrap().counters().stale_fenced,
            1
        );
        // Either way the completion is durable in the (untruncated)
        // shard, so no committed result was lost across the hand-off.
        assert!(fenced.shards.values().flatten().any(|r| r.cell == 0));

        // The raw-XOR nonce hands the successor its predecessor's nonce:
        // the shipped fence lets the stale frame through, and the ghost
        // records it for R1402.
        let s = finished_after_takeover(SeededBug::SplitBrain);
        let (label, split) = s.deliver(0).unwrap();
        assert!(!label.contains("fences"), "{label}");
        assert!(split.stale_applied);
    }

    #[test]
    fn the_intruder_is_refused_by_the_shipped_admission_gate() {
        // Token-gated bounds probe the coordinator at init: the wrong
        // token stays out, the run's own token gets in — both ghosts
        // clean, so R1403 holds from the initial state on.
        let bounds = Bounds::default();
        assert!(bounds.token);
        let s = ModelState::init(&bounds, SeededBug::None);
        assert!(!s.intruder_admitted && !s.legit_refused);
        assert_eq!(
            s.coordinator.as_ref().unwrap().counters().auth_rejected,
            2,
            "a wrong token and a missing one"
        );
        // An ungated fleet never probes.
        let ungated = ModelState::init(
            &Bounds {
                token: false,
                ..bounds
            },
            SeededBug::None,
        );
        assert!(!ungated.intruder_admitted && !ungated.legit_refused);
    }

    #[test]
    fn net_drop_and_dup_stay_within_the_budget_and_fifo_discipline() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 0,
            net: 1,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds, SeededBug::None);
        let (_, s) = s.ask(0, &bounds).unwrap();
        let (_, s) = finish(&s, 0);
        let (_, dropped) = s.net_drop(0);
        assert!(dropped.channels[0].is_empty());
        assert_eq!(dropped.net_used, 1);
        // Budget exhausted: no further net moves are offered.
        assert!(dropped
            .successors(&bounds, SeededBug::None)
            .iter()
            .all(|(l, _)| !l.contains("the wire")));

        let (_, duped) = s.net_dup(0);
        assert_eq!(duped.channels[0].len(), 2);
        assert_eq!(duped.channels[0][0], duped.channels[0][1]);
    }

    #[test]
    fn a_successor_that_loses_every_adopted_worker_spawns_a_pool() {
        // The successor owns no slots, so an adopted worker's death is
        // not respawned; with nobody left and the rescue window closed
        // by the reconnect, it spawns a pool of its own on ids no
        // adopted worker used, and the sweep carries on.
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 2,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds, SeededBug::None);
        let (_, s) = s.coordinator_dies(true);
        let (_, s) = s.takeover(&bounds, SeededBug::None);
        let (_, s) = s.die(0);
        let (label, s) = s.detect(0, &bounds);
        assert!(label.contains("not respawned"), "{label}");
        let (label, s) = s.poll(&bounds).unwrap();
        assert!(label.contains("the successor spawns w1"), "{label}");
        assert_eq!(s.slots[0], Slot::Idle { worker: 1 });
        assert_eq!(s.shards[&1], Vec::new());
        assert!(s.coordinator.as_ref().is_some_and(|c| c.slots_alive()));
        assert!(crate::invariants::check(&s, &bounds).is_none());
        assert!(!s.successors(&bounds, SeededBug::None).is_empty());
    }

    #[test]
    fn a_rescue_pool_spawns_above_every_shard_the_takeover_absorbed() {
        // The primary's only worker dies and so does the primary: no
        // worker reconnects, so the successor's rescue window spawns a
        // pool, whose fresh worker must not truncate w0's shard.
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 2,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds, SeededBug::None);
        let (_, s) = s.die(0);
        let (_, s) = s.coordinator_dies(true);
        let (label, s) = s.takeover(&bounds, SeededBug::None);
        assert!(label.contains("1 fresh worker(s) spawned"), "{label}");
        assert_eq!(s.slots[0], Slot::Idle { worker: 1 });
        assert!(s.shards.contains_key(&0) && s.shards.contains_key(&1));
        assert!(crate::invariants::check(&s, &bounds).is_none());
    }

    #[test]
    fn a_respawned_worker_takes_the_id_the_coordinator_spawned() {
        let bounds = Bounds {
            workers: 2,
            cells: 1,
            crashes: 1,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds, SeededBug::None);
        let (_, s) = s.die(1);
        let (label, s) = s.detect(1, &bounds);
        assert!(label.contains("respawns slot 1 as w3"), "{label}");
        assert_eq!(s.slots[1], Slot::Idle { worker: 3 });
        assert!(s.shards.contains_key(&3));
    }
}
