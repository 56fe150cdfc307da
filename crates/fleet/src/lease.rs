//! The coordinator's lease table: which worker owns which cell, for how
//! long, and what happens when it dies.
//!
//! The table is a pure state machine over a caller-supplied millisecond
//! clock (`now`): the transport layer feeds it wall time from a
//! `WallSpan`, the tests feed it a virtual clock, and nothing in here
//! ever sleeps — which is what makes lease expiry, reassignment and
//! backoff-sequence pinning testable without real time.
//!
//! Life of a cell:
//!
//! ```text
//!            grant                    complete
//! Pending ───────────▶ Leased ───────────────────▶ Completed
//!    ▲                   │ ▲                            ▲
//!    │   expiry/death    │ │ steal (duplicate lease)    │ late/duplicate
//!    └───────────────────┘ └────────────────────────────┘ Done: merged by
//!        (+ seeded full-jitter backoff;                    (attempt, worker)
//!         cell-level Fail also burns retry budget
//!         ──▶ Quarantined past max_retries)
//! ```
//!
//! Two failure currencies are deliberately distinct: a **cell** failure
//! (the workload panicked or errored — reported by a live worker via
//! `@fail`) burns the cell's retry budget exactly as a sequential retry
//! would, while a **worker** failure (death, EOF, lease expiry) merely
//! requeues the cell with backoff. A storm that SIGKILLs half the fleet
//! therefore can never quarantine an innocent cell, which is what lets
//! the merged CSV stay byte-identical to an undisturbed run.
//!
//! The table is generic over the completion payload `P` (`String` by
//! default, which is what the model checker drives), ordered for the
//! merge tiebreak; the harness instantiates it once with its typed cell
//! outcome, for every isolation mode. Executors that enforce the cell
//! deadline themselves never call [`LeaseTable::expire`] and stop asking
//! once [`LeaseTable::has_pending`] turns false, so they never see a
//! stolen lease either.

use std::collections::BTreeMap;

use chopin_faults::SupervisorPolicy;

use crate::merge::CellMerge;

/// Fleet counters, surfaced through the chopin-obs registry as
/// `fleet.*` by the harness transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseMetrics {
    /// Leases handed out (including re-leases and steals).
    pub issued: u64,
    /// Leases that outlived their deadline and were reassigned.
    pub expired: u64,
    /// Duplicate leases granted on straggler cells.
    pub stolen: u64,
    /// Cells put back on the pending queue with backoff.
    pub requeued: u64,
    /// Duplicate completions resolved by the `(attempt, worker)` merge.
    pub conflicts: u64,
    /// Worker deaths reported by the transport.
    pub worker_deaths: u64,
}

/// A lease handed to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// Lease id, echoed back in `Done`/`Fail`.
    pub lease: u64,
    /// Index of the leased cell in the schedule.
    pub cell: usize,
    /// 1-based attempt number for this cell.
    pub attempt: u32,
    /// Whether this is a duplicate lease stolen from a straggler.
    pub stolen: bool,
}

/// The coordinator's answer to a worker asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Run this cell.
    Lease(LeaseGrant),
    /// Nothing grantable yet; ask again in this many milliseconds.
    Wait(u64),
    /// Every cell is resolved; exit cleanly.
    Drain,
}

/// What a cell-level failure report did to the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOutcome {
    /// The cell went back on the pending queue (with backoff).
    Requeued,
    /// The cell exhausted its retry budget and is quarantined.
    Quarantined,
    /// The report was stale (unknown lease, or the cell already
    /// resolved) and changed nothing.
    Ignored,
}

/// How one cell ended up once the table is drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellResolution<P = String> {
    /// Completed; the merged winner's provenance and payload.
    Completed {
        /// Winning attempt number.
        attempt: u32,
        /// Winning worker id.
        worker: u64,
        /// The winner's response payload.
        payload: P,
    },
    /// Retry budget exhausted by cell-level failures.
    Quarantined {
        /// The last failure reason reported for the cell.
        reason: String,
    },
    /// Never resolved (the coordinator aborted mid-run).
    Unresolved,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending { not_before: u64 },
    Leased,
    Completed,
    Quarantined,
}

#[derive(Debug, Clone)]
struct CellState<P> {
    phase: Phase,
    attempts: u32,
    failures: u32,
    requeues: u32,
    outstanding: u32,
    merge: CellMerge<P>,
    last_failure: Option<String>,
}

impl<P> CellState<P> {
    fn resolved(&self) -> bool {
        matches!(self.phase, Phase::Completed | Phase::Quarantined)
    }

    /// The cell's resolution, given its merge winner.
    fn resolution(&self, winner: Option<(u32, u64, P)>) -> CellResolution<P> {
        match self.phase {
            Phase::Completed => match winner {
                Some((attempt, worker, payload)) => CellResolution::Completed {
                    attempt,
                    worker,
                    payload,
                },
                None => CellResolution::Unresolved,
            },
            Phase::Quarantined => CellResolution::Quarantined {
                reason: self
                    .last_failure
                    .clone()
                    .unwrap_or_else(|| "errored:unknown".to_string()),
            },
            Phase::Pending { .. } | Phase::Leased => CellResolution::Unresolved,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LeaseRecord {
    cell: usize,
    worker: u64,
    attempt: u32,
    issued_at: u64,
    active: bool,
}

/// The lease state machine over completion payloads `P`. See the module
/// docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct LeaseTable<P = String> {
    policy: SupervisorPolicy,
    deadline_ms: u64,
    seeds: Vec<u64>,
    cells: Vec<CellState<P>>,
    leases: BTreeMap<u64, LeaseRecord>,
    next_lease: u64,
    metrics: LeaseMetrics,
}

impl<P: Ord + Clone + std::fmt::Debug> LeaseTable<P> {
    /// A table over one cell per entry of `seeds` (the per-cell backoff
    /// seeds, i.e. `cell_seed` of the schedule), retrying under
    /// `policy` with the given lease deadline.
    #[must_use]
    pub fn new(seeds: Vec<u64>, policy: SupervisorPolicy, deadline_ms: u64) -> Self {
        let cells = seeds
            .iter()
            .map(|_| CellState {
                phase: Phase::Pending { not_before: 0 },
                attempts: 0,
                failures: 0,
                requeues: 0,
                outstanding: 0,
                merge: CellMerge::new(),
                last_failure: None,
            })
            .collect();
        LeaseTable {
            policy,
            deadline_ms,
            seeds,
            cells,
            leases: BTreeMap::new(),
            next_lease: 0,
            metrics: LeaseMetrics::default(),
        }
    }

    /// Number of cells in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the table has no cells at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Pre-resolve a cell from a recovered journal entry (resume after a
    /// coordinator crash). Duplicates across worker journals go through
    /// the same `(attempt, worker)` merge as live completions.
    pub fn absorb(&mut self, cell: usize, attempt: u32, worker: u64, payload: P) {
        let Some(state) = self.cells.get_mut(cell) else {
            return;
        };
        if state.merge.is_resolved() {
            self.metrics.conflicts += 1;
        }
        state.merge.offer(attempt, worker, payload);
        state.attempts = state.attempts.max(attempt);
        state.phase = Phase::Completed;
    }

    /// Hand out work to `worker` at virtual time `now`.
    pub fn grant(&mut self, worker: u64, now: u64) -> Grant {
        // Lowest pending index first: grant order is deterministic given
        // the request order, and matches the sequential schedule.
        let mut wait: Option<u64> = None;
        let mut grantable: Option<usize> = None;
        for (idx, cell) in self.cells.iter().enumerate() {
            if let Phase::Pending { not_before } = cell.phase {
                if not_before <= now {
                    grantable = Some(idx);
                    break;
                }
                let delay = not_before - now;
                wait = Some(wait.map_or(delay, |w: u64| w.min(delay)));
            }
        }
        if let Some(idx) = grantable {
            return Grant::Lease(self.issue(idx, worker, now, false));
        }
        if let Some(delay) = wait {
            return Grant::Wait(delay.max(1));
        }
        if self.cells.iter().all(CellState::resolved) {
            return Grant::Drain;
        }
        // No pending, not done: everything left is leased out. Steal a
        // duplicate lease on the most straggling cell — but only once
        // its lease has aged past half the deadline, so healthy runs
        // never fork duplicate work.
        let steal_age = (self.deadline_ms / 2).max(1);
        let mut straggler: Option<(u64, usize)> = None;
        for (idx, cell) in self.cells.iter().enumerate() {
            if cell.phase != Phase::Leased || cell.outstanding >= 2 {
                continue;
            }
            let held_by_requester = self
                .leases
                .values()
                .any(|l| l.active && l.cell == idx && l.worker == worker);
            if held_by_requester {
                continue;
            }
            let oldest = self
                .leases
                .values()
                .filter(|l| l.active && l.cell == idx)
                .map(|l| l.issued_at)
                .min();
            if let Some(issued_at) = oldest {
                if issued_at + steal_age <= now
                    && straggler.is_none_or(|(best, _)| issued_at < best)
                {
                    straggler = Some((issued_at, idx));
                }
            }
        }
        if let Some((_, idx)) = straggler {
            self.metrics.stolen += 1;
            return Grant::Lease(self.issue(idx, worker, now, true));
        }
        // Wait until the youngest lease crosses the steal threshold or
        // its deadline, whichever the caller hits first.
        let next_edge = self
            .leases
            .values()
            .filter(|l| l.active)
            .map(|l| (l.issued_at + steal_age).saturating_sub(now))
            .min()
            .unwrap_or(steal_age);
        Grant::Wait(next_edge.clamp(1, self.deadline_ms.max(1)))
    }

    fn issue(&mut self, cell: usize, worker: u64, now: u64, stolen: bool) -> LeaseGrant {
        let state = &mut self.cells[cell];
        state.attempts += 1;
        state.outstanding += 1;
        state.phase = Phase::Leased;
        let lease = self.next_lease;
        self.next_lease += 1;
        self.metrics.issued += 1;
        self.leases.insert(
            lease,
            LeaseRecord {
                cell,
                worker,
                attempt: state.attempts,
                issued_at: now,
                active: true,
            },
        );
        LeaseGrant {
            lease,
            cell,
            attempt: state.attempts,
            stolen,
        }
    }

    fn requeue(&mut self, cell: usize, now: u64) {
        let seed = self.seeds[cell];
        let state = &mut self.cells[cell];
        if state.resolved() || state.outstanding > 0 {
            return;
        }
        let delay = self.policy.backoff_jitter_ms(state.requeues, seed);
        state.requeues += 1;
        state.phase = Phase::Pending {
            not_before: now.saturating_add(delay),
        };
        self.metrics.requeued += 1;
    }

    /// A worker reported a completed lease. Late and duplicate reports
    /// are welcome: they feed the `(attempt, worker)` merge, no matter
    /// how far past the lease deadline the clock has moved — acceptance
    /// is keyed on the lease id being known, never on `now`. Returns
    /// `false` for an unknown lease id.
    pub fn complete(&mut self, lease: u64, payload: P) -> bool {
        let Some(record) = self.leases.get_mut(&lease) else {
            return false;
        };
        let (cell, worker, attempt, was_active) =
            (record.cell, record.worker, record.attempt, record.active);
        record.active = false;
        let state = &mut self.cells[cell];
        if was_active {
            state.outstanding = state.outstanding.saturating_sub(1);
        }
        if state.merge.is_resolved() {
            self.metrics.conflicts += 1;
        }
        state.merge.offer(attempt, worker, payload);
        state.phase = Phase::Completed;
        true
    }

    /// A worker reported a **cell-level** failure (panic/error inside
    /// the workload): burns the cell's retry budget.
    pub fn fail(&mut self, lease: u64, reason: &str, now: u64) -> FailOutcome {
        let Some(record) = self.leases.get_mut(&lease) else {
            return FailOutcome::Ignored;
        };
        if !record.active {
            return FailOutcome::Ignored;
        }
        record.active = false;
        let cell = record.cell;
        let state = &mut self.cells[cell];
        state.outstanding = state.outstanding.saturating_sub(1);
        if state.resolved() {
            return FailOutcome::Ignored;
        }
        state.failures += 1;
        state.last_failure = Some(reason.to_string());
        if state.failures > self.policy.max_retries {
            state.phase = Phase::Quarantined;
            return FailOutcome::Quarantined;
        }
        if state.outstanding == 0 {
            self.requeue(cell, now);
        }
        FailOutcome::Requeued
    }

    /// The transport saw a worker die (EOF, SIGKILL, reaped child): all
    /// its outstanding leases are released and their cells requeued with
    /// backoff — **without** burning any cell's retry budget.
    pub fn worker_dead(&mut self, worker: u64, now: u64) {
        self.metrics.worker_deaths += 1;
        let victims: Vec<(u64, usize)> = self
            .leases
            .iter()
            .filter(|(_, l)| l.active && l.worker == worker)
            .map(|(id, l)| (*id, l.cell))
            .collect();
        for (id, cell) in victims {
            if let Some(record) = self.leases.get_mut(&id) {
                record.active = false;
            }
            let state = &mut self.cells[cell];
            state.outstanding = state.outstanding.saturating_sub(1);
            if !state.resolved() && state.outstanding == 0 {
                self.requeue(cell, now);
            }
        }
    }

    /// Indices of the cells currently leased to `worker`, in schedule
    /// order — what the transport names in a crash report *before*
    /// declaring the worker dead (which releases the leases).
    #[must_use]
    pub fn held_cells(&self, worker: u64) -> Vec<usize> {
        self.leases
            .values()
            .filter(|l| l.active && l.worker == worker)
            .map(|l| l.cell)
            .collect()
    }

    /// Expire every lease past its deadline, requeueing the affected
    /// cells. Returns the number of leases expired.
    ///
    /// The deadline instant itself belongs to expiry: a lease issued at
    /// `t` with deadline `D` is expired by `expire(t + D)`. A `Done`
    /// arriving at exactly `t + D` is therefore accepted either way —
    /// [`complete`](Self::complete) never consults the clock — and the
    /// `(attempt, worker)` merge makes the final resolution identical
    /// whichever of the two is processed first (pinned by
    /// `done_at_the_deadline_instant_is_order_independent`).
    pub fn expire(&mut self, now: u64) -> u64 {
        let victims: Vec<(u64, usize)> = self
            .leases
            .iter()
            .filter(|(_, l)| l.active && l.issued_at + self.deadline_ms <= now)
            .map(|(id, l)| (*id, l.cell))
            .collect();
        let count = victims.len() as u64;
        for (id, cell) in victims {
            if let Some(record) = self.leases.get_mut(&id) {
                record.active = false;
            }
            self.metrics.expired += 1;
            let state = &mut self.cells[cell];
            state.outstanding = state.outstanding.saturating_sub(1);
            if !state.resolved() && state.outstanding == 0 {
                self.requeue(cell, now);
            }
        }
        count
    }

    /// Milliseconds until the earliest outstanding lease deadline, if
    /// any lease is outstanding (the coordinator's poll timeout).
    #[must_use]
    pub fn next_deadline_in(&self, now: u64) -> Option<u64> {
        self.leases
            .values()
            .filter(|l| l.active)
            .map(|l| (l.issued_at + self.deadline_ms).saturating_sub(now))
            .min()
    }

    /// Whether every cell is resolved (completed or quarantined).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cells.iter().all(CellState::resolved)
    }

    /// Whether any cell waits to be granted, backoff included. Once this
    /// is false every unresolved cell is held by a lease, so an executor
    /// that never loses a lease (it enforces the cell deadline itself and
    /// reports a blown one as a failure) can stop asking: whoever holds a
    /// cell completes it, or fails it and asks again.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.cells
            .iter()
            .any(|cell| matches!(cell.phase, Phase::Pending { .. }))
    }

    /// Number of resolved cells so far.
    #[must_use]
    pub fn resolved_count(&self) -> usize {
        self.cells.iter().filter(|c| c.resolved()).count()
    }

    /// The fleet counters.
    #[must_use]
    pub fn metrics(&self) -> LeaseMetrics {
        self.metrics
    }

    /// The merged winner of one cell, if any completion has been
    /// offered: `(attempt, worker, payload)`.
    #[must_use]
    pub fn cell_winner(&self, cell: usize) -> Option<(u32, u64, &P)> {
        self.cells.get(cell)?.merge.winner()
    }

    /// Consume the table, yielding one resolution per cell in schedule
    /// order; payloads move out rather than being cloned.
    #[must_use]
    pub fn into_resolutions(self) -> Vec<CellResolution<P>> {
        self.cells
            .into_iter()
            .map(|mut cell| {
                let winner = std::mem::replace(&mut cell.merge, CellMerge::new()).into_winner();
                cell.resolution(winner)
            })
            .collect()
    }

    /// Canonical rendering of the table at virtual time `now`, with
    /// every embedded instant rebased to a delta against `now` — two
    /// tables that differ only by a uniform clock shift render
    /// identically, which is what lets the model checker deduplicate
    /// states reached at different absolute times. Everything that can
    /// influence *future* behaviour or the final CSV is included
    /// (phases, budgets, merge winners, live lease records);
    /// report-only counters ([`LeaseMetrics`], merge conflict tallies)
    /// are deliberately left out — and so are spent lease records and
    /// the lease counter, a symmetry reduction the model relies on. A
    /// spent record's `(cell, worker, attempt)` is fully determined by
    /// the `Done`/`Fail` frame that could still name it, and unissued
    /// lease ids are opaque names, so two tables differing only there
    /// behave identically up to renaming.
    #[must_use]
    pub fn snapshot(&self, now: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (idx, cell) in self.cells.iter().enumerate() {
            let phase = match cell.phase {
                Phase::Pending { not_before } => {
                    format!("pending+{}", not_before.saturating_sub(now))
                }
                Phase::Leased => "leased".to_string(),
                Phase::Completed => "completed".to_string(),
                Phase::Quarantined => "quarantined".to_string(),
            };
            let winner = cell
                .merge
                .winner()
                .map(|(a, w, p)| format!("{a}/{w}/{p:?}"))
                .unwrap_or_default();
            let failure = cell.last_failure.as_deref().unwrap_or("");
            let _ = writeln!(
                out,
                "cell {idx} {phase} a{} f{} r{} o{} win[{winner}] last[{failure:?}]",
                cell.attempts, cell.failures, cell.requeues, cell.outstanding,
            );
        }
        for (id, lease) in self.leases.iter().filter(|(_, l)| l.active) {
            let _ = writeln!(
                out,
                "lease {id} c{} w{} a{} age{}",
                lease.cell,
                lease.worker,
                lease.attempt,
                now.saturating_sub(lease.issued_at),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cells: usize, deadline_ms: u64, max_retries: u32) -> LeaseTable {
        let policy = SupervisorPolicy {
            cell_deadline_ms: Some(30_000),
            max_retries,
            backoff_base_ms: 10,
            backoff_max_ms: 1_000,
        };
        // Distinct fixed seeds per cell, as cell_seed would produce.
        let seeds = (0..cells).map(|i| 0xC0FFEE + i as u64).collect();
        LeaseTable::new(seeds, policy, deadline_ms)
    }

    fn lease_of(grant: Grant) -> LeaseGrant {
        match grant {
            Grant::Lease(l) => l,
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    #[test]
    fn expiry_reassigns_to_another_worker_with_pinned_backoff() {
        let mut t = table(1, 100, 2);
        let policy = t.policy;
        let seed = t.seeds[0];
        let first = lease_of(t.grant(0, 0));
        assert_eq!((first.cell, first.attempt), (0, 1));
        // One millisecond short of the deadline: nothing expires, and
        // another worker gets told to wait (steal threshold not hit
        // either at age < deadline/2... it is at 99 > 50, so it steals).
        assert_eq!(t.expire(99), 0);
        // At the deadline the lease expires and the cell requeues with
        // the exact sequential jitter for its first requeue.
        assert_eq!(t.expire(100), 1);
        assert_eq!(t.metrics().expired, 1);
        let backoff = policy.backoff_jitter_ms(0, seed);
        assert!(backoff > 0, "seed chosen so the delay is visible");
        match t.grant(1, 100) {
            Grant::Wait(ms) => assert_eq!(ms, backoff),
            other => panic!("expected backoff wait, got {other:?}"),
        }
        let second = lease_of(t.grant(1, 100 + backoff));
        assert_eq!((second.cell, second.attempt), (0, 2));
        // The late worker's completion for the expired lease still
        // counts as a merge candidate — and wins on lower attempt.
        assert!(t.complete(first.lease, "late-but-first-attempt".to_string()));
        assert!(t.complete(second.lease, "release".to_string()));
        assert_eq!(t.metrics().conflicts, 1);
        let res = t.into_resolutions();
        assert_eq!(
            res[0],
            CellResolution::Completed {
                attempt: 1,
                worker: 0,
                payload: "late-but-first-attempt".to_string()
            }
        );
    }

    #[test]
    fn requeue_backoff_sequence_is_pinned_to_the_supervisor_jitter() {
        let mut t = table(1, 1_000_000, 100);
        let policy = t.policy;
        let seed = t.seeds[0];
        let mut now = 0u64;
        let mut observed = Vec::new();
        for _ in 0..4 {
            let grant = lease_of(t.grant(0, now));
            assert_eq!(
                t.fail(grant.lease, "errored:flaky", now),
                FailOutcome::Requeued
            );
            match t.grant(0, now) {
                Grant::Wait(ms) => {
                    observed.push(ms);
                    now += ms;
                }
                Grant::Lease(l) => {
                    // Zero jitter: immediately grantable again.
                    observed.push(0);
                    assert_eq!(t.fail(l.lease, "errored:flaky", now), FailOutcome::Requeued);
                    // Re-align: the next loop iteration re-grants; undo
                    // the extra fail by not counting it.
                    break;
                }
                Grant::Drain => panic!("not done"),
            }
        }
        let expected: Vec<u64> = (0..observed.len() as u32)
            .map(|a| policy.backoff_jitter_ms(a, seed))
            .collect();
        assert_eq!(
            observed, expected,
            "full-jitter sequence must match the sequential supervisor"
        );
    }

    #[test]
    fn worker_death_requeues_without_burning_retry_budget() {
        let mut t = table(1, 10_000, 0); // zero retries: one cell failure quarantines
        for round in 0..5u64 {
            let now = round * 2_000;
            let grant = lease_of(t.grant(round, now));
            assert_eq!(grant.cell, 0);
            t.worker_dead(round, now);
        }
        assert_eq!(t.metrics().worker_deaths, 5);
        assert!(!t.is_done(), "cell must still be schedulable");
        // A genuine cell failure, by contrast, quarantines immediately
        // under max_retries = 0.
        let now = 20_000;
        let grant = lease_of(t.grant(9, now));
        assert_eq!(
            t.fail(grant.lease, "panicked:boom", now),
            FailOutcome::Quarantined
        );
        assert!(t.is_done());
        let res = t.into_resolutions();
        assert_eq!(
            res[0],
            CellResolution::Quarantined {
                reason: "panicked:boom".to_string()
            }
        );
    }

    #[test]
    fn stragglers_are_stolen_and_duplicates_merge_deterministically() {
        let mut t = table(2, 1_000, 2);
        let a = lease_of(t.grant(0, 0));
        let b = lease_of(t.grant(1, 0));
        assert_ne!(a.cell, b.cell);
        // Worker 1 finishes; nothing pending, worker 0's lease is too
        // young to steal.
        assert!(t.complete(b.lease, "cell1".to_string()));
        match t.grant(1, 100) {
            Grant::Wait(ms) => assert_eq!(ms, 400, "until the steal threshold at deadline/2"),
            other => panic!("expected wait, got {other:?}"),
        }
        // Past half the deadline the straggler is stolen.
        let stolen = lease_of(t.grant(1, 500));
        assert!(stolen.stolen);
        assert_eq!(stolen.cell, a.cell);
        assert_eq!(stolen.attempt, 2);
        assert_eq!(t.metrics().stolen, 1);
        // Both finish; the original attempt wins regardless of order.
        assert!(t.complete(stolen.lease, "thief".to_string()));
        assert!(t.complete(a.lease, "original".to_string()));
        assert_eq!(t.metrics().conflicts, 1);
        assert!(t.is_done());
        assert_eq!(t.grant(1, 501), Grant::Drain);
        let res = t.into_resolutions();
        assert_eq!(
            res[0],
            CellResolution::Completed {
                attempt: 1,
                worker: 0,
                payload: "original".to_string()
            }
        );
    }

    #[test]
    fn absorb_prefills_cells_and_merges_journal_duplicates() {
        let mut t = table(3, 1_000, 2);
        t.absorb(0, 1, 4, "w4".to_string());
        t.absorb(0, 1, 2, "w2".to_string()); // steal-race duplicate: lower worker wins
        t.absorb(2, 2, 0, "w0".to_string());
        assert_eq!(t.metrics().conflicts, 1);
        assert_eq!(t.resolved_count(), 2);
        let g = lease_of(t.grant(0, 0));
        assert_eq!(g.cell, 1, "only the unresolved cell is grantable");
        assert!(t.complete(g.lease, "live".to_string()));
        let res = t.into_resolutions();
        assert_eq!(
            res[0],
            CellResolution::Completed {
                attempt: 1,
                worker: 2,
                payload: "w2".to_string()
            }
        );
        assert_eq!(
            res[1],
            CellResolution::Completed {
                attempt: 1,
                worker: 0,
                payload: "live".to_string()
            }
        );
    }

    #[test]
    fn done_at_the_deadline_instant_is_order_independent() {
        // The boundary pin: a lease issued at 0 with deadline 100 is
        // expired by expire(100) — the deadline instant belongs to
        // expiry — while complete() never consults the clock. A @done
        // processed at exactly t=100 must therefore yield the same
        // resolution whether the poll loop sweeps expiry before or
        // after reading it.
        let run = |expire_first: bool| {
            let mut t = table(1, 100, 2);
            let g = lease_of(t.grant(7, 0));
            if expire_first {
                assert_eq!(t.expire(100), 1, "the deadline instant expires");
                assert!(t.complete(g.lease, "boundary".to_string()));
                // The requeued cell may even re-lease; the late winner
                // still holds on lower attempt.
                assert!(t.is_done(), "completion resolves the requeued cell");
            } else {
                assert!(t.complete(g.lease, "boundary".to_string()));
                assert_eq!(t.expire(100), 0, "completion already retired the lease");
            }
            t.into_resolutions()
        };
        let (swept_first, delivered_first) = (run(true), run(false));
        assert_eq!(swept_first, delivered_first);
        assert_eq!(
            swept_first[0],
            CellResolution::Completed {
                attempt: 1,
                worker: 7,
                payload: "boundary".to_string()
            }
        );
        // One millisecond earlier the lease is alive either way.
        let mut t = table(1, 100, 2);
        let g = lease_of(t.grant(7, 0));
        assert_eq!(t.expire(99), 0);
        assert!(t.complete(g.lease, "early".to_string()));
    }

    #[test]
    fn snapshot_is_clock_shift_invariant_and_behaviour_complete() {
        let build = |base: u64| {
            let mut t = table(2, 100, 2);
            let g = lease_of(t.grant(0, base));
            assert!(t.complete(g.lease, "done".to_string()));
            let _ = lease_of(t.grant(1, base + 10));
            t
        };
        let (a, b) = (build(0), build(1_000));
        assert_eq!(
            a.snapshot(20),
            b.snapshot(1_020),
            "uniform clock shifts must not split canonical states"
        );
        // But a behavioural difference — lease age — must show.
        assert_ne!(a.snapshot(20), a.snapshot(21));
        // And report-only counters must stay out: a death report for a
        // worker holding nothing bumps metrics but changes no
        // behaviour, so the canonical form is unchanged.
        let mut c = build(0);
        c.worker_dead(99, 20);
        let fresh = build(0);
        assert_ne!(c.metrics(), fresh.metrics());
        assert_eq!(c.snapshot(20), fresh.snapshot(20));
    }

    #[test]
    fn unresolved_cells_surface_when_the_coordinator_aborts() {
        let mut t = table(2, 1_000, 2);
        let g = lease_of(t.grant(0, 0));
        assert!(t.complete(g.lease, "done".to_string()));
        assert_eq!(t.resolved_count(), 1);
        let res = t.into_resolutions(); // cell 1 never granted
        assert_eq!(res[1], CellResolution::Unresolved);
    }
}
