//! Worker liveness tracking: the heartbeat reaper as a pure, clock-free
//! state machine.
//!
//! The [`crate::coordinator::Coordinator`] reaps through it. Its edge
//! cases — a `@beat` delayed *just* past the deadline, a worker declared
//! dead twice, a reaped worker reconnecting — run on a caller-supplied
//! millisecond clock, as [`crate::lease::LeaseTable`] does, so they are
//! pinned by virtual-clock unit tests:
//!
//! * a worker is **stale** once `now - last_seen > timeout`; the reap is
//!   idempotent (`declare_dead` reports whether this call killed it), so
//!   a frame raced against the deadline can never double-reap;
//! * a dead worker that speaks again (reconnection after a partition
//!   heals) is **revived** explicitly, resetting its liveness clock.

use std::collections::{BTreeMap, BTreeSet};

/// Liveness state for every worker the coordinator has ever admitted,
/// driven by an external millisecond clock.
#[derive(Debug, Clone)]
pub struct Liveness {
    timeout_ms: u64,
    last_seen: BTreeMap<u64, u64>,
    dead: BTreeSet<u64>,
}

impl Liveness {
    /// A tracker reaping workers silent for more than `timeout_ms`.
    #[must_use]
    pub fn new(timeout_ms: u64) -> Liveness {
        Liveness {
            timeout_ms,
            last_seen: BTreeMap::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Record proof of life for `worker` at `now` (any frame counts, not
    /// just `@beat`). A dead worker stays dead until [`Liveness::revive`]
    /// — hearing a late frame from a reaped worker must not resurrect it
    /// behind the lease table's back.
    pub fn observe(&mut self, worker: u64, now: u64) {
        if !self.dead.contains(&worker) {
            self.last_seen.insert(worker, now);
        }
    }

    /// Workers that are now past the silence deadline and not yet
    /// declared dead, in id order.
    #[must_use]
    pub fn stale(&self, now: u64) -> Vec<u64> {
        self.last_seen
            .iter()
            .filter(|(worker, seen)| {
                !self.dead.contains(worker) && now.saturating_sub(**seen) > self.timeout_ms
            })
            .map(|(worker, _)| *worker)
            .collect()
    }

    /// Declare `worker` dead. Returns `true` iff this call killed it —
    /// the idempotence guarantee the reaper and the EOF path both lean
    /// on, so a worker reaped at the deadline and seen hanging up a
    /// poll later is only ever processed once.
    pub fn declare_dead(&mut self, worker: u64) -> bool {
        self.last_seen.remove(&worker);
        self.dead.insert(worker)
    }

    /// The last instant `worker` was observed, if it is tracked and not
    /// dead — the crash-report timestamp the transport records before a
    /// reap erases it.
    #[must_use]
    pub fn last_seen(&self, worker: u64) -> Option<u64> {
        self.last_seen.get(&worker).copied()
    }

    /// Whether `worker` is currently declared dead.
    #[must_use]
    pub fn is_dead(&self, worker: u64) -> bool {
        self.dead.contains(&worker)
    }

    /// Bring a dead worker back (it reconnected and re-admitted) and
    /// restart its liveness clock at `now`. Returns `true` iff the
    /// worker was actually dead.
    pub fn revive(&mut self, worker: u64, now: u64) -> bool {
        let was_dead = self.dead.remove(&worker);
        self.last_seen.insert(worker, now);
        was_dead
    }

    /// Forget `worker` entirely (it drained cleanly; its silence is no
    /// longer meaningful).
    pub fn forget(&mut self, worker: u64) {
        self.last_seen.remove(&worker);
        self.dead.remove(&worker);
    }

    /// Every worker tracked or declared dead.
    pub fn workers(&self) -> impl Iterator<Item = u64> + '_ {
        self.last_seen.keys().chain(&self.dead).copied()
    }

    /// How many workers are currently declared dead.
    #[must_use]
    pub fn dead_count(&self) -> usize {
        self.dead.len()
    }

    /// The tracked and dead worker sets without their timestamps — the
    /// part of the reaper a canonical coordinator snapshot renders.
    #[must_use]
    pub fn members(&self) -> String {
        let live: Vec<&u64> = self.last_seen.keys().collect();
        format!("live {live:?} dead {:?}", self.dead)
    }

    /// The earliest instant at which some live worker could become
    /// stale, for event-loop timeout clamping. `None` when nothing is
    /// tracked.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.last_seen
            .iter()
            .filter(|(worker, _)| !self.dead.contains(worker))
            .map(|(_, seen)| seen + self.timeout_ms + 1)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: u64 = 10_000;

    #[test]
    fn a_beat_delayed_just_past_the_deadline_reaps_exactly_once() {
        // The reaper edge case from the net-fault storms: worker 3's
        // @beat is delayed so its last observation ages just past the
        // timeout. The reaper must fire exactly once — not zero times
        // (the worker is silent), not twice (the poll loop re-checks
        // every tick).
        let mut live = Liveness::new(TIMEOUT);
        live.observe(3, 0);
        live.observe(4, 0);
        live.observe(4, TIMEOUT); // worker 4 keeps beating

        assert!(live.stale(TIMEOUT).is_empty(), "deadline is exclusive");
        assert_eq!(live.stale(TIMEOUT + 1), vec![3], "one tick past: stale");

        assert!(live.declare_dead(3), "first declaration kills");
        assert!(!live.declare_dead(3), "second declaration is a no-op");
        assert!(live.is_dead(3));

        // Subsequent polls never re-report the dead worker.
        assert!(live.stale(TIMEOUT + 2).is_empty());
        assert!(live.stale(2 * TIMEOUT + 2).contains(&4), "4 ages out later");
    }

    #[test]
    fn the_delayed_beat_itself_cannot_resurrect_a_reaped_worker() {
        // The in-flight @beat finally arrives after the reap. Observing
        // it must not bring the worker back — its leases were already
        // stolen; only an explicit revive (re-admission) may.
        let mut live = Liveness::new(TIMEOUT);
        live.observe(3, 0);
        assert!(live.declare_dead(3));
        live.observe(3, TIMEOUT + 500); // the late beat lands
        assert!(live.is_dead(3));
        assert!(live.stale(3 * TIMEOUT).is_empty());

        assert!(live.revive(3, 2 * TIMEOUT), "re-admission revives");
        assert!(!live.is_dead(3));
        assert!(live.stale(3 * TIMEOUT).is_empty(), "clock restarted");
        assert_eq!(live.stale(3 * TIMEOUT + 2), vec![3]);
    }

    #[test]
    fn deadline_clamping_tracks_the_quietest_live_worker() {
        let mut live = Liveness::new(TIMEOUT);
        assert_eq!(live.next_deadline(), None);
        live.observe(1, 100);
        live.observe(2, 700);
        assert_eq!(live.next_deadline(), Some(100 + TIMEOUT + 1));
        live.declare_dead(1);
        assert_eq!(live.next_deadline(), Some(700 + TIMEOUT + 1));
        live.forget(2);
        assert_eq!(live.next_deadline(), None);
        assert_eq!(live.dead_count(), 1);
    }
}
