//! A bounded exhaustive model checker — a mini-TLC — for the fleet
//! lease protocol.
//!
//! PR 8's coordinator/worker sharding is validated dynamically: kill
//! storms, SIGKILLed coordinators and resume runs exercise a handful of
//! interleavings out of an astronomically large space. This crate gives
//! the protocol the same *static* treatment plans already get from
//! chopin-analyzer: every reachable interleaving of wire messages and
//! adversarial events, under small bounds, is enumerated and checked
//! against the protocol's safety and liveness rules (R1301–R1305 plus
//! the partition-tolerance family R1401–R1403 in the shared chopin-lint
//! catalogue).
//!
//! The crucial design point is the **conformance layer**: the model
//! does not re-implement the lease state machine. Its coordinator *is*
//! the shipped [`chopin_fleet::lease::LeaseTable`], driven through the
//! [`chopin_fleet::lease::LeaseEvent`] pure-step surface under the
//! model's virtual clock, and duplicate completions resolve through the
//! real [`chopin_fleet::CellMerge`] tiebreak inside it. A bug fixed in
//! the model but not in the code (or vice versa) is therefore
//! impossible: the explored transitions are the shipped transitions.
//!
//! What *is* abstracted, and how:
//!
//! * **Workers** become three-phase automata (ask → run → report) whose
//!   cell outcomes are pure functions of the cell index, so the
//!   expected CSV is computable a priori and determinism is checkable
//!   per state rather than by comparing runs.
//! * **The wire** keeps the line-framing guarantees and nothing else:
//!   per-channel FIFO order (TCP), cross-channel interleaving chosen
//!   adversarially, and delivery-before-EOF for frames a dead worker
//!   already wrote (the kernel delivers buffered bytes before the
//!   reader sees the hangup). `@hello`/`@welcome` collapse into spawn;
//!   `@beat` only refreshes liveness and is dropped.
//! * **Time** is a virtual millisecond clock that only ever jumps to
//!   the next *interesting* instant — a waiting worker's wake-up or a
//!   lease deadline — with lease expiry gated behind an adversarial
//!   budget so unbounded wedge-loops cannot blow up the space (that is
//!   the fairness assumption behind the bounded-liveness rule R1305).
//! * **Network faults** draw on their own budget `N`: the adversary may
//!   drop or duplicate the head frame of any worker→coordinator channel
//!   (the model of the seeded `--net-faults` shim), with expiry slack
//!   scaled so every dropped `@done` stays recoverable (R1305).
//! * **Hand-off** replaces coordinator crash-and-resume when a standby
//!   is registered: channels die with the primary, the successor
//!   absorbs base + shards *without* truncating shards or respawning
//!   workers, and serves the next epoch. Frames echoing the dead
//!   incarnation fence at delivery (R1401/R1402), and the adversary
//!   gets one admission probe with a wrong token, checked through the
//!   shipped `chopin_fleet::admission` gate (R1403).
//! * **Journals** are per-worker shard logs plus an append-only base
//!   log, with the real lifecycle: workers journal a cell *before*
//!   sending `@done`, respawned and resumed workers truncate their own
//!   shard on startup, and a resuming coordinator absorbs base + shards
//!   and persists merged winners into the base *before* spawning.
//!
//! [`explore()`] runs a breadth-first search over canonically-hashed
//! states ([`state::ModelState::canonical`] rebases every embedded
//! instant against the clock so time-shifted duplicates collapse),
//! checks the safety rules on every state, and reconstructs a minimal
//! message-by-message counterexample trace from BFS parent pointers on
//! violation. Liveness (R1305) is checked after the sweep by reverse
//! reachability: every explored state must be able to reach a drained
//! terminal state.
//!
//! [`demo_lost_lease`] seeds the one-line protocol bug this checker
//! exists to catch — a resume that forgets to persist merged shard
//! winners into the base journal before the respawned workers truncate
//! their shards — and returns the minimal trace proving the loss
//! (R1303) two crashes later. `artifact model --demo lost-lease` shows
//! it end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod explore;
pub mod invariants;
pub mod state;

pub use bounds::Bounds;
pub use explore::{explore, ExploreReport, Violation};
pub use state::{ModelState, SeededBug};

/// Run the checker over the deliberately broken `lost-lease` model: the
/// resume path persists nothing into the base journal, so a completion
/// that only lives in a worker shard dies with the shard truncation on
/// the next resume, and a second coordinator crash proves the loss.
/// Returns the exploration report, whose violation names R1303.
///
/// The bounds are the minimal ones that exhibit the bug: one worker,
/// one cell, and a crash budget of two (crash → lossy resume → crash).
/// The standby is disabled because the bug lives in the *resume* path —
/// with a standby registered, a coordinator death hands off instead of
/// resuming and the lossy truncation never runs.
pub fn demo_lost_lease() -> Result<ExploreReport, String> {
    let bounds = Bounds {
        workers: 1,
        cells: 1,
        crashes: 2,
        net: 0,
        standby: false,
        token: false,
        failing_cells: 0,
        ..Bounds::default()
    };
    explore(&bounds, SeededBug::LostLease)
}

/// Run the checker over the deliberately broken `split-brain` model:
/// the takeover coordinator forgets to fence frames echoing the dead
/// incarnation's epoch, so a `@done` written by the primary's lease
/// space mutates the successor's table — two epochs effectively active
/// at once. Returns the exploration report, whose violation names
/// R1402.
///
/// The bounds are the minimal ones that exhibit the bug: one worker,
/// one cell, one coordinator death (which the registered standby turns
/// into a hand-off), and no network faults so the trace stays short.
pub fn demo_split_brain() -> Result<ExploreReport, String> {
    let bounds = Bounds {
        workers: 1,
        cells: 1,
        crashes: 1,
        net: 0,
        token: false,
        failing_cells: 0,
        ..Bounds::default()
    };
    explore(&bounds, SeededBug::SplitBrain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seeded_lost_lease_bug_is_caught_as_r1303() {
        let report = demo_lost_lease().unwrap();
        let violation = report.violation.expect("the seeded bug must be caught");
        assert_eq!(violation.rule, "R1303");
        assert!(
            !violation.trace.is_empty(),
            "a counterexample trace must accompany the violation"
        );
    }

    #[test]
    fn the_correct_protocol_survives_the_demo_bounds() {
        // Same bounds as the demo — double coordinator crash — but with
        // the shipped resume semantics (persist winners before the
        // respawned workers truncate their shards). This is the pin
        // that proves the persist-before-truncate ordering is what
        // makes the difference.
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 2,
            net: 0,
            standby: false,
            token: false,
            failing_cells: 0,
            ..Bounds::default()
        };
        let report = explore(&bounds, SeededBug::None).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.states > 1);
    }

    #[test]
    fn the_seeded_split_brain_bug_is_caught_as_r1402() {
        let report = demo_split_brain().unwrap();
        let violation = report.violation.expect("the seeded bug must be caught");
        assert_eq!(violation.rule, "R1402");
        assert!(
            violation
                .trace
                .iter()
                .any(|step| step.contains("takes over")),
            "the trace must pass through the hand-off: {:?}",
            violation.trace
        );
    }
}
