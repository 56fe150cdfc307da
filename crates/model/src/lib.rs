//! A bounded exhaustive model checker — a mini-TLC — for the fleet
//! lease protocol.
//!
//! The coordinator/worker sharding is validated dynamically: kill
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
//! does not re-implement the coordinator. Its coordinator *is* the
//! shipped [`chopin_fleet::Coordinator`] — admission, nonce fencing,
//! slot respawn ids, the rescue window and the drain, over the real
//! `LeaseTable` and `CellMerge` — fed inputs under the model's virtual
//! clock, and resume, takeover and assembly merge journals through the
//! shipped [`chopin_fleet::recover`]. The seeded bugs live in the
//! model's pump and adversary, never in the shipped code.
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
//!   already wrote. `@hello`/`@welcome` collapse into spawn and
//!   reconnect; `@beat` never lapses (a dead worker surfaces as EOF,
//!   not silence), and the standby's own socket is left out.
//! * **Time** is a virtual millisecond clock that only ever jumps to
//!   the next *interesting* instant — a waiting worker's wake-up, a
//!   lease deadline, a successor's rescue window — with lease expiry
//!   gated behind an adversarial budget (the fairness assumption behind
//!   the bounded-liveness rule R1305). A poll (`Tick`) is a transition
//!   of its own whenever the machine has something to do.
//! * **Network faults** draw on their own budget `N`: the adversary may
//!   drop or duplicate the head frame of any worker→coordinator channel
//!   (the model of the seeded `--net-faults` shim).
//! * **Hand-off** replaces coordinator crash-and-resume when a standby
//!   is registered: channels die with the primary, the successor
//!   absorbs base + shards *without* truncating shards, surviving
//!   workers reconnect, and it serves the next epoch. Whether a frame
//!   echoing the dead incarnation is fenced is the machine's decision
//!   (R1401/R1402); an intruder's wrong-token `@hello` is answered by
//!   the machine too (R1403).
//! * **Journals** are per-worker shard logs plus an append-only base
//!   log, with the real lifecycle: workers journal a cell *before*
//!   sending `@done`, spawned workers truncate their own shard on
//!   startup, and a resuming coordinator persists the winners the base
//!   lacks *before* spawning.
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
/// incarnations mint the raw-XOR nonce, so the successor is handed its
/// predecessor's nonce and the shipped fence lets a `@done` written
/// against the primary's lease space mutate the successor's table —
/// two epochs effectively active at once. Returns the exploration
/// report, whose violation names R1402.
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
