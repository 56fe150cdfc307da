//! The safety rules checked on every reachable state.
//!
//! Seven per-state safety rules (R1301–R1304 for the lease/merge core,
//! R1401–R1403 for the partition-tolerance layer) live here; the
//! bounded liveness rule R1305 needs the whole reachability graph and
//! is checked by [`crate::explore()`] after the sweep. Rule ids are
//! registered in the shared chopin-lint catalogue so `artifact lint
//! --explain R1303` documents them alongside the plan and source rules.
//!
//! | rule  | property |
//! |-------|----------|
//! | R1301 | no cell is committed to the base journal by two winners |
//! | R1302 | the merge winner is the minimal offered candidate — a generation-checked late result never overwrites it |
//! | R1303 | no completed cell is lost between shard truncation and base-journal persist |
//! | R1304 | the merged journal is deterministic: every durable payload and terminal resolution is the pure function of the matrix |
//! | R1401 | no committed result is lost across a coordinator hand-off (same durability obligation as R1303, owed by the takeover path) |
//! | R1402 | a single coordinator epoch is active: frames echoing a dead incarnation never mutate the live lease table |
//! | R1403 | admission is token-gated both ways: a wrong token is refused and the run's own token is admitted |

use std::collections::BTreeSet;

use chopin_fleet::lease::CellResolution;

use crate::bounds::Bounds;
use crate::state::{payload_of, ModelState, Slot, FAIL_REASON};

/// Check every per-state safety rule, returning the first violated
/// rule id and a one-line description of what broke.
#[must_use]
pub fn check(state: &ModelState, bounds: &Bounds) -> Option<(&'static str, String)> {
    // R1402/R1403 come before the merge rules: a stale-epoch mutation
    // or a bogus admission perturbs merge minimality too, and the
    // fencing/admission ghost is the root cause worth reporting.
    r1301_single_committed_winner(state)
        .or_else(|| r1402_epoch_fencing(state))
        .or_else(|| r1403_token_gated_admission(state))
        .or_else(|| r1302_merge_minimality(state, bounds))
        .or_else(|| r1303_durability(state))
        .or_else(|| r1304_determinism(state, bounds))
}

/// R1301: the base journal holds at most one committed row per cell.
fn r1301_single_committed_winner(state: &ModelState) -> Option<(&'static str, String)> {
    let mut seen = BTreeSet::new();
    for row in &state.base {
        if !seen.insert(row.cell) {
            return Some((
                "R1301",
                format!(
                    "cell {} committed to the base journal by two winners",
                    row.cell
                ),
            ));
        }
    }
    None
}

/// R1302: whenever the live table holds a winner for a cell, it is the
/// `(attempt, worker)`-minimal candidate among everything offered to
/// this coordinator incarnation — i.e. no late duplicate from a stolen
/// or expired lease ever overwrote an established winner.
fn r1302_merge_minimality(state: &ModelState, bounds: &Bounds) -> Option<(&'static str, String)> {
    let table = state.table()?;
    for cell in 0..bounds.cells {
        let winner = table.cell_winner(cell);
        let minimal = state.offers[cell].iter().next().copied();
        match (winner, minimal) {
            (Some((a, w, _)), Some((ma, mw))) if (a, w) != (ma, mw) => {
                return Some((
                    "R1302",
                    format!(
                        "cell {cell}: merge winner is attempt {a}/w{w} but the minimal \
                         offered candidate is attempt {ma}/w{mw} — a late result overwrote \
                         the established winner"
                    ),
                ));
            }
            (Some((a, w, _)), None) => {
                return Some((
                    "R1302",
                    format!(
                        "cell {cell}: the table holds winner attempt {a}/w{w} that was \
                         never offered to this coordinator incarnation"
                    ),
                ));
            }
            (None, Some((ma, mw))) => {
                return Some((
                    "R1302",
                    format!(
                        "cell {cell}: attempt {ma}/w{mw} was offered but the merge \
                         recorded no winner"
                    ),
                ));
            }
            _ => {}
        }
    }
    None
}

/// R1303/R1401: every cell that ever had a durable completion record
/// still has one *somewhere* — in the base journal, in a surviving
/// shard, or (transiently) in the live coordinator's memory. Before any
/// hand-off the window is the resume path (R1303: absorbing a shard
/// into memory and then truncating it is only sound if the merged
/// winner was persisted to the base journal first); once a takeover
/// has happened the same obligation is owed by the successor (R1401: a
/// takeover that failed to absorb the shards would lose committed
/// results the primary's workers had already journaled).
fn r1303_durability(state: &ModelState) -> Option<(&'static str, String)> {
    for &cell in &state.durable {
        let in_base = state.base.iter().any(|r| r.cell == cell);
        let in_shard = state.shards.values().flatten().any(|r| r.cell == cell);
        let in_memory = state.table().is_some_and(|t| t.cell_winner(cell).is_some());
        if !in_base && !in_shard && !in_memory {
            let (rule, path) = if state.epoch > 1 {
                ("R1401", "across the coordinator hand-off")
            } else {
                ("R1303", "between shard truncation and base-journal persist")
            };
            return Some((
                rule,
                format!(
                    "cell {cell} was completed and journaled, but its record survives in \
                     no base row, no shard, and no live coordinator — the completion was \
                     lost {path}"
                ),
            ));
        }
    }
    None
}

/// R1402: single active coordinator epoch. The fencing discipline — a
/// `@done`/`@fail` echoing a dead incarnation's nonce is dropped, never
/// applied — is what keeps two incarnations' lease-id spaces from
/// colliding. The ghost records any stale frame the coordinator let
/// through to the live table.
fn r1402_epoch_fencing(state: &ModelState) -> Option<(&'static str, String)> {
    if state.stale_applied {
        return Some((
            "R1402",
            "a frame echoing a fenced (dead) incarnation's epoch mutated the live \
             lease table — two coordinator epochs were effectively active at once"
                .to_string(),
        ));
    }
    None
}

/// R1403: token-gated admission, both ways. The intruder's wrong (or
/// missing) token must be refused, and the run's own token must be
/// admitted — both answered by the shipped coordinator, so the model
/// cannot drift from the code.
fn r1403_token_gated_admission(state: &ModelState) -> Option<(&'static str, String)> {
    if state.intruder_admitted {
        return Some((
            "R1403",
            "the admission gate admitted a worker offering the wrong token".to_string(),
        ));
    }
    if state.legit_refused {
        return Some((
            "R1403",
            "the admission gate refused the run's own token — token gating locked \
             every legitimate worker out"
                .to_string(),
        ));
    }
    None
}

/// R1304: merged-journal determinism. Every durable payload is the
/// pure function of its cell, and a drained run resolves every cell to
/// exactly the outcome the matrix dictates — failing cells quarantined
/// with the deterministic reason and *no* base row, the rest completed
/// with the deterministic payload and exactly one base row (R1301
/// already rules out more than one).
fn r1304_determinism(state: &ModelState, bounds: &Bounds) -> Option<(&'static str, String)> {
    for row in &state.base {
        if row.payload != payload_of(row.cell) {
            return Some((
                "R1304",
                format!(
                    "cell {}: committed payload {:?} diverges from the deterministic \
                     outcome {:?}",
                    row.cell,
                    row.payload,
                    payload_of(row.cell)
                ),
            ));
        }
    }
    if !state.done {
        return None;
    }
    if state.slots.iter().any(|s| !matches!(s, Slot::Exited)) {
        return Some((
            "R1304",
            "the run drained with a worker still attached".to_string(),
        ));
    }
    let table = state.table()?;
    for (cell, resolution) in table.clone().into_resolutions().into_iter().enumerate() {
        let should_fail = cell < bounds.failing_cells;
        let in_base = state.base.iter().any(|r| r.cell == cell);
        match resolution {
            CellResolution::Completed { payload, .. } if !should_fail => {
                if payload != payload_of(cell) {
                    return Some((
                        "R1304",
                        format!("cell {cell}: resolved with payload {payload:?}"),
                    ));
                }
                if !in_base {
                    return Some((
                        "R1304",
                        format!("cell {cell}: completed but never sealed into the base journal"),
                    ));
                }
            }
            CellResolution::Quarantined { reason } if should_fail => {
                if reason != FAIL_REASON {
                    return Some((
                        "R1304",
                        format!("cell {cell}: quarantined with reason {reason:?}"),
                    ));
                }
                if in_base {
                    return Some((
                        "R1304",
                        format!("cell {cell}: quarantined yet committed to the base journal"),
                    ));
                }
            }
            other => {
                return Some((
                    "R1304",
                    format!(
                        "cell {cell}: drained run resolved to {other:?} but the matrix \
                         dictates {}",
                        if should_fail {
                            "quarantine"
                        } else {
                            "completion"
                        }
                    ),
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Row, SeededBug};

    #[test]
    fn the_initial_state_is_clean() {
        let bounds = Bounds::default();
        assert_eq!(
            check(&ModelState::init(&bounds, SeededBug::None), &bounds),
            None
        );
    }

    #[test]
    fn a_doctored_double_commit_trips_r1301() {
        let bounds = Bounds::default();
        let mut s = ModelState::init(&bounds, SeededBug::None);
        for worker in [0, 1] {
            s.base.push(Row {
                cell: 2,
                attempt: 1,
                worker,
                payload: payload_of(2),
            });
        }
        let (rule, _) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1301");
    }

    #[test]
    fn a_doctored_divergent_payload_trips_r1304() {
        let bounds = Bounds::default();
        let mut s = ModelState::init(&bounds, SeededBug::None);
        s.base.push(Row {
            cell: 1,
            attempt: 1,
            worker: 0,
            payload: "payload(cellX)".to_string(),
        });
        let (rule, _) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1304");
    }

    #[test]
    fn a_doctored_orphaned_durable_cell_trips_r1303() {
        let bounds = Bounds::default();
        let mut s = ModelState::init(&bounds, SeededBug::None);
        s.durable.insert(1);
        s.coordinator = None;
        for slot in &mut s.slots {
            *slot = crate::state::Slot::Exited;
        }
        let (rule, msg) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1303");
        assert!(msg.contains("cell 1"), "{msg}");
    }

    #[test]
    fn a_doctored_post_takeover_loss_trips_r1401() {
        let bounds = Bounds::default();
        let mut s = ModelState::init(&bounds, SeededBug::None);
        s.epoch = 2;
        s.durable.insert(1);
        s.coordinator = None;
        for slot in &mut s.slots {
            *slot = crate::state::Slot::Exited;
        }
        let (rule, msg) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1401");
        assert!(msg.contains("hand-off"), "{msg}");
    }

    #[test]
    fn a_doctored_stale_mutation_trips_r1402() {
        let bounds = Bounds::default();
        let mut s = ModelState::init(&bounds, SeededBug::None);
        s.stale_applied = true;
        let (rule, _) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1402");
    }

    #[test]
    fn doctored_admission_failures_trip_r1403_both_ways() {
        let bounds = Bounds::default();
        let mut s = ModelState::init(&bounds, SeededBug::None);
        s.intruder_admitted = true;
        let (rule, msg) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1403");
        assert!(msg.contains("wrong token"), "{msg}");

        let mut s = ModelState::init(&bounds, SeededBug::None);
        s.legit_refused = true;
        let (rule, msg) = check(&s, &bounds).expect("must trip");
        assert_eq!(rule, "R1403");
        assert!(msg.contains("own token"), "{msg}");
    }

    #[test]
    fn a_real_completion_satisfies_every_rule_along_the_way() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 0,
            failing_cells: 0,
            ..Bounds::default()
        };
        let mut frontier = vec![ModelState::init(&bounds, SeededBug::None)];
        let mut checked = 0usize;
        while let Some(s) = frontier.pop() {
            assert_eq!(check(&s, &bounds), None, "state:\n{}", s.canonical());
            checked += 1;
            for (_, next) in s.successors(&bounds, SeededBug::None) {
                frontier.push(next);
            }
        }
        assert!(checked > 3);
    }
}
