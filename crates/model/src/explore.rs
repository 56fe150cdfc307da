//! Breadth-first exhaustive exploration with canonical-state dedup,
//! minimal counterexample traces, and bounded-liveness checking.
//!
//! States are deduplicated by an FNV-64 hash of their canonical
//! rendering ([`crate::state::ModelState::canonical`]). BFS guarantees
//! the first path that reaches a violating state is a shortest one, so
//! the counterexample reconstructed from parent pointers is minimal in
//! message count. After the sweep, bounded liveness (R1305) is checked
//! by reverse reachability over the recorded edge relation: every
//! explored state must be able to reach a drained terminal state, and a
//! non-terminal state with no successors at all is a drain deadlock.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::bounds::Bounds;
use crate::invariants;
use crate::state::{ModelState, SeededBug};

/// Refuse to explore past this many distinct states: the bounds are
/// the knob, this is the fuse.
const MAX_STATES: u64 = 2_000_000;

/// A violated protocol rule, with its minimal counterexample.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated rule id (`R1301`–`R1305`, `R1401`–`R1403`).
    pub rule: &'static str,
    /// One-line description of what broke in the violating state.
    pub summary: String,
    /// Minimal message-by-message trace from the initial state to the
    /// violating state.
    pub trace: Vec<String>,
    /// Canonical rendering of the violating state, for debugging.
    pub state: String,
}

/// The result of one bounded exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct canonical states visited.
    pub states: u64,
    /// Transitions fired (edges, including re-entries to known states).
    pub transitions: u64,
    /// Depth of the deepest newly-discovered state.
    pub max_depth: u32,
    /// Drained terminal states reached.
    pub terminals: u64,
    /// The first violation found, if any — safety violations surface
    /// during the sweep, liveness violations after it.
    pub violation: Option<Violation>,
}

fn fnv64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn trace_to(parents: &BTreeMap<u64, (u64, String)>, target: u64) -> Vec<String> {
    let mut labels = Vec::new();
    let mut cursor = target;
    while let Some((parent, label)) = parents.get(&cursor) {
        labels.push(label.clone());
        cursor = *parent;
    }
    labels.reverse();
    labels
}

/// Exhaustively explore the protocol under `bounds`, checking every
/// safety rule on every reachable state and bounded liveness over the
/// full graph. `Err` means the exploration itself could not finish
/// (invalid bounds, or the state fuse blew) — a violation is an `Ok`
/// report carrying [`ExploreReport::violation`].
pub fn explore(bounds: &Bounds, bug: SeededBug) -> Result<ExploreReport, String> {
    bounds.validate()?;
    let init = ModelState::init(bounds, bug);
    let root = fnv64(&init.canonical());

    let mut visited: BTreeSet<u64> = BTreeSet::new();
    visited.insert(root);
    let mut parents: BTreeMap<u64, (u64, String)> = BTreeMap::new();
    let mut edges: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut depths: BTreeMap<u64, u32> = BTreeMap::new();
    depths.insert(root, 0);
    let mut terminals: BTreeSet<u64> = BTreeSet::new();
    let mut queue: VecDeque<(ModelState, u64, u32)> = VecDeque::new();

    let mut report = ExploreReport {
        states: 1,
        transitions: 0,
        max_depth: 0,
        terminals: 0,
        violation: None,
    };

    if let Some((rule, summary)) = invariants::check(&init, bounds) {
        report.violation = Some(Violation {
            rule,
            summary,
            trace: Vec::new(),
            state: init.canonical(),
        });
        return Ok(report);
    }
    queue.push_back((init, root, 0));

    while let Some((state, hash, depth)) = queue.pop_front() {
        let successors = state.successors(bounds, bug);
        if successors.is_empty() {
            if state.done {
                if terminals.insert(hash) {
                    report.terminals += 1;
                }
            } else {
                report.violation = Some(Violation {
                    rule: "R1305",
                    summary: "drain deadlock: a non-terminal state with no enabled \
                              transition"
                        .to_string(),
                    trace: trace_to(&parents, hash),
                    state: state.canonical(),
                });
                return Ok(report);
            }
            continue;
        }
        for (label, next) in successors {
            report.transitions += 1;
            let canonical = next.canonical();
            let next_hash = fnv64(&canonical);
            edges.entry(hash).or_default().push(next_hash);
            if !visited.insert(next_hash) {
                continue;
            }
            report.states += 1;
            if report.states > MAX_STATES {
                return Err(format!(
                    "state space exceeds {MAX_STATES} states under these bounds; \
                     tighten --bounds"
                ));
            }
            parents.insert(next_hash, (hash, label));
            depths.insert(next_hash, depth + 1);
            report.max_depth = report.max_depth.max(depth + 1);
            if let Some((rule, summary)) = invariants::check(&next, bounds) {
                report.violation = Some(Violation {
                    rule,
                    summary,
                    trace: trace_to(&parents, next_hash),
                    state: canonical,
                });
                return Ok(report);
            }
            queue.push_back((next, next_hash, depth + 1));
        }
    }

    // Bounded liveness (R1305): under the fairness encoded in the
    // budgets, every reachable state must still be able to drain.
    // Reverse reachability from the terminal set; anything outside the
    // co-reachable set is a state from which completion is impossible.
    let mut reverse: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (from, tos) in &edges {
        for to in tos {
            reverse.entry(*to).or_default().push(*from);
        }
    }
    let mut co_reach: BTreeSet<u64> = terminals.clone();
    let mut frontier: VecDeque<u64> = terminals.iter().copied().collect();
    while let Some(hash) = frontier.pop_front() {
        if let Some(sources) = reverse.get(&hash) {
            for source in sources {
                if co_reach.insert(*source) {
                    frontier.push_back(*source);
                }
            }
        }
    }
    let stuck = visited
        .iter()
        .filter(|h| !co_reach.contains(h))
        .min_by_key(|h| depths.get(*h).copied().unwrap_or(u32::MAX))
        .copied();
    if let Some(hash) = stuck {
        let summary = if terminals.is_empty() {
            "no drained terminal state is reachable at all under these bounds".to_string()
        } else {
            "bounded liveness: no drained terminal state is reachable from here under \
             the fairness budgets"
                .to_string()
        };
        report.violation = Some(Violation {
            rule: "R1305",
            summary,
            trace: trace_to(&parents, hash),
            state: String::new(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_worker_single_cell_matrix_explores_clean() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 0,
            failing_cells: 0,
            ..Bounds::default()
        };
        let report = explore(&bounds, SeededBug::None).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.terminals >= 1);
        assert!(report.states > 1);
        assert!(report.transitions >= report.states - 1);
    }

    #[test]
    fn a_failing_cell_quarantines_without_violations() {
        let bounds = Bounds {
            workers: 1,
            cells: 2,
            crashes: 0,
            failing_cells: 1,
            ..Bounds::default()
        };
        let report = explore(&bounds, SeededBug::None).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.terminals >= 1);
    }

    #[test]
    fn worker_death_and_respawn_explore_clean() {
        let bounds = Bounds {
            workers: 2,
            cells: 2,
            crashes: 1,
            failing_cells: 0,
            ..Bounds::default()
        };
        let report = explore(&bounds, SeededBug::None).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.terminals >= 1);
    }

    #[test]
    fn the_lost_lease_trace_is_minimal_and_readable() {
        let report = crate::demo_lost_lease().unwrap();
        let violation = report.violation.expect("seeded bug must be caught");
        assert_eq!(violation.rule, "R1303");
        // The minimal story: grant, complete (journal + @done), crash,
        // lossy resume (truncates the shard), second crash. Delivery of
        // the @done frame is optional — the loss happens either way —
        // so BFS should find a trace of at most seven moves.
        assert!(
            violation.trace.len() <= 7,
            "trace should be minimal, got {}:\n{}",
            violation.trace.len(),
            violation.trace.join("\n")
        );
        let joined = violation.trace.join("\n");
        assert!(joined.contains("@lease"), "{joined}");
        assert!(joined.contains("journals"), "{joined}");
        assert!(joined.contains("resumes"), "{joined}");
        assert!(joined.contains("coordinator crashes"), "{joined}");
    }

    #[test]
    fn invalid_bounds_are_refused() {
        let bounds = Bounds {
            workers: 0,
            ..Bounds::default()
        };
        assert!(explore(&bounds, SeededBug::None).is_err());
    }
}
