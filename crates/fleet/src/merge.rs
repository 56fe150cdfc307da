//! Deterministic resolution of duplicate cell completions.
//!
//! Work-stealing and lease reassignment mean one cell can legitimately
//! complete on two workers — a stolen straggler finishes on both the
//! original worker and the thief, or a re-leased cell's first worker
//! turns out merely slow rather than dead. Cell execution is
//! deterministic, so the duplicate *payloads* are byte-identical in a
//! healthy fleet; the tiebreak exists so the merged journal and CSV are
//! well-defined even when they are not (a half-written journal from a
//! SIGKILLed worker, a torn final line): the candidate with the lowest
//! `(attempt, worker)` pair wins, always, on every host, regardless of
//! arrival order. Two candidates can even share the `(attempt, worker)`
//! pair — a worker journals a cell and *then* sends `@done`, so a resume
//! can absorb the shard row while the live completion is still in
//! flight; the payload itself breaks that tie (lowest byte order wins),
//! keeping resolution a pure function of the candidate *set*.

use std::collections::BTreeMap;

/// Accumulates completion candidates for one cell and resolves them by
/// the fixed `(attempt, worker)` tiebreak.
#[derive(Debug, Clone, Default)]
pub struct CellMerge<T> {
    winner: Option<(u32, u64, T)>,
    conflicts: u64,
}

impl<T> CellMerge<T> {
    /// An empty merge (no candidates yet).
    #[must_use]
    pub fn new() -> Self {
        CellMerge {
            winner: None,
            conflicts: 0,
        }
    }

    /// The winning candidate, if any completion was offered.
    #[must_use]
    pub fn winner(&self) -> Option<(u32, u64, &T)> {
        self.winner.as_ref().map(|(a, w, v)| (*a, *w, v))
    }

    /// Consume the merge, yielding the winning candidate.
    #[must_use]
    pub fn into_winner(self) -> Option<(u32, u64, T)> {
        self.winner
    }

    /// How many duplicate offers were resolved away.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Whether any candidate has been offered.
    #[must_use]
    pub fn is_resolved(&self) -> bool {
        self.winner.is_some()
    }
}

impl<T: Ord> CellMerge<T> {
    /// Offer a completion candidate. Returns `true` when the candidate
    /// became (or stayed) the winner. Any offer after the first counts
    /// as a merge conflict. Ties on `(attempt, worker)` — a shard row
    /// and its in-flight live duplicate — fall through to the payload,
    /// so the outcome is independent of arrival order even then.
    pub fn offer(&mut self, attempt: u32, worker: u64, value: T) -> bool {
        match &self.winner {
            None => {
                self.winner = Some((attempt, worker, value));
                true
            }
            Some((a, w, v)) => {
                self.conflicts += 1;
                if (attempt, worker, &value) < (*a, *w, v) {
                    self.winner = Some((attempt, worker, value));
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// One completion offered to [`recover`]: a journal row's cell,
/// provenance and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate<P> {
    /// Schedule index of the completed cell.
    pub cell: usize,
    /// The attempt that produced it.
    pub attempt: u32,
    /// The worker that produced it.
    pub worker: u64,
    /// The recorded outcome.
    pub payload: P,
}

/// One cell's merged winner out of [`recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<P> {
    /// The winning completion.
    pub winner: Candidate<P>,
    /// Whether the base journal already holds a row for the cell. A
    /// winner it lacks must be persisted before any worker truncates
    /// its shard, or a second coordinator crash loses the cell.
    pub in_base: bool,
}

/// Merge recovered completions — the base journal's rows and every
/// shard's — through [`CellMerge`], one merge per cell: the recovery
/// step of every resume, of a standby's takeover and of report
/// assembly. Returns each recovered cell's winner in cell order, and
/// how many duplicate candidates the merges resolved away.
pub fn recover<P: Ord>(
    base: impl IntoIterator<Item = Candidate<P>>,
    shards: impl IntoIterator<Item = Candidate<P>>,
) -> (Vec<Recovered<P>>, u64) {
    let mut merges: BTreeMap<usize, (CellMerge<P>, bool)> = BTreeMap::new();
    let tagged =
        (base.into_iter().map(|c| (c, true))).chain(shards.into_iter().map(|c| (c, false)));
    for (c, in_base) in tagged {
        let (merge, held) = merges
            .entry(c.cell)
            .or_insert_with(|| (CellMerge::new(), false));
        merge.offer(c.attempt, c.worker, c.payload);
        *held |= in_base;
    }
    let conflicts = merges.values().map(|(merge, _)| merge.conflicts()).sum();
    let recovered = merges.into_iter().filter_map(|(cell, (merge, in_base))| {
        let (attempt, worker, payload) = merge.into_winner()?;
        let winner = Candidate {
            cell,
            attempt,
            worker,
            payload,
        };
        Some(Recovered { winner, in_base })
    });
    (recovered.collect(), conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_candidate_wins_until_beaten() {
        let mut m = CellMerge::new();
        assert!(!m.is_resolved());
        assert!(m.offer(2, 5, "late-attempt"));
        assert!(m.is_resolved());
        // Higher (attempt, worker) loses.
        assert!(!m.offer(3, 0, "even-later"));
        // Same attempt, lower worker id wins.
        assert!(m.offer(2, 1, "same-attempt-lower-worker"));
        // Lower attempt beats everything.
        assert!(m.offer(1, 9, "first-attempt"));
        assert_eq!(m.conflicts(), 3);
        assert_eq!(m.winner(), Some((1, 9, &"first-attempt")));
        assert_eq!(m.into_winner(), Some((1, 9, "first-attempt")));
    }

    #[test]
    fn resolution_is_arrival_order_independent() {
        let candidates = [(2u32, 3u64, "a"), (1, 7, "b"), (2, 0, "c"), (1, 2, "d")];
        let mut orders = vec![
            vec![0usize, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![1, 3, 0, 2],
            vec![2, 0, 3, 1],
        ];
        let mut winners = Vec::new();
        for order in orders.drain(..) {
            let mut m = CellMerge::new();
            for i in order {
                let (a, w, v) = candidates[i];
                m.offer(a, w, v);
            }
            assert_eq!(m.conflicts(), 3);
            winners.push(m.into_winner());
        }
        for w in &winners {
            assert_eq!(*w, Some((1, 2, "d")), "order must not matter");
        }
    }

    #[test]
    fn recovery_merges_per_cell_and_flags_winners_the_base_lacks() {
        let row = |cell, attempt, worker, payload| Candidate {
            cell,
            attempt,
            worker,
            payload,
        };
        let base = [row(2, 1, 0, "base")];
        let shards = [
            row(5, 2, 3, "late"),
            row(2, 1, 4, "shard"),
            row(5, 1, 7, "early"),
        ];
        let (recovered, conflicts) = recover(base, shards);
        assert_eq!(conflicts, 2);
        assert_eq!(
            recovered,
            vec![
                Recovered {
                    winner: row(2, 1, 0, "base"),
                    in_base: true
                },
                Recovered {
                    winner: row(5, 1, 7, "early"),
                    in_base: false
                },
            ]
        );
    }

    #[test]
    fn equal_attempt_worker_candidates_tiebreak_on_the_payload() {
        // A worker journals a cell, then sends @done: a resume can
        // absorb the shard row while the live duplicate is still queued,
        // and a torn shard tail can make the two payloads differ. The
        // winner must not depend on which arrives first.
        let shard = "half-writ";
        let live = "whole";
        let mut forward = CellMerge::new();
        assert!(forward.offer(1, 0, shard));
        assert!(!forward.offer(1, 0, live));
        let mut backward = CellMerge::new();
        assert!(backward.offer(1, 0, live));
        assert!(backward.offer(1, 0, shard));
        assert_eq!(forward.winner(), backward.winner());
        assert_eq!(forward.winner(), Some((1, 0, &shard)), "lowest byte order");
        assert_eq!(forward.conflicts(), 1);
        assert_eq!(backward.conflicts(), 1);
        // Byte-identical duplicates (the healthy-fleet case) still merge
        // to the obvious fixpoint.
        let mut dup = CellMerge::new();
        dup.offer(1, 0, live);
        assert!(!dup.offer(1, 0, live));
        assert_eq!(dup.winner(), Some((1, 0, &live)));
    }
}
