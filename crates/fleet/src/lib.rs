//! Crash-tolerant sharding of the chopin sweep matrix across worker
//! processes.
//!
//! The single-process [`SuiteSupervisor`] already survives panics,
//! hangs, SIGKILL storms and its own death (journal + `--resume`), but
//! it runs the whole benchmarks × collectors × heap-factors matrix on
//! one machine. This crate is the coordination core that scales the
//! same loop horizontally without giving up its central guarantee: the
//! sharded CSV stays **byte-identical** to a sequential run.
//!
//! Pure, transport-free layers (the sockets and processes live in
//! `chopin_harness::fleet`, a pump around [`coordinator`]):
//!
//! * [`coordinator`] — every coordinator decision as one sans-IO state
//!   machine, `Coordinator::step(input, now) -> outputs`: admission,
//!   nonce fencing, standby adoption, the reaper, slot respawn and
//!   quarantine, the rescue window and the drain. Its canonical
//!   `snapshot` is what the `chopin-model` checker hashes, so the
//!   machine it explores is the one that ships.
//! * [`protocol`] — the line-framed coordinator⇄worker wire format,
//!   extending the sandbox heartbeat pipe's escaping discipline with
//!   field-level space folding so a torn line from a dying worker
//!   corrupts at most itself and any payload survives any field.
//! * [`lease`] — the scheduler of every isolation mode: a
//!   [`lease::LeaseTable`] over a generic completion payload, handing
//!   out *leases* (cell + deadline + attempt) on a caller-supplied
//!   clock, with expiry → reassignment, seeded full-jitter
//!   [`SupervisorPolicy`] backoff, retry-budget quarantine and
//!   work-stealing for stragglers.
//! * [`merge`] — the determinism anchor: duplicate completions are
//!   resolved by a fixed `(attempt, worker)` tiebreak, and [`recover`]
//!   merges a resume's or takeover's base journal and shards through it.
//! * [`liveness`] — the heartbeat reaper as a clock-free state machine:
//!   staleness, idempotent death declaration, and explicit revival on
//!   reconnect, pinned by virtual-clock tests.
//!
//! [`config::FleetPlan`] carries the statically-analyzable fleet shape
//! into the pre-flight analyzer (rules R1201–R1203);
//! [`config::FleetConfig`] is the full runtime configuration including
//! the worker-kill storm used by `artifact chaos --workers`.
//!
//! [`SuiteSupervisor`]: https://docs.rs/chopin-harness
//! [`SupervisorPolicy`]: chopin_faults::SupervisorPolicy

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod coordinator;
pub mod lease;
pub mod liveness;
pub mod merge;
pub mod protocol;

pub use config::{parse_storm_flag, FleetConfig, FleetPlan, WorkerStormPlan, MAX_FLEET_WORKERS};
pub use coordinator::{incarnation_nonce, Codec, Coordinator, Incarnation, Input, Output};
pub use lease::{Grant, LeaseGrant, LeaseMetrics, LeaseTable};
pub use liveness::Liveness;
pub use merge::{recover, Candidate, CellMerge, Recovered};
pub use protocol::{admission, FleetFrame};
