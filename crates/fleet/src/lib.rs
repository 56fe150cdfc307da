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
//! Three pure, transport-free layers (the sockets and processes live in
//! `chopin_harness::fleet`):
//!
//! * [`protocol`] — the line-framed coordinator⇄worker wire format,
//!   extending the sandbox heartbeat pipe's escaping discipline with
//!   field-level space folding so a torn line from a dying worker
//!   corrupts at most itself and any payload survives any field.
//! * [`lease`] — the scheduler of every isolation mode, not just the
//!   fleet: a [`lease::LeaseTable`] state machine over a generic
//!   completion payload, handing out *leases* (cell + deadline +
//!   attempt) driven entirely by a caller-supplied clock, with expiry →
//!   reassignment, seeded full-jitter [`SupervisorPolicy`] backoff on
//!   re-lease, retry-budget quarantine and work-stealing for
//!   stragglers. The
//!   [`lease::LeaseEvent`] pure-step surface plus the canonical
//!   [`lease::LeaseTable::snapshot`] rendering are what let the
//!   `chopin-model` checker exhaustively explore this exact state
//!   machine under a virtual clock.
//! * [`merge`] — the determinism anchor: duplicate completions from
//!   stolen or re-leased cells are resolved by a fixed
//!   `(attempt, worker)` tiebreak, so merged journals and the final
//!   CSV never depend on which worker happened to finish first.
//! * [`liveness`] — the heartbeat reaper as a clock-free state machine:
//!   staleness, idempotent death declaration, and explicit revival on
//!   reconnect, pinned by virtual-clock tests so the net-fault storms
//!   (delayed `@beat`s, healed partitions) rest on proven edge cases.
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
pub mod lease;
pub mod liveness;
pub mod merge;
pub mod protocol;

pub use config::{parse_storm_flag, FleetConfig, FleetPlan, WorkerStormPlan, MAX_FLEET_WORKERS};
pub use lease::{Grant, LeaseEffect, LeaseEvent, LeaseGrant, LeaseMetrics, LeaseTable};
pub use liveness::Liveness;
pub use merge::CellMerge;
pub use protocol::{admission, FleetFrame};
