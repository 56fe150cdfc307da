//! Deterministic fault injection for the chopin simulated runtime.
//!
//! The paper's credibility rests on collectors behaving sanely under
//! duress — degenerate collections, pacing stalls, out-of-memory — exactly
//! the regimes that are hardest to reach on purpose from a well-formed
//! workload. This crate provides a *deterministic, seeded* fault plane so
//! those regimes can be scheduled instead of hoped for:
//!
//! * [`FaultPlan`] — a validated schedule of fault windows (validated the
//!   same way `MutatorSpec` is: a builder plus a typed error), with a
//!   seeded storm generator for spreading many windows over a run horizon.
//! * [`FaultClock`] — the engine-side hook. The engine is monomorphised
//!   over its fault clock exactly as it is over its observer: the
//!   [`NoFaults`] instantiation always samples [`FaultSample::IDENTITY`],
//!   under which every faulted expression in the engine equals its clean
//!   form, and advertises `NOOP = true`, which compiles the fault
//!   bookkeeping away.
//! * [`ScheduledFaults`] — the live clock built from a plan: per-slice it
//!   reports the combined effect of every active window plus the time of
//!   the next fault boundary, so the engine can bound its slices and open
//!   or close windows at exact simulated times.
//! * [`SupervisorPolicy`] — the retry/backoff/deadline configuration of
//!   the harness sweep supervisor, kept here so the lint crate can
//!   validate it (rules R701–R704) without depending on the harness.
//! * [`HardFaultPlan`] — the *hard* fault family: deterministic process
//!   deaths (SIGKILL, abort, OOM blow-up) that no in-process fault clock
//!   can express and only the process-isolation backend can survive.
//! * [`NetFaultPlan`] — the *network* fault family: seeded drop, delay,
//!   duplication and partition windows over the fleet's line-framed
//!   wire, injected at the coordinator's transport shim.
//!
//! Everything is deterministic: plans are pure data, storms derive from
//! the plan seed, and the clock consults nothing but the simulated time
//! it is handed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod hard;
pub mod net;
pub mod plan;
pub mod policy;

pub use clock::{FaultClock, FaultSample, NoFaults, ScheduledFaults};
pub use hard::{
    parse_hard_flag, HardFaultKind, HardFaultPlan, DEFAULT_HARD_SEED, HARD_PRESET_NAMES,
};
pub use net::{
    parse_net_flag, FrameFate, NetFaultPlan, DEFAULT_NET_SEED, MAX_NET_DELAY_MS, NET_PRESET_NAMES,
};
pub use plan::{FaultKind, FaultPlan, FaultPlanError, FaultWindow, MAX_FAULT_FACTOR, MAX_WINDOWS};
pub use policy::{
    PolicyError, SupervisorPolicy, MAX_BACKOFF_MS, MAX_DEADLINE_MS, MAX_RETRIES_BOUND,
};
