//! Process-isolation execution layer for sweep cells.
//!
//! The supervisor in `chopin-harness` survives *unwinding* failures — a
//! panicking cell is caught, retried and eventually quarantined. It cannot
//! survive *hard* failures: a cell that aborts, overflows its stack, spins
//! forever without yielding, or is OOM-killed takes the whole process (and
//! every other in-flight cell) down with it. This crate provides the
//! missing isolation boundary: cells run in persistent worker processes,
//! one request at a time, each under its own resource limits, with a
//! heartbeat protocol over the worker's stdout pipe and typed result
//! marshalling back to the parent. A cell's independence comes from its
//! seed, not from a fresh process, so one worker serves many cells; a
//! worker that dies costs only the request it was running.
//!
//! The crate is deliberately dependency-free and knows nothing about
//! benchmarks or sweeps. The contract is one request string in, one
//! response string out, as many times as the parent asks:
//!
//! - [`worker::maybe_worker`] is called first thing in a binary's `main`.
//!   In a normal invocation it returns immediately; when the process was
//!   spawned as a sandbox worker it serves requests from stdin until
//!   stdin closes: for each it sets the request's soft resource limits,
//!   emits heartbeats, runs the handler and prints the framed result.
//! - [`parent::SandboxPool`] spawns such workers as [`parent::Session`]s,
//!   feeds them requests, monitors heartbeats and deadlines while a
//!   request is in flight, kills the wedged, and classifies every ending
//!   into the crash taxonomy [`parent::ChildOutcome`]: `Completed`,
//!   `Failed`, `Panicked`, `Signalled` (SIGSEGV / SIGABRT / SIGKILL /
//!   SIGXCPU / …), `OomKilled`, `HeartbeatLost` and `DeadlineExceeded`.
//!
//! Process isolation is available on Unix (it needs `setrlimit` and
//! signal-aware exit statuses); [`supported`] reports availability so
//! callers can fall back to thread-mode execution elsewhere.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod limits;
pub mod parent;
pub mod policy;
pub mod protocol;
pub mod worker;

pub use parent::{ChildOutcome, ChildReport, SandboxPool, Session};
pub use policy::{IsolationMode, SandboxPolicy};

/// Whether process isolation is available on this platform.
///
/// Requires a Unix-like OS: resource limits are applied through
/// `setrlimit` and crash classification reads the terminating signal out
/// of the child's exit status. On other platforms callers keep thread-mode
/// execution.
#[must_use]
pub fn supported() -> bool {
    cfg!(unix)
}
