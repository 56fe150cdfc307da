//! The parent side of the sandbox: spawning workers, monitoring
//! heartbeats and deadlines, and classifying every child ending into the
//! crash taxonomy.
//!
//! While a child runs, the monitor loop sleeps on a channel from the
//! thread that reads the child's stdout. Three things wake it:
//!
//! - the child's final frame (`@ok`, `@err` or `@panic`): the child is
//!   about to exit;
//! - the child's stdout closing: it exited, or was killed;
//! - the 5 ms `POLL` tick, at the latest: the deadline and heartbeat
//!   watchdogs run and peak RSS is sampled.
//!
//! After either of the first two, the parent polls the exit status with
//! `try_wait` at doubling intervals from 20 µs up to `POLL`. It never
//! blocks in `wait`, and it never waits for stdout to close before
//! reaping, so a child that answers and then hangs, or one whose stdout
//! a grandchild holds open, stays under both watchdogs.
//! The child reports its own peak RSS in an `@rss` frame (see
//! [`crate::protocol`]); the report keeps the larger of that and the
//! parent's samples.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::clock::WallSpan;

use crate::limits::{self, OOM_STDERR_MARKER, SIGABRT};
use crate::policy::SandboxPolicy;
use crate::protocol::{self, Frame};

/// Longest gap between two watchdog checks (deadline, heartbeat age)
/// and two peak-RSS samples while a child runs. The parent wakes sooner
/// when the child answers or its stdout closes.
const POLL: Duration = Duration::from_millis(5);

/// First step of the reap backoff. A child that answered or closed its
/// stdout is exiting, which takes tens to hundreds of microseconds; the
/// step doubles up to [`POLL`].
const REAP_FIRST_STEP: Duration = Duration::from_micros(20);

/// Largest stderr tail retained per child, in bytes. Enough for a panic
/// backtrace header or the allocator's OOM message; bounded so a child
/// that floods stderr cannot balloon the parent.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// Every way a sandboxed child can end, from the parent's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildOutcome {
    /// The handler finished; the payload is its marshalled result.
    Completed(String),
    /// The handler reported a transient error (retryable), or the child
    /// ended without following the protocol.
    Failed(String),
    /// The handler panicked; the message is the panic payload.
    Panicked(String),
    /// The child died to a signal it did not survive (SIGSEGV, SIGABRT,
    /// SIGKILL, SIGXCPU, ...).
    Signalled {
        /// The terminating signal number.
        signal: i32,
    },
    /// The child aborted on a failed allocation: SIGABRT with the
    /// allocator's out-of-memory message on stderr, i.e. the RLIMIT_AS
    /// backstop fired.
    OomKilled,
    /// The child went silent past the heartbeat budget and was killed.
    HeartbeatLost {
        /// How long the child had been silent when it was killed.
        silent_ms: u64,
    },
    /// The child outlived the cell deadline and was killed.
    DeadlineExceeded {
        /// The wall-clock budget it exceeded.
        budget_ms: u64,
    },
    /// The worker process could not be spawned at all.
    SpawnFailed(String),
}

impl ChildOutcome {
    /// Short stable label for metrics and crash reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChildOutcome::Completed(_) => "completed",
            ChildOutcome::Failed(_) => "failed",
            ChildOutcome::Panicked(_) => "panicked",
            ChildOutcome::Signalled { .. } => "signalled",
            ChildOutcome::OomKilled => "oom_killed",
            ChildOutcome::HeartbeatLost { .. } => "heartbeat_lost",
            ChildOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
            ChildOutcome::SpawnFailed(_) => "spawn_failed",
        }
    }
}

/// Everything the parent observed about one child, for crash reports and
/// sandbox metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildReport {
    /// The classified ending.
    pub outcome: ChildOutcome,
    /// Exit code, when the child exited normally.
    pub exit_code: Option<i32>,
    /// Terminating signal, when the child died to one.
    pub signal: Option<i32>,
    /// Milliseconds after spawn of the last heartbeat received, if any.
    pub last_heartbeat_ms: Option<u64>,
    /// Total heartbeats received from this child.
    pub heartbeats: u64,
    /// Peak resident set size (VmHWM) in bytes: the larger of the
    /// child's own `@rss` report and the parent's samples of
    /// `/proc/<pid>/status`; `None` where procfs is unavailable.
    pub peak_rss_bytes: Option<u64>,
    /// Child lifetime in wall milliseconds.
    pub wall_ms: u64,
    /// Bounded tail of the child's stderr.
    pub stderr_tail: String,
}

/// Per-request resource limits, derived by the caller from the cell being
/// run (see [`crate::policy`] for the derivation rules). `None` leaves
/// the corresponding limit unset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// RLIMIT_AS for this child, in bytes.
    pub rlimit_as_bytes: Option<u64>,
    /// RLIMIT_CPU for this child, in seconds.
    pub rlimit_cpu_s: Option<u64>,
}

/// Spawns and supervises sandbox workers.
///
/// The pool is stateless between runs (each [`SandboxPool::run`] call
/// spawns one child and blocks until it is classified), so one pool can
/// be shared by any number of supervisor threads.
#[derive(Debug, Clone)]
pub struct SandboxPool {
    exe: PathBuf,
    policy: SandboxPolicy,
    deadline_ms: Option<u64>,
    extra_env: Vec<(String, String)>,
}

impl SandboxPool {
    /// A pool spawning `exe` as the worker binary under `policy`.
    #[must_use]
    pub fn new(exe: PathBuf, policy: SandboxPolicy) -> Self {
        SandboxPool {
            exe,
            policy,
            deadline_ms: None,
            extra_env: Vec::new(),
        }
    }

    /// Set the per-child wall-clock deadline. `None` or `Some(0)`
    /// disables the deadline watchdog (the heartbeat monitor still runs).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline_ms = match deadline_ms {
            Some(0) | None => None,
            other => other,
        };
        self
    }

    /// Add an environment variable to every spawned child (test hook,
    /// e.g. [`protocol::ENV_NO_HEARTBEAT`]).
    #[must_use]
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.extra_env.push((key.to_string(), value.to_string()));
        self
    }

    /// The policy this pool applies.
    #[must_use]
    pub fn policy(&self) -> &SandboxPolicy {
        &self.policy
    }

    /// Run one request in a fresh child and block until it is classified.
    pub fn run(&self, request: &str, limits: RequestLimits) -> ChildReport {
        let mut command = Command::new(&self.exe);
        command
            .env(protocol::ENV_WORKER, "1")
            .env(
                protocol::ENV_HEARTBEAT_MS,
                self.policy.heartbeat_interval_ms.to_string(),
            )
            .env_remove(protocol::ENV_NO_HEARTBEAT)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(bytes) = limits.rlimit_as_bytes {
            command.env(protocol::ENV_RLIMIT_AS, bytes.to_string());
        }
        if let Some(seconds) = limits.rlimit_cpu_s {
            command.env(protocol::ENV_RLIMIT_CPU, seconds.to_string());
        }
        for (key, value) in &self.extra_env {
            command.env(key, value);
        }

        let spawned_at = WallSpan::begin();
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                return ChildReport {
                    outcome: ChildOutcome::SpawnFailed(format!(
                        "could not spawn {}: {e}",
                        self.exe.display()
                    )),
                    exit_code: None,
                    signal: None,
                    last_heartbeat_ms: None,
                    heartbeats: 0,
                    peak_rss_bytes: None,
                    wall_ms: 0,
                    stderr_tail: String::new(),
                }
            }
        };
        let proc_entry = child.id().to_string();

        // Deliver the request and close stdin so the worker sees EOF.
        // A child that dies instantly (self-SIGKILL hard faults) breaks
        // the pipe; std ignores SIGPIPE, so the write error is benign.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(request.as_bytes());
        }

        let inbox = Arc::new(Mutex::new(Inbox {
            last_beat: None,
            beats: 0,
            reported_rss: None,
            final_frame: None,
        }));
        // The reader sends on `wake` when the final frame arrives, and
        // drops it when stdout closes.
        let (wake_tx, wake) = mpsc::channel::<()>();
        let stdout_thread = child.stdout.take().map(|stdout| {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    match protocol::parse(&line) {
                        Some(Frame::Heartbeat) => {
                            let mut inbox = lock(&inbox);
                            inbox.last_beat = Some(WallSpan::begin());
                            inbox.beats += 1;
                        }
                        Some(Frame::Rss(bytes)) => {
                            let mut inbox = lock(&inbox);
                            inbox.reported_rss = inbox.reported_rss.max(Some(bytes));
                        }
                        Some(frame) => {
                            let mut inbox = lock(&inbox);
                            if inbox.final_frame.is_none() {
                                inbox.final_frame = Some(frame);
                                let _ = wake_tx.send(());
                            }
                        }
                        None => {}
                    }
                }
            })
        });
        let stderr_tail = Arc::new(Mutex::new(Vec::<u8>::new()));
        let stderr_thread = child.stderr.take().map(|mut stderr| {
            let tail = Arc::clone(&stderr_tail);
            std::thread::spawn(move || {
                let mut buf = [0u8; 1024];
                while let Ok(n) = stderr.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    let mut tail = lock(&tail);
                    tail.extend_from_slice(&buf[..n]);
                    if tail.len() > STDERR_TAIL_BYTES {
                        let excess = tail.len() - STDERR_TAIL_BYTES;
                        tail.drain(..excess);
                    }
                }
            })
        });

        let timeout = self.policy.heartbeat_timeout();
        let mut kill_reason: Option<KillReason> = None;
        let mut peak_rss = None;
        // `Some` once the child answered or its stdout closed.
        let mut reap_step: Option<Duration> = None;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) => {}
                Err(_) => break None,
            }
            if let Some(rss) = limits::peak_rss_bytes(&proc_entry) {
                peak_rss = Some(rss);
            }
            if kill_reason.is_none() {
                let since_spawn = spawned_at.elapsed();
                if let Some(budget_ms) = self.deadline_ms {
                    if since_spawn >= Duration::from_millis(budget_ms) {
                        kill_reason = Some(KillReason::Deadline { budget_ms });
                    }
                }
                let silent = match lock(&inbox).last_beat {
                    Some(beat) => beat.elapsed(),
                    None => since_spawn,
                };
                if kill_reason.is_none() && silent >= timeout {
                    kill_reason = Some(KillReason::Heartbeat {
                        silent_ms: silent.as_millis() as u64,
                    });
                }
                if kill_reason.is_some() {
                    let _ = child.kill();
                }
            }
            match reap_step {
                None => match wake.recv_timeout(POLL) {
                    Err(RecvTimeoutError::Timeout) => {}
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                        reap_step = Some(REAP_FIRST_STEP);
                    }
                },
                Some(step) => {
                    std::thread::sleep(step);
                    reap_step = Some((step * 2).min(POLL));
                }
            }
        };
        let wall_ms = spawned_at.elapsed().as_millis() as u64;

        if let Some(handle) = stdout_thread {
            let _ = handle.join();
        }
        if let Some(handle) = stderr_thread {
            let _ = handle.join();
        }

        let (exit_code, signal) = match &status {
            Some(status) => (status.code(), status_signal(status)),
            None => (None, None),
        };
        let (final_frame, last_heartbeat_ms, heartbeats) = {
            let inbox = lock(&inbox);
            let beat_ms = inbox
                .last_beat
                .map(|beat| beat.since(&spawned_at).as_millis() as u64);
            peak_rss = peak_rss.max(inbox.reported_rss);
            (inbox.final_frame.clone(), beat_ms, inbox.beats)
        };
        let stderr_tail = String::from_utf8_lossy(&lock(&stderr_tail)).into_owned();

        let outcome = classify(kill_reason, exit_code, signal, final_frame, &stderr_tail);
        ChildReport {
            outcome,
            exit_code,
            signal,
            last_heartbeat_ms,
            heartbeats,
            peak_rss_bytes: peak_rss,
            wall_ms,
            stderr_tail,
        }
    }
}

/// Why the parent decided to kill a child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Deadline { budget_ms: u64 },
    Heartbeat { silent_ms: u64 },
}

struct Inbox {
    last_beat: Option<WallSpan>,
    beats: u64,
    reported_rss: Option<u64>,
    final_frame: Option<Frame>,
}

/// Lock a mutex, recovering from poisoning (a reader thread that
/// panicked leaves data that is still safe to read).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Map everything the parent observed to a [`ChildOutcome`]. Pure so the
/// taxonomy is unit-testable without spawning processes.
fn classify(
    kill_reason: Option<KillReason>,
    exit_code: Option<i32>,
    signal: Option<i32>,
    final_frame: Option<Frame>,
    stderr_tail: &str,
) -> ChildOutcome {
    match kill_reason {
        Some(KillReason::Deadline { budget_ms }) => {
            return ChildOutcome::DeadlineExceeded { budget_ms }
        }
        Some(KillReason::Heartbeat { silent_ms }) => {
            return ChildOutcome::HeartbeatLost { silent_ms }
        }
        None => {}
    }
    match final_frame {
        Some(Frame::Ok(payload)) => return ChildOutcome::Completed(payload),
        Some(Frame::Err(message)) => return ChildOutcome::Failed(message),
        Some(Frame::Panic(message)) => return ChildOutcome::Panicked(message),
        Some(Frame::Heartbeat | Frame::Rss(_)) | None => {}
    }
    if let Some(signal) = signal {
        if signal == SIGABRT && stderr_tail.contains(OOM_STDERR_MARKER) {
            return ChildOutcome::OomKilled;
        }
        return ChildOutcome::Signalled { signal };
    }
    match exit_code {
        Some(0) => ChildOutcome::Failed("worker exited without reporting a result".to_string()),
        Some(code) => ChildOutcome::Failed(format!(
            "worker exited with code {code} without reporting a result"
        )),
        None => ChildOutcome::Failed("worker vanished without an exit status".to_string()),
    }
}

#[cfg(unix)]
fn status_signal(status: &std::process::ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

#[cfg(not(unix))]
fn status_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::SIGKILL;

    #[test]
    fn parent_kill_reasons_take_precedence() {
        let outcome = classify(
            Some(KillReason::Deadline { budget_ms: 30 }),
            None,
            Some(SIGKILL),
            Some(Frame::Ok("late".to_string())),
            "",
        );
        assert_eq!(outcome, ChildOutcome::DeadlineExceeded { budget_ms: 30 });

        let outcome = classify(
            Some(KillReason::Heartbeat { silent_ms: 900 }),
            None,
            Some(SIGKILL),
            None,
            "",
        );
        assert_eq!(outcome, ChildOutcome::HeartbeatLost { silent_ms: 900 });
    }

    #[test]
    fn protocol_frames_classify_before_exit_status() {
        let outcome = classify(None, Some(0), None, Some(Frame::Ok("payload".into())), "");
        assert_eq!(outcome, ChildOutcome::Completed("payload".to_string()));

        let outcome = classify(None, Some(0), None, Some(Frame::Err("flaky".into())), "");
        assert_eq!(outcome, ChildOutcome::Failed("flaky".to_string()));

        let outcome = classify(None, Some(0), None, Some(Frame::Panic("boom".into())), "");
        assert_eq!(outcome, ChildOutcome::Panicked("boom".to_string()));
    }

    #[test]
    fn signal_deaths_split_into_oom_and_signalled() {
        let outcome = classify(
            None,
            None,
            Some(SIGABRT),
            None,
            "memory allocation of 33554432 bytes failed",
        );
        assert_eq!(outcome, ChildOutcome::OomKilled);

        let outcome = classify(None, None, Some(SIGABRT), None, "");
        assert_eq!(outcome, ChildOutcome::Signalled { signal: SIGABRT });

        let outcome = classify(None, None, Some(SIGKILL), None, "");
        assert_eq!(outcome, ChildOutcome::Signalled { signal: SIGKILL });
    }

    #[test]
    fn protocol_violations_are_transient_failures() {
        assert!(matches!(
            classify(None, Some(0), None, None, ""),
            ChildOutcome::Failed(_)
        ));
        assert!(matches!(
            classify(None, Some(3), None, None, ""),
            ChildOutcome::Failed(_)
        ));
    }
}
