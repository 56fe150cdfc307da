//! The parent side of the sandbox: spawning persistent workers, serving
//! requests on them under deadline and heartbeat watchdogs, and
//! classifying every ending into the crash taxonomy.
//!
//! A [`Session`] is one worker child, which serves one request after
//! another ([`crate::protocol`]). [`Session::serve`] writes one request
//! line and then sleeps on a channel from the thread that reads the
//! worker's stdout. Four things wake it:
//!
//! - the worker's answer (a final frame committed by its `@end`): the
//!   request is done, and the worker waits for the next one;
//! - a heartbeat or `@rss` frame;
//! - the worker's stdout closing: it exited, or was killed;
//! - the 5 ms `POLL` tick, at the latest: the deadline and heartbeat
//!   watchdogs run and peak RSS is sampled.
//!
//! The deadline and heartbeat silence are measured from the moment the
//! request was written, so a worker is judged only while a request is
//! in flight, never while it idles between requests. Once stdout closes,
//! the parent polls the exit status with `try_wait` at doubling
//! intervals from 20 µs up to `POLL`. It never blocks in `wait`, and it
//! never waits for stdout to close before reaping, so a worker that
//! hangs, or one whose stdout a grandchild holds open, stays under both
//! watchdogs. A worker that dies mid-request is classified from its exit
//! status and is charged to that one request; it serves no other.
//!
//! [`SandboxPool::spawn`] starts a session; [`SandboxPool::run`] is a
//! session that serves one request and is then closed and reaped.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::WallSpan;

use crate::limits::{self, OOM_STDERR_MARKER, SIGABRT};
use crate::policy::SandboxPolicy;
use crate::protocol::{self, Frame, Request};

pub use crate::protocol::RequestLimits;

/// Longest gap between two watchdog checks (deadline, heartbeat age)
/// and two peak-RSS samples while a request runs. The parent wakes
/// sooner when the worker answers, beats or its stdout closes.
const POLL: Duration = Duration::from_millis(5);

/// First step of the reap backoff. A worker whose stdout closed, or
/// whose stdin was closed, is exiting, which takes tens to hundreds of
/// microseconds; the step doubles up to [`POLL`].
const REAP_FIRST_STEP: Duration = Duration::from_micros(20);

/// Largest stderr tail retained per request, in bytes. Enough for a
/// panic backtrace header or the allocator's OOM message; bounded so a
/// worker that floods stderr cannot balloon the parent.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// Every way a sandboxed request can end, from the parent's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildOutcome {
    /// The handler finished; the payload is its marshalled result.
    Completed(String),
    /// The handler reported a transient error (retryable), or the worker
    /// ended without answering.
    Failed(String),
    /// The handler panicked; the message is the panic payload.
    Panicked(String),
    /// The worker died to a signal it did not survive (SIGSEGV, SIGABRT,
    /// SIGKILL, SIGXCPU, ...).
    Signalled {
        /// The terminating signal number.
        signal: i32,
    },
    /// The worker aborted on a failed allocation: SIGABRT with the
    /// allocator's out-of-memory message on stderr, i.e. the RLIMIT_AS
    /// backstop fired.
    OomKilled,
    /// The worker went silent past the heartbeat budget mid-request and
    /// was killed.
    HeartbeatLost {
        /// How long the worker had been silent when it was killed.
        silent_ms: u64,
    },
    /// The request outlived the cell deadline and its worker was killed.
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

/// Everything the parent observed about one request, for crash reports
/// and sandbox metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildReport {
    /// The classified ending.
    pub outcome: ChildOutcome,
    /// Exit code, when the worker exited normally (during the request,
    /// or, for [`SandboxPool::run`], when it was closed).
    pub exit_code: Option<i32>,
    /// Terminating signal, when the worker died to one.
    pub signal: Option<i32>,
    /// Milliseconds after the request was written of the last heartbeat
    /// received during it, if any.
    pub last_heartbeat_ms: Option<u64>,
    /// Heartbeats received during the request.
    pub heartbeats: u64,
    /// Peak resident set size (VmHWM) of the worker over its lifetime so
    /// far, in bytes: the larger of its own latest `@rss` report and the
    /// parent's samples of `/proc/<pid>/status`; `None` where procfs is
    /// unavailable.
    pub peak_rss_bytes: Option<u64>,
    /// The request's wall milliseconds, from its write to its answer or
    /// the worker's death.
    pub wall_ms: u64,
    /// Bounded tail of what the worker wrote to stderr during the
    /// request.
    pub stderr_tail: String,
}

impl ChildReport {
    fn spawn_failed(message: String) -> ChildReport {
        ChildReport {
            outcome: ChildOutcome::SpawnFailed(message),
            exit_code: None,
            signal: None,
            last_heartbeat_ms: None,
            heartbeats: 0,
            peak_rss_bytes: None,
            wall_ms: 0,
            stderr_tail: String::new(),
        }
    }
}

/// Spawns and supervises sandbox workers.
///
/// The pool holds only configuration: each [`SandboxPool::spawn`] starts
/// one worker, and each [`SandboxPool::run`] spawns one, serves it one
/// request and reaps it, so one pool can be shared by any number of
/// supervisor threads.
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

    /// Set the per-request wall-clock deadline. `None` or `Some(0)`
    /// disables the deadline watchdog (the heartbeat monitor still runs).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline_ms = match deadline_ms {
            Some(0) | None => None,
            other => other,
        };
        self
    }

    /// Add an environment variable to every spawned worker (test hook,
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

    /// Spawn one worker, ready to serve requests.
    ///
    /// # Errors
    ///
    /// A [`ChildOutcome::SpawnFailed`] report when the worker executable
    /// cannot be started.
    pub fn spawn(&self) -> Result<Session, ChildReport> {
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
        for (key, value) in &self.extra_env {
            command.env(key, value);
        }
        let mut child = command.spawn().map_err(|e| {
            ChildReport::spawn_failed(format!("could not spawn {}: {e}", self.exe.display()))
        })?;

        // The reader sends every frame event on `events`, and drops the
        // sender when stdout closes.
        let (sender, events) = mpsc::channel();
        let mut readers = Vec::new();
        if let Some(stdout) = child.stdout.take() {
            readers.push(std::thread::spawn(move || read_frames(stdout, &sender)));
        }
        let stderr_tail = Arc::new(Mutex::new(Vec::new()));
        if let Some(stderr) = child.stderr.take() {
            let tail = Arc::clone(&stderr_tail);
            readers.push(std::thread::spawn(move || keep_tail(stderr, &tail)));
        }
        Ok(Session {
            stdin: child.stdin.take(),
            child,
            events,
            readers,
            stderr_tail,
            policy: self.policy,
            deadline_ms: self.deadline_ms,
            seq: 0,
            peak_rss: None,
            status: None,
        })
    }

    /// Run one request in a fresh worker, then close and reap it: a
    /// session of one request. The report carries the worker's exit
    /// status either way.
    pub fn run(&self, request: &str, limits: RequestLimits) -> ChildReport {
        let mut session = match self.spawn() {
            Ok(session) => session,
            Err(report) => return report,
        };
        let mut report = session.serve(request, limits);
        if let Some(status) = session.close() {
            report.exit_code = report.exit_code.or(status.code());
            report.signal = report.signal.or(limits::status_signal(&status));
        }
        report
    }
}

/// One persistent worker child and the parent's view of it. Dropping a
/// session closes and reaps its worker ([`Session::close`]).
#[derive(Debug)]
pub struct Session {
    child: Child,
    /// `None` once the worker is closed or found dead.
    stdin: Option<ChildStdin>,
    events: Receiver<Event>,
    readers: Vec<JoinHandle<()>>,
    stderr_tail: Arc<Mutex<Vec<u8>>>,
    policy: SandboxPolicy,
    deadline_ms: Option<u64>,
    /// Number of the last request written.
    seq: u64,
    /// The worker's lifetime VmHWM, as far as the parent has seen it.
    peak_rss: Option<u64>,
    /// The exit status, once reaped.
    status: Option<ExitStatus>,
}

/// What the stdout reader passes to the request in flight.
#[derive(Debug)]
enum Event {
    Beat(WallSpan),
    Rss(u64),
    /// A final frame, committed by `@end <seq>`.
    Answer(u64, Frame),
}

/// How a request ended, before classification.
enum Ending {
    Answered(Frame),
    Exited(Option<ExitStatus>),
}

impl Session {
    /// The worker's process id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// Whether the worker can take another request: it has not exited,
    /// been killed or been closed. A worker found dead here is reaped.
    pub fn is_alive(&mut self) -> bool {
        if self.stdin.is_none() {
            return false;
        }
        match self.child.try_wait() {
            Ok(None) => true,
            Ok(Some(status)) => {
                self.status = Some(status);
                self.stdin = None;
                false
            }
            Err(_) => {
                self.stdin = None;
                false
            }
        }
    }

    /// Serve one request and block until it is answered or the worker
    /// dies. Call it only on a session that [`Session::is_alive`]: a
    /// death is charged to the request in flight. After a death the
    /// session is closed and serves no further request.
    pub fn serve(&mut self, request: &str, limits: RequestLimits) -> ChildReport {
        self.seq += 1;
        let seq = self.seq;
        // What arrived between requests: stale beats and answers mean
        // nothing now, but an `@rss` still raises the worker's peak.
        while let Ok(event) = self.events.try_recv() {
            if let Event::Rss(bytes) = event {
                self.peak_rss = self.peak_rss.max(Some(bytes));
            }
        }
        lock(&self.stderr_tail).clear();

        let started = WallSpan::begin();
        if let Some(stdin) = self.stdin.as_mut() {
            let mut line = protocol::render_request(&Request {
                seq,
                limits,
                payload: request.to_string(),
            });
            line.push('\n');
            // A worker that died already breaks the pipe; std ignores
            // SIGPIPE, so the write error is benign: the loop below
            // finds the death.
            let _ = stdin.write_all(line.as_bytes());
        }

        let timeout = self.policy.heartbeat_timeout();
        let mut kill_reason: Option<KillReason> = None;
        let mut last_beat: Option<WallSpan> = None;
        let mut beats = 0;
        let mut last_sample = started;
        // `Some` once the worker's stdout closed.
        let mut reap_step: Option<Duration> = None;
        let ending = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ending::Exited(Some(status)),
                Ok(None) => {}
                Err(_) => break Ending::Exited(None),
            }
            if last_sample.elapsed() >= POLL {
                self.sample_rss();
                last_sample = WallSpan::begin();
            }
            if kill_reason.is_none() {
                let in_flight = started.elapsed();
                if let Some(budget_ms) = self.deadline_ms {
                    if in_flight >= Duration::from_millis(budget_ms) {
                        kill_reason = Some(KillReason::Deadline { budget_ms });
                    }
                }
                let silent = last_beat.map_or(in_flight, |beat| beat.elapsed());
                if kill_reason.is_none() && silent >= timeout {
                    kill_reason = Some(KillReason::Heartbeat {
                        silent_ms: silent.as_millis() as u64,
                    });
                }
                if kill_reason.is_some() {
                    let _ = self.child.kill();
                }
            }
            match reap_step {
                None => match self.events.recv_timeout(POLL) {
                    Ok(Event::Beat(at)) => {
                        last_beat = Some(at);
                        beats += 1;
                    }
                    Ok(Event::Rss(bytes)) => self.peak_rss = self.peak_rss.max(Some(bytes)),
                    Ok(Event::Answer(answered, frame)) => {
                        if answered == seq && kill_reason.is_none() {
                            break Ending::Answered(frame);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => reap_step = Some(REAP_FIRST_STEP),
                },
                Some(step) => {
                    std::thread::sleep(step);
                    reap_step = Some((step * 2).min(POLL));
                }
            }
        };
        let wall_ms = started.elapsed().as_millis() as u64;

        let (answer, exit_code, signal) = match ending {
            Ending::Answered(frame) => (Some(frame), None, None),
            Ending::Exited(status) => {
                self.status = status;
                self.stdin = None;
                self.join_readers();
                // An answer that landed just before the worker died
                // outranks its exit status, as every frame does.
                let mut answer = None;
                while let Ok(event) = self.events.try_recv() {
                    match event {
                        Event::Answer(answered, frame) if answered == seq => answer = Some(frame),
                        Event::Rss(bytes) => self.peak_rss = self.peak_rss.max(Some(bytes)),
                        Event::Beat(at) => {
                            last_beat = Some(at);
                            beats += 1;
                        }
                        Event::Answer(..) => {}
                    }
                }
                let exit_code = status.and_then(|s| s.code());
                let signal = status.as_ref().and_then(limits::status_signal);
                (answer, exit_code, signal)
            }
        };
        let stderr_tail = String::from_utf8_lossy(&lock(&self.stderr_tail)).into_owned();
        ChildReport {
            outcome: classify(kill_reason, exit_code, signal, answer, &stderr_tail),
            exit_code,
            signal,
            last_heartbeat_ms: last_beat.map(|beat| beat.since(&started).as_millis() as u64),
            heartbeats: beats,
            peak_rss_bytes: self.peak_rss,
            wall_ms,
            stderr_tail,
        }
    }

    /// Close the worker's stdin, so that it exits, and reap it. A worker
    /// still alive a heartbeat timeout after its stdin closed is killed.
    /// Returns the exit status, or `None` where it could not be read.
    /// Closing twice is harmless.
    pub fn close(&mut self) -> Option<ExitStatus> {
        self.stdin = None;
        if self.status.is_none() {
            let closing = WallSpan::begin();
            let mut step = REAP_FIRST_STEP;
            self.status = loop {
                match self.child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) => {}
                    Err(_) => break None,
                }
                if closing.elapsed() >= self.policy.heartbeat_timeout() {
                    let _ = self.child.kill();
                    break self.child.wait().ok();
                }
                std::thread::sleep(step);
                step = (step * 2).min(POLL);
            };
        }
        self.join_readers();
        self.status
    }

    fn sample_rss(&mut self) {
        if let Some(rss) = limits::peak_rss_bytes(&self.child.id().to_string()) {
            self.peak_rss = self.peak_rss.max(Some(rss));
        }
    }

    /// Join the pipe readers; they end once the worker and anything
    /// that inherited its pipes have exited.
    fn join_readers(&mut self) {
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

/// The stdout reader: turn frame lines into events, committing a final
/// frame only when the next line is its `@end`.
fn read_frames(stdout: impl Read, events: &Sender<Event>) {
    let mut reader = BufReader::new(stdout);
    let mut line = Vec::new();
    let mut previous: Option<Frame> = None;
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let text = String::from_utf8_lossy(&line);
        let frame = protocol::parse(text.strip_suffix('\n').unwrap_or(&text));
        let event = match &frame {
            Some(Frame::Heartbeat) => Some(Event::Beat(WallSpan::begin())),
            Some(Frame::Rss(bytes)) => Some(Event::Rss(*bytes)),
            Some(Frame::End(seq)) => previous
                .take()
                .filter(Frame::is_final)
                .map(|answer| Event::Answer(*seq, answer)),
            _ => None,
        };
        if let Some(event) = event {
            // The session may be gone; keep draining so the worker never
            // blocks on a full pipe.
            let _ = events.send(event);
        }
        previous = frame;
    }
}

/// The stderr reader: keep the last [`STDERR_TAIL_BYTES`] bytes.
fn keep_tail(mut stderr: impl Read, tail: &Mutex<Vec<u8>>) {
    let mut buf = [0u8; 1024];
    while let Ok(n) = stderr.read(&mut buf) {
        if n == 0 {
            break;
        }
        let mut tail = lock(tail);
        tail.extend_from_slice(&buf[..n]);
        if tail.len() > STDERR_TAIL_BYTES {
            let excess = tail.len() - STDERR_TAIL_BYTES;
            tail.drain(..excess);
        }
    }
}

/// Why the parent decided to kill a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Deadline { budget_ms: u64 },
    Heartbeat { silent_ms: u64 },
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
        Some(Frame::Heartbeat | Frame::Rss(_) | Frame::End(_)) | None => {}
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
