//! The child side of the sandbox: a serve loop that takes one request
//! after another from stdin, applies each request's resource limits,
//! heartbeats while it runs, and reports each result as framed lines.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::limits;
use crate::protocol::{self, Frame, RequestLimits};

/// Run the sandbox worker protocol if this process was spawned as a
/// worker; return immediately otherwise.
///
/// Call this first thing in `main`, before argument parsing — a worker
/// invocation never reaches the rest of the binary. In worker mode the
/// function starts a heartbeat thread, then serves requests until stdin
/// closes, and exits. For each request line it:
///
/// 1. sets the request's soft RLIMIT_AS and RLIMIT_CPU (see
///    [`RequestLimits`]; failures are reported on stderr but do not
///    abort the request: an unlimited worker is still a correct worker),
/// 2. runs `handler` under `catch_unwind`, printing [`Frame::Heartbeat`]
///    lines at the configured interval while it runs,
/// 3. answers with its own peak RSS as an `@rss` frame, the final `@ok`
///    / `@err` / `@panic` frame and `@end <seq>`, in one write.
///
/// A line that is not a request is skipped. The handler's stdout
/// discipline: it should not print to stdout (the protocol channel).
/// The parent ignores stray lines and takes a final frame as an answer
/// only when the worker commits it with `@end`, so a stray line can
/// never become a result, but a stray `@rss` still raises the reported
/// peak.
pub fn maybe_worker<F>(mut handler: F)
where
    F: FnMut(&str) -> Result<String, String>,
{
    if std::env::var(protocol::ENV_WORKER).as_deref() != Ok("1") {
        return;
    }

    let in_flight = Arc::new(AtomicBool::new(false));
    let heartbeat_ms = env_u64(protocol::ENV_HEARTBEAT_MS).unwrap_or(100);
    let silenced = std::env::var(protocol::ENV_NO_HEARTBEAT).as_deref() == Ok("1");
    if heartbeat_ms > 0 && !silenced {
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(heartbeat_ms));
            if in_flight.load(Ordering::Relaxed) {
                emit(&format!("{}\n", protocol::render(&Frame::Heartbeat)));
            }
        });
    }

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let Some(request) = protocol::parse_request(&line) else {
            continue;
        };
        apply_limits(request.limits);
        in_flight.store(true, Ordering::Relaxed);
        let frame = match catch_unwind(AssertUnwindSafe(|| handler(&request.payload))) {
            Ok(Ok(payload)) => Frame::Ok(payload),
            Ok(Err(message)) => Frame::Err(message),
            Err(payload) => Frame::Panic(panic_message(payload)),
        };
        in_flight.store(false, Ordering::Relaxed);
        let mut answer = String::new();
        if let Some(bytes) = limits::peak_rss_bytes("self") {
            answer.push_str(&protocol::render(&Frame::Rss(bytes)));
            answer.push('\n');
        }
        answer.push_str(&protocol::render(&frame));
        answer.push('\n');
        answer.push_str(&protocol::render(&Frame::End(request.seq)));
        answer.push('\n');
        emit(&answer);
    }
    // srclint:allow(R1006, reason = "ends the worker once stdin closes; returning would run the caller's main")
    std::process::exit(0);
}

/// Set the request's soft limits before its handler runs.
fn apply_limits(limits: RequestLimits) {
    if let Err(e) = limits::set_soft_rlimit_as(limits.rlimit_as_bytes) {
        eprintln!("sandbox worker: {e}");
    }
    if let Err(e) = limits::set_soft_rlimit_cpu(limits.rlimit_cpu_s) {
        eprintln!("sandbox worker: {e}");
    }
}

/// Write newline-terminated frame lines with one locked write, so
/// heartbeats and an answer never interleave.
fn emit(lines: &str) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = out.write_all(lines.as_bytes());
    let _ = out.flush();
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
