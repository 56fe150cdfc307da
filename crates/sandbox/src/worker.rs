//! The child side of the sandbox: request intake, resource limits,
//! heartbeats and framed result reporting.

use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::limits;
use crate::protocol::{self, Frame};

/// Run the sandbox worker protocol if this process was spawned as a
/// worker; return immediately otherwise.
///
/// Call this first thing in `main`, before argument parsing — a worker
/// invocation never reaches the rest of the binary. In worker mode the
/// function:
///
/// 1. applies RLIMIT_AS / RLIMIT_CPU from the environment (failures are
///    reported on stderr but do not abort the cell: an unlimited worker
///    is still a correct worker),
/// 2. reads the entire request from stdin,
/// 3. starts a heartbeat thread printing [`Frame::Heartbeat`] lines at
///    the configured interval,
/// 4. runs `handler` under `catch_unwind`,
/// 5. prints its own peak RSS as an `@rss` frame, then the final
///    `@ok` / `@err` / `@panic` frame, and exits.
///
/// The handler's stdout discipline: it must not print to stdout (the
/// protocol channel). Stray lines are ignored by the parent, but a line
/// that happens to look like a frame would corrupt the result.
pub fn maybe_worker<F>(handler: F)
where
    F: FnOnce(&str) -> Result<String, String>,
{
    if std::env::var(protocol::ENV_WORKER).as_deref() != Ok("1") {
        return;
    }

    if let Some(bytes) = env_u64(protocol::ENV_RLIMIT_AS) {
        if let Err(e) = limits::apply_rlimit_as(bytes) {
            eprintln!("sandbox worker: {e}");
        }
    }
    if let Some(seconds) = env_u64(protocol::ENV_RLIMIT_CPU) {
        if let Err(e) = limits::apply_rlimit_cpu(seconds) {
            eprintln!("sandbox worker: {e}");
        }
    }

    let mut request = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut request) {
        emit(&Frame::Err(format!(
            "worker could not read its request: {e}"
        )));
        // srclint:allow(R1006, reason = "worker_entry IS the child process entry point; the parent reads the Err frame, not the exit code")
        std::process::exit(0);
    }

    let heartbeat_ms = env_u64(protocol::ENV_HEARTBEAT_MS).unwrap_or(100);
    let silenced = std::env::var(protocol::ENV_NO_HEARTBEAT).as_deref() == Ok("1");
    if heartbeat_ms > 0 && !silenced {
        std::thread::spawn(move || loop {
            emit(&Frame::Heartbeat);
            std::thread::sleep(Duration::from_millis(heartbeat_ms));
        });
    }

    let frame = match catch_unwind(AssertUnwindSafe(|| handler(&request))) {
        Ok(Ok(payload)) => Frame::Ok(payload),
        Ok(Err(message)) => Frame::Err(message),
        Err(payload) => Frame::Panic(panic_message(payload)),
    };
    if let Some(bytes) = limits::peak_rss_bytes("self") {
        emit(&Frame::Rss(bytes));
    }
    emit(&frame);
    // srclint:allow(R1006, reason = "ends the child after its final frame; returning would re-run the caller's main and double-report")
    std::process::exit(0);
}

/// Write one frame line atomically (a single locked `writeln!`) so
/// heartbeats and the final result never interleave mid-line.
fn emit(frame: &Frame) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{}", protocol::render(frame));
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
