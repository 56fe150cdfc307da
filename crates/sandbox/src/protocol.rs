//! The wire protocol between a sandbox parent and its worker child.
//!
//! The channel is the child's stdout, framed line by line so a partially
//! written crash leaves at worst one torn line (ignored) rather than a
//! corrupt stream. The request travels on stdin; configuration travels in
//! environment variables so the worker can apply resource limits before
//! touching the request at all.
//!
//! Frames (one per line, newline-terminated):
//!
//! | frame        | meaning                                             |
//! |--------------|-----------------------------------------------------|
//! | `@hb`        | heartbeat: the worker is alive and scheduled        |
//! | `@rss <n>`   | the worker's own peak resident set (VmHWM), bytes   |
//! | `@ok <p>`    | handler finished, escaped payload `<p>`             |
//! | `@err <p>`   | handler returned an error (transient, retryable)    |
//! | `@panic <p>` | handler panicked; `<p>` is the panic message        |
//!
//! Payloads are escaped with [`escape`] (`\` → `\\`, newline → `\n`,
//! CR → `\r`, space → `\s`) so any string survives the line framing.
//!
//! `@ok`, `@err` and `@panic` are *final*: the worker prints exactly one
//! of them and exits. Just before it, the worker reads its own VmHWM
//! and prints `@rss`, because a child that lives a few milliseconds is
//! gone before the parent can sample `/proc/<pid>/status`. The parent
//! ignores lines it does not know, so a parent without `@rss` support
//! and a worker that never sends it interoperate with either side.

/// Environment variable that marks a process as a sandbox worker.
pub const ENV_WORKER: &str = "CHOPIN_SANDBOX_WORKER";
/// Heartbeat interval for the worker, in milliseconds.
pub const ENV_HEARTBEAT_MS: &str = "CHOPIN_SANDBOX_HEARTBEAT_MS";
/// RLIMIT_AS (address space) for the worker, in bytes.
pub const ENV_RLIMIT_AS: &str = "CHOPIN_SANDBOX_RLIMIT_AS";
/// RLIMIT_CPU for the worker, in seconds.
pub const ENV_RLIMIT_CPU: &str = "CHOPIN_SANDBOX_RLIMIT_CPU";
/// Test hook: suppress heartbeats entirely so heartbeat-loss handling can
/// be exercised deterministically.
pub const ENV_NO_HEARTBEAT: &str = "CHOPIN_SANDBOX_NO_HEARTBEAT";

/// A parsed protocol frame read from the worker's stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The worker is alive.
    Heartbeat,
    /// The worker's peak resident set size (VmHWM) in bytes, read by the
    /// worker just before its final frame.
    Rss(u64),
    /// The handler completed with the given payload.
    Ok(String),
    /// The handler failed with a transient error.
    Err(String),
    /// The handler panicked with the given message.
    Panic(String),
}

/// Escape a frame field for line framing and for space-separated fields:
/// `\` → `\\`, newline → `\n`, CR → `\r`, space → `\s`. The one line
/// escape of this pipe's frames and the fleet wire's.
#[must_use]
pub fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    // Every byte that needs escaping is ASCII, so the runs between them
    // split `field` on character boundaries and copy whole.
    let mut run = 0;
    for (i, byte) in field.bytes().enumerate() {
        let escaped = match byte {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b' ' => "\\s",
            _ => continue,
        };
        out.push_str(&field[run..i]);
        out.push_str(escaped);
        run = i + 1;
    }
    out.push_str(&field[run..]);
    out
}

/// Invert [`escape`]. Unknown escapes pass through verbatim, so a torn
/// escape never corrupts the rest of the field.
#[must_use]
pub fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut rest = field;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut after = rest[at + 1..].chars();
        match after.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('s') => out.push(' '),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
        rest = after.as_str();
    }
    out.push_str(rest);
    out
}

/// Render a frame as its wire line (without the trailing newline).
#[must_use]
pub fn render(frame: &Frame) -> String {
    match frame {
        Frame::Heartbeat => "@hb".to_string(),
        Frame::Rss(bytes) => format!("@rss {bytes}"),
        Frame::Ok(p) => format!("@ok {}", escape(p)),
        Frame::Err(p) => format!("@err {}", escape(p)),
        Frame::Panic(p) => format!("@panic {}", escape(p)),
    }
}

/// Parse one stdout line into a frame. Returns `None` for anything that
/// is not a protocol frame (stray prints, torn lines from a crash).
#[must_use]
pub fn parse(line: &str) -> Option<Frame> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line == "@hb" {
        return Some(Frame::Heartbeat);
    }
    if let Some(rest) = line.strip_prefix("@rss ") {
        return rest.parse().ok().map(Frame::Rss);
    }
    if let Some(rest) = line.strip_prefix("@ok ") {
        return Some(Frame::Ok(unescape(rest)));
    }
    if line == "@ok" {
        return Some(Frame::Ok(String::new()));
    }
    if let Some(rest) = line.strip_prefix("@err ") {
        return Some(Frame::Err(unescape(rest)));
    }
    if let Some(rest) = line.strip_prefix("@panic ") {
        return Some(Frame::Panic(unescape(rest)));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let frames = [
            Frame::Heartbeat,
            Frame::Rss(64 << 20),
            Frame::Ok("{\"samples\":[]}".to_string()),
            Frame::Ok(String::new()),
            Frame::Err("boom\nwith newline".to_string()),
            Frame::Panic("back\\slash and \r return".to_string()),
        ];
        for frame in frames {
            let line = render(&frame);
            assert!(!line.contains('\n'), "frame must stay on one line");
            assert_eq!(parse(&line), Some(frame));
        }
    }

    #[test]
    fn non_protocol_lines_are_ignored() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("warning: something"), None);
        assert_eq!(parse("@unknown x"), None);
        // A torn final line (crash mid-write) must not parse as a result.
        assert_eq!(parse("@o"), None);
        // A torn or malformed `@rss` carries no reading.
        assert_eq!(parse("@rss "), None);
        assert_eq!(parse("@rss 12ab"), None);
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("a\\zb"), "a\\zb");
        assert_eq!(unescape("trailing\\"), "trailing\\");
    }
}
