//! The wire protocol between a sandbox parent and its persistent worker.
//!
//! A worker serves one request after another. Requests travel on its
//! stdin, answers on its stdout; both are framed line by line, so a
//! crash mid-write leaves at worst one torn line (ignored) rather than a
//! corrupt stream. The worker's configuration (heartbeat cadence) travels
//! in environment variables, once per spawn; each request carries its
//! own resource limits, which the worker applies before running it.
//!
//! A request is one stdin line, rendered by [`render_request`]:
//!
//! ```text
//! @req <seq> <rlimit_as_bytes|-> <rlimit_cpu_s|-> <payload>
//! ```
//!
//! `<seq>` numbers the worker's requests, `-` leaves a limit at its hard
//! value, and the payload is escaped with [`escape`] (`\` → `\\`,
//! newline → `\n`, CR → `\r`, space → `\s`) so any string survives
//! the line and field framing. The worker exits when stdin closes.
//!
//! Frames on stdout (one per line, newline-terminated):
//!
//! | frame        | meaning                                             |
//! |--------------|-----------------------------------------------------|
//! | `@hb`        | heartbeat: a request is in flight and the worker is scheduled |
//! | `@rss <n>`   | the worker's own peak resident set (VmHWM), bytes   |
//! | `@ok <p>`    | handler finished, escaped payload `<p>`             |
//! | `@err <p>`   | handler returned an error (transient, retryable)    |
//! | `@panic <p>` | handler panicked; `<p>` is the panic message        |
//! | `@end <seq>` | commits the line just before it as request `<seq>`'s answer |
//!
//! `@ok`, `@err` and `@panic` are *final*. The worker answers each
//! request with `@rss` (its VmHWM, read just before, so a worker the
//! parent never sampled still reports one), one final frame and
//! `@end <seq>`, in a single write, so nothing interleaves with them. A
//! final frame counts as an answer only on the line just before the
//! `@end` of the request in flight: a frame-shaped line a handler prints
//! on its own never does. The parent ignores lines it does not know.

/// Environment variable that marks a process as a sandbox worker.
pub const ENV_WORKER: &str = "CHOPIN_SANDBOX_WORKER";
/// Heartbeat interval for the worker, in milliseconds.
pub const ENV_HEARTBEAT_MS: &str = "CHOPIN_SANDBOX_HEARTBEAT_MS";
/// Test hook: suppress heartbeats entirely so heartbeat-loss handling can
/// be exercised deterministically.
pub const ENV_NO_HEARTBEAT: &str = "CHOPIN_SANDBOX_NO_HEARTBEAT";

/// Per-request resource limits, derived by the caller from the cell being
/// run (see [`crate::policy`] for the derivation rules). The worker sets
/// them as its soft limits before running the request; `None` restores
/// the corresponding soft limit to the hard one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// RLIMIT_AS for this request, in bytes.
    pub rlimit_as_bytes: Option<u64>,
    /// CPU seconds this request may use: the worker's RLIMIT_CPU becomes
    /// the CPU time it has used so far plus this budget.
    pub rlimit_cpu_s: Option<u64>,
}

/// One request as it crosses the worker's stdin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request's number on its worker; its answer's `@end` repeats it.
    pub seq: u64,
    /// The limits the worker applies before running it.
    pub limits: RequestLimits,
    /// The handler's input.
    pub payload: String,
}

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
    /// The final frame on the line just before answers request `seq`.
    End(u64),
}

impl Frame {
    /// Whether the frame is a handler's result (`@ok`, `@err`, `@panic`).
    #[must_use]
    pub fn is_final(&self) -> bool {
        matches!(self, Frame::Ok(_) | Frame::Err(_) | Frame::Panic(_))
    }
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
        Frame::End(seq) => format!("@end {seq}"),
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
    if let Some(rest) = line.strip_prefix("@end ") {
        return rest.parse().ok().map(Frame::End);
    }
    None
}

/// Render a request as its stdin line (without the trailing newline).
#[must_use]
pub fn render_request(request: &Request) -> String {
    let limit = |value: Option<u64>| value.map_or_else(|| "-".to_string(), |v| v.to_string());
    format!(
        "@req {} {} {} {}",
        request.seq,
        limit(request.limits.rlimit_as_bytes),
        limit(request.limits.rlimit_cpu_s),
        escape(&request.payload)
    )
}

/// Parse one stdin line into a request; `None` for anything else.
#[must_use]
pub fn parse_request(line: &str) -> Option<Request> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut fields = line.strip_prefix("@req ")?.splitn(4, ' ');
    let seq = fields.next()?.parse().ok()?;
    let mut limit = || -> Option<Option<u64>> {
        match fields.next()? {
            "-" => Some(None),
            value => value.parse().ok().map(Some),
        }
    };
    let limits = RequestLimits {
        rlimit_as_bytes: limit()?,
        rlimit_cpu_s: limit()?,
    };
    Some(Request {
        seq,
        limits,
        payload: unescape(fields.next()?),
    })
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
            Frame::End(u64::MAX),
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
        assert_eq!(parse("@end "), None);
        assert_eq!(parse("@end x"), None);
    }

    #[test]
    fn requests_round_trip_with_and_without_limits() {
        let requests = [
            Request {
                seq: 1,
                limits: RequestLimits::default(),
                payload: String::new(),
            },
            Request {
                seq: 7,
                limits: RequestLimits {
                    rlimit_as_bytes: Some(1 << 30),
                    rlimit_cpu_s: Some(5),
                },
                payload: "{\"cell\": \"a b\"}\nsecond line\\".to_string(),
            },
        ];
        for request in requests {
            let line = render_request(&request);
            assert!(!line.contains('\n'), "a request must stay on one line");
            assert_eq!(parse_request(&line), Some(request));
        }
        assert_eq!(parse_request("@ok x"), None);
        assert_eq!(parse_request("@req 1 - -"), None, "a torn request");
        assert_eq!(parse_request("@req 1 lots - x"), None);
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("a\\zb"), "a\\zb");
        assert_eq!(unescape("trailing\\"), "trailing\\");
    }
}
