//! A minimal JSON reader and the Chrome-trace validator.
//!
//! The workspace's exporters emit JSON by hand — and anything emitted by
//! hand needs an independent reader to prove it well-formed. This module
//! implements the small recursive-descent parser that the
//! trace-validation tests, the `artifact trace --check` gate and CI all
//! share, and the typed field readers (`str_field`, `int_field`, …)
//! every decoder reads objects with: each checks the member's type,
//! integers also for being integral and in range, and names the field in
//! its error. It parses the full JSON grammar (this crate's exports only
//! exercise a simple subset).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object member `key`; the error names it when missing.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Object member `key`, or `None` when it is absent or `null`.
    pub fn opt_field(&self, key: &str) -> Option<&JsonValue> {
        self.get(key).filter(|v| !matches!(v, JsonValue::Null))
    }

    /// String member `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| must(key, "a string"))
    }

    /// String member `key`, or `None` when it is absent or `null`.
    pub fn opt_str_field(&self, key: &str) -> Result<Option<&str>, String> {
        self.opt_field(key)
            .map(|v| v.as_str().ok_or_else(|| must(key, "a string or null")))
            .transpose()
    }

    /// Finite number member `key`. Numbers parse with
    /// `str::parse::<f64>`, so a float written with `{:?}` (shortest
    /// round-trip) reads back with its exact bits.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        let n = self.field(key)?.as_num();
        n.filter(|n| n.is_finite())
            .ok_or_else(|| must(key, "a finite number"))
    }

    /// Integer member `key`, range-checked into `T`. A JSON number is an
    /// `f64`, exact only up to 2^53 − 1 in magnitude, so larger ones are
    /// rejected rather than rounded; wider values travel as decimal
    /// strings ([`JsonValue::u64_str_field`]).
    pub fn int_field<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        let n = self
            .field(key)?
            .as_num()
            .ok_or_else(|| must(key, "an integer"))?;
        if n.fract() != 0.0 || n.abs() > MAX_EXACT_INT {
            return Err(format!("field `{key}` is not an integer in range: {n:?}"));
        }
        T::try_from(n as i64).map_err(|_| format!("field `{key}` is out of range: {n:?}"))
    }

    /// Integer member `key` ([`JsonValue::int_field`]), or `None` when it
    /// is absent or `null`.
    pub fn opt_int_field<T: TryFrom<i64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.opt_field(key).map(|_| self.int_field(key)).transpose()
    }

    /// `u64` member `key`, carried as a decimal string: a JSON number
    /// cannot hold every 64-bit value (seeds, worker ids, nanoseconds).
    pub fn u64_str_field(&self, key: &str) -> Result<u64, String> {
        let text = self.str_field(key)?;
        Some(text)
            .filter(|t| t.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| must(key, &format!("a decimal u64 string, not {text:?}")))
    }

    /// Enum member `key`: a string label resolved by `from_label`.
    pub fn label_field<T>(
        &self,
        key: &str,
        from_label: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let label = self.str_field(key)?;
        from_label(label).ok_or_else(|| format!("field `{key}` has unknown value `{label}`"))
    }

    /// Array member `key`.
    pub fn arr_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| must(key, "an array"))
    }
}

/// The error of a member of the wrong type or shape.
fn must(key: &str, what: &str) -> String {
    format!("field `{key}` must be {what}")
}

/// The largest magnitude up to which every integer is an exact `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_991.0;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Escape a string as a JSON string literal, quotes included — the
/// one escaping routine every hand-rolled exporter in the workspace
/// shares.
///
/// # Examples
///
/// ```
/// use chopin_obs::json::json_string;
///
/// assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
/// ```
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// Append [`json_string`]`(s)` to `out`, for encoders that build a whole
/// record in one buffer.
pub fn write_json_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input.
///
/// # Examples
///
/// ```
/// use chopin_obs::json::parse;
///
/// let v = parse(r#"{"a": [1, 2.5, "x"], "b": null}"#).unwrap();
/// assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
/// assert!(parse("{oops").is_err());
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are outside this crate's exports;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // slice. Both are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Summary statistics of a validated Chrome trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total entries in `traceEvents`.
    pub total_events: usize,
    /// Completed `B`/`E` span pairs per track name.
    pub spans_by_track: BTreeMap<String, usize>,
    /// Span names seen per track name.
    pub span_names_by_track: BTreeMap<String, Vec<String>>,
    /// Instant (`i`) events per track name.
    pub instants_by_track: BTreeMap<String, usize>,
    /// Counter (`C`) events in the trace.
    pub counter_events: usize,
}

impl TraceStats {
    /// Completed spans on a named track.
    pub fn spans_on(&self, track: &str) -> usize {
        self.spans_by_track.get(track).copied().unwrap_or(0)
    }
}

/// Validate a Chrome-trace-event JSON document of the shape this crate
/// exports: a top-level object with `displayTimeUnit` and a non-empty
/// `traceEvents` array whose `B` events all match an `E` event on the same
/// (pid, tid), in order.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc = parse(json).map_err(|e| e.to_string())?;
    doc.str_field("displayTimeUnit")?;
    let events = doc.arr_field("traceEvents")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }

    let mut stats = TraceStats {
        total_events: events.len(),
        ..TraceStats::default()
    };
    // (pid, tid) -> thread name (from metadata events).
    let mut names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    // (pid, tid) -> stack of open B events.
    let mut open: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();

    let track_of = |names: &BTreeMap<(u64, u64), String>, key: (u64, u64)| -> String {
        names
            .get(&key)
            .cloned()
            .unwrap_or_else(|| format!("tid:{}", key.1))
    };

    for (i, e) in events.iter().enumerate() {
        let ph = e
            .str_field("ph")
            .map_err(|err| format!("event {i}: {err}"))?;
        let pid = e.get("pid").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
        let tid = e.get("tid").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
        let key = (pid, tid);
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        match ph {
            "M" => {
                if name == "thread_name" {
                    if let Some(n) = e
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                    {
                        names.insert(key, n.to_string());
                    }
                }
            }
            "B" => {
                if e.get("ts").and_then(JsonValue::as_num).is_none() {
                    return Err(format!("B event {i} has no numeric ts"));
                }
                open.entry(key).or_default().push(name);
            }
            "E" => {
                let Some(opened) = open.get_mut(&key).and_then(Vec::pop) else {
                    return Err(format!("E event {i} closes nothing on tid {tid}"));
                };
                let track = track_of(&names, key);
                *stats.spans_by_track.entry(track.clone()).or_default() += 1;
                let seen = stats.span_names_by_track.entry(track).or_default();
                if !seen.contains(&opened) {
                    seen.push(opened);
                }
            }
            "i" | "I" => {
                let track = track_of(&names, key);
                *stats.instants_by_track.entry(track).or_default() += 1;
            }
            "C" => stats.counter_events += 1,
            other => return Err(format!("event {i} has unsupported ph `{other}`")),
        }
    }
    for ((_, tid), stack) in &open {
        if let Some(unclosed) = stack.last() {
            return Err(format!("unmatched B event `{unclosed}` on tid {tid}"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_round_trips_through_the_parser() {
        for nasty in [
            "line\nbreak\ttab \"quote\" back\\slash \u{1} end",
            // Multi-byte scalars, alone and right next to escapes.
            "caf\u{e9}\n\"\u{1f600}\"\u{1f600}\\\u{e9}",
            "\u{e9}",
            "\u{1f600}\t",
        ] {
            let literal = json_string(nasty);
            let parsed = parse(&literal).unwrap();
            assert_eq!(parsed.as_str(), Some(nasty));
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":{"b":[true,false,null,-1.5e2]},"c":"A\n","é😀":"x\"é\u00e9😀"}"#)
            .unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[3], JsonValue::Num(-150.0));
        assert_eq!(v.get("c").unwrap().as_str(), Some("A\n"));
        assert_eq!(v.get("é😀").unwrap().as_str(), Some("x\"éé😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn validates_matched_spans() {
        let json = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"mutator"}},
            {"name":"slice","ph":"B","ts":0.0,"pid":1,"tid":1},
            {"name":"slice","ph":"E","ts":2.0,"pid":1,"tid":1}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.spans_on("mutator"), 1);
        assert_eq!(stats.total_events, 3);
    }

    #[test]
    fn rejects_unmatched_b_events() {
        let json = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"slice","ph":"B","ts":0.0,"pid":1,"tid":1}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("unmatched"), "{err}");
    }

    #[test]
    fn rejects_stray_e_events_and_empty_traces() {
        let stray = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"slice","ph":"E","ts":0.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(stray).is_err());
        let empty = r#"{"displayTimeUnit":"ms","traceEvents":[]}"#;
        assert!(validate_chrome_trace(empty).is_err());
        let no_unit = r#"{"traceEvents":[{"ph":"C","name":"x"}]}"#;
        assert!(validate_chrome_trace(no_unit).is_err());
    }
}
