//! Chrome-trace-event / Perfetto-compatible trace export.
//!
//! [`ChromeTrace`] builds a JSON document in the Trace Event Format that
//! `ui.perfetto.dev` (and `chrome://tracing`) open directly: named `B`/`E`
//! duration spans on per-"thread" tracks, `i` instants for point events,
//! and `M` metadata events naming the tracks. [`ChromeTrace::from_events`]
//! maps the engine's [`Event`] stream onto a fixed track layout — mutator
//! slices, stop-the-world pauses, concurrent cycles and allocation pacing
//! each get their own track so a run's anatomy is readable at a glance.

use crate::event::Event;
use crate::recorder::{json_num, json_str};
use std::collections::BTreeMap;

/// Track id for mutator slices and batch fast-forwards.
pub const TID_MUTATOR: u32 = 1;
/// Track id for stop-the-world pauses.
pub const TID_GC_STW: u32 = 2;
/// Track id for concurrent collection cycles.
pub const TID_GC_CONCURRENT: u32 = 3;
/// Track id for allocation pacing (throttle/stall) intervals.
pub const TID_PACING: u32 = 4;
/// Track id for engine decision instants (triggers, futile streaks, OOM).
pub const TID_ENGINE: u32 = 5;
/// Base track id for injected fault windows. Each fault kind gets its own
/// track at `TID_FAULTS + kind.index()` so overlapping windows of
/// different kinds render as independent spans (Chrome `B`/`E` pairs must
/// nest within a track, and fault windows can close in any order). The
/// tracks are named lazily, so traces of clean runs are unchanged.
pub const TID_FAULTS: u32 = 6;

const PID: u32 = 1;

#[derive(Debug, Clone)]
struct TraceEvent {
    ph: char,
    name: String,
    ts_us: f64,
    tid: u32,
    args: Vec<(String, String)>,
}

/// A Chrome-trace-event document under construction.
///
/// Timestamps are microseconds, per the format. Unclosed `B` spans are
/// closed at the latest timestamp seen when the document is rendered, so
/// the output always has matched `B`/`E` pairs.
///
/// # Examples
///
/// ```
/// use chopin_obs::{validate_chrome_trace, ChromeTrace};
///
/// let mut trace = ChromeTrace::new();
/// trace.thread_name(1, "mutator");
/// trace.span(1, "Mutator", 0.0, 150.0);
/// trace.instant(1, "GC Trigger", 150.0);
/// let stats = validate_chrome_trace(&trace.to_json()).unwrap();
/// assert_eq!(stats.spans_on("mutator"), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
    thread_names: BTreeMap<u32, String>,
    // tid -> number of currently-open B events.
    open: BTreeMap<u32, usize>,
    max_ts_us: f64,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Name a track (rendered as an `M` `thread_name` metadata event).
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        self.thread_names.insert(tid, name.to_string());
    }

    /// Open a duration span on `tid`.
    pub fn begin(&mut self, tid: u32, name: &str, ts_us: f64) {
        self.push(TraceEvent {
            ph: 'B',
            name: name.to_string(),
            ts_us,
            tid,
            args: Vec::new(),
        });
        *self.open.entry(tid).or_default() += 1;
    }

    /// Close the most recently opened span on `tid`. Closing with no span
    /// open is ignored, so streams whose beginning was evicted from a ring
    /// buffer still render.
    pub fn end(&mut self, tid: u32, ts_us: f64) {
        let Some(depth) = self.open.get_mut(&tid).filter(|d| **d > 0) else {
            self.max_ts_us = self.max_ts_us.max(ts_us);
            return;
        };
        *depth -= 1;
        self.push(TraceEvent {
            ph: 'E',
            name: String::new(),
            ts_us,
            tid,
            args: Vec::new(),
        });
    }

    /// A complete span: `begin` immediately followed by `end`.
    pub fn span(&mut self, tid: u32, name: &str, start_us: f64, end_us: f64) {
        self.begin(tid, name, start_us);
        self.end(tid, end_us);
    }

    /// An instant event, with optional `args` rendered as numbers.
    pub fn instant(&mut self, tid: u32, name: &str, ts_us: f64) {
        self.instant_with_args(tid, name, ts_us, &[]);
    }

    /// An instant event carrying numeric arguments.
    pub fn instant_with_args(&mut self, tid: u32, name: &str, ts_us: f64, args: &[(&str, f64)]) {
        self.push(TraceEvent {
            ph: 'i',
            name: name.to_string(),
            ts_us,
            tid,
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_string(), json_num(*v)))
                .collect(),
        });
    }

    /// A counter sample (rendered as a `C` event; Perfetto draws these as a
    /// value track).
    pub fn counter(&mut self, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        self.push(TraceEvent {
            ph: 'C',
            name: name.to_string(),
            ts_us,
            tid: 0,
            args: series
                .iter()
                .map(|(k, v)| ((*k).to_string(), json_num(*v)))
                .collect(),
        });
    }

    /// Number of events recorded so far (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans currently open (these will be auto-closed on render).
    pub fn open_spans(&self) -> usize {
        self.open.values().sum()
    }

    fn push(&mut self, event: TraceEvent) {
        self.max_ts_us = self.max_ts_us.max(event.ts_us);
        self.events.push(event);
    }

    /// Render the document: `{"displayTimeUnit":"ms","traceEvents":[...]}`.
    /// Track-name metadata is emitted first; any spans still open are
    /// closed at the latest timestamp seen.
    pub fn to_json(&self) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(self.events.len() + 8);
        for (tid, name) in &self.thread_names {
            lines.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_str(name)
            ));
        }
        for event in &self.events {
            lines.push(render_event(event));
        }
        // Close anything left open so every B has a matching E.
        for (tid, depth) in &self.open {
            for _ in 0..*depth {
                lines.push(render_event(&TraceEvent {
                    ph: 'E',
                    name: String::new(),
                    ts_us: self.max_ts_us,
                    tid: *tid,
                    args: Vec::new(),
                }));
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}",
            lines.join(",\n")
        )
    }

    /// Build a trace from an engine event stream, mapping each event class
    /// onto its track. Works on partial streams (e.g. a ring buffer that
    /// dropped the start of the run): ends without a begin are ignored and
    /// unclosed spans are closed on render.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.thread_name(TID_MUTATOR, "mutator");
        trace.thread_name(TID_GC_STW, "gc-stw");
        trace.thread_name(TID_GC_CONCURRENT, "gc-concurrent");
        trace.thread_name(TID_PACING, "pacing");
        trace.thread_name(TID_ENGINE, "engine");
        let us = |ns: u64| ns as f64 / 1_000.0;
        for event in events {
            match *event {
                Event::SliceBegin { at } => trace.begin(TID_MUTATOR, "Mutator", us(at)),
                Event::SliceEnd { at, .. } => trace.end(TID_MUTATOR, us(at)),
                Event::GcTrigger {
                    at,
                    reason,
                    occupied_bytes,
                    capacity_bytes,
                } => trace.instant_with_args(
                    TID_ENGINE,
                    &format!("GC Trigger ({})", reason.label()),
                    us(at),
                    &[
                        ("occupied_bytes", occupied_bytes),
                        ("capacity_bytes", capacity_bytes),
                    ],
                ),
                Event::PauseBegin { at, kind } => {
                    trace.begin(TID_GC_STW, kind.span_name(), us(at));
                }
                Event::PauseEnd { at, .. } => trace.end(TID_GC_STW, us(at)),
                Event::ConcurrentBegin { at, .. } => {
                    trace.begin(TID_GC_CONCURRENT, "Concurrent Cycle", us(at));
                }
                Event::ConcurrentEnd { at, .. } => trace.end(TID_GC_CONCURRENT, us(at)),
                Event::ThrottleOnset { at, throttle } => {
                    let name = if throttle <= 0.0 {
                        "Allocation Stall".to_string()
                    } else {
                        format!("Throttle {:.0}%", throttle * 100.0)
                    };
                    trace.begin(TID_PACING, &name, us(at));
                }
                Event::ThrottleRelease { at } => trace.end(TID_PACING, us(at)),
                Event::BatchFastForward {
                    at, end, cycles, ..
                } => {
                    trace.span(
                        TID_MUTATOR,
                        &format!("Batched GC x{cycles}"),
                        us(at),
                        us(end),
                    );
                }
                Event::FutileCollection { at, streak } => trace.instant_with_args(
                    TID_ENGINE,
                    "Futile Collection",
                    us(at),
                    &[("streak", f64::from(streak))],
                ),
                Event::OomDeclared {
                    at,
                    live_bytes,
                    capacity_bytes,
                } => trace.instant_with_args(
                    TID_ENGINE,
                    "OutOfMemory",
                    us(at),
                    &[
                        ("live_bytes", live_bytes),
                        ("capacity_bytes", capacity_bytes),
                    ],
                ),
                Event::FaultOnset { at, kind, .. } => {
                    let tid = trace.fault_track(kind);
                    trace.begin(tid, kind.span_name(), us(at));
                }
                Event::FaultClear { at, kind } => {
                    let tid = trace.fault_track(kind);
                    trace.end(tid, us(at));
                }
            }
        }
        trace
    }

    /// The per-kind fault track, naming it on first use.
    fn fault_track(&mut self, kind: crate::event::FaultKind) -> u32 {
        let tid = TID_FAULTS + kind.index() as u32;
        if !self.thread_names.contains_key(&tid) {
            self.thread_name(tid, &format!("faults:{}", kind.label()));
        }
        tid
    }
}

fn render_event(event: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"name\":");
    out.push_str(&json_str(&event.name));
    out.push_str(&format!(
        ",\"ph\":\"{}\",\"ts\":{},\"pid\":{PID},\"tid\":{}",
        event.ph,
        json_num(event.ts_us),
        event.tid
    ));
    if event.ph == 'i' {
        // Instant scope: thread.
        out.push_str(",\"s\":\"t\"");
    }
    if !event.args.is_empty() {
        let body: Vec<String> = event
            .args
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        out.push_str(&format!(",\"args\":{{{}}}", body.join(",")));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PauseKind, TriggerReason};
    use crate::json::validate_chrome_trace;

    #[test]
    fn builder_output_validates() {
        let mut trace = ChromeTrace::new();
        trace.thread_name(TID_MUTATOR, "mutator");
        trace.span(TID_MUTATOR, "Mutator", 0.0, 100.0);
        trace.instant(TID_ENGINE, "GC Trigger", 100.0);
        trace.counter("heap", 50.0, &[("occupied", 1024.0)]);
        let stats = validate_chrome_trace(&trace.to_json()).unwrap();
        assert_eq!(stats.spans_on("mutator"), 1);
        assert_eq!(stats.counter_events, 1);
    }

    #[test]
    fn unclosed_spans_are_closed_on_render() {
        let mut trace = ChromeTrace::new();
        trace.begin(TID_GC_STW, "Pause Young", 10.0);
        trace.instant(TID_ENGINE, "later", 99.0);
        assert_eq!(trace.open_spans(), 1);
        let stats = validate_chrome_trace(&trace.to_json()).unwrap();
        assert_eq!(stats.spans_on("tid:2"), 1);
    }

    #[test]
    fn stray_end_is_tolerated() {
        let mut trace = ChromeTrace::new();
        trace.end(TID_MUTATOR, 5.0);
        trace.span(TID_MUTATOR, "Mutator", 5.0, 9.0);
        let stats = validate_chrome_trace(&trace.to_json()).unwrap();
        assert_eq!(stats.spans_on("tid:1"), 1);
    }

    #[test]
    fn from_events_maps_every_track() {
        let events = vec![
            Event::SliceBegin { at: 0 },
            Event::ThrottleOnset {
                at: 100,
                throttle: 0.25,
            },
            Event::SliceEnd {
                at: 1_000,
                progress_rate: 0.9,
                throttle: 0.25,
            },
            Event::ThrottleRelease { at: 1_000 },
            Event::GcTrigger {
                at: 1_000,
                reason: TriggerReason::OccupancyThreshold,
                occupied_bytes: 900.0,
                capacity_bytes: 1000.0,
            },
            Event::PauseBegin {
                at: 1_000,
                kind: PauseKind::ConcurrentMark,
            },
            Event::PauseEnd {
                at: 2_000,
                kind: PauseKind::ConcurrentMark,
                gc_cpu_ns: 500.0,
            },
            Event::ConcurrentBegin {
                at: 2_000,
                work_cpu_ns: 1_000.0,
            },
            Event::ConcurrentEnd {
                at: 5_000,
                floated_bytes: 64.0,
            },
            Event::BatchFastForward {
                at: 5_000,
                end: 9_000,
                cycles: 12,
            },
            Event::FutileCollection {
                at: 9_000,
                streak: 1,
            },
            Event::OomDeclared {
                at: 9_500,
                live_bytes: 990.0,
                capacity_bytes: 1000.0,
            },
        ];
        let trace = ChromeTrace::from_events(&events);
        let stats = validate_chrome_trace(&trace.to_json()).unwrap();
        assert_eq!(stats.spans_on("mutator"), 2, "slice + batched span");
        assert_eq!(stats.spans_on("gc-stw"), 1);
        assert_eq!(stats.spans_on("gc-concurrent"), 1);
        assert_eq!(stats.spans_on("pacing"), 1);
        assert_eq!(
            stats.instants_by_track.get("engine").copied().unwrap_or(0),
            3
        );
        assert!(stats
            .span_names_by_track
            .get("gc-stw")
            .unwrap()
            .contains(&"Pause Init/Final Mark".to_string()));
    }

    #[test]
    fn fault_windows_render_on_per_kind_tracks() {
        use crate::event::FaultKind;
        // Overlapping windows of different kinds that close in non-LIFO
        // order: per-kind tracks keep the B/E pairs matched.
        let events = vec![
            Event::FaultOnset {
                at: 0,
                kind: FaultKind::AllocSpike,
                magnitude: 4.0,
            },
            Event::FaultOnset {
                at: 500,
                kind: FaultKind::StallStorm,
                magnitude: 0.2,
            },
            Event::FaultClear {
                at: 1_000,
                kind: FaultKind::AllocSpike,
            },
            Event::FaultClear {
                at: 2_000,
                kind: FaultKind::StallStorm,
            },
        ];
        let trace = ChromeTrace::from_events(&events);
        let stats = validate_chrome_trace(&trace.to_json()).unwrap();
        assert_eq!(stats.spans_on("faults:alloc_spike"), 1);
        assert_eq!(stats.spans_on("faults:stall_storm"), 1);
        assert!(stats
            .span_names_by_track
            .get("faults:alloc_spike")
            .unwrap()
            .contains(&"Fault: Alloc Spike".to_string()));
    }

    #[test]
    fn clean_traces_omit_fault_tracks() {
        let events = vec![Event::SliceBegin { at: 0 }];
        let json = ChromeTrace::from_events(&events).to_json();
        assert!(!json.contains("faults:"), "{json}");
    }

    #[test]
    fn throttle_zero_renders_as_stall() {
        let events = vec![
            Event::ThrottleOnset {
                at: 0,
                throttle: 0.0,
            },
            Event::ThrottleRelease { at: 100 },
        ];
        let trace = ChromeTrace::from_events(&events);
        let json = trace.to_json();
        assert!(json.contains("Allocation Stall"), "{json}");
    }
}
