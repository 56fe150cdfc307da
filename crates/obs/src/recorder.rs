//! The structured event recorder: a bounded ring buffer of engine events
//! with JSONL export.
//!
//! Long runs emit millions of slice events; the recorder keeps the most
//! recent `capacity` events and counts what it evicted, so memory stays
//! bounded no matter how pathological the run (the same discipline the
//! engine applies to pause records and heap samples).

use crate::event::Event;
use crate::observer::Observer;
use std::collections::VecDeque;

/// Default ring-buffer capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A bounded, in-order recording of engine events.
///
/// # Examples
///
/// ```
/// use chopin_obs::{Event, EventRecorder, Observer};
///
/// let mut rec = EventRecorder::with_capacity(2);
/// for at in 0..5 {
///     rec.record(Event::SliceBegin { at });
/// }
/// assert_eq!(rec.len(), 2, "ring keeps the most recent events");
/// assert_eq!(rec.dropped(), 3);
/// assert_eq!(rec.events().next().map(|e| e.at()), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct EventRecorder {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Default for EventRecorder {
    fn default() -> Self {
        EventRecorder::new()
    }
}

impl EventRecorder {
    /// A recorder with the default capacity
    /// ([`DEFAULT_RING_CAPACITY`]).
    pub fn new() -> EventRecorder {
        EventRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events (the oldest are
    /// evicted first). A zero capacity is clamped to one so the recorder
    /// always holds the latest event.
    pub fn with_capacity(capacity: usize) -> EventRecorder {
        EventRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Render the retained events as JSON Lines: one object per line, in
    /// time order, e.g.
    /// `{"type":"pause_begin","at_ns":312000,"kind":"young"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event_json(event));
            out.push('\n');
        }
        out
    }
}

impl Observer for EventRecorder {
    #[inline]
    fn record(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Render one event as a single-line JSON object.
pub fn event_json(event: &Event) -> String {
    let mut fields = vec![
        ("type".to_string(), json_str(event.type_label())),
        ("at_ns".to_string(), event.at().to_string()),
    ];
    match *event {
        Event::SliceBegin { .. } | Event::ThrottleRelease { .. } => {}
        Event::SliceEnd {
            progress_rate,
            throttle,
            ..
        } => {
            fields.push(("progress_rate".into(), json_num(progress_rate)));
            fields.push(("throttle".into(), json_num(throttle)));
        }
        Event::GcTrigger {
            reason,
            occupied_bytes,
            capacity_bytes,
            ..
        } => {
            fields.push(("reason".into(), json_str(reason.label())));
            fields.push(("occupied_bytes".into(), json_num(occupied_bytes)));
            fields.push(("capacity_bytes".into(), json_num(capacity_bytes)));
        }
        Event::PauseBegin { kind, .. } => {
            fields.push(("kind".into(), json_str(kind.label())));
        }
        Event::PauseEnd {
            kind, gc_cpu_ns, ..
        } => {
            fields.push(("kind".into(), json_str(kind.label())));
            fields.push(("gc_cpu_ns".into(), json_num(gc_cpu_ns)));
        }
        Event::ConcurrentBegin { work_cpu_ns, .. } => {
            fields.push(("work_cpu_ns".into(), json_num(work_cpu_ns)));
        }
        Event::ConcurrentEnd { floated_bytes, .. } => {
            fields.push(("floated_bytes".into(), json_num(floated_bytes)));
        }
        Event::ThrottleOnset { throttle, .. } => {
            fields.push(("throttle".into(), json_num(throttle)));
        }
        Event::BatchFastForward { end, cycles, .. } => {
            fields.push(("end_ns".into(), end.to_string()));
            fields.push(("cycles".into(), cycles.to_string()));
        }
        Event::FutileCollection { streak, .. } => {
            fields.push(("streak".into(), streak.to_string()));
        }
        Event::OomDeclared {
            live_bytes,
            capacity_bytes,
            ..
        } => {
            fields.push(("live_bytes".into(), json_num(live_bytes)));
            fields.push(("capacity_bytes".into(), json_num(capacity_bytes)));
        }
        Event::FaultOnset {
            kind, magnitude, ..
        } => {
            fields.push(("kind".into(), json_str(kind.label())));
            fields.push(("magnitude".into(), json_num(magnitude)));
        }
        Event::FaultClear { kind, .. } => {
            fields.push(("kind".into(), json_str(kind.label())));
        }
    }
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(&k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_num(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints a round-trippable float that is always valid JSON
        // (never `inf`/`NaN`, always with enough digits).
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PauseKind, TriggerReason};

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = EventRecorder::with_capacity(3);
        for at in 0..10 {
            rec.record(Event::SliceBegin { at });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        let ats: Vec<u64> = rec.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let rec = EventRecorder::with_capacity(0);
        assert_eq!(rec.capacity(), 1);
        assert!(rec.is_empty());
    }

    #[test]
    fn jsonl_renders_one_line_per_event() {
        let mut rec = EventRecorder::new();
        rec.record(Event::GcTrigger {
            at: 100,
            reason: TriggerReason::OccupancyThreshold,
            occupied_bytes: 1024.0,
            capacity_bytes: 4096.0,
        });
        rec.record(Event::PauseBegin {
            at: 100,
            kind: PauseKind::Young,
        });
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"gc_trigger\""), "{jsonl}");
        assert!(lines[0].contains("\"reason\":\"occupancy_threshold\""));
        assert!(lines[1].contains("\"kind\":\"young\""));
        for line in lines {
            crate::json::parse(line).expect("every JSONL line parses");
        }
    }

    #[test]
    fn fault_events_render_kind_and_magnitude() {
        use crate::event::FaultKind;
        let onset = event_json(&Event::FaultOnset {
            at: 10,
            kind: FaultKind::GcSlowdown,
            magnitude: 8.0,
        });
        assert!(onset.contains("\"type\":\"fault_onset\""), "{onset}");
        assert!(onset.contains("\"kind\":\"gc_slowdown\""), "{onset}");
        assert!(onset.contains("\"magnitude\":8.0"), "{onset}");
        let clear = event_json(&Event::FaultClear {
            at: 20,
            kind: FaultKind::GcSlowdown,
        });
        assert!(clear.contains("\"type\":\"fault_clear\""), "{clear}");
        crate::json::parse(&onset).expect("onset parses");
        crate::json::parse(&clear).expect("clear parses");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
