//! The engine event vocabulary: every "interesting transition" of the
//! simulation's event loop, as a timestamped, copyable value.
//!
//! The vocabulary mirrors what a production runtime exposes through its
//! tracing hooks (JFR events, `-Xlog:gc*`, JVMTI callbacks): mutator
//! slices, the GC trigger decision and its reason, stop-the-world pauses,
//! concurrent cycles, allocation pacing, and the engine's own control
//! decisions (batching fast-forwards, futile-collection streaks,
//! out-of-memory declarations). Timestamps are raw simulated nanoseconds
//! so this crate stays independent of the runtime crate that emits them.

/// Why a collection was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerReason {
    /// Heap occupancy crossed the collector's trigger threshold — the
    /// steady-state reason.
    OccupancyThreshold,
    /// Free space was (nearly) exhausted while concurrent work was still
    /// outstanding; the collector fell back to a degenerate stop-the-world
    /// collection.
    Exhaustion,
    /// The collector's periodic full-collection schedule came due.
    PeriodicFull,
}

impl TriggerReason {
    /// Stable lower-snake label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            TriggerReason::OccupancyThreshold => "occupancy_threshold",
            TriggerReason::Exhaustion => "exhaustion",
            TriggerReason::PeriodicFull => "periodic_full",
        }
    }
}

/// The kind of stop-the-world pause (the observer-side mirror of the
/// runtime's `CollectionKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PauseKind {
    /// A young/normal generational collection.
    Young,
    /// A full collection over the whole heap.
    Full,
    /// The short init/final-mark pause bracketing a concurrent cycle.
    ConcurrentMark,
    /// A degenerate collection: the concurrent collector's STW fallback.
    Degenerate,
}

impl PauseKind {
    /// Stable lower-snake label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            PauseKind::Young => "young",
            PauseKind::Full => "full",
            PauseKind::ConcurrentMark => "concurrent_mark",
            PauseKind::Degenerate => "degenerate",
        }
    }

    /// Span name used on the stop-the-world trace track.
    pub fn span_name(self) -> &'static str {
        match self {
            PauseKind::Young => "Pause Young",
            PauseKind::Full => "Pause Full",
            PauseKind::ConcurrentMark => "Pause Init/Final Mark",
            PauseKind::Degenerate => "Pause Degenerated GC",
        }
    }
}

/// The kind of injected fault (the observer-side mirror of the fault
/// plane's `FaultKind`, without magnitudes — those travel on the event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Allocation-rate spike.
    AllocSpike,
    /// Transient heap-capacity squeeze.
    HeapSqueeze,
    /// GC-thread slowdown.
    GcSlowdown,
    /// Scheduled pacing-stall storm.
    StallStorm,
    /// Forced degenerate collections.
    ForceDegenerate,
}

impl FaultKind {
    /// Every kind, in bit order (matches the fault plane's mask layout).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::AllocSpike,
        FaultKind::HeapSqueeze,
        FaultKind::GcSlowdown,
        FaultKind::StallStorm,
        FaultKind::ForceDegenerate,
    ];

    /// Stable lower-snake label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::AllocSpike => "alloc_spike",
            FaultKind::HeapSqueeze => "heap_squeeze",
            FaultKind::GcSlowdown => "gc_slowdown",
            FaultKind::StallStorm => "stall_storm",
            FaultKind::ForceDegenerate => "force_degenerate",
        }
    }

    /// Span name used on the fault trace track.
    pub fn span_name(self) -> &'static str {
        match self {
            FaultKind::AllocSpike => "Fault: Alloc Spike",
            FaultKind::HeapSqueeze => "Fault: Heap Squeeze",
            FaultKind::GcSlowdown => "Fault: GC Slowdown",
            FaultKind::StallStorm => "Fault: Stall Storm",
            FaultKind::ForceDegenerate => "Fault: Forced Degenerate",
        }
    }

    /// The kind's position in per-kind bookkeeping arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::AllocSpike => 0,
            FaultKind::HeapSqueeze => 1,
            FaultKind::GcSlowdown => 2,
            FaultKind::StallStorm => 3,
            FaultKind::ForceDegenerate => 4,
        }
    }
}

/// One engine transition. All timestamps are simulated nanoseconds since
/// the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A mutator slice began (rates are constant until `SliceEnd`).
    SliceBegin {
        /// Slice start time.
        at: u64,
    },
    /// A mutator slice ended.
    SliceEnd {
        /// Slice end time.
        at: u64,
        /// Useful-work progress rate during the slice (CPU-ns of progress
        /// per wall-ns).
        progress_rate: f64,
        /// Mutator throttle factor during the slice (1.0 = unthrottled,
        /// 0.0 = full allocation stall).
        throttle: f64,
    },
    /// The engine decided to start a collection.
    GcTrigger {
        /// Decision time.
        at: u64,
        /// Why the collection fired.
        reason: TriggerReason,
        /// Occupied heap bytes at the decision.
        occupied_bytes: f64,
        /// Heap capacity in bytes.
        capacity_bytes: f64,
    },
    /// A stop-the-world pause began.
    PauseBegin {
        /// Pause start time.
        at: u64,
        /// Kind of pause.
        kind: PauseKind,
    },
    /// A stop-the-world pause ended.
    PauseEnd {
        /// Pause end time.
        at: u64,
        /// Kind of pause (matches the preceding `PauseBegin`).
        kind: PauseKind,
        /// CPU nanoseconds burned by GC threads during the pause.
        gc_cpu_ns: f64,
    },
    /// A concurrent collection cycle began (Shenandoah/ZGC, G1 marking).
    ConcurrentBegin {
        /// Cycle start time.
        at: u64,
        /// CPU nanoseconds of concurrent work the cycle was planned with.
        work_cpu_ns: f64,
    },
    /// A concurrent collection cycle completed.
    ConcurrentEnd {
        /// Cycle completion time.
        at: u64,
        /// Bytes allocated during the cycle that survive as floating
        /// garbage until the next cycle.
        floated_bytes: f64,
    },
    /// Allocation pacing engaged: the mutator was slowed (or stalled, when
    /// `throttle` is 0) so an in-flight concurrent cycle can finish.
    ThrottleOnset {
        /// Onset time.
        at: u64,
        /// The throttle factor applied (1.0 = none, 0.0 = hard stall).
        throttle: f64,
    },
    /// Allocation pacing released: the mutator runs unthrottled again.
    ThrottleRelease {
        /// Release time.
        at: u64,
    },
    /// The engine fast-forwarded by replaying whole steady-state periods
    /// of collections (the batching optimisation for GC-thrash regimes).
    BatchFastForward {
        /// Start of the fast-forwarded region.
        at: u64,
        /// End of the fast-forwarded region.
        end: u64,
        /// Collections folded into the batch.
        cycles: u64,
        /// Mean wall nanoseconds of the folded pauses: a batch folds whole
        /// periods of young and full pauses.
        pause_wall_each_ns: u64,
    },
    /// A collection completed without reclaiming usable space.
    FutileCollection {
        /// Detection time.
        at: u64,
        /// Consecutive futile collections so far.
        streak: u32,
    },
    /// The run was declared out of memory.
    OomDeclared {
        /// Declaration time.
        at: u64,
        /// Live heap bytes at failure.
        live_bytes: f64,
        /// Heap capacity in bytes.
        capacity_bytes: f64,
    },
    /// An injected fault window opened (fault plane).
    FaultOnset {
        /// Onset time.
        at: u64,
        /// The kind of fault that engaged.
        kind: FaultKind,
        /// The fault's magnitude (combined over overlapping windows):
        /// spike/slowdown factor, squeeze capacity fraction remaining, or
        /// stall throttle cap; 1.0 for forced-degenerate.
        magnitude: f64,
    },
    /// An injected fault window closed.
    FaultClear {
        /// Clear time.
        at: u64,
        /// The kind of fault that cleared (matches the preceding
        /// `FaultOnset`).
        kind: FaultKind,
    },
}

impl Event {
    /// The event's timestamp (for interval events, the start).
    pub fn at(&self) -> u64 {
        match *self {
            Event::SliceBegin { at }
            | Event::SliceEnd { at, .. }
            | Event::GcTrigger { at, .. }
            | Event::PauseBegin { at, .. }
            | Event::PauseEnd { at, .. }
            | Event::ConcurrentBegin { at, .. }
            | Event::ConcurrentEnd { at, .. }
            | Event::ThrottleOnset { at, .. }
            | Event::ThrottleRelease { at }
            | Event::BatchFastForward { at, .. }
            | Event::FutileCollection { at, .. }
            | Event::OomDeclared { at, .. }
            | Event::FaultOnset { at, .. }
            | Event::FaultClear { at, .. } => at,
        }
    }

    /// Stable lower-snake event-type label used in JSONL exports.
    pub fn type_label(&self) -> &'static str {
        match self {
            Event::SliceBegin { .. } => "slice_begin",
            Event::SliceEnd { .. } => "slice_end",
            Event::GcTrigger { .. } => "gc_trigger",
            Event::PauseBegin { .. } => "pause_begin",
            Event::PauseEnd { .. } => "pause_end",
            Event::ConcurrentBegin { .. } => "concurrent_begin",
            Event::ConcurrentEnd { .. } => "concurrent_end",
            Event::ThrottleOnset { .. } => "throttle_onset",
            Event::ThrottleRelease { .. } => "throttle_release",
            Event::BatchFastForward { .. } => "batch_fast_forward",
            Event::FutileCollection { .. } => "futile_collection",
            Event::OomDeclared { .. } => "oom_declared",
            Event::FaultOnset { .. } => "fault_onset",
            Event::FaultClear { .. } => "fault_clear",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_extracted() {
        assert_eq!(Event::SliceBegin { at: 7 }.at(), 7);
        assert_eq!(
            Event::BatchFastForward {
                at: 3,
                end: 9,
                cycles: 2,
                pause_wall_each_ns: 1,
            }
            .at(),
            3
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TriggerReason::Exhaustion.label(), "exhaustion");
        assert_eq!(PauseKind::Young.label(), "young");
        assert_eq!(PauseKind::Degenerate.span_name(), "Pause Degenerated GC");
        assert_eq!(
            Event::ThrottleRelease { at: 0 }.type_label(),
            "throttle_release"
        );
        assert_eq!(FaultKind::StallStorm.label(), "stall_storm");
        assert_eq!(FaultKind::HeapSqueeze.span_name(), "Fault: Heap Squeeze");
    }

    #[test]
    fn fault_events_carry_timestamps_and_labels() {
        let onset = Event::FaultOnset {
            at: 42,
            kind: FaultKind::AllocSpike,
            magnitude: 4.0,
        };
        assert_eq!(onset.at(), 42);
        assert_eq!(onset.type_label(), "fault_onset");
        let clear = Event::FaultClear {
            at: 99,
            kind: FaultKind::AllocSpike,
        };
        assert_eq!(clear.at(), 99);
        assert_eq!(clear.type_label(), "fault_clear");
    }

    #[test]
    fn fault_kind_indices_match_bit_order() {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }
}
