//! Run telemetry: pause records, post-GC heap trace and clock accounting.
//!
//! This is the simulation's analog of the paper's measurement
//! infrastructure: JVMTI stop-the-world capture (used by the LBO
//! methodology, §6.2), Linux `perf` `TASK_CLOCK` (total CPU time across all
//! threads, Figure 1(b)), and the GC logs behind the appendix's post-GC
//! heap-size graphs.

use crate::collector::CollectionKind;
use crate::time::{SimDuration, SimTime};
use chopin_faults::FaultKind;
use chopin_obs::LogHistogram;

/// Individual throttle intervals kept before dropping detail (the
/// aggregate [`Telemetry::throttled_wall`] stays exact regardless).
const THROTTLE_INTERVAL_CAP: usize = 10_000;

/// Post-GC heap samples kept: when the trace reaches this length, every
/// other sample is dropped and the sampling stride doubles.
pub(crate) const HEAP_TRACE_CAP: usize = 32_768;

/// Individual fault intervals kept; matches the fault plane's window cap,
/// so every planned window can be recorded ([`Telemetry::faults_injected`]
/// stays exact regardless).
const FAULT_INTERVAL_CAP: usize = chopin_faults::MAX_WINDOWS;

/// One stop-the-world pause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauseRecord {
    /// Wall time at which the pause began.
    pub start: SimTime,
    /// Wall-clock length of the pause.
    pub duration: SimDuration,
    /// CPU nanoseconds consumed by GC threads during the pause.
    pub gc_cpu_ns: f64,
    /// The kind of collection the pause belongs to.
    pub kind: CollectionKind,
}

/// One sample of the post-collection heap size (the appendix's "heap size
/// post each garbage collection" graphs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapSample {
    /// Wall time of the collection's completion.
    pub time: SimTime,
    /// Occupied heap bytes immediately after the collection.
    pub occupied_bytes: f64,
}

/// One contiguous interval during which a pacing collector (Shenandoah,
/// ZGC) slowed or stalled the mutator to protect an in-flight concurrent
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleInterval {
    /// Wall time at which pacing engaged.
    pub start: SimTime,
    /// Wall-clock length of the interval (pauses inside it included).
    pub duration: SimDuration,
    /// The harshest throttle factor applied during the interval
    /// (1.0 = unthrottled, 0.0 = full allocation stall).
    pub min_throttle: f64,
}

impl ThrottleInterval {
    /// Whether the mutator was fully stalled at some point.
    pub fn stalled(&self) -> bool {
        self.min_throttle <= 0.0
    }
}

/// One contiguous interval during which an injected fault of one kind was
/// active (overlapping windows of the same kind merge into one interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInterval {
    /// Wall time at which the fault engaged.
    pub start: SimTime,
    /// Wall-clock length of the interval.
    pub duration: SimDuration,
    /// The kind of fault, carrying the harshest magnitude applied during
    /// the interval.
    pub kind: FaultKind,
}

/// Accumulated telemetry for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Every stop-the-world pause, in time order.
    pub pauses: Vec<PauseRecord>,
    /// Post-GC heap samples, in time order (thinned to a bounded length;
    /// see [`Telemetry::record_heap_sample`]).
    pub heap_trace: Vec<HeapSample>,
    /// CPU nanoseconds burned by mutator threads (includes barrier taxes —
    /// deliberately: those are the hard-to-attribute costs LBO exposes).
    pub mutator_cpu_ns: f64,
    /// CPU nanoseconds burned by GC threads during stop-the-world phases.
    pub gc_stw_cpu_ns: f64,
    /// CPU nanoseconds burned by GC threads running concurrently with the
    /// application.
    pub gc_concurrent_cpu_ns: f64,
    /// Wall-clock time during which allocation was throttled or stalled
    /// (Shenandoah pacing, ZGC allocation stalls).
    pub throttled_wall: SimDuration,
    /// Contiguous pacing intervals, in time order (individual records are
    /// kept up to a cap; [`Telemetry::throttled_wall`] stays exact).
    pub throttle_intervals: Vec<ThrottleInterval>,
    /// Number of collections completed.
    pub gc_count: u64,
    /// Number of degenerate (fallback full STW) collections.
    pub degenerate_count: u64,
    /// Integral of heap occupancy over wall time, in byte-seconds — the
    /// "area under the memory use curve" §4.2 suggests as a better net
    /// footprint metric than the `-Xmx` bound ("the minimum heap size in
    /// which a workload can run reflects the workload's peak memory usage,
    /// not its average usage").
    pub heap_byte_seconds: f64,
    /// Aggregate wall time of pauses folded into batches when the engine
    /// replays steady-state periods of a GC-thrash regime (individual
    /// records are only kept below a cap; totals stay exact).
    pub batched_pause_wall: SimDuration,
    /// Number of pauses folded into [`Telemetry::batched_pause_wall`].
    pub batched_pause_count: u64,
    /// Injected-fault intervals, in onset order (empty on clean runs; kept
    /// up to the fault plane's window cap).
    pub fault_intervals: Vec<FaultInterval>,
    /// Number of fault intervals that engaged (exact even past the cap).
    pub faults_injected: u64,
    /// How often [`Telemetry::heap_trace`] has been halved to stay under
    /// its cap.
    heap_trace_halvings: u32,
}

impl Telemetry {
    /// A fresh, empty telemetry sink.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Record a stop-the-world pause.
    pub fn record_pause(&mut self, pause: PauseRecord) {
        self.gc_stw_cpu_ns += pause.gc_cpu_ns;
        if pause.kind == CollectionKind::Degenerate {
            self.degenerate_count += 1;
        }
        self.pauses.push(pause);
    }

    /// Count a completed collection and sample the heap state after it.
    /// Every collection whose number is a multiple of the sampling stride
    /// is kept; when the trace reaches its cap (32,768 samples), every
    /// other sample is dropped and the stride doubles, so a run of any
    /// length keeps a bounded, evenly thinned trace.
    pub fn record_heap_sample(&mut self, time: SimTime, occupied_bytes: f64) {
        self.gc_count += 1;
        if !self.gc_count.is_multiple_of(1 << self.heap_trace_halvings) {
            return;
        }
        self.heap_trace.push(HeapSample {
            time,
            occupied_bytes,
        });
        if self.heap_trace.len() >= HEAP_TRACE_CAP {
            self.heap_trace_halvings += 1;
            let kept: Vec<_> = self.heap_trace.iter().step_by(2).copied().collect();
            self.heap_trace = kept;
        }
    }

    /// Record `count` pauses in aggregate form: their total wall time and
    /// STW CPU (the engine's batches, and pauses past the record cap).
    /// CPU and wall totals stay exact; only the individual records are
    /// elided.
    pub fn record_batched_pauses(&mut self, count: u64, wall: SimDuration, gc_cpu_ns: f64) {
        self.batched_pause_count += count;
        self.batched_pause_wall += wall;
        self.gc_stw_cpu_ns += gc_cpu_ns;
    }

    /// Record one contiguous pacing interval (dropped past the cap; the
    /// aggregate counters are the source of truth for totals).
    pub fn record_throttle_interval(&mut self, interval: ThrottleInterval) {
        if self.throttle_intervals.len() < THROTTLE_INTERVAL_CAP {
            self.throttle_intervals.push(interval);
        }
    }

    /// Record one injected-fault interval (dropped past the cap;
    /// [`Telemetry::faults_injected`] stays exact).
    pub fn record_fault_interval(&mut self, interval: FaultInterval) {
        self.faults_injected += 1;
        if self.fault_intervals.len() < FAULT_INTERVAL_CAP {
            self.fault_intervals.push(interval);
        }
    }

    /// Fold every pause into a log-bucketed [`LogHistogram`] with exact
    /// count and sum side-channels — the quantile source for latency and
    /// LBO analysis, replacing repeated scans over [`Telemetry::pauses`].
    ///
    /// Batched pauses (from the engine's batches through thrash regimes)
    /// enter at their aggregate mean duration, split across two adjacent
    /// values so the histogram's count and sum match
    /// [`Telemetry::batched_pause_count`] and
    /// [`Telemetry::total_pause_wall`] exactly. A batch folds whole
    /// periods of young and full pauses, so the spread between them is
    /// elided.
    pub fn pause_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for p in &self.pauses {
            h.record(p.duration.as_nanos());
        }
        let count = self.batched_pause_count;
        let wall = self.batched_pause_wall.as_nanos();
        if let Some(mean) = wall.checked_div(count) {
            let rem = wall - mean * count; // rem < count
            h.record_n(mean, count - rem);
            h.record_n(mean + 1, rem);
        }
        h
    }

    /// Total wall-clock time spent in stop-the-world pauses — the quantity
    /// JVMTI exposes and LBO subtracts from wall time. Includes batched
    /// pauses.
    pub fn total_pause_wall(&self) -> SimDuration {
        self.pauses.iter().map(|p| p.duration).sum::<SimDuration>() + self.batched_pause_wall
    }

    /// Total CPU time across all threads — the simulation's `TASK_CLOCK`.
    pub fn task_clock_ns(&self) -> f64 {
        self.mutator_cpu_ns + self.gc_stw_cpu_ns + self.gc_concurrent_cpu_ns
    }

    /// Total GC CPU (STW + concurrent).
    pub fn gc_cpu_ns(&self) -> f64 {
        self.gc_stw_cpu_ns + self.gc_concurrent_cpu_ns
    }

    /// The longest single pause, if any pause occurred.
    pub fn max_pause(&self) -> Option<SimDuration> {
        self.pauses.iter().map(|p| p.duration).max()
    }

    /// Average heap occupancy over a run of `wall` seconds, in bytes —
    /// [`Telemetry::heap_byte_seconds`] divided by the wall time.
    pub fn average_occupancy_bytes(&self, wall: SimDuration) -> f64 {
        let w = wall.as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.heap_byte_seconds / w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pause(ms: u64, kind: CollectionKind) -> PauseRecord {
        PauseRecord {
            start: SimTime::ZERO,
            duration: SimDuration::from_millis(ms),
            gc_cpu_ns: (ms * 1_000_000) as f64,
            kind,
        }
    }

    #[test]
    fn pause_accounting_sums() {
        let mut t = Telemetry::new();
        t.record_pause(pause(2, CollectionKind::Young));
        t.record_pause(pause(3, CollectionKind::Full));
        assert_eq!(t.total_pause_wall(), SimDuration::from_millis(5));
        assert_eq!(t.gc_stw_cpu_ns, 5e6);
        assert_eq!(t.max_pause(), Some(SimDuration::from_millis(3)));
        assert_eq!(t.degenerate_count, 0);
    }

    #[test]
    fn degenerate_pauses_are_counted() {
        let mut t = Telemetry::new();
        t.record_pause(pause(10, CollectionKind::Degenerate));
        assert_eq!(t.degenerate_count, 1);
    }

    #[test]
    fn task_clock_sums_all_thread_time() {
        let mut t = Telemetry::new();
        t.mutator_cpu_ns = 100.0;
        t.gc_stw_cpu_ns = 20.0;
        t.gc_concurrent_cpu_ns = 30.0;
        assert_eq!(t.task_clock_ns(), 150.0);
        assert_eq!(t.gc_cpu_ns(), 50.0);
    }

    #[test]
    fn heap_samples_increment_gc_count() {
        let mut t = Telemetry::new();
        t.record_heap_sample(SimTime::from_nanos(10), 1000.0);
        t.record_heap_sample(SimTime::from_nanos(20), 800.0);
        assert_eq!(t.gc_count, 2);
        assert_eq!(t.heap_trace.len(), 2);
    }

    #[test]
    fn heap_trace_halves_at_its_cap_and_thins_later_samples() {
        let mut t = Telemetry::new();
        let n = (HEAP_TRACE_CAP + HEAP_TRACE_CAP / 2) as u64;
        for i in 1..=n {
            t.record_heap_sample(SimTime::from_nanos(i), i as f64);
        }
        assert_eq!(t.gc_count, n);
        assert!(t.heap_trace.len() < HEAP_TRACE_CAP);
        assert!(t.heap_trace.windows(2).all(|w| w[0].time < w[1].time));
        // Past the first halving only every other collection is sampled.
        let tail = &t.heap_trace[t.heap_trace.len() - 2..];
        assert_eq!(tail[1].time.as_nanos() - tail[0].time.as_nanos(), 2);
    }

    #[test]
    fn empty_telemetry_has_no_max_pause() {
        assert_eq!(Telemetry::new().max_pause(), None);
    }

    #[test]
    fn pause_histogram_matches_exact_aggregates() {
        let mut t = Telemetry::new();
        t.record_pause(pause(2, CollectionKind::Young));
        t.record_pause(pause(7, CollectionKind::Full));
        // Two batches with different per-pause durations: the combined
        // mean does not divide evenly, exercising the remainder split.
        t.record_batched_pauses(2, SimDuration::from_nanos(2_000_002), 0.0);
        t.record_batched_pauses(1, SimDuration::from_nanos(3_000_000), 0.0);
        let h = t.pause_histogram();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), u128::from(t.total_pause_wall().as_nanos()));
        assert_eq!(h.max(), 7_000_000);
    }

    #[test]
    fn throttle_intervals_are_capped() {
        let mut t = Telemetry::new();
        for i in 0..(super::THROTTLE_INTERVAL_CAP + 10) {
            t.record_throttle_interval(ThrottleInterval {
                start: SimTime::from_nanos(i as u64),
                duration: SimDuration::from_nanos(1),
                min_throttle: 0.5,
            });
        }
        assert_eq!(t.throttle_intervals.len(), super::THROTTLE_INTERVAL_CAP);
        assert!(!t.throttle_intervals[0].stalled());
    }

    #[test]
    fn fault_intervals_count_exactly_and_cap_records() {
        let mut t = Telemetry::new();
        for i in 0..(super::FAULT_INTERVAL_CAP + 5) {
            t.record_fault_interval(FaultInterval {
                start: SimTime::from_nanos(i as u64),
                duration: SimDuration::from_nanos(10),
                kind: FaultKind::AllocSpike { factor: 2.0 },
            });
        }
        assert_eq!(t.faults_injected, (super::FAULT_INTERVAL_CAP + 5) as u64);
        assert_eq!(t.fault_intervals.len(), super::FAULT_INTERVAL_CAP);
    }

    #[test]
    fn clean_telemetry_has_no_faults() {
        let t = Telemetry::new();
        assert_eq!(t.faults_injected, 0);
        assert!(t.fault_intervals.is_empty());
    }

    #[test]
    fn average_occupancy_is_area_over_time() {
        let mut t = Telemetry::new();
        t.heap_byte_seconds = 100.0; // e.g. 50 bytes held for 2 seconds
        assert_eq!(t.average_occupancy_bytes(SimDuration::from_secs(2)), 50.0);
        assert_eq!(t.average_occupancy_bytes(SimDuration::ZERO), 0.0);
    }
}
