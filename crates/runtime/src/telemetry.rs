//! Run telemetry: pause records, post-GC heap trace and clock accounting.
//!
//! This is the simulation's analog of the paper's measurement
//! infrastructure: JVMTI stop-the-world capture (used by the LBO
//! methodology, §6.2), Linux `perf` `TASK_CLOCK` (total CPU time across all
//! threads, Figure 1(b)), and the GC logs behind the appendix's post-GC
//! heap-size graphs.
//!
//! # Aggregates and detail
//!
//! The aggregates — counters, CPU clocks, byte-seconds and the pause
//! histogram — are exact for every run, including the periods the engine
//! replays in batches ([`Telemetry::record_replayed_pauses`]). The detail —
//! pause records, heap samples, pacing and fault intervals — covers the
//! collections the engine stepped through, up to a cap per kind of record.

use crate::collector::CollectionKind;
use crate::time::{SimDuration, SimTime};
use chopin_faults::FaultKind;
use chopin_obs::LogHistogram;

/// Individual pause records kept (the pause histogram stays exact
/// regardless).
const PAUSE_RECORD_CAP: usize = 200_000;

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
    /// The stop-the-world pauses the engine stepped through, in time order
    /// (kept up to a cap; [`Telemetry::pause_histogram`] holds every pause).
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
    /// Injected-fault intervals, in onset order (empty on clean runs; kept
    /// up to the fault plane's window cap).
    pub fault_intervals: Vec<FaultInterval>,
    /// Number of fault intervals that engaged (exact even past the cap).
    pub faults_injected: u64,
    /// How often [`Telemetry::heap_trace`] has been halved to stay under
    /// its cap.
    heap_trace_halvings: u32,
    /// Every pause's wall nanoseconds, stepped or replayed.
    pause_histogram: LogHistogram,
}

impl Telemetry {
    /// A fresh, empty telemetry sink.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Record a stop-the-world pause the engine stepped through. Its record
    /// is kept up to a cap of 200,000; the aggregates count it regardless.
    pub fn record_pause(&mut self, pause: PauseRecord) {
        self.gc_stw_cpu_ns += pause.gc_cpu_ns;
        if pause.kind == CollectionKind::Degenerate {
            self.degenerate_count += 1;
        }
        self.pause_histogram.record(pause.duration.as_nanos());
        if self.pauses.len() < PAUSE_RECORD_CAP {
            self.pauses.push(pause);
        }
    }

    /// Record `k` replays of one period's pauses, given as the kind and
    /// wall time of each, together with the STW CPU the replays burned:
    /// the aggregates count every replayed pause, and no record is kept.
    pub fn record_replayed_pauses(
        &mut self,
        period: &[(CollectionKind, SimDuration)],
        k: u64,
        stw_cpu_ns: f64,
    ) {
        self.gc_stw_cpu_ns += stw_cpu_ns;
        for &(kind, duration) in period {
            if kind == CollectionKind::Degenerate {
                self.degenerate_count += k;
            }
            self.pause_histogram.record_n(duration.as_nanos(), k);
        }
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

    /// Every pause's wall nanoseconds, replayed pauses included: exact
    /// count, sum and maximum, log-bucketed quantiles — the pause source
    /// for latency and LBO analysis.
    pub fn pause_histogram(&self) -> &LogHistogram {
        &self.pause_histogram
    }

    /// Total wall-clock time spent in stop-the-world pauses — the quantity
    /// JVMTI exposes and LBO subtracts from wall time.
    pub fn total_pause_wall(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.pause_histogram.sum()).unwrap_or(u64::MAX))
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
        (self.pause_histogram.count() > 0)
            .then(|| SimDuration::from_nanos(self.pause_histogram.max()))
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
        // Three replays of a period holding a young and a degenerate pause.
        let period = [
            (CollectionKind::Young, SimDuration::from_nanos(1_000_001)),
            (CollectionKind::Degenerate, SimDuration::from_millis(9)),
        ];
        t.record_replayed_pauses(&period, 3, 6e6);
        let h = t.pause_histogram();
        assert_eq!(h.count(), 8);
        assert_eq!(t.pauses.len(), 2, "replayed pauses keep no record");
        assert_eq!(t.total_pause_wall(), SimDuration::from_nanos(39_000_003));
        assert_eq!(t.max_pause(), Some(SimDuration::from_millis(9)));
        assert_eq!(t.degenerate_count, 3);
        assert_eq!(t.gc_stw_cpu_ns, 15e6);
    }

    #[test]
    fn pause_records_are_capped_but_the_histogram_counts_every_pause() {
        let mut t = Telemetry::new();
        for _ in 0..PAUSE_RECORD_CAP + 3 {
            t.record_pause(pause(1, CollectionKind::Young));
        }
        assert_eq!(t.pauses.len(), PAUSE_RECORD_CAP);
        assert_eq!(t.pause_histogram().count(), PAUSE_RECORD_CAP as u64 + 3);
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
