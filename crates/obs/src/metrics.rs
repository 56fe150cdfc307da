//! The metrics registry: counters, gauges, and log-bucketed histograms
//! with quantile accessors.
//!
//! Experiments that used to re-scan `Vec<PauseRecord>` for every
//! percentile can instead fold pauses into a [`LogHistogram`] once and ask
//! it for p50/p90/p99/p99.9 directly. The histogram keeps exact count,
//! sum and max alongside its buckets, so totals never suffer bucketing
//! error — only the interpolated quantiles do, bounded by bucket width.

use crate::event::Event;
use crate::observer::Observer;
use crate::recorder::{json_num, json_str};
use std::collections::BTreeMap;

/// The `sandbox.*` metric vocabulary the process-isolation layer emits
/// into a [`MetricsRegistry`]. The registry is string-keyed, so these
/// constants exist to keep the emitting side (the harness sandbox
/// runner) and the consuming side (reports, dashboards, tests) spelling
/// the names identically.
pub mod sandbox_metrics {
    /// Counter: worker children spawned.
    pub const SPAWNS: &str = "sandbox.spawns";
    /// Counter: children killed by the wall-clock deadline watchdog.
    pub const KILLS_DEADLINE: &str = "sandbox.kills.deadline";
    /// Counter: children killed after going silent past the heartbeat
    /// budget.
    pub const KILLS_HEARTBEAT: &str = "sandbox.kills.heartbeat";
    /// Counter: children that died to a signal they did not survive
    /// (SIGSEGV, SIGABRT, SIGKILL, ...).
    pub const SIGNALLED: &str = "sandbox.exits.signalled";
    /// Counter: children OOM-killed by the RLIMIT_AS backstop.
    pub const OOM_KILLED: &str = "sandbox.oom_killed";
    /// Counter: heartbeats received across all children.
    pub const HEARTBEATS: &str = "sandbox.heartbeats";
    /// Histogram: observed gap between child spawn and its last
    /// heartbeat, in nanoseconds.
    pub const HEARTBEAT_GAP_NS: &str = "sandbox.heartbeat_gap_ns";
    /// Gauge: largest per-cell peak RSS observed, in bytes.
    pub const PEAK_RSS_MAX_BYTES: &str = "sandbox.peak_rss.max_bytes";
}

/// The `fleet.*` metric vocabulary the coordinator/worker sharding layer
/// emits into a [`MetricsRegistry`] — same contract as
/// [`sandbox_metrics`]: one spelling, shared by the emitting transport
/// (`chopin_harness::fleet`) and every consumer.
pub mod fleet_metrics {
    /// Counter: worker processes spawned (including storm respawns).
    pub const WORKERS_SPAWNED: &str = "fleet.workers.spawned";
    /// Counter: worker deaths observed (EOF, reaped signal, lost beat).
    pub const WORKER_DEATHS: &str = "fleet.workers.deaths";
    /// Counter: worker slots quarantined after repeated crashes.
    pub const WORKERS_QUARANTINED: &str = "fleet.workers.quarantined";
    /// Counter: leases issued (first grants, re-leases and steals).
    pub const LEASES_ISSUED: &str = "fleet.leases.issued";
    /// Counter: leases that outlived their deadline and were reassigned.
    pub const LEASES_EXPIRED: &str = "fleet.leases.expired";
    /// Counter: duplicate leases granted on straggler cells.
    pub const LEASES_STOLEN: &str = "fleet.leases.stolen";
    /// Counter: cells requeued with backoff after a failure or death.
    pub const CELLS_REQUEUED: &str = "fleet.cells.requeued";
    /// Counter: duplicate completions resolved by the deterministic
    /// `(attempt, worker)` merge tiebreak.
    pub const MERGE_CONFLICTS: &str = "fleet.merge.conflicts";
    /// Counter: cells recovered from per-worker journals on resume.
    pub const CELLS_RECOVERED: &str = "fleet.cells.recovered";
    /// Counter: sibling worker journals rejected on resume because they
    /// carry a foreign sweep fingerprint (stale shards from another
    /// configuration sharing the journal base).
    pub const SHARDS_REJECTED: &str = "fleet.shards.rejected";
    /// Counter: outbound frames dropped by the seeded net-fault shim.
    pub const NET_DROPPED: &str = "fleet.net.dropped";
    /// Counter: outbound frames delayed by the seeded net-fault shim.
    pub const NET_DELAYED: &str = "fleet.net.delayed";
    /// Counter: outbound frames duplicated by the seeded net-fault shim.
    pub const NET_DUPLICATED: &str = "fleet.net.duplicated";
    /// Counter: frames (either direction) swallowed by a partition window.
    pub const NET_PARTITIONED: &str = "fleet.net.partitioned";
    /// Counter: connections refused at admission (auth token mismatch).
    pub const AUTH_REJECTED: &str = "fleet.auth.rejected";
    /// Counter: completions fenced for echoing a stale coordinator nonce.
    pub const STALE_FENCED: &str = "fleet.stale.fenced";
    /// Counter: reaped workers revived by a successful re-admission.
    pub const WORKERS_REVIVED: &str = "fleet.workers.revived";
    /// Counter: coordinator hand-offs completed by a standby.
    pub const TAKEOVERS: &str = "fleet.takeovers";
}

/// A histogram over `u64` values (nanoseconds, by convention) with
/// logarithmically spaced buckets and exact count/sum/max side-channels.
///
/// # Examples
///
/// ```
/// use chopin_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for ns in [1_000_000, 2_000_000, 40_000_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 40_000_000);
/// assert!(h.p50() >= 1_000_000 && h.p50() <= 4_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    // Strictly increasing upper bounds; values <= bounds[i] land in bucket
    // i, values above the last bound land in the overflow bucket.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Default bucket bounds for pause durations: powers of two from 1 µs to
/// beyond 100 s, so everything from sub-millisecond young pauses to
/// multi-second degenerate collections lands in a distinct bucket.
pub fn default_pause_bounds() -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut b: u64 = 1_000; // 1 µs
    while b < 200_000_000_000 {
        bounds.push(b);
        b *= 2;
    }
    bounds
}

impl LogHistogram {
    /// A histogram with the [`default_pause_bounds`].
    pub fn new() -> LogHistogram {
        LogHistogram::with_bounds(&default_pause_bounds())
    }

    /// A histogram with explicit upper bounds. Bounds are sorted and
    /// deduplicated; an empty slice yields a single overflow bucket.
    pub fn with_bounds(bounds: &[u64]) -> LogHistogram {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = bounds.len() + 1;
        LogHistogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value` (used to fold the engine's
    /// batched pauses at their mean duration).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bucket_index(value);
        self.counts[idx] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.max = self.max.max(value);
    }

    fn bucket_index(&self, value: u64) -> usize {
        self.bounds.partition_point(|&b| b < value)
    }

    /// Exact number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated within the
    /// containing bucket and clamped to the exact maximum. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(self.max);
                let hi = hi.max(lo);
                // Position of the requested rank within this bucket.
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est as u64).min(self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median (interpolated).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (interpolated).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (interpolated).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (interpolated).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// (upper bound, count) for each non-empty bucket; the overflow bucket
    /// reports the exact maximum as its bound.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bounds.get(i).copied().unwrap_or(self.max), c))
            .collect()
    }
}

/// Format nanoseconds for humans (µs/ms/s above the right thresholds).
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A registry of named counters, gauges and histograms.
///
/// # Examples
///
/// ```
/// use chopin_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("gc.count", 1);
/// m.set_gauge("throttle", 0.25);
/// m.observe("pause_ns", 2_000_000);
/// assert_eq!(m.counter("gc.count"), 1);
/// assert_eq!(m.histogram("pause_ns").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to a counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_default() += by;
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to a value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a value into a named histogram (created with default pause
    /// bounds on first use).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Record `n` occurrences of `value` into a named histogram.
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record_n(value, n);
    }

    /// Access a named histogram (created empty if absent).
    pub fn histogram(&mut self, name: &str) -> &LogHistogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Look up a histogram without creating it.
    pub fn get_histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Counter names in order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Render a human-readable table of everything in the registry.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter  {name:<32} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge    {name:<32} {value:.4}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist     {name:<32} count={} p50={} p90={} p99={} p99.9={} max={}\n",
                h.count(),
                format_ns(h.p50()),
                format_ns(h.p90()),
                format_ns(h.p99()),
                format_ns(h.p999()),
                format_ns(h.max()),
            ));
        }
        out
    }

    /// Render the registry as a single JSON object (counters and gauges
    /// verbatim; histograms as their summary statistics).
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        parts.push(format!("\"counters\":{{{}}}", counters.join(",")));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
            .collect();
        parts.push(format!("\"gauges\":{{{}}}", gauges.join(",")));
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "{}:{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\
                     \"p99\":{},\"p999\":{}}}",
                    json_str(k),
                    h.count(),
                    h.sum(),
                    h.max(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999()
                )
            })
            .collect();
        parts.push(format!("\"histograms\":{{{}}}", hists.join(",")));
        format!("{{{}}}", parts.join(","))
    }
}

/// An [`Observer`] that folds the event stream into a [`MetricsRegistry`]
/// as it arrives: pause durations into the `pause_ns` histogram, trigger
/// reasons and pause kinds into counters, pacing into throttled-wall
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    open_pause: Option<u64>,
    open_concurrent: Option<u64>,
    open_throttle: Option<u64>,
    // Onset time of each open fault window, indexed by FaultKind::index().
    open_faults: [Option<u64>; 5],
}

impl MetricsObserver {
    /// An observer over an empty registry.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consume the observer, yielding its registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl Observer for MetricsObserver {
    fn record(&mut self, event: Event) {
        let m = &mut self.registry;
        match event {
            Event::SliceBegin { .. } => m.inc("engine.slices", 1),
            Event::SliceEnd { throttle, .. } => m.set_gauge("engine.throttle", throttle),
            Event::GcTrigger { reason, .. } => {
                m.inc("gc.trigger", 1);
                m.inc(&format!("gc.trigger.{}", reason.label()), 1);
            }
            Event::PauseBegin { at, .. } => self.open_pause = Some(at),
            Event::PauseEnd { at, kind, .. } => {
                m.inc("gc.pauses", 1);
                m.inc(&format!("gc.pauses.{}", kind.label()), 1);
                if let Some(begin) = self.open_pause.take() {
                    m.observe("pause_ns", at.saturating_sub(begin));
                }
            }
            Event::ConcurrentBegin { at, .. } => {
                m.inc("gc.concurrent_cycles", 1);
                self.open_concurrent = Some(at);
            }
            Event::ConcurrentEnd { at, .. } => {
                if let Some(begin) = self.open_concurrent.take() {
                    m.observe("concurrent_cycle_ns", at.saturating_sub(begin));
                }
            }
            Event::ThrottleOnset { at, .. } => {
                m.inc("pacing.intervals", 1);
                self.open_throttle = Some(at);
            }
            Event::ThrottleRelease { at } => {
                if let Some(begin) = self.open_throttle.take() {
                    m.inc("pacing.throttled_wall_ns", at.saturating_sub(begin));
                }
            }
            Event::BatchFastForward {
                cycles,
                pause_wall_each_ns,
                ..
            } => {
                m.inc("gc.batched_cycles", cycles);
                m.observe_n("pause_ns", pause_wall_each_ns, cycles);
            }
            Event::FutileCollection { .. } => m.inc("gc.futile", 1),
            Event::OomDeclared { .. } => m.inc("engine.oom", 1),
            Event::FaultOnset { at, kind, .. } => {
                m.inc("faults.injected", 1);
                m.inc(&format!("faults.injected.{}", kind.label()), 1);
                self.open_faults[kind.index()] = Some(at);
            }
            Event::FaultClear { at, kind } => {
                if let Some(begin) = self.open_faults[kind.index()].take() {
                    m.observe("fault_window_ns", at.saturating_sub(begin));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PauseKind, TriggerReason};

    #[test]
    fn histogram_exact_aggregates() {
        let mut h = LogHistogram::new();
        h.record(1_500);
        h.record_n(3_000, 4);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_500 + 4 * 3_000);
        assert_eq!(h.max(), 3_000);
        assert!((h.mean() - 2_700.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LogHistogram::new();
        for i in 1..=1_000u64 {
            h.record(i * 10_000); // 10µs .. 10ms
        }
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(p999 <= h.max());
        assert!(
            (2_000_000..=8_000_000).contains(&p50),
            "median ~5ms, got {p50}"
        );
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn custom_bounds_are_sorted_and_deduped() {
        let h = LogHistogram::with_bounds(&[100, 10, 100, 1_000]);
        assert_eq!(h.nonzero_buckets(), Vec::new());
        let mut h = h;
        h.record(5);
        h.record(50_000);
        assert_eq!(h.nonzero_buckets(), vec![(10, 1), (50_000, 1)]);
    }

    #[test]
    fn registry_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 2);
        m.inc("a", 3);
        m.set_gauge("g", 1.5);
        m.observe("h", 1_000_000);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.gauge("g"), Some(1.5));
        assert_eq!(m.counter("missing"), 0);
        let table = m.render_table();
        assert!(table.contains("counter  a"));
        assert!(table.contains("p99.9="));
        crate::json::parse(&m.to_json()).expect("registry JSON parses");
    }

    #[test]
    fn metrics_observer_folds_pauses_and_batches() {
        let mut obs = MetricsObserver::new();
        obs.record(Event::GcTrigger {
            at: 0,
            reason: TriggerReason::OccupancyThreshold,
            occupied_bytes: 10.0,
            capacity_bytes: 100.0,
        });
        obs.record(Event::PauseBegin {
            at: 100,
            kind: PauseKind::Young,
        });
        obs.record(Event::PauseEnd {
            at: 2_100,
            kind: PauseKind::Young,
            gc_cpu_ns: 900.0,
        });
        obs.record(Event::BatchFastForward {
            at: 3_000,
            end: 10_000,
            cycles: 5,
            pause_wall_each_ns: 400,
        });
        let m = obs.registry();
        assert_eq!(m.counter("gc.pauses.young"), 1);
        assert_eq!(m.counter("gc.batched_cycles"), 5);
        let h = m.get_histogram("pause_ns").unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2_000 + 5 * 400);
        assert_eq!(h.max(), 2_000);
    }

    #[test]
    fn metrics_observer_counts_fault_windows() {
        use crate::event::FaultKind;
        let mut obs = MetricsObserver::new();
        obs.record(Event::FaultOnset {
            at: 1_000,
            kind: FaultKind::AllocSpike,
            magnitude: 4.0,
        });
        obs.record(Event::FaultOnset {
            at: 2_000,
            kind: FaultKind::StallStorm,
            magnitude: 0.1,
        });
        obs.record(Event::FaultClear {
            at: 5_000,
            kind: FaultKind::AllocSpike,
        });
        obs.record(Event::FaultClear {
            at: 9_000,
            kind: FaultKind::StallStorm,
        });
        let m = obs.registry();
        assert_eq!(m.counter("faults.injected"), 2);
        assert_eq!(m.counter("faults.injected.alloc_spike"), 1);
        assert_eq!(m.counter("faults.injected.stall_storm"), 1);
        let h = m.get_histogram("fault_window_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4_000 + 7_000);
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(500), "500ns");
        assert_eq!(format_ns(1_500), "1.5us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }
}
