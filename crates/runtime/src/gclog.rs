//! GC-log rendering: a human-readable, OpenJDK-unified-logging-style view
//! of a run's collection telemetry.
//!
//! §6.3 resolves the Shenandoah/h2 puzzle partly "by reviewing
//! Shenandoah's GC log" — the log is a first-class diagnostic artifact of
//! a managed runtime, so the simulation provides one too. Lines follow the
//! shape of OpenJDK's `-Xlog:gc` output:
//!
//! ```text
//! [0.312s][info][gc] GC(3) Pause Young (Normal) 23.1M->8.4M 1.204ms
//! [0.319s][info][gc] GC(4) Concurrent Cycle completed, heap 41.0M
//! ```

use crate::collector::CollectionKind;
use crate::result::RunResult;
use crate::telemetry::{FaultInterval, HeapSample, PauseRecord, ThrottleInterval};
use crate::time::SimDuration;
use std::fmt::Write as _;

/// Render the run's GC log.
///
/// Pause records and post-collection heap samples are merged in time
/// order. Runs that fast-forwarded through GC-thrash regimes note the
/// pauses without a record (replayed, or past the record cap; see the
/// engine docs) at the end.
///
/// # Examples
///
/// ```
/// use chopin_runtime::collector::CollectorKind;
/// use chopin_runtime::config::RunConfig;
/// use chopin_runtime::engine::run;
/// use chopin_runtime::gclog::render_gc_log;
/// use chopin_runtime::spec::MutatorSpec;
/// use chopin_runtime::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = MutatorSpec::builder("demo")
///     .total_work(SimDuration::from_millis(50))
///     .total_allocation(256 << 20)
///     .live_range(8 << 20, 16 << 20)
///     .build()?;
/// let result = run(&spec, &RunConfig::new(48 << 20, CollectorKind::G1))?;
/// let log = render_gc_log(&result);
/// assert!(log.contains("Pause Young"));
/// assert!(log.lines().count() > 2);
/// # Ok(())
/// # }
/// ```
pub fn render_gc_log(result: &RunResult) -> String {
    let telemetry = result.telemetry();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[0.000s][info][gc] Using {} ({} hardware threads, {} heap)",
        result.config().collector(),
        result.config().machine().hardware_threads(),
        format_bytes(result.config().heap_bytes() as f64),
    );

    // Merge pauses, heap samples, pacing and fault intervals by time.
    enum Event<'a> {
        Pause(&'a PauseRecord),
        Heap(&'a HeapSample),
        Throttle(&'a ThrottleInterval),
        Fault(&'a FaultInterval),
    }
    let mut events: Vec<(u64, Event)> = telemetry
        .pauses
        .iter()
        .map(|p| (p.start.as_nanos(), Event::Pause(p)))
        .chain(
            telemetry
                .heap_trace
                .iter()
                .map(|h| (h.time.as_nanos(), Event::Heap(h))),
        )
        .chain(
            telemetry
                .throttle_intervals
                .iter()
                .map(|t| (t.start.as_nanos(), Event::Throttle(t))),
        )
        .chain(
            telemetry
                .fault_intervals
                .iter()
                .map(|f| (f.start.as_nanos(), Event::Fault(f))),
        )
        .collect();
    events.sort_by_key(|(t, _)| *t);

    let mut gc_id = 0usize;
    for (_, event) in events {
        match event {
            Event::Pause(p) => {
                let _ = writeln!(
                    out,
                    "[{:.3}s][info][gc] GC({gc_id}) {} {:.3}ms (gc cpu {:.3}ms)",
                    p.start.as_secs_f64(),
                    pause_name(p.kind),
                    p.duration.as_millis_f64(),
                    p.gc_cpu_ns / 1e6,
                );
                gc_id += 1;
            }
            Event::Heap(h) => {
                let _ = writeln!(
                    out,
                    "[{:.3}s][info][gc,heap] post-collection occupancy {}",
                    h.time.as_secs_f64(),
                    format_bytes(h.occupied_bytes),
                );
            }
            Event::Throttle(t) => {
                // OpenJDK prints pacing via `-Xlog:gc+ergo` ("Pacer for
                // ..."), and allocation stalls as their own lines.
                if t.stalled() {
                    let _ = writeln!(
                        out,
                        "[{:.3}s][info][gc,ergo] Allocation stall: mutator blocked for {:.3}ms",
                        t.start.as_secs_f64(),
                        t.duration.as_millis_f64(),
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "[{:.3}s][info][gc,ergo] Pacer: mutator throttled to {:.0}% for {:.3}ms",
                        t.start.as_secs_f64(),
                        t.min_throttle * 100.0,
                        t.duration.as_millis_f64(),
                    );
                }
            }
            Event::Fault(f) => {
                let _ = writeln!(
                    out,
                    "[{:.3}s][info][gc,fault] Injected {} (magnitude {:.3}) active for {:.3}ms",
                    f.start.as_secs_f64(),
                    f.kind.label(),
                    f.kind.magnitude(),
                    f.duration.as_millis_f64(),
                );
            }
        }
    }

    let unrecorded = telemetry.pause_histogram().count() - telemetry.pauses.len() as u64;
    if unrecorded > 0 {
        let recorded_wall: SimDuration = telemetry.pauses.iter().map(|p| p.duration).sum();
        let _ = writeln!(
            out,
            "[{:.3}s][info][gc] ... plus {unrecorded} batched pauses totalling {} (thrash fast-forward)",
            result.wall_time().as_secs_f64(),
            telemetry.total_pause_wall() - recorded_wall,
        );
    }
    if !telemetry.throttled_wall.is_zero() {
        let _ = writeln!(
            out,
            "[{:.3}s][info][gc] allocation throttled for {} of wall time (pacing/stalls)",
            result.wall_time().as_secs_f64(),
            telemetry.throttled_wall,
        );
    }
    if telemetry.faults_injected > 0 {
        let degenerate_note = if telemetry.degenerate_count > 0 {
            format!(", {} degenerate collections", telemetry.degenerate_count)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "[{:.3}s][info][gc,fault] {} fault intervals injected{degenerate_note} (deterministic fault plan)",
            result.wall_time().as_secs_f64(),
            telemetry.faults_injected,
        );
    }
    let _ = writeln!(
        out,
        "[{:.3}s][info][gc] {} collections, pause total {}, gc cpu {:.3}s, mutator cpu {:.3}s",
        result.wall_time().as_secs_f64(),
        telemetry.gc_count,
        telemetry.total_pause_wall(),
        telemetry.gc_cpu_ns() / 1e9,
        telemetry.mutator_cpu_ns / 1e9,
    );
    out
}

fn pause_name(kind: CollectionKind) -> &'static str {
    match kind {
        CollectionKind::Young => "Pause Young (Normal)",
        CollectionKind::Full => "Pause Full",
        CollectionKind::Concurrent => "Pause Init/Final Mark",
        CollectionKind::Degenerate => "Pause Degenerated GC",
    }
}

fn format_bytes(bytes: f64) -> String {
    if bytes >= (1u64 << 30) as f64 {
        format!("{:.2}G", bytes / (1u64 << 30) as f64)
    } else if bytes >= (1u64 << 20) as f64 {
        format!("{:.1}M", bytes / (1u64 << 20) as f64)
    } else {
        format!("{:.0}K", bytes / (1u64 << 10) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;
    use crate::config::RunConfig;
    use crate::engine::run;
    use crate::spec::MutatorSpec;
    use crate::time::SimDuration;

    fn result_for(collector: CollectorKind) -> RunResult {
        let spec = MutatorSpec::builder("log-test")
            .threads(8)
            .parallel_efficiency(0.5)
            .total_work(SimDuration::from_millis(100))
            .total_allocation(512 << 20)
            .live_range(8 << 20, 16 << 20)
            .build()
            .unwrap();
        run(&spec, &RunConfig::new(48 << 20, collector).with_noise(0.0)).unwrap()
    }

    #[test]
    fn g1_log_contains_young_pauses_and_heap_lines() {
        let log = render_gc_log(&result_for(CollectorKind::G1));
        assert!(log.contains("Using G1"), "{log}");
        assert!(log.contains("Pause Young (Normal)"), "{log}");
        assert!(log.contains("post-collection occupancy"), "{log}");
        assert!(log.contains("collections, pause total"), "{log}");
    }

    #[test]
    fn serial_log_contains_full_pauses() {
        // Enough churn to cross the periodic full-GC schedule.
        let spec = MutatorSpec::builder("log-test-full")
            .threads(8)
            .parallel_efficiency(0.5)
            .total_work(SimDuration::from_millis(400))
            .total_allocation(4 << 30)
            .live_range(8 << 20, 16 << 20)
            .build()
            .unwrap();
        let result = run(
            &spec,
            &RunConfig::new(48 << 20, CollectorKind::Serial).with_noise(0.0),
        )
        .unwrap();
        let log = render_gc_log(&result);
        assert!(log.contains("Pause Full"), "{log}");
    }

    #[test]
    fn concurrent_log_marks_init_final_pauses() {
        let log = render_gc_log(&result_for(CollectorKind::Shenandoah));
        assert!(log.contains("Pause Init/Final Mark"), "{log}");
    }

    #[test]
    fn throttled_run_logs_pacer_intervals() {
        // The hot-allocation regime that engages Shenandoah's pacer (same
        // shape as the engine's throttling test).
        let spec = MutatorSpec::builder("log-test-pacing")
            .threads(32)
            .parallel_efficiency(0.4)
            .total_work(SimDuration::from_millis(400))
            .total_allocation(16 << 30)
            .live_range(8 << 20, 12 << 20)
            .survival_fraction(0.02)
            .build()
            .unwrap();
        let result = run(
            &spec,
            &RunConfig::new(48 << 20, CollectorKind::Shenandoah).with_noise(0.0),
        )
        .unwrap();
        assert!(!result.telemetry().throttle_intervals.is_empty());
        let log = render_gc_log(&result);
        assert!(
            log.contains("[gc,ergo] Pacer: mutator throttled to")
                || log.contains("[gc,ergo] Allocation stall"),
            "per-interval pacing lines must appear: {log}"
        );
        assert!(
            log.contains("allocation throttled for"),
            "the aggregate line stays: {log}"
        );
        // Every recorded interval renders exactly one line.
        let interval_lines = log.lines().filter(|l| l.contains("[gc,ergo]")).count();
        assert_eq!(interval_lines, result.telemetry().throttle_intervals.len());
    }

    #[test]
    fn unthrottled_run_has_no_pacer_lines() {
        let log = render_gc_log(&result_for(CollectorKind::G1));
        assert!(!log.contains("[gc,ergo]"), "{log}");
    }

    #[test]
    fn fault_injected_run_logs_fault_lines() {
        use crate::engine::run_with_faults;
        use chopin_faults::{FaultKind, FaultPlan};
        let spec = MutatorSpec::builder("log-test-faults")
            .threads(8)
            .parallel_efficiency(0.5)
            .total_work(SimDuration::from_millis(100))
            .total_allocation(512 << 20)
            .live_range(8 << 20, 16 << 20)
            .build()
            .unwrap();
        let plan = FaultPlan::new(3).with_window(
            1_000_000,
            30_000_000,
            FaultKind::AllocSpike { factor: 3.0 },
        );
        let result = run_with_faults(
            &spec,
            &RunConfig::new(48 << 20, CollectorKind::G1).with_noise(0.0),
            &plan,
        )
        .unwrap();
        assert_eq!(result.telemetry().faults_injected, 1);
        let log = render_gc_log(&result);
        assert!(log.contains("[gc,fault] Injected alloc_spike"), "{log}");
        assert!(log.contains("fault intervals injected"), "{log}");
    }

    #[test]
    fn stall_storm_logs_pacer_lines_on_a_non_pacing_collector() {
        use crate::engine::run_with_faults;
        use chopin_faults::{FaultKind, FaultPlan};
        let spec = MutatorSpec::builder("log-test-storm")
            .threads(8)
            .parallel_efficiency(0.5)
            .total_work(SimDuration::from_millis(100))
            .total_allocation(512 << 20)
            .live_range(8 << 20, 16 << 20)
            .build()
            .unwrap();
        let plan = FaultPlan::new(9).with_window(
            2_000_000,
            12_000_000,
            FaultKind::StallStorm { throttle: 0.25 },
        );
        let result = run_with_faults(
            &spec,
            &RunConfig::new(48 << 20, CollectorKind::G1).with_noise(0.0),
            &plan,
        )
        .unwrap();
        let log = render_gc_log(&result);
        assert!(
            log.contains("[gc,ergo] Pacer: mutator throttled to 25%"),
            "storm shows as pacing: {log}"
        );
        assert!(log.contains("[gc,fault] Injected stall_storm"), "{log}");
    }

    #[test]
    fn clean_run_has_no_fault_lines() {
        let log = render_gc_log(&result_for(CollectorKind::G1));
        assert!(!log.contains("[gc,fault]"), "{log}");
    }

    #[test]
    fn log_lines_are_time_ordered() {
        let log = render_gc_log(&result_for(CollectorKind::G1));
        let times: Vec<f64> = log
            .lines()
            .filter_map(|l| l.strip_prefix('[')?.split('s').next()?.parse().ok())
            .collect();
        assert!(times.len() > 3);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512.0 * 1024.0), "512K");
        assert_eq!(format_bytes(1.5 * (1u64 << 20) as f64), "1.5M");
        assert_eq!(format_bytes(2.25 * (1u64 << 30) as f64), "2.25G");
    }
}
