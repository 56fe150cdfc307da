//! Collection-cycle planning: pure math mapping heap state to GC work.
//!
//! The engine asks this module, at the moment a collection is triggered,
//! how much CPU work the cycle will take (split into stop-the-world and
//! concurrent portions), how long the pause(s) will be, and what the heap
//! will look like afterwards. Keeping this as side-effect-free arithmetic
//! makes the collector models easy to test and to ablate.

use super::costs::CollectorModel;
use crate::time::SimDuration;

/// The kind of collection a cycle performs, recorded in pause telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionKind {
    /// A nursery collection tracing only recent survivors (generational
    /// collectors).
    Young,
    /// A whole-heap collection.
    Full,
    /// A concurrent cycle (Shenandoah/ZGC, or G1's concurrent marking).
    Concurrent,
    /// A fallback stop-the-world full collection forced by heap exhaustion
    /// during a concurrent cycle (G1's "to-space exhausted" degeneration).
    Degenerate,
}

/// Inputs to cycle planning: a snapshot of heap and workload state at
/// trigger time. All byte quantities are *heap* bytes (already inflated if
/// compressed pointers are disabled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleInput {
    /// Bytes of live data at trigger time.
    pub live_bytes: f64,
    /// Bytes allocated since the previous collection completed.
    pub allocated_since_gc: f64,
    /// Fraction of recently allocated bytes that survive collection.
    pub survival_fraction: f64,
    /// Workload mean object size in bytes (drives per-object mark cost).
    pub mean_object_size: f64,
    /// Hardware threads on the machine.
    pub hardware_threads: u32,
    /// Per-thread machine speed factor.
    pub machine_speed: f64,
}

/// The plan for one collection cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleOutcome {
    /// What kind of collection this is.
    pub kind: CollectionKind,
    /// CPU nanoseconds of collection work performed stop-the-world.
    pub stw_work_cpu_ns: f64,
    /// Wall-clock duration of the stop-the-world portion (work divided
    /// across GC threads, plus the pause floor).
    pub stw_wall: SimDuration,
    /// CPU nanoseconds of collection work performed concurrently with the
    /// application (zero for STW collectors).
    pub concurrent_work_cpu_ns: f64,
    /// Live bytes remaining after the cycle completes (the post-GC heap
    /// size recorded by the appendix heap graphs).
    pub live_after: f64,
}

/// What the engine asks the planner for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionRequest {
    /// The collector's normal cycle (young for generational collectors, a
    /// full concurrent cycle for single-generation concurrent collectors).
    Normal,
    /// A scheduled whole-heap collection (a generational collector's
    /// periodic full GC).
    Full,
    /// A fallback whole-heap STW collection forced by heap exhaustion while
    /// concurrent work was in flight (G1's to-space exhaustion).
    Degenerate,
}

/// Plan a collection for `model` given heap state `input`.
///
/// # Panics
///
/// Panics in debug builds if byte quantities are negative or non-finite.
pub fn plan_cycle(
    model: &CollectorModel,
    input: &CycleInput,
    request: CollectionRequest,
) -> CycleOutcome {
    debug_assert!(input.live_bytes >= 0.0 && input.live_bytes.is_finite());
    debug_assert!(input.allocated_since_gc >= 0.0 && input.allocated_since_gc.is_finite());

    // Fresh allocation survives its first collection at the workload's
    // survival rate, but survivors cannot outgrow a share of the live set:
    // over a long inter-GC period the early survivors die again before the
    // collection happens.
    let survivors =
        (input.survival_fraction * input.allocated_since_gc).min(0.5 * input.live_bytes);
    let is_young = model.kind.is_generational() && request == CollectionRequest::Normal;

    // Bytes traced and bytes copied this cycle.
    let (marked, evacuated, kind) = if is_young {
        // Young collection: trace survivors plus a share of the old
        // generation (card/remembered-set scanning).
        (
            survivors + model.old_scan_share * input.live_bytes,
            survivors,
            CollectionKind::Young,
        )
    } else if model.kind.is_generational() {
        // Scheduled or degenerate full collection of a generational
        // collector: trace and compact everything.
        (
            input.live_bytes + survivors,
            (input.live_bytes + survivors) * model.evac_share.max(0.5),
            if request == CollectionRequest::Degenerate {
                CollectionKind::Degenerate
            } else {
                CollectionKind::Full
            },
        )
    } else {
        // Single-generation concurrent collector: every cycle traces the
        // entire live set (this is the architectural root of the high
        // overheads Figure 1 shows for the newest collectors). A degenerate
        // request abandons concurrency and does the whole cycle
        // stop-the-world (Shenandoah's "Degenerated GC").
        (
            input.live_bytes + survivors,
            (input.live_bytes + survivors) * model.evac_share,
            if request == CollectionRequest::Degenerate {
                CollectionKind::Degenerate
            } else {
                CollectionKind::Concurrent
            },
        )
    };

    let total_work =
        model.mark_cost_ns(marked, input.mean_object_size) + model.evac_cost_ns(evacuated);

    // Degenerate collections abandon concurrent progress and redo the work
    // stop-the-world, with a penalty for the wasted concurrent effort.
    let (concurrent_share, work) = match kind {
        CollectionKind::Degenerate => (0.0, total_work * 1.3),
        _ => (model.concurrent_fraction, total_work),
    };

    let concurrent_work = work * concurrent_share;
    let stw_work = work - concurrent_work;

    let stw_threads = model.stw_thread_count(input.hardware_threads) as f64;
    let eff = if stw_threads > 1.0 {
        model.gc_parallel_efficiency
    } else {
        1.0
    };
    let stw_wall_ns =
        stw_work / (stw_threads * eff * input.machine_speed) + model.pause_floor.as_nanos() as f64;
    // Imperfect parallelism burns extra CPU: the threads are all running for
    // the whole pause even though the useful work is `stw_work`.
    let stw_cpu = stw_work / eff;

    let live_after = live_after(input, kind);

    CycleOutcome {
        kind,
        stw_work_cpu_ns: stw_cpu,
        stw_wall: SimDuration::from_nanos(stw_wall_ns.max(0.0).round() as u64),
        concurrent_work_cpu_ns: concurrent_work,
        live_after,
    }
}

/// Live bytes after a collection: the modelled live set plus the survivors
/// of recent allocation (which a young collection promotes rather than
/// frees).
fn live_after(input: &CycleInput, _kind: CollectionKind) -> f64 {
    input.live_bytes
        + (input.survival_fraction * input.allocated_since_gc).min(0.5 * input.live_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;

    /// Total CPU work of the cycle, both portions.
    fn total_work(o: &CycleOutcome) -> f64 {
        o.stw_work_cpu_ns + o.concurrent_work_cpu_ns
    }

    fn input() -> CycleInput {
        CycleInput {
            live_bytes: 100e6,
            allocated_since_gc: 50e6,
            survival_fraction: 0.05,
            mean_object_size: 64.0,
            hardware_threads: 32,
            machine_speed: 1.0,
        }
    }

    #[test]
    fn young_collections_are_much_cheaper_than_full() {
        for kind in [CollectorKind::Parallel, CollectorKind::G1] {
            let m = kind.model();
            let young = plan_cycle(&m, &input(), CollectionRequest::Normal);
            let full = plan_cycle(&m, &input(), CollectionRequest::Full);
            assert_eq!(young.kind, CollectionKind::Young, "{kind}");
            assert_eq!(full.kind, CollectionKind::Full, "{kind}");
            assert!(total_work(&full) > 3.0 * total_work(&young), "{kind}");
        }
    }

    #[test]
    fn serial_pause_is_longer_than_parallel_but_cpu_is_lower() {
        let s = plan_cycle(
            &CollectorKind::Serial.model(),
            &input(),
            CollectionRequest::Full,
        );
        let p = plan_cycle(
            &CollectorKind::Parallel.model(),
            &input(),
            CollectionRequest::Full,
        );
        assert!(
            s.stw_wall > p.stw_wall,
            "Serial collects on one thread, so pauses longer: {} vs {}",
            s.stw_wall,
            p.stw_wall
        );
        assert!(
            total_work(&s) < total_work(&p),
            "Parallel's imperfect parallelism burns more total CPU"
        );
    }

    #[test]
    fn concurrent_collectors_do_most_work_concurrently() {
        for kind in [CollectorKind::Shenandoah, CollectorKind::Zgc] {
            let o = plan_cycle(&kind.model(), &input(), CollectionRequest::Normal);
            assert_eq!(o.kind, CollectionKind::Concurrent);
            let share = o.concurrent_work_cpu_ns / total_work(&o);
            assert!(share > 0.9, "{kind}: concurrent share {share}");
            assert!(
                o.stw_wall < SimDuration::from_millis(5),
                "{kind}: tiny pauses"
            );
        }
    }

    #[test]
    fn concurrent_cycle_traces_whole_live_set() {
        // ZGC cycle cost should scale with live bytes, not allocation.
        let m = CollectorKind::Zgc.model();
        let small_live = plan_cycle(
            &m,
            &CycleInput {
                live_bytes: 10e6,
                ..input()
            },
            CollectionRequest::Normal,
        );
        let big_live = plan_cycle(
            &m,
            &CycleInput {
                live_bytes: 200e6,
                ..input()
            },
            CollectionRequest::Normal,
        );
        assert!(total_work(&big_live) > 10.0 * total_work(&small_live));
    }

    #[test]
    fn young_cycle_cost_scales_with_allocation_not_live() {
        let m = CollectorKind::Parallel.model();
        let base = plan_cycle(&m, &input(), CollectionRequest::Normal);
        let more_alloc = plan_cycle(
            &m,
            &CycleInput {
                allocated_since_gc: 200e6,
                ..input()
            },
            CollectionRequest::Normal,
        );
        assert!(total_work(&more_alloc) > 2.0 * total_work(&base));
    }

    #[test]
    fn degenerate_costs_more_than_planned_full() {
        let m = CollectorKind::G1.model();
        let degen = plan_cycle(&m, &input(), CollectionRequest::Degenerate);
        assert_eq!(degen.kind, CollectionKind::Degenerate);
        let full_parallel = plan_cycle(
            &CollectorKind::Parallel.model(),
            &input(),
            CollectionRequest::Full,
        );
        assert!(total_work(&degen) > total_work(&full_parallel));
        assert_eq!(degen.concurrent_work_cpu_ns, 0.0);
    }

    #[test]
    fn live_after_includes_promoted_survivors() {
        let o = plan_cycle(
            &CollectorKind::G1.model(),
            &input(),
            CollectionRequest::Normal,
        );
        assert!((o.live_after - (100e6 + 0.05 * 50e6)).abs() < 1.0);
    }

    #[test]
    fn faster_machine_shortens_pauses() {
        let m = CollectorKind::Serial.model();
        let slow = plan_cycle(&m, &input(), CollectionRequest::Full);
        let fast = plan_cycle(
            &m,
            &CycleInput {
                machine_speed: 2.0,
                ..input()
            },
            CollectionRequest::Full,
        );
        assert!(fast.stw_wall < slow.stw_wall);
    }
}
