//! Integration: the qualitative shapes of Figure 1 hold on the simulated
//! runtime — the motivation of the whole paper.

use chopin::core::lbo::{Clock, LboAnalysis};
use chopin::core::sweep::{run_sweep, SweepConfig};
use chopin::harness::LboExperiment;
use chopin::runtime::collector::CollectorKind;
use chopin::workloads::{suite, SizeClass};
use std::collections::BTreeMap;

fn quick_sweep() -> SweepConfig {
    SweepConfig {
        collectors: CollectorKind::ALL.to_vec(),
        heap_factors: vec![1.5, 2.0, 3.0, 6.0],
        invocations: 1,
        iterations: 2,
        size: SizeClass::Default,
    }
}

/// The suite's geomean LBO curves, swept on the sweep scheduler.
fn geomeans(clock: Clock) -> BTreeMap<CollectorKind, Vec<(f64, f64)>> {
    LboExperiment::run(&[], &quick_sweep())
        .expect("sweeps run")
        .geomean(clock)
        .expect("non-empty")
}

fn at(curves: &BTreeMap<CollectorKind, Vec<(f64, f64)>>, c: CollectorKind, x: f64) -> f64 {
    curves[&c]
        .iter()
        .find(|(f, _)| (*f - x).abs() < 1e-9)
        .unwrap_or_else(|| panic!("{c} has no point at {x}"))
        .1
}

#[test]
fn figure1b_task_clock_regression_and_time_space_tradeoff() {
    let curves = geomeans(Clock::Task);

    // The headline regression: ordering collectors by introduction year
    // orders their total CPU overhead at every heap size all five share
    // (ZGC's uncompressed pointers keep it out of 2x — biojava's
    // GMU/GMD is 1.97).
    for x in [3.0, 6.0] {
        let serial = at(&curves, CollectorKind::Serial, x);
        let parallel = at(&curves, CollectorKind::Parallel, x);
        let g1 = at(&curves, CollectorKind::G1, x);
        let shen = at(&curves, CollectorKind::Shenandoah, x);
        let zgc = at(&curves, CollectorKind::Zgc, x);
        assert!(
            serial < parallel && parallel < g1 && g1 < shen && shen < zgc,
            "at {x}x: {serial:.3} {parallel:.3} {g1:.3} {shen:.3} {zgc:.3}"
        );
    }

    // "the CPU overhead of garbage collection is 15% in the best case":
    // even the cheapest collector at the most generous heap keeps a
    // noticeable overhead, and it is a *lower bound* (>= 1).
    let best = at(&curves, CollectorKind::Serial, 6.0);
    assert!(best > 1.03, "best-case CPU overhead is visible: {best:.3}");
    assert!(best < 1.35, "but not absurd: {best:.3}");

    // Time-space tradeoff: every curve decreases with heap size.
    for (c, points) in &curves {
        for w in points.windows(2) {
            assert!(
                w[0].1 >= w[1].1 - 0.02,
                "{c}: overhead must fall as heap grows: {points:?}"
            );
        }
    }

    // At small heaps, overheads explode ("at smaller heaps, overheads
    // exceed 2x").
    let small = at(&curves, CollectorKind::Shenandoah, 1.5);
    assert!(small > 2.0, "Shenandoah at 1.5x: {small:.3}");
}

#[test]
fn figure1a_wall_clock_winners_are_parallel_and_g1() {
    let curves = geomeans(Clock::Wall);
    // "In the best case, wall clock overheads are 9% (G1 and Parallel)".
    let parallel = at(&curves, CollectorKind::Parallel, 6.0);
    let g1 = at(&curves, CollectorKind::G1, 6.0);
    let serial = at(&curves, CollectorKind::Serial, 6.0);
    let shen = at(&curves, CollectorKind::Shenandoah, 6.0);
    let zgc = at(&curves, CollectorKind::Zgc, 6.0);
    assert!(
        parallel < serial && g1 < serial,
        "single-threaded pauses cost wall time"
    );
    assert!(
        parallel < shen && parallel < zgc,
        "parallel beats concurrent on wall"
    );
    assert!(
        parallel < 1.15 && g1 < 1.2,
        "winners are single-digit-ish percent"
    );
}

#[test]
fn zgc_curve_starts_later_than_the_others() {
    // ZGC cannot complete all 22 benchmarks at small multiples of the
    // compressed-pointer minimum heap, so its geomean curve has fewer
    // points (visible in Figure 1 as a late-starting line).
    let curves = geomeans(Clock::Task);
    let zgc_points = curves[&CollectorKind::Zgc].len();
    let g1_points = curves[&CollectorKind::G1].len();
    assert!(
        zgc_points < g1_points,
        "ZGC {zgc_points} points vs G1 {g1_points}"
    );
}

#[test]
fn per_benchmark_lbo_is_a_lower_bound() {
    // LBO >= 1 by construction for every benchmark, collector and heap.
    let profile = suite::by_name("jython").expect("in suite");
    let result = run_sweep(&profile, &quick_sweep()).expect("sweep");
    for clock in [Clock::Wall, Clock::Task] {
        let lbo = LboAnalysis::compute(&result.samples, clock).expect("analysis");
        for (c, points) in lbo.curves() {
            for p in points {
                assert!(
                    p.overhead.mean() >= 1.0 - 1e-9,
                    "{c} at {}: {:?}",
                    p.heap_factor,
                    p.overhead
                );
            }
        }
    }
}
