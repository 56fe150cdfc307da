//! Fault-plane guarantees: injected runs are exactly as deterministic as
//! clean ones, observers never perturb faulted runs, each fault kind has
//! its advertised effect, and the engine's failure paths (`declare_oom`,
//! futile-collection streaks, degenerate fallback) are reachable directly
//! rather than only by workload accident.

use chopin_faults::{FaultKind, FaultPlan, ScheduledFaults};
use chopin_obs::{Event, EventRecorder, MetricsObserver, Tee};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::config::RunConfig;
use chopin_runtime::engine::{run, run_with_faults, run_with_observer_and_faults};
use chopin_runtime::result::RunError;
use chopin_runtime::spec::MutatorSpec;
use chopin_runtime::time::SimDuration;

fn spec(alloc_mb: u64, live_mb: u64, threads: u32) -> MutatorSpec {
    MutatorSpec::builder("fault-determinism")
        .threads(threads)
        .parallel_efficiency(0.5)
        .total_work(SimDuration::from_millis(200))
        .total_allocation(alloc_mb << 20)
        .live_range((live_mb / 2).max(1) << 20, live_mb << 20)
        .survival_fraction(0.05)
        .build()
        .expect("spec is valid")
}

/// A window wide enough to stay open for the entire simulated run.
const WHOLE_RUN_NS: u64 = 60_000_000_000;

#[test]
fn faulted_runs_are_bit_identical_and_observer_neutral() {
    let s = spec(512, 16, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
    let plan = FaultPlan::new(42)
        .with_window(1_000_000, 40_000_000, FaultKind::AllocSpike { factor: 3.0 })
        .with_storm(
            FaultKind::StallStorm { throttle: 0.2 },
            150_000_000,
            4,
            0.15,
        );

    let first = run_with_faults(&s, &config, &plan).map_err(|e| e.to_string());
    let second = run_with_faults(&s, &config, &plan).map_err(|e| e.to_string());
    assert_eq!(first, second, "same plan must yield bit-identical runs");

    let mut tee = Tee(EventRecorder::new(), MetricsObserver::new());
    let observed = run_with_observer_and_faults(&s, &config, &mut tee, ScheduledFaults::new(&plan))
        .map_err(|e| e.to_string());
    assert_eq!(
        first, observed,
        "an observer must not perturb a faulted run"
    );
    assert!(
        tee.0.events().any(|e| e.type_label() == "fault_onset"),
        "fault windows must surface in the event stream"
    );
    assert!(
        tee.0.events().any(|e| e.type_label() == "fault_clear"),
        "fault windows must close in the event stream"
    );

    let r = first.expect("64MB fits this workload even under faults");
    assert!(r.telemetry().faults_injected > 0);
    assert_eq!(
        r.telemetry().faults_injected as usize,
        r.telemetry().fault_intervals.len(),
        "every window below the cap is recorded"
    );
}

#[test]
fn alloc_spike_increases_collection_pressure() {
    let s = spec(512, 16, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
    let clean = run(&s, &config).expect("clean run completes");
    let plan = FaultPlan::new(7).with_window(
        1_000_000,
        WHOLE_RUN_NS,
        FaultKind::AllocSpike { factor: 4.0 },
    );
    let faulted = run_with_faults(&s, &config, &plan).expect("spiked run completes");
    assert!(
        faulted.telemetry().gc_count > clean.telemetry().gc_count,
        "4x allocation must trigger more collections: {} vs {}",
        faulted.telemetry().gc_count,
        clean.telemetry().gc_count
    );
    assert!(faulted
        .telemetry()
        .fault_intervals
        .iter()
        .all(|i| matches!(i.kind, FaultKind::AllocSpike { .. })));
}

#[test]
fn gc_slowdown_stretches_pauses() {
    let s = spec(512, 16, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::Parallel).with_noise(0.0);
    let clean = run(&s, &config).expect("clean run completes");
    let plan =
        FaultPlan::new(7).with_window(0, WHOLE_RUN_NS, FaultKind::GcSlowdown { factor: 8.0 });
    let faulted = run_with_faults(&s, &config, &plan).expect("slowed run completes");
    let slow = faulted.telemetry().max_pause();
    let fast = clean.telemetry().max_pause();
    assert!(
        slow > fast,
        "8x slower GC threads must stretch stop-the-world pauses: {slow:?} vs {fast:?}"
    );
}

#[test]
fn stall_storm_throttles_a_non_pacing_collector() {
    // G1 never engages its own pacer; throttled wall time under a storm can
    // only come from the injected throttle cap.
    let s = spec(512, 16, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
    let clean = run(&s, &config).expect("clean run completes");
    assert_eq!(clean.telemetry().throttled_wall, SimDuration::ZERO);
    let plan = FaultPlan::new(7).with_window(
        2_000_000,
        30_000_000,
        FaultKind::StallStorm { throttle: 0.25 },
    );
    let faulted = run_with_faults(&s, &config, &plan).expect("stormed run completes");
    assert!(
        faulted.telemetry().throttled_wall > SimDuration::ZERO,
        "the storm must register as throttled wall time"
    );
    assert!(!faulted.telemetry().throttle_intervals.is_empty());
}

#[test]
fn force_degenerate_converts_collections_for_every_collector() {
    // Including the single-generation concurrent collectors, whose planner
    // maps a degenerate request to an all-STW cycle (Shenandoah's
    // "Degenerated GC") rather than silently planning a concurrent one.
    let s = spec(512, 16, 8);
    let plan = FaultPlan::new(7).with_window(0, WHOLE_RUN_NS, FaultKind::ForceDegenerate);
    for collector in CollectorKind::ALL {
        let config = RunConfig::new(96 << 20, collector).with_noise(0.0);
        let clean = run(&s, &config).expect("clean run completes");
        assert_eq!(
            clean.telemetry().degenerate_count,
            0,
            "{collector:?}: a roomy heap should not degenerate on its own"
        );
        let faulted = run_with_faults(&s, &config, &plan)
            .unwrap_or_else(|e| panic!("{collector:?}: forced-degenerate run failed: {e}"));
        if faulted.telemetry().gc_count > 0 {
            assert!(
                faulted.telemetry().degenerate_count > 0,
                "{collector:?}: every triggered collection should degenerate"
            );
        }
    }
}

#[test]
fn heap_squeeze_drives_futile_streak_then_oom() {
    // Squeeze 90% of a 64MB heap away: effective capacity drops below the
    // 16MB live peak, so no collection can reclaim usable room. The engine
    // must count a growing futile streak and declare OOM at the bound —
    // the direct test of the futile-collection failure path.
    let s = spec(512, 16, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
    let plan = FaultPlan::new(7).with_window(
        1_000_000,
        WHOLE_RUN_NS,
        FaultKind::HeapSqueeze { fraction: 0.9 },
    );
    let mut recorder = EventRecorder::new();
    let result =
        run_with_observer_and_faults(&s, &config, &mut recorder, ScheduledFaults::new(&plan));
    assert!(
        matches!(result, Err(RunError::OutOfMemory { .. })),
        "a squeeze below the live set must end in OOM: {result:?}"
    );

    let streaks: Vec<u32> = recorder
        .events()
        .filter_map(|e| match e {
            Event::FutileCollection { streak, .. } => Some(*streak),
            _ => None,
        })
        .collect();
    assert!(
        streaks.iter().copied().max().unwrap_or(0) >= 4,
        "the futile streak must reach the OOM bound: {streaks:?}"
    );
    assert!(
        streaks.windows(2).all(|w| w[1] == w[0] + 1 || w[1] == 1),
        "streaks count consecutively and reset only on useful collections: {streaks:?}"
    );
    assert!(
        recorder.events().any(|e| e.type_label() == "oom_declared"),
        "the OOM declaration must surface as an event"
    );
}

#[test]
fn epsilon_declares_oom_directly_when_the_heap_fills() {
    // The Epsilon collector never reclaims: exhaustion takes the
    // `declare_oom` path with no collection at all — the direct unit test
    // for the declaration itself.
    let s = spec(256, 8, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::Epsilon).with_noise(0.0);
    let mut recorder = EventRecorder::new();
    let result = run_with_observer_and_faults(&s, &config, &mut recorder, chopin_faults::NoFaults);
    assert!(
        matches!(result, Err(RunError::OutOfMemory { .. })),
        "256MB allocated into a 64MB no-reclaim heap must OOM: {result:?}"
    );
    assert!(
        recorder.events().any(|e| e.type_label() == "oom_declared"),
        "the declaration must surface as an event"
    );
    assert!(
        !recorder.events().any(|e| e.type_label() == "pause_begin"),
        "Epsilon performs no collections on the way down"
    );
}

#[test]
fn degenerate_pause_fallback_is_reachable_directly() {
    // G1's exhaustion policy degenerates when the heap fills mid-cycle; a
    // forced-degenerate window reaches the same pause kind without needing
    // a workload that happens to exhaust to-space.
    let s = spec(512, 16, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
    let plan = FaultPlan::new(7).with_window(0, WHOLE_RUN_NS, FaultKind::ForceDegenerate);
    let mut tee = Tee(EventRecorder::new(), MetricsObserver::new());
    let result = run_with_observer_and_faults(&s, &config, &mut tee, ScheduledFaults::new(&plan))
        .expect("forced-degenerate run completes");
    assert!(result.telemetry().degenerate_count > 0);
    assert!(
        result.telemetry().max_pause() > Some(SimDuration::ZERO),
        "degenerate collections stop the world"
    );
}
