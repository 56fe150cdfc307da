//! The observer determinism guard: attaching any observer to the engine
//! must not perturb the simulation.
//!
//! Observers are passive by contract — they receive copies of engine
//! state and feed nothing back — so `run()` (no-op observer) and
//! `run_with_observer` (recording observer) must produce bit-identical
//! [`RunResult`]s, success or failure alike. A regression here means an
//! engine transition started consulting its observer, which would make
//! every traced run unrepresentative of the untraced runs the experiments
//! measure.

use chopin_obs::{EventRecorder, MetricsObserver, Tee};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::config::RunConfig;
use chopin_runtime::engine::{run, run_with_observer};
use chopin_runtime::result::RunResult;
use chopin_runtime::spec::MutatorSpec;
use chopin_runtime::time::SimDuration;

fn spec(alloc_mb: u64, live_mb: u64, threads: u32) -> MutatorSpec {
    MutatorSpec::builder("obs-determinism")
        .threads(threads)
        .parallel_efficiency(0.5)
        .total_work(SimDuration::from_millis(200))
        .total_allocation(alloc_mb << 20)
        .live_range((live_mb / 2).max(1) << 20, live_mb << 20)
        .survival_fraction(0.05)
        .build()
        .expect("spec is valid")
}

fn assert_observed_matches(
    spec: &MutatorSpec,
    config: &RunConfig,
) -> (Result<RunResult, String>, EventRecorder) {
    let plain = run(spec, config).map_err(|e| e.to_string());
    let mut tee = Tee(EventRecorder::new(), MetricsObserver::new());
    let observed = run_with_observer(spec, config, &mut tee).map_err(|e| e.to_string());
    assert_eq!(
        plain, observed,
        "recording observer must not perturb the run"
    );
    (plain, tee.0)
}

#[test]
fn observed_run_is_bit_identical_across_collectors() {
    for collector in CollectorKind::ALL {
        let s = spec(512, 16, 8);
        let config = RunConfig::new(64 << 20, collector).with_noise(0.0);
        let (result, recorder) = assert_observed_matches(&s, &config);
        let r = result.expect("a 64MB heap fits this workload");
        if r.telemetry().gc_count > 0 {
            assert!(
                recorder.events().any(|e| e.type_label() == "gc_trigger"),
                "{collector:?}: a collecting run must surface trigger events"
            );
        }
    }
}

#[test]
fn observed_run_is_identical_under_throttling() {
    // The hot-allocation regime that engages Shenandoah's pacer: observer
    // hooks in the throttle path are the likeliest place for a
    // perturbation bug.
    let s = MutatorSpec::builder("obs-hot-alloc")
        .threads(32)
        .parallel_efficiency(0.4)
        .total_work(SimDuration::from_millis(400))
        .total_allocation(16 << 30)
        .live_range(8 << 20, 12 << 20)
        .survival_fraction(0.02)
        .build()
        .expect("spec is valid");
    let config = RunConfig::new(48 << 20, CollectorKind::Shenandoah).with_noise(0.0);
    let (result, recorder) = assert_observed_matches(&s, &config);
    let r = result.expect("the run completes");
    assert!(r.telemetry().throttled_wall > SimDuration::ZERO);
    assert!(
        recorder
            .events()
            .any(|e| e.type_label() == "throttle_onset"),
        "pacing must be visible in the event stream"
    );
    assert!(
        !r.telemetry().throttle_intervals.is_empty(),
        "pacing intervals land in telemetry for the GC log"
    );
}

#[test]
fn observed_run_is_identical_in_batching_regime() {
    // Tiny heap, huge churn: the engine replays steady-state periods of
    // collections; the batch events must not change the arithmetic.
    let s = spec(512 << 10, 8, 8);
    let config = RunConfig::new(12 << 20, CollectorKind::Parallel).with_noise(0.0);
    let (result, recorder) = assert_observed_matches(&s, &config);
    let r = result.expect("the run completes");
    assert!(r.telemetry().gc_count > 50_000);
    assert!(
        recorder
            .events()
            .any(|e| e.type_label() == "batch_fast_forward"),
        "fast-forwards must be visible in the event stream"
    );
}

#[test]
fn observed_failure_is_identical_too() {
    // OOM path: the failing run must fail identically when observed, and
    // the observer must see the declaration.
    let s = spec(128, 100, 8);
    let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
    let (result, recorder) = assert_observed_matches(&s, &config);
    assert!(result.is_err());
    assert!(recorder.events().any(|e| e.type_label() == "oom_declared"));
}
