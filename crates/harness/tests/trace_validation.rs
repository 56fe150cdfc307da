//! Acceptance test for the trace pipeline: an observed h2-style run must
//! produce a well-formed Chrome-trace document — ≥1 mutator span,
//! stop-the-world pause spans, concurrent cycles on their own track, and
//! every `B` matched by an `E` (the validator enforces the pairing).
//!
//! This is the same check `artifact trace --check` runs in CI, exercised
//! through the library API so a regression is caught at `cargo test`.

use chopin_harness::obs::{add_spans_to_trace, observe_benchmark, HarnessSpan};
use chopin_obs::validate_chrome_trace;
use chopin_runtime::collector::CollectorKind;

#[test]
fn observed_h2_run_emits_a_valid_perfetto_trace() {
    let observed =
        observe_benchmark("h2", CollectorKind::Shenandoah, 2.0).expect("h2 is in the suite");
    let result = observed
        .outcome
        .as_ref()
        .expect("h2 runs at 2x heap under Shenandoah");
    assert!(result.telemetry().gc_count > 0, "the run collects");

    let json = observed.trace().to_json();
    let stats = validate_chrome_trace(&json).expect("document is well-formed");

    assert!(stats.spans_on("mutator") >= 1, "at least one mutator span");
    assert!(stats.spans_on("gc-stw") >= 1, "pause spans are present");
    assert!(
        stats.spans_on("gc-concurrent") >= 1,
        "concurrent cycles appear on their own track"
    );
    assert!(stats.total_events > 10, "the trace is not trivial");
}

#[test]
fn event_stream_and_metrics_agree_with_telemetry() {
    let observed = observe_benchmark("h2", CollectorKind::G1, 2.0).expect("h2 is in the suite");
    let result = observed.outcome.as_ref().expect("the run completes");
    let telemetry = result.telemetry();

    // The metrics observer saw every pause the telemetry recorded.
    let h = observed
        .metrics
        .get_histogram("pause_ns")
        .expect("pauses observed");
    assert_eq!(h.count(), telemetry.pause_histogram().count());
    assert_eq!(observed.metrics.counter("gc.trigger"), telemetry.gc_count);

    // Every JSONL line is valid JSON.
    let jsonl = observed.recorder.to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        chopin_obs::json::parse(line).expect("JSONL line parses");
    }
}

#[test]
fn harness_spans_merge_into_the_engine_trace() {
    let observed = observe_benchmark("fop", CollectorKind::G1, 2.0).expect("fop is in the suite");
    let mut trace = observed.trace();
    add_spans_to_trace(
        &mut trace,
        &[HarnessSpan {
            name: "sweep:fop".to_string(),
            start_us: 0.0,
            end_us: 1234.5,
        }],
    );
    let stats = validate_chrome_trace(&trace.to_json()).expect("merged document validates");
    assert_eq!(stats.spans_on("harness (wall time)"), 1);
    assert!(stats.spans_on("mutator") >= 1);
}
