//! The traced layer probes emit every per-layer metric, finite, on a
//! one-benchmark (`fop`) matrix, and their spans export as a valid trace.
//!
//! `harness = false`: the sandbox probe spawns this very executable as a
//! no-op worker, so `main` must hand over to the worker protocol first.

use chopin_sandbox::clock::WallSpan;
use chopin_sweepbench::layers::{chrome_trace, sample, trace_layers, worker_main, Matrix, Tracer};
use chopin_sweepbench::workloads::{BlockingPath, PER_LAYER};
use std::path::Path;
use std::sync::Arc;

fn main() {
    worker_main();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweepbench-layers");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let args: Vec<String> = ["-b", "fop", "--isolation", "thread"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let matrix = Matrix::from_args(&args).expect("fop is in the suite");
    assert_eq!(
        matrix.cells.len(),
        55,
        "1 benchmark x 5 collectors x 11 heap factors"
    );

    let tracer = Arc::new(Tracer::new(WallSpan::begin()));
    let exe = std::env::current_exe().expect("own executable");
    let report = trace_layers(
        &tracer,
        &matrix,
        BlockingPath::Runtime,
        1.0,
        0.001,
        &exe,
        &dir,
    )
    .expect("every layer sets up");
    assert!(
        report.failures.is_empty(),
        "layer checks failed: {:?}",
        report.failures
    );
    assert!(report.checks > 0);

    let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(
        names, expected,
        "probes emit every per-layer metric, in order"
    );
    for (name, value) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value} is not finite");
    }
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(value("supervisor.retries"), Some(0.0));
    assert!(value("runtime.invocations").is_some_and(|v| v > 0.0 && v <= 55.0 * 3.0));

    let spans = Arc::try_unwrap(tracer)
        .expect("probes release the tracer")
        .into_spans();
    let trace = chrome_trace(&spans).to_json();
    let stats = chopin_obs::validate_chrome_trace(&trace).expect("the trace validates");
    for layer in [
        "preflight",
        "supervisor",
        "runtime",
        "journal",
        "codec",
        "sandbox",
        "fleet.lease",
        "fleet.protocol",
        "fleet.merge",
    ] {
        let count = spans.iter().filter(|s| s.layer == layer).count();
        assert!(count > 0, "no {layer} spans");
        assert_eq!(stats.spans_on(layer), count, "track {layer}");
    }
    let sampled = sample(spans.clone(), 10);
    assert!(sampled.len() < spans.len());
    let stats_sampled = chopin_obs::validate_chrome_trace(&chrome_trace(&sampled).to_json())
        .expect("the sampled trace validates");
    assert_eq!(stats_sampled.spans_on("runtime"), 10);
    assert_eq!(
        stats_sampled.spans_by_track.len(),
        stats.spans_by_track.len()
    );

    let runtime: Vec<_> = spans.iter().filter(|s| s.layer == "runtime").collect();
    assert!(runtime
        .iter()
        .all(|s| s.cell.is_some() && s.parent.is_some()));
    assert_eq!(
        stats.instants_by_track.get("runtime").copied(),
        Some(runtime.len()),
        "every cell span is tagged with its cell id"
    );
    println!(
        "layers: {} metrics, {} spans, {} checks: ok",
        names.len(),
        spans.len(),
        report.checks
    );
}
