//! User-experienced latency on a latency-sensitive workload: simple vs
//! metered latency (§4.4), demonstrating why GC pauses are a poor proxy
//! (recommendations L1/L2).
//!
//! ```text
//! cargo run --release --example latency_analysis
//! ```

use chopin::core::latency::{
    events_of, metered_latencies, simple_latencies, LatencyDistribution, SmoothingWindow,
};
use chopin::core::Suite;
use chopin::runtime::collector::CollectorKind;
use chopin::runtime::time::SimDuration;
use chopin::workloads::SizeClass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = Suite::chopin();
    let bench = suite.benchmark("h2").expect("h2 is in the suite");
    let spec = bench
        .profile()
        .to_spec(SizeClass::Default)
        .expect("default size")?;

    for collector in [CollectorKind::Parallel, CollectorKind::Zgc] {
        let runs = bench
            .runner()
            .collector(collector)
            .heap_factor(2.0)
            .iterations(2)
            .run()?;
        let timed = runs.timed();
        let events = events_of(timed, spec.requests()).expect("h2 is latency-sensitive");

        println!("\n== h2 with {collector} at 2.0x heap ==");
        println!(
            "GC pauses: {} pauses, max {} (the *proxy* the paper warns against)",
            timed.telemetry().pause_histogram().count(),
            timed
                .telemetry()
                .max_pause()
                .map(|p| p.to_string())
                .unwrap_or_else(|| "none".into())
        );
        for (name, window) in [
            ("simple latency", SmoothingWindow::None),
            (
                "metered latency (100ms)",
                SmoothingWindow::Duration(SimDuration::from_millis(100)),
            ),
            ("metered latency (full)", SmoothingWindow::Full),
        ] {
            let latencies = match window {
                SmoothingWindow::None => simple_latencies(&events),
                w => metered_latencies(&events, w),
            };
            let dist = LatencyDistribution::from_durations(latencies).expect("events exist");
            print!("{name:<26}");
            for (p, ms) in dist.report() {
                print!("  p{p}: {ms:.2}ms");
            }
            println!();
        }
    }
    Ok(())
}
