//! Differential tests of the engine's batching fast-forward: a batched run
//! against the stepwise loop it stands in for.
//!
//! The engine never batches under a live fault clock, and an empty fault
//! plan perturbs nothing, so `run_with_faults(.., &FaultPlan::new(seed))`
//! is the stepwise reference for `run`. Every generated case sits in the
//! batching regime, and every case whose collector reclaims stop-the-world
//! must actually batch.
//!
//! Tolerance, fixed before the batch was rewritten to pass it:
//! * exact: wall time, wall minus STW, GC count, degenerate count and the
//!   pause histogram (every bucket, count, sum and max);
//! * relative [`TASK_RTOL`]: task clock and task clock minus STW CPU. A
//!   batch multiplies CPU deltas that the loop adds slice by slice, so the
//!   two sums may differ in their last bits.

use chopin_faults::FaultPlan;
use chopin_obs::{Event, Observer};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::config::RunConfig;
use chopin_runtime::engine::{run_with_faults, run_with_observer};
use chopin_runtime::spec::MutatorSpec;
use chopin_runtime::time::SimDuration;
use proptest::prelude::*;

/// Relative tolerance on the task clock and on task clock minus STW CPU.
const TASK_RTOL: f64 = 1e-9;

/// Counts the collections a run's batches fold.
#[derive(Default)]
struct BatchCounter {
    cycles: u64,
}

impl Observer for BatchCounter {
    fn record(&mut self, event: Event) {
        if let Event::BatchFastForward { cycles, .. } = event {
            self.cycles += cycles;
        }
    }
}

fn relative_gap(a: SimDuration, b: SimDuration) -> f64 {
    let (a, b) = (a.as_nanos() as f64, b.as_nanos() as f64);
    (a - b).abs() / b.max(1.0)
}

/// Run `spec` batched and stepwise and hold the batched run to the
/// tolerance. Returns the number of collections the batches folded.
fn batched_matches_stepwise(spec: &MutatorSpec, config: &RunConfig) -> Result<u64, TestCaseError> {
    let mut counter = BatchCounter::default();
    let batched = run_with_observer(spec, config, &mut counter)
        .map_err(|e| TestCaseError::Fail(format!("batched run failed: {e}")))?;
    let stepwise = run_with_faults(spec, config, &FaultPlan::new(config.seed()))
        .map_err(|e| TestCaseError::Fail(format!("stepwise run failed: {e}")))?;

    let (b, s) = (batched.telemetry(), stepwise.telemetry());
    prop_assert_eq!(batched.wall_time(), stepwise.wall_time(), "wall");
    prop_assert_eq!(
        batched.wall_minus_stw(),
        stepwise.wall_minus_stw(),
        "wall minus STW"
    );
    prop_assert_eq!(b.gc_count, s.gc_count, "GC count");
    prop_assert_eq!(b.degenerate_count, s.degenerate_count, "degenerate count");
    let (bh, sh) = (b.pause_histogram(), s.pause_histogram());
    prop_assert!(
        bh == sh,
        "pause histogram: count {} vs {}, sum {} vs {}, max {} vs {}, p50 {} vs {}",
        bh.count(),
        sh.count(),
        bh.sum(),
        sh.sum(),
        bh.max(),
        sh.max(),
        bh.p50(),
        sh.p50()
    );
    let task = relative_gap(batched.task_clock(), stepwise.task_clock());
    prop_assert!(
        task <= TASK_RTOL,
        "task clock {} vs {} (relative gap {task:e})",
        batched.task_clock(),
        stepwise.task_clock()
    );
    let distillable = relative_gap(
        batched.task_clock_minus_stw(),
        stepwise.task_clock_minus_stw(),
    );
    prop_assert!(
        distillable <= TASK_RTOL,
        "task clock minus STW {} vs {} (relative gap {distillable:e})",
        batched.task_clock_minus_stw(),
        stepwise.task_clock_minus_stw()
    );
    Ok(counter.cycles)
}

fn arb_collector() -> impl Strategy<Value = CollectorKind> {
    prop_oneof![
        Just(CollectorKind::Serial),
        Just(CollectorKind::Parallel),
        Just(CollectorKind::G1),
        Just(CollectorKind::Shenandoah),
        Just(CollectorKind::Zgc),
    ]
}

/// A workload and heap whose estimated collection count arms batching:
/// the allocation volume is a drawn multiple of the heap's headroom over
/// the live peak.
fn arb_batching_case() -> impl Strategy<Value = (MutatorSpec, RunConfig)> {
    (
        arb_collector(),
        1u32..24,    // threads
        0.2f64..1.0, // parallel efficiency
        50u64..400,  // work (ms)
        2u64..24,    // live peak (MB)
        0.0f64..0.2, // survival
        200u64..400, // heap, percent of the live peak's footprint
        70u64..120,  // estimated collections, thousands
        0u64..64,    // seed
    )
        .prop_map(
            |(collector, threads, pe, work_ms, live_mb, survival, heap_pct, kilo_gcs, seed)| {
                // The spec builder's default uncompressed inflation.
                let inflation = if collector.supports_compressed_oops() {
                    1.0
                } else {
                    1.35
                };
                let model = collector.model();
                let live = (live_mb << 20) as f64 * inflation;
                let heap = (live * heap_pct as f64 / 100.0) as u64;
                let headroom = heap as f64 * model.trigger_occupancy - live;
                let allocation = (kilo_gcs as f64 * 1000.0 * headroom / inflation) as u64;
                let spec = MutatorSpec::builder("batch-differential")
                    .threads(threads)
                    .parallel_efficiency(pe)
                    .total_work(SimDuration::from_millis(work_ms))
                    .total_allocation(allocation)
                    .live_range((live_mb / 2).max(1) << 20, live_mb << 20)
                    .survival_fraction(survival)
                    .build()
                    .expect("generated spec is valid");
                let config = RunConfig::new(heap, collector)
                    .with_seed(seed)
                    .with_noise(0.01);
                (spec, config)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_runs_match_stepwise_runs(case in arb_batching_case()) {
        let (spec, config) = case;
        let folded = batched_matches_stepwise(&spec, &config)?;
        // A period ends at a stop-the-world reclaim. Shenandoah and ZGC
        // reclaim concurrently, so without faults they never batch and
        // their batched run is the stepwise run itself.
        prop_assert_eq!(
            folded > 0,
            config.collector().is_generational(),
            "{} folded {} collections",
            config.collector(),
            folded
        );
    }
}

/// 512 GB of churn through a 12 MB Parallel heap: over 50,000 collections,
/// wall time dominated by pauses.
#[test]
fn a_thrashing_parallel_run_batches_and_matches_stepwise() {
    let spec = MutatorSpec::builder("engine-test")
        .threads(8)
        .parallel_efficiency(0.5)
        .total_work(SimDuration::from_millis(200))
        .total_allocation(512 << 30)
        .live_range(4 << 20, 8 << 20)
        .build_fraction(0.1)
        .survival_fraction(0.05)
        .build()
        .expect("spec is valid");
    let config = RunConfig::new(12 << 20, CollectorKind::Parallel).with_noise(0.0);
    let folded = batched_matches_stepwise(&spec, &config).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(folded > 0);
    let r = chopin_runtime::engine::run(&spec, &config).expect("completes");
    assert!(
        r.telemetry().gc_count > 50_000,
        "tiny heap thrash: {}",
        r.telemetry().gc_count
    );
    let pause_wall = r.telemetry().total_pause_wall();
    assert!(pause_wall > SimDuration::ZERO);
    assert!(r.wall_time() > pause_wall);
}
