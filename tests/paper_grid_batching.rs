//! Differential check of the engine's batching on the paper's grid: each
//! cell runs through `BenchmarkRunner` once as shipped and once with a
//! fault plan whose only window opens at `u64::MAX - 1`.
//!
//! No run reaches that window, and the engine never batches under a live
//! fault clock, so the second run is the stepwise reference for the first.
//! The same comparison is the property that a plan with no reachable
//! windows changes nothing.
//!
//! Tolerance, fixed before the batch was rewritten to pass it: wall time,
//! wall minus STW, the degenerate count and the pause histogram (every
//! bucket, count, sum and max) exact; task clock and task clock minus STW
//! CPU within a relative [`TASK_RTOL`].

use chopin::core::sweep::PAPER_HEAP_FACTORS;
use chopin::core::{BenchmarkRunner, Suite};
use chopin::runtime::collector::CollectorKind;
use chopin::runtime::result::RunResult;
use chopin::runtime::time::SimDuration;
use chopin_faults::{FaultKind, FaultPlan};

/// Relative tolerance on the task clock and on task clock minus STW CPU.
const TASK_RTOL: f64 = 1e-9;

/// A plan whose only window no simulated run reaches.
fn unreachable_plan() -> FaultPlan {
    FaultPlan::new(1).with_window(
        u64::MAX - 1,
        u64::MAX,
        FaultKind::AllocSpike { factor: 2.0 },
    )
}

fn relative_gap(a: SimDuration, b: SimDuration) -> f64 {
    let (a, b) = (a.as_nanos() as f64, b.as_nanos() as f64);
    (a - b).abs() / b.max(1.0)
}

/// Where `batched` leaves the tolerance around `stepwise`, if anywhere.
fn disagreement(batched: &RunResult, stepwise: &RunResult) -> Option<String> {
    let task = relative_gap(batched.task_clock(), stepwise.task_clock());
    let distillable = relative_gap(
        batched.task_clock_minus_stw(),
        stepwise.task_clock_minus_stw(),
    );
    let ns = |d: SimDuration| d.as_nanos();
    let (b, s) = (batched.telemetry(), stepwise.telemetry());
    let (bh, sh) = (b.pause_histogram(), s.pause_histogram());
    if batched.wall_time() != stepwise.wall_time() {
        Some(format!(
            "wall {} vs {} ns",
            ns(batched.wall_time()),
            ns(stepwise.wall_time())
        ))
    } else if batched.wall_minus_stw() != stepwise.wall_minus_stw() {
        Some(format!(
            "wall minus STW {} vs {} ns",
            ns(batched.wall_minus_stw()),
            ns(stepwise.wall_minus_stw())
        ))
    } else if b.degenerate_count != s.degenerate_count {
        Some(format!(
            "degenerate count {} vs {}",
            b.degenerate_count, s.degenerate_count
        ))
    } else if bh != sh {
        Some(format!(
            "pause histogram: count {} vs {}, sum {} vs {}, max {} vs {}, p50 {} vs {} ns",
            bh.count(),
            sh.count(),
            bh.sum(),
            sh.sum(),
            bh.max(),
            sh.max(),
            bh.p50(),
            sh.p50()
        ))
    } else if task > TASK_RTOL {
        Some(format!(
            "task clock {} vs {} ns (relative gap {task:e})",
            ns(batched.task_clock()),
            ns(stepwise.task_clock())
        ))
    } else if distillable > TASK_RTOL {
        Some(format!(
            "task clock minus STW {} vs {} ns (relative gap {distillable:e})",
            ns(batched.task_clock_minus_stw()),
            ns(stepwise.task_clock_minus_stw())
        ))
    } else {
        None
    }
}

/// Compare every iteration of `runner`'s invocation with and without the
/// unreachable plan. An iteration that did not batch must be bit-identical
/// to its stepwise run; infeasible cells must fail the same way on both.
fn check(label: &str, runner: BenchmarkRunner, mismatches: &mut Vec<String>) {
    let batched = runner.clone().run().map_err(|e| e.to_string());
    let stepwise = runner
        .faults(unreachable_plan())
        .run()
        .map_err(|e| e.to_string());
    match (batched, stepwise) {
        (Ok(b), Ok(s)) => {
            for (i, (b, s)) in b.iterations().iter().zip(s.iterations()).enumerate() {
                // A batch replays pauses without recording them one by one.
                let unbatched = b.telemetry().pauses.len() == s.telemetry().pauses.len();
                let why = if unbatched {
                    (b != s).then(|| "not bit-identical, yet no batch fired".to_string())
                } else {
                    disagreement(b, s)
                };
                if let Some(why) = why {
                    mismatches.push(format!("{label} iteration {i}: {why}"));
                }
            }
        }
        (Err(b), Err(s)) if b == s => {}
        (b, s) => mismatches.push(format!("{label}: {b:?} vs {s:?}")),
    }
}

fn assert_none(mismatches: &[String]) {
    assert!(
        mismatches.is_empty(),
        "{} batched runs leave the tolerance around stepwise, e.g.:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(10)].join("\n")
    );
}

#[test]
fn every_paper_grid_cell_matches_its_stepwise_run() {
    let suite = Suite::chopin();
    let mut mismatches = Vec::new();
    for bench in suite.iter() {
        for collector in CollectorKind::ALL {
            for factor in PAPER_HEAP_FACTORS {
                let label = format!("{}/{collector}/{factor}x", bench.name());
                let runner = bench.runner().collector(collector).heap_factor(factor);
                check(&label, runner.seed(1), &mut mismatches);
            }
        }
    }
    assert_none(&mismatches);
}

/// The one paper-grid cell whose estimated collection count arms batching.
#[test]
fn lusearch_g1_at_the_minimum_heap_matches_stepwise_at_every_seed() {
    let suite = Suite::chopin();
    let bench = suite.benchmark("lusearch").expect("in suite");
    let mut mismatches = Vec::new();
    for seed in 1..=10 {
        let runner = bench
            .runner()
            .collector(CollectorKind::G1)
            .heap_factor(1.0)
            .seed(seed);
        check(
            &format!("lusearch/G1/1x seed {seed}"),
            runner,
            &mut mismatches,
        );
    }
    assert_none(&mismatches);
}
