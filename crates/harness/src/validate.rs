//! The reproduction scorecard: re-verify the paper's headline claims in
//! one command and report PASS/FAIL per claim.
//!
//! This is the executable form of EXPERIMENTS.md — where the integration
//! tests assert these properties for CI, this module measures them fresh
//! and prints what was found, so a reviewer can see the evidence behind
//! every checkmark (`artifact validate`).

use crate::experiments::LboExperiment;
use chopin_core::latency::{
    events_of, metered_latencies, simple_latencies, LatencyDistribution, SmoothingWindow,
};
use chopin_core::lbo::Clock;
use chopin_core::minheap::MinHeapSearch;
use chopin_core::nominal::suite_pca;
use chopin_core::sweep::SweepConfig;
use chopin_core::{BenchmarkRunner, Suite};
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::{suite, SizeClass};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One verified claim.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Short identifier (e.g. "fig1b-regression").
    pub id: &'static str,
    /// The paper's claim, paraphrased.
    pub claim: &'static str,
    /// What the reproduction measured.
    pub measured: String,
    /// Whether the claim's shape holds.
    pub pass: bool,
}

/// The coarse suite sweep the scorecard measures Figure 1 from. Exposed so
/// `artifact lint` can statically validate the exact configuration
/// `artifact validate` executes.
pub fn scorecard_sweep_config() -> SweepConfig {
    SweepConfig {
        collectors: CollectorKind::ALL.to_vec(),
        heap_factors: vec![1.5, 2.0, 3.0, 6.0],
        invocations: 1,
        iterations: 2,
        size: SizeClass::Default,
    }
}

/// Run the full scorecard. Takes a few seconds (a coarse suite sweep plus
/// the case studies).
pub fn run_scorecard() -> Vec<CheckResult> {
    let mut results = Vec::new();

    // --- Static validation ---------------------------------------------
    {
        let report = crate::lint::lint_all();
        results.push(CheckResult {
            id: "lint-clean",
            claim: "every shipped spec, collector model and preset passes static validation",
            measured: format!(
                "{} error(s), {} warning(s) across the {}-rule catalogue",
                report.error_count(),
                report.warn_count(),
                chopin_lint::RULES.len()
            ),
            pass: !report.has_errors(),
        });
    }

    // --- Figure 1: the suite-wide sweep -------------------------------
    let sweep = scorecard_sweep_config();
    let lbo = LboExperiment::run(&[], &sweep).expect("suite sweeps run");
    let task_geo = lbo.geomean(Clock::Task).expect("geomean");
    let wall_geo = lbo.geomean(Clock::Wall).expect("geomean");

    let at = |curves: &BTreeMap<CollectorKind, Vec<(f64, f64)>>,
              c: CollectorKind,
              x: f64|
     -> Option<f64> {
        curves
            .get(&c)?
            .iter()
            .find(|(f, _)| (*f - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    };

    {
        let vals: Vec<Option<f64>> = CollectorKind::ALL
            .iter()
            .map(|&c| at(&task_geo, c, 6.0))
            .collect();
        let ordered = vals.windows(2).all(|w| match (w[0], w[1]) {
            (Some(a), Some(b)) => a < b,
            _ => false,
        });
        results.push(CheckResult {
            id: "fig1b-regression",
            claim: "ordering collectors by introduction year orders CPU overhead (1998→2018 regression)",
            measured: format!(
                "task LBO at 6x: {}",
                CollectorKind::ALL
                    .iter()
                    .map(|&c| format!(
                        "{c} {:.3}",
                        at(&task_geo, c, 6.0).unwrap_or(f64::NAN)
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            pass: ordered,
        });
    }

    {
        let serial = at(&task_geo, CollectorKind::Serial, 6.0).unwrap_or(f64::NAN);
        results.push(CheckResult {
            id: "fig1b-floor",
            claim: "even the best case keeps a visible CPU overhead (paper: 15%)",
            measured: format!("Serial task LBO at 6x: {serial:.3}"),
            pass: serial > 1.03 && serial < 1.4,
        });
    }

    {
        let p = at(&wall_geo, CollectorKind::Parallel, 6.0).unwrap_or(f64::NAN);
        let g1 = at(&wall_geo, CollectorKind::G1, 6.0).unwrap_or(f64::NAN);
        let others_worse = [
            CollectorKind::Serial,
            CollectorKind::Shenandoah,
            CollectorKind::Zgc,
        ]
        .iter()
        .all(|&c| at(&wall_geo, c, 6.0).unwrap_or(0.0) > p.max(g1));
        results.push(CheckResult {
            id: "fig1a-winners",
            claim: "G1 and Parallel win the wall clock at generous heaps (paper: ~9%)",
            measured: format!("Parallel {p:.3}, G1 {g1:.3} at 6x"),
            pass: others_worse && p < 1.15 && g1 < 1.2,
        });
    }

    {
        let shen_small = at(&wall_geo, CollectorKind::Shenandoah, 2.0).unwrap_or(f64::NAN);
        results.push(CheckResult {
            id: "fig1-small-heaps",
            claim: "overheads exceed 2x at small heaps",
            measured: format!(
                "Shenandoah wall LBO at its smallest common multiple (2x): {shen_small:.3}; \
                 infeasible below"
            ),
            pass: shen_small > 1.5,
        });
    }

    {
        let zgc_points = task_geo
            .get(&CollectorKind::Zgc)
            .map(|v| v.len())
            .unwrap_or(0);
        let g1_points = task_geo
            .get(&CollectorKind::G1)
            .map(|v| v.len())
            .unwrap_or(0);
        results.push(CheckResult {
            id: "fig1-zgc-missing-points",
            claim:
                "ZGC cannot complete all 22 benchmarks at small multiples (uncompressed pointers)",
            measured: format!("ZGC has {zgc_points} geomean points vs G1's {g1_points}"),
            pass: zgc_points < g1_points,
        });
    }

    // --- Figure 5 case studies ----------------------------------------
    {
        let run = |c| {
            BenchmarkRunner::for_profile(suite::by_name("cassandra").expect("in suite"))
                .collector(c)
                .heap_factor(3.0)
                .iterations(2)
                .run_timed()
                .expect("completes")
        };
        let g1 = run(CollectorKind::G1);
        let zgc = run(CollectorKind::Zgc);
        let wall_ratio = zgc.wall_time().as_secs_f64() / g1.wall_time().as_secs_f64();
        let task_ratio = zgc.task_clock().as_secs_f64() / g1.task_clock().as_secs_f64();
        results.push(CheckResult {
            id: "fig5-cassandra",
            claim: "cassandra: concurrent collectors soak idle cores — task clock diverges from wall clock",
            measured: format!("ZGC/G1 at 3x: wall x{wall_ratio:.2}, task x{task_ratio:.2}"),
            pass: wall_ratio < 1.15 && task_ratio > wall_ratio + 0.1,
        });
    }

    {
        let run = |c| {
            BenchmarkRunner::for_profile(suite::by_name("lusearch").expect("in suite"))
                .collector(c)
                .heap_factor(2.0)
                .iterations(2)
                .run_timed()
                .expect("completes")
        };
        let parallel = run(CollectorKind::Parallel);
        let shen = run(CollectorKind::Shenandoah);
        let wall_ratio = shen.wall_time().as_secs_f64() / parallel.wall_time().as_secs_f64();
        let throttled = shen.telemetry().throttled_wall.as_nanos() > 0;
        results.push(CheckResult {
            id: "fig5-lusearch",
            claim: "lusearch: Shenandoah's pacer throttles 32 allocating threads — wall clock off the chart",
            measured: format!("Shen/Parallel wall at 2x: x{wall_ratio:.2}, pacer engaged: {throttled}"),
            pass: wall_ratio > 2.0 && throttled,
        });
    }

    // --- Figure 6: h2 latency ------------------------------------------
    {
        let suite_obj = Suite::chopin();
        let bench = suite_obj.benchmark("h2").expect("in suite");
        let spec = bench
            .profile()
            .to_spec(SizeClass::Default)
            .expect("default size")
            .expect("valid");
        let dist = |collector| {
            let timed = bench
                .runner()
                .collector(collector)
                .heap_factor(2.0)
                .iterations(2)
                .run_timed()
                .expect("completes");
            let events = events_of(&timed, spec.requests()).expect("events");
            (
                LatencyDistribution::from_durations(simple_latencies(&events)).expect("events"),
                LatencyDistribution::from_durations(metered_latencies(
                    &events,
                    SmoothingWindow::Full,
                ))
                .expect("events"),
            )
        };
        let (g1_simple, g1_metered) = dist(CollectorKind::G1);
        let (zgc_simple, _) = dist(CollectorKind::Zgc);
        let close = g1_metered.percentile(99.0) < g1_simple.percentile(99.0) * 2.0;
        let newer_worse = zgc_simple.percentile(90.0) > g1_simple.percentile(90.0);
        results.push(CheckResult {
            id: "fig6-h2",
            claim: "h2: metered ≈ simple latency, and the latency-oriented collectors do not deliver better latency",
            measured: format!(
                "G1 p99 simple {:.1}ms vs metered {:.1}ms; p90 ZGC {:.1}ms vs G1 {:.1}ms",
                g1_simple.percentile(99.0),
                g1_metered.percentile(99.0),
                zgc_simple.percentile(90.0),
                g1_simple.percentile(90.0)
            ),
            pass: close && newer_worse,
        });
    }

    // --- Figure 4: PCA ---------------------------------------------------
    {
        let (_, metrics, pca) = suite_pca().expect("pca fits");
        let c4 = pca.cumulative_explained_variance(4);
        results.push(CheckResult {
            id: "fig4-pca",
            claim: "the top four principal components explain >50% of suite variance (diversity)",
            measured: format!("{:.1}% over {} complete metrics", c4 * 100.0, metrics.len()),
            pass: c4 > 0.5 && c4 < 0.9,
        });
    }

    // --- H2: minimum heaps ----------------------------------------------
    {
        let fop = suite::by_name("fop").expect("in suite");
        let measured = MinHeapSearch::default().find(&fop).expect("found") as f64;
        let nominal = fop.min_heap_bytes(SizeClass::Default).expect("gmd") as f64;
        let ratio = measured / nominal;
        results.push(CheckResult {
            id: "h2-minheap",
            claim: "empirical minimum heaps track the published GMD statistics",
            measured: format!(
                "fop: measured {:.1} MB vs published {:.0} MB (x{ratio:.2})",
                measured / (1 << 20) as f64,
                nominal / (1 << 20) as f64
            ),
            pass: (0.75..=1.25).contains(&ratio),
        });
    }

    results
}

/// The scorecard's exit code: 1 when any headline claim failed, else 0.
pub fn scorecard_exit_code(results: &[CheckResult]) -> i32 {
    i32::from(results.iter().any(|r| !r.pass))
}

/// Render the scorecard as text.
pub fn render_scorecard(results: &[CheckResult]) -> String {
    let mut out = String::new();
    let passed = results.iter().filter(|r| r.pass).count();
    for r in results {
        let _ = writeln!(
            out,
            "[{}] {}\n      claim:    {}\n      measured: {}\n",
            if r.pass { "PASS" } else { "FAIL" },
            r.id,
            r.claim,
            r.measured
        );
    }
    let _ = writeln!(out, "{passed}/{} headline claims reproduced", results.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorecard_passes_every_check() {
        let results = run_scorecard();
        assert!(results.len() >= 9);
        let report = render_scorecard(&results);
        assert!(
            results.iter().all(|r| r.pass),
            "scorecard failures:\n{report}"
        );
        assert!(report.contains("headline claims reproduced"));
    }

    #[test]
    fn any_failed_claim_makes_the_scorecard_exit_one() {
        let check = |pass| CheckResult {
            id: "synthetic",
            claim: "a claim",
            measured: String::new(),
            pass,
        };
        assert_eq!(scorecard_exit_code(&[]), 0);
        assert_eq!(scorecard_exit_code(&[check(true), check(true)]), 0);
        assert_eq!(scorecard_exit_code(&[check(true), check(false)]), 1);
        assert_eq!(scorecard_exit_code(&[check(false)]), 1);
    }
}
