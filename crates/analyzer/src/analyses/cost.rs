//! The plan cost model (rules R808, R809).
//!
//! The analyses cannot know how fast the simulator executes on the host,
//! but they can bound it: [`SIM_RATE_CEILING`] is a documented optimistic
//! upper limit on simulated seconds per real second, so every estimate
//! derived from it is a certain *lower* bound on real cost. A cell whose
//! lower-bound cost already exceeds the supervisor's per-cell deadline
//! must quarantine — running the plan can only waste its whole retry
//! budget (an error). A sweep whose total lower-bound cost exceeds a day
//! without a crash-safe journal risks losing everything to a single
//! interruption (a warning).

use crate::ir::{BenchmarkIR, PlanIR};
use chopin_core::sweep::SweepConfig;
use chopin_lint::Diagnostic;

/// Optimistic ceiling on simulator speed, in simulated seconds per real
/// second. Measured throughput is orders of magnitude lower; the ceiling
/// exists so cost estimates are certain lower bounds rather than guesses.
pub const SIM_RATE_CEILING: f64 = 1e6;

/// Real seconds in the unjournalled-sweep warning threshold (24 hours).
const JOURNAL_THRESHOLD_S: f64 = 86_400.0;

/// Certain lower bound on one sweep cell's real cost, in seconds: its
/// invocations, each simulating only the timed iteration, at the
/// optimistic [`SIM_RATE_CEILING`]. Rules R808, R809 and R1202 judge
/// it, and the process sandbox scales it into its RLIMIT_CPU backstop.
pub fn cell_cost_bound_s(benchmark: &BenchmarkIR, config: &SweepConfig) -> f64 {
    f64::from(config.invocations) * benchmark.est_timed_iteration_s(config.iterations)
        / SIM_RATE_CEILING
}

/// [`cell_cost_bound_s`] of each of the plan's benchmarks, indexed like
/// [`PlanIR::benchmarks`]: every cell of a benchmark costs the same.
pub(crate) fn cell_cost_bounds_s(plan: &PlanIR) -> Vec<f64> {
    plan.benchmarks
        .iter()
        .map(|b| cell_cost_bound_s(b, &plan.config))
        .collect()
}

/// Run the cost-model analysis.
pub fn analyze(plan: &PlanIR) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let cells = plan.cells();
    let bounds = cell_cost_bounds_s(plan);
    let mut total_real_s = 0.0;
    let mut worst: Option<(usize, f64)> = None;
    for (i, cell) in cells.iter().enumerate() {
        if !cell.feasible {
            continue;
        }
        let cell_real_s = bounds[cell.benchmark];
        total_real_s += cell_real_s;
        if worst.is_none_or(|(_, w)| cell_real_s > w) {
            worst = Some((i, cell_real_s));
        }
    }

    if let (Some((i, cell_real_s)), Some(deadline_ms)) = (worst, plan.policy.cell_deadline_ms) {
        let deadline_s = deadline_ms as f64 / 1e3;
        if cell_real_s > deadline_s {
            let cell = &cells[i];
            let b = &plan.benchmarks[cell.benchmark];
            diagnostics.push(
                Diagnostic::error(
                    "R808",
                    format!("{}:{}/{}", plan.location(), b.name, cell.collector),
                    format!(
                        "cell cost lower bound ({cell_real_s:.1}s even at the optimistic \
                         {SIM_RATE_CEILING:.0e} sim-s/s ceiling) exceeds the {deadline_s:.3}s \
                         cell deadline: the supervisor must quarantine it"
                    ),
                )
                .with_hint(
                    "raise --cell-deadline (0 disables the watchdog) or reduce \
                     invocations/iterations"
                        .to_string(),
                ),
            );
        }
    }

    if total_real_s > JOURNAL_THRESHOLD_S && !plan.journalled {
        diagnostics.push(
            Diagnostic::warn(
                "R809",
                plan.location(),
                format!(
                    "the sweep costs at least {:.1}h of real time and runs without a \
                     journal: an interruption loses all completed cells",
                    total_real_s / 3_600.0
                ),
            )
            .with_hint("add --journal PATH (and --resume after interruptions)".to_string()),
        );
    }
    diagnostics
}
