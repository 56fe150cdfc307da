//! Deliberately broken demo plans: the negative corpus as runnable
//! artifacts.
//!
//! Each demo compiles a plan with exactly one class of defect, so
//! `artifact analyze --plan demo:...` demonstrates the corresponding
//! R80x error end to end, documentation can walk through a real failing
//! report, and integration tests can assert the exact rule IDs from the
//! command line.

use crate::ir::{Methodology, PlanIR};
use chopin_core::sweep::SweepConfig;
use chopin_faults::{FaultKind, FaultPlan, SupervisorPolicy};
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::{suite, SizeClass};

/// Every demo plan name, with the rule its defect trips.
pub const DEMOS: [(&str, &str); 9] = [
    ("demo:infeasible-heap", "R801"),
    ("demo:cold-start", "R804"),
    ("demo:dead-faults", "R806"),
    ("demo:deadline", "R808"),
    ("demo:latency-mismatch", "R803"),
    ("demo:hard-thread", "R903"),
    ("demo:idle-fleet", "R1201"),
    ("demo:lease-storm", "R1202"),
    ("demo:fleet-hard", "R1203"),
];

fn base_config() -> SweepConfig {
    SweepConfig {
        collectors: vec![CollectorKind::G1],
        heap_factors: vec![2.0],
        invocations: 1,
        iterations: 5,
        size: SizeClass::Default,
    }
}

fn compile(
    name: &str,
    methodology: Methodology,
    benchmark: &str,
    config: SweepConfig,
    faults: Option<FaultPlan>,
    policy: SupervisorPolicy,
) -> PlanIR {
    let profile = suite::by_name(benchmark)
        .unwrap_or_else(|| panic!("demo benchmark {benchmark} is in the suite"));
    match PlanIR::compile(name, methodology, &[profile], config, faults, policy, false) {
        Ok(plan) => plan,
        Err(e) => panic!("demo plan {name} must compile: {e}"),
    }
}

/// Build a demo plan by name; `None` for names not in [`DEMOS`].
///
/// # Examples
///
/// ```
/// let plan = chopin_analyzer::demo::demo_plan("demo:cold-start").unwrap();
/// let report = chopin_analyzer::analyze(&plan);
/// assert!(report.diagnostics.iter().any(|d| d.rule == "R804"));
/// ```
pub fn demo_plan(name: &str) -> Option<PlanIR> {
    let plan = match name {
        // biojava's GMU/GMD inflation (~1.97) makes every small factor
        // infeasible under an uncompressed-pointer-only collector.
        "demo:infeasible-heap" => compile(
            name,
            Methodology::Sweep,
            "biojava",
            SweepConfig {
                collectors: vec![CollectorKind::Zgc],
                heap_factors: vec![1.0, 1.25, 1.5],
                ..base_config()
            },
            None,
            SupervisorPolicy::default(),
        ),
        // One iteration times the cold start as steady state.
        "demo:cold-start" => compile(
            name,
            Methodology::Sweep,
            "fop",
            SweepConfig {
                iterations: 1,
                ..base_config()
            },
            None,
            SupervisorPolicy::default(),
        ),
        // The fault window opens ~11.6 simulated days in; no invocation
        // gets anywhere near it.
        "demo:dead-faults" => compile(
            name,
            Methodology::Sweep,
            "fop",
            base_config(),
            Some(FaultPlan::new(7).with_window(
                1_000_000_000_000_000,
                1_000_000_000_000_000 + 1_000_000_000,
                FaultKind::ForceDegenerate,
            )),
            SupervisorPolicy::default(),
        ),
        // Ten million invocations against a 1 ms cell deadline: the cost
        // lower bound alone exceeds the budget.
        "demo:deadline" => compile(
            name,
            Methodology::Sweep,
            "fop",
            SweepConfig {
                invocations: 10_000_000,
                ..base_config()
            },
            None,
            SupervisorPolicy {
                cell_deadline_ms: Some(1),
                ..SupervisorPolicy::default()
            },
        ),
        // fop has no request stream to meter.
        "demo:latency-mismatch" => compile(
            name,
            Methodology::Latency,
            "fop",
            base_config(),
            None,
            SupervisorPolicy::default(),
        ),
        // A SIGKILL storm under thread isolation: the first victim takes
        // the whole sweep down with it.
        "demo:hard-thread" => compile(
            name,
            Methodology::Sweep,
            "fop",
            SweepConfig {
                iterations: 9,
                ..base_config()
            },
            None,
            SupervisorPolicy::default(),
        )
        .with_hard_faults(Some(chopin_faults::HardFaultPlan::new(
            chopin_faults::HardFaultKind::Kill,
            chopin_faults::DEFAULT_HARD_SEED,
        ))),
        // Four workers for a single-cell matrix: three can never be fed.
        "demo:idle-fleet" => compile(
            name,
            Methodology::Sweep,
            "fop",
            base_config(),
            None,
            SupervisorPolicy::default(),
        )
        .with_fleet(Some(chopin_fleet::FleetPlan::new(4))),
        // A 1 ms cell deadline leaves a 2 ms lease over ten-million-
        // invocation cells: every lease must expire while its worker is
        // still legitimately computing. The lease derives from the cell
        // deadline, so R808 fires beside R1202.
        "demo:lease-storm" => compile(
            name,
            Methodology::Sweep,
            "fop",
            SweepConfig {
                invocations: 10_000_000,
                ..base_config()
            },
            None,
            SupervisorPolicy {
                cell_deadline_ms: Some(1),
                ..SupervisorPolicy::default()
            },
        )
        .with_fleet(Some(chopin_fleet::FleetPlan::new(1))),
        // Per-cell SIGKILLs inside a fleet: one victim cell takes its
        // whole worker (and every lease it holds) down.
        "demo:fleet-hard" => compile(
            name,
            Methodology::Sweep,
            "fop",
            base_config(),
            None,
            SupervisorPolicy::default(),
        )
        .with_fleet(Some(chopin_fleet::FleetPlan::new(1)))
        .with_hard_faults(Some(chopin_faults::HardFaultPlan::new(
            chopin_faults::HardFaultKind::Kill,
            chopin_faults::DEFAULT_HARD_SEED,
        ))),
        _ => return None,
    };
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_demo_trips_its_advertised_rule_as_an_error() {
        for (name, rule) in DEMOS {
            let plan = demo_plan(name).unwrap_or_else(|| panic!("{name} exists"));
            let report = crate::analyze(&plan);
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.rule == rule && d.severity == chopin_lint::Severity::Error),
                "{name} should trip {rule}:\n{}",
                report.render_table()
            );
        }
    }

    #[test]
    fn unknown_demo_is_none() {
        assert!(demo_plan("demo:nope").is_none());
        assert!(demo_plan("chaos").is_none());
    }
}
