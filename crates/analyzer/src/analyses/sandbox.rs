//! Process-isolation configuration analysis (rules R902, R903).
//!
//! The sandbox derives every resource limit per cell and watches each
//! worker with a fixed heartbeat ([`SandboxPolicy::default`]), so the
//! analyzer checks a plan against *exactly* what the sandbox will do:
//!
//! * **R902** — a heartbeat timeout at or above the cell deadline can
//!   never fire: the deadline watchdog always wins, so the wedge detector
//!   the operator thinks they have does not exist.
//! * **R903** — hard faults kill the host process; under thread isolation
//!   the first victim takes the whole sweep (and the journal's
//!   crash-safety promise) down with it.

use crate::ir::PlanIR;
use chopin_lint::Diagnostic;
use chopin_sandbox::{IsolationMode, SandboxPolicy};

/// Run the sandbox-configuration analysis.
pub fn analyze(plan: &PlanIR) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();

    if plan.hard_faults.is_some() && plan.isolation != IsolationMode::Process {
        diagnostics.push(
            Diagnostic::error(
                "R903",
                plan.location(),
                "the plan injects hard faults (process deaths) under thread isolation: \
                 the first victim kills the whole sweep instead of quarantining one cell"
                    .to_string(),
            )
            .with_hint("run with --isolation process, or drop --hard-faults".to_string()),
        );
    }

    if plan.isolation != IsolationMode::Process {
        return diagnostics;
    }

    let timeout_ms = SandboxPolicy::default().heartbeat_timeout_ms();
    if let Some(deadline_ms) = plan.policy.cell_deadline_ms {
        if timeout_ms >= deadline_ms {
            diagnostics.push(
                Diagnostic::error(
                    "R902",
                    plan.location(),
                    format!(
                        "the heartbeat timeout ({timeout_ms}ms) is not below the \
                         {deadline_ms}ms cell deadline: the deadline watchdog always \
                         fires first, so wedged cells are never detected as such"
                    ),
                )
                .with_hint(format!("raise --cell-deadline above {timeout_ms}ms")),
            );
        }
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::sweep::SweepConfig;
    use chopin_faults::{HardFaultKind, HardFaultPlan, SupervisorPolicy};
    use chopin_workloads::suite;

    fn base_plan() -> PlanIR {
        let profiles = vec![suite::by_name("fop").unwrap()];
        PlanIR::compile(
            "t",
            crate::Methodology::Sweep,
            &profiles,
            SweepConfig::quick(),
            None,
            SupervisorPolicy::default(),
            false,
        )
        .unwrap()
    }

    fn ids(diagnostics: &[Diagnostic]) -> Vec<&str> {
        diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_thread_and_process_plans_are_silent() {
        assert!(analyze(&base_plan()).is_empty());
        let process = base_plan().with_isolation(IsolationMode::Process);
        assert!(analyze(&process).is_empty());
    }

    #[test]
    fn r902_fires_when_the_heartbeat_cannot_beat_the_deadline() {
        let mut plan = base_plan().with_isolation(IsolationMode::Process);
        plan.policy.cell_deadline_ms = Some(500);
        // The timeout is 100ms x 10 = 1000ms >= the 500ms deadline.
        assert_eq!(ids(&analyze(&plan)), vec!["R902"]);
        plan.policy.cell_deadline_ms = Some(1_001);
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn r903_fires_for_hard_faults_without_process_isolation() {
        let plan = base_plan().with_hard_faults(Some(HardFaultPlan::new(HardFaultKind::Kill, 7)));
        assert_eq!(ids(&analyze(&plan)), vec!["R903"]);
        let fixed = plan.with_isolation(IsolationMode::Process);
        assert!(analyze(&fixed).is_empty());
    }
}
