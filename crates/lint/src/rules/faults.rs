//! R7xx: fault-injection and resilient-execution validity — fault plans
//! are seeded and bounded, their windows lie inside the run horizon, and
//! supervisor retry/backoff/deadline budgets are positive and bounded.
//!
//! A malformed fault plan is worse than no fault plan: a zero seed makes
//! the chaos campaign unreproducible, an infinite spike factor turns the
//! run into nonsense, and a window past the run horizon silently never
//! fires, so the experiment "passes" without testing anything. R701–R703
//! are the one check of a [`FaultPlan`]; R704 mirrors
//! [`SupervisorPolicy::validate`]. Both run as static checks over every
//! shipped preset and policy, and report *every* violation rather than
//! the first, as a lint should.

use crate::diagnostic::Diagnostic;
use chopin_faults::{FaultPlan, SupervisorPolicy, MAX_WINDOWS};
use chopin_faults::{MAX_BACKOFF_MS, MAX_DEADLINE_MS, MAX_RETRIES_BOUND};

/// Lint one fault plan: R701 (non-empty plans carry a non-zero seed),
/// R702 (finite, in-range magnitudes), R703 (positive-duration windows
/// inside the horizon, bounded window count).
///
/// # Examples
///
/// ```
/// use chopin_faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(42).with_window(0, 1_000, FaultKind::ForceDegenerate);
/// assert!(chopin_lint::lint_fault_plan("ok", &plan, Some(1_000)).is_empty());
/// let unseeded = FaultPlan::new(0).with_window(0, 1_000, FaultKind::ForceDegenerate);
/// assert_eq!(chopin_lint::lint_fault_plan("bad", &unseeded, None)[0].rule, "R701");
/// ```
pub fn lint_fault_plan(name: &str, plan: &FaultPlan, horizon_ns: Option<u64>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // R701: seeded.
    if !plan.windows.is_empty() && plan.seed == 0 {
        out.push(
            Diagnostic::error(
                "R701",
                format!("faults:{name}:seed"),
                "non-empty fault plan has seed 0; the campaign would be unreproducible",
            )
            .with_hint("set an explicit non-zero seed (presets substitute FALLBACK_SEED)"),
        );
    }

    // R703: bounded window count.
    if plan.windows.len() > MAX_WINDOWS {
        out.push(
            Diagnostic::error(
                "R703",
                format!("faults:{name}:windows"),
                format!(
                    "{} windows exceed the {MAX_WINDOWS}-window cap",
                    plan.windows.len()
                ),
            )
            .with_hint("coarsen the storm: fewer windows with longer duty cycles"),
        );
    }

    for (i, w) in plan.windows.iter().enumerate() {
        let loc = format!("faults:{name}:windows[{i}]");
        // R702: magnitudes.
        if let Some(reason) = w.kind.magnitude_error() {
            out.push(
                Diagnostic::error("R702", loc.clone(), format!("{}: {reason}", w.kind.label()))
                    .with_hint("see FaultKind's documented magnitude ranges"),
            );
        }
        // R703: window shape and horizon.
        if w.end_ns <= w.start_ns {
            out.push(
                Diagnostic::error(
                    "R703",
                    loc,
                    format!(
                        "window [{}, {}) has no positive duration",
                        w.start_ns, w.end_ns
                    ),
                )
                .with_hint("end_ns must exceed start_ns"),
            );
        } else if let Some(h) = horizon_ns {
            if w.end_ns > h {
                out.push(
                    Diagnostic::error(
                        "R703",
                        loc,
                        format!("window ends at {} — beyond the run horizon {h}", w.end_ns),
                    )
                    .with_hint("a window past the horizon never fires; shrink it or drop it"),
                );
            }
        }
    }
    out
}

/// Lint one supervisor policy (R704): deadline, retry and backoff budgets
/// are positive and bounded.
///
/// # Examples
///
/// ```
/// use chopin_faults::SupervisorPolicy;
///
/// assert!(chopin_lint::lint_supervisor_policy("ok", &SupervisorPolicy::default()).is_empty());
/// let bad = SupervisorPolicy { backoff_base_ms: 0, ..SupervisorPolicy::default() };
/// assert_eq!(chopin_lint::lint_supervisor_policy("bad", &bad)[0].rule, "R704");
/// ```
pub fn lint_supervisor_policy(name: &str, policy: &SupervisorPolicy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let loc = |field: &str| format!("policy:{name}:{field}");

    match policy.cell_deadline_ms {
        Some(0) => out.push(
            Diagnostic::error(
                "R704",
                loc("cell_deadline_ms"),
                "cell deadline of 0ms would time out every attempt",
            )
            .with_hint("use None to disable the watchdog"),
        ),
        Some(d) if d > MAX_DEADLINE_MS => out.push(
            Diagnostic::error(
                "R704",
                loc("cell_deadline_ms"),
                format!("{d}ms exceeds the {MAX_DEADLINE_MS}ms bound"),
            )
            .with_hint("a cell that needs more than a day is a hang"),
        ),
        _ => {}
    }
    if policy.max_retries > MAX_RETRIES_BOUND {
        out.push(
            Diagnostic::error(
                "R704",
                loc("max_retries"),
                format!(
                    "{} retries exceed the {MAX_RETRIES_BOUND} bound",
                    policy.max_retries
                ),
            )
            .with_hint("a cell that fails this often belongs in quarantine"),
        );
    }
    if policy.backoff_base_ms == 0 {
        out.push(
            Diagnostic::error(
                "R704",
                loc("backoff_base_ms"),
                "backoff base of 0ms retries in a hot loop",
            )
            .with_hint("use a positive base delay"),
        );
    }
    if policy.backoff_max_ms < policy.backoff_base_ms {
        out.push(
            Diagnostic::error(
                "R704",
                loc("backoff_max_ms"),
                format!(
                    "ceiling {}ms is below the base delay {}ms",
                    policy.backoff_max_ms, policy.backoff_base_ms
                ),
            )
            .with_hint("raise the ceiling or lower the base"),
        );
    }
    if policy.backoff_max_ms > MAX_BACKOFF_MS {
        out.push(
            Diagnostic::error(
                "R704",
                loc("backoff_max_ms"),
                format!(
                    "ceiling {}ms exceeds the {MAX_BACKOFF_MS}ms bound",
                    policy.backoff_max_ms
                ),
            )
            .with_hint("five minutes of backoff is recovery; more is a hang with extra steps"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_faults::FaultKind;

    #[test]
    fn valid_plans_and_policies_are_clean() {
        let plan = FaultPlan::new(7)
            .with_window(0, 100, FaultKind::AllocSpike { factor: 4.0 })
            .with_storm(FaultKind::StallStorm { throttle: 0.1 }, 10_000, 4, 0.2);
        assert!(lint_fault_plan("ok", &plan, Some(10_000)).is_empty());
        assert!(lint_fault_plan("ok", &plan, None).is_empty());
        assert!(lint_supervisor_policy("ok", &SupervisorPolicy::default()).is_empty());
    }

    #[test]
    fn empty_plan_may_have_zero_seed() {
        assert!(lint_fault_plan("empty", &FaultPlan::new(0), None).is_empty());
    }

    #[test]
    fn lint_reports_every_violation_not_just_the_first() {
        // validate() stops at the first error; the lint keeps going.
        let plan = FaultPlan::new(0)
            .with_window(0, 100, FaultKind::AllocSpike { factor: f64::NAN })
            .with_window(50, 50, FaultKind::ForceDegenerate)
            .with_window(0, 2_000, FaultKind::ForceDegenerate);
        let diags = lint_fault_plan("multi", &plan, Some(1_000));
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["R701", "R702", "R703", "R703"], "{diags:?}");
    }

    #[test]
    fn policy_lint_mirrors_validate() {
        // Everything validate() rejects, the lint flags as R704 (and
        // vice versa: a clean lint implies a valid policy).
        let bad = SupervisorPolicy {
            cell_deadline_ms: Some(0),
            max_retries: MAX_RETRIES_BOUND + 1,
            backoff_base_ms: 0,
            backoff_max_ms: MAX_BACKOFF_MS + 1,
        };
        let diags = lint_supervisor_policy("bad", &bad);
        assert_eq!(diags.len(), 4, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "R704"));
        assert!(bad.validate().is_err());
    }
}
