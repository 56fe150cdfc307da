//! Static pre-flight analysis of experiment plans and artifact
//! provenance checking — the R8xx rule family.
//!
//! The paper's methodologies are easy to misconfigure in ways that only
//! surface hours into a sweep: a heap factor below what an
//! uncompressed-pointer collector needs, a fault window that never
//! fires, a supervisor deadline the plan cannot possibly meet, an
//! iteration count that times the JIT instead of the collector. All of
//! these are statically decidable from the plan. This crate compiles
//! every runnable configuration into a typed [`PlanIR`] and runs four
//! analyses over it ([`analyses`]): heap-interval feasibility (R801,
//! R802), methodology/warmup sufficiency (R803–R805), fault-window
//! reachability (R806, R807) and a wall-time cost model against the
//! supervisor budget (R808, R809).
//!
//! A second pass, [`provenance`], checks a results artifact (runbms CSV
//! or sweep journal) against the plan that claims to have produced it:
//! parseability (R810), identity — fingerprint, benchmarks, collectors,
//! factors, sample counts (R811) — measurement invariants (R812) and
//! coverage (R813).
//!
//! Findings surface through `chopin-lint`'s [`Diagnostic`]/[`LintReport`]
//! machinery — one registry, one severity model, one formatter — and the
//! harness exposes them as `artifact analyze [--check]` plus a default
//! pre-flight gate in all four binaries.
//!
//! # Examples
//!
//! ```
//! use chopin_analyzer::{analyze, demo};
//!
//! // A deliberately broken plan: one iteration times the cold start.
//! let plan = demo::demo_plan("demo:cold-start").unwrap();
//! let report = analyze(&plan);
//! assert!(report.has_errors());
//! assert!(report.diagnostics.iter().any(|d| d.rule == "R804"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analyses;
pub mod demo;
mod fingerprint;
mod ir;
pub mod provenance;

pub use fingerprint::{fingerprint_of, runner_fingerprint, sweep_fingerprint};
pub use ir::{BenchmarkIR, CellIR, Methodology, PlanIR};
pub use provenance::{check_provenance, parse_artifact, Artifact, ArtifactKind, ArtifactRow};

use chopin_lint::{Diagnostic, LintReport};

/// Run every static analysis over `plan` and collect the findings in
/// rule order (R801 first).
pub fn analyze(plan: &PlanIR) -> LintReport {
    let mut diagnostics = Vec::new();
    diagnostics.extend(analyses::heap::analyze(plan));
    diagnostics.extend(analyses::warmup::analyze(plan));
    diagnostics.extend(analyses::faults::analyze(plan));
    diagnostics.extend(analyses::cost::analyze(plan));
    diagnostics.extend(analyses::sandbox::analyze(plan));
    diagnostics.extend(analyses::fleet::analyze(plan));
    diagnostics.sort_by(|a, b| a.rule.cmp(b.rule).then_with(|| a.location.cmp(&b.location)));
    LintReport::new(diagnostics)
}

/// Check a raw artifact text against `plan`: parse it (R810) and run the
/// provenance pass (R811–R813).
pub fn analyze_artifact(plan: &PlanIR, text: &str) -> LintReport {
    match parse_artifact(text) {
        Ok(artifact) => LintReport::new(check_provenance(plan, &artifact)),
        Err(message) => LintReport::new(vec![Diagnostic::error(
            "R810",
            format!("{}:artifact", plan.location()),
            format!("unreadable artifact: {message}"),
        )
        .with_hint("provide a runbms CSV or a sweep journal produced by --journal".to_string())]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::sweep::SweepConfig;
    use chopin_faults::SupervisorPolicy;
    use chopin_workloads::suite;

    #[test]
    fn every_emitted_rule_is_in_the_shared_catalogue() {
        // The demos collectively exercise the analyses; every rule they
        // emit must exist in chopin-lint's registry with a matching
        // severity.
        for (name, _) in demo::DEMOS {
            let plan = demo::demo_plan(name).unwrap();
            for d in analyze(&plan).diagnostics {
                let def = chopin_lint::rule(d.rule)
                    .unwrap_or_else(|| panic!("{} not in the catalogue", d.rule));
                assert_eq!(def.severity, d.severity, "{}: severity drift", d.rule);
            }
        }
    }

    #[test]
    fn a_sane_plan_analyzes_without_errors() {
        let profiles = vec![suite::by_name("fop").unwrap()];
        let plan = PlanIR::compile(
            "sane",
            Methodology::Sweep,
            &profiles,
            SweepConfig::quick(),
            None,
            SupervisorPolicy::default(),
            false,
        )
        .unwrap();
        let report = analyze(&plan);
        assert!(!report.has_errors(), "{}", report.render_table());
    }
}
