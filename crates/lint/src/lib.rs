//! Static validation for the chopin reproduction: a multi-rule analysis
//! pass over every workload profile, mutator spec, collector model, sweep
//! preset and latency-methodology parameter set reachable from the shipped
//! suite — without executing the simulation engine.
//!
//! The paper's methodology results are only as good as the configuration
//! they run on: a workload whose published minimum heaps are inverted, a
//! sweep whose heap factor dips below 1x the minimum heap, or a percentile
//! axis containing 100 all produce plausible-looking but meaningless
//! figures. This crate turns those constraints into a rule catalogue
//! ([`rules::RULES`]) with stable ids, runs them in a pure pass
//! ([`lint_suite`]), and reports typed [`Diagnostic`]s that render as a
//! human table or machine-readable JSON (`artifact lint [--json]`).
//!
//! Rule families:
//!
//! * **R1xx** — nominal-statistic completeness/ranges across the 22
//!   benchmarks and 48 metrics ([`rules::nominal`]).
//! * **R2xx** — cross-field spec consistency, delegating to the runtime's
//!   own [`chopin_runtime::spec::MutatorSpec::validate`]
//!   ([`rules::spec`]).
//! * **R3xx** — heap/collector feasibility, including cycle state-machine
//!   reachability ([`rules::config`]).
//! * **R4xx** — methodology sanity: smoothing windows, LBO grids,
//!   percentile configurations ([`rules::methodology`]).
//! * **R5xx** — suite-registry invariants ([`rules::registry`]).
//! * **R6xx** — observability configuration: export paths, event-ring
//!   capacity, pause-histogram bounds ([`rules::obs`]).
//! * **R7xx** — fault-injection validity: seeded plans, bounded
//!   magnitudes, in-horizon windows, sane supervisor budgets
//!   ([`rules::faults`]).
//! * **R8xx** — plan pre-flight and artifact provenance, implemented by
//!   the `chopin-analyzer` crate against this catalogue.
//! * **R10xx** — source-level determinism and soundness over the
//!   workspace's own Rust code, implemented by the `chopin-srclint`
//!   crate against this catalogue (`artifact srclint`).
//!
//! # Examples
//!
//! ```
//! let report = chopin_lint::lint_suite();
//! assert!(!report.has_errors(), "{}", report.render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod diagnostic;
pub mod rules;

pub use diagnostic::{Diagnostic, LintReport, Severity};
pub use rules::config::{lint_collector_model, lint_collector_models, lint_sweep_config};
pub use rules::faults::{lint_fault_plan, lint_supervisor_policy};
pub use rules::methodology::{lint_lbo_grid, lint_percentiles, lint_smoothing};
pub use rules::nominal::lint_score_table;
pub use rules::obs::lint_obs_config;
pub use rules::registry::lint_registry;
pub use rules::spec::{lint_latency_set, lint_profile};
pub use rules::{render_catalogue, rule, RuleDef, RULES};

use chopin_core::sweep::SweepConfig;

/// Lint everything reachable from the shipped suite: the registry, every
/// profile, the nominal dataset and score tables, the collector models,
/// the core sweep configurations and the shipped percentile sets.
///
/// Pure: no simulation runs, no I/O — the pass inspects configuration
/// data only, so it is fast enough to gate CI.
pub fn lint_suite() -> LintReport {
    let profiles = chopin_workloads::suite::all();
    let mut diagnostics = Vec::new();

    // R5: the registry itself.
    diagnostics.extend(rules::registry::lint_registry(&profiles));

    // R2 + R4: every profile.
    diagnostics.extend(rules::spec::lint_latency_set(&profiles));
    for p in &profiles {
        diagnostics.extend(rules::spec::lint_profile(p));
        diagnostics.extend(rules::methodology::lint_smoothing(p));
    }

    // R1: the nominal dataset, score tables and rankings.
    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    diagnostics.extend(rules::nominal::lint_dataset(&names));

    // R3: the collector cost models and cycle state machines.
    diagnostics.extend(rules::config::lint_collector_models());

    // R3 + R4: the core sweep configurations.
    for (name, config) in [
        ("default", SweepConfig::default()),
        ("quick", SweepConfig::quick()),
    ] {
        diagnostics.extend(rules::config::lint_sweep_config(name, &config));
        diagnostics.extend(rules::methodology::lint_lbo_grid(
            name,
            &config.heap_factors,
        ));
    }

    // R4: the shipped percentile configurations.
    diagnostics.extend(rules::methodology::lint_shipped_percentiles());

    // R6: the default observability configuration.
    diagnostics.extend(rules::obs::lint_obs_config(
        "default",
        &chopin_obs::ObsConfig::default(),
    ));

    // R7: every shipped fault preset and the default supervisor policy.
    let horizon = chopin_workloads::faults::DEFAULT_HORIZON_NS;
    for name in chopin_workloads::faults::PRESET_NAMES {
        if let Some(plan) = chopin_workloads::faults::preset(name, 1, horizon) {
            diagnostics.extend(rules::faults::lint_fault_plan(name, &plan, Some(horizon)));
        }
    }
    diagnostics.extend(rules::faults::lint_supervisor_policy(
        "default",
        &chopin_faults::SupervisorPolicy::default(),
    ));

    LintReport::new(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_suite_lints_clean() {
        let report = lint_suite();
        assert!(
            report.diagnostics.is_empty(),
            "expected a clean suite:\n{}",
            report.render_table()
        );
    }

    #[test]
    fn catalogue_ids_are_unique_and_sorted() {
        // Numeric order, not lexicographic: R1001 follows R903.
        let numbers: Vec<u32> = RULES
            .iter()
            .map(|r| r.id[1..].parse().unwrap_or_else(|_| panic!("{}", r.id)))
            .collect();
        for pair in numbers.windows(2) {
            assert!(
                pair[0] < pair[1],
                "rule ids must be unique and in numeric id order: R{} then R{}",
                pair[0],
                pair[1]
            );
        }
    }
}
