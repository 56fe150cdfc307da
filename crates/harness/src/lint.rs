//! The `artifact lint` aggregator: static validation over everything the
//! harness can execute.
//!
//! [`chopin_lint::lint_suite`] covers the suite registry, every workload
//! profile, the nominal dataset, the collector models and the core sweep
//! configurations. This module extends that pass to the harness's own
//! preset configurations — the exact [`SweepConfig`]s and heap-factor
//! grids that `artifact lbo`, `artifact latency`, `artifact
//! kick-the-tires` and `artifact validate` execute — so a miscalibrated
//! preset fails CI without running a single simulation.

use chopin_core::sweep::SweepConfig;
use chopin_lint::LintReport;

/// The named sweep configurations the artifact presets execute.
pub fn preset_sweep_configs() -> Vec<(&'static str, SweepConfig)> {
    vec![
        ("preset:lbo", crate::presets::lbo_sweep_config()),
        ("preset:validate", crate::validate::scorecard_sweep_config()),
        ("preset:chaos", crate::presets::chaos_sweep_config()),
    ]
}

/// Run the full static-validation pass: the shipped suite plus every
/// harness preset configuration. Pure — nothing is simulated.
pub fn lint_all() -> LintReport {
    let mut diagnostics = chopin_lint::lint_suite().diagnostics;
    for (name, config) in preset_sweep_configs() {
        diagnostics.extend(chopin_lint::lint_sweep_config(name, &config));
        diagnostics.extend(chopin_lint::lint_lbo_grid(name, &config.heap_factors));
    }
    diagnostics.extend(chopin_lint::lint_lbo_grid(
        "preset:latency",
        &crate::presets::LATENCY_HEAP_FACTORS,
    ));
    diagnostics.extend(chopin_lint::lint_lbo_grid(
        "preset:kick-the-tires",
        &crate::presets::KICK_THE_TIRES_HEAP_FACTORS,
    ));
    // R6: the `artifact trace` default output configuration.
    diagnostics.extend(chopin_lint::lint_obs_config(
        "preset:trace",
        &chopin_obs::ObsConfig {
            trace_out: Some(crate::obs::DEFAULT_TRACE_OUT.to_string()),
            events_out: Some(crate::obs::DEFAULT_EVENTS_OUT.to_string()),
        },
    ));
    LintReport::new(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_lint_clean() {
        let report = lint_all();
        assert!(
            report.diagnostics.is_empty(),
            "expected clean presets:\n{}",
            report.render_table()
        );
    }

    #[test]
    fn preset_configs_are_named_uniquely() {
        let configs = preset_sweep_configs();
        let mut names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), configs.len());
    }
}
