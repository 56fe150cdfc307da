//! The negative corpus: deliberately broken specs, configurations and
//! registries, each asserting that the linter fires the exact rule id the
//! catalogue promises.
//!
//! The positive direction — the shipped suite and the harness presets lint
//! clean — is asserted by the crate's unit tests and the harness's
//! `shipped_presets_lint_clean`; these tests establish that a clean report
//! is meaningful, i.e. that every rule actually detects its defect.

use chopin_core::nominal::dataset::{NominalRow, Provenance, METRIC_COUNT};
use chopin_core::nominal::score::ScoredMetric;
use chopin_core::sweep::SweepConfig;
use chopin_faults::{FaultKind, FaultPlan, SupervisorPolicy};
use chopin_lint::{Diagnostic, Severity};
use chopin_obs::ObsConfig;
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::profile::WorkloadProfile;
use chopin_workloads::suite;

fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

/// A known-good latency-sensitive profile to mutate.
fn base_profile() -> WorkloadProfile {
    suite::by_name("cassandra").expect("cassandra is in the suite")
}

fn base_score() -> ScoredMetric {
    ScoredMetric {
        code: "AOA",
        value: 50.0,
        rank: 3,
        of: 22,
        score: 9,
        min: 10.0,
        median: 40.0,
        max: 100.0,
    }
}

#[test]
fn r101_missing_required_metric() {
    let row = NominalRow {
        benchmark: "broken",
        provenance: Provenance::Published,
        values: [None; METRIC_COUNT],
    };
    let diags = chopin_lint::rules::nominal::lint_rows(&[row]);
    assert!(ids(&diags).contains(&"R101"), "{diags:?}");
    // Only the optional GML/GMV cells escape the completeness rule.
    assert_eq!(diags.len(), METRIC_COUNT - 2, "{diags:?}");
}

#[test]
fn r102_negative_value_in_unsigned_column() {
    let mut values = [Some(1.0); METRIC_COUNT];
    values[0] = Some(-50.0); // AOA: allocation cannot be negative.
    let row = NominalRow {
        benchmark: "broken",
        provenance: Provenance::Published,
        values,
    };
    let diags = chopin_lint::rules::nominal::lint_rows(&[row]);
    assert_eq!(ids(&diags), vec!["R102"], "{diags:?}");
}

#[test]
fn r103_score_above_ten() {
    let table = [ScoredMetric {
        score: 11,
        ..base_score()
    }];
    let diags = chopin_lint::lint_score_table("broken", &table);
    assert_eq!(ids(&diags), vec!["R103"], "{diags:?}");
}

#[test]
fn r104_rank_zero() {
    let table = [ScoredMetric {
        rank: 0,
        ..base_score()
    }];
    let diags = chopin_lint::lint_score_table("broken", &table);
    assert_eq!(ids(&diags), vec!["R104"], "{diags:?}");
}

#[test]
fn r202_negative_dispersion() {
    let mut p = base_profile();
    p.requests.as_mut().expect("latency-sensitive").dispersion = -0.5;
    let diags = chopin_lint::lint_profile(&p);
    assert!(ids(&diags).contains(&"R202"), "{diags:?}");
}

#[test]
fn r203_more_workers_than_requests() {
    let mut p = base_profile();
    let r = p.requests.as_mut().expect("latency-sensitive");
    r.count = 8;
    r.workers = 32;
    let diags = chopin_lint::lint_profile(&p);
    assert!(ids(&diags).contains(&"R203"), "{diags:?}");
}

#[test]
fn r204_canonical_benchmark_without_requests() {
    let mut p = base_profile();
    p.requests = None;
    let diags = chopin_lint::lint_latency_set(&[p]);
    assert!(ids(&diags).contains(&"R204"), "{diags:?}");
}

#[test]
fn r205_small_heap_above_default() {
    let mut p = base_profile();
    p.min_heap_small_mb = p.min_heap_default_mb * 2.0;
    let diags = chopin_lint::lint_profile(&p);
    assert!(ids(&diags).contains(&"R205"), "{diags:?}");
}

#[test]
fn r205_uncompressed_below_default() {
    let mut p = base_profile();
    p.min_heap_uncompressed_mb = p.min_heap_default_mb - 1.0;
    let diags = chopin_lint::lint_profile(&p);
    assert!(ids(&diags).contains(&"R205"), "{diags:?}");
}

#[test]
fn r206_nonpositive_allocation_rate() {
    let mut p = base_profile();
    p.alloc_rate_mb_s = 0.0;
    let diags = chopin_lint::lint_profile(&p);
    assert!(ids(&diags).contains(&"R206"), "{diags:?}");
}

#[test]
fn r301_heap_factor_below_minimum() {
    let config = SweepConfig {
        heap_factors: vec![0.5, 2.0],
        ..SweepConfig::default()
    };
    let diags = chopin_lint::lint_sweep_config("broken", &config);
    assert!(ids(&diags).contains(&"R301"), "{diags:?}");
}

#[test]
fn r302_invalid_collector_coefficient() {
    let mut model = CollectorKind::G1.model();
    model.barrier_tax = -0.1;
    let diags = chopin_lint::lint_collector_model(&model);
    assert!(ids(&diags).contains(&"R302"), "{diags:?}");
}

#[test]
fn r303_zero_full_gc_period_is_a_dead_state() {
    let mut model = CollectorKind::Serial.model();
    model.full_gc_period = Some(0);
    let diags = chopin_lint::lint_collector_model(&model);
    assert!(ids(&diags).contains(&"R303"), "{diags:?}");
}

#[test]
fn r304_duplicate_heap_factors() {
    let config = SweepConfig {
        heap_factors: vec![2.0, 2.0, 6.0],
        ..SweepConfig::default()
    };
    let diags = chopin_lint::lint_sweep_config("broken", &config);
    assert!(ids(&diags).contains(&"R304"), "{diags:?}");
}

#[test]
fn r402_grid_never_reaches_generous_heaps() {
    let diags = chopin_lint::lint_lbo_grid("broken", &[1.25, 1.5, 2.0]);
    assert_eq!(ids(&diags), vec!["R402"], "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warn));
}

#[test]
fn r403_unsorted_percentiles() {
    let diags = chopin_lint::lint_percentiles("broken", &[50.0, 99.0, 90.0]);
    assert_eq!(ids(&diags), vec!["R403"], "{diags:?}");
}

#[test]
fn r403_percentile_one_hundred() {
    let diags = chopin_lint::lint_percentiles("broken", &[50.0, 100.0]);
    assert_eq!(ids(&diags), vec!["R403"], "{diags:?}");
}

#[test]
fn r404_zero_invocations() {
    let config = SweepConfig {
        invocations: 0,
        ..SweepConfig::default()
    };
    let diags = chopin_lint::lint_sweep_config("broken", &config);
    assert!(ids(&diags).contains(&"R404"), "{diags:?}");
}

#[test]
fn r501_truncated_registry() {
    let profiles: Vec<WorkloadProfile> = suite::all().into_iter().take(10).collect();
    let diags = chopin_lint::lint_registry(&profiles);
    assert!(ids(&diags).contains(&"R501"), "{diags:?}");
}

#[test]
fn r502_duplicate_name() {
    let mut profiles = suite::all();
    profiles[1] = profiles[0].clone();
    let diags = chopin_lint::lint_registry(&profiles);
    assert!(ids(&diags).contains(&"R502"), "{diags:?}");
}

#[test]
fn r503_unsorted_registry() {
    let mut profiles = suite::all();
    profiles.reverse();
    let diags = chopin_lint::lint_registry(&profiles);
    assert!(ids(&diags).contains(&"R503"), "{diags:?}");
}

#[test]
fn r505_dropped_latency_benchmark() {
    let mut profiles = suite::all();
    for p in &mut profiles {
        if p.name == "kafka" {
            p.requests = None;
        }
    }
    let diags = chopin_lint::lint_registry(&profiles);
    assert!(ids(&diags).contains(&"R505"), "{diags:?}");
}

#[test]
fn r601_trace_path_is_a_directory() {
    let config = ObsConfig {
        trace_out: Some("out/traces/".to_string()),
        ..ObsConfig::default()
    };
    let diags = chopin_lint::lint_obs_config("broken", &config);
    assert_eq!(ids(&diags), vec!["R601"], "{diags:?}");
}

#[test]
fn r601_empty_events_path() {
    let config = ObsConfig {
        events_out: Some(String::new()),
        ..ObsConfig::default()
    };
    let diags = chopin_lint::lint_obs_config("broken", &config);
    assert_eq!(ids(&diags), vec!["R601"], "{diags:?}");
}

#[test]
fn r701_unseeded_fault_plan() {
    let plan = FaultPlan::new(0).with_window(0, 1_000, FaultKind::ForceDegenerate);
    let diags = chopin_lint::lint_fault_plan("broken", &plan, None);
    assert_eq!(ids(&diags), vec!["R701"], "{diags:?}");
}

#[test]
fn r702_non_finite_spike_factor() {
    let plan = FaultPlan::new(1).with_window(
        0,
        1_000,
        FaultKind::AllocSpike {
            factor: f64::INFINITY,
        },
    );
    let diags = chopin_lint::lint_fault_plan("broken", &plan, None);
    assert_eq!(ids(&diags), vec!["R702"], "{diags:?}");
}

#[test]
fn r702_squeeze_fraction_of_one() {
    let plan = FaultPlan::new(1).with_window(0, 1_000, FaultKind::HeapSqueeze { fraction: 1.0 });
    let diags = chopin_lint::lint_fault_plan("broken", &plan, None);
    assert_eq!(ids(&diags), vec!["R702"], "{diags:?}");
}

#[test]
fn r703_window_beyond_the_horizon() {
    let plan = FaultPlan::new(1).with_window(0, 2_000, FaultKind::ForceDegenerate);
    let diags = chopin_lint::lint_fault_plan("broken", &plan, Some(1_000));
    assert_eq!(ids(&diags), vec!["R703"], "{diags:?}");
}

#[test]
fn r703_inverted_window() {
    let plan = FaultPlan::new(1).with_window(500, 100, FaultKind::ForceDegenerate);
    let diags = chopin_lint::lint_fault_plan("broken", &plan, None);
    assert_eq!(ids(&diags), vec!["R703"], "{diags:?}");
}

#[test]
fn r704_zero_backoff_base() {
    let policy = SupervisorPolicy {
        backoff_base_ms: 0,
        ..SupervisorPolicy::default()
    };
    let diags = chopin_lint::lint_supervisor_policy("broken", &policy);
    assert_eq!(ids(&diags), vec!["R704"], "{diags:?}");
}

#[test]
fn r704_inverted_backoff_bounds() {
    let policy = SupervisorPolicy {
        backoff_base_ms: 500,
        backoff_max_ms: 100,
        ..SupervisorPolicy::default()
    };
    let diags = chopin_lint::lint_supervisor_policy("broken", &policy);
    assert_eq!(ids(&diags), vec!["R704"], "{diags:?}");
}

#[test]
fn every_fired_rule_is_in_the_catalogue() {
    // Cross-check: each id asserted above resolves in the catalogue.
    for id in [
        "R101", "R102", "R103", "R104", "R202", "R203", "R204", "R205", "R206", "R301", "R302",
        "R303", "R304", "R402", "R403", "R404", "R501", "R502", "R503", "R505", "R601", "R701",
        "R702", "R703", "R704",
    ] {
        assert!(
            chopin_lint::rules::rule(id).is_some(),
            "{id} missing from RULES"
        );
    }
}
