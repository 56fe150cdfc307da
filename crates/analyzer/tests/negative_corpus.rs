//! The analyzer negative corpus: one deliberately broken fixture per R80x
//! rule, asserting the exact rule ID fires (and, for the errors, that the
//! report would fail the gate).

use chopin_analyzer::analyses::cost::{cell_cost_bound_s, SIM_RATE_CEILING};
use chopin_analyzer::{analyze, analyze_artifact, Methodology, PlanIR};
use chopin_core::sweep::SweepConfig;
use chopin_faults::{FaultKind, FaultPlan, SupervisorPolicy};
use chopin_lint::{LintReport, Severity};
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::{suite, SizeClass};

fn ids(report: &LintReport) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = report.diagnostics.iter().map(|d| d.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn compile(
    benchmarks: &[&str],
    methodology: Methodology,
    config: SweepConfig,
    faults: Option<FaultPlan>,
    policy: SupervisorPolicy,
    journalled: bool,
) -> PlanIR {
    let profiles: Vec<_> = benchmarks
        .iter()
        .map(|b| suite::by_name(b).unwrap_or_else(|| panic!("{b} in suite")))
        .collect();
    PlanIR::compile(
        "fixture",
        methodology,
        &profiles,
        config,
        faults,
        policy,
        journalled,
    )
    .unwrap()
}

fn small_config() -> SweepConfig {
    SweepConfig {
        collectors: vec![CollectorKind::G1],
        heap_factors: vec![2.0],
        invocations: 1,
        iterations: 5,
        size: SizeClass::Default,
    }
}

#[test]
fn r801_grid_with_no_feasible_cell_for_a_pair() {
    // biojava needs ~1.97x under ZGC; every offered factor is below that.
    let plan = compile(
        &["biojava"],
        Methodology::Sweep,
        SweepConfig {
            collectors: vec![CollectorKind::G1, CollectorKind::Zgc],
            heap_factors: vec![1.0, 1.5],
            ..small_config()
        },
        None,
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(report.has_errors());
    assert!(ids(&report).contains(&"R801"), "{}", report.render_table());
    let r801 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R801")
        .unwrap();
    assert!(r801.location.contains("biojava"), "{}", r801.location);
    assert!(r801.hint.is_some(), "R801 carries a fix-it hint");
}

#[test]
fn r802_individual_infeasible_cells_warn_only() {
    // With 4.0x in the grid the ZGC pair has feasible cells, so the small
    // factors degrade to expected missing data points.
    let plan = compile(
        &["biojava"],
        Methodology::Sweep,
        SweepConfig {
            collectors: vec![CollectorKind::Zgc],
            heap_factors: vec![1.0, 1.5, 4.0],
            ..small_config()
        },
        None,
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(!report.has_errors(), "{}", report.render_table());
    let r802 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R802")
        .expect("R802 fires");
    assert_eq!(r802.severity, Severity::Warn);
    assert!(r802.message.contains("2 of 3"), "{}", r802.message);
}

#[test]
fn r803_latency_methodology_on_batch_benchmark() {
    let plan = compile(
        &["fop", "lusearch"],
        Methodology::Latency,
        small_config(),
        None,
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(report.has_errors());
    let r803: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R803")
        .collect();
    // fop is batch; lusearch is latency-sensitive and must not fire.
    assert_eq!(r803.len(), 1, "{}", report.render_table());
    assert!(r803[0].location.contains("fop"));
}

#[test]
fn r804_single_iteration_times_the_cold_start() {
    let plan = compile(
        &["fop"],
        Methodology::Sweep,
        SweepConfig {
            iterations: 1,
            ..small_config()
        },
        None,
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert_eq!(ids(&report), vec!["R804"], "{}", report.render_table());
    assert!(report.has_errors());
}

#[test]
fn r804_is_skipped_for_the_informational_suite_run() {
    let plan = compile(
        &["fop"],
        Methodology::Suite,
        SweepConfig {
            iterations: 1,
            ..small_config()
        },
        None,
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(!ids(&report).contains(&"R804"), "{}", report.render_table());
}

#[test]
fn r805_underprovisioned_warmup_names_the_worst_offender() {
    // jython's PWU is the suite's slowest warmup; 5 iterations time
    // iteration 4, still far above the 1.5% threshold.
    let plan = compile(
        &["fop", "jython"],
        Methodology::Sweep,
        small_config(),
        None,
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(!report.has_errors(), "{}", report.render_table());
    let r805 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R805")
        .expect("R805 fires");
    assert_eq!(r805.severity, Severity::Warn);
    assert!(r805.location.contains("jython"), "{}", r805.location);
    assert!(
        r805.hint.as_deref().unwrap_or("").contains("iterations"),
        "{:?}",
        r805.hint
    );
}

#[test]
fn r806_unreachable_fault_window() {
    let plan = compile(
        &["fop"],
        Methodology::Sweep,
        small_config(),
        Some(FaultPlan::new(7).with_window(
            u64::MAX / 4,
            u64::MAX / 4 + 1_000,
            FaultKind::ForceDegenerate,
        )),
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(report.has_errors());
    assert!(ids(&report).contains(&"R806"), "{}", report.render_table());
}

#[test]
fn r807_blanket_faults_warn() {
    // One window covering an hour of simulated time blankets any
    // invocation of fop.
    let plan = compile(
        &["fop"],
        Methodology::Sweep,
        small_config(),
        Some(FaultPlan::new(7).with_window(
            0,
            3_600_000_000_000,
            FaultKind::GcSlowdown { factor: 2.0 },
        )),
        SupervisorPolicy::default(),
        false,
    );
    let report = analyze(&plan);
    assert!(!report.has_errors(), "{}", report.render_table());
    let r807 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R807")
        .expect("R807 fires");
    assert_eq!(r807.severity, Severity::Warn);
}

#[test]
fn r806_not_triggered_by_shipped_presets() {
    let horizon = chopin_workloads::faults::DEFAULT_HORIZON_NS;
    for name in chopin_workloads::faults::PRESET_NAMES {
        let plan = compile(
            &["fop"],
            Methodology::Sweep,
            small_config(),
            chopin_workloads::faults::preset(name, 1, horizon),
            SupervisorPolicy::default(),
            false,
        );
        let report = analyze(&plan);
        assert!(
            !report.has_errors(),
            "preset {name} should pass pre-flight:\n{}",
            report.render_table()
        );
    }
}

#[test]
fn r808_deadline_violating_plan() {
    let plan = compile(
        &["fop"],
        Methodology::Sweep,
        SweepConfig {
            invocations: 10_000_000,
            ..small_config()
        },
        None,
        SupervisorPolicy {
            cell_deadline_ms: Some(1),
            ..SupervisorPolicy::default()
        },
        false,
    );
    let report = analyze(&plan);
    assert!(report.has_errors());
    assert!(ids(&report).contains(&"R808"), "{}", report.render_table());
}

#[test]
fn r808_costs_a_cell_by_its_timed_iteration_alone() {
    // A deadline between the timed iteration's bound and the bound of
    // all five iterations: a sweep cell simulates only the timed one
    // per invocation, so the plan runs and R808 stays silent.
    let config = SweepConfig {
        invocations: 1_000_000,
        ..small_config()
    };
    let plan_with = |cell_deadline_ms| {
        compile(
            &["fop"],
            Methodology::Sweep,
            config.clone(),
            None,
            SupervisorPolicy {
                cell_deadline_ms,
                ..SupervisorPolicy::default()
            },
            false,
        )
    };
    let fop = &plan_with(None).benchmarks[0];
    let timed_ms = cell_cost_bound_s(fop, &config) * 1e3;
    let summed_ms = f64::from(config.invocations) * fop.est_invocation_s(config.iterations)
        / SIM_RATE_CEILING
        * 1e3;
    let deadline_ms = ((timed_ms + summed_ms) / 2.0) as u64;
    assert!(
        timed_ms < deadline_ms as f64 && (deadline_ms as f64) < summed_ms,
        "{timed_ms} ms < {deadline_ms} ms < {summed_ms} ms"
    );
    let report = analyze(&plan_with(Some(deadline_ms)));
    assert!(!ids(&report).contains(&"R808"), "{}", report.render_table());
}

#[test]
fn r809_unjournalled_marathon_warns_and_journalling_silences_it() {
    let config = SweepConfig {
        collectors: CollectorKind::ALL.to_vec(),
        heap_factors: vec![2.0, 4.0],
        invocations: u32::MAX,
        iterations: 5,
        size: SizeClass::Default,
    };
    let bare = compile(
        &["jython"],
        Methodology::Sweep,
        config.clone(),
        None,
        SupervisorPolicy {
            cell_deadline_ms: None,
            ..SupervisorPolicy::default()
        },
        false,
    );
    let report = analyze(&bare);
    let r809 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R809")
        .expect("R809 fires");
    assert_eq!(r809.severity, Severity::Warn);
    let journalled = compile(
        &["jython"],
        Methodology::Sweep,
        config,
        None,
        SupervisorPolicy {
            cell_deadline_ms: None,
            ..SupervisorPolicy::default()
        },
        true,
    );
    assert!(!ids(&analyze(&journalled)).contains(&"R809"));
}

// ---- provenance fixtures ----

fn sane_plan() -> PlanIR {
    compile(
        &["fop"],
        Methodology::Sweep,
        SweepConfig {
            collectors: vec![CollectorKind::G1],
            heap_factors: vec![2.0],
            invocations: 1,
            iterations: 2,
            size: SizeClass::Default,
        },
        None,
        SupervisorPolicy::default(),
        false,
    )
}

const HEADER: &str =
    "benchmark,collector,heap_factor,wall_s,task_s,wall_distillable_s,task_distillable_s";

#[test]
fn r810_unparseable_artifact() {
    let report = analyze_artifact(&sane_plan(), "this is not a results file\n1,2,3\n");
    assert_eq!(ids(&report), vec!["R810"]);
    assert!(report.has_errors());
}

#[test]
fn r811_journal_fingerprint_mismatch() {
    let journal =
        "{\"journal\":\"chopin-sweep\",\"version\":1,\"fingerprint\":\"00000000deadbeef\"}\n";
    let report = analyze_artifact(&sane_plan(), journal);
    assert!(ids(&report).contains(&"R811"), "{}", report.render_table());
    assert!(report.has_errors());
    let fp = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R811")
        .unwrap();
    assert!(fp.message.contains("deadbeef"), "{}", fp.message);
}

#[test]
fn r811_foreign_rows_and_overfull_cells() {
    let plan = sane_plan();
    // pmd was never in the plan; Zgc and 6x were never swept; the G1/2.0
    // cell has two samples against one planned invocation.
    let csv = format!(
        "{HEADER}\n\
         pmd,G1,2,1.0,2.0,0.9,1.8\n\
         fop,ZGC*,2,1.0,2.0,0.9,1.8\n\
         fop,G1,6,1.0,2.0,0.9,1.8\n\
         fop,G1,2,1.0,2.0,0.9,1.8\n\
         fop,G1,2,1.1,2.1,0.9,1.8\n"
    );
    let report = analyze_artifact(&plan, &csv);
    assert!(report.has_errors());
    let r811_count = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R811")
        .count();
    assert_eq!(r811_count, 4, "{}", report.render_table());
}

#[test]
fn r812_violated_measurement_invariants() {
    // Distillable exceeds total: impossible for a genuine run.
    let csv = format!("{HEADER}\nfop,G1,2,1.0,2.0,1.5,1.8\n");
    let report = analyze_artifact(&sane_plan(), &csv);
    assert!(report.has_errors());
    assert_eq!(ids(&report), vec!["R812"], "{}", report.render_table());
}

#[test]
fn r813_incomplete_artifact_warns() {
    // Header only: every feasible planned cell is missing.
    let report = analyze_artifact(&sane_plan(), &format!("{HEADER}\n"));
    assert!(!report.has_errors(), "{}", report.render_table());
    let r813 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R813")
        .expect("R813 fires");
    assert_eq!(r813.severity, Severity::Warn);
    assert!(r813.hint.as_deref().unwrap_or("").contains("resume"));
}

/// A journal of `sane_plan()`: its header, then `lines`.
fn sane_journal(lines: &[&str]) -> String {
    let mut journal = format!(
        "{{\"journal\":\"chopin-sweep\",\"version\":1,\"fingerprint\":\"{:016x}\"}}\n",
        sane_plan().resume_fingerprint()
    );
    for line in lines {
        journal.push_str(line);
    }
    journal
}

const SANE_ENTRY: &str = "{\"benchmark\":\"fop\",\"collector\":\"G1\",\"heap_factor\":2.0,\
    \"samples\":[{\"collector\":\"G1\",\"heap_factor\":2.0,\"wall_s\":1.0,\"task_s\":2.0,\
    \"wall_distillable_s\":0.9,\"task_distillable_s\":1.8}],\"infeasible\":null}\n";

#[test]
fn a_journal_s_quarantine_lines_are_missing_data_not_unreadable() {
    let quarantine = "{\"quarantined\":{\"benchmark\":\"fop\",\"collector\":\"G1\",\
        \"heap_factor\":2.0},\"attempts\":3,\"reason\":{\"kind\":\"signalled\",\"signal\":9}}\n";
    let report = analyze_artifact(&sane_plan(), &sane_journal(&[quarantine]));
    assert_eq!(ids(&report), vec!["R813"], "{}", report.render_table());
    assert!(!report.has_errors());

    let report = analyze_artifact(&sane_plan(), &sane_journal(&[quarantine, SANE_ENTRY]));
    assert!(report.diagnostics.is_empty(), "{}", report.render_table());
}

#[test]
fn a_journal_s_torn_last_line_is_ignored() {
    // Half an append after a committed entry: never committed, ignored.
    let torn = &SANE_ENTRY[..SANE_ENTRY.len() / 2];
    let report = analyze_artifact(&sane_plan(), &sane_journal(&[SANE_ENTRY, torn]));
    assert!(report.diagnostics.is_empty(), "{}", report.render_table());

    // A whole line still lacking its newline did not commit either: the
    // cell is missing, not unreadable.
    let uncommitted = SANE_ENTRY.trim_end_matches('\n');
    let report = analyze_artifact(&sane_plan(), &sane_journal(&[uncommitted]));
    assert_eq!(ids(&report), vec!["R813"], "{}", report.render_table());
}

#[test]
fn a_faithful_artifact_passes_provenance() {
    let csv = format!("{HEADER}\nfop,G1,2,1.0,2.0,0.9,1.8\n");
    let report = analyze_artifact(&sane_plan(), &csv);
    assert!(report.diagnostics.is_empty(), "{}", report.render_table());
}

#[test]
fn r902_heartbeat_timeout_at_or_above_the_deadline() {
    use chopin_sandbox::IsolationMode;
    let plan = compile(
        &["fop"],
        Methodology::Sweep,
        SweepConfig {
            iterations: 9,
            ..small_config()
        },
        None,
        SupervisorPolicy {
            // The fixed heartbeat timeout is 100ms x 10 = 1000ms: equal
            // to the deadline, it can never fire first.
            cell_deadline_ms: Some(1_000),
            ..SupervisorPolicy::default()
        },
        false,
    )
    .with_isolation(IsolationMode::Process);
    let report = analyze(&plan);
    assert!(report.has_errors());
    assert_eq!(ids(&report), vec!["R902"], "{}", report.render_table());
    let r902 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R902")
        .unwrap();
    assert!(
        r902.hint
            .as_deref()
            .unwrap_or("")
            .contains("--cell-deadline"),
        "R902 carries a fix-it hint"
    );
}

#[test]
fn r903_hard_faults_under_thread_isolation() {
    use chopin_faults::{HardFaultKind, HardFaultPlan};
    let plan = compile(
        &["fop"],
        Methodology::Sweep,
        SweepConfig {
            iterations: 9,
            ..small_config()
        },
        None,
        SupervisorPolicy::default(),
        false,
    )
    .with_hard_faults(Some(HardFaultPlan::new(
        HardFaultKind::Kill,
        chopin_faults::DEFAULT_HARD_SEED,
    )));
    let report = analyze(&plan);
    assert!(report.has_errors());
    assert_eq!(ids(&report), vec!["R903"], "{}", report.render_table());
    let r903 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "R903")
        .unwrap();
    assert!(
        r903.hint
            .as_deref()
            .unwrap_or("")
            .contains("--isolation process"),
        "R903 carries a fix-it hint"
    );
}
