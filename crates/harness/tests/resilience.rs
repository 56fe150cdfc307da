//! End-to-end resilience guarantees: a suite killed mid-run by an
//! injected panic, or a `runbms` process SIGKILLed mid-sweep, and then
//! resumed from its journal produces a results CSV byte-identical to an
//! uninterrupted run, and every collector survives the chaos fault
//! preset with the measurement invariants (time conservation, LBO ≥ 1)
//! intact or lands in quarantine with a structured reason — never a
//! harness abort.

use chopin_core::lbo::{Clock, LboAnalysis};
use chopin_core::sweep::{SweepConfig, SweepResult};
use chopin_faults::SupervisorPolicy;
use chopin_harness::supervisor::{
    Cell, CellFailure, CellOutcome, CellRunner, SuiteSupervisor, SuperviseError, SweepCellRunner,
};
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::{faults, suite, SizeClass, WorkloadProfile};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chopin-resilience-{tag}-{}", std::process::id()))
}

fn small_config() -> SweepConfig {
    SweepConfig {
        collectors: vec![CollectorKind::G1, CollectorKind::Parallel],
        heap_factors: vec![2.0, 3.0],
        invocations: 1,
        iterations: 1,
        size: SizeClass::Default,
    }
}

fn fast_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        cell_deadline_ms: Some(60_000),
        max_retries: 1,
        backoff_base_ms: 1,
        backoff_max_ms: 2,
    }
}

/// The runbms CSV, rendered from supervised results.
fn render_csv(results: &[SweepResult]) -> String {
    let mut csv = String::from(
        "benchmark,collector,heap_factor,wall_s,task_s,wall_distillable_s,task_distillable_s\n",
    );
    for result in results {
        for s in &result.samples {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                result.benchmark,
                s.collector,
                s.heap_factor,
                s.wall_s,
                s.task_s,
                s.wall_distillable_s,
                s.task_distillable_s
            ));
        }
    }
    csv
}

/// Delegates to the real cell runner but panics persistently on one
/// victim cell — the injected mid-suite kill.
struct PanicOn {
    inner: SweepCellRunner,
    victim: (CollectorKind, f64),
}

impl CellRunner for PanicOn {
    fn run_cell(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure> {
        if cell.collector == self.victim.0 && cell.heap_factor == self.victim.1 {
            panic!("injected mid-suite kill");
        }
        self.inner.run_cell(profile, cell, config)
    }

    fn fingerprint(&self) -> String {
        // Same fingerprint as the clean runner: the kill simulates a crash
        // of the same configuration, not a different experiment.
        self.inner.fingerprint()
    }
}

#[test]
fn killed_then_resumed_suite_reproduces_the_uninterrupted_csv() {
    let profiles = vec![suite::by_name("fop").expect("fop exists")];
    let config = small_config();
    let journal_path = temp_journal("resume");
    let _ = std::fs::remove_file(&journal_path);

    // The reference: one uninterrupted, unsupervised-journal run.
    let uninterrupted = SuiteSupervisor::new(fast_policy())
        .run(&profiles, &config)
        .expect("setup is valid");
    assert!(uninterrupted.is_clean());
    let reference_csv = render_csv(&uninterrupted.results);

    // First attempt: one cell dies by injected panic every attempt, so it
    // is quarantined and — crucially — NOT journalled.
    let first = SuiteSupervisor::new(fast_policy())
        .with_runner(Arc::new(PanicOn {
            inner: SweepCellRunner::new(),
            victim: (CollectorKind::Parallel, 3.0),
        }))
        .with_journal(&journal_path)
        .run(&profiles, &config)
        .expect("setup is valid");
    assert_eq!(first.quarantined.len(), 1, "{}", first.quarantine_summary());
    assert_eq!(
        first.metrics.counter("supervisor.cells.completed"),
        3,
        "the other cells completed and were journalled"
    );

    // Resume: journalled cells replay from disk, the quarantined cell is
    // retried with the healthy runner and now completes.
    let resumed = SuiteSupervisor::new(fast_policy())
        .with_journal(&journal_path)
        .resume(true)
        .run(&profiles, &config)
        .expect("journal fingerprint matches");
    assert!(resumed.is_clean(), "{}", resumed.quarantine_summary());
    assert_eq!(resumed.metrics.counter("supervisor.cells.resumed"), 3);

    assert_eq!(
        render_csv(&resumed.results),
        reference_csv,
        "resumed suite must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&journal_path);
}

/// The `N` in the supervisor summary's `(N resumed, …)`.
fn resumed_count(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| l.split(" resumed").next()?.rsplit('(').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no resumed count in stderr:\n{stderr}"))
}

/// The journal's crash contract, as a user meets it: SIGKILL `runbms`
/// mid-sweep, at any point of a journal append, and `--resume` prints
/// the uninterrupted run's CSV byte for byte. A kill may leave a torn
/// last line behind; resume must not care.
#[cfg(unix)]
#[test]
fn sigkilled_journalled_sweep_resumes_to_the_uninterrupted_csv() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    const KILL_AT_CELLS: usize = 10;
    // 4 benchmarks × 5 collectors × 11 heap factors at 10 invocations:
    // long enough that the kill lands well before the last cell.
    let matrix = [
        "-b",
        "fop,lusearch,h2,xalan",
        "--invocations",
        "10",
        "--isolation",
        "thread",
    ];
    let runbms = || Command::new(env!("CARGO_BIN_EXE_runbms"));
    let journal_path = temp_journal("sigkill");
    let _ = std::fs::remove_file(&journal_path);
    let journal = journal_path.to_str().expect("utf-8 temp path");

    let reference = runbms().args(matrix).output().expect("runbms spawns");
    assert!(
        reference.status.success(),
        "uninterrupted run fails:\n{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    let mut victim = runbms()
        .args(matrix)
        .args(["--journal", journal])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("runbms spawns");
    // Each newline-terminated line after the header is one journalled
    // cell; a read may catch the last line mid-append, uncommitted.
    let journalled = || {
        std::fs::read_to_string(&journal_path)
            .map(|text| text.matches('\n').count().saturating_sub(1))
            .unwrap_or(0)
    };
    while journalled() < KILL_AT_CELLS {
        if let Some(status) = victim.try_wait().expect("poll runbms") {
            panic!("runbms exited ({status}) before journalling {KILL_AT_CELLS} cells");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        victim.try_wait().expect("poll runbms").is_none(),
        "the sweep finished before the kill; enlarge the matrix"
    );
    victim.kill().expect("SIGKILL runbms");
    let status = victim.wait().expect("reap runbms");
    assert_eq!(
        status.signal(),
        Some(chopin_sandbox::limits::SIGKILL),
        "runbms must die by SIGKILL"
    );

    let resumed = runbms()
        .args(matrix)
        .args(["--journal", journal, "--resume"])
        .output()
        .expect("runbms spawns");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume fails:\n{stderr}");
    assert!(
        resumed_count(&stderr) >= KILL_AT_CELLS as u64,
        "resume must replay the journalled cells:\n{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "the resumed CSV must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(format!("{journal}.tmp"));
}

/// With `--journal`, `runbms` reports what its journal appended and
/// synced, on a line sweepbench's summary parser never mistakes for the
/// cell summary; a resume of the complete journal appends and syncs
/// nothing.
#[test]
fn a_journalled_runbms_reports_its_records_syncs_and_failures() {
    use std::process::Command;

    let journal_path = temp_journal("report");
    let journal = journal_path.to_str().expect("utf-8 temp path");
    let run = |resume: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_runbms"))
            .args(["-b", "fop", "--quick", "--isolation", "thread"])
            .args(["--journal", journal])
            .args(resume)
            .output()
            .expect("runbms spawns");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "runbms fails:\n{stderr}");
        let line = stderr
            .lines()
            .find(|l| l.starts_with("runbms: journal: "))
            .unwrap_or_else(|| panic!("no journal line in stderr:\n{stderr}"))
            .to_string();
        assert!(!line.contains(" cell(s), "), "{line}");
        line
    };
    let fresh = run(&[]);
    let (records, rest) = fresh["runbms: journal: ".len()..]
        .split_once(" record(s), ")
        .expect("a record count");
    let (syncs, failed) = rest.split_once(" sync(s), ").expect("a sync count");
    assert_eq!(records, "20", "{fresh}");
    let syncs: u64 = syncs.parse().expect("a sync count");
    assert!((1..=20).contains(&syncs), "{fresh}");
    assert_eq!(failed, "0 failed", "{fresh}");
    assert_eq!(
        run(&["--resume"]),
        "runbms: journal: 0 record(s), 0 sync(s), 0 failed"
    );
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn resume_refuses_a_journal_from_a_different_configuration() {
    let profiles = vec![suite::by_name("fop").expect("fop exists")];
    let config = small_config();
    let journal_path = temp_journal("mismatch");
    let _ = std::fs::remove_file(&journal_path);

    SuiteSupervisor::new(fast_policy())
        .with_journal(&journal_path)
        .run(&profiles, &config)
        .expect("setup is valid");

    let mut other = config.clone();
    other.heap_factors = vec![2.0, 6.0];
    let err = SuiteSupervisor::new(fast_policy())
        .with_journal(&journal_path)
        .resume(true)
        .run(&profiles, &other)
        .expect_err("a different grid must not resume from this journal");
    assert!(
        matches!(err, SuperviseError::JournalMismatch { .. }),
        "{err}"
    );
    let _ = std::fs::remove_file(&journal_path);
}

/// A journal whose infeasible reasons came from the first failed
/// iteration, warm-ups included, carries the runner recipe without the
/// timed-iteration rule. `runbms --resume` refuses it after the CSV
/// header, as any foreign fingerprint, and leaves it as it was.
#[test]
fn resume_refuses_a_journal_written_before_the_timed_iteration_decided() {
    use chopin_harness::journal::Journal;
    use std::process::Command;

    let config = SweepConfig::quick();
    let journal_path = temp_journal("warm-up-rule");
    let journal = journal_path.to_str().expect("utf-8 temp path");
    let resume = || {
        Command::new(env!("CARGO_BIN_EXE_runbms"))
            .args(["-b", "fop", "--quick", "--isolation", "thread"])
            .args(["--journal", journal, "--resume"])
            .output()
            .expect("runbms spawns")
    };

    let old_recipe = chopin_analyzer::sweep_fingerprint(&["fop"], &config, "");
    Journal::create(&journal_path, old_recipe).expect("journal header written");
    let before = std::fs::read(&journal_path).expect("journal readable");
    let refused = resume();
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(2), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&refused.stdout)
            .lines()
            .collect::<Vec<_>>(),
        [chopin_analyzer::provenance::CSV_HEADER],
        "nothing but the CSV header is printed"
    );
    assert!(stderr.contains("does not match"), "{stderr}");
    assert_eq!(
        std::fs::read(&journal_path).expect("journal readable"),
        before
    );

    // The same header under today's recipe resumes.
    let runner = chopin_analyzer::runner_fingerprint(None, None);
    let recipe = chopin_analyzer::sweep_fingerprint(&["fop"], &config, &runner);
    assert_ne!(recipe, old_recipe);
    Journal::create(&journal_path, recipe).expect("journal header written");
    let resumed = resume();
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn resume_refuses_a_journal_from_a_different_fault_configuration() {
    // Regression: the journal fingerprint must incorporate the fault
    // preset AND its seed — resuming a faulted sweep's journal into a
    // differently-faulted (or fault-free) sweep would silently mix
    // results measured under different duress.
    let profiles = vec![suite::by_name("fop").expect("fop exists")];
    let config = small_config();
    let journal_path = temp_journal("fault-mismatch");
    let _ = std::fs::remove_file(&journal_path);

    let horizon = faults::DEFAULT_HORIZON_NS;
    let chaos1 = || faults::preset("chaos", 1, horizon).expect("chaos preset");

    SuiteSupervisor::new(fast_policy())
        .with_faults(chaos1())
        .with_journal(&journal_path)
        .run(&profiles, &config)
        .expect("setup is valid");

    // Same preset, different seed: refused.
    let err = SuiteSupervisor::new(fast_policy())
        .with_faults(faults::preset("chaos", 2, horizon).expect("chaos preset"))
        .with_journal(&journal_path)
        .resume(true)
        .run(&profiles, &config)
        .expect_err("a different fault seed must not resume from this journal");
    assert!(
        matches!(err, SuperviseError::JournalMismatch { .. }),
        "{err}"
    );

    // Different preset, same seed: refused.
    let err = SuiteSupervisor::new(fast_policy())
        .with_faults(faults::preset("storm", 1, horizon).expect("storm preset"))
        .with_journal(&journal_path)
        .resume(true)
        .run(&profiles, &config)
        .expect_err("a different fault preset must not resume from this journal");
    assert!(
        matches!(err, SuperviseError::JournalMismatch { .. }),
        "{err}"
    );

    // No faults at all: refused.
    let err = SuiteSupervisor::new(fast_policy())
        .with_journal(&journal_path)
        .resume(true)
        .run(&profiles, &config)
        .expect_err("a fault-free sweep must not resume from a faulted journal");
    assert!(
        matches!(err, SuperviseError::JournalMismatch { .. }),
        "{err}"
    );

    // The exact same fault configuration: resumes.
    let resumed = SuiteSupervisor::new(fast_policy())
        .with_faults(chaos1())
        .with_journal(&journal_path)
        .resume(true)
        .run(&profiles, &config)
        .expect("the identical fault configuration resumes");
    assert!(
        resumed.metrics.counter("supervisor.cells.resumed") > 0,
        "cells replay from the journal"
    );
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn journal_fingerprint_matches_the_analyzers_prediction() {
    // The provenance pass (R811) predicts the journal fingerprint from
    // the PlanIR alone; the supervisor must write exactly that value.
    let profiles = vec![suite::by_name("fop").expect("fop exists")];
    let config = small_config();
    let horizon = faults::DEFAULT_HORIZON_NS;
    let plan = faults::preset("chaos", 42, horizon);

    for fault_plan in [None, plan] {
        let journal_path = temp_journal("parity");
        let _ = std::fs::remove_file(&journal_path);
        let mut supervisor = SuiteSupervisor::new(fast_policy()).with_journal(&journal_path);
        if let Some(p) = fault_plan.clone() {
            supervisor = supervisor.with_faults(p);
        }
        supervisor.run(&profiles, &config).expect("setup is valid");

        let written = chopin_harness::journal::Journal::load(&journal_path)
            .expect("journal parses")
            .fingerprint();
        let predicted = chopin_analyzer::PlanIR::compile(
            "parity",
            chopin_analyzer::Methodology::Sweep,
            &profiles,
            config.clone(),
            fault_plan.clone(),
            fast_policy(),
            true,
        )
        .expect("plan compiles")
        .resume_fingerprint();
        assert_eq!(
            written,
            predicted,
            "supervisor and analyzer disagree on the fingerprint (faults: {})",
            fault_plan.is_some()
        );
        let _ = std::fs::remove_file(&journal_path);
    }
}

#[test]
fn every_collector_survives_chaos_with_invariants_intact() {
    let profiles = vec![suite::by_name("fop").expect("fop exists")];
    let config = SweepConfig {
        collectors: CollectorKind::ALL.to_vec(),
        heap_factors: vec![2.0, 4.0],
        invocations: 1,
        iterations: 2,
        size: SizeClass::Default,
    };
    let plan = faults::preset("chaos", 42, faults::DEFAULT_HORIZON_NS).expect("chaos preset");

    // Never a harness abort: run() only fails on setup.
    let report = SuiteSupervisor::new(fast_policy())
        .with_faults(plan)
        .run(&profiles, &config)
        .expect("setup is valid");

    // Faults are injected engine-side deterministically, so no cell should
    // panic or hang; duress shows up as samples or infeasibility.
    assert!(report.is_clean(), "{}", report.quarantine_summary());
    assert!(
        !report.results[0].samples.is_empty(),
        "chaos must not wipe out the whole grid"
    );

    for s in &report.results[0].samples {
        for v in [
            s.wall_s,
            s.task_s,
            s.wall_distillable_s,
            s.task_distillable_s,
        ] {
            assert!(v.is_finite() && v > 0.0, "times stay physical: {s:?}");
        }
        assert!(
            s.wall_distillable_s <= s.wall_s + 1e-12 && s.task_distillable_s <= s.task_s + 1e-12,
            "distillable time cannot exceed total time: {s:?}"
        );
    }

    for clock in [Clock::Wall, Clock::Task] {
        let lbo = LboAnalysis::compute(&report.results[0].samples, clock).expect("analysis");
        for &collector in &config.collectors {
            let Some(curve) = lbo.curve(collector) else {
                continue;
            };
            for point in curve {
                assert!(
                    point.overhead.mean() >= 1.0 - 1e-9,
                    "LBO stays >= 1 under duress: {collector} at {:.2}x -> {}",
                    point.heap_factor,
                    point.overhead.mean()
                );
            }
        }
    }
}
