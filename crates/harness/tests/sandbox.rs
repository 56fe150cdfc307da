//! End-to-end process-isolation guarantees (`harness = false` so the
//! binary can re-enter itself as a sandboxed cell worker):
//!
//! 1. A clean process-isolated sweep produces a results CSV
//!    byte-identical to the thread-isolated run — moving the isolation
//!    boundary must not move a single bit of the measurements.
//! 2. A SIGKILL storm that murders several cells mid-iteration completes
//!    the sweep: every victim is quarantined as `Signalled(SIGKILL)`,
//!    every survivor's CSV rows stay byte-identical to the undisturbed
//!    thread-mode reference, and crash reports are written.
//! 3. Resuming the same stormed sweep from its journal replays the
//!    survivors from disk and reproduces the final CSV exactly; the
//!    journal carries the victims' crash taxonomy.
//! 4. Workers are reused safely: a victim whose cell errors still never
//!    answers, a scheduler thread's worker killed while idle is replaced
//!    without charging a cell, and `runbms` leaves no worker behind,
//!    whether it exits or is SIGKILLed mid-sweep.

use chopin_core::sweep::{SweepConfig, SweepResult};
use chopin_faults::{HardFaultKind, HardFaultPlan, SupervisorPolicy};
use chopin_harness::sandbox::{ProcessBackend, SandboxTally};
use chopin_harness::supervisor::{Cell, QuarantineReason, SuiteSupervisor};
use chopin_harness::IsolationMode;
use chopin_obs::MetricsRegistry;
use chopin_runtime::collector::CollectorKind;
use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::limits::SIGKILL;
use chopin_sandbox::parent::RequestLimits;
use chopin_sandbox::{ChildOutcome, SandboxPolicy, SandboxPool};
use chopin_workloads::SizeClass;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chopin-sandbox-{tag}-{}", std::process::id()))
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

fn profiles() -> Vec<chopin_workloads::WorkloadProfile> {
    ["fop", "lusearch"]
        .iter()
        .map(|name| chopin_workloads::suite::by_name(name).expect("suite benchmark"))
        .collect()
}

/// The runbms CSV for `results`, optionally restricted to cells that
/// `keep` accepts — the survivor filter.
fn render_csv(results: &[SweepResult], keep: impl Fn(&str, CollectorKind, f64) -> bool) -> String {
    let mut csv = String::new();
    for result in results {
        for s in &result.samples {
            if !keep(&result.benchmark, s.collector, s.heap_factor) {
                continue;
            }
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

/// A kill plan with at least 3 victims and at least 1 survivor on the
/// 8-cell grid, found by deterministic seed search — the storm the
/// acceptance criteria demand.
fn storm_plan(config: &SweepConfig) -> HardFaultPlan {
    let cells: Vec<(String, String, f64)> = profiles()
        .iter()
        .flat_map(|p| {
            config.collectors.iter().flat_map(move |c| {
                config
                    .heap_factors
                    .iter()
                    .map(move |&f| (p.name.to_string(), c.to_string(), f))
            })
        })
        .collect();
    for seed in 1..=500u64 {
        let plan = HardFaultPlan {
            stride: 2,
            ..HardFaultPlan::new(HardFaultKind::Kill, seed)
        };
        let victims = cells
            .iter()
            .filter(|(b, c, f)| plan.is_victim(b, c, *f))
            .count();
        if victims >= 3 && victims < cells.len() {
            return plan;
        }
    }
    panic!("no seed in 1..=500 yields a 3-victim storm with a survivor");
}

/// Scenario 1: moving the isolation boundary must not move the data.
fn clean_process_run_matches_thread_run() -> String {
    let profiles = profiles();
    let config = small_config();
    let thread = SuiteSupervisor::new(fast_policy())
        .run(&profiles, &config)
        .expect("thread run is valid");
    assert!(thread.is_clean(), "{}", thread.quarantine_summary());

    let process = SuiteSupervisor::new(fast_policy())
        .with_isolation(IsolationMode::Process)
        .run(&profiles, &config)
        .expect("process run is valid");
    assert!(process.is_clean(), "{}", process.quarantine_summary());
    let cells = 4 * profiles.len();
    let schedulers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(cells) as u64;
    let spawns = process.metrics.counter("sandbox.spawns");
    assert!(
        (1..=schedulers).contains(&spawns),
        "{spawns} workers for {cells} cells: at most one per scheduler thread ({schedulers})"
    );

    let reference = render_csv(&thread.results, |_, _, _| true);
    assert_eq!(
        render_csv(&process.results, |_, _, _| true),
        reference,
        "process-isolated CSV must be byte-identical to the thread run"
    );
    eprintln!("scenario 1 ok: clean process run is byte-identical");
    reference
}

/// Scenario 2: a SIGKILL storm completes the sweep, quarantines exactly
/// the victims with their taxonomy, and leaves survivor rows untouched.
fn sigkill_storm_quarantines_victims_and_preserves_survivors(reference_csv: &str) {
    let profiles = profiles();
    let config = small_config();
    let plan = storm_plan(&config);
    let reports_path = temp_path("crash-reports");
    let _ = std::fs::remove_file(&reports_path);

    let report = SuiteSupervisor::new(fast_policy())
        .with_isolation(IsolationMode::Process)
        .with_hard_faults(Some(plan))
        .with_crash_reports(&reports_path)
        .run(&profiles, &config)
        .expect("stormed run still completes");

    let victims = report.quarantined.len();
    assert!(victims >= 3, "the storm must kill at least 3 cells");
    for q in &report.quarantined {
        assert!(
            plan.is_victim(
                &q.cell.benchmark,
                &q.cell.collector.to_string(),
                q.cell.heap_factor
            ),
            "only planned victims die: {} {} {:.1}x",
            q.cell.benchmark,
            q.cell.collector,
            q.cell.heap_factor
        );
        assert!(
            matches!(q.reason, QuarantineReason::Signalled { signal } if signal == SIGKILL),
            "victims carry the SIGKILL taxonomy, got: {}",
            q.reason
        );
    }
    assert_eq!(
        report.metrics.counter("sandbox.exits.signalled"),
        report
            .quarantined
            .iter()
            .map(|q| u64::from(q.attempts))
            .sum::<u64>(),
        "every victim attempt ended in a signal"
    );

    // Survivor rows are byte-identical to the undisturbed thread run.
    let survivors_expected: String = reference_csv
        .lines()
        .filter(|line| {
            let mut parts = line.split(',');
            let bench = parts.next().unwrap_or_default();
            let collector = parts.next().unwrap_or_default();
            let factor: f64 = parts.next().unwrap_or_default().parse().unwrap_or(f64::NAN);
            !plan.is_victim(bench, collector, factor)
        })
        .fold(String::new(), |mut acc, line| {
            acc.push_str(line);
            acc.push('\n');
            acc
        });
    assert_eq!(
        render_csv(&report.results, |_, _, _| true),
        survivors_expected,
        "survivor rows must be byte-identical to the undisturbed run"
    );

    // Crash reports: one per victim attempt, JSONL, signalled.
    assert_eq!(
        report.crash_reports.len(),
        victims * 2,
        "victims retry once"
    );
    let written = std::fs::read_to_string(&reports_path).expect("crash reports written");
    assert_eq!(written.lines().count(), report.crash_reports.len());
    for line in written.lines() {
        assert!(
            line.contains("\"outcome\":\"signalled\"") && line.contains("\"signal\":9"),
            "crash report carries the signal: {line}"
        );
    }
    let _ = std::fs::remove_file(&reports_path);
    eprintln!("scenario 2 ok: {victims} victims quarantined, survivors byte-identical");
}

/// Scenario 3: `--resume` after the storm replays survivors from the
/// journal and reproduces the final CSV; the journal carries the
/// victims' taxonomy.
fn resume_after_storm_reproduces_the_csv() {
    let profiles = profiles();
    let config = small_config();
    let plan = storm_plan(&config);
    let journal_path = temp_path("journal");
    let _ = std::fs::remove_file(&journal_path);

    let stormed = || {
        SuiteSupervisor::new(fast_policy())
            .with_isolation(IsolationMode::Process)
            .with_hard_faults(Some(plan))
            .with_journal(&journal_path)
    };
    let first = stormed()
        .run(&profiles, &config)
        .expect("stormed run completes");
    assert!(!first.quarantined.is_empty());
    let first_csv = render_csv(&first.results, |_, _, _| true);

    // The interrupted sweep's journal records the victims' taxonomy.
    let journal = chopin_harness::journal::Journal::load(&journal_path).expect("journal parses");
    assert_eq!(journal.quarantines().len(), first.quarantined.len());
    for record in journal.quarantines() {
        assert!(
            matches!(record.reason, QuarantineReason::Signalled { signal } if signal == SIGKILL),
            "journalled quarantine carries the taxonomy"
        );
    }

    let resumed = stormed()
        .resume(true)
        .run(&profiles, &config)
        .expect("the same storm resumes from its own journal");
    assert!(
        resumed.metrics.counter("supervisor.cells.resumed") > 0,
        "survivors replay from the journal"
    );
    assert_eq!(
        resumed.quarantined.len(),
        first.quarantined.len(),
        "the same victims die again on resume"
    );
    assert_eq!(
        render_csv(&resumed.results, |_, _, _| true),
        first_csv,
        "resumed final CSV must be identical"
    );
    let _ = std::fs::remove_file(&journal_path);
    eprintln!("scenario 3 ok: resume reproduces the stormed CSV");
}

/// Scenario 4a: a victim whose cell returns an error still never
/// answers: it parks until its scheduled death, so the death cannot land
/// on whatever cell the worker would have served next.
fn a_victim_whose_cell_errs_never_answers() {
    let exe = std::env::current_exe().expect("current_exe");
    let pool = SandboxPool::new(exe, SandboxPolicy::default()).with_deadline_ms(Some(60_000));
    // No such benchmark: the cell fails at once, long before the death.
    let request = r#"{"benchmark":"no-such-benchmark","collector":"G1","heap_factor":2.0,"invocations":1,"iterations":1,"size":"default","faults":null,"hard":{"kind":"kill","delay_ms":"50"}}"#;
    let mut worker = pool.spawn().expect("worker spawns");
    let report = worker.serve(request, RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Signalled { signal: SIGKILL },
        "stderr: {}",
        report.stderr_tail
    );
    assert!(
        !worker.is_alive(),
        "the victim's worker serves nothing more"
    );
    let bare = request.replace(r#"{"kind":"kill","delay_ms":"50"}"#, "null");
    let report = pool.run(&bare, RequestLimits::default());
    assert!(
        matches!(&report.outcome, ChildOutcome::Failed(m) if m.contains("no-such-benchmark")),
        "without the death directive the same cell answers its error: {:?}",
        report.outcome
    );
    eprintln!("scenario 4a ok: an erring victim still dies, unanswered");
}

/// Live (non-zombie) processes whose `/proc/<pid>/stat` field `field`
/// (counted after the command name: 1 = ppid, 2 = pgrp) is `value`.
fn live_processes(field: usize, value: u32) -> Vec<u32> {
    let Ok(proc_dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    proc_dir
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            let Some(close) = stat.rfind(')') else {
                return false;
            };
            let mut fields = stat[close + 1..].split_whitespace();
            let state = fields.next();
            let matched = fields.nth(field - 1).and_then(|f| f.parse::<u32>().ok());
            matched == Some(value) && state != Some("Z")
        })
        .collect()
}

/// Wait up to 10 s for `done`, polling every few milliseconds.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let waiting = WallSpan::begin();
    while waiting.elapsed() < Duration::from_secs(10) {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

/// Scenario 4b: a scheduler thread's worker found dead between cells is
/// replaced before the next request is written to it, and no cell is
/// charged for its death.
fn a_worker_killed_while_idle_is_replaced_without_charge() {
    let backend = ProcessBackend::new(
        std::env::current_exe().expect("current_exe"),
        Some(60_000),
        None,
        None,
    );
    let mut worker = backend.worker();
    let profile = chopin_workloads::suite::by_name("fop").expect("suite benchmark");
    let cell = Cell {
        benchmark: "fop".to_string(),
        collector: CollectorKind::G1,
        heap_factor: 2.0,
    };
    let config = small_config();
    let first = worker
        .run_cell(&profile, &cell, &config)
        .expect("the first cell completes");
    let me = std::process::id();
    let workers = live_processes(1, me);
    assert_eq!(workers.len(), 1, "one idle worker: {workers:?}");
    let killed = Command::new("kill")
        .args(["-KILL", &workers[0].to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    assert!(eventually(|| live_processes(1, me).is_empty()));

    let second = worker
        .run_cell(&profile, &cell, &config)
        .expect("the next cell runs in a fresh worker");
    assert_eq!(second, first, "the same cell, the same outcome");
    assert_eq!(live_processes(1, me).len(), 1, "one live worker");
    let tally = worker.close();
    assert!(
        live_processes(1, me).is_empty(),
        "a closed worker is reaped"
    );
    let mut metrics = MetricsRegistry::new();
    let reports = SandboxTally::fold([tally], &mut metrics);
    assert!(reports.is_empty(), "no cell was charged");
    assert_eq!(metrics.counter("sandbox.spawns"), 2);
    assert_eq!(metrics.counter("sandbox.exits.signalled"), 0);
    eprintln!("scenario 4b ok: an idle worker's death charges no cell");
}

/// Scenario 4c: `runbms` closes and reaps its workers before it exits;
/// SIGKILLed mid-sweep, it leaves workers that exit once their stdin
/// closes.
fn runbms_leaves_no_worker_behind() {
    let runbms = env!("CARGO_BIN_EXE_runbms");
    let mut child = Command::new(runbms)
        .args(["-b", "fop", "--quick", "--isolation", "process"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .process_group(0)
        .spawn()
        .expect("runbms spawns");
    let group = child.id();
    let status = child.wait().expect("runbms exits");
    assert!(status.success(), "runbms exited with {status}");
    assert!(
        live_processes(2, group).is_empty(),
        "workers outlived runbms: {:?}",
        live_processes(2, group)
    );

    let mut child = Command::new(runbms)
        .args(["-b", "all", "--invocations", "10", "--isolation", "process"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .process_group(0)
        .spawn()
        .expect("runbms spawns");
    let group = child.id();
    assert!(
        eventually(|| live_processes(2, group).len() >= 2),
        "runbms never started a worker"
    );
    child.kill().expect("SIGKILL runbms");
    child.wait().expect("runbms reaped");
    assert!(
        eventually(|| live_processes(2, group).is_empty()),
        "workers outlived their SIGKILLed parent: {:?}",
        live_processes(2, group)
    );
    eprintln!("scenario 4c ok: no worker outlives runbms");
}

fn main() {
    // Must run before anything else: the sandboxed children ARE this
    // binary, re-entered with the worker environment set.
    chopin_harness::worker_entry();
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let reference_csv = clean_process_run_matches_thread_run();
    sigkill_storm_quarantines_victims_and_preserves_survivors(&reference_csv);
    resume_after_storm_reproduces_the_csv();
    a_victim_whose_cell_errs_never_answers();
    #[cfg(target_os = "linux")]
    a_worker_killed_while_idle_is_replaced_without_charge();
    #[cfg(target_os = "linux")]
    runbms_leaves_no_worker_behind();
    println!("sandbox integration: all scenarios ok");
}
