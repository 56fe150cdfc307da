//! End-to-end fleet guarantees against the real `runbms` binary: a
//! four-worker sharded sweep survives a seeded worker-kill storm that
//! SIGKILLs at least two workers AND a coordinator that SIGKILLs itself
//! mid-sweep, and after a `--resume` restart the merged CSV on stdout is
//! byte-identical to a sequential process-isolated run of the same
//! matrix. This is the acceptance scenario: sharding, worker death,
//! coordinator death, journal merge — and not one bit of drift. Resume
//! is shared by every isolation mode, so a fleet run's shards also
//! resume under `--isolation thread`.

#![cfg(unix)]

use chopin_faults::{HardFaultKind, HardFaultPlan};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKERS: u64 = 4;

fn runbms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_runbms"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chopin-fleet-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The first storm seed whose victim set among the initial worker
/// generation (ids 0..4) has at least two victims and at least one
/// survivor — enough deaths to exercise reassignment, enough life for
/// the sweep to finish. Deterministic, so the `--fleet-storm kill:SEED`
/// flag reproduces exactly this plan inside the binary.
fn storm_seed() -> u64 {
    (1u64..)
        .find(|&seed| {
            let plan = HardFaultPlan::new(HardFaultKind::Kill, seed);
            let victims = (0..WORKERS).filter(|&w| plan.worker_victim(w)).count();
            victims >= 2 && victims < WORKERS as usize
        })
        .expect("some seed yields a two-victim storm with a survivor")
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("runbms spawns")
}

/// The count immediately preceding `label` in the fleet summary line
/// (`runbms: fleet: 7 worker(s) spawned, 3 death(s), ...`).
fn fleet_stat(stderr: &str, label: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.contains("fleet:") && l.contains("death(s)"))
        .unwrap_or_else(|| panic!("no fleet summary line in stderr:\n{stderr}"));
    let idx = line
        .find(label)
        .unwrap_or_else(|| panic!("no `{label}` in: {line}"));
    line[..idx]
        .split_whitespace()
        .last()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count before `{label}` in: {line}"))
}

fn journal_args(journal: &Path, storm: &str) -> Vec<String> {
    [
        "-b",
        "fop",
        "--quick",
        "--fleet",
        "4",
        "--fleet-storm",
        storm,
        "--journal",
        journal.to_str().expect("utf-8 temp path"),
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

#[test]
fn stormed_fleet_with_coordinator_restart_matches_sequential_run() {
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let dir = scratch_dir("storm");
    let journal = dir.join("fleet.journal");
    let seed = storm_seed();
    let storm = format!("kill:{seed}");

    // The sequential reference: one process-isolated cell at a time.
    let baseline = run(runbms().args(["-b", "fop", "--quick", "--isolation", "process"]));
    assert!(
        baseline.status.success(),
        "baseline run fails:\n{}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    // The interrupted run: the storm SIGKILLs victim workers on their
    // second lease while the coordinator SIGKILLs *itself* after two
    // completions. The worker journals on disk are all that survives.
    use std::os::unix::process::ExitStatusExt;
    let interrupted = run(runbms()
        .args(journal_args(&journal, &storm))
        .env("CHOPIN_FLEET_DIE_AFTER", "2"));
    assert_eq!(
        interrupted.status.signal(),
        Some(chopin_sandbox::limits::SIGKILL),
        "the coordinator must die by SIGKILL, got {:?}\n{}",
        interrupted.status,
        String::from_utf8_lossy(&interrupted.stderr)
    );

    // The restart: same sweep, same storm, `--resume`. Completed cells
    // merge back from the per-worker journals; the rest re-run under
    // the same worker-kill storm and still drain.
    let mut resume_args = journal_args(&journal, &storm);
    resume_args.push("--resume".to_string());
    let resumed = run(runbms().args(&resume_args));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume run fails:\n{stderr}");
    assert!(
        fleet_stat(&stderr, "death(s)") >= 2,
        "the storm must kill at least two workers:\n{stderr}"
    );
    assert!(
        fleet_stat(&stderr, "cell(s) recovered") >= 1,
        "the restart must recover work from the worker journals:\n{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "merged fleet CSV must be byte-identical to the sequential run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `N` in the supervisor summary's `(N resumed, …)`.
fn resumed_count(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| l.split(" resumed").next()?.rsplit('(').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no resumed count in stderr:\n{stderr}"))
}

#[test]
fn fleet_shards_resume_under_thread_isolation() {
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let dir = scratch_dir("thread-resume");
    let journal = dir.join("fleet.journal");
    let journal_flag = journal.to_str().expect("utf-8 temp path");

    let baseline = run(runbms().args(["-b", "fop", "--quick", "--isolation", "thread"]));
    assert!(
        baseline.status.success(),
        "baseline run fails:\n{}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    // A journalled two-worker fleet whose coordinator SIGKILLs itself
    // after two completions: only the worker shards hold those cells.
    use std::os::unix::process::ExitStatusExt;
    let interrupted = run(runbms()
        .args([
            "-b",
            "fop",
            "--quick",
            "--fleet",
            "2",
            "--journal",
            journal_flag,
        ])
        .env("CHOPIN_FLEET_DIE_AFTER", "2"));
    assert_eq!(
        interrupted.status.signal(),
        Some(chopin_sandbox::limits::SIGKILL),
        "the coordinator must die by SIGKILL, got {:?}\n{}",
        interrupted.status,
        String::from_utf8_lossy(&interrupted.stderr)
    );

    // Resume in thread mode: the one absorb path reads the fleet shards.
    let resumed = run(runbms().args([
        "-b",
        "fop",
        "--quick",
        "--isolation",
        "thread",
        "--journal",
        journal_flag,
        "--resume",
    ]));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume run fails:\n{stderr}");
    assert!(
        resumed_count(&stderr) >= 2,
        "the thread-mode resume must recover the fleet's completions:\n{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "the thread-mode resume must print the sequential CSV byte for byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
