//! End-to-end partition-tolerance guarantees against the real `runbms`
//! binary: a wrong-token attacher is cleanly rejected while the
//! authenticated run completes, and a four-worker sweep under a seeded
//! drop+delay+dup+partition storm survives its coordinator being
//! SIGKILLed mid-sweep — the standby takes over, the workers fail over,
//! and the merged CSV is byte-identical to a sequential run.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::thread::JoinHandle;

fn runbms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_runbms"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chopin-handoff-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Spawn a coordinator and read its stderr up to the `fleet:
/// coordinating … (attach with --fleet-connect ADDR)` line, so the test
/// learns the address the coordinator actually bound (it binds port 0;
/// nothing probes a port and hopes it stays free). Returns the child,
/// that address, and a thread collecting the whole of stderr.
fn spawn_coordinator(cmd: &mut Command) -> (Child, String, JoinHandle<String>) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        let read = stderr
            .read_line(&mut line)
            .expect("coordinator stderr reads");
        assert!(read > 0, "coordinator exited before binding:\n{seen}");
        seen.push_str(&line);
        if let Some(rest) = line.split("--fleet-connect ").nth(1) {
            break rest.trim_end().trim_end_matches(')').to_string();
        }
    };
    let drain = std::thread::spawn(move || {
        let _ = stderr.read_to_string(&mut seen);
        seen
    });
    (child, addr, drain)
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("runbms spawns")
}

#[test]
fn wrong_token_attacher_is_rejected_and_the_sweep_completes() {
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let dir = scratch_dir("token");
    let journal = dir.join("token.journal");
    let journal_flag = journal.to_str().expect("utf-8 temp path").to_string();
    let sweep = |extra: &[&str]| {
        let mut cmd = runbms();
        cmd.args([
            "-b",
            "fop",
            "--quick",
            "--fleet",
            "1",
            "--fleet-token",
            "secret",
        ])
        .args(["--journal", &journal_flag])
        .args(extra);
        cmd
    };
    // `--fleet-await-standby` holds every lease until a standby adopts,
    // so the sweep cannot finish before the wrong-token attach is tried.
    let (coordinator, addr, coord_err) = spawn_coordinator(&mut sweep(&[
        "--fleet-bind",
        "127.0.0.1:0",
        "--fleet-await-standby",
    ]));

    // The coordinator is listening; attach with the wrong token.
    let attacher = run(runbms().args(["--fleet-connect", &addr, "--fleet-token", "wrong"]));
    let attach_err = String::from_utf8_lossy(&attacher.stderr);
    assert_eq!(
        attacher.status.code(),
        Some(2),
        "a rejected attacher must exit 2:\n{attach_err}"
    );
    assert!(
        attach_err.contains("rejected by the coordinator"),
        "the attacher must report the rejection, not retry forever:\n{attach_err}"
    );

    // An authenticated standby adopts, which releases the leases.
    let standby = run(&mut sweep(&["--fleet-standby", &addr]));
    assert!(
        standby.status.success(),
        "the authenticated standby must be admitted:\n{}",
        String::from_utf8_lossy(&standby.stderr)
    );

    let coordinator = coordinator.wait_with_output().expect("coordinator exits");
    let coord_err = coord_err.join().expect("stderr reader");
    assert!(
        coordinator.status.success(),
        "the authenticated sweep must complete:\n{coord_err}"
    );
    assert!(
        coord_err.contains("auth token mismatch"),
        "the coordinator must log the refused handshake:\n{coord_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storm_with_coordinator_handoff_matches_sequential_run() {
    if !chopin_sandbox::supported() {
        eprintln!("skipping: process isolation is unsupported on this platform");
        return;
    }
    let dir = scratch_dir("takeover");
    let journal = dir.join("handoff.journal");
    let journal_flag = journal.to_str().expect("utf-8 temp path").to_string();

    // The sequential reference: one process-isolated cell at a time.
    let baseline = run(runbms().args(["-b", "fop", "--quick", "--isolation", "process"]));
    assert!(
        baseline.status.success(),
        "baseline run fails:\n{}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    // The primary: four workers under a full net storm, SIGKILLing
    // itself after two recorded completions. `--fleet-await-standby`
    // makes it hold every lease until a standby adopts, so the die-after
    // hook cannot fire before a successor exists.
    let (primary, addr, primary_err) = spawn_coordinator(
        runbms()
            .args([
                "-b",
                "fop",
                "--quick",
                "--fleet",
                "4",
                "--fleet-await-standby",
                "--net-faults",
                "storm:7",
                "--journal",
                &journal_flag,
            ])
            .env("CHOPIN_FLEET_DIE_AFTER", "2"),
    );

    // The standby registers with the address the primary bound.
    let standby = runbms()
        .args([
            "-b",
            "fop",
            "--quick",
            "--fleet",
            "4",
            "--fleet-standby",
            &addr,
            "--journal",
            &journal_flag,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("standby spawns");

    use std::os::unix::process::ExitStatusExt;
    let primary = primary.wait_with_output().expect("primary exits");
    assert_eq!(
        primary.status.signal(),
        Some(chopin_sandbox::limits::SIGKILL),
        "the primary must die by SIGKILL, got {:?}\n{}",
        primary.status,
        primary_err.join().expect("stderr reader")
    );

    let standby = standby.wait_with_output().expect("standby exits");
    let standby_err = String::from_utf8_lossy(&standby.stderr);
    assert!(
        standby.status.success(),
        "the standby must finish the sweep after taking over:\n{standby_err}"
    );
    assert!(
        standby_err.contains("taking over at epoch 2"),
        "the standby must log the takeover:\n{standby_err}"
    );
    assert_eq!(
        String::from_utf8_lossy(&standby.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "the standby's merged CSV must be byte-identical to the sequential run"
    );

    let takeover_log = dir.join("handoff.journal.takeover");
    let log = std::fs::read_to_string(&takeover_log)
        .unwrap_or_else(|e| panic!("takeover log {} unreadable: {e}", takeover_log.display()));
    assert!(
        log.starts_with("takeover epoch=2"),
        "the takeover log must record the hand-off: {log:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
