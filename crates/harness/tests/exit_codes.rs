//! The exit-code contract shared by the `artifact` gate subcommands:
//! 0 when the pass runs clean, 1 when it runs and reports diagnostics,
//! 2 on usage or I/O errors (the pass could not run at all). CI and
//! scripts branch on these codes, so they are pinned here end to end
//! against the real binary.

use std::process::Command;

fn artifact(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_artifact"))
        .args(args)
        .output()
        .expect("artifact binary runs")
}

fn exit_code(args: &[&str]) -> i32 {
    artifact(args).status.code().expect("no signal death")
}

#[test]
fn clean_passes_exit_zero() {
    assert_eq!(exit_code(&["lint"]), 0);
    assert_eq!(exit_code(&["srclint", "--check"]), 0);
    assert_eq!(exit_code(&["analyze", "--check"]), 0);
}

#[test]
fn diagnostics_exit_one() {
    // The demo plan is deliberately broken: the pass runs, finds an
    // R804 error, and reports it — a findings failure, not a usage one.
    assert_eq!(exit_code(&["analyze", "--plan", "demo:cold-start"]), 1);
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(exit_code(&[]), 2);
    assert_eq!(exit_code(&["no-such-command"]), 2);
    assert_eq!(exit_code(&["analyze", "--plan", "no-such-plan"]), 2);
    assert_eq!(exit_code(&["analyze", "--results", "r.csv"]), 2);
    assert_eq!(
        exit_code(&["analyze", "--plan", "lbo", "--results", "/no/such/file.csv"]),
        2
    );
}

#[test]
fn srclint_outside_a_workspace_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_artifact"))
        .args(["srclint", "--check"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("artifact binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("workspace root"), "stderr: {stderr}");
}

#[test]
fn srclint_json_is_machine_readable_and_clean() {
    let out = artifact(&["srclint", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"errors\": 0, \"warnings\": 0"),
        "stdout: {stdout}"
    );
}

#[test]
fn srclint_rules_prints_the_shared_catalogue() {
    let out = artifact(&["srclint", "--rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["R101", "R801", "R1001", "R1012"] {
        assert!(stdout.contains(id), "catalogue missing {id}");
    }
}
