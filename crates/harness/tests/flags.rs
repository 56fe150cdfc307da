//! Every flag a binary accepts is honoured or refused, never silently
//! ignored: every binary refuses a flag it does not read before it
//! prints or runs anything, `lbo` reports a malformed `--faults` even
//! with the pre-flight gate bypassed, `latency` and `suite`, which have
//! no sweep-scheduler path, refuse the scheduler's flags outright, and
//! a malformed heap factor or an unknown benchmark is a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let path = match bin {
        "runbms" => env!("CARGO_BIN_EXE_runbms"),
        "lbo" => env!("CARGO_BIN_EXE_lbo"),
        "latency" => env!("CARGO_BIN_EXE_latency"),
        "suite" => env!("CARGO_BIN_EXE_suite"),
        "characterize" => env!("CARGO_BIN_EXE_characterize"),
        "gclog" => env!("CARGO_BIN_EXE_gclog"),
        "heaptrace" => env!("CARGO_BIN_EXE_heaptrace"),
        "nominal" => env!("CARGO_BIN_EXE_nominal"),
        "pca" => env!("CARGO_BIN_EXE_pca"),
        "artifact" => env!("CARGO_BIN_EXE_artifact"),
        other => panic!("no such binary {other}"),
    };
    Command::new(path)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} spawns: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory for one test, empty.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chopin-flags-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run `bin` with a misspelt flag: it must exit 2 naming the flag,
/// having printed nothing.
fn refuses(bin: &str, args: &[&str], flag: &str) {
    let out = run(bin, args);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("--{flag}")),
        "{bin} names --{flag}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
}

#[test]
fn runbms_refuses_a_misspelt_journal_flag() {
    let dir = scratch("runbms");
    let journal = dir.join("J").to_string_lossy().into_owned();
    refuses(
        "runbms",
        &["-b", "fop", "--quick", "--jounral", &journal],
        "jounral",
    );
    assert!(!dir.join("J").exists(), "no journal is written");
}

#[test]
fn lbo_refuses_a_misspelt_retry_budget() {
    refuses("lbo", &["--quick", "--retires", "3"], "retires");
}

#[test]
fn latency_refuses_a_misspelt_events_flag() {
    let dir = scratch("latency");
    let events = dir.join("D").to_string_lossy().into_owned();
    refuses(
        "latency",
        &["-b", "h2", "--heaps", "2", "--seve-events", &events],
        "seve-events",
    );
    assert!(!dir.join("D").exists(), "no events directory is written");
}

#[test]
fn suite_refuses_an_unknown_flag() {
    refuses("suite", &["-b", "fop", "--quik"], "quik");
}

#[test]
fn characterize_refuses_an_unknown_flag() {
    refuses("characterize", &["-b", "fop", "--min-heap"], "min-heap");
}

#[test]
fn gclog_refuses_an_unknown_flag() {
    refuses("gclog", &["-b", "fop", "--colector", "zgc"], "colector");
}

#[test]
fn heaptrace_refuses_an_unknown_flag() {
    refuses("heaptrace", &["-b", "fop", "--out", "x"], "out");
}

#[test]
fn nominal_refuses_an_unknown_flag() {
    refuses("nominal", &["-b", "avrora", "--tabel2"], "tabel2");
}

#[test]
fn pca_refuses_an_unknown_flag() {
    refuses("pca", &["--out", "fig.txt"], "out");
}

#[test]
fn artifact_subcommands_refuse_flags_they_do_not_read() {
    refuses("artifact", &["lint", "--jsno"], "jsno");
    refuses("artifact", &["kick-the-tires", "--quick"], "quick");
    refuses(
        "artifact",
        &["model", "--check", "--bonds", "2,2,1"],
        "bonds",
    );
}

#[test]
fn a_malformed_fault_preset_exits_two_without_preflight() {
    for bin in ["lbo", "runbms"] {
        let out = run(
            bin,
            &[
                "-b",
                "fop",
                "--quick",
                "--no-preflight",
                "--faults",
                "tsunami",
            ],
        );
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("unknown fault preset"),
            "{bin}: {}",
            stderr_of(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.lines().all(|l| l.starts_with("benchmark,")),
            "{bin} printed figures or rows:\n{stdout}"
        );
    }
}

#[test]
fn latency_and_suite_refuse_the_scheduler_flags() {
    let journal: PathBuf =
        std::env::temp_dir().join(format!("chopin-flags-{}.journal", std::process::id()));
    let journal_arg = journal.to_string_lossy().into_owned();
    let cases: [(&str, Vec<&str>); 3] = [
        (
            "latency",
            vec![
                "-b",
                "h2",
                "--heaps",
                "2",
                "--journal",
                &journal_arg,
                "--retries",
                "5",
                "--cell-deadline",
                "1",
            ],
        ),
        ("suite", vec!["-b", "fop", "--resume"]),
        ("suite", vec!["-b", "fop", "--fleet", "2"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, &args);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("runbms") && stderr.contains("lbo"),
            "{bin} points at the binaries that take the flag: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
    assert!(!journal.exists(), "a refused run writes no journal");
}

#[test]
fn bad_heaps_and_unknown_benchmarks_exit_two_before_any_output() {
    let cases: [(&str, &[&str], &str); 5] = [
        ("latency", &["-b", "h2", "--heaps", "abc"], "`abc`"),
        ("latency", &["-b", "h2", "--heaps", "2,abc"], "`abc`"),
        ("latency", &["-b", "nosuch", "--no-preflight"], "`nosuch`"),
        ("suite", &["-b", "nosuch", "--no-preflight"], "`nosuch`"),
        ("suite", &["-b", "fop,nosuch", "--no-preflight"], "`nosuch`"),
    ];
    for (bin, args, named) in cases {
        let out = run(bin, args);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{bin} {args:?} names {named}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    }
}
