//! Every flag a binary accepts is honoured or refused, never silently
//! ignored: `lbo` reports a malformed `--faults` even with the
//! pre-flight gate bypassed, `latency` and `suite`, which have no
//! sweep-scheduler path, refuse the scheduler's flags outright, and a
//! malformed heap factor or an unknown benchmark is a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let path = match bin {
        "runbms" => env!("CARGO_BIN_EXE_runbms"),
        "lbo" => env!("CARGO_BIN_EXE_lbo"),
        "latency" => env!("CARGO_BIN_EXE_latency"),
        "suite" => env!("CARGO_BIN_EXE_suite"),
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
