//! Every flag a binary accepts is honoured or refused, never silently
//! ignored: every binary refuses a flag it does not read before it
//! prints or runs anything, `lbo` reports a malformed `--faults` even
//! with the pre-flight gate bypassed, `latency` and `suite`, which have
//! no sweep-scheduler path, refuse the scheduler's flags (`--isolation`
//! among them) outright, a malformed heap factor, a zero or malformed
//! count or an unknown benchmark is a usage error, the removed sandbox
//! and lease overrides are unknown, and `runbms` writes its trace and
//! event stream on the scheduler path too.

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
fn runbms_and_lbo_refuse_the_removed_sandbox_override_flags() {
    // Sandbox limits are derived per cell, the heartbeat is fixed and
    // the lease deadline derives from the cell deadline; the flags that
    // once overrode them are unknown now.
    for bin in ["runbms", "lbo"] {
        for (flag, value) in [
            ("rlimit-as-mb", "4096"),
            ("rlimit-cpu-s", "60"),
            ("heartbeat-ms", "50"),
            ("lease-deadline", "5000"),
        ] {
            let args = ["-b", "fop", "--quick", "--isolation", "process"];
            let out = run(bin, &[&args[..], &[&format!("--{flag}"), value]].concat());
            let stderr = stderr_of(&out);
            assert_eq!(out.status.code(), Some(2), "{bin} --{flag}: {stderr}");
            assert!(
                stderr.contains(&format!("unknown flag --{flag}")),
                "{bin} names --{flag} as unknown: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{bin} --{flag} printed output");
        }
    }
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
    let cases: [(&str, Vec<&str>); 5] = [
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
        (
            "latency",
            vec!["-b", "h2", "--heaps", "2", "--isolation", "process"],
        ),
        ("suite", vec!["-b", "fop", "--resume"]),
        ("suite", vec!["-b", "fop", "--fleet", "2"]),
        ("suite", vec!["-b", "fop", "--isolation", "process"]),
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

#[test]
fn malformed_counts_and_heap_factors_exit_two_before_any_output() {
    let cases: [(&str, &[&str], &str); 8] = [
        (
            "runbms",
            &["-b", "fop", "--quick", "--invocations", "abc"],
            "abc",
        ),
        (
            "lbo",
            &["-b", "fop", "--quick", "--invocations", "-3"],
            "-3",
        ),
        ("characterize", &["-b", "fop", "--iterations", "abc"], "abc"),
        ("gclog", &["-b", "fop", "--heap-factor", "abc"], "abc"),
        // A zero count measures nothing, so it is refused like a
        // malformed one, with or without the pre-flight gate.
        (
            "runbms",
            &["-b", "fop", "--quick", "--invocations", "0"],
            "0",
        ),
        ("lbo", &["-b", "fop", "--quick", "--invocations", "0"], "0"),
        (
            "runbms",
            &[
                "-b",
                "fop",
                "--quick",
                "--no-preflight",
                "--iterations",
                "0",
            ],
            "0",
        ),
        ("characterize", &["-b", "fop", "--iterations", "0"], "0"),
    ];
    for (bin, args, value) in cases {
        let out = run(bin, args);
        let stderr = stderr_of(&out);
        let flag = args[args.len() - 2];
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("`{value}`")),
            "{bin} names {flag} and `{value}`: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    }
}

#[test]
fn runbms_writes_its_trace_and_events_on_the_scheduler_path() {
    let dir = scratch("runbms-trace");
    let trace = dir.join("t.json");
    let events = dir.join("e.jsonl");
    let out = run(
        "runbms",
        &[
            "-b",
            "fop",
            "--quick",
            "--isolation",
            "thread",
            "--trace-out",
            &trace.to_string_lossy(),
            "--events-out",
            &events.to_string_lossy(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let trace = std::fs::read_to_string(&trace).expect("the trace is written");
    let stats = chopin_obs::validate_chrome_trace(&trace).expect("the trace validates");
    assert!(stats.spans_on("harness (wall time)") >= 1, "the sweep span");
    let events = std::fs::read_to_string(&events).expect("the events are written");
    assert!(events.lines().count() > 0, "the observed run's events");
}
