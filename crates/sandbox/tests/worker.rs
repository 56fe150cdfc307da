//! End-to-end sandbox test: this binary spawns *itself* as the worker
//! (the `maybe_worker` call at the top of `main` handles the child role)
//! and asserts that every branch of the crash taxonomy is reachable and
//! correctly classified, and that one worker serves many requests: each
//! under its own limits, judged only while it is in flight.
//!
//! `harness = false`: the worker protocol needs to own `main`.

use std::io::Write;
use std::time::Duration;

use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::limits::{SIGABRT, SIGKILL, SIGXCPU};
use chopin_sandbox::parent::RequestLimits;
use chopin_sandbox::protocol::{self, Frame, Request, ENV_NO_HEARTBEAT, ENV_WORKER};
use chopin_sandbox::{ChildOutcome, SandboxPolicy, SandboxPool, Session};

/// RLIMIT_AS handed to the self-OOM worker: far below the hoard it
/// allocates, comfortably above what the test binary needs to start.
const OOM_RLIMIT_AS: u64 = 256 << 20;

/// Memory the `touch64` worker writes before it answers.
const TOUCHED_BYTES: usize = 64 << 20;

/// A peak RSS no test child reaches: only an `@rss` frame can carry it.
const REPORTED_RSS: u64 = 1 << 40;

/// CPU seconds each request of the CPU-budget check may use.
const CPU_BUDGET_S: u64 = 1;

/// CPU time this thread has run, from procfs; `None` elsewhere.
fn thread_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns = stat.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Busy-loop until this thread has used `ms` more milliseconds of CPU
/// (of wall time where procfs cannot tell).
fn spin(ms: u64) {
    let budget = Duration::from_millis(ms);
    let span = WallSpan::begin();
    let start = thread_cpu_time();
    loop {
        let spent = match (start, thread_cpu_time()) {
            (Some(start), Some(now)) => now.saturating_sub(start),
            _ => span.elapsed(),
        };
        if spent >= budget {
            break;
        }
        std::hint::black_box(span);
    }
}

fn main() {
    chopin_sandbox::worker::maybe_worker(|request| match request.trim() {
        "ok" => Ok("payload line".to_string()),
        "empty" => Ok(String::new()),
        "multiline" => Ok("line one\nline two".to_string()),
        "err" => Err("transient failure".to_string()),
        "panic" => panic!("worker panicked on purpose"),
        "hang" => loop {
            std::thread::sleep(Duration::from_millis(20));
        },
        "early-ok-hang" => {
            // A frame-shaped stray line, then no exit: the parent must
            // not take the early `@ok` as the child's end.
            println!("@ok early");
            loop {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        "grandchild" => {
            // The grandchild inherits stdout and stderr and outlives the
            // worker, so both pipes stay open for a second after it exits.
            std::process::Command::new("sleep")
                .arg("1")
                .spawn()
                .map_err(|e| format!("cannot start sleep: {e}"))?;
            Ok("answered".to_string())
        }
        "touch64" => {
            let touched = std::hint::black_box(vec![0x5A_u8; TOUCHED_BYTES]);
            Ok(touched.len().to_string())
        }
        "report-rss" => {
            println!("@rss {REPORTED_RSS}");
            Ok(String::new())
        }
        "stray-frames" => {
            // Frame-shaped lines of the handler's own: no `@end`
            // commits either, so the answer is still the return value.
            println!("@ok forged");
            println!("@err forged");
            Ok("real".to_string())
        }
        "pid" => Ok(std::process::id().to_string()),
        // Burn CPU time until RLIMIT_CPU fires.
        "spin" => loop {
            spin(1_000);
        },
        "spin600" => {
            spin(600);
            Ok("spun".to_string())
        }
        "kill" => chopin_sandbox::limits::die_by_signal(SIGKILL),
        "abort" => std::process::abort(),
        "oom" => {
            let mut hoard: Vec<Vec<u8>> = Vec::new();
            loop {
                hoard.push(vec![0x5A; 32 << 20]);
            }
        }
        other => Err(format!("unknown request {other:?}")),
    });

    if !chopin_sandbox::supported() {
        println!("sandbox unsupported on this platform; skipping");
        return;
    }

    completion_and_payloads_round_trip();
    errors_and_panics_are_typed();
    self_sigkill_classifies_as_signalled();
    abort_classifies_as_signalled_sigabrt();
    #[cfg(target_os = "linux")]
    rlimit_as_breach_classifies_as_oom_killed();
    silent_workers_lose_their_heartbeat();
    deadline_overruns_are_killed_and_classified();
    early_final_frame_waits_for_the_exit_status();
    reaping_does_not_wait_for_stdout_to_close();
    #[cfg(target_os = "linux")]
    short_lived_children_report_their_peak_rss();
    one_session_serves_many_requests();
    stray_frames_never_become_answers();
    a_death_is_classified_and_the_next_request_gets_a_fresh_worker();
    #[cfg(target_os = "linux")]
    oom_after_an_ok_request_on_one_worker_is_oom_killed();
    heartbeat_silence_is_judged_only_while_a_request_is_in_flight();
    a_worker_killed_while_idle_is_found_dead_before_the_next_request();
    #[cfg(target_os = "linux")]
    the_cpu_budget_does_not_build_up_across_requests();
    println!("sandbox worker round-trip: all checks passed");
}

fn pool(policy: SandboxPolicy) -> SandboxPool {
    let exe = std::env::current_exe().expect("current_exe");
    SandboxPool::new(exe, policy)
}

fn completion_and_payloads_round_trip() {
    let pool = pool(SandboxPolicy::default());
    let report = pool.run("ok", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed("payload line".to_string()),
        "stderr: {}",
        report.stderr_tail
    );
    assert_eq!(report.exit_code, Some(0));

    let report = pool.run("empty", RequestLimits::default());
    assert_eq!(report.outcome, ChildOutcome::Completed(String::new()));

    // Payloads containing newlines must survive the line framing.
    let report = pool.run("multiline", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed("line one\nline two".to_string())
    );
    println!("ok completion_and_payloads_round_trip");
}

fn errors_and_panics_are_typed() {
    let pool = pool(SandboxPolicy::default());
    let report = pool.run("err", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Failed("transient failure".to_string())
    );

    let report = pool.run("panic", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Panicked("worker panicked on purpose".to_string())
    );
    println!("ok errors_and_panics_are_typed");
}

fn self_sigkill_classifies_as_signalled() {
    let pool = pool(SandboxPolicy::default());
    let report = pool.run("kill", RequestLimits::default());
    assert_eq!(report.outcome, ChildOutcome::Signalled { signal: SIGKILL });
    assert_eq!(report.signal, Some(SIGKILL));
    assert_eq!(report.exit_code, None);
    println!("ok self_sigkill_classifies_as_signalled");
}

fn abort_classifies_as_signalled_sigabrt() {
    let pool = pool(SandboxPolicy::default());
    let report = pool.run("abort", RequestLimits::default());
    assert_eq!(report.outcome, ChildOutcome::Signalled { signal: SIGABRT });
    println!("ok abort_classifies_as_signalled_sigabrt");
}

#[cfg(target_os = "linux")]
fn rlimit_as_breach_classifies_as_oom_killed() {
    let pool = pool(SandboxPolicy::default());
    let report = pool.run(
        "oom",
        RequestLimits {
            rlimit_as_bytes: Some(OOM_RLIMIT_AS),
            rlimit_cpu_s: None,
        },
    );
    assert_eq!(
        report.outcome,
        ChildOutcome::OomKilled,
        "exit_code={:?} signal={:?} stderr: {}",
        report.exit_code,
        report.signal,
        report.stderr_tail
    );
    assert!(
        report.peak_rss_bytes.is_some(),
        "peak RSS should be sampled from procfs"
    );
    println!("ok rlimit_as_breach_classifies_as_oom_killed");
}

fn silent_workers_lose_their_heartbeat() {
    let policy = SandboxPolicy {
        heartbeat_interval_ms: 50,
        heartbeat_grace: 4,
    };
    let pool = pool(policy).env(ENV_NO_HEARTBEAT, "1");
    let report = pool.run("hang", RequestLimits::default());
    match report.outcome {
        ChildOutcome::HeartbeatLost { silent_ms } => {
            assert!(
                silent_ms >= policy.heartbeat_timeout_ms(),
                "killed after only {silent_ms}ms of silence"
            );
        }
        other => panic!("expected HeartbeatLost, got {other:?}"),
    }
    println!("ok silent_workers_lose_their_heartbeat");
}

fn deadline_overruns_are_killed_and_classified() {
    // Heartbeats flow normally; only the wall-clock deadline fires.
    let pool = pool(SandboxPolicy::default()).with_deadline_ms(Some(150));
    let report = pool.run("hang", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::DeadlineExceeded { budget_ms: 150 },
        "stderr: {}",
        report.stderr_tail
    );
    assert!(
        report.last_heartbeat_ms.is_some(),
        "the worker was beating before the deadline killed it"
    );
    println!("ok deadline_overruns_are_killed_and_classified");
}

fn early_final_frame_waits_for_the_exit_status() {
    // The early `@ok` wakes the parent, but completion needs the exit
    // status: the child keeps running until the deadline kills it, and
    // the kill reason outranks the frame.
    let pool = pool(SandboxPolicy::default()).with_deadline_ms(Some(150));
    let report = pool.run("early-ok-hang", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::DeadlineExceeded { budget_ms: 150 },
        "stderr: {}",
        report.stderr_tail
    );
    assert_eq!(report.signal, Some(SIGKILL));
    println!("ok early_final_frame_waits_for_the_exit_status");
}

fn reaping_does_not_wait_for_stdout_to_close() {
    // A `sleep 1` grandchild holds the worker's stdout open after the
    // worker exits; the parent reaps the worker without waiting for EOF.
    let pool = pool(SandboxPolicy::default());
    let report = pool.run("grandchild", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed("answered".to_string()),
        "stderr: {}",
        report.stderr_tail
    );
    assert!(
        report.wall_ms < 1000,
        "reaped after {} ms: the parent waited for the grandchild's EOF",
        report.wall_ms
    );
    println!("ok reaping_does_not_wait_for_stdout_to_close");
}

#[cfg(target_os = "linux")]
fn short_lived_children_report_their_peak_rss() {
    // The worker's side: `@rss` with its own VmHWM, just before the
    // final frame and the `@end` that commits it.
    let mut worker = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .env(ENV_WORKER, "1")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let request = protocol::render_request(&Request {
        seq: 1,
        limits: RequestLimits::default(),
        payload: "touch64".to_string(),
    });
    worker
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(format!("{request}\n").as_bytes())
        .expect("request written");
    let output = worker.wait_with_output().expect("worker exits");
    let frames: Vec<Frame> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(protocol::parse)
        .filter(|frame| *frame != Frame::Heartbeat)
        .collect();
    match frames.as_slice() {
        [Frame::Rss(bytes), Frame::Ok(_), Frame::End(1)] => assert!(
            *bytes >= TOUCHED_BYTES as u64,
            "the worker reported {bytes} B after touching {TOUCHED_BYTES} B"
        ),
        other => panic!("expected `@rss`, `@ok` then `@end 1`, got {other:?}"),
    }

    // The parent's side: the report keeps the largest `@rss`, whatever
    // its own samples saw.
    let pool = pool(SandboxPolicy::default());
    let report = pool.run("report-rss", RequestLimits::default());
    assert_eq!(report.peak_rss_bytes, Some(REPORTED_RSS));

    let report = pool.run("touch64", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed(TOUCHED_BYTES.to_string()),
        "stderr: {}",
        report.stderr_tail
    );
    let peak = report.peak_rss_bytes.unwrap_or(0);
    assert!(
        peak >= TOUCHED_BYTES as u64,
        "peak RSS {peak} B is below the {TOUCHED_BYTES} B the child touched"
    );
    println!("ok short_lived_children_report_their_peak_rss");
}

fn session(pool: &SandboxPool) -> Session {
    match pool.spawn() {
        Ok(session) => session,
        Err(report) => panic!("worker did not spawn: {:?}", report.outcome),
    }
}

fn one_session_serves_many_requests() {
    let pool = pool(SandboxPolicy::default());
    let mut worker = session(&pool);
    let pid = worker.id().to_string();
    for (request, expected) in [
        ("pid", ChildOutcome::Completed(pid.clone())),
        ("err", ChildOutcome::Failed("transient failure".to_string())),
        (
            "multiline",
            ChildOutcome::Completed("line one\nline two".to_string()),
        ),
        (
            "panic",
            ChildOutcome::Panicked("worker panicked on purpose".to_string()),
        ),
        ("pid", ChildOutcome::Completed(pid.clone())),
    ] {
        let report = worker.serve(request, RequestLimits::default());
        assert_eq!(report.outcome, expected, "stderr: {}", report.stderr_tail);
        assert_eq!(report.exit_code, None, "the worker lives on");
        assert!(worker.is_alive(), "the worker serves the next request");
    }
    let status = worker.close().expect("the closed worker is reaped");
    assert_eq!(status.code(), Some(0), "the worker exits when stdin closes");
    assert!(!worker.is_alive());
    println!("ok one_session_serves_many_requests");
}

fn stray_frames_never_become_answers() {
    let pool = pool(SandboxPolicy::default());
    let mut worker = session(&pool);
    let report = worker.serve("stray-frames", RequestLimits::default());
    assert_eq!(report.outcome, ChildOutcome::Completed("real".to_string()));
    let report = worker.serve("ok", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed("payload line".to_string())
    );
    println!("ok stray_frames_never_become_answers");
}

fn a_death_is_classified_and_the_next_request_gets_a_fresh_worker() {
    let pool = pool(SandboxPolicy::default());
    let mut worker = session(&pool);
    let first_pid = worker.id();
    let report = worker.serve("ok", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed("payload line".to_string())
    );
    let report = worker.serve("kill", RequestLimits::default());
    assert_eq!(report.outcome, ChildOutcome::Signalled { signal: SIGKILL });
    assert_eq!(report.signal, Some(SIGKILL));
    assert!(!worker.is_alive(), "a dead worker serves nothing more");

    let mut fresh = session(&pool);
    assert_ne!(fresh.id(), first_pid);
    let report = fresh.serve("pid", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed(fresh.id().to_string())
    );
    println!("ok a_death_is_classified_and_the_next_request_gets_a_fresh_worker");
}

#[cfg(target_os = "linux")]
fn oom_after_an_ok_request_on_one_worker_is_oom_killed() {
    // The worker first serves a request without limits and touches
    // 64 MiB; the oom request then lowers its soft RLIMIT_AS.
    let pool = pool(SandboxPolicy::default());
    let mut worker = session(&pool);
    let report = worker.serve("touch64", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed(TOUCHED_BYTES.to_string())
    );
    let report = worker.serve(
        "oom",
        RequestLimits {
            rlimit_as_bytes: Some(OOM_RLIMIT_AS),
            rlimit_cpu_s: None,
        },
    );
    assert_eq!(
        report.outcome,
        ChildOutcome::OomKilled,
        "exit_code={:?} signal={:?} stderr: {}",
        report.exit_code,
        report.signal,
        report.stderr_tail
    );
    assert!(
        report.peak_rss_bytes.unwrap_or(0) >= TOUCHED_BYTES as u64,
        "the report carries the worker's lifetime peak, read {:?}",
        report.peak_rss_bytes
    );
    println!("ok oom_after_an_ok_request_on_one_worker_is_oom_killed");
}

fn heartbeat_silence_is_judged_only_while_a_request_is_in_flight() {
    // A silent worker idles for several heartbeat budgets between two
    // requests; only time in flight counts as silence.
    let policy = SandboxPolicy {
        heartbeat_interval_ms: 50,
        heartbeat_grace: 2,
    };
    let pool = pool(policy).env(ENV_NO_HEARTBEAT, "1");
    let mut worker = session(&pool);
    for _ in 0..2 {
        let report = worker.serve("ok", RequestLimits::default());
        assert_eq!(
            report.outcome,
            ChildOutcome::Completed("payload line".to_string())
        );
        std::thread::sleep(Duration::from_millis(3 * policy.heartbeat_timeout_ms()));
    }
    let report = worker.serve("hang", RequestLimits::default());
    assert!(
        matches!(report.outcome, ChildOutcome::HeartbeatLost { silent_ms } if silent_ms < 1_000),
        "silence counts from the request, got {:?}",
        report.outcome
    );
    println!("ok heartbeat_silence_is_judged_only_while_a_request_is_in_flight");
}

fn a_worker_killed_while_idle_is_found_dead_before_the_next_request() {
    let pool = pool(SandboxPolicy::default());
    let mut worker = session(&pool);
    let report = worker.serve("ok", RequestLimits::default());
    assert_eq!(
        report.outcome,
        ChildOutcome::Completed("payload line".to_string())
    );
    let killed = std::process::Command::new("kill")
        .args(["-KILL", &worker.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let waiting = WallSpan::begin();
    while worker.is_alive() {
        assert!(
            waiting.elapsed() < Duration::from_secs(5),
            "a SIGKILLed worker still looks alive"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("ok a_worker_killed_while_idle_is_found_dead_before_the_next_request");
}

#[cfg(target_os = "linux")]
fn the_cpu_budget_does_not_build_up_across_requests() {
    let pool = pool(SandboxPolicy::default());
    let mut worker = session(&pool);
    let budget = RequestLimits {
        rlimit_as_bytes: None,
        rlimit_cpu_s: Some(CPU_BUDGET_S),
    };
    // Two requests burn 1.2 s of CPU between them, more than one
    // budget: each budget counts from its own request's start.
    for _ in 0..2 {
        let report = worker.serve("spin600", budget);
        assert_eq!(
            report.outcome,
            ChildOutcome::Completed("spun".to_string()),
            "stderr: {}",
            report.stderr_tail
        );
    }
    // A generous budget left unused does not carry over either: the
    // next request still dies one budget (plus rounding) later.
    let generous = RequestLimits {
        rlimit_as_bytes: None,
        rlimit_cpu_s: Some(3_600),
    };
    let report = worker.serve("ok", generous);
    assert!(matches!(report.outcome, ChildOutcome::Completed(_)));
    let report = worker.serve("spin", budget);
    assert_eq!(
        report.outcome,
        ChildOutcome::Signalled { signal: SIGXCPU },
        "stderr: {}",
        report.stderr_tail
    );
    assert!(
        report.wall_ms < 30_000,
        "SIGXCPU came {} ms into a {CPU_BUDGET_S} s budget",
        report.wall_ms
    );
    println!("ok the_cpu_budget_does_not_build_up_across_requests");
}
