//! The artifact-appendix workflow (appendix A): run one of the artifact's
//! experiment presets, or the static-validation pass.
//!
//! ```text
//! artifact kick-the-tires    # A.5 basic test
//! artifact lbo               # A.7, reproduces Figures 1 and 5
//! artifact latency           # A.7, reproduces Figures 3 and 6
//! artifact validate          # scorecard: PASS/FAIL per headline claim
//! artifact lint [--json]     # static validation; non-zero exit on errors
//! artifact lint --rules      # print the rule catalogue
//! artifact analyze [--check] # pre-flight analyze every shipped plan
//! artifact analyze --plan demo:cold-start     # one plan (R8xx errors)
//! artifact analyze --plan lbo --results r.csv # + provenance checking
//! artifact srclint [--check] [--json]  # lint the workspace's own source
//! artifact trace             # observed h2 run -> Perfetto trace + metrics
//! artifact chaos [--check]   # seeded fault-injection smoke suite
//! artifact chaos --workers   # fleet worker-kill storm + resume, byte-compared
//! artifact model --check     # exhaustive fleet-protocol model check
//! artifact model --demo lost-lease --trace  # seeded bug + trace
//! ```
//!
//! `artifact analyze [--plan NAME] [--results FILE] [--json]` compiles a
//! named experiment plan (a shipped preset or a deliberately broken
//! `demo:*` plan; all shipped plans when `--plan` is omitted) and runs
//! the `chopin-analyzer` static pass over it: heap feasibility, warmup
//! sufficiency, fault-window reachability and the wall-time cost model
//! (rules R801–R809). With `--results FILE` the given runbms CSV or
//! sweep journal is additionally checked for provenance against the
//! plan (rules R810–R813). The exit code is non-zero exactly when any
//! error-severity finding is reported, so `--check` (accepted for
//! symmetry with the other CI gates) needs no special casing.
//!
//! `artifact srclint [--check] [--json]` runs the `chopin-srclint`
//! source-level pass (rules R1001–R1012) over every `src/` tree in the
//! workspace: determinism hazards (hash iteration, wall clocks, ambient
//! entropy), soundness boundaries (`unsafe`, process exits, unsupervised
//! threads) and hygiene (unjustified `#[allow]`, stale suppressions,
//! catalogue/README drift). Like the other gates, the exit code is
//! non-zero exactly when an unsuppressed error-severity finding exists,
//! so `--check` needs no special casing; `--rules` prints the shared
//! catalogue.
//!
//! `artifact chaos [-b BENCHES] [--faults PRESET[:SEED]] [--cell-deadline
//! MS] [--retries N]` sweeps a small benchmark set across all collectors
//! under an injected fault preset (default `chaos`), supervised. With
//! `--check` it verifies the resilience invariants — every cell completes
//! or is quarantined with a structured reason (never an abort), completed
//! samples conserve time (distillable ≤ total, all finite and positive)
//! and every LBO curve stays ≥ 1 — and exits non-zero on any violation:
//! the CI chaos gate.
//!
//! Chaos builds its supervisor from the same flags as `runbms` and
//! `lbo`, so it also accepts the isolation flags: `--isolation process` runs
//! each cell in a sandboxed child, `--hard-faults kill|abort|oom` adds
//! real process deaths on deterministic victim cells (process isolation
//! required, rule R903), `--crash-reports FILE` writes one JSONL record
//! per hard child failure, and `--journal FILE` / `--resume` extend to
//! crashed sweeps unchanged. Under a hard-fault plan, `--check`
//! additionally verifies the quarantined set is exactly the plan's
//! victim set and every victim carries the crash taxonomy its death mode
//! implies (kill → SIGKILL, abort → SIGABRT, oom → the RLIMIT_AS
//! backstop) — the CI hard-fault gate.
//!
//! `artifact chaos --workers` is the fleet gate: the chaos sweep is
//! sharded across a four-worker fleet (`chopin-fleet`) while a seeded
//! storm SIGKILLs at least two of the workers mid-run, and then — in a
//! second leg — a `runbms` coordinator under the same storm SIGKILLs
//! itself mid-sweep (`CHOPIN_FLEET_DIE_AFTER`) and a second `runbms`
//! resumes from the per-worker journals. Both legs must produce a merged
//! CSV byte-identical to a sequential `--isolation process` baseline, or
//! the gate exits 1.
//!
//! `artifact chaos --net` is the partition-tolerance gate. Leg one
//! shards the chaos sweep across a four-worker fleet with the seeded
//! `storm` net-fault preset shimming every worker link (drops, delays,
//! duplicates, partition windows) and requires the merged CSV to be
//! byte-identical to the sequential baseline with zero quarantines —
//! the retry/resend wire semantics must absorb the whole storm. Leg two
//! drives the real `runbms` binary: a primary coordinator under the
//! same storm is SIGKILLed mid-sweep (`CHOPIN_FLEET_DIE_AFTER`) while a
//! registered standby takes over its lease table from the merged
//! journals without restarting the workers; the standby's CSV must be
//! byte-identical to a sequential `runbms` baseline and the takeover
//! log (`<journal>.takeover`) must record the hand-off. Set
//! `CHOPIN_CHAOS_NET_DIR` to keep the journal shards and takeover log
//! for CI upload.
//!
//! `artifact model [--check] [--bounds W,C,K[,N]] [--trace] [--demo
//! lost-lease|split-brain]` runs the `chopin-model` bounded exhaustive
//! state-space checker over the fleet lease protocol: every
//! interleaving of wire messages, worker deaths, coordinator crashes
//! (or stand-by hand-offs), network drops/duplications, admission
//! probes and lease expiries under the given bounds, with the shipped
//! `Coordinator` as the coordinator (rules R1301–R1305 and
//! R1401–R1403).
//! Exits non-zero on a violation, writing the minimal
//! message-by-message counterexample to
//! `results/model-counterexample.txt` for CI to upload; `--demo
//! lost-lease` seeds the broken resume path and exits 1 with the R1303
//! trace, `--demo split-brain` seeds the unfenced takeover and exits 1
//! with the R1402 trace.
//!
//! `artifact trace [-b BENCH] [--collector NAME] [--heap-factor F]
//! [--trace-out FILE] [--events-out FILE] [--check]` runs one benchmark
//! with the engine's tracing observer attached, writes a
//! Chrome-trace/Perfetto JSON document (open it at ui.perfetto.dev) and
//! prints the folded metrics registry. `--check` re-validates the written
//! document (well-formed JSON, matched B/E spans, expected tracks) and
//! exits non-zero on any defect — the CI gate.

use chopin_core::lbo::{Clock, LboAnalysis};
use chopin_faults::{FaultPlan, HardFaultKind, HardFaultPlan, NetFaultPlan};
use chopin_fleet::{FleetConfig, WorkerStormPlan};
use chopin_harness::cli::{check_flags, Args};
use chopin_harness::obs::{
    export_obs, observe_benchmark, validate_obs, DEFAULT_EVENTS_OUT, DEFAULT_TRACE_OUT, OBS_FLAGS,
};
use chopin_harness::preflight;
use chopin_harness::presets::Preset;
use chopin_harness::supervisor::{
    plan_from_args, policy_from_args, supervisor_from_args, QuarantineReason, SuiteSupervisor,
    SCHEDULER_FLAGS,
};
use chopin_obs::validate_chrome_trace;
use chopin_runtime::collector::CollectorKind;
use chopin_sandbox::limits::{SIGABRT, SIGKILL};
use chopin_sandbox::IsolationMode;
use chopin_workloads::faults::{preset as fault_preset, DEFAULT_HORIZON_NS, FALLBACK_SEED};
use chopin_workloads::WorkloadProfile;

const USAGE: &str = "usage: artifact <kick-the-tires|lbo|latency|validate|lint|analyze|srclint|\
                     trace|chaos|model> [--json|--rules|--check|--plan NAME|--results FILE|\
                     --workers|--net|--bounds W,C,K[,N]|--demo NAME|--trace]";

/// The deterministic CSV of a suite report, in schedule order — the
/// byte-equality currency of the fleet checks (same shape `runbms`
/// prints).
fn sweep_csv(report: &chopin_harness::supervisor::SuiteReport) -> String {
    let mut out = String::new();
    for result in &report.results {
        for s in &result.samples {
            out.push_str(&format!(
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
    out
}

/// What a chaos leg sweeps: the `-b` benchmarks (else `default`), their
/// profiles, and the `--faults` plan (else the chaos preset).
fn chaos_inputs(
    args: &Args,
    default: &[&str],
) -> Result<(Vec<String>, Vec<WorkloadProfile>, FaultPlan), String> {
    let mut benchmarks = args.list("b");
    if benchmarks.is_empty() {
        benchmarks = default.iter().map(|b| b.to_string()).collect();
    }
    let profiles = chopin_harness::resolve_profiles(&benchmarks).map_err(|e| e.to_string())?;
    let plan = plan_from_args(args)?.unwrap_or_else(|| {
        fault_preset("chaos", FALLBACK_SEED, DEFAULT_HORIZON_NS).expect("chaos is a preset")
    });
    Ok((benchmarks, profiles, plan))
}

/// The worker-kill-storm leg of `artifact chaos` (`--workers`): shard
/// the chaos sweep across a four-worker fleet while a seeded storm
/// SIGKILLs at least two of the workers mid-run, then separately
/// SIGKILL a `runbms` coordinator mid-run (`CHOPIN_FLEET_DIE_AFTER`) and
/// resume it — requiring the merged CSV to be byte-identical to a
/// sequential `--isolation process` baseline in both legs.
fn run_chaos_workers(args: &Args) -> i32 {
    const FLEET_WORKERS: u32 = 4;
    let (benchmarks, profiles, plan) = match chaos_inputs(args, &["fop"]) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let policy = match policy_from_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let sweep = chopin_harness::presets::chaos_sweep_config();
    let cells = profiles.len() * sweep.collectors.len() * sweep.heap_factors.len();

    // A storm seed with at least two victims and at least one survivor
    // among the initial worker ids, found deterministically.
    let seed = (1u64..)
        .find(|&seed| {
            let hard = HardFaultPlan::new(HardFaultKind::Kill, seed);
            let victims = (0..u64::from(FLEET_WORKERS))
                .filter(|&w| hard.worker_victim(w))
                .count();
            victims >= 2 && victims < FLEET_WORKERS as usize
        })
        .expect("victim hashing covers both outcomes");
    let mut storm = WorkerStormPlan::new(HardFaultPlan::new(HardFaultKind::Kill, seed));
    // Die on the first lease: the chaos sweep is small, and a victim
    // waiting for its second lease might never get one.
    storm.kill_after_leases = 1;

    eprintln!(
        "artifact chaos --workers: {cells} cell(s) across {FLEET_WORKERS} worker(s), \
         storm seed {seed}"
    );

    let supervised = |configure: &dyn Fn(SuiteSupervisor) -> SuiteSupervisor| {
        configure(SuiteSupervisor::new(policy).with_faults(plan.clone())).run(&profiles, &sweep)
    };

    // The bytes every fleet leg must reproduce: a sequential,
    // process-isolated run of the same sweep.
    let baseline = match supervised(&|s| s.with_isolation(IsolationMode::Process)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: baseline run: {e}");
            return 2;
        }
    };
    let baseline_csv = sweep_csv(&baseline);
    let mut failures: Vec<String> = Vec::new();

    // Leg 1: the storm. At least two of the four workers are SIGKILLed
    // mid-run; survivors and respawned slots drain the matrix anyway.
    let mut stormy = FleetConfig::new(FLEET_WORKERS);
    stormy.storm = Some(storm);
    match supervised(&|s| s.with_fleet(Some(stormy.clone()))) {
        Ok(report) => {
            let deaths = report.metrics.counter("fleet.workers.deaths");
            println!(
                "storm leg: {} worker(s) spawned, {deaths} killed, {} lease(s) requeued",
                report.metrics.counter("fleet.workers.spawned"),
                report.metrics.counter("fleet.cells.requeued"),
            );
            if deaths < 2 {
                failures.push(format!(
                    "storm killed {deaths} worker(s); expected at least 2 of {FLEET_WORKERS}"
                ));
            }
            if !report.is_clean() {
                failures.push(format!(
                    "{} cell(s) quarantined under the storm",
                    report.quarantined.len()
                ));
            }
            if sweep_csv(&report) != baseline_csv {
                failures.push("storm-run CSV differs from the sequential baseline".to_string());
            }
        }
        Err(e) => failures.push(format!("storm run failed outright: {e}")),
    }

    // Leg 2: coordinator death and resume, against the real binary. A
    // runbms child coordinating the same storm SIGKILLs itself mid-sweep
    // (`CHOPIN_FLEET_DIE_AFTER`); a resumed child absorbs the per-worker
    // journals and must still reproduce a sequential baseline's bytes.
    let dir = std::env::temp_dir().join(format!("chopin-chaos-workers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {e}");
        return 2;
    }
    let Some(runbms) = sibling_runbms() else {
        eprintln!("error: no runbms binary beside this artifact binary; build the workspace first");
        return 2;
    };
    let bench_flag = benchmarks.join(",");
    match resume_leg(
        &runbms,
        &bench_flag,
        &format!("kill:{seed}"),
        &dir.join("storm.journal"),
    ) {
        Ok(note) => println!("resume leg: {note}"),
        Err(e) => failures.push(e),
    }
    let _ = std::fs::remove_dir_all(&dir);

    if failures.is_empty() {
        println!("check OK: merged fleet CSV is byte-identical to the sequential baseline");
        0
    } else {
        for f in &failures {
            eprintln!("check FAILED: {f}");
        }
        1
    }
}

/// The `runbms` binary built beside this one, if any.
fn sibling_runbms() -> Option<std::path::PathBuf> {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("runbms")))
        .filter(|p| p.exists())
}

/// Run the real-binary resume scenario for [`run_chaos_workers`]: a
/// `runbms` fleet under the worker storm SIGKILLs itself after ten
/// completions, a second `runbms` resumes from the journal it left, and
/// the resumed CSV must equal a sequential `--isolation process`
/// baseline. Returns a one-line success note, or the failure.
fn resume_leg(
    runbms: &std::path::Path,
    bench_flag: &str,
    storm_flag: &str,
    journal: &std::path::Path,
) -> Result<String, String> {
    use std::os::unix::process::ExitStatusExt;
    let journal_flag = journal.to_str().ok_or("non-utf8 temp path")?;
    let run = |extra: &[&str], die_after: Option<&str>| {
        let mut cmd = std::process::Command::new(runbms);
        cmd.args(["-b", bench_flag, "--quick", "--faults", "chaos"])
            .args(extra);
        if let Some(limit) = die_after {
            cmd.env("CHOPIN_FLEET_DIE_AFTER", limit);
        }
        cmd.output().map_err(|e| format!("runbms spawn: {e}"))
    };
    let baseline = run(&["--isolation", "process"], None)?;
    let interrupted = run(
        &[
            "--fleet",
            "4",
            "--fleet-storm",
            storm_flag,
            "--journal",
            journal_flag,
        ],
        Some("10"),
    )?;
    if interrupted.status.signal() != Some(SIGKILL) {
        return Err(format!(
            "the die-after hook never fired ({}); the interruption leg tested nothing:\n{}",
            interrupted.status,
            String::from_utf8_lossy(&interrupted.stderr)
        ));
    }
    let resumed = run(
        &["--fleet", "4", "--journal", journal_flag, "--resume"],
        None,
    )?;
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    // `runbms: N cell(s), M completed (R resumed, …`
    let recovered: u64 = stderr
        .split(" resumed")
        .next()
        .and_then(|head| head.rsplit('(').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    if recovered == 0 {
        return Err(format!(
            "resume recovered nothing from the worker journals:\n{stderr}"
        ));
    }
    if resumed.stdout != baseline.stdout {
        return Err(format!(
            "resumed CSV differs from the sequential baseline:\n{stderr}"
        ));
    }
    Ok(format!(
        "{recovered} cell(s) recovered from the journals of a SIGKILLed coordinator; CSV \
         byte-identical"
    ))
}

/// The partition-tolerance leg of `artifact chaos` (`--net`).
///
/// Leg one runs in-process: the chaos sweep is sharded across a
/// four-worker fleet while the seeded `storm` net-fault preset shims
/// every worker link — one frame in four dropped, one in four delayed
/// 750ms, one in four duplicated, and a 1.5s partition window over half
/// the workers every 4s. The resend/dedup/fencing wire semantics must
/// absorb all of it: the merged CSV has to be byte-identical to a
/// sequential `--isolation process` baseline with zero quarantines, and
/// the shim has to report actual faults (a silent shim tests nothing).
///
/// Leg two drives the real `runbms` binary end-to-end: a standby
/// coordinator registers with a primary that runs the same storm and
/// SIGKILLs itself mid-sweep (`CHOPIN_FLEET_DIE_AFTER`); the standby
/// must detect the lost heartbeat, take over the lease table from the
/// merged journals, finish the sweep with the surviving workers, print
/// a CSV byte-identical to a sequential `runbms` baseline, and record
/// the hand-off in the `<journal>.takeover` log.
///
/// Scratch space (journal shards, takeover log) lives in
/// `CHOPIN_CHAOS_NET_DIR` when set — kept for CI upload — or in a
/// pid-suffixed temp dir removed on exit.
fn run_chaos_net(args: &Args) -> i32 {
    const FLEET_WORKERS: u32 = 4;
    const NET_SEED: u64 = 7;
    let (benchmarks, profiles, plan) = match chaos_inputs(args, &["fop"]) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let policy = match policy_from_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let sweep = chopin_harness::presets::chaos_sweep_config();
    let cells = profiles.len() * sweep.collectors.len() * sweep.heap_factors.len();
    let net = NetFaultPlan::preset("storm", NET_SEED).expect("storm is a preset");
    eprintln!(
        "artifact chaos --net: {cells} cell(s) across {FLEET_WORKERS} worker(s) under \
         net-fault shim: {net}"
    );

    let supervised = |configure: &dyn Fn(SuiteSupervisor) -> SuiteSupervisor| {
        configure(SuiteSupervisor::new(policy).with_faults(plan.clone())).run(&profiles, &sweep)
    };
    let baseline = match supervised(&|s| s.with_isolation(IsolationMode::Process)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: baseline run: {e}");
            return 2;
        }
    };
    let baseline_csv = sweep_csv(&baseline);
    let mut failures: Vec<String> = Vec::new();

    // Leg 1: the partition storm, in-process. Every worker link is
    // shimmed; the merge must still be byte-exact and quarantine-free.
    let mut stormy = FleetConfig::new(FLEET_WORKERS);
    stormy.net = Some(net);
    match supervised(&|s| s.with_fleet(Some(stormy.clone()))) {
        Ok(report) => {
            let dropped = report.metrics.counter("fleet.net.dropped");
            let delayed = report.metrics.counter("fleet.net.delayed");
            let duplicated = report.metrics.counter("fleet.net.duplicated");
            let partitioned = report.metrics.counter("fleet.net.partitioned");
            println!(
                "storm leg: {dropped} frame(s) dropped, {delayed} delayed, {duplicated} \
                 duplicated, {partitioned} partitioned; {} lease(s) expired",
                report.metrics.counter("fleet.leases.expired"),
            );
            if dropped + delayed + duplicated + partitioned == 0 {
                failures
                    .push("the net shim faulted zero frames; the storm leg tested nothing".into());
            }
            if !report.is_clean() {
                failures.push(format!(
                    "{} cell(s) quarantined under the net storm",
                    report.quarantined.len()
                ));
            }
            if sweep_csv(&report) != baseline_csv {
                failures.push("stormed CSV differs from the sequential baseline".to_string());
            }
        }
        Err(e) => failures.push(format!("stormed run failed outright: {e}")),
    }

    // Leg 2: the hand-off, against the real binaries.
    let (dir, keep_dir) = match std::env::var("CHOPIN_CHAOS_NET_DIR") {
        Ok(d) if !d.is_empty() => (std::path::PathBuf::from(d), true),
        _ => (
            std::env::temp_dir().join(format!("chopin-chaos-net-{}", std::process::id())),
            false,
        ),
    };
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {e}");
        return 2;
    }
    let journal = dir.join("handoff.journal");
    let Some(runbms) = sibling_runbms() else {
        eprintln!("error: no runbms binary beside this artifact binary; build the workspace first");
        return 2;
    };
    let bench_flag = benchmarks.join(",");
    let net_flag = format!("storm:{NET_SEED}");
    match handoff_leg(&runbms, &bench_flag, &net_flag, &journal) {
        Ok(note) => println!("hand-off leg: {note}"),
        Err(e) => failures.push(e),
    }
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    if failures.is_empty() {
        println!(
            "check OK: the net storm and the coordinator hand-off both reproduced the \
             sequential baseline byte-for-byte"
        );
        0
    } else {
        for f in &failures {
            eprintln!("check FAILED: {f}");
        }
        1
    }
}

/// Run the real-binary hand-off scenario for [`run_chaos_net`]: spawn a
/// primary doomed to SIGKILL itself mid-sweep, then a standby pointed at
/// the address the primary bound, and check the standby's takeover
/// reproduces a sequential baseline.
/// Returns a one-line success note, or the failure description.
fn handoff_leg(
    runbms: &std::path::Path,
    bench_flag: &str,
    net_flag: &str,
    journal: &std::path::Path,
) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    let journal_flag = journal.to_str().ok_or("non-utf8 temp path")?;

    // The real-binary sequential baseline the standby must reproduce.
    let seq = Command::new(runbms)
        .args(["-b", bench_flag, "--quick", "--isolation", "process"])
        .output()
        .map_err(|e| format!("baseline runbms spawn: {e}"))?;
    if !seq.status.success() {
        return Err(format!(
            "baseline runbms run failed:\n{}",
            String::from_utf8_lossy(&seq.stderr)
        ));
    }

    // The primary: same matrix, the net storm on its worker links, and
    // the die-after hook set to SIGKILL it after two completions. It
    // binds port 0 and names the address on stderr; `--fleet-await-standby`
    // holds every lease until the standby below adopts, so the primary
    // cannot die before a successor exists.
    let mut primary = Command::new(runbms)
        .args([
            "-b",
            bench_flag,
            "--quick",
            "--fleet",
            "4",
            "--fleet-await-standby",
        ])
        .args(["--net-faults", net_flag, "--journal", journal_flag])
        .env("CHOPIN_FLEET_DIE_AFTER", "2")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("primary runbms spawn: {e}"))?;
    let mut primary_err = BufReader::new(primary.stderr.take().ok_or("primary stderr")?);
    let mut seen = String::new();
    let primary_addr = loop {
        let mut line = String::new();
        match primary_err.read_line(&mut line) {
            Ok(0) | Err(_) => return Err(format!("the primary exited before binding:\n{seen}")),
            Ok(_) => seen.push_str(&line),
        }
        if let Some(rest) = line.split("--fleet-connect ").nth(1) {
            break rest.trim_end().trim_end_matches(')').to_string();
        }
    };

    let standby = Command::new(runbms)
        .args(["-b", bench_flag, "--quick", "--fleet", "4"])
        .args(["--fleet-standby", &primary_addr, "--journal", journal_flag])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("standby runbms spawn: {e}"))?;
    let primary = primary
        .wait()
        .map_err(|e| format!("primary runbms wait: {e}"))?;
    if primary.success() {
        let _ = standby.wait_with_output();
        return Err(
            "the die-after hook never fired; the primary finished without a hand-off".to_string(),
        );
    }

    let standby = standby
        .wait_with_output()
        .map_err(|e| format!("standby runbms wait: {e}"))?;
    let standby_err = String::from_utf8_lossy(&standby.stderr);
    if !standby.status.success() {
        return Err(format!(
            "the standby failed to take over ({}):\n{standby_err}\nprimary stderr:\n{}",
            standby.status,
            {
                let _ = primary_err.read_to_string(&mut seen);
                seen
            }
        ));
    }
    if standby.stdout != seq.stdout {
        let got = String::from_utf8_lossy(&standby.stdout);
        let want = String::from_utf8_lossy(&seq.stdout);
        let divergence = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .map_or_else(
                || {
                    format!(
                        "line counts differ: baseline {}, standby {}",
                        want.lines().count(),
                        got.lines().count()
                    )
                },
                |(i, (w, g))| format!("line {}: baseline `{w}` vs standby `{g}`", i + 1),
            );
        return Err(format!(
            "the standby's merged CSV differs from the sequential baseline ({divergence})\n\
             standby stderr:\n{standby_err}"
        ));
    }
    let takeover_log = journal.with_file_name(format!(
        "{}.takeover",
        journal.file_name().unwrap_or_default().to_string_lossy()
    ));
    let log = std::fs::read_to_string(&takeover_log)
        .map_err(|e| format!("no takeover log at {}: {e}", takeover_log.display()))?;
    if log.trim().is_empty() {
        return Err(format!(
            "the takeover log at {} is empty",
            takeover_log.display()
        ));
    }
    Ok(format!(
        "standby took over after the primary was SIGKILLed; CSV byte-identical, takeover \
         log records: {}",
        log.lines().next().unwrap_or_default()
    ))
}

fn run_chaos(args: &Args) -> i32 {
    if args.has("workers") {
        return run_chaos_workers(args);
    }
    if args.has("net") {
        return run_chaos_net(args);
    }
    let (benchmarks, profiles, plan) = match chaos_inputs(args, &["fop", "lusearch"]) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let hard = match chopin_harness::sandbox::hard_plan_from_args(args) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let supervisor = match supervisor_from_args(args) {
        Ok(s) => s.with_faults(plan.clone()),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let sweep = chopin_harness::presets::chaos_sweep_config();
    eprintln!(
        "artifact chaos: {} benchmark(s) x {} collectors under seeded faults (seed {})",
        profiles.len(),
        sweep.collectors.len(),
        plan.seed
    );
    let report = match supervisor.run(&profiles, &sweep) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    println!(
        "{} cell(s): {} completed, {} infeasible at small heaps, {} quarantined, {} retries",
        report.metrics.counter("supervisor.cells"),
        report.metrics.counter("supervisor.cells.completed"),
        report.metrics.counter("supervisor.cells.infeasible"),
        report.metrics.counter("supervisor.cells.quarantined"),
        report.metrics.counter("supervisor.retries"),
    );
    print!("{}", report.quarantine_summary());
    if !report.crash_reports.is_empty() {
        println!("{} crash report(s) collected", report.crash_reports.len());
    }

    if !args.has("check") {
        return 0;
    }
    let mut failures = Vec::new();
    if let Some(hard) = &hard {
        check_hard_faults(hard, &benchmarks, &sweep, &report, &mut failures);
    }
    let completed = report.metrics.counter("supervisor.cells.completed");
    let quarantined = report.metrics.counter("supervisor.cells.quarantined");
    if completed + quarantined != report.metrics.counter("supervisor.cells") {
        failures.push("cell accounting does not balance".to_string());
    }
    if completed == 0 {
        failures.push("no cell completed under the fault plan".to_string());
    }
    for result in &report.results {
        for s in &result.samples {
            let finite = [
                s.wall_s,
                s.task_s,
                s.wall_distillable_s,
                s.task_distillable_s,
            ]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0);
            if !finite {
                failures.push(format!(
                    "{}: non-finite or non-positive time",
                    result.benchmark
                ));
            }
            if s.wall_distillable_s > s.wall_s + 1e-12 || s.task_distillable_s > s.task_s + 1e-12 {
                failures.push(format!(
                    "{}: distillable time exceeds total ({} {:.2}x)",
                    result.benchmark, s.collector, s.heap_factor
                ));
            }
        }
        for clock in [Clock::Wall, Clock::Task] {
            let Ok(lbo) = LboAnalysis::compute(&result.samples, clock) else {
                continue;
            };
            for &collector in &sweep.collectors {
                let Some(curve) = lbo.curve(collector) else {
                    continue;
                };
                for point in curve {
                    if point.overhead.mean() < 1.0 - 1e-9 {
                        failures.push(format!(
                            "{}: LBO < 1 for {} at {:.2}x under faults",
                            result.benchmark, collector, point.heap_factor
                        ));
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        println!("check OK: invariants hold under injected duress");
        0
    } else {
        failures.dedup();
        for f in &failures {
            eprintln!("check FAILED: {f}");
        }
        1
    }
}

/// The hard-fault leg of `chaos --check`: the quarantined set must be
/// exactly the plan's victim set, and every victim's quarantine reason
/// must carry the crash taxonomy its death mode implies.
fn check_hard_faults(
    hard: &HardFaultPlan,
    benchmarks: &[String],
    sweep: &chopin_core::sweep::SweepConfig,
    report: &chopin_harness::supervisor::SuiteReport,
    failures: &mut Vec<String>,
) {
    let reason_matches = |reason: &QuarantineReason| match hard.kind {
        HardFaultKind::Kill => {
            matches!(reason, QuarantineReason::Signalled { signal } if *signal == SIGKILL)
        }
        HardFaultKind::Abort => {
            matches!(reason, QuarantineReason::Signalled { signal } if *signal == SIGABRT)
        }
        HardFaultKind::OomBlowup => matches!(reason, QuarantineReason::OomKilled),
    };
    let mut victims = 0;
    for bench in benchmarks {
        for &collector in &sweep.collectors {
            for &factor in &sweep.heap_factors {
                if !hard.is_victim(bench, &collector.to_string(), factor) {
                    continue;
                }
                victims += 1;
                let entry = report.quarantined.iter().find(|q| {
                    q.cell.benchmark == *bench
                        && q.cell.collector == collector
                        && q.cell.heap_factor == factor
                });
                match entry {
                    None => failures.push(format!(
                        "victim {bench} {collector} {factor:.2}x was not quarantined"
                    )),
                    Some(q) if !reason_matches(&q.reason) => failures.push(format!(
                        "victim {bench} {collector} {factor:.2}x quarantined with the wrong \
                         taxonomy for `{}`: {}",
                        hard.kind, q.reason
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    if victims == 0 {
        failures.push("the hard-fault plan selected no victims on this grid".to_string());
    }
    for q in &report.quarantined {
        if !hard.is_victim(
            &q.cell.benchmark,
            &q.cell.collector.to_string(),
            q.cell.heap_factor,
        ) {
            failures.push(format!(
                "non-victim {} {} {:.2}x was quarantined: {}",
                q.cell.benchmark, q.cell.collector, q.cell.heap_factor, q.reason
            ));
        }
    }
    if report.crash_reports.len() < victims {
        failures.push(format!(
            "{} victim(s) but only {} crash report(s)",
            victims,
            report.crash_reports.len()
        ));
    }
}

fn run_lint(args: &Args) -> i32 {
    if args.has("rules") {
        print!("{}", chopin_lint::render_catalogue());
        return 0;
    }
    let report = chopin_harness::lint::lint_all();
    emit_report(&report, args)
}

/// Shared report rendering for `lint` and `analyze`: table or `--json`,
/// exit code from the shared severity model (non-zero iff any error).
fn emit_report(report: &chopin_lint::LintReport, args: &Args) -> i32 {
    if args.has("json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_table());
    }
    report.exit_code()
}

fn run_srclint(args: &Args) -> i32 {
    if args.has("rules") {
        print!("{}", chopin_lint::render_catalogue());
        return 0;
    }
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot determine the working directory: {e}");
            return 2;
        }
    };
    let Some(root) = chopin_srclint::find_workspace_root(&cwd) else {
        eprintln!(
            "error: no workspace root above {} (looked for a Cargo.toml with [workspace])",
            cwd.display()
        );
        return 2;
    };
    let report = match chopin_srclint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    emit_report(&report, args)
}

fn run_analyze(args: &Args) -> i32 {
    if args.has("rules") {
        print!("{}", chopin_lint::render_catalogue());
        return 0;
    }
    let report = match args.value("plan") {
        Some(name) => {
            let Some(plan) = preflight::plan_by_name(name) else {
                eprintln!(
                    "error: unknown plan `{name}` (shipped: {}; demos: {})",
                    preflight::PLAN_NAMES.join(", "),
                    chopin_analyzer::demo::DEMOS
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return 2;
            };
            let mut report = chopin_analyzer::analyze(&plan);
            if let Some(path) = args.value("results") {
                match std::fs::read_to_string(path) {
                    Ok(text) => report.extend(chopin_analyzer::analyze_artifact(&plan, &text)),
                    Err(e) => {
                        eprintln!("error: cannot read {path}: {e}");
                        return 2;
                    }
                }
            }
            report
        }
        None => {
            if args.has("results") {
                eprintln!("error: --results needs --plan NAME to check provenance against");
                return 2;
            }
            let mut diagnostics = Vec::new();
            for plan in preflight::shipped_plans() {
                let report = chopin_analyzer::analyze(&plan);
                eprintln!(
                    "analyze: plan `{}`: {} error(s), {} warning(s)",
                    plan.name,
                    report.error_count(),
                    report.warn_count()
                );
                diagnostics.extend(report.diagnostics);
            }
            chopin_lint::LintReport::new(diagnostics)
        }
    };
    emit_report(&report, args)
}

fn run_trace(args: &Args) -> i32 {
    let bench = args.value("b").unwrap_or("h2");
    let collector: CollectorKind = match args.value("collector").unwrap_or("shenandoah").parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let factor = match args.get_or("heap-factor", 2.0) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let opts = chopin_obs::ObsConfig {
        trace_out: Some(
            args.value("trace-out")
                .unwrap_or(DEFAULT_TRACE_OUT)
                .to_string(),
        ),
        events_out: Some(
            args.value("events-out")
                .unwrap_or(DEFAULT_EVENTS_OUT)
                .to_string(),
        ),
    };
    if let Err(e) = validate_obs(&opts) {
        eprintln!("error: {e}");
        return 2;
    }

    eprintln!("artifact trace: {bench} ({collector} @ {factor:.1}x)");
    let observed = match observe_benchmark(bench, collector, factor) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Err(e) = &observed.outcome {
        eprintln!("note: run failed ({e}); trace covers the failure");
    }
    let trace = observed.trace();
    let json = trace.to_json();
    let paths = match export_obs(&opts, Some(&trace), Some(&observed.recorder)) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    for p in &paths {
        println!("wrote {}", p.display());
    }
    println!(
        "{} events recorded ({} dropped by the ring buffer)",
        observed.recorder.len(),
        observed.recorder.dropped()
    );
    print!("{}", observed.metrics.render_table());

    if args.has("check") {
        let stats = match validate_chrome_trace(&json) {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("check FAILED: {e}");
                return 1;
            }
        };
        let mut failures = Vec::new();
        if stats.spans_on("mutator") == 0 {
            failures.push("no mutator spans".to_string());
        }
        if stats.spans_on("gc-stw") == 0 {
            failures.push("no stop-the-world pause spans".to_string());
        }
        if collector.is_concurrent() && stats.spans_on("gc-concurrent") == 0 {
            failures.push("no concurrent-cycle spans for a concurrent collector".to_string());
        }
        if failures.is_empty() {
            println!(
                "check OK: {} trace events, {} mutator / {} stw / {} concurrent spans",
                stats.total_events,
                stats.spans_on("mutator"),
                stats.spans_on("gc-stw"),
                stats.spans_on("gc-concurrent"),
            );
            0
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            1
        }
    } else {
        0
    }
}

fn main() {
    // Must run before anything else: under --isolation process this
    // binary re-spawns itself as a sandboxed cell worker.
    chopin_harness::worker_entry();
    let args = Args::from_env();
    let Some(command) = args.positionals().first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let accepted: &[&[&str]] = match command.as_str() {
        "lint" => &[&["json", "rules"]],
        "analyze" => &[&["plan", "results", "json", "check", "rules"]],
        "srclint" => &[&["check", "json", "rules"]],
        "trace" => &[&["b", "collector", "heap-factor", "check"], &OBS_FLAGS],
        "chaos" => &[
            &["b", "check", "workers", "net", "faults", "isolation"],
            &SCHEDULER_FLAGS,
        ],
        "model" => &[&["check", "bounds", "trace", "demo", "out", "rules"]],
        _ => &[],
    };
    if let Err(e) = check_flags(&format!("artifact {command}"), &args, accepted) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if command == "lint" {
        std::process::exit(run_lint(&args));
    }
    if command == "analyze" {
        std::process::exit(run_analyze(&args));
    }
    if command == "srclint" {
        std::process::exit(run_srclint(&args));
    }
    if command == "trace" {
        std::process::exit(run_trace(&args));
    }
    if command == "chaos" {
        std::process::exit(run_chaos(&args));
    }
    if command == "model" {
        std::process::exit(chopin_harness::model::run_model(&args));
    }
    let Some(preset) = Preset::parse(command) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match preset.run() {
        Ok((report, code)) => {
            println!("{report}");
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
