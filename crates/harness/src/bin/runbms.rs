//! The running-ng analog: run a sweep for selected benchmarks and emit
//! machine-readable CSV of every sample — the raw material for all LBO
//! analyses.
//!
//! ```text
//! runbms -b fop --invocations 3
//! runbms -b all --quick > results.csv
//! runbms -b fop --trace-out t.json --events-out e.jsonl
//! runbms -b all --quick --journal run.journal --resume
//! runbms -b fop --faults chaos:42 --cell-deadline 60000 --retries 2
//! ```
//!
//! With no supervisor flag, `runbms` is the sequential reference: one
//! `run_sweep` per benchmark, in order, the output every other executor
//! is byte-compared against. Any supervisor flag (`--faults
//! PRESET[:SEED]`, `--journal FILE`, `--resume`, `--cell-deadline MS`,
//! `--retries N`, `--backoff-ms MS`, and the isolation and fleet flags
//! below) runs the sweep on the sweep scheduler instead, built exactly
//! as `lbo` builds it: cells that panic or hang are retried with backoff
//! and then quarantined instead of killing the run, completed cells are
//! journalled so `--resume` restarts where an interrupted suite stopped,
//! and the exit code is 3 when any cell ended up quarantined (completed
//! results are still printed). A malformed flag or an unknown benchmark
//! exits 2.
//!
//! `--isolation process` moves the isolation boundary from a thread to
//! sandboxed worker processes: each scheduler thread owns one, which
//! runs cell after cell under a fixed heartbeat and soft
//! RLIMIT_AS/RLIMIT_CPU limits derived per cell, so cells that SIGSEGV,
//! get OOM-killed or wedge are quarantined with their crash taxonomy
//! instead of taking the sweep down; stderr reports the workers
//! spawned. `--hard-faults kill|abort|oom[:SEED[:STRIDE]]`
//! injects real process deaths into deterministic victim cells (process
//! isolation required, rule R903); `--crash-reports FILE` writes one
//! JSONL record per hard child failure.
//!
//! `--fleet N` shards the sweep matrix across N worker processes under
//! a lease-table coordinator (`--lease-deadline MS` bounds each grant;
//! `--fleet-storm kill|abort[:SEED[:STRIDE]]` SIGKILLs deterministic
//! victim workers mid-lease). The transport is partition-tolerant and
//! multi-host capable: `--fleet-bind HOST:PORT` pins the listener to a
//! routable address, `--fleet-token TOKEN` makes every handshake carry
//! a per-run secret (wrong tokens are cleanly rejected), and extra
//! machines attach with `--fleet-connect ADDR` (plus the same token).
//! `--net-faults PRESET[:SEED]` (drop/delay/dup/partition/storm)
//! injects a seeded network-fault schedule at the coordinator's
//! transport shim — the retry/timeout discipline must still merge a
//! byte-identical CSV. `--fleet-standby ADDR` runs this process as a
//! hot standby for the primary coordinating at ADDR: it registers,
//! watches heartbeats, and on silence takes over the lease table from
//! the merged journals without restarting workers (the hand-off is
//! recorded in `<journal>.takeover`). `--fleet-await-standby` makes a
//! primary hold every lease until a standby has adopted — the armed
//! failover drill used by `artifact chaos --net`.
//!
//! Every invocation is pre-flight analyzed first (`chopin-analyzer`):
//! plans the static analyses prove broken — infeasible heap grids, dead
//! fault windows, cold-start timing, unmeetable deadlines — abort with
//! exit 2 and an R8xx diagnostic table before any simulation starts.
//! `--no-preflight` bypasses the gate.
//!
//! With `--trace-out`, the sweep's wall times (one span per benchmark
//! sequentially, one for the whole sweep on the scheduler) land on a
//! harness track and the first benchmark is re-run once with the engine's
//! tracing observer attached, under the sweep's fault plan if any, so the
//! file opens in ui.perfetto.dev with both views. `--events-out` writes
//! that observed run's event stream as JSON Lines.

use chopin_analyzer::Methodology;
use chopin_core::sweep::{run_sweep, SweepConfig, SweepResult};
use chopin_core::Suite;
use chopin_harness::cli::{check_flags, sweep_from_args, Args, GRID_FLAGS};
use chopin_harness::obs::{
    add_spans_to_trace, export_obs, obs_from_args, observe_benchmark_with_faults, validate_obs,
    SpanSink, OBS_FLAGS,
};
use chopin_harness::supervisor::{
    supervision_requested, supervisor_from_args, SuiteSupervisor, SCHEDULER_FLAGS,
};
use chopin_harness::{preflight, resolve_profiles};
use chopin_workloads::WorkloadProfile;
use std::io::{self, BufWriter, Stdout, Write};

/// The CSV on stdout, buffered so that rows reach it in blocks instead of
/// one `write` each.
type Csv = BufWriter<Stdout>;

fn print_samples(csv: &mut Csv, result: &SweepResult) {
    for s in &result.samples {
        writeln!(
            csv,
            "{},{},{},{},{},{},{}",
            result.benchmark,
            s.collector,
            s.heap_factor,
            s.wall_s,
            s.task_s,
            s.wall_distillable_s,
            s.task_distillable_s
        )
        .unwrap_or_else(|e| csv_failed(e));
    }
    for f in &result.failures {
        eprintln!(
            "  skipped {} @ {:.2}x: {}",
            f.collector, f.heap_factor, f.reason
        );
    }
}

/// Report a CSV that could not be written (a closed pipe, a full disk).
fn csv_failed(e: io::Error) -> ! {
    eprintln!("error: writing the CSV: {e}");
    std::process::exit(1);
}

/// Flush the CSV and exit with `code`: `process::exit` runs no
/// destructors, so buffered rows would otherwise be lost.
fn exit(csv: &mut Csv, code: i32) -> ! {
    csv.flush().unwrap_or_else(|e| csv_failed(e));
    std::process::exit(code);
}

fn run_supervised(
    csv: &mut Csv,
    supervisor: &SuiteSupervisor,
    profiles: &[WorkloadProfile],
    sweep: &SweepConfig,
) -> i32 {
    let report = match supervisor.run(profiles, sweep) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    for result in &report.results {
        print_samples(csv, result);
    }
    eprintln!(
        "runbms: {} cell(s), {} completed ({} resumed, {} infeasible), {} retries",
        report.metrics.counter("supervisor.cells"),
        report.metrics.counter("supervisor.cells.completed"),
        report.metrics.counter("supervisor.cells.resumed"),
        report.metrics.counter("supervisor.cells.infeasible"),
        report.metrics.counter("supervisor.retries"),
    );
    if report.metrics.counter("fleet.workers.spawned") > 0 {
        eprintln!(
            "runbms: fleet: {} worker(s) spawned, {} death(s), {} slot(s) quarantined, \
             {} lease(s) issued ({} expired, {} stolen), {} requeue(s), \
             {} merge conflict(s), {} cell(s) recovered",
            report.metrics.counter("fleet.workers.spawned"),
            report.metrics.counter("fleet.workers.deaths"),
            report.metrics.counter("fleet.workers.quarantined"),
            report.metrics.counter("fleet.leases.issued"),
            report.metrics.counter("fleet.leases.expired"),
            report.metrics.counter("fleet.leases.stolen"),
            report.metrics.counter("fleet.cells.requeued"),
            report.metrics.counter("fleet.merge.conflicts"),
            report.metrics.counter("fleet.cells.recovered"),
        );
    }
    if report.metrics.counter("sandbox.spawns") > 0 {
        eprintln!(
            "runbms: sandbox: {} spawn(s), {} signalled, {} oom-killed, {} heartbeat kill(s)",
            report.metrics.counter("sandbox.spawns"),
            report.metrics.counter("sandbox.exits.signalled"),
            report.metrics.counter("sandbox.oom_killed"),
            report.metrics.counter("sandbox.kills.heartbeat"),
        );
    }
    if report.is_clean() {
        0
    } else {
        eprint!("{}", report.quarantine_summary());
        3
    }
}

/// Report a malformed command line or an unusable configuration.
fn exit_usage(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    // Must run before anything else: under --isolation process this
    // binary re-spawns itself as a sandboxed cell worker.
    chopin_harness::worker_entry();
    let args = Args::from_env();
    if let Err(e) = check_flags(
        "runbms",
        &args,
        &[
            &GRID_FLAGS,
            &OBS_FLAGS,
            &["no-preflight", "faults", "isolation"],
            &SCHEDULER_FLAGS,
        ],
    ) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    // An external fleet worker never runs its own sweep: it attaches to
    // the printed coordinator address and serves leases until drained.
    if let Some(code) = chopin_harness::fleet::maybe_connect(&args) {
        std::process::exit(code);
    }
    let obs = obs_from_args(&args);
    if let Err(e) = validate_obs(&obs) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let mut benchmarks = args.list("b");
    if benchmarks.is_empty() || benchmarks == ["all"] {
        benchmarks = Suite::chopin()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    let sweep = sweep_from_args(&args).unwrap_or_else(|e| exit_usage(e));

    if let Err(code) = preflight::gate(
        &args,
        preflight::plan_for_args("runbms", Methodology::Sweep, &benchmarks, &sweep, &args),
    ) {
        std::process::exit(code);
    }

    // The header goes out before any cell runs: sweepbench's `setup_s` is
    // the time from spawn to this line.
    let mut csv = BufWriter::new(io::stdout());
    writeln!(
        csv,
        "benchmark,collector,heap_factor,wall_s,task_s,wall_distillable_s,task_distillable_s"
    )
    .and_then(|()| csv.flush())
    .unwrap_or_else(|e| csv_failed(e));

    let profiles = resolve_profiles(&benchmarks).unwrap_or_else(|e| exit_usage(e));
    let supervisor = supervision_requested(&args)
        .then(|| supervisor_from_args(&args).unwrap_or_else(|e| exit_usage(e)));
    let sink = SpanSink::new();
    let code = match &supervisor {
        Some(supervisor) => {
            match sink.time("sweep", || {
                run_supervised(&mut csv, supervisor, &profiles, &sweep)
            }) {
                // The scheduler could not start: nothing ran to trace.
                2 => exit(&mut csv, 2),
                code => code,
            }
        }
        None => {
            // The sequential reference every other executor is compared
            // against.
            for profile in &profiles {
                eprintln!("runbms: {}", profile.name);
                match sink.time(&format!("sweep:{}", profile.name), || {
                    run_sweep(profile, &sweep)
                }) {
                    Ok(result) => print_samples(&mut csv, &result),
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(&mut csv, 1);
                    }
                }
            }
            0
        }
    };

    if obs.enabled() {
        let bench = &benchmarks[0];
        let collector = sweep.collectors[0];
        let factor = sweep.heap_factors[0];
        let faults = supervisor.as_ref().and_then(SuiteSupervisor::faults);
        eprintln!("runbms: tracing {bench} ({collector} @ {factor:.1}x)");
        match observe_benchmark_with_faults(bench, collector, factor, faults) {
            Ok(observed) => {
                let mut trace = observed.trace();
                add_spans_to_trace(&mut trace, &sink.spans());
                match export_obs(&obs, Some(&trace), Some(&observed.recorder)) {
                    Ok(paths) => {
                        for p in paths {
                            eprintln!("runbms: wrote {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(&mut csv, 1);
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                exit(&mut csv, 1);
            }
        }
    }
    exit(&mut csv, code);
}
