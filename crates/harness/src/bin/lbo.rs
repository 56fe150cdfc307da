//! Regenerate the LBO figures: Figure 1 (geomean over the suite), Figure 5
//! (cassandra/lusearch) and the per-benchmark appendix LBO figures.
//!
//! ```text
//! lbo                         # Figure 1: geomean over all 22 benchmarks
//! lbo -b cassandra,lusearch   # Figure 5
//! lbo -b fop --invocations 5  # appendix figure for one benchmark
//! lbo --quick                 # coarse grid for smoke runs
//! lbo -b fop --trace-out t.json  # + Perfetto trace (scheduler span
//!                                #   and one observed engine run)
//! lbo -b fop --faults chaos:42   # sweeps under injected duress
//! ```
//!
//! Every sweep runs on the sweep scheduler (`supervisor`), under the
//! default policy unless `--cell-deadline`, `--retries` or
//! `--backoff-ms` say otherwise: cells that panic or hang are retried
//! and then quarantined, quarantined cells are reported on stderr, and
//! the LBO analysis proceeds over the completed cells. `--journal` and
//! `--resume` make the sweep crash-safe, and with `--isolation process`
//! each cell runs in a sandboxed child process (`--hard-faults`,
//! `--crash-reports` as for `runbms`), so hard crashes land in
//! quarantine instead of killing the run. A malformed flag exits 2.
//!
//! The fleet flag family works here too: `--fleet N` shards the sweeps
//! across worker processes, `--fleet-bind`/`--fleet-token` pin and
//! authenticate the transport (remote machines attach with
//! `--fleet-connect ADDR`), `--net-faults PRESET[:SEED]` injects a
//! seeded network-fault schedule at the transport shim, and
//! `--fleet-standby ADDR` arms a hot standby coordinator that takes
//! over on primary death. The deterministic journal merge guarantees
//! the LBO figures come out identical to a thread-mode run.
//!
//! Every invocation is pre-flight analyzed first (`chopin-analyzer`):
//! statically broken plans abort with exit 2 and an R8xx diagnostic
//! table before any simulation starts. `--no-preflight` bypasses.

use chopin_analyzer::Methodology;
use chopin_core::lbo::Clock;
use chopin_harness::cli::{check_flags, sweep_from_args, Args, GRID_FLAGS};
use chopin_harness::obs::{
    add_spans_to_trace, export_obs, obs_from_args, observe_benchmark_with_faults, validate_obs,
    OBS_FLAGS,
};
use chopin_harness::output::ResultsDir;
use chopin_harness::supervisor::{supervisor_from_args, SCHEDULER_FLAGS};
use chopin_harness::{preflight, resolve_profiles, LboExperiment, SpanSink};

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
        "lbo",
        &args,
        &[
            &GRID_FLAGS,
            &["out"],
            &OBS_FLAGS,
            &["no-preflight", "faults", "isolation"],
            &SCHEDULER_FLAGS,
        ],
    ) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    // An external fleet worker never runs its own analysis: it attaches
    // to the printed coordinator address and serves leases until drained.
    if let Some(code) = chopin_harness::fleet::maybe_connect(&args) {
        std::process::exit(code);
    }
    let obs = obs_from_args(&args);
    if let Err(e) = validate_obs(&obs) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let benchmarks = args.list("b");
    let sweep = sweep_from_args(&args).unwrap_or_else(|e| exit_usage(e));

    let names: Vec<String> = if benchmarks.is_empty() {
        chopin_core::Suite::chopin()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        benchmarks.clone()
    };
    if let Err(code) = preflight::gate(
        &args,
        preflight::plan_for_args("lbo", Methodology::Lbo, &names, &sweep, &args),
    ) {
        std::process::exit(code);
    }
    let supervisor = supervisor_from_args(&args).unwrap_or_else(|e| exit_usage(e));
    let profiles = resolve_profiles(&names).unwrap_or_else(|e| exit_usage(e));

    eprintln!(
        "running LBO sweep: {} benchmark(s), {} collectors, {} heap factors, {} invocation(s)",
        profiles.len(),
        sweep.collectors.len(),
        sweep.heap_factors.len(),
        sweep.invocations
    );

    let sink = SpanSink::new();
    let report = sink
        .time("sweep", || supervisor.run(&profiles, &sweep))
        .unwrap_or_else(|e| exit_usage(e));
    if !report.is_clean() {
        eprint!("{}", report.quarantine_summary());
    }
    let experiment = LboExperiment::analyse(report.results, &sink).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let out_dir = args.value("out").map(|d| match ResultsDir::create(d) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    });

    if benchmarks.is_empty() || benchmarks.len() > 2 {
        for clock in [Clock::Wall, Clock::Task] {
            match experiment.render_geomean(clock) {
                Ok(report) => {
                    println!("{report}");
                    if let Some(dir) = &out_dir {
                        if let Err(e) = dir.write(&format!("fig1_{clock}.txt"), &report) {
                            eprintln!("warning: {e}");
                        }
                    }
                }
                Err(e) => eprintln!("geomean ({clock}) unavailable: {e}"),
            }
        }
    }
    for i in 0..experiment.sweeps.len() {
        let report = experiment.render_benchmark(i);
        println!("{report}");
        if let Some(dir) = &out_dir {
            let name = format!("lbo_{}.txt", experiment.sweeps[i].benchmark);
            if let Err(e) = dir.write(&name, &report) {
                eprintln!("warning: {e}");
            }
        }
    }

    if obs.enabled() {
        let bench = experiment.sweeps[0].benchmark.clone();
        let collector = sweep.collectors[0];
        let factor = sweep.heap_factors[0];
        eprintln!("lbo: tracing {bench} ({collector} @ {factor:.1}x)");
        let outcome = observe_benchmark_with_faults(&bench, collector, factor, supervisor.faults())
            .and_then(|observed| {
                let mut trace = observed.trace();
                add_spans_to_trace(&mut trace, &experiment.spans);
                export_obs(&obs, Some(&trace), Some(&observed.recorder))
                    .map_err(chopin_harness::ExperimentError::Io)
            });
        match outcome {
            Ok(paths) => {
                for p in paths {
                    eprintln!("lbo: wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
