//! Regenerate the latency figures: Figure 3 (cassandra), Figure 6 (h2) and
//! the appendix latency figures for the nine latency-sensitive workloads.
//!
//! ```text
//! latency -b cassandra            # Figure 3 panels
//! latency -b h2 --heaps 2,6      # Figure 6 panels
//! latency -b all                  # every latency-sensitive workload
//! latency -b h2 --trace-out h2.json   # + Perfetto trace of an
//!                                     #   observed Shenandoah run
//! latency -b h2 --trace-out h2.json --faults storm:7
//!                                     # ... under an injected stall storm
//! ```
//!
//! Every invocation is pre-flight analyzed first (`chopin-analyzer`):
//! in particular, asking for metered latency from a benchmark without a
//! request stream is rejected statically (rule R803) with exit 2.
//! `--no-preflight` bypasses the gate.
//!
//! `--isolation process` re-runs the whole measurement inside one
//! sandboxed child process, so an engine crash surfaces as a structured
//! crash report instead of taking the terminal session down with it.
//!
//! `latency` does not run on the sweep scheduler: the scheduler's flags
//! (`--journal`, `--resume`, `--cell-deadline`, `--retries`, the fleet
//! family, …) exit 2 and point at `runbms` and `lbo`.

use chopin_analyzer::Methodology;
use chopin_core::latency::SmoothingWindow;
use chopin_core::sweep::SweepConfig;
use chopin_core::Suite;
use chopin_harness::cli::{check_flags, Args};
use chopin_harness::obs::{
    add_spans_to_trace, export_obs, obs_from_args, observe_benchmark_with_faults, validate_obs,
    with_suffix, OBS_FLAGS,
};
use chopin_harness::output::ResultsDir;
use chopin_harness::preflight;
use chopin_harness::supervisor::plan_from_args;
use chopin_harness::{resolve_profiles, LatencyExperiment};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::time::SimDuration;

fn exit_usage(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    // Must run before anything else: under --isolation process this
    // binary re-spawns itself as a sandboxed worker.
    chopin_harness::worker_entry();
    let args = Args::from_env();
    if let Err(e) = check_flags(
        "latency",
        &args,
        &[
            &[
                "b",
                "heaps",
                "save-events",
                "no-preflight",
                "faults",
                "isolation",
            ],
            &OBS_FLAGS,
        ],
    ) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    match chopin_harness::sandbox::isolation_from_args(&args) {
        // latency has no per-cell supervisor path: isolate the whole run
        // in one sandboxed child instead of on per-cell workers.
        Ok(chopin_harness::IsolationMode::Process) => {
            std::process::exit(chopin_harness::sandbox::reexec_isolated());
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let obs = obs_from_args(&args);
    if let Err(e) = validate_obs(&obs) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let plan = match plan_from_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut benchmarks = args.list("b");
    if benchmarks.is_empty() {
        benchmarks = vec!["cassandra".to_string()];
    }
    if benchmarks == ["all"] {
        benchmarks = Suite::chopin()
            .latency_sensitive()
            .map(|b| b.name().to_string())
            .collect();
    }
    let heaps: Vec<f64> = {
        let list = args.list("heaps");
        if list.is_empty() {
            vec![2.0, 6.0]
        } else {
            list.iter()
                .map(|s| {
                    s.parse().unwrap_or_else(|_| {
                        exit_usage(format!("invalid heap factor `{s}` in --heaps"))
                    })
                })
                .collect()
        }
    };

    // The metered-latency methodology sweeps all collectors over the
    // requested heaps; R803 rejects benchmarks without a request stream.
    let sweep = SweepConfig {
        collectors: CollectorKind::ALL.to_vec(),
        heap_factors: heaps.clone(),
        invocations: 1,
        iterations: 2,
        ..SweepConfig::default()
    };
    if let Err(code) = preflight::gate(
        &args,
        preflight::plan_for_args("latency", Methodology::Latency, &benchmarks, &sweep, &args),
    ) {
        std::process::exit(code);
    }
    if let Err(e) = resolve_profiles(&benchmarks) {
        exit_usage(e);
    }

    for bench in &benchmarks {
        eprintln!("measuring latency for {bench} at heaps {heaps:?}");
        let experiment = match LatencyExperiment::run(bench, &heaps) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        for &factor in &heaps {
            for window in [
                SmoothingWindow::None,
                SmoothingWindow::Duration(SimDuration::from_millis(100)),
                SmoothingWindow::Full,
            ] {
                println!("{}", experiment.render_panel(factor, window));
            }
        }
        println!("{}", experiment.render_report());
        println!("{}", experiment.render_pause_report());

        if obs.enabled() {
            // One observed run with the concurrent collector at the
            // smallest measured heap: the trace where pacing is visible.
            let collector = CollectorKind::Shenandoah;
            let factor = heaps.first().copied().unwrap_or(2.0);
            let per_bench = if benchmarks.len() > 1 {
                chopin_obs::ObsConfig {
                    trace_out: obs.trace_out.as_deref().map(|p| with_suffix(p, bench)),
                    events_out: obs.events_out.as_deref().map(|p| with_suffix(p, bench)),
                }
            } else {
                obs.clone()
            };
            let outcome = observe_benchmark_with_faults(bench, collector, factor, plan.as_ref())
                .and_then(|observed| {
                    let mut trace = observed.trace();
                    add_spans_to_trace(&mut trace, &experiment.spans);
                    export_obs(&per_bench, Some(&trace), Some(&observed.recorder))
                        .map_err(chopin_harness::ExperimentError::Io)
                });
            match outcome {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("latency: wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }

        // §4.4: "as well as optionally saving the complete data to file
        // for offline analysis".
        if let Some(dir) = args.value("save-events") {
            match ResultsDir::create(dir) {
                Ok(out) => {
                    for (collector, factor, events) in experiment.raw_events() {
                        let mut csv = String::from("start_ns,end_ns,latency_ns\n");
                        for e in events {
                            csv.push_str(&format!(
                                "{},{},{}\n",
                                e.start.as_nanos(),
                                e.end.as_nanos(),
                                e.latency().as_nanos()
                            ));
                        }
                        let name = format!("{bench}_{collector}_{factor:.1}x.csv")
                            .replace(['*', ' '], "")
                            .replace("Shen.", "Shen");
                        if let Err(e) = out.write(&name, &csv) {
                            eprintln!("warning: {e}");
                        }
                    }
                    eprintln!("saved per-event data under {}", out.path().display());
                }
                Err(e) => eprintln!("warning: {e}"),
            }
        }
    }
}
