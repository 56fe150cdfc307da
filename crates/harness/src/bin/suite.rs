//! Print an overview of the DaCapo Chopin suite: every workload with its
//! headline statistics and (with `-b`) the appendix highlights.
//!
//! ```text
//! suite                 # the overview table
//! suite -b lusearch     # one workload's profile and highlights
//! suite -b h2 --trace-out h2.json   # + Perfetto trace of one run
//! suite -b h2 --trace-out h2.json --faults chaos   # ... under duress
//! ```
//!
//! With `-b` and `--trace-out`/`--events-out`, each selected workload is
//! run once (G1, 2× heap) with the engine's tracing observer attached and
//! the trace/event stream written out (suffixed per benchmark when several
//! are selected).
//!
//! Selections are pre-flight analyzed first (`chopin-analyzer`); a
//! statically broken configuration exits 2 before anything runs.
//! `--no-preflight` bypasses the gate.
//!
//! `suite` does not run on the sweep scheduler: the scheduler's flags
//! (`--journal`, `--resume`, `--cell-deadline`, `--retries`,
//! `--isolation`, the fleet family, …) exit 2 and point at `runbms` and
//! `lbo`.

use chopin_analyzer::Methodology;
use chopin_core::sweep::SweepConfig;
use chopin_core::Suite;
use chopin_harness::cli::{check_flags, Args};
use chopin_harness::obs::{
    export_obs, obs_from_args, observe_benchmark_with_faults, validate_obs, with_suffix, OBS_FLAGS,
};
use chopin_harness::plot::render_table;
use chopin_harness::preflight;
use chopin_harness::resolve_profiles;
use chopin_harness::supervisor::plan_from_args;
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::suite as workloads;

fn main() {
    let args = Args::from_env();
    if let Err(e) = check_flags(
        "suite",
        &args,
        &[&["b", "no-preflight", "faults"], &OBS_FLAGS],
    ) {
        eprintln!("error: {e}");
        std::process::exit(2);
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
    let selected = args.list("b");
    if obs.enabled() && selected.is_empty() {
        eprintln!("warning: --trace-out/--events-out need a workload (-b NAME); ignoring");
    }
    if !selected.is_empty() {
        // Pre-flight the observed-run configuration (G1 at 2x) before
        // touching the engine; statically broken selections exit 2.
        let sweep = SweepConfig {
            collectors: vec![CollectorKind::G1],
            heap_factors: vec![2.0],
            invocations: 1,
            iterations: 1,
            ..SweepConfig::default()
        };
        if let Err(code) = preflight::gate(
            &args,
            preflight::plan_for_args("suite", Methodology::Suite, &selected, &sweep, &args),
        ) {
            std::process::exit(code);
        }
        let profiles = resolve_profiles(&selected).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        for profile in &profiles {
            let name = profile.name;
            println!("{name}: {}\n", profile.description);
            println!(
                "  min heap: {} MB (small {} MB{}{})",
                profile.min_heap_default_mb,
                profile.min_heap_small_mb,
                profile
                    .min_heap_large_mb
                    .map(|l| format!(", large {l} MB"))
                    .unwrap_or_default(),
                profile
                    .min_heap_vlarge_mb
                    .map(|v| format!(", vlarge {v} MB"))
                    .unwrap_or_default(),
            );
            println!(
                "  threads {}  alloc {} MB/s  turnover {}x  exec {}s",
                profile.threads, profile.alloc_rate_mb_s, profile.turnover, profile.exec_time_s
            );
            if let Some(highlights) = workloads::highlights(name) {
                for h in highlights {
                    println!("  - {h}");
                }
            }
            println!();
            if obs.enabled() {
                let per_bench = if selected.len() > 1 {
                    chopin_obs::ObsConfig {
                        trace_out: obs.trace_out.as_deref().map(|p| with_suffix(p, name)),
                        events_out: obs.events_out.as_deref().map(|p| with_suffix(p, name)),
                    }
                } else {
                    obs.clone()
                };
                let outcome =
                    observe_benchmark_with_faults(name, CollectorKind::G1, 2.0, plan.as_ref())
                        .map_err(|e| e.to_string())
                        .and_then(|o| export_obs(&per_bench, Some(&o.trace()), Some(&o.recorder)));
                match outcome {
                    Ok(paths) => {
                        for p in paths {
                            eprintln!("suite: wrote {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        return;
    }

    let suite = Suite::chopin();
    let rows: Vec<Vec<String>> = suite
        .iter()
        .map(|b| {
            let p = b.profile();
            vec![
                p.name.to_string(),
                if p.new_in_chopin { "new" } else { "" }.to_string(),
                if p.is_latency_sensitive() {
                    "latency"
                } else {
                    "batch"
                }
                .to_string(),
                format!("{}", p.min_heap_default_mb),
                format!("{}", p.threads),
                format!("{}", p.alloc_rate_mb_s),
                format!("{}", p.turnover),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "",
                "kind",
                "GMD (MB)",
                "threads",
                "ARA (MB/s)",
                "GTO"
            ],
            &rows
        )
    );
    println!(
        "{} workloads, {} new in Chopin, {} latency-sensitive",
        suite.len(),
        suite.iter().filter(|b| b.profile().new_in_chopin).count(),
        suite.latency_sensitive().count()
    );
}
