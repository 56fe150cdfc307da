//! The default pre-flight gate: compile the command line into a
//! [`PlanIR`] and refuse to start an experiment the static analyses
//! prove broken.
//!
//! Every runnable binary (`runbms`, `lbo`, `latency`, `suite`) calls
//! [`gate`] after resolving its flags and before simulating anything.
//! Analyzer *errors* (R801, R803, R804, R806, R808, provenance errors)
//! abort with exit code 2 and a rendered diagnostic table; *warnings*
//! are printed but do not block. `--no-preflight` skips the gate
//! entirely — the escape hatch for deliberately running a plan the
//! analyses reject.
//!
//! The module also owns the named plan registry behind `artifact
//! analyze --plan NAME`: one [`PlanIR`] per shipped preset (the exact
//! configurations the presets execute) plus the deliberately broken
//! `demo:*` plans from [`chopin_analyzer::demo`].

use crate::cli::Args;
use crate::experiments::resolve_profiles;
use crate::sandbox::{hard_plan_from_args, isolation_from_args};
use crate::supervisor::{plan_from_args, policy_from_args, supervision_requested};
use chopin_analyzer::{demo, Methodology, PlanIR};
use chopin_core::sweep::SweepConfig;
use chopin_core::Suite;
use chopin_faults::SupervisorPolicy;
use chopin_lint::LintReport;
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::SizeClass;

/// Every named shipped plan `artifact analyze --plan` accepts, beyond
/// the `demo:*` family.
pub const PLAN_NAMES: [&str; 7] = [
    "default",
    "quick",
    "lbo",
    "latency",
    "kick-the-tires",
    "validate",
    "chaos",
];

fn whole_suite() -> Vec<String> {
    Suite::chopin()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Compile the plan a binary is about to execute from its resolved
/// flags: faults from `--faults`, the supervisor policy from
/// `--cell-deadline`/`--retries`/`--backoff-ms` whenever the run goes
/// through the scheduler (always for an LBO plan; for a sweep only when
/// supervision is requested; no watchdog otherwise), journalling from
/// `--journal`, the isolation backend from `--isolation` and hard faults
/// from `--hard-faults`, the fleet shape from `--fleet`, the net-fault
/// shim from `--net-faults` and the standby registration from
/// `--fleet-standby` — so the R90x sandbox, R120x fleet and R140x
/// partition-tolerance analyses see exactly what the run would do.
///
/// # Errors
///
/// A human-readable message for an unknown benchmark, a malformed
/// supervisor flag or a profile without a minimum heap at the plan's
/// size class.
pub fn plan_for_args(
    name: &str,
    methodology: Methodology,
    benchmarks: &[String],
    config: &SweepConfig,
    args: &Args,
) -> Result<PlanIR, String> {
    let profiles = resolve_profiles(benchmarks).map_err(|e| e.to_string())?;
    let faults = plan_from_args(args)?;
    let policy = match methodology {
        Methodology::Lbo => policy_from_args(args)?,
        Methodology::Sweep if supervision_requested(args) => policy_from_args(args)?,
        // An unsupervised run has no watchdog: nothing for R808 to bound.
        _ => SupervisorPolicy {
            cell_deadline_ms: None,
            ..SupervisorPolicy::default()
        },
    };
    let fleet = crate::fleet::fleet_config_from_args(args)?;
    let (fleet_plan, net_faults, standby) = match fleet {
        Some(config) => {
            let standby = config.standby_of.is_some();
            (Some(config.plan), config.net, standby)
        }
        None => (None, None, false),
    };
    Ok(PlanIR::compile(
        name,
        methodology,
        &profiles,
        config.clone(),
        faults,
        policy,
        args.has("journal") || args.has("resume"),
    )?
    .with_isolation(isolation_from_args(args)?)
    .with_hard_faults(hard_plan_from_args(args)?)
    .with_fleet(fleet_plan)
    .with_net_faults(net_faults)
    .with_standby(standby))
}

/// Run the analyses over `plan` and return the findings (rule order).
/// Pure — the rendering/exit policy lives in [`gate`].
pub fn preflight_report(plan: &PlanIR) -> LintReport {
    chopin_analyzer::analyze(plan)
}

/// The binaries' pre-flight gate. Prints findings to stderr; returns
/// `Err(2)` when the plan fails to compile or has analyzer errors
/// (unless `--no-preflight`). The caller — always a bin entry point —
/// turns the code into a process exit; library code keeps destructors
/// and journals intact (srclint R1006).
pub fn gate(args: &Args, plan: Result<PlanIR, String>) -> Result<(), i32> {
    if args.has("no-preflight") {
        eprintln!("preflight: skipped (--no-preflight)");
        return Ok(());
    }
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return Err(2);
        }
    };
    let report = preflight_report(&plan);
    if report.has_errors() {
        eprint!("{}", report.render_table());
        eprintln!(
            "preflight: {} error(s) in plan `{}`; fix the plan or rerun with --no-preflight",
            report.error_count(),
            plan.name
        );
        return Err(2);
    }
    if report.warn_count() > 0 {
        eprint!("{}", report.render_table());
    }
    eprintln!(
        "preflight: plan `{}` OK ({} warning(s))",
        plan.name,
        report.warn_count()
    );
    Ok(())
}

fn compile_shipped(
    name: &str,
    methodology: Methodology,
    benchmarks: &[String],
    config: SweepConfig,
    faults: Option<chopin_faults::FaultPlan>,
    policy: SupervisorPolicy,
) -> PlanIR {
    let profiles = resolve_profiles(benchmarks)
        .unwrap_or_else(|e| unreachable!("shipped plan `{name}` references the suite: {e}"));
    PlanIR::compile(name, methodology, &profiles, config, faults, policy, false)
        .unwrap_or_else(|e| unreachable!("shipped plan `{name}` compiles: {e}"))
}

/// Build a named plan: a shipped preset from [`PLAN_NAMES`] or a
/// deliberately broken [`demo`] plan. `None` for unknown names.
pub fn plan_by_name(name: &str) -> Option<PlanIR> {
    if name.starts_with("demo:") {
        return demo::demo_plan(name);
    }
    let no_watchdog = SupervisorPolicy {
        cell_deadline_ms: None,
        ..SupervisorPolicy::default()
    };
    let plan = match name {
        // The default runbms sweep: the whole suite over the paper grid.
        "default" => compile_shipped(
            name,
            Methodology::Sweep,
            &whole_suite(),
            SweepConfig::default(),
            None,
            no_watchdog,
        ),
        // runbms/lbo --quick: the coarse smoke grid.
        "quick" => compile_shipped(
            name,
            Methodology::Sweep,
            &whole_suite(),
            SweepConfig::quick(),
            None,
            no_watchdog,
        ),
        // artifact lbo (Figures 1 and 5), on the scheduler's defaults.
        "lbo" => compile_shipped(
            name,
            Methodology::Lbo,
            &whole_suite(),
            crate::presets::lbo_sweep_config(),
            None,
            SupervisorPolicy::default(),
        ),
        // artifact latency (Figures 3 and 6): the two figure benchmarks.
        "latency" => compile_shipped(
            name,
            Methodology::Latency,
            &["cassandra".to_string(), "h2".to_string()],
            SweepConfig {
                collectors: CollectorKind::ALL.to_vec(),
                heap_factors: crate::presets::LATENCY_HEAP_FACTORS.to_vec(),
                invocations: 1,
                iterations: 2,
                size: SizeClass::Default,
            },
            None,
            no_watchdog,
        ),
        // artifact kick-the-tires (A.5): fop on G1 and ZGC at 2x and 6x.
        "kick-the-tires" => compile_shipped(
            name,
            Methodology::Sweep,
            &["fop".to_string()],
            SweepConfig {
                collectors: vec![CollectorKind::G1, CollectorKind::Zgc],
                heap_factors: crate::presets::KICK_THE_TIRES_HEAP_FACTORS.to_vec(),
                invocations: 1,
                iterations: 2,
                size: SizeClass::Default,
            },
            None,
            no_watchdog,
        ),
        // artifact validate: the scorecard's coarse suite sweep, on the
        // scheduler's defaults. The scorecard reports per-run telemetry,
        // so warmup rules do not apply (Methodology::Suite).
        "validate" => compile_shipped(
            name,
            Methodology::Suite,
            &whole_suite(),
            crate::validate::scorecard_sweep_config(),
            None,
            SupervisorPolicy::default(),
        ),
        // artifact chaos: fop + lusearch under the chaos fault preset,
        // supervised with the default policy.
        "chaos" => compile_shipped(
            name,
            Methodology::Sweep,
            &["fop".to_string(), "lusearch".to_string()],
            crate::presets::chaos_sweep_config(),
            chopin_workloads::faults::preset(
                "chaos",
                chopin_workloads::faults::FALLBACK_SEED,
                chopin_workloads::faults::DEFAULT_HORIZON_NS,
            ),
            SupervisorPolicy::default(),
        ),
        _ => return None,
    };
    Some(plan)
}

/// Every shipped plan, compiled — the `artifact analyze --check` corpus.
pub fn shipped_plans() -> Vec<PlanIR> {
    PLAN_NAMES
        .iter()
        .map(|name| plan_by_name(name).unwrap_or_else(|| unreachable!("{name} is shipped")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_plan_analyzes_error_free() {
        for plan in shipped_plans() {
            let report = preflight_report(&plan);
            assert!(
                !report.has_errors(),
                "shipped plan `{}` must be error-free:\n{}",
                plan.name,
                report.render_table()
            );
        }
    }

    #[test]
    fn every_demo_plan_resolves_and_errors() {
        for (name, rule) in demo::DEMOS {
            let plan = plan_by_name(name).unwrap_or_else(|| panic!("{name} resolves"));
            let report = preflight_report(&plan);
            assert!(report.has_errors(), "{name} must have errors");
            assert!(
                report.diagnostics.iter().any(|d| d.rule == rule),
                "{name} trips {rule}"
            );
        }
    }

    #[test]
    fn unknown_plan_names_are_rejected() {
        assert!(plan_by_name("nope").is_none());
        assert!(plan_by_name("demo:nope").is_none());
    }

    #[test]
    fn plan_for_args_reads_supervisor_flags() {
        let args = Args::parse([
            "--faults",
            "chaos:9",
            "--journal",
            "x.journal",
            "--cell-deadline",
            "1000",
        ]);
        let plan = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["fop".to_string()],
            &SweepConfig::quick(),
            &args,
        )
        .expect("compiles");
        assert!(plan.faults.is_some());
        assert!(plan.journalled);
        assert_eq!(plan.policy.cell_deadline_ms, Some(1000));

        let bare = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["fop".to_string()],
            &SweepConfig::quick(),
            &Args::parse(Vec::<String>::new()),
        )
        .expect("compiles");
        assert_eq!(
            bare.policy.cell_deadline_ms, None,
            "no watchdog unsupervised"
        );

        assert!(plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["no-such-benchmark".to_string()],
            &SweepConfig::quick(),
            &Args::parse(Vec::<String>::new()),
        )
        .is_err());
    }

    #[test]
    fn plans_carry_the_policy_each_run_enforces() {
        let bare = Args::parse(Vec::<String>::new());
        let fop = ["fop".to_string()];
        // lbo always runs on the scheduler, so its 60 s default deadline
        // is enforced and R808 must see it.
        let lbo = plan_for_args("lbo", Methodology::Lbo, &fop, &SweepConfig::quick(), &bare)
            .expect("compiles");
        assert_eq!(lbo.policy, SupervisorPolicy::default());
        assert_eq!(lbo.policy.cell_deadline_ms, Some(60_000));
        // runbms without a supervisor flag is the sequential reference.
        let runbms = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &fop,
            &SweepConfig::quick(),
            &bare,
        )
        .expect("compiles");
        assert_eq!(runbms.policy.cell_deadline_ms, None);
        for name in ["lbo", "validate"] {
            let plan = plan_by_name(name).expect("shipped");
            assert_eq!(plan.policy, SupervisorPolicy::default(), "{name}");
        }
    }

    #[test]
    fn plan_for_args_reads_partition_tolerance_flags() {
        // A stormed, standby-watched, journalled fleet compiles into an
        // IR the R140x analyses accept.
        let args = Args::parse([
            "--fleet",
            "2",
            "--net-faults",
            "storm:7",
            "--fleet-standby",
            "127.0.0.1:7070",
            "--journal",
            "x.journal",
        ]);
        let plan = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["fop".to_string()],
            &SweepConfig::quick(),
            &args,
        )
        .expect("compiles");
        assert!(plan.fleet.is_some());
        assert!(plan.net_faults.is_some());
        assert!(plan.standby && plan.journalled);
        let report = preflight_report(&plan);
        assert!(
            !report.diagnostics.iter().any(|d| d.rule.starts_with("R14")),
            "sane partition-tolerance flags pass the R140x gate:\n{}",
            report.render_table()
        );

        // The same standby without a journal trips R1405 pre-flight.
        let args = Args::parse(["--fleet", "2", "--fleet-standby", "127.0.0.1:7070"]);
        let plan = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["fop".to_string()],
            &SweepConfig::quick(),
            &args,
        )
        .expect("compiles");
        let report = preflight_report(&plan);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "R1405"),
            "an unjournalled standby must trip R1405:\n{}",
            report.render_table()
        );
    }

    #[test]
    fn plan_for_args_reads_isolation_flags_and_gates_hard_faults() {
        // Hard faults under the default (thread) backend: the compiled
        // plan must trip R903 in the pre-flight report.
        let args = Args::parse(["--hard-faults", "kill", "--retries", "1"]);
        let plan = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["fop".to_string()],
            &SweepConfig::quick(),
            &args,
        )
        .expect("compiles");
        assert!(plan.hard_faults.is_some());
        let report = preflight_report(&plan);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "R903"),
            "thread + hard faults must trip R903:\n{}",
            report.render_table()
        );

        // The same hard faults under process isolation pass the gate.
        let args = Args::parse(["--hard-faults", "kill", "--isolation", "process"]);
        let plan = plan_for_args(
            "runbms",
            Methodology::Sweep,
            &["fop".to_string()],
            &SweepConfig::quick(),
            &args,
        )
        .expect("compiles");
        if chopin_sandbox::supported() {
            let report = preflight_report(&plan);
            assert!(
                !report.diagnostics.iter().any(|d| d.rule == "R903"),
                "process isolation satisfies R903:\n{}",
                report.render_table()
            );
        }
    }
}
