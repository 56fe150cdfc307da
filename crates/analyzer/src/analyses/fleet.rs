//! Fleet-configuration analysis (rules R1201–R1203, R1404–R1405).
//!
//! Sharding the matrix across workers adds two new ways to misconfigure
//! a plan statically, plus one isolation-model conflict:
//!
//! * **R1201** — a fleet that cannot use its workers: zero workers,
//!   more than the documented [`MAX_FLEET_WORKERS`] bound, or more
//!   workers than cells in the sweep matrix (the surplus can never
//!   receive a first lease; it is pure spawn cost).
//! * **R1202** — a lease deadline (twice `--cell-deadline`,
//!   [`lease_deadline_ms`]) below the R808-style cost lower bound of the
//!   slowest feasible cell. Such a lease *must* expire while its
//!   worker is still legitimately computing, so the coordinator
//!   reassigns live work forever — a reassignment storm by
//!   configuration, not a safety net.
//! * **R1203** — per-cell hard faults (`--hard-faults`) combined with a
//!   fleet. Fleet workers run cells inline, without the sandbox rlimit
//!   backstop, so a cell-level process death takes its whole worker
//!   (and every lease it holds) down. Worker-kill storms
//!   (`--fleet-storm`) are the supported way to inject deaths into a
//!   fleet.
//!
//! The partition-tolerance layer adds two more (the R14xx family):
//!
//! * **R1404** — network-fault injection without a transport to inject
//!   into (`--net-faults` without `--fleet`), or an injected delay or
//!   partition ceiling at or above the lease deadline: every shimmed
//!   frame then arrives after its lease expired, so the storm stops
//!   being a perturbation the retry semantics absorb and becomes a
//!   guaranteed reassignment of every faulted lease.
//! * **R1405** — a standby coordinator with nothing to take over: the
//!   takeover path reconstructs the lease table from the primary's
//!   merged journal, so `--fleet-standby` (modelled as
//!   [`PlanIR::standby`]) requires the run to be journalled.

use crate::analyses::cost::{cell_cost_bounds_s, SIM_RATE_CEILING};
use crate::ir::PlanIR;
use chopin_fleet::config::lease_deadline_ms;
use chopin_fleet::MAX_FLEET_WORKERS;
use chopin_lint::Diagnostic;

/// Run the fleet-configuration analysis.
pub fn analyze(plan: &PlanIR) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let Some(fleet) = &plan.fleet else {
        if plan.net_faults.is_some() {
            diagnostics.push(
                Diagnostic::error(
                    "R1404",
                    plan.location(),
                    "the plan injects network faults without a fleet: --net-faults shims \
                     the coordinator/worker transport, and a sequential run has no wire \
                     to fault"
                        .to_string(),
                )
                .with_hint("add --fleet N, or drop --net-faults".to_string()),
            );
        }
        if plan.standby {
            diagnostics.push(
                Diagnostic::error(
                    "R1405",
                    plan.location(),
                    "the plan registers a standby coordinator without a fleet: there is \
                     no coordinator to watch, and nothing a takeover could serve"
                        .to_string(),
                )
                .with_hint("add --fleet N on the primary, or drop --fleet-standby".to_string()),
            );
        }
        return diagnostics;
    };

    let cells = plan.cells();
    if fleet.workers == 0 || fleet.workers > MAX_FLEET_WORKERS {
        diagnostics.push(
            Diagnostic::error(
                "R1201",
                plan.location(),
                format!(
                    "the fleet worker count ({}) is outside the usable 1..={MAX_FLEET_WORKERS} \
                     range",
                    fleet.workers
                ),
            )
            .with_hint("pass --fleet N with 1 <= N <= 256, or omit --fleet".to_string()),
        );
    } else if fleet.workers as usize > cells.len() {
        diagnostics.push(
            Diagnostic::error(
                "R1201",
                plan.location(),
                format!(
                    "the fleet spawns {} workers for a {}-cell matrix: the surplus workers \
                     can never receive a first lease",
                    fleet.workers,
                    cells.len()
                ),
            )
            .with_hint(format!(
                "lower --fleet to at most {} (the cell count), or widen the sweep grid",
                cells.len()
            )),
        );
    }

    let deadline_ms = lease_deadline_ms(&plan.policy);
    let bounds = cell_cost_bounds_s(plan);
    let worst = cells
        .iter()
        .filter(|c| c.feasible)
        .map(|c| (c, bounds[c.benchmark]))
        .max_by(|(_, a), (_, b)| a.total_cmp(b));
    if let Some((cell, cell_real_s)) = worst {
        let deadline_s = deadline_ms as f64 / 1e3;
        if cell_real_s > deadline_s {
            let b = &plan.benchmarks[cell.benchmark];
            diagnostics.push(
                Diagnostic::error(
                    "R1202",
                    format!("{}:{}/{}", plan.location(), b.name, cell.collector),
                    format!(
                        "cell cost lower bound ({cell_real_s:.1}s even at the optimistic \
                         {SIM_RATE_CEILING:.0e} sim-s/s ceiling) exceeds the {deadline_s:.3}s \
                         lease deadline: the lease must expire mid-computation and the \
                         coordinator will reassign live work forever"
                    ),
                )
                .with_hint(
                    "raise --cell-deadline (the lease lasts twice as long) above the slowest \
                     cell's cost bound, or reduce invocations/iterations"
                        .to_string(),
                ),
            );
        }
    }

    if let Some(net) = &plan.net_faults {
        let ceiling_ms = net.delay_ms.max(net.partition_ms);
        if ceiling_ms >= deadline_ms {
            let what = if net.delay_ms >= net.partition_ms {
                "delay"
            } else {
                "partition"
            };
            diagnostics.push(
                Diagnostic::error(
                    "R1404",
                    plan.location(),
                    format!(
                        "the net-fault plan's {what} ceiling ({ceiling_ms}ms) reaches the \
                         {deadline_ms}ms lease deadline: every shimmed frame arrives after \
                         its lease expired, so each injected fault forcibly reassigns live \
                         work instead of exercising the retry path"
                    ),
                )
                .with_hint(
                    "raise --cell-deadline (the lease lasts twice as long) above the injected \
                     delay/partition ceiling, or soften the --net-faults preset"
                        .to_string(),
                ),
            );
        }
    }

    if plan.standby && !plan.journalled {
        diagnostics.push(
            Diagnostic::error(
                "R1405",
                plan.location(),
                "the plan registers a standby coordinator for an unjournalled run: a \
                 takeover reconstructs the lease table from the primary's merged journal, \
                 so without --journal the standby could only restart from scratch"
                    .to_string(),
            )
            .with_hint(
                "add --journal FILE to the primary (the standby points its own --journal \
                 at the same shards), or drop --fleet-standby"
                    .to_string(),
            ),
        );
    }

    if plan.hard_faults.is_some() {
        diagnostics.push(
            Diagnostic::error(
                "R1203",
                plan.location(),
                "the plan injects per-cell hard faults into a fleet: workers run cells \
                 without the sandbox backstop, so one victim cell kills its whole worker \
                 and every lease it holds"
                    .to_string(),
            )
            .with_hint(
                "inject worker deaths with --fleet-storm kill[:SEED[:STRIDE]] instead, or \
                 drop --fleet and keep --hard-faults under --isolation process"
                    .to_string(),
            ),
        );
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::sweep::SweepConfig;
    use chopin_faults::{HardFaultKind, HardFaultPlan, SupervisorPolicy};
    use chopin_fleet::FleetPlan;
    use chopin_workloads::suite;

    fn base_plan() -> PlanIR {
        let profiles = vec![suite::by_name("fop").unwrap()];
        PlanIR::compile(
            "t",
            crate::Methodology::Sweep,
            &profiles,
            SweepConfig::quick(),
            None,
            SupervisorPolicy::default(),
            false,
        )
        .unwrap()
    }

    fn ids(diagnostics: &[Diagnostic]) -> Vec<&str> {
        diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn fleetless_and_sane_fleet_plans_are_silent() {
        assert!(analyze(&base_plan()).is_empty());
        let plan = base_plan().with_fleet(Some(FleetPlan::new(2)));
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn r1201_fires_for_zero_oversized_and_idle_worker_counts() {
        for workers in [0, MAX_FLEET_WORKERS + 1] {
            let plan = base_plan().with_fleet(Some(FleetPlan::new(workers)));
            assert_eq!(ids(&analyze(&plan)), vec!["R1201"], "workers = {workers}");
        }
        // More workers than cells: fop under the quick grid has few
        // cells; 200 workers can never all be fed.
        let plan = base_plan().with_fleet(Some(FleetPlan::new(200)));
        assert_eq!(ids(&analyze(&plan)), vec!["R1201"]);
    }

    #[test]
    fn r1202_fires_when_a_lease_must_expire_mid_cell() {
        let mut plan = base_plan();
        plan.policy.cell_deadline_ms = Some(1); // a 2 ms lease over real cells
        plan.config.invocations = 1_000_000;
        plan = plan.with_fleet(Some(FleetPlan::new(2)));
        assert_eq!(ids(&analyze(&plan)), vec!["R1202"]);
    }

    #[test]
    fn r1203_fires_for_hard_faults_inside_a_fleet() {
        let plan = base_plan()
            .with_fleet(Some(FleetPlan::new(2)))
            .with_hard_faults(Some(HardFaultPlan::new(HardFaultKind::Kill, 7)));
        assert_eq!(ids(&analyze(&plan)), vec!["R1203"]);
    }

    #[test]
    fn r1404_fires_for_net_faults_without_a_fleet() {
        let net = chopin_faults::NetFaultPlan::preset("drop", 7).unwrap();
        let plan = base_plan().with_net_faults(Some(net));
        assert_eq!(ids(&analyze(&plan)), vec!["R1404"]);
    }

    #[test]
    fn r1404_fires_when_the_injected_delay_reaches_the_lease_deadline() {
        // A sane fleet plan, but a small cell deadline leaves a lease
        // (twice as long) that the shim's delay ceiling swallows whole.
        let net = chopin_faults::NetFaultPlan::preset("delay", 7).unwrap();
        let mut plan = base_plan()
            .with_fleet(Some(FleetPlan::new(2)))
            .with_net_faults(Some(net));
        plan.policy.cell_deadline_ms = Some(net.delay_ms / 2);
        assert_eq!(ids(&analyze(&plan)), vec!["R1404"]);

        // Headroom restored: silent.
        plan.policy.cell_deadline_ms = Some(net.delay_ms * 100);
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn r1405_fires_for_a_standby_without_a_journal() {
        let plan = base_plan()
            .with_fleet(Some(FleetPlan::new(2)))
            .with_standby(true);
        assert_eq!(ids(&analyze(&plan)), vec!["R1405"]);

        let mut journalled = base_plan();
        journalled.journalled = true;
        let plan = journalled
            .with_fleet(Some(FleetPlan::new(2)))
            .with_standby(true);
        assert!(analyze(&plan).is_empty());

        // A standby with no fleet at all is also R1405.
        let plan = base_plan().with_standby(true);
        assert_eq!(ids(&analyze(&plan)), vec!["R1405"]);
    }
}
