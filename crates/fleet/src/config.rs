//! Fleet configuration: the statically-analyzable plan shape
//! ([`FleetPlan`]), the full runtime configuration ([`FleetConfig`]) and
//! the worker-kill storm ([`WorkerStormPlan`]).
//!
//! The split mirrors `SupervisorPolicy` living in `chopin-faults`: the
//! plan shape lives here so the pre-flight analyzer can validate fleet
//! plans (rules R1201–R1203) without depending on the harness transport.

use chopin_faults::hard::{parse_hard_flag, HardFaultKind, HardFaultPlan};
use chopin_faults::net::NetFaultPlan;
use chopin_faults::FaultPlanError;

/// Upper bound on the fleet size: past this, coordination overhead is a
/// configuration error, not scale (rule R1201).
pub const MAX_FLEET_WORKERS: u32 = 256;

/// Default lease deadline: twice the default per-cell deadline, so one
/// retried cell fits inside one lease.
pub const DEFAULT_LEASE_DEADLINE_MS: u64 = 120_000;

/// Default number of crashes a worker slot survives before the
/// coordinator quarantines the slot instead of respawning it.
pub const DEFAULT_MAX_WORKER_CRASHES: u32 = 3;

/// Default lease count after which a storm victim kills itself: dying on
/// the *second* lease means every victim generation still completes one
/// cell, so a storm always makes progress.
pub const DEFAULT_STORM_KILL_AFTER_LEASES: u32 = 2;

/// The statically-analyzable fleet shape carried inside a `PlanIR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPlan {
    /// Number of worker processes the coordinator spawns.
    pub workers: u32,
    /// Lease deadline in milliseconds; `None` means
    /// [`DEFAULT_LEASE_DEADLINE_MS`].
    pub lease_deadline_ms: Option<u64>,
}

impl FleetPlan {
    /// A plan with the default lease deadline.
    #[must_use]
    pub fn new(workers: u32) -> Self {
        FleetPlan {
            workers,
            lease_deadline_ms: None,
        }
    }

    /// The effective lease deadline.
    #[must_use]
    pub fn deadline_ms(&self) -> u64 {
        self.lease_deadline_ms.unwrap_or(DEFAULT_LEASE_DEADLINE_MS)
    }

    /// Validate field ranges (the dynamic half of rule R1201/R1202: the
    /// analyzer re-checks these statically against the cell matrix).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if self.workers == 0 {
            return Err(FaultPlanError {
                field: "workers".to_string(),
                reason: "must be at least 1 (omit --fleet for a sequential run)".to_string(),
            });
        }
        if self.workers > MAX_FLEET_WORKERS {
            return Err(FaultPlanError {
                field: "workers".to_string(),
                reason: format!(
                    "{} exceeds the {MAX_FLEET_WORKERS}-worker bound",
                    self.workers
                ),
            });
        }
        if let Some(d) = self.lease_deadline_ms {
            if d == 0 {
                return Err(FaultPlanError {
                    field: "lease_deadline_ms".to_string(),
                    reason: "must be positive (omit --lease-deadline for the default)".to_string(),
                });
            }
            if d > chopin_faults::policy::MAX_DEADLINE_MS {
                return Err(FaultPlanError {
                    field: "lease_deadline_ms".to_string(),
                    reason: format!(
                        "{d} exceeds the {}ms bound",
                        chopin_faults::policy::MAX_DEADLINE_MS
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A deterministic schedule of *worker* deaths: the fleet analog of the
/// per-cell [`HardFaultPlan`], selecting victims by worker id instead of
/// cell identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStormPlan {
    /// Victim selection and death kind (kill/abort; the oom blow-up needs
    /// the sandbox RLIMIT_AS backstop, which fleet workers do not carry).
    pub plan: HardFaultPlan,
    /// A victim worker dies upon receiving this lease number (1-based).
    pub kill_after_leases: u32,
}

impl WorkerStormPlan {
    /// A storm with the default kill point.
    #[must_use]
    pub fn new(plan: HardFaultPlan) -> Self {
        WorkerStormPlan {
            plan,
            kill_after_leases: DEFAULT_STORM_KILL_AFTER_LEASES,
        }
    }

    /// Whether the worker with this id dies under the storm.
    #[must_use]
    pub fn is_victim(&self, worker_id: u64) -> bool {
        self.plan.worker_victim(worker_id)
    }
}

/// Parse a `--fleet-storm` flag value: `KIND[:SEED[:STRIDE]]`, same
/// grammar as `--hard-faults` but restricted to kinds a bare worker
/// process can inflict on itself.
pub fn parse_storm_flag(flag: &str) -> Result<WorkerStormPlan, String> {
    let plan = parse_hard_flag(flag)?;
    if plan.kind == HardFaultKind::OomBlowup {
        return Err(
            "fleet storms support kill and abort only: the oom blow-up needs the \
             sandbox RLIMIT_AS backstop, which fleet workers do not carry"
                .to_string(),
        );
    }
    Ok(WorkerStormPlan::new(plan))
}

/// The full runtime fleet configuration held by the supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The statically-analyzable shape (worker count, lease deadline).
    pub plan: FleetPlan,
    /// Optional worker-kill storm (the `artifact chaos --workers` leg).
    pub storm: Option<WorkerStormPlan>,
    /// Crash budget per worker slot before the slot is quarantined.
    pub max_worker_crashes: u32,
    /// Listener bind address (`--fleet-bind`); `None` means the loopback
    /// default `127.0.0.1:0`.
    pub bind: Option<String>,
    /// Per-run auth token (`--fleet-token`); every `Hello`/`Adopt` must
    /// carry it or be cleanly rejected.
    pub token: Option<String>,
    /// Seeded network-fault schedule (`--net-faults`) injected at the
    /// coordinator's transport shim.
    pub net: Option<NetFaultPlan>,
    /// When set, this process is a standby coordinator for the primary
    /// at the given address (`--fleet-standby ADDR`): it registers,
    /// watches the primary's heartbeat, and takes over on silence.
    pub standby_of: Option<String>,
    /// `--fleet-await-standby`: the primary issues no leases until a
    /// standby coordinator has adopted. An armed-failover drill — work
    /// only starts once a successor is guaranteed to exist, so a
    /// mid-sweep coordinator death always has somewhere to hand over
    /// to. Without a standby ever registering, the fleet idles by
    /// design (workers heartbeat and re-poll).
    pub await_standby: bool,
}

impl FleetConfig {
    /// A fleet of `workers` with defaults everywhere else.
    #[must_use]
    pub fn new(workers: u32) -> Self {
        FleetConfig {
            plan: FleetPlan::new(workers),
            storm: None,
            max_worker_crashes: DEFAULT_MAX_WORKER_CRASHES,
            bind: None,
            token: None,
            net: None,
            standby_of: None,
            await_standby: false,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        self.plan.validate()?;
        if let Some(storm) = &self.storm {
            storm.plan.validate()?;
            if storm.kill_after_leases == 0 {
                return Err(FaultPlanError {
                    field: "kill_after_leases".to_string(),
                    reason: "must be at least 1".to_string(),
                });
            }
        }
        if self.max_worker_crashes == 0 {
            return Err(FaultPlanError {
                field: "max_worker_crashes".to_string(),
                reason: "must be at least 1".to_string(),
            });
        }
        if let Some(net) = &self.net {
            net.validate()?;
        }
        if let Some(bind) = &self.bind {
            if bind.parse::<std::net::SocketAddr>().is_err() {
                return Err(FaultPlanError {
                    field: "bind".to_string(),
                    reason: format!(
                        "{bind:?} is not a routable socket address (expected HOST:PORT, \
                         e.g. 0.0.0.0:7400)"
                    ),
                });
            }
        }
        if let Some(token) = &self.token {
            if token.is_empty() || token.contains(char::is_whitespace) {
                return Err(FaultPlanError {
                    field: "token".to_string(),
                    reason: "must be nonempty and free of whitespace".to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_validation_rejects_degenerate_fleets() {
        assert!(FleetPlan::new(1).validate().is_ok());
        assert!(FleetPlan::new(MAX_FLEET_WORKERS).validate().is_ok());
        assert_eq!(FleetPlan::new(0).validate().unwrap_err().field, "workers");
        assert_eq!(
            FleetPlan::new(MAX_FLEET_WORKERS + 1)
                .validate()
                .unwrap_err()
                .field,
            "workers"
        );
        let mut plan = FleetPlan::new(4);
        plan.lease_deadline_ms = Some(0);
        assert_eq!(plan.validate().unwrap_err().field, "lease_deadline_ms");
        plan.lease_deadline_ms = Some(DEFAULT_LEASE_DEADLINE_MS);
        assert!(plan.validate().is_ok());
        assert_eq!(plan.deadline_ms(), DEFAULT_LEASE_DEADLINE_MS);
    }

    #[test]
    fn storm_flag_grammar_matches_hard_faults_but_rejects_oom() {
        let storm = parse_storm_flag("kill").unwrap();
        assert_eq!(storm.plan.kind, HardFaultKind::Kill);
        assert_eq!(storm.kill_after_leases, DEFAULT_STORM_KILL_AFTER_LEASES);
        let storm = parse_storm_flag("abort:99:3").unwrap();
        assert_eq!(storm.plan.seed, 99);
        assert_eq!(storm.plan.stride, 3);
        assert!(parse_storm_flag("oom").is_err());
        assert!(parse_storm_flag("segv").is_err());
        assert!(parse_storm_flag("kill:0").is_err(), "zero seed rejected");
    }

    #[test]
    fn config_validation_covers_storm_and_crash_budget() {
        let mut cfg = FleetConfig::new(4);
        assert!(cfg.validate().is_ok());
        cfg.max_worker_crashes = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "max_worker_crashes");
        cfg.max_worker_crashes = DEFAULT_MAX_WORKER_CRASHES;
        cfg.storm = parse_storm_flag("kill").ok();
        assert!(cfg.validate().is_ok());
        if let Some(storm) = &mut cfg.storm {
            storm.kill_after_leases = 0;
        }
        assert_eq!(cfg.validate().unwrap_err().field, "kill_after_leases");
    }

    #[test]
    fn config_validation_covers_bind_token_and_net_plan() {
        let mut cfg = FleetConfig::new(2);
        cfg.bind = Some("0.0.0.0:7400".to_string());
        cfg.token = Some("c0ffee".to_string());
        cfg.net = chopin_faults::net::parse_net_flag("storm").ok();
        assert!(cfg.validate().is_ok());

        cfg.bind = Some("not-an-addr".to_string());
        assert_eq!(cfg.validate().unwrap_err().field, "bind");
        cfg.bind = Some("127.0.0.1:0".to_string());
        assert!(cfg.validate().is_ok());

        cfg.token = Some("has space".to_string());
        assert_eq!(cfg.validate().unwrap_err().field, "token");
        cfg.token = Some(String::new());
        assert_eq!(cfg.validate().unwrap_err().field, "token");
        cfg.token = None;

        if let Some(net) = &mut cfg.net {
            net.seed = 0;
        }
        assert_eq!(cfg.validate().unwrap_err().field, "seed");
    }
}
