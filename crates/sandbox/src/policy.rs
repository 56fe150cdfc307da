//! Sandbox configuration: isolation mode, heartbeat cadence and resource
//! limit derivation.
//!
//! The derivation rules live here (rather than in the harness) so the
//! static analyzer can check a plan against *exactly* what the sandbox
//! will apply (rule R902).

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which execution backend runs sweep cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationMode {
    /// Today's behaviour: each cell runs on a worker thread inside the
    /// parent process. Panics are contained; hard failures are not.
    #[default]
    Thread,
    /// Each cell runs in a sandboxed child OS process with resource
    /// limits and a heartbeat. Hard failures (abort, signal, OOM kill,
    /// wedged spin) cost only that cell.
    Process,
}

impl IsolationMode {
    /// Stable lowercase label, also the `--isolation` flag value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
        }
    }
}

impl fmt::Display for IsolationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for IsolationMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "thread" => Ok(IsolationMode::Thread),
            "process" => Ok(IsolationMode::Process),
            other => Err(format!(
                "unknown isolation mode {other:?} (expected \"thread\" or \"process\")"
            )),
        }
    }
}

/// Virtual-memory floor granted to every worker regardless of cell size:
/// the worker is a full harness binary (allocator arenas, thread stacks,
/// code) before it simulates a single byte of heap. 1 GiB of *address
/// space* is cheap — RLIMIT_AS counts reservations, not residency.
pub const CHILD_BASE_BYTES: u64 = 1 << 30;

/// Floor for the derived CPU-time limit, in seconds. The CPU limit is a
/// backstop against runaway spin, not a scheduling deadline; it must never
/// fire for a legitimate cell.
pub const MIN_RLIMIT_CPU_S: u64 = 5;

/// Pessimism multiplier applied to the analyzer's R808 cost lower bound
/// when deriving RLIMIT_CPU. The bound assumes the optimistic
/// `SIM_RATE_CEILING`; real throughput is orders of magnitude lower, so
/// the backstop scales the certain lower bound up rather than guessing.
pub const CPU_PESSIMISM: f64 = 1_000.0;

/// Smallest address-space limit a worker needs for a cell with the given
/// simulated heap size: every cell's derived RLIMIT_AS.
#[must_use]
pub fn required_rlimit_as(cell_heap_bytes: u64) -> u64 {
    CHILD_BASE_BYTES.saturating_add(cell_heap_bytes)
}

/// Derive the CPU-time backstop from the analyzer's cost lower bound and
/// the supervisor deadline. With a deadline the parent kills the child on
/// wall time anyway, so the CPU limit only needs to cover the deadline
/// with a little slack; without one it scales the cost bound by
/// [`CPU_PESSIMISM`].
#[must_use]
pub fn derived_rlimit_cpu_s(cost_bound_s: f64, deadline_ms: Option<u64>) -> u64 {
    let from_cost = if cost_bound_s.is_finite() && cost_bound_s > 0.0 {
        (cost_bound_s * CPU_PESSIMISM).ceil() as u64
    } else {
        0
    };
    let derived = from_cost.max(MIN_RLIMIT_CPU_S);
    match deadline_ms {
        Some(ms) if ms > 0 => {
            let cap = ms.div_ceil(1_000).saturating_add(2).max(MIN_RLIMIT_CPU_S);
            derived.min(cap)
        }
        _ => derived,
    }
}

/// The sandbox's heartbeat cadence. Resource limits are not configured
/// here: each request carries its own, derived per cell
/// ([`required_rlimit_as`], [`derived_rlimit_cpu_s`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SandboxPolicy {
    /// Interval between worker heartbeats, in milliseconds.
    pub heartbeat_interval_ms: u64,
    /// How many consecutive missed heartbeat intervals the parent
    /// tolerates before declaring the child wedged and killing it.
    pub heartbeat_grace: u32,
}

impl Default for SandboxPolicy {
    fn default() -> Self {
        SandboxPolicy {
            heartbeat_interval_ms: 100,
            heartbeat_grace: 10,
        }
    }
}

impl SandboxPolicy {
    /// Silence budget: a child silent for longer than this is wedged.
    #[must_use]
    pub fn heartbeat_timeout_ms(&self) -> u64 {
        self.heartbeat_interval_ms
            .saturating_mul(u64::from(self.heartbeat_grace))
    }

    /// Same budget as a [`Duration`].
    #[must_use]
    pub fn heartbeat_timeout(&self) -> Duration {
        Duration::from_millis(self.heartbeat_timeout_ms())
    }

    /// Validate field ranges. The check of the timeout against a plan's
    /// deadline is the analyzer's job (R902); this rejects values that
    /// make the sandbox itself nonsensical.
    pub fn validate(&self) -> Result<(), SandboxPolicyError> {
        if self.heartbeat_interval_ms == 0 {
            return Err(SandboxPolicyError {
                field: "heartbeat_interval_ms",
                reason: "must be positive: a zero interval floods the pipe".to_string(),
            });
        }
        if self.heartbeat_grace == 0 {
            return Err(SandboxPolicyError {
                field: "heartbeat_grace",
                reason: "must be positive: zero grace kills every child instantly".to_string(),
            });
        }
        Ok(())
    }
}

/// A sandbox policy field with an out-of-range value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SandboxPolicyError {
    /// Name of the offending field.
    pub field: &'static str,
    /// Why the value was rejected.
    pub reason: String,
}

impl fmt::Display for SandboxPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sandbox policy {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for SandboxPolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_mode_round_trips_through_its_label() {
        for mode in [IsolationMode::Thread, IsolationMode::Process] {
            assert_eq!(mode.label().parse::<IsolationMode>(), Ok(mode));
        }
        assert!("container".parse::<IsolationMode>().is_err());
    }

    #[test]
    fn default_policy_validates() {
        assert!(SandboxPolicy::default().validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        let cases = [
            (
                SandboxPolicy {
                    heartbeat_interval_ms: 0,
                    ..SandboxPolicy::default()
                },
                "heartbeat_interval_ms",
            ),
            (
                SandboxPolicy {
                    heartbeat_grace: 0,
                    ..SandboxPolicy::default()
                },
                "heartbeat_grace",
            ),
        ];
        for (p, field) in cases {
            assert_eq!(p.validate().unwrap_err().field, field);
        }
    }

    #[test]
    fn heartbeat_timeout_is_interval_times_grace() {
        let p = SandboxPolicy {
            heartbeat_interval_ms: 50,
            heartbeat_grace: 4,
        };
        assert_eq!(p.heartbeat_timeout_ms(), 200);
    }

    #[test]
    fn rlimit_as_scales_with_the_cell_heap_above_a_fixed_base() {
        assert_eq!(required_rlimit_as(0), CHILD_BASE_BYTES);
        let one_gib = 1u64 << 30;
        assert_eq!(required_rlimit_as(one_gib), CHILD_BASE_BYTES + one_gib);
        assert_eq!(required_rlimit_as(u64::MAX), u64::MAX);
    }

    #[test]
    fn rlimit_cpu_has_a_floor_and_a_deadline_cap() {
        // Tiny cost bound: the floor wins.
        assert_eq!(derived_rlimit_cpu_s(1e-6, None), MIN_RLIMIT_CPU_S);
        // Large cost bound without a deadline: pessimism scales it.
        assert_eq!(derived_rlimit_cpu_s(10.0, None), 10_000);
        // A deadline caps the backstop to slightly above the deadline.
        assert_eq!(derived_rlimit_cpu_s(10.0, Some(4_000)), 6);
        // A disabled (zero) deadline does not cap.
        assert_eq!(derived_rlimit_cpu_s(10.0, Some(0)), 10_000);
        // Degenerate cost bounds still produce a sane floor.
        assert_eq!(derived_rlimit_cpu_s(f64::NAN, None), MIN_RLIMIT_CPU_S);
    }
}
