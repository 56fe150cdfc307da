//! The resilient-execution policy: retry, backoff and deadline budgets
//! for the harness sweep supervisor.
//!
//! The policy lives in this crate (not the harness) so the lint crate can
//! validate it as rule R704 without a dependency cycle — the same reason
//! `ObsConfig` lives in `chopin-obs` rather than next to the `--trace-out`
//! flag that populates it.

/// Upper bound on retry attempts per cell (R704).
pub const MAX_RETRIES_BOUND: u32 = 100;

/// Upper bound on the backoff ceiling, in milliseconds (R704): five
/// minutes of backoff is recovery; more is a hang with extra steps.
pub const MAX_BACKOFF_MS: u64 = 300_000;

/// Upper bound on the per-cell deadline, in milliseconds (R704): a day.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Retry/backoff/deadline configuration for supervised sweep execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Wall-clock budget per cell attempt, in milliseconds; `None`
    /// disables the watchdog: each attempt still runs off the scheduler
    /// thread (on an attempt thread or a sandboxed worker), with no time
    /// limit. A fleet lease lasts twice this budget.
    pub cell_deadline_ms: Option<u64>,
    /// Retries after the first failed attempt (0 = fail fast to
    /// quarantine).
    pub max_retries: u32,
    /// First backoff delay between attempts, in milliseconds; doubles per
    /// retry.
    pub backoff_base_ms: u64,
    /// Ceiling on the exponential backoff, in milliseconds.
    pub backoff_max_ms: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            cell_deadline_ms: Some(60_000),
            max_retries: 2,
            backoff_base_ms: 10,
            backoff_max_ms: 1_000,
        }
    }
}

/// A policy failed validation: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// The offending field.
    pub field: &'static str,
    /// Human-readable constraint violation.
    pub reason: String,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid supervisor policy: {} {}",
            self.field, self.reason
        )
    }
}

impl std::error::Error for PolicyError {}

impl SupervisorPolicy {
    /// The backoff delay before retry attempt `attempt` (0-based), in
    /// milliseconds: `backoff_base_ms * 2^attempt`, capped at
    /// [`SupervisorPolicy::backoff_max_ms`].
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base_ms
            .saturating_mul(factor)
            .min(self.backoff_max_ms)
    }

    /// The *jittered* backoff delay before retry attempt `attempt`
    /// (0-based), in milliseconds: uniform in `[0, backoff_ms(attempt)]`
    /// ("full jitter").
    ///
    /// Plain exponential backoff retries every failed worker in
    /// deterministic lockstep, re-amplifying exactly the contention spike
    /// that made them fail. Full jitter spreads the retries across the
    /// whole window — and seeding it from the cell identity (rather than
    /// an RNG) keeps every run bit-reproducible: the same cell backs off
    /// by the same delays on every host, every time.
    pub fn backoff_jitter_ms(&self, attempt: u32, seed: u64) -> u64 {
        let ceiling = self.backoff_ms(attempt);
        if ceiling == u64::MAX {
            return ceiling;
        }
        let mix =
            crate::hard::splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        mix % (ceiling + 1)
    }

    /// Validate the policy: positive, bounded deadline and backoff values
    /// and a bounded retry count (rule R704).
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`PolicyError`].
    pub fn validate(&self) -> Result<(), PolicyError> {
        if let Some(d) = self.cell_deadline_ms {
            if d == 0 {
                return Err(PolicyError {
                    field: "cell_deadline_ms",
                    reason: "must be positive (omit the deadline to disable it)".to_string(),
                });
            }
            if d > MAX_DEADLINE_MS {
                return Err(PolicyError {
                    field: "cell_deadline_ms",
                    reason: format!("{d} exceeds the {MAX_DEADLINE_MS}ms bound"),
                });
            }
        }
        if self.max_retries > MAX_RETRIES_BOUND {
            return Err(PolicyError {
                field: "max_retries",
                reason: format!("{} exceeds the {MAX_RETRIES_BOUND} bound", self.max_retries),
            });
        }
        if self.backoff_base_ms == 0 {
            return Err(PolicyError {
                field: "backoff_base_ms",
                reason: "must be positive".to_string(),
            });
        }
        if self.backoff_max_ms < self.backoff_base_ms {
            return Err(PolicyError {
                field: "backoff_max_ms",
                reason: format!(
                    "{} is below backoff_base_ms {}",
                    self.backoff_max_ms, self.backoff_base_ms
                ),
            });
        }
        if self.backoff_max_ms > MAX_BACKOFF_MS {
            return Err(PolicyError {
                field: "backoff_max_ms",
                reason: format!(
                    "{} exceeds the {MAX_BACKOFF_MS}ms bound",
                    self.backoff_max_ms
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_validates() {
        SupervisorPolicy::default().validate().unwrap();
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = SupervisorPolicy {
            backoff_base_ms: 10,
            backoff_max_ms: 50,
            ..SupervisorPolicy::default()
        };
        assert_eq!(p.backoff_ms(0), 10);
        assert_eq!(p.backoff_ms(1), 20);
        assert_eq!(p.backoff_ms(2), 40);
        assert_eq!(p.backoff_ms(3), 50, "capped");
        assert_eq!(p.backoff_ms(200), 50, "shift overflow saturates");
    }

    #[test]
    fn jittered_backoff_stays_in_the_window_and_is_reproducible() {
        let p = SupervisorPolicy {
            backoff_base_ms: 10,
            backoff_max_ms: 1_000,
            ..SupervisorPolicy::default()
        };
        for attempt in 0..8 {
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                let jittered = p.backoff_jitter_ms(attempt, seed);
                assert!(jittered <= p.backoff_ms(attempt));
                assert_eq!(
                    jittered,
                    p.backoff_jitter_ms(attempt, seed),
                    "same seed + attempt must give the same delay"
                );
            }
        }
        // Different seeds (different cells) must not retry in lockstep.
        let delays: Vec<u64> = (0..16).map(|s| p.backoff_jitter_ms(3, s)).collect();
        let first = delays[0];
        assert!(delays.iter().any(|&d| d != first), "jitter must spread");
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let base = SupervisorPolicy::default();
        for (bad, field) in [
            (
                SupervisorPolicy {
                    cell_deadline_ms: Some(0),
                    ..base
                },
                "cell_deadline_ms",
            ),
            (
                SupervisorPolicy {
                    cell_deadline_ms: Some(MAX_DEADLINE_MS + 1),
                    ..base
                },
                "cell_deadline_ms",
            ),
            (
                SupervisorPolicy {
                    max_retries: MAX_RETRIES_BOUND + 1,
                    ..base
                },
                "max_retries",
            ),
            (
                SupervisorPolicy {
                    backoff_base_ms: 0,
                    ..base
                },
                "backoff_base_ms",
            ),
            (
                SupervisorPolicy {
                    backoff_base_ms: 100,
                    backoff_max_ms: 50,
                    ..base
                },
                "backoff_max_ms",
            ),
            (
                SupervisorPolicy {
                    backoff_max_ms: MAX_BACKOFF_MS + 1,
                    ..base
                },
                "backoff_max_ms",
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert_eq!(err.field, field, "{bad:?}");
        }
    }

    #[test]
    fn no_deadline_is_valid() {
        let p = SupervisorPolicy {
            cell_deadline_ms: None,
            ..SupervisorPolicy::default()
        };
        p.validate().unwrap();
    }
}
