//! Exploration bounds: the knobs that keep the state space finite.
//!
//! Worker deaths, coordinator crashes and lease expiries are the
//! adversary's moves; cells, workers and retries shape the board. Every
//! unbounded dimension of the real system is tied off here: attempts
//! are bounded by the retry budget plus the adversarial budgets, clock
//! values are canonicalized away, and expiry — the one event a wedged
//! worker could trigger forever — draws from its own budget (the
//! fairness assumption: a worker cannot be delayed infinitely often).

use chopin_faults::SupervisorPolicy;

/// Bounds for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Worker slots (`W` in `--bounds W,C,K[,N]`).
    pub workers: usize,
    /// Cells in the sweep matrix (`C`).
    pub cells: usize,
    /// Shared adversarial crash budget (`K`): worker deaths (including
    /// deaths mid-completion) and coordinator crashes both draw on it.
    pub crashes: u32,
    /// Shared adversarial network budget (`N`): worker→coordinator
    /// frame drops and duplications both draw on it (the model of the
    /// seeded `--net-faults` shim).
    pub net: u32,
    /// Whether a standby coordinator is registered: a coordinator death
    /// becomes a hand-off (takeover at the next epoch, workers
    /// reconnect) instead of a crash-and-resume.
    pub standby: bool,
    /// Whether the fleet is token-gated: the adversary gets one
    /// admission attempt with a wrong token, answered by the shipped
    /// coordinator (rule R1403).
    pub token: bool,
    /// How many of the first cells deterministically fail on every
    /// attempt (exercising retry budgets and quarantine).
    pub failing_cells: usize,
    /// Cell retries before quarantine (the `SupervisorPolicy` budget).
    pub max_retries: u32,
    /// Lease deadline, in virtual milliseconds. Small on purpose: the
    /// steal threshold sits at half of it and every distinct delay
    /// value is a distinct state.
    pub deadline_ms: u64,
}

impl Default for Bounds {
    /// The default gate bounds: two workers racing over two cells (one
    /// deterministically failing), one crash that the registered
    /// standby turns into a hand-off, one network fault, token-gated.
    /// Cells sit at two rather than three because the *combination* of
    /// the crash and net adversaries is what explodes the space
    /// (2,3,1,1 crosses the two-million-state fuse; 2,2,1,1 explores
    /// ~600k states); the three-cell matrix is still covered on the
    /// single-adversary axes via `--bounds 2,3,1,0` in CI.
    fn default() -> Self {
        Bounds {
            workers: 2,
            cells: 2,
            crashes: 1,
            net: 1,
            standby: true,
            token: true,
            failing_cells: 1,
            max_retries: 1,
            deadline_ms: 4,
        }
    }
}

impl Bounds {
    /// Adversarial lease-expiry budget: how many times the scheduler
    /// may *choose* to delay a running worker past its lease deadline.
    /// Tied to the crash budget (with a floor of one) so `--bounds`
    /// scales the adversaries together. A dropped `@done`, whose only
    /// recovery is lease expiry and re-grant, never needs extra slack
    /// here: when the crossing is the only enabled transition it is
    /// inevitability rather than adversarial choice and proceeds
    /// budget-free (the fairness behind R1305).
    #[must_use]
    pub fn expiries(&self) -> u32 {
        self.crashes.max(1)
    }

    /// The supervisor policy the modelled coordinator runs under —
    /// the same type the real coordinator takes, so backoff jitter
    /// sequences match the shipped `backoff_jitter_ms` exactly.
    #[must_use]
    pub fn policy(&self) -> SupervisorPolicy {
        SupervisorPolicy {
            cell_deadline_ms: None,
            max_retries: self.max_retries,
            backoff_base_ms: 2,
            backoff_max_ms: self.deadline_ms,
        }
    }

    /// Per-cell backoff seeds, mirroring the distinct-per-cell seeds
    /// `cell_seed` produces in the harness.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.cells).map(|i| 0xC0FF_EE00 + i as u64).collect()
    }

    /// Validate the bounds before an exploration.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 || self.workers > 4 {
            return Err("workers must be in 1..=4 (the space is exponential)".to_string());
        }
        if self.cells == 0 || self.cells > 6 {
            return Err("cells must be in 1..=6 (the space is exponential)".to_string());
        }
        if self.crashes > 3 {
            return Err("crash budget must be at most 3".to_string());
        }
        if self.net > 3 {
            return Err("network-fault budget must be at most 3".to_string());
        }
        if self.failing_cells > self.cells {
            return Err("failing cells cannot exceed the cell count".to_string());
        }
        if self.deadline_ms == 0 {
            return Err("the lease deadline must be positive".to_string());
        }
        Ok(())
    }

    /// Parse a `--bounds W,C,K[,N]` spec (N is the network-fault
    /// budget); unnamed knobs keep defaults.
    pub fn parse(spec: &str) -> Result<Bounds, String> {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != 3 && parts.len() != 4 {
            return Err(format!("--bounds wants W,C,K[,N] (got {spec:?})"));
        }
        let workers: usize = parts[0]
            .trim()
            .parse()
            .map_err(|_| format!("bad worker count {:?}", parts[0]))?;
        let cells: usize = parts[1]
            .trim()
            .parse()
            .map_err(|_| format!("bad cell count {:?}", parts[1]))?;
        let crashes: u32 = parts[2]
            .trim()
            .parse()
            .map_err(|_| format!("bad crash budget {:?}", parts[2]))?;
        let net: u32 = match parts.get(3) {
            None => Bounds::default().net,
            Some(part) => part
                .trim()
                .parse()
                .map_err(|_| format!("bad network-fault budget {part:?}"))?,
        };
        let bounds = Bounds {
            workers,
            cells,
            crashes,
            net,
            ..Bounds::default()
        };
        bounds.validate()?;
        Ok(bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_triples_and_rejects_junk() {
        let b = Bounds::parse("1, 2, 0").unwrap();
        assert_eq!((b.workers, b.cells, b.crashes), (1, 2, 0));
        assert_eq!(b.net, Bounds::default().net);
        assert_eq!(b.failing_cells, Bounds::default().failing_cells);
        let b = Bounds::parse("1,2,0,2").unwrap();
        assert_eq!(b.net, 2);
        assert!(Bounds::parse("2,3").is_err());
        assert!(Bounds::parse("2,3,x").is_err());
        assert!(Bounds::parse("0,3,1").is_err());
        assert!(Bounds::parse("2,0,1").is_err());
        assert!(Bounds::parse("9,3,1").is_err(), "over the worker cap");
        assert!(Bounds::parse("2,3,9").is_err(), "over the crash cap");
        assert!(Bounds::parse("2,3,1,9").is_err(), "over the net cap");
        assert!(Bounds::parse("2,3,1,x").is_err());
    }

    #[test]
    fn default_bounds_meet_the_gate_floor() {
        let b = Bounds::default();
        assert!(b.workers >= 2 && b.cells >= 2 && b.crashes >= 1);
        assert!(b.net >= 1 && b.standby && b.token);
        assert!(b.failing_cells >= 1, "quarantine must stay covered");
        assert!(b.validate().is_ok());
        assert!(b.expiries() >= 1);
    }
}
