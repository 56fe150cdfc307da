//! Hard faults: failures the in-process [`crate::FaultClock`] cannot
//! express.
//!
//! Every [`crate::FaultKind`] perturbs the *simulation* — allocation
//! spikes, heap squeezes, slowdowns — and the worst it can provoke is an
//! error or a panic, both of which the supervisor's `catch_unwind` layer
//! survives. A hard fault kills the *process*: SIGKILL mid-iteration, an
//! abort, or an allocation blow-up that trips the sandbox's RLIMIT_AS
//! backstop. They exist to exercise the process-isolation layer, which is
//! the only backend that can survive them (rule R903 rejects plans that
//! pair hard faults with thread isolation).
//!
//! Like soft fault plans, hard fault plans are deterministic pure data:
//! victim selection hashes the cell's identity with the plan seed, so the
//! same cells die on every attempt, in every isolation backend, and on
//! every host — which is what lets the acceptance tests demand that the
//! surviving cells' CSV rows stay byte-identical to an undisturbed run.

use std::fmt;

use crate::plan::FaultPlanError;

/// Default seed for hard-fault presets (the 64-bit golden-ratio constant,
/// matching the soft-fault preset fallback).
pub const DEFAULT_HARD_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Default victim stride: every `stride`-th cell (by hash, not by
/// position) is a victim.
pub const DEFAULT_HARD_STRIDE: u32 = 2;

/// Default delay between cell start and the injected death, in
/// milliseconds — long enough to be genuinely "mid-iteration", short
/// enough that storms stay cheap in CI.
pub const DEFAULT_HARD_DELAY_MS: u64 = 5;

/// Upper bound on the injected delay: a delay that outlives any sane cell
/// deadline is configuration error, not chaos.
pub const MAX_HARD_DELAY_MS: u64 = 60_000;

/// The ways a hard fault kills a worker process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardFaultKind {
    /// `raise(SIGKILL)`: the unblockable kill — no unwinding, no exit
    /// status, no last words.
    Kill,
    /// `std::process::abort()`: SIGABRT, the way assertion machinery and
    /// the allocator die.
    Abort,
    /// Allocate real memory until the sandbox's RLIMIT_AS backstop fires
    /// (SIGABRT with the allocator's out-of-memory message).
    OomBlowup,
}

impl HardFaultKind {
    /// Stable lowercase label, also the `--hard-faults` preset name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HardFaultKind::Kill => "kill",
            HardFaultKind::Abort => "abort",
            HardFaultKind::OomBlowup => "oom",
        }
    }

    /// Parse a preset name back into a kind.
    #[must_use]
    pub fn from_label(label: &str) -> Option<HardFaultKind> {
        match label {
            "kill" => Some(HardFaultKind::Kill),
            "abort" => Some(HardFaultKind::Abort),
            "oom" => Some(HardFaultKind::OomBlowup),
            _ => None,
        }
    }
}

impl fmt::Display for HardFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The hard-fault preset names accepted by `--hard-faults`.
pub const HARD_PRESET_NAMES: [&str; 3] = ["kill", "abort", "oom"];

/// A deterministic schedule of process deaths over a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardFaultPlan {
    /// Seed for victim selection.
    pub seed: u64,
    /// How the victims die.
    pub kind: HardFaultKind,
    /// One cell in `stride` (by seeded hash) is a victim.
    pub stride: u32,
    /// Delay between cell start and death, in milliseconds.
    pub delay_ms: u64,
}

impl HardFaultPlan {
    /// A plan with the default stride and delay.
    #[must_use]
    pub fn new(kind: HardFaultKind, seed: u64) -> Self {
        HardFaultPlan {
            seed,
            kind,
            stride: DEFAULT_HARD_STRIDE,
            delay_ms: DEFAULT_HARD_DELAY_MS,
        }
    }

    /// Validate field ranges, mirroring [`crate::FaultPlan::validate`].
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if self.seed == 0 {
            return Err(FaultPlanError {
                field: "seed".to_string(),
                reason: "must be nonzero so victim selection is explicit and reproducible"
                    .to_string(),
            });
        }
        if self.stride == 0 {
            return Err(FaultPlanError {
                field: "stride".to_string(),
                reason: "must be at least 1 (1 kills every cell)".to_string(),
            });
        }
        if self.delay_ms > MAX_HARD_DELAY_MS {
            return Err(FaultPlanError {
                field: "delay_ms".to_string(),
                reason: format!(
                    "{}ms exceeds the {MAX_HARD_DELAY_MS}ms bound",
                    self.delay_ms
                ),
            });
        }
        Ok(())
    }

    /// Whether the cell identified by `(benchmark, collector,
    /// heap_factor)` dies under this plan.
    ///
    /// Selection hashes the cell identity (heap factor by exact bits)
    /// with the seed, so it is independent of schedule position, attempt
    /// number and isolation backend.
    #[must_use]
    pub fn is_victim(&self, benchmark: &str, collector: &str, heap_factor: f64) -> bool {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for part in [benchmark.as_bytes(), b"/", collector.as_bytes(), b"/"] {
            for &byte in part {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        for &byte in &heap_factor.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        splitmix64(h ^ self.seed).is_multiple_of(u64::from(self.stride))
    }

    /// Whether the fleet *worker* with this id dies under the plan.
    ///
    /// The fleet analog of [`HardFaultPlan::is_victim`]: same FNV-1a +
    /// SplitMix64 selection, hashed over the worker identity
    /// (`worker/<id>`) instead of a cell identity, so worker-kill storms
    /// are as reproducible as cell-kill storms. Respawned workers get
    /// fresh ids and therefore fresh, independent victim rolls.
    #[must_use]
    pub fn worker_victim(&self, worker_id: u64) -> bool {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for part in [b"worker/" as &[u8], format!("{worker_id}").as_bytes()] {
            for &byte in part {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        splitmix64(h ^ self.seed).is_multiple_of(u64::from(self.stride))
    }
}

/// Parse a `--hard-faults` flag value: `KIND[:SEED[:STRIDE]]`.
pub fn parse_hard_flag(flag: &str) -> Result<HardFaultPlan, String> {
    let mut parts = flag.splitn(3, ':');
    let name = parts.next().unwrap_or_default();
    let kind = HardFaultKind::from_label(name).ok_or_else(|| {
        format!(
            "unknown hard-fault preset {name:?} (expected one of: {})",
            HARD_PRESET_NAMES.join(", ")
        )
    })?;
    let mut plan = HardFaultPlan::new(kind, DEFAULT_HARD_SEED);
    if let Some(seed) = parts.next() {
        plan.seed = seed
            .parse()
            .map_err(|_| format!("hard-fault seed {seed:?} is not a u64"))?;
    }
    if let Some(stride) = parts.next() {
        plan.stride = stride
            .parse()
            .map_err(|_| format!("hard-fault stride {stride:?} is not a u32"))?;
    }
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

/// SplitMix64: the finalizer used to whiten the victim hash.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_labels() {
        for kind in [
            HardFaultKind::Kill,
            HardFaultKind::Abort,
            HardFaultKind::OomBlowup,
        ] {
            assert_eq!(HardFaultKind::from_label(kind.label()), Some(kind));
            assert!(HARD_PRESET_NAMES.contains(&kind.label()));
        }
        assert_eq!(HardFaultKind::from_label("segv"), None);
    }

    #[test]
    fn validation_rejects_degenerate_plans() {
        let mut plan = HardFaultPlan::new(HardFaultKind::Kill, DEFAULT_HARD_SEED);
        assert!(plan.validate().is_ok());
        plan.seed = 0;
        assert_eq!(plan.validate().unwrap_err().field, "seed");
        plan.seed = 1;
        plan.stride = 0;
        assert_eq!(plan.validate().unwrap_err().field, "stride");
        plan.stride = 1;
        plan.delay_ms = MAX_HARD_DELAY_MS + 1;
        assert_eq!(plan.validate().unwrap_err().field, "delay_ms");
    }

    #[test]
    fn victim_selection_is_deterministic_and_seed_sensitive() {
        let plan = HardFaultPlan::new(HardFaultKind::Kill, DEFAULT_HARD_SEED);
        let a = plan.is_victim("fop", "G1", 2.0);
        assert_eq!(a, plan.is_victim("fop", "G1", 2.0), "must be stable");

        // A stride of 1 kills everything.
        let all = HardFaultPlan { stride: 1, ..plan };
        for factor in [1.25, 2.0, 3.0, 6.0] {
            assert!(all.is_victim("lusearch", "Serial", factor));
        }

        // Different seeds must reshuffle victims across a modest grid.
        let other = HardFaultPlan { seed: 7, ..plan };
        let grid: Vec<bool> = ["fop", "lusearch", "cassandra", "h2", "kafka", "tomcat"]
            .iter()
            .flat_map(|b| {
                ["G1", "Serial", "Parallel"]
                    .iter()
                    .map(move |c| plan.is_victim(b, c, 2.0) != other.is_victim(b, c, 2.0))
            })
            .collect();
        assert!(grid.iter().any(|&diff| diff), "seed must matter");
    }

    #[test]
    fn victims_respect_the_stride_on_average() {
        let plan = HardFaultPlan {
            stride: 4,
            ..HardFaultPlan::new(HardFaultKind::Abort, 42)
        };
        let mut victims = 0;
        let mut total = 0;
        for b in 0..40 {
            for factor in [1.5, 2.0, 3.0, 4.0, 6.0] {
                total += 1;
                if plan.is_victim(&format!("bench{b}"), "G1", factor) {
                    victims += 1;
                }
            }
        }
        let rate = f64::from(victims) / f64::from(total);
        assert!(
            (0.10..=0.45).contains(&rate),
            "victim rate {rate} wildly off the 1/4 stride"
        );
    }

    #[test]
    fn worker_victims_are_deterministic_seeded_and_strided() {
        let plan = HardFaultPlan::new(HardFaultKind::Kill, DEFAULT_HARD_SEED);
        for id in 0..32u64 {
            assert_eq!(
                plan.worker_victim(id),
                plan.worker_victim(id),
                "must be stable"
            );
        }
        // A stride of 1 kills every worker.
        let all = HardFaultPlan { stride: 1, ..plan };
        assert!((0..16).all(|id| all.worker_victim(id)));
        // Different seeds reshuffle victims.
        let other = HardFaultPlan { seed: 7, ..plan };
        assert!(
            (0..64).any(|id| plan.worker_victim(id) != other.worker_victim(id)),
            "seed must matter"
        );
        // Worker selection is independent of cell selection: hashing the
        // id as a cell benchmark name must not agree everywhere.
        assert!(
            (0..64).any(
                |id| plan.worker_victim(id) != plan.is_victim(&format!("worker/{id}"), "", 0.0)
            ),
            "worker hashing must be its own domain"
        );
    }

    #[test]
    fn flag_parsing_accepts_seed_and_stride() {
        let plan = parse_hard_flag("kill").unwrap();
        assert_eq!(plan.kind, HardFaultKind::Kill);
        assert_eq!(plan.seed, DEFAULT_HARD_SEED);
        assert_eq!(plan.stride, DEFAULT_HARD_STRIDE);

        let plan = parse_hard_flag("oom:99:3").unwrap();
        assert_eq!(plan.kind, HardFaultKind::OomBlowup);
        assert_eq!(plan.seed, 99);
        assert_eq!(plan.stride, 3);

        assert!(parse_hard_flag("segv").is_err());
        assert!(parse_hard_flag("kill:notanumber").is_err());
        assert!(parse_hard_flag("kill:0").is_err(), "zero seed rejected");
    }
}
