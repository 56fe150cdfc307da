//! Named fault presets: ready-made [`FaultPlan`]s scaled to a run horizon.
//!
//! The chaos experiments (and the `--faults` CLI flag) want a small
//! vocabulary of reproducible duress profiles rather than hand-written
//! window lists. Each preset takes a seed and the expected run horizon in
//! simulated nanoseconds and returns a plan whose windows all lie inside
//! that horizon, so the result always passes the lint rules R701–R703.

use chopin_faults::{FaultKind, FaultPlan};

/// Seed substituted when a caller passes zero: a zero seed is rejected for
/// non-empty plans (rule R701), and presets should never hand back a plan
/// that fails validation. The constant is the 64-bit golden-ratio mixing
/// word, chosen for having no accidental meaning.
pub const FALLBACK_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Names of all fault presets, in the order [`preset`] documents them.
pub const PRESET_NAMES: [&str; 6] = [
    "chaos",
    "spike",
    "squeeze",
    "slowdown",
    "storm",
    "degenerate",
];

fn nonzero(seed: u64) -> u64 {
    if seed == 0 {
        FALLBACK_SEED
    } else {
        seed
    }
}

/// Look up a preset by name.
///
/// * `chaos` — all five fault kinds at moderate magnitude, interleaved.
/// * `spike` — allocation-rate spikes (factor 4) over a third of the run.
/// * `squeeze` — transient heap-capacity squeezes (35% of capacity gone).
/// * `slowdown` — GC threads slowed 8x over half the run.
/// * `storm` — pacing-stall storms capping the mutator throttle at 10%.
/// * `degenerate` — windows forcing collections to run degenerate.
///
/// Returns `None` for an unknown name. A zero `seed` is replaced with
/// [`FALLBACK_SEED`] so every returned plan passes rule R701.
///
/// # Examples
///
/// ```
/// use chopin_workloads::faults::preset;
///
/// let horizon = 500_000_000; // 500 simulated ms
/// let plan = preset("chaos", 42, horizon).expect("chaos is a preset");
/// assert!(plan.horizon().is_some_and(|end| end <= horizon));
/// assert!(preset("tsunami", 42, horizon).is_none());
/// ```
pub fn preset(name: &str, seed: u64, horizon_ns: u64) -> Option<FaultPlan> {
    let seed = nonzero(seed);
    let plan = match name {
        "chaos" => FaultPlan::new(seed)
            .with_storm(FaultKind::AllocSpike { factor: 3.0 }, horizon_ns, 3, 0.2)
            .with_storm(
                FaultKind::HeapSqueeze { fraction: 0.25 },
                horizon_ns,
                2,
                0.15,
            )
            .with_storm(FaultKind::GcSlowdown { factor: 4.0 }, horizon_ns, 3, 0.2)
            .with_storm(FaultKind::StallStorm { throttle: 0.15 }, horizon_ns, 3, 0.1)
            .with_storm(FaultKind::ForceDegenerate, horizon_ns, 2, 0.1),
        "spike" => FaultPlan::new(seed).with_storm(
            FaultKind::AllocSpike { factor: 4.0 },
            horizon_ns,
            4,
            0.35,
        ),
        "squeeze" => FaultPlan::new(seed).with_storm(
            FaultKind::HeapSqueeze { fraction: 0.35 },
            horizon_ns,
            3,
            0.25,
        ),
        "slowdown" => FaultPlan::new(seed).with_storm(
            FaultKind::GcSlowdown { factor: 8.0 },
            horizon_ns,
            3,
            0.5,
        ),
        "storm" => FaultPlan::new(seed).with_storm(
            FaultKind::StallStorm { throttle: 0.1 },
            horizon_ns,
            6,
            0.15,
        ),
        "degenerate" => {
            FaultPlan::new(seed).with_storm(FaultKind::ForceDegenerate, horizon_ns, 3, 0.3)
        }
        _ => return None,
    };
    Some(plan)
}

/// The horizon the `--faults` CLI flag assumes when nothing better is
/// known: 10 simulated seconds covers every suite workload's first
/// measured iterations, and windows past the end of a shorter run simply
/// never fire.
pub const DEFAULT_HORIZON_NS: u64 = 10_000_000_000;

/// Parse a `--faults` flag value of the form `preset` or `preset:seed`
/// (e.g. `chaos`, `spike:42`) into a plan over `horizon_ns`.
///
/// # Errors
///
/// A human-readable message naming the valid presets for an unknown name,
/// or the parse failure for a malformed seed.
///
/// # Examples
///
/// ```
/// use chopin_workloads::faults::{parse_flag, DEFAULT_HORIZON_NS};
///
/// let plan = parse_flag("storm:7", DEFAULT_HORIZON_NS).expect("valid flag");
/// assert_eq!(plan.seed, 7);
/// assert!(parse_flag("tsunami", DEFAULT_HORIZON_NS).is_err());
/// ```
pub fn parse_flag(flag: &str, horizon_ns: u64) -> Result<FaultPlan, String> {
    let (name, seed) = match flag.split_once(':') {
        None => (flag, FALLBACK_SEED),
        Some((name, seed)) => (
            name,
            seed.parse::<u64>()
                .map_err(|_| format!("invalid fault seed `{seed}` in `--faults {flag}`"))?,
        ),
    };
    preset(name, seed, horizon_ns).ok_or_else(|| {
        format!(
            "unknown fault preset `{name}`; expected one of {}",
            PRESET_NAMES.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 400_000_000;

    /// R702 and R703 over one plan: in-range magnitudes, positive-duration
    /// windows inside the horizon.
    fn assert_within_horizon(name: &str, plan: &FaultPlan) {
        for w in &plan.windows {
            assert!(
                w.start_ns < w.end_ns && w.end_ns <= HORIZON,
                "{name}: {w:?}"
            );
            assert_eq!(w.kind.magnitude_error(), None, "{name}: {w:?}");
        }
    }

    #[test]
    fn every_named_preset_exists_and_validates_within_horizon() {
        for name in PRESET_NAMES {
            let plan = preset(name, 7, HORIZON).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!plan.is_empty(), "{name} schedules no windows");
            assert_within_horizon(name, &plan);
        }
    }

    #[test]
    fn presets_are_deterministic_in_seed_and_horizon() {
        for name in PRESET_NAMES {
            let a = preset(name, 42, HORIZON).unwrap();
            let b = preset(name, 42, HORIZON).unwrap();
            assert_eq!(a, b, "{name} not deterministic");
            let c = preset(name, 43, HORIZON).unwrap();
            assert_eq!(a.windows.len(), c.windows.len());
        }
    }

    #[test]
    fn zero_seed_is_replaced_so_plans_still_validate() {
        let plan = preset("chaos", 0, HORIZON).unwrap();
        assert_eq!(plan.seed, FALLBACK_SEED);
        assert_within_horizon("chaos", &plan);
    }

    #[test]
    fn unknown_preset_is_none() {
        assert!(preset("", 1, HORIZON).is_none());
        assert!(preset("Chaos", 1, HORIZON).is_none());
    }

    #[test]
    fn flag_parsing_handles_seeds_and_rejects_junk() {
        assert_eq!(parse_flag("chaos", HORIZON).unwrap().seed, FALLBACK_SEED);
        assert_eq!(parse_flag("spike:42", HORIZON).unwrap().seed, 42);
        assert!(parse_flag("spike:many", HORIZON)
            .unwrap_err()
            .contains("invalid fault seed"));
        let err = parse_flag("tsunami", HORIZON).unwrap_err();
        assert!(err.contains("unknown fault preset"), "{err}");
        assert!(err.contains("chaos"), "lists the valid names: {err}");
    }
}
