//! The suite-configuration fingerprint: the resume guard's (and the
//! provenance checker's) notion of "same experiment".
//!
//! The fingerprint lives here — below both the harness supervisor and the
//! plan analyses — so the journal a supervisor writes and the fingerprint
//! a [`crate::PlanIR`] predicts are computed by the same code and can
//! never drift apart.

use chopin_core::sweep::SweepConfig;
use chopin_faults::{FaultPlan, HardFaultPlan};

/// FNV-1a over the canonical description of a suite configuration.
///
/// # Examples
///
/// ```
/// use chopin_analyzer::fingerprint_of;
///
/// assert_eq!(fingerprint_of(&["a", "b"]), fingerprint_of(&["a", "b"]));
/// assert_ne!(fingerprint_of(&["ab", "c"]), fingerprint_of(&["a", "bc"]));
/// ```
pub fn fingerprint_of(parts: &[&str]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for byte in part.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate the parts so ["ab","c"] and ["a","bc"] differ.
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fingerprint of one supervised sweep: benchmark names, every sweep
/// dimension, and the cell runner's own fingerprint (e.g. the fault
/// plan). This is the value the journal header carries and `--resume`
/// checks.
pub fn sweep_fingerprint(benchmarks: &[&str], config: &SweepConfig, runner: &str) -> u64 {
    let mut parts: Vec<String> = benchmarks.iter().map(|b| (*b).to_string()).collect();
    parts.push(format!("{:?}", config.collectors));
    parts.push(format!("{:?}", config.heap_factors));
    parts.push(format!("{:?}", config.invocations));
    parts.push(format!("{:?}", config.iterations));
    parts.push(format!("{:?}", config.size));
    parts.push(runner.to_string());
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    fingerprint_of(&refs)
}

/// The cell runner's part of [`sweep_fingerprint`]: the fault plan
/// injected into every run, then the hard-fault plan. Every backend's
/// runner reports it, and the isolation mode is deliberately not part of
/// it, so a sweep may be resumed across backends.
pub fn runner_fingerprint(faults: Option<&FaultPlan>, hard: Option<&HardFaultPlan>) -> String {
    let mut out = faults.map(|plan| format!("{plan:?}")).unwrap_or_default();
    if let Some(hard) = hard {
        out.push_str(&format!("+hard:{hard:?}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_parts_and_content() {
        assert_ne!(fingerprint_of(&["a"]), fingerprint_of(&["b"]));
        assert_ne!(fingerprint_of(&[]), fingerprint_of(&[""]));
    }

    #[test]
    fn runner_fingerprint_keeps_the_recipe_existing_journals_carry() {
        let horizon = chopin_workloads::faults::DEFAULT_HORIZON_NS;
        let plan = chopin_workloads::faults::preset("chaos", 7, horizon).unwrap();
        let hard = HardFaultPlan::new(chopin_faults::HardFaultKind::Kill, 1);
        assert_eq!(runner_fingerprint(None, None), "");
        assert_eq!(runner_fingerprint(Some(&plan), None), format!("{plan:?}"));
        assert_eq!(
            runner_fingerprint(None, Some(&hard)),
            format!("+hard:{hard:?}")
        );
        assert_eq!(
            runner_fingerprint(Some(&plan), Some(&hard)),
            format!("{plan:?}+hard:{hard:?}")
        );
    }

    #[test]
    fn sweep_fingerprint_covers_every_dimension() {
        let base = SweepConfig::quick();
        let fp = sweep_fingerprint(&["fop"], &base, "");
        assert_eq!(fp, sweep_fingerprint(&["fop"], &base, ""));
        assert_ne!(fp, sweep_fingerprint(&["pmd"], &base, ""));
        assert_ne!(fp, sweep_fingerprint(&["fop"], &base, "faults"));
        let mut other = base.clone();
        other.invocations += 1;
        assert_ne!(fp, sweep_fingerprint(&["fop"], &other, ""));
        let mut other = base;
        other.heap_factors.push(9.0);
        assert_ne!(fp, sweep_fingerprint(&["fop"], &other, ""));
    }
}
