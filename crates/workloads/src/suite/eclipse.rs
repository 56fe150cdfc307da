//! The `eclipse` workload.
//!
//! Executes the Eclipse IDE's performance tests; the tightest hot-code focus and strongest compiler sensitivity in the suite.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `eclipse`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "eclipse",
    description: "Executes the Eclipse IDE's performance tests; the tightest hot-code focus and strongest compiler sensitivity in the suite",
    new_in_chopin: false,
    threads: 4,
    survival_fraction: 0.0688,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "runs the Eclipse IDE performance tests over a >6 MLOC codebase",
        "the highest concentration of hot code (BEF rank 1)",
        "among the most compiler-configuration-sensitive workloads (PCC, PCS)",
        "suffers high bad speculation from branch mispredicts (UBP, UBS)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("eclipse").unwrap()
    }

    #[test]
    fn profile_is_internally_consistent() {
        profile().validate().unwrap();
    }

    #[test]
    fn highlights_are_present() {
        assert!(WORKLOAD.highlights.len() >= 3);
        assert!(WORKLOAD.highlights.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn published_values_are_transcribed_faithfully() {
        let p = profile();
        // the longest nominal execution time.
        assert_eq!(p.exec_time_s, 8.0);
        // GMD.
        assert_eq!(p.min_heap_default_mb, 135.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "eclipse");
    }
}
