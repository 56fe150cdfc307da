//! The `pmd` workload.
//!
//! Checks a corpus of Java source code with the PMD static code analyzer; strongly last-level-cache and memory-speed sensitive.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `pmd`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "pmd",
    description: "Checks a corpus of Java source code with the PMD static code analyzer; strongly last-level-cache and memory-speed sensitive",
    new_in_chopin: false,
    threads: 16,
    survival_fraction: 0.0869,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "static analysis of a Java source corpus (~120 KLOC analyzer)",
        "among the most LLC-size- and memory-speed-sensitive workloads (PLS 31%, PMS 19%)",
        "one of the least generational workloads (GCM rank 1) and slow to warm up (PWU 7)",
        "the strongest uncompressed-pointer inflation used in our ZGC minimum-heap tests (GMU/GMD 1.41)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("pmd").unwrap()
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
        // strong pointer inflation (GMU).
        assert_eq!(p.min_heap_uncompressed_mb, 269.0);
        // PMS.
        assert_eq!(p.memory_sensitivity_pct, 19.0);
        // PLS.
        assert_eq!(p.llc_sensitivity_pct, 31.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "pmd");
    }
}
