//! The `avrora` workload.
//!
//! Simulates a number of programs run on a grid of AVR micro-controllers; each simulated entity is a thread, giving a high degree of fine-grained concurrency.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `avrora`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "avrora",
    description: "Simulates a number of programs run on a grid of AVR micro-controllers; each simulated entity is a thread, giving a high degree of fine-grained concurrency",
    new_in_chopin: false,
    threads: 27,
    survival_fraction: 0.0855,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "one of the most unusual workloads in the suite: each simulated micro-controller entity is a thread, giving very fine-grained concurrency",
        "second lowest allocation rate in the suite (ARA) and the highest share of kernel time (PKP 56%)",
        "the most front-end-bound workload (USF rank 1), likely due to heavy use of locking primitives",
        "highly concurrent yet with very low parallel efficiency (PPE 3%)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("avrora").unwrap()
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
        // the smallest minimum heap in the suite.
        assert_eq!(p.min_heap_default_mb, 5.0);
        // the highest kernel share (PKP).
        assert_eq!(p.kernel_pct, 56.0);
        // second-lowest allocation rate.
        assert_eq!(p.alloc_rate_mb_s, 56.0);
        // fine-grained per-entity concurrency.
        assert_eq!(p.threads, 27);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "avrora");
    }
}
