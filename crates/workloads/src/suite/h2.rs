//! The `h2` workload.
//!
//! Executes a TPC-C-like transactional workload over the H2 in-memory database: builds a large database, then times 100000 queries against it.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `h2`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "h2",
    description: "Executes a TPC-C-like transactional workload over the H2 in-memory database: builds a large database, then times 100000 queries against it",
    new_in_chopin: false,
    threads: 16,
    survival_fraction: 0.09,
    live_floor_fraction: 0.12,
    build_fraction: 0.3,
    requests: Some(RequestSpec {
        count: 20000,
        workers: 16,
        dispersion: 1.2,
    }),
    highlights: &[
        "TPC-C-like transactions over an in-memory database: build a large database, then query it",
        "the largest heaps in the suite: 681 MB default, 10.2 GB large, 20.6 GB vlarge",
        "very low memory turnover (GTO) but the strongest memory-speed sensitivity (PMS 40%)",
        "its latency distributions under the five collectors are the paper's Figure 6 case study",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("h2").unwrap()
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
        // the largest default minimum heap.
        assert_eq!(p.min_heap_default_mb, 681.0);
        // the 20 GB vlarge configuration.
        assert_eq!(p.min_heap_vlarge_mb, Some(20641.0));
        // the most DRAM-sensitive workload (PMS).
        assert_eq!(p.memory_sensitivity_pct, 40.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "h2");
    }
}
