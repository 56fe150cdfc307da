//! The `graphchi` workload.
//!
//! Performs ALS matrix factorization over the Netflix Challenge dataset with the Java port of the GraphChi out-of-core graph engine.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;

/// What the paper does not publish about `graphchi`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "graphchi",
    description: "Performs ALS matrix factorization over the Netflix Challenge dataset with the Java port of the GraphChi out-of-core graph engine",
    new_in_chopin: true,
    threads: 16,
    survival_fraction: 0.0795,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "ALS matrix factorization of the Netflix Challenge dataset on the GraphChi engine",
        "the most compiler-sensitive workload in the suite (PCS rank 1)",
        "the lowest front-end stalls and bad speculation, one of the best IPCs",
        "its large configuration needs a 1.1 GB minimum heap",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("graphchi").unwrap()
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
        // the most interpreter-sensitive workload (PIN).
        assert_eq!(p.interpreter_pct, 323.0);
        // an unusually large small configuration.
        assert_eq!(p.min_heap_small_mb, 141.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "graphchi");
    }
}
