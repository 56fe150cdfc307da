//! The `h2o` workload.
//!
//! Performs machine learning over the citibike trip dataset on the H2O ML platform; the most memory-bound, lowest-IPC workload in the suite.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;

/// What the paper does not publish about `h2o`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "h2o",
    description: "Performs machine learning over the citibike trip dataset on the H2O ML platform; the most memory-bound, lowest-IPC workload in the suite",
    new_in_chopin: true,
    threads: 16,
    survival_fraction: 0.048,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "machine learning over the citibike trip dataset on the H2O platform",
        "the lowest IPC in the suite (0.89): the most back-end-bound, highest LLC-miss-rate workload",
        "very sensitive to DRAM speed (PMS 21%) and one of the noisiest between invocations (PSD)",
        "leaks moderately across iterations (GLK 17%)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("h2o").unwrap()
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
        // among the largest average objects (AOA).
        assert_eq!(p.mean_object_size, 142);
        // GLK.
        assert_eq!(p.leak_pct, 17.0);
        // GTO.
        assert_eq!(p.turnover, 187.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "h2o");
    }
}
