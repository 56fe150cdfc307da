//! The `biojava` workload.
//!
//! Generates ten physico-chemical properties of protein sequences using the BioJava framework; the highest-IPC, most compute-bound workload in the suite.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;

/// What the paper does not publish about `biojava`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "biojava",
    description: "Generates ten physico-chemical properties of protein sequences using the BioJava framework; the highest-IPC, most compute-bound workload in the suite",
    new_in_chopin: true,
    threads: 4,
    survival_fraction: 0.0547,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "computes physico-chemical properties of protein sequences (>300 KLOC framework)",
        "the tightest hot-code focus (BEF) and the highest IPC in the suite (4.76)",
        "the lowest data-cache miss rate and among the lowest stalls of any kind",
        "one of the most heap-size-sensitive benchmarks (GSS 7107%)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("biojava").unwrap()
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
        // nearly 2x pointer inflation.
        assert_eq!(p.min_heap_uncompressed_mb, 183.0);
        // PET.
        assert_eq!(p.exec_time_s, 5.0);
        // ARA.
        assert_eq!(p.alloc_rate_mb_s, 2041.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "biojava");
    }
}
