//! The `kafka` workload.
//!
//! Issues requests against the Apache Kafka publish-subscribe messaging framework; kernel-intensive and insensitive to heap size.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `kafka`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "kafka",
    description: "Issues requests against the Apache Kafka publish-subscribe messaging framework; kernel-intensive and insensitive to heap size",
    new_in_chopin: true,
    threads: 8,
    survival_fraction: 0.03,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 60000,
        workers: 8,
        dispersion: 0.7,
    }),
    highlights: &[
        "issues requests against the Kafka publish-subscribe framework (~840 KLOC of Java and Scala)",
        "kernel-intensive (PKP 25%) and completely insensitive to heap size (GSS 0)",
        "very high data-cache and LLC miss rates; among the most front-end-bound workloads",
        "insensitive to CPU frequency and memory speed",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("kafka").unwrap()
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
        // kernel-intensive (PKP).
        assert_eq!(p.kernel_pct, 25.0);
        // GMD.
        assert_eq!(p.min_heap_default_mb, 201.0);
        // frequency-insensitive.
        assert_eq!(p.freq_sensitivity_pct, 1.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "kafka");
    }
}
