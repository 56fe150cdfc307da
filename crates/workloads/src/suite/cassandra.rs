//! The `cassandra` workload.
//!
//! Executes the Yahoo! Cloud Serving Benchmark (YCSB) over the Apache Cassandra NoSQL database management system.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `cassandra`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "cassandra",
    description: "Executes the Yahoo! Cloud Serving Benchmark (YCSB) over the Apache Cassandra NoSQL database management system",
    new_in_chopin: true,
    threads: 32,
    survival_fraction: 0.0841,
    live_floor_fraction: 0.6,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 100000,
        workers: 32,
        dispersion: 0.8,
    }),
    highlights: &[
        "YCSB over the Apache Cassandra NoSQL database (~700 KLOC), reporting request latencies",
        "one of the least GC-intensive workloads (GCP) but leaks memory across iterations (GLK 46%)",
        "the highest DTLB miss rate in the suite (UDT) with very high data- and last-level-cache miss rates",
        "its wall/task-clock divergence under concurrent collectors is the paper's Figure 5 case study",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("cassandra").unwrap()
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
        // leaks across iterations (GLK).
        assert_eq!(p.leak_pct, 46.0);
        // 32 YCSB client threads.
        assert_eq!(p.threads, 32);
        // PET.
        assert_eq!(p.exec_time_s, 6.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "cassandra");
    }
}
