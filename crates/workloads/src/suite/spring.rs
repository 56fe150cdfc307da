//! The `spring` workload.
//!
//! Runs the petclinic workload over the Spring Boot microservices framework with a deterministic request stream replacing the synthetic load generator.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `spring`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "spring",
    description: "Runs the petclinic workload over the Spring Boot microservices framework with a deterministic request stream replacing the synthetic load generator",
    new_in_chopin: true,
    threads: 32,
    survival_fraction: 0.0453,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 32000,
        workers: 32,
        dispersion: 0.6,
    }),
    highlights: &[
        "the petclinic workload on Spring Boot with a deterministic request stream",
        "one of the highest unique bytecode and function-call counts in the suite",
        "strong memory-speed sensitivity (PMS 20%) and high parallel efficiency (PPE 36%)",
        "one of the nine latency-sensitive workloads",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("spring").unwrap()
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
        // the second-highest parallel efficiency.
        assert_eq!(p.parallel_efficiency_pct, 36.0);
        // GTO.
        assert_eq!(p.turnover, 283.0);
        // GMD.
        assert_eq!(p.min_heap_default_mb, 55.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "spring");
    }
}
