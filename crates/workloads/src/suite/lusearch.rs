//! The `lusearch` workload.
//!
//! Issues search queries against the Apache Lucene search engine from 32 client threads; the highest allocation rate and memory turnover in the suite.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `lusearch`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "lusearch",
    description: "Issues search queries against the Apache Lucene search engine from 32 client threads; the highest allocation rate and memory turnover in the suite",
    new_in_chopin: false,
    threads: 32,
    survival_fraction: 0.0412,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 100000,
        workers: 32,
        dispersion: 0.6,
    }),
    highlights: &[
        "32 client threads issuing search queries against a Lucene index",
        "the highest allocation rate (23.5 GB/s) and memory turnover (GTO 1211) in the suite",
        "the most GCs at 2x heap (GCC 22408) and among the highest GC pause shares (GCP 32%)",
        "Shenandoah's allocation pacer collapses its wall-clock time: the paper's Figure 5 case study",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("lusearch").unwrap()
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
        // the highest allocation rate (ARA).
        assert_eq!(p.alloc_rate_mb_s, 23556.0);
        // the highest memory turnover (GTO).
        assert_eq!(p.turnover, 1211.0);
        // 32 client threads.
        assert_eq!(p.threads, 32);
        // PWU.
        assert_eq!(p.warmup_iterations, 8);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "lusearch");
    }
}
