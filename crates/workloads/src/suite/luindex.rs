//! The `luindex` workload.
//!
//! Builds a search index from a document corpus with the Apache Lucene search engine; allocates the largest objects in the suite.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `luindex`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "luindex",
    description: "Builds a search index from a document corpus with the Apache Lucene search engine; allocates the largest objects in the suite",
    new_in_chopin: false,
    threads: 2,
    survival_fraction: 0.0597,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "builds a Lucene search index from a document corpus (~830 KLOC framework)",
        "allocates the largest objects in the suite (AOA 211 bytes)",
        "the second most LLC-size-sensitive workload (PLS 38%)",
        "high IPC despite among the worst bad-speculation rates",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("luindex").unwrap()
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
        // the largest objects in the suite (AOA).
        assert_eq!(p.mean_object_size, 211);
        // among the most LLC-sensitive (PLS).
        assert_eq!(p.llc_sensitivity_pct, 38.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "luindex");
    }
}
