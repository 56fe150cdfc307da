//! The `tomcat` workload.
//!
//! Serves a series of HTTP requests with the Apache Tomcat servlet container against a deterministic client workload.
//! This profile is refreshed from the previous DaCapo release.
//!
//! The appendix table for this benchmark is truncated in our source text;
//! values not present in Table 2 are estimated (see DESIGN.md, D4).

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `tomcat`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "tomcat",
    description: "Serves a series of HTTP requests with the Apache Tomcat servlet container against a deterministic client workload",
    new_in_chopin: false,
    threads: 32,
    survival_fraction: 0.0567,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 64000,
        workers: 32,
        dispersion: 0.7,
    }),
    highlights: &[
        "serves HTTP requests through the Tomcat servlet container against a deterministic client",
        "kernel-heavy (PKP 19%) and insensitive to CPU frequency (PFS 2%)",
        "among the most front-end-bound workloads (USF 45)",
        "appendix table truncated in our source: non-Table-2 cells are estimates",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("tomcat").unwrap()
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
        // kernel-heavy request serving.
        assert_eq!(p.kernel_pct, 19.0);
        // PET (published in Table 2).
        assert_eq!(p.exec_time_s, 4.0);
        // GMU (published in Table 2).
        assert_eq!(p.min_heap_uncompressed_mb, 24.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "tomcat");
    }
}
