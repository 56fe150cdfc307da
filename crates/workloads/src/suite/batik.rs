//! The `batik` workload.
//!
//! Renders a number of SVG files with the Apache Batik scalable vector graphics toolkit.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `batik`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "batik",
    description: "Renders a number of SVG files with the Apache Batik scalable vector graphics toolkit",
    new_in_chopin: false,
    threads: 4,
    survival_fraction: 0.35,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "renders SVG files with a ~400 KLOC Apache toolkit",
        "the lowest memory turnover in the suite (GTO 3) and the most frequency-scaling-sensitive workload (PFS 20%)",
        "among the most back-end-bound workloads yet with one of the highest IPCs",
        "its large configuration needs a 1.7 GB minimum heap",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("batik").unwrap()
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
        // the lowest memory turnover (GTO).
        assert_eq!(p.turnover, 3.0);
        // the most frequency-sensitive workload.
        assert_eq!(p.freq_sensitivity_pct, 20.0);
        // a 1.7 GB large configuration.
        assert_eq!(p.min_heap_large_mb, Some(1759.0));
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "batik");
    }
}
