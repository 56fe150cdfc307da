//! The `fop` workload.
//!
//! Renders XSL-FO files into PDF with the Apache FOP print formatter; executes the most unique bytecodes of any workload.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `fop`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "fop",
    description: "Renders XSL-FO files into PDF with the Apache FOP print formatter; executes the most unique bytecodes of any workload",
    new_in_chopin: false,
    threads: 2,
    survival_fraction: 0.06,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "renders XSL-FO documents to PDF (>400 KLOC framework)",
        "executes the most unique bytecodes in the suite (BUB rank 1)",
        "one of the slowest benchmarks to warm up (PWU 8) and among the most heap-size sensitive (GSS)",
        "one of the highest shares of time in GC pauses at 2x heap (GCP 23%)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("fop").unwrap()
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
        // the highest forced-C2 cost (PCC).
        assert_eq!(p.forced_c2_pct, 1083.0);
        // slow to warm up.
        assert_eq!(p.warmup_iterations, 8);
        // GMD.
        assert_eq!(p.min_heap_default_mb, 13.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "fop");
    }
}
