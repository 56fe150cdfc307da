//! The `xalan` workload.
//!
//! Transforms XML documents into HTML with the Apache Xalan XSLT processor; poor locality with very high data-cache, LLC and DTLB miss rates.
//! This profile is refreshed from the previous DaCapo release.
//!
//! The appendix table for this benchmark is truncated in our source text;
//! values not present in Table 2 are estimated (see DESIGN.md, D4).

use super::Workload;

/// What the paper does not publish about `xalan`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "xalan",
    description: "Transforms XML documents into HTML with the Apache Xalan XSLT processor; poor locality with very high data-cache, LLC and DTLB miss rates",
    new_in_chopin: false,
    threads: 32,
    survival_fraction: 0.045,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "XSLT transformation of XML documents to HTML across 32 threads",
        "poor locality is key to its low IPC (~0.94): very high data-cache, LLC and DTLB miss rates",
        "sensitive to LLC size (PLS) and fast to warm up (PWU 1)",
        "appendix table truncated in our source: non-Table-2 cells are estimates",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("xalan").unwrap()
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
        // PKP (published in Table 2).
        assert_eq!(p.kernel_pct, 14.0);
        // the fastest warmup (PWU).
        assert_eq!(p.warmup_iterations, 1);
        // 32 transformation threads.
        assert_eq!(p.threads, 32);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "xalan");
    }
}
