//! The `zxing` workload.
//!
//! Decodes a corpus of 1-D and 2-D barcode images with the ZXing barcode library; exhibits the largest iteration-to-iteration memory leakage in the suite.
//! This profile is one of the eight workloads new in Chopin.
//!
//! The appendix table for this benchmark is truncated in our source text;
//! values not present in Table 2 are estimated (see DESIGN.md, D4).

use super::Workload;

/// What the paper does not publish about `zxing`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "zxing",
    description: "Decodes a corpus of 1-D and 2-D barcode images with the ZXing barcode library; exhibits the largest iteration-to-iteration memory leakage in the suite",
    new_in_chopin: true,
    threads: 16,
    survival_fraction: 0.0775,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "decodes 1-D and 2-D barcode images with the ZXing library",
        "the largest iteration-to-iteration memory leakage in the suite (GLK 120%)",
        "the only workload slowed by enabling frequency boost (PFS -1%)",
        "appendix table truncated in our source: non-Table-2 cells are estimates",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("zxing").unwrap()
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
        // the largest leakage in the suite (GLK).
        assert_eq!(p.leak_pct, 120.0);
        // slowed by frequency boost (PFS).
        assert_eq!(p.freq_sensitivity_pct, -1.0);
        // PWU.
        assert_eq!(p.warmup_iterations, 7);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "zxing");
    }
}
