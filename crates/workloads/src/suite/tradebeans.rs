//! The `tradebeans` workload.
//!
//! Runs the DayTrader stock-trading benchmark via EJB beans on an in-memory h2 database under Apache Geronimo.
//! This profile is refreshed from the previous DaCapo release.
//!
//! The appendix table for this benchmark is truncated in our source text;
//! values not present in Table 2 are estimated (see DESIGN.md, D4).

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `tradebeans`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "tradebeans",
    description: "Runs the DayTrader stock-trading benchmark via EJB beans on an in-memory h2 database under Apache Geronimo",
    new_in_chopin: false,
    threads: 8,
    survival_fraction: 0.065,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 8000,
        workers: 8,
        dispersion: 0.8,
    }),
    highlights: &[
        "the DayTrader stock-trading benchmark via EJB beans over an in-memory h2 database",
        "leaks noticeably across iterations (GLK 26%)",
        "the second-largest ARM-vs-x86 slowdown in the suite (UAA 144)",
        "appendix table truncated in our source: non-Table-2 cells are estimates",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("tradebeans").unwrap()
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
        // GLK (published in Table 2).
        assert_eq!(p.leak_pct, 26.0);
        // GMU (published in Table 2).
        assert_eq!(p.min_heap_uncompressed_mb, 141.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "tradebeans");
    }
}
