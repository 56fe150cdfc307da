//! The `jython` workload.
//!
//! Executes a standard Python performance test on Jython, a Java implementation of Python; spends its time in a small but poorly predicted interpreter loop.
//! This profile is refreshed from the previous DaCapo release.

use super::Workload;

/// What the paper does not publish about `jython`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "jython",
    description: "Executes a standard Python performance test on Jython, a Java implementation of Python; spends its time in a small but poorly predicted interpreter loop",
    new_in_chopin: false,
    threads: 2,
    survival_fraction: 0.0508,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "a standard Python performance test running on a Java implementation of Python",
        "the most unique function calls in the suite (BUF rank 1) and the slowest warmup (PWU 9)",
        "spends its time in a small but poorly predicted interpreter loop: very high mispredict stalls",
        "tied for the most frequency-scaling-sensitive workload (PFS 20%)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("jython").unwrap()
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
        // the slowest warmup in the suite (PWU).
        assert_eq!(p.warmup_iterations, 9);
        // PIN.
        assert_eq!(p.interpreter_pct, 277.0);
        // GMD.
        assert_eq!(p.min_heap_default_mb, 25.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "jython");
    }
}
