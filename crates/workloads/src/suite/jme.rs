//! The `jme` workload.
//!
//! Renders a series of video frames with jMonkeyEngine, a 3-D game engine; the least GC-intensive workload, reporting per-frame latency.
//! This profile is one of the eight workloads new in Chopin.

use super::Workload;
use crate::profile::RequestSpec;

/// What the paper does not publish about `jme`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "jme",
    description: "Renders a series of video frames with jMonkeyEngine, a 3-D game engine; the least GC-intensive workload, reporting per-frame latency",
    new_in_chopin: true,
    threads: 4,
    survival_fraction: 0.04,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: Some(RequestSpec {
        count: 420,
        workers: 1,
        dispersion: 0.2,
    }),
    highlights: &[
        "renders video frames with the jMonkeyEngine 3-D game engine, reporting per-frame latency",
        "the least GC-intensive workload in the suite (31 collections at 2x heap)",
        "insensitive to frequency scaling, compiler choice and heap size, consistent with GPU use",
        "the lowest SMT contention in the suite (USC)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("jme").unwrap()
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
        // completely frequency-insensitive.
        assert_eq!(p.freq_sensitivity_pct, 0.0);
        // the second-lowest turnover.
        assert_eq!(p.turnover, 12.0);
        // PET.
        assert_eq!(p.exec_time_s, 7.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "jme");
    }
}
