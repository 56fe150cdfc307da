//! The `sunflow` workload.
//!
//! Renders photorealistic images with the Sunflow ray tracer; nearly ideal parallel scalability and a very high allocation rate.
//! This profile is refreshed from the previous DaCapo release.
//!
//! The appendix table for this benchmark is truncated mid-way in our
//! source text; values not present in it are estimated (see DESIGN.md,
//! D4).

use super::Workload;

/// What the paper does not publish about `sunflow`, and its appendix prose.
pub(super) const WORKLOAD: Workload = Workload {
    name: "sunflow",
    description: "Renders photorealistic images with the Sunflow ray tracer; nearly ideal parallel scalability and a very high allocation rate",
    new_in_chopin: false,
    threads: 32,
    survival_fraction: 0.0421,
    live_floor_fraction: 0.55,
    build_fraction: 0.08,
    requests: None,
    highlights: &[
        "photorealistic ray tracing across 32 threads",
        "nearly ideal parallel scalability (the highest PPE in the suite) with a very high allocation rate",
        "the least LLC-size-sensitive workload (PLS -2%) and the noisiest between invocations (PSD 13%)",
        "the highest aaload and getfield rates in the suite (BAL, BGF)",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        super::super::by_name("sunflow").unwrap()
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
        // the best parallel scaling in the suite (PPE).
        assert_eq!(p.parallel_efficiency_pct, 87.0);
        // the noisiest benchmark between invocations (PSD).
        assert_eq!(p.invocation_noise_pct, 13.0);
        // the only negative LLC sensitivity.
        assert_eq!(p.llc_sensitivity_pct, -2.0);
    }

    #[test]
    fn name_matches_module() {
        assert_eq!(WORKLOAD.name, "sunflow");
    }
}
