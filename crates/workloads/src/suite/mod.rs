//! The 22 DaCapo Chopin workloads, one module per benchmark.
//!
//! "The DaCapo Chopin suite replaces DaCapo Bach, adding eight new
//! benchmarks and removing one." (§5) Each module carries what the paper
//! does not publish about its workload: the description from the paper's
//! appendix, the calibrated fields and the appendix highlights. A profile's
//! published fields come from its benchmark's row of the nominal dataset
//! (see [`crate::profile`]). Nine of the workloads are latency-sensitive
//! and report per-event latency.

mod avrora;
mod batik;
mod biojava;
mod cassandra;
mod eclipse;
mod fop;
mod graphchi;
mod h2;
mod h2o;
mod jme;
mod jython;
mod kafka;
mod luindex;
mod lusearch;
mod pmd;
mod spring;
mod sunflow;
mod tomcat;
mod tradebeans;
mod tradesoap;
mod xalan;
mod zxing;

use crate::nominal::dataset::DATASET;
use crate::profile::{RequestSpec, WorkloadProfile};

/// What a suite module knows about its workload beyond the benchmark's
/// row of the nominal dataset. The fields mirror the [`WorkloadProfile`]
/// fields of the same name.
pub(crate) struct Workload {
    pub name: &'static str,
    pub description: &'static str,
    pub new_in_chopin: bool,
    pub threads: u32,
    pub survival_fraction: f64,
    pub live_floor_fraction: f64,
    pub build_fraction: f64,
    pub requests: Option<RequestSpec>,
    /// Notable characteristics from the paper's appendix prose.
    pub highlights: &'static [&'static str],
}

/// The suite registry, in the dataset's (alphabetical) row order: entry
/// `i` pairs with row `i`.
static SUITE: [Workload; 22] = [
    avrora::WORKLOAD,
    batik::WORKLOAD,
    biojava::WORKLOAD,
    cassandra::WORKLOAD,
    eclipse::WORKLOAD,
    fop::WORKLOAD,
    graphchi::WORKLOAD,
    h2::WORKLOAD,
    h2o::WORKLOAD,
    jme::WORKLOAD,
    jython::WORKLOAD,
    kafka::WORKLOAD,
    luindex::WORKLOAD,
    lusearch::WORKLOAD,
    pmd::WORKLOAD,
    spring::WORKLOAD,
    sunflow::WORKLOAD,
    tomcat::WORKLOAD,
    tradebeans::WORKLOAD,
    tradesoap::WORKLOAD,
    xalan::WORKLOAD,
    zxing::WORKLOAD,
];

/// The full suite, in alphabetical order (the order the paper's tables
/// use).
pub fn all() -> Vec<WorkloadProfile> {
    DATASET
        .iter()
        .zip(&SUITE)
        .map(|(row, workload)| WorkloadProfile::new(row, workload))
        .collect()
}

/// Look up one workload by name.
pub fn by_name(name: &str) -> Option<WorkloadProfile> {
    let i = SUITE.iter().position(|w| w.name == name)?;
    Some(WorkloadProfile::new(&DATASET[i], &SUITE[i]))
}

/// Notable characteristics of a workload from the paper's appendix prose.
pub fn highlights(name: &str) -> Option<&'static [&'static str]> {
    SUITE.iter().find(|w| w.name == name).map(|w| w.highlights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Provenance;

    #[test]
    fn suite_has_twenty_two_workloads() {
        assert_eq!(all().len(), 22);
    }

    #[test]
    fn eight_workloads_are_new_in_chopin() {
        assert_eq!(all().iter().filter(|p| p.new_in_chopin).count(), 8);
    }

    #[test]
    fn nine_workloads_are_latency_sensitive() {
        // §3.2: "it introduces a novel integrated latency measure and nine
        // latency-sensitive workloads".
        assert_eq!(all().iter().filter(|p| p.is_latency_sensitive()).count(), 9);
    }

    #[test]
    fn names_are_unique_and_sorted() {
        let names: Vec<&str> = all().iter().map(|p| p.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }

    #[test]
    fn min_heaps_span_5mb_to_20gb() {
        // §1: "with minimum heap sizes from 5 MB to 20 GB".
        let min = all()
            .iter()
            .map(|p| p.min_heap_default_mb)
            .fold(f64::INFINITY, f64::min);
        let max = all()
            .iter()
            .filter_map(|p| p.min_heap_vlarge_mb)
            .fold(0.0f64, f64::max);
        assert_eq!(min, 5.0, "avrora's 5 MB minimum");
        assert!(max > 20_000.0, "h2 vlarge exceeds 20 GB: {max}");
    }

    #[test]
    fn by_name_finds_all_and_rejects_unknown() {
        for p in all() {
            assert_eq!(by_name(p.name).unwrap().name, p.name);
        }
        assert!(by_name("dacapo").is_none());
    }

    #[test]
    fn every_workload_has_highlights() {
        for p in all() {
            let h = highlights(p.name).unwrap_or_else(|| panic!("{}", p.name));
            assert!(h.len() >= 3, "{}", p.name);
        }
        assert!(highlights("specjbb").is_none());
    }

    #[test]
    fn every_profile_validates() {
        for p in all() {
            p.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn only_truncated_benchmarks_are_estimated() {
        let estimated: Vec<&str> = all()
            .iter()
            .filter(|p| p.provenance == Provenance::Estimated)
            .map(|p| p.name)
            .collect();
        assert_eq!(
            estimated,
            vec![
                "sunflow",
                "tomcat",
                "tradebeans",
                "tradesoap",
                "xalan",
                "zxing"
            ]
        );
    }

    #[test]
    fn registry_entries_pair_with_their_dataset_rows() {
        let entries: Vec<&str> = SUITE.iter().map(|w| w.name).collect();
        let rows: Vec<&str> = DATASET.iter().map(|r| r.benchmark).collect();
        assert_eq!(entries, rows);
    }

    #[test]
    fn h2_has_the_largest_heaps() {
        let h2 = by_name("h2").unwrap();
        for p in all() {
            assert!(p.min_heap_default_mb <= h2.min_heap_default_mb);
        }
        assert_eq!(h2.min_heap_vlarge_mb, Some(20641.0));
    }

    #[test]
    fn lusearch_has_the_highest_allocation_rate() {
        let lu = by_name("lusearch").unwrap();
        for p in all() {
            assert!(p.alloc_rate_mb_s <= lu.alloc_rate_mb_s);
        }
    }
}
