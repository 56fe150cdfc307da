//! The paper's methodological recommendations (§4), as first-class data.
//!
//! The recommendations are the paper's response to the four failures its
//! motivation identifies: i) failure to expose garbage collection's
//! time–space tradeoff, ii) failure to appropriately evaluate latency,
//! iii) failure to expose total computational overheads, and iv) failure
//! to evaluate using diverse, appropriate workloads. The harness prints
//! them (`nominal --describe` and friends) so that the tooling carries its
//! own methodology, exactly as the suite does.

use std::fmt;

/// One methodological recommendation from §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recommendation {
    /// The paper's identifier (H1, H2, P1, L1, L2, O1, O2).
    pub id: &'static str,
    /// The area the recommendation belongs to.
    pub area: Area,
    /// The recommendation text.
    pub text: &'static str,
}

/// The methodology area a recommendation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Area {
    /// The time–space tradeoff (§4.2).
    HeapSizing,
    /// Compilers, warmup and experimental design (§4.3).
    Warmup,
    /// User-experienced latency (§4.4).
    Latency,
    /// Lower-bound garbage collection overheads (§4.5).
    Overheads,
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Area::HeapSizing => "time-space tradeoff",
            Area::Warmup => "compilers and warmup",
            Area::Latency => "user-experienced latency",
            Area::Overheads => "GC overheads",
        };
        f.write_str(s)
    }
}

/// All seven recommendations, in the order the paper presents them.
pub const RECOMMENDATIONS: [Recommendation; 7] = [
    Recommendation {
        id: "H1",
        area: Area::HeapSizing,
        text: "Garbage collectors should be evaluated across a range of heap sizes to \
               demonstrate the sensitivity of the collector to the time-space tradeoff.",
    },
    Recommendation {
        id: "H2",
        area: Area::HeapSizing,
        text: "Heap sizes should be expressed in terms of multiples of the minimum heap \
               size in which a baseline collector can run that workload.",
    },
    Recommendation {
        id: "P1",
        area: Area::Warmup,
        text: "Researchers should be cautious of naively following methodological \
               prescriptions. Instead they should be guided by: i) the coherence of their \
               experimental design with respect to the claims they plan to make, and \
               ii) the statistical significance of their findings.",
    },
    Recommendation {
        id: "L1",
        area: Area::Latency,
        text: "Researchers should report user-experienced latency, not weak proxies such \
               as GC pauses.",
    },
    Recommendation {
        id: "L2",
        area: Area::Latency,
        text: "Researchers should report distribution statistics and/or plot CDFs, rather \
               than reporting singular latency metrics.",
    },
    Recommendation {
        id: "O1",
        area: Area::Overheads,
        text: "Researchers should report GC overheads when evaluating garbage collectors, \
               using a methodology such as LBO.",
    },
    Recommendation {
        id: "O2",
        area: Area::Overheads,
        text: "Researchers should report both wall clock and total CPU overheads.",
    },
];

/// Look up a recommendation by its identifier (case-insensitive).
///
/// # Examples
///
/// ```
/// use chopin_core::methodology::{recommendation, Area};
///
/// let h2 = recommendation("h2").expect("H2 exists");
/// assert_eq!(h2.area, Area::HeapSizing);
/// assert!(h2.text.contains("multiples of the minimum heap"));
/// ```
pub fn recommendation(id: &str) -> Option<&'static Recommendation> {
    RECOMMENDATIONS
        .iter()
        .find(|r| r.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_recommendations_with_unique_ids() {
        let ids: Vec<&str> = RECOMMENDATIONS.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec!["H1", "H2", "P1", "L1", "L2", "O1", "O2"]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(recommendation("o1").is_some());
        assert!(recommendation("O1").is_some());
        assert!(recommendation("Z9").is_none());
    }

    #[test]
    fn areas_display() {
        assert_eq!(Area::HeapSizing.to_string(), "time-space tradeoff");
        assert_eq!(Area::Overheads.to_string(), "GC overheads");
    }
}
