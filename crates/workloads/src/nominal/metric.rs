//! The nominal-statistic metric definitions (Table 1).
//!
//! "We characterize each benchmark in the DaCapo Chopin suite across at
//! least 35 dimensions" (§5.1), using metrics grouped by the first letter
//! of their three-letter acronym: Allocation, Bytecode, Garbage collection,
//! Performance, and U(µ)-architecture. Table 1 lists the full set (its
//! caption counts 47; the table body enumerates the 48 codes reproduced
//! here — GMV exists only for h2, which likely accounts for the
//! difference).

use std::fmt;

/// The five metric groups of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricGroup {
    /// A — allocation behaviour, from bytecode-instrumented runs.
    Allocation,
    /// B — bytecode execution profile.
    Bytecode,
    /// G — garbage collection and heap behaviour.
    GarbageCollection,
    /// P — end-to-end performance under varied configurations.
    Performance,
    /// U — microarchitectural behaviour from hardware counters.
    Microarchitecture,
}

impl fmt::Display for MetricGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MetricGroup::Allocation => "allocation",
            MetricGroup::Bytecode => "bytecode",
            MetricGroup::GarbageCollection => "garbage collection",
            MetricGroup::Performance => "performance",
            MetricGroup::Microarchitecture => "microarchitecture",
        };
        f.write_str(s)
    }
}

/// One nominal-statistic definition: code, group and Table 1 description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Three-letter acronym (e.g. "ARA").
    pub code: &'static str,
    /// The metric's group, per its first letter.
    pub group: MetricGroup,
    /// The description from Table 1.
    pub description: &'static str,
}

/// Every nominal statistic of Table 1, in table order.
pub const METRICS: [MetricDef; 48] = [
    MetricDef {
        code: "AOA",
        group: MetricGroup::Allocation,
        description: "nominal average object size (bytes)",
    },
    MetricDef {
        code: "AOL",
        group: MetricGroup::Allocation,
        description: "nominal 90-percentile object size (bytes)",
    },
    MetricDef {
        code: "AOM",
        group: MetricGroup::Allocation,
        description: "nominal median object size (bytes)",
    },
    MetricDef {
        code: "AOS",
        group: MetricGroup::Allocation,
        description: "nominal 10-percentile object size (bytes)",
    },
    MetricDef {
        code: "ARA",
        group: MetricGroup::Allocation,
        description: "nominal allocation rate (bytes / usec)",
    },
    MetricDef {
        code: "BAL",
        group: MetricGroup::Bytecode,
        description: "nominal aaload per usec",
    },
    MetricDef {
        code: "BAS",
        group: MetricGroup::Bytecode,
        description: "nominal aastore per usec",
    },
    MetricDef {
        code: "BEF",
        group: MetricGroup::Bytecode,
        description: "nominal execution focus / dominance of hot code",
    },
    MetricDef {
        code: "BGF",
        group: MetricGroup::Bytecode,
        description: "nominal getfield per usec",
    },
    MetricDef {
        code: "BPF",
        group: MetricGroup::Bytecode,
        description: "nominal putfield per usec",
    },
    MetricDef {
        code: "BUB",
        group: MetricGroup::Bytecode,
        description: "nominal thousands of unique bytecodes executed",
    },
    MetricDef {
        code: "BUF",
        group: MetricGroup::Bytecode,
        description: "nominal thousands of unique function calls executed",
    },
    MetricDef {
        code: "GCA",
        group: MetricGroup::GarbageCollection,
        description: "nominal average post-GC heap size as percent of min heap, when run at 2X min heap with G1",
    },
    MetricDef {
        code: "GCC",
        group: MetricGroup::GarbageCollection,
        description: "nominal GC count at 2X minimum heap size (G1)",
    },
    MetricDef {
        code: "GCM",
        group: MetricGroup::GarbageCollection,
        description: "nominal median post-GC heap size as percent of min heap, when run at 2X min heap with G1",
    },
    MetricDef {
        code: "GCP",
        group: MetricGroup::GarbageCollection,
        description: "nominal percentage of time spent in GC pauses at 2X minimum heap size (G1)",
    },
    MetricDef {
        code: "GLK",
        group: MetricGroup::GarbageCollection,
        description: "nominal percent 10th iteration memory leakage (10 iterations / 1 iterations)",
    },
    MetricDef {
        code: "GMD",
        group: MetricGroup::GarbageCollection,
        description: "nominal minimum heap size (MB) for default size configuration (with compressed pointers)",
    },
    MetricDef {
        code: "GML",
        group: MetricGroup::GarbageCollection,
        description: "nominal minimum heap size (MB) for large size configuration (with compressed pointers)",
    },
    MetricDef {
        code: "GMS",
        group: MetricGroup::GarbageCollection,
        description: "nominal minimum heap size (MB) for small size configuration (with compressed pointers)",
    },
    MetricDef {
        code: "GMU",
        group: MetricGroup::GarbageCollection,
        description: "nominal minimum heap size (MB) for default size without compressed pointers",
    },
    MetricDef {
        code: "GMV",
        group: MetricGroup::GarbageCollection,
        description: "nominal minimum heap size (MB) for vlarge size configuration (with compressed pointers)",
    },
    MetricDef {
        code: "GSS",
        group: MetricGroup::GarbageCollection,
        description: "nominal heap size sensitivity (slowdown with tight heap, as a percentage)",
    },
    MetricDef {
        code: "GTO",
        group: MetricGroup::GarbageCollection,
        description: "nominal memory turnover (total alloc bytes / min heap bytes)",
    },
    MetricDef {
        code: "PCC",
        group: MetricGroup::Performance,
        description: "nominal percentage slowdown due to forced c2 compilation compared to tiered baseline (compiler cost)",
    },
    MetricDef {
        code: "PCS",
        group: MetricGroup::Performance,
        description: "nominal percentage slowdown due to worst compiler configuration compared to best (sensitivity to compiler)",
    },
    MetricDef {
        code: "PET",
        group: MetricGroup::Performance,
        description: "nominal execution time (sec)",
    },
    MetricDef {
        code: "PFS",
        group: MetricGroup::Performance,
        description: "nominal percentage speedup due to enabling frequency scaling (CPU frequency sensitivity)",
    },
    MetricDef {
        code: "PIN",
        group: MetricGroup::Performance,
        description: "nominal percentage slowdown due to using the interpreter (sensitivity to interpreter)",
    },
    MetricDef {
        code: "PKP",
        group: MetricGroup::Performance,
        description: "nominal percentage of time spent in kernel mode (as percentage of user plus kernel time)",
    },
    MetricDef {
        code: "PLS",
        group: MetricGroup::Performance,
        description: "nominal percentage slowdown due to 1/16 reduction of LLC capacity (LLC sensitivity)",
    },
    MetricDef {
        code: "PMS",
        group: MetricGroup::Performance,
        description: "nominal percentage slowdown due to slower DRAM (memory speed sensitivity)",
    },
    MetricDef {
        code: "PPE",
        group: MetricGroup::Performance,
        description: "nominal parallel efficiency (speedup as percentage of ideal speedup for 32 threads)",
    },
    MetricDef {
        code: "PSD",
        group: MetricGroup::Performance,
        description: "nominal standard deviation among invocations at peak performance (as percentage of performance)",
    },
    MetricDef {
        code: "PWU",
        group: MetricGroup::Performance,
        description: "nominal iterations to warm up to within 1.5 % of best",
    },
    MetricDef {
        code: "UAA",
        group: MetricGroup::Microarchitecture,
        description: "nominal percentage change (slowdown) when running on ARM Neoverse N1 v AMD Zen 4 on a single core",
    },
    MetricDef {
        code: "UAI",
        group: MetricGroup::Microarchitecture,
        description: "nominal percentage change (slowdown) when running on Intel Golden Cove v AMD Zen 4 on a single core",
    },
    MetricDef {
        code: "UBM",
        group: MetricGroup::Microarchitecture,
        description: "nominal backend bound (memory)",
    },
    MetricDef {
        code: "UBP",
        group: MetricGroup::Microarchitecture,
        description: "nominal 1000 x bad speculation: mispredicts",
    },
    MetricDef {
        code: "UBR",
        group: MetricGroup::Microarchitecture,
        description: "nominal 1000000 x bad speculation: pipeline restarts",
    },
    MetricDef {
        code: "UBS",
        group: MetricGroup::Microarchitecture,
        description: "nominal 1000 x bad speculation",
    },
    MetricDef {
        code: "UDC",
        group: MetricGroup::Microarchitecture,
        description: "nominal data cache misses per K instructions",
    },
    MetricDef {
        code: "UDT",
        group: MetricGroup::Microarchitecture,
        description: "nominal DTLB misses per M instructions",
    },
    MetricDef {
        code: "UIP",
        group: MetricGroup::Microarchitecture,
        description: "nominal 100 x instructions per cycle (IPC)",
    },
    MetricDef {
        code: "ULL",
        group: MetricGroup::Microarchitecture,
        description: "nominal LLC misses per M instructions",
    },
    MetricDef {
        code: "USB",
        group: MetricGroup::Microarchitecture,
        description: "nominal 100 x back end bound",
    },
    MetricDef {
        code: "USC",
        group: MetricGroup::Microarchitecture,
        description: "nominal 1000 x SMT contention",
    },
    MetricDef {
        code: "USF",
        group: MetricGroup::Microarchitecture,
        description: "nominal 100 x front end bound",
    },
];

/// Index of a metric code within [`METRICS`], if it exists. It is a
/// `const fn` so that a code known at compile time costs no search.
pub const fn metric_index(code: &str) -> Option<usize> {
    let code = code.as_bytes();
    let mut i = 0;
    while i < METRICS.len() {
        let m = METRICS[i].code.as_bytes();
        let mut j = 0;
        while j < m.len() && j < code.len() && m[j] == code[j] {
            j += 1;
        }
        if j == m.len() && j == code.len() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The twelve most-determinant nominal statistics named by Table 2.
pub const TABLE2_METRICS: [&str; 12] = [
    "GLK", "GMU", "PET", "PFS", "PKP", "PWU", "UAA", "UAI", "UBP", "UBR", "UBS", "USF",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_match_first_letter() {
        for m in METRICS {
            let expect = match m.code.as_bytes()[0] {
                b'A' => MetricGroup::Allocation,
                b'B' => MetricGroup::Bytecode,
                b'G' => MetricGroup::GarbageCollection,
                b'P' => MetricGroup::Performance,
                b'U' => MetricGroup::Microarchitecture,
                _ => panic!("unexpected code {}", m.code),
            };
            assert_eq!(m.group, expect, "{}", m.code);
        }
    }

    #[test]
    fn codes_are_unique_three_letter_and_sorted() {
        let codes: Vec<&str> = METRICS.iter().map(|m| m.code).collect();
        assert!(codes.iter().all(|c| c.len() == 3));
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes.len(), sorted.len(), "codes are unique");
        assert_eq!(codes, sorted, "Table 1 lists codes alphabetically");
    }

    #[test]
    fn metric_index_matches_whole_codes_only() {
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(metric_index(m.code), Some(i), "{}", m.code);
        }
        for near in ["", "GM", "GMDX", "gmd", "ZZZ"] {
            assert_eq!(metric_index(near), None, "{near:?}");
        }
    }

    #[test]
    fn table2_metrics_exist() {
        for c in TABLE2_METRICS {
            assert!(metric_index(c).is_some(), "{c}");
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        assert!(METRICS.iter().all(|m| !m.description.is_empty()));
    }
}
