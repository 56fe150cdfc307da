//! The versioned bench-report schema: the machine-readable trajectory
//! point one PR's perf run leaves behind (`BENCH_<PR>.json`).
//!
//! Schema v1 records, per hot-path bench, the *raw per-sample array* —
//! not just a mean — because the EMSE steady-state work (PAPERS.md)
//! shows single summary numbers routinely misrepresent runs whose
//! samples never settled. Derived statistics (min/mean/p50/p99) are
//! stored alongside the samples so downstream consumers (the gate, the
//! HTML report) never re-derive them differently.
//!
//! The first trajectory point, `BENCH_6.json`, predates this schema; its
//! v0 shape (one benchmark, per-observer min/mean only) is still parsed
//! by [`BenchReport::parse`] as a fallback so the ledger's history is
//! never stranded. Serialisation is hand-rolled, parsing goes through
//! [`chopin_obs::json`]'s typed field readers, and floats marshal via
//! `{:?}` per the workspace float-marshalling contract (srclint R1004 —
//! this file is in the checked writer set).

use chopin_obs::json::{self, json_string, JsonValue};

/// The current bench-report schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Minimum samples a bench must record for its statistics to mean
/// anything (lint rule R1102).
pub const MIN_SAMPLES: u64 = 5;

/// One bench's measurements within a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Stable bench identifier, e.g. `hotloop.noop`.
    pub id: String,
    /// Bench configuration as sorted key/value pairs (benchmark,
    /// collector, heap factor, iteration counts, ...).
    pub config: Vec<(String, String)>,
    /// Declared number of timed samples.
    pub sample_count: u64,
    /// The raw per-sample wall times, nanoseconds, in measurement order.
    /// Empty only for points migrated from v0, where the array was never
    /// recorded.
    pub samples_ns: Vec<u64>,
    /// Fastest sample (the gate's comparison statistic).
    pub min_ns: u64,
    /// Mean over the samples.
    pub mean_ns: u64,
    /// Median, when per-sample data was available.
    pub p50_ns: Option<u64>,
    /// 99th percentile, when per-sample data was available.
    pub p99_ns: Option<u64>,
    /// Work units the bench processed per sample (events dispatched,
    /// cycles planned, journal entries replayed; 0 when not meaningful).
    pub work: u64,
}

impl BenchRecord {
    /// Build a record from raw samples, deriving every statistic from
    /// the sorted array.
    pub fn from_samples(
        id: impl Into<String>,
        config: Vec<(String, String)>,
        samples_ns: Vec<u64>,
        work: u64,
    ) -> BenchRecord {
        let mut sorted = samples_ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let min_ns = sorted.first().copied().unwrap_or(0);
        let sum: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        let mean_ns = if n == 0 { 0 } else { (sum / n as u128) as u64 };
        let rank = |q: f64| -> Option<u64> {
            if n == 0 {
                return None;
            }
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            Some(sorted[idx])
        };
        let mut config = config;
        config.sort();
        BenchRecord {
            id: id.into(),
            config,
            sample_count: n as u64,
            samples_ns,
            min_ns,
            mean_ns,
            p50_ns: rank(0.50),
            p99_ns: rank(0.99),
            work,
        }
    }
}

/// One PR's complete perf-trajectory point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Schema version of the parsed document (0 for legacy v0 points).
    pub schema_version: u64,
    /// The PR that produced this point.
    pub pr: u64,
    /// Git revision the suite ran at (short hash; `unknown` when the
    /// repository was unavailable).
    pub git_rev: String,
    /// Every bench measured, in suite order.
    pub benches: Vec<BenchRecord>,
}

impl BenchReport {
    /// Look up a bench by id.
    pub fn bench(&self, id: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.id == id)
    }

    /// Serialize to the canonical v1 JSON document (one trailing
    /// newline, keys in fixed order, floats never written — every field
    /// is integral or a string).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema_version\": {},\n  \"pr\": {},\n  \"git_rev\": {},\n  \"benches\": [",
            self.schema_version,
            self.pr,
            json_string(&self.git_rev)
        ));
        for (i, b) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"id\": {}, ", json_string(&b.id)));
            let config: Vec<String> = b
                .config
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
                .collect();
            out.push_str(&format!("\"config\": {{{}}}, ", config.join(", ")));
            out.push_str(&format!("\"sample_count\": {}, ", b.sample_count));
            let samples: Vec<String> = b.samples_ns.iter().map(u64::to_string).collect();
            out.push_str(&format!("\"samples_ns\": [{}], ", samples.join(", ")));
            out.push_str(&format!("\"min_ns\": {}, ", b.min_ns));
            out.push_str(&format!("\"mean_ns\": {}", b.mean_ns));
            if let Some(p50) = b.p50_ns {
                out.push_str(&format!(", \"p50_ns\": {p50}"));
            }
            if let Some(p99) = b.p99_ns {
                out.push_str(&format!(", \"p99_ns\": {p99}"));
            }
            out.push_str(&format!(", \"work\": {}}}", b.work));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a bench-report document: the v1 schema when
    /// `schema_version` is present, otherwise the legacy v0 fallback
    /// (the original `BENCH_6.json` shape — per-observer min/mean with
    /// no sample arrays). v0 documents parse with `schema_version: 0`
    /// and `pr: 0`; the trajectory loader stamps the PR from the file
    /// name.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema_version") {
            Some(v) => parse_v1(&doc, v),
            None => parse_v0(&doc),
        }
    }
}

fn parse_v1(doc: &JsonValue, version: &JsonValue) -> Result<BenchReport, String> {
    let schema_version = version
        .as_num()
        .filter(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0)
        .ok_or("schema_version must be a non-negative integer")? as u64;
    let pr = doc.int_field("pr")?;
    let git_rev = doc.str_field("git_rev")?.to_string();
    let benches = doc.arr_field("benches")?;
    let mut parsed = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        parsed.push(parse_v1_bench(b).map_err(|e| format!("bench {i}: {e}"))?);
    }
    Ok(BenchReport {
        schema_version,
        pr,
        git_rev,
        benches: parsed,
    })
}

fn parse_v1_bench(b: &JsonValue) -> Result<BenchRecord, String> {
    let id = b.str_field("id")?.to_string();
    let mut config = Vec::new();
    if let Some(JsonValue::Obj(members)) = b.get("config") {
        for (k, v) in members {
            let v = v
                .as_str()
                .ok_or_else(|| format!("config `{k}` must be a string"))?;
            config.push((k.clone(), v.to_string()));
        }
    }
    config.sort();
    let samples = b.arr_field("samples_ns")?;
    let mut samples_ns = Vec::with_capacity(samples.len());
    for s in samples {
        let n = s
            .as_num()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or("samples_ns entries must be non-negative numbers")?;
        samples_ns.push(n as u64);
    }
    Ok(BenchRecord {
        id,
        config,
        sample_count: b.int_field("sample_count")?,
        samples_ns,
        min_ns: b.int_field("min_ns")?,
        mean_ns: b.int_field("mean_ns")?,
        p50_ns: b.opt_int_field("p50_ns")?,
        p99_ns: b.opt_int_field("p99_ns")?,
        work: b.opt_int_field("work")?.unwrap_or(0),
    })
}

/// The legacy v0 shape written by the original `engine_hotloop_smoke`
/// bench: one benchmark/collector/heap-factor triple and an array of
/// per-observer results. Observers map onto `hotloop.<observer>` bench
/// ids so the v0 point lines up with the modern suite's series.
fn parse_v0(doc: &JsonValue) -> Result<BenchReport, String> {
    let bench = doc.str_field("bench")?;
    if bench != "engine_hotloop_smoke" {
        return Err(format!("unknown v0 bench `{bench}`"));
    }
    let benchmark = doc.str_field("benchmark")?;
    let collector = doc.str_field("collector")?;
    let heap_factor = doc.f64_field("heap_factor")?;
    if heap_factor <= 0.0 {
        return Err("`heap_factor` must be positive".to_string());
    }
    let sample_count = doc.int_field("samples")?;
    let results = doc.arr_field("results")?;
    let mut benches = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let err = |e: String| format!("result {i}: {e}");
        let observer = r.str_field("observer").map_err(err)?;
        let config = vec![
            ("benchmark".to_string(), benchmark.to_string()),
            ("collector".to_string(), collector.to_string()),
            ("heap_factor".to_string(), format!("{heap_factor:?}")),
        ];
        benches.push(BenchRecord {
            id: format!("hotloop.{observer}"),
            config,
            sample_count,
            samples_ns: Vec::new(),
            min_ns: r.int_field("min_ns").map_err(err)?,
            mean_ns: r.int_field("mean_ns").map_err(err)?,
            p50_ns: None,
            p99_ns: None,
            work: r.int_field("events").unwrap_or(0),
        });
    }
    Ok(BenchReport {
        schema_version: 0,
        pr: 0,
        git_rev: String::new(),
        benches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `BENCH_6.json` bytes as PR 6 committed them — the v0
    /// fallback contract is pinned against this exact document.
    const BENCH_6_V0: &str = include_str!("../tests/fixtures/bench_6_v0.json");

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            pr: 7,
            git_rev: "abc1234".to_string(),
            benches: vec![BenchRecord::from_samples(
                "alloc.accounting",
                vec![("allocations".to_string(), "50000".to_string())],
                vec![900, 1_000, 1_100, 1_050, 950],
                50_000,
            )],
        }
    }

    #[test]
    fn v1_round_trips_through_parse() {
        let report = sample_report();
        let parsed = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_samples_derives_order_statistics() {
        let b = BenchRecord::from_samples("x", Vec::new(), vec![5, 1, 3, 2, 4], 0);
        assert_eq!(b.min_ns, 1);
        assert_eq!(b.mean_ns, 3);
        assert_eq!(b.p50_ns, Some(3));
        assert_eq!(b.p99_ns, Some(5));
        assert_eq!(b.sample_count, 5);
        assert_eq!(b.samples_ns, vec![5, 1, 3, 2, 4], "raw order preserved");
    }

    #[test]
    fn v0_fallback_parses_the_original_bench_6_bytes() {
        let report = BenchReport::parse(BENCH_6_V0).unwrap();
        assert_eq!(report.schema_version, 0);
        assert_eq!(report.pr, 0, "v0 has no pr; the loader stamps it");
        assert_eq!(report.benches.len(), 3);
        let ids: Vec<&str> = report.benches.iter().map(|b| b.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "hotloop.noop",
                "hotloop.recorder",
                "hotloop.tee_recorder_metrics"
            ]
        );
        let noop = report.bench("hotloop.noop").unwrap();
        assert_eq!(noop.min_ns, 9033);
        assert_eq!(noop.mean_ns, 10448);
        assert_eq!(noop.sample_count, 5);
        assert!(noop.samples_ns.is_empty(), "v0 never recorded samples");
        assert_eq!(noop.p50_ns, None);
        let tee = report.bench("hotloop.tee_recorder_metrics").unwrap();
        assert_eq!(tee.work, 583);
        assert_eq!(
            noop.config,
            vec![
                ("benchmark".to_string(), "fop".to_string()),
                ("collector".to_string(), "G1".to_string()),
                ("heap_factor".to_string(), "2.0".to_string()),
            ]
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "{",
            "{}",
            "{\"schema_version\": 1}",
            "{\"schema_version\": 1, \"pr\": -1, \"git_rev\": \"x\", \"benches\": []}",
            "{\"schema_version\": 1, \"pr\": 7, \"git_rev\": \"x\", \"benches\": [{}]}",
            "{\"bench\": \"something_else\"}",
        ] {
            assert!(BenchReport::parse(bad).is_err(), "should reject {bad}");
        }
    }
}
