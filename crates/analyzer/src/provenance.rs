//! Artifact provenance checking (rules R810–R813): is this results file
//! consistent with the plan that claims to have produced it?
//!
//! Two artifact shapes are understood — the `runbms` CSV
//! (`benchmark,collector,heap_factor,wall_s,...`) and the supervisor's
//! JSONL sweep journal (whose header carries the configuration
//! fingerprint). The checker is an independent reader built on
//! [`chopin_obs::json`] rather than the harness's own parser, so a bug in
//! the writer cannot hide itself from the verifier.
//!
//! Checks, in order of severity: the artifact parses at all (R810), it
//! belongs to the plan — fingerprint, benchmarks, collectors, heap
//! factors, per-cell sample counts (R811) — its rows satisfy measurement
//! invariants — finite positive times, distillable ≤ total, LBO curves
//! ≥ 1 (R812) — and it covers every feasible planned cell (R813, a
//! warning: an incomplete run is resumable, not publishable).

use crate::ir::PlanIR;
use chopin_core::lbo::{Clock, LboAnalysis, RunSample};
use chopin_lint::Diagnostic;
use chopin_obs::json::{self, JsonValue};
use chopin_runtime::collector::CollectorKind;

/// Which on-disk shape an artifact was recognised as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// The `runbms` CSV sample stream.
    Csv,
    /// The supervisor's fingerprinted JSONL sweep journal.
    Journal,
}

/// One measured row of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRow {
    /// Benchmark the sample belongs to.
    pub benchmark: String,
    /// The sample itself.
    pub sample: RunSample,
}

/// A parsed results artifact, ready for provenance checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The recognised shape.
    pub kind: ArtifactKind,
    /// The journal header's configuration fingerprint (journals only).
    pub fingerprint: Option<u64>,
    /// Every measured sample.
    pub rows: Vec<ArtifactRow>,
    /// Cells recorded as infeasible (journals only).
    pub infeasible: Vec<(String, CollectorKind, f64)>,
}

/// The exact header the `runbms` CSV stream starts with.
pub const CSV_HEADER: &str =
    "benchmark,collector,heap_factor,wall_s,task_s,wall_distillable_s,task_distillable_s";

fn collector_field(obj: &JsonValue, key: &str) -> Result<CollectorKind, String> {
    obj.label_field(key, |label| label.parse().ok())
}

/// Read a journal by the journal's own rules: the newline commits a
/// line, so a last line without one (an append a crash cut short) is
/// ignored, and a quarantine record is a verdict, not a measurement, so
/// its cell counts as missing data.
fn parse_journal(text: &str) -> Result<Artifact, String> {
    let committed = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
    let mut lines = committed.lines().enumerate();
    let (_, header) = lines.next().ok_or("no complete header line")?;
    let obj = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
    let tag = obj
        .str_field("journal")
        .map_err(|e| format!("line 1: {e}"))?;
    if tag != "chopin-sweep" {
        return Err(format!("line 1: not a sweep journal (tag `{tag}`)"));
    }
    let hex = obj
        .str_field("fingerprint")
        .map_err(|e| format!("line 1: {e}"))?;
    let fingerprint = u64::from_str_radix(hex, 16)
        .map_err(|e| format!("line 1: bad fingerprint `{hex}`: {e}"))?;

    let mut rows = Vec::new();
    let mut infeasible = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let entry = (|| -> Result<(), String> {
            let obj = json::parse(line).map_err(|e| e.to_string())?;
            if obj.get("quarantined").is_some() {
                return Ok(());
            }
            let benchmark = obj.str_field("benchmark")?.to_string();
            let collector = collector_field(&obj, "collector")?;
            let heap_factor = obj.f64_field("heap_factor")?;
            for s in obj.arr_field("samples")? {
                rows.push(ArtifactRow {
                    benchmark: benchmark.clone(),
                    sample: RunSample {
                        collector: collector_field(s, "collector")?,
                        heap_factor: s.f64_field("heap_factor")?,
                        wall_s: s.f64_field("wall_s")?,
                        task_s: s.f64_field("task_s")?,
                        wall_distillable_s: s.f64_field("wall_distillable_s")?,
                        task_distillable_s: s.f64_field("task_distillable_s")?,
                    },
                });
            }
            if matches!(obj.get("infeasible"), Some(JsonValue::Str(_))) {
                infeasible.push((benchmark, collector, heap_factor));
            }
            Ok(())
        })();
        entry.map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(Artifact {
        kind: ArtifactKind::Journal,
        fingerprint: Some(fingerprint),
        rows,
        infeasible,
    })
}

fn parse_csv(text: &str) -> Result<Artifact, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty file")?;
    if header.trim() != CSV_HEADER {
        return Err(format!(
            "not a runbms CSV: header is `{}`, expected `{CSV_HEADER}`",
            header.trim()
        ));
    }
    let mut rows = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(format!(
                "line {}: expected 7 fields, got {}",
                i + 1,
                fields.len()
            ));
        }
        let num = |j: usize| -> Result<f64, String> {
            fields[j]
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("line {}: field {}: {e}", i + 1, j + 1))
        };
        rows.push(ArtifactRow {
            benchmark: fields[0].trim().to_string(),
            sample: RunSample {
                collector: fields[1]
                    .trim()
                    .parse::<CollectorKind>()
                    .map_err(|e| format!("line {}: {e}", i + 1))?,
                heap_factor: num(2)?,
                wall_s: num(3)?,
                task_s: num(4)?,
                wall_distillable_s: num(5)?,
                task_distillable_s: num(6)?,
            },
        });
    }
    Ok(Artifact {
        kind: ArtifactKind::Csv,
        fingerprint: None,
        rows,
        infeasible: Vec::new(),
    })
}

/// Parse `text` as either a sweep journal (first line is a JSON header)
/// or a `runbms` CSV.
///
/// # Errors
///
/// A human-readable message naming the first offending line; rule R810
/// wraps it.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let first = text.lines().next().unwrap_or("").trim_start();
    if first.starts_with('{') {
        parse_journal(text)
    } else {
        parse_csv(text)
    }
}

fn factor_matches(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Run the provenance checks of a parsed `artifact` against `plan`
/// (rules R811–R813). R810 is the caller's concern: it fires when
/// [`parse_artifact`] fails.
pub fn check_provenance(plan: &PlanIR, artifact: &Artifact) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let location = format!("{}:artifact", plan.location());

    if let Some(found) = artifact.fingerprint {
        let expected = plan.resume_fingerprint();
        if found != expected {
            diagnostics.push(
                Diagnostic::error(
                    "R811",
                    location.clone(),
                    format!(
                        "journal fingerprint {found:016x} does not match this plan's \
                         {expected:016x}: the artifact was produced by a different \
                         configuration (benchmarks, grid, or fault plan)"
                    ),
                )
                .with_hint(
                    "point --results at the journal of this plan, or re-run the plan".to_string(),
                ),
            );
        }
    }

    // Foreign rows: benchmarks, collectors or factors the plan never ran.
    let mut foreign_benchmarks: Vec<&str> = artifact
        .rows
        .iter()
        .map(|r| r.benchmark.as_str())
        .filter(|name| !plan.benchmarks.iter().any(|b| b.name == *name))
        .collect();
    foreign_benchmarks.sort_unstable();
    foreign_benchmarks.dedup();
    if !foreign_benchmarks.is_empty() {
        diagnostics.push(Diagnostic::error(
            "R811",
            location.clone(),
            format!("the artifact contains benchmarks the plan never ran: {foreign_benchmarks:?}"),
        ));
    }
    let mut foreign_collectors: Vec<String> = artifact
        .rows
        .iter()
        .map(|r| r.sample.collector)
        .filter(|c| !plan.config.collectors.contains(c))
        .map(|c| c.to_string())
        .collect();
    foreign_collectors.sort_unstable();
    foreign_collectors.dedup();
    if !foreign_collectors.is_empty() {
        diagnostics.push(Diagnostic::error(
            "R811",
            location.clone(),
            format!("the artifact contains collectors the plan never ran: {foreign_collectors:?}"),
        ));
    }
    let mut foreign_factors: Vec<f64> = artifact
        .rows
        .iter()
        .map(|r| r.sample.heap_factor)
        .filter(|f| {
            !plan
                .config
                .heap_factors
                .iter()
                .any(|p| factor_matches(*p, *f))
        })
        .collect();
    foreign_factors.sort_by(f64::total_cmp);
    foreign_factors.dedup_by(|a, b| factor_matches(*a, *b));
    if !foreign_factors.is_empty() {
        diagnostics.push(Diagnostic::error(
            "R811",
            location.clone(),
            format!("the artifact contains heap factors the plan never ran: {foreign_factors:?}"),
        ));
    }

    // Per-cell sample counts against the planned invocations.
    let cells = plan.cells();
    let rows_in = |bench: &str, collector: CollectorKind, factor: f64| {
        artifact
            .rows
            .iter()
            .filter(|r| {
                r.benchmark == bench
                    && r.sample.collector == collector
                    && factor_matches(r.sample.heap_factor, factor)
            })
            .count()
    };
    let mut missing = 0usize;
    let mut first_missing = None;
    for cell in &cells {
        let bench = &plan.benchmarks[cell.benchmark].name;
        let count = rows_in(bench, cell.collector, cell.heap_factor);
        if count > plan.config.invocations as usize {
            diagnostics.push(Diagnostic::error(
                "R811",
                format!(
                    "{location}:{bench}/{}/{:.2}x",
                    cell.collector, cell.heap_factor
                ),
                format!(
                    "{count} samples for a cell the plan runs {} time(s): the artifact \
                     mixes more than one run",
                    plan.config.invocations
                ),
            ));
        }
        let recorded_infeasible = artifact.infeasible.iter().any(|(b, c, f)| {
            b == bench && *c == cell.collector && factor_matches(*f, cell.heap_factor)
        });
        if cell.feasible && count == 0 && !recorded_infeasible {
            missing += 1;
            if first_missing.is_none() {
                first_missing = Some(format!(
                    "{bench}/{}/{:.2}x",
                    cell.collector, cell.heap_factor
                ));
            }
        }
    }

    // Measurement invariants on every row.
    let mut bad_rows = 0usize;
    let mut first_bad = None;
    for r in &artifact.rows {
        let s = &r.sample;
        let finite = [
            s.wall_s,
            s.task_s,
            s.wall_distillable_s,
            s.task_distillable_s,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0);
        let distillable_bounded =
            s.wall_distillable_s <= s.wall_s + 1e-12 && s.task_distillable_s <= s.task_s + 1e-12;
        if !finite || !distillable_bounded {
            bad_rows += 1;
            if first_bad.is_none() {
                first_bad = Some(format!(
                    "{}/{}/{:.2}x",
                    r.benchmark, s.collector, s.heap_factor
                ));
            }
        }
    }
    if bad_rows > 0 {
        diagnostics.push(Diagnostic::error(
            "R812",
            location.clone(),
            format!(
                "{bad_rows} row(s) violate measurement invariants (finite positive times, \
                 distillable <= total); first: {}",
                first_bad.unwrap_or_default()
            ),
        ));
    } else {
        // LBO >= 1 only means anything over internally-consistent rows.
        for b in &plan.benchmarks {
            let samples: Vec<RunSample> = artifact
                .rows
                .iter()
                .filter(|r| r.benchmark == b.name)
                .map(|r| r.sample)
                .collect();
            if samples.is_empty() {
                continue;
            }
            for clock in [Clock::Wall, Clock::Task] {
                let Ok(lbo) = LboAnalysis::compute(&samples, clock) else {
                    continue;
                };
                for (&collector, curve) in lbo.curves() {
                    for point in curve {
                        if point.overhead.mean() < 0.98 {
                            diagnostics.push(Diagnostic::error(
                                "R812",
                                format!("{location}:{}/{collector}", b.name),
                                format!(
                                    "{clock} LBO at {:.2}x is {:.3} (< 1): overhead below \
                                     the distilled baseline is impossible for a genuine run",
                                    point.heap_factor,
                                    point.overhead.mean()
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    if missing > 0 {
        diagnostics.push(
            Diagnostic::warn(
                "R813",
                location,
                format!(
                    "{missing} feasible planned cell(s) have no samples (first: {}): the \
                     artifact is incomplete",
                    first_missing.unwrap_or_default()
                ),
            )
            .with_hint("resume the run with --journal PATH --resume".to_string()),
        );
    }
    diagnostics
}
