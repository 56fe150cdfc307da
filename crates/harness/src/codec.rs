//! The one codec for cell records: every record that crosses the sandbox
//! pipe, the fleet wire or the resume journal is rendered and parsed
//! here, by one [`Record`] implementation per type:
//!
//! | record               | carried by                                      |
//! |----------------------|-------------------------------------------------|
//! | `CellRequest`        | sandbox stdin, fleet `@lease` payload           |
//! | [`CellOutcome`]      | sandbox `@ok` payload, fleet `@done` payload    |
//! | [`QuarantineReason`] | fleet `@fail` reason, lease-table failures      |
//! | [`JournalHeader`], [`JournalEntry`], [`QuarantineRecord`] | journal lines |
//! | [`CrashReport`]      | `--crash-reports` JSONL line                    |
//!
//! Each record is one JSON object on one line. A journal entry is a
//! response with the cell key in front and the provenance behind, so the
//! outcome body (`"samples":[…],"infeasible":…`) has one writer and one
//! reader. Floats are written with `{:?}` (shortest round-trip) and read
//! back with the same bits. `u64`s that can exceed 2^53 (seeds, window
//! bounds, hard-fault delays, worker ids) travel as decimal strings;
//! every other integer is range-checked on decode, so out-of-range input
//! is an error naming the field, never a saturated value. Encoders append
//! to one `String`: the journal renders each record once, as the line it
//! appends.

use crate::journal::{CellKey, CellProvenance, JournalEntry, QuarantineRecord};
use crate::sandbox::{CellRequest, CrashReport};
use crate::supervisor::{Cell, CellOutcome, QuarantineReason};
use chopin_core::lbo::RunSample;
use chopin_faults::{FaultKind, FaultPlan, HardFaultKind};
use chopin_obs::json::{self, write_json_string, JsonValue};
use chopin_runtime::collector::CollectorKind;
use chopin_workloads::SizeClass;
use std::fmt::Write as _;

/// A record with one text encoding on every channel it crosses.
pub(crate) trait Record: Sized {
    /// Append the record's one-line JSON encoding to `out`.
    fn write(&self, out: &mut String);

    /// Read the record back from its parsed encoding; the error names the
    /// first missing or malformed field.
    fn read(value: &JsonValue) -> Result<Self, String>;
}

/// Render `record` as one line (no trailing newline).
pub(crate) fn encode<R: Record>(record: &R) -> String {
    let mut out = String::new();
    record.write(&mut out);
    out
}

/// Parse one line rendered by [`encode`].
///
/// # Errors
///
/// Malformed JSON (with its byte offset), or a missing or malformed field.
pub(crate) fn decode<R: Record>(text: &str) -> Result<R, String> {
    R::read(&json::parse(text).map_err(|e| e.to_string())?)
}

/// Decode a [`QuarantineReason`]; text that does not decode is kept whole
/// as a [`QuarantineReason::Errored`] message.
pub(crate) fn decode_reason(text: &str) -> QuarantineReason {
    decode(text).unwrap_or_else(|_| QuarantineReason::Errored(text.to_string()))
}

const JOURNAL_TAG: &str = "chopin-sweep";
const JOURNAL_VERSION: f64 = 1.0;

/// A sweep journal's first line: its tag, format version and the
/// configuration fingerprint resume checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalHeader {
    /// The suite configuration fingerprint.
    pub(crate) fingerprint: u64,
}

impl Record for JournalHeader {
    fn write(&self, out: &mut String) {
        out.push_str("{\"journal\":");
        write_json_string(out, JOURNAL_TAG);
        let fingerprint = self.fingerprint;
        let _ = write!(
            out,
            ",\"version\":{JOURNAL_VERSION:?},\"fingerprint\":\"{fingerprint:016x}\"}}"
        );
    }

    fn read(value: &JsonValue) -> Result<Self, String> {
        let tag = value.str_field("journal")?;
        if tag != JOURNAL_TAG {
            return Err(format!("not a sweep journal (tag `{tag}`)"));
        }
        let version = value.f64_field("version")?;
        if version != JOURNAL_VERSION {
            return Err(format!("unsupported journal version {version}"));
        }
        let hex = value.str_field("fingerprint")?;
        let fingerprint = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("field `fingerprint`: bad hex `{hex}`: {e}"))?;
        Ok(JournalHeader { fingerprint })
    }
}

/// `"benchmark":…,"collector":…,"heap_factor":…` — the cell identity that
/// leads requests, journal entries, quarantine records and crash reports.
fn write_cell(out: &mut String, benchmark: &str, collector: &str, heap_factor: f64) {
    out.push_str("\"benchmark\":");
    write_json_string(out, benchmark);
    out.push_str(",\"collector\":");
    write_json_string(out, collector);
    let _ = write!(out, ",\"heap_factor\":{heap_factor:?}");
}

fn write_key(out: &mut String, key: &CellKey) {
    write_cell(out, &key.benchmark, key.collector.label(), key.heap_factor);
}

fn collector_field(value: &JsonValue, key: &str) -> Result<CollectorKind, String> {
    value.label_field(key, |label| label.parse().ok())
}

fn read_key(value: &JsonValue) -> Result<CellKey, String> {
    Ok(CellKey {
        benchmark: value.str_field("benchmark")?.to_string(),
        collector: collector_field(value, "collector")?,
        heap_factor: value.f64_field("heap_factor")?,
    })
}

/// The outcome body, `"samples":[…],"infeasible":…`: a response between
/// braces, and the middle of a journal entry.
fn write_outcome_body(out: &mut String, outcome: &CellOutcome) {
    out.push_str("\"samples\":[");
    for (i, s) in outcome.samples.iter().enumerate() {
        out.push_str(if i == 0 {
            "{\"collector\":"
        } else {
            ",{\"collector\":"
        });
        write_json_string(out, s.collector.label());
        let _ = write!(
            out,
            ",\"heap_factor\":{:?},\"wall_s\":{:?},\"task_s\":{:?},\
             \"wall_distillable_s\":{:?},\"task_distillable_s\":{:?}}}",
            s.heap_factor, s.wall_s, s.task_s, s.wall_distillable_s, s.task_distillable_s,
        );
    }
    out.push_str("],\"infeasible\":");
    match &outcome.infeasible {
        Some(reason) => write_json_string(out, reason),
        None => out.push_str("null"),
    }
}

fn read_sample(value: &JsonValue) -> Result<RunSample, String> {
    Ok(RunSample {
        collector: collector_field(value, "collector")?,
        heap_factor: value.f64_field("heap_factor")?,
        wall_s: value.f64_field("wall_s")?,
        task_s: value.f64_field("task_s")?,
        wall_distillable_s: value.f64_field("wall_distillable_s")?,
        task_distillable_s: value.f64_field("task_distillable_s")?,
    })
}

impl Record for CellOutcome {
    fn write(&self, out: &mut String) {
        out.push('{');
        write_outcome_body(out, self);
        out.push('}');
    }

    /// Reads the outcome body of a response or of a journal entry.
    fn read(value: &JsonValue) -> Result<Self, String> {
        let samples = value.arr_field("samples")?.iter().map(read_sample);
        Ok(CellOutcome {
            samples: samples.collect::<Result<_, _>>()?,
            infeasible: value.opt_str_field("infeasible")?.map(str::to_string),
        })
    }
}

impl Record for JournalEntry {
    fn write(&self, out: &mut String) {
        out.push('{');
        write_key(out, &self.key);
        out.push(',');
        write_outcome_body(out, &self.record);
        // Only fleet completions carry provenance, so sequential journals
        // keep their exact bytes; the worker id is a u64.
        if let Some(CellProvenance { attempt, worker }) = self.provenance {
            let _ = write!(out, ",\"attempt\":{attempt},\"worker\":\"{worker}\"");
        }
        out.push('}');
    }

    fn read(value: &JsonValue) -> Result<Self, String> {
        let key = read_key(value)?;
        let record = CellOutcome::read(value)?;
        let provenance = match (value.get("attempt"), value.get("worker")) {
            (None, None) => None,
            _ => Some(CellProvenance {
                attempt: value.int_field("attempt")?,
                worker: value.u64_str_field("worker")?,
            }),
        };
        Ok(JournalEntry {
            key,
            record,
            provenance,
        })
    }
}

impl Record for QuarantineReason {
    fn write(&self, out: &mut String) {
        out.push_str("{\"kind\":");
        match self {
            QuarantineReason::Panicked(message) => {
                out.push_str("\"panicked\",\"message\":");
                write_json_string(out, message);
            }
            QuarantineReason::DeadlineExceeded { budget_ms } => {
                let _ = write!(out, "\"deadline_exceeded\",\"budget_ms\":{budget_ms}");
            }
            QuarantineReason::Errored(message) => {
                out.push_str("\"errored\",\"message\":");
                write_json_string(out, message);
            }
            QuarantineReason::Signalled { signal } => {
                let _ = write!(out, "\"signalled\",\"signal\":{signal}");
            }
            QuarantineReason::OomKilled => out.push_str("\"oom_killed\""),
            QuarantineReason::HeartbeatLost { silent_ms } => {
                let _ = write!(out, "\"heartbeat_lost\",\"silent_ms\":{silent_ms}");
            }
        }
        out.push('}');
    }

    fn read(value: &JsonValue) -> Result<Self, String> {
        let message = || value.str_field("message").map(str::to_string);
        Ok(match value.str_field("kind")? {
            "panicked" => QuarantineReason::Panicked(message()?),
            "errored" => QuarantineReason::Errored(message()?),
            "deadline_exceeded" => QuarantineReason::DeadlineExceeded {
                budget_ms: value.int_field("budget_ms")?,
            },
            "signalled" => QuarantineReason::Signalled {
                signal: value.int_field("signal")?,
            },
            "oom_killed" => QuarantineReason::OomKilled,
            "heartbeat_lost" => QuarantineReason::HeartbeatLost {
                silent_ms: value.int_field("silent_ms")?,
            },
            other => return Err(format!("field `kind` has unknown value `{other}`")),
        })
    }
}

impl Record for QuarantineRecord {
    fn write(&self, out: &mut String) {
        out.push_str("{\"quarantined\":{");
        write_key(out, &self.key);
        let _ = write!(out, "}},\"attempts\":{},\"reason\":", self.attempts);
        self.reason.write(out);
        out.push('}');
    }

    fn read(value: &JsonValue) -> Result<Self, String> {
        Ok(QuarantineRecord {
            key: read_key(value.field("quarantined")?)?,
            attempts: value.int_field("attempts")?,
            reason: QuarantineReason::read(value.field("reason")?)?,
        })
    }
}

fn write_faults(out: &mut String, plan: &FaultPlan) {
    let _ = write!(out, "{{\"seed\":\"{}\",\"windows\":[", plan.seed);
    for (i, w) in plan.windows.iter().enumerate() {
        let (sep, start, end) = (if i == 0 { "" } else { "," }, w.start_ns, w.end_ns);
        let _ = write!(
            out,
            "{sep}{{\"start_ns\":\"{start}\",\"end_ns\":\"{end}\",\"kind\":"
        );
        write_json_string(out, w.kind.label());
        let _ = write!(out, ",\"magnitude\":{:?}}}", w.kind.magnitude());
    }
    out.push_str("]}");
}

fn read_faults(value: &JsonValue) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new(value.u64_str_field("seed")?);
    for w in value.arr_field("windows")? {
        let magnitude = w.f64_field("magnitude")?;
        let kind = w.label_field("kind", |label| FaultKind::from_parts(label, magnitude))?;
        let (start_ns, end_ns) = (w.u64_str_field("start_ns")?, w.u64_str_field("end_ns")?);
        plan = plan.with_window(start_ns, end_ns, kind);
    }
    Ok(plan)
}

impl Record for CellRequest {
    fn write(&self, out: &mut String) {
        out.push('{');
        let cell = &self.cell;
        write_cell(
            out,
            &cell.benchmark,
            cell.collector.label(),
            cell.heap_factor,
        );
        let _ = write!(
            out,
            ",\"invocations\":{},\"iterations\":{},\"size\":",
            self.invocations, self.iterations
        );
        write_json_string(out, &self.size.to_string());
        out.push_str(",\"faults\":");
        match &self.faults {
            Some(plan) => write_faults(out, plan),
            None => out.push_str("null"),
        }
        out.push_str(",\"hard\":");
        match &self.hard {
            Some((kind, delay_ms)) => {
                out.push_str("{\"kind\":");
                write_json_string(out, kind.label());
                let _ = write!(out, ",\"delay_ms\":\"{delay_ms}\"}}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }

    fn read(value: &JsonValue) -> Result<Self, String> {
        let CellKey {
            benchmark,
            collector,
            heap_factor,
        } = read_key(value)?;
        let hard = |v: &JsonValue| -> Result<_, String> {
            Ok((
                v.label_field("kind", HardFaultKind::from_label)?,
                v.u64_str_field("delay_ms")?,
            ))
        };
        let size = |label: &str| SizeClass::ALL.into_iter().find(|s| s.to_string() == label);
        Ok(CellRequest {
            cell: Cell {
                benchmark,
                collector,
                heap_factor,
            },
            invocations: value.int_field("invocations")?,
            iterations: value.int_field("iterations")?,
            size: value.label_field("size", size)?,
            faults: value.opt_field("faults").map(read_faults).transpose()?,
            hard: value.opt_field("hard").map(hard).transpose()?,
        })
    }
}

impl Record for CrashReport {
    fn write(&self, out: &mut String) {
        fn opt(n: Option<impl std::fmt::Display>) -> String {
            n.map_or_else(|| "null".to_string(), |n| n.to_string())
        }
        out.push('{');
        write_cell(out, &self.benchmark, &self.collector, self.heap_factor);
        out.push_str(",\"outcome\":");
        write_json_string(out, &self.outcome);
        let _ = write!(
            out,
            ",\"exit_code\":{},\"signal\":{},\"last_heartbeat_ms\":{},\"peak_rss_bytes\":{},\
             \"wall_ms\":{}}}",
            opt(self.exit_code),
            opt(self.signal),
            opt(self.last_heartbeat_ms),
            opt(self.peak_rss_bytes),
            self.wall_ms,
        );
    }

    fn read(value: &JsonValue) -> Result<Self, String> {
        Ok(CrashReport {
            benchmark: value.str_field("benchmark")?.to_string(),
            collector: value.str_field("collector")?.to_string(),
            heap_factor: value.f64_field("heap_factor")?,
            outcome: value.str_field("outcome")?.to_string(),
            exit_code: value.opt_int_field("exit_code")?,
            signal: value.opt_int_field("signal")?,
            last_heartbeat_ms: value.opt_int_field("last_heartbeat_ms")?,
            peak_rss_bytes: value.opt_int_field("peak_rss_bytes")?,
            wall_ms: value.int_field("wall_ms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CellRecord, Journal, JournalError};
    use chopin_sandbox::protocol::{self as pipe, Frame};
    use proptest::prelude::*;

    fn header(fingerprint: u64) -> String {
        let dir = std::env::temp_dir().join(format!("chopin-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("header.journal");
        Journal::create(&path, fingerprint).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text.trim_end().to_string()
    }

    fn sample(collector: CollectorKind, heap_factor: f64, wall_s: f64) -> RunSample {
        RunSample {
            collector,
            heap_factor,
            wall_s,
            task_s: wall_s * 7.0,
            wall_distillable_s: wall_s * 0.9,
            task_distillable_s: 1e-7,
        }
    }

    fn key(benchmark: &str, collector: CollectorKind, heap_factor: f64) -> CellKey {
        CellKey {
            benchmark: benchmark.to_string(),
            collector,
            heap_factor,
        }
    }

    /// The bytes every channel carries, pinned exactly: journals, crash
    /// reports and the CSV they feed must not change a byte across
    /// releases.
    #[test]
    fn golden_bytes_of_every_cell_record() {
        assert_eq!(
            header(0x00c0_ffee_0000_0001),
            r#"{"journal":"chopin-sweep","version":1.0,"fingerprint":"00c0ffee00000001"}"#
        );

        let sequential = JournalEntry {
            key: key("fop", CollectorKind::G1, 2.5),
            record: CellRecord {
                samples: vec![
                    sample(CollectorKind::G1, 2.5, 0.1234567890123),
                    sample(CollectorKind::G1, 2.5, 3.0),
                ],
                infeasible: None,
            },
            provenance: None,
        };
        assert_eq!(
            encode(&sequential),
            r#"{"benchmark":"fop","collector":"G1","heap_factor":2.5,"samples":[{"collector":"G1","heap_factor":2.5,"wall_s":0.1234567890123,"task_s":0.8641975230861001,"wall_distillable_s":0.11111111011107001,"task_distillable_s":1e-7},{"collector":"G1","heap_factor":2.5,"wall_s":3.0,"task_s":21.0,"wall_distillable_s":2.7,"task_distillable_s":1e-7}],"infeasible":null}"#
        );
        let fleet = JournalEntry {
            key: key("h2 o", CollectorKind::Zgc, 1.0),
            record: CellRecord {
                samples: Vec::new(),
                infeasible: Some("out of memory: \"heap\" at C:\\tmp\nnext".to_string()),
            },
            provenance: Some(CellProvenance {
                attempt: 2,
                worker: 9_007_199_254_740_993,
            }),
        };
        assert_eq!(
            encode(&fleet),
            r#"{"benchmark":"h2 o","collector":"ZGC*","heap_factor":1.0,"samples":[],"infeasible":"out of memory: \"heap\" at C:\\tmp\nnext","attempt":2,"worker":"9007199254740993"}"#
        );

        let reasons = [
            QuarantineReason::Panicked("boom \"q\"\\ x\ny".to_string()),
            QuarantineReason::DeadlineExceeded { budget_ms: 30_000 },
            QuarantineReason::Errored("flaky disk".to_string()),
            QuarantineReason::Signalled { signal: 9 },
            QuarantineReason::OomKilled,
            QuarantineReason::HeartbeatLost { silent_ms: 1_500 },
        ];
        let expected = [
            r#"{"quarantined":{"benchmark":"pmd","collector":"Shen.","heap_factor":1.5},"attempts":3,"reason":{"kind":"panicked","message":"boom \"q\"\\ x\ny"}}"#,
            r#"{"quarantined":{"benchmark":"pmd","collector":"Shen.","heap_factor":2.5},"attempts":3,"reason":{"kind":"deadline_exceeded","budget_ms":30000}}"#,
            r#"{"quarantined":{"benchmark":"pmd","collector":"Shen.","heap_factor":3.5},"attempts":3,"reason":{"kind":"errored","message":"flaky disk"}}"#,
            r#"{"quarantined":{"benchmark":"pmd","collector":"Shen.","heap_factor":4.5},"attempts":3,"reason":{"kind":"signalled","signal":9}}"#,
            r#"{"quarantined":{"benchmark":"pmd","collector":"Shen.","heap_factor":5.5},"attempts":3,"reason":{"kind":"oom_killed"}}"#,
            r#"{"quarantined":{"benchmark":"pmd","collector":"Shen.","heap_factor":6.5},"attempts":3,"reason":{"kind":"heartbeat_lost","silent_ms":1500}}"#,
        ];
        for (i, (reason, line)) in reasons.into_iter().zip(expected).enumerate() {
            let record = QuarantineRecord {
                key: key("pmd", CollectorKind::Shenandoah, 1.5 + i as f64),
                attempts: 3,
                reason,
            };
            assert_eq!(encode(&record), line);
        }

        let request = CellRequest {
            cell: Cell {
                benchmark: "fop".to_string(),
                collector: CollectorKind::Parallel,
                heap_factor: 3.25,
            },
            invocations: 10,
            iterations: 5,
            size: SizeClass::VLarge,
            faults: Some(
                FaultPlan::new(u64::MAX)
                    .with_window(
                        1_000_000,
                        9_007_199_254_740_993,
                        FaultKind::AllocSpike { factor: 4.0 },
                    )
                    .with_window(0, 5, FaultKind::ForceDegenerate)
                    .with_window(7, 8, FaultKind::StallStorm { throttle: 0.1 }),
            ),
            hard: Some((HardFaultKind::Kill, 9_007_199_254_740_993)),
        };
        assert_eq!(
            encode(&request),
            r#"{"benchmark":"fop","collector":"Parallel","heap_factor":3.25,"invocations":10,"iterations":5,"size":"vlarge","faults":{"seed":"18446744073709551615","windows":[{"start_ns":"1000000","end_ns":"9007199254740993","kind":"alloc_spike","magnitude":4.0},{"start_ns":"0","end_ns":"5","kind":"force_degenerate","magnitude":1.0},{"start_ns":"7","end_ns":"8","kind":"stall_storm","magnitude":0.1}]},"hard":{"kind":"kill","delay_ms":"9007199254740993"}}"#
        );
        let bare = CellRequest {
            size: SizeClass::Small,
            faults: None,
            hard: None,
            ..request
        };
        assert_eq!(
            encode(&bare),
            r#"{"benchmark":"fop","collector":"Parallel","heap_factor":3.25,"invocations":10,"iterations":5,"size":"small","faults":null,"hard":null}"#
        );

        let response = CellRecord {
            samples: vec![sample(CollectorKind::Serial, 6.0, 1e-300)],
            infeasible: Some("tab\there".to_string()),
        };
        assert_eq!(
            encode(&response),
            r#"{"samples":[{"collector":"Serial","heap_factor":6.0,"wall_s":1e-300,"task_s":7e-300,"wall_distillable_s":9e-301,"task_distillable_s":1e-7}],"infeasible":"tab\there"}"#
        );

        let crash = CrashReport {
            benchmark: "fop".to_string(),
            collector: "G1".to_string(),
            heap_factor: 2.0,
            outcome: "signalled".to_string(),
            exit_code: None,
            signal: Some(9),
            last_heartbeat_ms: Some(12),
            peak_rss_bytes: Some(67_108_864),
            wall_ms: 40,
        };
        assert_eq!(
            encode(&crash),
            r#"{"benchmark":"fop","collector":"G1","heap_factor":2.0,"outcome":"signalled","exit_code":null,"signal":9,"last_heartbeat_ms":12,"peak_rss_bytes":67108864,"wall_ms":40}"#
        );
        let exited = CrashReport {
            collector: "ZGC".to_string(),
            heap_factor: 0.5,
            outcome: "heartbeat_lost".to_string(),
            exit_code: Some(1),
            signal: None,
            last_heartbeat_ms: None,
            peak_rss_bytes: None,
            wall_ms: 0,
            ..crash
        };
        assert_eq!(
            encode(&exited),
            r#"{"benchmark":"fop","collector":"ZGC","heap_factor":0.5,"outcome":"heartbeat_lost","exit_code":1,"signal":null,"last_heartbeat_ms":null,"peak_rss_bytes":null,"wall_ms":0}"#
        );
    }

    // --- Range-checked integers --------------------------------------

    /// A shard line claiming attempt -1 must not load as attempt 0, where
    /// it would win the `(attempt, worker)` merge over every real
    /// attempt: the whole line is rejected, naming the field.
    #[test]
    fn a_negative_attempt_is_rejected_not_saturated() {
        let dir = std::env::temp_dir().join(format!("chopin-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("negative_attempt.journal.w5");
        let mut journal = Journal::create(&path, 7).unwrap();
        journal
            .record(JournalEntry {
                key: key("fop", CollectorKind::G1, 2.0),
                record: CellRecord {
                    samples: vec![sample(CollectorKind::G1, 2.0, 0.25)],
                    infeasible: None,
                },
                provenance: Some(CellProvenance {
                    attempt: 1,
                    worker: 5,
                }),
            })
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let forged = text.replace("\"attempt\":1,", "\"attempt\":-1,");
        assert_ne!(forged, text);
        std::fs::write(&path, forged).unwrap();
        match Journal::load(&path) {
            Err(JournalError::Parse { line: 2, message }) => {
                assert!(message.contains("`attempt`"), "{message}");
            }
            other => panic!("a negative attempt must not load: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A request for -3 invocations must not run zero invocations and
    /// return a cell with no samples: it never reaches the runner.
    #[test]
    fn a_negative_invocation_count_is_rejected_not_saturated() {
        let request = CellRequest {
            cell: Cell {
                benchmark: "fop".to_string(),
                collector: CollectorKind::G1,
                heap_factor: 2.0,
            },
            invocations: 3,
            iterations: 2,
            size: SizeClass::Small,
            faults: None,
            hard: None,
        };
        let text = encode(&request).replace("\"invocations\":3", "\"invocations\":-3");
        let err = decode::<CellRequest>(&text).unwrap_err();
        assert!(err.contains("`invocations`"), "{err}");
        let text = encode(&request).replace("\"iterations\":2", "\"iterations\":4294967296");
        let err = decode::<CellRequest>(&text).unwrap_err();
        assert!(err.contains("`iterations`"), "{err}");
    }

    // --- Round trips ---------------------------------------------------

    /// Strings over the fleet test's codec-hostile palette, plus the JSON
    /// quote: separators, the escape character, the letters that follow
    /// a backslash in escapes, a multi-byte scalar and the frame sigil.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..11, 0..12).prop_map(|codes| {
            codes
                .iter()
                .map(|c| match c {
                    0 => 'a',
                    1 => ' ',
                    2 => '\\',
                    3 => '\n',
                    4 => '\r',
                    5 => 's',
                    6 => 'n',
                    7 => 'r',
                    8 => 'é',
                    9 => '@',
                    _ => '"',
                })
                .collect()
        })
    }

    fn opt_text() -> impl Strategy<Value = Option<String>> {
        (0u8..2, text()).prop_map(|(some, t)| (some == 1).then_some(t))
    }

    /// Any finite `f64`, drawn by bit pattern so subnormals, negative
    /// zero and extreme exponents all occur.
    fn float() -> impl Strategy<Value = f64> {
        (0u64..u64::MAX).prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                -0.0
            }
        })
    }

    /// Integers a JSON number carries exactly.
    fn exact_u64() -> impl Strategy<Value = u64> {
        0u64..(1 << 53)
    }

    fn collector() -> impl Strategy<Value = CollectorKind> {
        (0usize..CollectorKind::ALL.len()).prop_map(|i| CollectorKind::ALL[i])
    }

    fn samples() -> impl Strategy<Value = Vec<RunSample>> {
        proptest::collection::vec(
            (collector(), float(), float(), float(), float(), float()),
            0..4,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(
                    |(collector, heap_factor, wall_s, task_s, wd, td)| RunSample {
                        collector,
                        heap_factor,
                        wall_s,
                        task_s,
                        wall_distillable_s: wd,
                        task_distillable_s: td,
                    },
                )
                .collect()
        })
    }

    fn reason() -> impl Strategy<Value = QuarantineReason> {
        (0u8..6, text(), exact_u64(), (i32::MIN..i32::MAX)).prop_map(
            |(kind, message, n, signal)| match kind {
                0 => QuarantineReason::Panicked(message),
                1 => QuarantineReason::DeadlineExceeded { budget_ms: n },
                2 => QuarantineReason::Errored(message),
                3 => QuarantineReason::Signalled { signal },
                4 => QuarantineReason::OomKilled,
                _ => QuarantineReason::HeartbeatLost { silent_ms: n },
            },
        )
    }

    fn fault_plan() -> impl Strategy<Value = FaultPlan> {
        (
            0u64..u64::MAX,
            proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u8..5, float()), 0..4),
        )
            .prop_map(|(seed, windows)| {
                let labels = [
                    "alloc_spike",
                    "heap_squeeze",
                    "gc_slowdown",
                    "stall_storm",
                    "force_degenerate",
                ];
                windows
                    .into_iter()
                    .fold(FaultPlan::new(seed), |plan, (start, end, kind, m)| {
                        let kind = FaultKind::from_parts(labels[kind as usize], m).unwrap();
                        plan.with_window(start, end, kind)
                    })
            })
    }

    fn bits(samples: &[RunSample]) -> Vec<(CollectorKind, [u64; 5])> {
        samples
            .iter()
            .map(|s| {
                (
                    s.collector,
                    [
                        s.heap_factor.to_bits(),
                        s.wall_s.to_bits(),
                        s.task_s.to_bits(),
                        s.wall_distillable_s.to_bits(),
                        s.task_distillable_s.to_bits(),
                    ],
                )
            })
            .collect()
    }

    /// Decode an encoding, and check the decoded value encodes to the
    /// same bytes: with floats written shortest-round-trip, equal bytes
    /// mean equal bits.
    fn round_trip<R: Record>(record: &R) -> Result<R, TestCaseError> {
        let line = encode(record);
        prop_assert!(!line.contains('\n'), "one line: {line:?}");
        let back: R = decode(&line).map_err(|e| TestCaseError::Fail(format!("{e}: {line}")))?;
        prop_assert_eq!(encode(&back), line);
        Ok(back)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn outcomes_and_journal_lines_round_trip_bit_exactly(
            benchmark in text(),
            collector in collector(),
            heap_factor in float(),
            samples in samples(),
            infeasible in opt_text(),
            provenance in (0u8..2, 0u32..u32::MAX, 0u64..u64::MAX),
            attempts in 0u32..u32::MAX,
            reason in reason(),
            fingerprint in 0u64..u64::MAX,
        ) {
            let outcome = CellOutcome { samples, infeasible };
            let back = round_trip(&outcome)?;
            prop_assert_eq!(bits(&back.samples), bits(&outcome.samples));
            prop_assert_eq!(&back.infeasible, &outcome.infeasible);

            let (with, attempt, worker) = provenance;
            let entry = JournalEntry {
                key: key(&benchmark, collector, heap_factor),
                record: outcome.clone(),
                provenance: (with == 1).then_some(CellProvenance { attempt, worker }),
            };
            let back = round_trip(&entry)?;
            prop_assert!(back.key.matches(&entry.key) && back.key.benchmark == benchmark);
            prop_assert_eq!(bits(&back.record.samples), bits(&outcome.samples));
            prop_assert_eq!(&back.record.infeasible, &outcome.infeasible);
            prop_assert_eq!(back.provenance, entry.provenance);

            prop_assert_eq!(&round_trip(&reason)?, &reason);
            let record = QuarantineRecord {
                key: key(&benchmark, collector, heap_factor),
                attempts,
                reason: reason.clone(),
            };
            let back = round_trip(&record)?;
            prop_assert!(back.key.matches(&record.key));
            prop_assert_eq!(back.attempts, attempts);
            prop_assert_eq!(&back.reason, &reason);

            let header = JournalHeader { fingerprint };
            prop_assert_eq!(round_trip(&header)?, header);
        }

        #[test]
        fn requests_and_crash_reports_round_trip_bit_exactly(
            benchmark in text(),
            collector in collector(),
            heap_factor in float(),
            counts in (0u32..u32::MAX, 0u32..u32::MAX, 0usize..4),
            faults in (0u8..2, fault_plan()),
            hard in (0u8..4, 0u64..u64::MAX),
            outcome in text(),
            codes in ((0u8..2, i32::MIN..i32::MAX), (0u8..2, i32::MIN..i32::MAX)),
            numbers in ((0u8..2, exact_u64()), (0u8..2, exact_u64()), exact_u64()),
        ) {
            let (invocations, iterations, size) = counts;
            let request = CellRequest {
                cell: Cell {
                    benchmark: benchmark.clone(),
                    collector,
                    heap_factor,
                },
                invocations,
                iterations,
                size: SizeClass::ALL[size],
                faults: (faults.0 == 1).then_some(faults.1),
                hard: [HardFaultKind::Kill, HardFaultKind::Abort, HardFaultKind::OomBlowup]
                    .get(hard.0 as usize)
                    .map(|&kind| (kind, hard.1)),
            };
            let back = round_trip(&request)?;
            prop_assert_eq!(back.cell.heap_factor.to_bits(), heap_factor.to_bits());
            prop_assert_eq!(&back, &request);

            let ((has_exit, exit), (has_signal, signal)) = codes;
            let ((has_beat, beat), (has_rss, rss), wall_ms) = numbers;
            let report = CrashReport {
                benchmark,
                collector: collector.label().to_string(),
                heap_factor,
                outcome,
                exit_code: (has_exit == 1).then_some(exit),
                signal: (has_signal == 1).then_some(signal),
                last_heartbeat_ms: (has_beat == 1).then_some(beat),
                peak_rss_bytes: (has_rss == 1).then_some(rss),
                wall_ms,
            };
            prop_assert_eq!(&round_trip(&report)?, &report);
        }

        /// Every sandbox frame survives the one line escape: its line
        /// holds no newline, carriage return or raw space after the
        /// sigil, and parses back to the same frame.
        #[test]
        fn sandbox_frames_round_trip_through_the_one_escape(
            payload in text(),
            rss in 0u64..u64::MAX,
        ) {
            for frame in [
                Frame::Heartbeat,
                Frame::Rss(rss),
                Frame::Ok(payload.clone()),
                Frame::Err(payload.clone()),
                Frame::Panic(payload.clone()),
            ] {
                let line = pipe::render(&frame);
                prop_assert!(!line.contains('\n') && !line.contains('\r'), "{line:?}");
                prop_assert!(line.matches(' ').count() <= 1, "{line:?}");
                prop_assert_eq!(pipe::parse(&line), Some(frame.clone()), "line {:?}", line);
            }
            prop_assert_eq!(pipe::unescape(&pipe::escape(&payload)), payload);
        }
    }

    // --- Malformed input -------------------------------------------------

    /// Decode every input as `R`, each of which must fail with an error
    /// containing its expected fragment (the field name, for field
    /// errors), without panicking.
    fn rejects<R: Record + std::fmt::Debug>(cases: &[(String, &str)]) {
        for (input, fragment) in cases {
            match decode::<R>(input) {
                Ok(value) => panic!("accepted {input:?} as {value:?}"),
                Err(e) => assert!(e.contains(fragment), "{input:?}: `{e}` lacks `{fragment}`"),
            }
        }
    }

    /// Every strict prefix of a valid line (a torn write) and the line
    /// with trailing garbage are rejected.
    fn torn_and_trailing(valid: &str) -> Vec<(String, &'static str)> {
        let mut cases: Vec<(String, &'static str)> = valid
            .char_indices()
            .map(|(i, _)| (valid[..i].to_string(), "json error"))
            .collect();
        cases.push((format!("{valid}x"), "trailing garbage"));
        cases.push((format!("{valid}{{}}"), "trailing garbage"));
        cases
    }

    /// `valid` with `from` replaced by `to` (which must occur).
    fn edit(valid: &str, from: &str, to: &str) -> String {
        assert!(valid.contains(from), "{from:?} not in {valid}");
        valid.replacen(from, to, 1)
    }

    #[test]
    fn malformed_journal_headers_are_rejected_by_field() {
        let valid = encode(&JournalHeader { fingerprint: 0xabc });
        let mut cases = torn_and_trailing(&valid);
        cases.extend([
            (
                edit(&valid, "\"journal\":\"chopin-sweep\",", ""),
                "`journal`",
            ),
            (
                edit(&valid, "\"chopin-sweep\"", "\"other\""),
                "not a sweep journal",
            ),
            (edit(&valid, "\"chopin-sweep\"", "7"), "`journal`"),
            (edit(&valid, "1.0", "2.0"), "version"),
            (edit(&valid, "1.0", "\"1.0\""), "`version`"),
            (edit(&valid, "0000000000000abc", "xyz"), "`fingerprint`"),
            (
                edit(&valid, "\"0000000000000abc\"", "2748"),
                "`fingerprint`",
            ),
        ]);
        rejects::<JournalHeader>(&cases);
    }

    fn valid_entry() -> String {
        encode(&JournalEntry {
            key: key("fop", CollectorKind::G1, 2.0),
            record: CellRecord {
                samples: vec![sample(CollectorKind::G1, 2.0, 0.5)],
                infeasible: Some("oom".to_string()),
            },
            provenance: Some(CellProvenance {
                attempt: 2,
                worker: 9,
            }),
        })
    }

    #[test]
    fn malformed_journal_entries_are_rejected_by_field() {
        let valid = valid_entry();
        let mut cases = torn_and_trailing(&valid);
        cases.extend([
            (edit(&valid, "\"benchmark\":\"fop\",", ""), "`benchmark`"),
            (
                edit(&valid, "\"benchmark\":\"fop\"", "\"benchmark\":1"),
                "`benchmark`",
            ),
            (
                edit(&valid, "\"collector\":\"G1\"", "\"collector\":\"CMS\""),
                "`collector`",
            ),
            (
                edit(&valid, "\"heap_factor\":2.0", "\"heap_factor\":\"2\""),
                "`heap_factor`",
            ),
            (edit(&valid, "\"heap_factor\":2.0,", ""), "`heap_factor`"),
            (
                edit(&valid, "\"wall_s\":0.5", "\"wall_s\":null"),
                "`wall_s`",
            ),
            (
                edit(&valid, "\"samples\":[", "\"samples\":{\"x\":["),
                "json error",
            ),
            (edit(&valid, "\"samples\":", "\"sample\":"), "`samples`"),
            (
                edit(&valid, "\"infeasible\":\"oom\"", "\"infeasible\":3"),
                "`infeasible`",
            ),
            (edit(&valid, "\"attempt\":2", "\"attempt\":-1"), "`attempt`"),
            (
                edit(&valid, "\"attempt\":2", "\"attempt\":1.5"),
                "`attempt`",
            ),
            (
                edit(&valid, "\"attempt\":2", "\"attempt\":4294967296"),
                "`attempt`",
            ),
            (
                edit(&valid, "\"attempt\":2", "\"attempt\":\"2\""),
                "`attempt`",
            ),
            (edit(&valid, "\"attempt\":2,", ""), "`attempt`"),
            (edit(&valid, ",\"worker\":\"9\"", ""), "`worker`"),
            (edit(&valid, "\"worker\":\"9\"", "\"worker\":9"), "`worker`"),
            (
                edit(&valid, "\"worker\":\"9\"", "\"worker\":\"-9\""),
                "`worker`",
            ),
            (
                edit(&valid, "\"worker\":\"9\"", "\"worker\":\"+9\""),
                "`worker`",
            ),
            (
                edit(
                    &valid,
                    "\"worker\":\"9\"",
                    "\"worker\":\"18446744073709551616\"",
                ),
                "`worker`",
            ),
        ]);
        rejects::<JournalEntry>(&cases);
    }

    #[test]
    fn malformed_quarantine_records_and_reasons_are_rejected_by_field() {
        let valid = encode(&QuarantineRecord {
            key: key("fop", CollectorKind::G1, 2.0),
            attempts: 3,
            reason: QuarantineReason::Signalled { signal: 9 },
        });
        let mut cases = torn_and_trailing(&valid);
        cases.extend([
            (
                edit(&valid, "\"attempts\":3", "\"attempts\":-3"),
                "`attempts`",
            ),
            (
                edit(&valid, "\"attempts\":3", "\"attempts\":3.5"),
                "`attempts`",
            ),
            (edit(&valid, "\"attempts\":3,", ""), "`attempts`"),
            (
                edit(&valid, "\"collector\":\"G1\"", "\"collector\":\"g1gc\""),
                "`collector`",
            ),
            (edit(&valid, "\"benchmark\":\"fop\",", ""), "`benchmark`"),
            (
                edit(
                    &valid,
                    ",\"reason\":{\"kind\":\"signalled\",\"signal\":9}",
                    "",
                ),
                "`reason`",
            ),
            (edit(&valid, "\"signalled\"", "\"vanished\""), "`kind`"),
            (
                edit(&valid, "\"signal\":9", "\"signal\":2147483648"),
                "`signal`",
            ),
        ]);
        rejects::<QuarantineRecord>(&cases);

        let reasons = [
            (r#"{"kind":"panicked"}"#, "`message`"),
            (r#"{"kind":"errored","message":7}"#, "`message`"),
            (
                r#"{"kind":"deadline_exceeded","budget_ms":-1}"#,
                "`budget_ms`",
            ),
            (
                r#"{"kind":"deadline_exceeded","budget_ms":1e300}"#,
                "`budget_ms`",
            ),
            (
                r#"{"kind":"heartbeat_lost","silent_ms":0.5}"#,
                "`silent_ms`",
            ),
            (r#"{"kind":"heartbeat_lost"}"#, "`silent_ms`"),
            (r#"{"kind":"signalled","signal":"9"}"#, "`signal`"),
            (r#"{"kind":3}"#, "`kind`"),
            (r#"{"message":"x"}"#, "`kind`"),
            (r#"{"kind":"exploded"}"#, "`kind`"),
        ];
        let cases: Vec<(String, &str)> = reasons.iter().map(|(t, f)| (t.to_string(), *f)).collect();
        rejects::<QuarantineReason>(&cases);
        // What does not decode stays whole as an `Errored` message.
        assert_eq!(
            decode_reason(r#"{"kind":"exploded"}"#),
            QuarantineReason::Errored(r#"{"kind":"exploded"}"#.to_string())
        );
    }

    #[test]
    fn malformed_requests_are_rejected_by_field() {
        let valid = encode(&CellRequest {
            cell: Cell {
                benchmark: "fop".to_string(),
                collector: CollectorKind::G1,
                heap_factor: 2.0,
            },
            invocations: 3,
            iterations: 2,
            size: SizeClass::Default,
            faults: Some(FaultPlan::new(5).with_window(
                1,
                9,
                FaultKind::GcSlowdown { factor: 2.0 },
            )),
            hard: Some((HardFaultKind::Abort, 4)),
        });
        let mut cases = torn_and_trailing(&valid);
        cases.extend([
            (
                edit(&valid, "\"invocations\":3", "\"invocations\":-3"),
                "`invocations`",
            ),
            (
                edit(&valid, "\"invocations\":3", "\"invocations\":3.25"),
                "`invocations`",
            ),
            (edit(&valid, "\"invocations\":3,", ""), "`invocations`"),
            (
                edit(&valid, "\"iterations\":2", "\"iterations\":\"2\""),
                "`iterations`",
            ),
            (
                edit(&valid, "\"size\":\"default\"", "\"size\":\"huge\""),
                "`size`",
            ),
            (
                edit(&valid, "\"collector\":\"G1\"", "\"collector\":null"),
                "`collector`",
            ),
            (edit(&valid, "\"seed\":\"5\"", "\"seed\":5"), "`seed`"),
            (edit(&valid, "\"seed\":\"5\"", "\"seed\":\"0x5\""), "`seed`"),
            (edit(&valid, "\"seed\":\"5\"", "\"seed\":\"\""), "`seed`"),
            (
                edit(&valid, "\"start_ns\":\"1\"", "\"start_ns\":\"1.0\""),
                "`start_ns`",
            ),
            (
                edit(
                    &valid,
                    "\"end_ns\":\"9\"",
                    "\"end_ns\":\"18446744073709551616\"",
                ),
                "`end_ns`",
            ),
            (edit(&valid, "\"gc_slowdown\"", "\"gc_speedup\""), "`kind`"),
            (
                edit(&valid, "\"magnitude\":2.0", "\"magnitude\":\"2\""),
                "`magnitude`",
            ),
            (
                edit(&valid, "\"windows\":[", "\"windows\":{\"w\":["),
                "json error",
            ),
            (edit(&valid, "\"windows\":", "\"window\":"), "`windows`"),
            (edit(&valid, "\"abort\"", "\"segv\""), "`kind`"),
            (
                edit(&valid, "\"delay_ms\":\"4\"", "\"delay_ms\":4"),
                "`delay_ms`",
            ),
        ]);
        rejects::<CellRequest>(&cases);
    }

    #[test]
    fn malformed_responses_and_crash_reports_are_rejected_by_field() {
        let valid = encode(&CellRecord {
            samples: vec![sample(CollectorKind::Zgc, 1.5, 0.5)],
            infeasible: None,
        });
        let mut cases = torn_and_trailing(&valid);
        cases.extend([
            (edit(&valid, "\"samples\":", "\"s\":"), "`samples`"),
            (
                edit(&valid, "\"samples\":[", "\"samples\":7,\"x\":["),
                "`samples`",
            ),
            (
                edit(&valid, "\"collector\":\"ZGC*\"", "\"collector\":\"Zing\""),
                "`collector`",
            ),
            (
                edit(&valid, "\"task_s\":3.5", "\"task_s\":\"3.5\""),
                "`task_s`",
            ),
            (
                edit(&valid, "\"wall_distillable_s\"", "\"wall_distilable_s\""),
                "`wall_distillable_s`",
            ),
            (
                edit(&valid, "\"infeasible\":null", "\"infeasible\":[]"),
                "`infeasible`",
            ),
        ]);
        rejects::<CellOutcome>(&cases);

        let valid = encode(&CrashReport {
            benchmark: "fop".to_string(),
            collector: "G1".to_string(),
            heap_factor: 2.0,
            outcome: "signalled".to_string(),
            exit_code: None,
            signal: Some(9),
            last_heartbeat_ms: Some(12),
            peak_rss_bytes: None,
            wall_ms: 40,
        });
        let mut cases = torn_and_trailing(&valid);
        cases.extend([
            (edit(&valid, "\"outcome\":\"signalled\",", ""), "`outcome`"),
            (edit(&valid, "\"signal\":9", "\"signal\":9.5"), "`signal`"),
            (
                edit(&valid, "\"exit_code\":null", "\"exit_code\":2147483648"),
                "`exit_code`",
            ),
            (
                edit(
                    &valid,
                    "\"last_heartbeat_ms\":12",
                    "\"last_heartbeat_ms\":-12",
                ),
                "`last_heartbeat_ms`",
            ),
            (
                edit(
                    &valid,
                    "\"peak_rss_bytes\":null",
                    "\"peak_rss_bytes\":\"1\"",
                ),
                "`peak_rss_bytes`",
            ),
            (
                edit(&valid, "\"wall_ms\":40", "\"wall_ms\":1e20"),
                "`wall_ms`",
            ),
            (edit(&valid, ",\"wall_ms\":40", ""), "`wall_ms`"),
        ]);
        rejects::<CrashReport>(&cases);
    }
}
