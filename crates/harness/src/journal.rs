//! The crash-safe sweep journal: a JSONL record of completed cells that
//! lets an interrupted suite resume without redoing finished work.
//!
//! Every time a cell completes, the whole journal is rewritten to a
//! sibling `.tmp` file and atomically renamed over the real path, so the
//! on-disk journal is always a complete, parseable document — a crash
//! mid-write can only lose the newest cell, never corrupt the file. The
//! first line is a header carrying a fingerprint of the suite
//! configuration; resume refuses a journal whose fingerprint does not
//! match, because replaying cells from a different configuration would
//! silently mix incompatible results.
//!
//! Serialisation is hand-rolled (the vendored `serde` is a marker stub)
//! and parsing reuses [`chopin_obs::json`]. Floats are written with
//! `{:?}`, whose shortest-round-trip output restores the exact bits on
//! parse — the property the byte-identical resume guarantee rests on.
//!
//! Besides completed cells, the journal also records quarantine verdicts
//! ([`QuarantineRecord`]) so a post-mortem can read *why* a cell never
//! completed — including the hard crash taxonomy (signals, OOM kills,
//! lost heartbeats) from process isolation. Quarantine records never
//! satisfy a resume lookup: a resumed run re-attempts those cells and
//! re-records its own verdicts.

use crate::supervisor::{CellOutcome, QuarantineReason};
use chopin_core::lbo::RunSample;
use chopin_obs::json::{self, json_string, JsonValue};
use chopin_runtime::collector::CollectorKind;
use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// The header tag identifying a chopin sweep journal.
const JOURNAL_TAG: &str = "chopin-sweep";

/// The journal format version.
const JOURNAL_VERSION: f64 = 1.0;

/// Identity of one sweep cell: benchmark × collector × heap factor.
#[derive(Debug, Clone)]
pub struct CellKey {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector under test.
    pub collector: CollectorKind,
    /// Heap factor (multiple of the nominal minimum heap).
    pub heap_factor: f64,
}

impl CellKey {
    /// Exact-key equality (heap factors compared bitwise: journalled
    /// factors round-trip exactly through `{:?}`).
    pub fn matches(&self, other: &CellKey) -> bool {
        self.benchmark == other.benchmark
            && self.collector == other.collector
            && self.heap_factor.to_bits() == other.heap_factor.to_bits()
    }
}

/// What a completed cell produced: its [`CellOutcome`]. Quarantined
/// cells are deliberately *not* representable: only real outcomes are
/// journalled, so a resumed suite retries everything that never finished.
pub type CellRecord = CellOutcome;

/// Where a journalled completion came from, when a fleet worker wrote
/// it: the completing attempt number and worker id — the key the
/// deterministic journal merge breaks ties by. Sequential runs carry no
/// provenance, so their journal bytes are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellProvenance {
    /// 1-based attempt number of the completing lease.
    pub attempt: u32,
    /// Id of the worker that completed the cell.
    pub worker: u64,
}

/// One journal line: a cell and its outcome.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Which cell completed.
    pub key: CellKey,
    /// What it produced.
    pub record: CellRecord,
    /// Fleet provenance, if a fleet worker completed the cell.
    pub provenance: Option<CellProvenance>,
}

/// One quarantine verdict on record: which cell never completed, after
/// how many attempts, and the structured reason (including the crash
/// taxonomy under process isolation).
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// The cell that never completed.
    pub key: CellKey,
    /// Total attempts made (first try plus retries).
    pub attempts: u32,
    /// The final failure.
    pub reason: QuarantineReason,
}

/// A journal operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure, stringified.
    Io(String),
    /// The file exists but is not a valid journal.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Parse { line, message } => {
                write!(f, "journal parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// FNV-1a over the canonical description of a suite configuration; the
/// resume guard's notion of "same experiment". Re-exported from
/// `chopin-analyzer`, which owns the canonical recipe so the static
/// pre-flight pass can predict journal fingerprints exactly.
pub use chopin_analyzer::fingerprint_of;

/// The crash-safe journal of completed sweep cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    fingerprint: u64,
    entries: Vec<JournalEntry>,
    quarantines: Vec<QuarantineRecord>,
}

impl Journal {
    /// Start a fresh journal at `path` (truncating any previous file) and
    /// persist the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be written.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let journal = Journal {
            path: path.to_path_buf(),
            fingerprint,
            entries: Vec::new(),
            quarantines: Vec::new(),
        };
        journal.persist()?;
        Ok(journal)
    }

    /// Load an existing journal from `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be read,
    /// [`JournalError::Parse`] if any line is not valid journal content.
    pub fn load(path: &Path) -> Result<Journal, JournalError> {
        // Line by line: holding the whole file at once would only add its
        // size to the resuming process's peak memory.
        let mut lines = BufReader::new(fs::File::open(path)?).lines().enumerate();
        let (_, header) = lines.next().ok_or(JournalError::Parse {
            line: 1,
            message: "empty file".to_string(),
        })?;
        let fingerprint =
            parse_header(&header?).map_err(|message| JournalError::Parse { line: 1, message })?;
        let mut entries = Vec::new();
        let mut quarantines = Vec::new();
        for (i, line) in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let obj = json::parse(&line).map_err(|e| JournalError::Parse {
                line: i + 1,
                message: e.to_string(),
            })?;
            let parse_err = |message| JournalError::Parse {
                line: i + 1,
                message,
            };
            if obj.get("quarantined").is_some() {
                quarantines.push(parse_quarantine(&obj).map_err(parse_err)?);
            } else {
                entries.push(parse_entry(&obj).map_err(parse_err)?);
            }
        }
        Ok(Journal {
            path: path.to_path_buf(),
            fingerprint,
            entries,
            quarantines,
        })
    }

    /// The configuration fingerprint this journal was created with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of completed cells on record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cells have completed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The outcome of `key`, if that cell already completed.
    pub fn lookup(&self, key: &CellKey) -> Option<&CellRecord> {
        self.entries
            .iter()
            .find(|e| e.key.matches(key))
            .map(|e| &e.record)
    }

    /// Every completed-cell entry on record, in recording order — the
    /// raw material of the fleet's deterministic journal merge.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Record a completed cell and atomically persist the whole journal.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the rewrite fails (the entry is still
    /// retained in memory).
    pub fn record(&mut self, entry: JournalEntry) -> Result<(), JournalError> {
        self.entries.push(entry);
        self.persist()
    }

    /// Record a quarantine verdict and atomically persist the whole
    /// journal. Quarantined cells never satisfy [`Journal::lookup`], so a
    /// resumed run still re-attempts them.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the rewrite fails (the record is still
    /// retained in memory).
    pub fn record_quarantine(&mut self, record: QuarantineRecord) -> Result<(), JournalError> {
        self.quarantines.push(record);
        self.persist()
    }

    /// The quarantine verdicts on record, in recording order.
    pub fn quarantines(&self) -> &[QuarantineRecord] {
        &self.quarantines
    }

    /// Drop the quarantine records (a resuming run re-attempts those
    /// cells and records its own verdicts; stale ones would misdescribe
    /// the resumed run).
    pub fn clear_quarantines(&mut self) {
        self.quarantines.clear();
    }

    /// Rewrite the journal via tmp-then-rename so the on-disk file is
    /// replaced atomically.
    fn persist(&self) -> Result<(), JournalError> {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "{{\"journal\":{},\"version\":{JOURNAL_VERSION:?},\"fingerprint\":\"{:016x}\"}}",
            json_string(JOURNAL_TAG),
            self.fingerprint
        );
        for entry in &self.entries {
            text.push_str(&render_entry(entry));
            text.push('\n');
        }
        for record in &self.quarantines {
            text.push_str(&render_quarantine(record));
            text.push('\n');
        }
        // The tmp name appends to the full file name (rather than
        // replacing the extension) so sibling per-worker journals
        // (`x.journal.w0`, `x.journal.w1`, …) never race on one tmp file.
        let tmp = match self.path.file_name() {
            Some(name) => self
                .path
                .with_file_name(format!("{}.tmp", name.to_string_lossy())),
            None => self.path.with_extension("tmp"),
        };
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

/// The per-worker journal path: `<base>.w<id>` next to the base
/// journal, so no two processes ever contend on one file.
pub(crate) fn worker_journal_path(base: &Path, worker: u64) -> PathBuf {
    match base.file_name() {
        Some(name) => base.with_file_name(format!("{}.w{worker}", name.to_string_lossy())),
        None => base.with_extension(format!("w{worker}")),
    }
}

/// Discover every sibling worker journal of `base` (`<base>.w<digits>`
/// in the same directory), sorted by worker id so absorption order is
/// deterministic regardless of directory iteration order.
pub(crate) fn sibling_worker_journals(base: &Path) -> Vec<PathBuf> {
    let Some(name) = base.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let dir = base
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let Ok(entries) = fs::read_dir(&dir) else {
        return Vec::new();
    };
    let prefix = format!("{name}.w");
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rest) = file_name.strip_prefix(&prefix) {
            if let Ok(id) = rest.parse::<u64>() {
                found.push((id, entry.path()));
            }
        }
    }
    found.sort_unstable();
    found.into_iter().map(|(_, path)| path).collect()
}

pub(crate) fn render_sample(s: &RunSample) -> String {
    format!(
        "{{\"collector\":{},\"heap_factor\":{:?},\"wall_s\":{:?},\"task_s\":{:?},\
         \"wall_distillable_s\":{:?},\"task_distillable_s\":{:?}}}",
        json_string(&s.collector.to_string()),
        s.heap_factor,
        s.wall_s,
        s.task_s,
        s.wall_distillable_s,
        s.task_distillable_s,
    )
}

/// Encode a quarantine reason as a JSON object — the one failure-reason
/// codec, shared by journal records, [`chopin_fleet::LeaseTable::fail`]
/// and the fleet `Fail` frame, so the whole crash taxonomy survives every
/// isolation mode.
pub(crate) fn render_reason(reason: &QuarantineReason) -> String {
    match reason {
        QuarantineReason::Panicked(message) => {
            format!(
                "{{\"kind\":\"panicked\",\"message\":{}}}",
                json_string(message)
            )
        }
        QuarantineReason::DeadlineExceeded { budget_ms } => {
            format!("{{\"kind\":\"deadline_exceeded\",\"budget_ms\":{budget_ms}}}")
        }
        QuarantineReason::Errored(message) => {
            format!(
                "{{\"kind\":\"errored\",\"message\":{}}}",
                json_string(message)
            )
        }
        QuarantineReason::Signalled { signal } => {
            format!("{{\"kind\":\"signalled\",\"signal\":{signal}}}")
        }
        QuarantineReason::OomKilled => "{\"kind\":\"oom_killed\"}".to_string(),
        QuarantineReason::HeartbeatLost { silent_ms } => {
            format!("{{\"kind\":\"heartbeat_lost\",\"silent_ms\":{silent_ms}}}")
        }
    }
}

fn render_quarantine(record: &QuarantineRecord) -> String {
    format!(
        "{{\"quarantined\":{{\"benchmark\":{},\"collector\":{},\"heap_factor\":{:?}}},\
         \"attempts\":{},\"reason\":{}}}",
        json_string(&record.key.benchmark),
        json_string(&record.key.collector.to_string()),
        record.key.heap_factor,
        record.attempts,
        render_reason(&record.reason),
    )
}

fn render_entry(entry: &JournalEntry) -> String {
    let samples: Vec<String> = entry.record.samples.iter().map(render_sample).collect();
    let infeasible = match &entry.record.infeasible {
        Some(reason) => json_string(reason),
        None => "null".to_string(),
    };
    // The worker id is a u64 and crosses as a decimal string, same
    // discipline as the sandbox marshalling; provenance is rendered only
    // when present so sequential journals keep their exact bytes.
    let provenance = match &entry.provenance {
        None => String::new(),
        Some(p) => format!(",\"attempt\":{},\"worker\":\"{}\"", p.attempt, p.worker),
    };
    format!(
        "{{\"benchmark\":{},\"collector\":{},\"heap_factor\":{:?},\"samples\":[{}],\"infeasible\":{}{}}}",
        json_string(&entry.key.benchmark),
        json_string(&entry.key.collector.to_string()),
        entry.key.heap_factor,
        samples.join(","),
        infeasible,
        provenance,
    )
}

fn str_field(obj: &JsonValue, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn num_field(obj: &JsonValue, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

fn collector_field(obj: &JsonValue, key: &str) -> Result<CollectorKind, String> {
    str_field(obj, key)?
        .parse::<CollectorKind>()
        .map_err(|e| e.to_string())
}

fn parse_header(line: &str) -> Result<u64, String> {
    let obj = json::parse(line).map_err(|e| e.to_string())?;
    let tag = str_field(&obj, "journal")?;
    if tag != JOURNAL_TAG {
        return Err(format!("not a sweep journal (tag `{tag}`)"));
    }
    let version = num_field(&obj, "version")?;
    if version != JOURNAL_VERSION {
        return Err(format!("unsupported journal version {version}"));
    }
    let hex = str_field(&obj, "fingerprint")?;
    u64::from_str_radix(&hex, 16).map_err(|e| format!("bad fingerprint `{hex}`: {e}"))
}

pub(crate) fn parse_sample(value: &JsonValue) -> Result<RunSample, String> {
    Ok(RunSample {
        collector: collector_field(value, "collector")?,
        heap_factor: num_field(value, "heap_factor")?,
        wall_s: num_field(value, "wall_s")?,
        task_s: num_field(value, "task_s")?,
        wall_distillable_s: num_field(value, "wall_distillable_s")?,
        task_distillable_s: num_field(value, "task_distillable_s")?,
    })
}

/// Decode a [`render_reason`] encoding. Text that does not decode is kept
/// whole as a [`QuarantineReason::Errored`] message.
pub(crate) fn decode_reason(text: &str) -> QuarantineReason {
    json::parse(text)
        .map_err(|e| e.to_string())
        .and_then(|value| parse_reason(&value))
        .unwrap_or_else(|_| QuarantineReason::Errored(text.to_string()))
}

fn parse_reason(value: &JsonValue) -> Result<QuarantineReason, String> {
    let kind = str_field(value, "kind")?;
    match kind.as_str() {
        "panicked" => Ok(QuarantineReason::Panicked(str_field(value, "message")?)),
        "deadline_exceeded" => Ok(QuarantineReason::DeadlineExceeded {
            budget_ms: num_field(value, "budget_ms")? as u64,
        }),
        "errored" => Ok(QuarantineReason::Errored(str_field(value, "message")?)),
        "signalled" => Ok(QuarantineReason::Signalled {
            signal: num_field(value, "signal")? as i32,
        }),
        "oom_killed" => Ok(QuarantineReason::OomKilled),
        "heartbeat_lost" => Ok(QuarantineReason::HeartbeatLost {
            silent_ms: num_field(value, "silent_ms")? as u64,
        }),
        other => Err(format!("unknown quarantine reason kind `{other}`")),
    }
}

fn parse_quarantine(obj: &JsonValue) -> Result<QuarantineRecord, String> {
    let cell = obj
        .get("quarantined")
        .ok_or("missing field `quarantined`")?;
    let reason = obj.get("reason").ok_or("missing field `reason`")?;
    Ok(QuarantineRecord {
        key: CellKey {
            benchmark: str_field(cell, "benchmark")?,
            collector: collector_field(cell, "collector")?,
            heap_factor: num_field(cell, "heap_factor")?,
        },
        attempts: num_field(obj, "attempts")? as u32,
        reason: parse_reason(reason)?,
    })
}

fn parse_entry(obj: &JsonValue) -> Result<JournalEntry, String> {
    let key = CellKey {
        benchmark: str_field(obj, "benchmark")?,
        collector: collector_field(obj, "collector")?,
        heap_factor: num_field(obj, "heap_factor")?,
    };
    let samples = obj
        .get("samples")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array field `samples`")?
        .iter()
        .map(parse_sample)
        .collect::<Result<Vec<_>, _>>()?;
    let infeasible = match obj.get("infeasible") {
        None | Some(JsonValue::Null) => None,
        Some(JsonValue::Str(s)) => Some(s.clone()),
        Some(_) => return Err("field `infeasible` must be a string or null".to_string()),
    };
    let provenance = match (obj.get("attempt"), obj.get("worker")) {
        (Some(attempt), Some(worker)) => Some(CellProvenance {
            attempt: attempt.as_num().ok_or("field `attempt` must be a number")? as u32,
            worker: worker
                .as_str()
                .ok_or("field `worker` must be a string")?
                .parse()
                .map_err(|e| format!("field `worker` is not a u64: {e}"))?,
        }),
        _ => None,
    };
    Ok(JournalEntry {
        key,
        record: CellRecord {
            samples,
            infeasible,
        },
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall: f64) -> RunSample {
        RunSample {
            collector: CollectorKind::Shenandoah,
            heap_factor: 2.5,
            wall_s: wall,
            task_s: wall * 7.0,
            wall_distillable_s: wall * 0.9,
            task_distillable_s: wall * 6.3,
        }
    }

    fn entry(benchmark: &str, factor: f64) -> JournalEntry {
        JournalEntry {
            key: CellKey {
                benchmark: benchmark.to_string(),
                collector: CollectorKind::Shenandoah,
                heap_factor: factor,
            },
            record: CellRecord {
                samples: vec![sample(0.1234567890123), sample(1e-7)],
                infeasible: None,
            },
            provenance: None,
        }
    }

    #[test]
    fn provenance_round_trips_and_stays_off_sequential_lines() {
        // Sequential entries render no provenance fields at all, so a
        // fleet-aware harness and an old one produce identical journals
        // for sequential runs.
        let plain = render_entry(&entry("fop", 2.0));
        assert!(!plain.contains("attempt") && !plain.contains("worker"));

        let mut fleet_entry = entry("fop", 2.0);
        fleet_entry.provenance = Some(CellProvenance {
            attempt: 2,
            worker: 9_007_199_254_740_993, // above 2^53: must survive as a string
        });
        let line = render_entry(&fleet_entry);
        let parsed = parse_entry(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.provenance, fleet_entry.provenance);
        assert!(parsed.key.matches(&fleet_entry.key));
    }

    #[test]
    fn round_trip_restores_exact_bits() {
        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.journal");
        let mut journal = Journal::create(&path, 0xfeed_beef).unwrap();
        journal.record(entry("fop", 2.5)).unwrap();
        journal
            .record(JournalEntry {
                key: CellKey {
                    benchmark: "pmd".to_string(),
                    collector: CollectorKind::Zgc,
                    heap_factor: 1.0,
                },
                record: CellRecord {
                    samples: Vec::new(),
                    infeasible: Some("run failed: out of memory \"quoted\"\n".to_string()),
                },
                provenance: None,
            })
            .unwrap();

        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.fingerprint(), 0xfeed_beef);
        assert_eq!(loaded.len(), 2);
        let record = loaded
            .lookup(&CellKey {
                benchmark: "fop".to_string(),
                collector: CollectorKind::Shenandoah,
                heap_factor: 2.5,
            })
            .expect("fop cell is journalled");
        assert_eq!(record.samples.len(), 2);
        assert_eq!(
            record.samples[0].wall_s.to_bits(),
            0.1234567890123f64.to_bits()
        );
        assert_eq!(record.samples[1].wall_s.to_bits(), 1e-7f64.to_bits());
        let infeasible = loaded
            .lookup(&CellKey {
                benchmark: "pmd".to_string(),
                collector: CollectorKind::Zgc,
                heap_factor: 1.0,
            })
            .expect("pmd cell is journalled");
        assert_eq!(
            infeasible.infeasible.as_deref(),
            Some("run failed: out of memory \"quoted\"\n")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_is_atomic_no_tmp_left_behind() {
        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.journal");
        let mut journal = Journal::create(&path, 1).unwrap();
        journal.record(entry("fop", 2.0)).unwrap();
        assert!(path.exists());
        assert!(
            !path.with_extension("journal.tmp").exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_or_foreign_files_are_rejected_with_line_numbers() {
        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.journal");

        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::Parse { line: 1, .. })
        ));

        std::fs::write(
            &path,
            "{\"journal\":\"other-tool\",\"version\":1,\"fingerprint\":\"00\"}\n",
        )
        .unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert!(err.to_string().contains("not a sweep journal"), "{err}");

        std::fs::write(
            &path,
            "{\"journal\":\"chopin-sweep\",\"version\":1,\"fingerprint\":\"00\"}\n{\"oops\":1}\n",
        )
        .unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::Parse { line: 2, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_reasons_round_trip_through_jsonl() {
        // Every QuarantineReason variant — including the hard crash
        // taxonomy from process isolation — survives a JSONL round trip.
        let reasons = vec![
            QuarantineReason::Panicked("boom \"quoted\"\nline".to_string()),
            QuarantineReason::DeadlineExceeded { budget_ms: 30_000 },
            QuarantineReason::Errored("flaky disk".to_string()),
            QuarantineReason::Signalled { signal: 9 },
            QuarantineReason::Signalled { signal: 11 },
            QuarantineReason::OomKilled,
            QuarantineReason::HeartbeatLost { silent_ms: 1_000 },
        ];

        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine_round_trip.journal");
        let mut journal = Journal::create(&path, 0xdead).unwrap();
        for (i, reason) in reasons.iter().enumerate() {
            journal
                .record_quarantine(QuarantineRecord {
                    key: CellKey {
                        benchmark: "fop".to_string(),
                        collector: CollectorKind::G1,
                        heap_factor: 2.0 + i as f64,
                    },
                    attempts: 3,
                    reason: reason.clone(),
                })
                .unwrap();
        }

        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.quarantines().len(), reasons.len());
        for (record, reason) in loaded.quarantines().iter().zip(&reasons) {
            assert_eq!(&record.reason, reason);
            assert_eq!(record.attempts, 3);
            assert_eq!(record.key.benchmark, "fop");
        }
        std::fs::remove_file(&path).ok();

        // The same encoding is the reason currency of the lease table and
        // the fleet `Fail` frame; text that is not an encoding stays whole.
        for reason in &reasons {
            assert_eq!(&decode_reason(&render_reason(reason)), reason);
        }
        assert_eq!(
            decode_reason("mystery"),
            QuarantineReason::Errored("mystery".to_string())
        );
    }

    #[test]
    fn worker_journal_paths_sit_next_to_the_base() {
        let base = Path::new("/tmp/run/suite.journal");
        assert_eq!(
            worker_journal_path(base, 3),
            Path::new("/tmp/run/suite.journal.w3")
        );
        assert_eq!(
            worker_journal_path(base, 17),
            Path::new("/tmp/run/suite.journal.w17")
        );
    }

    #[test]
    fn sibling_discovery_finds_worker_journals_in_id_order() {
        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("discover.journal");
        std::fs::write(&base, "").unwrap();
        for id in [10u64, 2, 0] {
            std::fs::write(worker_journal_path(&base, id), "").unwrap();
        }
        // Near-misses that must not match.
        std::fs::write(base.with_file_name("discover.journal.wx"), "").unwrap();
        std::fs::write(base.with_file_name("other.journal.w1"), "").unwrap();
        let found = sibling_worker_journals(&base);
        assert_eq!(
            found,
            vec![
                worker_journal_path(&base, 0),
                worker_journal_path(&base, 2),
                worker_journal_path(&base, 10),
            ]
        );
    }

    #[test]
    fn quarantine_records_do_not_satisfy_resume_lookups() {
        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine_lookup.journal");
        let key = CellKey {
            benchmark: "fop".to_string(),
            collector: CollectorKind::G1,
            heap_factor: 2.0,
        };
        let mut journal = Journal::create(&path, 7).unwrap();
        journal
            .record_quarantine(QuarantineRecord {
                key: key.clone(),
                attempts: 2,
                reason: QuarantineReason::Signalled { signal: 9 },
            })
            .unwrap();

        let mut loaded = Journal::load(&path).unwrap();
        assert!(
            loaded.lookup(&key).is_none(),
            "a quarantined cell must be re-attempted on resume"
        );
        assert!(loaded.is_empty(), "no completed cells on record");
        loaded.clear_quarantines();
        assert!(loaded.quarantines().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprints_separate_parts_and_content() {
        assert_ne!(fingerprint_of(&["ab", "c"]), fingerprint_of(&["a", "bc"]));
        assert_ne!(fingerprint_of(&["a"]), fingerprint_of(&["b"]));
        assert_eq!(fingerprint_of(&["a", "b"]), fingerprint_of(&["a", "b"]));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Journal::load(Path::new("/nonexistent/dir/x.journal")).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)));
    }
}
