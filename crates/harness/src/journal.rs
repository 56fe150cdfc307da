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
//! Every line is rendered and parsed by the one cell-record codec
//! (`codec.rs`), which writes floats with `{:?}` so a parse restores
//! their exact bits — the property the byte-identical resume guarantee
//! rests on.
//!
//! Besides completed cells, the journal also records quarantine verdicts
//! ([`QuarantineRecord`]) so a post-mortem can read *why* a cell never
//! completed — including the hard crash taxonomy (signals, OOM kills,
//! lost heartbeats) from process isolation. Quarantine records never
//! satisfy a resume lookup: a resumed run re-attempts those cells and
//! re-records its own verdicts.

use crate::codec::{self, JournalHeader, Record};
use crate::supervisor::{CellOutcome, QuarantineReason};
use chopin_obs::json;
use chopin_runtime::collector::CollectorKind;
use std::fs;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

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
        let JournalHeader { fingerprint } =
            codec::decode(&header?).map_err(|message| JournalError::Parse { line: 1, message })?;
        let mut entries = Vec::new();
        let mut quarantines = Vec::new();
        for (i, line) in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parse_err = |message| JournalError::Parse {
                line: i + 1,
                message,
            };
            let value = json::parse(&line).map_err(|e| parse_err(e.to_string()))?;
            if value.get("quarantined").is_some() {
                quarantines.push(QuarantineRecord::read(&value).map_err(parse_err)?);
            } else {
                entries.push(JournalEntry::read(&value).map_err(parse_err)?);
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
        let header = JournalHeader {
            fingerprint: self.fingerprint,
        };
        header.write(&mut text);
        text.push('\n');
        for entry in &self.entries {
            entry.write(&mut text);
            text.push('\n');
        }
        for record in &self.quarantines {
            record.write(&mut text);
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

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::lbo::RunSample;

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
        let plain = codec::encode(&entry("fop", 2.0));
        assert!(!plain.contains("attempt") && !plain.contains("worker"));

        let mut fleet_entry = entry("fop", 2.0);
        fleet_entry.provenance = Some(CellProvenance {
            attempt: 2,
            worker: 9_007_199_254_740_993, // above 2^53: must survive as a string
        });
        let line = codec::encode(&fleet_entry);
        let parsed: JournalEntry = codec::decode(&line).unwrap();
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
            assert_eq!(&codec::decode_reason(&codec::encode(reason)), reason);
        }
        assert_eq!(
            codec::decode_reason("mystery"),
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
