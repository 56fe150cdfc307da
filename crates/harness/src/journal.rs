//! The crash-safe sweep journal: a JSONL record of completed cells that
//! lets an interrupted suite resume without redoing finished work.
//!
//! Every time a cell completes, its one line is appended to the open
//! file with one `write(2)`, so the line is in the file when
//! [`Journal::record`] returns and a killed process loses nothing it
//! recorded. Syncs are group-committed: an append calls `sync_data` only
//! when the previous sync is at least [`SYNC_EVERY`] old, so a burst of
//! completions shares one sync instead of paying one each.
//! [`Journal::sync`], which also runs on drop, is the barrier that leaves
//! nothing unsynced; the supervisor runs it once recovered cells are
//! absorbed (before a fleet worker may truncate its shard) and once the
//! report is assembled (before any row is printed), and a fleet worker
//! runs it when it drains. Only an OS crash can lose a record: one
//! appended within [`SYNC_EVERY`] of the last sync, which no output has
//! shown yet and which a resume re-runs.
//!
//! The trailing newline is the commit marker: [`Journal::load`] reads
//! every newline-terminated line and ignores a last line without one,
//! which only a crash mid-append leaves, so a crash can lose the newest
//! cells but never corrupt the file. Before the first append to a file
//! it loaded, a journal truncates such a torn tail, so the next record
//! never glues itself onto it. Only [`Journal::create`] and a resume that
//! drops stale quarantine lines write the whole file, to a `.tmp`
//! sibling that is synced and renamed over the real path. The first line
//! is a header carrying a fingerprint of the suite configuration; resume
//! refuses a journal whose fingerprint does not match, because replaying
//! cells from a different configuration would silently mix incompatible
//! results.
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
use crate::supervisor::{Cell, CellOutcome, QuarantineReason};
use chopin_obs::json;
use chopin_sandbox::clock::WallSpan;
use std::fs;
use std::io::{self, BufRead, BufReader, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// An append syncs the file only when the previous sync is at least this
/// old: the most an OS crash can lose is what was appended within it.
pub const SYNC_EVERY: Duration = Duration::from_millis(5);

/// Identity of one sweep cell: benchmark × collector × heap factor. The
/// journal keys its lines by the supervisor's [`Cell`] itself.
pub type CellKey = Cell;

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

/// What a journal has written since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Lines appended.
    pub records: u64,
    /// `sync_data` calls that put appended lines on disk.
    pub syncs: u64,
    /// Appends and syncs that failed.
    pub errors: u64,
}

/// The crash-safe journal of completed sweep cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    fingerprint: u64,
    entries: Vec<JournalEntry>,
    quarantines: Vec<QuarantineRecord>,
    /// Bytes of the file known to be whole lines: the header and every
    /// record committed so far. Only what follows can be a torn tail.
    committed: u64,
    /// The file records append to, opened by the first append.
    file: Option<fs::File>,
    /// Since the file was last known to be on disk: the last sync, or
    /// the create or load.
    synced: WallSpan,
    /// Whether lines appended since then still wait for a sync.
    unsynced: bool,
    /// What [`Journal::stats`] reports.
    stats: JournalStats,
}

impl Journal {
    fn new(path: &Path, fingerprint: u64) -> Journal {
        Journal {
            path: path.to_path_buf(),
            fingerprint,
            entries: Vec::new(),
            quarantines: Vec::new(),
            committed: 0,
            file: None,
            synced: WallSpan::begin(),
            unsynced: false,
            stats: JournalStats::default(),
        }
    }

    /// Start a fresh journal at `path` (replacing any previous file) and
    /// persist the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be written.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let mut journal = Journal::new(path, fingerprint);
        journal.rewrite()?;
        Ok(journal)
    }

    /// Load an existing journal from `path`. A last line without its
    /// newline never committed (a crash cut its append short) and is
    /// ignored; the file itself is not touched.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be read,
    /// [`JournalError::Parse`] if any newline-terminated line is not
    /// valid journal content.
    pub fn load(path: &Path) -> Result<Journal, JournalError> {
        // Line by line: holding the whole file at once would only add its
        // size to the resuming process's peak memory.
        let mut reader = BufReader::new(fs::File::open(path)?);
        let mut line = Vec::new();
        let mut committed = 0;
        let mut fingerprint = None;
        let mut entries = Vec::new();
        let mut quarantines = Vec::new();
        for number in 1.. {
            line.clear();
            let read = reader.read_until(b'\n', &mut line)?;
            if line.pop() != Some(b'\n') {
                break;
            }
            committed += read as u64;
            let parse_err = |message| JournalError::Parse {
                line: number,
                message,
            };
            let text = std::str::from_utf8(&line).map_err(|e| parse_err(e.to_string()))?;
            if fingerprint.is_none() {
                let JournalHeader { fingerprint: found } =
                    codec::decode(text).map_err(parse_err)?;
                fingerprint = Some(found);
                continue;
            }
            if text.trim().is_empty() {
                continue;
            }
            let value = json::parse(text).map_err(|e| parse_err(e.to_string()))?;
            if value.get("quarantined").is_some() {
                quarantines.push(QuarantineRecord::read(&value).map_err(parse_err)?);
            } else {
                entries.push(JournalEntry::read(&value).map_err(parse_err)?);
            }
        }
        let fingerprint = fingerprint.ok_or(JournalError::Parse {
            line: 1,
            message: "no complete header line".to_string(),
        })?;
        let mut journal = Journal::new(path, fingerprint);
        journal.entries = entries;
        journal.quarantines = quarantines;
        journal.committed = committed;
        Ok(journal)
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

    /// Record a completed cell: append its line, and sync the file if the
    /// last sync is at least [`SYNC_EVERY`] old.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append or the sync fails (the entry is
    /// still retained in memory, and the failure is counted in
    /// [`Journal::stats`]).
    pub fn record(&mut self, entry: JournalEntry) -> Result<(), JournalError> {
        let appended = self.append(&entry);
        self.entries.push(entry);
        appended
    }

    /// Record a quarantine verdict as [`Journal::record`] records a cell.
    /// Quarantined cells never satisfy [`Journal::lookup`], so a resumed
    /// run still re-attempts them.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append or the sync fails (the record
    /// is still retained in memory, and the failure is counted in
    /// [`Journal::stats`]).
    pub fn record_quarantine(&mut self, record: QuarantineRecord) -> Result<(), JournalError> {
        let appended = self.append(&record);
        self.quarantines.push(record);
        appended
    }

    /// The barrier: sync every line appended since the last sync. A
    /// journal with none waiting does nothing. Dropping a journal runs it
    /// too.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the sync fails (counted in
    /// [`Journal::stats`]; the lines stay waiting for the next sync).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if !self.unsynced {
            return Ok(());
        }
        let synced = self.open().and_then(|file| file.sync_data());
        match synced {
            Ok(()) => {
                self.stats.syncs += 1;
                self.unsynced = false;
                self.synced = WallSpan::begin();
            }
            Err(_) => self.stats.errors += 1,
        }
        synced.map_err(JournalError::from)
    }

    /// What this journal has appended and synced, and how often either
    /// failed.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The quarantine verdicts on record, in recording order.
    pub fn quarantines(&self) -> &[QuarantineRecord] {
        &self.quarantines
    }

    /// Drop the quarantine records, from memory and from the file (a
    /// resuming run re-attempts those cells and records its own
    /// verdicts; stale ones would misdescribe the resumed run). A journal
    /// that holds none is left as it is.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be rewritten.
    pub fn clear_quarantines(&mut self) -> Result<(), JournalError> {
        if self.quarantines.is_empty() {
            return Ok(());
        }
        self.quarantines.clear();
        self.rewrite()
    }

    /// Append `record`'s line with one write, newline last: the newline
    /// commits it. Sync if the last sync is at least [`SYNC_EVERY`] old.
    fn append(&mut self, record: &impl Record) -> Result<(), JournalError> {
        let mut line = codec::encode(record);
        line.push('\n');
        if let Err(e) = self.open().and_then(|file| file.write_all(line.as_bytes())) {
            // The failed write may have left part of the line behind;
            // reopening cuts it off before the next append.
            self.file = None;
            self.stats.errors += 1;
            return Err(e.into());
        }
        self.committed += line.len() as u64;
        self.stats.records += 1;
        self.unsynced = true;
        if self.synced.elapsed() >= SYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// The file appends go to, opened on first use.
    fn open(&mut self) -> io::Result<&mut fs::File> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let (file, whole) = open_for_append(&self.path, self.committed)?;
                self.committed = whole;
                file
            }
        };
        Ok(self.file.insert(file))
    }

    /// Write the whole journal to a `.tmp` sibling, sync it and rename it
    /// over the real path.
    fn rewrite(&mut self) -> Result<(), JournalError> {
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
        self.file = None;
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        // The rename survives a crash only once its directory is synced.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()?;
        self.committed = text.len() as u64;
        self.unsynced = false;
        self.synced = WallSpan::begin();
        Ok(())
    }
}

impl Drop for Journal {
    /// The last barrier: nothing a journal appended waits unsynced once
    /// it is gone. A failure here has no one left to report to.
    fn drop(&mut self) {
        let _ = self.sync();
        #[cfg(test)]
        tests::LAST_DROPPED.with(|last| last.set(Some(self.stats)));
    }
}

/// Open the journal at `path` for appends, first truncating a torn tail:
/// the bytes after its last newline, which only a crash mid-append
/// leaves. Its first `committed` bytes are known to be whole lines and
/// are not read again. Returns the file and the length of its whole
/// lines.
///
/// Every append goes to the end of the file (`O_APPEND`), and whole
/// lines another process appended since `committed` are kept: a fleet
/// standby appends to the base journal while the primary it watched may
/// still be sealing it.
fn open_for_append(path: &Path, committed: u64) -> io::Result<(fs::File, u64)> {
    let mut file = fs::OpenOptions::new().read(true).append(true).open(path)?;
    file.seek(SeekFrom::Start(committed))?;
    let mut tail = Vec::new();
    file.read_to_end(&mut tail)?;
    let whole = tail.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let len = committed + whole as u64;
    if whole < tail.len() {
        file.set_len(len)?;
    }
    Ok((file, len))
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
/// in the same directory) with its worker id, sorted by id so absorption
/// order is deterministic regardless of directory iteration order.
pub(crate) fn sibling_worker_journals(base: &Path) -> Vec<(u64, PathBuf)> {
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
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_core::lbo::RunSample;
    use chopin_runtime::collector::CollectorKind;
    use std::cell::Cell;

    thread_local! {
        /// The stats of the last journal this thread dropped, as its
        /// drop left them.
        pub(super) static LAST_DROPPED: Cell<Option<JournalStats>> = const { Cell::new(None) };
    }

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
            [0, 2, 10].map(|id| (id, worker_journal_path(&base, id)))
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
        loaded.clear_quarantines().unwrap();
        assert!(loaded.quarantines().is_empty());
        std::fs::remove_file(&path).ok();
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chopin-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A journal with two committed cells and half of a third: the torn
    /// tail a crash mid-append leaves.
    fn torn_journal(name: &str) -> (PathBuf, String) {
        let path = temp_path(name);
        let mut journal = Journal::create(&path, 11).unwrap();
        journal.record(entry("fop", 2.0)).unwrap();
        journal.record(entry("fop", 3.0)).unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        let third = codec::encode(&entry("fop", 4.0));
        let torn = format!("{whole}{}", &third[..third.len() / 2]);
        std::fs::write(&path, &torn).unwrap();
        (path, whole)
    }

    #[test]
    fn a_torn_last_line_is_ignored_and_every_whole_line_loads() {
        let (path, _) = torn_journal("torn_load.journal");
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.fingerprint(), 11);
        assert_eq!(loaded.len(), 2);
        for factor in [2.0, 3.0] {
            let key = entry("fop", factor).key;
            assert!(loaded.lookup(&key).is_some(), "fop at {factor}x loads");
        }
        assert!(loaded.lookup(&entry("fop", 4.0).key).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_first_append_truncates_a_torn_tail() {
        let (path, whole) = torn_journal("torn_append.journal");
        let mut loaded = Journal::load(&path).unwrap();
        assert!(
            std::fs::read_to_string(&path).unwrap().len() > whole.len(),
            "loading never writes"
        );
        loaded.record(entry("pmd", 2.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let appended = codec::encode(&entry("pmd", 2.0));
        assert_eq!(text, format!("{whole}{appended}\n"));
        let reloaded = Journal::load(&path).unwrap();
        assert_eq!(reloaded.len(), 3);
        assert!(reloaded.lookup(&entry("pmd", 2.0).key).is_some());
        std::fs::remove_file(&path).ok();
    }

    /// A fleet standby may append to the base journal while the primary
    /// still seals it: neither writer may cut or overwrite the other's
    /// whole lines.
    #[test]
    fn two_writers_appending_to_one_journal_keep_every_whole_line() {
        let path = temp_path("two_writers.journal");
        let mut primary = Journal::create(&path, 3).unwrap();
        primary.record(entry("fop", 2.0)).unwrap();
        let mut standby = Journal::load(&path).unwrap();
        primary.record(entry("fop", 3.0)).unwrap();
        standby.record(entry("pmd", 2.0)).unwrap();
        primary.record(entry("fop", 4.0)).unwrap();
        let reloaded = Journal::load(&path).unwrap();
        let keys: Vec<(&str, f64)> = reloaded
            .entries()
            .iter()
            .map(|e| (e.key.benchmark.as_str(), e.key.heap_factor))
            .collect();
        assert_eq!(
            keys,
            [("fop", 2.0), ("fop", 3.0), ("pmd", 2.0), ("fop", 4.0)]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_newline_terminated_corrupt_line_is_still_a_parse_error() {
        let (path, whole) = torn_journal("torn_corrupt.journal");
        std::fs::write(&path, format!("{whole}{{\"benchmark\":\n")).unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::Parse { line: 4, .. })
        ));
        // Without its newline the same bytes are a torn tail.
        std::fs::write(&path, format!("{whole}{{\"benchmark\":")).unwrap();
        assert_eq!(Journal::load(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resuming_drops_quarantine_lines_from_the_file() {
        let path = temp_path("resume_quarantines.journal");
        let mut journal = Journal::create(&path, 5).unwrap();
        journal.record(entry("fop", 2.0)).unwrap();
        journal
            .record_quarantine(QuarantineRecord {
                key: entry("fop", 3.0).key,
                attempts: 2,
                reason: QuarantineReason::OomKilled,
            })
            .unwrap();
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("quarantined"));

        let mut resumed = crate::supervisor::open_journal(&path, 5, true).unwrap();
        assert!(resumed.quarantines().is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("quarantined"), "{text}");
        assert_eq!(text.lines().count(), 2, "header and one cell: {text}");
        resumed.record(entry("fop", 3.0)).unwrap();
        let reloaded = Journal::load(&path).unwrap();
        assert_eq!((reloaded.len(), reloaded.quarantines().len()), (2, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resuming_a_complete_journal_leaves_the_file_untouched() {
        let path = temp_path("resume_untouched.journal");
        let mut journal = Journal::create(&path, 5).unwrap();
        journal.record(entry("fop", 2.0)).unwrap();
        let before = std::fs::metadata(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let resumed = crate::supervisor::open_journal(&path, 5, true).unwrap();
        assert_eq!(resumed.len(), 1);
        let after = std::fs::metadata(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert_eq!(before.modified().unwrap(), after.modified().unwrap());
        #[cfg(unix)]
        {
            // A rewrite would rename a new file over the path.
            use std::os::unix::fs::MetadataExt;
            assert_eq!(before.ino(), after.ino(), "the file was replaced");
        }
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

    #[test]
    fn a_thousand_back_to_back_records_share_a_few_syncs_and_all_load() {
        let path = temp_path("group_commit.journal");
        let span = WallSpan::begin();
        let mut journal = Journal::create(&path, 13).unwrap();
        for i in 0..1_000 {
            journal.record(entry("fop", 1.0 + f64::from(i))).unwrap();
        }
        let elapsed = span.elapsed();
        let stats = journal.stats();
        assert_eq!((stats.records, stats.errors), (1_000, 0));
        // Each sync comes at least SYNC_EVERY after the create or the
        // sync before it, where one per record would make 1,000.
        let windows = elapsed.as_micros() / SYNC_EVERY.as_micros();
        assert!(
            u128::from(stats.syncs) <= windows,
            "{} syncs in {elapsed:?}",
            stats.syncs
        );
        drop(journal);
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.len(), 1_000);
        assert!(loaded.lookup(&entry("fop", 1_000.0).key).is_some());
        std::fs::remove_file(&path).ok();
    }

    /// Record until one append leaves its line waiting for a sync, and
    /// return the sync count it left.
    fn record_unsynced(journal: &mut Journal) -> u64 {
        for i in 0..100 {
            let before = journal.stats().syncs;
            journal.record(entry("pmd", 1.0 + f64::from(i))).unwrap();
            if journal.stats().syncs == before {
                return before;
            }
        }
        panic!("every one of 100 back-to-back records synced");
    }

    #[test]
    fn sync_leaves_nothing_unsynced_and_drop_syncs() {
        let path = temp_path("barrier.journal");
        let mut journal = Journal::create(&path, 17).unwrap();
        let syncs = record_unsynced(&mut journal);
        journal.sync().unwrap();
        assert_eq!(journal.stats().syncs, syncs + 1, "the barrier syncs");
        journal.sync().unwrap();
        assert_eq!(journal.stats().syncs, syncs + 1, "nothing was left");

        let syncs = record_unsynced(&mut journal);
        drop(journal);
        let dropped = LAST_DROPPED.with(Cell::get).unwrap();
        assert_eq!(dropped.syncs, syncs + 1, "the drop syncs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_appends_are_counted_not_hidden() {
        let path = temp_path("replaced_by_a_dir.journal");
        let mut journal = Journal::create(&path, 19).unwrap();
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        for factor in [2.0, 3.0, 4.0] {
            assert!(matches!(
                journal.record(entry("fop", factor)),
                Err(JournalError::Io(_))
            ));
        }
        let quarantine = QuarantineRecord {
            key: entry("fop", 5.0).key,
            attempts: 1,
            reason: QuarantineReason::OomKilled,
        };
        assert!(journal.record_quarantine(quarantine).is_err());
        let failed = JournalStats {
            records: 0,
            syncs: 0,
            errors: 4,
        };
        assert_eq!(journal.stats(), failed);
        journal.sync().unwrap();
        assert_eq!(journal.stats(), failed, "nothing was appended to sync");
        assert_eq!(journal.len(), 3, "failed records stay in memory");
        std::fs::remove_dir(&path).ok();
    }
}
