//! Untraced end-to-end runs: `runbms` timed as a subprocess, the way a
//! user runs it, with its CSV checked against the sequential reference.

use chopin_sandbox::clock::WallSpan;
use std::fs;
use std::io::{self, BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often the peak-RSS poller samples `/proc/<pid>/status`. `VmHWM`
/// is a high-water mark, so a sparse poll misses only growth in the last
/// interval before exit, and takes little CPU from the run it measures.
const RSS_POLL: Duration = Duration::from_millis(5);

/// How long leftover processes of a finished run may take to die.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// What one timed `runbms` run measured and how many cells it got wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Spawn to the CSV header line (exec, arguments, preflight), seconds.
    pub setup_s: f64,
    /// Highest `VmHWM` of the `runbms` process seen, MiB.
    pub peak_rss_mb: f64,
    /// Cells attempted.
    pub cells: u64,
    /// Cells counted as failed: every cell on a non-zero exit, otherwise
    /// the cells the summary line reports as not completed plus the CSV
    /// rows that differ from the reference.
    pub failed: u64,
    /// What went wrong, when anything did.
    pub problem: Option<String>,
}

/// Run `program args` in `cwd` once, timing it, sampling its peak RSS
/// and checking its stdout byte for byte against `reference`. Stderr
/// goes to `stderr_path` and is read back for the `runbms:` summary
/// line. The run gets a process group of its own; anything it leaves
/// behind in that group (fleet workers outlive their coordinator) is
/// killed and waited for before this returns.
///
/// # Errors
///
/// The program could not be spawned or its output could not be read.
pub fn run_rep(
    program: &Path,
    args: &[String],
    cwd: &Path,
    reference: &[u8],
    cells: u64,
    stderr_path: &Path,
) -> io::Result<Rep> {
    // A fresh inode per run: a straggler still holding the previous
    // file must not write into this run's summary.
    let _ = fs::remove_file(stderr_path);
    let stderr = fs::File::create(stderr_path)?;
    let started = WallSpan::begin();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .process_group(0)
        .spawn()?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout is piped");
    let stop = AtomicBool::new(false);
    let (drained, peak_kb) = std::thread::scope(|scope| {
        // srclint:allow(R1003, reason = "the peak-RSS poller must sample /proc while the main thread blocks reading the child's stdout; scoped, so it is joined before the run is reported")
        let poller = scope.spawn(|| poll_peak_rss_kb(pid, &stop));
        let drained = drain(stdout, &started).and_then(|(setup, out)| {
            let status = child.wait()?;
            Ok((setup, started.elapsed(), status, out))
        });
        stop.store(true, Ordering::Relaxed);
        (
            drained,
            poller.join().expect("the RSS poller does not panic"),
        )
    });
    let drained = match drained {
        Ok(drained) => drained,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            reap_group(pid);
            return Err(e);
        }
    };
    reap_group(pid);
    let (setup, wall, status, stdout) = drained;
    let stderr = fs::read_to_string(stderr_path).unwrap_or_default();
    let (failed, problem) = check_output(&stdout, reference, status, &stderr, cells);
    Ok(Rep {
        wall_s: wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        peak_rss_mb: peak_kb as f64 / 1024.0,
        cells,
        failed,
        problem,
    })
}

/// Time `program args` from spawn to its first line of stdout (for
/// `runbms`, the CSV header printed once arguments are parsed and the
/// preflight gate has passed), then kill it and everything it started.
///
/// # Errors
///
/// The program could not be spawned or ended before printing a line.
pub fn time_setup(program: &Path, args: &[String], cwd: &Path) -> io::Result<f64> {
    let started = WallSpan::begin();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .process_group(0)
        .spawn()?;
    let mut header = Vec::new();
    let read = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_until(b'\n', &mut header);
    let setup = started.elapsed().as_secs_f64();
    reap_group(child.id());
    child.wait()?;
    match read {
        Ok(n) if n > 0 && header.ends_with(b"\n") => Ok(setup),
        Ok(_) => Err(io::Error::other("exited before printing a line")),
        Err(e) => Err(e),
    }
}

/// Read the child's stdout to the end, noting when the first line (the
/// CSV header) arrived.
fn drain(stdout: impl Read, started: &WallSpan) -> io::Result<(Duration, Vec<u8>)> {
    let mut reader = BufReader::new(stdout);
    let mut out = Vec::new();
    reader.read_until(b'\n', &mut out)?;
    let setup = started.elapsed();
    reader.read_to_end(&mut out)?;
    Ok((setup, out))
}

/// Sample `VmHWM` until `stop` is set; return the largest value, KiB.
/// The first read waits one interval: reading `/proc/<pid>/status`
/// while the process starts up slows the start-up `setup_s` times.
fn poll_peak_rss_kb(pid: u32, stop: &AtomicBool) -> u64 {
    let path = format!("/proc/{pid}/status");
    let mut peak = 0;
    loop {
        std::thread::sleep(RSS_POLL);
        if stop.load(Ordering::Relaxed) {
            return peak;
        }
        if let Some(kb) = fs::read_to_string(&path).ok().and_then(|s| vm_hwm_kb(&s)) {
            peak = peak.max(kb);
        }
    }
}

fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Count the cells a run got wrong. A non-zero exit fails every cell;
/// otherwise failures are the cells the `runbms:` summary line reports
/// as not completed plus every CSV row that differs from the reference.
/// A run without a summary line fails every cell.
fn check_output(
    stdout: &[u8],
    reference: &[u8],
    status: ExitStatus,
    stderr: &str,
    cells: u64,
) -> (u64, Option<String>) {
    if !status.success() {
        return (cells, Some(format!("runbms exited with {status}")));
    }
    let Some((total, completed)) = summary_counts(stderr) else {
        return (
            cells,
            Some("no `runbms: N cell(s), M completed` line".to_string()),
        );
    };
    let rows_differing = differing_rows(stdout, reference);
    let failed = (total.saturating_sub(completed) + rows_differing).min(cells);
    let problem = (failed > 0).then(|| {
        format!(
            "{} cell(s) not completed, {rows_differing} CSV row(s) differ from the reference",
            total.saturating_sub(completed)
        )
    });
    (failed, problem)
}

/// Parse `runbms: N cell(s), M completed (...)`.
fn summary_counts(stderr: &str) -> Option<(u64, u64)> {
    stderr.lines().find_map(|line| {
        let rest = line.strip_prefix("runbms: ")?;
        let (total, rest) = rest.split_once(" cell(s), ")?;
        let (completed, _) = rest.split_once(" completed")?;
        Some((total.parse().ok()?, completed.parse().ok()?))
    })
}

/// Lines that differ between two CSVs, counting missing or extra lines.
pub fn differing_rows(actual: &[u8], reference: &[u8]) -> u64 {
    let actual: Vec<&[u8]> = actual.split_inclusive(|b| *b == b'\n').collect();
    let reference: Vec<&[u8]> = reference.split_inclusive(|b| *b == b'\n').collect();
    let common = actual
        .iter()
        .zip(&reference)
        .filter(|(a, r)| a != r)
        .count();
    (common + actual.len().abs_diff(reference.len())) as u64
}

/// Kill whatever is left in process group `pgid` and wait until it has
/// gone. Zombies count as gone: they hold no resources but a pid.
fn reap_group(pgid: u32) {
    if live_members(pgid) == 0 {
        return;
    }
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{pgid}")])
        .stderr(Stdio::null())
        .status();
    let waiting = WallSpan::begin();
    while live_members(pgid) > 0 && waiting.elapsed() < REAP_TIMEOUT {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Non-zombie processes whose process group is `pgid`.
fn live_members(pgid: u32) -> usize {
    let Ok(proc_dir) = fs::read_dir("/proc") else {
        return 0;
    };
    proc_dir
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            // Fields after the parenthesised command name: state, ppid, pgrp.
            let Some(close) = stat.rfind(')') else {
                return false;
            };
            let mut fields = stat[close + 1..].split_whitespace();
            let state = fields.next();
            let pgrp = fields.nth(1).and_then(|f| f.parse::<u32>().ok());
            pgrp == Some(pgid) && state != Some("Z")
        })
        .count()
}
