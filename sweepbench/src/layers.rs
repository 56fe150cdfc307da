//! The traced pass: time calls into each layer's public functions from
//! outside the program, keep every call as a span, and reduce the spans
//! to one number per layer boundary.
//!
//! Nothing here runs `runbms`; the probes drive the same library code the
//! binary links, on the workload's own matrix, so a change to a layer
//! moves its number here and its share of the end-to-end time there.

use crate::stats::{mean, median, quantile};
use crate::workloads::BlockingPath;
use chopin_analyzer::Methodology;
use chopin_core::sweep::SweepConfig;
use chopin_fleet::config::DEFAULT_LEASE_DEADLINE_MS;
use chopin_fleet::protocol::{self as wire, FleetFrame};
use chopin_fleet::{CellMerge, Grant, LeaseGrant, LeaseTable};
use chopin_harness::cli::Args;
use chopin_harness::journal::{CellKey, CellRecord, Journal, JournalEntry};
use chopin_harness::preflight::{plan_for_args, preflight_report};
use chopin_harness::supervisor::{
    cell_seed, policy_from_args, Cell, CellFailure, CellOutcome, CellRunner, SweepCellRunner,
};
use chopin_harness::SuiteSupervisor;
use chopin_obs::json;
use chopin_obs::ChromeTrace;
use chopin_sandbox::clock::WallSpan;
use chopin_sandbox::parent::RequestLimits;
use chopin_sandbox::protocol::{self as frames, Frame};
use chopin_sandbox::{ChildOutcome, SandboxPolicy, SandboxPool};
use chopin_workloads::WorkloadProfile;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Set on sandbox children the probe spawns; such a child answers with
/// an empty payload and exits (see [`worker_main`]).
pub const NOOP_WORKER_ENV: &str = "CHOPIN_SWEEPBENCH_NOOP_WORKER";

/// Children the sandbox probe spawns.
const SPAWNS: usize = 200;

/// Times the preflight probe plans the workload.
const PREFLIGHT_REPS: usize = 10;

/// Times the journal probe loads the replayed journal.
const LOADS: usize = 5;

/// Call first in `main` of any binary whose executable the sandbox probe
/// spawns: a child marked with [`NOOP_WORKER_ENV`] runs the sandbox
/// worker protocol with an empty handler, and any other sandbox or fleet
/// worker runs the harness's own worker loop. Returns only in the parent.
pub fn worker_main() {
    if std::env::var_os(NOOP_WORKER_ENV).is_some() {
        chopin_sandbox::worker::maybe_worker(|_| Ok(String::new()));
    }
    chopin_harness::worker_entry();
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer, named after the module called.
    pub layer: &'static str,
    /// Operation.
    pub name: &'static str,
    /// Schedule index of the cell the call served, if any.
    pub cell: Option<usize>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, microseconds after the tracer's origin.
    pub start_us: f64,
    /// End, microseconds after the tracer's origin.
    pub end_us: f64,
}

/// Collects spans in memory against one origin.
#[derive(Debug)]
pub struct Tracer {
    origin: WallSpan,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: WallSpan) -> Tracer {
        Tracer {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        WallSpan::begin().since(&self.origin).as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` as one span of `layer`.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_us = self.now_us();
        let value = f();
        let end_us = self.now_us();
        self.push(Span {
            layer,
            name,
            cell,
            parent,
            start_us,
            end_us,
        });
        value
    }

    /// Open a span that encloses others; close it with [`Tracer::close`].
    fn open(&self, layer: &'static str, name: &'static str) -> usize {
        let now = self.now_us();
        self.push(Span {
            layer,
            name,
            cell: None,
            parent: None,
            start_us: now,
            end_us: now,
        })
    }

    fn close(&self, id: usize) -> f64 {
        let now = self.now_us();
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans[id].end_us = now;
        (now - spans[id].start_us) / 1e6
    }

    /// Durations in microseconds of every `layer`/`name` span.
    fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no span writer panics");
        spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Every span recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span writer panics")
    }
}

/// A workload's matrix, read from its `runbms` arguments the way
/// `runbms` reads them.
#[derive(Debug)]
pub struct Matrix {
    /// The `runbms` arguments.
    pub args: Args,
    /// Benchmarks in schedule order.
    pub benchmarks: Vec<String>,
    /// Their profiles.
    pub profiles: Vec<WorkloadProfile>,
    /// Grid shape.
    pub config: SweepConfig,
    /// Cells in schedule order: benchmark, then collector, then factor.
    pub cells: Vec<Cell>,
}

impl Matrix {
    /// Parse `runbms` arguments into the matrix they run.
    ///
    /// # Errors
    ///
    /// An unknown benchmark or a malformed number.
    pub fn from_args(runbms_args: &[String]) -> Result<Matrix, String> {
        let args = Args::parse(runbms_args.iter().cloned());
        let benchmarks = args.list("b");
        let mut config = SweepConfig::default();
        config.invocations = args
            .get_or("invocations", config.invocations)
            .map_err(|e| e.to_string())?;
        config.iterations = args
            .get_or("iterations", config.iterations)
            .map_err(|e| e.to_string())?;
        let profiles = benchmarks
            .iter()
            .map(|b| chopin_workloads::suite::by_name(b).ok_or(format!("unknown benchmark `{b}`")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cells = Vec::new();
        for name in &benchmarks {
            for &collector in &config.collectors {
                for &heap_factor in &config.heap_factors {
                    cells.push(Cell {
                        benchmark: name.clone(),
                        collector,
                        heap_factor,
                    });
                }
            }
        }
        Ok(Matrix {
            args,
            benchmarks,
            profiles,
            config,
            cells,
        })
    }
}

fn journal_key(cell: &Cell) -> CellKey {
    CellKey {
        benchmark: cell.benchmark.clone(),
        collector: cell.collector,
        heap_factor: cell.heap_factor,
    }
}

fn key_of(cell: &Cell) -> (String, String, u64) {
    (
        cell.benchmark.clone(),
        cell.collector.to_string(),
        cell.heap_factor.to_bits(),
    )
}

/// The production thread-backend runner with a span around every cell,
/// keeping each outcome for the journal and codec probes.
struct TimingRunner {
    inner: SweepCellRunner,
    tracer: Arc<Tracer>,
    parent: usize,
    index: BTreeMap<(String, String, u64), usize>,
    completed: Mutex<Vec<(usize, CellOutcome)>>,
}

impl CellRunner for TimingRunner {
    fn run_cell(
        &self,
        profile: &WorkloadProfile,
        cell: &Cell,
        config: &SweepConfig,
    ) -> Result<CellOutcome, CellFailure> {
        let id = self.index.get(&key_of(cell)).copied();
        let outcome = self
            .tracer
            .time("runtime", "cell", id, Some(self.parent), || {
                self.inner.run_cell(profile, cell, config)
            });
        if let (Ok(outcome), Some(id)) = (&outcome, id) {
            let mut completed = self.completed.lock().expect("no runner panics");
            completed.push((id, outcome.clone()));
        }
        outcome
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }
}

/// What the traced pass found for one workload.
#[derive(Debug)]
pub struct LayerReport {
    /// One value per [`crate::workloads::PER_LAYER`] metric, in order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Checks made on the layers' outputs.
    pub checks: u64,
    /// Checks that failed, described.
    pub failures: Vec<String>,
}

struct Checks {
    made: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Run every layer probe on `matrix` and reduce the spans to per-layer
/// metrics. `sweep_s` and `setup_s` are the untraced end-to-end medians
/// of the same workload, the denominator of `trace.explained_frac`.
/// `worker_exe` is spawned as a no-op sandbox worker and must call
/// [`worker_main`] first; `dir` receives the replayed journal.
///
/// # Errors
///
/// A layer could not be set up at all (supervisor policy, journal file).
pub fn trace_layers(
    tracer: &Arc<Tracer>,
    matrix: &Matrix,
    path: BlockingPath,
    sweep_s: f64,
    setup_s: f64,
    worker_exe: &Path,
    dir: &Path,
) -> Result<LayerReport, String> {
    let mut checks = Checks {
        made: 0,
        failures: Vec::new(),
    };
    let cells = matrix.cells.len();
    let policy = policy_from_args(&matrix.args)?;

    // preflight: the plan runbms compiles and analyzes before any cell.
    for _ in 0..PREFLIGHT_REPS {
        let report = tracer.time("preflight", "plan", None, None, || {
            plan_for_args(
                "runbms",
                Methodology::Sweep,
                &matrix.benchmarks,
                &matrix.config,
                &matrix.args,
            )
            .map(|plan| preflight_report(&plan))
        });
        checks.expect(report.is_ok_and(|r| !r.has_errors()), || {
            "preflight rejected the workload's plan".to_string()
        });
    }

    // supervisor + runtime: the same matrix traced, between two untraced
    // runs whose mean is the baseline, so drift on the host cancels.
    let mut untraced = || -> Result<f64, String> {
        let span = WallSpan::begin();
        let plain = SuiteSupervisor::new(policy)
            .run(&matrix.profiles, &matrix.config)
            .map_err(|e| e.to_string())?;
        checks.expect(plain.is_clean(), || {
            "untraced supervisor run quarantined cells".into()
        });
        Ok(span.elapsed().as_secs_f64())
    };
    let untraced_before_s = untraced()?;

    let run_span = tracer.open("supervisor", "run");
    let runner = Arc::new(TimingRunner {
        inner: SweepCellRunner::new(),
        tracer: Arc::clone(tracer),
        parent: run_span,
        index: matrix
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (key_of(c), i))
            .collect(),
        completed: Mutex::new(Vec::new()),
    });
    let report = SuiteSupervisor::new(policy)
        .with_runner(Arc::clone(&runner) as Arc<dyn CellRunner>)
        .run(&matrix.profiles, &matrix.config)
        .map_err(|e| e.to_string())?;
    let traced_s = tracer.close(run_span);
    let untraced_s = (untraced_before_s + untraced()?) / 2.0;
    let completed = std::mem::take(&mut *runner.completed.lock().expect("no runner panics"));
    checks.expect(report.is_clean() && completed.len() == cells, || {
        format!(
            "traced supervisor run completed {} of {cells} cells",
            completed.len()
        )
    });

    let cell_us = tracer.durations_us("runtime", "cell");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells.max(1)) as f64;
    let busy_s = cell_us.iter().sum::<f64>() / 1e6;
    let runtime_s = busy_s / threads;
    let invocations: usize = completed.iter().map(|(_, o)| o.samples.len()).sum();
    let infeasible = completed
        .iter()
        .filter(|(_, o)| o.infeasible.is_some())
        .count();

    // journal: replay the workload's completions into a fresh file.
    let journal_path = dir.join("trace.journal");
    let names: Vec<&str> = matrix.benchmarks.iter().map(String::as_str).collect();
    let fingerprint = chopin_analyzer::sweep_fingerprint(&names, &matrix.config, "");
    let mut journal = Journal::create(&journal_path, fingerprint).map_err(|e| e.to_string())?;
    let mut bytes_written = 0u64;
    for (id, outcome) in &completed {
        let entry = JournalEntry {
            key: journal_key(&matrix.cells[*id]),
            record: CellRecord {
                samples: outcome.samples.clone(),
                infeasible: outcome.infeasible.clone(),
            },
            provenance: None,
        };
        let recorded = tracer.time("journal", "record", Some(*id), None, || {
            journal.record(entry)
        });
        checks.expect(recorded.is_ok(), || {
            format!("journal record of cell {id} failed")
        });
        bytes_written += fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
    }
    let text = fs::read_to_string(&journal_path).map_err(|e| e.to_string())?;
    let mut loaded = None;
    for _ in 0..LOADS {
        loaded = tracer
            .time("journal", "load", None, None, || {
                Journal::load(&journal_path)
            })
            .ok();
    }
    let loaded = loaded.ok_or("the replayed journal does not load")?;
    checks.expect(loaded.len() == cells, || {
        format!("replayed journal holds {} of {cells} cells", loaded.len())
    });
    for (id, cell) in matrix.cells.iter().enumerate() {
        let key = journal_key(cell);
        let found = tracer.time("journal", "lookup", Some(id), None, || {
            loaded.lookup(&key).is_some()
        });
        checks.expect(found, || format!("journal lookup missed cell {id}"));
    }

    // Each cell's journal line is its rendered response: the payload the
    // codec, sandbox frame and fleet wire probes carry.
    let mut lines = vec![String::new(); cells];
    for ((id, _), line) in completed.iter().zip(text.lines().skip(1)) {
        lines[*id] = line.to_string();
    }

    // codec
    for (id, line) in lines.iter().enumerate() {
        let decoded = tracer.time("codec", "decode", Some(id), None, || json::parse(line));
        checks.expect(decoded.is_ok(), || {
            format!("cell {id}'s journal line does not parse")
        });
    }
    let payload_bytes = mean(&lines.iter().map(|l| l.len() as f64).collect::<Vec<_>>());

    // sandbox: real children of this executable, doing no work.
    let pool = SandboxPool::new(worker_exe.to_path_buf(), SandboxPolicy::default())
        .env(NOOP_WORKER_ENV, "1");
    let mut child_rss = Vec::new();
    for i in 0..SPAWNS {
        let id = i * cells / SPAWNS;
        let child = tracer.time("sandbox", "spawn", Some(id), None, || {
            pool.run(&lines[id], RequestLimits::default())
        });
        checks.expect(matches!(child.outcome, ChildOutcome::Completed(_)), || {
            format!("no-op sandbox child ended {}", child.outcome.label())
        });
        if let Some(bytes) = child.peak_rss_bytes {
            child_rss.push(bytes as f64 / (1024.0 * 1024.0));
        }
    }
    for (id, line) in lines.iter().enumerate() {
        let frame = Frame::Ok(line.clone());
        let parsed = tracer.time("sandbox", "frame", Some(id), None, || {
            frames::parse(&frames::render(&frame))
        });
        checks.expect(parsed.as_ref() == Some(&frame), || {
            format!("sandbox frame of cell {id} does not round-trip")
        });
    }

    // fleet lease table: two workers, each holding one lease at a time.
    let seeds = matrix.cells.iter().map(cell_seed).collect();
    let mut table = LeaseTable::new(seeds, policy, DEFAULT_LEASE_DEADLINE_MS);
    let mut held: [Option<LeaseGrant>; 2] = [None, None];
    let mut now = 0u64;
    // Each cell needs one grant and one completion; far more steps than
    // that means the table stopped making progress.
    let step_limit = 8 * cells as u64 + 64;
    while !table.is_done() && now < step_limit {
        for (worker, slot) in held.iter_mut().enumerate() {
            if let Some(grant) = slot.take() {
                let payload = lines[grant.cell].clone();
                let merged = tracer.time("fleet.lease", "complete", Some(grant.cell), None, || {
                    table.complete(grant.lease, payload)
                });
                checks.expect(merged, || format!("lease {} was unknown", grant.lease));
            }
            let grant = tracer.time("fleet.lease", "grant", None, None, || {
                table.grant(worker as u64, now)
            });
            if let Grant::Lease(grant) = grant {
                *slot = Some(grant);
            }
            now += 1;
        }
    }
    checks.expect(table.is_done() && table.resolved_count() == cells, || {
        format!(
            "lease table resolved {} of {cells} cells",
            table.resolved_count()
        )
    });

    // fleet wire: a Lease and a Done frame per cell.
    let mut frame_bytes = Vec::new();
    for (id, line) in lines.iter().enumerate() {
        let sent = [
            FleetFrame::Lease {
                lease: id as u64,
                attempt: 1,
                payload: line.clone(),
            },
            FleetFrame::Done {
                worker: (id % 2) as u64,
                lease: id as u64,
                coord: 0x5eed,
                payload: line.clone(),
            },
        ];
        for frame in sent {
            let rendered = tracer.time("fleet.protocol", "render", Some(id), None, || {
                wire::render(&frame)
            });
            let parsed = tracer.time("fleet.protocol", "parse", Some(id), None, || {
                wire::parse(&rendered)
            });
            frame_bytes.push(rendered.len() as f64);
            checks.expect(parsed.as_ref() == Some(&frame), || {
                format!("fleet frame of cell {id} does not round-trip")
            });
        }
    }

    // fleet merge: a completion and its byte-identical duplicate.
    for (id, line) in lines.iter().enumerate() {
        let mut merge = CellMerge::new();
        let (first, duplicate) = (line.clone(), line.clone());
        tracer.time("fleet.merge", "offer", Some(id), None, || {
            merge.offer(1, 0, first)
        });
        tracer.time("fleet.merge", "offer", Some(id), None, || {
            merge.offer(1, 1, duplicate)
        });
        checks.expect(merge.winner() == Some((1, 0, line)), || {
            format!("merge of cell {id} picked the wrong winner")
        });
    }

    let us = |layer: &str, name: &str| tracer.durations_us(layer, name);
    let sum_s = |layer: &str, name: &str| us(layer, name).iter().sum::<f64>() / 1e6;
    let blocking_s = match path {
        BlockingPath::Runtime => runtime_s,
        BlockingPath::RuntimeJournal => runtime_s + sum_s("journal", "record"),
        BlockingPath::Resume => median(&us("journal", "load")) / 1e6 + sum_s("journal", "lookup"),
        BlockingPath::Process => {
            let spawn_s = mean(&us("sandbox", "spawn")) / 1e6 * cells as f64;
            runtime_s + (spawn_s + sum_s("sandbox", "frame")) / threads
        }
        BlockingPath::Fleet => {
            runtime_s
                + sum_s("fleet.lease", "grant")
                + sum_s("fleet.lease", "complete")
                + sum_s("fleet.protocol", "render")
                + sum_s("fleet.protocol", "parse")
                + sum_s("codec", "decode")
        }
    };
    let file_len = text.len() as f64;
    let metrics = vec![
        ("preflight.plan_ms", median(&us("preflight", "plan")) / 1e3),
        ("runtime.cell_ms_p50", quantile(&cell_us, 0.5) / 1e3),
        ("runtime.cell_ms_p99", quantile(&cell_us, 0.99) / 1e3),
        ("runtime.invocations", invocations as f64),
        ("runtime.infeasible_frac", infeasible as f64 / cells as f64),
        ("supervisor.busy_frac", busy_s / (threads * traced_s)),
        (
            "supervisor.overhead_ms_per_cell",
            (threads * traced_s - busy_s) / cells as f64 * 1e3,
        ),
        (
            "supervisor.retries",
            report.metrics.counter("supervisor.retries") as f64,
        ),
        (
            "journal.record_us_p50",
            quantile(&us("journal", "record"), 0.5),
        ),
        (
            "journal.record_us_p99",
            quantile(&us("journal", "record"), 0.99),
        ),
        (
            "journal.bytes_written_per_record",
            bytes_written as f64 / cells as f64,
        ),
        ("journal.file_kb", file_len / 1024.0),
        ("journal.load_ms", median(&us("journal", "load")) / 1e3),
        (
            "journal.lookup_us_p50",
            quantile(&us("journal", "lookup"), 0.5),
        ),
        (
            "sandbox.spawn_ms_p50",
            quantile(&us("sandbox", "spawn"), 0.5) / 1e3,
        ),
        (
            "sandbox.spawn_ms_p95",
            quantile(&us("sandbox", "spawn"), 0.95) / 1e3,
        ),
        ("sandbox.child_rss_mb", median(&child_rss)),
        (
            "sandbox.frame_us_p50",
            quantile(&us("sandbox", "frame"), 0.5),
        ),
        ("codec.payload_bytes", payload_bytes),
        ("codec.decode_us_p50", quantile(&us("codec", "decode"), 0.5)),
        (
            "fleet.lease.grant_us_p50",
            quantile(&us("fleet.lease", "grant"), 0.5),
        ),
        (
            "fleet.lease.complete_us_p50",
            quantile(&us("fleet.lease", "complete"), 0.5),
        ),
        (
            "fleet.protocol.render_us_p50",
            quantile(&us("fleet.protocol", "render"), 0.5),
        ),
        (
            "fleet.protocol.parse_us_p50",
            quantile(&us("fleet.protocol", "parse"), 0.5),
        ),
        ("fleet.protocol.frame_bytes", mean(&frame_bytes)),
        (
            "fleet.merge.offer_us_p50",
            quantile(&us("fleet.merge", "offer"), 0.5),
        ),
        ("trace.explained_frac", (blocking_s + setup_s) / sweep_s),
        ("trace.overhead_frac", traced_s / untraced_s - 1.0),
    ];
    Ok(LayerReport {
        metrics,
        checks: checks.made,
        failures: checks.failures,
    })
}

/// The first `limit` spans of each layer operation, in recording order.
/// `chopin_obs::json::parse` re-validates the rest of the document for
/// every string character, so validating an export of all of a
/// workload's ~15k spans would take a minute; a bounded sample keeps
/// every track and operation at a few seconds.
pub fn sample(spans: Vec<Span>, limit: usize) -> Vec<Span> {
    let mut seen: BTreeMap<(&'static str, &'static str), usize> = BTreeMap::new();
    spans
        .into_iter()
        .filter(|span| {
            let count = seen.entry((span.layer, span.name)).or_default();
            *count += 1;
            *count <= limit
        })
        .collect()
}

/// Render spans as a Chrome trace with one track per layer. Spans that
/// overlap in time (the supervisor's parallel cells) go on extra lanes
/// of the same track. The format has no arguments on span events, so a
/// span serving a cell opens with an instant of the same name carrying
/// the cell id.
pub fn chrome_trace(spans: &[Span]) -> ChromeTrace {
    let mut layers: Vec<&str> = Vec::new();
    for span in spans {
        if !layers.contains(&span.layer) {
            layers.push(span.layer);
        }
    }
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let mut trace = ChromeTrace::new();
    // Per layer, the end of the last span on each lane.
    let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    for span in order {
        let layer = layers
            .iter()
            .position(|l| *l == span.layer)
            .expect("collected above");
        let ends = &mut lanes[layer];
        let lane = match ends.iter().position(|end| *end <= span.start_us) {
            Some(lane) => lane,
            None => {
                ends.push(0.0);
                ends.len() - 1
            }
        };
        ends[lane] = span.end_us;
        let tid = (layer * 16 + lane + 1) as u32;
        trace.thread_name(tid, span.layer);
        if let Some(cell) = span.cell {
            trace.instant_with_args(tid, span.name, span.start_us, &[("cell", cell as f64)]);
        }
        trace.span(tid, span.name, span.start_us, span.end_us);
    }
    trace
}
