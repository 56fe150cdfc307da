//! The five workloads and the metric catalogue, shared by the driver,
//! `BENCHMARK.json` and the tests that keep the two in step.

use chopin_core::Suite;

/// Which layers lie on a workload's blocking path, i.e. which layer sums
/// `trace.explained_frac` adds up for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingPath {
    /// Engine only.
    Runtime,
    /// Engine plus the serialized journal rewrite of every cell.
    RuntimeJournal,
    /// Journal load plus one lookup per cell; no cell runs.
    Resume,
    /// Engine plus child spawn and frame codec per cell.
    Process,
    /// Engine plus lease table, wire protocol and response codec.
    Fleet,
}

/// One benchmark workload: a closed-loop batch sweep of the paper's grid
/// (22 benchmarks × 5 collectors × 11 heap factors).
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Flags that shape the grid; the sequential reference run uses only
    /// these.
    pub grid: &'static [&'static str],
    /// Supervisor flags that select the execution path under test.
    pub supervisor: &'static [&'static str],
    /// The layers its wall time should decompose into.
    pub path: BlockingPath,
}

/// Journal written fresh by every `sweep-journal` run.
pub const SWEEP_JOURNAL: &str = "results/bench/j";

/// Complete journal that `resume` runs replay; written during set-up.
pub const RESUME_JOURNAL: &str = "results/bench/resume.journal";

/// Cells in every workload's grid.
pub const CELLS: u64 = 22 * 5 * 11;

/// Every workload, in the order a multi-workload run interleaves them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sweep-thread",
        why: "The paper's grid at 10 invocations under thread isolation; the engine does over 90% of the work, so runtime and scheduler changes show here and journal, spawn and wire changes do not.",
        grid: &["--invocations", "10"],
        supervisor: &["--isolation", "thread"],
        path: BlockingPath::Runtime,
    },
    Workload {
        name: "sweep-journal",
        why: "Thread sweep with a journal; every cell rewrites and fsyncs the whole file, about 2/3 of wall time, so journal-write changes show here and nowhere else.",
        grid: &[],
        supervisor: &["--isolation", "thread", "--journal", SWEEP_JOURNAL],
        path: BlockingPath::RuntimeJournal,
    },
    Workload {
        name: "resume",
        why: "Resume from a complete 10-invocation journal; no cell runs, so journal load, parse and lookup are the whole cost, and cost moved from journal writes to reads shows.",
        grid: &["--invocations", "10"],
        supervisor: &["--isolation", "thread", "--journal", RESUME_JOURNAL, "--resume"],
        path: BlockingPath::Resume,
    },
    Workload {
        name: "sweep-process",
        why: "1210 sandboxed child processes; spawn, handshake and the 5 ms SandboxPool poll are most of wall time, so process-isolation changes show here.",
        grid: &[],
        supervisor: &["--isolation", "process"],
        path: BlockingPath::Process,
    },
    Workload {
        name: "sweep-fleet",
        why: "Two fleet workers over loopback TCP; the only workload that crosses the lease table, wire protocol and fleet codec, so it guards coordinator and codec refactors.",
        grid: &[],
        supervisor: &["--fleet", "2"],
        path: BlockingPath::Fleet,
    },
];

/// Look a workload up by name.
pub(crate) fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `runbms` arguments of the sequential reference run.
    pub fn reference_args(&self, benchmarks: &[&str]) -> Vec<String> {
        with_benchmarks(benchmarks, self.grid.iter())
    }

    /// `runbms` arguments of one timed run.
    pub fn run_args(&self, benchmarks: &[&str]) -> Vec<String> {
        with_benchmarks(benchmarks, self.grid.iter().chain(self.supervisor))
    }

    /// `runbms` arguments of the set-up run that writes the journal a
    /// resuming workload replays, or `None` for other workloads.
    pub fn journal_setup_args(&self, benchmarks: &[&str]) -> Option<Vec<String>> {
        self.supervisor.contains(&"--resume").then(|| {
            let flags = self.grid.iter().chain(self.supervisor);
            with_benchmarks(benchmarks, flags.filter(|f| **f != "--resume"))
        })
    }
}

fn with_benchmarks<'a>(
    benchmarks: &[&str],
    flags: impl Iterator<Item = &'a &'a str>,
) -> Vec<String> {
    let mut args = vec!["-b".to_string(), benchmarks.join(",")];
    args.extend(flags.map(|f| f.to_string()));
    args
}

/// One step of the splitmix64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The suite's 22 benchmark names in the order seed `seed` gives them: a
/// Fisher–Yates shuffle driven by splitmix64. The order changes
/// scheduling, lease, journal and tail order, never a simulated result.
pub fn permutation(seed: u64) -> Vec<&'static str> {
    let mut names = Suite::chopin().names();
    let mut state = seed;
    for i in (1..names.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        names.swap(i, j);
    }
    names
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for layers.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of `runbms` sees, measured with tracing off. The timing
/// bounds are wide because a 2-vCPU shared host shifts whole runs by up
/// to ~15% (see the README); RSS is steadier.
pub const END_TO_END: [Metric; 4] = [
    e2e("sweep_s", "s", Better::Lower, 0.25),
    e2e("cells_per_s", "cells/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// One number per layer boundary, from the separate traced pass.
pub const PER_LAYER: [Metric; 28] = [
    layer("preflight.plan_ms", "ms", Better::Lower),
    layer("runtime.cell_ms_p50", "ms", Better::Lower),
    layer("runtime.cell_ms_p99", "ms", Better::Lower),
    layer("runtime.invocations", "count", Better::Higher),
    layer("runtime.infeasible_frac", "ratio", Better::Lower),
    layer("supervisor.busy_frac", "ratio", Better::Higher),
    layer("supervisor.overhead_ms_per_cell", "ms", Better::Lower),
    layer("supervisor.retries", "count", Better::Lower),
    layer("journal.record_us_p50", "us", Better::Lower),
    layer("journal.record_us_p99", "us", Better::Lower),
    layer("journal.bytes_written_per_record", "B", Better::Lower),
    layer("journal.file_kb", "KiB", Better::Lower),
    layer("journal.load_ms", "ms", Better::Lower),
    layer("journal.lookup_us_p50", "us", Better::Lower),
    layer("sandbox.spawn_ms_p50", "ms", Better::Lower),
    layer("sandbox.spawn_ms_p95", "ms", Better::Lower),
    layer("sandbox.child_rss_mb", "MiB", Better::Lower),
    layer("sandbox.frame_us_p50", "us", Better::Lower),
    layer("codec.payload_bytes", "B", Better::Lower),
    layer("codec.decode_us_p50", "us", Better::Lower),
    layer("fleet.lease.grant_us_p50", "us", Better::Lower),
    layer("fleet.lease.complete_us_p50", "us", Better::Lower),
    layer("fleet.protocol.render_us_p50", "us", Better::Lower),
    layer("fleet.protocol.parse_us_p50", "us", Better::Lower),
    layer("fleet.protocol.frame_bytes", "B", Better::Lower),
    layer("fleet.merge.offer_us_p50", "us", Better::Lower),
    layer("trace.explained_frac", "ratio", Better::Higher),
    layer("trace.overhead_frac", "ratio", Better::Lower),
];
