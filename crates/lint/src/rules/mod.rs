//! The rule catalogue, grouped into twelve families:
//!
//! * **R1xx** ([`nominal`]) — nominal-statistic completeness and ranges.
//! * **R2xx** ([`spec`]) — cross-field workload-spec consistency.
//! * **R3xx** ([`config`]) — heap/collector configuration feasibility.
//! * **R4xx** ([`methodology`]) — latency/LBO methodology sanity.
//! * **R5xx** ([`registry`]) — suite-registry invariants.
//! * **R6xx** ([`obs`]) — observability-configuration validity.
//! * **R7xx** ([`faults`]) — fault-plan and supervisor-policy validity.
//! * **R8xx** — plan pre-flight and artifact provenance. These rules are
//!   catalogued here (one registry, one severity model) but implemented by
//!   the `chopin-analyzer` crate, which compiles whole experiment plans
//!   into a typed PlanIR before checking them.
//! * **R9xx** — process-isolation (sandbox) configuration: resource-limit
//!   coverage, heartbeat-vs-deadline coherence, and hard-fault backend
//!   requirements. Also implemented by `chopin-analyzer`.
//! * **R10xx** — source-level determinism and soundness: a static pass
//!   over the workspace's *own Rust source* (hand-rolled lexer + scope
//!   tracker, no proc-macro dependency) enforcing the contracts the
//!   integration tests assume — no nondeterministic hash iteration, no
//!   raw wall-clock reads, confined `unsafe`, seeded-RNG-only, canonical
//!   float marshalling. Catalogued here, implemented by the
//!   `chopin-srclint` crate and run by `artifact srclint`.
//! * **R12xx** — fleet-protocol configuration: coordinator/worker
//!   sharding shape (worker count vs the cell matrix), lease deadlines
//!   vs the R808 cost bound, and isolation-model conflicts between
//!   per-cell hard faults and worker-kill storms. Catalogued here,
//!   implemented by `chopin-analyzer` and enforced pre-flight wherever
//!   `--fleet` is accepted.
//! * **R13xx** — fleet-protocol *behaviour*: the safety and bounded-
//!   liveness rules of the coordinator/worker lease protocol itself
//!   (single committed winner per cell, merge minimality against late
//!   results, durability across shard truncation, merged-journal
//!   determinism, drain liveness). Catalogued here, checked on every
//!   reachable state of the bounded state space by the `chopin-model`
//!   exhaustive checker and run by `artifact model --check`.
//! * **R14xx** — partition tolerance: the behaviour rules of the
//!   standby hand-off and authenticated transport (durability across a
//!   takeover, epoch fencing against split brain, token-gated
//!   admission — R1401–R1403, checked by `chopin-model` alongside the
//!   R13xx family) plus the pre-flight configuration rules for the
//!   seeded network-fault shim and standby registration (R1404–R1405,
//!   implemented by `chopin-analyzer` and enforced wherever
//!   `--net-faults`/`--fleet-standby` are accepted).

pub mod config;
pub mod faults;
pub mod methodology;
pub mod nominal;
pub mod obs;
pub mod registry;
pub mod spec;

use crate::diagnostic::Severity;

/// A rule's catalogue entry: stable id, severity and one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleDef {
    /// Stable identifier (`R101`…).
    pub id: &'static str,
    /// Severity of findings from this rule.
    pub severity: Severity,
    /// One-line summary of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the linter implements, in id order. Rendered by
/// `artifact lint --rules` and kept in sync with the rule modules by the
/// crate's tests.
pub const RULES: [RuleDef; 72] = [
    RuleDef {
        id: "R101",
        severity: Severity::Error,
        summary: "every required nominal metric is present for every benchmark (GML/GMV optional)",
    },
    RuleDef {
        id: "R102",
        severity: Severity::Error,
        summary: "nominal metric values are finite, and non-negative outside the signed PFS/PLS/UAI columns",
    },
    RuleDef {
        id: "R103",
        severity: Severity::Error,
        summary: "nominal scores lie in 0..=10",
    },
    RuleDef {
        id: "R104",
        severity: Severity::Error,
        summary: "rankings are valid competition rankings: ranks in 1..=of, best rank is 1",
    },
    RuleDef {
        id: "R105",
        severity: Severity::Error,
        summary: "the nominal dataset rows and the suite registry name the same benchmarks",
    },
    RuleDef {
        id: "R201",
        severity: Severity::Error,
        summary: "every size class of every profile builds a valid MutatorSpec",
    },
    RuleDef {
        id: "R202",
        severity: Severity::Error,
        summary: "request profiles are valid: positive count/workers, finite non-negative dispersion",
    },
    RuleDef {
        id: "R203",
        severity: Severity::Error,
        summary: "request workers do not exceed the request count",
    },
    RuleDef {
        id: "R204",
        severity: Severity::Error,
        summary: "the canonical latency-sensitive benchmarks (and only they) carry request profiles",
    },
    RuleDef {
        id: "R205",
        severity: Severity::Error,
        summary: "published minimum heaps are monotone: GMS <= GMD <= GML <= GMV, and GMU >= GMD",
    },
    RuleDef {
        id: "R206",
        severity: Severity::Error,
        summary: "allocation-rate and live-set curve parameters are positive and well-formed",
    },
    RuleDef {
        id: "R301",
        severity: Severity::Error,
        summary: "sweep heap factors are at least 1.0 x the minimum heap",
    },
    RuleDef {
        id: "R302",
        severity: Severity::Error,
        summary: "collector cost models validate: non-negative, in-range coefficients",
    },
    RuleDef {
        id: "R303",
        severity: Severity::Error,
        summary: "collector cycle state machines have no unreachable or dead states",
    },
    RuleDef {
        id: "R304",
        severity: Severity::Error,
        summary: "sweep collector lists and heap-factor grids are non-empty, finite and duplicate-free",
    },
    RuleDef {
        id: "R401",
        severity: Severity::Warn,
        summary: "the default smoothing window covers the mean request inter-arrival time",
    },
    RuleDef {
        id: "R402",
        severity: Severity::Warn,
        summary: "LBO heap-factor grids sample the generous-heap denominator (>= 2 factors, max >= 3x)",
    },
    RuleDef {
        id: "R403",
        severity: Severity::Error,
        summary: "percentile configurations are strictly ascending and lie in [0, 100)",
    },
    RuleDef {
        id: "R404",
        severity: Severity::Error,
        summary: "sweep invocation and iteration counts are positive",
    },
    RuleDef {
        id: "R501",
        severity: Severity::Error,
        summary: "the suite registers exactly 22 workloads",
    },
    RuleDef {
        id: "R502",
        severity: Severity::Error,
        summary: "workload names are unique",
    },
    RuleDef {
        id: "R503",
        severity: Severity::Error,
        summary: "the suite registry is sorted alphabetically by name",
    },
    RuleDef {
        id: "R504",
        severity: Severity::Warn,
        summary: "exactly 8 workloads are marked new-in-Chopin",
    },
    RuleDef {
        id: "R505",
        severity: Severity::Error,
        summary: "exactly 9 workloads are latency-sensitive",
    },
    RuleDef {
        id: "R601",
        severity: Severity::Error,
        summary: "trace/event export paths are writable-shaped files, not directories",
    },
    RuleDef {
        id: "R602",
        severity: Severity::Error,
        summary: "the event ring capacity is positive",
    },
    RuleDef {
        id: "R603",
        severity: Severity::Error,
        summary: "pause-histogram bucket bounds are positive and strictly increasing",
    },
    RuleDef {
        id: "R701",
        severity: Severity::Error,
        summary: "non-empty fault plans carry a non-zero seed (reproducible chaos)",
    },
    RuleDef {
        id: "R702",
        severity: Severity::Error,
        summary: "fault magnitudes are finite and within their documented ranges",
    },
    RuleDef {
        id: "R703",
        severity: Severity::Error,
        summary: "fault windows have positive duration, lie within the run horizon and stay under the window cap",
    },
    RuleDef {
        id: "R704",
        severity: Severity::Error,
        summary: "supervisor retry/backoff/deadline budgets are positive and bounded",
    },
    RuleDef {
        id: "R801",
        severity: Severity::Error,
        summary: "every benchmark x collector pair has at least one feasible heap cell in the sweep grid",
    },
    RuleDef {
        id: "R802",
        severity: Severity::Warn,
        summary: "individual sweep cells below the collector-adjusted minimum heap are flagged as predictably infeasible",
    },
    RuleDef {
        id: "R803",
        severity: Severity::Error,
        summary: "the latency methodology only targets latency-sensitive benchmarks",
    },
    RuleDef {
        id: "R804",
        severity: Severity::Error,
        summary: "timed iterations exist beyond iteration 0 (a single iteration measures cold start as steady state)",
    },
    RuleDef {
        id: "R805",
        severity: Severity::Warn,
        summary: "residual warmup at the timed iteration is below the steady-state threshold",
    },
    RuleDef {
        id: "R806",
        severity: Severity::Error,
        summary: "fault windows start within reach of the planned run (no dead fault plans)",
    },
    RuleDef {
        id: "R807",
        severity: Severity::Warn,
        summary: "fault windows do not blanket the whole run (always-on faults are a baseline, not a perturbation)",
    },
    RuleDef {
        id: "R808",
        severity: Severity::Error,
        summary: "per-cell cost lower bounds fit inside the supervisor's cell deadline",
    },
    RuleDef {
        id: "R809",
        severity: Severity::Warn,
        summary: "long sweeps (over 24h estimated) run with a crash-safe journal",
    },
    RuleDef {
        id: "R810",
        severity: Severity::Error,
        summary: "result artifacts parse as a runbms CSV or a sweep journal",
    },
    RuleDef {
        id: "R811",
        severity: Severity::Error,
        summary: "result artifacts match the plan that claims them: fingerprint, benchmarks, collectors, heap factors, sample counts",
    },
    RuleDef {
        id: "R812",
        severity: Severity::Error,
        summary: "result rows satisfy measurement invariants: finite positive times, distillable <= total, LBO curves >= 1",
    },
    RuleDef {
        id: "R813",
        severity: Severity::Warn,
        summary: "artifacts cover every feasible planned cell (incomplete runs are resumable, not publishable)",
    },
    RuleDef {
        id: "R901",
        severity: Severity::Error,
        summary: "an explicit sandbox RLIMIT_AS override must cover every feasible cell's heap plus the worker base (fix: raise --rlimit-as-mb or drop it to derive limits per cell)",
    },
    RuleDef {
        id: "R902",
        severity: Severity::Error,
        summary: "the sandbox heartbeat timeout (interval x grace) must fire before the cell deadline, or wedged cells are never detected (fix: lower --heartbeat-ms or raise --cell-deadline)",
    },
    RuleDef {
        id: "R903",
        severity: Severity::Error,
        summary: "hard-fault injection (kill/abort/oom) requires process isolation; under threads the first victim kills the whole sweep (fix: add --isolation process)",
    },
    RuleDef {
        id: "R1001",
        severity: Severity::Error,
        summary: "no HashMap/HashSet in non-test workspace source: hash iteration order is nondeterministic and leaks into CSV/journal/fingerprint bytes (use BTreeMap/BTreeSet or a sorted drain)",
    },
    RuleDef {
        id: "R1002",
        severity: Severity::Error,
        summary: "wall-clock reads (Instant::now/SystemTime::now) only inside the SupervisorClock/WallSpan abstractions",
    },
    RuleDef {
        id: "R1003",
        severity: Severity::Error,
        summary: "thread::spawn only in the supervision layer (crates/sandbox, the harness supervisor and its sandbox glue)",
    },
    RuleDef {
        id: "R1004",
        severity: Severity::Error,
        summary: "persisted-artifact writers marshal floats via shortest-round-trip Debug formatting, never fixed-precision or scientific specs",
    },
    RuleDef {
        id: "R1005",
        severity: Severity::Error,
        summary: "`unsafe` is confined to crates/sandbox (the workspace's one audited FFI boundary)",
    },
    RuleDef {
        id: "R1006",
        severity: Severity::Error,
        summary: "std::process::exit only in bin entry points: library code returns exit codes so callers keep destructors and journals intact",
    },
    RuleDef {
        id: "R1007",
        severity: Severity::Error,
        summary: "no ambient entropy (thread_rng/from_entropy/OsRng/rand::random): every random stream flows from an explicit seed",
    },
    RuleDef {
        id: "R1008",
        severity: Severity::Error,
        summary: "#[allow(...)] attributes carry an adjacent justification comment (same line or the line above)",
    },
    RuleDef {
        id: "R1009",
        severity: Severity::Error,
        summary: "the srclint engine, this catalogue and the README rule table agree: no rule is implemented but uncatalogued, catalogued but unimplemented, or undocumented",
    },
    RuleDef {
        id: "R1010",
        severity: Severity::Error,
        summary: "srclint:allow suppressions are themselves linted: well-formed, carry a reason, name known rules and suppress at least one finding",
    },
    RuleDef {
        id: "R1011",
        severity: Severity::Error,
        summary: "no dbg!/todo!/unimplemented! in non-test code",
    },
    RuleDef {
        id: "R1012",
        severity: Severity::Error,
        summary: "float orderings use total_cmp, not partial_cmp().unwrap(): a NaN must not panic the sweep mid-suite",
    },
    RuleDef {
        id: "R1201",
        severity: Severity::Error,
        summary: "the fleet worker count fits the plan: at least 1, at most 256, and no more workers than cells in the sweep matrix",
    },
    RuleDef {
        id: "R1202",
        severity: Severity::Error,
        summary: "the lease deadline covers the R808 cost lower bound of the slowest feasible cell: a lease that must expire is a reassignment storm, not a safety net",
    },
    RuleDef {
        id: "R1203",
        severity: Severity::Error,
        summary: "per-cell hard faults (--hard-faults) are not combined with a fleet: workers run cells without the sandbox backstop; storm workers instead (--fleet-storm)",
    },
    RuleDef {
        id: "R1301",
        severity: Severity::Error,
        summary: "no cell is committed to the base journal by two winners: every cell has at most one sealed row",
    },
    RuleDef {
        id: "R1302",
        severity: Severity::Error,
        summary: "the merge winner is the (attempt, worker)-minimal candidate ever offered: a generation-checked late result never overwrites an established winner",
    },
    RuleDef {
        id: "R1303",
        severity: Severity::Error,
        summary: "no completed cell is lost between shard truncation and base-journal persist: every durable completion survives in the base, a shard, or the live coordinator",
    },
    RuleDef {
        id: "R1304",
        severity: Severity::Error,
        summary: "the merged journal is deterministic: every committed payload and every drained resolution is the pure function of the sweep matrix",
    },
    RuleDef {
        id: "R1305",
        severity: Severity::Error,
        summary: "bounded liveness under fairness: every reachable state can still drain (every cell reaches Done or quarantine; no drain deadlock)",
    },
    RuleDef {
        id: "R1401",
        severity: Severity::Error,
        summary: "no committed result is lost across a coordinator hand-off: the standby's takeover absorbs base + shards before serving the next epoch",
    },
    RuleDef {
        id: "R1402",
        severity: Severity::Error,
        summary: "single active coordinator epoch: frames echoing a dead incarnation's nonce are fenced, never applied to the live lease table",
    },
    RuleDef {
        id: "R1403",
        severity: Severity::Error,
        summary: "token-gated admission both ways: a wrong or missing --fleet-token is refused at @hello, and the run's own token is always admitted",
    },
    RuleDef {
        id: "R1404",
        severity: Severity::Error,
        summary: "net-fault injection needs a fleet and headroom: --net-faults requires --fleet, and the plan's injected delay ceiling must stay under the lease deadline",
    },
    RuleDef {
        id: "R1405",
        severity: Severity::Error,
        summary: "a standby coordinator needs a journal: --fleet-standby requires --journal pointing at the primary's journal so a takeover can absorb it",
    },
];

/// Look up a rule's catalogue entry by id.
pub fn rule(id: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.id == id)
}

/// Render the catalogue as the table printed by `artifact lint --rules`:
/// one row per rule with its severity and summary.
pub fn render_catalogue() -> String {
    let mut out = String::new();
    out.push_str("rule  severity  summary\n");
    for r in &RULES {
        out.push_str(&format!(
            "{:<5} {:<9} {}\n",
            r.id,
            r.severity.label(),
            r.summary
        ));
    }
    out
}
