//! Experiment harness for the chopin reproduction — the analog of the
//! paper artifact's `running-ng` workflow (appendix A).
//!
//! The harness turns the core methodology layer into runnable experiments:
//!
//! * [`experiments`] — one entry point per paper figure/table: the LBO
//!   sweeps of Figures 1 and 5, the latency panels of Figures 3 and 6, the
//!   Figure 4 PCA, Tables 1–2, the appendix nominal-statistics tables and
//!   post-GC heap traces.
//! * [`plot`] — terminal charts, tables and CSV emission.
//! * [`cli`] — the tiny flag parser the binaries share.
//! * [`presets`] — the artifact appendix's experiment presets
//!   (kick-the-tires / lbo / latency).
//! * [`lint`] — the `artifact lint` static-validation pass: the
//!   [`chopin_lint`] rule catalogue over the suite plus every preset
//!   configuration above.
//! * [`preflight`] — the default pre-flight gate: every binary compiles
//!   its command line into a [`chopin_analyzer::PlanIR`] and refuses to
//!   start a statically-broken experiment (`--no-preflight` to bypass);
//!   also the named plan registry behind `artifact analyze`.
//! * [`obs`] — `--trace-out`/`--events-out` plumbing: observed runs with
//!   the engine's [`chopin_obs`] tracing hook attached, harness wall-time
//!   spans, and Perfetto-compatible export (`artifact trace`).
//! * [`output`] — the results folder the artifact workflow writes into.
//! * [`supervisor`] — the one sweep scheduler every sweep but the
//!   sequential reference runs on: per-cell panic isolation, deadlines,
//!   retry with jittered backoff, quarantine reports and deterministic
//!   fault injection (`--faults`).
//! * [`sandbox`] — process-isolated cell execution (`--isolation
//!   process`): sandboxed worker children with derived resource limits,
//!   the crash taxonomy (signals, OOM kills, lost heartbeats), hard-fault
//!   injection (`--hard-faults kill|abort|oom`) and crash-report JSONL.
//! * [`journal`] — the supervisor's crash-safe completed-cell journal
//!   backing `--resume`, plus quarantine verdict records.
//! * `codec` — the one cell-record codec: requests, responses,
//!   quarantine reasons, journal lines and crash reports, as they cross
//!   the sandbox pipe, the fleet wire and the journal.
//! * [`model`] — the `artifact model` driver: the [`chopin_model`]
//!   bounded exhaustive checker over the fleet lease protocol (rules
//!   R1301–R1305), with minimal counterexample traces and the seeded
//!   `lost-lease` demo.
//! * [`validate`] — the reproduction scorecard: re-verify the paper's
//!   headline claims with fresh measurements (`artifact validate`).
//!
//! Binaries (see `src/bin`): `lbo`, `latency`, `pca`, `nominal`,
//! `heaptrace`, `runbms`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod codec;
pub mod experiments;
pub mod fleet;
pub mod journal;
pub mod lint;
pub mod model;
pub mod obs;
pub mod output;
pub mod plot;
pub mod preflight;
pub mod presets;
pub mod sandbox;
pub mod supervisor;
pub mod validate;

pub use experiments::{
    heap_trace, nominal_table, pca_figure, resolve_profiles, table1, table2, ExperimentError,
    LatencyExperiment, LboExperiment,
};
pub use obs::{observe_benchmark, ObsOptions, ObservedRun, SpanSink};
pub use presets::Preset;
pub use sandbox::{worker_entry, CrashReport, IsolationMode, ProcessCellRunner};
pub use supervisor::{
    CellFailure, QuarantineEntry, QuarantineReason, SuiteReport, SuiteSupervisor, SuperviseError,
};
