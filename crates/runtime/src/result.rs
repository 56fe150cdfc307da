//! Results of a simulated run.

use crate::config::RunConfig;
use crate::progress::ProgressTrace;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Why a run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The workload's live data cannot fit in the configured heap, or
    /// consecutive collections failed to reclaim usable space.
    OutOfMemory {
        /// Simulated time at which the failure was detected.
        at: SimTime,
        /// Live heap bytes at failure.
        live_bytes: f64,
        /// Configured heap capacity in bytes.
        capacity: f64,
    },
    /// The run exceeded the simulation's safety bounds (pathological GC
    /// thrash); treated as "cannot run in this heap", like the paper's
    /// missing data points at small heap multiples.
    GcThrash {
        /// Simulated time at which the bound tripped.
        at: SimTime,
        /// Collections completed before giving up.
        gc_count: u64,
    },
    /// The configuration failed validation.
    InvalidConfig(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::OutOfMemory {
                at,
                live_bytes,
                capacity,
            } => write!(
                f,
                "out of memory at {at}: {live_bytes:.0} live bytes in a {capacity:.0}-byte heap"
            ),
            RunError::GcThrash { at, gc_count } => {
                write!(f, "gc thrash at {at} after {gc_count} collections")
            }
            RunError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The complete, deterministic result of one simulated iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    workload: String,
    config: RunConfig,
    wall_time: SimDuration,
    telemetry: Telemetry,
    progress: ProgressTrace,
}

impl RunResult {
    /// Assemble a result (engine-internal).
    pub(crate) fn new(
        workload: String,
        config: RunConfig,
        wall_time: SimDuration,
        telemetry: Telemetry,
        progress: ProgressTrace,
    ) -> Self {
        RunResult {
            workload,
            config,
            wall_time,
            telemetry,
            progress,
        }
    }

    /// Name of the workload that ran.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The configuration the run used.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// End-to-end wall-clock time of the iteration.
    pub fn wall_time(&self) -> SimDuration {
        self.wall_time
    }

    /// Total CPU time summed over every thread — the simulation's
    /// `perf TASK_CLOCK` (Figure 1(b) "sums the running time of all threads
    /// in the process, indicating the total computational overhead").
    pub fn task_clock(&self) -> SimDuration {
        SimDuration::from_nanos(self.telemetry.task_clock_ns().round() as u64)
    }

    /// Telemetry: pauses, heap trace, clock accounting.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The mutator progress trace (drives request-latency extraction).
    pub fn progress(&self) -> &ProgressTrace {
        &self.progress
    }

    /// Wall time minus stop-the-world pause time: the LBO methodology's
    /// "easily attributable" subtraction on the wall clock.
    pub fn wall_minus_stw(&self) -> SimDuration {
        self.wall_time
            .saturating_sub(self.telemetry.total_pause_wall())
    }

    /// Task clock minus GC CPU performed during stop-the-world phases: the
    /// LBO subtraction on the task clock.
    pub fn task_clock_minus_stw(&self) -> SimDuration {
        SimDuration::from_nanos(
            (self.telemetry.task_clock_ns() - self.telemetry.gc_stw_cpu_ns)
                .max(0.0)
                .round() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;

    #[test]
    fn error_messages_are_informative() {
        let oom = RunError::OutOfMemory {
            at: SimTime::from_nanos(5),
            live_bytes: 100.0,
            capacity: 50.0,
        };
        assert!(oom.to_string().contains("out of memory"));
        let thrash = RunError::GcThrash {
            at: SimTime::ZERO,
            gc_count: 7,
        };
        assert!(thrash.to_string().contains("7 collections"));
        assert!(RunError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
    }

    #[test]
    fn lbo_subtractions_saturate() {
        let mut telemetry = Telemetry::new();
        telemetry.mutator_cpu_ns = 10.0;
        telemetry.gc_stw_cpu_ns = 50.0;
        let r = RunResult::new(
            "t".into(),
            RunConfig::new(1, CollectorKind::G1),
            SimDuration::from_nanos(100),
            telemetry,
            ProgressTrace::new(),
        );
        assert_eq!(r.task_clock(), SimDuration::from_nanos(60));
        assert_eq!(r.task_clock_minus_stw(), SimDuration::from_nanos(10));
        assert_eq!(r.wall_minus_stw(), SimDuration::from_nanos(100));
    }
}
