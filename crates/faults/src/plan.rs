//! Fault plans: the validated, seeded schedule of injected faults.
//!
//! A plan is pure data — a seed plus a list of [`FaultWindow`]s — and
//! construction is unchecked. The lint crate's rules R701–R703
//! (`chopin_lint::lint_fault_plan`) hold its constraints, so bad plans
//! are rejected by `artifact lint` before a single slice executes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Widest credible magnitude for multiplicative fault factors; beyond this
/// a plan is more likely a units mistake than an experiment.
pub const MAX_FAULT_FACTOR: f64 = 1000.0;

/// Most windows a single plan may schedule (the engine scans active
/// windows every slice, so an unbounded plan is a performance fault of
/// its own).
pub const MAX_WINDOWS: usize = 4096;

/// One kind of injected fault, with its magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Multiply the workload's allocation rate by `factor` (> 1 spikes it)
    /// while the window is open — a promotion burst or a logging storm.
    AllocSpike {
        /// Multiplier applied to bytes allocated per unit of useful work.
        factor: f64,
    },
    /// Transiently squeeze the usable heap: `fraction` of capacity
    /// (0 < fraction < 1) becomes unusable — a co-tenant balloon, an
    /// off-heap mapping, a container limit clamp.
    HeapSqueeze {
        /// Fraction of heap capacity removed while the window is open.
        fraction: f64,
    },
    /// Slow GC threads by `factor` (>= 1): concurrent work drains slower
    /// and stop-the-world pauses stretch — a noisy neighbour stealing the
    /// collector's cores.
    GcSlowdown {
        /// Divisor applied to collector thread speed.
        factor: f64,
    },
    /// A scheduled pacing-stall storm: the mutator throttle is capped at
    /// `throttle` (0.0 = hard allocation stall) while the window is open.
    StallStorm {
        /// Upper bound imposed on the mutator throttle factor
        /// (1.0 = none, 0.0 = full stall).
        throttle: f64,
    },
    /// Force collections triggered inside the window to run as degenerate
    /// full stop-the-world collections — the concurrent collector's worst
    /// fallback, on demand.
    ForceDegenerate,
}

impl FaultKind {
    /// Every kind, in bit order — the canonical iteration order for
    /// per-kind bookkeeping.
    pub const COUNT: usize = 5;

    /// Stable lower-snake label used in exports and the GC log.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::AllocSpike { .. } => "alloc_spike",
            FaultKind::HeapSqueeze { .. } => "heap_squeeze",
            FaultKind::GcSlowdown { .. } => "gc_slowdown",
            FaultKind::StallStorm { .. } => "stall_storm",
            FaultKind::ForceDegenerate => "force_degenerate",
        }
    }

    /// The magnitude the kind carries (1.0 for [`FaultKind::ForceDegenerate`]).
    pub fn magnitude(&self) -> f64 {
        match *self {
            FaultKind::AllocSpike { factor } => factor,
            FaultKind::HeapSqueeze { fraction } => fraction,
            FaultKind::GcSlowdown { factor } => factor,
            FaultKind::StallStorm { throttle } => throttle,
            FaultKind::ForceDegenerate => 1.0,
        }
    }

    /// Rebuild a kind from its [`FaultKind::label`] and
    /// [`FaultKind::magnitude`] — the inverse used when plans are
    /// marshalled across a process boundary. Returns `None` for an
    /// unknown label.
    pub fn from_parts(label: &str, magnitude: f64) -> Option<FaultKind> {
        match label {
            "alloc_spike" => Some(FaultKind::AllocSpike { factor: magnitude }),
            "heap_squeeze" => Some(FaultKind::HeapSqueeze {
                fraction: magnitude,
            }),
            "gc_slowdown" => Some(FaultKind::GcSlowdown { factor: magnitude }),
            "stall_storm" => Some(FaultKind::StallStorm {
                throttle: magnitude,
            }),
            "force_degenerate" => Some(FaultKind::ForceDegenerate),
            _ => None,
        }
    }

    /// The kind's position in per-kind bookkeeping arrays (0..[`FaultKind::COUNT`]).
    pub fn index(&self) -> usize {
        match self {
            FaultKind::AllocSpike { .. } => 0,
            FaultKind::HeapSqueeze { .. } => 1,
            FaultKind::GcSlowdown { .. } => 2,
            FaultKind::StallStorm { .. } => 3,
            FaultKind::ForceDegenerate => 4,
        }
    }

    /// The kind's bit in an active-fault mask.
    pub fn bit(&self) -> u8 {
        1 << self.index()
    }

    /// The magnitude constraint violated by this kind, if any (lint rule
    /// R702).
    pub fn magnitude_error(&self) -> Option<String> {
        match *self {
            FaultKind::AllocSpike { factor } | FaultKind::GcSlowdown { factor } => {
                if !factor.is_finite() || factor <= 0.0 {
                    Some(format!("factor {factor} must be finite and positive"))
                } else if factor > MAX_FAULT_FACTOR {
                    Some(format!("factor {factor} exceeds {MAX_FAULT_FACTOR}"))
                } else {
                    None
                }
            }
            FaultKind::HeapSqueeze { fraction } => {
                if !fraction.is_finite() || !(0.0..1.0).contains(&fraction) || fraction == 0.0 {
                    Some(format!("fraction {fraction} must be finite and in (0, 1)"))
                } else {
                    None
                }
            }
            FaultKind::StallStorm { throttle } => {
                if !throttle.is_finite() || !(0.0..1.0).contains(&throttle) {
                    Some(format!("throttle {throttle} must be finite and in [0, 1)"))
                } else {
                    None
                }
            }
            FaultKind::ForceDegenerate => None,
        }
    }
}

/// One scheduled fault: a kind active over `[start_ns, end_ns)` of
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Simulated nanosecond at which the fault engages (inclusive).
    pub start_ns: u64,
    /// Simulated nanosecond at which the fault clears (exclusive).
    pub end_ns: u64,
    /// What the fault does while active.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window is open at simulated time `now_ns`.
    pub fn active_at(&self, now_ns: u64) -> bool {
        self.start_ns <= now_ns && now_ns < self.end_ns
    }
}

/// A plan failed validation: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// The offending field (e.g. `seed`, `windows[3].end_ns`).
    pub field: String,
    /// Human-readable constraint violation.
    pub reason: String,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic, seeded schedule of fault windows.
///
/// # Examples
///
/// ```
/// use chopin_faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(42)
///     .with_window(1_000_000, 5_000_000, FaultKind::AllocSpike { factor: 4.0 })
///     .with_storm(FaultKind::StallStorm { throttle: 0.0 }, 100_000_000, 8, 0.2);
/// assert_eq!(plan.windows.len(), 9);
/// // Same seed, same plan — storms are deterministic.
/// let again = FaultPlan::new(42)
///     .with_window(1_000_000, 5_000_000, FaultKind::AllocSpike { factor: 4.0 })
///     .with_storm(FaultKind::StallStorm { throttle: 0.0 }, 100_000_000, 8, 0.2);
/// assert_eq!(plan, again);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for deterministic storm generation. Must be non-zero for a
    /// non-empty plan (rule R701): a zero seed is almost always an
    /// unset-field bug, and silently "working" would make the campaign
    /// unreproducible in exactly the way this crate exists to prevent.
    pub seed: u64,
    /// The scheduled fault windows.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan with the given storm seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Append one explicit window.
    #[must_use]
    pub fn with_window(mut self, start_ns: u64, end_ns: u64, kind: FaultKind) -> FaultPlan {
        self.windows.push(FaultWindow {
            start_ns,
            end_ns,
            kind,
        });
        self
    }

    /// Append a deterministic storm: `count` windows of `kind` spread over
    /// `[0, horizon_ns)`, each occupying `duty` (0..1] of its equal share
    /// of the horizon at a seed-jittered offset.
    ///
    /// The storm derives from the plan seed, the kind and the number of
    /// windows already present, so identical builder chains produce
    /// identical plans.
    #[must_use]
    pub fn with_storm(
        mut self,
        kind: FaultKind,
        horizon_ns: u64,
        count: u32,
        duty: f64,
    ) -> FaultPlan {
        if count == 0 || horizon_ns == 0 {
            return self;
        }
        let mut rng = SmallRng::seed_from_u64(
            self.seed ^ (kind.bit() as u64) << 32 ^ self.windows.len() as u64,
        );
        let segment = horizon_ns / count as u64;
        let width = ((segment as f64 * duty.clamp(0.0, 1.0)) as u64).max(1);
        for i in 0..count as u64 {
            let slack = segment.saturating_sub(width);
            let jitter = if slack > 0 {
                rng.gen::<u64>() % slack
            } else {
                0
            };
            let start = i * segment + jitter;
            let end = (start + width).min(horizon_ns);
            if end > start {
                self.windows.push(FaultWindow {
                    start_ns: start,
                    end_ns: end,
                    kind,
                });
            }
        }
        self
    }

    /// The latest scheduled fault boundary, if any.
    pub fn horizon(&self) -> Option<u64> {
        self.windows.iter().map(|w| w.end_ns).max()
    }

    /// The earliest scheduled fault start, if any — the simulated time a
    /// run must reach before the plan perturbs anything at all.
    pub fn first_start_ns(&self) -> Option<u64> {
        self.windows.iter().map(|w| w.start_ns).min()
    }

    /// The windows whose start lies inside `[0, horizon_ns)` — the ones a
    /// run of that simulated length can actually observe engaging.
    pub fn reachable_windows(&self, horizon_ns: u64) -> usize {
        self.windows
            .iter()
            .filter(|w| w.start_ns < horizon_ns)
            .count()
    }

    /// Simulated nanoseconds of `[0, horizon_ns)` covered by at least one
    /// window — the union of the clipped window intervals, so overlapping
    /// windows are not double-counted. Pre-flight analysis uses this to
    /// tell a perturbation from an always-on regime change.
    ///
    /// # Examples
    ///
    /// ```
    /// use chopin_faults::{FaultKind, FaultPlan};
    ///
    /// let plan = FaultPlan::new(1)
    ///     .with_window(0, 60, FaultKind::ForceDegenerate)
    ///     .with_window(40, 100, FaultKind::ForceDegenerate); // overlaps by 20
    /// assert_eq!(plan.coverage_ns_within(100), 100);
    /// assert_eq!(plan.coverage_ns_within(50), 50);
    /// ```
    pub fn coverage_ns_within(&self, horizon_ns: u64) -> u64 {
        let mut spans: Vec<(u64, u64)> = self
            .windows
            .iter()
            .filter(|w| w.start_ns < horizon_ns && w.end_ns > w.start_ns)
            .map(|w| (w.start_ns, w.end_ns.min(horizon_ns)))
            .collect();
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut open: Option<(u64, u64)> = None;
        for (start, end) in spans {
            match open {
                Some((_, open_end)) if start <= open_end => {
                    open = open.map(|(s, e)| (s, e.max(end)));
                }
                Some((open_start, open_end)) => {
                    covered += open_end - open_start;
                    open = Some((start, end));
                }
                None => open = Some((start, end)),
            }
        }
        if let Some((s, e)) = open {
            covered += e - s;
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitudes_are_range_checked() {
        for bad in [
            FaultKind::AllocSpike { factor: 0.0 },
            FaultKind::AllocSpike { factor: f64::NAN },
            FaultKind::AllocSpike { factor: 1e9 },
            FaultKind::HeapSqueeze { fraction: 0.0 },
            FaultKind::HeapSqueeze { fraction: 1.0 },
            FaultKind::GcSlowdown { factor: -1.0 },
            FaultKind::StallStorm { throttle: 1.0 },
            FaultKind::StallStorm {
                throttle: f64::INFINITY,
            },
        ] {
            assert!(
                bad.magnitude_error().is_some(),
                "{bad:?} should be rejected"
            );
        }
        for good in [
            FaultKind::AllocSpike { factor: 4.0 },
            FaultKind::HeapSqueeze { fraction: 0.5 },
            FaultKind::GcSlowdown { factor: 8.0 },
            FaultKind::StallStorm { throttle: 0.0 },
            FaultKind::ForceDegenerate,
        ] {
            assert_eq!(good.magnitude_error(), None, "{good:?}");
        }
    }

    #[test]
    fn storms_are_deterministic_and_within_horizon() {
        let make = || {
            FaultPlan::new(99).with_storm(
                FaultKind::StallStorm { throttle: 0.1 },
                1_000_000,
                16,
                0.25,
            )
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        assert_eq!(a.windows.len(), 16);
        assert!(a.horizon().unwrap() <= 1_000_000);
        // Different seeds produce different storms.
        let c = FaultPlan::new(100).with_storm(
            FaultKind::StallStorm { throttle: 0.1 },
            1_000_000,
            16,
            0.25,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn window_introspection_reports_reach_and_coverage() {
        let plan = FaultPlan::new(1)
            .with_window(100, 200, FaultKind::ForceDegenerate)
            .with_window(150, 300, FaultKind::ForceDegenerate)
            .with_window(1_000, 1_100, FaultKind::ForceDegenerate);
        assert_eq!(plan.first_start_ns(), Some(100));
        assert_eq!(plan.reachable_windows(100), 0);
        assert_eq!(plan.reachable_windows(151), 2);
        assert_eq!(plan.reachable_windows(u64::MAX), 3);
        // [100,300) merged = 200ns, clipped at various horizons.
        assert_eq!(plan.coverage_ns_within(100), 0);
        assert_eq!(plan.coverage_ns_within(250), 150);
        assert_eq!(plan.coverage_ns_within(2_000), 300);
        assert_eq!(FaultPlan::new(1).first_start_ns(), None);
        assert_eq!(FaultPlan::new(1).coverage_ns_within(1_000), 0);
    }

    #[test]
    fn kind_labels_bits_and_indices_are_distinct() {
        let kinds = [
            FaultKind::AllocSpike { factor: 2.0 },
            FaultKind::HeapSqueeze { fraction: 0.3 },
            FaultKind::GcSlowdown { factor: 2.0 },
            FaultKind::StallStorm { throttle: 0.5 },
            FaultKind::ForceDegenerate,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::COUNT);
        let mut bits: Vec<u8> = kinds.iter().map(|k| k.bit()).collect();
        bits.sort_unstable();
        assert_eq!(bits, vec![1, 2, 4, 8, 16]);
        assert!(kinds.iter().all(|k| k.index() < FaultKind::COUNT));
    }
}
