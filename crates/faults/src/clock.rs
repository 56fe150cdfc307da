//! The engine-side fault hook: [`FaultClock`] and its two instantiations.
//!
//! The engine samples its fault clock once per slice. The sample carries
//! the *combined* effect of every active window (factors multiply, caps
//! take the harshest value) plus the simulated time of the next fault
//! boundary, so the engine can bound the slice and transition windows at
//! exact times — keeping fault-injected runs just as deterministic as
//! clean ones.
//!
//! [`NoFaults`] always samples [`FaultSample::IDENTITY`]: every factor is
//! 1.0 and no boundary is pending, so each faulted expression in the engine
//! equals its clean form. It also advertises `NOOP = true`, which compiles
//! the fault bookkeeping away (the same zero-cost discipline as
//! `NoopObserver`, asserted bit-for-bit by the determinism tests).

use crate::plan::{FaultKind, FaultPlan, FaultWindow};

/// The combined fault state at one instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSample {
    /// Multiplier on the workload's allocation rate (product of active
    /// [`FaultKind::AllocSpike`] factors; 1.0 = none).
    pub alloc_factor: f64,
    /// Multiplier on collector thread speed (reciprocal of the harshest
    /// active [`FaultKind::GcSlowdown`]; 1.0 = none, in (0, 1] otherwise).
    pub gc_speed_factor: f64,
    /// Fraction of heap capacity that remains usable (harshest active
    /// [`FaultKind::HeapSqueeze`]; 1.0 = none, in (0, 1) otherwise).
    pub capacity_factor: f64,
    /// Upper bound on the mutator throttle factor (harshest active
    /// [`FaultKind::StallStorm`]; 1.0 = none, 0.0 = hard stall).
    pub throttle_cap: f64,
    /// Whether collections triggered now are forced degenerate.
    pub force_degenerate: bool,
    /// Bitmask of active fault kinds ([`FaultKind::bit`]).
    pub active_mask: u8,
    /// Simulated nanosecond of the next window boundary (open or close),
    /// or `u64::MAX` when no further transition is scheduled.
    pub next_change_ns: u64,
}

impl FaultSample {
    /// The no-fault sample: every factor neutral, no boundary pending.
    pub const IDENTITY: FaultSample = FaultSample {
        alloc_factor: 1.0,
        gc_speed_factor: 1.0,
        capacity_factor: 1.0,
        throttle_cap: 1.0,
        force_degenerate: false,
        active_mask: 0,
        next_change_ns: u64::MAX,
    };

    /// Whether the sample perturbs nothing.
    pub fn is_identity(&self) -> bool {
        self.active_mask == 0
    }
}

/// The engine's fault hook, sampled once per slice.
///
/// Implementations must be pure functions of the simulated time they are
/// handed (plus their own immutable schedule): the engine's determinism
/// guarantee extends to fault-injected runs only because the clock never
/// consults wall time, I/O or shared state.
pub trait FaultClock {
    /// `true` for the no-fault instantiation: the engine skips its fault
    /// bookkeeping under this constant, and batches only when it is set.
    const NOOP: bool;

    /// The combined fault state at simulated time `now_ns`.
    fn sample(&mut self, now_ns: u64) -> FaultSample;
}

/// The inert fault clock: no faults, no overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultClock for NoFaults {
    const NOOP: bool = true;

    #[inline(always)]
    fn sample(&mut self, _now_ns: u64) -> FaultSample {
        FaultSample::IDENTITY
    }
}

/// A live fault clock built from a [`FaultPlan`].
///
/// # Examples
///
/// ```
/// use chopin_faults::{FaultClock, FaultKind, FaultPlan, ScheduledFaults};
///
/// let plan = FaultPlan::new(7)
///     .with_window(100, 200, FaultKind::AllocSpike { factor: 4.0 })
///     .with_window(150, 300, FaultKind::StallStorm { throttle: 0.5 });
/// let mut clock = ScheduledFaults::new(&plan);
/// let idle = clock.sample(50);
/// assert!(idle.is_identity());
/// assert_eq!(idle.next_change_ns, 100);
/// let both = clock.sample(160);
/// assert_eq!(both.alloc_factor, 4.0);
/// assert_eq!(both.throttle_cap, 0.5);
/// assert_eq!(both.next_change_ns, 200);
/// ```
#[derive(Debug, Clone)]
pub struct ScheduledFaults {
    windows: Vec<FaultWindow>,
}

impl ScheduledFaults {
    /// Build a clock from `plan`. The plan should already be validated;
    /// degenerate windows are simply never active.
    pub fn new(plan: &FaultPlan) -> ScheduledFaults {
        let mut windows = plan.windows.clone();
        windows.sort_by_key(|w| (w.start_ns, w.end_ns));
        ScheduledFaults { windows }
    }

    /// Whether the clock has no windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

impl FaultClock for ScheduledFaults {
    const NOOP: bool = false;

    fn sample(&mut self, now_ns: u64) -> FaultSample {
        let mut s = FaultSample::IDENTITY;
        for w in &self.windows {
            if w.active_at(now_ns) {
                s.active_mask |= w.kind.bit();
                match w.kind {
                    FaultKind::AllocSpike { factor } => s.alloc_factor *= factor,
                    FaultKind::HeapSqueeze { fraction } => {
                        s.capacity_factor = s.capacity_factor.min(1.0 - fraction);
                    }
                    FaultKind::GcSlowdown { factor } => {
                        s.gc_speed_factor = s.gc_speed_factor.min(1.0 / factor);
                    }
                    FaultKind::StallStorm { throttle } => {
                        s.throttle_cap = s.throttle_cap.min(throttle);
                    }
                    FaultKind::ForceDegenerate => s.force_degenerate = true,
                }
                if w.end_ns > now_ns {
                    s.next_change_ns = s.next_change_ns.min(w.end_ns);
                }
            } else if w.start_ns > now_ns {
                s.next_change_ns = s.next_change_ns.min(w.start_ns);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let mut clock = NoFaults;
        const { assert!(NoFaults::NOOP) };
        assert_eq!(clock.sample(0), FaultSample::IDENTITY);
        assert!(FaultSample::IDENTITY.is_identity());
    }

    #[test]
    fn empty_schedule_is_identity_forever() {
        let mut clock = ScheduledFaults::new(&FaultPlan::new(1));
        assert!(clock.is_empty());
        let s = clock.sample(12345);
        assert!(s.is_identity());
        assert_eq!(s.next_change_ns, u64::MAX);
    }

    #[test]
    fn overlapping_windows_combine_harshest() {
        let plan = FaultPlan::new(1)
            .with_window(0, 100, FaultKind::AllocSpike { factor: 2.0 })
            .with_window(0, 100, FaultKind::AllocSpike { factor: 3.0 })
            .with_window(0, 100, FaultKind::HeapSqueeze { fraction: 0.2 })
            .with_window(0, 100, FaultKind::HeapSqueeze { fraction: 0.5 })
            .with_window(0, 100, FaultKind::GcSlowdown { factor: 4.0 })
            .with_window(0, 100, FaultKind::StallStorm { throttle: 0.3 })
            .with_window(0, 100, FaultKind::StallStorm { throttle: 0.6 })
            .with_window(0, 100, FaultKind::ForceDegenerate);
        let s = ScheduledFaults::new(&plan).sample(50);
        assert_eq!(s.alloc_factor, 6.0, "spikes compound");
        assert_eq!(s.capacity_factor, 0.5, "harshest squeeze wins");
        assert_eq!(s.gc_speed_factor, 0.25);
        assert_eq!(s.throttle_cap, 0.3, "harshest cap wins");
        assert!(s.force_degenerate);
        assert_eq!(s.active_mask, 0b11111);
        assert_eq!(s.next_change_ns, 100);
    }

    #[test]
    fn boundaries_are_half_open_and_next_change_tracks_both_edges() {
        let plan = FaultPlan::new(1).with_window(100, 200, FaultKind::ForceDegenerate);
        let mut clock = ScheduledFaults::new(&plan);
        assert!(clock.sample(99).is_identity());
        assert_eq!(clock.sample(99).next_change_ns, 100);
        assert!(!clock.sample(100).is_identity());
        assert!(!clock.sample(199).is_identity());
        let closed = clock.sample(200);
        assert!(closed.is_identity());
        assert_eq!(closed.next_change_ns, u64::MAX);
    }

    #[test]
    fn sampling_is_pure() {
        let plan = FaultPlan::new(1).with_window(10, 20, FaultKind::AllocSpike { factor: 2.0 });
        let mut clock = ScheduledFaults::new(&plan);
        let a = clock.sample(15);
        let later = clock.sample(25);
        let b = clock.sample(15);
        assert_eq!(a, b, "samples depend only on the queried time");
        assert!(later.is_identity());
    }
}
