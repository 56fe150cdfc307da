//! Per-collector cost and behaviour parameters.
//!
//! Each collector couples a *cost model* (how many CPU nanoseconds a cycle
//! burns per byte marked or evacuated, what barrier tax it embeds in the
//! mutator) with a *behaviour model* (which phases stop the world, how many
//! threads collect, when a cycle triggers, what happens when allocation
//! outruns reclamation). The constants below are calibrated so the
//! simulation reproduces the paper's observed *shapes*: the time–space
//! hyperbola, the 1998→2018 task-clock regression, concurrent collectors
//! soaking idle cores, and Shenandoah's pacing collapse on high-allocation
//! workloads (§2, §6.2).

use super::CollectorKind;
use crate::time::SimDuration;

/// Reference mark rate: bytes of live data traced per CPU nanosecond by one
/// reference hardware thread (≈ 2.5 GB/s).
const BASE_MARK_BYTES_PER_NS: f64 = 2.5;

/// Reference evacuation (copy) rate: bytes copied per CPU nanosecond
/// (≈ 1.5 GB/s).
const BASE_EVAC_BYTES_PER_NS: f64 = 1.5;

/// The complete parameter set describing one collector's behaviour.
///
/// Obtain one via [`CollectorKind::model`]; the fields are public and the
/// struct is plain data so that ablation benchmarks can perturb individual
/// parameters.
///
/// # Examples
///
/// ```
/// use chopin_runtime::collector::CollectorKind;
///
/// let serial = CollectorKind::Serial.model();
/// let zgc = CollectorKind::Zgc.model();
/// // The paper's regression: newer collectors burn more CPU per cycle and
/// // embed heavier mutator taxes.
/// assert!(zgc.work_multiplier > serial.work_multiplier);
/// assert!(zgc.barrier_tax > serial.barrier_tax);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorModel {
    /// Which collector this parameterises.
    pub kind: CollectorKind,
    /// Multiplier on the base mark/evacuate cost capturing algorithmic
    /// overheads (remembered sets, forwarding pointers, multiple concurrent
    /// passes, coloured-pointer bookkeeping).
    pub work_multiplier: f64,
    /// Fraction of mutator throughput lost to read/write barriers while the
    /// application runs. This cost is invisible to pause-based accounting —
    /// precisely the hard-to-attribute overhead LBO exists to expose.
    pub barrier_tax: f64,
    /// Fraction of a cycle's work performed concurrently with the
    /// application (0.0 for fully stop-the-world collectors).
    pub concurrent_fraction: f64,
    /// Number of GC threads used during stop-the-world phases. `None` means
    /// "all hardware threads" (capped by the machine).
    pub stw_threads: Option<u32>,
    /// Number of GC threads used for concurrent work, as a fraction of the
    /// machine's hardware threads (OpenJDK's `ConcGCThreads` heuristic is
    /// ~1/4 of `ParallelGCThreads`).
    pub concurrent_thread_share: f64,
    /// Parallel efficiency of multi-threaded GC phases: "parallelism is
    /// never perfectly efficient, so Parallel tends to have larger total
    /// overhead ... than Serial" (§2).
    pub gc_parallel_efficiency: f64,
    /// Fixed wall-clock floor added to every stop-the-world pause
    /// (safepointing, root scanning start-up).
    pub pause_floor: SimDuration,
    /// Fraction of young-collection cost charged for scanning old-to-young
    /// remembered sets / card tables, proportional to the live set.
    pub old_scan_share: f64,
    /// A full (whole-heap) collection is forced every `full_gc_period` young
    /// cycles for generational STW collectors; `None` disables periodic
    /// fulls (concurrent collectors always trace the full live set).
    pub full_gc_period: Option<u32>,
    /// Heap occupancy fraction at which a concurrent cycle is triggered
    /// (ignored by STW collectors, which collect on allocation failure).
    pub trigger_occupancy: f64,
    /// What the collector does when allocation exhausts the heap mid-cycle.
    pub exhaustion: ExhaustionPolicy,
    /// Fraction of the live set evacuated (copied) by a whole-heap
    /// collection; region-based collectors only evacuate the sparsest
    /// regions.
    pub evac_share: f64,
}

/// Behaviour when the application exhausts free memory while a concurrent
/// cycle is still running (or, for STW collectors, immediately on
/// allocation failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionPolicy {
    /// Stop the world and collect (the normal mode for STW collectors).
    StopTheWorld,
    /// Fail with out-of-memory: the Epsilon collector never reclaims.
    Fail,
    /// Degenerate to a stop-the-world full collection (G1's fallback).
    DegenerateFull,
    /// Throttle/stall allocating mutator threads until the concurrent cycle
    /// frees memory (Shenandoah's pacer, ZGC's allocation stalls).
    ThrottleAllocation,
}

impl CollectorModel {
    /// The calibrated model for `kind`.
    pub fn for_kind(kind: CollectorKind) -> CollectorModel {
        match kind {
            CollectorKind::Serial => CollectorModel {
                kind,
                work_multiplier: 1.0,
                barrier_tax: 0.002,
                concurrent_fraction: 0.0,
                stw_threads: Some(1),
                concurrent_thread_share: 0.0,
                gc_parallel_efficiency: 1.0,
                pause_floor: SimDuration::from_micros(150),
                old_scan_share: 0.08,
                full_gc_period: Some(24),
                trigger_occupancy: 1.0,
                exhaustion: ExhaustionPolicy::StopTheWorld,
                evac_share: 1.0,
            },
            CollectorKind::Parallel => CollectorModel {
                kind,
                work_multiplier: 1.18,
                barrier_tax: 0.004,
                concurrent_fraction: 0.0,
                stw_threads: None,
                concurrent_thread_share: 0.0,
                gc_parallel_efficiency: 0.80,
                pause_floor: SimDuration::from_micros(250),
                old_scan_share: 0.08,
                full_gc_period: Some(24),
                trigger_occupancy: 1.0,
                exhaustion: ExhaustionPolicy::StopTheWorld,
                evac_share: 1.0,
            },
            CollectorKind::G1 => CollectorModel {
                kind,
                work_multiplier: 1.45,
                barrier_tax: 0.025,
                concurrent_fraction: 0.35,
                stw_threads: None,
                concurrent_thread_share: 0.25,
                gc_parallel_efficiency: 0.78,
                pause_floor: SimDuration::from_micros(400),
                old_scan_share: 0.13,
                full_gc_period: Some(32),
                trigger_occupancy: 0.92,
                exhaustion: ExhaustionPolicy::DegenerateFull,
                evac_share: 0.45,
            },
            CollectorKind::Shenandoah => CollectorModel {
                kind,
                work_multiplier: 1.60,
                barrier_tax: 0.085,
                concurrent_fraction: 0.93,
                stw_threads: None,
                concurrent_thread_share: 0.25,
                gc_parallel_efficiency: 0.75,
                pause_floor: SimDuration::from_micros(250),
                old_scan_share: 0.0,
                full_gc_period: None,
                trigger_occupancy: 0.85,
                exhaustion: ExhaustionPolicy::ThrottleAllocation,
                evac_share: 0.50,
            },
            CollectorKind::Epsilon => CollectorModel {
                kind,
                work_multiplier: 1.0,
                barrier_tax: 0.0,
                concurrent_fraction: 0.0,
                stw_threads: Some(1),
                concurrent_thread_share: 0.0,
                gc_parallel_efficiency: 1.0,
                pause_floor: SimDuration::ZERO,
                old_scan_share: 0.0,
                full_gc_period: None,
                trigger_occupancy: 1.0,
                exhaustion: ExhaustionPolicy::Fail,
                evac_share: 0.0,
            },
            CollectorKind::Zgc => CollectorModel {
                kind,
                work_multiplier: 1.72,
                barrier_tax: 0.06,
                concurrent_fraction: 0.995,
                stw_threads: None,
                concurrent_thread_share: 0.25,
                gc_parallel_efficiency: 0.75,
                pause_floor: SimDuration::from_micros(60),
                old_scan_share: 0.0,
                full_gc_period: None,
                trigger_occupancy: 0.85,
                exhaustion: ExhaustionPolicy::ThrottleAllocation,
                evac_share: 0.40,
            },
        }
    }

    /// CPU nanoseconds to mark `bytes` of live data, including the
    /// per-object cost component: workloads with small mean object sizes
    /// trace more pointers per byte. `mean_object_size` is in bytes.
    pub fn mark_cost_ns(&self, bytes: f64, mean_object_size: f64) -> f64 {
        let object_factor = 1.0 + 48.0 / mean_object_size.max(16.0);
        self.work_multiplier * object_factor * bytes / BASE_MARK_BYTES_PER_NS
    }

    /// CPU nanoseconds to evacuate (copy) `bytes` of survivors.
    pub fn evac_cost_ns(&self, bytes: f64) -> f64 {
        self.work_multiplier * bytes / BASE_EVAC_BYTES_PER_NS
    }

    /// Number of threads used for stop-the-world phases on a machine with
    /// `hardware_threads` hardware threads. OpenJDK caps `ParallelGCThreads`
    /// at 5/8 of the processors for large machines.
    pub fn stw_thread_count(&self, hardware_threads: u32) -> u32 {
        match self.stw_threads {
            Some(n) => n.min(hardware_threads),
            None => {
                ((hardware_threads as f64 * 5.0 / 8.0).ceil() as u32).clamp(1, hardware_threads)
            }
        }
    }

    /// Number of threads used for concurrent work.
    pub fn concurrent_thread_count(&self, hardware_threads: u32) -> u32 {
        ((hardware_threads as f64 * self.concurrent_thread_share).round() as u32).clamp(
            if self.concurrent_fraction > 0.0 { 1 } else { 0 },
            hardware_threads,
        )
    }

    /// Validate internal consistency; used by tests and the ablation bench
    /// after perturbing fields.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.work_multiplier >= 1.0 && self.work_multiplier.is_finite()) {
            return Err(format!("work_multiplier {} < 1", self.work_multiplier));
        }
        if !(0.0..1.0).contains(&self.barrier_tax) {
            return Err(format!("barrier_tax {} outside [0,1)", self.barrier_tax));
        }
        if !(0.0..=1.0).contains(&self.concurrent_fraction) {
            return Err("concurrent_fraction outside [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.concurrent_thread_share) {
            return Err("concurrent_thread_share outside [0,1]".into());
        }
        if !(0.0 < self.gc_parallel_efficiency && self.gc_parallel_efficiency <= 1.0) {
            return Err("gc_parallel_efficiency outside (0,1]".into());
        }
        if !(0.0 < self.trigger_occupancy && self.trigger_occupancy <= 1.0) {
            return Err("trigger_occupancy outside (0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.evac_share) {
            return Err("evac_share outside [0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for kind in CollectorKind::ALL {
            kind.model().validate().unwrap();
        }
    }

    #[test]
    fn newer_collectors_burn_more_cpu_per_cycle() {
        // The architectural regression that motivates the paper: ordering by
        // introduction year orders total computational overhead.
        let mults: Vec<f64> = CollectorKind::ALL
            .iter()
            .map(|c| c.model().work_multiplier)
            .collect();
        assert!(
            mults.windows(2).all(|w| w[0] < w[1]),
            "work multipliers must increase with introduction year: {mults:?}"
        );
    }

    #[test]
    fn concurrent_collectors_have_heavier_barriers_than_stw() {
        let serial = CollectorKind::Serial.model().barrier_tax;
        let parallel = CollectorKind::Parallel.model().barrier_tax;
        let shen = CollectorKind::Shenandoah.model().barrier_tax;
        let zgc = CollectorKind::Zgc.model().barrier_tax;
        assert!(shen > parallel && zgc > parallel && shen > serial);
    }

    #[test]
    fn serial_is_single_threaded() {
        assert_eq!(CollectorKind::Serial.model().stw_thread_count(32), 1);
        assert_eq!(CollectorKind::Parallel.model().stw_thread_count(32), 20);
        assert_eq!(CollectorKind::Parallel.model().stw_thread_count(2), 2);
    }

    #[test]
    fn concurrent_thread_counts() {
        assert_eq!(CollectorKind::Zgc.model().concurrent_thread_count(32), 8);
        assert_eq!(CollectorKind::Serial.model().concurrent_thread_count(32), 0);
        // At least one thread for collectors that do concurrent work.
        assert_eq!(
            CollectorKind::Shenandoah.model().concurrent_thread_count(1),
            1
        );
    }

    #[test]
    fn small_objects_cost_more_to_mark_per_byte() {
        let m = CollectorKind::Serial.model();
        let small = m.mark_cost_ns(1e6, 24.0);
        let large = m.mark_cost_ns(1e6, 200.0);
        assert!(small > large);
    }

    #[test]
    fn mark_cost_scales_linearly_with_bytes() {
        let m = CollectorKind::G1.model();
        let one = m.mark_cost_ns(1e6, 64.0);
        let two = m.mark_cost_ns(2e6, 64.0);
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zgc_pauses_are_tiny() {
        assert!(
            CollectorKind::Zgc.model().pause_floor < CollectorKind::G1.model().pause_floor,
            "ZGC's defining feature is sub-millisecond pauses"
        );
    }

    #[test]
    fn validate_catches_bad_fields() {
        let mut m = CollectorKind::G1.model();
        m.barrier_tax = 1.5;
        assert!(m.validate().is_err());
        let mut m = CollectorKind::G1.model();
        m.work_multiplier = 0.5;
        assert!(m.validate().is_err());
    }
}
