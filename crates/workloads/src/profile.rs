//! Workload profiles: the characteristics of each DaCapo Chopin
//! benchmark, and their conversion into runnable [`MutatorSpec`]s.
//!
//! Nineteen fields are the paper's per-benchmark nominal statistics
//! (appendix B), read from the benchmark's row of
//! [`crate::nominal::dataset`]: minimum heap sizes (GMD/GMU/GMS/GML/GMV),
//! execution time (PET), allocation rate (ARA), mean object size (AOA),
//! parallel efficiency (PPE), kernel share (PKP), memory turnover (GTO),
//! leakage (GLK), warmup (PWU), invocation noise (PSD), and the frequency,
//! memory, LLC, compiler and interpreter sensitivities
//! (PFS/PMS/PLS/PCC/PIN). The row also gives the profile its
//! [`Provenance`]: where the source text of the paper truncates a
//! benchmark's table, values are estimated.
//!
//! Every published field copies its cell but one. The appendix prints PSD
//! as a whole percentage, so a published PSD of 0 means below 0.5 %, and
//! the profile takes 0.3 %; every other published PSD is at least 1.
//!
//! The paper does not publish the rest, which each [`crate::suite`] module
//! holds: the description, the new-in-Chopin flag, and the calibrated
//! thread count, survival, live-floor and build fractions and request
//! shape.

use crate::nominal::dataset::{NominalRow, Provenance};
use crate::nominal::metric::metric_index;
use crate::suite::Workload;
use chopin_runtime::spec::{MutatorSpec, RequestProfile, SpecError};
use chopin_runtime::time::SimDuration;
use std::fmt;

/// The DaCapo Chopin workload size classes.
///
/// §3.2: "its workloads have minimum heap sizes ranging from 5 MB to
/// 20 GB" across the small/default/large/vlarge configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// The `small` input configuration.
    Small,
    /// The `default` input configuration — what the paper's evaluation uses.
    Default,
    /// The `large` input configuration.
    Large,
    /// The `vlarge` input configuration (only h2 provides one, at 20 GB).
    VLarge,
}

impl SizeClass {
    /// All size classes in ascending order.
    pub const ALL: [SizeClass; 4] = [
        SizeClass::Small,
        SizeClass::Default,
        SizeClass::Large,
        SizeClass::VLarge,
    ];
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SizeClass::Small => "small",
            SizeClass::Default => "default",
            SizeClass::Large => "large",
            SizeClass::VLarge => "vlarge",
        };
        f.write_str(s)
    }
}

/// Request structure for the nine latency-sensitive workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Number of timed events in the default configuration.
    pub count: u32,
    /// Worker threads consuming the pre-determined request stream.
    pub workers: u32,
    /// Log-normal dispersion of per-request demand.
    pub dispersion: f64,
}

/// A complete, documented workload profile.
///
/// Fields mirror the nominal statistics they are calibrated from; see the
/// module docs. All heap quantities are in megabytes, matching the paper's
/// tables.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name, lower-case, as used by the suite (`-b` flags etc.).
    pub name: &'static str,
    /// One-line description from the paper's appendix.
    pub description: &'static str,
    /// Whether the workload is new in Chopin (§5: eight entirely new).
    pub new_in_chopin: bool,
    /// Minimum heap, default size, compressed pointers (GMD, MB).
    pub min_heap_default_mb: f64,
    /// Minimum heap, default size, uncompressed pointers (GMU, MB).
    pub min_heap_uncompressed_mb: f64,
    /// Minimum heap, small size (GMS, MB).
    pub min_heap_small_mb: f64,
    /// Minimum heap, large size (GML, MB), if the workload has one.
    pub min_heap_large_mb: Option<f64>,
    /// Minimum heap, vlarge size (GMV, MB), if the workload has one.
    pub min_heap_vlarge_mb: Option<f64>,
    /// Nominal execution time in seconds (PET).
    pub exec_time_s: f64,
    /// Nominal allocation rate in bytes/µs ≡ MB/s (ARA).
    pub alloc_rate_mb_s: f64,
    /// Nominal average object size in bytes (AOA).
    pub mean_object_size: u64,
    /// Nominal parallel efficiency as a percentage of ideal 32-thread
    /// speedup (PPE).
    pub parallel_efficiency_pct: f64,
    /// Nominal percentage of time in kernel mode (PKP).
    pub kernel_pct: f64,
    /// Application thread count.
    pub threads: u32,
    /// Memory turnover: total allocation / minimum heap (GTO).
    pub turnover: f64,
    /// Percent 10th-iteration memory leakage (GLK).
    pub leak_pct: f64,
    /// Iterations to warm up to within 1.5 % of best (PWU).
    pub warmup_iterations: u32,
    /// Invocation-to-invocation standard deviation in percent (PSD).
    pub invocation_noise_pct: f64,
    /// Percentage speedup from CPU frequency scaling (PFS) — used by the
    /// architectural-sensitivity experiments.
    pub freq_sensitivity_pct: f64,
    /// Percentage slowdown under the paper's slow-DRAM profile (PMS).
    pub memory_sensitivity_pct: f64,
    /// Percentage slowdown under the 1/16-LLC restriction (PLS).
    pub llc_sensitivity_pct: f64,
    /// Percentage slowdown under forced C2 compilation (PCC).
    pub forced_c2_pct: f64,
    /// Percentage slowdown under the interpreter (PIN).
    pub interpreter_pct: f64,
    /// Fraction of fresh allocation surviving its first collection
    /// (calibrated, not a published statistic).
    pub survival_fraction: f64,
    /// Live floor as a fraction of the live peak (calibrated).
    pub live_floor_fraction: f64,
    /// Fraction of the run over which the live set ramps up (calibrated;
    /// large for build-then-query workloads like h2).
    pub build_fraction: f64,
    /// Request structure for latency-sensitive workloads.
    pub requests: Option<RequestSpec>,
    /// Whether the published fields' row is published or partly
    /// estimated.
    pub provenance: Provenance,
}

/// The invocation noise (PSD, %) of a profile whose published PSD is 0:
/// the appendix prints PSD as a whole percentage, so 0 means below 0.5 %.
pub(crate) const ZERO_PSD_NOISE_PCT: f64 = 0.3;

/// The column of a metric code known at compile time.
const fn column(code: &str) -> usize {
    match metric_index(code) {
        Some(i) => i,
        None => panic!("not a Table 1 metric code"),
    }
}

/// Live peak as a fraction of the published minimum heap: the minimum heap
/// includes the collector's minimum working headroom, which the engine's
/// futility threshold models; 0.90 places the simulated minimum heap within
/// a few percent of GMD.
const LIVE_PEAK_OF_MIN_HEAP: f64 = 0.90;

const MB: f64 = (1u64 << 20) as f64;

impl WorkloadProfile {
    /// The profile of `workload`: its published fields and its provenance
    /// from `row`, its benchmark's row of the nominal dataset, and the rest
    /// from `workload`.
    pub(crate) fn new(row: &NominalRow, workload: &Workload) -> WorkloadProfile {
        // Each code resolves to its column at compile time. A missing
        // required cell reads as NaN, which lint rule R101 and the
        // dataset's consistency test reject.
        macro_rules! cell {
            ($code:literal) => {
                row.values[const { column($code) }]
            };
        }
        let published = |cell: Option<f64>| cell.unwrap_or(f64::NAN);
        let psd = published(cell!("PSD"));
        WorkloadProfile {
            name: workload.name,
            description: workload.description,
            new_in_chopin: workload.new_in_chopin,
            min_heap_default_mb: published(cell!("GMD")),
            min_heap_uncompressed_mb: published(cell!("GMU")),
            min_heap_small_mb: published(cell!("GMS")),
            min_heap_large_mb: cell!("GML"),
            min_heap_vlarge_mb: cell!("GMV"),
            exec_time_s: published(cell!("PET")),
            alloc_rate_mb_s: published(cell!("ARA")),
            mean_object_size: published(cell!("AOA")) as u64,
            parallel_efficiency_pct: published(cell!("PPE")),
            kernel_pct: published(cell!("PKP")),
            threads: workload.threads,
            turnover: published(cell!("GTO")),
            leak_pct: published(cell!("GLK")),
            warmup_iterations: published(cell!("PWU")) as u32,
            invocation_noise_pct: if psd == 0.0 { ZERO_PSD_NOISE_PCT } else { psd },
            freq_sensitivity_pct: published(cell!("PFS")),
            memory_sensitivity_pct: published(cell!("PMS")),
            llc_sensitivity_pct: published(cell!("PLS")),
            forced_c2_pct: published(cell!("PCC")),
            interpreter_pct: published(cell!("PIN")),
            survival_fraction: workload.survival_fraction,
            live_floor_fraction: workload.live_floor_fraction,
            build_fraction: workload.build_fraction,
            requests: workload.requests,
            provenance: row.provenance,
        }
    }

    /// Whether this workload reports per-event latency.
    pub fn is_latency_sensitive(&self) -> bool {
        self.requests.is_some()
    }

    /// The heap scale factor of `size` relative to the default size, from
    /// the published per-size minimum heaps. Returns `None` when the
    /// workload does not provide that size class.
    pub fn size_scale(&self, size: SizeClass) -> Option<f64> {
        match size {
            SizeClass::Small => Some(self.min_heap_small_mb / self.min_heap_default_mb),
            SizeClass::Default => Some(1.0),
            SizeClass::Large => self.min_heap_large_mb.map(|l| l / self.min_heap_default_mb),
            SizeClass::VLarge => self
                .min_heap_vlarge_mb
                .map(|v| v / self.min_heap_default_mb),
        }
    }

    /// The nominal minimum heap of `size`, in bytes.
    pub fn min_heap_bytes(&self, size: SizeClass) -> Option<u64> {
        let mb = match size {
            SizeClass::Small => Some(self.min_heap_small_mb),
            SizeClass::Default => Some(self.min_heap_default_mb),
            SizeClass::Large => self.min_heap_large_mb,
            SizeClass::VLarge => self.min_heap_vlarge_mb,
        }?;
        Some((mb * MB) as u64)
    }

    /// Total allocation per iteration in bytes, derived from the published
    /// memory turnover: GTO × GMD. (Deriving it from ARA × PET instead
    /// would compound PET's rounding to whole seconds — the published GTO,
    /// GMD and ARA columns are mutually consistent, PET is coarse.)
    pub fn total_allocation_bytes(&self) -> u64 {
        (self.turnover * self.min_heap_default_mb * MB) as u64
    }

    /// Execution time implied by the published allocation rate and
    /// turnover: total allocation / ARA. Falls back to PET if degenerate.
    pub fn derived_exec_time_s(&self) -> f64 {
        let t = self.total_allocation_bytes() as f64 / (self.alloc_rate_mb_s * MB);
        if t.is_finite() && t > 1e-3 {
            t
        } else {
            self.exec_time_s
        }
    }

    /// Total useful CPU work per iteration: the derived execution time
    /// multiplied by the effective CPUs the workload keeps busy.
    pub fn total_work(&self) -> SimDuration {
        let eff = self.effective_cpus();
        SimDuration::from_secs_f64(self.derived_exec_time_s() * eff)
    }

    /// Effective CPUs from the PPE statistic (percentage of ideal 32-thread
    /// speedup on the paper's machine).
    pub fn effective_cpus(&self) -> f64 {
        (32.0 * self.parallel_efficiency_pct / 100.0).max(1.0)
    }

    /// The per-thread parallel-efficiency parameter that reproduces
    /// [`WorkloadProfile::effective_cpus`] with this thread count.
    pub fn parallel_efficiency_param(&self) -> f64 {
        if self.threads <= 1 {
            return 1.0;
        }
        ((self.effective_cpus() - 1.0) / (self.threads - 1) as f64).clamp(0.0, 1.0)
    }

    /// Uncompressed-pointer footprint inflation (GMU / GMD, floored at 1).
    pub fn uncompressed_inflation(&self) -> f64 {
        (self.min_heap_uncompressed_mb / self.min_heap_default_mb).max(1.0)
    }

    /// Build the runnable [`MutatorSpec`] for `size`, optionally scaling the
    /// live set by `live_scale` (used by the iteration layer to model the
    /// GLK leakage statistic across iterations).
    ///
    /// Returns `None` when the workload does not provide the requested size
    /// class.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] if the calibration numbers are inconsistent
    /// (only possible for hand-edited profiles).
    pub fn to_spec_scaled(
        &self,
        size: SizeClass,
        live_scale: f64,
    ) -> Option<Result<MutatorSpec, SpecError>> {
        let scale = self.size_scale(size)?;
        let live_peak =
            (self.min_heap_default_mb * MB * LIVE_PEAK_OF_MIN_HEAP * scale * live_scale) as u64;
        let live_floor = (live_peak as f64 * self.live_floor_fraction) as u64;
        let total_alloc = (self.total_allocation_bytes() as f64 * scale) as u64;
        let total_work = self.total_work().mul_f64(scale);

        let mut builder = MutatorSpec::builder(self.name)
            .threads(self.threads)
            .parallel_efficiency(self.parallel_efficiency_param())
            .kernel_fraction((self.kernel_pct / 100.0).clamp(0.0, 1.0))
            .total_work(total_work)
            .total_allocation(total_alloc.max(1))
            .mean_object_size(self.mean_object_size)
            .live_range(live_floor.max(1 << 20), live_peak.max(1 << 20))
            .build_fraction(self.build_fraction)
            .survival_fraction(self.survival_fraction)
            .uncompressed_inflation(self.uncompressed_inflation())
            // Core Performance Boost adds ~20% clock; the PFS statistic
            // records how much of it each workload realises.
            .freq_sensitivity((self.freq_sensitivity_pct / 20.0).clamp(0.0, 1.0))
            .memory_sensitivity((self.memory_sensitivity_pct / 100.0).max(0.0))
            .llc_sensitivity((self.llc_sensitivity_pct / 100.0).max(-0.05))
            .forced_c2_cost((self.forced_c2_pct / 100.0).max(0.0))
            .interpreter_cost((self.interpreter_pct / 100.0).max(0.0));
        if let Some(r) = &self.requests {
            builder = builder.requests(RequestProfile {
                count: ((r.count as f64 * scale).round() as u32).max(16),
                workers: r.workers,
                dispersion: r.dispersion,
            });
        }
        Some(builder.build())
    }

    /// Build the runnable [`MutatorSpec`] for `size` with no live-set
    /// scaling. See [`WorkloadProfile::to_spec_scaled`].
    pub fn to_spec(&self, size: SizeClass) -> Option<Result<MutatorSpec, SpecError>> {
        self.to_spec_scaled(size, 1.0)
    }

    /// Sanity-check the profile's calibration numbers.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must be non-empty".into());
        }
        if self.min_heap_default_mb <= 0.0 {
            return Err(format!("{}: GMD must be positive", self.name));
        }
        if !(self.min_heap_small_mb > 0.0 && self.min_heap_small_mb <= self.min_heap_default_mb) {
            return Err(format!("{}: GMS must lie in (0, GMD]", self.name));
        }
        if let Some(l) = self.min_heap_large_mb {
            if l < self.min_heap_default_mb {
                return Err(format!("{}: GML must be at least GMD", self.name));
            }
        }
        if !(self.exec_time_s > 0.0 && self.alloc_rate_mb_s > 0.0) {
            return Err(format!("{}: PET and ARA must be positive", self.name));
        }
        if self.threads == 0 {
            return Err(format!("{}: threads must be positive", self.name));
        }
        if !(0.0..=100.0).contains(&self.parallel_efficiency_pct) {
            return Err(format!("{}: PPE must lie in [0, 100]", self.name));
        }
        if !(0.0..=100.0).contains(&self.kernel_pct) {
            return Err(format!("{}: PKP must lie in [0, 100]", self.name));
        }
        if !(0.0..=1.0).contains(&self.survival_fraction) {
            return Err(format!("{}: survival must lie in [0, 1]", self.name));
        }
        // The spec builder enforces the rest.
        match self.to_spec(SizeClass::Default) {
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(format!("{}: {e}", self.name)),
            None => Err(format!("{}: default size must exist", self.name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> WorkloadProfile {
        WorkloadProfile {
            name: "toy",
            description: "test profile",
            new_in_chopin: false,
            min_heap_default_mb: 100.0,
            min_heap_uncompressed_mb: 130.0,
            min_heap_small_mb: 20.0,
            min_heap_large_mb: Some(1000.0),
            min_heap_vlarge_mb: None,
            exec_time_s: 2.0,
            alloc_rate_mb_s: 1000.0,
            mean_object_size: 64,
            parallel_efficiency_pct: 25.0,
            kernel_pct: 5.0,
            threads: 16,
            turnover: 20.0,
            leak_pct: 0.0,
            warmup_iterations: 3,
            invocation_noise_pct: 1.0,
            freq_sensitivity_pct: 10.0,
            memory_sensitivity_pct: 5.0,
            llc_sensitivity_pct: 5.0,
            forced_c2_pct: 100.0,
            interpreter_pct: 60.0,
            survival_fraction: 0.05,
            live_floor_fraction: 0.5,
            build_fraction: 0.1,
            requests: Some(RequestSpec {
                count: 1000,
                workers: 16,
                dispersion: 0.5,
            }),
            provenance: Provenance::Published,
        }
    }

    #[test]
    fn toy_profile_validates_and_builds() {
        let p = toy();
        p.validate().unwrap();
        let spec = p.to_spec(SizeClass::Default).unwrap().unwrap();
        assert_eq!(spec.name(), "toy");
        assert_eq!(spec.threads(), 16);
        assert!(spec.requests().is_some());
    }

    #[test]
    fn effective_cpus_from_ppe() {
        let p = toy();
        assert_eq!(p.effective_cpus(), 8.0); // 32 × 25%
        let eff = p.parallel_efficiency_param();
        assert!((eff - 7.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn size_scaling_follows_published_min_heaps() {
        let p = toy();
        assert_eq!(p.size_scale(SizeClass::Small), Some(0.2));
        assert_eq!(p.size_scale(SizeClass::Large), Some(10.0));
        assert_eq!(p.size_scale(SizeClass::VLarge), None);
        assert_eq!(p.min_heap_bytes(SizeClass::Default), Some(100 * (1 << 20)));
    }

    #[test]
    fn large_size_scales_work_allocation_and_requests() {
        let p = toy();
        let d = p.to_spec(SizeClass::Default).unwrap().unwrap();
        let l = p.to_spec(SizeClass::Large).unwrap().unwrap();
        assert!(l.total_allocation() > 9 * d.total_allocation());
        assert!(l.total_work() > d.total_work() * 9);
        assert!(l.requests().unwrap().count > 9 * d.requests().unwrap().count);
    }

    #[test]
    fn live_scale_inflates_live_set_only() {
        let p = toy();
        let base = p.to_spec_scaled(SizeClass::Default, 1.0).unwrap().unwrap();
        let leaky = p.to_spec_scaled(SizeClass::Default, 1.5).unwrap().unwrap();
        assert!(leaky.live_peak() > base.live_peak());
        assert_eq!(leaky.total_allocation(), base.total_allocation());
    }

    #[test]
    fn inflation_is_gmu_over_gmd() {
        assert!((toy().uncompressed_inflation() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut p = toy();
        p.min_heap_small_mb = 200.0;
        assert!(p.validate().is_err());
        let mut p = toy();
        p.parallel_efficiency_pct = 200.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn single_thread_param_is_one() {
        let mut p = toy();
        p.threads = 1;
        assert_eq!(p.parallel_efficiency_param(), 1.0);
    }
}
