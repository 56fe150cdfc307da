//! Iterations, warmup and invocation aggregation.
//!
//! §4.3 of the paper discusses compilers and warmup: "The DaCapo Chopin
//! suite comes with detailed measures of warmup time for each workload. In
//! practice we found that the fifth iteration (`-n 5`) for default workload
//! sizes ... exhibit well-warmed up behavior." The PWU nominal statistic
//! records "iterations to warm up to within 1.5 % of best".
//!
//! The simulation models JIT warmup as a per-iteration multiplier on the
//! workload's CPU demand that decays geometrically so that iteration
//! `PWU` lands within 1.5 % of the warmed-up cost — by construction
//! honouring the published statistic.

use chopin_runtime::result::RunResult;

/// Extra relative cost of the first (cold) iteration: interpretation plus
/// tier-1 code plus class loading. The decay is then solved per workload
/// from its PWU statistic.
const COLD_OVERHEAD: f64 = 0.6;

/// The warmup threshold PWU is defined against: "within 1.5 % of best".
const WARM_THRESHOLD: f64 = 0.015;

/// The work-scale multiplier for iteration `i` (0-based) of a workload that
/// needs `pwu` iterations to warm up.
///
/// Iteration 0 costs `1 + COLD_OVERHEAD`; by iteration `pwu` (0-based:
/// index `pwu`) the multiplier is within 1.5 % of 1.0.
///
/// # Examples
///
/// ```
/// use chopin_core::iteration::warmup_scale;
///
/// assert!(warmup_scale(0, 5) > 1.5);
/// assert!(warmup_scale(5, 5) <= 1.015);
/// assert!((warmup_scale(100, 5) - 1.0).abs() < 1e-3);
/// ```
pub fn warmup_scale(iteration: u32, pwu: u32) -> f64 {
    let pwu = pwu.max(1) as f64;
    // decay^pwu = WARM_THRESHOLD / COLD_OVERHEAD
    let decay = (WARM_THRESHOLD / COLD_OVERHEAD).powf(1.0 / pwu);
    1.0 + COLD_OVERHEAD * decay.powi(iteration as i32)
}

/// Residual warmup overhead at the iteration a plan actually times.
///
/// The timed iteration is the *last* of `iterations` (see
/// [`IterationSet::timed`]), i.e. 0-based index `iterations - 1`; this
/// returns `warmup_scale` there minus 1 — the fraction by which that
/// iteration is still slower than steady state. Pre-flight analyses
/// compare it against the 1.5 % PWU threshold.
///
/// # Examples
///
/// ```
/// use chopin_core::iteration::residual_warmup;
///
/// // 5 iterations of a PWU-9 workload time iteration 4 — still cold.
/// assert!(residual_warmup(5, 9) > 0.015);
/// // 10 iterations reach iteration 9 = PWU, warm by construction.
/// assert!(residual_warmup(10, 9) <= 0.015 + 1e-9);
/// ```
pub fn residual_warmup(iterations: u32, pwu: u32) -> f64 {
    warmup_scale(iterations.saturating_sub(1), pwu) - 1.0
}

/// The iteration count that times a warmed-up iteration for a workload
/// with warmup statistic `pwu`: iteration index `pwu` is the first within
/// 1.5 % of best, so `pwu + 1` iterations are needed for the timed (last)
/// iteration to be it.
pub fn steady_state_iterations(pwu: u32) -> u32 {
    pwu.max(1) + 1
}

/// The iterations of one simulated invocation, in execution order.
///
/// # Examples
///
/// See [`crate::benchmark::BenchmarkRunner::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSet {
    iterations: Vec<RunResult>,
}

impl IterationSet {
    /// Wrap a non-empty iteration sequence.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is empty.
    pub fn new(iterations: Vec<RunResult>) -> Self {
        assert!(
            !iterations.is_empty(),
            "an invocation runs at least one iteration"
        );
        IterationSet { iterations }
    }

    /// All iterations, first to last.
    pub fn iterations(&self) -> &[RunResult] {
        &self.iterations
    }

    /// The timed iteration — the last, per §6.1.2.
    pub fn timed(&self) -> &RunResult {
        match self.iterations.last() {
            Some(last) => last,
            None => unreachable!("InvocationResult holds at least one iteration"),
        }
    }

    /// The iteration index (0-based) after which wall time is within
    /// `threshold` (e.g. 0.015) of the fastest iteration — the measured
    /// analog of the PWU statistic.
    pub fn measured_warmup(&self, threshold: f64) -> usize {
        let best = self
            .iterations
            .iter()
            .map(|r| r.wall_time().as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        self.iterations
            .iter()
            .position(|r| r.wall_time().as_secs_f64() <= best * (1.0 + threshold))
            .unwrap_or(self.iterations.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_scale_is_monotone_decreasing() {
        for pwu in [1, 3, 5, 9] {
            let scales: Vec<f64> = (0..12).map(|i| warmup_scale(i, pwu)).collect();
            assert!(scales.windows(2).all(|w| w[0] >= w[1]), "{scales:?}");
            assert!(scales[0] > 1.5);
        }
    }

    #[test]
    fn warmup_honours_pwu_threshold() {
        for pwu in [1u32, 2, 5, 9] {
            let s = warmup_scale(pwu, pwu);
            assert!(
                s <= 1.0 + WARM_THRESHOLD + 1e-9,
                "pwu={pwu}: iteration pwu must be warm, got {s}"
            );
            if pwu > 1 {
                let before = warmup_scale(pwu - 2, pwu);
                assert!(before > 1.0 + WARM_THRESHOLD, "pwu={pwu}: not warm before");
            }
        }
    }

    #[test]
    fn steady_state_iterations_reach_the_warm_threshold() {
        for pwu in [1u32, 2, 5, 9] {
            let n = steady_state_iterations(pwu);
            assert!(
                residual_warmup(n, pwu) <= WARM_THRESHOLD + 1e-9,
                "pwu={pwu}"
            );
            assert!(residual_warmup(n - 1, pwu) > WARM_THRESHOLD, "pwu={pwu}");
        }
    }

    #[test]
    fn slow_warmup_workloads_stay_cold_longer() {
        // jython (PWU 9) at iteration 3 is colder than fop-alike (PWU 2).
        assert!(warmup_scale(3, 9) > warmup_scale(3, 2));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn empty_iteration_set_rejected() {
        IterationSet::new(vec![]);
    }
}
