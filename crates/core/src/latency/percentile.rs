//! Latency distributions and percentile reporting.
//!
//! Recommendation L2: "Researchers should report distribution statistics
//! and/or plot CDFs as illustrated in Figure 3, rather than reporting
//! singular latency metrics." The figures plot request latency against a
//! log-scaled percentile axis: 0, 90, 99, 99.9, 99.99, 99.999, 99.9999.

use chopin_analysis::descriptive::percentile_sorted;
use chopin_runtime::time::SimDuration;

/// The percentile axis used by the paper's latency figures.
pub const FIGURE_PERCENTILES: [f64; 7] = [0.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999];

/// The tabular report the suite prints: "from median to 99.99".
pub const REPORT_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Position of percentile `p` on the paper's log-scaled percentile axis
/// (Figures 3 and 6): 0, 90, 99, 99.9, … are equally spaced, i.e.
/// `x = -log10(1 - p/100)`.
///
/// # Examples
///
/// ```
/// use chopin_core::latency::percentile::percentile_axis_position;
///
/// assert_eq!(percentile_axis_position(0.0), 0.0);
/// assert!((percentile_axis_position(90.0) - 1.0).abs() < 1e-9);
/// assert!((percentile_axis_position(99.0) - 2.0).abs() < 1e-9);
/// assert!((percentile_axis_position(99.9) - 3.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100)` (100 maps to infinity).
pub fn percentile_axis_position(p: f64) -> f64 {
    assert!((0.0..100.0).contains(&p), "percentile must lie in [0, 100)");
    -(1.0 - p / 100.0).log10()
}

/// An immutable latency distribution.
///
/// # Examples
///
/// ```
/// use chopin_core::latency::LatencyDistribution;
/// use chopin_runtime::time::SimDuration;
///
/// let d = LatencyDistribution::from_durations(
///     (1..=100).map(SimDuration::from_millis),
/// ).expect("non-empty");
/// assert_eq!(d.len(), 100);
/// assert!((d.percentile(50.0) - 50.5).abs() < 1e-9);
/// assert!(d.percentile(99.0) > d.percentile(90.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDistribution {
    /// Latencies in milliseconds, ascending.
    sorted_ms: Vec<f64>,
}

impl LatencyDistribution {
    /// Build a distribution from raw durations.
    ///
    /// Returns `None` for an empty input.
    pub fn from_durations<I: IntoIterator<Item = SimDuration>>(latencies: I) -> Option<Self> {
        let mut sorted_ms: Vec<f64> = latencies.into_iter().map(|d| d.as_millis_f64()).collect();
        if sorted_ms.is_empty() {
            return None;
        }
        sorted_ms.sort_by(f64::total_cmp);
        Some(LatencyDistribution { sorted_ms })
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// Whether the distribution is empty (never: construction rejects it).
    pub fn is_empty(&self) -> bool {
        self.sorted_ms.is_empty()
    }

    /// The `p`-th percentile latency in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        match percentile_sorted(&self.sorted_ms, p) {
            Ok(v) => v,
            Err(e) => panic!("invalid percentile query: {e}"),
        }
    }

    /// The maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        // Construction rejects empty distributions.
        self.sorted_ms.last().copied().unwrap_or(f64::NAN)
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.sorted_ms.iter().sum::<f64>() / self.sorted_ms.len() as f64
    }

    /// The (percentile, latency-ms) series for the paper's figure axis,
    /// truncated to percentiles the sample size can resolve (a 420-event
    /// jme run cannot speak to the 99.999th percentile).
    pub fn figure_curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted_ms.len() as f64;
        FIGURE_PERCENTILES
            .iter()
            .filter(|&&p| p == 0.0 || n >= 100.0 / (100.0 - p))
            .map(|&p| (p, self.percentile(p)))
            .collect()
    }

    /// The tabular "median to 99.99" report as (percentile, latency-ms)
    /// pairs.
    pub fn report(&self) -> Vec<(f64, f64)> {
        REPORT_PERCENTILES
            .iter()
            .map(|&p| (p, self.percentile(p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dist(ms: &[u64]) -> LatencyDistribution {
        LatencyDistribution::from_durations(ms.iter().map(|&m| SimDuration::from_millis(m)))
            .unwrap()
    }

    #[test]
    fn empty_input_rejected() {
        assert!(LatencyDistribution::from_durations(std::iter::empty()).is_none());
    }

    #[test]
    fn percentiles_are_monotone() {
        let d = dist(&[5, 1, 9, 3, 7, 2, 8, 4, 6, 10]);
        let mut prev = 0.0;
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let v = d.percentile(p);
            assert!(v >= prev);
            prev = v;
        }
        assert_eq!(d.max_ms(), 10.0);
        assert!((d.mean_ms() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn figure_curve_respects_sample_size() {
        let small = dist(&[1; 50]);
        let points: Vec<f64> = small.figure_curve().iter().map(|(p, _)| *p).collect();
        assert!(points.contains(&0.0));
        assert!(points.contains(&90.0));
        assert!(!points.contains(&99.9), "50 events cannot resolve 99.9");
        let big = LatencyDistribution::from_durations(
            (0..2_000_000).map(|_| SimDuration::from_millis(1)),
        )
        .unwrap();
        assert_eq!(big.figure_curve().len(), FIGURE_PERCENTILES.len());
    }

    #[test]
    fn report_covers_median_to_four_nines() {
        let d = dist(&(1..=10_000).collect::<Vec<_>>());
        let report = d.report();
        assert_eq!(report.len(), 5);
        assert_eq!(report[0].0, 50.0);
        assert_eq!(report[4].0, 99.99);
    }

    #[test]
    fn axis_positions_are_equally_spaced_nines() {
        let positions: Vec<f64> = [0.0, 90.0, 99.0, 99.9, 99.99, 99.999]
            .iter()
            .map(|&p| percentile_axis_position(p))
            .collect();
        for (i, x) in positions.iter().enumerate() {
            assert!((x - i as f64).abs() < 1e-9, "{positions:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_percentile_bounded_by_extremes(
            ms in proptest::collection::vec(1u64..100_000, 1..200),
            p in 0.0f64..100.0,
        ) {
            let d = dist(&ms);
            let v = d.percentile(p);
            prop_assert!(v >= d.percentile(0.0) - 1e-9);
            prop_assert!(v <= d.max_ms() + 1e-9);
        }
    }
}
