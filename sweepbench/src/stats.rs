//! Order statistics, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes quartiles, so the numbers
//! this benchmark prints match the ones a reviewer recomputes.

/// The `p` quantile (0 ≤ p ≤ 1) of `values` by the exclusive method
/// (Hyndman–Fan type 6, Python's default): the rank `p·(n+1)` is clamped
/// to `[1, n-1]` and interpolated linearly. `NaN` for no values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        1 => sorted[0],
        _ => {
            let rank = p * (n + 1) as f64;
            let j = (rank.floor() as usize).clamp(1, n - 1);
            let delta = rank - j as f64;
            sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
        }
    }
}

/// The median of `values`; `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `NaN` for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample count, median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// How many samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}
