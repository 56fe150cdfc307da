//! Nominal statistics (§5.1) and the principal components analysis built
//! on them (§5.2).
//!
//! "DaCapo Chopin comes with a large and diverse set of precomputed
//! analyses and statistics ... included as part of the suite because they
//! are methodologically and computationally non-trivial to calculate, yet
//! provide considerable insight into how each of the benchmarks behave."
//! The word *nominal* is used "in the sense of 'being, or relating to a
//! designated or theoretical size that may vary from the actual'".
//!
//! * [`metric`] — the Table 1 metric definitions.
//! * [`mod@dataset`] — the per-benchmark values (appendix tables / Table 2).
//! * [`score`] — the rank → score(0–10) machinery of the appendix tables.
//! * [`suite_pca`] — the Figure 4 analysis.
//!
//! The metric definitions and the dataset live in `chopin-workloads`,
//! whose profiles read their published fields from the dataset; this
//! module re-exports both.

pub use chopin_workloads::nominal::{dataset, metric};
pub mod score;

pub use dataset::{complete_matrix, complete_metrics, dataset, row, NominalRow, Provenance};
pub use metric::{metric_index, MetricDef, MetricGroup, METRICS, TABLE2_METRICS};
pub use score::{metric_ranking, score_table, ScoredMetric};

use chopin_analysis::pca::Pca;
use chopin_analysis::AnalysisError;

/// The suite-wide PCA of Figure 4: standard-scaled raw values of the
/// complete nominal metrics, one observation per benchmark.
///
/// Returns the benchmark names (row order of [`Pca::scores`]), the metric
/// codes (variable order of the loadings) and the fitted model.
///
/// # Errors
///
/// Propagates [`AnalysisError`] from the PCA fit (cannot occur for the
/// stock dataset, which is validated by tests).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), chopin_analysis::AnalysisError> {
/// let (benchmarks, _metrics, pca) = chopin_core::nominal::suite_pca()?;
/// assert_eq!(benchmarks.len(), 22);
/// // "Together, these four principal components account for over 50% of
/// //  the variance between benchmarks." (§5.2)
/// assert!(pca.cumulative_explained_variance(4) > 0.5);
/// # Ok(())
/// # }
/// ```
pub fn suite_pca() -> Result<(Vec<&'static str>, Vec<&'static str>, Pca), AnalysisError> {
    let (benchmarks, metrics, matrix) = complete_matrix();
    let pca = Pca::fit(&matrix)?;
    Ok((benchmarks, metrics, pca))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pca_reproduces_figure_4_shape() {
        let (benchmarks, metrics, pca) = suite_pca().unwrap();
        assert_eq!(benchmarks.len(), 22);
        assert!(metrics.len() >= 33);
        let ratios = pca.explained_variance_ratio();
        // PC1 explains the most, and no single component dominates (the
        // paper reports 18/16/14/11% for PC1–PC4).
        assert!(ratios[0] > ratios[1]);
        assert!(ratios[0] < 0.5, "diverse suite: PC1 = {}", ratios[0]);
        assert!(pca.cumulative_explained_variance(4) > 0.5);
    }

    #[test]
    fn pca_scores_spread_benchmarks() {
        // Diversity: the per-benchmark projections onto PC1/PC2 are not
        // clustered at a point.
        let (_, _, pca) = suite_pca().unwrap();
        let pc1: Vec<f64> = pca.scores().iter().map(|r| r[0]).collect();
        let spread = pc1.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - pc1.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 2.0, "PC1 spread {spread}");
    }

    #[test]
    fn determinant_metrics_overlap_table2() {
        // The PCA-derived most-determinant set should recover a healthy
        // share of the paper's Table 2 selection.
        let (_, metrics, pca) = suite_pca().unwrap();
        let top = pca.most_determinant_variables(12, 4);
        let top_codes: Vec<&str> = top.iter().map(|&i| metrics[i]).collect();
        let overlap = top_codes
            .iter()
            .filter(|c| TABLE2_METRICS.contains(c))
            .count();
        assert!(
            overlap >= 3,
            "expected overlap with Table 2, got {overlap}: {top_codes:?}"
        );
    }
}
