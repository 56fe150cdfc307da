//! Statistics substrate for the chopin reproduction of *Rethinking Java
//! Performance Analysis* (ASPLOS '25).
//!
//! This crate implements, from scratch, every piece of numerical machinery
//! the paper's evaluation relies on:
//!
//! * [`descriptive`] — means, geometric means, standard deviations and
//!   percentiles (the paper reports geometric means over the 22 workloads and
//!   latency percentiles from the median to 99.99).
//! * [`ci`] — 95 % confidence intervals via the Student *t* distribution
//!   (§6.1 runs 10 invocations of each benchmark and plots 95 % CIs).
//! * [`scaling`] — the standard scaler (zero mean, unit variance) applied to
//!   nominal statistics before PCA (§5.2).
//! * [`matrix`] — a small dense row-major matrix used by the eigensolver.
//! * [`eigen`] — a cyclic Jacobi eigendecomposition for symmetric matrices.
//! * [`pca`] — principal components analysis built on the above, reproducing
//!   Figure 4.
//! * [`rank`] — fractional ranking and Spearman rank correlation, used to
//!   validate simulated workload characterisation against the paper's
//!   published rankings.
//!
//! Latency histograms live in `chopin_obs::LogHistogram`, the workspace's
//! one histogram (metrics and pause reports).
//!
//! # Examples
//!
//! ```
//! use chopin_analysis::pca::Pca;
//!
//! // Three observations of two (perfectly correlated) variables: one
//! // principal component explains all of the variance.
//! let data = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
//! let pca = Pca::fit(&data).expect("well-formed input");
//! assert!(pca.explained_variance_ratio()[0] > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ci;
pub mod descriptive;
pub mod eigen;
pub mod matrix;
pub mod pca;
pub mod rank;
pub mod scaling;

pub use ci::ConfidenceInterval;
pub use descriptive::{geometric_mean, mean, percentile, stddev};
pub use matrix::Matrix;
pub use pca::Pca;
pub use rank::spearman;
pub use scaling::StandardScaler;

use std::error::Error;
use std::fmt;

/// Error produced by analysis routines when the input data is unusable.
///
/// All public entry points validate their arguments (empty inputs, ragged
/// matrices, non-finite values where finiteness is required) and report the
/// problem through this type rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The input collection was empty where at least one element is required.
    Empty,
    /// Rows of a two-dimensional input had inconsistent lengths.
    Ragged {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// A value was not finite (NaN or infinite) where finiteness is required.
    NotFinite {
        /// Description of where the value was found.
        context: &'static str,
    },
    /// The requested quantity is undefined for the given input size.
    InsufficientData {
        /// Number of data points required.
        needed: usize,
        /// Number of data points provided.
        got: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Empty => write!(f, "input is empty"),
            AnalysisError::Ragged {
                expected,
                found,
                row,
            } => write!(
                f,
                "ragged input: row {row} has length {found}, expected {expected}"
            ),
            AnalysisError::NotFinite { context } => {
                write!(f, "non-finite value in {context}")
            }
            AnalysisError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
        }
    }
}

impl Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert_eq!(AnalysisError::Empty.to_string(), "input is empty");
        assert_eq!(
            AnalysisError::Ragged {
                expected: 3,
                found: 2,
                row: 1
            }
            .to_string(),
            "ragged input: row 1 has length 2, expected 3"
        );
        assert_eq!(
            AnalysisError::NotFinite { context: "pca" }.to_string(),
            "non-finite value in pca"
        );
        assert_eq!(
            AnalysisError::InsufficientData { needed: 2, got: 1 }.to_string(),
            "insufficient data: needed 2, got 1"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
    }
}
