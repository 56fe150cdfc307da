//! The 22 DaCapo Chopin workload profiles as synthetic drivers for the
//! chopin simulated runtime.
//!
//! A real DaCapo benchmark is hundreds of thousands of lines of Java; what
//! the paper's *evaluation* depends on is each workload's quantitative
//! signature — allocation rate, live-set size and shape, turnover,
//! parallelism, kernel share, request structure. This crate encodes those
//! signatures, calibrated from the paper's published per-benchmark nominal
//! statistics (appendix B), and converts them into
//! [`chopin_runtime::spec::MutatorSpec`]s the simulation engine can run.
//!
//! The published statistics live once, in [`nominal::dataset`]. A profile
//! reads its 19 published fields and its provenance from its benchmark's
//! row; each [`suite`] module adds only what the paper does not publish
//! (see [`profile`]).
//!
//! # Examples
//!
//! ```
//! use chopin_workloads::{suite, SizeClass};
//!
//! let profiles = suite::all();
//! assert_eq!(profiles.len(), 22);
//!
//! let lusearch = suite::by_name("lusearch").expect("in the suite");
//! let spec = lusearch
//!     .to_spec(SizeClass::Default)
//!     .expect("default size exists")
//!     .expect("profile is valid");
//! assert_eq!(spec.threads(), 32, "lusearch has 32 client threads");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod faults;
pub mod profile;
pub mod suite;

/// The paper's published nominal statistics (§5.1): the Table 1 metric
/// definitions and the per-benchmark values. `chopin_core::nominal`
/// re-exports both modules beside the scores and the PCA built on them.
pub mod nominal {
    pub mod dataset;
    pub mod metric;
}

pub use nominal::dataset::Provenance;
pub use profile::{RequestSpec, SizeClass, WorkloadProfile};
