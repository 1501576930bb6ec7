//! # agg-stats — the statistical toolkit behind RS-ESTIMATOR
//!
//! Self-contained (no dependency on the database substrate) implementations
//! of the statistics used by *Aggregate Estimation Over Dynamic Hidden Web
//! Databases*:
//!
//! * [`moments`] — Welford running moments with Bessel-corrected sample
//!   variance (the paper's §4.2 variance plug-ins);
//! * [`weighted`] — inverse-variance combination of unbiased estimators
//!   (Theorem 4.2 / Corollary 4.2);
//! * [`allocation`] — optimal query-budget distribution across drill-down
//!   age groups (Corollaries 4.1 and 4.3), solved by water-filling;
//! * [`resample`] — the statistical bootstrap: percentile confidence
//!   intervals for a mean, resampled one value at a time or in blocks
//!   (not the paper's "bootstrapping", which is RS's pilot phase);
//! * [`error`] — relative error and trial series summaries for the
//!   experiment harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocation;
pub mod error;
pub mod moments;
pub mod resample;
pub mod weighted;

pub use allocation::{allocate, combined_variance, corollary_4_1, GroupParams};
pub use error::{relative_error, SeriesSummary};
pub use moments::RunningMoments;
pub use resample::ConfidenceInterval;
pub use weighted::{combine, Combined, Component};
