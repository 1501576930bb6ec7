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
//! * [`pilot`] — pilot drill-down summaries (`g_x`, `α_x`; the paper's
//!   "bootstrapping" phase, which is not a statistical bootstrap);
//! * [`resample`] — the statistical bootstrap: n-out-of-n, m-out-of-n and
//!   moving-block resampling with percentile confidence intervals,
//!   deterministically parallel across replicates;
//! * [`error`] — relative error, MSE decomposition, and trial series
//!   summaries for the experiment harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocation;
pub mod error;
pub mod moments;
pub mod pilot;
pub mod quantiles;
pub mod resample;
pub mod weighted;

pub use allocation::{allocate, combined_variance, corollary_4_1, GroupParams};
pub use error::{mse_decomposition, relative_error, MseDecomposition, SeriesSummary};
pub use moments::RunningMoments;
pub use pilot::PilotGroup;
pub use quantiles::{nearest_rank_index, P2Quantile};
pub use resample::{Bootstrap, ConfidenceInterval, Replicates, Variant};
pub use weighted::{combine, optimal_two_weight, Combined, Component};
