//! The estimator abstraction shared by RESTART, REISSUE, and RS, plus
//! small summarisation helpers they all use.

use agg_stats::moments::RunningMoments;
use agg_stats::resample;
use hidden_db::session::SearchBackend;

use crate::aggregate::{AggregateSpec, HtSample};
use crate::report::{Degraded, EstimateWithVar, RoundReport};

/// Opt-in configuration for per-round bootstrap percentile CIs on the
/// report's estimates.
///
/// When handed to [`Estimator::set_bootstrap`], estimators with a flat
/// per-drill-down sample pool (RESTART, REISSUE) retain the raw HT terms
/// of each round and fill [`EstimateWithVar::ci`] with an n-out-of-n
/// percentile interval of the resampled mean — within one round the
/// drill-downs are exchangeable, so i.i.d. resampling is honest there
/// (the *trans-round* serial dependence is the block bootstrap's job in
/// the experiment harness). The default configuration is `None`:
/// no retention, no resampling, bit-identical to the pre-CI behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapSpec {
    /// Bootstrap replicates per estimate (default 400).
    pub replicates: usize,
    /// Nominal coverage of the percentile interval (default 0.95).
    pub level: f64,
    /// Base seed; each (round, component) gets its own derived stream.
    pub seed: u64,
}

impl Default for BootstrapSpec {
    fn default() -> Self {
        Self { replicates: 400, level: 0.95, seed: 0 }
    }
}

/// A dynamic-database aggregate estimator: call [`Estimator::run_round`]
/// once per round with that round's budgeted session.
pub trait Estimator {
    /// Short display name ("RESTART" / "REISSUE" / "RS").
    fn name(&self) -> &'static str;

    /// The aggregate being tracked.
    fn spec(&self) -> &AggregateSpec;

    /// Executes one round against the backend (which enforces the budget)
    /// and reports the round's estimates. Must never panic on budget
    /// exhaustion or an unrecovered interface fault — partial rounds
    /// degrade gracefully, and fault-interrupted rounds additionally
    /// carry a [`Degraded`] marker in the report.
    fn run_round(&mut self, backend: &mut dyn SearchBackend) -> RoundReport;

    /// Opts into (or out of) bootstrap percentile CIs on future reports.
    /// The default implementation ignores the request — appropriate for
    /// estimators without a flat resampleable sample pool (RS combines
    /// age groups by inverse-variance weighting; resampling inside that
    /// weighted combination is future work).
    fn set_bootstrap(&mut self, _spec: Option<BootstrapSpec>) {}
}

/// Paired accumulators for the COUNT and SUM components of HT samples,
/// optionally retaining the raw terms for bootstrap resampling.
#[derive(Debug, Clone, Default)]
pub(crate) struct SampleMoments {
    pub count: RunningMoments,
    pub sum: RunningMoments,
    /// Raw per-drill terms, kept only when a bootstrap CI was requested.
    pub raw: Option<RawTerms>,
}

/// Raw per-drill-down HT terms of one round.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawTerms {
    pub count: Vec<f64>,
    pub sum: Vec<f64>,
}

impl SampleMoments {
    /// An accumulator that additionally buffers every raw term.
    pub fn retaining_raw() -> Self {
        Self { raw: Some(RawTerms::default()), ..Self::default() }
    }

    pub fn push(&mut self, s: HtSample) {
        self.count.push(s.count);
        self.sum.push(s.sum);
        if let Some(raw) = &mut self.raw {
            raw.count.push(s.count);
            raw.sum.push(s.sum);
        }
    }

    pub fn n(&self) -> u64 {
        self.count.count()
    }

    /// Mean estimate with variance-of-mean for the COUNT component.
    pub fn count_estimate(&self) -> EstimateWithVar {
        moments_estimate(&self.count)
    }

    /// Mean estimate with variance-of-mean for the SUM component.
    pub fn sum_estimate(&self) -> EstimateWithVar {
        moments_estimate(&self.sum)
    }
}

/// Converts running moments into an estimate: mean ± var(mean). With a
/// single sample the variance is unknown — reported as infinite so
/// downstream inverse-variance weighting effectively ignores it unless it
/// is the only component.
pub(crate) fn moments_estimate(m: &RunningMoments) -> EstimateWithVar {
    match (m.mean(), m.variance_of_mean()) {
        (Some(mean), Some(var)) => EstimateWithVar::new(mean, var),
        (Some(mean), None) => EstimateWithVar::new(mean, f64::INFINITY),
        _ => EstimateWithVar::unknown(),
    }
}

/// Attaches a bootstrap percentile CI of the mean to `est` from the raw
/// per-drill terms, on a stream derived from `(spec.seed, stream)` so
/// every (round, component) pair resamples independently and
/// deterministically. No-op with fewer than two finite terms, and for a
/// spec the resampler cannot run: no replicates, or a `level` outside
/// `(0, 1)` (NaN included). The round keeps its point estimates either
/// way.
pub(crate) fn attach_mean_ci(
    est: &mut EstimateWithVar,
    terms: &[f64],
    spec: &BootstrapSpec,
    stream: u64,
) {
    let runnable = spec.replicates > 0 && spec.level > 0.0 && spec.level < 1.0;
    if !runnable {
        return;
    }
    if let Some(ci) = resample::mean_ci(terms, spec.replicates, spec.seed ^ stream, spec.level) {
        *est = est.with_ci(ci);
    }
}

/// Fills the count/sum CIs of `report` from retained raw terms (no-op if
/// the accumulator was not retaining them). Streams 4·round .. 4·round+1.
pub(crate) fn attach_report_cis(
    report: &mut RoundReport,
    samples: &SampleMoments,
    spec: &BootstrapSpec,
) {
    if let Some(raw) = &samples.raw {
        let base = report.round as u64 * 4;
        attach_mean_ci(&mut report.count, &raw.count, spec, base);
        attach_mean_ci(&mut report.sum, &raw.sum, spec, base + 1);
    }
}

/// Builds the portion of a [`RoundReport`] common to all estimators.
pub(crate) fn base_report(
    round: u32,
    backend: &dyn SearchBackend,
    updated: usize,
    initiated: usize,
    samples: &SampleMoments,
    degraded: Option<Degraded>,
) -> RoundReport {
    RoundReport {
        round,
        queries_spent: backend.spent(),
        updated,
        initiated,
        count: samples.count_estimate(),
        sum: samples.sum_estimate(),
        change_count: None,
        change_sum: None,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_moments_accumulate_both_components() {
        let mut m = SampleMoments::default();
        m.push(HtSample { count: 10.0, sum: 100.0 });
        m.push(HtSample { count: 14.0, sum: 140.0 });
        assert_eq!(m.n(), 2);
        let c = m.count_estimate();
        assert_eq!(c.value, 12.0);
        assert!((c.variance - 4.0).abs() < 1e-9); // sample var 8 / n 2
        let s = m.sum_estimate();
        assert_eq!(s.value, 120.0);
    }

    #[test]
    fn single_sample_has_infinite_variance() {
        let mut m = SampleMoments::default();
        m.push(HtSample { count: 5.0, sum: 1.0 });
        let e = m.count_estimate();
        assert_eq!(e.value, 5.0);
        assert_eq!(e.variance, f64::INFINITY);
    }

    #[test]
    fn empty_moments_are_unknown() {
        let m = SampleMoments::default();
        assert!(!m.count_estimate().is_usable());
    }
}
