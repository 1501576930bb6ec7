//! Accuracy metrics used throughout the paper's evaluation (§6.1):
//! relative error and per-round series summaries across repeated trials.

use crate::moments::RunningMoments;

/// `|θ̃ − θ| / |θ|`, the paper's accuracy measure. When the ground truth is
/// zero, returns 0 for an exact estimate and ∞ otherwise (the convention
/// that keeps the metric monotone; the paper's workloads never hit θ = 0).
/// [`SeriesSummary`] excludes such non-finite values from its means and
/// counts them separately, so one θ = 0 round cannot poison a series.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        return if estimate == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (estimate - truth).abs() / truth.abs()
}

/// Accumulates one metric across trials for each point of a series (e.g.
/// relative error per round, across 20 seeded trials).
///
/// Non-finite observations (±∞ from [`relative_error`] against a zero
/// truth, NaN from a degraded round) are *not* folded into the moments —
/// a single ∞ would otherwise poison the point's mean forever. They are
/// instead tallied per point in a [`non_finite`](Self::non_finite)
/// counter so the caller can still see that something went wrong.
#[derive(Debug, Clone, Default)]
pub struct SeriesSummary {
    points: Vec<RunningMoments>,
    non_finite: Vec<u64>,
}

impl SeriesSummary {
    /// An empty summary with `len` points.
    pub fn new(len: usize) -> Self {
        Self { points: vec![RunningMoments::new(); len], non_finite: vec![0; len] }
    }

    /// Number of points in the series.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Records one trial's value at `point`. Non-finite values are counted
    /// in [`non_finite`](Self::non_finite) instead of entering the moments.
    pub fn record(&mut self, point: usize, value: f64) {
        if value.is_finite() {
            self.points[point].push(value);
        } else {
            self.non_finite[point] += 1;
        }
    }

    /// Records a whole trial (one value per point; length must match).
    pub fn record_trial(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.points.len(), "trial length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self.record(i, v);
        }
    }

    /// Number of non-finite observations discarded at `point`.
    pub fn non_finite(&self, point: usize) -> u64 {
        self.non_finite[point]
    }

    /// Total non-finite observations discarded across all points.
    pub fn total_non_finite(&self) -> u64 {
        self.non_finite.iter().sum()
    }

    /// Mean at `point` (NaN if nothing recorded — keeps CSV columns
    /// aligned).
    pub fn mean(&self, point: usize) -> f64 {
        self.points[point].mean().unwrap_or(f64::NAN)
    }

    /// Sample standard deviation at `point` (0 with < 2 trials).
    pub fn std(&self, point: usize) -> f64 {
        self.points[point].sample_variance().map(f64::sqrt).unwrap_or(0.0)
    }

    /// Means of all points.
    pub fn means(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.mean(i)).collect()
    }

    /// Sample standard deviations of all points.
    pub fn stds(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.std(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(-50.0, -100.0), 0.5);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn series_summary_accumulates_trials() {
        let mut s = SeriesSummary::new(3);
        s.record_trial(&[1.0, 2.0, 3.0]);
        s.record_trial(&[3.0, 2.0, 1.0]);
        assert_eq!(s.means(), vec![2.0, 2.0, 2.0]);
        assert!((s.std(0) - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.std(1), 0.0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn unrecorded_points_are_nan() {
        let mut s = SeriesSummary::new(2);
        s.record(0, 1.0);
        assert_eq!(s.mean(0), 1.0);
        assert!(s.mean(1).is_nan());
        assert_eq!(s.std(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "trial length mismatch")]
    fn mismatched_trial_panics() {
        let mut s = SeriesSummary::new(2);
        s.record_trial(&[1.0]);
    }

    /// Regression: one ∞ (e.g. `relative_error` against a zero truth) or
    /// NaN used to poison the point's mean for every later trial. Now it
    /// is skipped and tallied.
    #[test]
    fn non_finite_values_are_skipped_and_counted() {
        let mut s = SeriesSummary::new(2);
        s.record_trial(&[1.0, relative_error(1.0, 0.0)]); // point 1 gets ∞
        s.record_trial(&[3.0, 4.0]);
        s.record(1, f64::NAN);
        s.record(1, f64::NEG_INFINITY);
        assert_eq!(s.means(), vec![2.0, 4.0], "finite data unaffected by ∞/NaN");
        assert_eq!(s.non_finite(0), 0);
        assert_eq!(s.non_finite(1), 3);
        assert_eq!(s.total_non_finite(), 3);
        assert!(s.std(1).is_finite());
    }
}
