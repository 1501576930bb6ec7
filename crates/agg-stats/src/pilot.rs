//! Pilot (§4.2–4.3) sample summaries.
//!
//! RS-ESTIMATOR opens each round by running `ϖ` pilot drill-downs per age
//! group to learn, per group: the average query cost `g_x`, and the
//! variance `α_x` of the per-drill-down estimate term. This module
//! accumulates those pilots and converts them into
//! [`allocation::GroupParams`](crate::allocation::GroupParams).
//!
//! The paper calls this phase "bootstrapping", and this module used to be
//! named `bootstrap` after it — but it is *not* a statistical bootstrap
//! (no resampling happens). It was renamed `pilot` so that
//! [`resample`](crate::resample), the actual bootstrap engine, can own
//! that vocabulary; the old path survives as a deprecated re-export.

use crate::allocation::GroupParams;
use crate::moments::RunningMoments;

/// Accumulates pilot observations for one age group.
#[derive(Debug, Clone, Default)]
pub struct PilotGroup {
    costs: RunningMoments,
    values: RunningMoments,
}

impl PilotGroup {
    /// An empty pilot accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one pilot drill-down: its query cost and its per-drill-down
    /// estimate term (`f_Q(x, q_j(r))` for updates, the plain HT estimate
    /// for fresh drill-downs).
    pub fn record(&mut self, cost: f64, value: f64) {
        self.costs.push(cost);
        self.values.push(value);
    }

    /// Number of pilots recorded.
    pub fn count(&self) -> u64 {
        self.costs.count()
    }

    /// Average query cost per drill-down, `g_x`. Falls back to
    /// `default_cost` when no pilot ran.
    pub fn mean_cost(&self, default_cost: f64) -> f64 {
        self.costs.mean().unwrap_or(default_cost).max(1.0)
    }

    /// Bessel-corrected per-drill-down variance `α_x`. Falls back to
    /// `default_alpha` with fewer than 2 pilots.
    pub fn alpha(&self, default_alpha: f64) -> f64 {
        self.values.sample_variance().unwrap_or(default_alpha)
    }

    /// Mean of the recorded estimate terms (the pilots also contribute to
    /// the round estimate — Algorithm 2 folds them into the pool).
    pub fn mean_value(&self) -> Option<f64> {
        self.values.mean()
    }

    /// The group's estimate-term moments (for folding pilots into the
    /// final round estimate).
    pub fn values(&self) -> &RunningMoments {
        &self.values
    }

    /// Converts to allocator parameters.
    ///
    /// * `beta` — the irreducible base variance of the group (variance of
    ///   the historic estimate it chains from; 0 for fresh drill-downs);
    /// * `cap` — drill-downs available in the group;
    /// * defaults — used when pilots are too few to estimate.
    pub fn to_group_params(
        &self,
        beta: f64,
        cap: f64,
        default_cost: f64,
        default_alpha: f64,
    ) -> GroupParams {
        GroupParams::new(self.alpha(default_alpha), beta, self.mean_cost(default_cost), cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarises() {
        let mut p = PilotGroup::new();
        p.record(2.0, 100.0);
        p.record(4.0, 110.0);
        p.record(3.0, 90.0);
        assert_eq!(p.count(), 3);
        assert!((p.mean_cost(0.0) - 3.0).abs() < 1e-12);
        assert!((p.alpha(0.0) - 100.0).abs() < 1e-9, "sample var of 100,110,90");
        assert!((p.mean_value().unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn defaults_when_insufficient() {
        let p = PilotGroup::new();
        assert_eq!(p.mean_cost(5.0), 5.0);
        assert_eq!(p.alpha(42.0), 42.0);
        assert_eq!(p.mean_value(), None);
        let mut p = PilotGroup::new();
        p.record(2.0, 7.0);
        assert_eq!(p.alpha(42.0), 42.0, "one sample cannot estimate variance");
        assert_eq!(p.mean_cost(5.0), 2.0);
    }

    #[test]
    fn cost_floor_is_one_query() {
        let mut p = PilotGroup::new();
        p.record(0.2, 1.0); // corrupt cost below one query
        p.record(0.4, 2.0);
        assert_eq!(p.mean_cost(3.0), 1.0);
    }

    #[test]
    fn converts_to_group_params() {
        let mut p = PilotGroup::new();
        p.record(2.0, 10.0);
        p.record(2.0, 14.0);
        let gp = p.to_group_params(0.5, 20.0, 3.0, 1.0);
        assert_eq!(gp.beta, 0.5);
        assert_eq!(gp.cap, 20.0);
        assert_eq!(gp.cost, 2.0);
        assert!((gp.alpha - 8.0).abs() < 1e-9);
    }
}
