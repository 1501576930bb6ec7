//! RESTART-ESTIMATOR: the baseline that reruns the static drill-down
//! estimator of Dasgupta et al. \[13\] from scratch every round (§1, §3).
//!
//! Each round is treated as an independent static database: sample fresh
//! signatures, drill each from the root, average the HT samples. Nothing
//! is carried across rounds except the previous round's published
//! estimate (needed to report a trans-round change estimate, which for
//! RESTART is just the difference of two independent estimates — the
//! high-variance behaviour Figs 15–17 demonstrate).

use hidden_db::session::SearchBackend;
use query_tree::signature::Signature;
use query_tree::tree::QueryTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregate::{drill_sample, AggregateSpec};
use crate::estimator::{attach_report_cis, base_report, BootstrapSpec, Estimator, SampleMoments};
use crate::report::{EstimateWithVar, RoundReport};
use crate::transround::DegradationLog;

/// The repeated-execution baseline.
#[derive(Debug)]
pub struct RestartEstimator {
    spec: AggregateSpec,
    tree: QueryTree,
    rng: StdRng,
    round: u32,
    prev_count: Option<EstimateWithVar>,
    prev_sum: Option<EstimateWithVar>,
    degradation: DegradationLog,
    bootstrap: Option<BootstrapSpec>,
}

impl RestartEstimator {
    /// Creates the estimator over `tree`, tracking `spec`.
    pub fn new(spec: AggregateSpec, tree: QueryTree, seed: u64) -> Self {
        Self {
            spec,
            tree,
            rng: StdRng::seed_from_u64(seed),
            round: 0,
            prev_count: None,
            prev_sum: None,
            degradation: DegradationLog::new(),
            bootstrap: None,
        }
    }

    /// The query tree in use.
    pub fn tree(&self) -> &QueryTree {
        &self.tree
    }
}

impl Estimator for RestartEstimator {
    fn name(&self) -> &'static str {
        "RESTART"
    }

    fn spec(&self) -> &AggregateSpec {
        &self.spec
    }

    fn set_bootstrap(&mut self, spec: Option<BootstrapSpec>) {
        self.bootstrap = spec;
    }

    fn run_round(&mut self, backend: &mut dyn SearchBackend) -> RoundReport {
        self.round += 1;
        self.degradation.begin_round();
        let mut samples = if self.bootstrap.is_some() {
            SampleMoments::retaining_raw()
        } else {
            SampleMoments::default()
        };
        let mut initiated = 0;
        while backend.remaining() > 0 {
            let sig = Signature::sample(&self.tree, &mut self.rng);
            match drill_sample(&self.spec, &self.tree, &sig, None, backend) {
                Ok(out) => {
                    samples.push(out.sample);
                    initiated += 1;
                }
                // Interrupted mid-drill (budget death or an unrecovered
                // fault): the partial drill-down cannot produce an
                // unbiased sample; its queries are simply lost (the
                // "wasted queries" §1 complains about).
                Err(e) => {
                    self.degradation.interrupted(backend.remaining(), !e.is_budget());
                    break;
                }
            }
        }
        let mut report =
            base_report(self.round, backend, 0, initiated, &samples, self.degradation.tag());
        if let Some(spec) = &self.bootstrap {
            attach_report_cis(&mut report, &samples, spec);
        }
        // Trans-round change: difference of independent estimates.
        if let (Some(pc), Some(ps)) = (self.prev_count, self.prev_sum) {
            if pc.is_usable() && report.count.is_usable() {
                report.change_count = Some(EstimateWithVar::new(
                    report.count.value - pc.value,
                    report.count.variance + pc.variance,
                ));
            }
            if ps.is_usable() && report.sum.is_usable() {
                report.change_sum = Some(EstimateWithVar::new(
                    report.sum.value - ps.value,
                    report.sum.variance + ps.variance,
                ));
            }
        }
        self.prev_count = Some(report.count);
        self.prev_sum = Some(report.sum);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grow, hashed_db};
    use hidden_db::session::SearchSession;

    #[test]
    fn estimates_count_star_reasonably() {
        let mut db = hashed_db(120, 16, 0);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RestartEstimator::new(AggregateSpec::count_star(), tree, 7);
        let mut session = SearchSession::new(&mut db, 400);
        let report = est.run_round(&mut session);
        assert!(report.initiated > 50);
        assert!(report.queries_spent <= 400);
        let err = (report.count.value - 120.0).abs() / 120.0;
        assert!(err < 0.35, "relative error {err}, est {}", report.count.value);
    }

    #[test]
    fn monte_carlo_mean_is_unbiased() {
        // Average many independent single-round estimates: the grand mean
        // must approach the truth (Theorem of [13] / §3.1).
        let mut db = hashed_db(60, 16, 1);
        let truth = db.len() as f64;
        let tree = QueryTree::full(&db.schema().clone());
        let mut grand = agg_stats::moments::RunningMoments::new();
        for seed in 0..60 {
            let mut est = RestartEstimator::new(AggregateSpec::count_star(), tree.clone(), seed);
            let mut session = SearchSession::new(&mut db, 100);
            let report = est.run_round(&mut session);
            grand.push(report.count.value);
        }
        let mean = grand.mean().unwrap();
        let se = grand.variance_of_mean().unwrap().sqrt();
        assert!(
            (mean - truth).abs() < 5.0 * se + 1.0,
            "grand mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn reports_change_across_rounds() {
        let mut db = hashed_db(100, 16, 2);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RestartEstimator::new(AggregateSpec::count_star(), tree, 3);
        {
            let mut s = SearchSession::new(&mut db, 300);
            let r1 = est.run_round(&mut s);
            assert!(r1.change_count.is_none(), "no change estimate in round 1");
        }
        grow(&mut db, 200, 30);
        let mut s = SearchSession::new(&mut db, 300);
        let r2 = est.run_round(&mut s);
        let ch = r2.change_count.expect("round 2 must report change");
        // Truth is +30; RESTART's change estimate is noisy but finite.
        assert!(ch.value.is_finite());
        assert!(ch.variance > 0.0);
    }

    #[test]
    fn unrecovered_fault_mid_round_degrades_instead_of_unwinding() {
        use hidden_db::fault::{FaultSchedule, FaultyBackend};

        let mut db = hashed_db(120, 16, 5);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RestartEstimator::new(AggregateSpec::count_star(), tree, 21);
        // Seeded faults with no recovery layer: the round is interrupted
        // at the first injection but still reports partial estimates.
        let session = SearchSession::new(&mut db, 400);
        let mut faulty = FaultyBackend::new(
            session,
            FaultSchedule::seeded(3, 0.05).with_max_consecutive(u32::MAX),
        );
        let r = est.run_round(&mut faulty);
        let tag = r.degraded.expect("fault interruption must tag the report");
        assert_eq!(tag.rounds_affected, 1);
        assert!(tag.queries_lost > 0);
        // Partial but honest: the drills completed before the fault still
        // feed the estimate.
        assert!(r.initiated > 0);
        assert!(r.count.is_usable());
        // Budget exhaustion alone never tags: identical run, no faults.
        let mut db2 = hashed_db(120, 16, 5);
        let tree2 = QueryTree::full(&db2.schema().clone());
        let mut est2 = RestartEstimator::new(AggregateSpec::count_star(), tree2, 21);
        let mut s = SearchSession::new(&mut db2, 400);
        let clean = est2.run_round(&mut s);
        assert!(clean.degraded.is_none());
        assert!(clean.initiated >= r.initiated);
    }

    #[test]
    fn budget_zero_yields_unusable_estimate() {
        let mut db = hashed_db(50, 16, 3);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RestartEstimator::new(AggregateSpec::count_star(), tree, 1);
        let mut s = SearchSession::new(&mut db, 0);
        let r = est.run_round(&mut s);
        assert_eq!(r.initiated, 0);
        assert!(!r.count.is_usable());
    }

    #[test]
    fn sum_and_avg_tracking() {
        let mut db = hashed_db(90, 16, 4);
        let truth_sum = db.exact_sum(None, |t| t.measure(hidden_db::value::MeasureId(0)));
        let tree = QueryTree::full(&db.schema().clone());
        let spec = AggregateSpec::avg_measure(
            hidden_db::value::MeasureId(0),
            hidden_db::query::ConjunctiveQuery::select_all(),
        );
        let mut est = RestartEstimator::new(spec, tree, 11);
        let mut s = SearchSession::new(&mut db, 500);
        let r = est.run_round(&mut s);
        let rel = (r.sum.value - truth_sum).abs() / truth_sum;
        assert!(rel < 0.4, "sum rel err {rel}");
        let avg = r.avg().unwrap();
        let truth_avg = truth_sum / 90.0;
        assert!((avg - truth_avg).abs() / truth_avg < 0.4, "avg {avg} vs {truth_avg}");
    }
}
