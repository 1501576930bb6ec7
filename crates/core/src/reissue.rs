//! REISSUE-ESTIMATOR (§3, Algorithm 1).
//!
//! Keeps the signature set generated in round 1 and, each later round,
//! *updates* every remembered drill-down starting from its previous
//! terminal node: re-issue that node, drill deeper if it now overflows,
//! roll up if it now underflows. Query savings relative to restarting are
//! reinvested into brand-new drill-downs, shrinking variance round after
//! round (Theorem 3.2).
//!
//! Trans-round aggregates come out naturally: a drill-down updated in two
//! consecutive rounds yields the paired difference
//! `|q_j(r)|/p(q_j(r)) − |q_{j−1}(r)|/p(q_{j−1}(r))`, an unbiased change
//! estimate whose variance does not include the two rounds' full estimate
//! variances — the decisive advantage over RESTART in Figs 15–17.

use hidden_db::session::SearchBackend;
use query_tree::drill::ReissuePolicy;
use query_tree::signature::Signature;
use query_tree::tree::QueryTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::aggregate::{drill_sample, AggregateSpec};
use crate::estimator::{
    attach_mean_ci, attach_report_cis, base_report, moments_estimate, BootstrapSpec, Estimator,
    SampleMoments,
};
use crate::record::DrillRecord;
use crate::report::RoundReport;
use crate::transround::DegradationLog;

/// The query-reissuing estimator.
#[derive(Debug)]
pub struct ReissueEstimator {
    spec: AggregateSpec,
    tree: QueryTree,
    policy: ReissuePolicy,
    rng: StdRng,
    pool: Vec<DrillRecord>,
    round: u32,
    degradation: DegradationLog,
    bootstrap: Option<BootstrapSpec>,
}

impl ReissueEstimator {
    /// Creates the estimator with the default (`Strict`, unbiased) reissue
    /// policy.
    pub fn new(spec: AggregateSpec, tree: QueryTree, seed: u64) -> Self {
        Self::with_policy(spec, tree, seed, ReissuePolicy::Strict)
    }

    /// Creates the estimator with an explicit reissue policy (`Trusting`
    /// reproduces the §3.2 one-query-per-unchanged-node cost model; see
    /// the ablation bench).
    pub fn with_policy(
        spec: AggregateSpec,
        tree: QueryTree,
        seed: u64,
        policy: ReissuePolicy,
    ) -> Self {
        Self {
            spec,
            tree,
            policy,
            rng: StdRng::seed_from_u64(seed),
            pool: Vec::new(),
            round: 0,
            degradation: DegradationLog::new(),
            bootstrap: None,
        }
    }

    /// Number of drill-downs currently remembered.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// The query tree in use.
    pub fn tree(&self) -> &QueryTree {
        &self.tree
    }
}

impl Estimator for ReissueEstimator {
    fn name(&self) -> &'static str {
        "REISSUE"
    }

    fn spec(&self) -> &AggregateSpec {
        &self.spec
    }

    fn set_bootstrap(&mut self, spec: Option<BootstrapSpec>) {
        self.bootstrap = spec;
    }

    fn run_round(&mut self, backend: &mut dyn SearchBackend) -> RoundReport {
        self.round += 1;
        let j = self.round;
        self.degradation.begin_round();
        let mut diffs = if self.bootstrap.is_some() {
            SampleMoments::retaining_raw()
        } else {
            SampleMoments::default()
        };

        // --- update pass (Algorithm 1, lines 4–10) -----------------------
        // Random order so that, if the budget dies early, the updated
        // subset is uniformly random (keeps the round estimate unbiased).
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        order.shuffle(&mut self.rng);
        let mut updated = 0;
        for idx in order {
            if backend.remaining() == 0 {
                break;
            }
            let rec = &mut self.pool[idx];
            let resume = Some((rec.depth, self.policy));
            match drill_sample(&self.spec, &self.tree, &rec.sig, resume, backend) {
                Ok(out) => {
                    if rec.round == j - 1 {
                        diffs.push(out.sample.diff(rec.sample));
                    }
                    rec.depth = out.depth;
                    rec.sample = out.sample;
                    rec.round = j;
                    updated += 1;
                }
                // Interrupted mid-resume (exhaustion or unrecovered
                // fault): the record keeps its previous depth and stays
                // resumable next round.
                Err(e) => {
                    self.degradation.interrupted(backend.remaining(), !e.is_budget());
                    break;
                }
            }
        }

        // --- new drill-downs with the saved budget (line 11) -------------
        let mut initiated = 0;
        while backend.remaining() > 0 {
            let sig = Signature::sample(&self.tree, &mut self.rng);
            match drill_sample(&self.spec, &self.tree, &sig, None, backend) {
                Ok(out) => {
                    self.pool.push(DrillRecord::new(sig, out.depth, j, out.sample));
                    initiated += 1;
                }
                Err(e) => {
                    self.degradation.interrupted(backend.remaining(), !e.is_budget());
                    break;
                }
            }
        }

        // --- estimation (line 12): all drill-downs current at round j ----
        let mut samples = if self.bootstrap.is_some() {
            SampleMoments::retaining_raw()
        } else {
            SampleMoments::default()
        };
        for rec in &self.pool {
            if rec.round == j {
                samples.push(rec.sample);
            }
        }
        let mut report =
            base_report(j, backend, updated, initiated, &samples, self.degradation.tag());
        if j > 1 && diffs.n() > 0 {
            report.change_count = Some(moments_estimate(&diffs.count));
            report.change_sum = Some(moments_estimate(&diffs.sum));
        }
        if let Some(spec) = &self.bootstrap {
            attach_report_cis(&mut report, &samples, spec);
            if let Some(raw) = &diffs.raw {
                let base = j as u64 * 4;
                if let Some(est) = &mut report.change_count {
                    attach_mean_ci(est, &raw.count, spec, base + 2);
                }
                if let Some(est) = &mut report.change_sum {
                    attach_mean_ci(est, &raw.sum, spec, base + 3);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grow, hashed_db, shrink};
    use hidden_db::session::SearchSession;

    #[test]
    fn round_one_matches_restart_behaviour() {
        let mut db = hashed_db(100, 16, 0);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree, 5);
        let mut s = SearchSession::new(&mut db, 300);
        let r = est.run_round(&mut s);
        assert_eq!(r.updated, 0);
        assert!(r.initiated > 30);
        assert!(est.pool_size() > 0);
        let rel = (r.count.value - 100.0).abs() / 100.0;
        assert!(rel < 0.4, "round-1 rel err {rel}");
    }

    #[test]
    fn unchanged_database_grows_pool_and_shrinks_error() {
        let mut db = hashed_db(100, 16, 1);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree, 6);
        let mut first_updated = 0;
        let mut pool_sizes = Vec::new();
        for round in 0..4 {
            let mut s = SearchSession::new(&mut db, 200);
            let r = est.run_round(&mut s);
            if round == 1 {
                first_updated = r.updated;
            }
            pool_sizes.push(est.pool_size());
        }
        assert!(first_updated > 0, "round 2 must update round-1 drill-downs");
        assert!(
            pool_sizes.windows(2).all(|w| w[1] >= w[0]),
            "pool must never shrink: {pool_sizes:?}"
        );
        assert!(
            pool_sizes[3] > pool_sizes[0],
            "saved queries must fund new drill-downs: {pool_sizes:?}"
        );
    }

    #[test]
    fn change_estimate_tracks_insertions_exactly_in_expectation() {
        let mut db = hashed_db(80, 16, 2);
        let tree = QueryTree::full(&db.schema().clone());
        // Many trials: the mean change estimate must approach +40.
        let mut grand = agg_stats::moments::RunningMoments::new();
        for seed in 0..30 {
            let mut db_t = db.clone();
            let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree.clone(), seed);
            {
                let mut s = SearchSession::new(&mut db_t, 150);
                est.run_round(&mut s);
            }
            grow(&mut db_t, 1_000, 40);
            let mut s = SearchSession::new(&mut db_t, 150);
            let r = est.run_round(&mut s);
            if let Some(ch) = r.change_count {
                grand.push(ch.value);
            }
        }
        let mean = grand.mean().unwrap();
        let se = grand.variance_of_mean().unwrap_or(100.0).sqrt();
        assert!((mean - 40.0).abs() < 5.0 * se + 2.0, "mean change {mean} (se {se}) vs truth 40");
        let _ = &mut db;
    }

    #[test]
    fn deletion_heavy_round_still_unbiased_strict() {
        let mut grand = agg_stats::moments::RunningMoments::new();
        for seed in 0..30 {
            let mut db = hashed_db(90, 16, seed);
            let tree = QueryTree::full(&db.schema().clone());
            let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree, seed ^ 0xAB);
            {
                let mut s = SearchSession::new(&mut db, 120);
                est.run_round(&mut s);
            }
            shrink(&mut db, 45);
            let truth = db.len() as f64;
            let mut s = SearchSession::new(&mut db, 120);
            let r = est.run_round(&mut s);
            grand.push(r.count.value - truth);
        }
        let mean_err = grand.mean().unwrap();
        let se = grand.variance_of_mean().unwrap().sqrt();
        assert!(mean_err.abs() < 5.0 * se + 1.0, "bias {mean_err} (se {se}) after mass deletion");
    }

    #[test]
    fn update_cost_is_lower_than_restart_cost() {
        // On an unchanged database, updating a drill-down costs ≤ 2 queries
        // (Strict) while restarting costs depth+1 ≥ 2; with deep terminals
        // REISSUE must fit strictly more drill-downs into the same budget.
        let mut db = hashed_db(100, 4, 7); // small k → deep drills
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree, 8);
        let (r1, r2);
        {
            let mut s = SearchSession::new(&mut db, 100);
            r1 = est.run_round(&mut s);
        }
        {
            let mut s = SearchSession::new(&mut db, 100);
            r2 = est.run_round(&mut s);
        }
        let drills_r1 = r1.initiated;
        let drills_r2 = r2.updated + r2.initiated;
        assert!(
            drills_r2 > drills_r1,
            "same budget must cover more drill-downs when reissuing: {drills_r1} vs {drills_r2}"
        );
    }

    #[test]
    fn fault_interruption_leaves_same_resumable_state_as_exhaustion() {
        use hidden_db::fault::{FaultKind, FaultSchedule, FaultyBackend};

        // Identical twins through round 1.
        let mut db_a = hashed_db(100, 16, 12);
        let mut db_b = db_a.clone();
        let tree = QueryTree::full(&db_a.schema().clone());
        let mut est_a = ReissueEstimator::new(AggregateSpec::count_star(), tree.clone(), 13);
        let mut est_b = ReissueEstimator::new(AggregateSpec::count_star(), tree, 13);
        {
            let mut s = SearchSession::new(&mut db_a, 150);
            est_a.run_round(&mut s);
            let mut s = SearchSession::new(&mut db_b, 150);
            est_b.run_round(&mut s);
        }
        // Round 2a: plain budget exhaustion before anything happens.
        let r_a = {
            let mut s = SearchSession::new(&mut db_a, 0);
            est_a.run_round(&mut s)
        };
        // Round 2b: budget is there, but every query faults and recovery
        // is absent — an unrecovered interruption on the first resume.
        let r_b = {
            let s = SearchSession::new(&mut db_b, 50);
            let schedule = FaultSchedule::always(FaultKind::Timeout).with_max_consecutive(u32::MAX);
            let mut faulty = FaultyBackend::new(s, schedule);
            est_b.run_round(&mut faulty)
        };
        // Exhaustion is the normal regime; the fault round is Degraded.
        assert!(r_a.degraded.is_none());
        let tag = r_b.degraded.expect("unrecovered fault must tag the report");
        assert!(tag.queries_lost > 0);
        assert_eq!(tag.rounds_affected, 1);
        // Both interruptions leave the identical resumable pool: every
        // record keeps its previous depth and round stamp.
        assert_eq!(est_a.pool_size(), est_b.pool_size());
        for (ra, rb) in est_a.pool.iter().zip(&est_b.pool) {
            assert_eq!(ra.depth, rb.depth);
            assert_eq!(ra.round, rb.round);
            assert_eq!(ra.round, 1, "interrupted round must not stamp records");
        }
        // Round 3 (clean, ample budget): both resume the full pool.
        let r3_a = {
            let mut s = SearchSession::new(&mut db_a, 500);
            est_a.run_round(&mut s)
        };
        let r3_b = {
            let mut s = SearchSession::new(&mut db_b, 500);
            est_b.run_round(&mut s)
        };
        assert_eq!(r3_a.updated, r3_b.updated);
        assert!(r3_a.updated > 0);
        assert!(r3_b.count.is_usable());
        // The degradation marker is cumulative: it survives clean rounds.
        assert!(r3_a.degraded.is_none());
        assert_eq!(r3_b.degraded, Some(tag));
    }

    /// Opting into bootstrap CIs must (a) fill `ci` on every usable
    /// estimate, (b) leave the point estimates and analytic variances
    /// bit-identical to a bootstrap-free twin, and (c) produce intervals
    /// that actually bracket the point estimate.
    #[test]
    fn bootstrap_opt_in_fills_cis_without_perturbing_estimates() {
        let mut db_a = hashed_db(100, 16, 21);
        let mut db_b = db_a.clone();
        let tree = QueryTree::full(&db_a.schema().clone());
        let mut plain = ReissueEstimator::new(AggregateSpec::count_star(), tree.clone(), 22);
        let mut booted = ReissueEstimator::new(AggregateSpec::count_star(), tree, 22);
        booted.set_bootstrap(Some(crate::estimator::BootstrapSpec::default()));
        for round in 0..3 {
            let r_a = {
                let mut s = SearchSession::new(&mut db_a, 200);
                plain.run_round(&mut s)
            };
            let r_b = {
                let mut s = SearchSession::new(&mut db_b, 200);
                booted.run_round(&mut s)
            };
            assert_eq!(r_a.count.value, r_b.count.value, "round {round}");
            assert_eq!(r_a.count.variance, r_b.count.variance);
            assert_eq!(r_a.sum.value, r_b.sum.value);
            assert!(r_a.count.ci.is_none(), "plain estimator must not resample");
            let ci = r_b.count.ci.expect("bootstrap estimator must fill the CI");
            assert!(ci.contains(r_b.count.value), "{ci:?} vs {}", r_b.count.value);
            assert_eq!(ci.level, 0.95);
            if round > 0 {
                let ch = r_b.change_count.expect("REISSUE reports changes from round 2");
                let chci = ch.ci.expect("change estimate must carry a CI too");
                assert!(chci.contains(ch.value));
            }
        }
    }

    #[test]
    fn budget_starvation_updates_random_subset() {
        let mut db = hashed_db(100, 8, 9);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree, 10);
        {
            let mut s = SearchSession::new(&mut db, 200);
            est.run_round(&mut s);
        }
        let pool = est.pool_size();
        // Tiny budget: only a few updates possible.
        let mut s = SearchSession::new(&mut db, 6);
        let r = est.run_round(&mut s);
        assert!(r.updated < pool);
        assert!(r.updated >= 1);
        assert!(r.queries_spent <= 6);
        assert!(r.count.is_usable());
    }
}
