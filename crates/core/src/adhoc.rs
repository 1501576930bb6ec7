//! The ad-hoc query model of §5.1: answer aggregate queries that arrive
//! *after* the rounds they ask about.
//!
//! "Since all tuples retrieved by the previous drill downs can be
//! preserved, one can simulate the aggregate estimation as if the query
//! was issued prior to the drill downs being done." This module is that
//! sentence as a data structure: an archive of every drill-down's terminal
//! page per round, replayable against any [`AggregateSpec`] whose
//! selection condition is evaluable per tuple.

use hidden_db::errors::IssueError;
use hidden_db::interface::QueryOutcome;
use hidden_db::session::SearchBackend;
use query_tree::drill::{drill_from_root, resume_from, ReissuePolicy};
use query_tree::signature::Signature;
use query_tree::tree::QueryTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::aggregate::AggregateSpec;
use crate::estimator::moments_estimate;
use crate::report::EstimateWithVar;

/// One archived drill-down observation.
#[derive(Debug, Clone)]
struct Observation {
    /// Terminal depth (determines `p(q)`).
    depth: usize,
    /// The terminal answer, sharing its page with the database's memo.
    outcome: QueryOutcome,
}

/// A REISSUE-style tracker that archives terminal pages so *any* aggregate
/// can be estimated retroactively for any archived round.
#[derive(Debug)]
pub struct ArchivingTracker {
    tree: QueryTree,
    policy: ReissuePolicy,
    rng: StdRng,
    /// Live drill-down state: signature + last depth + last-updated round.
    records: Vec<(Signature, usize, u32)>,
    /// `archive[r][..]` = observations current at round `r + 1`.
    archive: Vec<Vec<Observation>>,
    round: u32,
}

impl ArchivingTracker {
    /// Creates the tracker.
    pub fn new(tree: QueryTree, seed: u64) -> Self {
        Self {
            tree,
            policy: ReissuePolicy::Strict,
            rng: StdRng::seed_from_u64(seed),
            records: Vec::new(),
            archive: Vec::new(),
            round: 0,
        }
    }

    /// Rounds archived so far.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// Total archived observations (across rounds).
    pub fn archived_observations(&self) -> usize {
        self.archive.iter().map(Vec::len).sum()
    }

    /// Runs one round of drill-down maintenance: update every remembered
    /// drill-down, spend the leftover budget on fresh ones, archive every
    /// terminal page observed this round.
    pub fn run_round(&mut self, backend: &mut dyn SearchBackend) -> (usize, usize) {
        self.round += 1;
        let j = self.round;
        let mut observations = Vec::new();
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.shuffle(&mut self.rng);
        let mut updated = 0;
        for idx in order {
            if backend.remaining() == 0 {
                break;
            }
            let (sig, depth, _) = &self.records[idx];
            let result: Result<_, IssueError> =
                resume_from(&self.tree, sig, *depth, self.policy, backend);
            match result {
                Ok(out) => {
                    observations.push(Observation { depth: out.depth, outcome: out.outcome });
                    let rec = &mut self.records[idx];
                    rec.1 = out.depth;
                    rec.2 = j;
                    updated += 1;
                }
                Err(_) => break,
            }
        }
        let mut initiated = 0;
        while backend.remaining() > 0 {
            let sig = Signature::sample(&self.tree, &mut self.rng);
            match drill_from_root(&self.tree, &sig, backend) {
                Ok(out) => {
                    observations.push(Observation { depth: out.depth, outcome: out.outcome });
                    self.records.push((sig, out.depth, j));
                    initiated += 1;
                }
                Err(_) => break,
            }
        }
        self.archive.push(observations);
        (updated, initiated)
    }

    /// Retroactively estimates `spec` over the database state of round
    /// `round` (1-based). `None` if the round is not archived or had no
    /// observations.
    ///
    /// The estimate replays the archived pages: it is exactly what the
    /// estimator would have produced had `spec` been registered before
    /// that round — the §5.1 simulation argument. Note the caveat from the
    /// paper: ad-hoc aggregates cannot benefit from condition-specific
    /// subtrees, so their accuracy matches full-tree (filtered) tracking.
    pub fn estimate_at(&self, round: u32, spec: &AggregateSpec) -> Option<EstimateWithVar> {
        let obs = self.archive.get(round.checked_sub(1)? as usize)?;
        if obs.is_empty() {
            return None;
        }
        let mut moments = agg_stats::moments::RunningMoments::new();
        for o in obs {
            let p = self.tree.selection_probability(o.depth);
            let mut value = 0.0;
            for t in o.outcome.tuples() {
                if spec.selects(&t) {
                    value += match spec.kind {
                        crate::aggregate::AggKind::Count => 1.0,
                        _ => spec.value_fn.eval(&t),
                    };
                }
            }
            moments.push(value / p);
        }
        Some(moments_estimate(&moments))
    }

    /// Retroactive change estimate `Q(D_round) − Q(D_{round−1})`.
    pub fn change_at(&self, round: u32, spec: &AggregateSpec) -> Option<EstimateWithVar> {
        if round < 2 {
            return None;
        }
        let cur = self.estimate_at(round, spec)?;
        let prev = self.estimate_at(round - 1, spec)?;
        (cur.is_usable() && prev.is_usable())
            .then(|| EstimateWithVar::new(cur.value - prev.value, cur.variance + prev.variance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grow, hashed_db};
    use hidden_db::query::{ConjunctiveQuery, Predicate};
    use hidden_db::session::SearchSession;
    use hidden_db::value::{AttrId, MeasureId, ValueId};

    #[test]
    fn retroactive_estimates_match_archived_rounds() {
        let mut db = hashed_db(120, 16, 0);
        let tree = QueryTree::full(&db.schema().clone());
        let mut tracker = ArchivingTracker::new(tree, 5);
        let truth_r1 = db.len() as f64;
        {
            let mut s = SearchSession::new(&mut db, 300);
            tracker.run_round(&mut s);
        }
        grow(&mut db, 5_000, 60);
        let truth_r2 = db.len() as f64;
        {
            let mut s = SearchSession::new(&mut db, 300);
            tracker.run_round(&mut s);
        }
        // The ad-hoc query arrives *now*, asking about both past rounds.
        let spec = AggregateSpec::count_star();
        let e1 = tracker.estimate_at(1, &spec).unwrap();
        let e2 = tracker.estimate_at(2, &spec).unwrap();
        assert!((e1.value - truth_r1).abs() / truth_r1 < 0.4, "{} vs {truth_r1}", e1.value);
        assert!((e2.value - truth_r2).abs() / truth_r2 < 0.4, "{} vs {truth_r2}", e2.value);
        assert!(e2.value > e1.value, "growth must be visible retroactively");
    }

    #[test]
    fn adhoc_conditions_and_measures_work() {
        let mut db = hashed_db(150, 16, 1);
        let tree = QueryTree::full(&db.schema().clone());
        let mut tracker = ArchivingTracker::new(tree, 6);
        {
            let mut s = SearchSession::new(&mut db, 400);
            tracker.run_round(&mut s);
        }
        let cond = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        let spec = AggregateSpec::sum_measure(MeasureId(0), cond.clone());
        let truth = db.exact_sum(Some(&cond), |t| t.measure(MeasureId(0)));
        let e = tracker.estimate_at(1, &spec).unwrap();
        assert!((e.value - truth).abs() / truth < 0.5, "ad-hoc SUM {} vs truth {truth}", e.value);
    }

    #[test]
    fn unknown_rounds_are_none() {
        let db = hashed_db(10, 16, 2);
        let tree = QueryTree::full(&db.schema().clone());
        let tracker = ArchivingTracker::new(tree, 0);
        assert!(tracker.estimate_at(1, &AggregateSpec::count_star()).is_none());
        assert!(tracker.estimate_at(0, &AggregateSpec::count_star()).is_none());
        assert_eq!(tracker.rounds(), 0);
    }

    #[test]
    fn change_at_requires_two_rounds() {
        let mut db = hashed_db(100, 16, 3);
        let tree = QueryTree::full(&db.schema().clone());
        let mut tracker = ArchivingTracker::new(tree, 7);
        let spec = AggregateSpec::count_star();
        {
            let mut s = SearchSession::new(&mut db, 200);
            tracker.run_round(&mut s);
        }
        assert!(tracker.change_at(1, &spec).is_none());
        grow(&mut db, 9_000, 30);
        {
            let mut s = SearchSession::new(&mut db, 200);
            tracker.run_round(&mut s);
        }
        let ch = tracker.change_at(2, &spec).unwrap();
        assert!(ch.value.is_finite());
        assert!(tracker.archived_observations() > 0);
    }
}
