//! The constant-update model (§5.2): updates land at arbitrary instants,
//! including *while* an estimator is executing.
//!
//! [`IntraRoundSession`] implements [`SearchBackend`] over a database that
//! mutates between queries: each elementary update carries a due time in
//! `[0, 1)` (fraction of the round), and queries advance the clock by
//! `1/G`. This reproduces the Fig 4 setting ("a tuple is inserted every 12
//! seconds, an existing tuple deleted every 21 seconds" while the
//! algorithm takes the whole hour to run).
//!
//! Micro-ops go through the database's normal mutation path, so each one
//! patches the memo in place: a mid-round insert touches only the cached
//! answers whose query it satisfies, and an estimator re-asking a query
//! right after an update still gets a warm, exact page.

use std::collections::VecDeque;

use hidden_db::budget::QueryBudget;
use hidden_db::database::HiddenDatabase;
use hidden_db::errors::IssueError;
use hidden_db::interface::QueryOutcome;
use hidden_db::query::ConjunctiveQuery;
use hidden_db::schema::Schema;
use hidden_db::session::SearchBackend;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::TupleKey;

/// One elementary mutation with its due time within the round.
#[derive(Debug, Clone)]
pub struct TimedUpdate {
    /// Due time as a fraction of the round, in `[0, 1)`.
    pub at: f64,
    /// The mutation.
    pub op: MicroOp,
}

/// An elementary mutation.
#[derive(Debug, Clone)]
pub enum MicroOp {
    /// Insert a tuple.
    Insert(Tuple),
    /// Delete by key (ignored if the key is already gone).
    Delete(TupleKey),
    /// Overwrite measures (ignored if the key is gone).
    UpdateMeasures(TupleKey, Vec<f64>),
}

/// Spreads a round's [`UpdateBatch`] evenly over the round interval:
/// inserts at times `i/(#inserts)`, deletes at `j/(#deletes)`, measure
/// updates at `l/(#updates)` — independent even streams, merged by time,
/// like the paper's every-12-seconds / every-21-seconds processes.
pub fn spread_evenly(batch: UpdateBatch) -> Vec<TimedUpdate> {
    let mut out = Vec::with_capacity(batch.len());
    let n_ins = batch.inserts.len();
    for (i, t) in batch.inserts.into_iter().enumerate() {
        out.push(TimedUpdate { at: i as f64 / n_ins as f64, op: MicroOp::Insert(t) });
    }
    let n_del = batch.deletes.len();
    for (j, k) in batch.deletes.into_iter().enumerate() {
        out.push(TimedUpdate { at: j as f64 / n_del as f64, op: MicroOp::Delete(k) });
    }
    let n_upd = batch.measure_updates.len();
    for (l, (k, m)) in batch.measure_updates.into_iter().enumerate() {
        out.push(TimedUpdate { at: l as f64 / n_upd as f64, op: MicroOp::UpdateMeasures(k, m) });
    }
    out.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// A budgeted session whose database changes between queries.
pub struct IntraRoundSession<'a> {
    db: &'a mut HiddenDatabase,
    budget: QueryBudget,
    pending: VecDeque<TimedUpdate>,
    applied: usize,
}

impl<'a> IntraRoundSession<'a> {
    /// Creates a session with budget `g` and a time-ordered update stream.
    pub fn new(db: &'a mut HiddenDatabase, g: u64, mut updates: Vec<TimedUpdate>) -> Self {
        updates.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
        Self { db, budget: QueryBudget::new(g), pending: updates.into(), applied: 0 }
    }

    /// Updates applied so far.
    pub fn applied_updates(&self) -> usize {
        self.applied
    }

    /// Applies every update still pending (end of round). Call after the
    /// estimator finishes so the next round starts from the fully-updated
    /// state.
    pub fn drain_pending(&mut self) {
        while let Some(u) = self.pending.pop_front() {
            Self::apply_op(self.db, u.op);
            self.applied += 1;
        }
    }

    /// Validates and charges one query, then applies the updates due by
    /// then: a query outside the schema is refused with nothing charged
    /// and nothing applied, as [`hidden_db::session::SearchSession`]
    /// refuses it.
    fn admit(&mut self, query: &ConjunctiveQuery) -> Result<(), IssueError> {
        query.validate(self.db.schema()).map_err(|_| IssueError::InvalidQuery)?;
        self.budget.charge()?;
        self.apply_due();
        Ok(())
    }

    fn apply_due(&mut self) {
        // Clock: fraction of budget spent.
        let now = if self.budget.limit() == 0 {
            1.0
        } else {
            self.budget.spent() as f64 / self.budget.limit() as f64
        };
        while let Some(u) = self.pending.front() {
            if u.at > now {
                break;
            }
            let u = self.pending.pop_front().expect("front checked");
            Self::apply_op(self.db, u.op);
            self.applied += 1;
        }
    }

    fn apply_op(db: &mut HiddenDatabase, op: MicroOp) {
        match op {
            MicroOp::Insert(t) => {
                db.insert(t).expect("timed insert must fit schema");
            }
            // Deletes/updates of already-removed keys are no-ops: the
            // schedule sampled victims at round start and cannot know what
            // happened since.
            MicroOp::Delete(k) => {
                let _ = db.delete(k);
            }
            MicroOp::UpdateMeasures(k, m) => {
                let _ = db.update_measures(k, m);
            }
        }
    }
}

impl SearchBackend for IntraRoundSession<'_> {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn k(&self) -> usize {
        self.db.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        self.admit(query)?;
        Ok(self.db.answer(query))
    }

    fn issue_unless_overflow(
        &mut self,
        query: &ConjunctiveQuery,
    ) -> Result<Option<QueryOutcome>, IssueError> {
        self.admit(query)?;
        Ok(self.db.answer_unless_overflow(query))
    }

    fn issue_count(&mut self, query: &ConjunctiveQuery) -> Result<Option<usize>, IssueError> {
        self.admit(query)?;
        Ok(self.db.answer_count(query))
    }

    fn remaining(&self) -> u64 {
        self.budget.remaining()
    }

    fn spent(&self) -> u64 {
        self.budget.spent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidden_db::ranking::ScoringPolicy;
    use hidden_db::schema::Schema;
    use hidden_db::value::ValueId;

    fn db_with(n: u64) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2], &[]).unwrap();
        let mut db = HiddenDatabase::new(schema, 1000, ScoringPolicy::default());
        for t in 0..n {
            db.insert(Tuple::new(TupleKey(t), vec![ValueId(0)], vec![])).unwrap();
        }
        db
    }

    fn t(key: u64) -> Tuple {
        Tuple::new(TupleKey(key), vec![ValueId(1)], vec![])
    }

    #[test]
    fn spread_orders_by_time() {
        let batch = UpdateBatch {
            inserts: vec![t(100), t(101), t(102)],
            deletes: vec![TupleKey(0), TupleKey(1)],
            measure_updates: vec![],
        };
        let spread = spread_evenly(batch);
        assert_eq!(spread.len(), 5);
        for w in spread.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Insert stream at 0, 1/3, 2/3; delete stream at 0, 1/2.
        assert_eq!(spread[0].at, 0.0);
        assert_eq!(spread[1].at, 0.0);
    }

    #[test]
    fn updates_apply_as_queries_advance_the_clock() {
        let mut db = db_with(4);
        let updates = vec![
            TimedUpdate { at: 0.0, op: MicroOp::Insert(t(100)) },
            TimedUpdate { at: 0.5, op: MicroOp::Insert(t(101)) },
            TimedUpdate { at: 0.9, op: MicroOp::Delete(TupleKey(0)) },
        ];
        let mut s = IntraRoundSession::new(&mut db, 10, updates);
        let root = ConjunctiveQuery::select_all();
        // Query 1: clock 0 → at=0.0 applies.
        let out = s.issue(&root).unwrap();
        assert_eq!(out.returned_count(), 5);
        // Queries 2..=5: clock reaches 0.5 at the 6th issue (spent/limit).
        for _ in 0..4 {
            s.issue(&root).unwrap();
        }
        let out = s.issue(&root).unwrap(); // spent=5 before issue → 0.5 due
        assert_eq!(out.returned_count(), 6);
        assert_eq!(s.applied_updates(), 2);
        // Exhaust: delete at 0.9 applies by the 10th query.
        for _ in 0..4 {
            s.issue(&root).unwrap();
        }
        assert!(s.issue(&root).is_err());
        assert_eq!(s.applied_updates(), 3);
        assert_eq!(db.len(), 5);
    }

    #[test]
    fn drain_applies_leftovers() {
        let mut db = db_with(2);
        let updates = vec![TimedUpdate { at: 0.99, op: MicroOp::Insert(t(50)) }];
        let mut s = IntraRoundSession::new(&mut db, 100, updates);
        s.issue(&ConjunctiveQuery::select_all()).unwrap();
        assert_eq!(s.applied_updates(), 0);
        s.drain_pending();
        assert_eq!(s.applied_updates(), 1);
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn micro_ops_retain_unaffected_memo_entries() {
        use hidden_db::query::Predicate;
        use hidden_db::value::AttrId;

        let mut db = db_with(3); // three tuples with A0=u0
        let probe = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        // A mid-round insert of a tuple with A0=u1 — disjoint from `probe`.
        let updates = vec![TimedUpdate { at: 0.3, op: MicroOp::Insert(t(100)) }];
        let mut s = IntraRoundSession::new(&mut db, 10, updates);
        assert_eq!(s.issue(&probe).unwrap().returned_count(), 3); // cold
        assert_eq!(s.issue(&probe).unwrap().returned_count(), 3); // warm
                                                                  // Third issue crosses t=0.3: the insert applies, then the query
                                                                  // runs. The inserted tuple cannot match `probe`, so the entry
                                                                  // is untouched by the patch and is served warm again.
        assert_eq!(s.issue(&probe).unwrap().returned_count(), 3);
        assert_eq!(s.applied_updates(), 1);
        // The root query *was* affected and reflects the insert.
        assert_eq!(s.issue(&ConjunctiveQuery::select_all()).unwrap().returned_count(), 4);
        drop(s);
        assert_eq!(
            db.stats().cache_hits,
            2,
            "unaffected probe must stay warm across the mid-round insert"
        );
    }

    /// A query outside the schema is refused by every read, as a
    /// `SearchSession` refuses it: nothing charged, no update applied.
    #[test]
    fn an_out_of_schema_query_is_refused_without_charge_or_update() {
        use hidden_db::query::Predicate;
        use hidden_db::value::AttrId;

        let mut db = db_with(3);
        let updates = vec![TimedUpdate { at: 0.0, op: MicroOp::Insert(t(100)) }];
        let mut s = IntraRoundSession::new(&mut db, 10, updates);
        let bad = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(99))]);
        assert_eq!(s.issue(&bad).unwrap_err(), IssueError::InvalidQuery);
        assert_eq!(s.issue_unless_overflow(&bad).unwrap_err(), IssueError::InvalidQuery);
        assert_eq!(s.issue_count(&bad).unwrap_err(), IssueError::InvalidQuery);
        assert_eq!((s.spent(), s.applied_updates()), (0, 0), "nothing charged or applied");
        assert_eq!(s.issue_count(&ConjunctiveQuery::select_all()).unwrap(), Some(4));
        assert_eq!((s.spent(), s.applied_updates()), (1, 1));
    }

    #[test]
    fn stale_deletes_are_ignored() {
        let mut db = db_with(2);
        let updates = vec![
            TimedUpdate { at: 0.0, op: MicroOp::Delete(TupleKey(0)) },
            TimedUpdate { at: 0.1, op: MicroOp::Delete(TupleKey(0)) }, // dup
            TimedUpdate { at: 0.2, op: MicroOp::UpdateMeasures(TupleKey(99), vec![]) },
        ];
        let mut s = IntraRoundSession::new(&mut db, 2, updates);
        s.issue(&ConjunctiveQuery::select_all()).unwrap();
        s.issue(&ConjunctiveQuery::select_all()).unwrap();
        s.drain_pending();
        assert_eq!(db.len(), 1);
    }
}
