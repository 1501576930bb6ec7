//! Budgeted access to the search interface — the **only** surface an
//! estimator is allowed to touch.
//!
//! Estimator crates are generic over [`SearchBackend`] so the same code
//! runs against a plain per-round session, an intra-round session that
//! interleaves updates with queries (constant-update model, §5.2), a
//! [`crate::service::ServiceSession`] pinned to one epoch of the shared
//! concurrent [`crate::service::DbService`], or any future adapter for a
//! real web API.
//!
//! ## Which method to call
//!
//! Three reads, by what the caller will look at:
//!
//! * **page** — [`SearchBackend::issue`] reads the whole answer. A query
//!   that fixes every attribute (a leaf) can be a terminal node that
//!   overflows, and a caller that reads terminal rows reads its page, so
//!   it is issued with `issue`.
//! * **class** — [`SearchBackend::issue_unless_overflow`] wherever an
//!   overflow's page would go unread: a drill-down above the leaves,
//!   where an overflow only sends it one level down, or a crawl's
//!   interior node, which it only expands. Every non-overflow comes back
//!   in full.
//! * **count** — [`SearchBackend::issue_count`] wherever no row of any
//!   answer is read, only how many tuples a page holds: a COUNT(*)
//!   drill-down, whose Horvitz–Thompson term is `|q| / p(q)`, at every
//!   node, leaf included.
//!
//! All three validate, charge and count alike; an overflow read by class
//! or by count comes back as `None`, with no page ranked or copied
//! in-process, and a count read ranks nothing and builds no page at all.
//!
//! A wrapper backend forwards each method to the same call of its inner
//! backend, as the fault and recovery layers in [`crate::fault`] do. A
//! backend that implements only `issue` still works: the provided
//! `issue_unless_overflow` reads the whole answer and drops an overflow's
//! page, and the provided `issue_count` counts what that returns.

use crate::budget::QueryBudget;
use crate::database::HiddenDatabase;
use crate::errors::IssueError;
use crate::interface::QueryOutcome;
use crate::query::ConjunctiveQuery;
use crate::schema::Schema;

/// What the restricted interface lets a third party do: learn the schema
/// and the page size, and issue budgeted conjunctive queries.
pub trait SearchBackend {
    /// The (public) schema of the search form: attributes and domains.
    fn schema(&self) -> &Schema;

    /// The interface's page size `k`.
    fn k(&self) -> usize;

    /// Issues one search query, charging one unit of budget.
    ///
    /// The error type is the full [`IssueError`] taxonomy: an in-process
    /// session raises [`IssueError::BudgetExhausted`], and
    /// [`IssueError::InvalidQuery`] without charging for a query outside
    /// the schema; fault-injecting and remote adapters surface transient
    /// errors, rate limits, and timeouts through the same signature.
    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError>;

    /// Issues one search query like [`SearchBackend::issue`], for a
    /// caller that will not read an overflow page: `Ok(None)` means the
    /// query overflowed, and any other answer comes back in full. It
    /// validates, charges and fails exactly like `issue`.
    ///
    /// A drill-down reads the class alone at every node above the leaves
    /// (see [`crate::interface`]). The default calls `issue` and drops an
    /// overflow's page, which suits a remote adapter, whose page arrives
    /// anyway. In-process backends override it so that an overflow ranks
    /// and copies no page at all, and wrappers forward it to their inner
    /// backend.
    fn issue_unless_overflow(
        &mut self,
        query: &ConjunctiveQuery,
    ) -> Result<Option<QueryOutcome>, IssueError> {
        Ok(Some(self.issue(query)?).filter(|out| !out.is_overflow()))
    }

    /// Issues one search query like [`SearchBackend::issue`], for a
    /// caller that reads no row of the answer, only how many tuples its
    /// page holds: `Ok(None)` means the query overflowed, and `Ok(Some(n))`
    /// that its page holds `n` tuples (`n = 0` for an underflow). It
    /// validates, charges and fails exactly like `issue`.
    ///
    /// The default counts what [`SearchBackend::issue_unless_overflow`]
    /// returns, so a backend that implements only `issue` still answers
    /// it. In-process backends override it so that no page is copied or
    /// built, and wrappers forward it to their inner backend.
    fn issue_count(&mut self, query: &ConjunctiveQuery) -> Result<Option<usize>, IssueError> {
        Ok(self.issue_unless_overflow(query)?.map(|out| out.returned_count()))
    }

    /// Queries remaining in this round's budget.
    fn remaining(&self) -> u64;

    /// Queries spent so far this round.
    fn spent(&self) -> u64;
}

/// A per-round session over a [`HiddenDatabase`]: borrows the database,
/// charges a [`QueryBudget`] per issued query.
pub struct SearchSession<'a> {
    db: &'a mut HiddenDatabase,
    budget: QueryBudget,
}

impl<'a> SearchSession<'a> {
    /// Starts a session with a budget of `g` queries.
    pub fn new(db: &'a mut HiddenDatabase, g: u64) -> Self {
        Self { db, budget: QueryBudget::new(g) }
    }

    /// Starts a session with an unlimited budget (tests/ground truth).
    pub fn unlimited(db: &'a mut HiddenDatabase) -> Self {
        Self { db, budget: QueryBudget::unlimited() }
    }

    /// The budget state.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// Validates and charges one query: a query outside the schema is
    /// refused without a charge.
    fn charge(&mut self, query: &ConjunctiveQuery) -> Result<(), IssueError> {
        query.validate(self.db.schema()).map_err(|_| IssueError::InvalidQuery)?;
        Ok(self.budget.charge()?)
    }
}

impl SearchBackend for SearchSession<'_> {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn k(&self) -> usize {
        self.db.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        self.charge(query)?;
        Ok(self.db.answer(query))
    }

    fn issue_unless_overflow(
        &mut self,
        query: &ConjunctiveQuery,
    ) -> Result<Option<QueryOutcome>, IssueError> {
        self.charge(query)?;
        Ok(self.db.answer_unless_overflow(query))
    }

    fn issue_count(&mut self, query: &ConjunctiveQuery) -> Result<Option<usize>, IssueError> {
        self.charge(query)?;
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
    use crate::ranking::ScoringPolicy;
    use crate::tuple::Tuple;
    use crate::value::{TupleKey, ValueId};

    fn db() -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 5, ScoringPolicy::default());
        for key in 0..3 {
            d.insert(Tuple::new(TupleKey(key), vec![ValueId(0)], vec![])).unwrap();
        }
        d
    }

    #[test]
    fn session_charges_budget() {
        let mut d = db();
        let mut s = SearchSession::new(&mut d, 2);
        let root = ConjunctiveQuery::select_all();
        assert!(s.issue(&root).is_ok());
        assert_eq!(s.remaining(), 1);
        assert!(s.issue(&root).is_ok());
        assert_eq!(s.remaining(), 0);
        let err = s.issue(&root).unwrap_err();
        assert!(err.is_budget(), "an exhausted session raises budget errors: {err}");
        assert_eq!(s.spent(), 2);
    }

    #[test]
    fn an_out_of_domain_query_is_refused_without_charge() {
        use crate::query::Predicate;
        use crate::value::AttrId;
        let mut d = db();
        let mut s = SearchSession::new(&mut d, 2);
        let bad = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(99))]);
        assert_eq!(s.issue(&bad).unwrap_err(), IssueError::InvalidQuery);
        assert_eq!(s.spent(), 0, "nothing charged");
        let good = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        assert_eq!(s.issue(&good).unwrap().returned_count(), 3);
        assert_eq!(s.spent(), 1);
    }

    #[test]
    fn unlimited_session_never_errors() {
        let mut d = db();
        let mut s = SearchSession::unlimited(&mut d);
        let root = ConjunctiveQuery::select_all();
        for _ in 0..1000 {
            assert!(s.issue(&root).is_ok());
        }
    }

    #[test]
    fn schema_and_k_are_visible() {
        let mut d = db();
        let s = SearchSession::new(&mut d, 1);
        assert_eq!(s.schema().attr_count(), 1);
        assert_eq!(s.k(), 5);
    }
}
