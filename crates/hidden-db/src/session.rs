//! Budgeted access to the search interface — the **only** surface an
//! estimator is allowed to touch.
//!
//! Estimator crates are generic over [`SearchBackend`] so the same code
//! runs against a plain per-round session, an intra-round session that
//! interleaves updates with queries (constant-update model, §5.2), a
//! [`crate::service::ServiceSession`] pinned to one epoch of the shared
//! concurrent [`crate::service::DbService`], or any future adapter for a
//! real web API.

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
}

impl SearchBackend for SearchSession<'_> {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn k(&self) -> usize {
        self.db.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        query.validate(self.db.schema()).map_err(|_| IssueError::InvalidQuery)?;
        self.budget.charge()?;
        Ok(self.db.answer(query))
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
