//! Error types for the hidden database substrate.

use crate::value::{AttrId, TupleKey};
use std::fmt;

/// Errors raised while constructing a [`crate::schema::Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A schema must contain at least one categorical attribute.
    NoAttributes,
    /// More attributes than the `u16` id space allows.
    TooManyAttributes(usize),
    /// More measures than the `u16` id space allows.
    TooManyMeasures(usize),
    /// Attribute declared with an empty domain.
    EmptyDomain {
        /// The offending attribute.
        attr: AttrId,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoAttributes => write!(f, "schema has no attributes"),
            Self::TooManyAttributes(n) => write!(f, "too many attributes: {n}"),
            Self::TooManyMeasures(n) => write!(f, "too many measures: {n}"),
            Self::EmptyDomain { attr } => write!(f, "attribute {attr} has an empty domain"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Errors raised while mutating or querying the database.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Tuple shape (value or measure count) does not match the schema, or a
    /// value is outside its attribute's domain.
    TupleMismatch(String),
    /// Query references an attribute or value outside the schema.
    InvalidQuery(String),
    /// Insert of a tuple key that already exists and is alive.
    DuplicateKey(TupleKey),
    /// Delete/update of a key that does not exist (or is already deleted).
    UnknownKey(TupleKey),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TupleMismatch(msg) => write!(f, "tuple does not match schema: {msg}"),
            Self::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Self::DuplicateKey(k) => write!(f, "duplicate tuple key {k}"),
            Self::UnknownKey(k) => write!(f, "unknown tuple key {k}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Raised by a [`crate::session::SearchSession`] when the per-round query
/// budget `G` is exhausted (§2.1: "Let G be the number of queries one can
/// issue to the database per round").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The budget that was in force.
    pub limit: u64,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "per-round query budget of {} exhausted", self.limit)
    }
}

impl std::error::Error for BudgetExhausted {}

/// The kind of a transient, retryable interface failure — the taxonomy a
/// real remote search form exposes (cf. §2.1's Amazon/eBay-style
/// interfaces, which time out, throttle, and drop pages).
///
/// Every kind is an **error**, never a corrupted answer: a truncated or
/// empty page is reported as a failure the caller can detect and retry,
/// so faults may consume budget but can never silently change an
/// estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientFault {
    /// Server-side 5xx-style error; the query was charged but no answer
    /// returned.
    Http5xx,
    /// The result page came back truncated (detectable by the client:
    /// fewer rows than the interface promised for this outcome class).
    TruncatedPage,
    /// The result page came back empty despite the query being charged.
    EmptyPage,
    /// The interface charged the query (possibly repeatedly) without
    /// ever delivering the answer.
    ChargedNoAnswer,
}

impl fmt::Display for TransientFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Http5xx => write!(f, "server error (5xx)"),
            Self::TruncatedPage => write!(f, "truncated result page"),
            Self::EmptyPage => write!(f, "empty result page"),
            Self::ChargedNoAnswer => write!(f, "query charged without an answer"),
        }
    }
}

/// Everything [`crate::session::SearchBackend::issue`] can fail with.
///
/// This is the full taxonomy of a real remote interface.
/// [`IssueError::BudgetExhausted`] is terminal for the round and
/// [`IssueError::InvalidQuery`] for the query; every other variant is
/// transient and worth retrying ([`IssueError::is_recoverable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// The per-round budget `G` is spent — terminal for this round.
    BudgetExhausted(BudgetExhausted),
    /// A transient failure; the query may or may not have been charged
    /// (see [`TransientFault`]).
    Transient(TransientFault),
    /// The interface throttled the client; retry no sooner than
    /// `retry_after` ticks.
    RateLimited {
        /// Minimum wait, in the backend's simulated time units.
        retry_after: u32,
    },
    /// The query timed out (charged, no answer within the deadline).
    Timeout,
    /// The query names an attribute or value outside the schema. Nothing
    /// is charged, and no retry can succeed.
    InvalidQuery,
}

impl IssueError {
    /// Whether this is the terminal budget-exhaustion error.
    pub fn is_budget(&self) -> bool {
        matches!(self, Self::BudgetExhausted(_))
    }

    /// Whether a retry can possibly succeed: everything except budget
    /// exhaustion, which only a new round cures, and an invalid query,
    /// which nothing cures.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, Self::BudgetExhausted(_) | Self::InvalidQuery)
    }
}

impl From<BudgetExhausted> for IssueError {
    fn from(e: BudgetExhausted) -> Self {
        Self::BudgetExhausted(e)
    }
}

impl fmt::Display for IssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetExhausted(e) => e.fmt(f),
            Self::Transient(fault) => write!(f, "transient interface fault: {fault}"),
            Self::RateLimited { retry_after } => {
                write!(f, "rate limited; retry after {retry_after} ticks")
            }
            Self::Timeout => write!(f, "query timed out"),
            Self::InvalidQuery => write!(f, "query outside the schema"),
        }
    }
}

impl std::error::Error for IssueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = SchemaError::EmptyDomain { attr: AttrId(4) };
        assert!(e.to_string().contains("A4"));
        let e = DbError::DuplicateKey(TupleKey(9));
        assert!(e.to_string().contains("t9"));
        let e = BudgetExhausted { limit: 100 };
        assert!(e.to_string().contains("100"));
        let e = IssueError::RateLimited { retry_after: 7 };
        assert!(e.to_string().contains('7'));
        let e = IssueError::Transient(TransientFault::TruncatedPage);
        assert!(e.to_string().contains("truncated"));
    }

    /// Of the failures an interface raises for a well-formed query, only
    /// budget exhaustion is unrecoverable. A malformed query is refused
    /// before it reaches the interface (see the next test).
    #[test]
    fn budget_is_the_only_unrecoverable_variant() {
        let budget = IssueError::from(BudgetExhausted { limit: 3 });
        assert!(budget.is_budget());
        assert!(!budget.is_recoverable());
        for e in [
            IssueError::Transient(TransientFault::Http5xx),
            IssueError::Transient(TransientFault::TruncatedPage),
            IssueError::Transient(TransientFault::EmptyPage),
            IssueError::Transient(TransientFault::ChargedNoAnswer),
            IssueError::RateLimited { retry_after: 2 },
            IssueError::Timeout,
        ] {
            assert!(!e.is_budget());
            assert!(e.is_recoverable(), "{e} must be retryable");
        }
    }

    #[test]
    fn invalid_query_is_unrecoverable_but_not_budget() {
        assert!(!IssueError::InvalidQuery.is_budget());
        assert!(!IssueError::InvalidQuery.is_recoverable(), "no retry fixes a query");
    }
}
