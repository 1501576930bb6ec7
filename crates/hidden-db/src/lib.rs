//! # hidden-db — a dynamic hidden web database simulator
//!
//! This crate is the substrate for reproducing *Aggregate Estimation Over
//! Dynamic Hidden Web Databases* (Liu, Thirumuruganathan, Zhang, Das —
//! VLDB 2014). It models a web database that is:
//!
//! * **hidden** — reachable only through a form-like interface that accepts
//!   conjunctive point-predicate queries and returns at most `k` tuples,
//!   ranked by a proprietary scoring function, without disclosing the true
//!   matching count ([`interface::QueryOutcome`]);
//! * **rate-limited** — every round enforces a query budget `G`
//!   ([`budget::QueryBudget`], [`session::SearchSession`]);
//! * **dynamic** — the owner inserts/deletes/updates tuples between (or
//!   during) rounds ([`updates::UpdateBatch`]).
//!
//! The crate deliberately separates two personas:
//!
//! * a third-party **estimator** sees only the [`session::SearchBackend`]
//!   trait — schema, `k`, and budgeted query issuance;
//! * the experiment **owner** also gets ground-truth aggregation and update
//!   application on [`database::HiddenDatabase`], used to drive workloads
//!   and score estimator accuracy.
//!
//! ## Example
//!
//! ```
//! use hidden_db::{
//!     database::HiddenDatabase,
//!     query::ConjunctiveQuery,
//!     ranking::ScoringPolicy,
//!     schema::Schema,
//!     session::{SearchBackend, SearchSession},
//!     tuple::Tuple,
//!     value::{TupleKey, ValueId},
//! };
//!
//! let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
//! let mut db = HiddenDatabase::new(schema, 2, ScoringPolicy::default());
//! for key in 0..5u64 {
//!     db.insert(Tuple::new(
//!         TupleKey(key),
//!         vec![ValueId((key % 2) as u32), ValueId((key % 3) as u32)],
//!         vec![10.0 * key as f64],
//!     ))
//!     .unwrap();
//! }
//!
//! let mut session = SearchSession::new(&mut db, 10);
//! let outcome = session.issue(&ConjunctiveQuery::select_all()).unwrap();
//! assert!(outcome.is_overflow()); // 5 tuples > k = 2
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod codec;
pub mod database;
pub mod errors;
pub mod fault;
mod index;
pub mod interface;
mod memo;
pub mod persist;
pub mod query;
pub mod ranking;
pub mod schema;
pub mod service;
pub mod session;
pub mod stats;
pub mod store;
pub mod tuple;
pub mod updates;
pub mod value;

pub use budget::QueryBudget;
pub use codec::{read_snapshot, write_snapshot};
pub use database::{HiddenDatabase, TupleRef};
pub use errors::{BudgetExhausted, DbError, IssueError, SchemaError, TransientFault};
pub use fault::{
    FaultKind, FaultSchedule, FaultStats, FaultyBackend, RecoveryStats, ResilientBackend,
    RetryPolicy,
};
pub use interface::{OutcomeClass, QueryOutcome};
pub use memo::{InvalidationPolicy, DEFAULT_MEMO_CAPACITY};
pub use persist::PersistConfig;
pub use query::{ConjunctiveQuery, Predicate};
pub use ranking::ScoringPolicy;
pub use schema::{AttributeDef, MeasureDef, Schema};
pub use service::{AutoMaintain, DbService, DbSnapshot, ServiceSession, ServiceStats};
pub use session::{SearchBackend, SearchSession};
pub use stats::{EvalStats, InterfaceStats, MemoStats, PersistStats, SharedMemoStats};
pub use store::{segment_of, SEGMENT_SLOTS};
pub use tuple::{Tuple, TupleView};
pub use updates::{UpdateBatch, UpdateSummary};
pub use value::{AttrId, MeasureId, TupleKey, ValueId};
