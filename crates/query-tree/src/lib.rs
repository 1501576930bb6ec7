//! # query-tree — drill-down machinery over the hidden database
//!
//! Implements §3.1 of *Aggregate Estimation Over Dynamic Hidden Web
//! Databases*: the query tree whose level `i` appends a point predicate on
//! the `i`-th attribute, uniform leaf **signatures**, fresh **drill-downs**
//! (issue path nodes top-down until one does not overflow) and **resumed**
//! drill-downs that restart from the previous round's terminal node and
//! drill down / roll up as the database changed.
//!
//! The estimators in `aggtrack-core` consume this crate; it knows nothing
//! about aggregates, only about locating top non-overflowing nodes and the
//! probability `p(q)` with which a uniform drill-down reaches them.
//!
//! ```
//! use hidden_db::{database::HiddenDatabase, ranking::ScoringPolicy,
//!                 schema::Schema, session::SearchSession,
//!                 tuple::Tuple, value::{TupleKey, ValueId}};
//! use query_tree::{drill::drill_from_root, signature::Signature, tree::QueryTree};
//! use rand::SeedableRng;
//!
//! let schema = Schema::with_domain_sizes(&[2, 2], &[]).unwrap();
//! let mut db = HiddenDatabase::new(schema, 1, ScoringPolicy::default());
//! for t in 0..4u64 {
//!     db.insert(Tuple::new(
//!         TupleKey(t),
//!         vec![ValueId((t % 2) as u32), ValueId(((t / 2) % 2) as u32)],
//!         vec![],
//!     ))
//!     .unwrap();
//! }
//! let tree = QueryTree::full(&db.schema().clone());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sig = Signature::sample(&tree, &mut rng);
//! let mut session = SearchSession::new(&mut db, 10);
//! let out = drill_from_root(&tree, &sig, &mut session).unwrap();
//! // One tuple per leaf: every drill-down ends at a valid node.
//! assert!(out.outcome.is_valid());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crawl;
pub mod drill;
pub mod order;
pub mod signature;
pub mod tree;

pub use crawl::{crawl, CrawlOutcome};
pub use drill::{
    drill_count_from_root, drill_from_root, resume_count_from, resume_from, DrillCount,
    DrillOutcome, ReissuePolicy,
};
pub use order::{attribute_order, tree_with_heuristic, OrderHeuristic};
pub use signature::{enumerate_all, Signature};
pub use tree::QueryTree;
