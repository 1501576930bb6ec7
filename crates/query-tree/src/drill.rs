//! Drill-down execution: fresh drill-downs from the root (the static
//! estimator of \[13\], reused by RESTART) and *resumed* drill-downs that
//! start from the previous round's terminal node (REISSUE/RS, §3.1).
//!
//! A drill-down stops at its terminal node, the top node that does not
//! overflow, and a caller reads that node one of two ways. A **page
//! drill** ([`drill_from_root`], [`resume_from`]) returns the terminal's
//! [`QueryOutcome`], for a caller that reads its rows. A **count drill**
//! ([`drill_count_from_root`], [`resume_count_from`]) returns only how
//! many tuples the terminal's page holds ([`DrillCount`]): a COUNT(*)
//! estimate needs nothing else, since its Horvitz–Thompson term is
//! `|q| / p(q)`, and a count read builds no page
//! ([`SearchBackend::issue_count`]). The estimators in `aggtrack-core`
//! count-drill every spec that reads no row of the page; their term
//! `count / p(q)` is bit-identical to walking the page of the same node,
//! which adds `1.0` once per tuple. Both run the same drill and resume
//! bodies, generic over what a node that does not overflow returns, so
//! they issue the same queries, in the same order, at the same cost; only
//! the read of each node differs.

use hidden_db::errors::IssueError;
use hidden_db::interface::{OutcomeClass, QueryOutcome};
use hidden_db::query::ConjunctiveQuery;
use hidden_db::session::SearchBackend;

use crate::signature::Signature;
use crate::tree::QueryTree;

/// How a resumed drill-down treats its memory of the previous round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReissuePolicy {
    /// Always establish the *exact* top non-overflowing node of the current
    /// round by verifying ancestors until one overflows (or the root is
    /// reached). Two queries when nothing changed (node + parent), matching
    /// the §4.1 cost model; preserves the partition argument of Theorem 3.1
    /// exactly, hence unbiasedness.
    #[default]
    Strict,
    /// Trust that ancestors which overflowed in the previous round still
    /// overflow: a node found valid is terminal immediately (1 query when
    /// nothing changed — the §3.2 case-1 cost model), and a roll-up stops
    /// at the first non-underflowing node. Cheaper, but biased when
    /// deletions shrink an ancestor to ≤ k tuples without the drill-down
    /// noticing.
    Trusting,
}

/// Where a drill-down ended: its terminal (top non-overflowing) node.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// Depth of the terminal node (0 = tree root).
    pub depth: usize,
    /// The terminal node's interface answer. `Valid` or `Underflow` in the
    /// normal case; `Overflow` only in the degenerate leaf-overflow case
    /// (more than `k` tuples share every categorical value — impossible
    /// under the paper's all-distinct-tuples assumption, tolerated here).
    pub outcome: QueryOutcome,
    /// Search queries spent by this operation.
    pub cost: u64,
}

impl DrillOutcome {
    /// Whether the drill-down terminated at an underflowing (empty) node,
    /// contributing a zero estimate.
    pub fn is_empty_terminal(&self) -> bool {
        self.outcome.is_underflow()
    }
}

/// Where a count drill ended: its terminal node's depth and how many
/// tuples that node's page holds. Equal, field for field, to the page
/// drill's depth, `outcome.returned_count()` and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrillCount {
    /// Depth of the terminal node (0 = tree root).
    pub depth: usize,
    /// Tuples on the terminal node's page: all of its matches when it
    /// does not overflow (0 for an underflow), and `k` in the degenerate
    /// leaf-overflow case, whose page holds the top `k`.
    pub count: usize,
    /// Search queries spent by this operation.
    pub cost: u64,
}

/// What a drill-down reads at a node where it may stop, and how. A node
/// above the leaves is read only to learn whether it overflows, and its
/// answer is kept only when it does not; a leaf's answer is always kept,
/// since even an overflowing leaf is a terminal.
trait Terminal: Sized {
    /// Reads a node above the leaves: `None` when it overflows.
    fn node<B: SearchBackend + ?Sized>(
        backend: &mut B,
        query: &ConjunctiveQuery,
    ) -> Result<Option<Self>, IssueError>;

    /// Reads a leaf, whether it overflows or not.
    fn leaf<B: SearchBackend + ?Sized>(
        backend: &mut B,
        query: &ConjunctiveQuery,
    ) -> Result<Self, IssueError>;

    /// The node's class.
    fn class(&self) -> OutcomeClass;
}

/// A page drill reads the class alone above the leaves
/// ([`SearchBackend::issue_unless_overflow`]) and a leaf's whole answer.
impl Terminal for QueryOutcome {
    fn node<B: SearchBackend + ?Sized>(
        backend: &mut B,
        query: &ConjunctiveQuery,
    ) -> Result<Option<Self>, IssueError> {
        backend.issue_unless_overflow(query)
    }

    fn leaf<B: SearchBackend + ?Sized>(
        backend: &mut B,
        query: &ConjunctiveQuery,
    ) -> Result<Self, IssueError> {
        backend.issue(query)
    }

    fn class(&self) -> OutcomeClass {
        QueryOutcome::class(self)
    }
}

/// A count drill's answer at a node: the page's size, and whether the
/// node overflowed (only ever a leaf, whose page then holds `k`).
#[derive(Debug, Clone, Copy)]
struct PageSize {
    tuples: usize,
    overflow: bool,
}

/// A count drill reads every node by count ([`SearchBackend::issue_count`]).
impl Terminal for PageSize {
    fn node<B: SearchBackend + ?Sized>(
        backend: &mut B,
        query: &ConjunctiveQuery,
    ) -> Result<Option<Self>, IssueError> {
        Ok(backend.issue_count(query)?.map(|tuples| PageSize { tuples, overflow: false }))
    }

    fn leaf<B: SearchBackend + ?Sized>(
        backend: &mut B,
        query: &ConjunctiveQuery,
    ) -> Result<Self, IssueError> {
        let read = PageSize::node(backend, query)?;
        Ok(read.unwrap_or(PageSize { tuples: backend.k(), overflow: true }))
    }

    fn class(&self) -> OutcomeClass {
        match (self.overflow, self.tuples) {
            (true, _) => OutcomeClass::Overflow,
            (false, 0) => OutcomeClass::Underflow,
            (false, _) => OutcomeClass::Valid,
        }
    }
}

/// A drill-down's terminal node, read as `T`, and the queries spent.
struct Stop<T> {
    depth: usize,
    answer: T,
    cost: u64,
}

/// Performs a fresh drill-down: issue the path's nodes root-first until one
/// does not overflow (§3.1).
///
/// Errors abort the drill-down mid-path: budget exhaustion is terminal
/// for the round, and an unrecovered interface fault (PR 6) surfaces the
/// same way — the caller treats both as a resumable interruption.
pub fn drill_from_root<B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    backend: &mut B,
) -> Result<DrillOutcome, IssueError> {
    let stop = descend::<QueryOutcome, B>(tree, sig, 0, 0, backend)?;
    Ok(DrillOutcome { depth: stop.depth, outcome: stop.answer, cost: stop.cost })
}

/// [`drill_from_root`] for a caller that needs only the size of the
/// terminal node's page: the same queries at the same cost, every node
/// read by count.
pub fn drill_count_from_root<B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    backend: &mut B,
) -> Result<DrillCount, IssueError> {
    let stop = descend::<PageSize, B>(tree, sig, 0, 0, backend)?;
    Ok(DrillCount { depth: stop.depth, count: stop.answer.tuples, cost: stop.cost })
}

/// Descends from `from_depth` (inclusive) until a non-overflowing node,
/// starting with `cost` already spent. Nodes above the leaves are read
/// by [`Terminal::node`]: only a leaf's overflow can be a terminal one.
fn descend<T: Terminal, B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    from_depth: usize,
    mut cost: u64,
    backend: &mut B,
) -> Result<Stop<T>, IssueError> {
    for depth in from_depth..tree.depth() {
        let answer = T::node(backend, &tree.node_query(sig, depth))?;
        cost += 1;
        if let Some(answer) = answer {
            return Ok(Stop { depth, answer, cost });
        }
    }
    let depth = tree.depth();
    let answer = T::leaf(backend, &tree.node_query(sig, depth))?;
    Ok(Stop { depth, answer, cost: cost + 1 })
}

/// Resumes a drill-down whose terminal node in the previous round was at
/// `prev_depth` (Algorithm 1, lines 5–9):
///
/// * if that node now **overflows**, drill further down;
/// * if it is **valid** or **underflows**, verify/locate the top
///   non-overflowing node per `policy` by rolling up.
///
/// Every node above the leaves is read by class alone, the roll-up's
/// included: an overflowing ancestor only pins the terminal below it.
pub fn resume_from<B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    prev_depth: usize,
    policy: ReissuePolicy,
    backend: &mut B,
) -> Result<DrillOutcome, IssueError> {
    let stop = resume::<QueryOutcome, B>(tree, sig, prev_depth, policy, backend)?;
    Ok(DrillOutcome { depth: stop.depth, outcome: stop.answer, cost: stop.cost })
}

/// [`resume_from`] for a caller that needs only the size of the terminal
/// node's page: the same queries at the same cost, every node read by
/// count.
pub fn resume_count_from<B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    prev_depth: usize,
    policy: ReissuePolicy,
    backend: &mut B,
) -> Result<DrillCount, IssueError> {
    let stop = resume::<PageSize, B>(tree, sig, prev_depth, policy, backend)?;
    Ok(DrillCount { depth: stop.depth, count: stop.answer.tuples, cost: stop.cost })
}

/// The body of [`resume_from`] and [`resume_count_from`].
fn resume<T: Terminal, B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    prev_depth: usize,
    policy: ReissuePolicy,
    backend: &mut B,
) -> Result<Stop<T>, IssueError> {
    assert!(
        prev_depth <= tree.depth(),
        "previous depth {prev_depth} exceeds tree depth {}",
        tree.depth()
    );
    let query = tree.node_query(sig, prev_depth);
    let first = if prev_depth < tree.depth() {
        T::node(backend, &query)?
    } else {
        Some(T::leaf(backend, &query)?)
    };
    let Some(first) = first else {
        return descend(tree, sig, prev_depth + 1, 1, backend);
    };
    let mut best = Stop { depth: prev_depth, answer: first, cost: 1 };
    let trusting = policy == ReissuePolicy::Trusting;
    // A degenerate leaf overflow is terminal where we stand, and so is a
    // root that does not overflow, by definition. Trusting takes a valid
    // node as terminal too (§3.2 case 1: its ancestors still overflow).
    let class = best.answer.class();
    if class == OutcomeClass::Overflow
        || prev_depth == 0
        || (trusting && class == OutcomeClass::Valid)
    {
        return Ok(best);
    }
    // Roll up until an overflowing ancestor pins the terminal node below
    // it, or the root is reached. Trusting, rolling up from an underflow,
    // also stops at the first valid node (Algorithm 1 line 8).
    for depth in (0..prev_depth).rev() {
        let answer = T::node(backend, &tree.node_query(sig, depth))?;
        best.cost += 1;
        let Some(answer) = answer else {
            return Ok(best);
        };
        best.depth = depth;
        best.answer = answer;
        if trusting && best.answer.class() == OutcomeClass::Valid {
            return Ok(best);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::enumerate_all;
    use hidden_db::database::HiddenDatabase;
    use hidden_db::ranking::ScoringPolicy;
    use hidden_db::schema::Schema;
    use hidden_db::session::SearchSession;
    use hidden_db::tuple::Tuple;
    use hidden_db::value::{TupleKey, ValueId};

    /// 3-attribute db: values of tuple key t are (t%2, (t/2)%3, (t/6)%2).
    fn build_db(n: u64, k: usize) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2, 3, 2], &[]).unwrap();
        let mut db = HiddenDatabase::new(schema, k, ScoringPolicy::default());
        for t in 0..n {
            db.insert(Tuple::new(
                TupleKey(t),
                vec![
                    ValueId((t % 2) as u32),
                    ValueId(((t / 2) % 3) as u32),
                    ValueId(((t / 6) % 2) as u32),
                ],
                vec![],
            ))
            .unwrap();
        }
        db
    }

    /// Brute-force the expected terminal depth: smallest depth whose node
    /// matches ≤ k tuples.
    fn expected_terminal(db: &HiddenDatabase, tree: &QueryTree, sig: &Signature) -> usize {
        for depth in 0..=tree.depth() {
            let q = tree.node_query(sig, depth);
            if db.exact_count(Some(&q)) <= db.k() as u64 {
                return depth;
            }
        }
        tree.depth()
    }

    #[test]
    fn fresh_drill_finds_top_nonoverflowing_node_for_every_leaf() {
        let mut db = build_db(24, 2);
        let tree = QueryTree::full(&db.schema().clone());
        for sig in enumerate_all(&tree) {
            let expect = expected_terminal(&db, &tree, &sig);
            let mut session = SearchSession::unlimited(&mut db);
            let out = drill_from_root(&tree, &sig, &mut session).unwrap();
            assert_eq!(out.depth, expect, "sig {sig:?}");
            assert_eq!(out.cost, expect as u64 + 1, "cost = path length");
            assert!(!out.outcome.is_overflow());
        }
    }

    #[test]
    fn fresh_drill_on_tiny_db_stops_at_root() {
        let mut db = build_db(2, 5);
        let tree = QueryTree::full(&db.schema().clone());
        let sig = Signature::from_choices(vec![0, 0, 0]);
        let mut session = SearchSession::unlimited(&mut db);
        let out = drill_from_root(&tree, &sig, &mut session).unwrap();
        assert_eq!(out.depth, 0);
        assert_eq!(out.cost, 1);
        assert!(out.outcome.is_valid());
    }

    #[test]
    fn resume_unchanged_costs_two_strict_one_trusting() {
        let mut db = build_db(24, 2);
        let tree = QueryTree::full(&db.schema().clone());
        let sig = Signature::from_choices(vec![0, 0, 0]);
        let prev = {
            let mut s = SearchSession::unlimited(&mut db);
            drill_from_root(&tree, &sig, &mut s).unwrap()
        };
        assert!(prev.outcome.is_valid(), "fixture should land on a valid node");
        assert!(prev.depth > 0);
        let strict = {
            let mut s = SearchSession::unlimited(&mut db);
            resume_from(&tree, &sig, prev.depth, ReissuePolicy::Strict, &mut s).unwrap()
        };
        assert_eq!(strict.depth, prev.depth);
        assert_eq!(strict.cost, 2, "node + overflowing parent");
        let trusting = {
            let mut s = SearchSession::unlimited(&mut db);
            resume_from(&tree, &sig, prev.depth, ReissuePolicy::Trusting, &mut s).unwrap()
        };
        assert_eq!(trusting.depth, prev.depth);
        assert_eq!(trusting.cost, 1, "single verification query");
    }

    #[test]
    fn resume_after_growth_drills_down() {
        let mut db = build_db(6, 2);
        let tree = QueryTree::full(&db.schema().clone());
        // Terminal for this sig before growth.
        let sig = Signature::from_choices(vec![0, 0, 0]);
        let prev = {
            let mut s = SearchSession::unlimited(&mut db);
            drill_from_root(&tree, &sig, &mut s).unwrap()
        };
        // Insert many tuples matching the previous terminal node's query.
        let q_prev = tree.node_query(&sig, prev.depth);
        for t in 100..120u64 {
            let mut vals = vec![ValueId(0), ValueId(0), ValueId((t % 2) as u32)];
            // Force values to match the prefix predicates.
            for p in q_prev.predicates() {
                vals[p.attr.index()] = p.value;
            }
            db.insert(Tuple::new(TupleKey(t), vals, vec![])).unwrap();
        }
        let expect = expected_terminal(&db, &tree, &sig);
        assert!(expect > prev.depth, "fixture must actually push the terminal deeper");
        let mut s = SearchSession::unlimited(&mut db);
        let out = resume_from(&tree, &sig, prev.depth, ReissuePolicy::Strict, &mut s).unwrap();
        assert_eq!(out.depth, expect);
    }

    #[test]
    fn resume_after_mass_deletion_rolls_up_strict_matches_fresh() {
        let mut db = build_db(24, 2);
        let tree = QueryTree::full(&db.schema().clone());
        for sig in enumerate_all(&tree) {
            let prev = {
                let mut s = SearchSession::unlimited(&mut db);
                drill_from_root(&tree, &sig, &mut s).unwrap()
            };
            // Delete most tuples, then check resume == fresh drill (Strict).
            let mut db2 = db.clone();
            for t in 0..20u64 {
                db2.delete(TupleKey(t)).unwrap();
            }
            let expect = expected_terminal(&db2, &tree, &sig);
            let mut s = SearchSession::unlimited(&mut db2);
            let out = resume_from(&tree, &sig, prev.depth, ReissuePolicy::Strict, &mut s).unwrap();
            assert_eq!(out.depth, expect, "sig {sig:?}");
            assert!(!out.outcome.is_overflow());
        }
    }

    #[test]
    fn resume_on_emptied_database_reaches_root() {
        let mut db = build_db(24, 2);
        let tree = QueryTree::full(&db.schema().clone());
        let sig = Signature::from_choices(vec![1, 2, 1]);
        let prev = {
            let mut s = SearchSession::unlimited(&mut db);
            drill_from_root(&tree, &sig, &mut s).unwrap()
        };
        for t in 0..24u64 {
            db.delete(TupleKey(t)).unwrap();
        }
        let mut s = SearchSession::unlimited(&mut db);
        let out = resume_from(&tree, &sig, prev.depth, ReissuePolicy::Strict, &mut s).unwrap();
        assert_eq!(out.depth, 0);
        assert!(out.outcome.is_underflow());
    }

    #[test]
    fn trusting_rollup_stops_at_first_valid_node() {
        // Build a situation where the trusting roll-up stops early:
        // previous terminal deep, after deletion the node underflows, its
        // parent is valid, grandparent also valid. Trusting stops at parent;
        // Strict walks to the top non-overflowing node (grandparent or
        // higher).
        let schema = Schema::with_domain_sizes(&[2, 2, 2], &[]).unwrap();
        let mut db = HiddenDatabase::new(schema, 1, ScoringPolicy::default());
        // Two tuples share A0=0, splitting at A1: (0,0,0) and (0,1,0).
        for (i, vals) in [(0, [0, 0, 0]), (1, [0, 1, 0])].iter() {
            db.insert(Tuple::new(TupleKey(*i), vals.iter().map(|&v| ValueId(v)).collect(), vec![]))
                .unwrap();
        }
        let tree = QueryTree::full(&db.schema().clone());
        let sig = Signature::from_choices(vec![0, 0, 0]);
        let prev = {
            let mut s = SearchSession::unlimited(&mut db);
            drill_from_root(&tree, &sig, &mut s).unwrap()
        };
        assert_eq!(prev.depth, 2, "A0=0 has 2 tuples > k=1; (A0=0,A1=0) has 1");
        // Delete (0,0,0) → node (A0=0,A1=0) underflows; A0=0 keeps 1 tuple
        // (valid); the root keeps 1 (valid).
        db.delete(TupleKey(0)).unwrap();
        let trusting = {
            let mut s = SearchSession::unlimited(&mut db);
            resume_from(&tree, &sig, prev.depth, ReissuePolicy::Trusting, &mut s).unwrap()
        };
        // Trusting stops at depth 1 (A0=0 valid), even though the true top
        // non-overflowing node is the root.
        assert_eq!(trusting.depth, 1);
        let strict = {
            let mut s = SearchSession::unlimited(&mut db);
            resume_from(&tree, &sig, prev.depth, ReissuePolicy::Strict, &mut s).unwrap()
        };
        assert_eq!(strict.depth, 0, "strict walks to the true terminal (root)");
        assert!(strict.outcome.is_valid());
    }

    #[test]
    fn budget_exhaustion_propagates() {
        let mut db = build_db(24, 2);
        let tree = QueryTree::full(&db.schema().clone());
        let sig = Signature::from_choices(vec![0, 0, 0]);
        let mut s = SearchSession::new(&mut db, 1);
        let r = drill_from_root(&tree, &sig, &mut s);
        assert!(r.is_err(), "drill needs >1 query here");
    }

    #[test]
    fn leaf_overflow_is_terminal() {
        // k=1 with two tuples sharing all attribute values: the leaf
        // overflows and must be treated as terminal.
        let schema = Schema::with_domain_sizes(&[2], &[]).unwrap();
        let mut db = HiddenDatabase::new(schema, 1, ScoringPolicy::default());
        db.insert(Tuple::new(TupleKey(0), vec![ValueId(0)], vec![])).unwrap();
        db.insert(Tuple::new(TupleKey(1), vec![ValueId(0)], vec![])).unwrap();
        let tree = QueryTree::full(&db.schema().clone());
        let sig = Signature::from_choices(vec![0]);
        let mut s = SearchSession::unlimited(&mut db);
        let out = drill_from_root(&tree, &sig, &mut s).unwrap();
        assert_eq!(out.depth, 1);
        assert!(out.outcome.is_overflow());
    }
}
