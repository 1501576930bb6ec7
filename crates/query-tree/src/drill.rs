//! Drill-down execution: fresh drill-downs from the root (the static
//! estimator of \[13\], reused by RESTART) and *resumed* drill-downs that
//! start from the previous round's terminal node (REISSUE/RS, §3.1).

use hidden_db::errors::IssueError;
use hidden_db::interface::QueryOutcome;
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
    descend(tree, sig, 0, 0, backend)
}

/// Descends from `from_depth` (inclusive) until a non-overflowing node,
/// starting with `base_cost` already spent. Nodes above the leaves are
/// read by class alone ([`SearchBackend::issue_unless_overflow`]): only
/// a leaf's overflow page can be a terminal one.
fn descend<B: SearchBackend + ?Sized>(
    tree: &QueryTree,
    sig: &Signature,
    from_depth: usize,
    base_cost: u64,
    backend: &mut B,
) -> Result<DrillOutcome, IssueError> {
    let mut cost = base_cost;
    for depth in from_depth..tree.depth() {
        let answer = backend.issue_unless_overflow(&tree.node_query(sig, depth))?;
        cost += 1;
        if let Some(outcome) = answer {
            return Ok(DrillOutcome { depth, outcome, cost });
        }
    }
    let depth = tree.depth();
    let outcome = backend.issue(&tree.node_query(sig, depth))?;
    Ok(DrillOutcome { depth, outcome, cost: cost + 1 })
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
    assert!(
        prev_depth <= tree.depth(),
        "previous depth {prev_depth} exceeds tree depth {}",
        tree.depth()
    );
    let query = tree.node_query(sig, prev_depth);
    let first = if prev_depth < tree.depth() {
        backend.issue_unless_overflow(&query)?
    } else {
        Some(backend.issue(&query)?)
    };
    let mut cost = 1;
    let Some(first) = first else {
        return descend(tree, sig, prev_depth + 1, cost, backend);
    };
    if first.is_overflow() {
        // Degenerate leaf overflow: terminal where we stand.
        return Ok(DrillOutcome { depth: prev_depth, outcome: first, cost });
    }
    if prev_depth == 0 {
        // Root does not overflow: it is the terminal node by definition.
        return Ok(DrillOutcome { depth: 0, outcome: first, cost });
    }
    match policy {
        ReissuePolicy::Trusting => {
            if first.is_valid() {
                // §3.2 case 1: trust that ancestors still overflow.
                return Ok(DrillOutcome { depth: prev_depth, outcome: first, cost });
            }
            // Underflow: roll up to the first non-underflowing node, or an
            // underflowing node whose parent overflows (Algorithm 1 line 8).
            let mut best_depth = prev_depth;
            let mut best_outcome = first;
            for depth in (0..prev_depth).rev() {
                let answer = backend.issue_unless_overflow(&tree.node_query(sig, depth))?;
                cost += 1;
                let Some(outcome) = answer else {
                    return Ok(DrillOutcome { depth: best_depth, outcome: best_outcome, cost });
                };
                best_depth = depth;
                best_outcome = outcome.clone();
                if outcome.is_valid() {
                    // First non-underflowing node found: stop (Trusting).
                    return Ok(DrillOutcome { depth, outcome, cost });
                }
            }
            Ok(DrillOutcome { depth: best_depth, outcome: best_outcome, cost })
        }
        ReissuePolicy::Strict => {
            // Walk up until an overflowing ancestor pins the terminal node.
            let mut best_depth = prev_depth;
            let mut best_outcome = first;
            for depth in (0..prev_depth).rev() {
                let answer = backend.issue_unless_overflow(&tree.node_query(sig, depth))?;
                cost += 1;
                let Some(outcome) = answer else {
                    return Ok(DrillOutcome { depth: best_depth, outcome: best_outcome, cost });
                };
                best_depth = depth;
                best_outcome = outcome;
            }
            // Reached the root without meeting an overflow: root terminal.
            Ok(DrillOutcome { depth: best_depth, outcome: best_outcome, cost })
        }
    }
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
