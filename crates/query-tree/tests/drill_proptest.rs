//! Property tests for the drill-down machinery — the invariants that
//! Theorem 3.1's partition argument rests on.

use hidden_db::database::HiddenDatabase;
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::session::SearchSession;
use hidden_db::tuple::Tuple;
use hidden_db::value::{TupleKey, ValueId};
use proptest::prelude::*;
use query_tree::{drill_from_root, enumerate_all, resume_from, QueryTree, ReissuePolicy};

const DOMAINS: [u32; 3] = [2, 3, 2];

fn db_from_rows(rows: &[(u32, u32, u32)], k: usize) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &[]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, ScoringPolicy::default());
    for (i, &(a, b, c)) in rows.iter().enumerate() {
        db.insert(Tuple::new(TupleKey(i as u64), vec![ValueId(a), ValueId(b), ValueId(c)], vec![]))
            .unwrap();
    }
    db
}

fn row_strategy() -> impl Strategy<Value = (u32, u32, u32)> {
    (0..DOMAINS[0], 0..DOMAINS[1], 0..DOMAINS[2])
}

/// Brute-force expected terminal: smallest depth whose node count ≤ k
/// (or the leaf if even it overflows).
fn expected_terminal(db: &HiddenDatabase, tree: &QueryTree, sig: &query_tree::Signature) -> usize {
    for depth in 0..=tree.depth() {
        let q = tree.node_query(sig, depth);
        if db.exact_count(Some(&q)) <= db.k() as u64 {
            return depth;
        }
    }
    tree.depth()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drill_always_finds_top_nonoverflowing_node(
        rows in prop::collection::vec(row_strategy(), 0..60),
        k in 1..8usize,
    ) {
        let mut db = db_from_rows(&rows, k);
        let tree = QueryTree::full(&db.schema().clone());
        for sig in enumerate_all(&tree) {
            let expect = expected_terminal(&db, &tree, &sig);
            let mut s = SearchSession::unlimited(&mut db);
            let out = drill_from_root(&tree, &sig, &mut s).unwrap();
            prop_assert_eq!(out.depth, expect, "sig {:?}", sig);
            prop_assert_eq!(out.cost, expect as u64 + 1);
        }
    }

    #[test]
    fn partition_property_every_tuple_counted_once(
        rows in prop::collection::vec(row_strategy(), 1..60),
        k in 2..8usize,
    ) {
        // Σ over all leaves of (tuples at terminal)/p(terminal) · 1/#leaves
        // = |D| exactly, provided no leaf overflows.
        let mut db = db_from_rows(&rows, k);
        let tree = QueryTree::full(&db.schema().clone());
        let sigs = enumerate_all(&tree);
        let mut total = 0.0;
        let mut leaf_overflow = false;
        for sig in &sigs {
            let mut s = SearchSession::unlimited(&mut db);
            let out = drill_from_root(&tree, sig, &mut s).unwrap();
            if out.outcome.is_overflow() {
                leaf_overflow = true;
                break;
            }
            let p = tree.selection_probability(out.depth);
            total += out.outcome.returned_count() as f64 / p / sigs.len() as f64;
        }
        if !leaf_overflow {
            let truth = db.len() as f64;
            prop_assert!((total - truth).abs() < 1e-6,
                "partition sum {} != |D| {}", total, truth);
        }
    }

    #[test]
    fn strict_resume_equals_fresh_drill_after_arbitrary_change(
        before in prop::collection::vec(row_strategy(), 1..40),
        after_inserts in prop::collection::vec(row_strategy(), 0..40),
        delete_mask in prop::collection::vec(any::<bool>(), 40),
        k in 1..6usize,
    ) {
        let mut db = db_from_rows(&before, k);
        let tree = QueryTree::full(&db.schema().clone());
        // Record terminals for all signatures.
        let sigs = enumerate_all(&tree);
        let mut depths = Vec::with_capacity(sigs.len());
        for sig in &sigs {
            let mut s = SearchSession::unlimited(&mut db);
            depths.push(drill_from_root(&tree, sig, &mut s).unwrap().depth);
        }
        // Mutate arbitrarily.
        for (i, &del) in delete_mask.iter().enumerate().take(before.len()) {
            if del {
                db.delete(TupleKey(i as u64)).unwrap();
            }
        }
        for (i, &(a, b, c)) in after_inserts.iter().enumerate() {
            db.insert(Tuple::new(
                TupleKey(10_000 + i as u64),
                vec![ValueId(a), ValueId(b), ValueId(c)],
                vec![],
            ))
            .unwrap();
        }
        // Strict resume must land on the same terminal as a fresh drill.
        for (sig, &depth) in sigs.iter().zip(&depths) {
            let fresh = {
                let mut s = SearchSession::unlimited(&mut db);
                drill_from_root(&tree, sig, &mut s).unwrap()
            };
            let resumed = {
                let mut s = SearchSession::unlimited(&mut db);
                resume_from(&tree, sig, depth, ReissuePolicy::Strict, &mut s).unwrap()
            };
            prop_assert_eq!(resumed.depth, fresh.depth, "sig {:?}", sig);
            prop_assert_eq!(
                resumed.outcome.is_underflow(),
                fresh.outcome.is_underflow()
            );
            // Same tuples at the terminal node.
            let keys = |o: &query_tree::DrillOutcome| {
                let mut v: Vec<u64> =
                    o.outcome.tuples().map(|t| t.key().0).collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(keys(&resumed), keys(&fresh));
        }
    }

    #[test]
    fn resume_cost_never_exceeds_path_length_plus_one(
        rows in prop::collection::vec(row_strategy(), 1..50),
        k in 1..6usize,
    ) {
        // Resume cost is bounded by (depth of tree + 1) + previous depth —
        // the worst case walks up the whole path then down the whole path.
        let mut db = db_from_rows(&rows, k);
        let tree = QueryTree::full(&db.schema().clone());
        let sigs = enumerate_all(&tree);
        for sig in &sigs {
            let prev = {
                let mut s = SearchSession::unlimited(&mut db);
                drill_from_root(&tree, sig, &mut s).unwrap()
            };
            let mut s = SearchSession::unlimited(&mut db);
            let resumed =
                resume_from(&tree, sig, prev.depth, ReissuePolicy::Strict, &mut s).unwrap();
            prop_assert!(
                resumed.cost <= (tree.depth() as u64 + 1) + prev.depth as u64,
                "cost {} too high", resumed.cost
            );
        }
    }
}
