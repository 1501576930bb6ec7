//! Property tests for the drill-down machinery — the invariants that
//! Theorem 3.1's partition argument rests on.

use hidden_db::database::HiddenDatabase;
use hidden_db::errors::IssueError;
use hidden_db::interface::QueryOutcome;
use hidden_db::query::ConjunctiveQuery;
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::session::{SearchBackend, SearchSession};
use hidden_db::tuple::Tuple;
use hidden_db::value::{TupleKey, ValueId};
use proptest::prelude::*;
use query_tree::crawl::crawl;
use query_tree::{
    drill_count_from_root, drill_from_root, enumerate_all, resume_count_from, resume_from,
    QueryTree, ReissuePolicy,
};

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

/// Forwards every required method and takes the provided
/// `issue_unless_overflow`, which reads the whole answer: the path of a
/// remote adapter, and of the benchmark's traced adapters.
struct IssueOnly<'a>(SearchSession<'a>);

impl SearchBackend for IssueOnly<'_> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn k(&self) -> usize {
        self.0.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        self.0.issue(query)
    }

    fn remaining(&self) -> u64 {
        self.0.remaining()
    }

    fn spent(&self) -> u64 {
        self.0.spent()
    }
}

/// One drill's terminal depth, cost and answer, or its error.
type Drill = Result<(usize, u64, QueryOutcome), IssueError>;

/// Resumes every signature from `depths` (a fresh drill where `None`)
/// under `policy`, then crawls the tree, through `backend`: the drills,
/// the crawled keys and cost, and the spend.
fn drill_all<B: SearchBackend>(
    tree: &QueryTree,
    depths: &[Option<usize>],
    policy: ReissuePolicy,
    backend: &mut B,
) -> (Vec<Drill>, Vec<u64>, u64, u64) {
    let mut drills = Vec::new();
    for (sig, depth) in enumerate_all(tree).iter().zip(depths) {
        let out = match depth {
            None => drill_from_root(tree, sig, backend),
            Some(d) => resume_from(tree, sig, *d, policy, backend),
        };
        drills.push(out.map(|o| (o.depth, o.cost, o.outcome)));
    }
    let crawled = crawl(tree, backend);
    let mut keys: Vec<u64> = crawled.tuples.iter().map(|t| t.key().0).collect();
    keys.sort_unstable();
    (drills, keys, crawled.cost, backend.spent())
}

/// One drill's terminal depth, cost and page size, or its error.
type Sizing = Result<(usize, u64, usize), IssueError>;

/// Resumes every signature from `depths` (a fresh drill where `None`)
/// under `policy` through `backend`, by count when `by_count` and by page
/// otherwise: each drill's depth, cost and page size, and the spend.
fn size_all<B: SearchBackend>(
    tree: &QueryTree,
    depths: &[Option<usize>],
    policy: ReissuePolicy,
    by_count: bool,
    backend: &mut B,
) -> (Vec<Sizing>, u64) {
    let mut drills = Vec::new();
    for (sig, depth) in enumerate_all(tree).iter().zip(depths) {
        let out = match (*depth, by_count) {
            (None, true) => {
                drill_count_from_root(tree, sig, backend).map(|d| (d.depth, d.cost, d.count))
            }
            (Some(d), true) => {
                resume_count_from(tree, sig, d, policy, backend).map(|d| (d.depth, d.cost, d.count))
            }
            (None, false) => drill_from_root(tree, sig, backend)
                .map(|d| (d.depth, d.cost, d.outcome.returned_count())),
            (Some(d), false) => resume_from(tree, sig, d, policy, backend)
                .map(|d| (d.depth, d.cost, d.outcome.returned_count())),
        };
        drills.push(out);
    }
    (drills, backend.spent())
}

/// A database's class tallies.
fn tallies(db: &HiddenDatabase) -> (u64, u64, u64, u64) {
    let s = db.stats();
    (s.answered, s.underflows, s.valids, s.overflows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Count drills, and count resumes under either policy, issue the same
    // queries as page drills and stop at the same node: the same depth,
    // cost, spend and class tallies, and the page drill's
    // `returned_count()` as their count, leaf overflows included (small
    // `k` makes some). Checked before and after a change of the data, and
    // under a budget that runs out.
    #[test]
    fn count_drills_match_page_drills(
        before in prop::collection::vec(row_strategy(), 0..50),
        after_inserts in prop::collection::vec(row_strategy(), 0..30),
        delete_mask in prop::collection::vec(any::<bool>(), 50),
        k in 1..6usize,
        budget in 5..200u64,
        trusting in any::<bool>(),
    ) {
        let policy = if trusting { ReissuePolicy::Trusting } else { ReissuePolicy::Strict };
        let mut db = db_from_rows(&before, k);
        let mut paged = db.clone();
        let tree = QueryTree::full(&db.schema().clone());
        let fresh = vec![None; enumerate_all(&tree).len()];
        let first = size_all(&tree, &fresh, policy, true, &mut SearchSession::unlimited(&mut db));
        let want =
            size_all(&tree, &fresh, policy, false, &mut SearchSession::unlimited(&mut paged));
        prop_assert_eq!(&first, &want);
        prop_assert_eq!(tallies(&db), tallies(&paged));
        let depths: Vec<Option<usize>> =
            first.0.iter().map(|d| d.as_ref().ok().map(|(depth, ..)| *depth)).collect();

        for (i, &del) in delete_mask.iter().enumerate().take(before.len()) {
            if del {
                db.delete(TupleKey(i as u64)).unwrap();
                paged.delete(TupleKey(i as u64)).unwrap();
            }
        }
        for (i, &(a, b, c)) in after_inserts.iter().enumerate() {
            let t = Tuple::new(
                TupleKey(10_000 + i as u64),
                vec![ValueId(a), ValueId(b), ValueId(c)],
                vec![],
            );
            db.insert(t.clone()).unwrap();
            paged.insert(t).unwrap();
        }
        let got = size_all(&tree, &depths, policy, true, &mut SearchSession::new(&mut db, budget));
        let want =
            size_all(&tree, &depths, policy, false, &mut SearchSession::new(&mut paged, budget));
        prop_assert_eq!(got, want);
        prop_assert_eq!(tallies(&db), tallies(&paged));
        prop_assert_eq!(db.stats().count_reads, db.stats().answered, "every read by count");
        prop_assert_eq!(paged.stats().count_reads, 0);
    }

    // Drills, resumes under both policies, and crawls read every node
    // above the leaves by class alone through a `SearchSession`; through
    // a backend that only answers `issue` they read every page. Both must
    // agree on every terminal depth, cost and answer and on the spend,
    // across a change of the data and under a budget that runs out.
    #[test]
    fn class_only_reads_match_the_issue_only_path(
        before in prop::collection::vec(row_strategy(), 0..50),
        after_inserts in prop::collection::vec(row_strategy(), 0..30),
        delete_mask in prop::collection::vec(any::<bool>(), 50),
        k in 1..6usize,
        budget in 5..200u64,
        trusting in any::<bool>(),
    ) {
        let policy = if trusting { ReissuePolicy::Trusting } else { ReissuePolicy::Strict };
        let mut db = db_from_rows(&before, k);
        let mut plain = db.clone();
        let tree = QueryTree::full(&db.schema().clone());
        let fresh = vec![None; enumerate_all(&tree).len()];
        let first = drill_all(&tree, &fresh, policy, &mut SearchSession::unlimited(&mut db));
        let want =
            drill_all(&tree, &fresh, policy, &mut IssueOnly(SearchSession::unlimited(&mut plain)));
        prop_assert_eq!(&first, &want);
        let depths: Vec<Option<usize>> =
            first.0.iter().map(|d| d.as_ref().ok().map(|(depth, ..)| *depth)).collect();

        for (i, &del) in delete_mask.iter().enumerate().take(before.len()) {
            if del {
                db.delete(TupleKey(i as u64)).unwrap();
                plain.delete(TupleKey(i as u64)).unwrap();
            }
        }
        for (i, &(a, b, c)) in after_inserts.iter().enumerate() {
            let t = Tuple::new(
                TupleKey(10_000 + i as u64),
                vec![ValueId(a), ValueId(b), ValueId(c)],
                vec![],
            );
            db.insert(t.clone()).unwrap();
            plain.insert(t).unwrap();
        }
        let got = drill_all(&tree, &depths, policy, &mut SearchSession::new(&mut db, budget));
        let want = drill_all(
            &tree, &depths, policy, &mut IssueOnly(SearchSession::new(&mut plain, budget)),
        );
        prop_assert_eq!(got, want);
        prop_assert_eq!(plain.stats().class_only_overflows, 0);
        prop_assert_eq!(tallies(&db), tallies(&plain));
    }

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
