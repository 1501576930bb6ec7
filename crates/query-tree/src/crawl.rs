//! Full crawling through the restrictive interface — the strawman the
//! paper's introduction dismisses ("the crawling of changed tuples through
//! the web interface requires a prohibitively high query cost", citing
//! \[28\]).
//!
//! The crawler performs an exhaustive breadth-first descent of the query
//! tree: issue a node; if it overflows, expand all children; otherwise
//! record its page. Nodes above the leaves are read by class alone
//! (`issue_unless_overflow`), since an overflow there is only expanded;
//! a leaf is read in full. The union of pages over the frontier of top
//! non-overflowing nodes is exactly the database (same partition argument
//! as Theorem 3.1), so a crawl yields *exact* aggregates — at a query cost
//! orders of magnitude above one estimator round (the `crawl_vs_estimate`
//! example prints both).

use hidden_db::query::ConjunctiveQuery;
use hidden_db::session::SearchBackend;
use hidden_db::tuple::Tuple;

use crate::tree::QueryTree;

/// Result of a (possibly truncated) crawl.
#[derive(Debug, Clone)]
pub struct CrawlOutcome {
    /// Every tuple collected, deduplicated by key.
    pub tuples: Vec<Tuple>,
    /// Queries spent.
    pub cost: u64,
    /// Whether the crawl visited the whole frontier (false = budget died,
    /// the tuple set is incomplete).
    pub complete: bool,
}

/// Crawls the database under `tree`'s fixed prefix. Stops early (with
/// `complete = false`) if the backend's budget runs out.
pub fn crawl<B: SearchBackend + ?Sized>(tree: &QueryTree, backend: &mut B) -> CrawlOutcome {
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut cost = 0u64;
    // Work queue of (depth, query). Children are generated by appending
    // every value of the next level's attribute.
    let mut queue: Vec<(usize, ConjunctiveQuery)> = vec![(0, tree.fixed().clone())];
    while let Some((depth, query)) = queue.pop() {
        // Above the leaves an overflow only expands the node: read its
        // class alone.
        let answer = if depth < tree.depth() {
            backend.issue_unless_overflow(&query)
        } else {
            backend.issue(&query).map(Some)
        };
        // Budget exhaustion or an unrecovered interface fault: either
        // way the frontier cannot be finished — truncate.
        let Ok(answer) = answer else {
            return CrawlOutcome { tuples, cost, complete: false };
        };
        cost += 1;
        let Some(outcome) = answer else {
            let attr = tree.level_attr(depth);
            let domain = tree.level_domain_sizes().nth(depth).expect("depth < tree.depth()");
            for v in 0..domain {
                queue.push((depth + 1, query.with(attr, hidden_db::value::ValueId(v))));
            }
            continue;
        };
        // Terminal (valid, underflow, or leaf overflow — the latter loses
        // tuples, as it would on a real site).
        for t in outcome.tuples() {
            if seen.insert(t.key()) {
                tuples.push(t.to_tuple());
            }
        }
    }
    CrawlOutcome { tuples, cost, complete: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidden_db::database::HiddenDatabase;
    use hidden_db::ranking::ScoringPolicy;
    use hidden_db::schema::Schema;
    use hidden_db::session::SearchSession;
    use hidden_db::tuple::Tuple;
    use hidden_db::value::{TupleKey, ValueId};
    use rand::{Rng, SeedableRng};

    fn random_db(seed: u64, n: u64, k: usize) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2, 3, 2], &[]).unwrap();
        let mut db = HiddenDatabase::new(schema, k, ScoringPolicy::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for t in 0..n {
            db.insert(Tuple::new(
                TupleKey(t),
                vec![
                    ValueId(rng.random_range(0..2)),
                    ValueId(rng.random_range(0..3)),
                    ValueId(rng.random_range(0..2)),
                ],
                vec![],
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn crawl_recovers_every_tuple() {
        for seed in 0..3 {
            let mut db = random_db(seed, 70, 16);
            let tree = QueryTree::full(&db.schema().clone());
            let mut s = SearchSession::unlimited(&mut db);
            let out = crawl(&tree, &mut s);
            assert!(out.complete);
            assert_eq!(out.tuples.len(), 70, "seed {seed}");
            let mut keys: Vec<u64> = out.tuples.iter().map(|t| t.key().0).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 70, "no duplicates");
        }
    }

    #[test]
    fn crawl_cost_exceeds_single_drill_cost_substantially() {
        let mut db = random_db(9, 80, 4);
        let tree = QueryTree::full(&db.schema().clone());
        let crawl_cost = {
            let mut s = SearchSession::unlimited(&mut db);
            crawl(&tree, &mut s).cost
        };
        // One estimator drill-down costs ≤ depth+1 = 4 queries.
        assert!(crawl_cost > 4 * 4, "crawl should dwarf a drill-down: {crawl_cost}");
    }

    #[test]
    fn truncated_crawl_reports_incomplete() {
        let mut db = random_db(2, 60, 4);
        let tree = QueryTree::full(&db.schema().clone());
        let mut s = SearchSession::new(&mut db, 3);
        let out = crawl(&tree, &mut s);
        assert!(!out.complete);
        assert!(out.cost <= 3);
    }

    #[test]
    fn subtree_crawl_respects_condition() {
        let mut db = random_db(5, 60, 16);
        let cond = hidden_db::query::ConjunctiveQuery::from_predicates([
            hidden_db::query::Predicate::new(hidden_db::value::AttrId(1), ValueId(0)),
        ]);
        let truth = db.exact_count(Some(&cond));
        let tree = QueryTree::subtree(&db.schema().clone(), cond);
        let mut s = SearchSession::unlimited(&mut db);
        let out = crawl(&tree, &mut s);
        assert!(out.complete);
        assert_eq!(out.tuples.len() as u64, truth);
    }

    #[test]
    fn empty_database_crawl_is_one_query() {
        let mut db = random_db(0, 0, 4);
        let tree = QueryTree::full(&db.schema().clone());
        let mut s = SearchSession::unlimited(&mut db);
        let out = crawl(&tree, &mut s);
        assert!(out.complete);
        assert!(out.tuples.is_empty());
        assert_eq!(out.cost, 1);
    }
}
