//! The patched memo on a churn-heavy pool: 4 000 Autos tuples over 12
//! attributes at `k = 100`, 30 rounds of 6 inserts, 6 deletes and 2
//! measure updates, with every pool query asked each round.
//!
//! Answers must be bit-identical to a memo-disabled database, and a query
//! may be evaluated from cold only on its first ask, or after a row change
//! its cached answer could not absorb: a member of its overflow page was
//! deleted. (Under the hashed ranking a measure update never moves a
//! score, so no member's score can fall.) Both are counted from the
//! oracle's pages.

use std::collections::HashSet;

use aggtrack::hidden_db::InvalidationPolicy;
use aggtrack::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::load_database;

const N: usize = 4_000;
const K: usize = 100;
const ATTRS: usize = 12;
const ROUNDS: usize = 30;

/// Root, every depth-1 query, and all depth-2 combinations over the first
/// three attribute pairs.
fn query_pool(schema: &Schema) -> Vec<ConjunctiveQuery> {
    let mut pool = vec![ConjunctiveQuery::select_all()];
    let attrs: Vec<AttrId> = schema.attr_ids().collect();
    for &a in &attrs {
        for v in 0..schema.domain_size(a) {
            pool.push(ConjunctiveQuery::from_predicates([Predicate::new(a, ValueId(v))]));
        }
    }
    for pair in attrs.windows(2).take(3) {
        for v0 in 0..schema.domain_size(pair[0]) {
            for v1 in 0..schema.domain_size(pair[1]) {
                pool.push(ConjunctiveQuery::from_predicates([
                    Predicate::new(pair[0], ValueId(v0)),
                    Predicate::new(pair[1], ValueId(v1)),
                ]));
            }
        }
    }
    pool
}

#[test]
fn patched_memo_matches_the_oracle_and_only_drops_what_it_must() {
    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xF110);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    let mut oracle = db.clone();
    oracle.set_invalidation_policy(InvalidationPolicy::Disabled);
    let pool = query_pool(&db.schema().clone());
    // Each query's previous oracle answer; `None` before its first ask.
    let mut previous: Vec<Option<QueryOutcome>> = vec![None; pool.len()];
    let mut fresh_key = 30_000_000u64;
    for round in 0..ROUNDS {
        let victims = oracle.sample_alive_keys(&mut rng, 8);
        let mut batch = UpdateBatch::empty();
        for key in victims.iter().take(6) {
            batch = batch.delete(*key);
        }
        for key in victims.iter().skip(6) {
            batch = batch.update_measures(*key, vec![round as f64]);
        }
        for _ in 0..6 {
            let t = gen.make(&mut rng);
            fresh_key += 1;
            batch = batch.insert(Tuple::new(
                TupleKey(fresh_key),
                t.values().to_vec(),
                t.measures().to_vec(),
            ));
        }
        let deleted: HashSet<TupleKey> = batch.deletes.iter().copied().collect();
        assert_eq!(db.apply(batch.clone()), oracle.apply(batch));
        for (q, prev) in pool.iter().zip(previous.iter_mut()) {
            let want = oracle.answer(q);
            let hits = db.stats().cache_hits;
            let got = db.answer(q);
            assert_eq!(got, want, "round {round}: {q} diverged from the oracle");
            for (g, w) in got.tuples().zip(want.tuples()) {
                for (gm, wm) in g.measures().iter().zip(w.measures()) {
                    assert_eq!(gm.to_bits(), wm.to_bits(), "round {round}: {q}");
                }
            }
            let was_cold = db.stats().cache_hits == hits;
            let must_be_cold = match prev {
                None => true,
                Some(p) => p.is_overflow() && p.keys().any(|k| deleted.contains(&k)),
            };
            assert_eq!(was_cold, must_be_cold, "round {round}: {q}");
            *prev = Some(want);
        }
    }
}
