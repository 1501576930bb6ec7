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
//!
//! The class-only twin asks every query by class alone, as a drill-down
//! asks the nodes above its leaves. An overflow then leaves a count-only
//! entry, which a lost page member cannot send cold: only a class read
//! that finds its count at `k` or less, which needs the page. A query
//! whose first evaluation found `k` or fewer matches holds a full entry,
//! with the full entry's drop rule.
//!
//! The count twin asks every query by count, as a `COUNT(*)` drill-down
//! asks every node. Each answer leaves a count-only entry of its class,
//! which no row change drops, so a query is evaluated from cold only on
//! its first ask.

use std::collections::HashSet;

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

/// One round's batch: 6 deletes and 2 measure updates of alive tuples,
/// and 6 fresh inserts.
fn churn_batch(
    oracle: &HiddenDatabase,
    gen: &mut AutosGenerator,
    rng: &mut StdRng,
    round: usize,
    fresh_key: &mut u64,
) -> UpdateBatch {
    let victims = oracle.sample_alive_keys(rng, 8);
    let mut batch = UpdateBatch::empty();
    for key in victims.iter().take(6) {
        batch = batch.delete(*key);
    }
    for key in victims.iter().skip(6) {
        batch = batch.update_measures(*key, vec![round as f64]);
    }
    for _ in 0..6 {
        let t = gen.make(rng);
        *fresh_key += 1;
        batch = batch.insert(Tuple::new(
            TupleKey(*fresh_key),
            t.values().to_vec(),
            t.measures().to_vec(),
        ));
    }
    batch
}

/// Asserts `got` equals `want`, measures bit for bit.
fn assert_same_answer(got: &QueryOutcome, want: &QueryOutcome, what: &str) {
    assert_eq!(got, want, "{what} diverged from the oracle");
    for (g, w) in got.tuples().zip(want.tuples()) {
        for (gm, wm) in g.measures().iter().zip(w.measures()) {
            assert_eq!(gm.to_bits(), wm.to_bits(), "{what}");
        }
    }
}

#[test]
fn patched_memo_matches_the_oracle_and_only_drops_what_it_must() {
    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xF110);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    let mut oracle = db.clone();
    oracle.set_memo_capacity(0);
    let pool = query_pool(&db.schema().clone());
    // Each query's previous oracle answer; `None` before its first ask.
    let mut previous: Vec<Option<QueryOutcome>> = vec![None; pool.len()];
    let mut fresh_key = 30_000_000u64;
    for round in 0..ROUNDS {
        let batch = churn_batch(&oracle, &mut gen, &mut rng, round, &mut fresh_key);
        let deleted: HashSet<TupleKey> = batch.deletes.iter().copied().collect();
        assert_eq!(db.apply(batch.clone()), oracle.apply(batch));
        for (q, prev) in pool.iter().zip(previous.iter_mut()) {
            let want = oracle.answer(q);
            let hits = db.stats().cache_hits;
            let got = db.answer(q);
            assert_same_answer(&got, &want, &format!("round {round}: {q}"));
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

/// How a query asked by class alone is cached.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Never asked yet.
    Unasked,
    /// Count-only: its first evaluation found more than `k` matches.
    Counted,
    /// Full: its first evaluation found `k` or fewer.
    Full,
}

/// A count-only entry goes cold for a class read when its count at read
/// time is `k` or less, not when it dipped to `k` during the batch.
#[test]
fn class_reads_go_cold_only_when_the_count_falls_to_k() {
    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xC1A55);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    let mut oracle = db.clone();
    oracle.set_memo_capacity(0);
    let pool = query_pool(&db.schema().clone());
    let mut entries = vec![Entry::Unasked; pool.len()];
    // Each query's previous oracle answer.
    let mut previous: Vec<Option<QueryOutcome>> = vec![None; pool.len()];
    // Count-only entries that kept serving after their query's top `k`
    // lost a member: each was a cold evaluation before count-only
    // entries.
    let mut kept = 0;
    // Count-only entries that kept serving although their count dipped
    // to `k` or less during the batch.
    let mut dipped = 0;
    let mut fresh_key = 30_000_000u64;
    for round in 0..ROUNDS {
        let batch = churn_batch(&oracle, &mut gen, &mut rng, round, &mut fresh_key);
        let deleted: HashSet<TupleKey> = batch.deletes.iter().copied().collect();
        // Deletes apply first, so this is each query's lowest count
        // during the batch.
        let after_deletes: Vec<u64> = pool
            .iter()
            .map(|q| {
                let lost = deleted.iter().filter(|&&key| oracle.get(key).unwrap().matches(q));
                oracle.exact_count(Some(q)) - lost.count() as u64
            })
            .collect();
        assert_eq!(db.apply(batch.clone()), oracle.apply(batch));
        for (i, q) in pool.iter().enumerate() {
            let want = oracle.answer(q);
            let hits = db.stats().cache_hits;
            let what = format!("round {round}: {q}");
            match db.answer_unless_overflow(q) {
                Some(got) => assert_same_answer(&got, &want, &what),
                None => assert!(want.is_overflow(), "{what}: a class read overflowed"),
            }
            let was_cold = db.stats().cache_hits == hits;
            let lost_a_member = previous[i]
                .as_ref()
                .is_some_and(|p| p.is_overflow() && p.keys().any(|k| deleted.contains(&k)));
            let must_be_cold = match entries[i] {
                Entry::Unasked => true,
                Entry::Counted => !want.is_overflow(),
                Entry::Full => lost_a_member,
            };
            assert_eq!(was_cold, must_be_cold, "{what}");
            let warm_count_only = entries[i] == Entry::Counted && !was_cold;
            kept += usize::from(warm_count_only && lost_a_member);
            dipped += usize::from(warm_count_only && after_deletes[i] <= K as u64);
            if was_cold {
                entries[i] = if want.is_overflow() { Entry::Counted } else { Entry::Full };
            }
            previous[i] = Some(want);
        }
    }
    assert!(kept > 0, "no count-only entry outlived a lost page member");
    assert!(dipped > 0, "no count-only entry outlived a dip to k");
    assert!(db.stats().class_only_overflows > 0);
}

#[test]
fn count_reads_go_cold_only_on_a_first_ask() {
    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xC0047);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    let mut oracle = db.clone();
    oracle.set_memo_capacity(0);
    let pool = query_pool(&db.schema().clone());
    let mut fresh_key = 30_000_000u64;
    for round in 0..ROUNDS {
        let batch = churn_batch(&oracle, &mut gen, &mut rng, round, &mut fresh_key);
        assert_eq!(db.apply(batch.clone()), oracle.apply(batch));
        for q in &pool {
            let want = oracle.answer(q);
            let hits = db.stats().cache_hits;
            let what = format!("round {round}: {q}");
            let got = db.answer_count(q);
            assert_eq!(got, (!want.is_overflow()).then(|| want.returned_count()), "{what}");
            let was_cold = db.stats().cache_hits == hits;
            assert_eq!(was_cold, round == 0, "{what}");
        }
    }
    assert_eq!(db.memo_stats().invalidated, 0, "a count-only entry is never dropped");
    let stats = db.stats();
    assert_eq!(stats.count_reads, (pool.len() * ROUNDS) as u64);
    assert!(stats.class_only_overflows > 0 && stats.valids > 0 && stats.underflows > 0);
}
