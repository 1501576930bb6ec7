//! Memo-consistency oracle: under arbitrary interleavings of update
//! batches (including batches that fail mid-way) and queries, a database
//! whose memo is patched in place must produce answers **bit-identical**
//! to a memo-disabled (always-uncached) database — and to the
//! wholesale-clear baseline — at every step. The ranking is drawn from
//! `NewestFirst`, `HashedRandom` and `ByMeasureDesc`, so measure updates
//! move scores too. A tight-capacity variant rides along so the CLOCK
//! admission/eviction path is exercised under churn too.

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use hidden_db::InvalidationPolicy;
use proptest::prelude::*;

const DOMAINS: [u32; 2] = [3, 4];

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Apply a batch assembled from the current alive-key set. Indices are
    /// taken modulo the alive count; duplicate picks make the batch fail
    /// mid-way organically (second delete of the same key → `UnknownKey`),
    /// and `poison` injects a guaranteed-unknown delete to force the
    /// partial-failure path deterministically.
    Batch {
        delete_picks: Vec<usize>,
        update_picks: Vec<(usize, i32)>,
        inserts: Vec<(u32, u32, i32)>,
        poison: bool,
    },
    /// Issue the query with the given optional predicates on A0/A1.
    Query { a0: Option<u32>, a1: Option<u32> },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let batch = (
        prop::collection::vec(0..64usize, 0..3),
        prop::collection::vec((0..64usize, -50..50i32), 0..3),
        // Up to six inserts per batch: enough rows that overflow pages
        // have off-page matches for a falling member to drop below.
        prop::collection::vec((0..DOMAINS[0], 0..DOMAINS[1], -50..50i32), 0..7),
        // ~20 % of batches are poisoned with an unknown-key delete.
        (0..5u32).prop_map(|v| v == 0),
    )
        .prop_map(|(delete_picks, update_picks, inserts, poison)| Step::Batch {
            delete_picks,
            update_picks,
            inserts,
            poison,
        });
    // `DOMAINS[i]` encodes "no predicate on that attribute".
    let query = (0..DOMAINS[0] + 1, 0..DOMAINS[1] + 1).prop_map(|(a0, a1)| Step::Query {
        a0: (a0 < DOMAINS[0]).then_some(a0),
        a1: (a1 < DOMAINS[1]).then_some(a1),
    });
    prop_oneof![2 => batch, 3 => query]
}

fn build_query(a0: Option<u32>, a1: Option<u32>) -> ConjunctiveQuery {
    let mut preds = Vec::new();
    if let Some(v) = a0 {
        preds.push(Predicate::new(AttrId(0), ValueId(v)));
    }
    if let Some(v) = a1 {
        preds.push(Predicate::new(AttrId(1), ValueId(v)));
    }
    ConjunctiveQuery::from_predicates(preds)
}

/// Materialises a [`Step::Batch`] against the current alive-key set.
fn build_batch(
    reference: &HiddenDatabase,
    next_key: &mut u64,
    delete_picks: &[usize],
    update_picks: &[(usize, i32)],
    inserts: &[(u32, u32, i32)],
    poison: bool,
) -> UpdateBatch {
    let alive = reference.alive_keys_sorted();
    let mut batch = UpdateBatch::empty();
    for (i, &pick) in delete_picks.iter().enumerate() {
        if poison && i == delete_picks.len() / 2 {
            batch = batch.delete(TupleKey(u64::MAX)); // never a real key
        }
        if !alive.is_empty() {
            batch = batch.delete(alive[pick % alive.len()]);
        }
    }
    if poison && delete_picks.is_empty() {
        batch = batch.delete(TupleKey(u64::MAX));
    }
    for &(pick, m) in update_picks {
        if !alive.is_empty() {
            batch = batch.update_measures(alive[pick % alive.len()], vec![m as f64]);
        }
    }
    for &(a0, a1, m) in inserts {
        let key = *next_key;
        *next_key += 1;
        batch =
            batch.insert(Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![m as f64]));
    }
    batch
}

/// The ranking of case `pick`.
fn scoring(pick: u8) -> ScoringPolicy {
    match pick {
        0 => ScoringPolicy::NewestFirst,
        1 => ScoringPolicy::default(),
        _ => ScoringPolicy::ByMeasureDesc(MeasureId(0)),
    }
}

fn fresh_db(k: usize, scoring: ScoringPolicy, policy: InvalidationPolicy) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, scoring);
    db.set_invalidation_policy(policy);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The oracle proper: four databases — memo-disabled (trusted),
    // incremental, wholesale, and incremental with a tiny capacity —
    // must agree bit-for-bit on every answer of every interleaving.
    #[test]
    fn incremental_memo_is_answer_invariant(
        steps in prop::collection::vec(step_strategy(), 1..50),
        k in 1..5usize,
        pick in 0..3u8,
    ) {
        let scoring = scoring(pick);
        let oracle_db = &mut fresh_db(k, scoring, InvalidationPolicy::Disabled);
        let mut tracked: Vec<(&str, HiddenDatabase)> = vec![
            ("incremental", fresh_db(k, scoring, InvalidationPolicy::Incremental)),
            ("wholesale", fresh_db(k, scoring, InvalidationPolicy::Wholesale)),
            ("incremental-tight", {
                let mut db = fresh_db(k, scoring, InvalidationPolicy::Incremental);
                db.set_memo_capacity(4);
                db
            }),
        ];
        let mut next_key = 0u64;
        for step in &steps {
            match step {
                Step::Batch { delete_picks, update_picks, inserts, poison } => {
                    let batch = build_batch(
                        oracle_db, &mut next_key, delete_picks, update_picks, inserts, *poison,
                    );
                    let want = oracle_db.apply(batch.clone());
                    for (name, db) in tracked.iter_mut() {
                        let got = db.apply(batch.clone());
                        prop_assert_eq!(
                            got.is_ok(), want.is_ok(),
                            "{}: apply outcome diverged", name
                        );
                        if let (Ok(g), Ok(w)) = (&got, &want) {
                            prop_assert_eq!(g, w, "{}: summary diverged", name);
                        }
                        prop_assert_eq!(db.len(), oracle_db.len(), "{}: |D| diverged", name);
                        prop_assert_eq!(
                            db.version(), oracle_db.version(),
                            "{}: version policy diverged", name
                        );
                    }
                }
                Step::Query { a0, a1 } => {
                    let query = build_query(*a0, *a1);
                    let want = oracle_db.answer(&query);
                    for (name, db) in tracked.iter_mut() {
                        let got = db.answer(&query);
                        prop_assert_eq!(
                            &got, &want,
                            "{}: answer diverged on {} (memo_len {})",
                            name, &query, db.memo_len()
                        );
                        // Bit-identical measures, not just PartialEq.
                        for (gt, wt) in got.tuples().zip(want.tuples()) {
                            for (gm, wm) in gt.measures().iter().zip(wt.measures()) {
                                prop_assert_eq!(gm.to_bits(), wm.to_bits());
                            }
                        }
                    }
                }
            }
        }
        // End-state parity: alive keys and ground-truth aggregates agree.
        for (name, db) in tracked.iter() {
            prop_assert_eq!(
                db.alive_keys_sorted(), oracle_db.alive_keys_sorted(),
                "{}: final alive set diverged", name
            );
        }
        // The tight variant genuinely exercised its bound.
        let (_, tight) = &tracked[2];
        prop_assert!(tight.memo_len() <= 4, "tight memo exceeded its cap");
    }
}
