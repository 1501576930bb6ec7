//! Memo-consistency oracle: under arbitrary interleavings of update
//! batches (including batches that fail mid-way) and queries, a database
//! whose memo is patched in place must produce answers **bit-identical**
//! to a memo-disabled (always-uncached) database — and to the
//! wholesale-clear baseline — at every step. The memo-disabled answers
//! are in turn checked against the naive scan
//! ([`HiddenDatabase::exact_answer`], which shares no code with the
//! engine or the memo), and their class against the exact match count.
//! The ranking is drawn from `NewestFirst`, `HashedRandom`,
//! `ByMeasureDesc` and `ByMeasureAsc`, so measure updates move scores
//! too, plus a `ByMeasureDesc` case whose measures fold into −4..4:
//! heavy score ties, so slot tie-breaks decide pages. A tight-capacity
//! variant rides along so the CLOCK admission/eviction path is exercised
//! under churn too.

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
/// `ties` folds every measure into −4..4.
fn build_batch(
    reference: &HiddenDatabase,
    next_key: &mut u64,
    delete_picks: &[usize],
    update_picks: &[(usize, i32)],
    inserts: &[(u32, u32, i32)],
    poison: bool,
    ties: bool,
) -> UpdateBatch {
    let measure = |m: i32| vec![f64::from(if ties { m.rem_euclid(8) - 4 } else { m })];
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
            batch = batch.update_measures(alive[pick % alive.len()], measure(m));
        }
    }
    for &(a0, a1, m) in inserts {
        let key = *next_key;
        *next_key += 1;
        batch = batch.insert(Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], measure(m)));
    }
    batch
}

/// The ranking of case `pick`; pick 4 is `ByMeasureDesc` with tied
/// measures.
fn scoring(pick: u8) -> ScoringPolicy {
    match pick {
        0 => ScoringPolicy::NewestFirst,
        1 => ScoringPolicy::default(),
        2 | 4 => ScoringPolicy::ByMeasureDesc(MeasureId(0)),
        _ => ScoringPolicy::ByMeasureAsc(MeasureId(0)),
    }
}

fn fresh_db(k: usize, scoring: ScoringPolicy, policy: InvalidationPolicy) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, scoring);
    db.set_invalidation_policy(policy);
    db
}

proptest! {
    // 256 cases: at 96 the oracle missed a patch that dropped the slot
    // tie-break between tied scores; it catches it from 192 on.
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The oracle proper: four databases — memo-disabled (trusted),
    // incremental, wholesale, and incremental with a tiny capacity —
    // must agree bit-for-bit on every answer of every interleaving.
    #[test]
    fn incremental_memo_is_answer_invariant(
        steps in prop::collection::vec(step_strategy(), 1..50),
        k in 1..5usize,
        pick in 0..5u8,
    ) {
        let (scoring, ties) = (scoring(pick), pick == 4);
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
                        ties,
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
                    prop_assert_eq!(&want, &oracle_db.exact_answer(&query), "naive scan");
                    let truth = oracle_db.exact_count(Some(&query));
                    match truth {
                        0 => prop_assert!(want.is_underflow(), "{}: truth 0", &query),
                        n if n <= k as u64 => {
                            prop_assert!(want.is_valid(), "{}: truth {}", &query, n)
                        }
                        _ => prop_assert!(want.is_overflow(), "{}: truth {}", &query, truth),
                    }
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
        // End-state parity: classification tallies agree with the
        // memo-disabled database (whose every answer matched the naive
        // scan), and alive sets with it too.
        let want = oracle_db.stats();
        for (name, db) in tracked.iter() {
            let got = db.stats();
            prop_assert_eq!(
                (got.answered, got.underflows, got.valids, got.overflows),
                (want.answered, want.underflows, want.valids, want.overflows),
                "{}: classification counters diverged", name
            );
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
