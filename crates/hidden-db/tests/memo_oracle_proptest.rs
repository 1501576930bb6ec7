//! Memo-consistency oracle: under arbitrary interleavings of update
//! batches (including batches that fail mid-way) and queries, a database
//! whose memo is patched in place must produce answers **bit-identical**
//! to a memo-disabled (capacity 0, always-uncached) database at every
//! step. The memo-disabled answers are in turn checked against the naive
//! scan ([`HiddenDatabase::exact_answer`], which shares no code with the
//! engine or the memo), and their class against the exact match count.
//! The ranking is drawn from `NewestFirst`, `HashedRandom`,
//! `ByMeasureDesc` and `ByMeasureAsc`, so measure updates move scores
//! too, plus a `ByMeasureDesc` case whose measures fold into −4..4:
//! heavy score ties, so slot tie-breaks decide pages. A tight-capacity
//! variant rides along so the CLOCK admission/eviction path is exercised
//! under churn too. Queries range over three attributes, each free or
//! set, so the memo caches all eight query shapes, among them the root
//! and shapes that skip an attribute, and the patch walk's one probe per
//! shape meets every shape.
//!
//! Each ask is drawn as a page read (`answer`), a class read
//! (`answer_unless_overflow`) or a count read (`answer_count`), so
//! count-only entries of every class are admitted, patched across `k`,
//! hit by count reads, and by class reads while they overflow, and
//! replaced by page reads and by class reads that need the page, and
//! count reads hit full entries whose page copy is absent, current or
//! stale. A class answer
//! must be `None` exactly when the naive scan overflows and equal it
//! otherwise; a count must be `None` exactly when the naive scan
//! overflows and equal its match count otherwise. A closing page read of
//! every query checks what the class and count reads left behind.

use hidden_db::database::HiddenDatabase;
use hidden_db::interface::QueryOutcome;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use hidden_db::DEFAULT_MEMO_CAPACITY;
use proptest::prelude::*;

const DOMAINS: [u32; 3] = [3, 4, 2];

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
        inserts: Vec<(u32, u32, u32, i32)>,
        poison: bool,
    },
    /// Issue the query with the given optional predicates on A0/A1/A2,
    /// read as `read` asks.
    Query { a0: Option<u32>, a1: Option<u32>, a2: Option<u32>, read: Read },
}

/// How a [`Step::Query`] reads its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    Page,
    Class,
    Count,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let batch = (
        prop::collection::vec(0..64usize, 0..3),
        prop::collection::vec((0..64usize, -50..50i32), 0..3),
        // Up to six inserts per batch: enough rows that overflow pages
        // have off-page matches for a falling member to drop below.
        prop::collection::vec((0..DOMAINS[0], 0..DOMAINS[1], 0..DOMAINS[2], -50..50i32), 0..7),
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
    let query = (0..DOMAINS[0] + 1, 0..DOMAINS[1] + 1, 0..DOMAINS[2] + 1, 0..3u8).prop_map(
        |(a0, a1, a2, read)| Step::Query {
            a0: (a0 < DOMAINS[0]).then_some(a0),
            a1: (a1 < DOMAINS[1]).then_some(a1),
            a2: (a2 < DOMAINS[2]).then_some(a2),
            read: [Read::Page, Read::Class, Read::Count][usize::from(read)],
        },
    );
    prop_oneof![2 => batch, 3 => query]
}

fn build_query(a0: Option<u32>, a1: Option<u32>, a2: Option<u32>) -> ConjunctiveQuery {
    let values = [a0, a1, a2].into_iter().enumerate();
    ConjunctiveQuery::from_predicates(
        values.filter_map(|(a, v)| v.map(|v| Predicate::new(AttrId(a as u16), ValueId(v)))),
    )
}

/// Materialises a [`Step::Batch`] against the current alive-key set.
/// `ties` folds every measure into −4..4.
fn build_batch(
    reference: &HiddenDatabase,
    next_key: &mut u64,
    delete_picks: &[usize],
    update_picks: &[(usize, i32)],
    inserts: &[(u32, u32, u32, i32)],
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
    for &(a0, a1, a2, m) in inserts {
        let key = *next_key;
        *next_key += 1;
        let values = vec![ValueId(a0), ValueId(a1), ValueId(a2)];
        batch = batch.insert(Tuple::new(TupleKey(key), values, measure(m)));
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

/// Asserts `got` equals `want`, measures bit for bit, not just by
/// `PartialEq`.
fn assert_same_answer(
    got: &QueryOutcome,
    want: &QueryOutcome,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want, "{}", what);
    for (gt, wt) in got.tuples().zip(want.tuples()) {
        for (gm, wm) in gt.measures().iter().zip(wt.measures()) {
            prop_assert_eq!(gm.to_bits(), wm.to_bits(), "{}", what);
        }
    }
    Ok(())
}

fn fresh_db(k: usize, scoring: ScoringPolicy, memo_capacity: usize) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, scoring);
    db.set_memo_capacity(memo_capacity);
    db
}

proptest! {
    // 256 cases: at 96 the oracle missed a patch that dropped the slot
    // tie-break between tied scores; it catches it from 192 on.
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The oracle proper: three databases — memo-disabled (trusted),
    // incremental, and incremental with a tiny capacity — must agree
    // bit-for-bit on every answer of every interleaving.
    #[test]
    fn incremental_memo_is_answer_invariant(
        steps in prop::collection::vec(step_strategy(), 1..50),
        k in 1..5usize,
        pick in 0..5u8,
    ) {
        let (scoring, ties) = (scoring(pick), pick == 4);
        let oracle_db = &mut fresh_db(k, scoring, 0);
        let mut tracked: Vec<(&str, HiddenDatabase)> = vec![
            ("incremental", fresh_db(k, scoring, DEFAULT_MEMO_CAPACITY)),
            ("incremental-tight", fresh_db(k, scoring, 4)),
        ];
        let mut next_key = 0u64;
        // Class and count reads answered without a page, and count reads.
        let (mut class_overflows, mut count_reads) = (0u64, 0u64);
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
                Step::Query { a0, a1, a2, read } => {
                    let query = build_query(*a0, *a1, *a2);
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
                    class_overflows += u64::from(*read != Read::Page && want.is_overflow());
                    count_reads += u64::from(*read == Read::Count);
                    for (name, db) in tracked.iter_mut() {
                        let what = format!(
                            "{name}: {read:?} read of {query} diverged (memo_len {})",
                            db.memo_len()
                        );
                        match read {
                            Read::Page => assert_same_answer(&db.answer(&query), &want, &what)?,
                            Read::Class => match db.answer_unless_overflow(&query) {
                                Some(got) => assert_same_answer(&got, &want, &what)?,
                                None => prop_assert!(want.is_overflow(), "{}", what),
                            },
                            Read::Count => {
                                let truth = usize::try_from(truth).expect("small");
                                let got = db.answer_count(&query);
                                prop_assert_eq!(got, (truth <= k).then_some(truth), "{}", what);
                            }
                        }
                    }
                }
            }
        }
        // A closing page read of every query: entries the class reads
        // admitted or patched must hand over to page reads exactly.
        let free_or_set = |a: usize| (0..DOMAINS[a]).map(Some).chain([None]);
        for a0 in free_or_set(0) {
            for a1 in free_or_set(1) {
                for a2 in free_or_set(2) {
                    let query = build_query(a0, a1, a2);
                    let want = oracle_db.answer(&query);
                    for (name, db) in tracked.iter_mut() {
                        let what = format!("{name}: closing page read of {query} diverged");
                        assert_same_answer(&db.answer(&query), &want, &what)?;
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
                (got.class_only_overflows, got.count_reads), (class_overflows, count_reads),
                "{}: overflows answered without a page, and count reads", name
            );
            prop_assert_eq!(
                db.alive_keys_sorted(), oracle_db.alive_keys_sorted(),
                "{}: final alive set diverged", name
            );
        }
        // The tight variant genuinely exercised its bound.
        let (_, tight) = &tracked[1];
        prop_assert!(tight.memo_len() <= 4, "tight memo exceeded its cap");
    }
}
