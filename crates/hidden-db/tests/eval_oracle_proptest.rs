//! Evaluation-engine oracle: the bitmap engine must be
//! **bit-identical** — outcome class, returned page (keys, values,
//! measure bits), and interface classification counters — to the naive
//! reference that re-checks every predicate on every alive slot
//! ([`HiddenDatabase::exact_answer`], which shares no code with the
//! engine), under random mutation streams, random 0–3-predicate
//! queries, and three rankings: `NewestFirst`, `HashedRandom` and
//! `ByMeasureAsc` (measure updates move its scores). For `NewestFirst`
//! the expected page is additionally recomputed from public tuple data
//! inside the test (top-`k` matching keys, descending).
//!
//! Each query step also reads the answer by class and by count, the two
//! reads that count matches instead of ranking them all: a class read is
//! `None` exactly when the reference overflows and the reference's page
//! otherwise, and a count read is `None` exactly when the reference
//! overflows and the exact match count otherwise.

use hidden_db::database::HiddenDatabase;
use hidden_db::interface::QueryOutcome;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use proptest::prelude::*;

const DOMAINS: [u32; 3] = [2, 3, 4];

#[derive(Debug, Clone)]
enum Step {
    /// Insert a tuple with the given values and measure.
    Insert(u32, u32, u32, i32),
    /// Delete the `pick % alive`-th alive key (no-op when empty).
    Delete(usize),
    /// Overwrite the measures of the `pick % alive`-th alive key.
    Update(usize, i32),
    /// Query with optional predicates per attribute
    /// (`DOMAINS[i]` encodes "unconstrained").
    Query(u32, u32, u32),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..DOMAINS[0], 0..DOMAINS[1], 0..DOMAINS[2], -99..99i32)
            .prop_map(|(a, b, c, m)| Step::Insert(a, b, c, m)),
        1 => (0..64usize).prop_map(Step::Delete),
        1 => (0..64usize, -99..99i32).prop_map(|(p, m)| Step::Update(p, m)),
        4 => (0..DOMAINS[0] + 1, 0..DOMAINS[1] + 1, 0..DOMAINS[2] + 1)
            .prop_map(|(a, b, c)| Step::Query(a, b, c)),
    ]
}

fn build_query(a: u32, b: u32, c: u32) -> ConjunctiveQuery {
    let mut preds = Vec::new();
    for (i, (v, dom)) in [a, b, c].into_iter().zip(DOMAINS).enumerate() {
        if v < dom {
            preds.push(Predicate::new(AttrId(i as u16), ValueId(v)));
        }
    }
    ConjunctiveQuery::from_predicates(preds)
}

/// Checks an answer against the reference's: the same class and page,
/// row by row, measures bit for bit.
fn same_answer(
    got: &QueryOutcome,
    want: &QueryOutcome,
    query: &ConjunctiveQuery,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want, "diverged on {}", query);
    prop_assert_eq!(got.class(), want.class());
    for (gt, wt) in got.tuples().zip(want.tuples()) {
        prop_assert_eq!(gt.key(), wt.key());
        prop_assert_eq!(gt.values(), wt.values());
        for (gm, wm) in gt.measures().iter().zip(wt.measures()) {
            prop_assert_eq!(gm.to_bits(), wm.to_bits());
        }
    }
    Ok(())
}

/// The ranking of case `pick`.
fn scoring(pick: u8) -> ScoringPolicy {
    match pick {
        0 => ScoringPolicy::NewestFirst,
        1 => ScoringPolicy::default(),
        _ => ScoringPolicy::ByMeasureAsc(MeasureId(0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_is_bit_identical_to_recheck_reference(
        steps in prop::collection::vec(step_strategy(), 1..60),
        k in 1..5usize,
        pick in 0..3u8,
    ) {
        let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
        let db = &mut HiddenDatabase::new(schema, k, scoring(pick));
        // Memo off: every answer exercises the evaluation engine itself.
        db.set_memo_capacity(0);
        let mut next_key = 0u64;
        // The reference's answers per class, in `OutcomeClass` order.
        let mut tally = [0u64; 3];
        for step in &steps {
            match *step {
                Step::Insert(a, b, c, m) => {
                    let tuple = Tuple::new(
                        TupleKey(next_key),
                        vec![ValueId(a), ValueId(b), ValueId(c)],
                        vec![m as f64],
                    );
                    next_key += 1;
                    db.insert(tuple).unwrap();
                }
                Step::Delete(pick) => {
                    let alive = db.alive_keys_sorted();
                    if !alive.is_empty() {
                        db.delete(alive[pick % alive.len()]).unwrap();
                    }
                }
                Step::Update(pick, m) => {
                    let alive = db.alive_keys_sorted();
                    if !alive.is_empty() {
                        db.update_measures(alive[pick % alive.len()], vec![m as f64]).unwrap();
                    }
                }
                Step::Query(a, b, c) => {
                    let query = build_query(a, b, c);
                    let want = db.exact_answer(&query);
                    let truth = db.exact_count(Some(&query));

                    // Independent classification oracle.
                    match truth {
                        0 => prop_assert!(want.is_underflow(), "{query}: truth 0"),
                        n if n <= k as u64 => prop_assert!(want.is_valid(), "{query}: truth {n}"),
                        _ => prop_assert!(want.is_overflow(), "{query}: truth {truth}"),
                    }
                    tally[want.class() as usize] += 1;
                    // Independent page oracle for the transparent ranking.
                    if pick == 0 {
                        let mut matching: Vec<u64> = Vec::new();
                        db.for_each_alive(|t| {
                            if t.matches(&query) {
                                matching.push(t.key().0);
                            }
                        });
                        matching.sort_unstable_by(|x, y| y.cmp(x));
                        matching.truncate(k);
                        let got: Vec<u64> = want.keys().map(|key| key.0).collect();
                        prop_assert_eq!(got, matching, "{}: page oracle", &query);
                    }

                    same_answer(&db.answer(&query), &want, &query)?;
                    match db.answer_unless_overflow(&query) {
                        Some(got) => same_answer(&got, &want, &query)?,
                        None => prop_assert!(want.is_overflow(), "{query}: a class read overflowed"),
                    }
                    let count = (!want.is_overflow()).then_some(truth as usize);
                    prop_assert_eq!(db.answer_count(&query), count, "{}: count read", &query);
                }
            }
        }
        // The interface's classification tallies agree with the
        // reference's answers, each read three ways: by page, by class
        // and by count. Only the class and count reads of an overflow
        // skip its page.
        let got = db.stats();
        prop_assert_eq!(
            (got.answered, got.underflows, got.valids, got.overflows),
            (3 * tally.iter().sum::<u64>(), 3 * tally[0], 3 * tally[1], 3 * tally[2]),
            "classification counters diverged"
        );
        prop_assert_eq!(
            (got.count_reads, got.class_only_overflows),
            (tally.iter().sum::<u64>(), 2 * tally[2]),
            "read counters diverged"
        );
    }
}
