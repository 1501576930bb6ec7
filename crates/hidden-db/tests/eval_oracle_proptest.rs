//! Evaluation-engine oracle: the bitmap engine, with early exits on and
//! off, must be **bit-identical** — outcome class, returned page (keys,
//! values, measure bits), and interface classification counters — to
//! the naive reference that re-checks every predicate on every alive
//! slot ([`HiddenDatabase::exact_answer`], which shares no code with the
//! engine), under random mutation streams, random 0–3-predicate
//! queries, and both ranking orders. For `NewestFirst` the expected page
//! is additionally recomputed from public tuple data inside the test
//! (top-`k` matching keys, descending).

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::value::{AttrId, TupleKey, ValueId};
use hidden_db::{EvalConfig, InvalidationPolicy};
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

fn fresh_db(k: usize, scoring: ScoringPolicy, config: EvalConfig) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, scoring);
    // Memo off: every answer exercises the evaluation engine itself.
    db.set_invalidation_policy(InvalidationPolicy::Disabled);
    db.set_eval_config(config);
    db
}

/// The engine variants under test.
fn variants() -> Vec<(&'static str, EvalConfig)> {
    vec![
        ("early-exit", EvalConfig { early_exit: true }),
        ("exhaustive", EvalConfig { early_exit: false }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_is_bit_identical_to_recheck_reference(
        steps in prop::collection::vec(step_strategy(), 1..60),
        k in 1..5usize,
        newest_first in any::<bool>(),
    ) {
        let scoring =
            if newest_first { ScoringPolicy::NewestFirst } else { ScoringPolicy::default() };
        let mut dbs: Vec<(&str, HiddenDatabase)> = variants()
            .into_iter()
            .map(|(name, config)| (name, fresh_db(k, scoring, config)))
            .collect();
        let mut next_key = 0u64;
        for step in &steps {
            match *step {
                Step::Insert(a, b, c, m) => {
                    let tuple = Tuple::new(
                        TupleKey(next_key),
                        vec![ValueId(a), ValueId(b), ValueId(c)],
                        vec![m as f64],
                    );
                    next_key += 1;
                    for (_, db) in dbs.iter_mut() {
                        db.insert(tuple.clone()).unwrap();
                    }
                }
                Step::Delete(pick) => {
                    let alive = dbs[0].1.alive_keys_sorted();
                    if !alive.is_empty() {
                        let victim = alive[pick % alive.len()];
                        for (_, db) in dbs.iter_mut() {
                            db.delete(victim).unwrap();
                        }
                    }
                }
                Step::Update(pick, m) => {
                    let alive = dbs[0].1.alive_keys_sorted();
                    if !alive.is_empty() {
                        let victim = alive[pick % alive.len()];
                        for (_, db) in dbs.iter_mut() {
                            db.update_measures(victim, vec![m as f64]).unwrap();
                        }
                    }
                }
                Step::Query(a, b, c) => {
                    let query = build_query(a, b, c);
                    let reference_db = &dbs[0].1;
                    let want = reference_db.exact_answer(&query);
                    let truth = reference_db.exact_count(Some(&query));

                    // Independent classification oracle.
                    match truth {
                        0 => prop_assert!(want.is_underflow(), "{query}: truth 0"),
                        n if n <= k as u64 => prop_assert!(want.is_valid(), "{query}: truth {n}"),
                        _ => prop_assert!(want.is_overflow(), "{query}: truth {truth}"),
                    }
                    // Independent page oracle for the transparent ranking.
                    if newest_first {
                        let mut matching: Vec<u64> = Vec::new();
                        reference_db.for_each_alive(|t| {
                            if t.matches(&query) {
                                matching.push(t.key().0);
                            }
                        });
                        matching.sort_unstable_by(|x, y| y.cmp(x));
                        matching.truncate(k);
                        let got: Vec<u64> = want.keys().map(|key| key.0).collect();
                        prop_assert_eq!(got, matching, "{}: page oracle", &query);
                    }

                    for (name, db) in dbs.iter_mut() {
                        let got = db.answer(&query);
                        prop_assert_eq!(&got, &want, "{}: diverged on {}", name, &query);
                        prop_assert_eq!(got.class(), want.class(), "{}: class", name);
                        for (gt, wt) in got.tuples().zip(want.tuples()) {
                            prop_assert_eq!(gt.key(), wt.key());
                            prop_assert_eq!(gt.values(), wt.values());
                            for (gm, wm) in gt.measures().iter().zip(wt.measures()) {
                                prop_assert_eq!(gm.to_bits(), wm.to_bits());
                            }
                        }
                    }
                }
            }
        }
        // Classification tallies agree across every variant, and every
        // database holds the same final state.
        let want_stats = dbs[0].1.stats();
        for (name, db) in dbs.iter().skip(1) {
            let got = db.stats();
            prop_assert_eq!(
                (got.answered, got.underflows, got.valids, got.overflows),
                (want_stats.answered, want_stats.underflows, want_stats.valids,
                 want_stats.overflows),
                "{}: classification counters diverged", name
            );
            prop_assert_eq!(
                db.alive_keys_sorted(), dbs[0].1.alive_keys_sorted(),
                "{}: final alive set diverged", name
            );
            prop_assert_eq!(db.exact_count(None), dbs[0].1.exact_count(None));
        }
    }
}
