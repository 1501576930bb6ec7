//! Churn oracle for the maintenance subsystem: under arbitrary
//! interleavings of `apply` (including mid-way-failing batches),
//! `maintain` (zero, small, and unlimited budgets), and `evaluate`,
//! a maintained database — with early exits on and off and the default
//! incremental (patching) memo policy — must produce answers
//! **bit-identical** to a never-compact, wholesale-invalidation
//! reference database, and to the trusted oracle: the naive scan
//! ([`HiddenDatabase::exact_answer`]) of a never-compact database, which
//! re-checks every predicate on every alive slot and shares no code with
//! the engine. Both ranking families run: `NewestFirst` (distinct
//! scores) and `ByMeasureDesc` over a tiny measure domain (heavy score
//! ties, so slot tie-breaks decide pages — the regime where an unsound
//! compaction that moved slots or loosened a bound would diverge first).

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use hidden_db::{EvalConfig, InvalidationPolicy, MaintenanceBudget};
use proptest::prelude::*;

const DOMAINS: [u32; 2] = [3, 4];

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Apply a batch assembled from the current alive-key set (indices
    /// modulo alive count; `poison` injects an unknown-key delete so the
    /// partial-failure path runs under maintenance too).
    Batch {
        delete_picks: Vec<usize>,
        update_picks: Vec<(usize, i32)>,
        inserts: Vec<(u32, u32, i32)>,
        poison: bool,
    },
    /// Run maintenance on the maintained databases only: 0 = no budget
    /// (pure no-op with an `exhausted` report), 1 = one segment's worth,
    /// 2 = unlimited (`compact`).
    Maintain(u8),
    /// Issue the query with the given optional predicates on A0/A1.
    Query { a0: Option<u32>, a1: Option<u32> },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let batch = (
        prop::collection::vec(0..64usize, 0..3),
        prop::collection::vec((0..64usize, -4..4i32), 0..3),
        prop::collection::vec((0..DOMAINS[0], 0..DOMAINS[1], -4..4i32), 0..4),
        (0..6u32).prop_map(|v| v == 0),
    )
        .prop_map(|(delete_picks, update_picks, inserts, poison)| Step::Batch {
            delete_picks,
            update_picks,
            inserts,
            poison,
        });
    let maintain = (0..3u8).prop_map(Step::Maintain);
    let query = (0..DOMAINS[0] + 1, 0..DOMAINS[1] + 1).prop_map(|(a0, a1)| Step::Query {
        a0: (a0 < DOMAINS[0]).then_some(a0),
        a1: (a1 < DOMAINS[1]).then_some(a1),
    });
    prop_oneof![2 => batch, 2 => maintain, 3 => query]
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
            batch = batch.delete(TupleKey(u64::MAX));
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

fn fresh_db(
    k: usize,
    scoring: ScoringPolicy,
    policy: InvalidationPolicy,
    config: EvalConfig,
) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, scoring);
    db.set_invalidation_policy(policy);
    db.set_eval_config(config);
    db
}

/// The maintained engine variants under test.
fn variants() -> Vec<(&'static str, EvalConfig)> {
    vec![
        ("early-exit", EvalConfig { early_exit: true }),
        ("exhaustive", EvalConfig { early_exit: false }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn maintained_databases_are_bit_identical_to_the_never_compact_reference(
        steps in prop::collection::vec(step_strategy(), 1..60),
        k in 1..5usize,
        newest_first in any::<bool>(),
    ) {
        let scoring = if newest_first {
            ScoringPolicy::NewestFirst
        } else {
            // Tiny measure domain: heavy score ties, slot tie-breaks
            // decide pages.
            ScoringPolicy::ByMeasureDesc(MeasureId(0))
        };
        // Never-compact references: the oracle, answered by the naive
        // scan, and the wholesale-invalidation baseline.
        let oracle = &mut fresh_db(
            k,
            scoring,
            InvalidationPolicy::Disabled,
            EvalConfig { early_exit: false },
        );
        let wholesale = &mut fresh_db(
            k,
            scoring,
            InvalidationPolicy::Wholesale,
            EvalConfig { early_exit: false },
        );
        // Maintained variants: every engine config, incremental memo (the
        // default).
        let mut maintained: Vec<(&str, HiddenDatabase)> = variants()
            .into_iter()
            .map(|(name, config)| {
                (name, fresh_db(k, scoring, InvalidationPolicy::Incremental, config))
            })
            .collect();
        let mut next_key = 0u64;
        for step in &steps {
            match step {
                Step::Batch { delete_picks, update_picks, inserts, poison } => {
                    let batch = build_batch(
                        oracle, &mut next_key, delete_picks, update_picks, inserts, *poison,
                    );
                    let want = oracle.apply(batch.clone());
                    let got = wholesale.apply(batch.clone());
                    prop_assert_eq!(got.is_ok(), want.is_ok(), "wholesale: apply diverged");
                    for (name, db) in maintained.iter_mut() {
                        let got = db.apply(batch.clone());
                        prop_assert_eq!(got.is_ok(), want.is_ok(), "{}: apply diverged", name);
                        if let (Ok(g), Ok(w)) = (&got, &want) {
                            prop_assert_eq!(g, w, "{}: summary diverged", name);
                        }
                        prop_assert_eq!(db.len(), oracle.len(), "{}: |D| diverged", name);
                    }
                }
                Step::Maintain(budget) => {
                    // Reference databases never compact.
                    for (name, db) in maintained.iter_mut() {
                        let report = match budget {
                            0 => db.maintain(MaintenanceBudget::slots(0)),
                            1 => db.maintain(MaintenanceBudget::slots(
                                hidden_db::SEGMENT_SLOTS,
                            )),
                            _ => db.compact(),
                        };
                        if *budget == 0 {
                            prop_assert_eq!(
                                (report.segments_recomputed, report.slots_scanned),
                                (0, 0),
                                "{}: zero budget must do no work", name
                            );
                        }
                        if *budget == 2 {
                            prop_assert_eq!(
                                db.stale_segment_count(), 0,
                                "{}: compact leaves no stale bounds", name
                            );
                        }
                    }
                }
                Step::Query { a0, a1 } => {
                    let query = build_query(*a0, *a1);
                    let want = oracle.exact_answer(&query);
                    let truth = oracle.exact_count(Some(&query));
                    // Independent classification oracle.
                    match truth {
                        0 => prop_assert!(want.is_underflow(), "{}: truth 0", &query),
                        n if n <= k as u64 => {
                            prop_assert!(want.is_valid(), "{}: truth {}", &query, n)
                        }
                        _ => prop_assert!(want.is_overflow(), "{}: truth {}", &query, truth),
                    }
                    let got = wholesale.answer(&query);
                    prop_assert_eq!(&got, &want, "wholesale diverged on {}", &query);
                    for (name, db) in maintained.iter_mut() {
                        let got = db.answer(&query);
                        prop_assert_eq!(
                            &got, &want,
                            "{}: diverged on {} (memo_len {})", name, &query, db.memo_len()
                        );
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
        // End-state parity: classification tallies agree with the
        // never-compact wholesale reference (whose every answer matched
        // the naive scan), and alive sets with the oracle.
        let want = wholesale.stats();
        for (name, db) in maintained.iter() {
            let got = db.stats();
            prop_assert_eq!(
                (got.answered, got.underflows, got.valids, got.overflows),
                (want.answered, want.underflows, want.valids, want.overflows),
                "{}: classification counters diverged", name
            );
            prop_assert_eq!(
                db.alive_keys_sorted(), oracle.alive_keys_sorted(),
                "{}: final alive set diverged", name
            );
            prop_assert_eq!(db.exact_count(None), oracle.exact_count(None));
        }
    }
}
