//! The evaluation engine against the naive scan on two fixed query
//! pools: 3–4-predicate queries over an Autos population, and
//! half-density conjunctions ranked by a measure. Every cold answer
//! (memo off) must equal [`HiddenDatabase::exact_answer`], which
//! re-checks every predicate on every alive slot and shares no code
//! with the engine.

use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use hidden_db::{HiddenDatabase, SEGMENT_SLOTS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{load_database, AutosGenerator};

/// Answers every query of `pool` cold and checks each answer against
/// the naive scan. Returns how many answers overflowed, so callers can
/// check the pool is not trivial.
fn assert_pool_matches_naive_scan(db: &mut HiddenDatabase, pool: &[ConjunctiveQuery]) -> usize {
    db.set_memo_capacity(0);
    let mut overflows = 0;
    for q in pool {
        let want = db.exact_answer(q);
        assert_eq!(db.answer(q), want, "{q}");
        overflows += usize::from(want.is_overflow());
    }
    overflows
}

/// Every 3-predicate combination over the first three attributes plus a
/// 4-predicate layer.
fn deep_query_pool(schema: &Schema) -> Vec<ConjunctiveQuery> {
    let attrs: Vec<_> = schema.attr_ids().collect();
    let mut pool = Vec::new();
    for v0 in 0..schema.domain_size(attrs[0]) {
        for v1 in 0..schema.domain_size(attrs[1]) {
            for v2 in 0..schema.domain_size(attrs[2]) {
                let q3 = ConjunctiveQuery::from_predicates([
                    Predicate::new(attrs[0], ValueId(v0)),
                    Predicate::new(attrs[1], ValueId(v1)),
                    Predicate::new(attrs[2], ValueId(v2)),
                ]);
                for v3 in 0..schema.domain_size(attrs[3]) {
                    pool.push(q3.with(attrs[3], ValueId(v3)));
                }
                pool.push(q3);
            }
        }
    }
    pool
}

/// Conjunctions of 2/3/4/6 half-density predicates over 30 segments:
/// six binary attributes populated from independent key bits, ranked by
/// a measure whose top scorers sit in one hot 256-slot block per
/// segment, interleaved across segments so every segment holds some of
/// the best matches.
fn half_density_db() -> HiddenDatabase {
    const SEGMENTS: u64 = 30;
    const N: u64 = SEGMENTS * SEGMENT_SLOTS as u64;
    const ATTRS: usize = 6;
    const HOT_BLOCK_SLOTS: u64 = 256;
    let blocks_per_segment = SEGMENT_SLOTS as u64 / HOT_BLOCK_SLOTS;
    let measure = |key: u64| {
        let in_block = key % HOT_BLOCK_SLOTS;
        if (key / HOT_BLOCK_SLOTS).is_multiple_of(blocks_per_segment) {
            1_000_000.0
                - (in_block * SEGMENTS + key / (HOT_BLOCK_SLOTS * blocks_per_segment)) as f64
        } else {
            in_block as f64
        }
    };
    let schema = Schema::with_domain_sizes(&[2; ATTRS], &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, 25, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
    for key in 0..N {
        let values = (0..ATTRS).map(|bit| ValueId(((key >> bit) & 1) as u32)).collect();
        db.insert(Tuple::new(TupleKey(key), values, vec![measure(key)])).unwrap();
    }
    db
}

/// All value combinations over the first `preds` attributes.
fn half_density_pool(preds: usize) -> Vec<ConjunctiveQuery> {
    (0..1u32 << preds)
        .map(|mask| {
            ConjunctiveQuery::from_predicates(
                (0..preds).map(|a| Predicate::new(AttrId(a as u16), ValueId((mask >> a) & 1))),
            )
        })
        .collect()
}

#[test]
fn bitmap_engine_matches_the_naive_scan_on_the_perf_pools() {
    // The 3–4-predicate deep pool: 20 000 Autos tuples, 12 attributes,
    // k = 50.
    let mut gen = AutosGenerator::with_attrs(12);
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let mut deep = load_database(&mut gen, &mut rng, 20_000, 50, ScoringPolicy::default());
    let pool = deep_query_pool(&deep.schema().clone());
    assert!(assert_pool_matches_naive_scan(&mut deep, &pool) > 0, "deep pool never overflows");

    // The half-density `ByMeasureDesc` pool: 30 segments, k = 25.
    let mut dense = half_density_db();
    for preds in [2usize, 3, 4, 6] {
        let pool = half_density_pool(preds);
        let overflows = assert_pool_matches_naive_scan(&mut dense, &pool);
        assert_eq!(overflows, pool.len(), "{preds} predicates: every query overflows");
    }
}
