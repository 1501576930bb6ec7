//! Intersection-strategy microbenchmark: galloping vs per-segment bitset
//! vs the legacy per-candidate re-check, across selectivity ratios of the
//! two driven posting lists. This is the data that pins the engine's
//! density cut-over (`GALLOP_RATIO` in `hidden-db/src/database.rs`):
//! galloping wins when the larger list dwarfs the smaller, the bitset
//! wins when the lists are comparably dense, and both skip the residual
//! column loads the re-check scan pays for every rarest-list candidate.
//!
//! The population plants one dense attribute (A0 = 0 on half the tuples,
//! the "large" list) and a staircase attribute whose values select
//! progressively rarer slices (the "small" list), so `ratio_R` means
//! `|large| ≈ R × |small|`.

use criterion::{criterion_group, criterion_main, Criterion};
use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::value::{AttrId, TupleKey, ValueId};
use hidden_db::{EvalConfig, IntersectPolicy, InvalidationPolicy};
use std::hint::black_box;
use std::time::Duration;

const N: u64 = 40_000;

/// Small-list sizes giving large/small ratios ≈ 1, 4, 16, 64, 256
/// against the ~N/2 dense list.
const STAIRS: [u64; 5] = [20_000, 5_000, 1_250, 312, 78];

fn staircase_db() -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&[2, STAIRS.len() as u32 + 1], &[]).unwrap();
    let mut db = HiddenDatabase::new(schema, 100, ScoringPolicy::default());
    db.set_invalidation_policy(InvalidationPolicy::Disabled);
    let mut stair_left: Vec<u64> = STAIRS.to_vec();
    for key in 0..N {
        // A1: walk the staircase until each tier has its quota; the
        // remainder lands in the overflow value. Interleave A0 so every
        // tier is half-covered by the dense value.
        let a1 = match stair_left.iter().position(|&left| left > 0) {
            Some(tier) => {
                stair_left[tier] -= 1;
                tier as u32
            }
            None => STAIRS.len() as u32,
        };
        let a0 = (key % 2) as u32;
        db.insert(Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![])).unwrap();
    }
    db
}

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    let mut db = staircase_db();
    let modes = [
        ("gallop", IntersectPolicy::Gallop),
        ("bitset", IntersectPolicy::Bitset),
        ("recheck", IntersectPolicy::Recheck),
    ];
    let ratios = [1u64, 4, 16, 64, 256];
    for (tier, &ratio) in ratios.iter().enumerate() {
        let q = ConjunctiveQuery::from_predicates([
            Predicate::new(AttrId(0), ValueId(0)),
            Predicate::new(AttrId(1), ValueId(tier as u32)),
        ]);
        for (name, intersect) in modes {
            db.set_eval_config(EvalConfig { early_exit: false, intersect });
            group.bench_function(format!("ratio_{ratio}_{name}"), |b| {
                b.iter(|| black_box(db.answer(&q)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_intersection);
criterion_main!(benches);
