//! perf_baseline — two timing floors that the tracking benchmark in
//! `trackbench/` does not measure.
//!
//! 1. `mutation_throughput_ok` — insert+delete pairs against a
//!    10 000-tuple Autos pool whose query pool is cached, so every
//!    mutation patches each warm entry its row satisfies. The floor sits
//!    far below healthy release-build rates, so only an algorithmic
//!    regression, not a slow runner, trips it. Debug builds are exempt.
//! 2. `fault_off_overhead_near_zero` — the same drill pool bare and
//!    through `FaultyBackend(FaultSchedule::off())` + `ResilientBackend`.
//!    The quiet wrapper stack must add less than half the bare time.
//!    Warm drills are memo hits, so one pass takes microseconds: each
//!    side runs 6 000 passes, tens of milliseconds in release, in ten
//!    blocks that alternate with the other side's, and the ratio compares
//!    each side's fastest block, since load from elsewhere on the host
//!    only ever slows a block down. Both loops run only the drills. That
//!    the quiet stack leaves every drill outcome unchanged is checked by
//!    `tests/chaos.rs::recovered_faults_never_change_drill_outcomes`.
//!
//! Each floor prints one line; a missed floor fails the run with a
//! non-zero exit. The workloads and thresholds are fixed so that runs
//! stay comparable from one change to the next.
//!
//! Usage: `cargo run --release --bin perf_baseline` (no flags).

use std::time::Instant;

use hidden_db::fault::{FaultSchedule, FaultyBackend, ResilientBackend, RetryPolicy};
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::session::SearchSession;
use hidden_db::tuple::Tuple;
use hidden_db::value::{TupleKey, ValueId};
use hidden_db::HiddenDatabase;
use query_tree::{drill_from_root, enumerate_all, QueryTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{load_database, AutosGenerator, TupleFactory};

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("unsupported argument {arg:?}: perf_baseline takes no flags");
    }
    let mutation_ok = mutation_throughput_ok();
    let fault_ok = fault_off_overhead_near_zero();
    assert!(mutation_ok && fault_ok, "perf_baseline: a timing floor was missed (see above)");
}

/// Root, every depth-1 query, and all depth-2 combinations over the first
/// three attribute pairs.
fn query_pool(schema: &Schema) -> Vec<ConjunctiveQuery> {
    let mut pool = vec![ConjunctiveQuery::select_all()];
    for a in schema.attr_ids() {
        for v in 0..schema.domain_size(a) {
            pool.push(ConjunctiveQuery::from_predicates([Predicate::new(a, ValueId(v))]));
        }
    }
    let attrs: Vec<_> = schema.attr_ids().collect();
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

fn mutation_throughput_ok() -> bool {
    const N: usize = 10_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const PAIRS: usize = 20_000;
    const FLOOR_PAIRS_PER_SEC: f64 = 100_000.0;

    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    for q in &query_pool(db.schema()) {
        db.answer(q);
    }

    let t0 = Instant::now();
    let mut key = 10_000_000u64;
    for _ in 0..PAIRS {
        let t = gen.make(&mut rng);
        key += 1;
        db.insert(Tuple::new(TupleKey(key), t.values().to_vec(), t.measures().to_vec()))
            .expect("unique key");
        db.delete(TupleKey(key)).expect("alive key");
    }
    let rate = PAIRS as f64 / t0.elapsed().as_secs_f64();

    let ok = cfg!(debug_assertions) || rate >= FLOOR_PAIRS_PER_SEC;
    let exempt = if cfg!(debug_assertions) { ", debug build exempt" } else { "" };
    println!(
        "mutation_throughput_ok: {ok} ({rate:.0} insert+delete pairs/s, floor \
         {FLOOR_PAIRS_PER_SEC:.0}{exempt})"
    );
    ok
}

fn fault_off_overhead_near_zero() -> bool {
    const N: u64 = 2_000;
    const K: usize = 50;
    const PASSES: usize = 6_000;
    const BLOCKS: usize = 10;

    let schema = Schema::with_domain_sizes(&[3, 4, 2], &["m"]).expect("valid schema");
    let mut db = HiddenDatabase::new(schema.clone(), K, ScoringPolicy::default());
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for t in 0..N {
        db.insert(Tuple::new(
            TupleKey(t),
            vec![
                ValueId(rng.random_range(0..3)),
                ValueId(rng.random_range(0..4)),
                ValueId(rng.random_range(0..2)),
            ],
            vec![rng.random_range(1..100) as f64],
        ))
        .expect("unique keys");
    }
    let tree = QueryTree::full(&schema);
    let sigs = enumerate_all(&tree);
    let bare_pass = |db: &mut HiddenDatabase| {
        for sig in &sigs {
            let mut session = SearchSession::unlimited(db);
            std::hint::black_box(drill_from_root(&tree, sig, &mut session).expect("unlimited"));
        }
    };
    let wrapped_pass = |db: &mut HiddenDatabase| {
        for sig in &sigs {
            let faulty = FaultyBackend::new(SearchSession::unlimited(db), FaultSchedule::off());
            let mut stack = ResilientBackend::new(faulty, RetryPolicy::default(), 0xD1CE);
            std::hint::black_box(drill_from_root(&tree, sig, &mut stack).expect("quiet schedule"));
        }
    };

    let time_block = |pass: &dyn Fn(&mut HiddenDatabase), db: &mut HiddenDatabase| {
        let t0 = Instant::now();
        for _ in 0..PASSES / BLOCKS {
            pass(db);
        }
        t0.elapsed().as_secs_f64()
    };

    // An untimed pass warms the memo, so both loops time steady state.
    bare_pass(&mut db);
    let (mut bare, mut wrapped) = (Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        bare.push(time_block(&bare_pass, &mut db));
        wrapped.push(time_block(&wrapped_pass, &mut db));
    }
    let fastest = |blocks: &[f64]| blocks.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead = fastest(&wrapped) / fastest(&bare).max(f64::MIN_POSITIVE) - 1.0;
    let ok = overhead < 0.5;
    println!(
        "fault_off_overhead_near_zero: {ok} (bare {:.1} ms, wrapped-off {:.1} ms in total, \
         overhead {:+.0} % between the fastest blocks; limit +50 %)",
        bare.iter().sum::<f64>() * 1e3,
        wrapped.iter().sum::<f64>() * 1e3,
        overhead * 100.0
    );
    ok
}
