//! Concurrency oracle for the shared service: a session pinned to epoch
//! `E` must be **bit-identical** to a private [`HiddenDatabase`] frozen
//! at `E` — at any client thread count, any seeded permutation of issue
//! orders, and any interleaving with a concurrent writer applying batches
//! under the writer lock. Sessions pinned to one snapshot share its memo,
//! so their misses race to admit the same queries.
//!
//! Why outcome-level bit-identity is the right oracle: every estimator
//! in the workspace reads the interface exclusively through
//! [`SearchBackend::issue`], and the determinism suite pins that
//! estimator records are a pure function of the outcome sequence plus
//! budget behaviour. Equal outcomes + equal budget accounting ⇒ equal
//! estimates, so the suite checks both (plus a drill-level estimator
//! digest as a belt-and-braces end-to-end pass).

use aggtrack::core::{ht_sample, AggregateSpec};
use aggtrack::prelude::*;
use hidden_db::database::HiddenDatabase;
use proptest::prelude::*;
use query_tree::{drill_from_root, enumerate_all, QueryTree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

fn random_db(seed: u64, n: u64, k: usize) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&[3, 4, 2], &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, ScoringPolicy::default());
    let mut rng = StdRng::seed_from_u64(seed);
    for t in 0..n {
        db.insert(random_tuple(&mut rng, t)).unwrap();
    }
    db
}

fn random_tuple(rng: &mut StdRng, key: u64) -> Tuple {
    Tuple::new(
        TupleKey(key),
        vec![
            ValueId(rng.random_range(0..3)),
            ValueId(rng.random_range(0..4)),
            ValueId(rng.random_range(0..2)),
        ],
        vec![rng.random_range(1..100) as f64],
    )
}

/// Root + every depth-1 and first-two-attribute depth-2 query.
fn query_pool(schema: &Schema) -> Vec<ConjunctiveQuery> {
    let mut pool = vec![ConjunctiveQuery::select_all()];
    let attrs: Vec<AttrId> = schema.attr_ids().collect();
    for &a in &attrs {
        for v in 0..schema.domain_size(a) {
            pool.push(ConjunctiveQuery::from_predicates([Predicate::new(a, ValueId(v))]));
        }
    }
    for v0 in 0..schema.domain_size(attrs[0]) {
        for v1 in 0..schema.domain_size(attrs[1]) {
            pool.push(ConjunctiveQuery::from_predicates([
                Predicate::new(attrs[0], ValueId(v0)),
                Predicate::new(attrs[1], ValueId(v1)),
            ]));
        }
    }
    pool
}

/// A seeded churn batch: `del` deletes of known-alive keys plus `ins`
/// fresh inserts. `alive` tracks liveness across rounds so batches stay
/// valid without consulting the database.
fn churn_batch(
    rng: &mut StdRng,
    alive: &mut Vec<u64>,
    next_key: &mut u64,
    del: usize,
    ins: usize,
) -> UpdateBatch {
    let mut batch = UpdateBatch::empty();
    for _ in 0..del.min(alive.len().saturating_sub(1)) {
        let i = rng.random_range(0..alive.len());
        batch = batch.delete(TupleKey(alive.swap_remove(i)));
    }
    for _ in 0..ins {
        *next_key += 1;
        alive.push(*next_key);
        batch = batch.insert(random_tuple(rng, *next_key));
    }
    batch
}

/// The main oracle. Several epochs of churn flow through `apply` while a private mirror applies the identical batches; at every
/// epoch a snapshot and a frozen clone of the mirror are captured. Then,
/// for 1/2/4/8 client threads, sessions pinned across the epochs issue
/// seeded permutations of the query pool concurrently with yet more
/// writer churn — and every outcome must equal the frozen clone's.
#[test]
fn seeded_interleaving_bit_identical_across_thread_counts() {
    const EPOCHS: usize = 4;
    let db = random_db(0x51A2ED, 600, 10);
    let pool = query_pool(&db.schema().clone());
    let mut mirror = db.clone();
    let service = DbService::new(db);

    let mut rng = StdRng::seed_from_u64(0x0E27);
    let mut alive: Vec<u64> = (0..600).collect();
    let mut next_key = 1_000_000u64;

    // Epoch 0 is the seed state; then EPOCHS-1 churn rounds.
    let mut snapshots: Vec<Arc<DbSnapshot>> = vec![service.snapshot()];
    let mut frozen: Vec<HiddenDatabase> = vec![mirror.clone()];
    for _ in 1..EPOCHS {
        let batch = churn_batch(&mut rng, &mut alive, &mut next_key, 25, 30);
        let svc_summary = service.apply(batch.clone()).expect("valid batch");
        let mirror_summary = mirror.apply(batch).expect("valid batch");
        assert_eq!(svc_summary, mirror_summary);
        snapshots.push(service.snapshot());
        frozen.push(mirror.clone());
    }
    for (snap, db) in snapshots.iter().zip(&frozen) {
        assert_eq!(snap.epoch(), db.version(), "snapshots pin the mirror's versions");
        assert_eq!(snap.len(), db.len());
    }

    // Expected outcome table: frozen[e] answers pool[q].
    let expected: Vec<Vec<QueryOutcome>> = frozen
        .iter()
        .map(|db| {
            let mut db = db.clone();
            pool.iter().map(|q| db.answer(q)).collect()
        })
        .collect();

    for threads in [1usize, 2, 4, 8] {
        std::thread::scope(|scope| {
            // A writer churning the service the whole time — published
            // epochs advance, pinned sessions must not care.
            let writer = service.clone();
            let mut wrng = StdRng::seed_from_u64(0xC402 + threads as u64);
            // Each round's writer churns a keyspace of its own (first
            // batch inserts, later ones delete among those inserts), so
            // rounds never try to re-delete another round's victims.
            let mut walive: Vec<u64> = Vec::new();
            let mut wnext = next_key + 10_000 * threads as u64;
            scope.spawn(move || {
                for _ in 0..10 {
                    let batch = churn_batch(&mut wrng, &mut walive, &mut wnext, 10, 10);
                    writer.apply(batch).expect("valid batch");
                }
            });
            for t in 0..threads {
                // Session `t` pins epoch `t % EPOCHS` and issues the
                // whole pool in a per-(threads, t) seeded permutation.
                let e = t % EPOCHS;
                let mut session = service.session_at(Arc::clone(&snapshots[e]), u64::MAX);
                let pool = &pool;
                let expected = &expected[e];
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..pool.len()).collect();
                    order.shuffle(&mut StdRng::seed_from_u64(
                        0x5EED ^ (threads as u64) << 8 ^ t as u64,
                    ));
                    for q in order {
                        assert_eq!(
                            session.issue(&pool[q]).expect("unlimited budget"),
                            expected[q],
                            "epoch {e}, query {q}, {threads} threads"
                        );
                    }
                });
            }
        });
    }
}

/// Eight sessions pinned to one snapshot, each on its own thread issuing
/// the whole pool in its own seeded order, all read the frozen answers
/// through the snapshot's memo — and each query is admitted
/// exactly once, however the sessions' misses race.
#[test]
fn sessions_sharing_a_snapshot_admit_each_query_once() {
    const SESSIONS: u64 = 8;
    let db = random_db(0x0A11, 500, 10);
    let pool = query_pool(&db.schema().clone());
    let mut frozen = db.clone();
    let expected: Vec<QueryOutcome> = pool.iter().map(|q| frozen.answer(q)).collect();
    let service = DbService::new(db);
    let snap = service.snapshot();
    let start = Barrier::new(SESSIONS as usize);

    std::thread::scope(|scope| {
        for t in 0..SESSIONS {
            let mut session = service.session_at(Arc::clone(&snap), u64::MAX);
            let (pool, expected, start) = (&pool, &expected, &start);
            scope.spawn(move || {
                let mut order: Vec<usize> = (0..pool.len()).collect();
                order.shuffle(&mut StdRng::seed_from_u64(0x0A11 ^ t));
                start.wait();
                for q in order {
                    assert_eq!(
                        session.issue(&pool[q]).expect("unlimited budget"),
                        expected[q],
                        "session {t}, query {q}"
                    );
                }
            });
        }
    });
    let distinct = pool.iter().collect::<HashSet<_>>().len() as u64;
    let memo = service.memo_stats();
    assert_eq!(memo.insertions, distinct, "each query admitted exactly once");
    assert_eq!(memo.hits + memo.misses, SESSIONS * pool.len() as u64);
    assert!(memo.misses >= distinct);
}

/// End-to-end estimator pass: the full drill + Horvitz–Thompson pipeline
/// over a [`ServiceSession`] must reproduce the private frozen run digest
/// for digest, even while the service churns underneath.
#[test]
fn drill_pipeline_matches_private_database() {
    let db = random_db(0xD211, 400, 8);
    let mut private = db.clone();
    let service = DbService::new(db);
    let snap0 = service.snapshot();

    let schema = private.schema().clone();
    let tree = QueryTree::full(&schema);
    let sigs = enumerate_all(&tree);
    let spec = AggregateSpec::sum_measure(MeasureId(0), ConjunctiveQuery::select_all());
    let digest = |out: &query_tree::DrillOutcome| {
        let s = ht_sample(&spec, &tree, out);
        (out.depth, out.cost, s.count.to_bits(), s.sum.to_bits())
    };

    std::thread::scope(|scope| {
        let writer = service.clone();
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x0B57);
            let mut alive: Vec<u64> = (0..400).collect();
            let mut next = 2_000_000u64;
            for _ in 0..8 {
                let batch = churn_batch(&mut rng, &mut alive, &mut next, 15, 15);
                writer.apply(batch).expect("valid batch");
            }
        });
        for sig in &sigs {
            let mut bare = SearchSession::unlimited(&mut private);
            let want = digest(&drill_from_root(&tree, sig, &mut bare).expect("unlimited"));
            let mut svc = service.session_at(Arc::clone(&snap0), u64::MAX);
            let got = digest(&drill_from_root(&tree, sig, &mut svc).expect("unlimited"));
            assert_eq!(got, want, "signature {sig:?}");
        }
    });
}

/// Concurrent sessions must not cross-charge: budgets, interface stats,
/// and eval stats are all per-session, while the snapshot's memo quietly
/// serves repeats.
#[test]
fn sessions_do_not_cross_charge() {
    let db = random_db(0xB0D6, 300, 10);
    let service = DbService::new(db);
    let pool = query_pool(service.snapshot().schema());

    let mut a = service.session(3);
    let mut b = service.session(100);
    for q in pool.iter().take(3) {
        a.issue(q).expect("within budget");
    }
    assert!(a.issue(&pool[3]).unwrap_err().is_budget(), "a exhausted its own budget");
    for q in pool.iter().take(10) {
        b.issue(q).expect("b's budget is untouched by a");
    }
    assert_eq!(a.spent(), 3, "a pays only for its own issues");
    assert_eq!(b.spent(), 10);
    assert_eq!(a.stats().answered, 3);
    assert_eq!(b.stats().answered, 10);
    // b's first 3 queries repeat a's: memo hits, still charged.
    assert_eq!(b.stats().cache_hits, 3);
    assert_eq!(service.memo_stats().hits, 3);
    // a evaluated its 3 queries itself; b only the 7 fresh ones.
    assert!(a.eval_stats().root_scans + a.eval_stats().single_scans >= 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Snapshot isolation: whatever churn is applied after a session
    // pins its snapshot, the session's view (outcomes, epoch, |D|)
    // never moves, and a freshly pinned session sees exactly the
    // mirror's final state.
    #[test]
    fn snapshot_isolation_under_churn(
        seed in 0u64..1_000_000,
        rounds in 1usize..5,
        del in 0usize..20,
        ins in 0usize..20,
    ) {
        let db = random_db(seed, 250, 10);
        let pool = query_pool(&db.schema().clone());
        let mut mirror = db.clone();
        let service = DbService::new(db);
        let snap0 = service.snapshot();
        let epoch0 = snap0.epoch();
        let len0 = snap0.len();
        let mut frozen0 = mirror.clone();
        let mut pinned = service.session_at(Arc::clone(&snap0), u64::MAX);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut alive: Vec<u64> = (0..250).collect();
        let mut next_key = 3_000_000u64;
        for _ in 0..rounds {
            let batch = churn_batch(&mut rng, &mut alive, &mut next_key, del, ins);
            let a = service.apply(batch.clone());
            let b = mirror.apply(batch);
            prop_assert_eq!(a.is_ok(), b.is_ok());
            // The pinned session is frozen mid-churn…
            prop_assert_eq!(pinned.epoch(), epoch0);
            prop_assert_eq!(pinned.snapshot().len(), len0);
            for q in pool.iter().take(5) {
                prop_assert_eq!(pinned.issue(q).unwrap(), frozen0.answer(q));
            }
        }
        // …while a fresh session tracks the mirror exactly.
        prop_assert_eq!(service.epoch(), mirror.version());
        let mut fresh = service.session(u64::MAX);
        for q in &pool {
            prop_assert_eq!(fresh.issue(q).unwrap(), mirror.answer(q));
        }
    }
}
