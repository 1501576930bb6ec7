//! Exhaustive verification of Theorem 3.1: enumerating *every* leaf of the
//! query tree and averaging the per-drill-down estimates must reproduce
//! the ground truth **exactly** (not statistically) — because the HT
//! estimator is unbiased and the signature distribution is uniform.
//!
//! This is the partition argument made executable: every tuple is counted
//! by exactly one top non-overflowing node, weighted by 1/p(q).

use aggtrack::core::{ht_sample, AggregateSpec};
use aggtrack::prelude::*;
use hidden_db::database::HiddenDatabase;
use query_tree::{drill_from_root, enumerate_all, resume_from};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_db(seed: u64, n: u64, k: usize) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&[2, 3, 2], &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, ScoringPolicy::default());
    let mut rng = StdRng::seed_from_u64(seed);
    for t in 0..n {
        db.insert(Tuple::new(
            TupleKey(t),
            vec![
                ValueId(rng.random_range(0..2)),
                ValueId(rng.random_range(0..3)),
                ValueId(rng.random_range(0..2)),
            ],
            vec![rng.random_range(1..100) as f64],
        ))
        .unwrap();
    }
    db
}

/// Mean estimate over ALL signatures (exact expectation over the uniform
/// signature distribution).
fn exhaustive_mean(db: &mut HiddenDatabase, tree: &QueryTree, spec: &AggregateSpec) -> (f64, f64) {
    let sigs = enumerate_all(tree);
    let mut count = 0.0;
    let mut sum = 0.0;
    for sig in &sigs {
        let mut session = SearchSession::unlimited(db);
        let out = drill_from_root(tree, sig, &mut session).unwrap();
        assert!(!out.outcome.is_overflow(), "fixture must not leaf-overflow (k too small)");
        let s = ht_sample(spec, tree, &out);
        count += s.count / sigs.len() as f64;
        sum += s.sum / sigs.len() as f64;
    }
    (count, sum)
}

#[test]
fn static_estimator_is_exactly_unbiased_for_count_and_sum() {
    for seed in 0..5 {
        let mut db = random_db(seed, 50 + seed * 5, 16);
        let tree = QueryTree::full(&db.schema().clone());
        let spec = AggregateSpec::sum_measure(MeasureId(0), ConjunctiveQuery::select_all());
        let truth_count = db.exact_count(None) as f64;
        let truth_sum = db.exact_sum(None, |t| t.measure(MeasureId(0)));
        let (count, sum) = exhaustive_mean(&mut db, &tree, &spec);
        assert!(
            (count - truth_count).abs() < 1e-6,
            "seed {seed}: exhaustive count {count} != truth {truth_count}"
        );
        assert!(
            (sum - truth_sum).abs() < 1e-6 * truth_sum.max(1.0),
            "seed {seed}: exhaustive sum {sum} != truth {truth_sum}"
        );
    }
}

#[test]
fn unbiased_with_selection_conditions() {
    for seed in 0..3 {
        let mut db = random_db(100 + seed, 50, 16);
        let cond = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(1), ValueId(1))]);
        let truth = db.exact_count(Some(&cond)) as f64;
        // Filter-based over the full tree.
        let tree = QueryTree::full(&db.schema().clone());
        let spec = AggregateSpec::count_where(cond.clone());
        let (count, _) = exhaustive_mean(&mut db, &tree, &spec);
        assert!((count - truth).abs() < 1e-6, "filtered: {count} != {truth} (seed {seed})");
        // Subtree-based (§3.3).
        let sub = QueryTree::subtree(&db.schema().clone(), cond.clone());
        let (count, _) = exhaustive_mean(&mut db, &sub, &spec);
        assert!((count - truth).abs() < 1e-6, "subtree: {count} != {truth} (seed {seed})");
    }
}

#[test]
fn reissue_update_is_exactly_unbiased_after_change() {
    // Theorem 3.1 for the dynamic case: take round-1 terminals, mutate the
    // database heavily, update every drill-down with the STRICT policy,
    // and check the exhaustive mean matches the *new* truth exactly.
    for seed in 0..4 {
        let mut db = random_db(200 + seed, 45, 16);
        let tree = QueryTree::full(&db.schema().clone());
        let sigs = enumerate_all(&tree);
        // Round 1: record terminal depths.
        let mut depths = Vec::with_capacity(sigs.len());
        for sig in &sigs {
            let mut session = SearchSession::unlimited(&mut db);
            let out = drill_from_root(&tree, sig, &mut session).unwrap();
            depths.push(out.depth);
        }
        // Mutate: delete a third, insert fresh tuples, tweak measures.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let victims = db.sample_alive_keys(&mut rng, 15);
        for v in victims {
            db.delete(v).unwrap();
        }
        for t in 1_000..1_020u64 {
            db.insert(Tuple::new(
                TupleKey(t),
                vec![
                    ValueId(rng.random_range(0..2)),
                    ValueId(rng.random_range(0..3)),
                    ValueId(rng.random_range(0..2)),
                ],
                vec![rng.random_range(1..100) as f64],
            ))
            .unwrap();
        }
        let truth = db.exact_count(None) as f64;
        // Round 2: resume every signature from its recorded depth.
        let spec = AggregateSpec::count_star();
        let mut mean = 0.0;
        for (sig, &depth) in sigs.iter().zip(&depths) {
            let mut session = SearchSession::unlimited(&mut db);
            let out = resume_from(&tree, sig, depth, ReissuePolicy::Strict, &mut session).unwrap();
            assert!(!out.outcome.is_overflow());
            mean += ht_sample(&spec, &tree, &out).count / sigs.len() as f64;
        }
        assert!(
            (mean - truth).abs() < 1e-6,
            "seed {seed}: reissued exhaustive mean {mean} != truth {truth}"
        );
    }
}

#[test]
fn recovered_fault_storms_change_nothing_bitwise() {
    // The PR 6 satellite of Theorem 3.1: interpose the fault-injection +
    // deterministic-recovery stack (FaultyBackend + ResilientBackend)
    // between the drill code and the database, under schedules whose
    // faults are always recovered. The per-signature REISSUE and RESTART
    // series must be bit-identical to the fault-free run across churn
    // rounds, and the exhaustive REISSUE mean must stay exactly unbiased —
    // faults may only consume budget, never change answers.
    for seed in 0..2u64 {
        let run = |faults: bool| {
            let mut db = random_db(400 + seed, 48, 16);
            let tree = QueryTree::full(&db.schema().clone());
            let sigs = enumerate_all(&tree);
            let spec = AggregateSpec::count_star();
            let mut depths = Vec::with_capacity(sigs.len());
            for sig in &sigs {
                let mut session = SearchSession::unlimited(&mut db);
                depths.push(drill_from_root(&tree, sig, &mut session).unwrap().depth);
            }
            let mut series: Vec<u64> = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
            for round in 0..3u64 {
                let victims = db.sample_alive_keys(&mut rng, 8);
                for v in &victims {
                    db.delete(*v).unwrap();
                }
                for v in &victims {
                    db.insert(Tuple::new(
                        *v,
                        vec![
                            ValueId(rng.random_range(0..2)),
                            ValueId(rng.random_range(0..3)),
                            ValueId(rng.random_range(0..2)),
                        ],
                        vec![rng.random_range(1..100) as f64],
                    ))
                    .unwrap();
                }
                let truth = db.exact_count(None) as f64;
                let mut reissue_mean = 0.0;
                for (i, (sig, depth)) in sigs.iter().zip(&mut depths).enumerate() {
                    let fault_seed = (seed << 32) ^ (round << 16) ^ i as u64;
                    let schedule = if faults {
                        FaultSchedule::seeded(fault_seed, 0.35)
                    } else {
                        FaultSchedule::off()
                    };
                    // REISSUE through the chaos stack.
                    let session = SearchSession::unlimited(&mut db);
                    let faulty = FaultyBackend::new(session, schedule.clone());
                    let mut stack =
                        ResilientBackend::new(faulty, RetryPolicy::default(), fault_seed ^ 0xACE);
                    let out =
                        resume_from(&tree, sig, *depth, ReissuePolicy::Strict, &mut stack).unwrap();
                    assert_eq!(stack.stats().gave_up, 0, "schedule must be recoverable");
                    *depth = out.depth;
                    let s = ht_sample(&spec, &tree, &out);
                    reissue_mean += s.count / sigs.len() as f64;
                    series.push(out.depth as u64);
                    series.push(out.cost);
                    series.push(s.count.to_bits());
                    // RESTART through the chaos stack.
                    let session = SearchSession::unlimited(&mut db);
                    let faulty = FaultyBackend::new(session, schedule);
                    let mut stack =
                        ResilientBackend::new(faulty, RetryPolicy::default(), fault_seed ^ 0xBEE);
                    let out = drill_from_root(&tree, sig, &mut stack).unwrap();
                    series.push(ht_sample(&spec, &tree, &out).count.to_bits());
                }
                assert!(
                    (reissue_mean - truth).abs() < 1e-6,
                    "seed {seed} round {round} (faults {faults}): \
                     reissued mean {reissue_mean} != truth {truth}"
                );
            }
            series
        };
        let clean = run(false);
        let stormy = run(true);
        assert_eq!(clean, stormy, "seed {seed}: a recovered fault changed an estimate bitwise");
    }
}

#[test]
fn trusting_policy_can_be_biased_strict_cannot() {
    // The documented Strict/Trusting trade-off, verified end-to-end: build
    // the §3.2-style scenario where deletions shrink an overflowing
    // ancestor below k. Strict stays exact; Trusting misestimates.
    let schema = Schema::with_domain_sizes(&[2, 2], &[]).unwrap();
    let mut db = HiddenDatabase::new(schema, 1, ScoringPolicy::default());
    // (0,0), (0,1): A0=0 overflows (2 > 1); leaves are valid.
    db.insert(Tuple::new(TupleKey(0), vec![ValueId(0), ValueId(0)], vec![])).unwrap();
    db.insert(Tuple::new(TupleKey(1), vec![ValueId(0), ValueId(1)], vec![])).unwrap();
    let tree = QueryTree::full(&db.schema().clone());
    let sigs = enumerate_all(&tree);
    let mut depths = Vec::new();
    for sig in &sigs {
        let mut session = SearchSession::unlimited(&mut db);
        depths.push(drill_from_root(&tree, sig, &mut session).unwrap().depth);
    }
    // Delete (0,0): A0=0 now valid (1 ≤ k); true count = 1.
    db.delete(TupleKey(0)).unwrap();
    let spec = AggregateSpec::count_star();
    let mut strict_mean = 0.0;
    let mut trusting_mean = 0.0;
    for (sig, &d) in sigs.iter().zip(&depths) {
        let mut s = SearchSession::unlimited(&mut db);
        let out = resume_from(&tree, sig, d, ReissuePolicy::Strict, &mut s).unwrap();
        strict_mean += ht_sample(&spec, &tree, &out).count / sigs.len() as f64;
        let mut s = SearchSession::unlimited(&mut db);
        let out = resume_from(&tree, sig, d, ReissuePolicy::Trusting, &mut s).unwrap();
        trusting_mean += ht_sample(&spec, &tree, &out).count / sigs.len() as f64;
    }
    assert!((strict_mean - 1.0).abs() < 1e-9, "strict exhaustive mean {strict_mean} must equal 1");
    assert!(
        (trusting_mean - 1.0).abs() > 0.01,
        "fixture should expose trusting bias, got {trusting_mean}"
    );
}
