//! Parallel-vs-sequential determinism: the parallel trial runner must be
//! a pure performance optimisation — same `BaseCfg` + seed must produce
//! **bit-identical** summaries at every thread count. Likewise the memo
//! invalidation policy (incremental vs wholesale vs disabled) must be a
//! pure performance knob: estimator records cannot depend on caching.

use aggtrack_bench::cli::{BaseCfg, Scale};
use aggtrack_bench::runner::{
    count_star_tracked, standard_algos, track_with_threads, TrackOutcome,
};
use aggtrack_core::RsConfig;
use aggtrack_parallel::Threads;
use hidden_db::InvalidationPolicy;

fn run(threads: Threads) -> TrackOutcome {
    run_with_policy(threads, InvalidationPolicy::Incremental)
}

fn run_with_policy(threads: Threads, policy: InvalidationPolicy) -> TrackOutcome {
    let mut cfg = BaseCfg::for_scale(Scale::Quick);
    cfg.initial = 1_200;
    cfg.rounds = 4;
    cfg.trials = 5; // more trials than workers, so workers multiplex
    cfg.memo_policy = policy;
    track_with_threads(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked, threads)
}

/// Bitwise comparison (plain `==` would conflate NaNs and miss sign/ulp
/// differences — the whole point is catching accumulation-order drift).
fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} != {y} (bitwise)");
    }
}

#[test]
fn parallel_track_is_bit_identical_to_sequential() {
    let seq = run(Threads::fixed(1));
    for workers in [2, 4, 7] {
        let par = run(Threads::fixed(workers));
        assert_eq!(seq.algos.len(), par.algos.len());
        assert_bits_equal(&seq.truth.means(), &par.truth.means(), "truth means");
        assert_bits_equal(&seq.truth.stds(), &par.truth.stds(), "truth stds");
        assert_bits_equal(
            &seq.truth_change.means(),
            &par.truth_change.means(),
            "truth_change means",
        );
        for (s, p) in seq.algos.iter().zip(&par.algos) {
            assert_eq!(s.name, p.name);
            let tag = |metric: &str| format!("{} {metric} ({workers} threads)", s.name);
            assert_bits_equal(&s.rel_err.means(), &p.rel_err.means(), &tag("rel_err μ"));
            assert_bits_equal(&s.rel_err.stds(), &p.rel_err.stds(), &tag("rel_err σ"));
            assert_bits_equal(&s.ratio.means(), &p.ratio.means(), &tag("ratio μ"));
            assert_bits_equal(&s.ratio.stds(), &p.ratio.stds(), &tag("ratio σ"));
            assert_bits_equal(
                &s.change_rel_err.means(),
                &p.change_rel_err.means(),
                &tag("change_rel_err μ"),
            );
            assert_bits_equal(&s.change_est.means(), &p.change_est.means(), &tag("change_est μ"));
            assert_bits_equal(&s.cum_drills.means(), &p.cum_drills.means(), &tag("cum_drills μ"));
            assert_bits_equal(
                &s.cum_queries.means(),
                &p.cum_queries.means(),
                &tag("cum_queries μ"),
            );
            for w in 0..s.running_avg_err.len() {
                assert_bits_equal(
                    &s.running_avg_err[w].means(),
                    &p.running_avg_err[w].means(),
                    &tag(&format!("running_avg_err[{w}] μ")),
                );
            }
        }
    }
}

/// Incremental invalidation (the default), the legacy wholesale clear,
/// and a memo-free database must all produce bit-identical estimator
/// series — caching is invisible to every figure track.
#[test]
fn memo_policy_is_outcome_invariant() {
    let incremental = run_with_policy(Threads::fixed(2), InvalidationPolicy::Incremental);
    for policy in [InvalidationPolicy::Wholesale, InvalidationPolicy::Disabled] {
        let other = run_with_policy(Threads::fixed(2), policy);
        assert_bits_equal(
            &incremental.truth.means(),
            &other.truth.means(),
            &format!("truth means vs {policy:?}"),
        );
        for (s, p) in incremental.algos.iter().zip(&other.algos) {
            let tag = |metric: &str| format!("{} {metric} (vs {policy:?})", s.name);
            assert_bits_equal(&s.rel_err.means(), &p.rel_err.means(), &tag("rel_err μ"));
            assert_bits_equal(&s.rel_err.stds(), &p.rel_err.stds(), &tag("rel_err σ"));
            assert_bits_equal(&s.ratio.means(), &p.ratio.means(), &tag("ratio μ"));
            assert_bits_equal(&s.change_est.means(), &p.change_est.means(), &tag("change_est μ"));
            assert_bits_equal(
                &s.cum_queries.means(),
                &p.cum_queries.means(),
                &tag("cum_queries μ"),
            );
        }
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    let a = run(Threads::fixed(3));
    let b = run(Threads::fixed(3));
    for (x, y) in a.algos.iter().zip(&b.algos) {
        assert_bits_equal(&x.rel_err.means(), &y.rel_err.means(), "rerun rel_err");
    }
}

/// Ground-truth evaluation fans out over store segments (PR 3); the
/// segment-ordered replay merge must reproduce the sequential sweep
/// bit-for-bit at every thread count.
#[test]
fn ground_truth_fanout_is_bit_identical_across_thread_counts() {
    use hidden_db::query::{ConjunctiveQuery, Predicate};
    use hidden_db::ranking::ScoringPolicy;
    use hidden_db::value::{AttrId, MeasureId, ValueId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workloads::{load_database, AutosGenerator};

    let mut gen = AutosGenerator::with_attrs(12);
    let mut rng = StdRng::seed_from_u64(0x6124);
    let mut db = load_database(&mut gen, &mut rng, 9_000, 100, ScoringPolicy::default());
    // Fragment the segments so the fan-out sees uneven alive counts.
    for victim in db.sample_alive_keys(&mut rng, 1_500) {
        db.delete(victim).unwrap();
    }
    let probe = ConjunctiveQuery::from_predicates([
        Predicate::new(AttrId(0), ValueId(0)),
        Predicate::new(AttrId(1), ValueId(0)),
    ]);
    let count = db.exact_count(Some(&probe));
    let cond_sum = db.exact_sum(Some(&probe), |t| t.measure(MeasureId(0)));
    let root_sum = db.exact_sum(None, |t| t.measure(MeasureId(0)));
    assert!(count > 0, "probe must select something for the test to bite");
    for workers in [1, 2, 4, 7] {
        let threads = Threads::fixed(workers);
        assert_eq!(db.exact_count_threads(Some(&probe), threads), count, "{workers} threads");
        assert_bits_equal(
            &[db.exact_sum_threads(Some(&probe), |t| t.measure(MeasureId(0)), threads)],
            &[cond_sum],
            &format!("conditional sum ({workers} threads)"),
        );
        assert_bits_equal(
            &[db.exact_sum_threads(None, |t| t.measure(MeasureId(0)), threads)],
            &[root_sum],
            &format!("root sum ({workers} threads)"),
        );
    }
}

/// The sweep scheduler (`track_many`, used by fig08–fig13) flattens
/// (configuration, trial) jobs into one pool; its per-configuration
/// outcomes must be bit-identical to running each configuration through
/// the plain runner, at every thread count.
#[test]
fn track_many_matches_per_config_tracking() {
    let mut base = BaseCfg::for_scale(Scale::Quick);
    base.initial = 1_000;
    base.rounds = 3;
    base.trials = 2;
    let mut other = base.clone();
    other.k = 50;
    other.trials = 3;
    let cfgs = [base.clone(), other.clone()];
    let algos = standard_algos();
    let rs = RsConfig::default();
    for workers in [1, 3] {
        let many = aggtrack_bench::runner::track_many(
            &cfgs,
            &algos,
            rs,
            &|_, schema| count_star_tracked(schema),
            Threads::fixed(workers),
        );
        assert_eq!(many.len(), 2);
        for (cfg, got) in cfgs.iter().zip(&many) {
            let want = track_with_threads(cfg, &algos, rs, &count_star_tracked, Threads::fixed(1));
            assert_bits_equal(&want.truth.means(), &got.truth.means(), "truth means");
            for (s, p) in want.algos.iter().zip(&got.algos) {
                assert_bits_equal(
                    &s.rel_err.means(),
                    &p.rel_err.means(),
                    &format!("{} rel_err ({workers} workers)", s.name),
                );
                assert_bits_equal(&s.cum_queries.means(), &p.cum_queries.means(), "cum_queries");
            }
        }
    }
}
