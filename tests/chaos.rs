//! Chaos oracle for the PR 6 fault/recovery stack: whenever the recovery
//! layer cures every injected fault, the estimation pipeline must be
//! **bit-identical** to the fault-free run — faults may only consume
//! budget, never change answers.
//!
//! Why drill-level bit-identity is the right oracle: every fault kind is
//! an `Err` variant of [`IssueError`] (truncated/empty pages surface as
//! detectable transient errors, never as corrupted `Ok` pages), so a
//! recovered run's sequence of `Ok` outcomes is structurally the true
//! sequence. The default schedule caps fault bursts at 4 consecutive
//! injections while the default retry policy allows 8 retries, so
//! default-on-default recovery always succeeds.

use aggtrack::core::{ht_sample, AggregateSpec};
use aggtrack::prelude::*;
use aggtrack::workloads::spread_evenly;
use hidden_db::database::HiddenDatabase;
use hidden_db::fault::{FaultKind, FaultStats, RecoveryStats};
use proptest::prelude::*;
use query_tree::{
    drill_count_from_root, drill_from_root, enumerate_all, resume_count_from, resume_from,
    Signature,
};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // For random recoverable fault schedules, every drill-down through
    // the FaultyBackend + ResilientBackend stack returns the exact
    // outcome of the fault-free run: same terminal depth, same
    // estimator-visible cost, bitwise-equal HT sample. So does the stack
    // with a quiet schedule, which injects nothing and never retries.
    #[test]
    fn recovered_faults_never_change_drill_outcomes(
        db_seed in 0u64..40,
        fault_seed in 0u64..10_000,
        rate in 0.05f64..0.6,
    ) {
        let mut db = random_db(db_seed, 40, 16);
        let tree = QueryTree::full(&db.schema().clone());
        let sigs = enumerate_all(&tree);
        let spec = AggregateSpec::sum_measure(MeasureId(0), ConjunctiveQuery::select_all());

        // Fault-free reference series.
        let mut reference = Vec::with_capacity(sigs.len());
        for sig in &sigs {
            let mut s = SearchSession::unlimited(&mut db);
            let out = drill_from_root(&tree, sig, &mut s).unwrap();
            let sample = ht_sample(&spec, &tree, &out);
            reference.push((out.depth, out.cost, sample.count.to_bits(), sample.sum.to_bits()));
        }

        // Same drills through the chaos stack, quiet and stormy.
        for (i, sig) in sigs.iter().enumerate() {
            let storm = FaultSchedule::seeded(fault_seed ^ i as u64, rate);
            for (schedule, quiet) in [(FaultSchedule::off(), true), (storm, false)] {
                let session = SearchSession::unlimited(&mut db);
                let faulty = FaultyBackend::new(session, schedule);
                let mut resilient =
                    ResilientBackend::new(faulty, RetryPolicy::default(), fault_seed ^ 0x5EED);
                let out = drill_from_root(&tree, sig, &mut resilient).unwrap();
                let sample = ht_sample(&spec, &tree, &out);
                let stats = resilient.stats();
                prop_assert_eq!(stats.gave_up, 0, "default-on-default recovery must always succeed");
                let (depth, cost, count_bits, sum_bits) = reference[i];
                prop_assert_eq!(out.depth, depth);
                prop_assert_eq!(out.cost, cost, "retries must be invisible to estimator-side cost");
                prop_assert_eq!(sample.count.to_bits(), count_bits);
                prop_assert_eq!(sample.sum.to_bits(), sum_bits);
                if quiet {
                    prop_assert_eq!(stats.retries, 0, "a quiet schedule never retries");
                    prop_assert_eq!(resilient.into_inner().stats().injected, 0);
                }
            }
        }
    }

    // Budget accounting under faults: the inner session's `spent` must
    // equal served queries plus the fault taxonomy's burn (0 for rate
    // limits, 1 for transients/timeouts, 2 for charged-no-answer) — every
    // issued attempt is charged, nothing else is.
    #[test]
    fn every_retry_is_charged_to_the_budget(
        db_seed in 0u64..40,
        fault_seed in 0u64..10_000,
        rate in 0.05f64..0.6,
        g in 30u64..150,
    ) {
        let mut db = random_db(db_seed, 40, 16);
        let tree = QueryTree::full(&db.schema().clone());
        let spec = AggregateSpec::count_star();
        let mut est = ReissueEstimator::new(spec, tree, db_seed ^ 0xE57);

        let session = SearchSession::new(&mut db, g);
        let before = session.budget();
        let faulty = FaultyBackend::new(session, FaultSchedule::seeded(fault_seed, rate));
        let mut resilient =
            ResilientBackend::new(faulty, RetryPolicy::default(), fault_seed ^ 0x1ABE);
        let report = est.run_round(&mut resilient);

        let recovery = resilient.stats();
        let faulty = resilient.into_inner();
        let fault_stats = faulty.stats();
        let session = faulty.into_inner();

        // Recovered-by-construction: no degradation, no give-ups mid-budget.
        prop_assert!(report.degraded.is_none());
        // Every attempt (served or burned) hits the same budget.
        let spent = session.budget().spent_since(&before);
        prop_assert_eq!(session.budget().spent(), spent);
        prop_assert!(spent <= g);
        prop_assert_eq!(spent, fault_stats.served + fault_stats.queries_burned);
        // The recovery layer's own burn ledger agrees with the injector's
        // (modulo a final attempt cut short by budget exhaustion).
        prop_assert!(recovery.queries_burned <= fault_stats.queries_burned);
        // The estimator saw only real outcomes, so its spent-counter view
        // (through the resilient wrapper) matches the inner session.
        prop_assert_eq!(report.queries_spent, spent);
    }
}

/// Deterministic spot-check (not property-based): a recovered fault storm
/// across estimator rounds leaves reports untagged, within budget, and
/// non-panicking for all three estimators.
#[test]
fn estimators_survive_recovered_fault_storms_untagged() {
    let mut db = random_db(7, 60, 16);
    let tree = QueryTree::full(&db.schema().clone());
    let spec = AggregateSpec::count_star();
    let mut reissue = ReissueEstimator::new(spec.clone(), tree.clone(), 1);
    let mut restart = RestartEstimator::new(spec.clone(), tree.clone(), 2);
    let mut rs = RsEstimator::new(spec, tree, 3);
    for round in 0..4u64 {
        for (est, tag) in [
            (&mut reissue as &mut dyn Estimator, "reissue"),
            (&mut restart, "restart"),
            (&mut rs, "rs"),
        ] {
            let session = SearchSession::new(&mut db, 150);
            let faulty = FaultyBackend::new(session, FaultSchedule::seeded(round ^ 0xFA, 0.3));
            let mut resilient = ResilientBackend::new(faulty, RetryPolicy::default(), round);
            let r = est.run_round(&mut resilient);
            assert!(r.degraded.is_none(), "{tag}: recovered faults must not degrade");
            assert!(r.queries_spent <= 150, "{tag}: budget cap");
            assert_eq!(resilient.stats().gave_up, 0, "{tag}: recovery must succeed");
        }
    }
}

/// An unrecoverable storm (infinite burst, starved retry policy) must
/// degrade gracefully — tagged partial reports, never a panic — and the
/// budget consumed by the doomed retries is visible in `spent`.
#[test]
fn unrecoverable_storms_degrade_gracefully() {
    let mut db = random_db(11, 60, 16);
    let tree = QueryTree::full(&db.schema().clone());
    let mut est = ReissueEstimator::new(AggregateSpec::count_star(), tree, 4);
    {
        let mut s = SearchSession::new(&mut db, 150);
        let r = est.run_round(&mut s);
        assert!(r.degraded.is_none());
    }
    let session = SearchSession::new(&mut db, 150);
    let schedule = FaultSchedule::always(FaultKind::ChargedNoAnswer).with_max_consecutive(u32::MAX);
    let faulty = FaultyBackend::new(session, schedule);
    let policy = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
    let mut resilient = ResilientBackend::new(faulty, policy, 9);
    let r = est.run_round(&mut resilient);
    let tag = r.degraded.expect("give-ups must tag the round");
    assert!(tag.queries_lost > 0);
    assert!(resilient.stats().gave_up > 0);
    // ChargedNoAnswer burns 2 per injection and a give-up cycle is 3
    // attempts (1 + 2 retries); the estimator is interrupted twice — once
    // in its update pass and once in the fresh-drill pass — so the doomed
    // round charges exactly 2 cycles x 3 attempts x 2 queries.
    assert_eq!(r.queries_spent, 12);
}

/// Forwards every required method and takes the provided
/// `issue_unless_overflow`, which reads the whole answer: the path of a
/// remote adapter, and of the benchmark's traced adapters.
struct IssueOnly<B>(B);

impl<B: SearchBackend> SearchBackend for IssueOnly<B> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn k(&self) -> usize {
        self.0.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        self.0.issue(query)
    }

    fn remaining(&self) -> u64 {
        self.0.remaining()
    }

    fn spent(&self) -> u64 {
        self.0.spent()
    }
}

/// One drill's terminal depth, cost and terminal read as `T`, or its
/// error.
type Drill<T> = Result<(usize, u64, T), IssueError>;

/// The fault and recovery stack over `B`.
type Stack<B> = ResilientBackend<FaultyBackend<B>>;

/// Everything a run through the fault stack shows from outside.
type StackRun<T> = (Vec<Drill<T>>, FaultStats, RecoveryStats, u64);

/// A page drill, fresh or resumed from `(depth, policy)`.
fn by_page<B: SearchBackend>(
    tree: &QueryTree,
    sig: &Signature,
    resume: Option<(usize, ReissuePolicy)>,
    backend: &mut B,
) -> Drill<QueryOutcome> {
    let out = match resume {
        None => drill_from_root(tree, sig, backend),
        Some((depth, policy)) => resume_from(tree, sig, depth, policy, backend),
    };
    out.map(|d| (d.depth, d.cost, d.outcome))
}

/// A count drill, fresh or resumed from `(depth, policy)`.
fn by_count<B: SearchBackend>(
    tree: &QueryTree,
    sig: &Signature,
    resume: Option<(usize, ReissuePolicy)>,
    backend: &mut B,
) -> Drill<usize> {
    let out = match resume {
        None => drill_count_from_root(tree, sig, backend),
        Some((depth, policy)) => resume_count_from(tree, sig, depth, policy, backend),
    };
    out.map(|d| (d.depth, d.cost, d.count))
}

/// Drills every signature from the root, then resumes it under both
/// policies from where it ended, each by `drill`, through a seeded 30 %
/// fault schedule and the recovery layer over `inner`.
fn run_fault_stack<B: SearchBackend, T>(
    inner: B,
    tree: &QueryTree,
    seed: u64,
    drill: impl Fn(&QueryTree, &Signature, Option<(usize, ReissuePolicy)>, &mut Stack<B>) -> Drill<T>,
) -> StackRun<T> {
    let faulty = FaultyBackend::new(inner, FaultSchedule::seeded(seed, 0.3));
    let mut stack = ResilientBackend::new(faulty, RetryPolicy::default(), seed ^ 0x5EED);
    let mut drills = Vec::new();
    for sig in enumerate_all(tree) {
        let fresh = drill(tree, &sig, None, &mut stack);
        let depth = fresh.as_ref().map_or(tree.depth(), |d| d.0);
        drills.push(fresh);
        for policy in [ReissuePolicy::Strict, ReissuePolicy::Trusting] {
            drills.push(drill(tree, &sig, Some((depth, policy)), &mut stack));
        }
    }
    let (recovery, spent) = (stack.stats(), stack.spent());
    (drills, stack.into_inner().stats(), recovery, spent)
}

/// The class tallies of a database's interface counters.
fn tallies(db: &HiddenDatabase) -> (u64, u64, u64, u64) {
    let s = db.stats();
    (s.answered, s.underflows, s.valids, s.overflows)
}

/// Checks that `db` read every overflow by class alone except the leaf
/// overflows that ended one of `run`'s drills, and read some, and that it
/// read by count exactly the answers the faults charged and discarded.
fn assert_pages_only_at_leaves(db: &HiddenDatabase, run: &StackRun<QueryOutcome>, what: &str) {
    let s = db.stats();
    let leaf_overflows = run.0.iter().filter(|d| d.as_ref().is_ok_and(|d| d.2.is_overflow()));
    let paged = s.overflows - s.class_only_overflows;
    assert_eq!(
        paged,
        leaf_overflows.count() as u64,
        "{what}: overflow pages read above the leaves"
    );
    assert!(s.class_only_overflows > 0, "{what}: no class-only read");
    assert_eq!(s.count_reads, run.1.queries_burned, "{what}: a fault's charge read by count");
}

/// Checks that `db` answered every query of a count run by count, and
/// answered some.
fn assert_all_counted(db: &HiddenDatabase, what: &str) {
    let s = db.stats();
    assert!(s.answered > 0, "{what}: nothing answered");
    assert_eq!(s.count_reads, s.answered, "{what}: an answer read otherwise than by count");
}

/// `FaultyBackend` and `ResilientBackend` carry the class and count
/// requests down to the session, with the faults, retries, charges and
/// answers of a run whose session only answers `issue`: both runs agree on
/// every drill, on the fault and recovery counters and on the spend. Of
/// page drills, only the first reads overflows without a page, every one
/// above the leaves; of count drills, the first reads every answer by
/// count. Checked over a plain session and over one whose database
/// changes between queries.
#[test]
fn the_fault_stack_forwards_class_only_reads() {
    for seed in 0..6u64 {
        let base = random_db(seed, 60, 4);
        let tree = QueryTree::full(&base.schema().clone());

        let (mut db, mut plain) = (base.clone(), base.clone());
        let got = run_fault_stack(SearchSession::unlimited(&mut db), &tree, seed, by_page);
        let session = IssueOnly(SearchSession::unlimited(&mut plain));
        let want = run_fault_stack(session, &tree, seed, by_page);
        assert!(got.1.injected > 0, "seed {seed}: the schedule injected nothing");
        assert_eq!(got, want, "seed {seed}: search session");
        assert_eq!(tallies(&db), tallies(&plain), "seed {seed}: search session");
        assert_pages_only_at_leaves(&db, &got, &format!("seed {seed}: search session"));
        assert_eq!(plain.stats().class_only_overflows, 0, "seed {seed}");

        let (mut db, mut plain) = (base.clone(), base.clone());
        let got = run_fault_stack(SearchSession::unlimited(&mut db), &tree, seed, by_count);
        let session = IssueOnly(SearchSession::unlimited(&mut plain));
        let want = run_fault_stack(session, &tree, seed, by_count);
        assert_eq!(got, want, "seed {seed}: search session, by count");
        assert_eq!(tallies(&db), tallies(&plain), "seed {seed}: search session, by count");
        assert_all_counted(&db, &format!("seed {seed}: search session"));
        assert_eq!(plain.stats().count_reads, 0, "seed {seed}");

        // Deletes every seventh tuple and inserts copies of the first 20
        // under new keys, spread over the round.
        let mut batch = UpdateBatch::empty();
        for key in (0..60).step_by(7) {
            batch = batch.delete(TupleKey(key));
        }
        for key in 0..20 {
            let row = base.get(TupleKey(key)).expect("loaded");
            let values = (0..3).map(|a| row.value(AttrId(a))).collect();
            batch = batch.insert(Tuple::new(TupleKey(1_000 + key), values, vec![1.0]));
        }
        let updates = spread_evenly(batch);
        let (mut db, mut plain) = (base.clone(), base.clone());
        let session = IntraRoundSession::new(&mut db, 300, updates.clone());
        let got = run_fault_stack(session, &tree, seed, by_page);
        let session = IssueOnly(IntraRoundSession::new(&mut plain, 300, updates.clone()));
        let want = run_fault_stack(session, &tree, seed, by_page);
        assert_eq!(got, want, "seed {seed}: intra-round session");
        assert_eq!(tallies(&db), tallies(&plain), "seed {seed}: intra-round session");
        assert_eq!(db.alive_keys_sorted(), plain.alive_keys_sorted(), "seed {seed}");
        assert_pages_only_at_leaves(&db, &got, &format!("seed {seed}: intra-round session"));
        assert_eq!(plain.stats().class_only_overflows, 0, "seed {seed}");

        let (mut db, mut plain) = (base.clone(), base.clone());
        let session = IntraRoundSession::new(&mut db, 300, updates.clone());
        let got = run_fault_stack(session, &tree, seed, by_count);
        let session = IssueOnly(IntraRoundSession::new(&mut plain, 300, updates));
        let want = run_fault_stack(session, &tree, seed, by_count);
        let what = format!("seed {seed}: intra-round session, by count");
        assert_eq!(got, want, "{what}");
        assert_eq!(tallies(&db), tallies(&plain), "{what}");
        assert_eq!(db.alive_keys_sorted(), plain.alive_keys_sorted(), "{what}");
        assert_all_counted(&db, &what);
        assert_eq!(plain.stats().count_reads, 0, "{what}");
    }
}
