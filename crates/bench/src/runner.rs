//! The shared experiment loop: run the three estimators over a scheduled
//! dynamic database for R rounds × T trials, collecting per-round series.
//!
//! Trials are embarrassingly parallel — each owns its database, schedule,
//! and RNG streams, all derived from `cfg.seed` and the trial index — so
//! [`track`] fans them out over [`aggtrack_parallel::par_map_indexed`].
//! Each trial produces a `TrialOutcome` (raw per-round records); the
//! main thread then merges them **in trial-index order**, which makes the
//! accumulated [`SeriesSummary`] state bit-identical to the sequential
//! loop for any thread count (Welford accumulation is order-sensitive in
//! the last bits; replaying records in a fixed order removes the
//! sensitivity).

use agg_stats::error::{relative_error, SeriesSummary};
use aggtrack_core::{
    AggregateSpec, Estimator, ReissueEstimator, RestartEstimator, RoundReport, RsConfig,
    RsEstimator,
};
use aggtrack_parallel::{par_map_indexed, Threads};
use hidden_db::database::HiddenDatabase;
use hidden_db::fault::{FaultSchedule, FaultyBackend, ResilientBackend, RetryPolicy};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use query_tree::QueryTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{load_database, AutosGenerator, PerRoundSchedule, RoundDriver};

use crate::cli::{BaseCfg, FaultsMode};

/// Which estimator to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// The repeated-execution baseline.
    Restart,
    /// Query reissuing (Algorithm 1).
    Reissue,
    /// Reservoir-style adaptive (Algorithm 2).
    Rs,
}

impl AlgoKind {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Self::Restart => "RESTART",
            Self::Reissue => "REISSUE",
            Self::Rs => "RS",
        }
    }

    /// Instantiates the estimator.
    ///
    /// Both reissue-family estimators use the `Strict` policy (§4.1's
    /// two-query accounting): the cheaper `Trusting` variant of §3.2
    /// turns out to accumulate a serious downward bias on dynamic
    /// workloads — tuples leak out of the partition when an overflowing
    /// ancestor silently shrinks below `k`.
    pub fn build(
        self,
        spec: AggregateSpec,
        tree: QueryTree,
        seed: u64,
        rs_cfg: RsConfig,
    ) -> Box<dyn Estimator> {
        match self {
            Self::Restart => Box::new(RestartEstimator::new(spec, tree, seed)),
            Self::Reissue => Box::new(ReissueEstimator::new(spec, tree, seed)),
            Self::Rs => Box::new(RsEstimator::with_config(spec, tree, seed, rs_cfg)),
        }
    }
}

/// The three paper algorithms, in legend order.
pub fn standard_algos() -> Vec<AlgoKind> {
    vec![AlgoKind::Restart, AlgoKind::Reissue, AlgoKind::Rs]
}

/// The aggregate being tracked in one experiment.
pub struct Tracked {
    /// Aggregate specification handed to the estimators.
    pub spec: AggregateSpec,
    /// Query tree (full tree or a §3.3 subtree).
    pub tree: QueryTree,
    /// Ground-truth oracle (experiments only).
    pub truth: Box<dyn Fn(&HiddenDatabase) -> f64>,
}

/// Builds the default tracked aggregate: `COUNT(*)`.
pub fn count_star_tracked(schema: &Schema) -> Tracked {
    Tracked {
        spec: AggregateSpec::count_star(),
        tree: QueryTree::full(schema),
        truth: Box::new(|db| db.exact_count(None) as f64),
    }
}

/// Per-algorithm series accumulated across trials.
pub struct SeriesSet {
    /// Legend name.
    pub name: &'static str,
    /// Relative error of the primary estimate per round.
    pub rel_err: SeriesSummary,
    /// estimate/truth ratio per round (Fig 3's error bars).
    pub ratio: SeriesSummary,
    /// Relative error of the change estimate per round (NaN round 1).
    pub change_rel_err: SeriesSummary,
    /// Raw change estimates (Fig 16's absolute plot).
    pub change_est: SeriesSummary,
    /// Cumulative drill-downs performed (Fig 19).
    pub cum_drills: SeriesSummary,
    /// Cumulative queries spent (Fig 19's x-axis).
    pub cum_queries: SeriesSummary,
    /// Relative error of the *running average* of the primary estimate
    /// over the last 2/3/4 rounds (Fig 14), computed per trial.
    pub running_avg_err: [SeriesSummary; 3],
    /// Raw estimate/truth ratios, one row per merged trial (`NaN` where a
    /// round went unrecorded) — the figure pipeline's bootstrap resamples
    /// these instead of the already-collapsed moments.
    pub ratio_trials: Vec<Vec<f64>>,
    /// Raw relative errors, one row per merged trial.
    pub rel_err_trials: Vec<Vec<f64>>,
}

/// Windows used by [`SeriesSet::running_avg_err`], matching Fig 14.
pub const RUNNING_AVG_WINDOWS: [usize; 3] = [2, 3, 4];

impl SeriesSet {
    fn new(name: &'static str, rounds: usize) -> Self {
        Self {
            name,
            rel_err: SeriesSummary::new(rounds),
            ratio: SeriesSummary::new(rounds),
            change_rel_err: SeriesSummary::new(rounds),
            change_est: SeriesSummary::new(rounds),
            cum_drills: SeriesSummary::new(rounds),
            cum_queries: SeriesSummary::new(rounds),
            running_avg_err: [
                SeriesSummary::new(rounds),
                SeriesSummary::new(rounds),
                SeriesSummary::new(rounds),
            ],
            ratio_trials: Vec::new(),
            rel_err_trials: Vec::new(),
        }
    }
}

/// A whole experiment's output.
pub struct TrackOutcome {
    /// One series set per algorithm, in input order.
    pub algos: Vec<SeriesSet>,
    /// Ground truth per round.
    pub truth: SeriesSummary,
    /// True round-over-round change per round (NaN round 1).
    pub truth_change: SeriesSummary,
}

/// One trial's worth of records for one series: at most one value per
/// round, in round order. Raw values (not moments) so the merge can
/// replay them into [`SeriesSummary`] in trial order.
struct TrialSeries(Vec<Option<f64>>);

impl TrialSeries {
    fn new(rounds: usize) -> Self {
        Self(vec![None; rounds])
    }

    fn record(&mut self, point: usize, value: f64) {
        self.0[point] = Some(value);
    }

    /// Replays this trial's records into the cross-trial summary.
    fn merge_into(&self, summary: &mut SeriesSummary) {
        for (point, v) in self.0.iter().enumerate() {
            if let Some(v) = v {
                summary.record(point, *v);
            }
        }
    }

    /// This trial as a dense row (`NaN` where nothing was recorded).
    fn row(&self) -> Vec<f64> {
        self.0.iter().map(|v| v.unwrap_or(f64::NAN)).collect()
    }
}

/// Per-trial mirror of [`SeriesSet`].
struct TrialSeriesSet {
    rel_err: TrialSeries,
    ratio: TrialSeries,
    change_rel_err: TrialSeries,
    change_est: TrialSeries,
    cum_drills: TrialSeries,
    cum_queries: TrialSeries,
    running_avg_err: [TrialSeries; 3],
}

impl TrialSeriesSet {
    fn new(rounds: usize) -> Self {
        Self {
            rel_err: TrialSeries::new(rounds),
            ratio: TrialSeries::new(rounds),
            change_rel_err: TrialSeries::new(rounds),
            change_est: TrialSeries::new(rounds),
            cum_drills: TrialSeries::new(rounds),
            cum_queries: TrialSeries::new(rounds),
            running_avg_err: [
                TrialSeries::new(rounds),
                TrialSeries::new(rounds),
                TrialSeries::new(rounds),
            ],
        }
    }

    fn merge_into(&self, set: &mut SeriesSet) {
        set.ratio_trials.push(self.ratio.row());
        set.rel_err_trials.push(self.rel_err.row());
        self.rel_err.merge_into(&mut set.rel_err);
        self.ratio.merge_into(&mut set.ratio);
        self.change_rel_err.merge_into(&mut set.change_rel_err);
        self.change_est.merge_into(&mut set.change_est);
        self.cum_drills.merge_into(&mut set.cum_drills);
        self.cum_queries.merge_into(&mut set.cum_queries);
        for (w, series) in self.running_avg_err.iter().enumerate() {
            series.merge_into(&mut set.running_avg_err[w]);
        }
    }
}

/// One trial's complete record set.
struct TrialOutcome {
    algos: Vec<TrialSeriesSet>,
    truth: TrialSeries,
    truth_change: TrialSeries,
}

/// Runs `cfg.trials` seeded trials of `cfg.rounds` rounds, tracking the
/// aggregate built by `tracked_of` with every algorithm in `algos`.
/// Trials run concurrently ([`Threads::Auto`]: `AGGTRACK_THREADS` or the
/// machine's parallelism); results are identical to the sequential loop.
pub fn track(
    cfg: &BaseCfg,
    algos: &[AlgoKind],
    rs_cfg: RsConfig,
    tracked_of: &(dyn Fn(&Schema) -> Tracked + Sync),
) -> TrackOutcome {
    track_with_threads(cfg, algos, rs_cfg, tracked_of, Threads::Auto)
}

/// [`track`] with an explicit thread policy. Estimator output is
/// **bit-identical** for every policy: trial seeds depend only on the
/// trial index, and per-round records merge in trial order.
pub fn track_with_threads(
    cfg: &BaseCfg,
    algos: &[AlgoKind],
    rs_cfg: RsConfig,
    tracked_of: &(dyn Fn(&Schema) -> Tracked + Sync),
    threads: Threads,
) -> TrackOutcome {
    track_many(std::slice::from_ref(cfg), algos, rs_cfg, &|_, schema| tracked_of(schema), threads)
        .pop()
        .expect("one config in, one outcome out")
}

/// Runs several independent configurations ("tracks") through **one**
/// shared pool at `(configuration, trial)` granularity — the flattened
/// job list keeps every worker busy across configuration boundaries,
/// where the old per-figure × per-trial nesting drained the pool at the
/// end of each configuration before starting the next. Used by the
/// fig08–fig13 sweeps.
///
/// `tracked_of` receives the configuration index, so sweeps can vary the
/// tracked aggregate per configuration (fig13). Outputs are
/// **bit-identical** to running [`track_with_threads`] per configuration:
/// each trial's records depend only on `(config, trial index)`, and the
/// merge replays them config-major in trial order.
pub fn track_many(
    cfgs: &[BaseCfg],
    algos: &[AlgoKind],
    rs_cfg: RsConfig,
    tracked_of: &(dyn Fn(usize, &Schema) -> Tracked + Sync),
    threads: Threads,
) -> Vec<TrackOutcome> {
    let jobs: Vec<(usize, u64)> = cfgs
        .iter()
        .enumerate()
        .flat_map(|(ci, cfg)| (0..cfg.trials as u64).map(move |t| (ci, t)))
        .collect();
    let trials = par_map_indexed(jobs.len(), threads, |j| {
        let (ci, trial) = jobs[j];
        run_trial(&cfgs[ci], algos, rs_cfg, &|schema: &Schema| tracked_of(ci, schema), trial)
    });
    let mut outs: Vec<TrackOutcome> = cfgs
        .iter()
        .map(|cfg| TrackOutcome {
            algos: algos.iter().map(|a| SeriesSet::new(a.name(), cfg.rounds)).collect(),
            truth: SeriesSummary::new(cfg.rounds),
            truth_change: SeriesSummary::new(cfg.rounds),
        })
        .collect();
    for (&(ci, _), trial) in jobs.iter().zip(&trials) {
        let out = &mut outs[ci];
        trial.truth.merge_into(&mut out.truth);
        trial.truth_change.merge_into(&mut out.truth_change);
        for (i, algo) in trial.algos.iter().enumerate() {
            algo.merge_into(&mut out.algos[i]);
        }
    }
    outs
}

fn run_trial(
    cfg: &BaseCfg,
    algos: &[AlgoKind],
    rs_cfg: RsConfig,
    tracked_of: &(dyn Fn(&Schema) -> Tracked + Sync),
    trial: u64,
) -> TrialOutcome {
    let mut out = TrialOutcome {
        algos: algos.iter().map(|_| TrialSeriesSet::new(cfg.rounds)).collect(),
        truth: TrialSeries::new(cfg.rounds),
        truth_change: TrialSeries::new(cfg.rounds),
    };
    let mut gen = AutosGenerator::with_attrs(cfg.attrs);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(trial));
    let mut db = load_database(&mut gen, &mut rng, cfg.initial, cfg.k, ScoringPolicy::default());
    // Outcome-invariant (pinned by the determinism suite): the capacity
    // only changes wall-clock and cache counters, never estimator records.
    db.set_memo_capacity(cfg.memo_capacity);
    // Out-of-core persistence tier: trials share cfg.persist.dir but run
    // concurrently, so each takes a globally unique subdirectory.
    let persist_dir = cfg.persist.as_ref().map(|p| {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = p.dir.join(format!("trial-{}-{unique}", std::process::id()));
        db.enable_persist(&hidden_db::PersistConfig::new(dir.clone(), p.resident_segments))
            .expect("--persist: could not open the region file");
        dir
    });
    let schedule = PerRoundSchedule::new(gen, cfg.inserts, cfg.delete);
    let mut driver = RoundDriver::new(db, schedule, cfg.seed ^ (trial.wrapping_mul(7919)));

    let tracked = tracked_of(driver.db().schema());
    let kind = tracked.spec.kind;
    let mut estimators: Vec<Box<dyn Estimator>> = algos
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.build(
                tracked.spec.clone(),
                tracked.tree.clone(),
                cfg.seed ^ (trial.wrapping_mul(31) + i as u64 + 1),
                rs_cfg,
            )
        })
        .collect();
    let mut cum_drills = vec![0u64; algos.len()];
    let mut cum_queries = vec![0u64; algos.len()];
    let mut prev_truth = f64::NAN;
    // Per-trial running averages (Fig 14): one per algorithm per window,
    // plus one per window for the truth.
    let mut ra_est: Vec<Vec<aggtrack_core::RunningAverage>> = algos
        .iter()
        .map(|_| {
            RUNNING_AVG_WINDOWS.iter().map(|&w| aggtrack_core::RunningAverage::new(w)).collect()
        })
        .collect();
    let mut ra_truth: Vec<aggtrack_core::RunningAverage> =
        RUNNING_AVG_WINDOWS.iter().map(|&w| aggtrack_core::RunningAverage::new(w)).collect();

    for round in 0..cfg.rounds {
        let truth = (tracked.truth)(driver.db());
        let true_change = truth - prev_truth;
        out.truth.record(round, truth);
        if round >= 1 {
            out.truth_change.record(round, true_change);
        }
        let truth_ra: Vec<f64> = ra_truth.iter_mut().map(|ra| ra.push(truth)).collect();
        for (i, est) in estimators.iter_mut().enumerate() {
            let report: RoundReport = match cfg.faults {
                FaultsMode::Off => {
                    let mut session = driver.session(cfg.g);
                    est.run_round(&mut session)
                }
                FaultsMode::Seeded { rate } => {
                    // Deterministic per-(trial, round, algorithm) fault and
                    // jitter streams, derived like the estimator seeds above
                    // so any thread policy replays the same storms.
                    let fault_seed = cfg.seed
                        ^ trial.wrapping_mul(7919)
                        ^ ((round as u64) << 20)
                        ^ ((i as u64 + 1) << 8);
                    let session = driver.session(cfg.g);
                    let faulty =
                        FaultyBackend::new(session, FaultSchedule::seeded(fault_seed, rate));
                    let mut stack =
                        ResilientBackend::new(faulty, RetryPolicy::default(), fault_seed ^ 0x171);
                    let report = est.run_round(&mut stack);
                    // The default schedule's burst cap sits below the default
                    // retry budget, so recovery must always succeed here.
                    assert_eq!(stack.stats().gave_up, 0, "recovery gave up for {}", est.name());
                    report
                }
            };
            assert!(report.queries_spent <= cfg.g, "budget violated by {}", est.name());
            let series = &mut out.algos[i];
            let primary = report.primary(kind);
            series.rel_err.record(round, relative_error(primary, truth));
            series.ratio.record(round, primary / truth);
            for (w, ra) in ra_est[i].iter_mut().enumerate() {
                let avg = ra.push(primary);
                series.running_avg_err[w].record(round, relative_error(avg, truth_ra[w]));
            }
            cum_drills[i] += (report.updated + report.initiated) as u64;
            cum_queries[i] += report.queries_spent;
            series.cum_drills.record(round, cum_drills[i] as f64);
            series.cum_queries.record(round, cum_queries[i] as f64);
            if round >= 1 {
                if let Some(change) = report.primary_change(kind) {
                    series.change_rel_err.record(round, relative_error(change, true_change));
                    series.change_est.record(round, change);
                }
            }
        }
        prev_truth = truth;
        driver.advance();
    }
    if let Some(dir) = persist_dir {
        drop(driver);
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

std::thread_local! {
    /// When set, [`print_csv`] appends here instead of writing stdout —
    /// lets `all_figures` run figures concurrently and still emit their
    /// CSV blocks in figure order.
    static CSV_SINK: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's CSV output captured, returning it.
pub fn capture_csv(f: impl FnOnce()) -> String {
    CSV_SINK.with(|s| *s.borrow_mut() = Some(String::new()));
    f();
    CSV_SINK.with(|s| s.borrow_mut().take().expect("sink installed above"))
}

fn emit_line(line: std::fmt::Arguments<'_>) {
    CSV_SINK.with(|s| match &mut *s.borrow_mut() {
        Some(buf) => {
            use std::fmt::Write;
            writeln!(buf, "{line}").expect("string write cannot fail");
        }
        None => println!("{line}"),
    });
}

/// Prints a CSV block: header line then one row per x value. Output goes
/// to stdout, or to the thread's [`capture_csv`] buffer when one is
/// installed.
pub fn print_csv(title: &str, x_name: &str, x: &[String], columns: &[(&str, Vec<f64>)]) {
    emit_line(format_args!("# {title}"));
    let mut header = vec![x_name.to_string()];
    header.extend(columns.iter().map(|(n, _)| n.to_string()));
    emit_line(format_args!("{}", header.join(",")));
    for (i, xv) in x.iter().enumerate() {
        let mut row = vec![xv.clone()];
        for (_, col) in columns {
            row.push(format!("{:.6}", col.get(i).copied().unwrap_or(f64::NAN)));
        }
        emit_line(format_args!("{}", row.join(",")));
    }
    emit_line(format_args!(""));
}

/// Rounds 1..=n as x-axis labels.
pub fn round_labels(n: usize) -> Vec<String> {
    (1..=n).map(|r| r.to_string()).collect()
}

/// Mean of the last `w` finite values of a series' means — the "error
/// after N rounds" scalar used by the sweep figures (8, 9, 11, 12, 13).
///
/// Window semantics (pinned by `tail_mean_window_is_chronologically_last`):
/// the window is selected from the **end** of the series — the `rev()`
/// walks backwards from the final round, `filter` skips NaN (unrecorded)
/// points wherever they sit, and `take(w)` stops after `w` finite values.
/// The collected tail is therefore in reverse chronological order, which
/// is irrelevant to a mean; what matters is that the values are the last
/// `w` finite rounds, never the first.
pub fn tail_mean(series: &SeriesSummary, w: usize) -> f64 {
    let means = series.means();
    let tail: Vec<f64> = means.into_iter().rev().filter(|v| v.is_finite()).take(w).collect();
    if tail.is_empty() {
        f64::NAN
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Per-round bootstrap percentile CIs across trials: at each round, the
/// trial values are exchangeable (independent seeded trials), so an
/// n-out-of-n resample of the across-trial mean is honest. Returns
/// `(lo, hi)` vectors aligned with the round axis, `NaN` where fewer
/// than two finite trial values exist. Deterministic: round `r` uses the
/// stream `seed ^ r`.
pub fn trial_cis(
    rows: &[Vec<f64>],
    rounds: usize,
    replicates: usize,
    seed: u64,
    level: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut lo = vec![f64::NAN; rounds];
    let mut hi = vec![f64::NAN; rounds];
    for r in 0..rounds {
        let col: Vec<f64> = rows.iter().filter_map(|row| row.get(r).copied()).collect();
        if let Some(ci) = agg_stats::resample::mean_ci(&col, replicates, seed ^ r as u64, level) {
            lo[r] = ci.lo;
            hi[r] = ci.hi;
        }
    }
    (lo, hi)
}

/// Block-bootstrap percentile CI for the tail error scalar of a sweep
/// point (the [`tail_mean`] companion). Each trial contributes its last
/// `w` finite values in round order; the concatenated series is
/// resampled in blocks of `w` (capped by the series length), so the
/// trans-round serial dependence *within* a trial's window survives
/// resampling while trials still mix. `None` with fewer than two values.
pub fn tail_block_ci(
    rows: &[Vec<f64>],
    w: usize,
    replicates: usize,
    seed: u64,
    level: f64,
) -> Option<agg_stats::resample::ConfidenceInterval> {
    let mut series = Vec::new();
    for row in rows {
        let mut tail: Vec<f64> =
            row.iter().rev().copied().filter(|v| v.is_finite()).take(w).collect();
        tail.reverse(); // back to round order inside the window
        series.extend(tail);
    }
    agg_stats::resample::series_mean_ci(&series, w.max(1), replicates, seed, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{BaseCfg, Scale};

    #[test]
    fn quick_track_produces_complete_series() {
        let mut cfg = BaseCfg::for_scale(Scale::Quick);
        cfg.rounds = 4;
        cfg.trials = 2;
        cfg.initial = 1_500;
        let out = track(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked);
        assert_eq!(out.algos.len(), 3);
        for a in &out.algos {
            for r in 0..cfg.rounds {
                let m = a.rel_err.mean(r);
                assert!(m.is_finite(), "{} round {r} rel err {m}", a.name);
                assert!(m < 1.0, "{} round {r} rel err {m} out of band", a.name);
            }
            // Cumulative metrics must be non-decreasing.
            let d = a.cum_drills.means();
            assert!(d.windows(2).all(|w| w[1] >= w[0]));
        }
        // Truth tracks the schedule: +8 −0.1 % per round from 1 500.
        assert!(out.truth.mean(0) == 1_500.0);
        assert!(out.truth.mean(3) > 1_500.0);
    }

    #[test]
    fn seeded_faults_stay_within_budget_and_are_deterministic() {
        let mut cfg = BaseCfg::for_scale(Scale::Quick);
        cfg.rounds = 3;
        cfg.trials = 1;
        cfg.initial = 1_200;
        cfg.faults = FaultsMode::Seeded { rate: 0.3 };
        let a = track(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked);
        let b = track(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked);
        for (sa, sb) in a.algos.iter().zip(&b.algos) {
            for r in 0..cfg.rounds {
                assert!(sa.rel_err.mean(r).is_finite(), "{} round {r}", sa.name);
                // Same seeds, same storms: replays are bit-identical.
                assert_eq!(sa.rel_err.mean(r).to_bits(), sb.rel_err.mean(r).to_bits());
                assert_eq!(sa.cum_queries.mean(r).to_bits(), sb.cum_queries.mean(r).to_bits());
                // Burned retries still respect the per-round cap G.
                let spent = sa.cum_queries.mean(r);
                assert!(spent <= (cfg.g * (r as u64 + 1)) as f64, "{} over cap", sa.name);
            }
        }
    }

    /// `--persist` is outcome-invariant: a tiny resident budget forces
    /// real paging, yet every estimator record stays bit-identical to the
    /// in-RAM run.
    #[test]
    fn persisted_track_is_bit_identical_to_in_ram() {
        let mut cfg = BaseCfg::for_scale(Scale::Quick);
        cfg.rounds = 3;
        cfg.trials = 1;
        cfg.initial = 1_200;
        let plain = track(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked);
        let dir =
            std::env::temp_dir().join(format!("aggtrack-runner-persist-{}", std::process::id()));
        cfg.persist = Some(hidden_db::PersistConfig::new(dir.clone(), 2));
        let paged = track(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked);
        for (sa, sb) in plain.algos.iter().zip(&paged.algos) {
            for r in 0..cfg.rounds {
                assert_eq!(
                    sa.rel_err.mean(r).to_bits(),
                    sb.rel_err.mean(r).to_bits(),
                    "{} round {r} drifted under paging",
                    sa.name
                );
                assert_eq!(sa.cum_queries.mean(r).to_bits(), sb.cum_queries.mean(r).to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tail_mean_window_is_chronologically_last() {
        // An asymmetric series where a front-window bug would be loud:
        // means [40, 30, 2, 4]. The last-2 window must average 2 and 4,
        // not 40 and 30 (front) nor 30 and 2 (off-by-one).
        let mut s = SeriesSummary::new(4);
        for (i, v) in [40.0, 30.0, 2.0, 4.0].into_iter().enumerate() {
            s.record(i, v);
        }
        assert_eq!(tail_mean(&s, 2), 3.0);
        assert_eq!(tail_mean(&s, 1), 4.0);
        assert_eq!(tail_mean(&s, 4), 19.0);
        // A NaN hole in the tail widens the window backwards: last 2
        // finite of [40, 30, NaN(unrecorded), 4] are 30 and 4.
        let mut holey = SeriesSummary::new(4);
        holey.record(0, 40.0);
        holey.record(1, 30.0);
        holey.record(3, 4.0);
        assert_eq!(tail_mean(&holey, 2), 17.0);
    }

    #[test]
    fn track_retains_raw_trial_rows() {
        let mut cfg = BaseCfg::for_scale(Scale::Quick);
        cfg.rounds = 3;
        cfg.trials = 2;
        cfg.initial = 1_200;
        let out = track(&cfg, &standard_algos(), RsConfig::default(), &count_star_tracked);
        for a in &out.algos {
            assert_eq!(a.ratio_trials.len(), cfg.trials, "{}", a.name);
            assert_eq!(a.rel_err_trials.len(), cfg.trials);
            for row in &a.ratio_trials {
                assert_eq!(row.len(), cfg.rounds);
                assert!(row.iter().all(|v| v.is_finite()), "{}: {row:?}", a.name);
            }
            // The retained rows must reproduce the collapsed means.
            for r in 0..cfg.rounds {
                let mean: f64 =
                    a.ratio_trials.iter().map(|row| row[r]).sum::<f64>() / cfg.trials as f64;
                assert!((mean - a.ratio.mean(r)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trial_cis_cover_the_across_trial_mean() {
        // 24 fake trials of 3 rounds with spread; CI must bracket the mean.
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|t| (0..3).map(|r| 1.0 + 0.01 * ((t * 7 + r * 3) % 11) as f64).collect())
            .collect();
        let (lo, hi) = trial_cis(&rows, 3, 500, 99, 0.95);
        for r in 0..3 {
            let mean: f64 = rows.iter().map(|row| row[r]).sum::<f64>() / rows.len() as f64;
            assert!(lo[r] <= mean && mean <= hi[r], "round {r}: [{} {}] vs {mean}", lo[r], hi[r]);
            assert!(lo[r] < hi[r]);
        }
        // Determinism.
        assert_eq!(trial_cis(&rows, 3, 500, 99, 0.95), (lo, hi));
        // Too few trials → NaN, not a bogus interval.
        let (lo1, hi1) = trial_cis(&rows[..1], 3, 500, 99, 0.95);
        assert!(lo1[0].is_nan() && hi1[0].is_nan());
    }

    #[test]
    fn tail_block_ci_brackets_the_tail_mean() {
        let rows: Vec<Vec<f64>> =
            (0..8).map(|t| (0..10).map(|r| 0.2 + 0.005 * ((t + r) % 7) as f64).collect()).collect();
        let ci = tail_block_ci(&rows, 5, 800, 3, 0.95).expect("enough data");
        let all_tail: Vec<f64> = rows.iter().flat_map(|row| row[5..].iter().copied()).collect();
        let mean = all_tail.iter().sum::<f64>() / all_tail.len() as f64;
        assert!(ci.contains(mean), "{ci:?} vs {mean}");
        assert!(tail_block_ci(&[vec![f64::NAN; 4]], 2, 100, 0, 0.95).is_none());
    }

    #[test]
    fn tail_mean_ignores_nans() {
        let mut s = SeriesSummary::new(4);
        s.record(2, 1.0);
        s.record(3, 3.0);
        assert_eq!(tail_mean(&s, 2), 2.0);
        assert_eq!(tail_mean(&s, 10), 2.0);
        let empty = SeriesSummary::new(2);
        assert!(tail_mean(&empty, 3).is_nan());
    }
}
