//! Tier-2 coverage suite for the bootstrap intervals (run in release on
//! CI).
//!
//! The nominal 95 % bootstrap intervals computed on a churning REISSUE
//! pool must cover the ground-truth estimate/truth ratio (1.0 — REISSUE
//! is unbiased) within a calibrated tolerance band. Coverage has to come
//! from resampling **across trials**: REISSUE freezes its drill pool at
//! round 1, so a single trial's round series brackets that trial's
//! plateau, not the truth. The block-bootstrap interval of the mean tail
//! ratio keeps whole per-trial tail windows intact as blocks
//! (trans-round serial dependence survives resampling); the per-round
//! intervals resample the across-trial mean at each round. Everything is
//! seeded, so the observed rates are deterministic constants, not random
//! variables — the bands only leave margin for legitimate future
//! workload changes.

use aggtrack::core::RsConfig;
use aggtrack_bench::cli::{BaseCfg, Scale};
use aggtrack_bench::runner::{count_star_tracked, tail_block_ci, track, trial_cis, AlgoKind};
use workloads::DeleteSpec;

/// The churning-pool configuration shared by every coverage experiment:
/// quick-scale population with a heavier churn (2 % of the initial
/// population inserted and 1 % deleted per round).
fn churn_cfg(experiment: usize) -> BaseCfg {
    let mut cfg = BaseCfg::for_scale(Scale::Quick);
    cfg.initial = 2_000;
    cfg.rounds = 10;
    cfg.trials = 12;
    cfg.inserts = 40;
    cfg.delete = DeleteSpec::Fraction(0.01);
    // Trial t uses seed + t, so experiments sit 1 000 seeds apart.
    cfg.seed = 0xC0FE + (experiment as u64) * 1_000;
    cfg
}

#[test]
fn block_bootstrap_intervals_cover_ground_truth_on_churning_pool() {
    // Debug builds run a shorter prefix of the same seeded experiment
    // sequence (the per-experiment outcomes are identical either way);
    // CI runs the full release version.
    let experiments: usize = if cfg!(debug_assertions) { 5 } else { 20 };
    const TAIL_W: usize = 5;
    const REPLICATES: usize = 400;

    let mut tail_covered = 0usize;
    let mut round_covered = 0usize;
    let mut round_judged = 0usize;
    for e in 0..experiments {
        let cfg = churn_cfg(e);
        let out = track(&cfg, &[AlgoKind::Reissue], RsConfig::default(), &count_star_tracked);
        let rows = &out.algos[0].ratio_trials;
        assert_eq!(rows.len(), cfg.trials, "one ratio row per trial");

        let ci = tail_block_ci(rows, TAIL_W, REPLICATES, cfg.seed, 0.95)
            .expect("every trial records its tail rounds");
        assert!(ci.lo <= ci.hi && ci.lo.is_finite() && ci.hi.is_finite());
        if ci.contains(1.0) {
            tail_covered += 1;
        }

        let (lo, hi) = trial_cis(rows, cfg.rounds, REPLICATES, cfg.seed, 0.95);
        for r in 0..cfg.rounds {
            assert!(lo[r].is_finite() && hi[r].is_finite(), "12 trials always yield a CI");
            round_judged += 1;
            if lo[r] <= 1.0 && 1.0 <= hi[r] {
                round_covered += 1;
            }
        }
    }

    let tail_coverage = tail_covered as f64 / experiments as f64;
    let round_coverage = round_covered as f64 / round_judged as f64;
    // Calibrated on the seeded workload: 18/20 tail (0.90) and
    // 189/200 per-round (0.945) in the full run. Percentile intervals
    // undercover a little at 12 blocks per interval, hence floors
    // below the nominal 0.95.
    assert!(
        tail_coverage >= 0.70,
        "block-bootstrap tail coverage {tail_coverage} ({tail_covered}/{experiments}) \
         fell below the calibrated band"
    );
    assert!(
        round_coverage >= 0.85,
        "per-round coverage {round_coverage} ({round_covered}/{round_judged}) \
         fell below the calibrated band"
    );
}
