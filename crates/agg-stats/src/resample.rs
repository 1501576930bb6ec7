//! The statistical bootstrap behind the figures' and the estimator
//! reports' confidence intervals: resample the finite values, take each
//! replicate's mean, and read a percentile interval off the means.
//!
//! One sequential resampler serves both entry points. A replicate draws
//! runs of `b` consecutive indices, each starting uniformly in
//! `0..=n − b`, until it holds `n` (the last run truncated): the
//! moving-block bootstrap. [`mean_ci`] resamples at `b = 1`, the classic
//! n-out-of-n bootstrap for exchangeable values (independent trials at
//! one round, per-drill HT terms). [`series_mean_ci`] takes the caller's
//! block length, so the serial dependence of a per-round series (REISSUE
//! reuses its drill-down pool across rounds) survives inside each block
//! instead of being understated by iid resampling. Replicate `r` draws
//! from an RNG seeded by `(seed, r)` alone.
//!
//! ```
//! use agg_stats::resample::mean_ci;
//!
//! let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
//! let ci = mean_ci(&data, 500, 7, 0.95).unwrap();
//! assert!(ci.contains(24.5), "CI {ci:?} should cover the sample mean");
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A two-sided confidence interval at a nominal coverage `level`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal coverage probability in `(0, 1)`, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Builds an interval; swaps the bounds if given in reverse order.
    pub fn new(lo: f64, hi: f64, level: f64) -> Self {
        assert!(level > 0.0 && level < 1.0, "coverage level must be in (0,1)");
        if lo <= hi {
            Self { lo, hi, level }
        } else {
            Self { lo: hi, hi: lo, level }
        }
    }

    /// Whether `x` lies inside the (closed) interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Percentile CI for the mean of exchangeable observations: the
/// n-out-of-n bootstrap ([`series_mean_ci`] at block length 1) over the
/// finite values of `data`. `None` with fewer than two finite values.
///
/// # Panics
/// As [`series_mean_ci`].
pub fn mean_ci(
    data: &[f64],
    replicates: usize,
    seed: u64,
    level: f64,
) -> Option<ConfidenceInterval> {
    series_mean_ci(data, 1, replicates, seed, level)
}

/// Percentile CI for the mean of a serially dependent series: the
/// moving-block bootstrap over the finite values of `series`, order
/// preserved, in runs of `block_len` (capped at the number of finite
/// values). `None` with fewer than two finite values.
///
/// # Panics
/// If `block_len == 0`; with two finite values or more, if
/// `replicates == 0` or `level` is not in `(0, 1)`.
pub fn series_mean_ci(
    series: &[f64],
    block_len: usize,
    replicates: usize,
    seed: u64,
    level: f64,
) -> Option<ConfidenceInterval> {
    assert!(block_len >= 1, "block length must be ≥ 1");
    let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.len() < 2 {
        return None;
    }
    assert!(replicates >= 1, "need at least one replicate");
    let means = replicate_means(&finite, block_len.min(finite.len()), replicates, seed);
    percentile_ci(means, level)
}

/// The finite replicate means, in replicate order. Each replicate sums
/// the values at its drawn indices in draw order and divides by `n`; a
/// mean that overflows to ±∞ is dropped.
fn replicate_means(finite: &[f64], block_len: usize, replicates: usize, seed: u64) -> Vec<f64> {
    let n = finite.len();
    let mut idx = Vec::with_capacity(n);
    let mut means = Vec::with_capacity(replicates);
    for r in 0..replicates {
        let mut rng = StdRng::seed_from_u64(replicate_seed(seed, r as u64));
        draw_blocks(&mut rng, n, block_len, &mut idx);
        let mean = idx.iter().map(|&i| finite[i]).sum::<f64>() / n as f64;
        if mean.is_finite() {
            means.push(mean);
        }
    }
    means
}

/// Fills `idx` with one replicate's `n` indices: runs of `block_len`
/// consecutive indices, each starting uniformly in `0..=n − block_len`,
/// the last run truncated so the total is exactly `n`.
fn draw_blocks(rng: &mut StdRng, n: usize, block_len: usize, idx: &mut Vec<usize>) {
    idx.clear();
    while idx.len() < n {
        let start = rng.random_range(0..=(n - block_len));
        let take = block_len.min(n - idx.len());
        idx.extend(start..start + take);
    }
}

/// SplitMix64 finaliser over `(seed, replicate index)`: decorrelates
/// consecutive replicate streams while keeping each a pure function of
/// its index.
fn replicate_seed(seed: u64, r: u64) -> u64 {
    let mut z = seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-sided percentile interval of the finite `means` at nominal
/// coverage `level` (e.g. `0.95` → their 2.5th and 97.5th percentiles,
/// nearest rank). `None` if `means` is empty.
fn percentile_ci(mut means: Vec<f64>, level: f64) -> Option<ConfidenceInterval> {
    assert!(level > 0.0 && level < 1.0, "coverage level must be in (0,1)");
    if means.is_empty() {
        return None;
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
    let tail = (1.0 - level) / 2.0;
    let lo = means[nearest_rank_index(tail, means.len())];
    let hi = means[nearest_rank_index(1.0 - tail, means.len())];
    Some(ConfidenceInterval::new(lo, hi, level))
}

/// Zero-based index of the nearest-rank `p`-quantile of a sorted sample
/// of `len` elements: the `⌈p·len⌉`-th order statistic (1-based; the
/// inverse empirical CDF, Hyndman–Fan type 1), clamped into `[1, len]`
/// so that `p = 0` maps to the minimum and `p = 1` to the maximum.
///
/// # Panics
/// If `len == 0` or `p` is NaN or outside `[0, 1]`.
fn nearest_rank_index(p: f64, len: usize) -> usize {
    assert!(len > 0, "nearest_rank_index: empty sample");
    assert!((0.0..=1.0).contains(&p), "nearest_rank_index: p={p} outside [0,1]");
    ((p * len as f64).ceil() as usize).clamp(1, len) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mean_ci`'s input in `mean_ci_skips_non_finite_input`.
    fn with_non_finite() -> Vec<f64> {
        let mut data: Vec<f64> = (0..60).map(|i| (i % 10) as f64).collect();
        data.push(f64::INFINITY);
        data.push(f64::NAN);
        data
    }

    /// AR(1)-ish dependent series: x_t = 0.8 x_{t-1} + noise.
    fn ar1_series() -> Vec<f64> {
        let mut x = 0.0;
        (0..200)
            .map(|i| {
                x = 0.8 * x + ((i * 2654435761u64 as usize % 1000) as f64 / 1000.0 - 0.5);
                x
            })
            .collect()
    }

    fn bits(ci: ConfidenceInterval) -> (u64, u64) {
        (ci.lo.to_bits(), ci.hi.to_bits())
    }

    /// Pins the RNG stream and the summation order bit for bit. The
    /// bounds are what the earlier builder-style engine computed on these
    /// inputs; a drift would also change fig03's and fig18's golden CSV.
    #[test]
    fn intervals_are_pinned_bit_for_bit() {
        let ci = mean_ci(&with_non_finite(), 1_000, 11, 0.95).unwrap();
        assert_eq!(bits(ci), (0x400e_6666_6666_6666, 0x4014_eeee_eeee_eeef), "{ci:?}");
        let ci = series_mean_ci(&ar1_series(), 4, 1_000, 5, 0.95).unwrap();
        assert_eq!(bits(ci), (0xbfaf_7b80_66eb_1372, 0x3faa_4166_1884_69c0), "{ci:?}");
        let ci = mean_ci(&ar1_series(), 1_000, 5, 0.95).unwrap();
        assert_eq!(bits(ci), (0xbfa8_e7fe_60a3_437b, 0x3fa2_3f3a_f43b_b255), "{ci:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        for b in [1, 4] {
            let run = |seed| replicate_means(&data, b, 200, seed);
            assert_eq!(run(1), run(1));
            assert_ne!(run(1), run(2));
        }
    }

    #[test]
    fn percentile_ci_covers_the_sample_mean() {
        // Mean of 0..100 is 49.5; the bootstrap CI of the mean must cover
        // it and be roughly ±2·SE/√n wide.
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ci = mean_ci(&data, 2000, 3, 0.95).unwrap();
        assert!(ci.contains(49.5), "{ci:?}");
        assert!(ci.width() > 5.0 && ci.width() < 20.0, "width {}", ci.width());
        assert_eq!(replicate_means(&data, 1, 2000, 3).len(), 2000);
    }

    #[test]
    fn block_variant_draws_contiguous_runs() {
        let (n, b) = (30, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let mut idx = Vec::new();
        for _ in 0..100 {
            draw_blocks(&mut rng, n, b, &mut idx);
            assert_eq!(idx.len(), n);
            for run in idx.chunks(b) {
                for w in run.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "block broken: {run:?}");
                }
                assert!(run[0] + b <= n, "block start out of range");
            }
        }
    }

    #[test]
    fn block_truncates_when_n_not_multiple_of_block_len() {
        let (n, b) = (13, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut idx = Vec::new();
        for _ in 0..20 {
            draw_blocks(&mut rng, n, b, &mut idx);
            assert_eq!(idx.len(), n, "resample size is n even when b ∤ n");
            let last = &idx[10..];
            assert!(last.windows(2).all(|w| w[1] == w[0] + 1), "truncated run {last:?}");
            assert!(last[0] + b <= n, "the truncated run starts in 0..=n − b");
        }
    }

    #[test]
    fn overflowing_replicate_means_are_dropped() {
        // A replicate that draws both MAX values overflows to +∞ before the
        // division and is dropped; the interval comes from the rest.
        let data = [f64::MAX, f64::MAX, 0.0];
        let means = replicate_means(&data, 1, 400, 9);
        assert!(means.len() < 400, "some replicate should draw MAX twice");
        assert!(means.iter().all(|m| m.is_finite()));
        let ci = mean_ci(&data, 400, 9, 0.9).unwrap();
        assert!(ci.lo.is_finite() && ci.hi.is_finite(), "{ci:?}");
    }

    #[test]
    fn interval_helpers() {
        let ci = ConfidenceInterval::new(2.0, 1.0, 0.5);
        assert_eq!((ci.lo, ci.hi), (1.0, 2.0), "bounds are normalised");
        assert!(ci.contains(1.0) && ci.contains(2.0) && !ci.contains(2.1));
        assert_eq!(ci.width(), 1.0);
    }

    #[test]
    fn mean_ci_skips_non_finite_input() {
        let ci = mean_ci(&with_non_finite(), 800, 11, 0.95).unwrap();
        assert!(ci.contains(4.5), "{ci:?} should cover the finite mean");
        assert!(ci.lo.is_finite() && ci.hi.is_finite());
        assert!(mean_ci(&[1.0, f64::NAN], 100, 0, 0.95).is_none());
        assert!(mean_ci(&[], 100, 0, 0.95).is_none());
        assert!(series_mean_ci(&[f64::INFINITY, 2.0], 3, 100, 0, 0.95).is_none());
    }

    #[test]
    fn series_mean_ci_uses_block_bootstrap() {
        let series = ar1_series();
        let blocked = series_mean_ci(&series, 6, 1000, 5, 0.95).unwrap();
        let iid = mean_ci(&series, 1000, 5, 0.95).unwrap();
        // Positive serial dependence ⇒ the honest (block) interval is wider.
        assert!(
            blocked.width() > iid.width(),
            "block {b:?} should be wider than iid {i:?}",
            b = blocked.width(),
            i = iid.width()
        );
        // A block longer than the series is capped at it: every replicate
        // is the whole series.
        let capped = series_mean_ci(&[1.0, 2.0, 3.0], 5, 100, 0, 0.95).unwrap();
        assert_eq!((capped.lo, capped.hi), (2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "block length must be ≥ 1")]
    fn zero_block_len_rejected() {
        let _ = series_mean_ci(&[1.0, 2.0, 3.0], 0, 100, 0, 0.95);
    }

    /// Pins the nearest-rank convention at the edges the percentile
    /// interval exercises: p = 0 → minimum, p = 1 → maximum,
    /// single-element samples → the element, and no off-by-one at exact
    /// rank boundaries.
    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank_index(0.0, 1), 0);
        assert_eq!(nearest_rank_index(1.0, 1), 0);
        assert_eq!(nearest_rank_index(0.5, 1), 0);
        assert_eq!(nearest_rank_index(0.0, 10), 0);
        assert_eq!(nearest_rank_index(1.0, 10), 9);
        // ⌈0.5·10⌉ = 5 → index 4 (the lower middle element).
        assert_eq!(nearest_rank_index(0.5, 10), 4);
        // Just past an exact boundary rounds up to the next rank.
        assert_eq!(nearest_rank_index(0.51, 10), 5);
        // ⌈0.025·1000⌉ = 25 → index 24; ⌈0.975·1000⌉ = 975 → index 974.
        assert_eq!(nearest_rank_index(0.025, 1000), 24);
        assert_eq!(nearest_rank_index(0.975, 1000), 974);
        // Tiny p still lands on the minimum, not below it.
        assert_eq!(nearest_rank_index(1e-12, 4), 0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn nearest_rank_rejects_empty() {
        let _ = nearest_rank_index(0.5, 0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn nearest_rank_rejects_out_of_range() {
        let _ = nearest_rank_index(1.5, 10);
    }
}
