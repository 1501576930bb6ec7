//! The "proprietary scoring function" (§2.1) that orders overflowing query
//! results. Real sites never disclose it; estimators must work no matter
//! what it is, so we provide several deterministic simulations and test the
//! estimators under each.

use crate::value::{MeasureId, TupleKey};

/// How the hidden database ranks matching tuples when a query overflows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoringPolicy {
    /// Default: a deterministic pseudo-random score derived from the tuple
    /// key and a salt. Models a relevance score uncorrelated with any
    /// attribute.
    HashedRandom {
        /// Salt mixed into the hash so different sites rank differently.
        salt: u64,
    },
    /// Rank by a measure, descending (e.g. "highest price first").
    ByMeasureDesc(MeasureId),
    /// Rank by a measure, ascending (e.g. "lowest price first").
    ByMeasureAsc(MeasureId),
    /// Newest first: rank by tuple key, descending. Models "recently listed"
    /// default sort orders.
    NewestFirst,
}

impl Default for ScoringPolicy {
    fn default() -> Self {
        Self::HashedRandom { salt: 0x5EED_CAFE_F00D_D1CE }
    }
}

/// SplitMix64: a tiny, high-quality mixing function. Deterministic across
/// runs and platforms, which keeps experiments reproducible.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ScoringPolicy {
    /// The hidden score of a tuple: larger is better (returned earlier).
    ///
    /// Measure-based scores are mapped to a monotone `u64` so all policies
    /// can share one comparison path; ties are broken by tuple key so the
    /// total order is deterministic. A NaN measure scores 0 under both
    /// measure policies, below every real value (infinities included), so
    /// corrupt measures sink to the bottom rather than panicking inside a
    /// sort.
    #[inline]
    pub(crate) fn score(&self, key: TupleKey, measures: &[f64]) -> u64 {
        match *self {
            Self::HashedRandom { salt } => mix64(key.0 ^ salt),
            Self::ByMeasureDesc(m) => f64_to_ordered(measures[m.index()]),
            Self::ByMeasureAsc(m) => match measures[m.index()] {
                x if x.is_nan() => 0,
                x => !f64_to_ordered(x),
            },
            Self::NewestFirst => key.0,
        }
    }
}

/// Maps an `f64` to a `u64` preserving order (for non-NaN inputs). NaN
/// maps to 0, below every real value; no real value maps to 0 or to
/// `u64::MAX`, so negating keeps NaN's place free for the ascending
/// policy.
#[inline]
fn f64_to_ordered(x: f64) -> u64 {
    if x.is_nan() {
        return 0;
    }
    let bits = x.to_bits();
    // Flip sign bit for positives; flip everything for negatives.
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_ordering_preserved() {
        let vals = [-1e9, -1.5, -0.0, 0.0, 0.25, 3.0, 1e18];
        for w in vals.windows(2) {
            assert!(f64_to_ordered(w[0]) <= f64_to_ordered(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(f64_to_ordered(f64::NAN) < f64_to_ordered(-1e300));
    }

    #[test]
    fn hashed_random_is_deterministic_and_salt_sensitive() {
        let a = ScoringPolicy::HashedRandom { salt: 1 };
        let b = ScoringPolicy::HashedRandom { salt: 2 };
        let k = TupleKey(77);
        assert_eq!(a.score(k, &[]), a.score(k, &[]));
        assert_ne!(a.score(k, &[]), b.score(k, &[]));
    }

    #[test]
    fn measure_policies_rank_as_documented() {
        let hi = ScoringPolicy::ByMeasureDesc(MeasureId(0));
        let lo = ScoringPolicy::ByMeasureAsc(MeasureId(0));
        let cheap = [10.0];
        let dear = [99.0];
        assert!(hi.score(TupleKey(1), &dear) > hi.score(TupleKey(2), &cheap));
        assert!(lo.score(TupleKey(1), &cheap) > lo.score(TupleKey(2), &dear));
    }

    /// Regression: `ByMeasureAsc` negated the NaN score, so a NaN measure
    /// outranked every real one. Under both policies NaN must rank below
    /// −inf, every finite value and +inf.
    #[test]
    fn nan_measures_rank_last_under_both_measure_policies() {
        let reals = [f64::NEG_INFINITY, -1e300, -1.5, -0.0, 0.0, 2.5, 1e300, f64::INFINITY];
        for policy in
            [ScoringPolicy::ByMeasureDesc(MeasureId(0)), ScoringPolicy::ByMeasureAsc(MeasureId(0))]
        {
            let nan = policy.score(TupleKey(1), &[f64::NAN]);
            for x in reals {
                assert!(nan < policy.score(TupleKey(2), &[x]), "{policy:?}: NaN vs {x}");
            }
        }
    }

    #[test]
    fn newest_first_ranks_by_key() {
        let p = ScoringPolicy::NewestFirst;
        assert!(p.score(TupleKey(10), &[]) > p.score(TupleKey(3), &[]));
    }

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        // Not a statistical test — just a regression guard that consecutive
        // keys do not produce consecutive scores.
        let d1 = mix64(1) ^ mix64(2);
        let d2 = mix64(2) ^ mix64(3);
        assert_ne!(d1, d2);
        assert!(mix64(1) != mix64(2));
    }
}
