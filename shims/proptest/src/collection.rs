//! Collection strategies (`prop::collection::vec`).

use std::ops::Range;

use rand::Rng;

use crate::strategy::Strategy;
use crate::test_runner::CaseRng;

/// Length specifications accepted by [`vec()`]: an exact length or a
/// half-open range of lengths.
pub trait IntoLenRange {
    /// Inclusive-lo / exclusive-hi bounds.
    fn bounds(self) -> (usize, usize);
}

impl IntoLenRange for usize {
    fn bounds(self) -> (usize, usize) {
        (self, self + 1)
    }
}

impl IntoLenRange for Range<usize> {
    fn bounds(self) -> (usize, usize) {
        (self.start, self.end)
    }
}

/// Strategy for `Vec<S::Value>` with length drawn from `len`.
pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
    let (lo, hi) = len.bounds();
    assert!(lo < hi, "empty length range for prop::collection::vec");
    VecStrategy { element, lo, hi }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    lo: usize,
    hi: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut CaseRng) -> Self::Value {
        let len = rng.random_range(self.lo..self.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
