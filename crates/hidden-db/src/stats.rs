//! Interface-side counters, useful for experiments and benches.

use crate::interface::{Answer, OutcomeClass, Read};

/// Counters describing the traffic a database has served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterfaceStats {
    /// Total queries answered (including memoised ones).
    pub answered: u64,
    /// Queries that overflowed, with or without a page.
    pub overflows: u64,
    /// Queries answered with a complete (valid) page.
    pub valids: u64,
    /// Queries that underflowed.
    pub underflows: u64,
    /// Answers served from the memo: the database's own, patched as its
    /// rows change, or a service snapshot's.
    pub cache_hits: u64,
    /// Overflows answered by class alone, to a caller that asked not to
    /// read their page (a class or a count read): no top `k` was ranked
    /// or copied for them. Also counted in [`InterfaceStats::overflows`].
    pub class_only_overflows: u64,
    /// Answers read by count, to a caller that reads only how many tuples
    /// a page holds: no page was copied or built for them, whatever their
    /// class. Also counted by class.
    pub count_reads: u64,
}

impl InterfaceStats {
    /// Counts one answer to a `read`: its class, whether it came without
    /// a page, and whether the memo served it.
    pub(crate) fn count_answer(&mut self, answer: &Answer, read: Read, cache_hit: bool) {
        self.answered += 1;
        self.cache_hits += u64::from(cache_hit);
        self.count_reads += u64::from(read == Read::Count);
        match answer.class() {
            OutcomeClass::Underflow => self.underflows += 1,
            OutcomeClass::Valid => self.valids += 1,
            OutcomeClass::Overflow => {
                self.overflows += 1;
                self.class_only_overflows += u64::from(!read.ranks_overflow());
            }
        }
    }

    /// Fraction of answers served from cache, in `[0,1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.answered as f64
        }
    }
}

/// Counters describing which paths the evaluation engine took — useful
/// for benches and for tests asserting a strategy actually engaged.
/// Like [`InterfaceStats::cache_hits`] these depend on the memo's
/// capacity (a memo hit skips evaluation entirely); they are
/// deterministic for a fixed capacity and workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Root (`SELECT *`) segment scans.
    pub root_scans: u64,
    /// Single-predicate scans.
    pub single_scans: u64,
    /// Always 0: the galloping pair engine is gone. Kept only because
    /// the benchmark in `trackbench/` reads it; a later change to the
    /// benchmark removes it.
    pub gallop_intersections: u64,
    /// Evaluations of two or more predicates (per-segment bitmap ANDs).
    pub bitset_intersections: u64,
    /// Always 0, like [`EvalStats::gallop_intersections`]: the re-check
    /// engine is gone too (read by the benchmark; a later change to the
    /// benchmark removes it).
    pub recheck_scans: u64,
    /// Always 0: the k-way block-max engine is gone. Kept only because
    /// the benchmark in `trackbench/` reads it; a later change to the
    /// benchmark removes it.
    pub blockmax_intersections: u64,
    /// Always 0: the engine visits every live segment, since no segment
    /// score bound remains to stop a scan early. Kept only because the
    /// benchmark in `trackbench/` reads it; a later change to the
    /// benchmark removes it.
    pub early_exits: u64,
    /// Always 0, like [`EvalStats::early_exits`] (read by the benchmark;
    /// a later change to the benchmark removes it).
    pub segments_skipped: u64,
    /// Always 0, like [`EvalStats::blockmax_intersections`] (read by the
    /// benchmark; a later change to the benchmark removes it).
    pub blocks_scanned: u64,
    /// Always 0, like [`EvalStats::blockmax_intersections`] (read by the
    /// benchmark; a later change to the benchmark removes it).
    pub blocks_skipped: u64,
    /// Always 0, like [`EvalStats::blockmax_intersections`] (read by the
    /// benchmark; a later change to the benchmark removes it).
    pub pivot_advances: u64,
}

/// Counters describing the query memo's lifecycle: what admission let
/// in, what patching had to drop, and what the admission policy evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries admitted into the memo, counting a full evaluation that
    /// replaced a count-only entry.
    pub insertions: u64,
    /// Entries a row change could not keep exact: an overflow page lost
    /// a member or a member's score fell. A count-only entry is never
    /// dropped.
    pub invalidated: u64,
    /// Entries alive after each incremental mutation, summed over
    /// mutations (an entry outliving `n` mutations counts `n` times —
    /// the "warm rounds saved" currency).
    pub retained: u64,
    /// Entries evicted by the bounded admission (CLOCK) policy.
    pub evicted: u64,
    /// Whole-memo clears: `set_k` drops every entry.
    pub wholesale_clears: u64,
    /// Fingerprints the patch walks probed: one per cached query shape
    /// (the set of attributes a query constrains) per row change.
    pub shape_probes: u64,
    /// Entries the patch walks patched: one per cached query a changed
    /// row satisfied, counting those the patch then dropped.
    pub patched: u64,
    /// Always 0: patching replaced stale-entry revalidation. Kept only
    /// because the benchmark in `trackbench/` reads it; a later change to
    /// the benchmark removes it.
    pub demoted: u64,
    /// Always 0, like [`MemoStats::demoted`] (read by the benchmark; a
    /// later change to the benchmark removes it).
    pub resurrected: u64,
    /// Always 0, like [`MemoStats::demoted`] (read by the benchmark; a
    /// later change to the benchmark removes it).
    pub revalidation_failed: u64,
}

/// Counters of the snapshot memos of a [`crate::service::DbService`],
/// summed over its sessions and snapshots. A snapshot's rows never
/// change, so its memo is never patched: there is no invalidation to
/// count, only lookups, admissions and the entries dropped with a
/// superseded snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedMemoStats {
    /// Lookups answered from a snapshot's memo.
    pub hits: u64,
    /// Lookups that fell through to snapshot evaluation.
    pub misses: u64,
    /// Entries admitted, counting a full evaluation that replaced a
    /// count-only entry. Two sessions that miss on the same query
    /// together admit it once.
    pub insertions: u64,
    /// Entries a snapshot's memo held when the next epoch was published.
    pub retired: u64,
}

impl SharedMemoStats {
    /// Fraction of lookups served from the shared cache, in `[0,1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate() {
        let mut s = InterfaceStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.answered = 4;
        s.cache_hits = 1;
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-12);
    }
}
