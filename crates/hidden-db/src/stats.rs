//! Interface-side counters, useful for experiments and benches.

use crate::interface::QueryOutcome;

/// Counters describing the traffic a database has served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterfaceStats {
    /// Total queries answered (including memoised ones).
    pub answered: u64,
    /// Queries that overflowed.
    pub overflows: u64,
    /// Queries answered with a complete (valid) page.
    pub valids: u64,
    /// Queries that underflowed.
    pub underflows: u64,
    /// Answers served from the memo: the database's own, patched as its
    /// rows change, or a service snapshot's.
    pub cache_hits: u64,
}

impl InterfaceStats {
    /// Counts one answer: its class, and whether the memo served it.
    pub(crate) fn count_answer(&mut self, out: &QueryOutcome, cache_hit: bool) {
        self.answered += 1;
        self.cache_hits += u64::from(cache_hit);
        match out {
            QueryOutcome::Underflow => self.underflows += 1,
            QueryOutcome::Valid(_) => self.valids += 1,
            QueryOutcome::Overflow(_) => self.overflows += 1,
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
    /// Entries admitted into the memo.
    pub insertions: u64,
    /// Entries a row change could not keep exact: an overflow page lost
    /// a member or a member's score fell.
    pub invalidated: u64,
    /// Entries alive after each incremental mutation, summed over
    /// mutations (an entry outliving `n` mutations counts `n` times —
    /// the "warm rounds saved" currency).
    pub retained: u64,
    /// Entries evicted by the bounded admission (CLOCK) policy.
    pub evicted: u64,
    /// Whole-memo clears: `set_k` drops every entry.
    pub wholesale_clears: u64,
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
    /// Entries admitted. Two sessions that miss on the same query
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

/// Counters describing the persistence tier's paging activity
/// ([`crate::database::HiddenDatabase::persist_stats`]). All zeros when
/// no tier is attached. Like the eval counters these are observability,
/// not semantics: paging never changes an answer bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Segments written back and evicted from the writer's in-core set.
    pub segments_spilled: u64,
    /// Segments read back from the region file (write-path reclaims and
    /// read-path cache misses; cache hits don't count).
    pub segments_faulted: u64,
    /// Entries dropped from the pager's read cache by its CLOCK sweep.
    pub evictions: u64,
    /// Bytes occupied by the region file (header + every region ever
    /// written).
    pub bytes_on_disk: u64,
    /// Segments in memory right now (writer in-core + read cache).
    pub resident_segments: u64,
    /// High-water mark of `resident_segments`;
    /// `tests/persistence.rs::paged_databases_are_bit_identical_to_in_ram`
    /// asserts it stays within the budget.
    pub peak_resident_segments: u64,
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
