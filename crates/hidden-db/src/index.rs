//! Inverted index: for every (attribute, value) pair, the posting list of
//! slots whose tuple carries that value.
//!
//! Deletions are *lazy*: a deleted slot stays in its posting lists as a
//! tombstone (queries filter through the store's alive bitset anyway, and
//! slot reuse overwrites columns, so stale entries are detected by
//! re-checking the column value). Each list compacts itself when tombstones
//! exceed `COMPACT_DEAD_FRACTION` of its length, keeping amortised update
//! cost O(1) while bounding scan waste.
//!
//! ## Sorted lists and segment runs
//!
//! Posting lists are kept **slot-sorted** lazily: appends that arrive in
//! ascending slot order (the common case — fresh slots grow monotonically)
//! keep the list sorted for free; an out-of-order append (slot reuse) just
//! marks the list dirty, and the next caller that needs sorted access pays
//! one `sort + dedup` ([`InvertedIndex::ensure_sorted`]). A sorted list
//! carries *segment run* metadata — for every store segment with at least
//! one posting, the offset where its run begins — which is what the
//! evaluation engine uses to (a) skip segments wholesale, (b) drive
//! per-segment bitset intersection, and (c) visit a list's segments in
//! descending max-score order for early-exit top-`k` scans. Sorted order
//! also guarantees duplicate postings (a slot freed and re-filled with the
//! same value while its stale posting survived) are **adjacent**, so
//! exactly-once candidate emission is a one-comparison skip instead of a
//! hash set.
//!
//! ## Snapshot sharing
//!
//! Each posting list lives behind an [`Arc`], so cloning the whole index
//! into an epoch snapshot is one reference-count bump per list; mutation
//! goes through [`Arc::make_mut`] (copy-on-write at list granularity).
//! Before a snapshot is published, [`InvertedIndex::ensure_all_sorted`]
//! pays any pending lazy sorts so snapshot readers never need `&mut`
//! access — a published list's run metadata is immutable.

use std::sync::Arc;

use crate::schema::Schema;
use crate::store::{segment_of, Slot, StoreCore};
use crate::value::{AttrId, ValueId};

/// A posting list compacts when dead entries exceed this fraction.
const COMPACT_DEAD_FRACTION: f64 = 0.4;

/// Minimum length before compaction is considered (avoids thrashing tiny
/// lists).
const COMPACT_MIN_LEN: usize = 64;

/// Above this many candidate postings, duplicate suppression switches
/// from a linear probe to a `HashSet` (a linear probe on a handful of
/// elements beats hashing; beyond that the O(n²) worst case bites).
#[cfg(test)]
const DEDUP_LINEAR_MAX: usize = 24;

/// Adaptive seen-set for duplicate suppression in
/// [`InvertedIndex::for_each_live`]. (Test-only since the sorted-list
/// engine took over the production scans: sorted order makes duplicates
/// adjacent, so exactly-once emission no longer needs a seen-set.)
#[cfg(test)]
enum SeenSlots {
    Small(Vec<Slot>),
    Large(std::collections::HashSet<Slot>),
}

#[cfg(test)]
impl SeenSlots {
    fn with_expected(candidates: usize) -> Self {
        if candidates <= DEDUP_LINEAR_MAX {
            Self::Small(Vec::with_capacity(candidates))
        } else {
            Self::Large(std::collections::HashSet::with_capacity(candidates))
        }
    }

    /// Records `slot`; returns whether it was new.
    #[inline]
    fn insert(&mut self, slot: Slot) -> bool {
        match self {
            Self::Small(v) => {
                if v.contains(&slot) {
                    false
                } else {
                    v.push(slot);
                    true
                }
            }
            Self::Large(set) => set.insert(slot),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct PostingList {
    /// Slots that at some point carried the value. May contain tombstones.
    pub(crate) slots: Vec<Slot>,
    /// Upper bound on tombstones in `slots`.
    pub(crate) dead: usize,
    /// Whether `slots` is sorted ascending (duplicates adjacent). Appends
    /// in ascending order preserve it; slot-reuse appends clear it.
    pub(crate) sorted: bool,
    /// Segment runs over `slots`, valid only while `sorted`: one
    /// `(segment, start offset)` per store segment with ≥ 1 posting; the
    /// run ends where the next one starts (or at `slots.len()`).
    pub(crate) runs: Vec<(u32, u32)>,
}

impl PostingList {
    #[inline]
    fn live_len_estimate(&self) -> usize {
        self.slots.len().saturating_sub(self.dead)
    }

    /// Appends a posting, keeping `sorted`/`runs` coherent.
    #[inline]
    fn push(&mut self, slot: Slot) {
        if self.sorted || self.slots.is_empty() {
            match self.slots.last() {
                Some(&last) if slot < last => {
                    self.sorted = false;
                    self.runs.clear();
                }
                _ => {
                    let seg = segment_of(slot) as u32;
                    if self.runs.last().map(|&(s, _)| s) != Some(seg) {
                        self.runs.push((seg, self.slots.len() as u32));
                    }
                    self.sorted = true;
                }
            }
        }
        self.slots.push(slot);
    }

    /// Sorts + dedupes and rebuilds the run metadata (no-op when sorted).
    fn ensure_sorted(&mut self) {
        if self.sorted {
            return;
        }
        self.slots.sort_unstable();
        self.slots.dedup();
        self.dead = self.dead.min(self.slots.len());
        self.rebuild_runs();
        self.sorted = true;
    }

    /// Whether `sorted` and `runs` tell the truth about `slots`: a dirty
    /// list has no runs, a sorted one ascends and carries exactly its
    /// derived runs. Scans slice `slots` by these offsets, so restored
    /// lists must pass this first.
    pub(crate) fn is_coherent(&self) -> bool {
        if self.sorted {
            self.slots.is_sorted() && self.runs.iter().copied().eq(segment_runs(&self.slots))
        } else {
            self.runs.is_empty()
        }
    }

    fn rebuild_runs(&mut self) {
        self.runs.clear();
        self.runs.extend(segment_runs(&self.slots));
    }
}

/// `(segment, start offset)` of every segment run in slot-sorted `slots`.
fn segment_runs(slots: &[Slot]) -> impl Iterator<Item = (u32, u32)> + '_ {
    slots.iter().enumerate().filter_map(|(i, &s)| {
        let seg = segment_of(s);
        (i == 0 || segment_of(slots[i - 1]) != seg).then_some((seg as u32, i as u32))
    })
}

/// Read-only view of one slot-sorted posting list: the slots plus their
/// per-segment skip metadata. Handed out by
/// [`InvertedIndex::sorted_postings`] after an
/// [`InvertedIndex::ensure_sorted`] pass.
#[derive(Debug, Clone, Copy)]
pub struct SortedPostings<'a> {
    slots: &'a [Slot],
    runs: &'a [(u32, u32)],
}

impl<'a> SortedPostings<'a> {
    /// All postings, ascending by slot (duplicates, if any, adjacent).
    pub fn slots(&self) -> &'a [Slot] {
        self.slots
    }

    /// Number of postings (including tombstones and duplicates).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the list has no postings at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates `(segment, run)` pairs in ascending segment order, where
    /// `run` is the sub-slice of postings falling in that segment.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &'a [Slot])> + '_ {
        self.runs.iter().enumerate().map(move |(i, &(seg, start))| {
            let end = self.runs.get(i + 1).map_or(self.slots.len(), |&(_, s)| s as usize);
            (seg as usize, &self.slots[start as usize..end])
        })
    }

    /// The run of postings in `seg`, empty if the list has none there.
    pub fn run_in(&self, seg: usize) -> &'a [Slot] {
        match self.runs.binary_search_by_key(&(seg as u32), |&(s, _)| s) {
            Ok(i) => {
                let start = self.runs[i].1 as usize;
                let end = self.runs.get(i + 1).map_or(self.slots.len(), |&(_, s)| s as usize);
                &self.slots[start..end]
            }
            Err(_) => &[],
        }
    }
}

/// Exponential ("galloping") search: the smallest index `>= from` whose
/// slot is `>= target`. O(log d) in the distance `d` advanced, which is
/// what makes small∩large intersections cost `O(small · log large)`.
pub fn gallop_to(slots: &[Slot], from: usize, target: Slot) -> usize {
    if from >= slots.len() || slots[from] >= target {
        return from;
    }
    // Invariant: slots[lo] < target. Gallop hi outward until it crosses.
    let mut lo = from;
    let mut step = 1usize;
    let hi = loop {
        let hi = lo + step;
        if hi >= slots.len() {
            break slots.len();
        }
        if slots[hi] >= target {
            break hi;
        }
        lo = hi;
        step <<= 1;
    };
    // First index in (lo, hi] with slots[idx] >= target.
    lo + 1 + slots[lo + 1..hi].partition_point(|&s| s < target)
}

/// What one budgeted [`InvertedIndex::maintain`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMaintenance {
    /// Posting lists rewritten (tombstones purged, runs rebuilt).
    pub lists_compacted: usize,
    /// Postings examined across all compacted lists.
    pub postings_scanned: usize,
    /// Tombstoned/duplicate postings removed.
    pub postings_purged: usize,
    /// Whether the sweep stopped because the budget ran out.
    pub exhausted: bool,
}

/// Inverted index over all (attribute, value) pairs of a schema.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// `lists[a]` has one `Arc`-shared posting list per value of
    /// attribute `a`; snapshots clone the `Arc`s, mutation copies on
    /// write.
    lists: Vec<Vec<Arc<PostingList>>>,
}

impl InvertedIndex {
    /// Creates an empty index shaped after `schema`.
    pub fn new(schema: &Schema) -> Self {
        // All empty lists share one allocation until first written.
        let empty = Arc::new(PostingList::default());
        let lists = schema
            .attr_ids()
            .map(|a| vec![Arc::clone(&empty); schema.domain_size(a) as usize])
            .collect();
        Self { lists }
    }

    /// Registers a freshly inserted tuple.
    ///
    /// `values` are the tuple's value codes in schema order. If the slot was
    /// reused, old postings pointing at it become self-healing tombstones:
    /// they are filtered out on scan because the column no longer matches.
    pub fn insert(&mut self, slot: Slot, values: &[ValueId]) {
        for (a, &v) in values.iter().enumerate() {
            Arc::make_mut(&mut self.lists[a][v.index()]).push(slot);
        }
    }

    /// Notes the deletion of `slot` (which carried `values`), updating
    /// tombstone counters and compacting lists that crossed the threshold.
    pub fn delete(&mut self, slot: Slot, values: &[ValueId], store: &StoreCore) {
        for (a, &v) in values.iter().enumerate() {
            let list = Arc::make_mut(&mut self.lists[a][v.index()]);
            list.dead += 1;
            let len = list.slots.len();
            if len >= COMPACT_MIN_LEN && (list.dead as f64) > COMPACT_DEAD_FRACTION * len as f64 {
                Self::compact(list, a, v, store);
            }
        }
        let _ = slot; // identity not needed: compaction revalidates by value.
    }

    fn compact(list: &mut PostingList, attr_idx: usize, value: ValueId, store: &StoreCore) {
        list.slots.retain(|&s| store.is_alive(s) && store.value_at(attr_idx, s) == value.0);
        list.slots.sort_unstable();
        list.slots.dedup();
        list.dead = 0;
        list.rebuild_runs();
        list.sorted = true;
    }

    /// Budgeted maintenance sweep: compacts every posting list that
    /// carries tombstones or slot-reuse dirt — purging dead entries and
    /// rebuilding the segment-run skip metadata — in deterministic
    /// `(attr, value)` order until `budget` postings have been scanned.
    /// Lists below the reactive [`COMPACT_DEAD_FRACTION`] threshold get
    /// cleaned here too: under sustained churn no single list may ever
    /// cross the threshold while the *sum* of tombstones keeps every
    /// scan paying rent.
    ///
    /// Purely an index rewrite — scans already filter tombstones through
    /// the store, so query answers are bit-identical before and after
    /// (pinned by `compaction_oracle_proptest`).
    pub fn maintain(&mut self, store: &StoreCore, budget: &mut usize) -> IndexMaintenance {
        let mut report = IndexMaintenance::default();
        for (a, attr_lists) in self.lists.iter_mut().enumerate() {
            for (v, list) in attr_lists.iter_mut().enumerate() {
                if list.dead == 0 && (list.sorted || list.slots.is_empty()) {
                    continue;
                }
                let cost = list.slots.len();
                if cost > *budget {
                    // Skip (don't abort): one oversized list must not
                    // starve every smaller dirty list after it — those
                    // would otherwise pay tombstone-scan rent forever
                    // while the budget went unspent.
                    report.exhausted = true;
                    continue;
                }
                *budget -= cost;
                let list = Arc::make_mut(list);
                let before = list.slots.len();
                Self::compact(list, a, ValueId(v as u32), store);
                report.lists_compacted += 1;
                report.postings_scanned += before;
                report.postings_purged += before - list.slots.len();
            }
        }
        report
    }

    /// Estimated number of live postings for `(attr, value)` — an upper
    /// bound used to pick the cheapest list to drive an intersection.
    pub fn estimated_len(&self, attr: AttrId, value: ValueId) -> usize {
        self.lists[attr.index()][value.index()].live_len_estimate()
    }

    /// Sorts the posting list for `(attr, value)` if an out-of-order
    /// append (slot reuse) left it dirty. Amortised cost: appends are
    /// ascending in the common case, so this is usually a flag check.
    pub fn ensure_sorted(&mut self, attr: AttrId, value: ValueId) {
        let list = &mut self.lists[attr.index()][value.index()];
        // Guard before `make_mut`: a clean list must not be copied just
        // to discover there is nothing to do.
        if !list.sorted && !list.slots.is_empty() {
            Arc::make_mut(list).ensure_sorted();
        }
    }

    /// Pays every pending lazy sort in the index, in deterministic
    /// `(attr, value)` order. Called right before an epoch snapshot is
    /// published so snapshot readers can use [`sorted_postings`]
    /// (`&self`) without ever needing a mutable sort pass.
    ///
    /// [`sorted_postings`]: InvertedIndex::sorted_postings
    pub fn ensure_all_sorted(&mut self) {
        for attr_lists in &mut self.lists {
            for list in attr_lists.iter_mut() {
                if !list.sorted && !list.slots.is_empty() {
                    Arc::make_mut(list).ensure_sorted();
                }
            }
        }
    }

    /// Sorted view of the posting list for `(attr, value)` with its
    /// segment-run skip metadata. Call [`InvertedIndex::ensure_sorted`]
    /// first; panics (debug) if the list is dirty.
    pub fn sorted_postings(&self, attr: AttrId, value: ValueId) -> SortedPostings<'_> {
        let list = &self.lists[attr.index()][value.index()];
        debug_assert!(
            list.sorted || list.slots.is_empty(),
            "sorted_postings on a dirty list — call ensure_sorted first"
        );
        SortedPostings { slots: &list.slots, runs: &list.runs }
    }

    /// Scans the posting list for `(attr, value)`, invoking `f` for every
    /// slot that is alive *and still carries the value* (tombstone-safe),
    /// each exactly once.
    ///
    /// Duplicates can only arise when a slot appears twice in one list:
    /// that happens iff the slot was freed and re-inserted with the same
    /// value while the stale posting was still present (both postings then
    /// pass re-validation). A list with no recorded tombstones cannot hold
    /// duplicates, so the common case pays nothing. When duplicates are
    /// possible, suppression is a linear probe for short lists and a
    /// `HashSet` beyond [`DEDUP_LINEAR_MAX`] — the previous
    /// `Vec::contains` scheme degraded to O(n²) on long tombstoned lists.
    ///
    /// (Test-only since the segment engine took over the production
    /// scans; the tests keep it as an order-insensitive reference for
    /// the sorted-run paths.)
    #[cfg(test)]
    pub fn for_each_live(
        &self,
        attr: AttrId,
        value: ValueId,
        store: &StoreCore,
        mut f: impl FnMut(Slot),
    ) {
        let list = &self.lists[attr.index()][value.index()];
        if list.dead == 0 {
            for &s in &list.slots {
                if store.is_alive(s) && store.value_at(attr.index(), s) == value.0 {
                    f(s);
                }
            }
            return;
        }
        // Size the seen-set by the *live* estimate, not the raw list
        // length: on a heavily tombstoned list (dead ≈ 40 % right before
        // compaction) sizing by `slots.len()` over-allocated the `HashSet`
        // by almost half, and could pick the hash path when the live
        // candidate count actually fits the cheaper linear probe.
        let mut seen = SeenSlots::with_expected(list.live_len_estimate());
        for &s in &list.slots {
            if store.is_alive(s) && store.value_at(attr.index(), s) == value.0 && seen.insert(s) {
                f(s);
            }
        }
    }

    /// Every posting list that differs from the default empty state, as
    /// `(attr index, value index, list)` in deterministic `(attr, value)`
    /// order — the codec's snapshot walk. Lists are persisted *verbatim*
    /// (tombstones, dirty flags, run directories and all) so a restored
    /// index is byte-equivalent to the snapshotted one and evolves
    /// identically from there.
    pub(crate) fn lists_for_snapshot(
        &self,
    ) -> impl Iterator<Item = (usize, usize, &PostingList)> + '_ {
        self.lists.iter().enumerate().flat_map(|(a, attr_lists)| {
            attr_lists.iter().enumerate().filter_map(move |(v, list)| {
                let nontrivial = !list.slots.is_empty() || list.dead > 0 || !list.runs.is_empty();
                nontrivial.then_some((a, v, &**list))
            })
        })
    }

    /// Rebuilds an index from restored snapshot lists (codec v3). Lists
    /// not named keep the shared default-empty state, exactly as
    /// [`InvertedIndex::new`] makes them.
    pub(crate) fn from_restored(schema: &Schema, lists: Vec<(usize, usize, PostingList)>) -> Self {
        let mut idx = Self::new(schema);
        for (a, v, list) in lists {
            idx.lists[a][v] = Arc::new(list);
        }
        idx
    }

    /// Fully rebuilds the index from the store (used by tests and after
    /// bulk loads).
    pub fn rebuild(&mut self, store: &StoreCore) {
        for attr_lists in &mut self.lists {
            for list in attr_lists.iter_mut() {
                if list.slots.is_empty() && list.runs.is_empty() && list.dead == 0 {
                    continue;
                }
                let list = Arc::make_mut(list);
                list.slots.clear();
                list.runs.clear();
                list.dead = 0;
                list.sorted = false;
            }
        }
        for slot in store.alive_slots() {
            for (a, attr_lists) in self.lists.iter_mut().enumerate() {
                let v = store.value_at(a, slot);
                Arc::make_mut(&mut attr_lists[v as usize]).push(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::tuple::Tuple;
    use crate::value::TupleKey;

    fn setup() -> (Schema, Store, InvertedIndex) {
        let schema = Schema::with_domain_sizes(&[2, 3], &[]).unwrap();
        let store = Store::new(2, 0);
        let index = InvertedIndex::new(&schema);
        (schema, store, index)
    }

    fn ins(store: &mut Store, index: &mut InvertedIndex, key: u64, vals: &[u32]) -> Slot {
        let values: Vec<ValueId> = vals.iter().map(|&v| ValueId(v)).collect();
        let slot = store.insert(Tuple::new(TupleKey(key), values.clone(), vec![]), key).unwrap();
        index.insert(slot, &values);
        slot
    }

    fn collect(index: &InvertedIndex, store: &Store, a: u16, v: u32) -> Vec<Slot> {
        let mut out = Vec::new();
        index.for_each_live(AttrId(a), ValueId(v), store, |s| out.push(s));
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_then_scan() {
        let (_s, mut store, mut index) = setup();
        let s0 = ins(&mut store, &mut index, 1, &[0, 2]);
        let s1 = ins(&mut store, &mut index, 2, &[0, 1]);
        let _ = ins(&mut store, &mut index, 3, &[1, 2]);
        assert_eq!(collect(&index, &store, 0, 0), vec![s0, s1]);
        assert_eq!(collect(&index, &store, 1, 2).len(), 2);
        assert_eq!(collect(&index, &store, 1, 0), Vec::<Slot>::new());
    }

    #[test]
    fn delete_hides_tuple_without_compaction() {
        let (_s, mut store, mut index) = setup();
        let values = vec![ValueId(0), ValueId(1)];
        let slot = store.insert(Tuple::new(TupleKey(1), values.clone(), vec![]), 1).unwrap();
        index.insert(slot, &values);
        store.delete(TupleKey(1)).unwrap();
        index.delete(slot, &values, &store);
        assert!(collect(&index, &store, 0, 0).is_empty());
    }

    #[test]
    fn slot_reuse_with_different_value_is_filtered() {
        let (_s, mut store, mut index) = setup();
        let v_old = vec![ValueId(0), ValueId(0)];
        let slot = store.insert(Tuple::new(TupleKey(1), v_old.clone(), vec![]), 1).unwrap();
        index.insert(slot, &v_old);
        store.delete(TupleKey(1)).unwrap();
        index.delete(slot, &v_old, &store);
        // Reuse the same slot with a different A0 value.
        let v_new = vec![ValueId(1), ValueId(0)];
        let slot2 = store.insert(Tuple::new(TupleKey(2), v_new.clone(), vec![]), 2).unwrap();
        assert_eq!(slot, slot2);
        index.insert(slot2, &v_new);
        // Old posting for (A0,u0) must not resurrect the new occupant.
        assert!(collect(&index, &store, 0, 0).is_empty());
        assert_eq!(collect(&index, &store, 0, 1), vec![slot2]);
    }

    #[test]
    fn slot_reuse_with_same_value_does_not_duplicate() {
        let (_s, mut store, mut index) = setup();
        let vals = vec![ValueId(1), ValueId(2)];
        let slot = store.insert(Tuple::new(TupleKey(1), vals.clone(), vec![]), 1).unwrap();
        index.insert(slot, &vals);
        store.delete(TupleKey(1)).unwrap();
        index.delete(slot, &vals, &store);
        let slot2 = store.insert(Tuple::new(TupleKey(2), vals.clone(), vec![]), 2).unwrap();
        assert_eq!(slot, slot2);
        index.insert(slot2, &vals);
        // The stale and fresh postings both point at the same alive slot
        // carrying the same value; the scan must yield it exactly once.
        assert_eq!(collect(&index, &store, 0, 1), vec![slot2]);
    }

    #[test]
    fn heavily_tombstoned_list_dedups_through_the_small_probe() {
        // A list with many tombstones but few live entries must stay
        // exact now that the seen-set is sized by `live_len_estimate()`
        // (≤ DEDUP_LINEAR_MAX → the linear Vec probe) — including a
        // reused slot that appears twice and must surface once.
        let (_s, mut store, mut index) = setup();
        // 30 tuples in (A0,u1); delete 25 — under COMPACT_MIN_LEN, so no
        // compaction: 30 postings, 25 tombstones, live estimate 5.
        for key in 0..30u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        for key in 0..25u64 {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        }
        // Reuse a freed slot with the same value: its stale and fresh
        // postings both revalidate.
        let reused = ins(&mut store, &mut index, 100, &[1, 0]);
        let live = collect(&index, &store, 0, 1);
        assert_eq!(live.len(), 6);
        assert_eq!(live.iter().filter(|&&s| s == reused).count(), 1, "reused slot deduped");
    }

    #[test]
    fn compaction_keeps_results_correct() {
        let (_s, mut store, mut index) = setup();
        // Insert enough tuples into one list to trigger compaction.
        for key in 0..200u64 {
            ins(&mut store, &mut index, key, &[0, (key % 3) as u32]);
        }
        // Delete most of them.
        for key in 0..150u64 {
            let vals = vec![ValueId(0), ValueId((key % 3) as u32)];
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &vals, &store);
        }
        let live = collect(&index, &store, 0, 0);
        assert_eq!(live.len(), 50);
        for s in live {
            assert!(store.is_alive(s));
            assert!(store.key_at(s).0 >= 150);
        }
    }

    #[test]
    fn gallop_to_finds_lower_bounds() {
        let slots: Vec<Slot> = vec![2, 5, 5, 9, 14, 20, 33, 34, 90];
        for target in 0..100u32 {
            for from in 0..=slots.len() {
                let want = from + slots[from..].partition_point(|&s| s < target);
                assert_eq!(gallop_to(&slots, from, target), want, "target {target} from {from}");
            }
        }
        assert_eq!(gallop_to(&[], 0, 5), 0);
    }

    #[test]
    fn appends_keep_lists_sorted_and_runs_coherent() {
        let (_s, mut store, mut index) = setup();
        for key in 0..40u64 {
            ins(&mut store, &mut index, key, &[0, (key % 3) as u32]);
        }
        // Ascending appends: already sorted, no work needed.
        index.ensure_sorted(AttrId(0), ValueId(0));
        let view = index.sorted_postings(AttrId(0), ValueId(0));
        assert_eq!(view.len(), 40);
        assert!(view.slots().windows(2).all(|w| w[0] <= w[1]));
        let runs: Vec<(usize, usize)> = view.runs().map(|(seg, run)| (seg, run.len())).collect();
        assert_eq!(runs, vec![(0, 40)], "one segment at this size");
        assert_eq!(view.run_in(0).len(), 40);
        assert!(view.run_in(7).is_empty());
    }

    #[test]
    fn slot_reuse_dirties_then_resorts_with_adjacent_duplicates() {
        let (_s, mut store, mut index) = setup();
        for key in 0..10u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        // Free slot 3 and re-insert with the same value: the stale and
        // fresh postings must end up adjacent after the lazy sort.
        let slot = store.slot_of(TupleKey(3)).unwrap();
        store.delete(TupleKey(3)).unwrap();
        index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        let reused = ins(&mut store, &mut index, 99, &[1, 0]);
        assert_eq!(reused, slot);
        index.ensure_sorted(AttrId(0), ValueId(1));
        let view = index.sorted_postings(AttrId(0), ValueId(1));
        assert!(view.slots().windows(2).all(|w| w[0] <= w[1]));
        // dedup collapses the double posting entirely.
        assert_eq!(view.slots().iter().filter(|&&s| s == reused).count(), 1);
    }

    #[test]
    fn maintain_purges_tombstones_below_the_reactive_threshold() {
        let (_s, mut store, mut index) = setup();
        // 30 postings, 10 tombstones: under COMPACT_MIN_LEN and under the
        // dead fraction, so the reactive path never compacts this list.
        for key in 0..30u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        for key in 0..10u64 {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        }
        let live_before = collect(&index, &store, 0, 1);
        let mut budget = usize::MAX;
        let report = index.maintain(&store, &mut budget);
        assert!(report.lists_compacted >= 1);
        assert_eq!(report.postings_purged, 20, "10 from (A0,u1) and 10 from (A1,u0)");
        assert!(!report.exhausted);
        assert_eq!(collect(&index, &store, 0, 1), live_before, "scan results unchanged");
        // Everything clean: a second sweep finds no work.
        let report = index.maintain(&store, &mut budget);
        assert_eq!(report, IndexMaintenance::default());
        // A zero budget does nothing but report exhaustion when dirty.
        for key in 30..32u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        let slot = store.slot_of(TupleKey(30)).unwrap();
        store.delete(TupleKey(30)).unwrap();
        index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        let mut none = 0usize;
        let report = index.maintain(&store, &mut none);
        assert!(report.exhausted);
        assert_eq!(report.lists_compacted, 0);
    }

    /// Restored lists are checked against the run metadata scans slice
    /// by: a sorted list must ascend and carry exactly its derived runs,
    /// a dirty one none.
    #[test]
    fn coherence_matches_derived_runs() {
        let seg = crate::store::SEGMENT_SLOTS as Slot;
        let list = |slots: &[Slot], sorted: bool, runs: &[(u32, u32)]| PostingList {
            slots: slots.to_vec(),
            dead: 0,
            sorted,
            runs: runs.to_vec(),
        };
        assert!(list(&[], false, &[]).is_coherent());
        assert!(list(&[], true, &[]).is_coherent());
        assert!(list(&[1, 1, 5, seg + 2], true, &[(0, 0), (1, 3)]).is_coherent());
        assert!(list(&[5, 1], false, &[]).is_coherent());
        assert!(!list(&[5, 1], true, &[(0, 0)]).is_coherent(), "descending slots");
        assert!(!list(&[1], false, &[(0, 0)]).is_coherent(), "dirty list with runs");
        assert!(!list(&[1, seg], true, &[(0, 0), (1, 0)]).is_coherent(), "wrong offset");
        assert!(!list(&[1, seg], true, &[(0, 0)]).is_coherent(), "missing run");
        assert!(!list(&[1], true, &[(0, 0), (1, 1)]).is_coherent(), "extra run");
    }

    #[test]
    fn rebuild_matches_incremental() {
        let (schema, mut store, mut index) = setup();
        for key in 0..60u64 {
            ins(&mut store, &mut index, key, &[(key % 2) as u32, (key % 3) as u32]);
        }
        for key in (0..60u64).step_by(3) {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            let vals = vec![ValueId((key % 2) as u32), ValueId((key % 3) as u32)];
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &vals, &store);
        }
        let mut rebuilt = InvertedIndex::new(&schema);
        rebuilt.rebuild(&store);
        for a in 0..2u16 {
            for v in 0..schema.domain_size(AttrId(a)) {
                assert_eq!(
                    collect(&index, &store, a, v),
                    collect(&rebuilt, &store, a, v),
                    "mismatch at A{a}=u{v}"
                );
            }
        }
    }
}
