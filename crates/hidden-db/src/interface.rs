//! The restrictive search interface: outcome classification and the
//! evaluation engine behind it.
//!
//! Per §2.1, a query returns at most `k` tuples. We classify:
//! * **underflow** — no tuple matches (empty result page);
//! * **valid** — between 1 and `k` tuples match; all are returned;
//! * **overflow** — more than `k` match; only the top-`k` by the hidden
//!   scoring function are returned, with a "more results" indicator.
//!
//! Crucially the interface does **not** disclose the matching count — the
//! whole point of the paper is estimating aggregates without it.
//!
//! ## Evaluation is streaming and allocation-lean
//!
//! The engine (`database::evaluate_query`) offers each set bit of a
//! segment's bitmap AND straight to the top-`k` heap, so no
//! intermediate `Vec<Slot>` of candidates is ever materialised.
//! A result page is copied into one flat [`Page`] at most once per cache
//! entry and version of its answer, and shared behind an `Arc`, so
//! repeated (memoised) answers to the same query cost one atomic
//! increment. The memo patches cached answers in place as rows change
//! (see the `memo` module's docs) and drops a shared page whenever
//! its slots or one of their measures change, so a page is only ever
//! served while it matches the store.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::query::ConjunctiveQuery;
use crate::store::{Slot, StoreCore};
use crate::tuple::{Page, Rows};
use crate::value::TupleKey;

/// The classification of an answer, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// No tuple matched.
    Underflow,
    /// 1..=k tuples matched; the page is complete.
    Valid,
    /// More than `k` matched; the page is truncated.
    Overflow,
}

/// The interface's answer to one search query.
///
/// Result pages are shared (`Arc`) with the database's memo cache:
/// cloning an outcome, and re-asking a memoised query, are O(1).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// No tuple matched.
    Underflow,
    /// All matching tuples (1..=k of them), ranked best-first.
    Valid(Arc<Page>),
    /// More than `k` tuples matched; the top-`k` by hidden score,
    /// best-first.
    Overflow(Arc<Page>),
}

impl QueryOutcome {
    /// Whether the query overflowed (returned a truncated page).
    pub fn is_overflow(&self) -> bool {
        matches!(self, Self::Overflow(_))
    }

    /// Whether the query underflowed (empty page).
    pub fn is_underflow(&self) -> bool {
        matches!(self, Self::Underflow)
    }

    /// Whether the query is valid (complete, non-empty page).
    pub fn is_valid(&self) -> bool {
        matches!(self, Self::Valid(_))
    }

    /// The outcome's classification, without the payload.
    pub fn class(&self) -> OutcomeClass {
        match self {
            Self::Underflow => OutcomeClass::Underflow,
            Self::Valid(_) => OutcomeClass::Valid,
            Self::Overflow(_) => OutcomeClass::Overflow,
        }
    }

    /// The returned tuples, best-first (none for underflow).
    pub fn tuples(&self) -> Rows<'_> {
        match self {
            Self::Underflow => Rows::empty(),
            Self::Valid(page) | Self::Overflow(page) => page.iter(),
        }
    }

    /// Keys of the returned tuples, best-first — for callers that only
    /// need identity (drill bookkeeping), not values or measures.
    pub fn keys(&self) -> impl Iterator<Item = TupleKey> + '_ {
        self.tuples().map(|t| t.key())
    }

    /// Number of returned tuples (NOT the matching count for overflows).
    pub fn returned_count(&self) -> usize {
        self.tuples().len()
    }
}

/// Raw evaluation result kept in the memo cache: the classification,
/// the page slots, the match count, and (lazily) the flat page shared
/// with every outcome handed out for this entry. The memo patches it in
/// place as rows change (see [`crate::memo`]).
#[derive(Debug, Clone)]
pub(crate) struct CachedEval {
    /// More than `k` tuples match; the page is truncated.
    pub(crate) overflow: bool,
    /// Result slots, best-first by `(score, slot)`. For overflow: exactly
    /// `k`. For valid: all matches. For underflow: empty.
    pub(crate) slots: Vec<Slot>,
    /// Exact matching-tuple count (`> k` iff `overflow`). Internal only —
    /// the search interface never discloses it.
    pub(crate) matched: usize,
    /// Flat page of `slots`, filled on first demand and dropped whenever
    /// a patch changes the slots or one of their measures.
    pub(crate) page: Option<Arc<Page>>,
}

impl CachedEval {
    /// An evaluation whose page is `slots`, counting one off-page match
    /// when it overflows.
    pub(crate) fn new(overflow: bool, slots: Vec<Slot>) -> Self {
        let matched = slots.len() + usize::from(overflow);
        Self { overflow, slots, matched, page: None }
    }

    /// The outcome, copying the page on first use and sharing it on every
    /// subsequent cache hit.
    pub(crate) fn outcome(&mut self, store: &StoreCore) -> QueryOutcome {
        if self.slots.is_empty() {
            return QueryOutcome::Underflow;
        }
        let page = self.page.get_or_insert_with(|| Arc::new(store.page(&self.slots))).clone();
        if self.overflow {
            QueryOutcome::Overflow(page)
        } else {
            QueryOutcome::Valid(page)
        }
    }

    /// Checks what every memo hit relies on: the page members are alive,
    /// match `query`, and run best-first, and the class agrees with the
    /// count. Debug builds run it on every hit.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_consistent(&self, query: &ConjunctiveQuery, store: &StoreCore, k: usize) {
        assert_eq!(self.overflow, self.matched > k, "{query}: class disagrees with the count");
        let want = if self.overflow { k } else { self.matched };
        assert_eq!(self.slots.len(), want, "{query}: page size disagrees with the count");
        for &s in &self.slots {
            assert!(slot_matches(query, store, s), "{query}: page slot {s} no longer matches");
        }
        for w in self.slots.windows(2) {
            let key = |s: Slot| (store.score_at(s), s);
            assert!(key(w[0]) > key(w[1]), "{query}: page out of order");
        }
    }
}

/// Streaming top-`k` accumulator: the heart of query evaluation.
///
/// Candidates are [`TopK::offer`]ed one at a time (already verified to
/// match the query and be alive); the accumulator counts every match and
/// keeps the best `k` by `(score, slot)`. The page is the top `k` under
/// that total order, so it does not depend on the order candidates
/// arrive in, and the count is exact because every match is offered.
pub(crate) struct TopK {
    heap: BinaryHeap<Reverse<(u64, Slot)>>,
    k: usize,
    matched: usize,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(k), k, matched: 0 }
    }

    /// Accounts one matching candidate. The floor gate: once the heap
    /// holds `k` entries, a candidate replaces the heap top (the current
    /// floor) only when its `(score, slot)` beats it, so most candidates
    /// of a large scan cost one comparison.
    #[inline]
    pub(crate) fn offer(&mut self, score: u64, slot: Slot) {
        self.matched += 1;
        if self.heap.len() < self.k {
            self.heap.push(Reverse((score, slot)));
        } else if let Some(mut floor) = self.heap.peek_mut() {
            if (score, slot) > floor.0 {
                *floor = Reverse((score, slot));
            }
        }
    }

    /// Materialises the evaluation: page slots best-first, plus the
    /// match count the memo patches.
    pub(crate) fn finish(self) -> CachedEval {
        let mut entries = self.heap.into_vec();
        // Best-first: by score descending, ties by slot.
        entries.sort_unstable();
        let slots = entries.into_iter().map(|Reverse((_, s))| s).collect();
        let mut eval = CachedEval::new(self.matched > self.k, slots);
        eval.matched = self.matched;
        eval
    }
}

/// Whether the (possibly stale) candidate at `slot` is alive and satisfies
/// every predicate, read through one segment view. Only the debug-build
/// memo check and the tests ask it: the engine's bitmaps answer it for
/// whole segments at once.
#[cfg(any(test, debug_assertions))]
pub(crate) fn slot_matches(query: &ConjunctiveQuery, store: &StoreCore, slot: Slot) -> bool {
    let (seg, off) = crate::store::locate(slot);
    let data = store.seg_view(seg);
    data.alive[off] && row_matches(query, data.value_row(off))
}

/// Whether a tuple whose value codes are `row` satisfies every predicate.
#[inline]
pub(crate) fn row_matches(query: &ConjunctiveQuery, row: &[u32]) -> bool {
    query.predicates().iter().all(|p| row[p.attr.index()] == p.value.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::store::Store;
    use crate::tuple::Tuple;
    use crate::value::{AttrId, TupleKey, ValueId};

    fn store_with(n: u64) -> Store {
        let mut s = Store::new(1, 0);
        for key in 0..n {
            s.insert(
                Tuple::new(TupleKey(key), vec![ValueId((key % 2) as u32)], vec![]),
                // score = key so ranking is transparent in tests
                key,
            )
            .unwrap();
        }
        s
    }

    /// Offers every allocated slot that [`slot_matches`] `q` to a
    /// [`TopK`], in slot order.
    fn eval_all(q: &ConjunctiveQuery, store: &Store, k: usize) -> CachedEval {
        let mut topk = TopK::new(k);
        for slot in (0..store.slot_bound()).filter(|&slot| slot_matches(q, store, slot)) {
            topk.offer(store.score_at(slot), slot);
        }
        topk.finish()
    }

    #[test]
    fn underflow_valid_overflow_classification() {
        let store = store_with(5); // A0 values: 0,1,0,1,0
        let root = ConjunctiveQuery::select_all();
        let r = eval_all(&root, &store, 10);
        assert!(!r.overflow);
        assert_eq!(r.slots.len(), 5);

        let r = eval_all(&root, &store, 3);
        assert!(r.overflow);
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.matched, 5, "the count covers off-page matches too");

        let none = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(1))]);
        let empty = Store::new(1, 0);
        let r = eval_all(&none, &empty, 3);
        assert!(!r.overflow);
        assert!(r.slots.is_empty());
        assert_eq!(r.matched, 0);
    }

    #[test]
    fn overflow_returns_top_k_by_score() {
        let store = store_with(10);
        let root = ConjunctiveQuery::select_all();
        let r = eval_all(&root, &store, 4);
        assert!(r.overflow);
        // Scores are the keys; best-first means keys 9,8,7,6.
        let keys: Vec<u64> = r.slots.iter().map(|&s| store.key_at(s).0).collect();
        assert_eq!(keys, vec![9, 8, 7, 6]);
    }

    #[test]
    fn valid_results_are_ranked_best_first_too() {
        let store = store_with(6);
        let q = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        let r = eval_all(&q, &store, 10);
        assert!(!r.overflow);
        let keys: Vec<u64> = r.slots.iter().map(|&s| store.key_at(s).0).collect();
        assert_eq!(keys, vec![4, 2, 0]);
    }

    #[test]
    fn boundary_exactly_k_matches_is_valid() {
        let store = store_with(4);
        let root = ConjunctiveQuery::select_all();
        let r = eval_all(&root, &store, 4);
        assert!(!r.overflow, "count == k must be valid, not overflow");
        assert_eq!(r.slots.len(), 4);
        let r = eval_all(&root, &store, 3);
        assert!(r.overflow, "count == k+1 must overflow");
    }

    #[test]
    fn dead_slots_are_ignored() {
        let mut store = store_with(4);
        store.delete(TupleKey(3)).unwrap();
        let r = eval_all(&ConjunctiveQuery::select_all(), &store, 10);
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.matched, 3);
    }

    #[test]
    fn outcome_materialisation() {
        let store = store_with(2);
        let mut r = eval_all(&ConjunctiveQuery::select_all(), &store, 10);
        let out = r.outcome(&store);
        assert!(out.is_valid());
        assert_eq!(out.class(), OutcomeClass::Valid);
        assert_eq!(out.returned_count(), 2);
        assert_eq!(out.tuples().next().unwrap().key(), TupleKey(1));
        assert_eq!(out.keys().collect::<Vec<_>>(), vec![TupleKey(1), TupleKey(0)]);

        let mut r = CachedEval::new(false, vec![]);
        let o = r.outcome(&store);
        assert!(o.is_underflow());
        assert_eq!(o.class(), OutcomeClass::Underflow);
    }

    #[test]
    fn repeated_outcomes_share_one_materialisation() {
        let store = store_with(3);
        let mut r = eval_all(&ConjunctiveQuery::select_all(), &store, 10);
        let a = r.outcome(&store);
        let b = r.outcome(&store);
        let (QueryOutcome::Valid(va), QueryOutcome::Valid(vb)) = (&a, &b) else {
            panic!("expected valid outcomes");
        };
        assert!(Arc::ptr_eq(va, vb), "cache hits must share the page");
    }
}
