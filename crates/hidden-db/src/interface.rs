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
//! ## Reading the class alone, or the count
//!
//! A drill-down (§3.1) descends on the overflow flag alone: only its
//! terminal node's page feeds an estimate, and only a leaf, where every
//! attribute is fixed, can be a terminal that overflows. So an answer is
//! read one of three ways. A **page read**
//! ([`crate::session::SearchBackend::issue`],
//! [`crate::database::HiddenDatabase::answer`]) gets the whole answer. A
//! **class read** (`issue_unless_overflow`, `answer_unless_overflow`)
//! gets `None` for an overflow, with no page ranked or copied, and every
//! other answer in full. A **count read** (`issue_count`, `answer_count`)
//! gets `None` for an overflow and the number of tuples on the page
//! otherwise, with no page copied or built at all: a COUNT(*) estimate
//! needs only `|q|` of its terminal node. All three charge and count the
//! same; a caller that reads an overflow's rows must page-read it, and
//! one that reads any other page's rows must not count-read it.
//!
//! A class or count read that misses the memo counts the AND of the
//! query's bitmap rows segment by segment. A count read stops there: it
//! ranks nothing, reads no score, and leaves a count-only memo entry of
//! whatever class its count gives (see the `memo` module's docs), which
//! later count reads answer from. A class read also offers a segment's
//! matches to the top-`k` heap while the running count stays at most
//! `k`: a final count above `k` leaves a count-only entry, and a count of
//! `k` or less a full one, since every match was offered.
//!
//! ## Evaluation is streaming and allocation-lean
//!
//! The engine (`database::evaluate_query`) offers each set bit of a
//! segment's bitmap AND straight to the top-`k` heap, or only counts it
//! for a count read, so no intermediate `Vec<Slot>` of candidates is
//! ever materialised.
//! A result page is copied into one flat [`Page`] at most once per cache
//! entry and version of its answer, and shared behind an `Arc`, so
//! repeated (memoised) answers to the same query cost one atomic
//! increment. The memo patches cached answers in place as rows change
//! (see the `memo` module's docs). A patch that changes a page's slots
//! or one of their measures marks the shared page stale, so a page is
//! only ever served while it matches the store. The next read builds a
//! new page from the stale one: it copies the unchanged rows from it in
//! contiguous runs and reads from the store only the rows the patches
//! placed, at most one per patch of a `k`-row page. A page already
//! handed out is never changed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::query::ConjunctiveQuery;
use crate::store::{locate, Slot, StoreCore};
use crate::tuple::{Page, Rows, TupleView};
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

/// What the caller of one answer will read: the page, only whether the
/// query overflowed, or only how many tuples its page holds. A class
/// read gets every non-overflow answer in full (its page is the terminal
/// node's), so only an overflow can skip the page; a count read never
/// gets a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    /// The whole answer, page included.
    Page,
    /// The class alone when the query overflows, the whole answer
    /// otherwise.
    Class,
    /// The class alone when the query overflows, the page's size
    /// otherwise.
    Count,
}

impl Read {
    /// Whether this read needs an overflow's top `k`: only a page read
    /// does, so the other two count instead of ranking past `k`.
    pub(crate) fn ranks_overflow(self) -> bool {
        self == Read::Page
    }
}

/// One answer, in the form its [`Read`] asked for.
#[derive(Debug)]
pub(crate) enum Answer {
    /// The whole answer: every page read, and a class read that does not
    /// overflow.
    Outcome(QueryOutcome),
    /// The page size of a count read that does not overflow.
    Count(usize),
    /// An overflow read by class or by count: no page.
    Overflow,
}

impl Answer {
    /// The answer's classification.
    pub(crate) fn class(&self) -> OutcomeClass {
        match self {
            Answer::Outcome(out) => out.class(),
            Answer::Count(0) => OutcomeClass::Underflow,
            Answer::Count(_) => OutcomeClass::Valid,
            Answer::Overflow => OutcomeClass::Overflow,
        }
    }

    /// A page or class read's answer: `None` for an overflow read by
    /// class.
    pub(crate) fn outcome(self) -> Option<QueryOutcome> {
        match self {
            Answer::Outcome(out) => Some(out),
            Answer::Count(_) | Answer::Overflow => None,
        }
    }

    /// A count read's answer: `None` for an overflow.
    pub(crate) fn count(self) -> Option<usize> {
        match self {
            Answer::Count(n) => Some(n),
            Answer::Outcome(out) => (!out.is_overflow()).then(|| out.returned_count()),
            Answer::Overflow => None,
        }
    }
}

/// Raw evaluation result kept in the memo cache: the classification,
/// the page slots, the match count, and (lazily) the flat page shared
/// with every outcome handed out for this entry. The memo patches it in
/// place as rows change (see [`crate::memo`]).
///
/// A **count-only** entry is what a count read leaves, of any class, and
/// what a class read leaves for an overflow: its exact count and the
/// class that count gives, no slots and no page.
#[derive(Debug, Clone)]
pub(crate) struct CachedEval {
    /// More than `k` tuples match; the page is truncated.
    pub(crate) overflow: bool,
    /// Result slots, best-first by `(score, slot)`. For overflow: exactly
    /// `k`. For valid: all matches. For underflow, and on a count-only
    /// entry of any class: empty.
    pub(crate) slots: Vec<Slot>,
    /// Exact matching-tuple count (`> k` iff `overflow`). Internal only —
    /// the search interface never discloses it.
    pub(crate) matched: usize,
    /// The flat page of `slots`: copied on first demand, and shared until
    /// a patch changes the slots or one of their measures. The patch
    /// keeps the old copy, stale, until the next read builds the new one
    /// from it. Always absent on a count-only entry.
    pub(crate) page: PageCopy,
    /// An answer whose matches were counted, not ranked: only its class
    /// and count can be served.
    pub(crate) count_only: bool,
}

/// How far an entry's page has been copied.
#[derive(Debug, Clone, Default)]
pub(crate) enum PageCopy {
    /// Never copied, or dropped (see [`PageCopy::settle`]).
    #[default]
    Absent,
    /// The page of exactly the entry's slots, shared with every outcome
    /// handed out since it was copied.
    Current(Arc<Page>),
    /// A copy that patches have changed since.
    Stale(StalePage),
}

/// A page that patches made stale, with what the next read needs to
/// build the new page from it: the slot order it was copied in, and
/// every slot a patch placed on the page since (an insert, a measure
/// update, or a freed slot a matching insert refilled). A slot a patch
/// did not place still holds the row the stale page copied, and the
/// unplaced members keep their relative order: their `(score, slot)`
/// keys did not move.
#[derive(Debug, Clone)]
pub(crate) struct StalePage {
    /// The stale copy. Outcomes handed out may share it; it is never
    /// mutated.
    page: Arc<Page>,
    /// The slots `page` was copied from, best-first.
    slots: Vec<Slot>,
    /// Slots placed since, ascending and distinct: their rows are read
    /// from the store.
    placed: Vec<Slot>,
}

impl PageCopy {
    /// Called before a patch edits the page members `slots`: a current
    /// copy goes stale, keeping the order it was copied in. Returns the
    /// stale record to note placed slots in, if there is a copy.
    pub(crate) fn edit(&mut self, slots: &[Slot]) -> Option<&mut StalePage> {
        *self = match std::mem::take(self) {
            PageCopy::Current(page) => {
                PageCopy::Stale(StalePage { page, slots: slots.to_vec(), placed: Vec::new() })
            }
            copy => copy,
        };
        match self {
            PageCopy::Stale(stale) => Some(stale),
            _ => None,
        }
    }

    /// Called after a patch edited the page, now `len` members long:
    /// drops a stale copy once the page is empty (nothing is left to
    /// reuse), or once more slots were placed than the page holds (slots
    /// that entered and left again stay recorded), so the record never
    /// outgrows the page it serves.
    pub(crate) fn settle(&mut self, len: usize) {
        if matches!(self, PageCopy::Stale(stale) if len == 0 || stale.placed.len() > len) {
            *self = PageCopy::Absent;
        }
    }
}

impl StalePage {
    /// Notes that a patch placed `slot` on the page.
    pub(crate) fn note_placed(&mut self, slot: Slot) {
        if let Err(at) = self.placed.binary_search(&slot) {
            self.placed.insert(at, slot);
        }
    }

    /// The page of `slots`, the entry's members after the patches: built
    /// from the stale copy, or copied from the store if the record does
    /// not cover `slots` (never expected). Debug builds check it against
    /// a fresh copy.
    fn rebuild(&self, slots: &[Slot], store: &StoreCore) -> Page {
        let page = self.reuse(slots, store).unwrap_or_else(|| store.page(slots));
        if cfg!(debug_assertions) {
            assert_rebuilt(&page, slots, store);
        }
        page
    }

    /// Builds the page of `slots`: each run of unplaced members that are
    /// adjacent in the stale copy too is copied from it as one slice per
    /// column, and each placed member is read from the store through its
    /// segment alone. Unplaced members are found by moving forward
    /// through the stale slot order, so the walk is linear in the two
    /// pages. `None` if an unplaced member is not found that way.
    fn reuse(&self, slots: &[Slot], store: &StoreCore) -> Option<Page> {
        let mut out = store.page_builder(slots.len());
        // Stale rows found but not copied yet: adjacent in both pages.
        let mut run = 0..0;
        for &slot in slots {
            if self.placed.binary_search(&slot).is_ok() {
                out.extend_from(&self.page, run.clone());
                run.start = run.end;
                store.push_row(slot, &mut out);
                continue;
            }
            let at = run.end + self.slots[run.end..].iter().position(|&s| s == slot)?;
            if at != run.end {
                out.extend_from(&self.page, run);
                run = at..at;
            }
            run.end = at + 1;
        }
        out.extend_from(&self.page, run);
        Some(out.finish())
    }
}

impl CachedEval {
    /// An evaluation whose page is `slots`, counting one off-page match
    /// when it overflows.
    pub(crate) fn new(overflow: bool, slots: Vec<Slot>) -> Self {
        let matched = slots.len() + usize::from(overflow);
        Self { overflow, slots, matched, page: PageCopy::Absent, count_only: false }
    }

    /// A count-only entry of `matched` matches, of the class that count
    /// gives against `k`.
    pub(crate) fn counted(matched: usize, k: usize) -> Self {
        Self {
            overflow: matched > k,
            slots: Vec::new(),
            matched,
            page: PageCopy::Absent,
            count_only: true,
        }
    }

    /// The answer a `read` gets: the class alone for an overflow read by
    /// class or count, the count for any other count read, both of which
    /// leave the page copy as it is, and the outcome otherwise. Only a
    /// count read, or a class read of an overflow, reaches a count-only
    /// entry: the memo sends the other reads to evaluation instead.
    pub(crate) fn answer(&mut self, store: &StoreCore, read: Read) -> Answer {
        if self.overflow && !read.ranks_overflow() {
            return Answer::Overflow;
        }
        match read {
            Read::Count => Answer::Count(self.matched),
            Read::Page | Read::Class => {
                debug_assert!(!self.count_only, "a count-only entry read for its page");
                Answer::Outcome(self.outcome(store))
            }
        }
    }

    /// The outcome, sharing the current page. On the first read, and on
    /// the first after a patch changed the page, the page is copied: from
    /// the store, or mostly from the stale copy (see [`StalePage`]).
    pub(crate) fn outcome(&mut self, store: &StoreCore) -> QueryOutcome {
        if self.slots.is_empty() {
            return QueryOutcome::Underflow;
        }
        let page = match std::mem::take(&mut self.page) {
            PageCopy::Current(page) => page,
            PageCopy::Stale(stale) => Arc::new(stale.rebuild(&self.slots, store)),
            PageCopy::Absent => Arc::new(store.page(&self.slots)),
        };
        self.page = PageCopy::Current(Arc::clone(&page));
        if self.overflow {
            QueryOutcome::Overflow(page)
        } else {
            QueryOutcome::Valid(page)
        }
    }

    /// Checks what every memo hit relies on: the class agrees with the
    /// count, and the page members are alive, match `query`, and run
    /// best-first; a count-only entry, of any class, holds no slots and
    /// no page. Debug builds run it on every hit.
    pub(crate) fn assert_consistent(&self, query: &ConjunctiveQuery, store: &StoreCore, k: usize) {
        assert_eq!(self.overflow, self.matched > k, "{query}: class disagrees with the count");
        if self.count_only {
            let pageless = self.slots.is_empty() && matches!(self.page, PageCopy::Absent);
            assert!(pageless, "{query}: a count-only entry holds a page");
            return;
        }
        let want = if self.overflow { k } else { self.matched };
        assert_eq!(self.slots.len(), want, "{query}: page size disagrees with the count");
        let mut keys = Vec::with_capacity(self.slots.len());
        for &s in &self.slots {
            let (seg, off) = locate(s);
            let data = store.seg_view(seg);
            let matches = data.alive[off] && row_matches(query, data.value_row(off));
            assert!(matches, "{query}: page slot {s} no longer matches");
            keys.push((data.scores[off], s));
        }
        for w in keys.windows(2) {
            assert!(w[0] > w[1], "{query}: page out of order");
        }
    }
}

/// Checks a rebuilt page against a fresh copy of `slots` from the store
/// ([`StoreCore::page`]): the same keys and values row by row, and the
/// same measures bit for bit (`Page: PartialEq` fails on a NaN measure).
/// Debug builds run it on every rebuild.
fn assert_rebuilt(page: &Page, slots: &[Slot], store: &StoreCore) {
    let want = store.page(slots);
    assert_eq!(page.iter().len(), want.iter().len(), "rebuilt page has the wrong length");
    for (i, (got, want)) in page.iter().zip(want.iter()).enumerate() {
        assert_eq!(got.key(), want.key(), "rebuilt page row {i}: key");
        assert_eq!(got.values(), want.values(), "rebuilt page row {i}: values");
        let bits = |row: TupleView<'_>| row.measures().iter().map(|m| m.to_bits()).collect();
        let (got_bits, want_bits): (Vec<u64>, Vec<u64>) = (bits(got), bits(want));
        assert_eq!(got_bits, want_bits, "rebuilt page row {i}: measures");
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

/// Whether a tuple whose one-byte value codes are `row` satisfies every
/// predicate.
#[inline]
pub(crate) fn row_matches(query: &ConjunctiveQuery, row: &[u8]) -> bool {
    query.predicates().iter().all(|p| u32::from(row[p.attr.index()]) == p.value.0)
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

    /// Whether the candidate at `slot` is alive and satisfies every
    /// predicate: the engine's bitmaps answer this for whole segments.
    fn slot_matches(query: &ConjunctiveQuery, store: &StoreCore, slot: Slot) -> bool {
        let (seg, off) = locate(slot);
        let data = store.seg_view(seg);
        data.alive[off] && row_matches(query, data.value_row(off))
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

    /// A rebuild takes unplaced rows from the stale page and placed rows
    /// from the store: the stale page's measures are marked (negated) so
    /// every row shows where it came from.
    #[test]
    fn a_rebuild_copies_unplaced_rows_from_the_stale_page_and_placed_rows_from_the_store() {
        let mut store = Store::new(1, 1);
        for key in 0..8u64 {
            let t = Tuple::new(TupleKey(key), vec![ValueId((key % 2) as u32)], vec![key as f64]);
            assert_eq!(store.insert(t, key).unwrap(), key as Slot);
        }
        let old: Vec<Slot> = vec![7, 6, 5, 4, 3];
        let marked = Page::from_columns(
            old.iter().map(|&s| TupleKey(u64::from(s))).collect(),
            old.iter().map(|&s| ValueId(s % 2)).collect(),
            old.iter().map(|&s| -f64::from(s)).collect(),
            1,
            1,
        );
        let stale = StalePage { page: Arc::new(marked), slots: old, placed: vec![1, 6] };
        let page = stale.reuse(&[7, 6, 5, 3, 1], &store).expect("the record covers the page");
        let rows: Vec<(u64, f64)> = page.iter().map(|r| (r.key().0, r.measures()[0])).collect();
        assert_eq!(rows, vec![(7, -7.0), (6, 6.0), (5, -5.0), (3, -3.0), (1, 1.0)]);
        assert_eq!(page.iter().nth(4).unwrap().values(), &[ValueId(1)]);

        assert!(stale.reuse(&[5, 7], &store).is_none(), "unplaced rows out of stale order");
        assert!(stale.reuse(&[7, 2], &store).is_none(), "an unplaced row not on the stale page");
    }
}
