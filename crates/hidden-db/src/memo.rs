//! The query memo: a pre-hashed map from [`ConjunctiveQuery`] to its
//! cached evaluation, **patched in place** by every row change and
//! bounded by a CLOCK admission policy.
//!
//! Both read paths cache here, through the same two calls: a lookup
//! ([`QueryMemo::hit`]) and, after a miss was evaluated, an admission
//! ([`QueryMemo::admit`]). A [`crate::database::HiddenDatabase`] owns one
//! memo and patches it as its rows change. Each
//! [`crate::service::DbSnapshot`] owns another behind a lock, shared by
//! the sessions pinned to it: its rows never change, so it is never
//! patched, and it is dropped with the snapshot. A capacity of 0 turns
//! either memo off.
//!
//! The memo sits on the hot path of every answer, so it avoids two costs
//! a plain `HashMap<ConjunctiveQuery, _>` pays:
//!
//! * **Double (Sip-)hashing.** The default hasher walks the predicate
//!   vector with SipHash on both the lookup and the insert. Here the
//!   caller computes a fast 64-bit fingerprint exactly once per answer
//!   ([`QueryMemo::hash_of`]) and the map is keyed by that fingerprint
//!   through an identity hasher.
//! * **Speculative key clones.** Entry-style APIs demand an owned key up
//!   front even when the query is already cached. The memo clones the
//!   query only on a confirmed miss, when the key is actually stored.
//!
//! Fingerprint collisions are handled, not assumed away: each bucket
//! lists the entries whose queries share a fingerprint, and lookups
//! confirm structural equality.
//!
//! ## Exact incremental patching
//!
//! One round changes few rows, so most of last round's answers still hold
//! — the premise of REISSUE (Liu et al., VLDB 2014, §3). The memo uses it
//! exactly: every insert, delete and measure update hands the memo the
//! row it changed ([`RowOp`]) right after the change applies, and the memo
//! patches every cached answer whose query the row satisfies. Keeping a
//! top-`k` answer exact this way is materialized top-`k` view maintenance
//! (Yi et al., "Efficient maintenance of materialized top-k views", ICDE
//! 2003): only deleting a member of a truncated page forces a recompute.
//!
//! A full entry keeps its class, its page best-first by `(score, slot)`,
//! and its exact match count: evaluation offers every match to the
//! top-`k` heap, so the count is never a guess. A **count-only** entry,
//! which a count read leaves for any answer and a class read for an
//! overflow (see the [`crate::interface`] docs), keeps only the exact
//! count and the class it gives: no slots, no page. The patch rules:
//!
//! * **A count-only entry** counts: a matching insert adds one, a
//!   matching delete subtracts one, a re-score changes nothing, and the
//!   class follows the count across `k` either way. It is never dropped:
//!   it keeps nothing about the top `k` that a row change could take
//!   away.
//! * **Insert of a matching row.** The count rises by one. An underflow
//!   or valid page takes the row; at `k + 1` matches the entry overflows
//!   and keeps the best `k`. An overflow page takes the row only if it
//!   beats the page's last member, which then leaves.
//! * **Delete of a matching row.** A valid page drops it. On an overflow
//!   entry, deleting a page member drops the entry, because the
//!   `(k + 1)`-th match is unknown. An off-page delete lowers the count,
//!   and a count that reaches `k` makes the entry valid with the same
//!   page.
//! * **Measure update of a matching row.** A page member's measures
//!   changed, so the next read copies its row afresh. A valid page
//!   re-sorts. On an overflow page, a member whose score falls drops the
//!   entry, and an off-page row whose score now beats the last member
//!   enters while the last member leaves.
//! * The root entry matches every row.
//!
//! **Reads.** A count read hits every entry: it gets the class alone of
//! an overflow and the count of any other answer, and leaves every page
//! copy as it is, so an absent page stays absent and a stale one
//! unrebuilt until a page or class read asks for it. A class read of an
//! overflow entry, full or count-only, gets the class alone and leaves a
//! full entry's page as it is; of a full entry of any other class, the
//! whole answer. A class read of a count-only entry that does not
//! overflow, and a page read of any count-only entry, miss: they evaluate
//! as on a first ask, which finds a full entry, and the admission
//! replaces the count-only entry with it. Admission never replaces a
//! full entry, since two sessions of one snapshot may miss on the same
//! query together, and replaces a count-only entry only with a full one.
//!
//! **The page copy.** A patch that changes an entry's page keeps the
//! page it replaces, stale ([`crate::interface::StalePage`]), with the
//! slot order it was copied in and every slot the patches place on the
//! page from then on: an inserted row, a re-scored member, or a freed
//! slot a matching insert refilled. Deletes and truncations need no
//! record. The next read copies every unplaced member from the stale
//! page and reads only the placed ones from the store. Unplaced members
//! still hold the rows the stale page copied, in the same relative
//! order, since their `(score, slot)` keys did not move. The record
//! never outgrows the page: once more slots were placed than the page
//! holds, or the page empties, the stale copy is dropped and the next
//! read copies the whole page from the store.
//!
//! **Soundness.** Invariant: against the current store, an entry's count
//! equals `T`, the true match count of its query, and it overflows iff
//! its count exceeds `k`. A full entry's page is exactly the best
//! `min(k, T)` matches, best-first. A count-only entry holds no page. One
//! op changes one row, and a row that does not satisfy a query changes
//! neither its match set, nor the scores of its matches, nor the measures
//! of its page. For a row that does, each rule above rebuilds the best
//! `min(k, T)` from what a full entry holds, or drops the entry when it
//! would need a match it does not hold: the `(k + 1)`-th best after a
//! member leaves or falls. A count-only entry's count moves with `T`
//! exactly and its class is recomputed from it at every op, so it stays
//! exact without ever being dropped, and it serves only the reads that
//! need no page. An entry is never served while dropped; the next ask
//! evaluates it from cold.
//! Patching each op before the next op applies keeps the invariant
//! between ops, so slot reuse inside one batch (the deleted row already
//! left every page) and a failed batch's applied prefix need no special
//! case.
//!
//! ## Finding the entries a row satisfies
//!
//! The memo lists the *shapes* of its cached queries (the attribute sets
//! they constrain; the root's is empty), each with its entry count. A row
//! satisfies at most one query of each shape, its projection onto it
//! (the shape's attributes set to the row's values), and that query sits
//! in the bucket of its fingerprint, which the walk computes from the row
//! with [`QueryMemo::hash_of`]'s fold. So a row op probes `buckets` once
//! per listed shape and keeps a member only if its query is exactly that
//! projection: it finds every entry the row satisfies, each once, and a
//! fingerprint collision brings in no other. That is one probe per shape,
//! never more than the entries cached, and none against an empty memo.
//! Few shapes recur: seed-1 `trackbench` passes list at most 6 on
//! `track_default` and `track_paper` (a row op probes 5.9 to patch 4.4
//! and 4.2 entries), `all_figures` 7 at `--scale default` and 8 at
//! `--scale quick`.
//!
//! Debug builds check every hit cheaply
//! ([`CachedEval::assert_consistent`]): overflow exactly when the count
//! exceeds `k`, page members alive, matching and in order, and no slots
//! and no page on a count-only entry. They also check every page built
//! from a stale copy against a fresh copy from the store, measures bit
//! for bit.
//!
//! ## Bounded admission
//!
//! Entries are capped (default [`DEFAULT_MEMO_CAPACITY`]) so a stream of
//! distinct queries cannot grow the memo without bound. Entries live in a
//! slab; inserts beyond the cap evict with a CLOCK (second-chance) hand
//! sweeping the slab — a hit sets the entry's referenced bit, the hand
//! clears it once and evicts on the second encounter. Eviction and
//! patch drops unlink the entry from its bucket and count it off its
//! shape, which leaves the list with its last entry, so the buckets and
//! the shape list stay proportional to the live entries.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::interface::{Answer, CachedEval, Read};
use crate::query::ConjunctiveQuery;
use crate::stats::MemoStats;
use crate::store::{Slot, StoreCore};
use crate::value::{AttrId, ValueId};

/// Default cap on cached queries. Comfortably above the working set of
/// every estimator workload (a few hundred distinct queries per round)
/// while bounding adversarial distinct-query streams.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// Hasher that passes a pre-computed `u64` through unchanged.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher is only fed pre-hashed u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// What one applied op did to its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowChange {
    /// The row was inserted.
    Insert,
    /// The row was deleted.
    Delete,
    /// The row's measures were overwritten; its score moved from `old`.
    Rescore {
        /// The score before the update.
        old: u64,
    },
}

/// One applied row change, as the memo patches it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowOp<'a> {
    /// The row's slot.
    pub(crate) slot: Slot,
    /// The row's values in schema order.
    pub(crate) values: &'a [ValueId],
    /// The row's score after the op (for a delete, its last score).
    pub(crate) score: u64,
    /// What happened to the row.
    pub(crate) change: RowChange,
}

impl CachedEval {
    /// Applies one change of a row that satisfies this entry's query,
    /// following the module docs' patch rules: a count-only entry only
    /// counts. `store` already holds the change. Returns `false` when the
    /// entry cannot stay exact and must be dropped.
    fn patch(&mut self, op: &RowOp<'_>, k: usize, store: &StoreCore) -> bool {
        if self.count_only {
            match op.change {
                RowChange::Insert => self.matched += 1,
                RowChange::Delete => self.matched -= 1,
                RowChange::Rescore { .. } => {}
            }
            self.overflow = self.matched > k;
            return true;
        }
        let key = (op.score, op.slot);
        match op.change {
            RowChange::Insert => {
                self.matched += 1;
                if !self.overflow {
                    self.place(key, store);
                    if self.slots.len() > k {
                        self.pop();
                        self.overflow = true;
                    }
                } else if self.beats_last(key, store) {
                    self.pop();
                    self.place(key, store);
                } else {
                    return true;
                }
            }
            RowChange::Delete => {
                if !self.overflow {
                    let Some(at) = self.position(op.slot) else { return false };
                    self.remove(at);
                    self.matched -= 1;
                } else if self.on_page(op.slot, op.score, store) {
                    return false;
                } else {
                    self.matched -= 1;
                    self.overflow = self.matched > k;
                    return true;
                }
            }
            RowChange::Rescore { old } => {
                if !self.overflow || self.on_page(op.slot, old, store) {
                    if self.overflow && op.score < old {
                        return false;
                    }
                    let Some(at) = self.position(op.slot) else { return false };
                    self.remove(at);
                    self.place(key, store);
                } else if self.beats_last(key, store) {
                    self.pop();
                    self.place(key, store);
                } else {
                    return true;
                }
            }
        }
        self.page.settle(self.slots.len());
        true
    }

    /// Inserts the slot of `key` at its best-first position among the
    /// page members, whose scores the store holds, and records it on a
    /// stale page copy: the next read copies its row from the store.
    fn place(&mut self, key: (u64, Slot), store: &StoreCore) {
        if let Some(stale) = self.page.edit(&self.slots) {
            stale.note_placed(key.1);
        }
        let at = self.slots.partition_point(|&m| (store.score_at(m), m) > key);
        self.slots.insert(at, key.1);
    }

    /// Removes the page member at index `at`. A removal needs no record:
    /// the next read skips the member's row in the stale copy.
    fn remove(&mut self, at: usize) {
        self.page.edit(&self.slots);
        self.slots.remove(at);
    }

    /// Removes the page's last member, like [`CachedEval::remove`].
    fn pop(&mut self) {
        self.page.edit(&self.slots);
        self.slots.pop();
    }

    /// Whether `key` ranks above the page's last member.
    fn beats_last(&self, key: (u64, Slot), store: &StoreCore) -> bool {
        self.slots.last().is_some_and(|&last| key > (store.score_at(last), last))
    }

    /// Whether the matching row at `slot`, ranked by `score` before the
    /// op, is a member of this overflow page: the page is the best `k`
    /// matches, so a match is on it iff it ranks at least as high as the
    /// last member.
    fn on_page(&self, slot: Slot, score: u64, store: &StoreCore) -> bool {
        self.slots
            .last()
            .is_some_and(|&last| slot == last || (score, slot) > (store.score_at(last), last))
    }

    /// Index of `slot` on the page. A member is always found: pages come
    /// from bitmaps that always agree with the store (a restored
    /// snapshot rebuilds them from the stored rows). Should a miss happen
    /// anyway, the caller drops the entry rather than serve it.
    fn position(&self, slot: Slot) -> Option<usize> {
        self.slots.iter().position(|&m| m == slot)
    }
}

/// One cached query with its bookkeeping.
#[derive(Debug, Clone)]
struct MemoEntry {
    query: ConjunctiveQuery,
    eval: CachedEval,
    /// The query's fingerprint: its bucket in `buckets`.
    hash: u64,
    /// CLOCK referenced bit: set on hit, cleared by the hand.
    referenced: bool,
}

/// The attributes a cached query constrains, and how many cached
/// queries constrain exactly them. The root's shape is empty.
#[derive(Debug, Clone)]
struct Shape {
    /// Sorted, like a query's predicates.
    attrs: Box<[AttrId]>,
    entries: u32,
}

impl Shape {
    /// Whether `query` constrains exactly this shape's attributes.
    fn fits(&self, query: &ConjunctiveQuery) -> bool {
        query.predicates().iter().map(|p| p.attr).eq(self.attrs.iter().copied())
    }

    /// The fingerprint of the projection of the row `values` onto this
    /// shape: [`QueryMemo::hash_of`] of the one query of this shape the
    /// row satisfies.
    #[inline]
    fn fingerprint_of(&self, values: &[ValueId]) -> u64 {
        fingerprint(self.attrs.len(), self.attrs.iter().map(|&a| (a, values[a.index()])))
    }
}

/// The fingerprint fold over `len` `(attribute, value)` pairs in
/// attribute order (FxHash-style multiply-rotate). A query's predicates
/// and a row's projection onto a shape both go through it, so the patch
/// walk finds a cached query by the fingerprint it was filed under.
#[inline]
fn fingerprint(len: usize, pairs: impl Iterator<Item = (AttrId, ValueId)>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ len as u64;
    for (attr, value) in pairs {
        let word = (u64::from(attr.0) << 32) | u64::from(value.0);
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    h
}

/// The memo.
#[derive(Debug, Clone)]
pub(crate) struct QueryMemo {
    /// Slab of entries; `None` marks a free slot.
    entries: Vec<Option<MemoEntry>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Fingerprint → slab ids of the entries with that fingerprint.
    buckets: HashMap<u64, Vec<u32>, BuildHasherDefault<IdentityHasher>>,
    /// The shapes of the cached queries, each listed while an entry has
    /// it: the patch walk probes `buckets` once per shape.
    shapes: Vec<Shape>,
    /// CLOCK hand: the next slab slot the eviction sweep inspects.
    hand: usize,
    capacity: usize,
    stats: MemoStats,
    /// Reusable buffer of the entries one op patches.
    scratch: Vec<u32>,
}

impl Default for QueryMemo {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
            buckets: HashMap::default(),
            shapes: Vec::new(),
            hand: 0,
            capacity: DEFAULT_MEMO_CAPACITY,
            stats: MemoStats::default(),
            scratch: Vec::new(),
        }
    }
}

impl QueryMemo {
    /// Fast 64-bit fingerprint of a query: the `fingerprint` fold over
    /// its sorted predicate list (queries are canonical by construction,
    /// so structurally equal queries fingerprint equal).
    #[inline]
    pub(crate) fn hash_of(query: &ConjunctiveQuery) -> u64 {
        fingerprint(query.len(), query.predicates().iter().map(|p| (p.attr, p.value)))
    }

    fn entry(&self, id: u32) -> &MemoEntry {
        self.entries[id as usize].as_ref().expect("listed memo entries are live")
    }

    /// Slab id of the entry cached for `query`, if any.
    fn find(&self, hash: u64, query: &ConjunctiveQuery) -> Option<u32> {
        self.buckets.get(&hash)?.iter().copied().find(|&id| self.entry(id).query == *query)
    }

    /// Cached evaluation for `query`, if present. Mutable so the entry
    /// can lazily copy (and then share) its page. Marks the entry
    /// referenced for the CLOCK sweep.
    #[inline]
    fn get_mut(&mut self, hash: u64, query: &ConjunctiveQuery) -> Option<&mut CachedEval> {
        let id = self.find(hash, query)?;
        let entry = self.entries[id as usize].as_mut().expect("listed memo entries are live");
        entry.referenced = true;
        Some(&mut entry.eval)
    }

    /// The lookup of both read paths: `Some` with the cached answer a
    /// `read` of `query` gets (see [`CachedEval::answer`]) against
    /// `store`, whose rows the entry matches (debug builds check it),
    /// sharing the entry's page; `None` on a miss. A count read hits any
    /// entry; a class read hits a count-only entry only when it
    /// overflows, and a page read never does. `hash` is the query's
    /// [`QueryMemo::hash_of`] fingerprint, computed once per answer.
    #[inline]
    pub(crate) fn hit(
        &mut self,
        hash: u64,
        query: &ConjunctiveQuery,
        store: &StoreCore,
        k: usize,
        read: Read,
    ) -> Option<Answer> {
        let cached = self.get_mut(hash, query)?;
        if cfg!(debug_assertions) {
            cached.assert_consistent(query, store, k);
        }
        let serves = match read {
            Read::Count => true,
            Read::Class => cached.overflow,
            Read::Page => false,
        };
        if cached.count_only && !serves {
            return None;
        }
        Some(cached.answer(store, read))
    }

    /// The admission of both read paths, after a miss was evaluated:
    /// admits if `query` is absent, or replaces its count-only entry with
    /// a full `eval`, and returns whether it did. It never replaces a
    /// full entry: two sessions of one snapshot may miss on the same
    /// query together.
    pub(crate) fn admit(&mut self, hash: u64, query: &ConjunctiveQuery, eval: CachedEval) -> bool {
        if let Some(id) = self.find(hash, query) {
            let entry = self.entries[id as usize].as_mut().expect("listed memo entries are live");
            if !entry.eval.count_only || eval.count_only {
                return false;
            }
            entry.eval = eval;
            self.stats.insertions += 1;
            return true;
        }
        self.insert(hash, query, eval)
    }

    /// Inserts a confirmed-missing entry (this is the one place the query
    /// is cloned) and returns whether it did: a capacity of 0 admits
    /// nothing. Lists the query's shape unless it is listed already.
    /// Evicts via the CLOCK sweep first if the memo is at capacity.
    fn insert(&mut self, hash: u64, query: &ConjunctiveQuery, eval: CachedEval) -> bool {
        if self.capacity == 0 {
            return false;
        }
        while self.len() >= self.capacity {
            self.evict_one();
        }
        match self.shapes.iter_mut().find(|shape| shape.fits(query)) {
            Some(shape) => shape.entries += 1,
            None => {
                let attrs = query.predicates().iter().map(|p| p.attr).collect();
                self.shapes.push(Shape { attrs, entries: 1 });
            }
        }
        let entry = MemoEntry { query: query.clone(), eval, hash, referenced: false };
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = Some(entry);
                id
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        self.buckets.entry(hash).or_default().push(id);
        self.stats.insertions += 1;
        true
    }

    /// Appends to `hits` the slab id of every entry whose query the row
    /// `values` satisfies, each once (see the module docs): per listed
    /// shape, the members of the bucket of the row's projection onto it
    /// whose query is that projection.
    fn satisfied_by(&self, values: &[ValueId], hits: &mut Vec<u32>) {
        for shape in &self.shapes {
            if let Some(ids) = self.buckets.get(&shape.fingerprint_of(values)) {
                let projection = |&id: &u32| {
                    let query = &self.entry(id).query;
                    shape.fits(query) && query.matches_values(values)
                };
                hits.extend(ids.iter().copied().filter(projection));
            }
        }
    }

    /// Patches every cached answer whose query `op`'s row satisfies (see
    /// the module docs), dropping the ones that cannot stay exact. `k` is
    /// the database's page size; `store` already holds the change.
    pub(crate) fn patch(&mut self, op: &RowOp<'_>, k: usize, store: &StoreCore) {
        let mut hits = std::mem::take(&mut self.scratch);
        hits.clear();
        self.satisfied_by(op.values, &mut hits);
        self.stats.shape_probes += self.shapes.len() as u64;
        self.stats.patched += hits.len() as u64;
        for &id in &hits {
            let entry = self.entries[id as usize].as_mut().expect("listed memo entries are live");
            if !entry.eval.patch(op, k, store) {
                self.remove(id);
                self.stats.invalidated += 1;
            }
        }
        self.scratch = hits;
    }

    /// Counts the entries that outlived one mutation.
    pub(crate) fn note_mutation(&mut self) {
        self.stats.retained += self.len() as u64;
    }

    /// Unlinks and frees the entry at slab slot `id`.
    fn remove(&mut self, id: u32) {
        let entry = self.entries[id as usize].take().expect("removed memo entries are live");
        if let Some(ids) = self.buckets.get_mut(&entry.hash) {
            if let Some(i) = ids.iter().position(|&x| x == id) {
                ids.swap_remove(i);
            }
            if ids.is_empty() {
                self.buckets.remove(&entry.hash);
            }
        }
        let at = self.shapes.iter().position(|shape| shape.fits(&entry.query));
        let at = at.expect("a cached query's shape is listed");
        self.shapes[at].entries -= 1;
        if self.shapes[at].entries == 0 {
            self.shapes.swap_remove(at);
        }
        self.free.push(id);
    }

    /// CLOCK second-chance eviction of one entry. Terminates: the memo is
    /// non-empty, and every referenced entry loses its bit on the first
    /// pass of the hand and is evictable on the second.
    fn evict_one(&mut self) {
        loop {
            if self.hand >= self.entries.len() {
                self.hand = 0;
            }
            let id = self.hand;
            self.hand += 1;
            match &mut self.entries[id] {
                None => {}
                Some(entry) if entry.referenced => entry.referenced = false,
                Some(_) => {
                    self.remove(id as u32);
                    self.stats.evicted += 1;
                    return;
                }
            }
        }
    }

    /// Drops every entry (`set_k`).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        self.buckets.clear();
        self.shapes.clear();
        self.hand = 0;
        self.stats.wholesale_clears += 1;
    }

    /// Caps the number of cached entries, evicting down if over.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len() > self.capacity {
            self.evict_one();
        }
    }

    /// The configured entry cap.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifecycle counters.
    pub(crate) fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Number of cached queries: slab slots not on the free list.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether nothing is cached.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::HiddenDatabase;
    use crate::interface::{PageCopy, QueryOutcome};
    use crate::query::Predicate;
    use crate::ranking::ScoringPolicy;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::updates::UpdateBatch;
    use crate::value::{MeasureId, TupleKey};

    fn q(pairs: &[(u16, u32)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates(
            pairs.iter().map(|&(a, v)| Predicate::new(AttrId(a), ValueId(v))),
        )
    }

    fn insert(memo: &mut QueryMemo, query: &ConjunctiveQuery, eval: CachedEval) {
        memo.insert(QueryMemo::hash_of(query), query, eval);
    }

    fn cached(memo: &mut QueryMemo, query: &ConjunctiveQuery) -> bool {
        memo.get_mut(QueryMemo::hash_of(query), query).is_some()
    }

    /// The listed shapes as `(attributes, entries)`, sorted.
    fn shapes(memo: &QueryMemo) -> Vec<(Vec<u16>, u32)> {
        let shape = |s: &Shape| (s.attrs.iter().map(|a| a.0).collect(), s.entries);
        let mut shapes: Vec<_> = memo.shapes.iter().map(shape).collect();
        shapes.sort();
        shapes
    }

    /// The root's shape is empty, and every row's projection onto it is
    /// the root: its fingerprint is the one of `select_all`.
    #[test]
    fn root_hash_matches_hash_of_select_all() {
        let root = ConjunctiveQuery::select_all();
        let h = QueryMemo::hash_of(&root);
        assert_eq!(h, QueryMemo::hash_of(&ConjunctiveQuery::from_predicates(Vec::new())));
        let mut memo = QueryMemo::default();
        memo.insert(h, &root, CachedEval::new(false, vec![]));
        assert_eq!(shapes(&memo), vec![(vec![], 1)], "the root's shape is empty");
        assert_eq!(memo.shapes[0].fingerprint_of(&[ValueId(3), ValueId(1)]), h);
        let id = memo.buckets[&h][0];
        assert_eq!(memo.buckets[&h], vec![id]);
        assert!(cached(&mut memo, &root));
        memo.remove(id);
        assert!(memo.shapes.is_empty() && memo.buckets.is_empty());
        assert!(!cached(&mut memo, &root));
    }

    #[test]
    fn fingerprints_are_structural() {
        let a = q(&[(0, 1), (2, 3)]);
        let b = q(&[(2, 3), (0, 1)]);
        assert_eq!(QueryMemo::hash_of(&a), QueryMemo::hash_of(&b));
        let c = q(&[(0, 1), (2, 4)]);
        assert_ne!(QueryMemo::hash_of(&a), QueryMemo::hash_of(&c));
        assert_ne!(QueryMemo::hash_of(&ConjunctiveQuery::select_all()), QueryMemo::hash_of(&a));
    }

    #[test]
    fn insert_then_get_roundtrip() {
        let mut memo = QueryMemo::default();
        let query = q(&[(1, 2)]);
        let h = QueryMemo::hash_of(&query);
        assert!(memo.get_mut(h, &query).is_none());
        insert(&mut memo, &query, CachedEval::new(true, vec![3, 1]));
        let eval = memo.get_mut(h, &query).expect("entry present");
        assert!(eval.overflow);
        assert_eq!(eval.slots, vec![3, 1]);
        assert_eq!(memo.len(), 1);
        memo.clear();
        assert!(memo.get_mut(h, &query).is_none());
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().wholesale_clears, 1);
    }

    #[test]
    fn colliding_fingerprints_disambiguate_by_equality() {
        // Force a collision by inserting two different queries under the
        // same fingerprint (possible in principle; simulated here).
        let mut memo = QueryMemo::default();
        let a = q(&[(0, 0)]);
        let b = q(&[(0, 1)]);
        let h = 42;
        memo.insert(h, &a, CachedEval::new(false, vec![1]));
        memo.insert(h, &b, CachedEval::new(true, vec![2]));
        assert_eq!(memo.get_mut(h, &a).unwrap().slots, vec![1]);
        assert_eq!(memo.get_mut(h, &b).unwrap().slots, vec![2]);
        assert_eq!(memo.len(), 2);
        // Dropping one leaves its bucket mate reachable.
        let id = memo.buckets[&h][0];
        memo.remove(id);
        assert!(memo.get_mut(h, &a).is_none());
        assert_eq!(memo.get_mut(h, &b).unwrap().slots, vec![2]);

        // A bucket member of another shape is no projection onto the
        // probed one, though the row satisfies it: the walk skips it.
        let mut memo = QueryMemo::default();
        let (x, y) = (q(&[(0, 1)]), q(&[(1, 1)]));
        insert(&mut memo, &x, CachedEval::counted(0, 1));
        memo.insert(QueryMemo::hash_of(&x), &y, CachedEval::counted(0, 1));
        let mut hits = Vec::new();
        memo.satisfied_by(&[ValueId(1), ValueId(1)], &mut hits);
        assert_eq!(hits, vec![memo.find(QueryMemo::hash_of(&x), &x).unwrap()]);
    }

    #[test]
    fn clock_eviction_bounds_len_and_prefers_unreferenced() {
        let mut memo = QueryMemo::default();
        memo.set_capacity(3);
        let queries: Vec<ConjunctiveQuery> = (0..5u32).map(|v| q(&[(0, v)])).collect();
        for query in queries.iter().take(3) {
            insert(&mut memo, query, CachedEval::new(false, vec![]));
        }
        // Touch q0 so it is referenced; q1 is the first unreferenced.
        assert!(cached(&mut memo, &queries[0]));
        insert(&mut memo, &queries[3], CachedEval::new(false, vec![]));
        assert_eq!(memo.len(), 3, "capacity enforced");
        assert!(cached(&mut memo, &queries[0]), "referenced entry got its second chance");
        assert!(!cached(&mut memo, &queries[1]), "first unreferenced entry evicted");
        assert!(memo.stats().evicted >= 1);

        // A long distinct stream stays bounded, slab included.
        for v in 10..200u32 {
            insert(&mut memo, &q(&[(1, v)]), CachedEval::new(false, vec![]));
            assert!(memo.len() <= 3);
        }
        assert_eq!(memo.entries.len(), 3, "evicted slab slots are reused");
    }

    #[test]
    fn set_capacity_evicts_down() {
        let mut memo = QueryMemo::default();
        for v in 0..10u32 {
            insert(&mut memo, &q(&[(0, v)]), CachedEval::new(false, vec![]));
        }
        assert_eq!(memo.len(), 10);
        memo.set_capacity(4);
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.capacity(), 4);
    }

    #[test]
    fn zero_capacity_disables_admission() {
        let mut memo = QueryMemo::default();
        memo.set_capacity(0);
        let query = q(&[(0, 0)]);
        insert(&mut memo, &query, CachedEval::new(false, vec![]));
        assert_eq!(memo.len(), 0);
        assert!(!cached(&mut memo, &query));
    }

    #[test]
    fn clock_ring_stays_bounded_under_invalidate_readmit_churn() {
        // Every round admits an overflow entry and then deletes its page
        // member, which drops it: the slab, the buckets and the shape
        // list must not grow.
        let store = crate::store::Store::new(1, 0);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let row = [ValueId(0)];
        for round in 0..5_000u32 {
            let mut eval = CachedEval::new(true, vec![round]);
            eval.matched = 2;
            insert(&mut memo, &query, eval);
            let op = RowOp { slot: round, values: &row, score: 0, change: RowChange::Delete };
            memo.patch(&op, 1, &store);
            assert!(!cached(&mut memo, &query));
        }
        assert_eq!(memo.entries.len(), 1, "dropped slab slots are reused");
        assert!(memo.buckets.is_empty() && memo.shapes.is_empty());
        assert_eq!(memo.stats().invalidated, 5_000);
    }

    /// A shape is listed while an entry has it: it leaves the list when
    /// its last entry is evicted, dropped by a patch (here the root's and
    /// `{A0, A2}`'s in one walk, whose overflow pages lose their member),
    /// or cleared, and a reinsert lists it again.
    #[test]
    fn a_shape_leaves_the_list_with_its_last_entry() {
        let mut store = crate::store::Store::new(3, 0);
        let row = vec![ValueId(0); 3];
        let slot = store.insert(Tuple::new(TupleKey(1), row.clone(), vec![]), 5).unwrap();
        let overflow = || {
            let mut eval = CachedEval::new(true, vec![slot]);
            eval.matched = 2;
            eval
        };
        let mut memo = QueryMemo::default();
        memo.set_capacity(2);
        let (a, skip) = (q(&[(1, 0)]), q(&[(0, 0), (2, 0)]));
        insert(&mut memo, &a, CachedEval::counted(1, 1));
        insert(&mut memo, &skip, overflow());
        insert(&mut memo, &ConjunctiveQuery::select_all(), overflow());
        assert_eq!(shapes(&memo), vec![(vec![], 1), (vec![0, 2], 1)], "`a` was evicted");
        store.delete(TupleKey(1)).unwrap();
        memo.patch(&RowOp { slot, values: &row, score: 5, change: RowChange::Delete }, 1, &store);
        assert!(memo.shapes.is_empty() && memo.buckets.is_empty());
        assert_eq!((memo.stats().evicted, memo.stats().invalidated), (1, 2));
        insert(&mut memo, &a, CachedEval::counted(0, 1));
        assert_eq!(shapes(&memo), vec![(vec![1], 1)], "listed again");
        memo.clear();
        assert!(memo.shapes.is_empty() && memo.buckets.is_empty());
    }

    /// Reach over a 3-attribute schema with a query of every shape cached,
    /// the root and `{A0, A2}` among them: every insert, re-score and
    /// delete reaches exactly the entries a scan of every entry finds the
    /// row satisfies, one per shape, and patches each once, so every
    /// count-only entry keeps its query's true count.
    #[test]
    fn the_walk_reaches_exactly_the_satisfied_entries_of_every_shape() {
        let mut memo = QueryMemo::default();
        for code in 0..36u32 {
            // Attribute `a` takes digit `v` of `code` in base `domain + 1`;
            // `v == domain` leaves it unconstrained.
            let digits = [(0, code % 3, 2), (1, code / 3 % 4, 3), (2, code / 12, 2)];
            let pairs: Vec<_> = digits.iter().filter(|d| d.1 < d.2).map(|d| (d.0, d.1)).collect();
            insert(&mut memo, &q(&pairs), CachedEval::counted(0, 2));
        }
        assert_eq!(memo.shapes.len(), 8);
        let row = |key: u64| [key % 2, key / 2 % 3, key / 6 % 2].map(|v| ValueId(v as u32));
        let mut store = crate::store::Store::new(3, 0);
        let ops = (0..24)
            .map(|key| (key, RowChange::Insert))
            .chain((0..24).step_by(3).map(|key| (key, RowChange::Rescore { old: key })))
            .chain((0..24).rev().map(|key| (key, RowChange::Delete)));
        for (key, change) in ops {
            let slot = match change {
                RowChange::Insert => {
                    store.insert(Tuple::new(TupleKey(key), row(key).to_vec(), vec![]), key).unwrap()
                }
                RowChange::Rescore { .. } => {
                    let slot = store.slot_of(TupleKey(key)).unwrap();
                    store.set_score(slot, key + 100);
                    slot
                }
                RowChange::Delete => store.delete(TupleKey(key)).unwrap(),
            };
            let values = row(key);
            let matching = |id: &u32| memo.entry(*id).query.matches_values(&values);
            let want: Vec<u32> = (0..memo.entries.len() as u32).filter(matching).collect();
            let mut got = Vec::new();
            memo.satisfied_by(&values, &mut got);
            got.sort_unstable();
            assert_eq!(got, want, "key {key}, {change:?}");
            memo.patch(&RowOp { slot, values: &values, score: key, change }, 2, &store);
            for entry in memo.entries.iter().flatten() {
                let keys =
                    store.alive_keys().filter(|(k, _)| entry.query.matches_values(&row(k.0)));
                assert_eq!(entry.eval.matched, keys.count(), "{} after key {key}", entry.query);
            }
        }
        let stats = memo.stats();
        assert_eq!((stats.shape_probes, stats.patched, stats.invalidated), (8 * 56, 8 * 56, 0));
    }

    // ----- patch rules, each checked against a memo-disabled twin ------

    /// A database with the memo plus its memo-free oracle, fed the same
    /// ops. Schema `[3, 4]` with one measure.
    struct Twin {
        db: HiddenDatabase,
        oracle: HiddenDatabase,
    }

    impl Twin {
        fn new(k: usize, scoring: ScoringPolicy) -> Self {
            let schema = Schema::with_domain_sizes(&[3, 4], &["m"]).unwrap();
            let db = HiddenDatabase::new(schema.clone(), k, scoring);
            let mut oracle = HiddenDatabase::new(schema, k, scoring);
            oracle.set_memo_capacity(0);
            Self { db, oracle }
        }

        /// Applies `batch` to both; returns whether it succeeded.
        fn apply(&mut self, batch: UpdateBatch) -> bool {
            let got = self.db.apply(batch.clone());
            let want = self.oracle.apply(batch);
            assert_eq!(got, want, "apply diverged");
            got.is_ok()
        }

        fn insert(&mut self, key: u64, a0: u32, a1: u32, m: f64) {
            let t = Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![m]);
            assert!(self.apply(UpdateBatch::empty().insert(t)));
        }

        fn delete(&mut self, key: u64) {
            assert!(self.apply(UpdateBatch::empty().delete(TupleKey(key))));
        }

        fn rescore(&mut self, key: u64, m: f64) {
            assert!(self.apply(UpdateBatch::empty().update_measures(TupleKey(key), vec![m])));
        }

        /// Asks `query` of both and asserts bit-identical answers.
        /// Returns the answer and whether the memo served it warm.
        fn ask(&mut self, query: &ConjunctiveQuery) -> (QueryOutcome, bool) {
            let hits = self.db.stats().cache_hits;
            let got = self.db.answer(query);
            let want = self.oracle.answer(query);
            assert_eq!(got, want, "{query}: memo diverged from the oracle");
            for (g, w) in got.tuples().zip(want.tuples()) {
                for (gm, wm) in g.measures().iter().zip(w.measures()) {
                    assert_eq!(gm.to_bits(), wm.to_bits());
                }
            }
            (got, self.db.stats().cache_hits > hits)
        }

        /// Asks `query` of the memo by class alone and of the oracle in
        /// full: `None` exactly when the oracle overflows, its answer
        /// otherwise. Returns the answer and whether the memo served it
        /// warm.
        fn ask_class(&mut self, query: &ConjunctiveQuery) -> (Option<QueryOutcome>, bool) {
            let hits = self.db.stats().cache_hits;
            let got = self.db.answer_unless_overflow(query);
            let want = self.oracle.answer(query);
            match &got {
                Some(got) => assert_eq!(*got, want, "{query}: memo diverged from the oracle"),
                None => assert!(want.is_overflow(), "{query}: a class read overflowed"),
            }
            (got, self.db.stats().cache_hits > hits)
        }

        /// Asks `query` of the memo by count and of the oracle in full:
        /// `None` exactly when the oracle overflows, the oracle's page
        /// size otherwise. Returns the answer and whether the memo served
        /// it warm.
        fn ask_count(&mut self, query: &ConjunctiveQuery) -> (Option<usize>, bool) {
            let hits = self.db.stats().cache_hits;
            let got = self.db.answer_count(query);
            let want = self.oracle.answer(query);
            let want = (!want.is_overflow()).then(|| want.returned_count());
            assert_eq!(got, want, "{query}: a count read diverged from the oracle");
            (got, self.db.stats().cache_hits > hits)
        }
    }

    fn keys(out: &QueryOutcome) -> Vec<u64> {
        out.keys().map(|k| k.0).collect()
    }

    const BY_M: ScoringPolicy = ScoringPolicy::ByMeasureDesc(MeasureId(0));

    #[test]
    fn underflow_becomes_valid_on_a_matching_insert() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 1)]);
        assert!(t.ask(&probe).0.is_underflow());
        t.insert(1, 1, 0, 5.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_valid());
        assert_eq!(keys(&out), vec![1]);
    }

    #[test]
    fn valid_stays_valid_through_inserts_deletes_and_rescores() {
        let mut t = Twin::new(3, BY_M);
        let probe = q(&[(0, 0)]);
        t.insert(1, 0, 0, 5.0);
        t.ask(&probe);
        t.insert(2, 0, 1, 9.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_valid());
        assert_eq!(keys(&out), vec![2, 1]);
        t.rescore(1, 20.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![1, 2], "a valid page re-sorts");
        t.delete(2);
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![1]);
        t.delete(1);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_underflow());
    }

    #[test]
    fn valid_overflows_at_k_plus_one() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        t.insert(1, 0, 0, 5.0);
        t.insert(2, 0, 1, 7.0);
        assert!(t.ask(&probe).0.is_valid());
        t.insert(3, 0, 2, 6.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_overflow());
        assert_eq!(keys(&out), vec![2, 3]);
    }

    #[test]
    fn overflow_becomes_valid_at_exactly_k() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        for (key, m) in [(1, 5.0), (2, 7.0), (3, 6.0), (4, 1.0)] {
            t.insert(key, 0, 0, m);
        }
        assert!(t.ask(&probe).0.is_overflow());
        // Off-page deletes lower the exact count: 3 > k still overflows,
        // 2 == k turns valid with the same page.
        t.delete(4);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_overflow());
        t.delete(1);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_valid());
        assert_eq!(keys(&out), vec![2, 3]);
    }

    #[test]
    fn overflow_takes_an_insert_only_above_its_last_member() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(1, 0)]);
        for (key, m) in [(1, 5.0), (2, 7.0), (3, 6.0)] {
            t.insert(key, 0, 0, m);
        }
        t.ask(&probe);
        t.insert(4, 1, 0, 1.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![2, 3], "below the last member: page unchanged");
        t.insert(5, 2, 0, 6.5);
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![2, 5], "above it: the last member leaves");
    }

    #[test]
    fn invalidation_drops_entries_whose_page_contains_a_touched_slot() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        for (key, m) in [(1, 5.0), (2, 7.0), (3, 6.0)] {
            t.insert(key, 0, 0, m);
        }
        t.ask(&probe);
        t.delete(3);
        let (out, hit) = t.ask(&probe);
        assert!(!hit, "the third-best match was unknown: evaluate from cold");
        assert_eq!(keys(&out), vec![2, 1]);
        assert_eq!(t.db.memo_stats().invalidated, 1);
    }

    #[test]
    fn a_falling_page_member_drops_and_a_rising_one_re_sorts() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        for (key, m) in [(1, 5.0), (2, 7.0), (3, 6.0)] {
            t.insert(key, 0, 0, m);
        }
        t.ask(&probe);
        t.rescore(3, 8.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit, "a rising member stays on the page");
        assert_eq!(keys(&out), vec![3, 2]);
        t.rescore(2, 7.0);
        assert!(t.ask(&probe).1, "an unchanged score only refreshes the page copy");
        t.rescore(2, 0.5);
        let (out, hit) = t.ask(&probe);
        assert!(!hit, "a falling member may drop below an unknown match");
        assert_eq!(keys(&out), vec![3, 1]);
    }

    #[test]
    fn an_off_page_row_rising_onto_the_page_evicts_the_last_member() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        for (key, m) in [(1, 5.0), (2, 7.0), (3, 6.0), (4, 1.0)] {
            t.insert(key, 0, 0, m);
        }
        t.ask(&probe);
        t.rescore(4, 2.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![2, 3], "still below the last member");
        t.rescore(4, 9.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![4, 2]);
    }

    /// Several rounds of churn below the last member are each patched,
    /// so the first lookup after them is still a hit.
    #[test]
    fn churn_accumulates_across_rounds_until_lookup() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        for (key, m) in [(1, 5.0), (2, 7.0), (3, 6.0), (4, 1.0), (5, 2.0)] {
            t.insert(key, 0, 0, m);
        }
        t.ask(&probe);
        t.insert(6, 0, 3, 0.5);
        t.delete(4);
        t.rescore(5, 3.0);
        t.rescore(1, 0.0);
        t.insert(7, 1, 0, 9.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_overflow());
        assert_eq!(keys(&out), vec![2, 3]);
    }

    fn page_of(out: &QueryOutcome) -> &std::sync::Arc<crate::tuple::Page> {
        match out {
            QueryOutcome::Valid(page) | QueryOutcome::Overflow(page) => page,
            QueryOutcome::Underflow => panic!("an underflow has no page"),
        }
    }

    /// An entry the op's walk checks and keeps is brought up to date with
    /// the op, and its page is copied afresh only when the patch changed
    /// it. An entry the walk never checks keeps sharing its old page.
    #[test]
    fn survivors_are_restamped_when_checked() {
        use std::sync::Arc;
        let mut t = Twin::new(2, BY_M);
        let a = q(&[(0, 0)]);
        let b = q(&[(0, 1)]);
        for (key, a0, m) in [(1, 0, 5.0), (2, 0, 7.0), (3, 0, 6.0), (4, 1, 5.0), (5, 1, 7.0)] {
            t.insert(key, a0, 0, m);
        }
        t.insert(6, 1, 0, 6.0);
        let (first_a, _) = t.ask(&a);
        let (first_b, _) = t.ask(&b);
        t.insert(7, 1, 1, 0.5);
        let (out, hit) = t.ask(&b);
        assert!(hit);
        assert!(Arc::ptr_eq(page_of(&out), page_of(&first_b)), "below the last member");
        t.insert(8, 1, 2, 6.5);
        let (out, hit) = t.ask(&b);
        assert!(hit);
        assert_eq!(keys(&out), vec![5, 8]);
        assert!(!Arc::ptr_eq(page_of(&out), page_of(&first_b)), "the patched page is new");
        let (out, hit) = t.ask(&a);
        assert!(hit);
        assert!(Arc::ptr_eq(page_of(&out), page_of(&first_a)), "never checked, never copied");
    }

    #[test]
    fn a_slot_freed_and_refilled_in_one_batch_needs_no_special_case() {
        let mut t = Twin::new(3, BY_M);
        let probe = q(&[(0, 0)]);
        let other = q(&[(0, 2)]);
        t.insert(1, 0, 0, 5.0);
        t.insert(2, 0, 1, 7.0);
        t.ask(&probe);
        t.ask(&other);
        // Deletes apply before inserts, so key 3 takes key 1's slot.
        let batch = UpdateBatch::empty().delete(TupleKey(1)).insert(Tuple::new(
            TupleKey(3),
            vec![ValueId(2), ValueId(0)],
            vec![9.0],
        ));
        assert!(t.apply(batch));
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![2]);
        let (out, hit) = t.ask(&other);
        assert!(hit);
        assert_eq!(keys(&out), vec![3]);
    }

    /// A member's slot that a matching insert refills in the same batch
    /// holds a new row at the member's old rank: the next read must copy
    /// it from the store, not from the stale page.
    #[test]
    fn a_member_slot_refilled_in_one_batch_serves_the_new_tuple() {
        let mut t = Twin::new(3, BY_M);
        let probe = q(&[(0, 0)]);
        t.insert(1, 0, 0, 5.0);
        t.insert(2, 0, 1, 7.0);
        assert_eq!(keys(&t.ask(&probe).0), vec![2, 1]);
        // Deletes apply before inserts, so key 3 takes key 1's slot.
        let batch = UpdateBatch::empty().delete(TupleKey(1)).insert(Tuple::new(
            TupleKey(3),
            vec![ValueId(0), ValueId(2)],
            vec![6.0],
        ));
        assert!(t.apply(batch));
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![2, 3]);
        assert_eq!(out.tuples().nth(1).unwrap().values(), &[ValueId(0), ValueId(2)]);
    }

    /// Patches accumulate between two reads: an insert above the last
    /// member, a member's measure update and an off-page delete are all
    /// absorbed by one rebuild from the stale page.
    #[test]
    fn one_rebuild_absorbs_several_patches() {
        let mut t = Twin::new(4, BY_M);
        let probe = q(&[(0, 1)]);
        for key in 1..=8 {
            t.insert(key, 1, (key % 4) as u32, key as f64);
        }
        let (first, _) = t.ask(&probe);
        assert_eq!(keys(&first), vec![8, 7, 6, 5]);
        t.insert(9, 1, 0, 6.5);
        t.rescore(7, 7.25);
        t.delete(2);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_overflow());
        assert_eq!(keys(&out), vec![8, 7, 9, 6]);
        assert_eq!(out.tuples().nth(1).unwrap().measure(MeasureId(0)), 7.25);
        assert!(!std::sync::Arc::ptr_eq(page_of(&out), page_of(&first)), "a new page");
        assert_eq!(keys(&first), vec![8, 7, 6, 5], "a page handed out never changes");
        assert_eq!(first.tuples().nth(1).unwrap().measure(MeasureId(0)), 7.0);
    }

    #[test]
    fn a_failed_batch_leaves_its_applied_prefix_patched() {
        let mut t = Twin::new(3, BY_M);
        let probe = q(&[(0, 0)]);
        t.insert(1, 0, 0, 5.0);
        t.insert(2, 0, 1, 7.0);
        t.ask(&probe);
        let batch = UpdateBatch::empty()
            .delete(TupleKey(1))
            .update_measures(TupleKey(2), vec![1.0])
            .update_measures(TupleKey(99), vec![1.0]);
        assert!(!t.apply(batch), "the unknown key fails the batch");
        let (out, hit) = t.ask(&probe);
        assert!(hit);
        assert_eq!(keys(&out), vec![2]);
        assert_eq!(out.tuples().next().unwrap().measure(MeasureId(0)), 1.0);
    }

    #[test]
    fn zero_k_entries_stay_exact() {
        let mut t = Twin::new(0, BY_M);
        let probe = q(&[(0, 0)]);
        t.ask(&probe);
        t.insert(1, 0, 0, 5.0);
        t.insert(2, 0, 0, 6.0);
        let (out, hit) = t.ask(&probe);
        assert!(hit && out.is_underflow(), "k = 0 pages are always empty");
        t.rescore(1, 9.0);
        t.delete(2);
        t.delete(1);
        assert!(t.ask(&probe).1);
        t.insert(3, 0, 0, 1.0);
        assert!(t.ask(&probe).1);
    }

    #[test]
    fn the_root_entry_sees_every_row() {
        let mut t = Twin::new(2, BY_M);
        let root = ConjunctiveQuery::select_all();
        t.ask(&root);
        for (key, a0, a1, m) in [(1, 0, 0, 5.0), (2, 1, 3, 7.0), (3, 2, 1, 6.0)] {
            t.insert(key, a0, a1, m);
            assert!(t.ask(&root).1);
        }
        assert_eq!(keys(&t.ask(&root).0), vec![2, 3]);
    }

    /// A count read leaves a count-only entry: inserts and deletes of
    /// matching rows move its count across `k`, down to an underflow and
    /// back, re-scores leave it, and nothing drops it. Count reads stay
    /// warm throughout. A class read hits it only while it overflows; its
    /// miss at `k` evaluates, and the admission puts a full entry in its
    /// place.
    #[test]
    fn a_count_only_entry_crosses_k_and_back_without_a_drop() {
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(0, 0)]);
        for (key, a1, m) in [(1, 0, 5.0), (2, 1, 7.0), (3, 2, 6.0)] {
            t.insert(key, 0, a1, m);
        }
        assert_eq!(t.ask_count(&probe), (None, false), "cold, by count alone");
        assert_eq!(t.ask_class(&probe), (None, true), "an overflow serves a class read");
        t.delete(2);
        assert_eq!(t.ask_count(&probe), (Some(2), true), "the best match left, down to k");
        t.rescore(1, 8.0);
        t.delete(3);
        t.delete(1);
        assert_eq!(t.ask_count(&probe), (Some(0), true), "down to an underflow");
        for (key, a1, m) in [(4, 3, 9.0), (5, 1, 1.0), (6, 2, 3.0)] {
            t.insert(key, 0, a1, m);
        }
        assert_eq!(t.ask_count(&probe), (None, true), "back above k");
        assert_eq!(t.ask_class(&probe), (None, true));
        t.delete(6);
        let (out, hit) = t.ask_class(&probe);
        assert!(!hit, "at k a class read needs the page: evaluate");
        assert_eq!(keys(&out.unwrap()), vec![4, 5]);
        assert_eq!((t.db.memo_len(), t.db.memo_stats().insertions), (1, 2), "replaced");
        assert!(t.ask_class(&probe).1, "the full entry serves class reads");
        assert_eq!(t.ask_count(&probe), (Some(2), true));
        assert_eq!(t.db.memo_stats().invalidated, 0, "never dropped");
    }

    /// A page read of a count-only entry evaluates in full and replaces
    /// it; a class read of a full overflow entry leaves its page shared.
    #[test]
    fn a_page_read_replaces_a_count_only_entry() {
        use std::sync::Arc;
        let mut t = Twin::new(2, BY_M);
        let probe = q(&[(1, 0)]);
        for (key, a0, m) in [(1, 0, 5.0), (2, 1, 7.0), (3, 2, 6.0)] {
            t.insert(key, a0, 0, m);
        }
        assert_eq!(t.ask_class(&probe), (None, false));
        let (first, hit) = t.ask(&probe);
        assert!(!hit && first.is_overflow(), "a count-only entry holds no page");
        assert_eq!((t.db.memo_len(), t.db.memo_stats().insertions), (1, 2), "replaced");
        assert_eq!(t.ask_class(&probe), (None, true));
        let (out, hit) = t.ask(&probe);
        assert!(hit && Arc::ptr_eq(page_of(&out), page_of(&first)), "the page was left alone");
        assert_eq!(t.db.stats().class_only_overflows, 2);
    }

    /// A count read of a cached answer reads its size alone: a page
    /// never copied stays absent, a stale copy stays unrebuilt, and the
    /// next page read still gets the page of the entry's members.
    #[test]
    fn a_count_read_builds_no_page() {
        let mut store = crate::store::Store::new(1, 1);
        let row = |key: u64| Tuple::new(TupleKey(key), vec![ValueId(0)], vec![key as f64]);
        let (a, b) = (store.insert(row(1), 9).unwrap(), store.insert(row(2), 8).unwrap());
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        let mut memo = QueryMemo::default();
        insert(&mut memo, &query, CachedEval::new(false, vec![a, b]));
        let ask = |memo: &mut QueryMemo, store: &crate::store::Store, read: Read| {
            let answer = memo.hit(h, &query, store, 3, read).expect("cached");
            let copy = match &memo.get_mut(h, &query).expect("cached").page {
                PageCopy::Absent => "absent",
                PageCopy::Current(_) => "current",
                PageCopy::Stale(_) => "stale",
            };
            (answer, copy)
        };
        let (answer, copy) = ask(&mut memo, &store, Read::Count);
        assert_eq!((answer.count(), copy), (Some(2), "absent"));
        let (answer, copy) = ask(&mut memo, &store, Read::Page);
        assert_eq!((answer.outcome().map(|out| out.returned_count()), copy), (Some(2), "current"));

        // A matching insert above both members makes the copy stale.
        let c = store.insert(row(3), 10).unwrap();
        let values = [ValueId(0)];
        memo.patch(
            &RowOp { slot: c, values: &values, score: 10, change: RowChange::Insert },
            3,
            &store,
        );
        let (answer, copy) = ask(&mut memo, &store, Read::Count);
        assert_eq!((answer.count(), copy), (Some(3), "stale"), "a count read rebuilds nothing");
        let (answer, copy) = ask(&mut memo, &store, Read::Page);
        let want = QueryOutcome::Valid(std::sync::Arc::new(store.page(&[c, a, b])));
        assert_eq!((answer.outcome(), copy), (Some(want), "current"));
    }

    /// Admission never replaces a full entry, and replaces a count-only
    /// one only with a full evaluation: two sessions of one snapshot may
    /// miss together, each by page or by class.
    #[test]
    fn admission_replaces_only_a_count_only_entry_with_a_full_one() {
        let query = q(&[(0, 1)]);
        let h = QueryMemo::hash_of(&query);
        let mut memo = QueryMemo::default();
        let full = || {
            let mut eval = CachedEval::new(true, vec![4, 2]);
            eval.matched = 5;
            eval
        };
        assert!(memo.admit(h, &query, CachedEval::counted(5, 2)));
        assert!(!memo.admit(h, &query, CachedEval::counted(5, 2)));
        assert!(memo.admit(h, &query, full()));
        assert!(!memo.admit(h, &query, CachedEval::counted(5, 2)));
        assert!(!memo.admit(h, &query, full()));
        let eval = memo.get_mut(h, &query).unwrap();
        assert!(!eval.count_only && eval.slots == vec![4, 2]);
        assert_eq!((memo.len(), memo.stats().insertions), (1, 2));
    }

    /// An off-page delete lowers the exact count: the entry keeps its
    /// overflow class while the count exceeds `k`, and turns valid with
    /// the same page once the margin collapses to `k`.
    #[test]
    fn revalidation_fails_when_the_classification_margin_collapses() {
        let mut store = crate::store::Store::new(1, 0);
        let mut slot = |key: u64, score: u64| {
            store.insert(Tuple::new(TupleKey(key), vec![ValueId(0)], vec![]), score).unwrap()
        };
        let (a, b, c) = (slot(1, 100), slot(2, 90), slot(3, 10));
        store.delete(TupleKey(3)).unwrap();
        let query = q(&[(0, 0)]);
        let row = [ValueId(0)];
        let op = RowOp { slot: c, values: &row, score: 10, change: RowChange::Delete };
        for (matched, want) in [(4, (true, 3)), (3, (false, 2))] {
            let mut memo = QueryMemo::default();
            let mut eval = CachedEval::new(true, vec![a, b]);
            eval.matched = matched;
            insert(&mut memo, &query, eval);
            memo.patch(&op, 2, &store);
            let e = memo.get_mut(QueryMemo::hash_of(&query), &query).expect("entry kept");
            assert_eq!(e.slots, vec![a, b], "an off-page delete keeps the page");
            assert_eq!((e.overflow, e.matched), want, "matched {matched}");
            assert_eq!(memo.stats().invalidated, 0);
        }
    }
}
