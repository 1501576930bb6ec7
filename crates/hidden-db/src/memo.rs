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
//! Each non-root entry is filed under exactly one of its predicates — the
//! rarest when it was admitted — in `by_posting`. A row satisfies a query
//! only if it carries every one of the query's predicates, the filed one
//! included, so probing the row's `m` postings and checking each filed
//! entry's other predicates against the row finds every entry to patch,
//! each exactly once. The walk never visits an entry through a predicate
//! it was not filed under. With an empty memo a mutation does no memo
//! work at all.
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
//! patch drops unlink the entry from its bucket and its posting list, so
//! both maps stay proportional to the live entries.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::index::BitmapIndex;
use crate::interface::{Answer, CachedEval, Read};
use crate::query::{ConjunctiveQuery, Predicate};
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

/// One-multiply hasher for packed posting keys: every row change probes
/// `by_posting` once per attribute, and SipHash on a 6-byte tuple key
/// would dominate that walk. Fibonacci multiply spreads the dense packed
/// ids across the high bits, which `HashMap` folds into its bucket index.
#[derive(Default)]
pub(crate) struct PostingKeyHasher(u64);

impl Hasher for PostingKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("posting-key hasher is only fed packed u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Packs a posting into the `by_posting` key: attribute in the high
/// word, value in the low.
#[inline]
fn pack_posting(attr: AttrId, value: ValueId) -> u64 {
    (u64::from(attr.0) << 32) | u64::from(value.0)
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
    /// The packed posting this entry is filed under in `by_posting`;
    /// `None` for the root entry.
    filed: Option<u64>,
    /// CLOCK referenced bit: set on hit, cleared by the hand.
    referenced: bool,
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
    /// Packed posting → slab ids of the entries filed under it.
    by_posting: HashMap<u64, Vec<u32>, BuildHasherDefault<PostingKeyHasher>>,
    /// Slab id of the root entry, which every row satisfies.
    root: Option<u32>,
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
            by_posting: HashMap::default(),
            root: None,
            hand: 0,
            capacity: DEFAULT_MEMO_CAPACITY,
            stats: MemoStats::default(),
            scratch: Vec::new(),
        }
    }
}

impl QueryMemo {
    /// Fast 64-bit fingerprint of a query (FxHash-style multiply-rotate
    /// over the sorted predicate list; queries are canonical by
    /// construction so structurally equal queries fingerprint equal).
    #[inline]
    pub(crate) fn hash_of(query: &ConjunctiveQuery) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ query.predicates().len() as u64;
        for p in query.predicates() {
            let word = (u64::from(p.attr.0) << 32) | u64::from(p.value.0);
            h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        }
        h
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
    /// files a non-root entry under its rarest predicate by `index`'s
    /// live counts, which keeps the per-op patch walk short. Admits if
    /// `query` is absent, or replaces its count-only entry with a full
    /// `eval`, and returns whether it did. It never replaces a full
    /// entry: two sessions of one snapshot may miss on the same query
    /// together.
    pub(crate) fn admit(
        &mut self,
        hash: u64,
        query: &ConjunctiveQuery,
        eval: CachedEval,
        index: &BitmapIndex,
    ) -> bool {
        if let Some(id) = self.find(hash, query) {
            let entry = self.entries[id as usize].as_mut().expect("listed memo entries are live");
            if !entry.eval.count_only || eval.count_only {
                return false;
            }
            entry.eval = eval;
            self.stats.insertions += 1;
            return true;
        }
        let rarest = query
            .predicates()
            .iter()
            .copied()
            .min_by_key(|p| (index.count(p.attr, p.value), p.attr, p.value));
        self.insert(hash, query, eval, rarest)
    }

    /// Inserts a confirmed-missing entry (this is the one place the query
    /// is cloned) and returns whether it did: a capacity of 0 admits
    /// nothing. A non-root query is filed under `file_under`, one of its
    /// own predicates. Evicts via the CLOCK sweep first if the memo is at
    /// capacity.
    fn insert(
        &mut self,
        hash: u64,
        query: &ConjunctiveQuery,
        eval: CachedEval,
        file_under: Option<Predicate>,
    ) -> bool {
        debug_assert_eq!(file_under.is_none(), query.is_empty(), "file exactly non-root entries");
        debug_assert!(file_under.is_none_or(|p| query.predicates().contains(&p)));
        if self.capacity == 0 {
            return false;
        }
        while self.len() >= self.capacity {
            self.evict_one();
        }
        let filed = file_under.map(|p| pack_posting(p.attr, p.value));
        let entry = MemoEntry { query: query.clone(), eval, hash, filed, referenced: false };
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
        match filed {
            Some(posting) => self.by_posting.entry(posting).or_default().push(id),
            None => {
                debug_assert!(self.root.is_none(), "the root is cached twice");
                self.root = Some(id);
            }
        }
        self.stats.insertions += 1;
        true
    }

    /// Patches every cached answer whose query `op`'s row satisfies (see
    /// the module docs), dropping the ones that cannot stay exact. `k` is
    /// the database's page size; `store` already holds the change.
    pub(crate) fn patch(&mut self, op: &RowOp<'_>, k: usize, store: &StoreCore) {
        if self.is_empty() {
            return;
        }
        let mut hits = std::mem::take(&mut self.scratch);
        hits.clear();
        hits.extend(self.root);
        for (a, &value) in op.values.iter().enumerate() {
            if let Some(ids) = self.by_posting.get(&pack_posting(AttrId(a as u16), value)) {
                let satisfied = |&id: &u32| self.entry(id).query.matches_values(op.values);
                hits.extend(ids.iter().copied().filter(satisfied));
            }
        }
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
        unlink(&mut self.buckets, entry.hash, id);
        match entry.filed {
            Some(posting) => unlink(&mut self.by_posting, posting, id),
            None => self.root = None,
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
        self.by_posting.clear();
        self.root = None;
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

/// Removes `id` from the list under `key`, and the list once empty.
fn unlink<S: BuildHasher>(map: &mut HashMap<u64, Vec<u32>, S>, key: u64, id: u32) {
    if let Some(ids) = map.get_mut(&key) {
        if let Some(i) = ids.iter().position(|&x| x == id) {
            ids.swap_remove(i);
        }
        if ids.is_empty() {
            map.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::HiddenDatabase;
    use crate::interface::{PageCopy, QueryOutcome};
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

    /// Files a query under its first predicate, as tests need any one.
    fn insert(memo: &mut QueryMemo, query: &ConjunctiveQuery, eval: CachedEval) {
        let file_under = query.predicates().first().copied();
        memo.insert(QueryMemo::hash_of(query), query, eval, file_under);
    }

    fn cached(memo: &mut QueryMemo, query: &ConjunctiveQuery) -> bool {
        memo.get_mut(QueryMemo::hash_of(query), query).is_some()
    }

    /// The root entry is filed under no posting: it is found by the
    /// fingerprint of `select_all` and tracked by its slab id.
    #[test]
    fn root_hash_matches_hash_of_select_all() {
        let root = ConjunctiveQuery::select_all();
        let h = QueryMemo::hash_of(&root);
        assert_eq!(h, QueryMemo::hash_of(&ConjunctiveQuery::from_predicates(Vec::new())));
        let mut memo = QueryMemo::default();
        memo.insert(h, &root, CachedEval::new(false, vec![]), None);
        let id = memo.root.expect("the unfiled entry is the root");
        assert_eq!(memo.entry(id).hash, h);
        assert_eq!(memo.buckets[&h], vec![id]);
        assert!(memo.by_posting.is_empty(), "the root is filed under no posting");
        assert!(cached(&mut memo, &root));
        memo.remove(id);
        assert!(memo.root.is_none());
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
        memo.insert(h, &a, CachedEval::new(false, vec![1]), Some(a.predicates()[0]));
        memo.insert(h, &b, CachedEval::new(true, vec![2]), Some(b.predicates()[0]));
        assert_eq!(memo.get_mut(h, &a).unwrap().slots, vec![1]);
        assert_eq!(memo.get_mut(h, &b).unwrap().slots, vec![2]);
        assert_eq!(memo.len(), 2);
        // Dropping one leaves its bucket mate reachable.
        let id = memo.buckets[&h][0];
        memo.remove(id);
        assert!(memo.get_mut(h, &a).is_none());
        assert_eq!(memo.get_mut(h, &b).unwrap().slots, vec![2]);
    }

    /// Row-exact reach: a delete patches or drops exactly the entries
    /// whose query the row satisfies, never one that merely shares a
    /// posting with it.
    #[test]
    fn invalidation_drops_only_intersecting_entries() {
        let mut store = crate::store::Store::new(2, 0);
        let mut slot = |key: u64, a0: u32, a1: u32, score: u64| {
            let values = vec![ValueId(a0), ValueId(a1)];
            store.insert(Tuple::new(TupleKey(key), values, vec![]), score).unwrap()
        };
        let (a, b, c) = (slot(1, 1, 0, 9), slot(2, 1, 2, 8), slot(3, 0, 1, 7));
        let mut memo = QueryMemo::default();
        let overflow = |page: Vec<Slot>, matched: usize| {
            let mut eval = CachedEval::new(true, page);
            eval.matched = matched;
            eval
        };
        let root = ConjunctiveQuery::select_all();
        memo.insert(QueryMemo::hash_of(&root), &root, overflow(vec![a], 3), None);
        let a0 = q(&[(0, 1)]);
        let satisfied = q(&[(0, 1), (1, 0)]);
        let shares_a_posting = q(&[(0, 1), (1, 2)]);
        let cross = q(&[(1, 1)]); // same value id, different attribute
        insert(&mut memo, &a0, overflow(vec![a], 2));
        insert(&mut memo, &satisfied, CachedEval::new(false, vec![a]));
        insert(&mut memo, &shares_a_posting, CachedEval::new(false, vec![b]));
        insert(&mut memo, &cross, CachedEval::new(false, vec![c]));

        store.delete(TupleKey(1)).unwrap();
        let row = [ValueId(1), ValueId(0)];
        memo.patch(
            &RowOp { slot: a, values: &row, score: 9, change: RowChange::Delete },
            1,
            &store,
        );
        assert!(!cached(&mut memo, &root), "an overflow page lost its member");
        assert!(!cached(&mut memo, &a0), "an overflow page lost its member");
        let eval = memo.get_mut(QueryMemo::hash_of(&satisfied), &satisfied).unwrap();
        assert!(eval.slots.is_empty() && eval.matched == 0, "a valid page is patched");
        assert_eq!(
            memo.get_mut(QueryMemo::hash_of(&shares_a_posting), &shares_a_posting).unwrap().slots,
            vec![b]
        );
        assert_eq!(memo.get_mut(QueryMemo::hash_of(&cross), &cross).unwrap().slots, vec![c]);
        assert_eq!(memo.stats().invalidated, 2);
        assert_eq!(memo.len(), 3);
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
        // member, which drops it: the slab and both maps must not grow.
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
        assert!(memo.buckets.is_empty() && memo.by_posting.is_empty());
        assert_eq!(memo.stats().invalidated, 5_000);
    }

    #[test]
    fn eviction_unlinks_postings_so_reinsert_works() {
        let mut memo = QueryMemo::default();
        memo.set_capacity(1);
        let a = q(&[(0, 0)]);
        let b = q(&[(0, 1)]);
        insert(&mut memo, &a, CachedEval::new(false, vec![]));
        insert(&mut memo, &b, CachedEval::new(false, vec![]));
        assert_eq!(memo.len(), 1);
        insert(&mut memo, &a, CachedEval::new(false, vec![]));
        // Exactly one live entry is filed, under `a`'s posting.
        let filed: usize = memo.by_posting.values().map(Vec::len).sum();
        assert_eq!(filed, 1);
        assert!(memo.by_posting.contains_key(&pack_posting(AttrId(0), ValueId(0))));
        assert_eq!(memo.buckets.values().map(Vec::len).sum::<usize>(), 1);
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
        let schema = Schema::with_domain_sizes(&[3], &[]).unwrap();
        let index = BitmapIndex::new(&schema);
        let query = q(&[(0, 1)]);
        let h = QueryMemo::hash_of(&query);
        let mut memo = QueryMemo::default();
        let full = || {
            let mut eval = CachedEval::new(true, vec![4, 2]);
            eval.matched = 5;
            eval
        };
        assert!(memo.admit(h, &query, CachedEval::counted(5, 2), &index));
        assert!(!memo.admit(h, &query, CachedEval::counted(5, 2), &index));
        assert!(memo.admit(h, &query, full(), &index));
        assert!(!memo.admit(h, &query, CachedEval::counted(5, 2), &index));
        assert!(!memo.admit(h, &query, full(), &index));
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
