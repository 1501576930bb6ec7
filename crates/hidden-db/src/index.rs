//! Bitmap index: for every store segment, one bitmap row per
//! `(attribute, value)` marking the slots whose alive tuple carries that
//! value, plus one **alive row** marking every alive slot.
//!
//! The hidden database answers conjunctions of equality predicates over
//! categorical attributes with small domains — the textbook case for
//! bitmap indexes (O'Neil & Quass, "Improved query performance with
//! variant indexes", SIGMOD 1997). A query's matches in one segment are
//! the word-by-word AND of the alive row with its predicates' rows
//! ([`BitmapIndex::and_rows`]), so root, one-predicate and
//! many-predicate queries all run the same loop, and a set bit is an
//! alive slot that carries every value of the query: no re-check of the
//! stored values, no duplicate to skip.
//!
//! Insert sets a slot's bits and delete clears them, so the rows are
//! always exact: there are no tombstones, no lazy sorts and nothing to
//! compact. Beside the rows sits an exact live count per `(attr, value)`
//! ([`BitmapIndex::count`]), which the memo uses to file an entry under
//! its rarest predicate.
//!
//! ## Memory
//!
//! Each segment holds `(Σ domain sizes + 1)` rows of [`SEGMENT_WORDS`]
//! words: `(Σ domain sizes + 1) × 512` bytes per 4 096-slot segment
//! (190 KB at 20 attributes of Autos, 380 KB at 38). The bitmaps stay
//! resident when the persistence tier pages the store's segments out; a
//! scan faults a store segment in only to read the scores of its set
//! bits.
//!
//! ## Snapshot sharing
//!
//! Each segment's rows live in one [`Arc`]-shared block, so cloning the
//! index into an epoch snapshot is one reference-count bump per segment
//! plus the count vector. The writer's first touch of a block after a
//! publish copies it ([`Arc::make_mut`]), exactly as
//! [`StoreCore`](crate::store::StoreCore) segments work.

use std::sync::Arc;

use crate::query::ConjunctiveQuery;
use crate::schema::Schema;
use crate::store::{segment_of, Slot, StoreCore, SEGMENT_MASK, SEGMENT_SLOTS};
use crate::value::{AttrId, ValueId};

/// 64-bit words per segment bitmap row.
pub(crate) const SEGMENT_WORDS: usize = SEGMENT_SLOTS / 64;

/// One segment's bitmap for one `(attr, value)` (or the alive row).
pub(crate) type Row = [u64; SEGMENT_WORDS];

/// Bytes the index of `segments` store segments under `schema` takes:
/// `segments × (Σ domain sizes + 1) × 512`, saturating.
pub(crate) fn bytes_for(schema: &Schema, segments: usize) -> usize {
    let rows = schema.attr_ids().map(|a| schema.domain_size(a) as usize).sum::<usize>() + 1;
    segments.saturating_mul(rows.saturating_mul(std::mem::size_of::<Row>()))
}

/// Per-segment bitmap rows for every `(attr, value)` of a schema, plus
/// the alive row and the exact live count of every value.
#[derive(Debug, Clone)]
pub(crate) struct BitmapIndex {
    /// `first_row[a]` is the row of `(a, 0)`; value `v` of attribute `a`
    /// lives in row `first_row[a] + v`.
    first_row: Vec<usize>,
    /// Row index of the alive row: Σ domain sizes.
    alive_row: usize,
    /// One `Arc`-shared block of rows per store segment.
    segs: Vec<Arc<[Row]>>,
    /// Live tuples per row (the alive row's entry is `|D|`).
    counts: Vec<u32>,
}

impl BitmapIndex {
    /// Creates an empty index shaped after `schema`.
    pub(crate) fn new(schema: &Schema) -> Self {
        let mut first_row = Vec::with_capacity(schema.attr_count());
        let mut rows = 0usize;
        for a in schema.attr_ids() {
            first_row.push(rows);
            rows += schema.domain_size(a) as usize;
        }
        Self { first_row, alive_row: rows, segs: Vec::new(), counts: vec![0; rows + 1] }
    }

    /// Builds the index of `store`'s alive tuples (the snapshot reader's
    /// path: bitmaps are never persisted). One pass per segment over its
    /// alive slots sets each slot's alive bit and, from the slot's value
    /// row, the bit of each value it carries.
    pub(crate) fn from_store(schema: &Schema, store: &StoreCore) -> Self {
        let mut index = Self::new(schema);
        index.segs.reserve(store.segment_count());
        for seg in 0..store.segment_count() {
            index.push_segment();
            let data = store.seg_view(seg);
            let block = Arc::get_mut(&mut index.segs[seg]).expect("fresh block is unshared");
            for off in (0..data.alive.len()).filter(|&off| data.alive[off]) {
                let (word, bit) = (off >> 6, 1u64 << (off & 63));
                block[index.alive_row][word] |= bit;
                index.counts[index.alive_row] += 1;
                for (a, &v) in data.value_row(off).iter().enumerate() {
                    let row = index.first_row[a] + v as usize;
                    block[row][word] |= bit;
                    index.counts[row] += 1;
                }
            }
        }
        index
    }

    /// Rows per segment block: Σ domain sizes plus the alive row.
    fn rows_per_segment(&self) -> usize {
        self.alive_row + 1
    }

    fn push_segment(&mut self) {
        let block: Arc<[Row]> = vec![[0u64; SEGMENT_WORDS]; self.rows_per_segment()].into();
        self.segs.push(block);
    }

    /// The row of `(attr, value)`.
    #[inline]
    fn row(&self, attr: usize, value: ValueId) -> usize {
        self.first_row[attr] + value.index()
    }

    /// Sets or clears `slot`'s bit in the alive row and in the row of
    /// each of its `values`, keeping the counts in step.
    fn write(&mut self, slot: Slot, values: &[ValueId], set: bool) {
        let seg = segment_of(slot);
        if seg == self.segs.len() {
            self.push_segment();
        }
        let off = slot as usize & SEGMENT_MASK;
        let (word, bit) = (off >> 6, 1u64 << (off & 63));
        let first_row = &self.first_row;
        let rows = std::iter::once(self.alive_row)
            .chain(values.iter().enumerate().map(|(a, &v)| first_row[a] + v.index()));
        let block = Arc::make_mut(&mut self.segs[seg]);
        for r in rows {
            let cell = &mut block[r][word];
            debug_assert_eq!(*cell & bit != 0, !set, "slot {slot}: row {r} out of step");
            if set {
                *cell |= bit;
                self.counts[r] += 1;
            } else {
                *cell &= !bit;
                self.counts[r] -= 1;
            }
        }
    }

    /// Registers a freshly inserted tuple (`values` in schema order).
    pub(crate) fn insert(&mut self, slot: Slot, values: &[ValueId]) {
        self.write(slot, values, true);
    }

    /// Unregisters the deleted tuple at `slot`, which carried `values`.
    pub(crate) fn delete(&mut self, slot: Slot, values: &[ValueId]) {
        self.write(slot, values, false);
    }

    /// Exact number of alive tuples carrying `value` on `attr`.
    pub(crate) fn count(&self, attr: AttrId, value: ValueId) -> u32 {
        self.counts[self.row(attr.index(), value)]
    }

    /// The rows `query`'s predicates select, in predicate order.
    pub(crate) fn rows_of(&self, query: &ConjunctiveQuery) -> Vec<usize> {
        query.predicates().iter().map(|p| self.row(p.attr.index(), p.value)).collect()
    }

    /// ANDs segment `seg`'s alive row with `rows` into `out`; returns
    /// whether any bit survived. A set bit of `out` is an alive slot that
    /// carries every value `rows` stand for.
    #[inline]
    pub(crate) fn and_rows(&self, seg: usize, rows: &[usize], out: &mut Row) -> bool {
        let block = &self.segs[seg];
        *out = block[self.alive_row];
        for &r in rows {
            for (o, &w) in out.iter_mut().zip(block[r].iter()) {
                *o &= w;
            }
        }
        out.iter().any(|&w| w != 0)
    }

    /// Panics unless the index is exactly the one `store` implies: each
    /// row's set bits are the alive slots carrying its value, the alive
    /// row is the store's alive flags, and each count is its row's
    /// popcount.
    #[cfg(test)]
    pub(crate) fn assert_coherent(&self, store: &StoreCore) {
        assert_eq!(self.segs.len(), store.segment_count(), "one block per store segment");
        let mut popcounts = vec![0u32; self.rows_per_segment()];
        for (seg, block) in self.segs.iter().enumerate() {
            let data = store.seg_view(seg);
            let mut want = vec![[0u64; SEGMENT_WORDS]; self.rows_per_segment()];
            for off in (0..data.alive.len()).filter(|&off| data.alive[off]) {
                let (word, bit) = (off >> 6, 1u64 << (off & 63));
                want[self.alive_row][word] |= bit;
                for (a, &v) in data.value_row(off).iter().enumerate() {
                    want[self.first_row[a] + v as usize][word] |= bit;
                }
            }
            for (r, (got, want)) in block.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "segment {seg}, row {r}");
                popcounts[r] += got.iter().map(|w| w.count_ones()).sum::<u32>();
            }
        }
        assert_eq!(self.counts, popcounts, "counts are the rows' popcounts");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::tuple::Tuple;
    use crate::value::TupleKey;

    fn setup() -> (Schema, Store, BitmapIndex) {
        let schema = Schema::with_domain_sizes(&[2, 3], &[]).unwrap();
        let store = Store::new(2, 0);
        let index = BitmapIndex::new(&schema);
        (schema, store, index)
    }

    fn ins(store: &mut Store, index: &mut BitmapIndex, key: u64, vals: &[u32]) -> Slot {
        let values: Vec<ValueId> = vals.iter().map(|&v| ValueId(v)).collect();
        let slot = store.insert(Tuple::new(TupleKey(key), values.clone(), vec![]), key).unwrap();
        index.insert(slot, &values);
        slot
    }

    fn del(store: &mut Store, index: &mut BitmapIndex, key: u64) {
        let slot = store.slot_of(TupleKey(key)).unwrap();
        let values: Vec<ValueId> = (0..2).map(|a| ValueId(store.value_at(a, slot))).collect();
        store.delete(TupleKey(key)).unwrap();
        index.delete(slot, &values);
    }

    /// The set bits of `(a, v)` ANDed with the alive row, as slots.
    fn collect(index: &BitmapIndex, a: u16, v: u32) -> Vec<Slot> {
        let q = ConjunctiveQuery::from_predicates([crate::query::Predicate::new(
            AttrId(a),
            ValueId(v),
        )]);
        let rows = index.rows_of(&q);
        let mut out = Vec::new();
        let mut hits = [0u64; SEGMENT_WORDS];
        for seg in 0..index.segs.len() {
            index.and_rows(seg, &rows, &mut hits);
            for off in 0..SEGMENT_SLOTS {
                if hits[off >> 6] & (1 << (off & 63)) != 0 {
                    out.push((seg * SEGMENT_SLOTS + off) as Slot);
                }
            }
        }
        out
    }

    #[test]
    fn insert_then_scan() {
        let (_s, mut store, mut index) = setup();
        let s0 = ins(&mut store, &mut index, 1, &[0, 2]);
        let s1 = ins(&mut store, &mut index, 2, &[0, 1]);
        let _ = ins(&mut store, &mut index, 3, &[1, 2]);
        assert_eq!(collect(&index, 0, 0), vec![s0, s1]);
        assert_eq!(collect(&index, 1, 2).len(), 2);
        assert_eq!(collect(&index, 1, 0), Vec::<Slot>::new());
        assert_eq!(
            (index.count(AttrId(0), ValueId(0)), index.count(AttrId(1), ValueId(2))),
            (2, 2)
        );
        index.assert_coherent(&store);
    }

    #[test]
    fn delete_hides_tuple_without_compaction() {
        let (_s, mut store, mut index) = setup();
        ins(&mut store, &mut index, 1, &[0, 1]);
        del(&mut store, &mut index, 1);
        assert!(collect(&index, 0, 0).is_empty());
        assert_eq!(index.count(AttrId(0), ValueId(0)), 0);
        index.assert_coherent(&store);
    }

    #[test]
    fn slot_reuse_with_different_value_is_filtered() {
        let (_s, mut store, mut index) = setup();
        let slot = ins(&mut store, &mut index, 1, &[0, 0]);
        del(&mut store, &mut index, 1);
        // Reuse the same slot with a different A0 value.
        let slot2 = ins(&mut store, &mut index, 2, &[1, 0]);
        assert_eq!(slot, slot2);
        // The old occupant's (A0,u0) bit must not resurrect the new one.
        assert!(collect(&index, 0, 0).is_empty());
        assert_eq!(collect(&index, 0, 1), vec![slot2]);
        index.assert_coherent(&store);
    }

    #[test]
    fn slot_reuse_with_same_value_does_not_duplicate() {
        let (_s, mut store, mut index) = setup();
        let slot = ins(&mut store, &mut index, 1, &[1, 2]);
        del(&mut store, &mut index, 1);
        let slot2 = ins(&mut store, &mut index, 2, &[1, 2]);
        assert_eq!(slot, slot2);
        assert_eq!(collect(&index, 0, 1), vec![slot2]);
        assert_eq!(index.count(AttrId(0), ValueId(1)), 1);
        index.assert_coherent(&store);
    }

    #[test]
    fn rebuild_matches_incremental() {
        let (schema, mut store, mut index) = setup();
        // Two segments, every third tuple deleted, then the freed slots
        // refilled with other values.
        let n = SEGMENT_SLOTS as u64 + 60;
        for key in 0..n {
            ins(&mut store, &mut index, key, &[(key % 2) as u32, (key % 3) as u32]);
        }
        for key in (0..n).step_by(3) {
            del(&mut store, &mut index, key);
        }
        for key in n..n + 40 {
            ins(&mut store, &mut index, key, &[((key + 1) % 2) as u32, 2]);
        }
        let rebuilt = BitmapIndex::from_store(&schema, &store);
        assert_eq!(rebuilt.counts, index.counts);
        for (a, b) in rebuilt.segs.iter().zip(&index.segs) {
            assert_eq!(a[..], b[..]);
        }
        index.assert_coherent(&store);
    }

    /// A cloned index is a snapshot: the writer copies a block on its
    /// first touch, and untouched blocks stay shared.
    #[test]
    fn clone_shares_blocks_until_the_writer_touches_them() {
        let (_s, mut store, mut index) = setup();
        for key in 0..SEGMENT_SLOTS as u64 + 1 {
            ins(&mut store, &mut index, key, &[0, 0]);
        }
        let snap = index.clone();
        del(&mut store, &mut index, 0);
        assert!(!Arc::ptr_eq(&snap.segs[0], &index.segs[0]), "writer copied segment 0");
        assert!(Arc::ptr_eq(&snap.segs[1], &index.segs[1]), "segment 1 still shared");
        assert_eq!(collect(&snap, 0, 0).len(), SEGMENT_SLOTS + 1);
        assert_eq!(collect(&index, 0, 0).len(), SEGMENT_SLOTS);
    }
}
