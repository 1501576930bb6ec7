//! Slot-based tuple storage, organised in fixed-size segments of rows.
//!
//! Tuples live in *slots*; deleting a tuple frees its slot for reuse by a
//! later insert. External identity is the [`TupleKey`], which is never
//! reused.
//!
//! ## Rows, not columns
//!
//! Each segment stores its tuples row-major: one slot's attribute values
//! sit next to each other, and so do its measures. The reader this layout
//! serves is the result page. Every search query returns up to `k` whole
//! tuples, and [`StoreCore::page`] copies each of them as one contiguous
//! value slice and one measure slice. Per-attribute work, matching
//! predicates, runs on the bitmap index (the `index` module) without
//! reading the store's values; the evaluation engine reads only the
//! scores of its matches, which keep an array of their own.
//!
//! ## One byte per value
//!
//! A value code is one byte: a schema's domains hold at most
//! [`MAX_DOMAIN_SIZE`](crate::schema::MAX_DOMAIN_SIZE) values, so a row
//! is `attr_count` bytes (38 at the paper's 38 Autos attributes), and its
//! readers widen each code to a [`ValueId`] as they read it. With the
//! key, score, alive flag and one measure, a 4 096-slot segment takes
//! 252 KB at 38 attributes (708 KB with four-byte codes) and 180 KB at
//! 20 (420 KB). [`Store::insert`] refuses a code that needs more than a
//! byte.
//!
//! ## Segments
//!
//! Slots are grouped into fixed-size segments of [`SEGMENT_SLOTS`]
//! consecutive slots. Each segment's rows live in one [`Arc`]-shared
//! block, so cloning the read-side of the store ([`StoreCore`]) is a
//! handful of reference-count bumps plus the per-segment alive counts —
//! the substrate for the epoch-published snapshots of
//! [`crate::service::DbService`]. Mutation goes through
//! [`Arc::make_mut`]: copy-on-write at segment granularity, so a published
//! snapshot keeps the old block while the writer pays one segment copy the
//! first time it touches a shared segment.
//!
//! Each segment's **alive count** is maintained on every mutation; it lets
//! scans (and the parallel ground-truth fan-out) skip fully dead segments
//! without touching the bitmap. The store keeps no score summary: the
//! evaluation engine visits every live segment, because under the
//! paper's hidden ranking (hashed scores, `ScoringPolicy::HashedRandom`)
//! every segment holds a score near the top of the range, so a
//! per-segment score bound would never let a scan stop early.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use crate::errors::DbError;
use crate::tuple::{Page, PageBuilder, Tuple};
use crate::value::{TupleKey, ValueId};

/// Slot index within the store. Internal; never exposed through the
/// search interface.
pub type Slot = u32;

/// Slots per store segment.
pub const SEGMENT_SLOTS: usize = 4096;

// `segment_of` shifts, `locate` masks, and the evaluation
// engine's bitsets are `SEGMENT_SLOTS / 64` whole words — all three only
// agree for power-of-two, word-divisible sizes, so retuning to anything
// else must fail at compile time.
const _: () = assert!(SEGMENT_SLOTS.is_power_of_two() && SEGMENT_SLOTS.is_multiple_of(64));

/// `log2(SEGMENT_SLOTS)` — segment of a slot is `slot >> SEGMENT_SHIFT`.
pub const SEGMENT_SHIFT: u32 = SEGMENT_SLOTS.trailing_zeros();

/// `slot & SEGMENT_MASK` is the slot's offset within its segment.
pub const SEGMENT_MASK: usize = SEGMENT_SLOTS - 1;

/// The segment a slot belongs to.
#[inline]
pub fn segment_of(slot: Slot) -> usize {
    (slot >> SEGMENT_SHIFT) as usize
}

/// `(segment, offset within segment)` of a slot.
#[inline]
pub(crate) fn locate(slot: Slot) -> (usize, usize) {
    (segment_of(slot), slot as usize & SEGMENT_MASK)
}

/// One segment's data: up to [`SEGMENT_SLOTS`] rows, grown lazily as
/// slots are allocated. Shared between the writer and any published
/// snapshots via [`Arc`]; mutated only through [`Arc::make_mut`].
///
/// Attribute values and measures are stored row-major: one slot's
/// values sit next to each other ([`SegmentData::value_row`]), one byte
/// each, so a result page copies each of its tuples as one contiguous
/// slice.
#[derive(Debug, Clone)]
pub(crate) struct SegmentData {
    /// Attributes per row.
    pub(crate) attr_count: usize,
    /// Measures per row.
    pub(crate) measure_count: usize,
    /// One-byte value codes, `attr_count` per local slot, in slot order.
    pub(crate) values: Vec<u8>,
    /// Measure values, `measure_count` per local slot, in slot order.
    pub(crate) measures: Vec<f64>,
    /// `keys[off]` = external key of the occupant (stale if dead).
    pub(crate) keys: Vec<u64>,
    /// `scores[off]` = hidden ranking score of the occupant.
    pub(crate) scores: Vec<u64>,
    /// Liveness per local slot.
    pub(crate) alive: Vec<bool>,
}

impl SegmentData {
    pub(crate) fn empty(attr_count: usize, measure_count: usize) -> Self {
        Self {
            attr_count,
            measure_count,
            values: Vec::new(),
            measures: Vec::new(),
            keys: Vec::new(),
            scores: Vec::new(),
            alive: Vec::new(),
        }
    }

    /// The value codes of local slot `off`, in schema order.
    #[inline]
    pub(crate) fn value_row(&self, off: usize) -> &[u8] {
        &self.values[off * self.attr_count..(off + 1) * self.attr_count]
    }

    /// The measures of local slot `off`, in schema order.
    #[inline]
    pub(crate) fn measure_row(&self, off: usize) -> &[f64] {
        &self.measures[off * self.measure_count..(off + 1) * self.measure_count]
    }

    /// Appends a row at the next local offset (caller tracks allocation).
    fn push_row(&mut self, values: &[ValueId], measures: &[f64], key: u64, score: u64) {
        self.values.extend(values[..self.attr_count].iter().map(|&v| code(v)));
        self.measures.extend_from_slice(&measures[..self.measure_count]);
        self.keys.push(key);
        self.scores.push(score);
        self.alive.push(true);
    }

    /// Overwrites the row at local offset `off` (slot reuse).
    fn write_row(
        &mut self,
        off: usize,
        values: &[ValueId],
        measures: &[f64],
        key: u64,
        score: u64,
    ) {
        let a = self.attr_count;
        for (dst, &v) in self.values[off * a..(off + 1) * a].iter_mut().zip(&values[..a]) {
            *dst = code(v);
        }
        self.write_measures(off, measures);
        self.keys[off] = key;
        self.scores[off] = score;
        self.alive[off] = true;
    }

    /// Overwrites the measures of local slot `off`.
    fn write_measures(&mut self, off: usize, measures: &[f64]) {
        let m = self.measure_count;
        self.measures[off * m..(off + 1) * m].copy_from_slice(&measures[..m]);
    }
}

/// The one-byte code of `value`, which [`Store::insert`] has checked.
fn code(value: ValueId) -> u8 {
    u8::try_from(value.0).expect("Store::insert admits only one-byte codes")
}

/// The read side of the store: `Arc`-shared segment data blocks plus the
/// per-segment alive counts. Everything query evaluation, ground truth,
/// and the memo need lives here; cloning is cheap (reference-count bumps
/// plus the count vector), which is what makes publishing an immutable
/// snapshot per epoch affordable. [`Store`] derefs to this, so owner-side
/// code reads through the same API.
#[derive(Debug, Clone)]
pub struct StoreCore {
    attr_count: usize,
    measure_count: usize,
    /// Segment data blocks; segment `s` covers slots
    /// `s * SEGMENT_SLOTS .. (s+1) * SEGMENT_SLOTS`.
    segs: Vec<Arc<SegmentData>>,
    /// Alive tuples per segment, in lockstep with `segs`.
    alive: Vec<u32>,
    /// Total slots allocated (alive + dead). Slots are allocated in
    /// ascending order, so only the last segment is partially grown.
    allocated: usize,
    alive_count: usize,
}

/// Row storage for tuples plus the per-tuple hidden ranking score.
///
/// Wraps the shared [`StoreCore`] with the writer-only state: the free
/// list and the key → slot map. Read accessors come through `Deref`.
#[derive(Debug, Clone)]
pub struct Store {
    core: StoreCore,
    /// Free slots available for reuse.
    free: Vec<Slot>,
    /// Alive key → slot.
    key_to_slot: HashMap<u64, Slot>,
}

impl Deref for Store {
    type Target = StoreCore;

    #[inline]
    fn deref(&self) -> &StoreCore {
        &self.core
    }
}

impl StoreCore {
    /// Number of alive tuples (`|D|`).
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// Whether the store holds no alive tuples.
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// Total slots allocated (alive + dead); the exclusive upper bound of
    /// valid slot indices.
    pub fn slot_bound(&self) -> Slot {
        self.allocated as Slot
    }

    /// One segment's data: the read path of every accessor, the
    /// evaluation engine and the codec.
    #[inline]
    pub(crate) fn seg_view(&self, seg: usize) -> &SegmentData {
        &self.segs[seg]
    }

    /// Whether `slot` currently holds an alive tuple.
    #[inline]
    pub fn is_alive(&self, slot: Slot) -> bool {
        let (seg, off) = locate(slot);
        self.seg_view(seg).alive[off]
    }

    /// Value code of attribute `attr_idx` at `slot` (caller guarantees the
    /// slot is alive).
    #[inline]
    pub fn value_at(&self, attr_idx: usize, slot: Slot) -> u32 {
        let (seg, off) = locate(slot);
        u32::from(self.seg_view(seg).value_row(off)[attr_idx])
    }

    /// Measure value at `slot`.
    #[inline]
    pub fn measure_at(&self, measure_idx: usize, slot: Slot) -> f64 {
        let (seg, off) = locate(slot);
        self.seg_view(seg).measure_row(off)[measure_idx]
    }

    /// Hidden ranking score at `slot`.
    #[inline]
    pub fn score_at(&self, slot: Slot) -> u64 {
        let (seg, off) = locate(slot);
        self.seg_view(seg).scores[off]
    }

    /// External key at `slot`.
    #[inline]
    pub fn key_at(&self, slot: Slot) -> TupleKey {
        let (seg, off) = locate(slot);
        TupleKey(self.seg_view(seg).keys[off])
    }

    // ----- segment summaries ---------------------------------------------

    /// Number of segments allocated (covers every slot below
    /// [`StoreCore::slot_bound`]).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Alive tuples in segment `seg`.
    #[inline]
    pub fn segment_alive(&self, seg: usize) -> u32 {
        self.alive[seg]
    }

    /// Segment ids with at least one alive tuple, ascending.
    pub fn live_segments(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive.iter().enumerate().filter(|(_, &n)| n > 0).map(|(s, _)| s)
    }

    /// Copies the tuples at `slots`, in order, into one flat result page,
    /// one contiguous value row and measure row per tuple.
    pub fn page(&self, slots: &[Slot]) -> Page {
        let mut page = self.page_builder(slots.len());
        for &slot in slots {
            self.push_row(slot, &mut page);
        }
        page.finish()
    }

    /// An empty page of this store's row shape, with room for `rows`.
    pub(crate) fn page_builder(&self, rows: usize) -> PageBuilder {
        PageBuilder::with_capacity(rows, self.attr_count, self.measure_count)
    }

    /// Appends the tuple at `slot` to `page`.
    #[inline]
    pub(crate) fn push_row(&self, slot: Slot, page: &mut PageBuilder) {
        let (seg, off) = locate(slot);
        let data = self.seg_view(seg);
        page.push(TupleKey(data.keys[off]), data.value_row(off), data.measure_row(off));
    }

    /// Iterates over the slots of all alive tuples.
    pub fn alive_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.segs.len()).flat_map(move |seg| {
            let base = (seg * SEGMENT_SLOTS) as Slot;
            let data = self.seg_view(seg);
            (0..data.alive.len())
                .filter_map(move |off| data.alive[off].then_some(base + off as Slot))
        })
    }

    /// The writer's one mutation gate: hands out `seg`'s data exclusively,
    /// copying it first if a published snapshot still shares it.
    fn seg_mut(&mut self, seg: usize) -> &mut SegmentData {
        Arc::make_mut(&mut self.segs[seg])
    }
}

impl Store {
    /// Creates an empty store for `attr_count` attributes and
    /// `measure_count` measures.
    pub fn new(attr_count: usize, measure_count: usize) -> Self {
        Self {
            core: StoreCore {
                attr_count,
                measure_count,
                segs: Vec::new(),
                alive: Vec::new(),
                allocated: 0,
                alive_count: 0,
            },
            free: Vec::new(),
            key_to_slot: HashMap::new(),
        }
    }

    /// Rebuilds a store from restored snapshot state (codec v5): segment
    /// data verbatim, the free list in its original order (so future
    /// slot reuse replays identically), and the per-segment alive counts
    /// and key → slot map derived by one scan over the alive flags.
    /// Returns `None` if two alive slots carry the same key — snapshot
    /// bytes that violate the store invariant (corruption), not a
    /// programming error.
    pub(crate) fn from_restored(
        attr_count: usize,
        measure_count: usize,
        segs: Vec<SegmentData>,
        allocated: usize,
        free: Vec<Slot>,
    ) -> Option<Self> {
        let segs: Vec<Arc<SegmentData>> = segs.into_iter().map(Arc::new).collect();
        let mut alive = Vec::with_capacity(segs.len());
        let mut key_to_slot = HashMap::new();
        for (seg, data) in segs.iter().enumerate() {
            let base = (seg * SEGMENT_SLOTS) as Slot;
            let mut count = 0;
            for (off, &a) in data.alive.iter().enumerate() {
                if a {
                    count += 1;
                    if key_to_slot.insert(data.keys[off], base + off as Slot).is_some() {
                        return None;
                    }
                }
            }
            alive.push(count);
        }
        Some(Self {
            core: StoreCore {
                attr_count,
                measure_count,
                alive_count: key_to_slot.len(),
                alive,
                segs,
                allocated,
            },
            free,
            key_to_slot,
        })
    }

    /// The shared read side, cloned cheaply into published snapshots.
    pub fn core(&self) -> &StoreCore {
        &self.core
    }

    /// Free slots pending reuse, oldest first (snapshot input: restoring
    /// this list in order is what makes the restored database's future
    /// slot allocation bit-identical).
    pub(crate) fn free_slots(&self) -> &[Slot] {
        &self.free
    }

    /// Slot of an alive tuple by key.
    pub fn slot_of(&self, key: TupleKey) -> Option<Slot> {
        self.key_to_slot.get(&key.0).copied()
    }

    /// Iterates over `(key, slot)` of all alive tuples in unspecified order.
    pub fn alive_keys(&self) -> impl Iterator<Item = (TupleKey, Slot)> + '_ {
        self.key_to_slot.iter().map(|(&k, &s)| (TupleKey(k), s))
    }

    /// Inserts a tuple with the given hidden score, returning its slot.
    ///
    /// Errors with [`DbError::DuplicateKey`] if the key is already alive,
    /// and with [`DbError::TupleMismatch`] if a value code needs more than
    /// one byte; either way the store is left as it was. Shape validation
    /// against the schema happens in the database facade.
    pub fn insert(&mut self, tuple: Tuple, score: u64) -> Result<Slot, DbError> {
        let (key, values, measures) = tuple.into_parts();
        if let Some(v) = values.iter().find(|v| u8::try_from(v.0).is_err()) {
            return Err(DbError::TupleMismatch(format!("value {v} needs more than one byte")));
        }
        let Entry::Vacant(entry) = self.key_to_slot.entry(key.0) else {
            return Err(DbError::DuplicateKey(key));
        };
        let core = &mut self.core;
        let slot = match self.free.pop() {
            Some(s) => {
                let (seg, off) = locate(s);
                core.seg_mut(seg).write_row(off, &values, &measures, key.0, score);
                s
            }
            None => {
                let s = core.allocated as Slot;
                let seg = segment_of(s);
                if seg == core.segs.len() {
                    let data = SegmentData::empty(core.attr_count, core.measure_count);
                    core.segs.push(Arc::new(data));
                    core.alive.push(0);
                }
                core.seg_mut(seg).push_row(&values, &measures, key.0, score);
                core.allocated += 1;
                s
            }
        };
        entry.insert(slot);
        core.alive_count += 1;
        core.alive[segment_of(slot)] += 1;
        Ok(slot)
    }

    /// Deletes the alive tuple with `key`, returning the freed slot. The
    /// slot's row and score stay in place until the slot is reused, so a
    /// caller can still read what the tuple held.
    pub fn delete(&mut self, key: TupleKey) -> Result<Slot, DbError> {
        let slot = self.key_to_slot.remove(&key.0).ok_or(DbError::UnknownKey(key))?;
        let (seg, off) = locate(slot);
        self.core.seg_mut(seg).alive[off] = false;
        self.free.push(slot);
        self.core.alive_count -= 1;
        self.core.alive[seg] -= 1;
        Ok(slot)
    }

    /// Overwrites the measures of an alive tuple in place (models a price
    /// change that does not move the tuple in the query tree).
    pub fn update_measures(&mut self, key: TupleKey, measures: &[f64]) -> Result<Slot, DbError> {
        let slot = self.slot_of(key).ok_or(DbError::UnknownKey(key))?;
        let (seg, off) = locate(slot);
        self.core.seg_mut(seg).write_measures(off, measures);
        Ok(slot)
    }

    /// Overwrites the hidden ranking score at `slot` (used when a measure
    /// update changes a measure-based rank).
    pub fn set_score(&mut self, slot: Slot, score: u64) {
        let (seg, off) = locate(slot);
        self.core.seg_mut(seg).scores[off] = score;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: u64, vals: &[u32], ms: &[f64]) -> Tuple {
        Tuple::new(TupleKey(key), vals.iter().map(|&v| ValueId(v)).collect(), ms.to_vec())
    }

    #[test]
    fn insert_and_read_back() {
        let mut s = Store::new(2, 1);
        let slot = s.insert(t(1, &[0, 1], &[5.0]), 99).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(0, slot), 0);
        assert_eq!(s.value_at(1, slot), 1);
        assert_eq!(s.measure_at(0, slot), 5.0);
        assert_eq!(s.score_at(slot), 99);
        assert_eq!(s.key_at(slot), TupleKey(1));
        let page = s.page(&[slot]);
        let v = page.iter().next().unwrap();
        assert_eq!(v.key(), TupleKey(1));
        assert_eq!(v.values(), &[ValueId(0), ValueId(1)]);
        assert_eq!(v.measures(), &[5.0]);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut s = Store::new(1, 0);
        s.insert(t(1, &[0], &[]), 0).unwrap();
        assert!(matches!(s.insert(t(1, &[0], &[]), 0), Err(DbError::DuplicateKey(TupleKey(1)))));
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut s = Store::new(1, 0);
        let a = s.insert(t(1, &[0], &[]), 0).unwrap();
        s.insert(t(2, &[1], &[]), 0).unwrap();
        s.delete(TupleKey(1)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(!s.is_alive(a));
        let b = s.insert(t(3, &[1], &[]), 0).unwrap();
        assert_eq!(a, b, "freed slot must be reused");
        assert_eq!(s.len(), 2);
        assert_eq!(s.key_at(b), TupleKey(3));
    }

    /// A code above 255 is refused on both insert paths, a fresh slot
    /// and a reused one, and leaves the store as it was.
    #[test]
    fn insert_refuses_a_code_wider_than_a_byte() {
        let mut s = Store::new(2, 0);
        let wide = || t(7, &[255, 256], &[]);
        assert!(matches!(s.insert(wide(), 0), Err(DbError::TupleMismatch(_))));
        assert_eq!((s.len(), s.slot_bound(), s.segment_count()), (0, 0, 0));
        let a = s.insert(t(1, &[255, 0], &[]), 0).unwrap();
        s.delete(TupleKey(1)).unwrap();
        assert!(matches!(s.insert(wide(), 0), Err(DbError::TupleMismatch(_))));
        assert_eq!((s.len(), s.slot_bound(), s.free_slots()), (0, 1, &[a][..]));
        assert_eq!(s.slot_of(TupleKey(7)), None);
        assert_eq!(s.value_at(0, a), 255, "the dead row is untouched");
        assert_eq!(s.insert(t(7, &[255, 255], &[]), 0).unwrap(), a);
        assert_eq!((s.value_at(0, a), s.value_at(1, a)), (255, 255));
    }

    #[test]
    fn delete_unknown_key_errors() {
        let mut s = Store::new(1, 0);
        assert!(matches!(s.delete(TupleKey(9)), Err(DbError::UnknownKey(TupleKey(9)))));
        s.insert(t(9, &[0], &[]), 0).unwrap();
        s.delete(TupleKey(9)).unwrap();
        assert!(s.delete(TupleKey(9)).is_err(), "double delete must fail");
    }

    #[test]
    fn update_measures_in_place() {
        let mut s = Store::new(1, 2);
        let slot = s.insert(t(1, &[0], &[1.0, 2.0]), 0).unwrap();
        s.update_measures(TupleKey(1), &[3.0, 4.0]).unwrap();
        assert_eq!(s.measure_at(0, slot), 3.0);
        assert_eq!(s.measure_at(1, slot), 4.0);
    }

    #[test]
    fn alive_iteration() {
        let mut s = Store::new(1, 0);
        s.insert(t(1, &[0], &[]), 0).unwrap();
        s.insert(t(2, &[0], &[]), 0).unwrap();
        s.insert(t(3, &[0], &[]), 0).unwrap();
        s.delete(TupleKey(2)).unwrap();
        let mut keys: Vec<u64> = s.alive_keys().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3]);
        assert_eq!(s.alive_slots().count(), 2);
    }

    #[test]
    fn segment_alive_counts_track_mutations() {
        let mut s = Store::new(1, 0);
        for key in 0..10u64 {
            s.insert(t(key, &[0], &[]), key).unwrap();
        }
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.segment_alive(0), 10);
        for key in 0..4u64 {
            s.delete(TupleKey(key)).unwrap();
        }
        assert_eq!(s.segment_alive(0), 6);
        assert_eq!(s.live_segments().collect::<Vec<_>>(), vec![0]);
        // An emptied segment drops out of the live set.
        for key in 4..10u64 {
            s.delete(TupleKey(key)).unwrap();
        }
        assert_eq!(s.segment_alive(0), 0);
        assert_eq!(s.live_segments().count(), 0);
    }

    /// A cloned `StoreCore` is an immutable snapshot: segment-granular
    /// copy-on-write means later writer mutations never show through, and
    /// untouched segments keep sharing the same blocks.
    #[test]
    fn core_clone_is_isolated_from_later_mutations() {
        let mut s = Store::new(1, 1);
        for key in 0..8u64 {
            s.insert(t(key, &[0], &[key as f64]), key * 10).unwrap();
        }
        let snap = s.core().clone();
        assert!(Arc::ptr_eq(&snap.segs[0], &s.core.segs[0]), "clone shares segment blocks");

        s.delete(TupleKey(3)).unwrap();
        s.update_measures(TupleKey(5), &[99.0]).unwrap();
        s.insert(t(100, &[0], &[1.0]), 500).unwrap();

        // The snapshot still sees the pre-mutation world, bit for bit.
        assert_eq!(snap.len(), 8);
        assert!(snap.is_alive(3));
        assert_eq!(snap.measure_at(0, 5), 5.0);
        assert_eq!(snap.score_at(3), 30);
        assert_eq!(snap.alive_slots().count(), 8);
        // The writer moved on (slot 3 reused by key 100).
        assert_eq!(s.len(), 8);
        assert_eq!(s.key_at(3), TupleKey(100));
        assert_eq!(s.score_at(3), 500);
        assert!(!Arc::ptr_eq(&snap.segs[0], &s.core.segs[0]), "writer copied on write");
    }
}
