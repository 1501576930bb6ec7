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

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use crate::errors::DbError;
use crate::persist::Pager;
use crate::tuple::{Page, Tuple};
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
/// values sit next to each other ([`SegmentData::value_row`]), so a
/// result page copies each of its tuples as one contiguous slice.
///
/// With the persistence tier attached, a segment may instead be
/// **evicted**: its slot in `StoreCore::segs` holds the pager's shared
/// empty tombstone (`evicted == true`) and the real rows live in the
/// region file until a read faults them back or the writer reclaims
/// them for mutation.
#[derive(Debug, Clone)]
pub(crate) struct SegmentData {
    /// Attributes per row.
    pub(crate) attr_count: usize,
    /// Measures per row.
    pub(crate) measure_count: usize,
    /// Value codes, `attr_count` per local slot, in slot order.
    pub(crate) values: Vec<u32>,
    /// Measure values, `measure_count` per local slot, in slot order.
    pub(crate) measures: Vec<f64>,
    /// `keys[off]` = external key of the occupant (stale if dead).
    pub(crate) keys: Vec<u64>,
    /// `scores[off]` = hidden ranking score of the occupant.
    pub(crate) scores: Vec<u64>,
    /// Liveness per local slot.
    pub(crate) alive: Vec<bool>,
    /// Whether this is an eviction tombstone (rows on disk, not here).
    /// Always `false` for real data; the pager's shared tombstone is the
    /// only instance with `true`.
    pub(crate) evicted: bool,
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
            evicted: false,
        }
    }

    /// The shared placeholder installed in place of evicted segments.
    pub(crate) fn tombstone() -> Self {
        Self { evicted: true, ..Self::empty(0, 0) }
    }

    /// The value codes of local slot `off`, in schema order.
    #[inline]
    pub(crate) fn value_row(&self, off: usize) -> &[u32] {
        &self.values[off * self.attr_count..(off + 1) * self.attr_count]
    }

    /// The measures of local slot `off`, in schema order.
    #[inline]
    pub(crate) fn measure_row(&self, off: usize) -> &[f64] {
        &self.measures[off * self.measure_count..(off + 1) * self.measure_count]
    }

    /// Appends a row at the next local offset (caller tracks allocation).
    pub(crate) fn push_row(&mut self, values: &[ValueId], measures: &[f64], key: u64, score: u64) {
        self.values.extend(values[..self.attr_count].iter().map(|v| v.0));
        self.measures.extend_from_slice(&measures[..self.measure_count]);
        self.keys.push(key);
        self.scores.push(score);
        self.alive.push(true);
    }

    /// Overwrites the row at local offset `off` (slot reuse).
    pub(crate) fn write_row(
        &mut self,
        off: usize,
        values: &[ValueId],
        measures: &[f64],
        key: u64,
        score: u64,
    ) {
        let a = self.attr_count;
        for (dst, v) in self.values[off * a..(off + 1) * a].iter_mut().zip(&values[..a]) {
            *dst = v.0;
        }
        self.write_measures(off, measures);
        self.keys[off] = key;
        self.scores[off] = score;
        self.alive[off] = true;
    }

    /// Overwrites the measures of local slot `off`.
    pub(crate) fn write_measures(&mut self, off: usize, measures: &[f64]) {
        let m = self.measure_count;
        self.measures[off * m..(off + 1) * m].copy_from_slice(&measures[..m]);
    }
}

/// A borrowed-or-faulted view of one segment's data: the uniform read
/// path over resident and evicted segments. Resident segments come back
/// as a plain borrow (`Ram`, the all-RAM fast path — one predicted
/// branch over the previous direct indexing); evicted segments fault
/// through the pager's bounded read cache (`Hot`). `Deref` makes the
/// two cases indistinguishable to accessors.
#[derive(Debug, Clone)]
pub(crate) enum SegView<'a> {
    /// Segment is resident in the store.
    Ram(&'a SegmentData),
    /// Segment was faulted in from the persistence tier.
    Hot(Arc<SegmentData>),
}

impl Deref for SegView<'_> {
    type Target = SegmentData;

    #[inline]
    fn deref(&self) -> &SegmentData {
        match self {
            SegView::Ram(d) => d,
            SegView::Hot(a) => a,
        }
    }
}

/// The read side of the store: `Arc`-shared segment data blocks plus the
/// per-segment alive counts. Everything query evaluation, ground truth,
/// and the memo need lives here; cloning is cheap (reference-count bumps
/// plus the count vector), which is what makes publishing an immutable
/// snapshot per epoch affordable. [`Store`] derefs to this, so owner-side
/// code reads through the same API.
///
/// Cloning a core that has a persistence tier attached **materialises**
/// it: evicted segments are read back from disk and the clone is fully
/// resident with no pager — snapshots are self-contained and never
/// compete for the resident budget (the documented trade: publishing a
/// snapshot of an out-of-core database pins the whole pool in RAM).
#[derive(Debug)]
pub struct StoreCore {
    attr_count: usize,
    measure_count: usize,
    /// Segment data blocks; segment `s` covers slots
    /// `s * SEGMENT_SLOTS .. (s+1) * SEGMENT_SLOTS`. With a pager
    /// attached, entries may be the shared eviction tombstone.
    segs: Vec<Arc<SegmentData>>,
    /// Alive tuples per segment, in lockstep with `segs`.
    alive: Vec<u32>,
    /// Total slots allocated (alive + dead). Slots are allocated in
    /// ascending order, so only the last segment is partially grown.
    allocated: usize,
    alive_count: usize,
    /// The persistence tier, when attached (writer side only; clones
    /// materialise and drop it).
    pager: Option<Arc<Pager>>,
    /// Segments currently resident (`!evicted`). Equals `segs.len()`
    /// without a pager.
    resident: usize,
}

impl Clone for StoreCore {
    fn clone(&self) -> Self {
        let segs = match &self.pager {
            // No tier: the original cheap path — reference-count bumps.
            None => self.segs.clone(),
            Some(pager) => self
                .segs
                .iter()
                .enumerate()
                .map(
                    |(s, data)| {
                        if data.evicted {
                            pager.read_detached(s)
                        } else {
                            Arc::clone(data)
                        }
                    },
                )
                .collect(),
        };
        Self {
            attr_count: self.attr_count,
            measure_count: self.measure_count,
            resident: segs.len(),
            segs,
            alive: self.alive.clone(),
            allocated: self.allocated,
            alive_count: self.alive_count,
            pager: None,
        }
    }
}

/// Row storage for tuples plus the per-tuple hidden ranking score.
///
/// Wraps the shared [`StoreCore`] with the writer-only state: the free
/// list, the key → slot map and the pager's CLOCK state. Read accessors
/// come through `Deref`.
#[derive(Debug, Clone)]
pub struct Store {
    core: StoreCore,
    /// Free slots available for reuse.
    free: Vec<Slot>,
    /// Alive key → slot.
    key_to_slot: HashMap<u64, Slot>,
    /// CLOCK hand of the writer-side eviction sweep (persistence tier
    /// only; idle without a pager).
    clock_hand: usize,
    /// CLOCK reference bit per segment for that sweep, in lockstep with
    /// the segments: set on every writer touch, cleared as the hand
    /// passes. No snapshot reads it, so it lives here, not in the core.
    ref_bits: Vec<bool>,
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

    /// The uniform read path over one segment's data: a plain borrow for
    /// resident segments, a pager fault for evicted ones. Hot-path
    /// accessors and the evaluation engine route every data read through
    /// here so paging stays invisible above this line.
    #[inline]
    pub(crate) fn seg_view(&self, seg: usize) -> SegView<'_> {
        let data = &self.segs[seg];
        if !data.evicted {
            SegView::Ram(data)
        } else {
            let pager = self.pager.as_ref().expect("evicted segment without a pager");
            SegView::Hot(pager.fault(seg))
        }
    }

    /// The persistence tier, if one is attached.
    pub(crate) fn pager(&self) -> Option<&Arc<Pager>> {
        self.pager.as_ref()
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
        self.seg_view(seg).value_row(off)[attr_idx]
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
        if self.pager.is_some() {
            return self.page_by_segment(slots);
        }
        let (attrs, ms) = (self.attr_count, self.measure_count);
        let mut keys = Vec::with_capacity(slots.len());
        let mut values = Vec::with_capacity(slots.len() * attrs);
        let mut measures = Vec::with_capacity(slots.len() * ms);
        for &slot in slots {
            let (seg, off) = locate(slot);
            let data = self.seg_view(seg);
            keys.push(TupleKey(data.keys[off]));
            values.extend(data.value_row(off).iter().map(|&v| ValueId(v)));
            measures.extend_from_slice(data.measure_row(off));
        }
        Page::from_columns(keys, values, measures, attrs, ms)
    }

    /// [`StoreCore::page`] with a pager attached: gathers the rows
    /// segment by segment and writes each to its page position, so every
    /// segment is viewed (an evicted one faulted) once however the page
    /// interleaves them.
    fn page_by_segment(&self, slots: &[Slot]) -> Page {
        let (attrs, ms) = (self.attr_count, self.measure_count);
        let mut keys = vec![TupleKey(0); slots.len()];
        let mut values = vec![ValueId(0); slots.len() * attrs];
        let mut measures = vec![0.0; slots.len() * ms];
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_unstable_by_key(|&i| segment_of(slots[i]));
        for group in order.chunk_by(|&i, &j| segment_of(slots[i]) == segment_of(slots[j])) {
            let data = self.seg_view(segment_of(slots[group[0]]));
            for &i in group {
                let off = locate(slots[i]).1;
                keys[i] = TupleKey(data.keys[off]);
                for (dst, &v) in
                    values[i * attrs..(i + 1) * attrs].iter_mut().zip(data.value_row(off))
                {
                    *dst = ValueId(v);
                }
                measures[i * ms..(i + 1) * ms].copy_from_slice(data.measure_row(off));
            }
        }
        Page::from_columns(keys, values, measures, attrs, ms)
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
                pager: None,
                resident: 0,
            },
            free: Vec::new(),
            key_to_slot: HashMap::new(),
            clock_hand: 0,
            ref_bits: Vec::new(),
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
        let ref_bits = vec![false; segs.len()];
        Some(Self {
            core: StoreCore {
                attr_count,
                measure_count,
                resident: segs.len(),
                alive_count: key_to_slot.len(),
                alive,
                segs,
                allocated,
                pager: None,
            },
            free,
            key_to_slot,
            clock_hand: 0,
            ref_bits,
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

    // ----- persistence tier ----------------------------------------------

    /// Attaches the persistence tier: from here on the writer keeps at
    /// most `pager.writer_budget()` segments in core (CLOCK eviction with
    /// write-back) and evicted segments fault back transparently through
    /// [`StoreCore::seg_view`]. Immediately spills down to budget, so a
    /// store larger than the budget pages out its cold majority here.
    pub(crate) fn attach_pager(&mut self, pager: Arc<Pager>) {
        assert!(self.core.pager.is_none(), "persistence tier already attached");
        pager.ensure_segments(self.core.segs.len());
        self.core.resident = self.core.segs.iter().filter(|s| !s.evicted).count();
        pager.set_in_core(self.core.resident);
        self.core.pager = Some(pager);
        self.enforce_budget(usize::MAX);
        // Residency before the tier attached was the loader's footprint;
        // the bounded-memory promise starts now.
        self.core.pager.as_ref().unwrap().reset_peak();
    }

    /// Ensures `seg`'s data is in core for mutation, reclaiming it from
    /// the pager (cache or disk) if evicted.
    fn make_resident(&mut self, seg: usize) {
        if !self.core.segs[seg].evicted {
            return;
        }
        let pager = self.core.pager.as_ref().expect("evicted segment without a pager");
        let data = pager.take_for_write(seg).expect("persist: write-path fault failed");
        debug_assert!(!data.evicted);
        self.core.segs[seg] = data;
        self.core.resident += 1;
        let pager = self.core.pager.as_ref().unwrap();
        pager.set_in_core(self.core.resident);
    }

    /// The single writer-side mutation gate: faults the segment in if
    /// needed, marks it dirty for write-back, touches its CLOCK bit, and
    /// hands out the COW-exclusive data. Callers must follow the
    /// mutation with [`Store::enforce_budget`].
    fn seg_mut(&mut self, seg: usize) -> &mut SegmentData {
        self.make_resident(seg);
        if let Some(pager) = &self.core.pager {
            pager.mark_dirty(seg);
            self.ref_bits[seg] = true;
        }
        Arc::make_mut(&mut self.core.segs[seg])
    }

    /// Writes `seg` back to its region (skipped if clean and already on
    /// disk) and replaces the in-core data with the shared tombstone.
    fn spill_segment(&mut self, pager: &Pager, seg: usize) {
        pager.spill(seg, &self.core.segs[seg]).expect("persist: segment write-back failed");
        self.core.segs[seg] = pager.tombstone();
        self.core.resident -= 1;
        pager.set_in_core(self.core.resident);
    }

    /// Spills segments until the writer is back under its in-core budget,
    /// choosing victims with a CLOCK sweep (referenced segments get a
    /// second chance; `protect` — normally the segment just mutated — is
    /// never evicted). No-op without a pager.
    fn enforce_budget(&mut self, protect: usize) {
        let Some(pager) = self.core.pager.clone() else { return };
        let limit = pager.writer_budget();
        let n = self.core.segs.len();
        while self.core.resident > limit {
            let mut victim = None;
            // Two full revolutions always suffice: the first clears every
            // reference bit on the path, the second must find a victim
            // (resident > limit >= 1 means at least one evictable,
            // unprotected segment exists).
            for _ in 0..2 * n {
                let s = self.clock_hand;
                self.clock_hand = (self.clock_hand + 1) % n;
                if self.core.segs[s].evicted || s == protect {
                    continue;
                }
                if self.ref_bits[s] {
                    self.ref_bits[s] = false;
                    continue;
                }
                victim = Some(s);
                break;
            }
            let Some(v) = victim else { break };
            self.spill_segment(&pager, v);
        }
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
    /// Errors with [`DbError::DuplicateKey`] if the key is already alive.
    /// Shape validation against the schema happens in the database facade.
    pub fn insert(&mut self, tuple: Tuple, score: u64) -> Result<Slot, DbError> {
        let (key, values, measures) = tuple.into_parts();
        if self.key_to_slot.contains_key(&key.0) {
            return Err(DbError::DuplicateKey(key));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let (seg, off) = locate(s);
                self.seg_mut(seg).write_row(off, &values, &measures, key.0, score);
                self.enforce_budget(seg);
                s
            }
            None => {
                let s = self.core.allocated as Slot;
                let seg = segment_of(s);
                if seg == self.core.segs.len() {
                    let (attrs, ms) = (self.core.attr_count, self.core.measure_count);
                    self.core.segs.push(Arc::new(SegmentData::empty(attrs, ms)));
                    self.core.alive.push(0);
                    self.ref_bits.push(false);
                    self.core.resident += 1;
                    if let Some(pager) = &self.core.pager {
                        pager.ensure_segments(self.core.segs.len());
                        pager.set_in_core(self.core.resident);
                    }
                }
                self.seg_mut(seg).push_row(&values, &measures, key.0, score);
                self.core.allocated += 1;
                self.enforce_budget(seg);
                s
            }
        };
        self.key_to_slot.insert(key.0, slot);
        self.core.alive_count += 1;
        self.core.alive[segment_of(slot)] += 1;
        Ok(slot)
    }

    /// Deletes the alive tuple with `key`, returning the freed slot.
    pub fn delete(&mut self, key: TupleKey) -> Result<Slot, DbError> {
        let slot = self.key_to_slot.remove(&key.0).ok_or(DbError::UnknownKey(key))?;
        let (seg, off) = locate(slot);
        self.seg_mut(seg).alive[off] = false;
        self.free.push(slot);
        self.core.alive_count -= 1;
        self.core.alive[seg] -= 1;
        self.enforce_budget(seg);
        Ok(slot)
    }

    /// Overwrites the measures of an alive tuple in place (models a price
    /// change that does not move the tuple in the query tree).
    pub fn update_measures(&mut self, key: TupleKey, measures: &[f64]) -> Result<Slot, DbError> {
        let slot = self.slot_of(key).ok_or(DbError::UnknownKey(key))?;
        let (seg, off) = locate(slot);
        self.seg_mut(seg).write_measures(off, measures);
        self.enforce_budget(seg);
        Ok(slot)
    }

    /// Overwrites the hidden ranking score at `slot` (used when a measure
    /// update changes a measure-based rank).
    pub fn set_score(&mut self, slot: Slot, score: u64) {
        let (seg, off) = locate(slot);
        self.seg_mut(seg).scores[off] = score;
        self.enforce_budget(seg);
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

    fn pager_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hidden-db-store-{}-{name}", std::process::id()))
    }

    fn paged(name: &str, attr_count: usize, measure_count: usize, budget: usize) -> Store {
        let dir = pager_dir(name);
        let pager = crate::persist::Pager::open(&dir, attr_count, measure_count, budget)
            .expect("pager open");
        let mut s = Store::new(attr_count, measure_count);
        s.attach_pager(pager);
        s
    }

    /// The paging oracle at store granularity: a budget-2 paged store
    /// over 3 segments answers every read identically to the plain
    /// in-RAM store across inserts, deletes, reuse, measure updates and
    /// score raises — while actually spilling and faulting.
    #[test]
    fn paged_store_matches_plain_store_bit_for_bit() {
        let n = (SEGMENT_SLOTS * 2 + 100) as u64; // 3 segments
        let mut plain = Store::new(1, 1);
        let mut disk = paged("oracle", 1, 1, 2);
        for s in [&mut plain, &mut disk] {
            for key in 0..n {
                s.insert(t(key, &[0], &[key as f64]), key % 997).unwrap();
            }
            // Churn across all three segments: deletes (slot reuse),
            // measure updates, score raises.
            for key in (0..n).step_by(513) {
                s.delete(TupleKey(key)).unwrap();
            }
            for key in (1..n).step_by(771) {
                s.update_measures(TupleKey(key), &[-1.0]).unwrap();
            }
            for key in (2..n).step_by(997) {
                let slot = s.slot_of(TupleKey(key)).unwrap();
                s.set_score(slot, 50_000 + key);
            }
            for key in 0..64u64 {
                s.insert(t(n + key, &[0], &[0.0]), 40_000 + key).unwrap();
            }
        }

        assert_eq!(disk.len(), plain.len());
        assert_eq!(disk.slot_bound(), plain.slot_bound());
        assert_eq!(disk.alive_slots().collect::<Vec<_>>(), plain.alive_slots().collect::<Vec<_>>());
        for slot in plain.alive_slots().collect::<Vec<_>>() {
            assert_eq!(disk.key_at(slot), plain.key_at(slot));
            assert_eq!(disk.score_at(slot), plain.score_at(slot));
            assert_eq!(disk.value_at(0, slot), plain.value_at(0, slot));
            assert_eq!(disk.measure_at(0, slot), plain.measure_at(0, slot));
        }
        for seg in 0..plain.segment_count() {
            assert_eq!(disk.segment_alive(seg), plain.segment_alive(seg));
        }

        let pager = disk.core().pager().expect("pager attached").clone();
        let stats = pager.stats();
        assert!(stats.segments_spilled > 0, "budget 2 over 3 segments must spill");
        assert!(stats.segments_faulted > 0, "churn across segments must fault");
        assert!(
            stats.peak_resident_segments <= pager.total_budget() as u64,
            "peak residency {} exceeded the budget {}",
            stats.peak_resident_segments,
            pager.total_budget()
        );
    }

    /// Building a page on a paged store views each segment once: a page
    /// whose rows take turns among evicted segments faults each of them
    /// at most once, and holds the same rows as the plain store's page.
    #[test]
    fn paged_page_faults_each_segment_at_most_once() {
        let n = (SEGMENT_SLOTS * 4) as u64;
        let mut plain = Store::new(2, 1);
        let mut disk = paged("page", 2, 1, 2);
        for s in [&mut plain, &mut disk] {
            for key in 0..n {
                s.insert(t(key, &[(key % 5) as u32, (key % 7) as u32], &[key as f64]), key)
                    .unwrap();
            }
        }
        // Round-robin over the four segments: no two consecutive rows
        // share one.
        let slots: Vec<Slot> =
            (0..64).map(|i| ((i % 4) * SEGMENT_SLOTS + i * 13) as Slot).collect();
        let evicted = disk.core().segs.iter().filter(|d| d.evicted).count() as u64;
        assert!(evicted >= 2, "budget 2 over 4 segments must evict at least 2");
        let pager = disk.core().pager().expect("pager attached").clone();
        let before = pager.stats().segments_faulted;
        let page = disk.page(&slots);
        let faulted = pager.stats().segments_faulted - before;
        assert!(faulted <= evicted, "{faulted} faults for {evicted} evicted segments");
        assert_eq!(page, plain.page(&slots));
    }

    /// Cloning a paged core materialises every evicted segment and
    /// detaches from the pager: the snapshot is fully in-RAM, immune to
    /// later evictions, and identical to the paged view.
    #[test]
    fn paged_core_clone_materializes_and_detaches() {
        let n = (SEGMENT_SLOTS * 2 + 10) as u64;
        let mut s = paged("clone", 1, 0, 2);
        for key in 0..n {
            s.insert(t(key, &[0], &[]), key).unwrap();
        }
        assert!(
            s.core().segs.iter().any(|d| d.evicted),
            "3 segments at budget 2 must leave one evicted"
        );
        let snap = s.core().clone();
        assert!(snap.pager().is_none(), "clone must not depend on the pager");
        assert!(snap.segs.iter().all(|d| !d.evicted), "clone materialises everything");
        assert_eq!(snap.len(), s.len());
        assert_eq!(snap.alive_slots().count(), n as usize);
        // Writer keeps moving; the snapshot is frozen.
        s.delete(TupleKey(0)).unwrap();
        assert!(snap.is_alive(0));
    }
}
