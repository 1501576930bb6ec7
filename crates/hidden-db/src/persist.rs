//! Out-of-core persistence tier for the segmented store.
//!
//! Fixed-size store segments ([`crate::store::SEGMENT_SLOTS`] slots) are
//! the paging unit: each segment serialises to a **fixed-layout region**
//! of a single file (`segments.dat`), so the byte offset of any segment
//! is a multiply — the classic mmap-style layout, implemented with plain
//! seek/read/write so the tier works on any `std` platform.
//!
//! A region holds the segment as memory holds it: the row count, the
//! keys, the scores, the alive bitmap, then the row-major value block
//! and the row-major measure block, each copied in one loop. Every array
//! is sized for a full segment, so partially grown segments leave gaps.
//! The file header carries `FILE_VERSION` (2 since the store keeps rows;
//! version 1 held one array per attribute). No file of another version
//! is ever read: `Pager::open` truncates the file on every
//! [`crate::database::HiddenDatabase::enable_persist`].
//!
//! ## Resident budget
//!
//! A database with persistence enabled keeps at most `resident` segments
//! in memory at once, split across two pools that share the budget:
//!
//! * **in-core** segments live in the writer's `StoreCore` exactly like
//!   the all-RAM configuration (mutable, `Arc`-COW-shared with
//!   snapshots). The writer bounds them to `resident - 1`, evicting with
//!   a CLOCK sweep (write-back on dirty) when a mutation would exceed
//!   the budget;
//! * the remaining slack holds the `Pager`'s **read cache**: segments
//!   faulted back in by `&self` readers (query evaluation, ground
//!   truth, snapshot materialisation), evicted clean with a
//!   second-chance CLOCK ring.
//!
//! The split guarantees `in_core + cached <= resident` at every instant
//! (budgets below 2 are clamped to 2 so the read path always has one
//! slot); `tests/persistence.rs::paged_databases_are_bit_identical_to_in_ram`
//! asserts it through `PersistStats::peak_resident_segments`. Paging
//! moves bytes, never values: answers are bit-identical to the in-RAM
//! configuration under every eval/policy/thread combination.
//!
//! ## Durability and warm restart
//!
//! The region file is a working set, not a log: it is rebuilt whenever
//! persistence is (re-)enabled. Durability comes from `state.hdbj`, an
//! append-only journal of checksummed full-state snapshot records
//! (format v5 of [`crate::codec`] — segment data *and* warm state, the
//! free list in order; the bitmap index is rebuilt from the stored rows
//! on load and stays resident). [`crate::database::HiddenDatabase::checkpoint`] appends a
//! record and fsyncs; reopening scans the journal, keeps the last record
//! whose length and FNV-64 checksum validate, and ignores any torn tail
//! from a crash mid-append.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::PersistStats;
use crate::store::{SegmentData, SEGMENT_SLOTS};

/// Name of the fixed-layout segment region file inside the persist dir.
pub const SEGMENTS_FILE: &str = "segments.dat";

/// Name of the append-only snapshot journal inside the persist dir.
pub const JOURNAL_FILE: &str = "state.hdbj";

const FILE_MAGIC: &[u8; 4] = b"HDBP";
const FILE_VERSION: u32 = 2;
/// Region file header: magic, version, attr count, measure count, pad.
const HEADER_LEN: u64 = 32;

const RECORD_MAGIC: &[u8; 4] = b"HDBR";

/// Where and how large: configuration for the persistence tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding `segments.dat` and `state.hdbj` (created on
    /// demand).
    pub dir: PathBuf,
    /// Resident-segment budget: the maximum number of segments (in-core
    /// plus pager read cache) held in memory at once. Values below 2
    /// are clamped to 2 so the read path always has a cache slot.
    pub resident_segments: usize,
}

impl PersistConfig {
    /// Creates a config from a directory and a resident-segment budget.
    pub fn new(dir: impl Into<PathBuf>, resident_segments: usize) -> Self {
        Self { dir: dir.into(), resident_segments }
    }

    /// Parses the CLI form `<dir>,resident:<N>` (e.g.
    /// `/tmp/db,resident:64`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (dir, rest) = spec
            .split_once(',')
            .ok_or_else(|| format!("--persist '{spec}': expected <dir>,resident:<N>"))?;
        let n = rest
            .strip_prefix("resident:")
            .ok_or_else(|| format!("--persist '{spec}': expected resident:<N> after the comma"))?;
        let resident: usize = n
            .parse()
            .map_err(|_| format!("--persist '{spec}': resident budget '{n}' is not a number"))?;
        if dir.is_empty() {
            return Err(format!("--persist '{spec}': empty directory"));
        }
        if resident == 0 {
            return Err(format!("--persist '{spec}': resident budget must be >= 1"));
        }
        Ok(Self::new(dir, resident))
    }
}

/// Byte layout of one segment region. Every array sits at a fixed
/// offset (sized for [`SEGMENT_SLOTS`] rows), so partially grown
/// segments leave gaps — the price of O(1) addressing.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    attr_count: usize,
    measure_count: usize,
    region_len: usize,
}

impl Geometry {
    fn new(attr_count: usize, measure_count: usize) -> Self {
        let s = SEGMENT_SLOTS;
        // rows u64 | keys u64×S | scores u64×S | alive bitmap S/8 |
        // value rows u32×attrs×S | measure rows f64×measures×S.
        let region_len = 8 + 8 * s + 8 * s + s / 8 + attr_count * 4 * s + measure_count * 8 * s;
        Self { attr_count, measure_count, region_len }
    }

    fn region_offset(&self, seg: usize) -> u64 {
        HEADER_LEN + seg as u64 * self.region_len as u64
    }

    /// Serialises `data` into `buf` (resized/zeroed to one region).
    fn encode(&self, data: &SegmentData, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.region_len, 0);
        let rows = data.keys.len();
        debug_assert!(rows <= SEGMENT_SLOTS);
        buf[0..8].copy_from_slice(&(rows as u64).to_le_bytes());
        let mut off = 8;
        for (i, &k) in data.keys.iter().enumerate() {
            buf[off + i * 8..off + i * 8 + 8].copy_from_slice(&k.to_le_bytes());
        }
        off += 8 * SEGMENT_SLOTS;
        for (i, &sc) in data.scores.iter().enumerate() {
            buf[off + i * 8..off + i * 8 + 8].copy_from_slice(&sc.to_le_bytes());
        }
        off += 8 * SEGMENT_SLOTS;
        for (i, &a) in data.alive.iter().enumerate() {
            if a {
                buf[off + i / 8] |= 1 << (i % 8);
            }
        }
        off += SEGMENT_SLOTS / 8;
        for (i, &v) in data.values.iter().enumerate() {
            buf[off + i * 4..off + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        off += 4 * SEGMENT_SLOTS * self.attr_count;
        for (i, &m) in data.measures.iter().enumerate() {
            buf[off + i * 8..off + i * 8 + 8].copy_from_slice(&m.to_le_bytes());
        }
        off += 8 * SEGMENT_SLOTS * self.measure_count;
        debug_assert_eq!(off, self.region_len);
    }

    /// Deserialises one region back into a resident [`SegmentData`].
    fn decode(&self, buf: &[u8]) -> SegmentData {
        let rows = u64::from_le_bytes(buf[0..8].try_into().unwrap()) as usize;
        assert!(rows <= SEGMENT_SLOTS, "persist: corrupt region (rows {rows})");
        let mut off = 8;
        let mut keys = Vec::with_capacity(rows);
        for i in 0..rows {
            keys.push(u64::from_le_bytes(buf[off + i * 8..off + i * 8 + 8].try_into().unwrap()));
        }
        off += 8 * SEGMENT_SLOTS;
        let mut scores = Vec::with_capacity(rows);
        for i in 0..rows {
            scores.push(u64::from_le_bytes(buf[off + i * 8..off + i * 8 + 8].try_into().unwrap()));
        }
        off += 8 * SEGMENT_SLOTS;
        let mut alive = Vec::with_capacity(rows);
        for i in 0..rows {
            alive.push(buf[off + i / 8] & (1 << (i % 8)) != 0);
        }
        off += SEGMENT_SLOTS / 8;
        let values = buf[off..off + 4 * rows * self.attr_count]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        off += 4 * SEGMENT_SLOTS * self.attr_count;
        let measures = buf[off..off + 8 * rows * self.measure_count]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        SegmentData {
            attr_count: self.attr_count,
            measure_count: self.measure_count,
            values,
            measures,
            keys,
            scores,
            alive,
            evicted: false,
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    data: Arc<SegmentData>,
    /// CLOCK reference bit: set on every cache hit, cleared when the
    /// sweep hand passes; an unreferenced entry is evicted.
    referenced: bool,
}

#[derive(Debug)]
struct PagerInner {
    file: File,
    /// Read cache over evicted segments, bounded by the budget slack the
    /// in-core pool leaves.
    cache: HashMap<usize, CacheEntry>,
    /// Second-chance CLOCK ring over cached segment ids. May hold stale
    /// ids (entries reclaimed by the writer); they are skipped on pop.
    ring: VecDeque<usize>,
    /// Whether segment `s` has a valid region on disk.
    on_disk: Vec<bool>,
    /// Whether the in-core copy of segment `s` has mutations the disk
    /// region does not.
    dirty: Vec<bool>,
    /// Reusable region-sized IO buffer.
    buf: Vec<u8>,
}

impl PagerInner {
    fn read_region(&mut self, geom: &Geometry, seg: usize) -> io::Result<SegmentData> {
        debug_assert!(self.on_disk[seg], "persist: fault of a segment never spilled");
        self.buf.resize(geom.region_len, 0);
        self.file.seek(SeekFrom::Start(geom.region_offset(seg)))?;
        self.file.read_exact(&mut self.buf)?;
        Ok(geom.decode(&self.buf))
    }

    fn write_region(&mut self, geom: &Geometry, seg: usize, data: &SegmentData) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        geom.encode(data, &mut buf);
        self.file.seek(SeekFrom::Start(geom.region_offset(seg)))?;
        let out = self.file.write_all(&buf);
        self.buf = buf;
        out
    }
}

/// The paging engine behind an out-of-core [`crate::store::StoreCore`]:
/// owns the region file, the bounded read cache, and the spill/fault
/// counters. Shared (`Arc`) between the store and its writer so `&self`
/// readers can fault segments in concurrently (the inner state is
/// mutex-protected; counters are atomics).
#[derive(Debug)]
pub(crate) struct Pager {
    dir: PathBuf,
    geom: Geometry,
    /// Total resident budget (in-core + cache), clamped to >= 2.
    budget: usize,
    /// Shared empty segment installed in place of evicted segments.
    tombstone: Arc<SegmentData>,
    inner: Mutex<PagerInner>,
    /// Non-evicted segments currently held by the owning `StoreCore`
    /// (maintained by the writer; read by the fault path to size the
    /// cache slack).
    in_core: AtomicUsize,
    spilled: AtomicU64,
    faulted: AtomicU64,
    evictions: AtomicU64,
    regions_on_disk: AtomicU64,
    peak_resident: AtomicU64,
}

impl Pager {
    /// Creates the persist directory and a fresh (truncated) region
    /// file. The region file is working state — durable restarts go
    /// through the snapshot journal, not stale regions.
    pub(crate) fn open(
        dir: &Path,
        attr_count: usize,
        measure_count: usize,
        resident_budget: usize,
    ) -> io::Result<Arc<Self>> {
        fs::create_dir_all(dir)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(SEGMENTS_FILE))?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(FILE_MAGIC);
        header[4..8].copy_from_slice(&FILE_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(attr_count as u32).to_le_bytes());
        header[12..16].copy_from_slice(&(measure_count as u32).to_le_bytes());
        file.write_all(&header)?;
        Ok(Arc::new(Self {
            dir: dir.to_path_buf(),
            geom: Geometry::new(attr_count, measure_count),
            budget: resident_budget.max(2),
            tombstone: Arc::new(SegmentData::tombstone()),
            inner: Mutex::new(PagerInner {
                file,
                cache: HashMap::new(),
                ring: VecDeque::new(),
                on_disk: Vec::new(),
                dirty: Vec::new(),
                buf: Vec::new(),
            }),
            in_core: AtomicUsize::new(0),
            spilled: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            regions_on_disk: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }))
    }

    /// The persist directory (owns `segments.dat` and the journal).
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total resident budget (in-core + read cache), always >= 2.
    pub(crate) fn total_budget(&self) -> usize {
        self.budget
    }

    /// How many segments the *writer* may keep in core: one below the
    /// total so the read path always has at least one cache slot.
    pub(crate) fn writer_budget(&self) -> usize {
        self.total_budget() - 1
    }

    /// The shared evicted-segment placeholder.
    pub(crate) fn tombstone(&self) -> Arc<SegmentData> {
        Arc::clone(&self.tombstone)
    }

    /// Grows the per-segment bookkeeping to cover `n` segments.
    pub(crate) fn ensure_segments(&self, n: usize) {
        let mut inner = self.inner.lock().unwrap();
        if inner.on_disk.len() < n {
            inner.on_disk.resize(n, false);
            inner.dirty.resize(n, false);
        }
    }

    /// Records that the in-core copy of `seg` diverged from its region.
    pub(crate) fn mark_dirty(&self, seg: usize) {
        self.inner.lock().unwrap().dirty[seg] = true;
    }

    /// Writer-side bookkeeping: the owning store's in-core count. Shrinks
    /// the read cache to the remaining budget slack, so a rise in the
    /// in-core pool (a write-path fault) can never push total residency
    /// past the budget on the strength of stale cache entries.
    pub(crate) fn set_in_core(&self, n: usize) {
        let allowed = self.budget.saturating_sub(n);
        let mut inner = self.inner.lock().unwrap();
        while inner.cache.len() > allowed && self.evict_one(&mut inner) {}
        let cache_len = inner.cache.len();
        drop(inner);
        self.in_core.store(n, Ordering::Relaxed);
        self.peak_resident.fetch_max((n + cache_len) as u64, Ordering::Relaxed);
    }

    /// Rebases the residency high-water mark to the current level.
    /// Called once attachment has spilled a pre-existing store down to
    /// budget: segments resident *before* the tier took over are the
    /// loader's footprint, not the pager's, and would otherwise pin the
    /// peak above any budget forever.
    pub(crate) fn reset_peak(&self) {
        let cache_len = self.inner.lock().unwrap().cache.len();
        let now = (self.in_core.load(Ordering::Relaxed) + cache_len) as u64;
        self.peak_resident.store(now, Ordering::Relaxed);
    }

    /// One CLOCK step over the cache ring: skips stale ids, gives
    /// referenced entries a second chance, evicts the first unreferenced
    /// entry. Returns `false` when the ring is exhausted.
    fn evict_one(&self, inner: &mut PagerInner) -> bool {
        loop {
            let Some(victim) = inner.ring.pop_front() else { return false };
            match inner.cache.get_mut(&victim) {
                // Stale ring id: the writer reclaimed this entry.
                None => continue,
                Some(e) if e.referenced => {
                    e.referenced = false;
                    inner.ring.push_back(victim);
                }
                Some(_) => {
                    inner.cache.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
    }

    fn bump_peak(&self, cache_len: usize) {
        let now = self.in_core.load(Ordering::Relaxed) as u64 + cache_len as u64;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
    }

    /// Read-path fault: returns the segment's data, from cache or disk,
    /// inserting into the CLOCK-bounded cache. Panics on IO failure —
    /// the accessors this serves are infallible `&self` reads.
    pub(crate) fn fault(&self, seg: usize) -> Arc<SegmentData> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.cache.get_mut(&seg) {
            e.referenced = true;
            return Arc::clone(&e.data);
        }
        let data = inner
            .read_region(&self.geom, seg)
            .map(Arc::new)
            .unwrap_or_else(|e| panic!("persist: faulting segment {seg} failed: {e}"));
        self.faulted.fetch_add(1, Ordering::Relaxed);
        let allowed = self.budget.saturating_sub(self.in_core.load(Ordering::Relaxed)).max(1);
        while inner.cache.len() >= allowed && self.evict_one(&mut inner) {}
        inner.cache.insert(seg, CacheEntry { data: Arc::clone(&data), referenced: true });
        inner.ring.push_back(seg);
        self.bump_peak(inner.cache.len());
        data
    }

    /// Writer-side fault: hands the segment's data to the store for
    /// mutation, *removing* any cached copy (the cache must never serve
    /// a segment the writer is about to change).
    pub(crate) fn take_for_write(&self, seg: usize) -> io::Result<Arc<SegmentData>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.cache.remove(&seg) {
            return Ok(e.data);
        }
        self.faulted.fetch_add(1, Ordering::Relaxed);
        inner.read_region(&self.geom, seg).map(Arc::new)
    }

    /// Cache-bypassing read for snapshot materialisation
    /// ([`crate::store::StoreCore`]'s `Clone`) and the memo's debug
    /// checks (`StoreCore::peek_segment`): serves a cached copy if
    /// present but never inserts and counts no fault, so materialising a
    /// full snapshot does not churn the query-path working set.
    pub(crate) fn read_detached(&self, seg: usize) -> Arc<SegmentData> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.cache.get(&seg) {
            return Arc::clone(&e.data);
        }
        inner
            .read_region(&self.geom, seg)
            .map(Arc::new)
            .unwrap_or_else(|e| panic!("persist: materialising segment {seg} failed: {e}"))
    }

    /// Write-back + eviction of an in-core segment: persists the region
    /// if it is dirty (or was never written) and drops any stale cache
    /// entry. The caller swaps the store's `Arc` for the tombstone.
    pub(crate) fn spill(&self, seg: usize, data: &SegmentData) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.cache.remove(&seg);
        if inner.dirty[seg] || !inner.on_disk[seg] {
            inner.write_region(&self.geom, seg, data)?;
            inner.dirty[seg] = false;
            if !inner.on_disk[seg] {
                inner.on_disk[seg] = true;
                self.regions_on_disk.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.spilled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counter snapshot (plus derived byte sizes).
    pub(crate) fn stats(&self) -> PersistStats {
        let cache_len = self.inner.lock().unwrap().cache.len() as u64;
        let in_core = self.in_core.load(Ordering::Relaxed) as u64;
        PersistStats {
            segments_spilled: self.spilled.load(Ordering::Relaxed),
            segments_faulted: self.faulted.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_on_disk: HEADER_LEN
                + self.regions_on_disk.load(Ordering::Relaxed) * self.geom.region_len as u64,
            resident_segments: in_core + cache_len,
            peak_resident_segments: self
                .peak_resident
                .load(Ordering::Relaxed)
                .max(in_core + cache_len),
        }
    }
}

// ----- snapshot journal ---------------------------------------------------

/// FNV-1a 64-bit (the same fold the bench fingerprints use): cheap,
/// dependency-free, and plenty for torn-tail detection.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Appends one checksummed snapshot record
/// (`magic | len u64 | payload | fnv64`) and fsyncs.
pub(crate) fn append_journal_record(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    let mut rec = Vec::with_capacity(payload.len() + 20);
    rec.extend_from_slice(RECORD_MAGIC);
    rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&fnv64(payload).to_le_bytes());
    f.write_all(&rec)?;
    f.sync_all()
}

/// Scans the journal and returns the payload of the last record whose
/// frame and checksum validate. A torn tail (crash mid-append) or
/// trailing garbage is detected and ignored — recovery resumes from the
/// last durable record. `Ok(None)` when the journal does not exist or
/// holds no valid record.
pub(crate) fn read_last_journal_record(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut pos = 0usize;
    let mut last = None;
    while bytes.len() - pos >= 20 {
        if &bytes[pos..pos + 4] != RECORD_MAGIC {
            break;
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        // A corrupt length field can put either end near `usize::MAX`.
        let Some(end) = pos.checked_add(12).and_then(|p| p.checked_add(len)) else { break };
        let Some(next) = end.checked_add(8).filter(|&next| next <= bytes.len()) else {
            break; // torn tail: record longer than the file
        };
        let payload = &bytes[pos + 12..end];
        let sum = u64::from_le_bytes(bytes[end..next].try_into().unwrap());
        if fnv64(payload) != sum {
            break; // corrupt record: everything after is untrusted
        }
        last = Some(payload.to_vec());
        pos = next;
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidden-db-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_accepts_the_cli_form() {
        let cfg = PersistConfig::parse("/tmp/x,resident:64").unwrap();
        assert_eq!(cfg.dir, PathBuf::from("/tmp/x"));
        assert_eq!(cfg.resident_segments, 64);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "/tmp/x",
            "/tmp/x,resident:",
            "/tmp/x,resident:abc",
            "/tmp/x,budget:3",
            ",resident:4",
            "/tmp/x,resident:0",
        ] {
            assert!(PersistConfig::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn region_roundtrip_preserves_partial_segments() {
        let geom = Geometry::new(2, 1);
        let mut data = SegmentData::empty(2, 1);
        for i in 0..5u64 {
            data.push_row(
                &[crate::value::ValueId(i as u32), crate::value::ValueId((i * 7) as u32)],
                &[i as f64 * 0.5],
                i + 100,
                i * 1000,
            );
        }
        data.alive[2] = false;
        let mut buf = Vec::new();
        geom.encode(&data, &mut buf);
        assert_eq!(buf.len(), geom.region_len);
        let back = geom.decode(&buf);
        assert_eq!(back.keys, data.keys);
        assert_eq!(back.scores, data.scores);
        assert_eq!(back.alive, data.alive);
        assert_eq!(back.values, data.values);
        assert_eq!(back.measures, data.measures);
        assert!(!back.evicted);
    }

    #[test]
    fn journal_keeps_last_valid_record_and_discards_torn_tail() {
        let dir = temp_dir("journal");
        let path = dir.join(JOURNAL_FILE);
        assert!(read_last_journal_record(&path).unwrap().is_none(), "missing journal is empty");
        append_journal_record(&path, b"first").unwrap();
        append_journal_record(&path, b"second").unwrap();
        assert_eq!(read_last_journal_record(&path).unwrap().unwrap(), b"second");
        // Crash mid-append: a torn third record (header + partial payload,
        // no checksum) must be discarded.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(RECORD_MAGIC).unwrap();
            f.write_all(&(1000u64).to_le_bytes()).unwrap();
            f.write_all(b"partial payload only").unwrap();
        }
        assert_eq!(read_last_journal_record(&path).unwrap().unwrap(), b"second");
        // A corrupted checksum invalidates that record (and anything after).
        let mut bytes = fs::read(&path).unwrap();
        let first_len = 20 + 5;
        bytes[first_len + 12] ^= 0xFF; // flip a byte inside "second"'s payload
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_last_journal_record(&path).unwrap().unwrap(), b"first");
        // A length field that puts the checksum's end past `usize::MAX`
        // is a torn tail too, not an overflow.
        bytes.truncate(first_len);
        bytes.extend_from_slice(RECORD_MAGIC);
        bytes.extend_from_slice(&(u64::MAX - 40).to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_last_journal_record(&path).unwrap().unwrap(), b"first");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pager_spills_faults_and_bounds_its_cache() {
        let dir = temp_dir("pager");
        let pager = Pager::open(&dir, 1, 0, 2).unwrap();
        pager.ensure_segments(4);
        pager.set_in_core(1); // pretend the writer holds one segment
        let mut segs = Vec::new();
        for s in 0..4usize {
            let mut d = SegmentData::empty(1, 0);
            for i in 0..3u64 {
                d.push_row(&[crate::value::ValueId(s as u32)], &[], s as u64 * 10 + i, i);
            }
            pager.spill(s, &d).unwrap();
            segs.push(d);
        }
        for (s, want) in segs.iter().enumerate() {
            let got = pager.fault(s);
            assert_eq!(got.keys, want.keys, "segment {s} faults back bit-identically");
        }
        let stats = pager.stats();
        assert_eq!(stats.segments_spilled, 4);
        assert_eq!(stats.segments_faulted, 4);
        assert!(stats.evictions >= 3, "cache slack is 1, so 3 of 4 faults evict");
        assert!(stats.resident_segments <= 2, "in-core 1 + cache <= budget 2");
        assert!(stats.peak_resident_segments <= 2);
        assert!(stats.bytes_on_disk > HEADER_LEN);
        // A cache hit does not count as a new fault.
        let _ = pager.fault(3);
        assert_eq!(pager.stats().segments_faulted, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_spill_overwrites_the_region() {
        let dir = temp_dir("dirty");
        let pager = Pager::open(&dir, 1, 0, 2).unwrap();
        pager.ensure_segments(1);
        let mut d = SegmentData::empty(1, 0);
        d.push_row(&[crate::value::ValueId(7)], &[], 42, 9);
        pager.spill(0, &d).unwrap();
        // Take for write, mutate, mark dirty, spill again.
        let taken = pager.take_for_write(0).unwrap();
        let mut mutated = (*taken).clone();
        mutated.keys[0] = 43;
        pager.mark_dirty(0);
        pager.spill(0, &mutated).unwrap();
        assert_eq!(pager.fault(0).keys, vec![43], "rewrite visible on next fault");
        let _ = fs::remove_dir_all(&dir);
    }
}
