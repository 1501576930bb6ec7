//! Snapshot serialisation: save/load a whole database to a compact,
//! self-describing binary format.
//!
//! Generating the larger synthetic populations (Fig 12 runs up to 10⁷
//! tuples) dominates some harness runtimes; snapshots let experiments
//! cache them — and they are the durability unit of checkpoint and warm
//! restart ([`crate::persist`]): the journal's checkpoint records are
//! snapshots.
//!
//! **Format v5** captures the *warm* store state verbatim, not just the
//! logical tuple set: segment data in slot layout (so slot identity
//! survives a restart) and the free list in order (so future slot reuse
//! replays identically). Nothing derivable is stored: the reader derives
//! each segment's alive count from its alive bitmap, and rebuilds the
//! bitmap index from the restored rows, so both always agree with them.
//! A restored database doesn't just answer identically — it *evolves*
//! identically under any further mutation stream. v5 is v4 without v4's
//! per-segment meta record (alive count, max-score bound, bound
//! staleness), which went with the score bounds.
//!
//! Attribute values and measures are stored **attribute-major**, one
//! column per attribute and per measure, whatever layout the store keeps
//! in memory. The store keeps rows: the writer reads each column across
//! a segment's rows, and the reader checks each value against its domain
//! and lays a segment's columns out as rows once all of them are read.
//! The bytes do not depend on the in-memory layout, so checkpoints
//! written while the store kept one array per attribute still restore.
//! Each value is a `u32` word on disk, while the store keeps one byte:
//! the reader refuses a domain above 256 through the schema's own check
//! ([`crate::SchemaError::DomainTooLarge`]), so every value that passes
//! its domain check fits a byte.
//!
//! Layout (all integers little-endian):
//! `magic "HDBS" | format u32 | k u64 | policy | schema | store | free
//! list` — see [`write_snapshot`] for the field-level walk. Only v5
//! reads back; reading rejects bad magic, other versions, truncation,
//! implausible counts (including a store whose bitmaps would exceed
//! `MAX_BITMAP_BYTES`), and state that breaks a store invariant with
//! [`io::ErrorKind::InvalidData`] instead of panicking, now or on a
//! later query or mutation.

use std::io::{self, Read, Write};

use crate::database::HiddenDatabase;
use crate::index::bytes_for;
use crate::ranking::ScoringPolicy;
use crate::schema::{AttributeDef, MeasureDef, Schema};
use crate::store::{SegmentData, Store, SEGMENT_SLOTS};
use crate::value::MeasureId;

const MAGIC: &[u8; 4] = b"HDBS";
const FORMAT_VERSION: u32 = 5;

/// Schemas whose attribute domains hold more values than this in total
/// are rejected as corrupt.
const MAX_DOMAIN_VALUES: usize = 1 << 22;

/// Snapshots whose rebuilt bitmaps would take more bytes than this —
/// `segments × (Σ domain sizes + 1) × 512` — are rejected as corrupt
/// before anything is allocated. [`MAX_DOMAIN_VALUES`] alone would allow
/// a 2 GiB block per segment; this cap admits about 2 800 segments
/// (11 million tuples) of the paper's widest schema, Autos at 38
/// attributes.
const MAX_BITMAP_BYTES: usize = 1 << 30;

/// Page sizes above this are rejected as corrupt: every cold evaluation
/// allocates a `k`-entry heap up front.
const MAX_K: u64 = 1 << 20;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(bad("string length implausible"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("invalid utf-8 in snapshot"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_policy(w: &mut impl Write, p: ScoringPolicy) -> io::Result<()> {
    match p {
        ScoringPolicy::HashedRandom { salt } => {
            write_u32(w, 0)?;
            write_u64(w, salt)
        }
        ScoringPolicy::ByMeasureDesc(m) => {
            write_u32(w, 1)?;
            write_u32(w, u32::from(m.0))
        }
        ScoringPolicy::ByMeasureAsc(m) => {
            write_u32(w, 2)?;
            write_u32(w, u32::from(m.0))
        }
        ScoringPolicy::NewestFirst => write_u32(w, 3),
    }
}

fn read_policy(r: &mut impl Read) -> io::Result<ScoringPolicy> {
    Ok(match read_u32(r)? {
        0 => ScoringPolicy::HashedRandom { salt: read_u64(r)? },
        1 => ScoringPolicy::ByMeasureDesc(MeasureId(read_u32(r)? as u16)),
        2 => ScoringPolicy::ByMeasureAsc(MeasureId(read_u32(r)? as u16)),
        3 => ScoringPolicy::NewestFirst,
        _ => return Err(bad("unknown scoring policy tag")),
    })
}

fn write_schema(w: &mut impl Write, schema: &Schema) -> io::Result<()> {
    write_u32(w, schema.attr_count() as u32)?;
    for a in schema.attr_ids() {
        let def = schema.attribute(a);
        write_str(w, def.name())?;
        write_u32(w, def.domain_size())?;
    }
    write_u32(w, schema.measure_count() as u32)?;
    for m in 0..schema.measure_count() {
        write_str(w, schema.measure(MeasureId(m as u16)).name())?;
    }
    Ok(())
}

fn read_schema(r: &mut impl Read) -> io::Result<Schema> {
    let attr_count = read_u32(r)? as usize;
    if attr_count > u16::MAX as usize {
        return Err(bad("attribute count implausible"));
    }
    let mut attrs = Vec::with_capacity(attr_count);
    let mut domain_values = 0usize;
    for _ in 0..attr_count {
        let name = read_str(r)?;
        let domain = read_u32(r)?;
        domain_values += domain as usize;
        if domain_values > MAX_DOMAIN_VALUES {
            return Err(bad("attribute domains implausibly large"));
        }
        attrs.push(AttributeDef::new(name, domain));
    }
    let measure_count = read_u32(r)? as usize;
    if measure_count > u16::MAX as usize {
        return Err(bad("measure count implausible"));
    }
    let mut measures = Vec::with_capacity(measure_count);
    for _ in 0..measure_count {
        measures.push(MeasureDef::new(read_str(r)?));
    }
    Schema::new(attrs, measures).map_err(|e| bad(&e.to_string()))
}

/// Serialises a full database snapshot into `w` (format v5).
///
/// After the common `magic | format | k | policy | schema` prefix:
/// `alive u64 | allocated u64 | segment count u32`, then per segment
/// `rows u32 | keys | scores | alive bitmap (u64 words) | columns |
/// measures`, then the free list (`count u32 | slots`).
///
/// `&HiddenDatabase` on purpose: writing a snapshot changes nothing, so
/// a checkpoint can run between any two mutations.
pub fn write_snapshot(db: &HiddenDatabase, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, FORMAT_VERSION)?;
    write_u64(w, db.k() as u64)?;
    write_policy(w, db.scoring_policy())?;
    write_schema(w, db.schema())?;
    // Store: segment data in slot layout.
    let store = db.store_ref();
    write_u64(w, store.len() as u64)?;
    write_u64(w, u64::from(store.slot_bound()))?;
    let seg_count = store.segment_count();
    write_u32(w, seg_count as u32)?;
    for seg in 0..seg_count {
        let data = store.seg_view(seg);
        let rows = data.keys.len();
        write_u32(w, rows as u32)?;
        for &k in &data.keys {
            write_u64(w, k)?;
        }
        for &s in &data.scores {
            write_u64(w, s)?;
        }
        let mut bits = vec![0u64; rows.div_ceil(64)];
        for (i, &a) in data.alive.iter().enumerate() {
            if a {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        for word in bits {
            write_u64(w, word)?;
        }
        // Columns, attribute-major, read across the store's rows.
        for a in 0..data.attr_count {
            for off in 0..rows {
                write_u32(w, u32::from(data.value_row(off)[a]))?;
            }
        }
        for m in 0..data.measure_count {
            for off in 0..rows {
                write_f64(w, data.measure_row(off)[m])?;
            }
        }
    }
    // Free list, order preserved: slot reuse after restore pops the
    // same slots in the same order.
    let free = store.free_slots();
    write_u32(w, free.len() as u32)?;
    for &s in free {
        write_u32(w, s)?;
    }
    Ok(())
}

/// Deserialises a snapshot produced by [`write_snapshot`] and rebuilds
/// its bitmap index from the restored rows. Every count is validated against
/// the allocation geometry before use, the bitmaps' size against
/// `MAX_BITMAP_BYTES`, and every restored field a later query or
/// mutation indexes by is checked against the schema, so corrupt or
/// hostile input errors out instead of panicking or over-allocating.
pub fn read_snapshot(r: &mut impl Read) -> io::Result<HiddenDatabase> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a hidden-db snapshot (bad magic)"));
    }
    if read_u32(r)? != FORMAT_VERSION {
        return Err(bad("unsupported snapshot format version"));
    }
    let k = read_u64(r)?;
    if k > MAX_K {
        return Err(bad("page size k implausible"));
    }
    let k = k as usize;
    let policy = read_policy(r)?;
    let schema = read_schema(r)?;
    let (attr_count, measure_count) = (schema.attr_count(), schema.measure_count());
    if let ScoringPolicy::ByMeasureDesc(m) | ScoringPolicy::ByMeasureAsc(m) = policy {
        if m.index() >= measure_count {
            return Err(bad("scoring policy ranks by an unknown measure"));
        }
    }
    let domains: Vec<u32> = schema.attr_ids().map(|a| schema.domain_size(a)).collect();
    let alive_total = read_u64(r)?;
    let allocated = read_u64(r)?;
    if allocated > u64::from(u32::MAX) {
        return Err(bad("allocated slot count implausible"));
    }
    let allocated = allocated as usize;
    if alive_total as usize > allocated {
        return Err(bad("alive count exceeds allocation"));
    }
    let seg_count = read_u32(r)? as usize;
    if seg_count != allocated.div_ceil(SEGMENT_SLOTS) {
        return Err(bad("segment count does not match allocation"));
    }
    if bytes_for(&schema, seg_count) > MAX_BITMAP_BYTES {
        return Err(bad("bitmap index implausibly large"));
    }
    let mut segs = Vec::with_capacity(seg_count);
    let mut alive_sum = 0usize;
    let (mut value_cols, mut measure_cols) = (Vec::new(), Vec::new());
    for seg in 0..seg_count {
        let expected_rows = (allocated - seg * SEGMENT_SLOTS).min(SEGMENT_SLOTS);
        let rows = read_u32(r)? as usize;
        if rows != expected_rows {
            return Err(bad("segment row count does not match allocation"));
        }
        let mut data = SegmentData::empty(attr_count, measure_count);
        data.keys = (0..rows).map(|_| read_u64(r)).collect::<io::Result<_>>()?;
        data.scores = (0..rows).map(|_| read_u64(r)).collect::<io::Result<_>>()?;
        let mut alive = Vec::with_capacity(rows);
        for _ in 0..rows.div_ceil(64) {
            let word = read_u64(r)?;
            for b in 0..64 {
                if alive.len() < rows {
                    alive.push(word & (1 << b) != 0);
                }
            }
        }
        alive_sum += alive.iter().filter(|&&a| a).count();
        data.alive = alive;
        // The columns are collected as they are read, so what is
        // allocated follows the bytes actually read; the segment's row
        // blocks are laid out only once all of them are in.
        value_cols.clear();
        for &domain in &domains {
            for _ in 0..rows {
                let v = read_u32(r)?;
                if v >= domain {
                    return Err(bad("column value outside its attribute domain"));
                }
                value_cols.push(u8::try_from(v).expect("a schema's domains fit one-byte codes"));
            }
        }
        measure_cols.clear();
        for _ in 0..measure_count * rows {
            measure_cols.push(read_f64(r)?);
        }
        data.values = to_rows(&value_cols, rows, attr_count);
        data.measures = to_rows(&measure_cols, rows, measure_count);
        segs.push(data);
    }
    if alive_sum as u64 != alive_total {
        return Err(bad("alive total does not match segments"));
    }
    let free_len = read_u32(r)? as usize;
    // Every allocated slot is either alive or on the free list.
    if alive_total as usize + free_len != allocated {
        return Err(bad("free list does not account for dead slots"));
    }
    let mut free = Vec::with_capacity(free_len);
    let mut freed = vec![false; allocated];
    for _ in 0..free_len {
        let s = read_u32(r)?;
        let (seg, off) = (s as usize / SEGMENT_SLOTS, s as usize % SEGMENT_SLOTS);
        // With the count check above, distinct dead slots make the free
        // list exactly the dead set.
        if s as usize >= allocated || segs[seg].alive[off] || freed[s as usize] {
            return Err(bad("free slot out of range, alive, or listed twice"));
        }
        freed[s as usize] = true;
        free.push(s);
    }
    let store = Store::from_restored(attr_count, measure_count, segs, allocated, free)
        .ok_or_else(|| bad("duplicate alive key in snapshot"))?;
    Ok(HiddenDatabase::from_restored(schema, k, policy, store))
}

/// Lays out `rows × width` attribute-major `columns` row-major: entry
/// `(row, a)` moves from `a * rows + row` to `row * width + a`.
fn to_rows<T: Copy>(columns: &[T], rows: usize, width: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(columns.len());
    for row in 0..rows {
        out.extend((0..width).map(|a| columns[a * rows + row]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ConjunctiveQuery, Predicate};
    use crate::tuple::Tuple;
    use crate::updates::UpdateBatch;
    use crate::value::{AttrId, TupleKey, ValueId};
    use rand::{Rng, SeedableRng};

    fn sample_db(n: u64) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[3, 4], &["price", "qty"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 7, ScoringPolicy::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for t in 0..n {
            db.insert(Tuple::new(
                TupleKey(t * 3), // non-contiguous keys
                vec![ValueId(rng.random_range(0..3)), ValueId(rng.random_range(0..4))],
                vec![rng.random_range(0..500) as f64, rng.random_range(0..9) as f64],
            ))
            .unwrap();
        }
        db
    }

    /// A database with real churn: deletes and slot reuse — so the
    /// snapshot has a non-empty free list to preserve.
    /// Small on purpose: the corruption sweep flips every byte of its
    /// snapshot twice.
    fn churned_db() -> HiddenDatabase {
        let mut db = sample_db(48);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for t in 0..16u64 {
            db.delete(TupleKey(t * 9)).unwrap();
        }
        for t in 0..8u64 {
            db.insert(Tuple::new(
                TupleKey(10_000 + t),
                vec![ValueId(rng.random_range(0..3)), ValueId(rng.random_range(0..4))],
                vec![rng.random_range(0..500) as f64, 1.0],
            ))
            .unwrap();
        }
        db
    }

    fn queries() -> Vec<ConjunctiveQuery> {
        vec![
            ConjunctiveQuery::select_all(),
            ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(1))]),
            ConjunctiveQuery::from_predicates([
                Predicate::new(AttrId(0), ValueId(2)),
                Predicate::new(AttrId(1), ValueId(3)),
            ]),
        ]
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let mut original = sample_db(200);
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let mut restored = read_snapshot(&mut buf.as_slice()).unwrap();

        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.k(), original.k());
        assert_eq!(restored.alive_keys_sorted(), original.alive_keys_sorted());
        assert_eq!(restored.schema().attr_count(), original.schema().attr_count());
        // Interface answers (incl. hidden ranking) must be identical.
        for q in queries() {
            assert_eq!(original.answer(&q), restored.answer(&q), "query {q}");
        }
        // Ground truth agrees too.
        let sum_orig = original.exact_sum(None, |t| t.measure(MeasureId(0)));
        let sum_rest = restored.exact_sum(None, |t| t.measure(MeasureId(0)));
        assert_eq!(sum_orig, sum_rest);
    }

    /// The warm-state promise: a restored churned database doesn't
    /// just answer like the original — it *evolves* identically, because
    /// slot layout and the free list (in order) survived verbatim and the
    /// bitmaps were rebuilt from the rows.
    #[test]
    fn roundtrip_preserves_future_evolution() {
        let mut original = churned_db();
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let mut restored = read_snapshot(&mut buf.as_slice()).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut batch = UpdateBatch::empty();
        for t in 0..40u64 {
            batch = batch.insert(Tuple::new(
                TupleKey(50_000 + t),
                vec![ValueId(rng.random_range(0..3)), ValueId(rng.random_range(0..4))],
                vec![rng.random_range(0..500) as f64, 2.0],
            ));
        }
        for key in original.alive_keys_sorted().into_iter().step_by(7).take(25) {
            batch = batch.delete(key);
        }
        assert_eq!(original.apply(batch.clone()), restored.apply(batch));
        for q in queries() {
            assert_eq!(original.answer(&q), restored.answer(&q), "post-mutation query {q}");
        }
        // Identical slot assignment is the strongest evolution witness.
        for key in original.alive_keys_sorted() {
            assert_eq!(
                original.store_ref().slot_of(key),
                restored.store_ref().slot_of(key),
                "key {key:?} landed on a different slot after restore"
            );
        }
    }

    /// v5 stores no per-segment counts: the reader derives every
    /// segment's alive count from its alive bitmap, across two segments
    /// with deletes and slot reuse.
    #[test]
    fn roundtrip_derives_segment_alive_counts() {
        let original = pinned_db();
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let restored = read_snapshot(&mut buf.as_slice()).unwrap();
        let (want, got) = (original.store_ref(), restored.store_ref());
        assert_eq!(got.segment_count(), 2);
        for seg in 0..want.segment_count() {
            assert_eq!(got.segment_alive(seg), want.segment_alive(seg), "segment {seg}");
        }
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn roundtrip_empty_database() {
        let original = sample_db(0);
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let restored = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.k(), 7);
    }

    /// `k` is capped against hostile allocation; `k = 0` stays legal.
    #[test]
    fn page_size_is_capped_but_zero_is_legal() {
        let mut db = sample_db(5);
        db.set_k(0);
        let mut buf = Vec::new();
        write_snapshot(&db, &mut buf).unwrap();
        let mut restored = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.k(), 0);
        assert_eq!(restored.answer(&ConjunctiveQuery::select_all()).returned_count(), 0);
        buf[8..16].copy_from_slice(&(MAX_K + 1).to_le_bytes());
        let err = read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A measure-ranked policy naming a measure the schema lacks would
    /// panic on the first insert; the reader rejects it instead.
    #[test]
    fn scoring_measure_outside_schema_rejected() {
        let schema = Schema::with_domain_sizes(&[2], &["m"]).unwrap();
        let db = HiddenDatabase::new(schema, 3, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        let mut buf = Vec::new();
        write_snapshot(&db, &mut buf).unwrap();
        // magic(4) + version(4) + k(8) + policy tag(4), then the measure.
        buf[20..24].copy_from_slice(&1u32.to_le_bytes());
        let err = read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&sample_db(3), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&sample_db(50), &mut buf).unwrap();
        // No panic at any truncation point — errors all the way down.
        for cut in [5, 9, 17, buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            assert!(read_snapshot(&mut buf[..cut].as_ref()).is_err(), "cut at {cut}");
        }
    }

    /// Only the current format reads back: earlier versions (v1's
    /// tuple-level layout, v2's block bounds, v3's posting lists, v4's
    /// segment score bounds) are rejected, not guessed.
    #[test]
    fn unknown_version_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&sample_db(1), &mut buf).unwrap();
        for version in [0u32, 1, 2, 3, 4, 6, 99] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            let err = read_snapshot(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
    }

    /// Corruption must never panic or over-allocate — neither in the
    /// reader nor in a later query or mutation on a snapshot the reader
    /// accepted. Every byte is flipped whole (`0xFF`) and in its low bit
    /// (`0x01`): each corruption either errors with `InvalidData` or
    /// `UnexpectedEof`, or restores a database whose bitmaps fit the cap
    /// and that answers a fixed query set, refills every free slot, and
    /// deletes every alive key.
    #[test]
    fn oversized_counts_rejected() {
        let good = {
            let mut buf = Vec::new();
            write_snapshot(&churned_db(), &mut buf).unwrap();
            buf
        };
        let mut rejected = 0usize;
        for (i, mask) in (0..good.len()).flat_map(|i| [(i, 0xFF), (i, 0x01)]) {
            let mut buf = good.clone();
            buf[i] ^= mask;
            match read_snapshot(&mut buf.as_slice()) {
                Ok(mut db) => {
                    let bytes = bytes_for(db.schema(), db.store_ref().segment_count());
                    assert!(bytes <= MAX_BITMAP_BYTES, "byte {i} ^ {mask:#04x}: {bytes} B");
                    for q in queries() {
                        if q.validate(db.schema()).is_ok() {
                            db.answer(&q);
                        }
                    }
                    let (attrs, measures) = (db.schema().attr_count(), db.schema().measure_count());
                    for key in 0..db.store_ref().free_slots().len() as u64 {
                        let fresh = Tuple::new(
                            TupleKey(u64::MAX - key),
                            vec![ValueId(0); attrs],
                            vec![1.0; measures],
                        );
                        db.insert(fresh).unwrap();
                    }
                    // Every key owns a slot of its own: the refill never
                    // overwrote a live tuple.
                    let slots = db.exact_count(Some(&ConjunctiveQuery::select_all()));
                    assert_eq!(slots, db.len() as u64, "byte {i} ^ {mask:#04x}");
                    for key in db.alive_keys_sorted() {
                        db.delete(key).unwrap();
                    }
                    assert!(db.is_empty(), "byte {i} ^ {mask:#04x}");
                }
                Err(e) => {
                    rejected += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "byte {i} ^ {mask:#04x}: unexpected error kind {:?}",
                        e.kind()
                    );
                }
            }
        }
        assert!(rejected > 0, "corruption sweep never hit a validated field");
    }

    /// Offset of A0's domain word in a snapshot of `db`, whose policy is
    /// the default hashed one: magic(4) + version(4) + k(8) + policy
    /// tag(4) + salt(8) + attr count(4) + name length(4) + name.
    fn a0_domain_at(db: &HiddenDatabase) -> usize {
        36 + db.schema().attribute(AttrId(0)).name().len()
    }

    /// A schema within [`MAX_DOMAIN_VALUES`] whose bitmaps would still
    /// exceed [`MAX_BITMAP_BYTES`] is rejected before anything is
    /// allocated, while a merely wider domain reads back.
    #[test]
    fn bitmap_cap_rejects_before_allocating() {
        let db = sample_db(3);
        let mut buf = Vec::new();
        write_snapshot(&db, &mut buf).unwrap();
        // The schema follows magic(4) + version(4) + k(8) + policy tag(4)
        // + salt(8).
        let mut schema = Vec::new();
        write_schema(&mut schema, db.schema()).unwrap();
        let at = 28;
        assert_eq!(buf[at..at + schema.len()], schema[..], "the schema's bytes");
        // 8 192 attributes of 256 values stay within MAX_DOMAIN_VALUES,
        // but one segment of their bitmaps exceeds the cap. The store
        // that follows still holds two attributes' columns, so only the
        // cap, checked before anything is allocated, can reject it.
        let wide = Schema::with_domain_sizes(&[256; 8192], &["price", "qty"]).unwrap();
        assert!(bytes_for(&wide, 1) > MAX_BITMAP_BYTES);
        let mut wide_schema = Vec::new();
        write_schema(&mut wide_schema, &wide).unwrap();
        let mut patched = buf.clone();
        patched.splice(at..at + schema.len(), wide_schema);
        let err = read_snapshot(&mut patched.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bitmap"), "{err}");
        let at = a0_domain_at(&db);
        assert_eq!(buf[at..at + 4], 3u32.to_le_bytes(), "A0's domain");
        buf[at..at + 4].copy_from_slice(&64u32.to_le_bytes());
        let restored = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.schema().domain_size(AttrId(0)), 64);
        assert_eq!(restored.len(), 3);
    }

    /// A domain word above 256, which no one-byte code can hold, is
    /// refused through the schema's limit; 256 itself reads back.
    #[test]
    fn domain_words_above_a_byte_are_refused() {
        let db = sample_db(3);
        let mut buf = Vec::new();
        write_snapshot(&db, &mut buf).unwrap();
        let at = a0_domain_at(&db);
        assert_eq!(buf[at..at + 4], 3u32.to_le_bytes(), "A0's domain");
        buf[at..at + 4].copy_from_slice(&256u32.to_le_bytes());
        let restored = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.schema().domain_size(AttrId(0)), 256);
        buf[at..at + 4].copy_from_slice(&257u32.to_le_bytes());
        let err = read_snapshot(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("A0"), "{err}");
    }

    /// Length and FNV-1a 64 of `write_snapshot(&pinned_db())`. Derived
    /// from the v4 bytes of the same database (225 354 B, FNV-1a 64
    /// `0xae5e_b210_b263_48a9`) by setting the version word to 5 and
    /// cutting each segment's 16-byte meta record, which is all v5
    /// changed.
    const PINNED_SNAPSHOT: (usize, u64) = (225_322, 0xa535_b62e_fd7e_0d47);

    /// A fixed two-segment database with every kind of churn: deletes,
    /// measure updates that move measure-ranked scores both ways, and
    /// inserts that refill freed slots. Its values come from arithmetic
    /// on the key, not from an RNG, so the fixture cannot drift.
    fn pinned_db() -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[3, 7, 2, 11, 5], &["price", "qty"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 9, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        let tuple = |key: u64| {
            let values = [3u64, 7, 2, 11, 5]
                .iter()
                .enumerate()
                .map(|(a, &d)| ValueId(((key * (2 * a as u64 + 3) + key / 5) % d) as u32))
                .collect();
            Tuple::new(TupleKey(key), values, vec![(key * 37 % 1000) as f64, (key % 13) as f64])
        };
        let n = SEGMENT_SLOTS as u64 + 200;
        for key in 0..n {
            db.insert(tuple(key)).unwrap();
        }
        for key in (0..n).step_by(7) {
            db.delete(TupleKey(key)).unwrap();
        }
        for key in (1..n).step_by(5).filter(|key| key % 7 != 0) {
            db.update_measures(TupleKey(key), vec![(key * 53 % 1500) as f64, -1.5]).unwrap();
        }
        for key in n..n + 300 {
            db.insert(tuple(key)).unwrap();
        }
        db
    }

    /// Codec v5's bytes are a format, not a dump of the store's memory
    /// layout: a fixed database writes the bytes pinned above, and a
    /// snapshot read back writes the same bytes again.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let mut bytes = Vec::new();
        write_snapshot(&pinned_db(), &mut bytes).unwrap();
        assert_eq!((bytes.len(), crate::persist::fnv64(&bytes)), PINNED_SNAPSHOT);
        let restored = read_snapshot(&mut bytes.as_slice()).unwrap();
        let mut again = Vec::new();
        write_snapshot(&restored, &mut again).unwrap();
        assert!(again == bytes, "a restored snapshot writes different bytes");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let db = sample_db(100);
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_snapshot(&db, &mut a).unwrap();
        write_snapshot(&db, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
