//! Checkpoint journal: durable full-state snapshots for warm restart.
//!
//! `state.hdbj` ([`JOURNAL_FILE`]) is an append-only journal of
//! checksummed snapshot records, one per checkpoint. A record's payload
//! is format v5 of [`crate::codec`]: segment data in slot layout plus
//! the warm store state, the free list in order. The bitmap index is not
//! stored; it is rebuilt from the stored rows on load.
//!
//! [`crate::database::HiddenDatabase::checkpoint`] appends a record and
//! fsyncs. [`crate::database::HiddenDatabase::open_persistent`] scans the
//! journal, keeps the last record whose length and FNV-64 checksum
//! validate, and ignores any torn tail from a crash mid-append.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Name of the append-only snapshot journal inside a checkpoint
/// directory.
pub const JOURNAL_FILE: &str = "state.hdbj";

const RECORD_MAGIC: &[u8; 4] = b"HDBR";

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
        let Some(len) = bytes[pos + 4..].first_chunk::<8>() else { break };
        let len = u64::from_le_bytes(*len) as usize;
        // A corrupt length field can put either end near `usize::MAX`.
        let Some(end) = pos.checked_add(12).and_then(|p| p.checked_add(len)) else { break };
        let Some(next) = end.checked_add(8).filter(|&next| next <= bytes.len()) else {
            break; // torn tail: record longer than the file
        };
        let payload = &bytes[pos + 12..end];
        let Some(sum) = bytes[end..].first_chunk::<8>() else { break };
        if fnv64(payload) != u64::from_le_bytes(*sum) {
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
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hidden-db-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
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

    /// Every byte of a two-record journal of real checkpoints, flipped
    /// whole (`0xFF`) and in its low bit: recovery never panics, returns
    /// nothing for a flip in the first record and the first payload for
    /// one in the second, and the codec accepts whatever it returns.
    #[test]
    fn every_flipped_journal_byte_recovers_the_first_record_or_none() {
        use crate::database::HiddenDatabase;
        use crate::tuple::Tuple;
        use crate::value::{TupleKey, ValueId};
        let dir = temp_dir("journal-sweep");
        let path = dir.join(JOURNAL_FILE);
        let schema = crate::schema::Schema::with_domain_sizes(&[2, 3], &["m"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 2, crate::ranking::ScoringPolicy::default());
        let mut payloads = Vec::new();
        for key in 0..6u64 {
            let values = vec![ValueId((key % 2) as u32), ValueId((key % 3) as u32)];
            db.insert(Tuple::new(TupleKey(key), values, vec![key as f64])).unwrap();
            if key % 3 == 2 {
                let mut payload = Vec::new();
                crate::codec::write_snapshot(&db, &mut payload).unwrap();
                append_journal_record(&path, &payload).unwrap();
                payloads.push(payload);
            }
        }
        let clean = fs::read(&path).unwrap();
        assert_eq!(read_last_journal_record(&path).unwrap().as_ref(), Some(&payloads[1]));
        let first_len = 20 + payloads[0].len();
        for at in 0..clean.len() {
            for mask in [0xFF, 0x01] {
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                fs::write(&path, &bytes).unwrap();
                let got = read_last_journal_record(&path).unwrap();
                let want = (at >= first_len).then(|| payloads[0].clone());
                assert_eq!(got, want, "byte {at} ^ {mask:#04x}");
                if let Some(payload) = got {
                    let restored = crate::codec::read_snapshot(&mut payload.as_slice()).unwrap();
                    assert_eq!(restored.len(), 3, "byte {at} ^ {mask:#04x}");
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
