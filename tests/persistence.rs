//! Crash recovery for checkpoint and warm restart: `open_persistent`
//! recovers the last *durable* checkpoint from the journal, discarding
//! any torn tail a crash mid-append left behind — a truncated record, a
//! record with a corrupt checksum, or trailing garbage bytes — and
//! reports a missing or empty journal as `NotFound`.

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{AttrId, TupleKey, ValueId};
use hidden_db::SEGMENT_SLOTS;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const DOMAINS: [u32; 2] = [3, 4];
/// Three segments of base tuples.
const BASE_TUPLES: u64 = 2 * SEGMENT_SLOTS as u64 + 700;

/// A unique scratch directory per test; torn down by the test.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aggtrack-persistence-{}-{unique}-{tag}", std::process::id()))
}

fn base_tuple(t: u64) -> Tuple {
    Tuple::new(
        TupleKey(t),
        vec![ValueId((t % 3) as u32), ValueId((t / 3 % 4) as u32)],
        vec![(t % 7) as f64],
    )
}

fn build_query(a0: Option<u32>, a1: Option<u32>) -> ConjunctiveQuery {
    let mut preds = Vec::new();
    if let Some(v) = a0 {
        preds.push(Predicate::new(AttrId(0), ValueId(v)));
    }
    if let Some(v) = a1 {
        preds.push(Predicate::new(AttrId(1), ValueId(v)));
    }
    ConjunctiveQuery::from_predicates(preds)
}

/// The deterministic query set used to fingerprint a recovered state.
fn probe_queries() -> Vec<ConjunctiveQuery> {
    let mut qs = vec![ConjunctiveQuery::select_all()];
    for a0 in 0..DOMAINS[0] {
        qs.push(build_query(Some(a0), None));
        qs.push(build_query(Some(a0), Some(a0 % DOMAINS[1])));
    }
    qs
}

fn probe(db: &mut HiddenDatabase) -> Vec<hidden_db::QueryOutcome> {
    probe_queries().iter().map(|q| db.answer(q)).collect()
}

/// A memo-off database of the base tuples; `dir` starts out missing.
fn crash_db(dir: &Path) -> HiddenDatabase {
    let _ = std::fs::remove_dir_all(dir);
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, 3, ScoringPolicy::NewestFirst);
    db.set_memo_capacity(0);
    for t in 0..BASE_TUPLES {
        db.insert(base_tuple(t)).unwrap();
    }
    db
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join(hidden_db::persist::JOURNAL_FILE)
}

#[test]
fn torn_journal_tail_recovers_last_durable_checkpoint() {
    let dir = scratch_dir("torn-tail");
    let mut db = crash_db(&dir);
    for key in (0..BASE_TUPLES).step_by(17) {
        db.apply(UpdateBatch::empty().delete(TupleKey(key))).unwrap();
    }
    db.checkpoint(&dir).unwrap();
    let want_len = db.len();
    let want = probe(&mut db);
    drop(db);

    // A crash mid-append leaves a record header whose promised length
    // exceeds the bytes that made it to disk.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(journal_path(&dir)).unwrap();
    f.write_all(b"HDBR").unwrap();
    f.write_all(&(1_000_000u64).to_le_bytes()).unwrap();
    f.write_all(&[0xAB; 100]).unwrap();
    drop(f);

    let mut reopened = HiddenDatabase::open_persistent(&dir).unwrap();
    reopened.set_memo_capacity(0);
    assert_eq!(reopened.len(), want_len);
    assert_eq!(probe(&mut reopened), want, "torn tail must not change the recovered state");
    // The recovered database keeps evolving.
    reopened.apply(UpdateBatch::empty().insert(base_tuple(10 * BASE_TUPLES))).unwrap();
    assert_eq!(reopened.len(), want_len + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_journal_tail_recovers_last_durable_checkpoint() {
    let dir = scratch_dir("garbage-tail");
    let mut db = crash_db(&dir);
    db.checkpoint(&dir).unwrap();
    let want = probe(&mut db);
    drop(db);

    // Trailing bytes that are not even a record header.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(journal_path(&dir)).unwrap();
    f.write_all(&[0x5A; 37]).unwrap();
    drop(f);

    let mut reopened = HiddenDatabase::open_persistent(&dir).unwrap();
    reopened.set_memo_capacity(0);
    assert_eq!(probe(&mut reopened), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_second_checkpoint_recovers_the_first() {
    let dir = scratch_dir("truncate-second");
    let mut db = crash_db(&dir);
    db.checkpoint(&dir).unwrap();
    let first_len = db.len();
    let want = probe(&mut db);
    let durable = std::fs::metadata(journal_path(&dir)).unwrap().len();

    // More work, a second checkpoint — then a crash that tears it.
    for key in (1..BASE_TUPLES).step_by(5) {
        db.apply(UpdateBatch::empty().delete(TupleKey(key))).unwrap();
    }
    db.checkpoint(&dir).unwrap();
    drop(db);
    let full = std::fs::metadata(journal_path(&dir)).unwrap().len();
    assert!(full > durable, "second checkpoint must append");
    let torn = durable + (full - durable) / 2;
    let f = std::fs::OpenOptions::new().write(true).open(journal_path(&dir)).unwrap();
    f.set_len(torn).unwrap();
    drop(f);

    let mut reopened = HiddenDatabase::open_persistent(&dir).unwrap();
    reopened.set_memo_capacity(0);
    assert_eq!(reopened.len(), first_len, "must fall back to the first checkpoint");
    assert_eq!(probe(&mut reopened), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_or_missing_journal_is_not_found() {
    let dir = scratch_dir("missing");
    let _ = std::fs::remove_dir_all(&dir);
    let not_found = |dir: &Path| HiddenDatabase::open_persistent(dir).unwrap_err().kind();
    assert_eq!(not_found(&dir), std::io::ErrorKind::NotFound, "no directory");
    std::fs::create_dir_all(&dir).unwrap();
    assert_eq!(not_found(&dir), std::io::ErrorKind::NotFound, "no journal");
    std::fs::write(journal_path(&dir), b"").unwrap();
    assert_eq!(not_found(&dir), std::io::ErrorKind::NotFound, "an empty journal");
    let _ = std::fs::remove_dir_all(&dir);
}
