//! Out-of-core oracle for the PR 9 persistence tier: a database whose
//! segments page between memory and a region file under a resident
//! budget **smaller than the segment count** must produce answers
//! bit-identical to the naive scan of an all-RAM database
//! ([`HiddenDatabase::exact_answer`]) — under both ranking families,
//! arbitrary batch/query interleavings (including mid-way-failing
//! batches), and with the resident high-water mark pinned to the budget.
//!
//! Also the crash-recovery contract: `open_persistent` recovers the
//! last *durable* checkpoint from the journal, discarding any torn
//! tail a crash mid-append left behind — a truncated record, a record
//! with a corrupt checksum, or trailing garbage bytes.

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use hidden_db::{PersistConfig, SEGMENT_SLOTS};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const DOMAINS: [u32; 2] = [3, 4];
/// Three segments of base tuples, paged under a budget of two: every
/// full evaluation must fault at least one segment back in.
const BASE_TUPLES: u64 = 2 * SEGMENT_SLOTS as u64 + 700;
const BUDGET: usize = 2;

/// A unique scratch directory per paged database; torn down per case.
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

fn fresh_db(k: usize, scoring: ScoringPolicy, persist: Option<&PersistConfig>) -> HiddenDatabase {
    let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let mut db = HiddenDatabase::new(schema, k, scoring);
    db.set_memo_capacity(0);
    if let Some(cfg) = persist {
        // Attached *before* the base build so the build itself pages:
        // the bounded-residency promise covers construction, not just
        // steady state.
        db.enable_persist(cfg).unwrap();
    }
    for t in 0..BASE_TUPLES {
        db.insert(base_tuple(t)).unwrap();
    }
    db
}

/// One step of the interleaving (same shape as the memo oracle's).
#[derive(Debug, Clone)]
enum Step {
    Batch {
        delete_picks: Vec<usize>,
        update_picks: Vec<(usize, i32)>,
        inserts: Vec<(u32, u32, i32)>,
        poison: bool,
    },
    Query {
        a0: Option<u32>,
        a1: Option<u32>,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let batch = (
        prop::collection::vec(0..8192usize, 0..4),
        prop::collection::vec((0..8192usize, -4..4i32), 0..3),
        prop::collection::vec((0..DOMAINS[0], 0..DOMAINS[1], -4..4i32), 0..4),
        (0..6u32).prop_map(|v| v == 0),
    )
        .prop_map(|(delete_picks, update_picks, inserts, poison)| Step::Batch {
            delete_picks,
            update_picks,
            inserts,
            poison,
        });
    let query = (0..DOMAINS[0] + 1, 0..DOMAINS[1] + 1).prop_map(|(a0, a1)| Step::Query {
        a0: (a0 < DOMAINS[0]).then_some(a0),
        a1: (a1 < DOMAINS[1]).then_some(a1),
    });
    prop_oneof![2 => batch, 3 => query]
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

fn build_batch(
    reference: &HiddenDatabase,
    next_key: &mut u64,
    delete_picks: &[usize],
    update_picks: &[(usize, i32)],
    inserts: &[(u32, u32, i32)],
    poison: bool,
) -> UpdateBatch {
    let alive = reference.alive_keys_sorted();
    let mut batch = UpdateBatch::empty();
    for (i, &pick) in delete_picks.iter().enumerate() {
        if poison && i == delete_picks.len() / 2 {
            batch = batch.delete(TupleKey(u64::MAX));
        }
        if !alive.is_empty() {
            batch = batch.delete(alive[pick % alive.len()]);
        }
    }
    if poison && delete_picks.is_empty() {
        batch = batch.delete(TupleKey(u64::MAX));
    }
    for &(pick, m) in update_picks {
        if !alive.is_empty() {
            batch = batch.update_measures(alive[pick % alive.len()], vec![m as f64]);
        }
    }
    for &(a0, a1, m) in inserts {
        let key = *next_key;
        *next_key += 1;
        batch =
            batch.insert(Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![m as f64]));
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn paged_databases_are_bit_identical_to_in_ram(
        steps in prop::collection::vec(step_strategy(), 1..24),
        k in 1..5usize,
        newest_first in any::<bool>(),
    ) {
        let scoring = if newest_first {
            ScoringPolicy::NewestFirst
        } else {
            // Tiny measure domain: heavy score ties, so slot tie-breaks
            // decide pages — the regime where a pager that perturbed
            // slot assignment would diverge first.
            ScoringPolicy::ByMeasureDesc(MeasureId(0))
        };
        let oracle = &mut fresh_db(k, scoring, None);
        let dir = scratch_dir("paged");
        let paged = &mut fresh_db(k, scoring, Some(&PersistConfig::new(dir.clone(), BUDGET)));
        let mut next_key = BASE_TUPLES;
        for step in &steps {
            match step {
                Step::Batch { delete_picks, update_picks, inserts, poison } => {
                    let batch = build_batch(
                        oracle, &mut next_key, delete_picks, update_picks, inserts, *poison,
                    );
                    let want = oracle.apply(batch.clone());
                    let got = paged.apply(batch);
                    prop_assert_eq!(got.is_ok(), want.is_ok(), "apply diverged");
                    if let (Ok(g), Ok(w)) = (&got, &want) {
                        prop_assert_eq!(g, w, "summary diverged");
                    }
                    prop_assert_eq!(paged.len(), oracle.len(), "|D| diverged");
                }
                Step::Query { a0, a1 } => {
                    let query = build_query(*a0, *a1);
                    let want = oracle.exact_answer(&query);
                    let got = paged.answer(&query);
                    prop_assert_eq!(&got, &want, "diverged on {}", &query);
                    for (gt, wt) in got.tuples().zip(want.tuples()) {
                        prop_assert_eq!(gt.key(), wt.key());
                        prop_assert_eq!(gt.values(), wt.values());
                        for (gm, wm) in gt.measures().iter().zip(wt.measures()) {
                            prop_assert_eq!(gm.to_bits(), wm.to_bits());
                        }
                    }
                }
            }
        }
        // End-state parity and the resident-memory promise.
        prop_assert_eq!(paged.alive_keys_sorted(), oracle.alive_keys_sorted());
        prop_assert_eq!(paged.exact_count(None), oracle.exact_count(None));
        let stats = paged.persist_stats();
        prop_assert!(stats.segments_spilled > 0, "base build never spilled");
        prop_assert!(
            stats.peak_resident_segments <= BUDGET as u64,
            "peak residency {} exceeds budget {}",
            stats.peak_resident_segments, BUDGET
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----- crash recovery -----------------------------------------------------

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

fn crash_db(dir: &PathBuf) -> (PersistConfig, HiddenDatabase) {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = PersistConfig::new(dir.clone(), BUDGET);
    let db = fresh_db(3, ScoringPolicy::NewestFirst, Some(&cfg));
    (cfg, db)
}

fn journal_path(cfg: &PersistConfig) -> PathBuf {
    cfg.dir.join(hidden_db::persist::JOURNAL_FILE)
}

#[test]
fn torn_journal_tail_recovers_last_durable_checkpoint() {
    let dir = scratch_dir("torn-tail");
    let (cfg, mut db) = crash_db(&dir);
    for key in (0..BASE_TUPLES).step_by(17) {
        db.apply(UpdateBatch::empty().delete(TupleKey(key))).unwrap();
    }
    db.checkpoint().unwrap();
    let want_len = db.len();
    let want = probe(&mut db);
    drop(db);

    // A crash mid-append leaves a record header whose promised length
    // exceeds the bytes that made it to disk.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(journal_path(&cfg)).unwrap();
    f.write_all(b"HDBR").unwrap();
    f.write_all(&(1_000_000u64).to_le_bytes()).unwrap();
    f.write_all(&[0xAB; 100]).unwrap();
    drop(f);

    let mut reopened = HiddenDatabase::open_persistent(&cfg).unwrap();
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
    let (cfg, mut db) = crash_db(&dir);
    db.checkpoint().unwrap();
    let want = probe(&mut db);
    drop(db);

    // Trailing bytes that are not even a record header.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(journal_path(&cfg)).unwrap();
    f.write_all(&[0x5A; 37]).unwrap();
    drop(f);

    let mut reopened = HiddenDatabase::open_persistent(&cfg).unwrap();
    reopened.set_memo_capacity(0);
    assert_eq!(probe(&mut reopened), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_second_checkpoint_recovers_the_first() {
    let dir = scratch_dir("truncate-second");
    let (cfg, mut db) = crash_db(&dir);
    db.checkpoint().unwrap();
    let first_len = db.len();
    let want = probe(&mut db);
    let durable = std::fs::metadata(journal_path(&cfg)).unwrap().len();

    // More work, a second checkpoint — then a crash that tears it.
    for key in (1..BASE_TUPLES).step_by(5) {
        db.apply(UpdateBatch::empty().delete(TupleKey(key))).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    let full = std::fs::metadata(journal_path(&cfg)).unwrap().len();
    assert!(full > durable, "second checkpoint must append");
    let torn = durable + (full - durable) / 2;
    let f = std::fs::OpenOptions::new().write(true).open(journal_path(&cfg)).unwrap();
    f.set_len(torn).unwrap();
    drop(f);

    let mut reopened = HiddenDatabase::open_persistent(&cfg).unwrap();
    reopened.set_memo_capacity(0);
    assert_eq!(reopened.len(), first_len, "must fall back to the first checkpoint");
    assert_eq!(probe(&mut reopened), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_or_missing_journal_is_not_found() {
    let dir = scratch_dir("missing");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PersistConfig::new(dir.clone(), BUDGET);
    let err = HiddenDatabase::open_persistent(&cfg).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    let _ = std::fs::remove_dir_all(&dir);
}
