//! Shared database service: epoch-published snapshots, a writer lock,
//! and per-session handles.
//!
//! [`DbService`] wraps one [`HiddenDatabase`] (the *writer copy*) and
//! publishes immutable [`DbSnapshot`]s of it. Any number of
//! [`ServiceSession`]s — each a [`SearchBackend`] with its own budget
//! and counters — read a pinned snapshot; [`DbService::apply`] applies a
//! batch under the writer lock and publishes the new epoch before it
//! releases the lock.
//!
//! Each snapshot caches answers in a query memo of its own, shared by
//! every session pinned to it, through the same lookup and admission as
//! the private database's memo. The snapshot's rows never change, so its
//! memo is never patched; it starts empty at publish and is dropped with
//! the snapshot, so an entry never crosses epochs or services.
//!
//! A panic never takes the service down for its readers. The published
//! snapshot's lock only ever holds a complete snapshot, so a poisoned
//! one is read through. A poisoned writer lock means an apply panicked
//! midway and may have left the writer copy half-changed: the service
//! then refuses every later [`DbService::apply`] and
//! [`DbService::checkpoint`] with an error, and keeps serving the last
//! snapshot it published.
//!
//! The contract that makes this safe to hand to estimators: a session
//! pinned to epoch `E` produces answers **bit-identical** to a private
//! [`HiddenDatabase`] frozen at `E`, at any thread count and any
//! interleaving with concurrent writers. Snapshots share segment data
//! and bitmap blocks with the writer via `Arc` copy-on-write, so
//! publication is O(segments) pointer copies, not a data copy, and sorts
//! nothing.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::budget::QueryBudget;
use crate::database::{evaluate_query, HiddenDatabase};
use crate::errors::{DbError, IssueError};
use crate::index::BitmapIndex;
use crate::interface::{Answer, QueryOutcome, Read};
use crate::memo::QueryMemo;
use crate::query::ConjunctiveQuery;
use crate::schema::Schema;
use crate::session::SearchBackend;
use crate::stats::{EvalStats, InterfaceStats, SharedMemoStats};
use crate::store::StoreCore;
use crate::updates::{UpdateBatch, UpdateSummary};

/// Always ignored: the store keeps no score bounds, so there is no
/// maintenance to trigger. Kept only because the benchmark in
/// `trackbench/` passes it to [`DbService::with_auto_maintain`]; a later
/// change to the benchmark removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AutoMaintain {
    /// Ignored.
    #[default]
    Off,
    /// Ignored.
    Pressure {
        /// Ignored.
        threshold: u32,
    },
}

/// An immutable, self-contained copy of the database at one epoch, with
/// the answers its sessions have cached.
///
/// Shares segment rows and bitmap blocks with the writer via `Arc` —
/// cloning the writer's [`StoreCore`] and bitmap index bumps one
/// refcount per segment each; the writer un-shares lazily, segment by
/// segment, the first time it mutates one after a publish. The bitmaps
/// are always exact, so evaluation here needs only `&self`.
pub struct DbSnapshot {
    schema: Schema,
    store: StoreCore,
    index: BitmapIndex,
    k: usize,
    epoch: u64,
    /// Answers cached by the sessions pinned to this snapshot. Locked
    /// only to look up and to admit, never while evaluating.
    memo: Mutex<QueryMemo>,
}

impl DbSnapshot {
    fn capture(db: &HiddenDatabase) -> Self {
        let (schema, store, index, k, epoch) = db.snapshot_parts();
        let mut memo = QueryMemo::default();
        memo.set_capacity(db.memo_capacity());
        Self { schema, store, index, k, epoch, memo: Mutex::new(memo) }
    }

    /// The epoch (writer data version) this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The interface's page size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `|D|` at this epoch: number of alive tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the snapshot holds no alive tuples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The snapshot's memo, locked. A session that panicked while holding
    /// the lock may have left the memo half-updated. The memo is only a
    /// cache, and `clear` leaves it empty and valid whatever the panic
    /// interrupted, so this clears it and the lock's poison: later
    /// sessions on this snapshot evaluate afresh instead of panicking.
    fn memo(&self) -> MutexGuard<'_, QueryMemo> {
        self.memo.lock().unwrap_or_else(|poisoned| {
            let mut memo = poisoned.into_inner();
            memo.clear();
            self.memo.clear_poison();
            memo
        })
    }
}

/// Service-level counters (all monotonic, `Relaxed` — they are
/// diagnostics, not synchronization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Update batches passed to [`DbService::apply`], applied or refused.
    pub batches_applied: u64,
    /// Snapshot publications: one per apply that changed the data.
    pub epochs_published: u64,
    /// Always 0, like [`AutoMaintain`], which it counted (read by the
    /// benchmark; a later change to the benchmark removes it).
    pub auto_maintain_runs: u64,
}

struct ServiceInner {
    /// The writer copy. Only `apply` and `checkpoint` take this lock.
    writer: Mutex<HiddenDatabase>,
    /// The latest published snapshot. Readers clone the `Arc` and drop
    /// the lock immediately; sessions never touch this again after
    /// pinning.
    published: RwLock<Arc<DbSnapshot>>,
    batches_applied: AtomicU64,
    epochs_published: AtomicU64,
    /// Snapshot-memo lookups served from cache, across all sessions.
    memo_hits: AtomicU64,
    /// Snapshot-memo lookups that evaluated.
    memo_misses: AtomicU64,
    /// Entries admitted into snapshot memos.
    memo_insertions: AtomicU64,
    /// Entries held by superseded snapshots' memos when the next epoch
    /// was published.
    memo_retired: AtomicU64,
}

impl ServiceInner {
    /// Publishes `db`'s state as the latest snapshot. The caller holds
    /// the writer lock, so epochs publish in order.
    fn publish(&self, db: &HiddenDatabase) {
        let snap = Arc::new(DbSnapshot::capture(db));
        let mut published = self.published.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *published, snap);
        drop(published);
        self.memo_retired.fetch_add(old.memo().len() as u64, Ordering::Relaxed);
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
    }

    /// The writer copy, locked, or `None` once an apply panicked while it
    /// held the lock.
    fn writer(&self) -> Option<MutexGuard<'_, HiddenDatabase>> {
        self.writer.lock().ok()
    }
}

/// Handle to the shared service. Cheap to clone; all clones share the
/// writer and the published snapshot.
#[derive(Clone)]
pub struct DbService {
    inner: Arc<ServiceInner>,
}

impl DbService {
    /// Wraps a database and publishes its current state as epoch 0's
    /// snapshot (or whatever `db.version()` currently is).
    pub fn new(db: HiddenDatabase) -> Self {
        let first = Arc::new(DbSnapshot::capture(&db));
        Self {
            inner: Arc::new(ServiceInner {
                writer: Mutex::new(db),
                published: RwLock::new(first),
                batches_applied: AtomicU64::new(0),
                epochs_published: AtomicU64::new(0),
                memo_hits: AtomicU64::new(0),
                memo_misses: AtomicU64::new(0),
                memo_insertions: AtomicU64::new(0),
                memo_retired: AtomicU64::new(0),
            }),
        }
    }

    /// [`DbService::new`], ignoring the [`AutoMaintain`]. Kept only
    /// because the benchmark in `trackbench/` calls it; a later change to
    /// the benchmark removes it.
    pub fn with_auto_maintain(db: HiddenDatabase, _auto: AutoMaintain) -> Self {
        Self::new(db)
    }

    /// The latest published snapshot. A poisoned lock is read through:
    /// it only ever holds a complete snapshot.
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        self.inner.published.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Opens a session pinned to the latest snapshot, with a budget of
    /// `g` queries.
    pub fn session(&self, g: u64) -> ServiceSession {
        self.session_at(self.snapshot(), g)
    }

    /// Opens a session pinned to an explicit snapshot — e.g. one
    /// captured before a round of churn, so a long-running estimator
    /// keeps reading the epoch it started on.
    pub fn session_at(&self, snap: Arc<DbSnapshot>, g: u64) -> ServiceSession {
        ServiceSession {
            snap,
            inner: Arc::clone(&self.inner),
            budget: QueryBudget::new(g),
            stats: InterfaceStats::default(),
            eval_stats: EvalStats::default(),
        }
    }

    /// Applies a batch under the writer lock, with the semantics of
    /// [`HiddenDatabase::apply`]. If the batch changed the data (a
    /// refused batch may have applied a prefix), the new epoch is
    /// published before the lock is released, so on return the
    /// published snapshot includes this batch. A batch that changed
    /// nothing keeps the current snapshot and its cached answers.
    ///
    /// Refuses every batch with [`DbError::WriterPoisoned`] once an
    /// earlier apply panicked under the writer lock.
    pub fn apply(&self, batch: UpdateBatch) -> Result<UpdateSummary, DbError> {
        self.inner.batches_applied.fetch_add(1, Ordering::Relaxed);
        let mut db = self.inner.writer().ok_or(DbError::WriterPoisoned)?;
        let version = db.version();
        let result = db.apply(batch);
        if db.version() != version {
            self.inner.publish(&db);
        }
        result
    }

    /// Reopens a service from the checkpoint journal in `dir`
    /// ([`HiddenDatabase::open_persistent`]): the last durable checkpoint
    /// becomes the writer copy and is published as the first snapshot.
    /// The warm-restart path for a long-running experiment host.
    pub fn open_persistent(dir: &Path) -> std::io::Result<Self> {
        Ok(Self::new(HiddenDatabase::open_persistent(dir)?))
    }

    /// Checkpoints the writer's current (fully applied) state to the
    /// journal in `dir` ([`HiddenDatabase::checkpoint`]). Takes the
    /// writer lock, so the record is a consistent cut: every batch whose
    /// `apply` returned before this call is durable, and no torn batch
    /// ever is. Errors with [`std::io::ErrorKind::Other`] once an earlier
    /// apply panicked under the writer lock: the writer copy may be
    /// half-changed.
    pub fn checkpoint(&self, dir: &Path) -> std::io::Result<()> {
        match self.inner.writer() {
            Some(db) => db.checkpoint(dir),
            None => Err(std::io::Error::other(DbError::WriterPoisoned)),
        }
    }

    /// Snapshot-memo counters, summed over every session and snapshot of
    /// this service.
    pub fn memo_stats(&self) -> SharedMemoStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        SharedMemoStats {
            hits: load(&self.inner.memo_hits),
            misses: load(&self.inner.memo_misses),
            insertions: load(&self.inner.memo_insertions),
            retired: load(&self.inner.memo_retired),
        }
    }

    /// Service-level counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            batches_applied: self.inner.batches_applied.load(Ordering::Relaxed),
            epochs_published: self.inner.epochs_published.load(Ordering::Relaxed),
            auto_maintain_runs: 0,
        }
    }
}

/// A per-round, per-client session over a pinned [`DbSnapshot`].
///
/// Owns its budget and counters (no cross-charging between concurrent
/// sessions) and shares only the immutable snapshot, with its memo — so
/// it is `Send` and can be moved into a worker thread.
pub struct ServiceSession {
    snap: Arc<DbSnapshot>,
    inner: Arc<ServiceInner>,
    budget: QueryBudget,
    stats: InterfaceStats,
    eval_stats: EvalStats,
}

impl ServiceSession {
    /// The epoch this session is pinned to.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<DbSnapshot> {
        &self.snap
    }

    /// The budget state.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// This session's interface counters (answered/classes/cache hits).
    pub fn stats(&self) -> InterfaceStats {
        self.stats
    }

    /// This session's evaluation counters. Memo hits (shared across
    /// sessions) skip evaluation, so these depend on what *other*
    /// sessions have already cached — unlike outcomes, which never do.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats
    }

    /// The one read path behind the three `SearchBackend` reads.
    fn read(&mut self, query: &ConjunctiveQuery, read: Read) -> Result<Answer, IssueError> {
        // Validate, then charge, exactly like `SearchSession` — budget
        // accounting must be bit-identical to the private path.
        query.validate(self.snap.schema()).map_err(|_| IssueError::InvalidQuery)?;
        self.budget.charge()?;
        let snap = &*self.snap;
        let hash = QueryMemo::hash_of(query);
        let hit = snap.memo().hit(hash, query, &snap.store, snap.k, read);
        let cached = hit.is_some();
        let out = match hit {
            Some(out) => {
                self.inner.memo_hits.fetch_add(1, Ordering::Relaxed);
                out
            }
            None => {
                self.inner.memo_misses.fetch_add(1, Ordering::Relaxed);
                // Evaluate outside the lock: other sessions keep reading.
                let (store, index) = (&snap.store, &snap.index);
                let mut eval =
                    evaluate_query(query, store, index, snap.k, read, &mut self.eval_stats);
                let out = eval.answer(store, read);
                if snap.memo().admit(hash, query, eval) {
                    self.inner.memo_insertions.fetch_add(1, Ordering::Relaxed);
                }
                out
            }
        };
        self.stats.count_answer(&out, read, cached);
        Ok(out)
    }
}

impl SearchBackend for ServiceSession {
    fn schema(&self) -> &Schema {
        self.snap.schema()
    }

    fn k(&self) -> usize {
        self.snap.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        Ok(self.read(query, Read::Page)?.outcome().expect("a page read is answered in full"))
    }

    fn issue_unless_overflow(
        &mut self,
        query: &ConjunctiveQuery,
    ) -> Result<Option<QueryOutcome>, IssueError> {
        Ok(self.read(query, Read::Class)?.outcome())
    }

    fn issue_count(&mut self, query: &ConjunctiveQuery) -> Result<Option<usize>, IssueError> {
        Ok(self.read(query, Read::Count)?.count())
    }

    fn remaining(&self) -> u64 {
        self.budget.remaining()
    }

    fn spent(&self) -> u64 {
        self.budget.spent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::ScoringPolicy;
    use crate::session::SearchSession;
    use crate::tuple::Tuple;
    use crate::value::{TupleKey, ValueId};

    fn seed_db(n: u64) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[4, 3], &["m"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 5, ScoringPolicy::default());
        for key in 0..n {
            db.insert(Tuple::new(
                TupleKey(key),
                vec![ValueId((key % 4) as u32), ValueId((key % 3) as u32)],
                vec![key as f64],
            ))
            .unwrap();
        }
        db
    }

    fn queries(schema: &Schema) -> Vec<ConjunctiveQuery> {
        let mut qs = vec![ConjunctiveQuery::select_all()];
        for a in 0..schema.attr_count() {
            let attr = crate::value::AttrId(a as u16);
            for v in 0..schema.domain_size(attr) {
                qs.push(ConjunctiveQuery::select_all().with(attr, ValueId(v)));
            }
        }
        qs
    }

    #[test]
    fn snapshot_answers_match_private_database() {
        let db = seed_db(200);
        let mut private = db.clone();
        let service = DbService::new(db);
        let mut session = service.session(u64::MAX);
        for q in queries(session.schema()) {
            assert_eq!(session.issue(&q).unwrap(), private.answer(&q));
        }
    }

    #[test]
    fn sessions_pin_epochs_across_churn() {
        let db = seed_db(100);
        let reference = db.clone();
        let service = DbService::new(db);
        let snap0 = service.snapshot();
        let epoch0 = snap0.epoch();

        // Churn: delete a third of the tuples and add replacements.
        let mut batch = UpdateBatch::default();
        for key in (0..100).step_by(3) {
            batch.deletes.push(TupleKey(key));
        }
        for key in 200..230 {
            batch.inserts.push(Tuple::new(
                TupleKey(key),
                vec![ValueId((key % 4) as u32), ValueId((key % 3) as u32)],
                vec![key as f64],
            ));
        }
        let summary = service.apply(batch).unwrap();
        assert_eq!(summary.deleted, 34);
        assert_eq!(summary.inserted, 30);
        assert!(service.epoch() > epoch0, "apply must publish a new epoch");

        // A session pinned to epoch 0 still sees the pre-churn world...
        let mut old = service.session_at(snap0, u64::MAX);
        let mut frozen = reference.clone();
        let qs = queries(reference.schema());
        for q in &qs {
            assert_eq!(old.issue(q).unwrap(), frozen.answer(q));
        }
        // ...while a fresh session sees the post-churn world.
        let fresh = service.session(u64::MAX);
        assert_eq!(fresh.snapshot().len(), 100 - 34 + 30);
    }

    #[test]
    fn service_session_matches_search_session_budgeting() {
        let db = seed_db(50);
        let mut private = db.clone();
        let service = DbService::new(db);
        let mut svc = service.session(3);
        let mut classic = SearchSession::new(&mut private, 3);
        let root = ConjunctiveQuery::select_all();
        for _ in 0..3 {
            assert_eq!(svc.issue(&root).unwrap(), classic.issue(&root).unwrap());
            assert_eq!(svc.remaining(), classic.remaining());
            assert_eq!(svc.spent(), classic.spent());
        }
        assert!(svc.issue(&root).unwrap_err().is_budget());
        assert!(classic.issue(&root).unwrap_err().is_budget());
    }

    #[test]
    fn an_out_of_domain_query_is_refused_without_charge() {
        use crate::query::Predicate;
        use crate::value::AttrId;
        let service = DbService::new(seed_db(50));
        let mut s = service.session(2);
        let bad = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(99))]);
        assert_eq!(s.issue(&bad).unwrap_err(), IssueError::InvalidQuery);
        assert_eq!(s.spent(), 0, "nothing charged");
        let good = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        assert!(s.issue(&good).unwrap().is_overflow());
        assert_eq!(s.spent(), 1);
    }

    #[test]
    fn shared_memo_serves_repeat_queries_across_sessions() {
        let db = seed_db(80);
        let service = DbService::new(db);
        let root = ConjunctiveQuery::select_all();
        let mut a = service.session(10);
        let mut b = service.session(10);
        let out_a = a.issue(&root).unwrap();
        let out_b = b.issue(&root).unwrap();
        assert_eq!(out_a, out_b);
        let memo = service.memo_stats();
        assert_eq!(memo.misses, 1, "first lookup misses");
        assert_eq!(memo.hits, 1, "second session hits the shared entry");
        assert_eq!(a.stats().cache_hits, 0);
        assert_eq!(b.stats().cache_hits, 1);
        // Budgets are private: each session paid for its own query.
        assert_eq!(a.spent(), 1);
        assert_eq!(b.spent(), 1);
    }

    #[test]
    fn concurrent_sessions_under_churn_stay_bit_identical() {
        let db = seed_db(256);
        let reference = db.clone();
        let service = DbService::new(db);
        let snap0 = service.snapshot();
        let qs = queries(snap0.schema());

        // Expected outcomes from a private database frozen at epoch 0.
        let mut frozen = reference.clone();
        let expected: Vec<QueryOutcome> = qs.iter().map(|q| frozen.answer(q)).collect();

        std::thread::scope(|scope| {
            // A writer thread churning the service the whole time.
            let svc = service.clone();
            scope.spawn(move || {
                for round in 0u64..20 {
                    let mut batch = UpdateBatch::default();
                    batch.deletes.push(TupleKey(round * 7 % 256));
                    batch.inserts.push(Tuple::new(
                        TupleKey(1000 + round),
                        vec![ValueId((round % 4) as u32), ValueId((round % 3) as u32)],
                        vec![round as f64],
                    ));
                    svc.apply(batch).unwrap();
                }
            });
            for t in 0..4 {
                let svc = service.clone();
                let snap = Arc::clone(&snap0);
                let qs = &qs;
                let expected = &expected;
                scope.spawn(move || {
                    let mut session = svc.session_at(snap, u64::MAX);
                    // Rotate the order per thread: outcomes must not
                    // depend on issue order or interleaving.
                    for i in 0..qs.len() {
                        let j = (i + t) % qs.len();
                        assert_eq!(session.issue(&qs[j]).unwrap(), expected[j]);
                    }
                });
            }
        });
    }

    /// Warm restart through the service. A checkpoint into a directory
    /// that does not exist yet creates it, and the service reopened from
    /// its journal serves the same answers and evolves like a twin that
    /// never restarted: one batch of deletes that free slots and inserts
    /// that refill them gives the same summary, the same answers by page,
    /// class and count through a session, and the same slot for every
    /// alive key.
    #[test]
    fn service_checkpoint_and_reopen() {
        let root =
            std::env::temp_dir().join(format!("hidden-db-service-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("nested").join("journal");
        let tuple = |key: u64| {
            let values = vec![ValueId((key % 4) as u32), ValueId((key % 3) as u32)];
            Tuple::new(TupleKey(key), values, vec![key as f64])
        };

        let twin = DbService::new(seed_db(0));
        let mut batch = UpdateBatch::empty();
        for key in 0..500u64 {
            batch = batch.insert(tuple(key));
        }
        twin.apply(batch).unwrap();
        twin.checkpoint(&dir).unwrap();

        let qs = queries(twin.snapshot().schema());
        let mut session = twin.session(u64::MAX);
        let expected: Vec<_> = qs.iter().map(|q| session.issue(q).unwrap()).collect();
        let reopened = DbService::open_persistent(&dir).unwrap();
        let mut session = reopened.session(u64::MAX);
        assert_eq!(session.snapshot().len(), 500);
        for (q, want) in qs.iter().zip(&expected) {
            assert_eq!(session.issue(q).unwrap(), *want, "query {q}");
        }

        let mut batch = UpdateBatch::empty();
        for key in (0..500u64).step_by(7) {
            batch = batch.delete(TupleKey(key));
        }
        for key in 500..560u64 {
            batch = batch.insert(tuple(key));
        }
        let summary = reopened.apply(batch.clone()).unwrap();
        assert_eq!(summary, twin.apply(batch).unwrap());
        assert_eq!(summary.deleted, 72);
        let (mut got, mut want) = (reopened.session(u64::MAX), twin.session(u64::MAX));
        for q in &qs {
            assert_eq!(got.issue(q).unwrap(), want.issue(q).unwrap(), "query {q}");
            assert_eq!(got.issue_unless_overflow(q), want.issue_unless_overflow(q), "query {q}");
            assert_eq!(got.issue_count(q), want.issue_count(q), "query {q}");
        }
        let (got, want) = (reopened.inner.writer().unwrap(), twin.inner.writer().unwrap());
        let alive = want.alive_keys_sorted();
        assert_eq!(got.alive_keys_sorted(), alive);
        for key in alive {
            assert_eq!(got.store_ref().slot_of(key), want.store_ref().slot_of(key), "{key}");
        }
        drop((got, want));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A three-tuple database at epoch 3 whose values and measures all
    /// equal `value`.
    fn three_tuples(value: u32) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[4, 3], &["m"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 5, ScoringPolicy::default());
        for key in 0..3 {
            db.insert(Tuple::new(
                TupleKey(key),
                vec![ValueId(value), ValueId(value)],
                vec![f64::from(value)],
            ))
            .unwrap();
        }
        db
    }

    /// Entries belong to their snapshot, not to a `(service, epoch)`
    /// pair: a session of service A pinned to service B's snapshot at
    /// the same epoch reads B's rows, however warm A's memo is.
    #[test]
    fn a_foreign_snapshot_is_answered_from_its_own_data() {
        let (a, b) = (DbService::new(three_tuples(1)), DbService::new(three_tuples(2)));
        assert_eq!((a.epoch(), b.epoch()), (3, 3));
        let root = ConjunctiveQuery::select_all();
        let warm = a.session(10).issue(&root).unwrap();
        assert_eq!(a.session(10).issue(&root).unwrap(), warm);
        assert_eq!(a.memo_stats().hits, 1, "A's root is cached");

        let want = three_tuples(2).answer(&root);
        assert_ne!(want, warm);
        assert_eq!(a.session_at(b.snapshot(), 10).issue(&root).unwrap(), want);
    }

    /// Churn that deletes tuple `round` and inserts a replacement.
    fn churn(round: u64) -> UpdateBatch {
        UpdateBatch::empty().delete(TupleKey(round)).insert(Tuple::new(
            TupleKey(1_000 + round),
            vec![ValueId(0), ValueId(0)],
            vec![0.0],
        ))
    }

    #[test]
    fn each_snapshot_keeps_its_own_memo_until_it_is_dropped() {
        let service = DbService::new(seed_db(60));
        let qs = queries(service.snapshot().schema());
        let old = service.snapshot();
        for q in &qs {
            service.session(u64::MAX).issue(q).unwrap();
        }
        let cached = qs.len() as u64;
        assert_eq!(service.memo_stats().insertions, cached);
        service.apply(churn(0)).unwrap();
        service.apply(churn(1)).unwrap();
        assert_eq!(service.memo_stats().retired, cached, "the first epoch's entries retired");

        // The pinned session still hits the superseded snapshot's memo…
        let mut pinned = service.session_at(Arc::clone(&old), u64::MAX);
        for q in &qs {
            pinned.issue(q).unwrap();
        }
        assert_eq!(pinned.stats().cache_hits, cached);
        assert_eq!(pinned.eval_stats(), EvalStats::default(), "nothing evaluated");
        // …while the first session on the new epoch misses.
        let mut fresh = service.session(u64::MAX);
        fresh.issue(&qs[0]).unwrap();
        assert_eq!(fresh.stats().cache_hits, 0);
        assert_eq!(service.memo_stats().insertions, cached + 1);
    }

    #[test]
    fn a_batch_that_changes_nothing_keeps_the_snapshot_and_its_memo() {
        let service = DbService::new(seed_db(40));
        let root = ConjunctiveQuery::select_all();
        service.session(1).issue(&root).unwrap();
        let (snap, published) = (service.snapshot(), service.stats().epochs_published);

        assert_eq!(service.apply(UpdateBatch::empty()), Ok(UpdateSummary::default()));
        let refused = UpdateBatch::empty().delete(TupleKey(999)).delete(TupleKey(0));
        assert_eq!(service.apply(refused), Err(DbError::UnknownKey(TupleKey(999))));
        assert_eq!(service.stats().epochs_published, published, "no epoch published");
        assert_eq!(service.stats().batches_applied, 2);
        assert!(Arc::ptr_eq(&service.snapshot(), &snap));

        let mut next = service.session(1);
        next.issue(&root).unwrap();
        assert_eq!(next.stats().cache_hits, 1, "the memo stayed warm");
    }

    #[test]
    fn a_memo_off_writer_publishes_memo_off_snapshots() {
        let mut db = seed_db(20);
        db.set_memo_capacity(0);
        let service = DbService::new(db);
        let root = ConjunctiveQuery::select_all();
        let mut session = service.session(2);
        assert_eq!(session.issue(&root).unwrap(), session.issue(&root).unwrap());
        assert_eq!(session.stats().cache_hits, 0);
        assert_eq!(service.memo_stats().insertions, 0);
    }

    /// A session that panics while it holds the snapshot's memo does not
    /// take the snapshot down: the next session finds the memo emptied,
    /// answers as the frozen database does, and caches each answer again.
    #[test]
    fn a_panic_while_holding_the_snapshot_memo_does_not_kill_the_snapshot() {
        let db = seed_db(120);
        let mut frozen = db.clone();
        let service = DbService::new(db);
        let snap = service.snapshot();
        let qs = queries(snap.schema());
        let mut warm = service.session_at(Arc::clone(&snap), u64::MAX);
        for q in &qs {
            warm.issue(q).unwrap();
        }
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _memo = snap.memo();
                panic!("a lookup failed while holding the snapshot memo");
            });
            assert!(holder.join().is_err());
        });
        assert!(snap.memo.is_poisoned());

        let admitted = service.memo_stats().insertions;
        let mut session = service.session_at(Arc::clone(&snap), u64::MAX);
        for q in &qs {
            assert_eq!(session.issue(q).unwrap(), frozen.answer(q), "query {q}");
        }
        assert!(!snap.memo.is_poisoned());
        assert_eq!(session.stats().cache_hits, 0, "the memo was emptied");
        assert_eq!(service.memo_stats().insertions, admitted + qs.len() as u64);
    }

    /// An apply that panics under the writer lock does not take the
    /// service down: later applies and checkpoints are refused with an
    /// error, and the last published snapshot keeps answering as the
    /// database frozen at its epoch.
    #[test]
    fn a_poisoned_writer_refuses_writes_and_keeps_serving_reads() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir =
            std::env::temp_dir().join(format!("hidden-db-service-poisoned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut frozen = seed_db(90);
        let service = DbService::new(seed_db(90));
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _writer = service.inner.writer.lock().unwrap();
            panic!("an apply panicked while holding the writer");
        }));
        assert!(panicked.is_err() && service.inner.writer.is_poisoned());

        let (epoch, published) = (service.epoch(), service.stats().epochs_published);
        assert_eq!(service.apply(churn(0)), Err(DbError::WriterPoisoned));
        let refused = service.checkpoint(&dir).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::Other);
        assert!(!dir.exists(), "a refused checkpoint writes nothing");
        assert_eq!((service.epoch(), service.stats().epochs_published), (epoch, published));
        let mut session = service.session(u64::MAX);
        for q in queries(session.schema()) {
            let (got, want) = (session.issue(&q).unwrap(), frozen.answer(&q));
            assert_eq!(got, want, "query {q}");
            let bits = |out: &QueryOutcome| -> Vec<u64> {
                out.tuples().flat_map(|t| t.measures().iter().map(|m| m.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "query {q}");
            assert_eq!(session.issue_count(&q).unwrap(), frozen.answer_count(&q), "query {q}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two sessions of one snapshot may miss on the same query together;
    /// the second admission finds the first one's entry and adds nothing.
    #[test]
    fn admitting_a_query_twice_keeps_one_entry() {
        let service = DbService::new(seed_db(30));
        let snap = service.snapshot();
        let probe = ConjunctiveQuery::select_all().with(crate::value::AttrId(0), ValueId(1));
        for q in [ConjunctiveQuery::select_all(), probe] {
            let hash = QueryMemo::hash_of(&q);
            let mut eval = EvalStats::default();
            let evals: Vec<_> = (0..2)
                .map(|_| {
                    evaluate_query(&q, &snap.store, &snap.index, snap.k, Read::Page, &mut eval)
                })
                .collect();
            let admitted: Vec<bool> =
                evals.into_iter().map(|e| snap.memo().admit(hash, &q, e)).collect();
            assert_eq!(admitted, vec![true, false], "{q}");
        }
        assert_eq!(snap.memo().len(), 2);
    }
}
