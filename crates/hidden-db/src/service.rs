//! Shared concurrent database service: epoch-published snapshots,
//! a single-writer apply queue, and per-session handles.
//!
//! [`DbService`] wraps one [`HiddenDatabase`] (the *writer copy*) and
//! publishes immutable [`DbSnapshot`]s of it. Any number of
//! [`ServiceSession`]s — each a [`SearchBackend`] with its own budget
//! and counters — read a pinned snapshot lock-free; mutations funnel
//! through a queue drained under the single writer lock, and each drain
//! publishes exactly one new epoch.
//!
//! The contract that makes this safe to hand to estimators: a session
//! pinned to epoch `E` produces answers **bit-identical** to a private
//! [`HiddenDatabase`] frozen at `E`, at any thread count and any
//! interleaving with concurrent writers. Snapshots share segment data
//! and bitmap blocks with the writer via `Arc` copy-on-write, so
//! publication is O(segments) pointer copies, not a data copy, and sorts
//! nothing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};

use crate::budget::QueryBudget;
use crate::database::{evaluate_query, HiddenDatabase};
use crate::errors::{DbError, IssueError};
use crate::index::BitmapIndex;
use crate::interface::QueryOutcome;
use crate::memo::{ConcurrentMemo, QueryMemo};
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

/// An immutable, self-contained copy of the database at one epoch.
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
}

impl DbSnapshot {
    fn capture(db: &HiddenDatabase) -> Self {
        let (schema, store, index, k, epoch) = db.snapshot_parts();
        Self { schema, store, index, k, epoch }
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

    /// Answers a search query against this frozen epoch. Unbudgeted and
    /// memo-free — sessions layer budget charging and the shared memo on
    /// top. Outcomes are bit-identical to a private [`HiddenDatabase`]
    /// frozen at the same epoch (eval-path outcome invariance: the
    /// top-`k` page is a pure function of the alive tuple set).
    ///
    /// # Panics
    /// If the query references attributes/values outside the schema —
    /// a caller bug, as in [`HiddenDatabase::answer`]. Sessions validate
    /// first and return [`IssueError::InvalidQuery`] instead.
    pub fn answer(&self, query: &ConjunctiveQuery, eval_stats: &mut EvalStats) -> QueryOutcome {
        query.validate(&self.schema).expect("search query must be valid for the schema");
        let mut eval = evaluate_query(query, &self.store, &self.index, self.k, eval_stats);
        eval.outcome(&self.store)
    }
}

/// A queued mutation plus the channel its result travels back on.
struct QueuedJob {
    batch: UpdateBatch,
    done: mpsc::Sender<Result<UpdateSummary, DbError>>,
}

/// Service-level counters (all monotonic, `Relaxed` — they are
/// diagnostics, not synchronization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Update batches applied through the writer queue.
    pub batches_applied: u64,
    /// Snapshot publications (one per non-empty drain).
    pub epochs_published: u64,
    /// Always 0, like [`AutoMaintain`], which it counted (read by the
    /// benchmark; a later change to the benchmark removes it).
    pub auto_maintain_runs: u64,
}

struct ServiceInner {
    /// The writer copy. Only the queue drainer and `checkpoint` take
    /// this lock.
    writer: Mutex<HiddenDatabase>,
    /// Pending mutations. Held only for push/pop — never while applying.
    queue: Mutex<VecDeque<QueuedJob>>,
    /// The latest published snapshot. Readers clone the `Arc` and drop
    /// the lock immediately; sessions never touch this again after
    /// pinning.
    published: RwLock<Arc<DbSnapshot>>,
    /// Shared across every session; entries keyed by `(epoch, query)`
    /// are immutable, so no invalidation is ever needed.
    memo: ConcurrentMemo,
    batches_applied: AtomicU64,
    epochs_published: AtomicU64,
}

impl ServiceInner {
    /// Drains every queued job under the writer lock, then publishes at
    /// most one new snapshot. Deadlock-free: the queue lock and writer
    /// lock are never held together, and results are sent *before*
    /// publication so a caller observing its result may still see the
    /// pre-drain snapshot briefly (epochs are monotonic; `apply` itself
    /// re-reads after the drain returns, by which point the publish —
    /// ours or a concurrent drainer's covering our job — has happened).
    fn drain_writer(&self) {
        let mut db = self.writer.lock().expect("writer lock poisoned");
        let mut applied = 0u64;
        loop {
            let job = self.queue.lock().expect("queue lock poisoned").pop_front();
            let Some(job) = job else { break };
            let result = db.apply(job.batch);
            applied += 1;
            // A dropped receiver just means the caller gave up waiting.
            let _ = job.done.send(result);
        }
        if applied == 0 {
            return;
        }
        self.batches_applied.fetch_add(applied, Ordering::Relaxed);
        self.publish(&db);
    }

    fn publish(&self, db: &HiddenDatabase) {
        let snap = Arc::new(DbSnapshot::capture(db));
        *self.published.write().expect("published lock poisoned") = snap;
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
    }
}

/// Handle to the shared service. Cheap to clone; all clones share the
/// writer, the published snapshot, and the concurrent memo.
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
                queue: Mutex::new(VecDeque::new()),
                published: RwLock::new(first),
                memo: ConcurrentMemo::new(),
                batches_applied: AtomicU64::new(0),
                epochs_published: AtomicU64::new(0),
            }),
        }
    }

    /// [`DbService::new`], ignoring the [`AutoMaintain`]. Kept only
    /// because the benchmark in `trackbench/` calls it; a later change to
    /// the benchmark removes it.
    pub fn with_auto_maintain(db: HiddenDatabase, _auto: AutoMaintain) -> Self {
        Self::new(db)
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        self.inner.published.read().expect("published lock poisoned").clone()
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

    /// Applies a batch through the single-writer queue and blocks until
    /// it has been applied (by this thread or by whichever thread held
    /// the writer lock when it drained the queue). On return the
    /// published snapshot includes this batch.
    pub fn apply(&self, batch: UpdateBatch) -> Result<UpdateSummary, DbError> {
        let (tx, rx) = mpsc::channel();
        self.inner
            .queue
            .lock()
            .expect("queue lock poisoned")
            .push_back(QueuedJob { batch, done: tx });
        self.inner.drain_writer();
        // The job is guaranteed processed: either our drain popped it,
        // or a concurrent drainer holding the writer lock did (and its
        // publish covered it before our `drain_writer` call could
        // acquire the writer lock and observe an empty queue).
        rx.recv().expect("writer queue dropped a job")
    }

    /// Reopens a service from the persistence tier's journal: the last
    /// durable checkpoint becomes the writer copy (with the tier
    /// re-attached, so the pool stays out-of-core) and is published as
    /// the first snapshot. The warm-restart path for a long-running
    /// experiment host.
    pub fn open_persistent(cfg: &crate::persist::PersistConfig) -> std::io::Result<Self> {
        Ok(Self::new(HiddenDatabase::open_persistent(cfg)?))
    }

    /// Checkpoints the writer's current (fully applied) state to the
    /// persistence journal. Takes the writer lock, so the record is a
    /// consistent cut: every batch whose `apply` returned before this
    /// call is durable, and no torn batch ever is.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        self.inner.writer.lock().expect("writer lock poisoned").checkpoint()
    }

    /// Shared-memo counters (hits/misses/admissions across all sessions).
    pub fn memo_stats(&self) -> SharedMemoStats {
        self.inner.memo.stats()
    }

    /// Entries currently held by the shared memo, across all shards.
    pub fn memo_len(&self) -> usize {
        self.inner.memo.len()
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
/// sessions) and shares only the immutable snapshot and the epoch-keyed
/// memo — so it is `Send` and can be moved into a worker thread.
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

    fn count_outcome(&mut self, out: &QueryOutcome) {
        match out {
            QueryOutcome::Underflow => self.stats.underflows += 1,
            QueryOutcome::Valid(_) => self.stats.valids += 1,
            QueryOutcome::Overflow(_) => self.stats.overflows += 1,
        }
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
        // Validate, then charge, exactly like `SearchSession::issue` —
        // budget accounting must be bit-identical to the private path.
        query.validate(self.snap.schema()).map_err(|_| IssueError::InvalidQuery)?;
        self.budget.charge()?;
        self.stats.answered += 1;
        let epoch = self.snap.epoch();
        let hash = QueryMemo::hash_of(query);
        if let Some(out) = self.inner.memo.get(epoch, hash, query) {
            self.stats.cache_hits += 1;
            self.count_outcome(&out);
            return Ok(out);
        }
        let out = self.snap.answer(query, &mut self.eval_stats);
        self.inner.memo.insert(epoch, hash, query, out.clone());
        self.count_outcome(&out);
        Ok(out)
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
        let snap = service.snapshot();
        let mut eval = EvalStats::default();
        for q in queries(snap.schema()) {
            assert_eq!(snap.answer(&q, &mut eval), private.answer(&q));
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

    /// Warm restart through the service: checkpoint a live service,
    /// reopen from the journal, and the new service serves the same
    /// epoch-0 answers the old one would — with the tier still attached.
    #[test]
    fn service_checkpoint_and_reopen() {
        let dir =
            std::env::temp_dir().join(format!("hidden-db-service-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::persist::PersistConfig::new(dir.clone(), 2);

        let mut db = seed_db(0);
        db.enable_persist(&cfg).unwrap();
        let service = DbService::new(db);
        let mut batch = UpdateBatch::empty();
        for key in 0..500u64 {
            batch = batch.insert(Tuple::new(
                TupleKey(key),
                vec![ValueId((key % 4) as u32), ValueId((key % 3) as u32)],
                vec![key as f64],
            ));
        }
        service.apply(batch).unwrap();
        service.checkpoint().unwrap();

        let qs = queries(service.snapshot().schema());
        let mut eval = EvalStats::default();
        let expected: Vec<_> = qs.iter().map(|q| service.snapshot().answer(q, &mut eval)).collect();

        drop(service);
        let reopened = DbService::open_persistent(&cfg).unwrap();
        let snap = reopened.snapshot();
        assert_eq!(snap.len(), 500);
        for (q, want) in qs.iter().zip(&expected) {
            assert_eq!(snap.answer(q, &mut eval), *want, "query {q}");
        }
        // Still out-of-core: further churn pages, identically.
        reopened.apply(UpdateBatch::empty().delete(TupleKey(3))).unwrap();
        assert_eq!(reopened.snapshot().len(), 499);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
