//! The dynamic hidden database: schema + storage + index + top-`k`
//! interface + versioning.
//!
//! Two disjoint API surfaces live here:
//!
//! * the **search interface** ([`HiddenDatabase::answer`]) — what a
//!   third-party estimator can reach, always through a budgeted
//!   [`crate::session::SearchSession`];
//! * the **owner/ground-truth API** (insert/delete/apply, `exact_*`,
//!   slot sampling) — what workload drivers and experiment harnesses use.
//!   Estimators must never call it; the crate layout enforces this by
//!   having estimators depend only on the [`crate::session::SearchBackend`]
//!   trait.

use aggtrack_parallel::{par_map_indexed, Threads};

use crate::errors::DbError;
use crate::index::{BitmapIndex, SEGMENT_WORDS};
use crate::interface::{row_matches, CachedEval, QueryOutcome, TopK};
use crate::memo::{InvalidationPolicy, QueryMemo, RowChange, RowOp};
use crate::persist::{Pager, PersistConfig};
use crate::query::ConjunctiveQuery;
use crate::ranking::ScoringPolicy;
use crate::schema::Schema;
use crate::stats::{EvalStats, InterfaceStats, MemoStats, PersistStats};
use crate::store::{locate, SegView, Slot, Store, StoreCore, SEGMENT_SLOTS};
use crate::tuple::Tuple;
use crate::updates::{UpdateBatch, UpdateSummary};
use crate::value::{AttrId, MeasureId, TupleKey, ValueId};
use std::io;
use std::sync::Arc;

/// A view of one stored tuple, used by the owner-side ground-truth API.
/// It reads its segment through one segment view, so a sweep that hands
/// out one `TupleRef` per alive slot views (or, paged, faults) each
/// segment once, however many fields the caller reads.
#[derive(Clone)]
pub struct TupleRef<'a> {
    data: SegView<'a>,
    off: usize,
}

impl TupleRef<'_> {
    /// External key.
    pub fn key(&self) -> TupleKey {
        TupleKey(self.data.keys[self.off])
    }

    /// Value of attribute `attr`.
    pub fn value(&self, attr: AttrId) -> ValueId {
        ValueId(self.data.value_row(self.off)[attr.index()])
    }

    /// Value of measure `m`.
    pub fn measure(&self, m: MeasureId) -> f64 {
        self.data.measure_row(self.off)[m.index()]
    }

    /// Whether this tuple satisfies `query`.
    pub fn matches(&self, query: &ConjunctiveQuery) -> bool {
        row_matches(query, self.data.value_row(self.off))
    }
}

/// The dynamic hidden web database.
#[derive(Debug, Clone)]
pub struct HiddenDatabase {
    schema: Schema,
    store: Store,
    index: BitmapIndex,
    scoring: ScoringPolicy,
    k: usize,
    version: u64,
    cache: QueryMemo,
    policy: InvalidationPolicy,
    stats: InterfaceStats,
    eval_stats: EvalStats,
}

impl HiddenDatabase {
    /// Creates an empty database with top-`k` interface and the given
    /// scoring policy.
    pub fn new(schema: Schema, k: usize, scoring: ScoringPolicy) -> Self {
        let index = BitmapIndex::new(&schema);
        let store = Store::new(schema.attr_count(), schema.measure_count());
        Self {
            schema,
            store,
            index,
            scoring,
            k,
            version: 0,
            cache: QueryMemo::default(),
            policy: InvalidationPolicy::default(),
            stats: InterfaceStats::default(),
            eval_stats: EvalStats::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The interface's `k` (page size).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Changes `k` (used by the Fig 8 parameter sweep). `k` affects every
    /// cached classification, so this is the one mutation that still
    /// clears the memo wholesale.
    pub fn set_k(&mut self, k: usize) {
        self.k = k;
        self.bump_version();
    }

    /// Monotonic data version; bumps on every *effective* mutation (an
    /// empty batch, which changes nothing, leaves it — and the memo —
    /// untouched).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How the query memo reacts to mutations (default:
    /// [`InvalidationPolicy::Incremental`]).
    pub fn invalidation_policy(&self) -> InvalidationPolicy {
        self.policy
    }

    /// Switches the memo policy. Conservatively clears the memo (cheap,
    /// and policies differ in what they guarantee about existing entries).
    pub fn set_invalidation_policy(&mut self, policy: InvalidationPolicy) {
        self.policy = policy;
        self.bump_version();
    }

    /// Caps the number of memoised queries (admission/eviction bound;
    /// default [`crate::DEFAULT_MEMO_CAPACITY`]). `0` disables admission
    /// entirely.
    pub fn set_memo_capacity(&mut self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Number of queries currently memoised.
    pub fn memo_len(&self) -> usize {
        self.cache.len()
    }

    /// The memo's entry cap.
    pub fn memo_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Memo lifecycle counters (insertions, patch drops, evictions,
    /// clears).
    pub fn memo_stats(&self) -> MemoStats {
        self.cache.stats()
    }

    /// The pieces of an immutable epoch snapshot: cheap clones of the
    /// shared read-side state (reference-count bumps per segment).
    /// Consumed by [`crate::service::DbSnapshot`].
    pub(crate) fn snapshot_parts(&self) -> (Schema, StoreCore, BitmapIndex, usize, u64) {
        (self.schema.clone(), self.store.core().clone(), self.index.clone(), self.k, self.version)
    }

    /// `|D|`: number of alive tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Interface traffic counters.
    pub fn stats(&self) -> InterfaceStats {
        self.stats
    }

    /// Evaluation-engine path counters.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats
    }

    /// The scoring policy in force (owner API; a real site would never
    /// disclose it).
    pub fn scoring_policy(&self) -> ScoringPolicy {
        self.scoring
    }

    // ----- persistence tier -----------------------------------------------

    /// Attaches the out-of-core persistence tier: segment data pages
    /// between memory and `cfg.dir/segments.dat` under a
    /// `cfg.resident_segments` budget (see [`crate::persist`]), spilling
    /// the cold majority immediately. **Outcome-invariant**: every
    /// answer, page, and tie-break is bit-identical to the all-RAM
    /// database (pinned by the out-of-core oracle proptest); only
    /// wall-clock and resident memory move.
    ///
    /// Errors if a tier is already attached or the region file cannot be
    /// created.
    pub fn enable_persist(&mut self, cfg: &PersistConfig) -> io::Result<()> {
        if self.persist_enabled() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "persistence tier already enabled",
            ));
        }
        let pager = Pager::open(
            &cfg.dir,
            self.schema.attr_count(),
            self.schema.measure_count(),
            cfg.resident_segments,
        )?;
        self.store.attach_pager(pager);
        Ok(())
    }

    /// Whether the persistence tier is attached.
    pub fn persist_enabled(&self) -> bool {
        self.store.pager().is_some()
    }

    /// Paging counters (spills, faults, cache evictions, on-disk bytes,
    /// residency high-water mark). All zeros without the tier.
    pub fn persist_stats(&self) -> PersistStats {
        self.store.pager().map(|p| p.stats()).unwrap_or_default()
    }

    /// Appends a durable full-state snapshot (codec v5: segment data
    /// plus the free list in order) to the journal in the persist
    /// directory and fsyncs. `&self` on purpose: checkpointing reads
    /// through the paged view, so it can run between any two mutations
    /// without touching warm state.
    ///
    /// Errors if the tier is not enabled.
    pub fn checkpoint(&self) -> io::Result<()> {
        let pager = self.store.pager().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "checkpoint requires --persist")
        })?;
        let mut payload = Vec::new();
        crate::codec::write_snapshot(self, &mut payload)?;
        crate::persist::append_journal_record(
            &pager.dir().join(crate::persist::JOURNAL_FILE),
            &payload,
        )
    }

    /// Warm restart: recovers the last durable [`checkpoint`] from
    /// `cfg.dir`'s journal (ignoring any torn tail from a crash
    /// mid-append) and re-attaches the persistence tier. The restored
    /// database carries every slot and free-list entry of the
    /// checkpointed one, and rebuilds its bitmaps from the stored rows,
    /// so it evolves bit-identically from here.
    ///
    /// Errors with [`io::ErrorKind::NotFound`] when the journal holds no
    /// valid record.
    ///
    /// [`checkpoint`]: HiddenDatabase::checkpoint
    pub fn open_persistent(cfg: &PersistConfig) -> io::Result<Self> {
        let journal = cfg.dir.join(crate::persist::JOURNAL_FILE);
        let payload = crate::persist::read_last_journal_record(&journal)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no durable snapshot in the journal")
        })?;
        let mut db = crate::codec::read_snapshot(&mut &payload[..])?;
        db.enable_persist(cfg)?;
        Ok(db)
    }

    /// The store, for the codec's verbatim snapshot walk.
    pub(crate) fn store_ref(&self) -> &Store {
        &self.store
    }

    /// Rebuilds a database from restored snapshot state (codec v5): the
    /// store verbatim, the bitmaps rebuilt from its rows, fresh
    /// version/memo/stats (the memo is an epoch cache — a restarted
    /// process starts a new epoch; answers are unaffected).
    pub(crate) fn from_restored(
        schema: Schema,
        k: usize,
        scoring: ScoringPolicy,
        store: Store,
    ) -> Self {
        let mut db = Self::new(schema, k, scoring);
        db.index = BitmapIndex::from_store(&db.schema, &store);
        db.store = store;
        db
    }

    /// Version bump with a wholesale memo clear — for mutations that can
    /// affect *every* cached entry (`set_k`, policy switches).
    fn bump_version(&mut self) {
        self.version += 1;
        self.cache.clear();
    }

    /// Ends a mutation call: bumps the version if any op applied, and
    /// settles the memo according to the active policy. Under
    /// [`InvalidationPolicy::Incremental`] each op has already patched
    /// the memo as it applied ([`HiddenDatabase::patch_memo`]).
    ///
    /// This runs on the error path of [`HiddenDatabase::apply`] too: a
    /// batch that fails mid-way leaves its applied prefix in place, and
    /// the version must say so.
    fn end_mutation(&mut self, changed: bool) {
        if !changed {
            return;
        }
        self.version += 1;
        match self.policy {
            InvalidationPolicy::Incremental => self.cache.note_mutation(),
            InvalidationPolicy::Wholesale => self.cache.clear(),
            // Disabled: the memo never holds entries; nothing to drop.
            InvalidationPolicy::Disabled => {}
        }
    }

    /// Whether row changes patch the memo: only under
    /// [`InvalidationPolicy::Incremental`], and only while something is
    /// cached, so a mutation against an empty memo does no memo work.
    fn patching(&self) -> bool {
        self.policy == InvalidationPolicy::Incremental && !self.cache.is_empty()
    }

    /// Patches the memo with one applied row change (see
    /// [`HiddenDatabase::patching`]).
    fn patch_memo(&mut self, slot: Slot, values: &[ValueId], score: u64, change: RowChange) {
        if self.patching() {
            let op = RowOp { slot, values, score, change };
            self.cache.patch(&op, self.k, &self.store);
        }
    }

    fn validate_tuple(&self, t: &Tuple) -> Result<(), DbError> {
        if t.values().len() != self.schema.attr_count() {
            return Err(DbError::TupleMismatch(format!(
                "expected {} values, got {}",
                self.schema.attr_count(),
                t.values().len()
            )));
        }
        if t.measures().len() != self.schema.measure_count() {
            return Err(DbError::TupleMismatch(format!(
                "expected {} measures, got {}",
                self.schema.measure_count(),
                t.measures().len()
            )));
        }
        for (i, &v) in t.values().iter().enumerate() {
            if !self.schema.value_in_domain(AttrId(i as u16), v) {
                return Err(DbError::TupleMismatch(format!("value {v} outside domain of A{i}")));
            }
        }
        Ok(())
    }

    // ----- owner API ------------------------------------------------------

    /// Inserts one tuple.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), DbError> {
        let result = self.insert_inner(tuple);
        self.end_mutation(result.is_ok());
        result
    }

    /// Deletes one tuple by key.
    pub fn delete(&mut self, key: TupleKey) -> Result<(), DbError> {
        let result = self.delete_inner(key);
        self.end_mutation(result.is_ok());
        result
    }

    /// Overwrites the measures of an alive tuple (its position in the query
    /// tree is unchanged; its rank may change under measure-based scoring).
    pub fn update_measures(&mut self, key: TupleKey, measures: Vec<f64>) -> Result<(), DbError> {
        let result = self.update_measures_inner(key, &measures);
        self.end_mutation(result.is_ok());
        result
    }

    /// Applies a batch: deletes, then measure updates, then inserts; bumps
    /// the version once. Fails atomically per element (earlier elements
    /// stay applied — batches from schedules are pre-validated), and every
    /// applied element has patched the memo, **even on the error path** —
    /// a failed batch must not leave cached pages serving its
    /// already-deleted tuples.
    ///
    /// An empty batch is a true no-op: no version bump, memo retained —
    /// a round in which nothing changes costs nothing.
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<UpdateSummary, DbError> {
        let mut summary = UpdateSummary::default();
        let result = self.apply_batch(batch, &mut summary);
        self.end_mutation(summary != UpdateSummary::default());
        result.map(|()| summary)
    }

    fn apply_batch(
        &mut self,
        batch: UpdateBatch,
        summary: &mut UpdateSummary,
    ) -> Result<(), DbError> {
        for key in &batch.deletes {
            self.delete_inner(*key)?;
            summary.deleted += 1;
        }
        for (key, measures) in &batch.measure_updates {
            self.update_measures_inner(*key, measures)?;
            summary.measures_updated += 1;
        }
        for tuple in batch.inserts {
            self.insert_inner(tuple)?;
            summary.inserted += 1;
        }
        Ok(())
    }

    fn insert_inner(&mut self, tuple: Tuple) -> Result<(), DbError> {
        self.validate_tuple(&tuple)?;
        let score = self.scoring.score(tuple.key(), tuple.measures());
        let values: Vec<ValueId> = tuple.values().to_vec();
        let slot = self.store.insert(tuple, score)?;
        self.index.insert(slot, &values);
        self.patch_memo(slot, &values, score, RowChange::Insert);
        Ok(())
    }

    /// The full value row of the (alive) tuple at `slot`, in schema order.
    fn row_of(&self, slot: Slot) -> Vec<ValueId> {
        let (seg, off) = locate(slot);
        self.store.seg_view(seg).value_row(off).iter().map(|&v| ValueId(v)).collect()
    }

    fn delete_inner(&mut self, key: TupleKey) -> Result<(), DbError> {
        let slot = self.store.slot_of(key).ok_or(DbError::UnknownKey(key))?;
        let values = self.row_of(slot);
        let score = self.store.score_at(slot);
        self.store.delete(key)?;
        self.index.delete(slot, &values);
        self.patch_memo(slot, &values, score, RowChange::Delete);
        Ok(())
    }

    fn update_measures_inner(&mut self, key: TupleKey, measures: &[f64]) -> Result<(), DbError> {
        if measures.len() != self.schema.measure_count() {
            return Err(DbError::TupleMismatch(format!(
                "expected {} measures, got {}",
                self.schema.measure_count(),
                measures.len()
            )));
        }
        let slot = self.store.update_measures(key, measures)?;
        // Rank score may depend on measures; recompute.
        let old = self.store.score_at(slot);
        let score = self.scoring.score(key, measures);
        self.store.set_score(slot, score);
        if self.patching() {
            let values = self.row_of(slot);
            self.patch_memo(slot, &values, score, RowChange::Rescore { old });
        }
        Ok(())
    }

    // ----- search interface ----------------------------------------------

    /// Answers a search query through the top-`k` interface. **Unbudgeted**:
    /// sessions wrap this and charge the per-round budget.
    ///
    /// # Panics
    /// If the query references attributes/values outside the schema — an
    /// owner-side caller bug. Sessions validate first and return
    /// [`crate::errors::IssueError::InvalidQuery`] instead.
    pub fn answer(&mut self, query: &ConjunctiveQuery) -> QueryOutcome {
        query.validate(&self.schema).expect("search query must be valid for the schema");
        self.stats.answered += 1;
        if matches!(self.policy, InvalidationPolicy::Disabled) {
            // The memo-free oracle path: every answer re-evaluates.
            let mut eval = self.evaluate_uncached(query);
            let out = eval.outcome(&self.store);
            self.count_outcome(&out);
            return out;
        }
        // One fast fingerprint per answer; the memo never re-hashes the
        // query and only clones it on a confirmed miss.
        let hash = QueryMemo::hash_of(query);
        if let Some(cached) = self.cache.get_mut(hash, query) {
            #[cfg(debug_assertions)]
            cached.assert_consistent(query, &self.store, self.k);
            self.stats.cache_hits += 1;
            let out = cached.outcome(&self.store);
            self.count_outcome(&out);
            return out;
        }
        let mut eval = self.evaluate_uncached(query);
        let out = eval.outcome(&self.store);
        // File the entry under its rarest predicate, so the row changes
        // that reach it through that value are few.
        let rarest = query
            .predicates()
            .iter()
            .copied()
            .min_by_key(|p| (self.index.count(p.attr, p.value), p.attr, p.value));
        self.cache.insert(hash, query, eval, rarest);
        self.count_outcome(&out);
        out
    }

    fn count_outcome(&mut self, out: &QueryOutcome) {
        match out {
            QueryOutcome::Underflow => self.stats.underflows += 1,
            QueryOutcome::Valid(_) => self.stats.valids += 1,
            QueryOutcome::Overflow(_) => self.stats.overflows += 1,
        }
    }

    /// The uncached evaluation path: the shared read-only engine
    /// ([`evaluate_query`]) over disjoint borrows of store/index/stats.
    fn evaluate_uncached(&mut self, query: &ConjunctiveQuery) -> CachedEval {
        evaluate_query(query, &self.store, &self.index, self.k, &mut self.eval_stats)
    }

    // ----- ground truth (experiments/tests only) --------------------------

    /// Exact number of alive tuples matching `query` (root if `None`).
    /// Bypasses the interface; for experiments and tests. Sequential —
    /// see [`HiddenDatabase::exact_count_threads`] for the segment
    /// fan-out.
    pub fn exact_count(&self, query: Option<&ConjunctiveQuery>) -> u64 {
        self.exact_count_threads(query, Threads::sequential())
    }

    /// [`HiddenDatabase::exact_count`] fanned out over store segments on
    /// the given thread pool. Counts merge in segment order, so the
    /// result is identical for every thread count.
    pub fn exact_count_threads(&self, query: Option<&ConjunctiveQuery>, threads: Threads) -> u64 {
        match query {
            None => self.store.len() as u64,
            Some(q) => {
                let segs: Vec<usize> = self.store.live_segments().collect();
                par_map_indexed(segs.len(), threads, |i| {
                    let mut count = 0;
                    self.for_each_alive_in(segs[i], |t| count += u64::from(t.matches(q)));
                    count
                })
                .into_iter()
                .sum()
            }
        }
    }

    /// The interface's answer to `query`, recomputed by brute force:
    /// every alive slot checked against every predicate, the matches
    /// sorted best-first by `(score, slot)`. Shares no code with the
    /// evaluation engine or the memo, which makes it the reference the
    /// engine oracles compare against. Unbudgeted and uncounted.
    ///
    /// # Panics
    /// If the query references attributes/values outside the schema.
    pub fn exact_answer(&self, query: &ConjunctiveQuery) -> QueryOutcome {
        query.validate(&self.schema).expect("search query must be valid for the schema");
        let preds: Vec<(usize, u32)> =
            query.predicates().iter().map(|p| (p.attr.index(), p.value.0)).collect();
        let mut matches: Vec<(u64, Slot)> = Vec::new();
        for seg in 0..self.store.segment_count() {
            let data = self.store.seg_view(seg);
            for (off, _) in data.alive.iter().enumerate().filter(|&(_, &alive)| alive) {
                let row = data.value_row(off);
                if preds.iter().all(|&(attr, value)| row[attr] == value) {
                    matches.push((data.scores[off], (seg * SEGMENT_SLOTS + off) as Slot));
                }
            }
        }
        matches.sort_unstable_by(|a, b| b.cmp(a));
        let overflow = matches.len() > self.k;
        matches.truncate(self.k);
        let slots: Vec<Slot> = matches.into_iter().map(|(_, slot)| slot).collect();
        if slots.is_empty() {
            return QueryOutcome::Underflow;
        }
        let page = Arc::new(self.store.page(&slots));
        if overflow {
            QueryOutcome::Overflow(page)
        } else {
            QueryOutcome::Valid(page)
        }
    }

    /// Exact sum of `f` over alive tuples matching `query`. Sequential —
    /// see [`HiddenDatabase::exact_sum_threads`] for the segment fan-out.
    pub fn exact_sum(
        &self,
        query: Option<&ConjunctiveQuery>,
        mut f: impl FnMut(TupleRef<'_>) -> f64,
    ) -> f64 {
        let mut acc = 0.0;
        self.for_each_alive(|t| {
            let matches = query.is_none_or(|q| t.matches(q));
            if matches {
                acc += f(t);
            }
        });
        acc
    }

    /// [`HiddenDatabase::exact_sum`] fanned out over store segments.
    ///
    /// **Bit-identical to the sequential sweep for every thread count**
    /// (the trial-runner merge contract): workers return the raw matched
    /// values of their segment in slot order; the main thread replays
    /// them in segment order, so the floating-point additions happen in
    /// exactly the sequence the sequential full-store sweep performs.
    pub fn exact_sum_threads(
        &self,
        query: Option<&ConjunctiveQuery>,
        f: impl Fn(TupleRef<'_>) -> f64 + Sync,
        threads: Threads,
    ) -> f64 {
        let segs: Vec<usize> = self.store.live_segments().collect();
        let parts: Vec<Vec<f64>> = par_map_indexed(segs.len(), threads, |i| {
            let mut vals = Vec::new();
            self.for_each_alive_in(segs[i], |t| {
                if query.is_none_or(|q| t.matches(q)) {
                    vals.push(f(t));
                }
            });
            vals
        });
        let mut acc = 0.0;
        for part in &parts {
            for &v in part {
                acc += v;
            }
        }
        acc
    }

    /// Visits every alive tuple in slot order (owner API).
    pub fn for_each_alive(&self, mut f: impl FnMut(TupleRef<'_>)) {
        for seg in self.store.live_segments() {
            self.for_each_alive_in(seg, &mut f);
        }
    }

    /// Visits the alive tuples of segment `seg` in slot order, through
    /// one view of the segment: a paged database faults an evicted
    /// segment once per call, not once per field read.
    fn for_each_alive_in(&self, seg: usize, mut f: impl FnMut(TupleRef<'_>)) {
        let view = self.store.seg_view(seg);
        for (off, _) in view.alive.iter().enumerate().filter(|&(_, &alive)| alive) {
            f(TupleRef { data: SegView::Ram(&view), off });
        }
    }

    /// Borrowing accessor for an alive tuple by key (owner API).
    pub fn get(&self, key: TupleKey) -> Option<TupleRef<'_>> {
        let (seg, off) = locate(self.store.slot_of(key)?);
        Some(TupleRef { data: self.store.seg_view(seg), off })
    }

    /// Samples `count` distinct alive tuple keys uniformly at random,
    /// deterministically under the caller's RNG (owner API; schedules use
    /// this to pick deletion victims).
    ///
    /// Returns fewer than `count` keys only if the database holds fewer
    /// alive tuples.
    pub fn sample_alive_keys<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<TupleKey> {
        let alive = self.store.len();
        let want = count.min(alive);
        let mut picked = std::collections::HashSet::with_capacity(want);
        let mut out = Vec::with_capacity(want);
        let bound = self.store.slot_bound();
        if bound == 0 {
            return out;
        }
        // Rejection sampling over slots: the store keeps fill rate high, so
        // the expected number of draws is O(want / fill_rate).
        while out.len() < want {
            let slot: Slot = rng.random_range(0..bound);
            if self.store.is_alive(slot) && picked.insert(slot) {
                out.push(self.store.key_at(slot));
            }
        }
        out
    }

    /// All alive keys, sorted (deterministic; owner API, O(n log n)).
    pub fn alive_keys_sorted(&self) -> Vec<TupleKey> {
        let mut keys: Vec<TupleKey> = self.store.alive_keys().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}

/// The uncached evaluation engine, shared verbatim by the owner path
/// ([`HiddenDatabase::answer`]) and snapshot readers
/// ([`crate::service::DbSnapshot`]). One loop serves every query shape:
/// the live segments are visited in segment order, and in each the alive
/// row is ANDed word by word with the query's bitmap rows
/// ([`BitmapIndex::and_rows`]). Every set bit is an alive slot carrying
/// every value of the query, so it is offered to the top-`k` heap as is,
/// its score read from the segment's score array. Every match is
/// offered, so the match count is exact.
///
/// The page is the top `k` under the total `(score, slot)` order, which
/// does not depend on visit order (pinned by the oracle proptests against
/// [`HiddenDatabase::exact_answer`]). The query's shape only picks the
/// [`EvalStats`] counter: root, one predicate, or two and more.
pub(crate) fn evaluate_query(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    index: &BitmapIndex,
    k: usize,
    stats: &mut EvalStats,
) -> CachedEval {
    match query.predicates().len() {
        0 => stats.root_scans += 1,
        1 => stats.single_scans += 1,
        _ => stats.bitset_intersections += 1,
    }
    let rows = index.rows_of(query);
    let mut topk = TopK::new(k);
    let mut hits = [0u64; SEGMENT_WORDS];
    for seg in store.live_segments() {
        if !index.and_rows(seg, &rows, &mut hits) {
            continue;
        }
        // One paged view per segment with candidates: with the
        // persistence tier attached this is a single fault.
        let data = store.seg_view(seg);
        let scores: &[u64] = &data.scores;
        let base = seg * SEGMENT_SLOTS;
        for (w, &word) in hits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let off = w * 64 + word.trailing_zeros() as usize;
                topk.offer(scores[off], (base + off) as Slot);
                word &= word - 1;
            }
        }
    }
    topk.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    fn db() -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        HiddenDatabase::new(schema, 2, ScoringPolicy::NewestFirst)
    }

    fn t(key: u64, a0: u32, a1: u32, price: f64) -> Tuple {
        Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![price])
    }

    fn q(pairs: &[(u16, u32)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates(
            pairs.iter().map(|&(a, v)| Predicate::new(AttrId(a), ValueId(v))),
        )
    }

    #[test]
    fn end_to_end_insert_query() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 0, 1, 20.0)).unwrap();
        d.insert(t(3, 1, 2, 30.0)).unwrap();
        // Root: 3 tuples > k=2 → overflow with the 2 newest.
        let out = d.answer(&ConjunctiveQuery::select_all());
        assert!(out.is_overflow());
        let keys: Vec<u64> = out.tuples().map(|v| v.key().0).collect();
        assert_eq!(keys, vec![3, 2]);
        // A0=0: exactly 2 → valid.
        let out = d.answer(&q(&[(0, 0)]));
        assert!(out.is_valid());
        assert_eq!(out.returned_count(), 2);
        // A0=1 AND A1=0: none → underflow.
        assert!(d.answer(&q(&[(0, 1), (1, 0)])).is_underflow());
    }

    #[test]
    fn schema_validation_on_insert() {
        let mut d = db();
        // Wrong arity.
        let bad = Tuple::new(TupleKey(1), vec![ValueId(0)], vec![1.0]);
        assert!(d.insert(bad).is_err());
        // Out-of-domain value.
        let bad = Tuple::new(TupleKey(1), vec![ValueId(0), ValueId(3)], vec![1.0]);
        assert!(d.insert(bad).is_err());
        // Wrong measure arity.
        let bad = Tuple::new(TupleKey(1), vec![ValueId(0), ValueId(0)], vec![]);
        assert!(d.insert(bad).is_err());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn version_bumps_and_cache_invalidates() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        let v1 = d.version();
        let root = ConjunctiveQuery::select_all();
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.stats().cache_hits, 1, "second identical query cached");
        d.insert(t(2, 0, 0, 1.0)).unwrap();
        assert!(d.version() > v1);
        assert_eq!(d.answer(&root).returned_count(), 2, "cache must not serve stale data");
    }

    #[test]
    fn memo_never_serves_stale_results_across_apply_batches() {
        // Regression guard for the pre-hashed memo + shared page cache:
        // every `apply` must patch (or drop) the affected memo entries,
        // so answers after each batch reflect the new state exactly
        // (classification, keys, measures).
        let mut d = db();
        let root = ConjunctiveQuery::select_all();
        let probe = q(&[(0, 0)]);
        for batch_no in 0..10u64 {
            let key = TupleKey(batch_no);
            let batch = UpdateBatch::empty().insert(t(batch_no, 0, 0, batch_no as f64));
            let batch = if batch_no >= 3 {
                batch
                    .delete(TupleKey(batch_no - 3))
                    .update_measures(TupleKey(batch_no - 1), vec![batch_no as f64 * 10.0])
            } else {
                batch
            };
            d.apply(batch).unwrap();
            // Warm the memo…
            let first = d.answer(&root);
            let probed = d.answer(&probe);
            // …and check the warm answers against ground truth.
            assert_eq!(first.returned_count().min(d.k()), d.len().min(d.k()));
            assert_eq!(probed.tuples().len() as u64, d.exact_count(Some(&probe)).min(d.k() as u64));
            assert!(probed.keys().any(|k2| k2 == key), "new tuple visible");
            if batch_no >= 3 {
                assert!(
                    probed.keys().all(|k2| k2 != TupleKey(batch_no - 3)),
                    "deleted tuple must not be served from the memo"
                );
                let updated = d.get(TupleKey(batch_no - 1)).unwrap();
                let served = probed
                    .tuples()
                    .find(|t| t.key() == TupleKey(batch_no - 1))
                    .expect("updated tuple in page");
                assert_eq!(
                    served.measure(MeasureId(0)),
                    updated.measure(MeasureId(0)),
                    "measure update must refresh the cached page"
                );
            }
            // A second identical ask is a cache hit and must be identical.
            assert_eq!(d.answer(&probe), probed);
            assert!(d.stats().cache_hits > 0);
        }
    }

    #[test]
    fn batch_apply_order_allows_delete_then_reinsert() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        let batch = UpdateBatch::empty().delete(TupleKey(1)).insert(t(1, 1, 1, 2.0));
        let s = d.apply(batch).unwrap();
        assert_eq!(s.deleted, 1);
        assert_eq!(s.inserted, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(TupleKey(1)).unwrap().value(AttrId(0)), ValueId(1));
    }

    #[test]
    fn measure_update_changes_ground_truth_not_membership() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.update_measures(TupleKey(1), vec![99.0]).unwrap();
        assert_eq!(d.len(), 1);
        let sum = d.exact_sum(None, |t| t.measure(MeasureId(0)));
        assert_eq!(sum, 99.0);
    }

    #[test]
    fn exact_aggregates() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 0, 1, 20.0)).unwrap();
        d.insert(t(3, 1, 1, 40.0)).unwrap();
        assert_eq!(d.exact_count(None), 3);
        assert_eq!(d.exact_count(Some(&q(&[(0, 0)]))), 2);
        let s = d.exact_sum(Some(&q(&[(1, 1)])), |t| t.measure(MeasureId(0)));
        assert_eq!(s, 60.0);
    }

    #[test]
    fn sampling_alive_keys_is_uniformish_and_exact_count() {
        use rand::SeedableRng;
        let mut d = db();
        for key in 0..50 {
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, key as f64)).unwrap();
        }
        for key in 0..25 {
            d.delete(TupleKey(key)).unwrap();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sample = d.sample_alive_keys(&mut rng, 10);
        assert_eq!(sample.len(), 10);
        for k in &sample {
            assert!(k.0 >= 25, "sampled deleted tuple {k}");
        }
        let mut uniq = sample.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10, "sample must be distinct");
        // Ask for more than alive: get exactly the alive count.
        let all = d.sample_alive_keys(&mut rng, 1000);
        assert_eq!(all.len(), 25);
    }

    #[test]
    #[should_panic(expected = "valid for the schema")]
    fn invalid_query_panics() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.answer(&q(&[(0, 5)]));
    }

    #[test]
    fn failed_partial_batch_still_invalidates_memo() {
        // Regression: `apply` used to return `Err` mid-batch without
        // touching the memo, even though earlier elements stayed applied —
        // the memo then served pages containing deleted tuples.
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 0, 1, 20.0)).unwrap();
        let probe = q(&[(0, 0)]);
        let before = d.answer(&probe);
        assert!(before.keys().any(|k| k == TupleKey(1)), "tuple 1 visible before the batch");
        let v_before = d.version();

        // Delete key 1 (applies), then fail on an unknown key.
        let batch = UpdateBatch::empty().delete(TupleKey(1)).delete(TupleKey(999));
        assert!(d.apply(batch).is_err());
        assert!(d.version() > v_before, "partial batch must bump the version");
        assert!(d.get(TupleKey(1)).is_none(), "prefix stayed applied");

        let after = d.answer(&probe);
        assert!(
            after.keys().all(|k| k != TupleKey(1)),
            "deleted tuple must not be served from the memo after a failed batch"
        );
        assert_eq!(d.exact_count(Some(&probe)), 1);
    }

    #[test]
    fn failed_batch_with_no_applied_prefix_is_a_no_op() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        let root = ConjunctiveQuery::select_all();
        d.answer(&root);
        let v = d.version();
        // First element already fails: nothing applied, nothing to
        // patch.
        assert!(d.apply(UpdateBatch::empty().delete(TupleKey(999))).is_err());
        assert_eq!(d.version(), v, "no change applied, no version bump");
        let hits = d.stats().cache_hits;
        d.answer(&root);
        assert_eq!(d.stats().cache_hits, hits + 1, "memo retained");
    }

    #[test]
    fn empty_batch_is_a_true_no_op() {
        // Regression (PR 2 satellite): an empty batch used to bump the
        // version and drop the whole memo, making no-change rounds pay
        // full cold-cache cost.
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        let root = ConjunctiveQuery::select_all();
        d.answer(&root);
        let v = d.version();
        let s = d.apply(UpdateBatch::empty()).unwrap();
        assert_eq!(s, UpdateSummary::default());
        assert_eq!(d.version(), v, "empty batch must not bump the version");
        let hits = d.stats().cache_hits;
        d.answer(&root);
        assert_eq!(d.stats().cache_hits, hits + 1, "memo survives a no-change round");
    }

    #[test]
    fn incremental_invalidation_retains_unaffected_entries() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.insert(t(2, 1, 1, 2.0)).unwrap();
        let untouched = q(&[(0, 1)]); // matches tuple 2 only
        let touched = q(&[(0, 0)]); // matches tuple 1 and the new tuple
        let root = ConjunctiveQuery::select_all();
        d.answer(&untouched);
        d.answer(&touched);
        d.answer(&root);
        assert_eq!(d.memo_len(), 3);

        // Insert a tuple with A0=0: `touched` and the root change, and
        // both are patched in place; `untouched` is never visited.
        d.insert(t(3, 0, 2, 3.0)).unwrap();
        assert_eq!(d.memo_len(), 3, "nothing is dropped");
        let hits = d.stats().cache_hits;
        assert_eq!(d.answer(&untouched).returned_count(), 1);
        assert_eq!(d.answer(&touched).returned_count(), 2);
        // Root overflows at k=2 with 3 alive tuples.
        assert!(d.answer(&root).is_overflow());
        assert_eq!(d.stats().cache_hits, hits + 3, "every entry served warm");
        let ms = d.memo_stats();
        assert_eq!(ms.invalidated, 0);
        assert_eq!(ms.retained, 3);
    }

    /// A row that satisfies only some of a query's predicates leaves the
    /// cached answer alone.
    #[test]
    fn a_row_sharing_one_predicate_keeps_the_entry() {
        let mut d = db();
        d.insert(t(1, 0, 1, 1.0)).unwrap();
        let probe = q(&[(0, 0), (1, 1)]);
        assert!(d.answer(&probe).is_valid());
        d.insert(t(2, 0, 2, 2.0)).unwrap();
        let hits = d.stats().cache_hits;
        let out = d.answer(&probe);
        assert_eq!(d.stats().cache_hits, hits + 1, "the new row does not match A1=1");
        assert_eq!(out.keys().collect::<Vec<_>>(), vec![TupleKey(1)]);
    }

    /// A matching insert patches a valid page instead of dropping it.
    #[test]
    fn a_matching_insert_is_served_warm_with_the_new_tuple() {
        let mut d = db();
        d.insert(t(1, 0, 1, 1.0)).unwrap();
        let probe = q(&[(0, 0)]);
        assert!(d.answer(&probe).is_valid());
        d.insert(t(2, 0, 2, 2.0)).unwrap();
        let hits = d.stats().cache_hits;
        let out = d.answer(&probe);
        assert_eq!(d.stats().cache_hits, hits + 1, "patched, not dropped");
        assert_eq!(out.keys().collect::<Vec<_>>(), vec![TupleKey(2), TupleKey(1)]);
        let new = out.tuples().next().unwrap();
        assert_eq!((new.value(AttrId(1)), new.measure(MeasureId(0))), (ValueId(2), 2.0));
    }

    #[test]
    fn wholesale_policy_still_clears_everything() {
        let mut d = db();
        d.set_invalidation_policy(InvalidationPolicy::Wholesale);
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.insert(t(2, 1, 1, 2.0)).unwrap();
        let untouched = q(&[(0, 1)]);
        d.answer(&untouched);
        assert_eq!(d.memo_len(), 1);
        d.insert(t(3, 0, 2, 3.0)).unwrap();
        assert_eq!(d.memo_len(), 0, "wholesale drops unaffected entries too");
        let hits = d.stats().cache_hits;
        d.answer(&untouched);
        assert_eq!(d.stats().cache_hits, hits, "cold after wholesale clear");
    }

    #[test]
    fn disabled_policy_never_caches_and_stays_correct() {
        let mut d = db();
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        let root = ConjunctiveQuery::select_all();
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.memo_len(), 0);
        assert_eq!(d.stats().cache_hits, 0);
    }

    #[test]
    fn memo_capacity_bounds_adversarial_distinct_queries() {
        let schema = Schema::with_domain_sizes(&[64, 3], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 2, ScoringPolicy::NewestFirst);
        d.set_memo_capacity(8);
        for v in 0..64u32 {
            d.answer(&q(&[(0, v)]));
            assert!(d.memo_len() <= 8, "memo exceeded its cap at v={v}");
        }
        let ms = d.memo_stats();
        assert!(ms.evicted >= 56, "distinct stream must evict, got {}", ms.evicted);
        assert_eq!(ms.insertions, 64);
    }

    #[test]
    fn measure_update_invalidates_queries_matching_the_tuple() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 1, 1, 20.0)).unwrap();
        let probe = q(&[(0, 0)]);
        let other = q(&[(0, 1)]);
        d.answer(&probe);
        d.answer(&other);
        d.update_measures(TupleKey(1), vec![99.0]).unwrap();
        // `probe` matches tuple 1: its cached page held the old measure.
        let served = d.answer(&probe);
        assert_eq!(served.tuples().next().unwrap().measure(MeasureId(0)), 99.0);
        // `other` did not match tuple 1 and survived warm.
        let hits = d.stats().cache_hits;
        d.answer(&other);
        assert_eq!(d.stats().cache_hits, hits + 1);
    }

    #[test]
    fn set_k_affects_classification() {
        let mut d = db();
        for key in 0..3 {
            d.insert(t(key, 0, 0, 0.0)).unwrap();
        }
        assert!(d.answer(&ConjunctiveQuery::select_all()).is_overflow());
        d.set_k(3);
        assert!(d.answer(&ConjunctiveQuery::select_all()).is_valid());
    }

    /// The engine must agree bit for bit with the brute-force scan and
    /// with ground truth, on root, one-, two- and three-predicate queries.
    #[test]
    fn intersection_strategies_are_outcome_invariant() {
        let schema = Schema::with_domain_sizes(&[2, 3, 4], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 3, ScoringPolicy::NewestFirst);
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        for key in 0..200u64 {
            d.insert(Tuple::new(
                TupleKey(key),
                vec![
                    ValueId((key % 2) as u32),
                    ValueId((key % 3) as u32),
                    ValueId((key % 4) as u32),
                ],
                vec![key as f64],
            ))
            .unwrap();
        }
        for key in (0..200u64).step_by(5) {
            d.delete(TupleKey(key)).unwrap();
        }
        let mut queries = vec![ConjunctiveQuery::select_all(), q(&[(1, 2)]), q(&[(0, 1), (2, 3)])];
        for (v0, v1, v2) in [(0, 0, 0), (1, 1, 1), (0, 2, 3), (1, 0, 2), (0, 1, 0), (1, 2, 1)] {
            queries.push(q(&[(0, v0), (1, v1), (2, v2)]));
        }
        for q in &queries {
            let out = d.answer(q);
            assert_eq!(out, d.exact_answer(q), "{q}");
            match d.exact_count(Some(q)) {
                0 => assert!(out.is_underflow()),
                n if n <= 3 => {
                    assert!(out.is_valid());
                    assert_eq!(out.returned_count() as u64, n);
                }
                _ => assert!(out.is_overflow()),
            }
        }
        let s = d.eval_stats();
        assert_eq!((s.root_scans, s.single_scans, s.bitset_intersections), (1, 1, 7));
        assert_eq!((s.gallop_intersections, s.recheck_scans), (0, 0));
    }

    /// The bitmaps stay exactly the ones the store implies — every row's
    /// bits are the alive slots carrying its value, the alive row is the
    /// alive flags, every count is its row's popcount — through random
    /// inserts, deletes and measure updates, slot reuse inside one batch,
    /// a failed batch's applied prefix, and a codec round trip.
    #[test]
    fn bitmaps_stay_coherent_with_the_store() {
        use rand::{Rng, SeedableRng};
        let schema = Schema::with_domain_sizes(&[2, 3, 5], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 4, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB17);
        let mut next_key = 0u64;
        let mut fresh = |rng: &mut rand::rngs::StdRng| {
            next_key += 1;
            let values = vec![
                ValueId(rng.random_range(0..2)),
                ValueId(rng.random_range(0..3)),
                ValueId(rng.random_range(0..5)),
            ];
            Tuple::new(TupleKey(next_key), values, vec![rng.random_range(0..9) as f64])
        };
        // Two segments' worth, so blocks for more than one segment exist.
        let mut batch = UpdateBatch::empty();
        for _ in 0..SEGMENT_SLOTS + 300 {
            batch = batch.insert(fresh(&mut rng));
        }
        d.apply(batch).unwrap();
        d.index.assert_coherent(&d.store);
        for round in 0..40 {
            let alive = d.alive_keys_sorted();
            let mut batch = UpdateBatch::empty();
            // Deletes first, then inserts: the inserts refill the slots
            // this very batch freed.
            for _ in 0..rng.random_range(0..60) {
                batch = batch.delete(alive[rng.random_range(0..alive.len())]);
            }
            batch.deletes.sort_unstable();
            batch.deletes.dedup();
            for _ in 0..rng.random_range(0..20) {
                let key = alive[rng.random_range(0..alive.len())];
                if !batch.deletes.contains(&key) {
                    batch = batch.update_measures(key, vec![rng.random_range(0..9) as f64]);
                }
            }
            for _ in 0..rng.random_range(0..60) {
                batch = batch.insert(fresh(&mut rng));
            }
            if round % 7 == 3 {
                // A failed batch keeps its applied prefix.
                batch = batch.delete(TupleKey(u64::MAX));
                assert!(d.apply(batch).is_err());
            } else {
                d.apply(batch).unwrap();
            }
            d.index.assert_coherent(&d.store);
            d.answer(&ConjunctiveQuery::select_all());
        }
        let mut buf = Vec::new();
        crate::codec::write_snapshot(&d, &mut buf).unwrap();
        let mut restored = crate::codec::read_snapshot(&mut buf.as_slice()).unwrap();
        restored.index.assert_coherent(&restored.store);
        for q in [ConjunctiveQuery::select_all(), q(&[(2, 4)]), q(&[(0, 1), (1, 2), (2, 0)])] {
            assert_eq!(restored.answer(&q), d.answer(&q), "{q}");
        }
        restored.insert(fresh(&mut rng)).unwrap();
        restored.index.assert_coherent(&restored.store);
    }

    /// Ground-truth fan-out must match the sequential sweep bit-for-bit
    /// at every thread count.
    #[test]
    fn ground_truth_fanout_matches_sequential_bitwise() {
        use aggtrack_parallel::Threads;
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 4, ScoringPolicy::default());
        let n = (crate::store::SEGMENT_SLOTS + 777) as u64;
        for key in 0..n {
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, (key as f64).sqrt() * 0.1))
                .unwrap();
        }
        for key in (0..n).step_by(7) {
            d.delete(TupleKey(key)).unwrap();
        }
        let probe = q(&[(0, 1), (1, 2)]);
        let count = d.exact_count(Some(&probe));
        let sum = d.exact_sum(Some(&probe), |t| t.measure(MeasureId(0)));
        let root_sum = d.exact_sum(None, |t| t.measure(MeasureId(0)));
        for workers in [1, 2, 4, 7] {
            let threads = Threads::fixed(workers);
            assert_eq!(d.exact_count_threads(Some(&probe), threads), count);
            assert_eq!(
                d.exact_sum_threads(Some(&probe), |t| t.measure(MeasureId(0)), threads).to_bits(),
                sum.to_bits(),
                "{workers}-thread conditional sum drifted"
            );
            assert_eq!(
                d.exact_sum_threads(None, |t| t.measure(MeasureId(0)), threads).to_bits(),
                root_sum.to_bits(),
                "{workers}-thread root sum drifted"
            );
        }
    }

    /// Ground truth on a paged database reads each segment through one
    /// view per call, so at any thread count a call faults at most the
    /// evicted segments (two workers reading field by field would evict
    /// each other's segment from the pager's one-slot read cache), and
    /// agrees with the one-thread call bit for bit.
    #[test]
    fn paged_ground_truth_faults_each_segment_at_most_once() {
        use aggtrack_parallel::Threads;
        let cfg = persist_cfg("ground-truth", 4);
        let schema = Schema::with_domain_sizes(&[2, 3, 4, 5], &["price"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 4, ScoringPolicy::default());
        d.enable_persist(&cfg).unwrap();
        for key in 0..40_000u64 {
            let values = [2, 3, 4, 5].map(|domain| ValueId((key % domain) as u32)).to_vec();
            d.insert(Tuple::new(TupleKey(key), values, vec![key as f64 * 0.25])).unwrap();
        }
        let pager = d.store.pager().expect("tier attached").clone();
        let evicted = (d.store.segment_count() - pager.writer_budget()) as u64;
        assert_eq!(evicted, 7, "10 segments, 3 in core");
        let probe = q(&[(1, 2)]);
        let count = |threads| d.exact_count_threads(Some(&probe), threads);
        let sum = |threads| {
            d.exact_sum_threads(Some(&probe), |t| t.measure(MeasureId(0)), threads).to_bits()
        };
        for (name, api) in [("count", &count as &dyn Fn(Threads) -> u64), ("sum", &sum)] {
            let mut answers = Vec::new();
            for workers in [1, 2] {
                let before = pager.stats().segments_faulted;
                answers.push(api(Threads::fixed(workers)));
                let faulted = pager.stats().segments_faulted - before;
                assert!(faulted <= evicted, "{name} at {workers} threads: {faulted} faults");
            }
            assert_eq!(answers[0], answers[1], "{name}: 2 threads disagree with 1");
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    fn persist_cfg(name: &str, resident: usize) -> crate::persist::PersistConfig {
        let dir =
            std::env::temp_dir().join(format!("hidden-db-database-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::persist::PersistConfig::new(dir, resident)
    }

    /// The warm-restart promise end to end: checkpoint, drop the
    /// database, `open_persistent` — and the reopened database answers
    /// and evolves identically, out-of-core the whole way.
    #[test]
    fn checkpoint_and_open_persistent_roundtrip() {
        let cfg = persist_cfg("roundtrip", 2);
        let n = (crate::store::SEGMENT_SLOTS * 2 + 333) as u64;
        let mut d = db();
        d.enable_persist(&cfg).unwrap();
        assert!(d.persist_enabled());
        for key in 0..n {
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, key as f64)).unwrap();
        }
        for key in (0..n).step_by(11) {
            d.delete(TupleKey(key)).unwrap();
        }
        let probe = q(&[(0, 1), (1, 2)]);
        let before = d.answer(&probe);
        d.checkpoint().unwrap();

        drop(d);
        let mut re = HiddenDatabase::open_persistent(&cfg).unwrap();
        assert!(re.persist_enabled());
        assert_eq!(re.answer(&probe), before);
        assert!(
            re.persist_stats().peak_resident_segments <= 2,
            "reopen must stay inside the resident budget"
        );
        // Post-restart evolution still matches an in-RAM twin of the
        // same history (slot reuse included).
        re.insert(t(n + 1, 1, 2, -5.0)).unwrap();
        let out = re.answer(&probe);
        assert!(out.tuples().any(|v| v.key() == TupleKey(n + 1)));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Checkpoints are cumulative journal records: reopening always
    /// resumes from the *last* durable one.
    #[test]
    fn reopen_resumes_from_latest_checkpoint() {
        let cfg = persist_cfg("latest", 4);
        let mut d = db();
        d.enable_persist(&cfg).unwrap();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.checkpoint().unwrap();
        d.insert(t(2, 1, 1, 2.0)).unwrap();
        d.checkpoint().unwrap();
        drop(d);
        let re = HiddenDatabase::open_persistent(&cfg).unwrap();
        assert_eq!(re.len(), 2);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn persist_misuse_is_rejected() {
        let cfg = persist_cfg("misuse", 2);
        let mut d = db();
        assert!(d.checkpoint().is_err(), "checkpoint without a tier must fail");
        assert_eq!(d.persist_stats(), crate::stats::PersistStats::default());
        d.enable_persist(&cfg).unwrap();
        assert!(d.enable_persist(&cfg).is_err(), "double enable must fail");
        // A fresh dir with no journal has nothing to open.
        let empty = persist_cfg("misuse-empty", 2);
        assert!(HiddenDatabase::open_persistent(&empty).is_err());
        let _ = std::fs::remove_dir_all(&cfg.dir);
        let _ = std::fs::remove_dir_all(&empty.dir);
    }
}
