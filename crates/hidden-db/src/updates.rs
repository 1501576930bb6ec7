//! Batched updates: the unit of change between rounds (round-update model,
//! §2.1) or at arbitrary instants (constant-update model, §5.2).

use crate::tuple::Tuple;
use crate::value::TupleKey;

/// A set of modifications applied atomically to the database.
///
/// Application order is **deletes → measure updates → inserts**, so a batch
/// can delete a key and re-insert it (a "changed tuple") in one step.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Keys to delete.
    pub deletes: Vec<TupleKey>,
    /// In-place measure overwrites: `(key, new measures)`.
    pub measure_updates: Vec<(TupleKey, Vec<f64>)>,
    /// Tuples to insert.
    pub inserts: Vec<Tuple>,
}

impl UpdateBatch {
    /// An empty batch (a round in which nothing changes).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the batch performs no modifications.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty() && self.measure_updates.is_empty()
    }

    /// Total number of elementary modifications.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len() + self.measure_updates.len()
    }

    /// Builder: adds a delete.
    #[must_use]
    pub fn delete(mut self, key: TupleKey) -> Self {
        self.deletes.push(key);
        self
    }

    /// Builder: adds an insert.
    #[must_use]
    pub fn insert(mut self, tuple: Tuple) -> Self {
        self.inserts.push(tuple);
        self
    }

    /// Builder: adds a measure update.
    #[must_use]
    pub fn update_measures(mut self, key: TupleKey, measures: Vec<f64>) -> Self {
        self.measure_updates.push((key, measures));
        self
    }
}

/// What an applied batch did (for experiment logging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateSummary {
    /// Tuples removed.
    pub deleted: usize,
    /// Tuples added.
    pub inserted: usize,
    /// Tuples whose measures changed in place.
    pub measures_updated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::HiddenDatabase;
    use crate::interface::QueryOutcome;
    use crate::query::{ConjunctiveQuery, Predicate};
    use crate::ranking::ScoringPolicy;
    use crate::schema::Schema;
    use crate::value::{AttrId, MeasureId, ValueId};
    use std::sync::Arc;

    fn q(pairs: &[(u16, u32)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates(
            pairs.iter().map(|&(a, v)| Predicate::new(AttrId(a), ValueId(v))),
        )
    }

    fn row(key: u64, a0: u32, a1: u32, m: f64) -> Tuple {
        Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![m])
    }

    /// Three rows at k = 2, ranked by their one measure.
    fn db() -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[3, 3], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 2, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        for t in [row(1, 0, 0, 1.0), row(2, 1, 0, 2.0), row(3, 2, 1, 3.0)] {
            d.insert(t).unwrap();
        }
        d
    }

    fn keys(out: &QueryOutcome) -> Vec<u64> {
        out.keys().map(|k| k.0).collect()
    }

    fn page(out: &QueryOutcome) -> &Arc<crate::tuple::Page> {
        match out {
            QueryOutcome::Valid(page) | QueryOutcome::Overflow(page) => page,
            QueryOutcome::Underflow => panic!("an underflow has no page"),
        }
    }

    #[test]
    fn builder_accumulates() {
        let b = UpdateBatch::empty()
            .delete(TupleKey(1))
            .insert(Tuple::new(TupleKey(2), vec![ValueId(0)], vec![]))
            .update_measures(TupleKey(3), vec![1.0]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.deletes, vec![TupleKey(1)]);
        assert_eq!(b.measure_updates[0].0, TupleKey(3));
    }

    #[test]
    fn empty_batch() {
        assert!(UpdateBatch::empty().is_empty());
        assert_eq!(UpdateBatch::empty().len(), 0);
    }

    /// The rows a batch changes (its footprint) reach exactly the cached
    /// answers whose query they satisfy: the root always, a query only
    /// when the row carries every one of its predicates, and never a
    /// query on the same value of another attribute.
    #[test]
    fn footprint_intersection_semantics() {
        let mut d = db();
        let root = ConjunctiveQuery::select_all();
        let hit = q(&[(1, 2)]);
        let both = q(&[(0, 1), (1, 2)]);
        let miss = q(&[(1, 0)]);
        let partial = q(&[(0, 1), (1, 0)]);
        let cross = q(&[(0, 2)]); // value 2 of A0, not A1
        let queries = [&root, &hit, &both, &miss, &partial, &cross];
        let before: Vec<QueryOutcome> = queries.iter().map(|query| d.answer(query)).collect();

        let batch = UpdateBatch::empty().insert(row(10, 1, 2, 9.0)).insert(row(11, 1, 2, 8.0));
        d.apply(batch).unwrap();
        let hits = d.stats().cache_hits;
        let after: Vec<QueryOutcome> = queries.iter().map(|query| d.answer(query)).collect();
        assert_eq!(d.stats().cache_hits, hits + queries.len() as u64, "all served warm");
        for out in &after[..3] {
            assert_eq!(keys(out), vec![10, 11], "a satisfied query shows the new rows");
        }
        assert_eq!(after[3..], before[3..], "a row missing a predicate reaches nothing");

        // A changed row on a page: the valid pages drop it in place; the
        // root's truncated page cannot name its replacement, so it drops.
        d.apply(UpdateBatch::empty().delete(TupleKey(10))).unwrap();
        let hits = d.stats().cache_hits;
        assert_eq!(keys(&d.answer(&hit)), vec![11]);
        assert_eq!(keys(&d.answer(&both)), vec![11]);
        assert_eq!(keys(&d.answer(&root)), vec![11, 3]);
        assert_eq!(d.stats().cache_hits, hits + 2, "only the root evaluates cold");
    }

    /// A batch that changes no row reaches no cached answer, not even the
    /// root, which every changed row reaches: after an empty batch and a
    /// batch that fails at its first op, each page is still shared as is.
    #[test]
    fn empty_footprint_affects_nothing() {
        let mut d = db();
        let root = ConjunctiveQuery::select_all();
        let probe = q(&[(1, 0)]);
        let before = [d.answer(&root), d.answer(&probe)];
        let (version, memo) = (d.version(), d.memo_stats());
        d.apply(UpdateBatch::empty()).unwrap();
        let failing = UpdateBatch::empty().delete(TupleKey(99)).insert(row(10, 1, 0, 9.0));
        assert!(d.apply(failing).is_err());
        assert_eq!(d.version(), version);
        assert_eq!(d.memo_stats(), memo);
        for (query, old) in [&root, &probe].into_iter().zip(&before) {
            let hits = d.stats().cache_hits;
            let out = d.answer(query);
            assert_eq!(d.stats().cache_hits, hits + 1);
            assert!(Arc::ptr_eq(page(&out), page(old)), "{query}: page untouched");
        }
    }
}
