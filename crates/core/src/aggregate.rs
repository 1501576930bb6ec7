//! Aggregate query specifications (§2.2) and per-drill-down
//! Horvitz–Thompson samples.
//!
//! A single-round aggregate is `SELECT AGG(f(t)) FROM D_i WHERE cond`,
//! with `AGG ∈ {COUNT, SUM, AVG}`, `f` any per-tuple function, and `cond`
//! any per-tuple-decidable condition. One drill-down terminating at node
//! `q` yields the unbiased sample `Q(q)/p(q)` (§3.1); we always carry the
//! COUNT and SUM samples together so AVG (their ratio) and selection
//! conditions come for free.

use std::sync::Arc;

/// Shared per-tuple predicate used as an extra selection filter.
pub type TupleFilter = Arc<dyn Fn(&TupleView<'_>) -> bool + Send + Sync>;

use hidden_db::query::ConjunctiveQuery;
use hidden_db::tuple::TupleView;
use hidden_db::value::MeasureId;
use query_tree::drill::DrillOutcome;
use query_tree::tree::QueryTree;

/// `f(t)`: the per-tuple value a SUM/AVG aggregates.
#[derive(Clone)]
pub enum TupleFn {
    /// `f(t) = 1` (COUNT).
    One,
    /// `f(t) = t[measure]`.
    Measure(MeasureId),
    /// Arbitrary function of the returned tuple.
    Custom(Arc<dyn Fn(&TupleView<'_>) -> f64 + Send + Sync>),
}

impl TupleFn {
    /// Evaluates `f(t)`.
    pub fn eval(&self, t: &TupleView<'_>) -> f64 {
        match self {
            Self::One => 1.0,
            Self::Measure(m) => t.measure(*m),
            Self::Custom(f) => f(t),
        }
    }
}

impl std::fmt::Debug for TupleFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::One => write!(f, "One"),
            Self::Measure(m) => write!(f, "Measure({m})"),
            Self::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Which aggregate function is being tracked (drives reporting and the
/// scalar the RS allocator optimises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` / `COUNT(cond)`.
    Count,
    /// `SUM(f(t))`.
    Sum,
    /// `AVG(f(t))` — the SUM/COUNT ratio; slightly biased, as the paper
    /// notes after Theorem 3.1.
    Avg,
}

/// A tracked aggregate: kind, value function, and selection condition.
#[derive(Clone)]
pub struct AggregateSpec {
    /// COUNT / SUM / AVG.
    pub kind: AggKind,
    /// `f(t)` for SUM/AVG (ignored by COUNT).
    pub value_fn: TupleFn,
    /// Conjunctive selection condition over searchable attributes (empty =
    /// all tuples). May be evaluated per returned tuple *or* baked into the
    /// query tree as a subtree (§3.3) — both are supported and unbiased.
    pub condition: ConjunctiveQuery,
    /// Optional extra per-tuple predicate `g(t)` for conditions that are
    /// not expressible as conjunctive equality (e.g. `price < 100`).
    pub filter: Option<TupleFilter>,
}

impl std::fmt::Debug for AggregateSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregateSpec")
            .field("kind", &self.kind)
            .field("value_fn", &self.value_fn)
            .field("condition", &self.condition)
            .field("filter", &self.filter.as_ref().map(|_| ".."))
            .finish()
    }
}

impl AggregateSpec {
    /// `SELECT COUNT(*) FROM D`.
    pub fn count_star() -> Self {
        Self {
            kind: AggKind::Count,
            value_fn: TupleFn::One,
            condition: ConjunctiveQuery::select_all(),
            filter: None,
        }
    }

    /// `SELECT COUNT(*) FROM D WHERE cond`.
    pub fn count_where(cond: ConjunctiveQuery) -> Self {
        Self { condition: cond, ..Self::count_star() }
    }

    /// `SELECT SUM(measure) FROM D WHERE cond`.
    pub fn sum_measure(m: MeasureId, cond: ConjunctiveQuery) -> Self {
        Self { kind: AggKind::Sum, value_fn: TupleFn::Measure(m), condition: cond, filter: None }
    }

    /// `SELECT AVG(measure) FROM D WHERE cond`.
    pub fn avg_measure(m: MeasureId, cond: ConjunctiveQuery) -> Self {
        Self { kind: AggKind::Avg, value_fn: TupleFn::Measure(m), condition: cond, filter: None }
    }

    /// Adds an arbitrary per-tuple predicate.
    #[must_use]
    pub fn with_filter(mut self, f: TupleFilter) -> Self {
        self.filter = Some(f);
        self
    }

    /// Whether tuple `t` satisfies the selection condition (conjunctive
    /// part and custom filter).
    pub fn selects(&self, t: &TupleView<'_>) -> bool {
        self.condition.matches_values(t.values()) && self.filter.as_ref().is_none_or(|f| f(t))
    }
}

/// One drill-down's Horvitz–Thompson sample: unbiased estimates of the
/// selected COUNT and SUM.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HtSample {
    /// Estimate of `COUNT(cond)` from this drill-down.
    pub count: f64,
    /// Estimate of `SUM(f(t)) WHERE cond` from this drill-down.
    pub sum: f64,
}

impl HtSample {
    /// Component-wise difference (the trans-round change term).
    pub fn diff(self, older: HtSample) -> HtSample {
        HtSample { count: self.count - older.count, sum: self.sum - older.sum }
    }

    /// The scalar the estimator optimises for, per aggregate kind
    /// (AVG targets SUM — the dominant error term of the ratio).
    pub fn scalar(self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.count,
            AggKind::Sum | AggKind::Avg => self.sum,
        }
    }
}

/// Computes the HT sample of a terminal drill-down node:
/// `Σ_{t ∈ q, cond(t)} f(t) / p(q)` and the matching count scaled the same
/// way. Underflow terminals contribute zero. Degenerate overflow terminals
/// (leaf overflow) use the returned page — documented bias, counted by the
/// caller via [`DrillOutcome::outcome`].
pub fn ht_sample(spec: &AggregateSpec, tree: &QueryTree, drill: &DrillOutcome) -> HtSample {
    let p = tree.selection_probability(drill.depth);
    let mut count = 0.0;
    let mut sum = 0.0;
    for t in drill.outcome.tuples() {
        if spec.selects(&t) {
            count += 1.0;
            sum += spec.value_fn.eval(&t);
        }
    }
    HtSample { count: count / p, sum: sum / p }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidden_db::interface::QueryOutcome;
    use hidden_db::query::Predicate;
    use hidden_db::schema::Schema;
    use hidden_db::tuple::TupleView;
    use hidden_db::value::{AttrId, TupleKey, ValueId};

    /// The complete page of `rows` (key, values, price). Pages are built
    /// by the database, so build through a tiny throwaway one.
    fn page(rows: &[(u64, [u32; 2], f64)]) -> QueryOutcome {
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let mut db = hidden_db::database::HiddenDatabase::new(
            schema,
            10,
            hidden_db::ranking::ScoringPolicy::default(),
        );
        for &(key, vals, price) in rows {
            db.insert(hidden_db::tuple::Tuple::new(
                TupleKey(key),
                vals.iter().map(|&v| ValueId(v)).collect(),
                vec![price],
            ))
            .unwrap();
        }
        db.answer(&ConjunctiveQuery::select_all())
    }

    /// Whether `spec` selects the one tuple `(key, vals, price)`.
    fn selects(spec: &AggregateSpec, key: u64, vals: [u32; 2], price: f64) -> bool {
        let out = page(&[(key, vals, price)]);
        let t = out.tuples().next().unwrap();
        spec.selects(&t)
    }

    fn tree() -> QueryTree {
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        QueryTree::full(&schema)
    }

    #[test]
    fn tuple_fn_eval() {
        let out = page(&[(1, [0, 2], 25.0)]);
        let t = out.tuples().next().unwrap();
        assert_eq!(TupleFn::One.eval(&t), 1.0);
        assert_eq!(TupleFn::Measure(MeasureId(0)).eval(&t), 25.0);
        let double = TupleFn::Custom(Arc::new(|t: &TupleView<'_>| 2.0 * t.measure(MeasureId(0))));
        assert_eq!(double.eval(&t), 50.0);
    }

    #[test]
    fn selection_condition_and_filter() {
        let spec = AggregateSpec::count_where(ConjunctiveQuery::from_predicates([Predicate::new(
            AttrId(0),
            ValueId(0),
        )]));
        assert!(selects(&spec, 1, [0, 1], 5.0));
        assert!(!selects(&spec, 2, [1, 1], 5.0));
        let spec = spec.with_filter(Arc::new(|t: &TupleView<'_>| t.measure(MeasureId(0)) > 10.0));
        assert!(!selects(&spec, 3, [0, 1], 5.0));
        assert!(selects(&spec, 4, [0, 1], 15.0));
    }

    #[test]
    fn ht_sample_scales_by_inverse_probability() {
        let tr = tree();
        let outcome = page(&[(1, [0, 0], 10.0), (2, [0, 0], 30.0)]);
        assert!(outcome.is_valid());
        let drill = DrillOutcome { depth: 2, outcome, cost: 3 };
        // p(depth 2) = 1/(2·3) = 1/6.
        let spec = AggregateSpec::sum_measure(MeasureId(0), ConjunctiveQuery::select_all());
        let s = ht_sample(&spec, &tr, &drill);
        assert!((s.count - 12.0).abs() < 1e-9);
        assert!((s.sum - 240.0).abs() < 1e-9);
    }

    #[test]
    fn ht_sample_underflow_is_zero() {
        let tr = tree();
        let drill = DrillOutcome { depth: 1, outcome: QueryOutcome::Underflow, cost: 2 };
        let s = ht_sample(&AggregateSpec::count_star(), &tr, &drill);
        assert_eq!(s, HtSample::default());
    }

    #[test]
    fn ht_sample_applies_condition() {
        let tr = tree();
        let outcome = page(&[(1, [0, 0], 10.0), (2, [1, 0], 30.0)]);
        assert!(outcome.is_valid());
        let drill = DrillOutcome { depth: 0, outcome, cost: 1 };
        let spec = AggregateSpec::count_where(ConjunctiveQuery::from_predicates([Predicate::new(
            AttrId(0),
            ValueId(1),
        )]));
        let s = ht_sample(&spec, &tr, &drill);
        assert_eq!(s.count, 1.0); // p(root) = 1
    }

    #[test]
    fn sample_diff_and_scalar() {
        let a = HtSample { count: 10.0, sum: 100.0 };
        let b = HtSample { count: 4.0, sum: 90.0 };
        let d = a.diff(b);
        assert_eq!(d.count, 6.0);
        assert_eq!(d.sum, 10.0);
        assert_eq!(a.scalar(AggKind::Count), 10.0);
        assert_eq!(a.scalar(AggKind::Sum), 100.0);
        assert_eq!(a.scalar(AggKind::Avg), 100.0);
    }
}
