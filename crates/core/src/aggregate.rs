//! Aggregate query specifications (§2.2) and per-drill-down
//! Horvitz–Thompson samples.
//!
//! A single-round aggregate is `SELECT AGG(f(t)) FROM D_i WHERE cond`,
//! with `AGG ∈ {COUNT, SUM, AVG}`, `f` any per-tuple function, and `cond`
//! any per-tuple-decidable condition. One drill-down terminating at node
//! `q` yields the unbiased sample `Q(q)/p(q)` (§3.1); we always carry the
//! COUNT and SUM samples together so AVG (their ratio) and selection
//! conditions come for free.
//!
//! ## When the sample comes from a count
//!
//! [`ht_sample`] walks the terminal node's page and adds `1.0` to the
//! count and `f(t)` to the sum for each selected tuple. A spec that
//! **reads no row** ([`AggregateSpec::reads_no_row`]: `f(t) = 1`, no
//! filter, and a condition every node of the tree already fixes, such as
//! `COUNT(*)`, or `COUNT(cond)` over `QueryTree::subtree(cond)`) selects
//! every tuple of every page and adds `1.0` to both sums for each. So
//! both components are `n / p(q)` for a page of `n` tuples, and the
//! estimators drill such a spec by count
//! ([`query_tree::drill::drill_count_from_root`]), which builds no page.
//! The two are bit-identical: `n` additions of `1.0` give exactly `n` for
//! any page size below 2⁵³, and the division by `p(q)` is the same.
//! Every other spec reads the page, since its terms need the rows the
//! same charged query returns.

use std::sync::Arc;

/// Shared per-tuple predicate used as an extra selection filter.
pub type TupleFilter = Arc<dyn Fn(&TupleView<'_>) -> bool + Send + Sync>;

use hidden_db::errors::IssueError;
use hidden_db::query::ConjunctiveQuery;
use hidden_db::session::SearchBackend;
use hidden_db::tuple::TupleView;
use hidden_db::value::MeasureId;
use query_tree::drill::{
    drill_count_from_root, drill_from_root, resume_count_from, resume_from, DrillOutcome,
    ReissuePolicy,
};
use query_tree::signature::Signature;
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

    /// Whether a drill-down's sample over `tree` needs no row of its
    /// terminal page, only how many it holds: `f(t) = 1`, no filter, and
    /// every predicate of the condition fixed in every node of `tree`
    /// (`condition.subsumes(tree.fixed())`), so every returned tuple is
    /// selected and adds exactly `1.0` to both sums (see the module docs).
    pub fn reads_no_row(&self, tree: &QueryTree) -> bool {
        matches!(self.value_fn, TupleFn::One)
            && self.filter.is_none()
            && self.condition.subsumes(tree.fixed())
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

/// One drill-down's terminal depth, sample and query cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drilled {
    pub(crate) depth: usize,
    pub(crate) sample: HtSample,
    pub(crate) cost: u64,
}

/// Drills `sig` for `spec` and takes its sample: from the root, or, with
/// `resume = Some((depth, policy))`, from the previous terminal at
/// `depth`. A spec that reads no row drills by count and its sample is
/// `n / p(q)` in both components; any other drills by page and walks it
/// with [`ht_sample`]. The two give bit-identical samples (see the module
/// docs), and always the same queries, depth and cost.
pub(crate) fn drill_sample<B: SearchBackend + ?Sized>(
    spec: &AggregateSpec,
    tree: &QueryTree,
    sig: &Signature,
    resume: Option<(usize, ReissuePolicy)>,
    backend: &mut B,
) -> Result<Drilled, IssueError> {
    if spec.reads_no_row(tree) {
        let out = match resume {
            None => drill_count_from_root(tree, sig, backend)?,
            Some((depth, policy)) => resume_count_from(tree, sig, depth, policy, backend)?,
        };
        let n = out.count as f64 / tree.selection_probability(out.depth);
        return Ok(Drilled {
            depth: out.depth,
            sample: HtSample { count: n, sum: n },
            cost: out.cost,
        });
    }
    let out = match resume {
        None => drill_from_root(tree, sig, backend)?,
        Some((depth, policy)) => resume_from(tree, sig, depth, policy, backend)?,
    };
    Ok(Drilled { depth: out.depth, sample: ht_sample(spec, tree, &out), cost: out.cost })
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

    /// A spec reads no row only when `f(t) = 1`, it has no filter, and
    /// the tree fixes its whole condition.
    #[test]
    fn reads_no_row_needs_one_no_filter_and_a_fixed_condition() {
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let a0 = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(1))]);
        let both = a0.with(AttrId(1), ValueId(2));
        let (full, under_a0) = (tree(), QueryTree::subtree(&schema, a0.clone()));
        let under_both = QueryTree::subtree(&schema, both.clone());
        assert!(AggregateSpec::count_star().reads_no_row(&full));
        assert!(AggregateSpec::count_star().reads_no_row(&under_a0));
        assert!(AggregateSpec::count_where(a0.clone()).reads_no_row(&under_a0));
        assert!(AggregateSpec::count_where(a0.clone()).reads_no_row(&under_both));
        assert!(!AggregateSpec::count_where(a0.clone()).reads_no_row(&full));
        assert!(!AggregateSpec::count_where(both).reads_no_row(&under_a0));
        let filtered = AggregateSpec::count_star().with_filter(Arc::new(|_: &TupleView<'_>| true));
        assert!(!filtered.reads_no_row(&full));
        assert!(!AggregateSpec::sum_measure(MeasureId(0), a0.clone()).reads_no_row(&under_a0));
        let custom = AggregateSpec {
            value_fn: TupleFn::Custom(Arc::new(|_: &TupleView<'_>| 1.0)),
            ..AggregateSpec::count_star()
        };
        assert!(!custom.reads_no_row(&full), "only `TupleFn::One` is known to be 1");
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
