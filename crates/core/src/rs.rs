//! RS-ESTIMATOR (§4, Algorithm 2): reservoir-inspired adaptive tracking.
//!
//! Each round:
//!
//! 1. **Bootstrap** — run `ϖ` pilot drill-downs per *age group* (records
//!    grouped by the round they were last updated) plus `ϖ` fresh pilots,
//!    measuring per-group update cost `g_x` and change variance `α_x`.
//! 2. **Allocate** — distribute the remaining budget between updating old
//!    drill-downs and starting new ones by the water-filling solution of
//!    Corollaries 4.1/4.3 (`agg_stats::allocation`).
//! 3. **Execute** — draw the planned updates/fresh drills in random order
//!    until the budget is gone (randomness keeps partial execution
//!    unbiased).
//! 4. **Combine** — each group yields `Q̃_x + mean(Δ)` with variance
//!    `β_x + α_x/c_x`; groups are merged by inverse-variance weighting
//!    (Corollary 4.2) and the result is published as this round's
//!    estimate (becoming the `β` of future rounds).
//!
//! The estimator can optimise its budget split for either the current
//! value of the aggregate or its round-over-round change
//! ([`TrackingTarget`]); for change tracking the `x = j−1` group becomes
//! the zero-`β` "golden" group — paired differences need no base estimate.

use agg_stats::allocation::{allocate, GroupParams};
use agg_stats::moments::RunningMoments;
use agg_stats::weighted::{combine, Component};
use hidden_db::errors::IssueError;
use hidden_db::session::SearchBackend;
use query_tree::drill::{drill_from_root, resume_from, ReissuePolicy};
use query_tree::signature::Signature;
use query_tree::tree::QueryTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::aggregate::{ht_sample, AggKind, AggregateSpec, HtSample};
use crate::estimator::{Estimator, SampleMoments};
use crate::record::{group_by_age, DrillRecord};
use crate::report::{EstimateWithVar, RoundReport};
use crate::transround::DegradationLog;

/// What the allocator optimises for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingTarget {
    /// Minimise the variance of the current-round estimate `Q(D_j)`.
    #[default]
    Current,
    /// Minimise the variance of the change estimate `Q(D_j) − Q(D_{j−1})`
    /// (Figs 15–17's trans-round workload).
    Change,
}

/// RS-ESTIMATOR configuration.
#[derive(Debug, Clone, Copy)]
pub struct RsConfig {
    /// `ϖ`: pilot drill-downs per age group per round (paper default 10).
    pub pilot_per_group: usize,
    /// Reissue policy for updates (Strict = unbiased).
    pub policy: ReissuePolicy,
    /// Allocation target.
    pub target: TrackingTarget,
    /// Minimum weight given to the current round's *fresh* evidence in the
    /// final combination, in `[0, 1)`.
    ///
    /// Deviation from the paper: with
    /// heavy-tailed HT samples the plug-in variance estimates correlate
    /// with the estimates themselves, so pure inverse-variance weighting
    /// can lock onto an unlucky early round (its low estimate ships with
    /// a low variance estimate and is trusted forever). Flooring the
    /// fresh-evidence weight makes any initial bias decay geometrically
    /// at `(1 − floor)` per round while leaving well-behaved workloads
    /// essentially untouched. Set to 0.0 for the paper's exact rule.
    pub fresh_weight_floor: f64,
    /// Per-round-of-staleness variance inflation (process noise), as a
    /// fraction `κ` of the fresh evidence's variance-of-mean.
    ///
    /// Deviation from the paper: a group last
    /// updated at round `x` contributes `Q̃_x + mean(Δ)` whose claimed
    /// variance relies on `ϖ` pilot diffs. Change in a hidden database is
    /// heavy-tailed (a diff is usually 0, occasionally ±huge), so pilots
    /// routinely miss it and the plug-in variance understates reality —
    /// the classic Kalman-filter divergence mode under underestimated
    /// process noise. We therefore inflate each group's base variance by
    /// `(j − x) · κ · varF`, where `varF` is the most recent fresh
    /// variance-of-mean. Set to 0.0 for the paper's exact rule.
    pub process_noise: f64,
    /// Records not updated for more than this many rounds are evicted
    /// from the pool (reservoir spirit: the sample forgets the distant
    /// past). Without eviction the number of age groups grows with the
    /// round index and Algorithm 2's per-group pilots (`ϖ · j`) eventually
    /// consume the whole budget. Set high to approximate the paper's
    /// unbounded pool.
    pub max_staleness: u32,
    /// Cap on the fraction of the round budget spent on bootstrap pilots
    /// (the drills of Algorithm 2 lines 3–7), so piloting many groups
    /// cannot starve the allocation phase.
    pub pilot_budget_frac: f64,
}

impl Default for RsConfig {
    fn default() -> Self {
        Self {
            pilot_per_group: 10,
            policy: ReissuePolicy::Strict,
            target: TrackingTarget::Current,
            fresh_weight_floor: 0.2,
            process_noise: 0.1,
            max_staleness: 6,
            pilot_budget_frac: 0.25,
        }
    }
}

/// Published per-round estimates (the `Q̃_x` / `ε_x²` history).
#[derive(Debug, Clone, Copy)]
struct RoundEstimate {
    count: EstimateWithVar,
    sum: EstimateWithVar,
}

impl RoundEstimate {
    fn scalar(&self, kind: AggKind) -> EstimateWithVar {
        match kind {
            AggKind::Count => self.count,
            AggKind::Sum | AggKind::Avg => self.sum,
        }
    }
}

/// Per-group working state for one round.
#[derive(Debug, Default)]
struct GroupWork {
    /// Pool indices not yet updated this round (shuffled).
    remaining: Vec<usize>,
    /// Paired differences (new − old) of records updated this round.
    diffs: SampleMoments,
    /// Observed update costs.
    costs: RunningMoments,
}

/// The reservoir-style estimator.
#[derive(Debug)]
pub struct RsEstimator {
    spec: AggregateSpec,
    tree: QueryTree,
    config: RsConfig,
    rng: StdRng,
    pool: Vec<DrillRecord>,
    round: u32,
    /// `history[x−1]` = estimates published at round `x`.
    history: Vec<RoundEstimate>,
    /// Variance-of-mean of the latest round's fresh drill-downs
    /// (count, sum) — the scale for process-noise inflation.
    last_fresh_vom: Option<(f64, f64)>,
    degradation: DegradationLog,
}

impl RsEstimator {
    /// Creates the estimator with default configuration.
    pub fn new(spec: AggregateSpec, tree: QueryTree, seed: u64) -> Self {
        Self::with_config(spec, tree, seed, RsConfig::default())
    }

    /// Creates the estimator with explicit configuration.
    pub fn with_config(spec: AggregateSpec, tree: QueryTree, seed: u64, config: RsConfig) -> Self {
        Self {
            spec,
            tree,
            config,
            rng: StdRng::seed_from_u64(seed),
            pool: Vec::new(),
            round: 0,
            history: Vec::new(),
            last_fresh_vom: None,
            degradation: DegradationLog::new(),
        }
    }

    /// Process-noise inflation for a group last updated at `group_round`,
    /// per component: `(j − x) · κ · varF`.
    fn staleness_inflation(&self, group_round: u32, j: u32) -> (f64, f64) {
        let gap = (j - group_round) as f64;
        match self.last_fresh_vom {
            Some((c, s)) if self.config.process_noise > 0.0 => {
                let k = self.config.process_noise;
                (gap * k * c, gap * k * s)
            }
            _ => (0.0, 0.0),
        }
    }

    /// Number of drill-downs currently remembered.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Updates one record, returning the paired difference and cost.
    fn update_record(
        tree: &QueryTree,
        spec: &AggregateSpec,
        policy: ReissuePolicy,
        pool: &mut [DrillRecord],
        idx: usize,
        j: u32,
        backend: &mut dyn SearchBackend,
    ) -> Result<(HtSample, u64), IssueError> {
        let rec = &mut pool[idx];
        let out = resume_from(tree, &rec.sig, rec.depth, policy, backend)?;
        let sample = ht_sample(spec, tree, &out);
        let diff = sample.diff(rec.sample);
        rec.depth = out.depth;
        rec.sample = sample;
        rec.round = j;
        Ok((diff, out.cost))
    }

    /// Runs one fresh drill-down, returning its sample and cost, and
    /// appending the record.
    fn fresh_drill(
        tree: &QueryTree,
        spec: &AggregateSpec,
        pool: &mut Vec<DrillRecord>,
        rng: &mut StdRng,
        j: u32,
        backend: &mut dyn SearchBackend,
    ) -> Result<(HtSample, u64), IssueError> {
        let sig = Signature::sample(tree, rng);
        let out = drill_from_root(tree, &sig, backend)?;
        let sample = ht_sample(spec, tree, &out);
        pool.push(DrillRecord::new(sig, out.depth, j, sample));
        Ok((sample, out.cost))
    }

    /// The β of a group for the allocator, per tracking target, including
    /// process-noise inflation for stale groups.
    fn group_beta(&self, group_round: u32, j: u32) -> f64 {
        let kind = self.spec.kind;
        let hist_var = |x: u32| -> f64 {
            self.history
                .get(x as usize - 1)
                .map(|h| h.scalar(kind).variance)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0)
        };
        let (inf_c, inf_s) = self.staleness_inflation(group_round, j);
        let inflation = match kind {
            AggKind::Count => inf_c,
            AggKind::Sum | AggKind::Avg => inf_s,
        };
        match self.config.target {
            TrackingTarget::Current => hist_var(group_round) + inflation,
            TrackingTarget::Change => {
                if group_round == j - 1 {
                    0.0
                } else {
                    hist_var(group_round) + hist_var(j - 1) + inflation
                }
            }
        }
    }
}

/// Builds a group's estimate component of `Q(D_j)`:
/// `Q̃_x + mean(Δ)` with variance `ε_x² + inflation + var(mean Δ)`.
fn group_component(
    base: EstimateWithVar,
    inflation: f64,
    diffs: &RunningMoments,
) -> Option<Component> {
    let mean = diffs.mean()?;
    let vom = diffs.variance_of_mean().unwrap_or(f64::INFINITY);
    if !base.is_usable() {
        return None;
    }
    Some(Component::new(base.value + mean, base.variance + inflation + vom))
}

impl Estimator for RsEstimator {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn spec(&self) -> &AggregateSpec {
        &self.spec
    }

    fn run_round(&mut self, backend: &mut dyn SearchBackend) -> RoundReport {
        self.round += 1;
        let j = self.round;
        self.degradation.begin_round();
        let kind = self.spec.kind;
        let policy = self.config.policy;

        // ---- group setup -------------------------------------------------
        // Reservoir-style forgetting: drop records whose last update is
        // too far in the past (see RsConfig::max_staleness).
        self.pool.retain(|r| j.saturating_sub(r.round) <= self.config.max_staleness);
        let mut groups: Vec<(u32, GroupWork)> = group_by_age(&self.pool)
            .into_iter()
            .map(|(x, mut idxs)| {
                idxs.shuffle(&mut self.rng);
                (x, GroupWork { remaining: idxs, ..GroupWork::default() })
            })
            .collect();
        let mut fresh = SampleMoments::default();
        let mut fresh_costs = RunningMoments::new();
        let mut updated = 0usize;
        let mut initiated = 0usize;
        let mut exhausted = false;

        // ---- phase 1: bootstrap pilots (Algorithm 2, lines 3–7) ----------
        // Pilot *drills* are capped to a fraction of the budget (assuming
        // ≈2 queries per update) so many age groups cannot starve phase 3.
        let mut pilot_drills_left =
            (((self.config.pilot_budget_frac * backend.remaining() as f64) / 2.0).ceil() as usize)
                .max(self.config.pilot_per_group);
        'pilot: {
            for (_x, work) in groups.iter_mut() {
                let quota =
                    self.config.pilot_per_group.min(work.remaining.len()).min(pilot_drills_left);
                for _ in 0..quota {
                    let idx = work.remaining.pop().expect("quota bounds the loop");
                    pilot_drills_left = pilot_drills_left.saturating_sub(1);
                    match Self::update_record(
                        &self.tree,
                        &self.spec,
                        policy,
                        &mut self.pool,
                        idx,
                        j,
                        backend,
                    ) {
                        Ok((diff, cost)) => {
                            work.diffs.push(diff);
                            work.costs.push(cost as f64);
                            updated += 1;
                        }
                        Err(e) => {
                            self.degradation.interrupted(backend.remaining(), !e.is_budget());
                            exhausted = true;
                            break 'pilot;
                        }
                    }
                }
            }
            for _ in 0..self.config.pilot_per_group {
                match Self::fresh_drill(
                    &self.tree,
                    &self.spec,
                    &mut self.pool,
                    &mut self.rng,
                    j,
                    backend,
                ) {
                    Ok((sample, cost)) => {
                        fresh.push(sample);
                        fresh_costs.push(cost as f64);
                        initiated += 1;
                    }
                    Err(e) => {
                        self.degradation.interrupted(backend.remaining(), !e.is_budget());
                        exhausted = true;
                        break 'pilot;
                    }
                }
            }
        }

        // ---- phase 2: allocation (Corollary 4.3) -------------------------
        if !exhausted && backend.remaining() > 0 {
            let fresh_alpha = match kind {
                AggKind::Count => fresh.count.sample_variance(),
                _ => fresh.sum.sample_variance(),
            }
            .unwrap_or(1.0)
            .max(agg_stats::allocation::ALPHA_FLOOR);
            let mut params: Vec<GroupParams> = Vec::with_capacity(groups.len() + 1);
            for (x, work) in &groups {
                let scalar_diffs = match kind {
                    AggKind::Count => &work.diffs.count,
                    _ => &work.diffs.sum,
                };
                let alpha = scalar_diffs.sample_variance().unwrap_or(fresh_alpha);
                let beta = self.group_beta(*x, j);
                let cost = work.costs.mean().unwrap_or(3.0).max(1.0);
                params.push(GroupParams::new(alpha, beta, cost, work.remaining.len() as f64));
            }
            let fresh_beta = match self.config.target {
                TrackingTarget::Current => 0.0,
                // For change tracking a fresh drill-down estimates
                // Q(D_j) − Q̃_{j−1}, so it inherits var(Q̃_{j−1}).
                // No history exists in round 1.
                TrackingTarget::Change if j >= 2 => self
                    .history
                    .get(j as usize - 2)
                    .map(|h| h.scalar(kind).variance)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
                TrackingTarget::Change => 0.0,
            };
            params.push(GroupParams::new(
                fresh_alpha,
                fresh_beta,
                fresh_costs.mean().unwrap_or(4.0).max(1.0),
                f64::INFINITY,
            ));
            let alloc = allocate(&params, backend.remaining() as f64);

            // ---- phase 3: pooled execution in random order (line 8) ------
            enum Plan {
                Update { group: usize, idx: usize },
                Fresh,
            }
            let mut plan: Vec<Plan> = Vec::new();
            for (gi, (_x, work)) in groups.iter_mut().enumerate() {
                let want = alloc[gi].round() as usize;
                for _ in 0..want.min(work.remaining.len()) {
                    let idx = work.remaining.pop().expect("min() bounds the loop");
                    plan.push(Plan::Update { group: gi, idx });
                }
            }
            // Fresh quota plus slack to soak leftover budget.
            let fresh_want = alloc[groups.len()].ceil() as usize + 4;
            for _ in 0..fresh_want {
                plan.push(Plan::Fresh);
            }
            plan.shuffle(&mut self.rng);
            for item in plan {
                if backend.remaining() == 0 {
                    break;
                }
                match item {
                    Plan::Update { group, idx } => {
                        match Self::update_record(
                            &self.tree,
                            &self.spec,
                            policy,
                            &mut self.pool,
                            idx,
                            j,
                            backend,
                        ) {
                            Ok((diff, cost)) => {
                                groups[group].1.diffs.push(diff);
                                groups[group].1.costs.push(cost as f64);
                                updated += 1;
                            }
                            Err(e) => {
                                self.degradation.interrupted(backend.remaining(), !e.is_budget());
                                break;
                            }
                        }
                    }
                    Plan::Fresh => {
                        match Self::fresh_drill(
                            &self.tree,
                            &self.spec,
                            &mut self.pool,
                            &mut self.rng,
                            j,
                            backend,
                        ) {
                            Ok((sample, cost)) => {
                                fresh.push(sample);
                                fresh_costs.push(cost as f64);
                                initiated += 1;
                            }
                            Err(e) => {
                                self.degradation.interrupted(backend.remaining(), !e.is_budget());
                                break;
                            }
                        }
                    }
                }
            }
            // Any remaining budget: keep drilling fresh.
            while backend.remaining() > 0 {
                match Self::fresh_drill(
                    &self.tree,
                    &self.spec,
                    &mut self.pool,
                    &mut self.rng,
                    j,
                    backend,
                ) {
                    Ok((sample, cost)) => {
                        fresh.push(sample);
                        fresh_costs.push(cost as f64);
                        initiated += 1;
                    }
                    Err(e) => {
                        self.degradation.interrupted(backend.remaining(), !e.is_budget());
                        break;
                    }
                }
            }
        }

        // ---- phase 4: combination (Corollary 4.2) ------------------------
        let mut count_components: Vec<Component> = Vec::new();
        let mut sum_components: Vec<Component> = Vec::new();
        for (x, work) in &groups {
            let Some(base) = self.history.get(*x as usize - 1) else { continue };
            let (inf_c, inf_s) = self.staleness_inflation(*x, j);
            if let Some(c) = group_component(base.count, inf_c, &work.diffs.count) {
                count_components.push(c);
            }
            if let Some(c) = group_component(base.sum, inf_s, &work.diffs.sum) {
                sum_components.push(c);
            }
        }
        // Direct evidence for the current round: the plain HT mean over
        // *every* drill-down whose sample is current (updated + fresh) —
        // the REISSUE-style estimate. It subsumes the fresh-only component
        // and anchors the combination when the chain misbehaves.
        let mut pooled = SampleMoments::default();
        for rec in &self.pool {
            if rec.round == j {
                pooled.push(rec.sample);
            }
        }
        let fresh_count = (pooled.n() > 0).then(|| pooled.count_estimate());
        let fresh_sum = (pooled.n() > 0).then(|| pooled.sum_estimate());
        let fallback = |prev: Option<&RoundEstimate>,
                        pick: fn(&RoundEstimate) -> EstimateWithVar| {
            // Nothing usable this round: carry the previous estimate with
            // inflated variance (better than reporting nothing).
            prev.map(|h| {
                let e = pick(h);
                EstimateWithVar::new(e.value, e.variance * 2.0)
            })
            .unwrap_or_else(EstimateWithVar::unknown)
        };
        let floor = self.config.fresh_weight_floor.clamp(0.0, 0.99);
        let merge = |hist_comps: &[Component], fresh_est: Option<EstimateWithVar>| {
            let hist = combine(hist_comps);
            let fresh_usable = fresh_est.filter(|e| e.is_usable() && e.variance.is_finite());
            match (hist, fresh_usable) {
                (Some(h), Some(f)) => {
                    // Optimal fresh weight, floored (see RsConfig docs).
                    let lambda = if h.variance + f.variance > 0.0 {
                        (h.variance / (h.variance + f.variance)).max(floor)
                    } else {
                        floor
                    };
                    Some(EstimateWithVar::new(
                        (1.0 - lambda) * h.estimate + lambda * f.value,
                        (1.0 - lambda).powi(2) * h.variance + lambda.powi(2) * f.variance,
                    ))
                }
                (Some(h), None) => Some(EstimateWithVar::new(h.estimate, h.variance)),
                (None, Some(f)) => Some(f),
                (None, None) => None,
            }
        };
        let count_est = merge(&count_components, fresh_count)
            .unwrap_or_else(|| fallback(self.history.last(), |h| h.count));
        let sum_est = merge(&sum_components, fresh_sum)
            .unwrap_or_else(|| fallback(self.history.last(), |h| h.sum));

        // ---- trans-round change (for Figs 15–17) --------------------------
        let mut change_count = None;
        let mut change_sum = None;
        if j >= 2 {
            if let Some(prev) = self.history.get(j as usize - 2) {
                let mk_change = |direct: Option<Component>,
                                 others: &[Component],
                                 prev: EstimateWithVar|
                 -> Option<EstimateWithVar> {
                    let mut comps: Vec<Component> = Vec::new();
                    if let Some(d) = direct {
                        comps.push(d);
                    }
                    // Indirect: (other-group estimate of Q_j) − Q̃_{j−1}.
                    if prev.is_usable() {
                        if let Some(o) = combine(others) {
                            comps.push(Component::new(
                                o.estimate - prev.value,
                                o.variance + prev.variance,
                            ));
                        }
                    }
                    combine(&comps).map(|c| EstimateWithVar::new(c.estimate, c.variance))
                };
                // Direct components: paired diffs of the (j−1) group.
                let direct_of = |pick: fn(&GroupWork) -> &RunningMoments| {
                    groups.iter().find(|(x, _)| *x == j - 1).and_then(|(_, w)| {
                        let m = pick(w);
                        let mean = m.mean()?;
                        let vom = m.variance_of_mean().unwrap_or(f64::INFINITY);
                        Some(Component::new(mean, vom))
                    })
                };
                // Indirect pool: fresh samples only (old groups' indirect
                // paths share Q̃ bases with the direct one — excluded to
                // avoid double-counting correlated information).
                let fresh_count_comp: Vec<Component> = if fresh.n() > 1 {
                    let e = fresh.count_estimate();
                    vec![Component::new(e.value, e.variance)]
                } else {
                    vec![]
                };
                let fresh_sum_comp: Vec<Component> = if fresh.n() > 1 {
                    let e = fresh.sum_estimate();
                    vec![Component::new(e.value, e.variance)]
                } else {
                    vec![]
                };
                change_count =
                    mk_change(direct_of(|w| &w.diffs.count), &fresh_count_comp, prev.count);
                change_sum = mk_change(direct_of(|w| &w.diffs.sum), &fresh_sum_comp, prev.sum);
            }
        }

        // Record this round's direct-evidence variance-of-mean as the
        // process-noise scale for future staleness inflation.
        if let (Some(c), Some(s)) = (pooled.count.variance_of_mean(), pooled.sum.variance_of_mean())
        {
            self.last_fresh_vom = Some((c, s));
        }

        self.history.push(RoundEstimate { count: count_est, sum: sum_est });
        RoundReport {
            round: j,
            queries_spent: backend.spent(),
            updated,
            initiated,
            count: count_est,
            sum: sum_est,
            change_count,
            change_sum,
            degraded: self.degradation.tag(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grow, hashed_db, shrink};
    use hidden_db::session::SearchSession;

    #[test]
    fn round_one_is_fresh_only() {
        let mut db = hashed_db(100, 16, 0);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 5);
        let mut s = SearchSession::new(&mut db, 300);
        let r = est.run_round(&mut s);
        assert_eq!(r.updated, 0);
        assert!(r.initiated > 20);
        let rel = (r.count.value - 100.0).abs() / 100.0;
        assert!(rel < 0.4, "round-1 rel err {rel}");
    }

    #[test]
    fn no_change_shifts_budget_to_fresh_drills() {
        // With σc² ≈ 0, Corollary 4.1 ⇒ h1 ≈ 0: beyond pilots, almost all
        // budget must go to new drill-downs.
        let mut db = hashed_db(100, 16, 1);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 6);
        {
            let mut s = SearchSession::new(&mut db, 250);
            est.run_round(&mut s);
        }
        let mut s = SearchSession::new(&mut db, 250);
        let r = est.run_round(&mut s);
        assert!(
            r.updated <= est.config.pilot_per_group + 2,
            "unchanged db: only pilots should update, got {}",
            r.updated
        );
        assert!(r.initiated > 20, "fresh drills should dominate, got {}", r.initiated);
    }

    #[test]
    fn heavy_change_updates_more_than_pilots() {
        let mut db = hashed_db(150, 8, 2);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 7);
        {
            let mut s = SearchSession::new(&mut db, 400);
            est.run_round(&mut s);
        }
        // Drastic change: delete a third, add many.
        shrink(&mut db, 50);
        grow(&mut db, 5_000, 60);
        let mut s = SearchSession::new(&mut db, 400);
        let r = est.run_round(&mut s);
        assert!(
            r.updated > est.config.pilot_per_group,
            "drastic change must trigger extra updates beyond pilots, got {}",
            r.updated
        );
    }

    #[test]
    fn estimate_stays_accurate_over_rounds() {
        let mut db = hashed_db(120, 16, 3);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 8);
        let mut last_rel = f64::NAN;
        for round in 0..5 {
            grow(&mut db, 10_000 + round * 100, 5);
            let truth = db.len() as f64;
            let mut s = SearchSession::new(&mut db, 200);
            let r = est.run_round(&mut s);
            last_rel = (r.count.value - truth).abs() / truth;
        }
        assert!(last_rel < 0.25, "round-5 relative error {last_rel}");
    }

    #[test]
    fn variance_decreases_when_database_is_static() {
        let mut db = hashed_db(100, 16, 4);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 9);
        let mut variances = Vec::new();
        for _ in 0..4 {
            let mut s = SearchSession::new(&mut db, 250);
            let r = est.run_round(&mut s);
            variances.push(r.count.variance);
        }
        assert!(
            variances.last().unwrap() < variances.first().unwrap(),
            "published variance should fall on a static db: {variances:?}"
        );
    }

    #[test]
    fn change_estimate_present_from_round_two() {
        let mut db = hashed_db(100, 16, 5);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::with_config(
            AggregateSpec::count_star(),
            tree,
            10,
            RsConfig { target: TrackingTarget::Change, ..RsConfig::default() },
        );
        {
            let mut s = SearchSession::new(&mut db, 250);
            let r = est.run_round(&mut s);
            assert!(r.change_count.is_none());
        }
        grow(&mut db, 9_000, 25);
        let mut s = SearchSession::new(&mut db, 250);
        let r = est.run_round(&mut s);
        let ch = r.change_count.expect("change estimate from round 2");
        assert!(ch.value.is_finite());
        // Direct diffs dominate: estimate should be in a sane band around
        // the truth (+25) — generous tolerance, it's one noisy round.
        assert!((ch.value - 25.0).abs() < 40.0, "change {}", ch.value);
    }

    #[test]
    fn tiny_budget_still_reports_without_panic() {
        let mut db = hashed_db(80, 8, 6);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 11);
        {
            let mut s = SearchSession::new(&mut db, 100);
            est.run_round(&mut s);
        }
        // Budget so small the pilots themselves die.
        let mut s = SearchSession::new(&mut db, 3);
        let r = est.run_round(&mut s);
        assert!(r.queries_spent <= 3);
        // Falls back to carried-forward estimate.
        assert!(r.count.value.is_finite());
    }

    #[test]
    fn fault_interruption_is_tagged_and_pool_stays_resumable() {
        use hidden_db::fault::{FaultKind, FaultSchedule, FaultyBackend};

        let mut db = hashed_db(100, 16, 8);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 14);
        {
            let mut s = SearchSession::new(&mut db, 200);
            let r = est.run_round(&mut s);
            assert!(r.degraded.is_none());
        }
        let pool = est.pool_size();
        let depths: Vec<usize> = est.pool.iter().map(|r| r.depth).collect();
        // Round 2 dies on its very first query (a pilot update) with no
        // recovery layer: the round must still report, tagged.
        let r = {
            let s = SearchSession::new(&mut db, 200);
            let schedule = FaultSchedule::always(FaultKind::Http5xx).with_max_consecutive(u32::MAX);
            let mut faulty = FaultyBackend::new(s, schedule);
            est.run_round(&mut faulty)
        };
        assert!(r.degraded.is_some());
        assert!(r.count.value.is_finite(), "carried-forward estimate expected");
        // Pool untouched (minus staleness eviction, inactive after 1 gap):
        // every record keeps its depth — resumable exactly as after
        // budget exhaustion.
        assert_eq!(est.pool_size(), pool);
        assert!(est.pool.iter().map(|r| r.depth).eq(depths.into_iter()));
        // A clean round resumes normally and keeps the cumulative tag.
        let mut s = SearchSession::new(&mut db, 200);
        let r3 = est.run_round(&mut s);
        assert!(r3.updated > 0);
        assert_eq!(r3.degraded, r.degraded);
    }

    #[test]
    fn pool_membership_moves_groups() {
        let mut db = hashed_db(100, 16, 7);
        let tree = QueryTree::full(&db.schema().clone());
        let mut est = RsEstimator::new(AggregateSpec::count_star(), tree, 12);
        for _ in 0..3 {
            let mut s = SearchSession::new(&mut db, 150);
            est.run_round(&mut s);
        }
        // Every record must be stamped with some round ≤ 3, and at least
        // one record must be current (round 3: the fresh pilots).
        assert!(est.pool.iter().all(|r| r.round >= 1 && r.round <= 3));
        assert!(est.pool.iter().any(|r| r.round == 3));
    }
}
