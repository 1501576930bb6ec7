//! Fault injection and recovery across the interface boundary.
//!
//! The paper's setting is a *remote* restrictive interface (§2.1) — a
//! real crawler of hidden databases sees timeouts, throttling, dropped
//! pages, and transient server errors, not the perfect in-process oracle
//! the rest of this crate provides. This module makes those failure
//! modes injectable and survivable:
//!
//! * [`FaultSchedule`] — a seeded, fully deterministic per-query fault
//!   plan: whether attempt `i` faults, and how, is a pure function of
//!   `(seed, i)`. A burst cap (`max_consecutive`) guarantees that a
//!   schedule is *recoverable*: after at most `max_consecutive` faults
//!   in a row the next attempt is forced through, so any retry layer
//!   willing to retry that many times always eventually succeeds.
//! * [`FaultyBackend`] — wraps any [`SearchBackend`] and injects the
//!   scheduled faults. Every fault kind surfaces as an **error**
//!   ([`IssueError`]), never as a corrupted answer: a truncated or empty
//!   page is detectable and retryable, so faults may consume budget but
//!   can never silently change an estimate. Charging semantics mirror a
//!   real interface: server errors, timeouts, and dropped pages charge
//!   the query (the server did the work); a rate-limit rejection does
//!   not; a [`TransientFault::ChargedNoAnswer`] fault charges **twice**
//!   (the "repeated charge without an answer" failure mode).
//! * [`ResilientBackend`] — the recovery layer: bounded retries with
//!   deterministic exponential backoff + jitter (from its own seeded RNG
//!   stream), rate-limit honoring (`retry_after`), and a per-query
//!   deadline in simulated ticks. Budget accounting stays honest: every
//!   retry that reaches the interface charges `G` exactly as a first
//!   attempt would, and [`RecoveryStats`] reports the queries burned.
//!
//! Determinism: both layers are pure functions of their seeds and the
//! call sequence. Two runs over the same inner backend with the same
//! schedule and policy produce bit-identical outcomes, and a *recovered*
//! run's successful answers are exactly the answers the fault-free run
//! would have produced (the inner backend is consulted for every real
//! answer; injection only wraps it).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::errors::{IssueError, TransientFault};
use crate::interface::QueryOutcome;
use crate::query::ConjunctiveQuery;
use crate::schema::Schema;
use crate::session::SearchBackend;

/// The injectable failure modes. Each maps onto one [`IssueError`]
/// variant (see [`FaultKind::to_error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Server-side 5xx: charged, no answer.
    Http5xx,
    /// Query timed out: charged, no answer.
    Timeout,
    /// Throttled: rejected without charging, with a retry-after hint.
    RateLimit,
    /// Result page truncated in transit: charged, detectable, retryable.
    TruncatedPage,
    /// Result page lost entirely: charged, detectable, retryable.
    EmptyPage,
    /// Charged twice without ever delivering the answer.
    ChargedNoAnswer,
}

impl FaultKind {
    const ALL: [FaultKind; 6] = [
        FaultKind::Http5xx,
        FaultKind::Timeout,
        FaultKind::RateLimit,
        FaultKind::TruncatedPage,
        FaultKind::EmptyPage,
        FaultKind::ChargedNoAnswer,
    ];

    /// How many times this fault charges the inner budget.
    fn charges(self) -> u32 {
        match self {
            FaultKind::RateLimit => 0,
            FaultKind::ChargedNoAnswer => 2,
            _ => 1,
        }
    }

    /// The error an interface raising this fault reports, given the
    /// schedule's `retry_after` hint.
    pub fn to_error(self, retry_after: u32) -> IssueError {
        match self {
            FaultKind::Http5xx => IssueError::Transient(TransientFault::Http5xx),
            FaultKind::Timeout => IssueError::Timeout,
            FaultKind::RateLimit => IssueError::RateLimited { retry_after },
            FaultKind::TruncatedPage => IssueError::Transient(TransientFault::TruncatedPage),
            FaultKind::EmptyPage => IssueError::Transient(TransientFault::EmptyPage),
            FaultKind::ChargedNoAnswer => IssueError::Transient(TransientFault::ChargedNoAnswer),
        }
    }
}

/// A seeded, fully deterministic fault plan.
///
/// Whether (and how) attempt `i` faults is a pure function of the seed
/// and `i` — no hidden state, so any two backends driven by equal
/// schedules inject identical faults, and a run can be replayed exactly
/// from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    rate: f64,
    /// Force success once this many faults landed in a row — the
    /// recoverability guarantee.
    max_consecutive: u32,
    /// The `retry_after` hint attached to rate-limit faults.
    retry_after: u32,
    /// Test/bench hook: always inject this kind (rate still applies).
    fixed: Option<FaultKind>,
}

impl FaultSchedule {
    /// No faults, ever. [`FaultSchedule::decide`] short-circuits without
    /// touching an RNG, so a fault-off wrapper adds ~zero overhead.
    pub fn off() -> Self {
        Self { seed: 0, rate: 0.0, max_consecutive: 0, retry_after: 0, fixed: None }
    }

    /// Faults each attempt independently with probability `rate`
    /// (clamped to `[0, 1]`), kind drawn uniformly, at most 4 in a row.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0), max_consecutive: 4, retry_after: 3, fixed: None }
    }

    /// Always injects `kind` (until the burst cap) — deterministic
    /// single-mode schedules for tests and benches.
    pub fn always(kind: FaultKind) -> Self {
        Self { seed: 0, rate: 1.0, max_consecutive: 4, retry_after: 3, fixed: Some(kind) }
    }

    /// Overrides the burst cap. `u32::MAX` makes the schedule
    /// *unrecoverable* at rate 1.0 — the degraded-path tests use that.
    pub fn with_max_consecutive(mut self, cap: u32) -> Self {
        self.max_consecutive = cap;
        self
    }

    /// Overrides the rate-limit `retry_after` hint.
    pub fn with_retry_after(mut self, ticks: u32) -> Self {
        self.retry_after = ticks;
        self
    }

    /// The per-attempt fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The burst cap after which success is forced.
    pub fn max_consecutive(&self) -> u32 {
        self.max_consecutive
    }

    /// The fault (if any) for attempt number `attempt`, given that
    /// `consecutive` faults landed immediately before it. Pure: equal
    /// arguments always yield equal answers.
    pub fn decide(&self, attempt: u64, consecutive: u32) -> Option<FaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        if consecutive >= self.max_consecutive {
            return None; // burst cap: force the attempt through
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ attempt.wrapping_mul(0x9E37_79B9));
        if !rng.random_bool(self.rate) {
            return None;
        }
        Some(match self.fixed {
            Some(kind) => kind,
            None => FaultKind::ALL[rng.random_range(0..FaultKind::ALL.len())],
        })
    }
}

/// Counters of what a [`FaultyBackend`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts that went through to the inner backend and succeeded.
    pub served: u64,
    /// Faults injected, total.
    pub injected: u64,
    /// 5xx-style server errors.
    pub http_5xx: u64,
    /// Timeouts.
    pub timeouts: u64,
    /// Rate-limit rejections (not charged).
    pub rate_limits: u64,
    /// Truncated pages.
    pub truncated_pages: u64,
    /// Empty pages.
    pub empty_pages: u64,
    /// Repeated-charge-without-answer faults.
    pub charged_no_answer: u64,
    /// Budget units burned by faults (charges without an answer).
    pub queries_burned: u64,
}

/// A [`SearchBackend`] wrapper that injects the faults its
/// [`FaultSchedule`] dictates.
///
/// Budget errors from the inner backend always pass through unwrapped —
/// injection never masks exhaustion, and an exhausted budget preempts a
/// scheduled fault (the interface can't charge what isn't there).
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    schedule: FaultSchedule,
    /// Total `issue` calls seen (the schedule's attempt counter).
    attempt: u64,
    /// Faults injected immediately in a row (the burst counter).
    consecutive: u32,
    stats: FaultStats,
}

impl<B: SearchBackend> FaultyBackend<B> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: B, schedule: FaultSchedule) -> Self {
        Self { inner, schedule, attempt: 0, consecutive: 0, stats: FaultStats::default() }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The schedule driving this backend.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Unwraps the inner backend (e.g. to read a session's final budget).
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Charges the inner budget without using the answer — the
    /// "interface did the work, client got nothing" half of a fault.
    /// An inner budget error preempts the fault.
    fn charge_inner(&mut self, query: &ConjunctiveQuery, times: u32) -> Result<(), IssueError> {
        for _ in 0..times {
            match self.inner.issue(query) {
                Ok(_) => {
                    self.stats.queries_burned += 1;
                }
                Err(e) => {
                    debug_assert!(
                        !e.is_recoverable(),
                        "inner backend raised a transient error: {e}"
                    );
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl<B: SearchBackend> SearchBackend for FaultyBackend<B> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        let decision = self.schedule.decide(self.attempt, self.consecutive);
        self.attempt += 1;
        let Some(kind) = decision else {
            let out = self.inner.issue(query)?;
            self.consecutive = 0;
            self.stats.served += 1;
            return Ok(out);
        };
        self.consecutive += 1;
        self.stats.injected += 1;
        match kind {
            FaultKind::Http5xx => self.stats.http_5xx += 1,
            FaultKind::Timeout => self.stats.timeouts += 1,
            FaultKind::RateLimit => self.stats.rate_limits += 1,
            FaultKind::TruncatedPage => self.stats.truncated_pages += 1,
            FaultKind::EmptyPage => self.stats.empty_pages += 1,
            FaultKind::ChargedNoAnswer => self.stats.charged_no_answer += 1,
        }
        self.charge_inner(query, kind.charges())?;
        Err(kind.to_error(self.schedule.retry_after))
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }

    fn spent(&self) -> u64 {
        self.inner.spent()
    }
}

/// Retry/backoff configuration for [`ResilientBackend`], in the
/// backend's simulated time units ("ticks").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per query before giving up (attempts = retries + 1).
    pub max_retries: u32,
    /// First backoff wait; doubles per retry.
    pub base_backoff: u32,
    /// Backoff ceiling.
    pub max_backoff: u32,
    /// Per-query cap on total simulated wait; exceeding it gives up.
    pub deadline: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // max_retries comfortably above FaultSchedule::seeded's burst cap
        // of 4, so default-on-default recovery always succeeds.
        Self { max_retries: 8, base_backoff: 1, max_backoff: 64, deadline: 512 }
    }
}

/// Counters of what a [`ResilientBackend`] did to keep queries alive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Logical queries asked of this layer.
    pub queries: u64,
    /// Retries performed (attempts beyond the first).
    pub retries: u64,
    /// Queries that failed at least once but ultimately succeeded.
    pub recovered: u64,
    /// Queries abandoned after exhausting retries or the deadline.
    pub gave_up: u64,
    /// Total simulated ticks spent waiting (backoff + retry-after).
    pub ticks_waited: u64,
    /// Budget units consumed by failed attempts (diff of the inner
    /// backend's `spent` across the recovery, minus the one successful
    /// charge).
    pub queries_burned: u64,
}

/// The recovery layer: retries transient failures with deterministic
/// exponential backoff + jitter, honors rate-limit `retry_after` hints,
/// and enforces a per-query deadline.
///
/// Budget errors are terminal and returned immediately — only a new
/// round restores budget, no amount of waiting does. All waiting is
/// *simulated* (tick counters), keeping runs deterministic and fast.
#[derive(Debug)]
pub struct ResilientBackend<B> {
    inner: B,
    policy: RetryPolicy,
    /// Jitter stream — deterministic per seed, independent of the fault
    /// schedule's stream.
    jitter: StdRng,
    stats: RecoveryStats,
}

impl<B: SearchBackend> ResilientBackend<B> {
    /// Wraps `inner` with `policy`, drawing jitter from `jitter_seed`.
    pub fn new(inner: B, policy: RetryPolicy, jitter_seed: u64) -> Self {
        Self {
            inner,
            policy,
            jitter: StdRng::seed_from_u64(jitter_seed),
            stats: RecoveryStats::default(),
        }
    }

    /// Recovery counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: SearchBackend> SearchBackend for ResilientBackend<B> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        self.stats.queries += 1;
        let spent_before = self.inner.spent();
        let mut waited: u64 = 0;
        let mut attempt: u32 = 0;
        loop {
            match self.inner.issue(query) {
                Ok(out) => {
                    if attempt > 0 {
                        self.stats.recovered += 1;
                        self.stats.queries_burned +=
                            (self.inner.spent() - spent_before).saturating_sub(1);
                    }
                    return Ok(out);
                }
                Err(e) if !e.is_recoverable() => {
                    // Budget exhaustion or an invalid query: terminal,
                    // waiting can't help.
                    self.stats.queries_burned += self.inner.spent() - spent_before;
                    return Err(e);
                }
                Err(e) => {
                    if attempt >= self.policy.max_retries {
                        self.stats.gave_up += 1;
                        self.stats.queries_burned += self.inner.spent() - spent_before;
                        return Err(e);
                    }
                    let backoff = self
                        .policy
                        .base_backoff
                        .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                        .min(self.policy.max_backoff);
                    let floor = match e {
                        IssueError::RateLimited { retry_after } => backoff.max(retry_after),
                        _ => backoff,
                    };
                    let jitter =
                        if floor > 0 { self.jitter.random_range(0..=floor / 2) } else { 0 };
                    let wait = u64::from(floor) + u64::from(jitter);
                    if waited + wait > u64::from(self.policy.deadline) {
                        self.stats.gave_up += 1;
                        self.stats.queries_burned += self.inner.spent() - spent_before;
                        return Err(e);
                    }
                    waited += wait;
                    self.stats.ticks_waited += wait;
                    self.stats.retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }

    fn spent(&self) -> u64 {
        self.inner.spent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::HiddenDatabase;
    use crate::ranking::ScoringPolicy;
    use crate::schema::Schema;
    use crate::session::SearchSession;
    use crate::tuple::Tuple;
    use crate::value::{TupleKey, ValueId};

    fn db(n: u64) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 5, ScoringPolicy::default());
        for key in 0..n {
            d.insert(Tuple::new(TupleKey(key), vec![ValueId((key % 2) as u32)], vec![])).unwrap();
        }
        d
    }

    #[test]
    fn off_schedule_never_faults() {
        let s = FaultSchedule::off();
        for attempt in 0..10_000 {
            assert_eq!(s.decide(attempt, 0), None);
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_attempt() {
        let a = FaultSchedule::seeded(42, 0.3);
        let b = FaultSchedule::seeded(42, 0.3);
        for attempt in 0..2_000 {
            assert_eq!(a.decide(attempt, 0), b.decide(attempt, 0));
        }
        let c = FaultSchedule::seeded(43, 0.3);
        let differs = (0..2_000).any(|attempt| a.decide(attempt, 0) != c.decide(attempt, 0));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn burst_cap_forces_success() {
        let s = FaultSchedule::seeded(7, 1.0);
        for attempt in 0..100 {
            assert!(s.decide(attempt, 0).is_some(), "rate 1.0 faults below the cap");
            assert_eq!(s.decide(attempt, s.max_consecutive()), None, "cap forces success");
        }
    }

    #[test]
    fn schedule_rate_distribution_is_roughly_honest() {
        let s = FaultSchedule::seeded(11, 0.25);
        let faults = (0..10_000).filter(|&a| s.decide(a, 0).is_some()).count();
        assert!((2_000..3_000).contains(&faults), "≈25% expected, got {faults}");
    }

    #[test]
    fn faulty_backend_charges_match_the_taxonomy() {
        // RateLimit: no charge. Http5xx: one charge. ChargedNoAnswer: two.
        for (kind, charges) in [
            (FaultKind::RateLimit, 0u64),
            (FaultKind::Http5xx, 1),
            (FaultKind::Timeout, 1),
            (FaultKind::TruncatedPage, 1),
            (FaultKind::EmptyPage, 1),
            (FaultKind::ChargedNoAnswer, 2),
        ] {
            let mut d = db(3);
            let session = SearchSession::new(&mut d, 100);
            let mut faulty = FaultyBackend::new(session, FaultSchedule::always(kind));
            let err = faulty.issue(&ConjunctiveQuery::select_all()).unwrap_err();
            assert!(err.is_recoverable());
            assert_eq!(err, kind.to_error(3));
            assert_eq!(faulty.spent(), charges, "{kind:?} must charge {charges}");
            assert_eq!(faulty.stats().injected, 1);
            assert_eq!(faulty.stats().queries_burned, charges);
        }
    }

    /// An out-of-domain query is terminal: the fault layer passes the
    /// session's refusal through, and the recovery layer does not retry.
    #[test]
    fn invalid_queries_are_refused_without_retry_or_charge() {
        use crate::query::Predicate;
        use crate::value::AttrId;
        let mut d = db(3);
        let session = SearchSession::new(&mut d, 10);
        let faulty = FaultyBackend::new(session, FaultSchedule::always(FaultKind::Http5xx));
        let mut resilient = ResilientBackend::new(faulty, RetryPolicy::default(), 1);
        let bad = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(99))]);
        assert_eq!(resilient.issue(&bad).unwrap_err(), IssueError::InvalidQuery);
        assert_eq!(resilient.stats().retries, 0);
        assert_eq!(resilient.spent(), 0, "nothing charged");
    }

    #[test]
    fn budget_errors_pass_through_and_preempt_faults() {
        let mut d = db(3);
        let session = SearchSession::new(&mut d, 0);
        let mut faulty = FaultyBackend::new(session, FaultSchedule::always(FaultKind::Http5xx));
        let err = faulty.issue(&ConjunctiveQuery::select_all()).unwrap_err();
        assert!(err.is_budget(), "exhausted budget preempts the scheduled fault: {err}");
    }

    #[test]
    fn faulty_answers_when_served_are_the_true_answers() {
        // Whatever the schedule injects, an Ok is always the inner
        // backend's own answer — faults never corrupt, only deny.
        let mut plain_db = db(12);
        let mut fault_db = plain_db.clone();
        let root = ConjunctiveQuery::select_all();
        let mut plain = SearchSession::unlimited(&mut plain_db);
        let expected = plain.issue(&root).unwrap();
        let session = SearchSession::unlimited(&mut fault_db);
        let mut faulty = FaultyBackend::new(session, FaultSchedule::seeded(3, 0.6));
        let mut served = 0;
        for _ in 0..50 {
            if let Ok(out) = faulty.issue(&root) {
                assert_eq!(out.is_overflow(), expected.is_overflow());
                assert_eq!(out.returned_count(), expected.returned_count());
                served += 1;
            }
        }
        assert!(served > 0, "burst cap guarantees some attempts go through");
        assert!(faulty.stats().injected > 0, "rate 0.6 must inject something in 50 tries");
    }

    #[test]
    fn resilient_recovery_always_succeeds_on_recoverable_schedules() {
        let mut d = db(10);
        let root = ConjunctiveQuery::select_all();
        let session = SearchSession::unlimited(&mut d);
        let faulty = FaultyBackend::new(session, FaultSchedule::seeded(99, 0.7));
        let mut resilient = ResilientBackend::new(faulty, RetryPolicy::default(), 0xA11CE);
        for _ in 0..200 {
            assert!(resilient.issue(&root).is_ok(), "burst cap 4 < max_retries 8");
        }
        let stats = resilient.stats();
        assert_eq!(stats.queries, 200);
        assert_eq!(stats.gave_up, 0);
        assert!(stats.recovered > 0);
        assert!(stats.retries >= stats.recovered);
        assert!(stats.ticks_waited > 0);
    }

    #[test]
    fn recovery_charges_every_attempt_to_the_budget() {
        let mut d = db(10);
        let root = ConjunctiveQuery::select_all();
        let session = SearchSession::unlimited(&mut d);
        let faulty = FaultyBackend::new(session, FaultSchedule::seeded(5, 0.5));
        let mut resilient = ResilientBackend::new(faulty, RetryPolicy::default(), 1);
        for _ in 0..100 {
            resilient.issue(&root).unwrap();
        }
        let burned = resilient.stats().queries_burned;
        let spent = resilient.spent();
        // Every unit of inner spend is either one of the 100 logical
        // answers or accounted as burned by recovery.
        assert_eq!(spent, 100 + burned, "spent must account for every issued attempt");
        assert!(burned > 0, "rate 0.5 must burn something in 100 queries");
    }

    #[test]
    fn unrecoverable_schedule_gives_up_cleanly() {
        let mut d = db(5);
        let root = ConjunctiveQuery::select_all();
        let session = SearchSession::unlimited(&mut d);
        let schedule = FaultSchedule::seeded(1, 1.0).with_max_consecutive(u32::MAX);
        let faulty = FaultyBackend::new(session, schedule);
        let policy = RetryPolicy { max_retries: 3, ..RetryPolicy::default() };
        let mut resilient = ResilientBackend::new(faulty, policy, 2);
        let err = resilient.issue(&root).unwrap_err();
        assert!(err.is_recoverable(), "gave up on a transient error, not budget");
        assert_eq!(resilient.stats().gave_up, 1);
        assert_eq!(resilient.stats().retries, 3);
    }

    #[test]
    fn rate_limit_hint_is_honored() {
        let mut d = db(5);
        let root = ConjunctiveQuery::select_all();
        let session = SearchSession::unlimited(&mut d);
        let schedule = FaultSchedule::always(FaultKind::RateLimit)
            .with_retry_after(40)
            .with_max_consecutive(1);
        let faulty = FaultyBackend::new(session, schedule);
        let mut resilient = ResilientBackend::new(faulty, RetryPolicy::default(), 3);
        resilient.issue(&root).unwrap();
        assert!(
            resilient.stats().ticks_waited >= 40,
            "must wait at least retry_after: {}",
            resilient.stats().ticks_waited
        );
    }

    #[test]
    fn deadline_bounds_total_wait() {
        let mut d = db(5);
        let root = ConjunctiveQuery::select_all();
        let session = SearchSession::unlimited(&mut d);
        let schedule = FaultSchedule::seeded(2, 1.0).with_max_consecutive(u32::MAX);
        let faulty = FaultyBackend::new(session, schedule);
        let policy = RetryPolicy { max_retries: u32::MAX, deadline: 20, ..RetryPolicy::default() };
        let mut resilient = ResilientBackend::new(faulty, policy, 4);
        assert!(resilient.issue(&root).is_err());
        assert!(resilient.stats().ticks_waited <= 20);
        assert_eq!(resilient.stats().gave_up, 1);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let run = || {
            let mut d = db(20);
            let root = ConjunctiveQuery::select_all();
            let session = SearchSession::unlimited(&mut d);
            let faulty = FaultyBackend::new(session, FaultSchedule::seeded(77, 0.4));
            let mut resilient = ResilientBackend::new(faulty, RetryPolicy::default(), 88);
            for _ in 0..150 {
                resilient.issue(&root).unwrap();
            }
            (resilient.stats(), resilient.spent())
        };
        assert_eq!(run(), run());
    }
}
