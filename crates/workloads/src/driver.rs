//! The round driver: owns a database and a schedule, advances rounds, and
//! hands out budgeted sessions — the experiment harness's main loop.

use hidden_db::database::HiddenDatabase;
use hidden_db::ranking::ScoringPolicy;
use hidden_db::session::SearchSession;
use hidden_db::updates::UpdateSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::factory::TupleFactory;
use crate::schedule::UpdateSchedule;

/// Drives a [`HiddenDatabase`] through the round-update model (§2.1):
/// the database changes only at the instant a round begins.
pub struct RoundDriver<S: UpdateSchedule> {
    db: HiddenDatabase,
    schedule: S,
    rng: StdRng,
    round: u32,
}

impl<S: UpdateSchedule> RoundDriver<S> {
    /// Wraps an already-loaded database. The driver starts at round 1 (the
    /// initial state *is* round `R_1`).
    pub fn new(db: HiddenDatabase, schedule: S, seed: u64) -> Self {
        Self { db, schedule, rng: StdRng::seed_from_u64(seed), round: 1 }
    }

    /// Current round index (1-based, as in the paper).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Read access to the database (ground truth for experiments).
    pub fn db(&self) -> &HiddenDatabase {
        &self.db
    }

    /// Mutable access (e.g. to change `k` mid-experiment).
    pub fn db_mut(&mut self) -> &mut HiddenDatabase {
        &mut self.db
    }

    /// Applies the schedule's next batch, moving to the next round.
    ///
    /// Under the database's default incremental policy the batch patches
    /// the previous round's memo in place, so the repeated query sets
    /// estimators re-issue each round hit the cache instead of
    /// re-evaluating from cold.
    pub fn advance(&mut self) -> UpdateSummary {
        let batch = self.schedule.next_batch(&self.db, &mut self.rng);
        let summary = self.db.apply(batch).expect("schedule produced an invalid batch");
        self.round += 1;
        summary
    }

    /// Memo lifecycle counters of the underlying database — handy next to
    /// [`hidden_db::database::HiddenDatabase::stats`] when an experiment
    /// wants to report warm-cache behaviour per round.
    pub fn memo_stats(&self) -> hidden_db::stats::MemoStats {
        self.db.memo_stats()
    }

    /// Builds (but does not apply) the next round's batch — used by the
    /// intra-round timeline, which interleaves the batch with queries.
    pub fn peek_batch(&mut self) -> hidden_db::updates::UpdateBatch {
        self.schedule.next_batch(&self.db, &mut self.rng)
    }

    /// Marks a round transition whose changes were already applied
    /// externally (intra-round mode).
    pub fn mark_round(&mut self) {
        self.round += 1;
    }

    /// Opens a budgeted session of `g` queries for the current round.
    pub fn session(&mut self, g: u64) -> SearchSession<'_> {
        SearchSession::new(&mut self.db, g)
    }
}

/// Convenience: builds a database from a factory's first `n` tuples.
pub fn load_database<F: TupleFactory>(
    factory: &mut F,
    rng: &mut StdRng,
    n: usize,
    k: usize,
    scoring: ScoringPolicy,
) -> HiddenDatabase {
    let mut db = HiddenDatabase::new(factory.schema().clone(), k, scoring);
    for t in factory.make_many(rng, n) {
        db.insert(t).expect("factory tuples must fit the schema");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::BooleanGenerator;
    use crate::schedule::{DeleteSpec, PerRoundSchedule};
    use hidden_db::session::SearchBackend;

    #[test]
    fn driver_advances_rounds_and_population() {
        let mut gen = BooleanGenerator::new(6);
        let mut rng = StdRng::seed_from_u64(1);
        let db = load_database(&mut gen, &mut rng, 100, 10, ScoringPolicy::default());
        let sched = PerRoundSchedule::new(gen, 7, DeleteSpec::Count(2));
        let mut driver = RoundDriver::new(db, sched, 42);
        assert_eq!(driver.round(), 1);
        assert_eq!(driver.db().len(), 100);
        let s = driver.advance();
        assert_eq!(driver.round(), 2);
        assert_eq!(s.inserted, 7);
        assert_eq!(s.deleted, 2);
        assert_eq!(driver.db().len(), 105);
    }

    #[test]
    fn sessions_are_budgeted() {
        let mut gen = BooleanGenerator::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        let db = load_database(&mut gen, &mut rng, 10, 3, ScoringPolicy::default());
        let sched = PerRoundSchedule::new(gen, 0, DeleteSpec::None);
        let mut driver = RoundDriver::new(db, sched, 0);
        let mut session = driver.session(2);
        let root = hidden_db::query::ConjunctiveQuery::select_all();
        assert!(session.issue(&root).is_ok());
        assert!(session.issue(&root).is_ok());
        assert!(session.issue(&root).is_err());
    }

    #[test]
    fn driver_runs_are_reproducible() {
        let run = || {
            let mut gen = BooleanGenerator::new(6);
            let mut rng = StdRng::seed_from_u64(5);
            let db = load_database(&mut gen, &mut rng, 50, 5, ScoringPolicy::default());
            let sched = PerRoundSchedule::new(gen, 3, DeleteSpec::Count(1));
            let mut driver = RoundDriver::new(db, sched, 9);
            for _ in 0..5 {
                driver.advance();
            }
            driver.db().alive_keys_sorted()
        };
        assert_eq!(run(), run());
    }
}
