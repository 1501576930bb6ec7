//! The three workloads and the inputs they feed the program.
//!
//! Every input is a pure function of the workload and the seed: the
//! initial population and each round's batch come from seeded
//! [`AutosGenerator`] streams, and the tuples to delete are drawn from the
//! benchmark's own alive-key list, never from the database. A change to
//! the store that reorders slots therefore cannot change the workload,
//! and the true `COUNT(*)` of every round is that list's length.

use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::TupleKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{AutosGenerator, TupleFactory};

/// Where the estimators read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One private `HiddenDatabase`, read through budgeted sessions.
    Private,
    /// A shared `DbService` with pressure-triggered maintenance, read
    /// through `DbService::session` on the newest epoch.
    Service,
}

/// One tracking workload: a population, a per-round change profile, the
/// interface (`k`, `G`), and the rounds of one reference pass.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Private database or shared service.
    pub path: Path,
    /// Initial population `|D_1|`.
    pub initial: usize,
    /// Attribute count `m`.
    pub attrs: usize,
    /// Interface page size `k`.
    pub k: usize,
    /// Per-round query budget `G`, per estimator.
    pub g: u64,
    /// Tuples inserted per round.
    pub inserts: usize,
    /// Fraction of the alive population deleted per round.
    pub delete_frac: f64,
    /// Rounds of one reference pass. Fixed, so counts and the digest
    /// repeat exactly for a seed.
    pub rounds: usize,
}

/// Pressure threshold of the service's automatic compaction.
pub const SERVICE_PRESSURE: u32 = 256;

/// The seed whose digests are recorded in `expected_digests.json`.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The repository's `--scale default` preset: most figures use it.
    Workload {
        name: "track_default",
        path: Path::Private,
        initial: 30_000,
        attrs: 20,
        k: 200,
        g: 300,
        inserts: 53,
        delete_frac: 0.001,
        rounds: 500,
    },
    // The `--scale paper` preset: 6x the data and 5x the page size, a
    // working set beyond the CPU caches, and block-max on the hot path.
    Workload {
        name: "track_paper",
        path: Path::Private,
        initial: 170_000,
        attrs: 38,
        k: 1_000,
        g: 500,
        inserts: 300,
        delete_frac: 0.001,
        rounds: 40,
    },
    // The big-change figures' size and Fig 6 churn (+5 %, -5 %) through
    // the shared service: reads and writes share the loop.
    Workload {
        name: "service_churn",
        path: Path::Service,
        initial: 17_647,
        attrs: 20,
        k: 200,
        g: 300,
        inserts: 882,
        delete_frac: 0.05,
        rounds: 400,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An independent stream seed for `(seed, stream)`.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const POPULATION_STREAM: u64 = 1;
const BATCH_STREAM: u64 = 2;
/// Estimator `i` uses stream `ESTIMATOR_STREAM + i`.
pub const ESTIMATOR_STREAM: u64 = 16;

/// The schema and the initial population, keys `0..initial`.
pub fn population(w: &Workload, seed: u64) -> (Schema, Vec<Tuple>) {
    let mut gen = AutosGenerator::with_attrs(w.attrs);
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, POPULATION_STREAM));
    let tuples = gen.generate(&mut rng, w.initial);
    (gen.schema().clone(), tuples)
}

/// The per-round batches of one pass, generated on demand (outside any
/// timed section) and identical for every pass of a seed.
pub struct Feed {
    gen: AutosGenerator,
    rng: StdRng,
    alive: Vec<TupleKey>,
    next_key: u64,
    inserts: usize,
    delete_frac: f64,
}

impl Feed {
    /// The feed of a fresh pass: the population's keys are alive.
    pub fn new(w: &Workload, seed: u64) -> Self {
        Self {
            gen: AutosGenerator::with_attrs(w.attrs),
            rng: StdRng::seed_from_u64(stream_seed(seed, BATCH_STREAM)),
            alive: (0..w.initial as u64).map(TupleKey).collect(),
            next_key: w.initial as u64,
            inserts: w.inserts,
            delete_frac: w.delete_frac,
        }
    }

    /// The next round's batch: deletions drawn uniformly from the alive
    /// list, then fresh tuples under new keys.
    pub fn next_batch(&mut self) -> UpdateBatch {
        let victims = ((self.alive.len() as f64) * self.delete_frac).round() as usize;
        let mut batch = UpdateBatch::empty();
        for _ in 0..victims.min(self.alive.len()) {
            let at = self.rng.random_range(0..self.alive.len());
            batch.deletes.push(self.alive.swap_remove(at));
        }
        for _ in 0..self.inserts {
            let (_, values, measures) = self.gen.make(&mut self.rng).into_parts();
            let key = TupleKey(self.next_key);
            self.next_key += 1;
            self.alive.push(key);
            batch.inserts.push(Tuple::new(key, values, measures));
        }
        batch
    }

    /// Alive tuples once every batch handed out so far is applied: the
    /// true `COUNT(*)`.
    pub fn alive(&self) -> usize {
        self.alive.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_is_a_function_of_the_seed() {
        let w = workload("service_churn").expect("known workload");
        let (mut a, mut b) = (Feed::new(&w, 7), Feed::new(&w, 7));
        for _ in 0..3 {
            let (x, y) = (a.next_batch(), b.next_batch());
            assert_eq!(x.deletes, y.deletes);
            let keys = |b: &UpdateBatch| b.inserts.iter().map(|t| t.key()).collect::<Vec<_>>();
            assert_eq!(keys(&x), keys(&y));
            assert_eq!(x.deletes.len(), 882, "5 % of the steady population");
        }
        assert_eq!(a.alive(), w.initial, "inserts match deletes");
        assert_ne!(Feed::new(&w, 8).next_batch().deletes, Feed::new(&w, 7).next_batch().deletes);
    }
}
