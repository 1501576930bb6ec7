//! Set-up and the closed tracking loop.
//!
//! One process, one thread: every round applies its batch, then RESTART,
//! REISSUE and RS each run one round on a fresh budget of `G` queries, and
//! every estimator issues its next query only after the previous answer.

use std::time::Instant;

use aggtrack_core::{
    AggregateSpec, Estimator, ReissueEstimator, RestartEstimator, RoundReport, RsConfig,
    RsEstimator,
};
use hidden_db::database::HiddenDatabase;
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::session::SearchSession;
use hidden_db::updates::UpdateBatch;
use hidden_db::{AutoMaintain, DbError, DbService, QueryBudget};
use query_tree::QueryTree;

use crate::inputs::{
    population, stream_seed, Feed, Path, Workload, ESTIMATOR_STREAM, SERVICE_PRESSURE,
};
use crate::trace::{Kind, Trace, TracedPrivate, TracedService, NO_PARENT};

/// Estimator names in run order, as metric names use them.
pub const ESTIMATORS: [&str; 3] = ["restart", "reissue", "rs"];

/// The database under test.
pub enum Db {
    /// A private database.
    Private(Box<HiddenDatabase>),
    /// The shared service.
    Service(DbService),
}

impl Db {
    fn apply(&mut self, batch: UpdateBatch) -> Result<(), DbError> {
        match self {
            Db::Private(db) => db.apply(batch).map(drop),
            Db::Service(svc) => svc.apply(batch).map(drop),
        }
    }

    /// Alive tuples visible to readers.
    fn len(&self) -> usize {
        match self {
            Db::Private(db) => db.len(),
            Db::Service(svc) => svc.snapshot().len(),
        }
    }
}

/// What building the initial database cost.
#[derive(Debug, Clone, Copy)]
pub struct LoadCost {
    /// `HiddenDatabase::new` plus every insert, plus opening the service
    /// and publishing epoch 0 on the service path.
    pub setup_s: f64,
    /// The insert calls alone.
    pub insert_s: f64,
    /// `DbService::with_auto_maintain` alone (0 on the private path).
    pub publish_s: f64,
    /// Tuples inserted.
    pub tuples: usize,
}

/// Builds the initial database on `path`. The population is generated
/// before the clock starts.
pub fn load(w: &Workload, seed: u64, path: Path) -> (Db, LoadCost) {
    let (schema, tuples) = population(w, seed);
    let n = tuples.len();
    let start = Instant::now();
    let mut db = HiddenDatabase::new(schema, w.k, ScoringPolicy::default());
    for t in tuples {
        db.insert(t).expect("generated tuples fit the generated schema");
    }
    let inserted = Instant::now();
    let db = match path {
        Path::Private => Db::Private(Box::new(db)),
        Path::Service => Db::Service(DbService::with_auto_maintain(
            db,
            AutoMaintain::Pressure { threshold: SERVICE_PRESSURE },
        )),
    };
    let done = Instant::now();
    let cost = LoadCost {
        setup_s: (done - start).as_secs_f64(),
        insert_s: (inserted - start).as_secs_f64(),
        publish_s: (done - inserted).as_secs_f64(),
        tuples: n,
    };
    (db, cost)
}

fn estimators(schema: &Schema, seed: u64) -> [Box<dyn Estimator>; 3] {
    let tree = QueryTree::full(schema);
    let spec = AggregateSpec::count_star();
    let s = |i: u64| stream_seed(seed, ESTIMATOR_STREAM + i);
    [
        Box::new(RestartEstimator::new(spec.clone(), tree.clone(), s(0))),
        Box::new(ReissueEstimator::new(spec.clone(), tree.clone(), s(1))),
        Box::new(RsEstimator::with_config(spec, tree, s(2), RsConfig::default())),
    ]
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one pass did, round by round.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Per round: FNV-1a over each report's COUNT estimate bits and
    /// queries spent, in estimator order.
    pub digests: Vec<u64>,
    /// Per estimator: sum over rounds of |estimate - truth| / truth.
    pub rel_err_sum: [f64; 3],
    /// Per round: the three `run_round` calls (and their session opens).
    pub round_ms: Vec<f64>,
    /// Per round: the update apply, including publish and maintenance.
    pub update_ms: Vec<f64>,
    /// Operations attempted: one per update batch, one per estimator-round.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl PassLog {
    /// The pass digest: the per-round digests folded in order.
    pub fn digest(&self) -> u64 {
        self.digests.iter().fold(FNV_OFFSET, |h, &d| fold(h, d))
    }

    /// Rounds completed.
    pub fn rounds(&self) -> usize {
        self.digests.len()
    }

    /// Timed loop time: every update plus every round's reads.
    pub fn loop_s(&self) -> f64 {
        (self.round_ms.iter().sum::<f64>() + self.update_ms.iter().sum::<f64>()) / 1e3
    }

    /// Mean relative error of estimator `i` over the pass.
    pub fn rel_err(&self, i: usize) -> f64 {
        self.rel_err_sum[i] / self.rounds().max(1) as f64
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Runs the workload's rounds on `db`, which must hold the initial
/// population of `(w, seed)`. With a trace, reads go through the traced
/// adapters and every boundary is recorded.
pub fn run_pass(w: &Workload, seed: u64, db: &mut Db, mut trace: Option<&mut Trace>) -> PassLog {
    let schema = match db {
        Db::Private(d) => d.schema().clone(),
        Db::Service(s) => s.snapshot().schema().clone(),
    };
    let mut ests = estimators(&schema, seed);
    let mut feed = Feed::new(w, seed);
    let mut log = PassLog::default();
    if let Some(t) = trace.as_deref_mut() {
        t.begin(db);
    }
    for round in 0..w.rounds {
        let batch = feed.next_batch();
        let ops = batch.len();
        let truth = feed.alive();
        let runs_before = maintain_runs(db);
        let t0 = Instant::now();
        let applied = db.apply(batch);
        let t1 = Instant::now();
        log.attempted += 1;
        if applied.is_err() || db.len() != truth {
            log.failed += 1;
        }
        let t2 = Instant::now();
        let reports = match trace.as_deref_mut() {
            None => read_round(db, &mut ests, w.g),
            Some(t) => {
                let parent = t.open(round as u32, NO_PARENT, Kind::Round, t0);
                let maintained = maintain_runs(db) != runs_before;
                let kind = Kind::Update { maintained, ops: ops as u32 };
                let update = t.open(round as u32, parent, kind, t0);
                t.close(update, t1);
                let reports = read_round_traced(db, &mut ests, w.g, t, round as u32, parent);
                t.close(parent, Instant::now());
                reports
            }
        };
        let t3 = Instant::now();
        log.update_ms.push(ms(t0, t1));
        log.round_ms.push(ms(t2, t3));
        let mut digest = FNV_OFFSET;
        for (i, r) in reports.iter().enumerate() {
            log.attempted += 1;
            if r.degraded.is_some() || r.queries_spent > w.g || !r.count.value.is_finite() {
                log.failed += 1;
            }
            digest = fold(fold(digest, r.count.value.to_bits()), r.queries_spent);
            log.rel_err_sum[i] += (r.count.value - truth as f64).abs() / truth as f64;
        }
        log.digests.push(digest);
        if let Some(t) = trace.as_deref_mut() {
            t.count_drills(&reports);
        }
    }
    if let Some(t) = trace {
        t.end(db);
    }
    log
}

fn maintain_runs(db: &Db) -> u64 {
    match db {
        Db::Private(_) => 0,
        Db::Service(svc) => svc.stats().auto_maintain_runs,
    }
}

fn read_round(db: &mut Db, ests: &mut [Box<dyn Estimator>; 3], g: u64) -> Vec<RoundReport> {
    let mut out = Vec::with_capacity(ests.len());
    for est in ests.iter_mut() {
        out.push(match db {
            Db::Private(db) => est.run_round(&mut SearchSession::new(db, g)),
            Db::Service(svc) => est.run_round(&mut svc.session(g)),
        });
    }
    out
}

fn read_round_traced(
    db: &mut Db,
    ests: &mut [Box<dyn Estimator>; 3],
    g: u64,
    trace: &mut Trace,
    round: u32,
    parent: u32,
) -> Vec<RoundReport> {
    let mut out = Vec::with_capacity(ests.len());
    for (i, est) in ests.iter_mut().enumerate() {
        let kind = Kind::Estimator(i as u8);
        out.push(match db {
            Db::Private(db) => {
                let span = trace.open(round, parent, kind, Instant::now());
                let budget = QueryBudget::new(g);
                let db = &mut **db;
                let mut backend = TracedPrivate { db, budget, trace: &mut *trace, round, span };
                let report = est.run_round(&mut backend);
                trace.close(span, Instant::now());
                report
            }
            Db::Service(svc) => {
                let opened = Instant::now();
                let session = svc.session(g);
                let start = Instant::now();
                trace.open_us.push((start - opened).as_secs_f64() * 1e6);
                let span = trace.open(round, parent, kind, start);
                let mut backend = TracedService { session, trace: &mut *trace, round, span };
                let report = est.run_round(&mut backend);
                trace.close(span, Instant::now());
                report
            }
        });
    }
    out
}
