//! The traced run: spans recorded around calls into each layer's public
//! API, from the benchmark's side.
//!
//! Spans go round -> estimator -> issue and round -> update; all spans of
//! a round carry its index. Each issue span is classified as a memo hit
//! or as a cold evaluation, by engine and predicate depth, from the
//! backend's `stats()` and `eval_stats()` read before and after the call.
//! Spans stay in memory and are written out when the run ends.

use std::io::{self, Write};
use std::time::Instant;

use aggtrack_core::RoundReport;
use hidden_db::database::HiddenDatabase;
use hidden_db::query::ConjunctiveQuery;
use hidden_db::schema::Schema;
use hidden_db::session::SearchBackend;
use hidden_db::{
    EvalStats, InterfaceStats, IssueError, MemoStats, OutcomeClass, QueryBudget, QueryOutcome,
    ServiceSession, SharedMemoStats,
};

use crate::run::Db;

/// Parent of a round span.
pub const NO_PARENT: u32 = u32::MAX;

/// The evaluation engine a cold call ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SELECT *` segment scan.
    Root,
    /// One posting list.
    Single,
    /// Galloping pair intersection.
    Gallop,
    /// Per-segment bitset pair intersection.
    Bitset,
    /// k-way block-max intersection.
    BlockMax,
    /// Rarest-list re-check (only when forced; `Auto` never picks it).
    Recheck,
}

impl Engine {
    /// Engines with a metric of their own, in metric order.
    pub const REPORTED: [(Engine, &'static str); 5] = [
        (Engine::Root, "root"),
        (Engine::Single, "single"),
        (Engine::Gallop, "gallop"),
        (Engine::Bitset, "bitset"),
        (Engine::BlockMax, "blockmax"),
    ];

    /// The engine whose counter moved between two `eval_stats()` reads;
    /// every cold evaluation bumps exactly one.
    fn of(before: &EvalStats, after: &EvalStats) -> Engine {
        if after.root_scans > before.root_scans {
            Engine::Root
        } else if after.single_scans > before.single_scans {
            Engine::Single
        } else if after.gallop_intersections > before.gallop_intersections {
            Engine::Gallop
        } else if after.bitset_intersections > before.bitset_intersections {
            Engine::Bitset
        } else if after.blockmax_intersections > before.blockmax_intersections {
            Engine::BlockMax
        } else {
            assert!(after.recheck_scans > before.recheck_scans, "cold call bumped no engine");
            Engine::Recheck
        }
    }
}

/// How one issue call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Refused by the budget.
    Refused,
    /// Answered from the memo.
    Hit(OutcomeClass),
    /// Evaluated from cold.
    Cold {
        /// Engine.
        engine: Engine,
        /// Predicates in the query.
        depth: u8,
        /// Outcome class.
        class: OutcomeClass,
    },
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One round: the update and the three estimator rounds.
    Round,
    /// One update apply; `maintained` when it ran automatic maintenance.
    Update {
        /// Whether maintenance ran inside the apply.
        maintained: bool,
        /// Deletes plus inserts in the batch.
        ops: u32,
    },
    /// One `run_round` call of estimator `i`.
    Estimator(u8),
    /// One `SearchBackend::issue` call.
    Issue(Served),
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Round index.
    pub round: u32,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// What the span covers.
    pub kind: Kind,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Spans plus the counters read at pass boundaries.
pub struct Trace {
    origin: Instant,
    /// Every span, parents before children.
    pub spans: Vec<Span>,
    /// Sum of `eval_stats()` deltas over all issue calls.
    pub eval: EvalStats,
    /// `DbService::session` durations, us.
    pub open_us: Vec<f64>,
    /// Per estimator: drill-downs initiated and updated over the pass.
    pub drills: [(u64, u64); 3],
    /// Database counters when the pass began and when it ended.
    pub counters: (Counters, Counters),
}

/// Database counters read at a pass boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// The private memo's lifecycle (zero on the service path).
    pub memo: MemoStats,
    /// The service's shared memo (zero on the private path).
    pub shared: SharedMemoStats,
    /// Epochs the service published (zero on the private path).
    pub epochs: u64,
}

impl Counters {
    fn read(db: &Db) -> Self {
        match db {
            Db::Private(d) => Counters { memo: d.memo_stats(), ..Counters::default() },
            Db::Service(s) => Counters {
                shared: s.memo_stats(),
                epochs: s.stats().epochs_published,
                ..Counters::default()
            },
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            eval: EvalStats::default(),
            open_us: Vec::new(),
            drills: [(0, 0); 3],
            counters: Default::default(),
        }
    }
}

impl Trace {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `start`; returns its index for [`Trace::close`].
    pub fn open(&mut self, round: u32, parent: u32, kind: Kind, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span { round, parent, kind, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `span` at `end`.
    pub fn close(&mut self, span: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[span as usize].end_ns = end_ns;
    }

    /// Reads the database counters as a pass begins.
    pub fn begin(&mut self, db: &Db) {
        self.counters.0 = Counters::read(db);
    }

    /// Reads the database counters as a pass ends.
    pub fn end(&mut self, db: &Db) {
        self.counters.1 = Counters::read(db);
    }

    /// Adds a round's drill-down counts.
    pub fn count_drills(&mut self, reports: &[RoundReport]) {
        for (d, r) in self.drills.iter_mut().zip(reports) {
            d.0 += r.initiated as u64;
            d.1 += r.updated as u64;
        }
    }

    /// Classifies an answered call from the backend's counters read
    /// before and after it; cold calls add their eval deltas.
    fn served(
        &mut self,
        out: &QueryOutcome,
        depth: usize,
        stats: (InterfaceStats, InterfaceStats),
        eval: (EvalStats, EvalStats),
    ) -> Served {
        if stats.1.cache_hits > stats.0.cache_hits {
            return Served::Hit(out.class());
        }
        add_eval(&mut self.eval, &eval.0, &eval.1);
        let depth = depth.min(u8::MAX as usize) as u8;
        Served::Cold { engine: Engine::of(&eval.0, &eval.1), depth, class: out.class() }
    }

    /// Records one issue call as a closed span.
    fn issued(&mut self, round: u32, parent: u32, start: Instant, end: Instant, served: Served) {
        let span = self.open(round, parent, Kind::Issue(served), start);
        self.close(span, end);
    }

    /// Writes every span as one tab-separated line:
    /// `round parent kind detail start_ns end_ns`.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "round\tparent\tkind\tdetail\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let (kind, detail) = match s.kind {
                Kind::Round => ("round", String::new()),
                Kind::Update { maintained, ops } => {
                    ("update", format!("ops={ops} maintained={maintained}"))
                }
                Kind::Estimator(i) => ("estimator", crate::run::ESTIMATORS[i as usize].to_string()),
                Kind::Issue(Served::Refused) => ("issue", "refused".to_string()),
                Kind::Issue(Served::Hit(c)) => ("issue", format!("hit {c:?}")),
                Kind::Issue(Served::Cold { engine, depth, class }) => {
                    ("issue", format!("cold {engine:?} depth={depth} {class:?}"))
                }
            };
            writeln!(out, "{}\t{parent}\t{kind}\t{detail}\t{}\t{}", s.round, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}

fn add_eval(acc: &mut EvalStats, a: &EvalStats, b: &EvalStats) {
    acc.root_scans += b.root_scans - a.root_scans;
    acc.single_scans += b.single_scans - a.single_scans;
    acc.gallop_intersections += b.gallop_intersections - a.gallop_intersections;
    acc.bitset_intersections += b.bitset_intersections - a.bitset_intersections;
    acc.recheck_scans += b.recheck_scans - a.recheck_scans;
    acc.blockmax_intersections += b.blockmax_intersections - a.blockmax_intersections;
    acc.early_exits += b.early_exits - a.early_exits;
    acc.segments_skipped += b.segments_skipped - a.segments_skipped;
    acc.blocks_scanned += b.blocks_scanned - a.blocks_scanned;
    acc.blocks_skipped += b.blocks_skipped - a.blocks_skipped;
    acc.pivot_advances += b.pivot_advances - a.pivot_advances;
}

/// The private path's traced backend: `QueryBudget::charge` plus
/// `HiddenDatabase::answer`, exactly what `SearchSession::issue` does.
pub struct TracedPrivate<'a> {
    /// The database.
    pub db: &'a mut HiddenDatabase,
    /// This round's budget.
    pub budget: QueryBudget,
    /// Where spans go.
    pub trace: &'a mut Trace,
    /// Round index.
    pub round: u32,
    /// The estimator span issues nest under.
    pub span: u32,
}

impl SearchBackend for TracedPrivate<'_> {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn k(&self) -> usize {
        self.db.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        let (s0, e0) = (self.db.stats(), self.db.eval_stats());
        let start = Instant::now();
        if let Err(e) = self.budget.charge() {
            self.trace.issued(self.round, self.span, start, Instant::now(), Served::Refused);
            return Err(e.into());
        }
        let out = self.db.answer(query);
        let end = Instant::now();
        let (s1, e1) = (self.db.stats(), self.db.eval_stats());
        let served = self.trace.served(&out, query.len(), (s0, s1), (e0, e1));
        self.trace.issued(self.round, self.span, start, end, served);
        Ok(out)
    }

    fn remaining(&self) -> u64 {
        self.budget.remaining()
    }

    fn spent(&self) -> u64 {
        self.budget.spent()
    }
}

/// The service path's traced backend: a `ServiceSession` whose own
/// `stats()` and `eval_stats()` classify each call.
pub struct TracedService<'a> {
    /// The session, pinned to the newest epoch.
    pub session: ServiceSession,
    /// Where spans go.
    pub trace: &'a mut Trace,
    /// Round index.
    pub round: u32,
    /// The estimator span issues nest under.
    pub span: u32,
}

impl SearchBackend for TracedService<'_> {
    fn schema(&self) -> &Schema {
        self.session.schema()
    }

    fn k(&self) -> usize {
        self.session.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        let (s0, e0) = (self.session.stats(), self.session.eval_stats());
        let start = Instant::now();
        let result = self.session.issue(query);
        let end = Instant::now();
        let served = match &result {
            Err(_) => Served::Refused,
            Ok(out) => {
                let (s1, e1) = (self.session.stats(), self.session.eval_stats());
                self.trace.served(out, query.len(), (s0, s1), (e0, e1))
            }
        };
        self.trace.issued(self.round, self.span, start, end, served);
        result
    }

    fn remaining(&self) -> u64 {
        self.session.remaining()
    }

    fn spent(&self) -> u64 {
        self.session.spent()
    }
}
