//! # aggtrack — Aggregate Estimation Over Dynamic Hidden Web Databases
//!
//! A full Rust reproduction of Liu, Thirumuruganathan, Zhang & Das,
//! *Aggregate Estimation Over Dynamic Hidden Web Databases* (VLDB 2014):
//! track COUNT/SUM/AVG aggregates over a database you can only reach
//! through a top-`k`, budget-limited, form-like search interface — while
//! the database keeps changing underneath you.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`hidden_db`] — the dynamic hidden-database substrate (top-`k`
//!   interface, query budgets, updates);
//! * [`query_tree`] — signatures, drill-downs, roll-ups (§3.1);
//! * [`agg_stats`] — moments, inverse-variance combination, budget
//!   allocation (Theorems 4.1–4.2, Corollaries 4.1–4.3);
//! * [`workloads`] — synthetic populations, update schedules, simulated
//!   live sites;
//! * [`core`] — the three estimators: RESTART, REISSUE, RS.
//!
//! See `examples/quickstart.rs` for a five-minute tour and the
//! `crates/bench` binaries for the paper's full experiment suite.

#![warn(missing_docs)]

pub use agg_stats;
pub use aggtrack_core as core;
pub use hidden_db;
pub use query_tree;
pub use workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use agg_stats::{relative_error, SeriesSummary};
    pub use aggtrack_core::{
        AggKind, AggregateSpec, ArchivingTracker, Degraded, Estimator, MultiTracker,
        ReissueEstimator, RestartEstimator, RoundReport, RsConfig, RsEstimator, RunningAverage,
        StratifiedEstimator, TrackingTarget, TupleFilter, TupleFn, WorkloadReport,
    };
    pub use hidden_db::{
        AttrId, ConjunctiveQuery, DbService, DbSnapshot, FaultSchedule, FaultyBackend,
        HiddenDatabase, IssueError, MeasureId, Predicate, QueryOutcome, ResilientBackend,
        RetryPolicy, Schema, ScoringPolicy, SearchBackend, SearchSession, ServiceSession, Tuple,
        TupleKey, TupleView, UpdateBatch, ValueId,
    };
    pub use query_tree::{QueryTree, ReissuePolicy, Signature};
    pub use workloads::{
        AmazonSim, AutosGenerator, BooleanGenerator, DeleteSpec, EbaySim, IntraRoundSession,
        JobBoardConfig, JobBoardGenerator, NoChangeSchedule, PerRoundSchedule, RegenerateSchedule,
        RoundDriver, TupleFactory, UpdateSchedule,
    };
}
