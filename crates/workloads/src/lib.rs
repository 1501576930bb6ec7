//! # workloads — populations, update schedules, and simulated live sites
//!
//! Everything the experiments need to *drive* a
//! [`hidden_db::database::HiddenDatabase`] the way the paper's evaluation
//! does (§6.1):
//!
//! * [`autos`] — a synthetic stand-in for the proprietary Yahoo! Autos
//!   snapshot (same cardinality, attribute count, domain sizes, skew,
//!   correlations; the [`autos`] module docs give the substitution
//!   argument);
//! * [`boolean`] — the i.i.d. Boolean population of §3.2.1;
//! * [`schedule`] — per-round insertion/deletion schedules covering every
//!   figure's configuration, plus total regeneration;
//! * [`driver`] — the round loop (round-update model, §2.1);
//! * [`timeline`] — the constant-update model (§5.2): updates interleaved
//!   with the estimator's own queries;
//! * [`amazon`] / [`ebay`] — simulated stand-ins for the two live
//!   experiments (Figs 20–21), with ground truth the real sites could not
//!   provide;
//! * [`zipf`] — seeded skewed samplers shared by the generators.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amazon;
pub mod autos;
pub mod boolean;
pub mod driver;
pub mod ebay;
pub mod factory;
pub mod jobs;
pub mod schedule;
pub mod timeline;
pub mod zipf;

pub use amazon::AmazonSim;
pub use autos::{AutosConfig, AutosGenerator};
pub use boolean::BooleanGenerator;
pub use driver::{load_database, RoundDriver};
pub use ebay::EbaySim;
pub use factory::TupleFactory;
pub use jobs::{JobBoardConfig, JobBoardGenerator};
pub use schedule::{
    DeleteSpec, NoChangeSchedule, PerRoundSchedule, RegenerateSchedule, UpdateSchedule,
};
pub use timeline::{spread_evenly, IntraRoundSession, MicroOp, TimedUpdate};
pub use zipf::ZipfSampler;
