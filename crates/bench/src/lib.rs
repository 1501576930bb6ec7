//! # aggtrack-bench — figure harnesses
//!
//! Everything needed to regenerate the paper's evaluation (§6):
//!
//! * [`cli`] — the `--scale quick|default|paper` presets and overrides;
//! * [`runner`] — the shared trials×rounds tracking loop, parallel over
//!   trials with bit-identical-to-sequential output;
//! * [`figures`] — one function per paper figure (2–21), each printing
//!   its series as CSV; invoked by the `figNN_*` binaries and by
//!   `all_figures` (which runs them concurrently, output in order).
//!
//! The measured benchmark is `trackbench/`, a package of its own.

pub mod cli;
pub mod figures;
pub mod runner;

pub use cli::{BaseCfg, Cli, Scale};
