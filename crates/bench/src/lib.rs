//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section VI) on scaled-down workloads.
//!
//! The paper's testbed (N = 500K tuples per source, AMD 2.6 GHz, Java
//! HotSpot, runtimes of 100–10000 seconds per data point) is impractical to
//! replay per-commit; the harness defaults to cardinalities that finish in
//! seconds while preserving every *shape* the paper reports — who produces
//! results first, who wins by orders of magnitude, where the crossovers
//! fall. Every experiment accepts `--n/--sigma/--dims` overrides, so
//! paper-scale runs are one flag away.
//!
//! [`figures`] maps each paper figure and ablation to the function that
//! reproduces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod microbench;
pub mod report;
pub mod runners;

pub use report::{write_csv, Table};
pub use runners::{default_config_for, run_algo, AlgoKind, RunResult};
