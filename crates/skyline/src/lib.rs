//! Preference model and classic single-set skyline algorithms.
//!
//! This crate is the *substrate* layer of the ProgXe reproduction: it defines
//! the Pareto preference model of the paper (Section II-A) and implements the
//! classic skyline algorithms that the paper builds on or cites:
//!
//! * [`bnl`] — Block-Nested-Loops, the baseline window algorithm of
//!   Börzsönyi, Kossmann & Stocker (ICDE 2001).
//! * [`sfs`] — Sort-Filter-Skyline: presorting in a linear extension of
//!   dominance makes a single filtering pass sufficient and the output
//!   *progressive*.
//! * [`reference`](mod@reference) — the quadratic naive skyline every test oracle uses.
//! * [`kernel`] — the batched columnar dominance kernels the engine's
//!   tuple-level phase and committer run.
//! * [`forest`] — the dominance index over the rows a query admitted so
//!   far, which the tuple-level phase asks before expanding or keeping a
//!   tuple.
//!
//! All algorithms operate on a [`PointStore`] (a dense row-major matrix of
//! `f64` attribute values) under a [`Preference`] (per-dimension
//! lowest/highest orders combined as an equally-important Pareto preference,
//! Definition 1 of the paper). They return indices into the store plus
//! [`SkylineStats`] counting the dominance tests performed, which the
//! benchmark harness uses to validate the paper's comparison-count claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnl;
pub mod dominance;
pub mod forest;
pub mod kernel;
pub mod point;
pub mod preference;
pub mod reference;
pub mod sfs;
pub mod stats;

pub use bnl::{bnl_skyline, bnl_skyline_under};
pub use dominance::{DomRelation, Dominance};
pub use forest::DominanceForest;
pub use point::PointStore;
pub use preference::{Order, Preference};
pub use reference::{naive_skyline, naive_skyline_under};
pub use sfs::{sfs_skyline, sfs_skyline_under};
pub use stats::{SkylineResult, SkylineStats};
