//! State-of-the-art baselines for skyline-over-join evaluation
//! (Section VI-A of the paper).
//!
//! * [`jfsl`](mod@jfsl) — **JF-SL**: the traditional blocking plan (Figure 1.b):
//!   hash join → map → skyline, one output batch at the very end. **JF-SL+**
//!   adds skyline partial push-through pruning on each source.
//! * [`ssmj`](mod@ssmj) — **SSMJ** (Jin et al., "The multi-relational skyline
//!   operator", ICDE 2007), as characterized in the paper: per-source
//!   source-level (`LS(S)`) and group-level (`LS(N)`) lists, four join
//!   phases, and results reported in *two batches*.
//!
//! All baselines consume the same inputs as ProgXe ([`SourceView`],
//! [`MapSet`]) and push [`ResultTuple`] batches through the same
//! [`ResultSink`] abstraction, so progressiveness curves are directly
//! comparable. The [`engine`] module additionally wraps each of them in the
//! workspace-wide [`ProgressiveEngine`] interface, giving every baseline
//! the same pull-based [`QuerySession`] consumption model as ProgXe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod engine;
pub mod jfsl;
pub mod ssmj;

pub use common::{oracle_smj, BaselineStats, SkyAlgo};
pub use engine::{baseline_exec_stats, JfSlEngine, SsmjEngine};
pub use jfsl::{jfsl, jfsl_plus};
pub use ssmj::ssmj;

pub use progxe_core::mapping::MapSet;
pub use progxe_core::session::{ProgressiveEngine, QuerySession, ResultEvent};
pub use progxe_core::sink::ResultSink;
pub use progxe_core::source::SourceView;
pub use progxe_core::stats::ResultTuple;
