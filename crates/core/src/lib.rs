//! # ProgXe — progressive evaluation of SkyMapJoin queries
//!
//! This crate implements the paper's primary contribution: a pipelined,
//! non-blocking execution framework for queries that join two sources, map
//! the join results through user-defined functions, and retain the Pareto
//! skyline of the mapped output (*SkyMapJoin* queries, Section II).
//!
//! The framework follows Figure 2 of the paper:
//!
//! 1. **Output-space look-ahead** ([`lookahead`]) — both inputs are
//!    partitioned into multi-dimensional grids ([`grid`]); partition pairs
//!    whose join-value [`signature`]s overlap are mapped (via interval
//!    evaluation of the [`mapping`] functions) into *output regions*;
//!    regions and output cells dominated at this abstraction level are
//!    pruned before any tuple-level work.
//! 2. **Region ordering** ([`progorder`]) — a cursor over the regions
//!    origin first: SFS's presort of their oriented lower corners (or a
//!    seeded shuffle, the No-Order arm). The paper's Algorithm 1 ranks
//!    elimination-graph roots by Benefit / Cost here; on this engine's
//!    grids that ranking reduced to its fallback order or mostly ran later
//!    than it, so it is not implemented.
//! 3. **Tuple-level processing** ([`tuple_level`], [`cells`]) — the join,
//!    map, and cell-restricted dominance comparisons for the chosen region.
//! 4. **Progressive result determination** ([`progdetermine`]) — count-based
//!    blocker bookkeeping per output cell decides when generated tuples are
//!    *safe* to emit: no false positives, no false negatives (Algorithm 2,
//!    Principle 1).
//!
//! The [`executor`] module builds the pipeline front end behind the public
//! entry point [`ProgXe`]; the [`driver`] module owns the single region
//! loop ([`driver::RegionDriver`]) that every backend — inline or pooled —
//! executes. `ProgXeConfig::threads` picks the backend: above 1, regions
//! run on a work-stealing [`pool`] that the engine's [`runtime`] spawns
//! lazily and shares with every session and clone of the engine. Results
//! are consumed by pulling a streaming [`session::QuerySession`]
//! (incremental batches, cancellation, `take(k)` early termination). Sources that *arrive* incrementally (the paper's
//! federated/web setting) open an [`ingest::IngestSession`] instead —
//! through the same front end, look-ahead, committer and work context —
//! which accepts row batches, watermarks, and per-source close signals,
//! and emits proven-final results while data is still in flight.
//!
//! ## Quick example
//!
//! ```
//! use progxe_core::prelude::*;
//!
//! // Two tiny sources: attributes + join key per tuple.
//! let r = SourceData::from_rows(2, &[(&[1.0, 5.0][..], 0), (&[4.0, 2.0][..], 1)]);
//! let t = SourceData::from_rows(2, &[(&[2.0, 3.0][..], 0), (&[1.0, 1.0][..], 1)]);
//!
//! // Q1-style query: minimize (r.0 + t.0) and (r.1 + t.1).
//! let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
//! let exec = ProgXe::new(ProgXeConfig::default());
//! let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
//! assert_eq!(out.results.len(), 2); // both join pairs are Pareto-optimal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod config;
pub mod driver;
pub mod error;
pub mod executor;
pub mod fdom;
pub mod fxhash;
pub mod grid;
pub mod ingest;
pub mod lookahead;
pub mod mapping;
pub mod output_grid;
pub mod pool;
pub mod progdetermine;
pub mod progorder;
pub mod pushthrough;
pub mod runtime;
pub mod session;
pub mod signature;
pub mod sink;
pub mod source;
pub mod stats;
pub mod tuple_level;

pub use config::{OrderingPolicy, ProgXeConfig};
pub use driver::{Committer, DriverPoll, ExecutorBackend, Popped, RegionDriver, TaskSpawner};
pub use error::{Error, Result};
pub use executor::{ProgXe, RunOutput};
pub use fdom::{DominanceModel, FDominance, FdomError, QueryDominance, WeightConstraint};
pub use ingest::{IngestError, IngestPoll, IngestSession, SourceId, StreamSpec};
pub use mapping::{GeneralMap, MapSet, MappingFunction, WeightedSum};
pub use session::{CancellationToken, ProgressiveEngine, QuerySession, ResultEvent};
pub use sink::{CollectSink, ProgressSink, ResultSink};
pub use source::{SourceData, SourceView};
pub use stats::{ExecStats, ProgressRecord, ResultTuple};

/// One-stop imports for examples and downstream crates.
pub mod prelude {
    pub use crate::config::{OrderingPolicy, ProgXeConfig};
    pub use crate::executor::{ProgXe, RunOutput};
    pub use crate::fdom::{DominanceModel, FDominance, FdomError, WeightConstraint};
    pub use crate::ingest::{IngestError, IngestPoll, IngestSession, SourceId, StreamSpec};
    pub use crate::mapping::{GeneralMap, MapSet, MappingFunction, WeightedSum};
    pub use crate::session::{CancellationToken, ProgressiveEngine, QuerySession, ResultEvent};
    pub use crate::sink::{CollectSink, ProgressSink, ResultSink};
    pub use crate::source::{SourceData, SourceView};
    pub use crate::stats::{ExecStats, ProgressRecord, ResultTuple};
    pub use progxe_skyline::{Order, Preference};
}
