//! # ProgXe — progressive result generation for SkyMapJoin queries
//!
//! Facade crate re-exporting the whole workspace. See `README.md` for the
//! architecture overview, the `QuerySession` streaming quickstart, and the
//! paper-to-module map.
//!
//! * [`skyline`] — preference model + classic skyline algorithms.
//! * [`obs`] — tracing/metrics: spans, counters, histograms, `PROGXE_LOG`.
//! * [`datagen`] — Börzsönyi-style synthetic workload generator.
//! * [`core`] — the ProgXe framework (look-ahead, ProgOrder, ProgDetermine)
//!   and its shared work-stealing thread pool.
//! * [`query`] — SkyMapJoin algebra, `PREFERRING` parser, planner.
//! * [`server`] — TCP serving layer: framed progressive batches,
//!   per-client cancellation, admission control.
//! * [`baselines`] — JF-SL, JF-SL+, SSMJ.

#![forbid(unsafe_code)]

pub use progxe_baselines as baselines;
pub use progxe_core as core;
pub use progxe_datagen as datagen;
pub use progxe_obs as obs;
pub use progxe_query as query;
pub use progxe_server as server;
pub use progxe_skyline as skyline;
