//! # progxe-runtime — compatibility re-exports
//!
//! The work-stealing thread pool and the per-engine [`EngineRuntime`] live
//! in `progxe-core` ([`progxe_core::pool`], [`progxe_core::runtime`]), and
//! [`progxe_core::ProgXe`] runs its regions on that pool whenever
//! `ProgXeConfig::threads > 1`. This crate only keeps the old names
//! resolving for code that has not moved yet; new code should depend on
//! `progxe-core` directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use progxe_core::pool::{self, PoolClosed, ThreadPool};
pub use progxe_core::runtime::{self, EngineRuntime};

/// The pooled engine is [`progxe_core::ProgXe`] itself, sized by
/// `ProgXeConfig::threads`.
pub type ParallelProgXe = progxe_core::ProgXe;
