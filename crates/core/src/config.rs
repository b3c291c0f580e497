//! Executor configuration: grid granularity, ordering policy, push-through,
//! and the tuple-level parallelism knob. Join signatures are always exact
//! bitsets ([`crate::signature`] says why), so they have no knob.

use crate::error::{Error, Result};
use std::num::NonZeroUsize;

/// How regions are ordered for tuple-level processing (Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// Regions origin first — in SFS presort order of their oriented lower
    /// corners, equal corners by id — "ProgXe" in the experiments. It
    /// stands in for the paper's Algorithm 1 ranking, which is not
    /// implemented ([`crate::progorder`] says why).
    ProgOrder,
    /// Regions are processed in a seeded random order — the paper's
    /// "ProgXe (No-Order)" variation. Progressive result determination
    /// stays enabled, so output is still early and correct; only the
    /// *rate* optimization is disabled.
    Random {
        /// Shuffle seed (deterministic given the seed).
        seed: u64,
    },
}

/// Configuration of the ProgXe executor.
///
/// The defaults target the scaled-down experiment sizes of this
/// reproduction (N ≈ 10K–100K); `input_partitions_per_dim` is the paper's
/// input grid granularity and `output_cells_per_dim` its output partition
/// size δ (expressed as a cell count, since the output extent is data-
/// dependent).
///
/// Deliberately **not** here: the dominance relation. A flexible-skyline
/// weight family ([`crate::fdom::DominanceModel`]) has the query's output
/// dimensionality baked in, so it travels with the query on
/// [`MapSet::with_dominance`](crate::mapping::MapSet::with_dominance)
/// (set by the planner's `WITH WEIGHTS` clause) rather than on this
/// engine-lifetime configuration — one engine serves Pareto and flexible
/// queries interchangeably.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgXeConfig {
    /// Grid partitions per attribute dimension on each input source — an
    /// upper bound: a grid built from rows is capped per attribute
    /// dimensionality to at most
    /// [`INPUT_CELL_BUDGET`](crate::grid::INPUT_CELL_BUDGET) cells
    /// ([`capped_slices`](crate::grid::capped_slices): 256 at `d = 2`, 16
    /// at `d = 4`, 4 at `d = 8`). A stream's declared grid is bounded by
    /// [`MAX_STREAM_REGIONS`](crate::ingest::MAX_STREAM_REGIONS) instead.
    pub input_partitions_per_dim: usize,
    /// Output-grid cells per output dimension (the paper's δ) — an upper
    /// bound: the grid is capped per output dimensionality to fit
    /// [`OutputGrid::DENSE_INDEX_BUDGET`](crate::output_grid::OutputGrid::DENSE_INDEX_BUDGET)
    /// positions (the default 24 stays 24 up to `d = 4`, becomes 16 at
    /// `d = 5` and 5 at `d = 8`). The result set does not depend on it.
    pub output_cells_per_dim: usize,
    /// Region order for tuple-level processing: origin first, or the
    /// No-Order arm's seeded shuffle.
    pub ordering: OrderingPolicy,
    /// Apply skyline partial push-through to each source before grid
    /// construction (the "+" in ProgXe+; Section VI-B).
    pub push_through: bool,
    /// Join selectivity hint σ, validated to `(0, 1]` but read by nothing
    /// in the engine: the region schedule does not rank regions by their
    /// estimated output (the paper's Equation 1). Kept for a grid-sizing
    /// rule that would derive granularity from σ; without such a reader it
    /// goes, together with its last callers.
    pub selectivity_hint: Option<f64>,
    /// Worker threads for the tuple-level phase. `1` (the default) runs the
    /// unified region driver on its `Inline` backend; larger values make
    /// [`crate::executor::ProgXe`] — batch sessions and `open_ingest` alike
    /// — fan region work units across its shared thread pool of this many
    /// workers, while a single ordered committer preserves the
    /// progressive-emission guarantees. Fixed when the engine is built
    /// (`ProgXe::new` sizes the pool from it).
    pub threads: NonZeroUsize,
}

impl Default for ProgXeConfig {
    fn default() -> Self {
        Self {
            input_partitions_per_dim: 3,
            output_cells_per_dim: 24,
            ordering: OrderingPolicy::ProgOrder,
            push_through: false,
            selectivity_hint: None,
            threads: NonZeroUsize::MIN,
        }
    }
}

impl ProgXeConfig {
    /// The paper's four experimental variations (Section VI-B). `ordered`
    /// picks the origin-first order ([`OrderingPolicy::ProgOrder`]) over a
    /// seeded shuffle ([`OrderingPolicy::Random`]).
    ///
    /// * `ordered = true,  push = false` → ProgXe
    /// * `ordered = true,  push = true ` → ProgXe+
    /// * `ordered = false, push = false` → ProgXe (No-Order)
    /// * `ordered = false, push = true ` → ProgXe+ (No-Order)
    pub fn variation(ordered: bool, push: bool) -> Self {
        Self {
            ordering: if ordered {
                OrderingPolicy::ProgOrder
            } else {
                OrderingPolicy::Random { seed: 0x5EED }
            },
            push_through: push,
            ..Self::default()
        }
    }

    /// Builder: set input grid granularity.
    pub fn with_input_partitions(mut self, per_dim: usize) -> Self {
        self.input_partitions_per_dim = per_dim;
        self
    }

    /// Builder: set output grid granularity (δ).
    pub fn with_output_cells(mut self, per_dim: usize) -> Self {
        self.output_cells_per_dim = per_dim;
        self
    }

    /// Builder: set ordering policy.
    pub fn with_ordering(mut self, ordering: OrderingPolicy) -> Self {
        self.ordering = ordering;
        self
    }

    /// Builder: toggle push-through.
    pub fn with_push_through(mut self, enabled: bool) -> Self {
        self.push_through = enabled;
        self
    }

    /// Builder: set the (currently unread) selectivity hint.
    pub fn with_selectivity_hint(mut self, sigma: f64) -> Self {
        self.selectivity_hint = Some(sigma);
        self
    }

    /// Builder: set the tuple-level worker thread count. Values below 1
    /// are clamped to 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero");
        self
    }

    /// The default configuration with environment overrides applied.
    ///
    /// Recognized variables:
    /// * `PROGXE_THREADS` — tuple-level worker thread count (≥ 1).
    ///
    /// `from_env()` never errors or panics: per the `progxe_obs::env`
    /// contract, an unset or empty variable is silently ignored, and a
    /// malformed or zero value falls back to the default thread count with
    /// a `progxe_obs::log` warning echoing the value (filterable via
    /// `PROGXE_LOG`) — a bad deployment environment must degrade to
    /// sequential execution, not take the query layer down.
    pub fn from_env() -> Self {
        let config = Self::default();
        let threads =
            progxe_obs::env::parse_usize_at_least("PROGXE_THREADS", config.threads.get(), 1);
        config.with_threads(threads)
    }

    /// Validates field ranges.
    pub fn validate(&self) -> Result<()> {
        if self.input_partitions_per_dim == 0 {
            return Err(Error::InvalidConfig("input_partitions_per_dim must be > 0"));
        }
        if self.output_cells_per_dim == 0 {
            return Err(Error::InvalidConfig("output_cells_per_dim must be > 0"));
        }
        if self.output_cells_per_dim > u16::MAX as usize {
            return Err(Error::InvalidConfig(
                "output_cells_per_dim must fit in 16 bits",
            ));
        }
        if let Some(s) = self.selectivity_hint {
            if !(s > 0.0 && s <= 1.0) {
                return Err(Error::InvalidConfig("selectivity_hint must be in (0, 1]"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ProgXeConfig::default().validate().is_ok());
    }

    #[test]
    fn variations_toggle_the_right_knobs() {
        let v = ProgXeConfig::variation(true, true);
        assert_eq!(v.ordering, OrderingPolicy::ProgOrder);
        assert!(v.push_through);
        let v = ProgXeConfig::variation(false, false);
        assert!(matches!(v.ordering, OrderingPolicy::Random { .. }));
        assert!(!v.push_through);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ProgXeConfig::default()
            .with_input_partitions(0)
            .validate()
            .is_err());
        assert!(ProgXeConfig::default()
            .with_output_cells(0)
            .validate()
            .is_err());
        assert!(ProgXeConfig::default()
            .with_selectivity_hint(0.0)
            .validate()
            .is_err());
        assert!(ProgXeConfig::default()
            .with_selectivity_hint(1.5)
            .validate()
            .is_err());
    }

    #[test]
    fn builders_chain() {
        let c = ProgXeConfig::default()
            .with_input_partitions(4)
            .with_output_cells(32)
            .with_push_through(true)
            .with_selectivity_hint(0.01)
            .with_threads(4);
        assert_eq!(c.input_partitions_per_dim, 4);
        assert_eq!(c.output_cells_per_dim, 32);
        assert!(c.push_through);
        assert_eq!(c.selectivity_hint, Some(0.01));
        assert_eq!(c.threads.get(), 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn threads_clamp_to_one() {
        assert_eq!(ProgXeConfig::default().threads.get(), 1);
        assert_eq!(ProgXeConfig::default().with_threads(0).threads.get(), 1);
    }

    #[test]
    fn from_env_honors_thread_override_and_survives_bad_values() {
        // One test fn for every PROGXE_THREADS case: env mutation is
        // process-global, so the cases must not run in parallel.
        std::env::set_var("PROGXE_THREADS", "3");
        assert_eq!(ProgXeConfig::from_env().threads.get(), 3);
        // Malformed value: falls back to the default (with a stderr note),
        // never errors or panics.
        std::env::set_var("PROGXE_THREADS", "not-a-number");
        assert_eq!(ProgXeConfig::from_env().threads.get(), 1);
        std::env::set_var("PROGXE_THREADS", "-2");
        assert_eq!(ProgXeConfig::from_env().threads.get(), 1);
        std::env::set_var("PROGXE_THREADS", "4.5");
        assert_eq!(ProgXeConfig::from_env().threads.get(), 1);
        // Zero: NonZeroUsize cannot hold it; falls back to the default.
        std::env::set_var("PROGXE_THREADS", "0");
        assert_eq!(ProgXeConfig::from_env().threads.get(), 1);
        // Whitespace-padded valid value still parses.
        std::env::set_var("PROGXE_THREADS", " 2 ");
        assert_eq!(ProgXeConfig::from_env().threads.get(), 2);
        // Empty and unset are silently the default.
        std::env::set_var("PROGXE_THREADS", "");
        assert_eq!(ProgXeConfig::from_env(), ProgXeConfig::default());
        std::env::remove_var("PROGXE_THREADS");
        assert_eq!(ProgXeConfig::from_env(), ProgXeConfig::default());
    }
}
