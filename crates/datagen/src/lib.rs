//! Synthetic workload generator for skyline-over-join experiments.
//!
//! The paper evaluates on "data sets that are the de-facto standard for
//! stress testing skyline algorithms" (Börzsönyi, Kossmann & Stocker,
//! ICDE 2001): *independent*, *correlated*, and *anti-correlated* attribute
//! distributions with real values in `[1, 100]`, cardinalities 10K–500K,
//! and a join selectivity σ varied in `[1e-4, 1e-1]`.
//!
//! Kossmann's original generator binary is not available, so this crate
//! re-implements the three distributions with a seeded RNG for
//! reproducibility. That is a substitution: the data sets have the
//! published shapes, not the paper's exact rows, so results compare by
//! shape (who is first, by what factor), never number for number:
//!
//! * **independent** — every attribute i.i.d. uniform.
//! * **correlated** — attributes cluster around a shared per-tuple level, so
//!   a handful of tuples dominate almost the entire relation (skyline-
//!   friendly).
//! * **anti-correlated** — attributes trade off against each other along a
//!   constant-sum band, producing very large skylines (skyline-hostile).
//!
//! Join keys are uniform over `V = round(1/σ)` distinct values, giving an
//! expected equi-join selectivity of σ (each `(r, t)` pair matches with
//! probability `1/V`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod distribution;
pub mod relation;
pub mod rng;
pub mod weights;
pub mod workload;

pub use arrival::{ArrivalBatch, ArrivalOrder, ArrivalSchedule, ArrivalSpec, Batching};
pub use distribution::Distribution;
pub use relation::Relation;
pub use rng::{Rng, StdRng};
pub use weights::simplex_band;
pub use workload::{SmjWorkload, WorkloadSpec};
