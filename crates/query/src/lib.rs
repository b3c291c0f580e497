//! SkyMapJoin query front-end: a small SQL-with-`PREFERRING` dialect, a
//! catalog, and a planner that compiles queries onto the ProgXe executor or
//! any baseline.
//!
//! The dialect covers the paper's query class (Section II-B) — equi-join of
//! two sources, linear mapping expressions, Pareto preferences — e.g. Q1:
//!
//! ```sql
//! SELECT R.id, T.id,
//!        (R.uPrice + T.uShipCost) AS tCost,
//!        (2 * R.manTime + T.shipTime) AS delay
//! FROM Suppliers R, Transporters T
//! WHERE R.country = T.country AND R.manCap >= 100
//! PREFERRING LOWEST(tCost) AND LOWEST(delay)
//! ```
//!
//! Pipeline: [`parser`] text → [`ast`] → [`plan`] (validated against a
//! [`catalog::Catalog`]) → [`exec`] (ProgXe / JF-SL / SSMJ).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod exec;
pub mod parser;
pub mod plan;

pub use ast::{ComparisonOp, Expr, Query};
pub use catalog::{Catalog, StreamTable, TableSchema};
pub use exec::{Engine, QueryRunner, StreamingQuery};
pub use parser::{parse_query, ParseError};
pub use plan::{CompiledQuery, PlanError, PlannedQuery, StreamingPlan};
