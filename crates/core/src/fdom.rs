//! Flexible skylines: F-dominance over a constrained family of scoring
//! weights.
//!
//! The paper's framework proves results final under classical Pareto
//! dominance (Definition 1). The flexible-skyline line of work (Ciaccia &
//! Martinenghi's non-dominated operator; surveyed in arXiv:2202.09857 and
//! arXiv:2201.04899) replaces "better in every dimension" with "better
//! under every scoring function the user would accept": given a family of
//! linear scoring weights
//!
//! ```text
//! W = { w ∈ ℝ^d : A·w ≤ b,  w ≥ 0,  Σ wᵢ = 1 }
//! ```
//!
//! tuple `t` **F-dominates** `s` (over *oriented*, lower-is-better values)
//! iff `w·t ≤ w·s` for every `w ∈ W` and `w·t < w·s` for at least one.
//! The F-skyline (the set of tuples no other tuple F-dominates) shrinks as
//! `W` shrinks, interpolating between the full skyline (`W` = the whole
//! simplex, where F-dominance coincides with Pareto dominance) and a
//! top-1-style answer (`W` a single weight vector).
//!
//! ## Exactness via vertex enumeration
//!
//! Because `w ↦ w·(t − s)` is linear and `W` is a bounded polytope, the
//! universally quantified test reduces to the polytope's **vertices**:
//! `∀w ∈ W: w·t ≤ w·s` iff the inequality holds at every vertex, and the
//! strict witness exists in `W` iff it exists at some vertex (a convex
//! combination that is strictly negative must have a strictly negative
//! term). [`FDominance::new`] therefore enumerates the vertices once at
//! build time — each vertex is the solution of `d−1` tight inequality
//! constraints together with `Σ wᵢ = 1`, solved exactly by Gaussian
//! elimination and kept only if it satisfies every constraint — and the
//! per-pair test is a handful of dot products: no LP solver in the hot
//! path, no external dependencies, deterministic results.
//!
//! ## Why the rest of the engine keeps working
//!
//! Two facts carry the whole integration, both proved by
//! [`DominanceModel`]'s tests and relied on throughout the stack:
//!
//! 1. **Pareto dominance implies F-dominance** (weights are non-negative),
//!    so every Pareto-based pruning step — dead regions, killed cells,
//!    push-through, the local skyline pre-filter, rejection and the
//!    release filter of the cell store — discards only tuples that are
//!    also F-dominated. Region-level
//!    reasoning stays sound unchanged.
//! 2. **F-dominance composes through Pareto**: if `s` F-dominates `t` and
//!    `u` Pareto-dominates `s`, then `u` F-dominates `t`. Hence the
//!    F-skyline can be computed by filtering the tuples the cells hold
//!    under Pareto — every F-dominator the store dropped or never admitted
//!    is represented by a held Pareto dominator that also F-dominates.
//!
//! What Pareto machinery *cannot* provide is emission finality: `u` can
//! F-dominate `t` from a cell that is Pareto-incomparable to `t`'s. The
//! blocker bookkeeping of [`crate::progdetermine`] is therefore
//! strengthened under a flexible model (a region blocks a cell iff its
//! best corner could weakly F-dominate the cell's worst corner — checked
//! at the vertices), and emitted cells pass a final F-filter against the
//! tuples the cells hold. See `ProgDetermine` for the argument.

use crate::error::{Error, Result};
use crate::output_grid::{Coord, OutputGrid, MAX_DIMS};
use progxe_skyline::{kernel, Dominance, Order};
use std::fmt;
use std::sync::Arc;

/// Hard cap on user-supplied weight constraints. Vertex enumeration scans
/// `C(dims + constraints, dims − 1)` candidate bases; this bound keeps the
/// one-off build comfortably sub-second at every supported dimensionality.
pub const MAX_WEIGHT_CONSTRAINTS: usize = 16;

/// Feasibility tolerance for vertex candidates (absolute, on `a·w − b`).
const FEAS_EPS: f64 = 1e-9;
/// Pivot threshold below which a candidate basis is considered singular.
const PIVOT_EPS: f64 = 1e-12;
/// L∞ tolerance for deduplicating enumerated vertices.
const DEDUP_EPS: f64 = 1e-7;

/// Typed failures while building an [`FDominance`] model. Surfaced at
/// plan/build time so a degenerate weight family can never panic (or
/// silently misbehave) mid-region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdomError {
    /// The weight space needs at least one dimension.
    NoDimensions,
    /// More output dimensions than the cell encoding supports.
    TooManyDimensions {
        /// Requested weight dimensions.
        dims: usize,
        /// Supported maximum ([`MAX_DIMS`]).
        max: usize,
    },
    /// A constraint's coefficient vector length differs from `dims`.
    ConstraintArity {
        /// Index of the offending constraint.
        constraint: usize,
        /// Expected coefficient count (= weight dimensions).
        expected: usize,
        /// Coefficients supplied.
        got: usize,
    },
    /// A constraint contains a NaN or infinite coefficient or bound.
    NonFinite {
        /// Index of the offending constraint.
        constraint: usize,
    },
    /// Too many constraints (see [`MAX_WEIGHT_CONSTRAINTS`]).
    TooManyConstraints {
        /// Constraints supplied.
        got: usize,
        /// Supported maximum.
        max: usize,
    },
    /// The constraints admit no weight vector at all: `W` is empty, so
    /// F-dominance would be vacuously universal and every tuple would
    /// "dominate" every other — rejected instead of executed.
    EmptyPolytope,
    /// The model's weight dimensionality differs from the query's output
    /// dimensionality.
    DimensionMismatch {
        /// Weight dimensions of the model.
        model: usize,
        /// Output dimensions of the query.
        query: usize,
    },
}

impl fmt::Display for FdomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdomError::NoDimensions => write!(f, "weight family needs at least 1 dimension"),
            FdomError::TooManyDimensions { dims, max } => {
                write!(
                    f,
                    "{dims} weight dimensions exceed the supported maximum {max}"
                )
            }
            FdomError::ConstraintArity {
                constraint,
                expected,
                got,
            } => write!(
                f,
                "weight constraint {constraint} has {got} coefficients, expected {expected}"
            ),
            FdomError::NonFinite { constraint } => write!(
                f,
                "weight constraint {constraint} contains a NaN or infinite value"
            ),
            FdomError::TooManyConstraints { got, max } => {
                write!(
                    f,
                    "{got} weight constraints exceed the supported maximum {max}"
                )
            }
            FdomError::EmptyPolytope => write!(
                f,
                "weight constraints admit no weight vector (empty polytope over the simplex)"
            ),
            FdomError::DimensionMismatch { model, query } => write!(
                f,
                "weight family has {model} dimensions but the query defines {query} outputs"
            ),
        }
    }
}

impl std::error::Error for FdomError {}

/// One linear constraint `coeffs · w ≤ bound` on the weight vector.
///
/// Non-negativity (`w ≥ 0`) and normalization (`Σ wᵢ = 1`) are implicit —
/// every weight family lives inside the probability simplex. `≥` and `=`
/// constraints are expressed by negation / a pair of inequalities (the
/// query planner does this for `CONSTRAIN` clauses).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightConstraint {
    /// Per-dimension coefficients (length = weight dimensions).
    pub coeffs: Vec<f64>,
    /// Inclusive upper bound.
    pub bound: f64,
}

impl WeightConstraint {
    /// `coeffs · w ≤ bound`.
    pub fn le(coeffs: Vec<f64>, bound: f64) -> Self {
        Self { coeffs, bound }
    }

    /// `w[dim] ≤ ub` over `dims` weight dimensions.
    pub fn at_most(dims: usize, dim: usize, ub: f64) -> Self {
        let mut coeffs = vec![0.0; dims];
        coeffs[dim] = 1.0;
        Self { coeffs, bound: ub }
    }

    /// `w[dim] ≥ lb` over `dims` weight dimensions.
    pub fn at_least(dims: usize, dim: usize, lb: f64) -> Self {
        let mut coeffs = vec![0.0; dims];
        coeffs[dim] = -1.0;
        Self { coeffs, bound: -lb }
    }
}

/// F-dominance over a linear weight-constraint family, realized as the
/// enumerated vertex set of the weight polytope (see the module docs).
///
/// Values compared through this type are **oriented** (every dimension
/// lower-is-better); raw-orientation entry points take the query's
/// [`Order`]s and orient inline.
#[derive(Debug, Clone)]
pub struct FDominance {
    dims: usize,
    constraints: Vec<WeightConstraint>,
    /// Flattened `vertex_count × dims` vertex matrix, rows sorted
    /// lexicographically (canonical, deterministic order).
    vertices: Vec<f64>,
}

impl FDominance {
    /// Builds the model for `dims` criteria under `constraints`
    /// (`A·w ≤ b`; non-negativity and `Σw = 1` implicit). Enumerates the
    /// weight polytope's vertices once; degenerate families — empty
    /// polytope, NaN coefficients, negative-infeasible bounds — are typed
    /// errors here, never runtime panics.
    pub fn new(
        dims: usize,
        constraints: Vec<WeightConstraint>,
    ) -> std::result::Result<Self, FdomError> {
        if dims == 0 {
            return Err(FdomError::NoDimensions);
        }
        if dims > MAX_DIMS {
            return Err(FdomError::TooManyDimensions {
                dims,
                max: MAX_DIMS,
            });
        }
        if constraints.len() > MAX_WEIGHT_CONSTRAINTS {
            return Err(FdomError::TooManyConstraints {
                got: constraints.len(),
                max: MAX_WEIGHT_CONSTRAINTS,
            });
        }
        for (i, c) in constraints.iter().enumerate() {
            if c.coeffs.len() != dims {
                return Err(FdomError::ConstraintArity {
                    constraint: i,
                    expected: dims,
                    got: c.coeffs.len(),
                });
            }
            if !c.bound.is_finite() || c.coeffs.iter().any(|v| !v.is_finite()) {
                return Err(FdomError::NonFinite { constraint: i });
            }
        }

        let vertices = if constraints.is_empty() {
            // Unconstrained simplex: the vertices are exactly the unit
            // weight vectors, making F-dominance *identical* (bit-for-bit)
            // to Pareto dominance on oriented values.
            let mut v = vec![0.0; dims * dims];
            for i in 0..dims {
                v[i * dims + i] = 1.0;
            }
            v
        } else {
            enumerate_vertices(dims, &constraints)?
        };

        Ok(Self {
            dims,
            constraints,
            vertices,
        })
    }

    /// The unconstrained weight family (the whole simplex) — F-dominance
    /// equal to Pareto dominance, useful as an equivalence baseline.
    pub fn simplex(dims: usize) -> std::result::Result<Self, FdomError> {
        Self::new(dims, Vec::new())
    }

    /// Criteria (weight) dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The user constraints the family was built from.
    pub fn constraints(&self) -> &[WeightConstraint] {
        &self.constraints
    }

    /// Number of polytope vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len() / self.dims
    }

    /// Iterates the vertices (each a `dims`-length weight vector).
    pub fn vertices(&self) -> impl Iterator<Item = &[f64]> {
        self.vertices.chunks_exact(self.dims)
    }

    /// True iff `a` F-dominates `b`, both **oriented** (lower-is-better):
    /// `v·a ≤ v·b` at every vertex, strictly at one.
    ///
    /// The per-vertex dot products accumulate in the same order as
    /// [`project_into`](Self::project_into), so deciding F-dominance on
    /// pre-computed projections is bit-identical to this fused test.
    #[inline]
    pub fn dominates_oriented(&self, a: &[f64], b: &[f64]) -> bool {
        debug_assert_eq!(a.len(), self.dims);
        debug_assert_eq!(b.len(), self.dims);
        kernel::fold_dominates(self.vertices.chunks_exact(self.dims).map(|v| {
            let mut da = 0.0;
            let mut db = 0.0;
            for j in 0..self.dims {
                da += v[j] * a[j];
                db += v[j] * b[j];
            }
            (da, db)
        }))
    }

    /// True iff `a` F-dominates `b` in **raw** orientation, using the
    /// query's per-dimension [`Order`]s.
    #[inline]
    pub fn dominates_raw(&self, orders: &[Order], a: &[f64], b: &[f64]) -> bool {
        debug_assert_eq!(orders.len(), self.dims);
        kernel::fold_dominates(self.vertices.chunks_exact(self.dims).map(|v| {
            let mut da = 0.0;
            let mut db = 0.0;
            for j in 0..self.dims {
                da += v[j] * orders[j].orient(a[j]);
                db += v[j] * orders[j].orient(b[j]);
            }
            (da, db)
        }))
    }

    /// Writes the vertex projections `v_k · p` of an oriented point into
    /// `out` (cleared first). Weak F-dominance between points is exactly
    /// component-wise `≤` between their projections — the reduction the
    /// blocker bookkeeping uses.
    pub fn project_into(&self, p: &[f64], out: &mut Vec<f64>) {
        out.clear();
        self.project_onto(p, out);
    }

    /// [`project_into`](Self::project_into) appending to `out`.
    fn project_onto(&self, p: &[f64], out: &mut Vec<f64>) {
        for v in self.vertices.chunks_exact(self.dims) {
            out.push(v.iter().zip(p).map(|(x, y)| x * y).sum());
        }
    }

    /// Like [`project_into`](Self::project_into) but for a **raw** point,
    /// folding the query's orientation into the dot products with the same
    /// accumulation order as [`dominates_raw`](Self::dominates_raw), so
    /// projection-space Pareto tests reproduce it bit-for-bit.
    pub fn project_raw_into(&self, orders: &[Order], p: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(orders.len(), self.dims);
        out.clear();
        for v in self.vertices.chunks_exact(self.dims) {
            let mut s = 0.0;
            for j in 0..self.dims {
                s += v[j] * orders[j].orient(p[j]);
            }
            out.push(s);
        }
    }
}

/// Enumerates the vertices of `{w : A·w ≤ b, w ≥ 0, Σw = 1}`.
fn enumerate_vertices(
    dims: usize,
    constraints: &[WeightConstraint],
) -> std::result::Result<Vec<f64>, FdomError> {
    // Every inequality as (coeffs, bound): first the d non-negativity rows
    // −wᵢ ≤ 0, then the user rows.
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dims + constraints.len());
    for i in 0..dims {
        let mut c = vec![0.0; dims];
        c[i] = -1.0;
        rows.push((c, 0.0));
    }
    for c in constraints {
        rows.push((c.coeffs.clone(), c.bound));
    }

    let feasible = |w: &[f64]| -> bool {
        rows.iter().all(|(c, b)| {
            let lhs: f64 = c.iter().zip(w).map(|(x, y)| x * y).sum();
            lhs <= b + FEAS_EPS
        })
    };

    let mut vertices: Vec<f64> = Vec::new();
    let push_vertex = |w: &[f64], vertices: &mut Vec<f64>| {
        // Clamp feasibility-epsilon negatives and renormalize so later
        // monotonicity arguments (w ≥ 0) hold exactly.
        let mut v: Vec<f64> = w.iter().map(|&x| x.max(0.0)).collect();
        let sum: f64 = v.iter().sum();
        if sum > 0.0 {
            for x in v.iter_mut() {
                *x /= sum;
            }
        }
        let dup = vertices.chunks_exact(dims).any(|existing| {
            existing
                .iter()
                .zip(&v)
                .all(|(a, b)| (a - b).abs() <= DEDUP_EPS)
        });
        if !dup {
            vertices.extend_from_slice(&v);
        }
    };

    if dims == 1 {
        let w = [1.0];
        if feasible(&w) {
            push_vertex(&w, &mut vertices);
        }
    } else {
        // Each vertex is Σw = 1 plus d−1 tight inequalities: iterate all
        // (d−1)-subsets of the rows in lexicographic order (deterministic;
        // m = dims + user rows ≥ dims > k, so at least one subset exists).
        let m = rows.len();
        let k = dims - 1;
        let mut idx: Vec<usize> = (0..k).collect();
        'combos: loop {
            // Assemble and solve the d×d system.
            let mut a = vec![0.0; dims * dims];
            let mut b = vec![0.0; dims];
            a[..dims].fill(1.0); // first row: Σw = 1
            b[0] = 1.0;
            for (r, &ci) in idx.iter().enumerate() {
                let (coeffs, bound) = &rows[ci];
                a[(r + 1) * dims..(r + 2) * dims].copy_from_slice(coeffs);
                b[r + 1] = *bound;
            }
            if let Some(w) = solve_dense(&mut a, &mut b, dims) {
                if feasible(&w) {
                    push_vertex(&w, &mut vertices);
                }
            }

            // Next lexicographic combination; break once exhausted.
            let mut i = k;
            while i > 0 {
                i -= 1;
                if idx[i] < i + m - k {
                    idx[i] += 1;
                    for j in i + 1..k {
                        idx[j] = idx[j - 1] + 1;
                    }
                    continue 'combos;
                }
            }
            break;
        }
    }

    if vertices.is_empty() {
        return Err(FdomError::EmptyPolytope);
    }

    // Canonical order: sort vertex rows lexicographically.
    let mut order: Vec<usize> = (0..vertices.len() / dims).collect();
    order.sort_by(|&x, &y| {
        let a = &vertices[x * dims..(x + 1) * dims];
        let b = &vertices[y * dims..(y + 1) * dims];
        a.iter()
            .zip(b)
            .map(|(p, q)| p.total_cmp(q))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut sorted = Vec::with_capacity(vertices.len());
    for &i in &order {
        sorted.extend_from_slice(&vertices[i * dims..(i + 1) * dims]);
    }
    Ok(sorted)
}

/// Solves `A·x = b` (row-major `n×n`) by Gaussian elimination with partial
/// pivoting. Returns `None` for (near-)singular systems.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        // Pivot: largest |a[row][col]| among remaining rows.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < PIVOT_EPS {
            return None;
        }
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        for row in col + 1..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                a[row * n + j] -= factor * a[col * n + j];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for j in col + 1..n {
            acc -= a[col * n + j] * x[j];
        }
        x[col] = acc / a[col * n + col];
        if !x[col].is_finite() {
            return None;
        }
    }
    Some(x)
}

/// The dominance relation a query runs under: classical Pareto (the paper's
/// Definition 1, the default) or a flexible F-dominance family.
///
/// Carried by [`MapSet`](crate::mapping::MapSet) so the model travels with
/// the query through every layer — executor, ingest, baselines, query
/// planner — without new plumbing. Cloning is cheap (`Arc`).
#[derive(Debug, Clone, Default)]
pub enum DominanceModel {
    /// Classical Pareto dominance under the query's preference.
    #[default]
    Pareto,
    /// F-dominance over a weight polytope.
    Flexible(Arc<FDominance>),
}

impl DominanceModel {
    /// Wraps a built F-dominance family.
    pub fn flexible(fdom: FDominance) -> Self {
        DominanceModel::Flexible(Arc::new(fdom))
    }

    /// True for the classical Pareto model.
    #[inline]
    pub fn is_pareto(&self) -> bool {
        matches!(self, DominanceModel::Pareto)
    }

    /// The flexible family, when one is configured.
    pub fn as_flexible(&self) -> Option<&FDominance> {
        match self {
            DominanceModel::Pareto => None,
            DominanceModel::Flexible(f) => Some(f),
        }
    }

    /// True iff `a` dominates `b`, both **oriented** (lower-is-better in
    /// every dimension). For `Pareto` this is exactly the all-lowest
    /// Definition 1 test the engine has always used.
    #[inline]
    pub fn dominates_oriented(&self, a: &[f64], b: &[f64]) -> bool {
        match self {
            DominanceModel::Pareto => pareto_lowest_dominates(a, b),
            DominanceModel::Flexible(f) => f.dominates_oriented(a, b),
        }
    }

    /// Lanes of a blocker key ([`crate::progdetermine`]): one per output
    /// dimension under Pareto, one per polytope vertex under a flexible
    /// model.
    pub(crate) fn blocker_lanes(&self, dims: usize) -> usize {
        self.as_flexible().map_or(dims, FDominance::vertex_count)
    }

    /// Appends a region's blocker key to `keys`: under Pareto the grid
    /// coordinate of its box's lowest cell, `cell_lo`; under a flexible
    /// model the vertex projections of its oriented lower bound `lo`.
    pub(crate) fn push_region_key(&self, cell_lo: &Coord, lo: &[f64], keys: &mut Vec<f64>) {
        match self {
            DominanceModel::Pareto => {
                keys.extend(cell_lo[..lo.len()].iter().map(|&v| f64::from(v)))
            }
            DominanceModel::Flexible(f) => f.project_onto(lo, keys),
        }
    }

    /// Appends the blocker key of the cell at `coord` to `keys`: under
    /// Pareto its grid coordinate; under a flexible model the vertex
    /// projections of its oriented upper corner. A region blocks the cell
    /// iff its key is nowhere above the cell's.
    pub(crate) fn push_cell_key(&self, grid: &OutputGrid, coord: &Coord, keys: &mut Vec<f64>) {
        match self {
            DominanceModel::Pareto => {
                keys.extend(coord[..grid.dims()].iter().map(|&v| f64::from(v)))
            }
            DominanceModel::Flexible(f) => f.project_onto(&grid.upper_corner(coord), keys),
        }
    }

    /// Validates the model against a query's output dimensionality.
    pub fn check_dims(&self, out_dims: usize) -> std::result::Result<(), FdomError> {
        match self {
            DominanceModel::Pareto => Ok(()),
            DominanceModel::Flexible(f) if f.dims() == out_dims => Ok(()),
            DominanceModel::Flexible(f) => Err(FdomError::DimensionMismatch {
                model: f.dims(),
                query: out_dims,
            }),
        }
    }
}

/// All-lowest Pareto dominance on oriented values (`a ≤ b` everywhere,
/// strictly somewhere) — the relation every oriented-space component of the
/// engine used before the model became pluggable.
#[inline]
pub(crate) fn pareto_lowest_dominates(a: &[f64], b: &[f64]) -> bool {
    kernel::dominates_scalar(a, b)
}

/// Raw-orientation [`Dominance`] view of a query's model, for the skyline
/// crate's model-generic algorithms (the baselines' final passes). Borrows
/// the query's per-dimension orders and its [`DominanceModel`].
#[derive(Debug, Clone, Copy)]
pub struct QueryDominance<'a> {
    orders: &'a [Order],
    model: &'a DominanceModel,
}

impl<'a> QueryDominance<'a> {
    /// Bundles the query's orders with its dominance model.
    pub fn new(orders: &'a [Order], model: &'a DominanceModel) -> Self {
        Self { orders, model }
    }
}

impl Dominance for QueryDominance<'_> {
    #[inline]
    fn dims(&self) -> usize {
        self.orders.len()
    }

    #[inline]
    fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        match self.model {
            // Definition 1 under the query's orders — the shared scalar
            // kernel, identical to `Preference::dominates`.
            DominanceModel::Pareto => kernel::dominates_ordered(self.orders, a, b),
            DominanceModel::Flexible(f) => f.dominates_raw(self.orders, a, b),
        }
    }

    #[inline]
    fn kernel_dims(&self) -> usize {
        match self.model {
            DominanceModel::Pareto => self.orders.len(),
            DominanceModel::Flexible(f) => f.vertex_count(),
        }
    }

    #[inline]
    fn project_kernel(&self, a: &[f64], out: &mut Vec<f64>) {
        match self.model {
            DominanceModel::Pareto => kernel::orient_into(self.orders, a, out),
            DominanceModel::Flexible(f) => f.project_raw_into(self.orders, a, out),
        }
    }

    #[inline]
    fn kernel_is_identity(&self) -> bool {
        self.model.is_pareto() && self.orders.iter().all(|o| *o == Order::Lowest)
    }
}

impl From<FdomError> for Error {
    fn from(e: FdomError) -> Self {
        Error::Dominance(e)
    }
}

/// Convenience: builds a `DominanceModel::Flexible` from raw
/// `(coeffs, bound)` pairs, validating against `dims`.
pub fn flexible_model(dims: usize, constraints: Vec<(Vec<f64>, f64)>) -> Result<DominanceModel> {
    let constraints = constraints
        .into_iter()
        .map(|(coeffs, bound)| WeightConstraint::le(coeffs, bound))
        .collect();
    let fdom = FDominance::new(dims, constraints).map_err(Error::Dominance)?;
    Ok(DominanceModel::flexible(fdom))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band(dims: usize, lo: f64, hi: f64) -> Vec<WeightConstraint> {
        let mut cs = Vec::new();
        for d in 0..dims {
            cs.push(WeightConstraint::at_least(dims, d, lo));
            cs.push(WeightConstraint::at_most(dims, d, hi));
        }
        cs
    }

    #[test]
    fn simplex_vertices_are_unit_vectors() {
        let f = FDominance::simplex(3).unwrap();
        assert_eq!(f.vertex_count(), 3);
        for v in f.vertices() {
            assert_eq!(v.iter().filter(|&&x| x == 1.0).count(), 1);
            assert_eq!(v.iter().filter(|&&x| x == 0.0).count(), 2);
        }
    }

    #[test]
    fn simplex_fdominance_equals_pareto() {
        let f = FDominance::simplex(2).unwrap();
        assert!(f.dominates_oriented(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(f.dominates_oriented(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(
            !f.dominates_oriented(&[2.0, 2.0], &[2.0, 2.0]),
            "irreflexive"
        );
        assert!(!f.dominates_oriented(&[1.0, 3.0], &[2.0, 2.0]), "trade-off");
    }

    #[test]
    fn enumerated_trivial_constraints_recover_the_simplex() {
        // w_i ≤ 1 binds nowhere: the enumerated vertices must be the unit
        // vectors (up to tolerance), i.e. still Pareto.
        let f = FDominance::new(3, band(3, 0.0, 1.0)).unwrap();
        assert_eq!(f.vertex_count(), 3);
        for v in f.vertices() {
            assert!(v.iter().any(|&x| (x - 1.0).abs() < 1e-9));
            let sum: f64 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tight_band_allows_tradeoff_dominance() {
        // Weights confined near (0.5, 0.5): (0, 10) scores ~5, (8, 0)
        // scores ~4 — so (8, 0) F-dominates (0, 10) although they are
        // Pareto-incomparable.
        let f = FDominance::new(2, band(2, 0.45, 0.55)).unwrap();
        assert!(f.vertex_count() >= 2);
        assert!(f.dominates_oriented(&[8.0, 0.0], &[0.0, 10.0]));
        assert!(!f.dominates_oriented(&[0.0, 10.0], &[8.0, 0.0]));
        // Pareto dominance still implies F-dominance.
        assert!(f.dominates_oriented(&[1.0, 1.0], &[2.0, 2.0]));
    }

    #[test]
    fn pareto_implies_fdominance_on_random_points() {
        // The soundness assertion behind reusing every Pareto pruning step
        // under a flexible model.
        let f = FDominance::new(3, band(3, 0.1, 0.8)).unwrap();
        let mut x: u64 = 9;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % 100) as f64 / 10.0
        };
        for _ in 0..500 {
            let a = [next(), next(), next()];
            let b = [next(), next(), next()];
            if pareto_lowest_dominates(&a, &b) {
                assert!(
                    f.dominates_oriented(&a, &b),
                    "Pareto {a:?} ≺ {b:?} must imply F-dominance"
                );
            }
        }
    }

    #[test]
    fn empty_polytope_is_a_typed_error() {
        // w_0 ≥ 0.9 and w_0 ≤ 0.1 cannot both hold.
        let cs = vec![
            WeightConstraint::at_least(2, 0, 0.9),
            WeightConstraint::at_most(2, 0, 0.1),
        ];
        assert_eq!(
            FDominance::new(2, cs).unwrap_err(),
            FdomError::EmptyPolytope
        );
        // A negative upper bound conflicts with w ≥ 0.
        let cs = vec![WeightConstraint::at_most(2, 0, -0.5)];
        assert_eq!(
            FDominance::new(2, cs).unwrap_err(),
            FdomError::EmptyPolytope
        );
    }

    #[test]
    fn nan_and_arity_are_typed_errors() {
        let cs = vec![WeightConstraint::le(vec![f64::NAN, 0.0], 1.0)];
        assert_eq!(
            FDominance::new(2, cs).unwrap_err(),
            FdomError::NonFinite { constraint: 0 }
        );
        let cs = vec![WeightConstraint::le(vec![1.0], f64::INFINITY)];
        assert_eq!(
            FDominance::new(1, cs).unwrap_err(),
            FdomError::NonFinite { constraint: 0 }
        );
        let cs = vec![WeightConstraint::le(vec![1.0, 0.0, 0.0], 1.0)];
        assert_eq!(
            FDominance::new(2, cs).unwrap_err(),
            FdomError::ConstraintArity {
                constraint: 0,
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            FDominance::new(0, vec![]).unwrap_err(),
            FdomError::NoDimensions
        );
        assert!(matches!(
            FDominance::new(99, vec![]).unwrap_err(),
            FdomError::TooManyDimensions { .. }
        ));
        let too_many = (0..MAX_WEIGHT_CONSTRAINTS + 1)
            .map(|_| WeightConstraint::at_most(2, 0, 1.0))
            .collect();
        assert!(matches!(
            FDominance::new(2, too_many).unwrap_err(),
            FdomError::TooManyConstraints { .. }
        ));
    }

    #[test]
    fn one_dimensional_family_is_total_order() {
        let f = FDominance::simplex(1).unwrap();
        assert_eq!(f.vertex_count(), 1);
        assert!(f.dominates_oriented(&[1.0], &[2.0]));
        assert!(!f.dominates_oriented(&[2.0], &[1.0]));
        assert!(!f.dominates_oriented(&[2.0], &[2.0]));
        // Infeasible 1-d constraints are caught too.
        let cs = vec![WeightConstraint::at_most(1, 0, 0.5)];
        assert_eq!(
            FDominance::new(1, cs).unwrap_err(),
            FdomError::EmptyPolytope
        );
    }

    #[test]
    fn projections_reduce_weak_fdominance_to_componentwise_leq() {
        let f = FDominance::new(2, band(2, 0.3, 0.7)).unwrap();
        let a = [1.0, 4.0];
        let b = [2.0, 3.5];
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        f.project_into(&a, &mut pa);
        f.project_into(&b, &mut pb);
        let weak = pa.iter().zip(&pb).all(|(x, y)| x <= y);
        // Cross-check against the definition at every vertex.
        let by_def = f.vertices().all(|v| {
            let da: f64 = v.iter().zip(&a).map(|(x, y)| x * y).sum();
            let db: f64 = v.iter().zip(&b).map(|(x, y)| x * y).sum();
            da <= db
        });
        assert_eq!(weak, by_def);
    }

    #[test]
    fn model_defaults_to_pareto_and_validates_dims() {
        let m = DominanceModel::default();
        assert!(m.is_pareto());
        assert!(m.check_dims(5).is_ok());
        let f = DominanceModel::flexible(FDominance::simplex(2).unwrap());
        assert!(f.check_dims(2).is_ok());
        assert_eq!(
            f.check_dims(3).unwrap_err(),
            FdomError::DimensionMismatch { model: 2, query: 3 }
        );
    }

    #[test]
    fn query_dominance_matches_preference_for_pareto() {
        use progxe_skyline::Preference;
        let orders = vec![Order::Lowest, Order::Highest];
        let pref = Preference::new(orders.clone());
        let model = DominanceModel::Pareto;
        let qd = QueryDominance::new(&orders, &model);
        let cases = [
            ([1.0, 9.0], [2.0, 5.0]),
            ([1.0, 5.0], [2.0, 9.0]),
            ([3.0, 3.0], [3.0, 3.0]),
            ([2.0, 7.0], [2.0, 5.0]),
        ];
        for (a, b) in cases {
            assert_eq!(qd.dominates(&a, &b), pref.dominates(&a, &b));
            assert_eq!(qd.dominates(&b, &a), pref.dominates(&b, &a));
        }
    }
}
