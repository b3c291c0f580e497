//! The Map operator µ[F, X] (Section II-B).
//!
//! Each mapping function `f_j` combines attributes from both join sides into
//! one output attribute `x_j` (`tCost = R.uPrice + T.uShipCost` in Q1). The
//! output-space look-ahead additionally needs *interval* evaluation: given
//! the per-dimension bounds of an input partition pair, a sound enclosure of
//! all values `f_j` can produce for tuples inside those partitions — that is
//! how partition pairs become output regions without touching tuples.

use progxe_skyline::Preference;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::fdom::{DominanceModel, QueryDominance};

/// One mapping function `f_j : Dom(R-attrs) × Dom(T-attrs) → ℝ`.
pub trait MappingFunction: Send + Sync {
    /// Evaluates the function on one joined tuple pair.
    fn eval(&self, r: &[f64], t: &[f64]) -> f64;

    /// Sound enclosure of `eval` over the boxes `[r_lo, r_hi] × [t_lo, t_hi]`:
    /// every tuple pair inside the boxes must map into the returned interval.
    fn eval_bounds(&self, r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]) -> (f64, f64);

    /// Optional separable decomposition, an *exact additive* contract:
    /// `eval(r, t)` is bit for bit `r_component(r) + t_component(t)` (NaN
    /// results agree as NaN), any constant folded into the R side. The
    /// tuple-level join then maps a pair with one add per dimension over two
    /// per-row constants ([`JoinSide`](crate::grid::JoinSide)), and
    /// push-through may prune on the component alone (floating-point
    /// addition is monotone, so `eval` is non-decreasing in it).
    ///
    /// All or nothing: a function answers `Some` from both hooks for every
    /// input, or `None` from both — `None` keeps the per-match `eval` and
    /// disables push-through for queries using this function.
    fn r_component(&self, _r: &[f64]) -> Option<f64> {
        None
    }

    /// The T-side half of [`MappingFunction::r_component`]'s contract.
    fn t_component(&self, _t: &[f64]) -> Option<f64> {
        None
    }

    /// Optional separable enclosure, the interval form of
    /// [`MappingFunction::r_component`]'s contract: `eval_bounds(r_lo,
    /// r_hi, t_lo, t_hi)` is bit for bit `(r.0 + t.0, r.1 + t.1)` for
    /// `r = r_bounds(r_lo, r_hi)` and `t = t_bounds(t_lo, t_hi)`. The
    /// look-ahead then computes each partition's terms once and adds them
    /// per partition pair. All or nothing, as for the components.
    fn r_bounds(&self, _lo: &[f64], _hi: &[f64]) -> Option<(f64, f64)> {
        None
    }

    /// The T-side half of [`MappingFunction::r_bounds`]'s contract.
    fn t_bounds(&self, _lo: &[f64], _hi: &[f64]) -> Option<(f64, f64)> {
        None
    }

    /// Human-readable description for plan explain output.
    fn describe(&self) -> String {
        "<map>".to_owned()
    }
}

/// A linear combination `Σ αᵢ·r[i] + Σ βᵢ·t[i] + c` — the workhorse map.
///
/// Q1's `tCost` is `WeightedSum` with α = (1, 0, …), β = (1, 0, …); its
/// `delay` uses α = (2, …). Interval evaluation is exact: each term takes
/// the box corner matching its coefficient sign.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSum {
    r_weights: Vec<f64>,
    t_weights: Vec<f64>,
    constant: f64,
}

impl WeightedSum {
    /// Creates a weighted sum over the given per-source weights.
    pub fn new(r_weights: Vec<f64>, t_weights: Vec<f64>) -> Self {
        Self {
            r_weights,
            t_weights,
            constant: 0.0,
        }
    }

    /// Adds a constant offset.
    pub fn with_constant(mut self, c: f64) -> Self {
        self.constant = c;
        self
    }

    /// `r[dim] + t[dim]` over `dims`-attribute sources — the paper's
    /// experimental mapping ("an addition operation between the attribute
    /// values of the corresponding dimensions", Section VI-A).
    pub fn dimension_sum(dims: usize, dim: usize) -> Self {
        let mut r = vec![0.0; dims];
        let mut t = vec![0.0; dims];
        r[dim] = 1.0;
        t[dim] = 1.0;
        Self::new(r, t)
    }

    /// One side's score `init + Σ wᵢ·vᵢ`, accumulated left to right — the
    /// single summation order `eval`, the components and the bounds share.
    #[inline]
    fn side_score(init: f64, weights: &[f64], values: &[f64]) -> f64 {
        debug_assert_eq!(values.len(), weights.len());
        let mut acc = init;
        for (w, v) in weights.iter().zip(values) {
            acc += w * v;
        }
        acc
    }

    /// Interval version of [`Self::side_score`]: same order, each term
    /// taking the box corner matching its coefficient sign, so a degenerate
    /// box reproduces the score exactly and rounding cannot push a point
    /// evaluation outside its enclosure.
    fn side_bounds(init: f64, weights: &[f64], lo: &[f64], hi: &[f64]) -> (f64, f64) {
        let mut min = init;
        let mut max = init;
        for (i, &w) in weights.iter().enumerate() {
            if w >= 0.0 {
                min += w * lo[i];
                max += w * hi[i];
            } else {
                min += w * hi[i];
                max += w * lo[i];
            }
        }
        (min, max)
    }
}

impl MappingFunction for WeightedSum {
    /// Computed as the sum of the two components, so every consumer —
    /// baselines, oracles, the engine's columnar join — sees the same bits.
    #[inline]
    fn eval(&self, r: &[f64], t: &[f64]) -> f64 {
        Self::side_score(self.constant, &self.r_weights, r)
            + Self::side_score(0.0, &self.t_weights, t)
    }

    fn eval_bounds(&self, r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]) -> (f64, f64) {
        let (rmin, rmax) = Self::side_bounds(self.constant, &self.r_weights, r_lo, r_hi);
        let (tmin, tmax) = Self::side_bounds(0.0, &self.t_weights, t_lo, t_hi);
        (rmin + tmin, rmax + tmax)
    }

    fn r_bounds(&self, lo: &[f64], hi: &[f64]) -> Option<(f64, f64)> {
        Some(Self::side_bounds(self.constant, &self.r_weights, lo, hi))
    }

    fn t_bounds(&self, lo: &[f64], hi: &[f64]) -> Option<(f64, f64)> {
        Some(Self::side_bounds(0.0, &self.t_weights, lo, hi))
    }

    fn r_component(&self, r: &[f64]) -> Option<f64> {
        Some(Self::side_score(self.constant, &self.r_weights, r))
    }

    fn t_component(&self, t: &[f64]) -> Option<f64> {
        Some(Self::side_score(0.0, &self.t_weights, t))
    }

    fn describe(&self) -> String {
        format!(
            "sum(r·{:?} + t·{:?} + {})",
            self.r_weights, self.t_weights, self.constant
        )
    }
}

/// A user-defined map: arbitrary closure plus a caller-supplied sound bounds
/// closure. Use this for non-linear combinations (e.g. `max`, products of
/// positive attributes); the caller is responsible for enclosure soundness.
pub struct GeneralMap {
    eval: EvalFn,
    bounds: BoundsFn,
    label: String,
}

/// Boxed point-evaluation closure of a [`GeneralMap`].
type EvalFn = Box<dyn Fn(&[f64], &[f64]) -> f64 + Send + Sync>;
/// Boxed interval-enclosure closure of a [`GeneralMap`].
type BoundsFn = Box<dyn Fn(&[f64], &[f64], &[f64], &[f64]) -> (f64, f64) + Send + Sync>;

impl GeneralMap {
    /// Wraps an evaluation closure and its interval enclosure.
    pub fn new<E, B>(label: impl Into<String>, eval: E, bounds: B) -> Self
    where
        E: Fn(&[f64], &[f64]) -> f64 + Send + Sync + 'static,
        B: Fn(&[f64], &[f64], &[f64], &[f64]) -> (f64, f64) + Send + Sync + 'static,
    {
        Self {
            eval: Box::new(eval),
            bounds: Box::new(bounds),
            label: label.into(),
        }
    }

    /// `max(r[r_dim], t[t_dim])` with exact interval bounds — monotone, so
    /// the enclosure is the pairwise max of the corners.
    pub fn max_of(r_dim: usize, t_dim: usize) -> Self {
        Self::new(
            format!("max(r[{r_dim}], t[{t_dim}])"),
            move |r: &[f64], t: &[f64]| r[r_dim].max(t[t_dim]),
            move |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
                (r_lo[r_dim].max(t_lo[t_dim]), r_hi[r_dim].max(t_hi[t_dim]))
            },
        )
    }
}

impl MappingFunction for GeneralMap {
    fn eval(&self, r: &[f64], t: &[f64]) -> f64 {
        (self.eval)(r, t)
    }

    fn eval_bounds(&self, r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]) -> (f64, f64) {
        (self.bounds)(r_lo, r_hi, t_lo, t_hi)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

/// The full Map operator: `k` functions plus the preference over their
/// outputs. The preference dimensionality must equal the function count.
///
/// Functions are stored behind [`Arc`], so cloning a `MapSet` is cheap
/// (reference-count bumps) — this is what lets the pooled backend ship
/// the mapping functions to worker threads as `Send + 'static` work units
/// without re-planning the query.
#[derive(Clone)]
pub struct MapSet {
    maps: Vec<Arc<dyn MappingFunction>>,
    pref: Preference,
    /// Dominance relation over the mapped output: Pareto (default) or a
    /// flexible F-dominance weight family. Travels with the query through
    /// every engine and layer.
    dominance: DominanceModel,
}

impl MapSet {
    /// Bundles mapping functions with the output preference (classical
    /// Pareto dominance).
    pub fn new(maps: Vec<Box<dyn MappingFunction>>, pref: Preference) -> Result<Self> {
        if maps.is_empty() || maps.len() != pref.dims() {
            return Err(Error::PreferenceArity {
                maps: maps.len(),
                preference: pref.dims(),
            });
        }
        Ok(Self {
            maps: maps.into_iter().map(Arc::from).collect(),
            pref,
            dominance: DominanceModel::Pareto,
        })
    }

    /// Replaces the dominance relation (flexible-skyline queries). The
    /// model's weight dimensionality must equal the output dimensionality;
    /// degenerate families were already rejected when the model was built.
    pub fn with_dominance(mut self, dominance: DominanceModel) -> Result<Self> {
        dominance
            .check_dims(self.out_dims())
            .map_err(Error::Dominance)?;
        self.dominance = dominance;
        Ok(self)
    }

    /// The dominance relation of this query (Pareto unless configured).
    #[inline]
    pub fn dominance(&self) -> &DominanceModel {
        &self.dominance
    }

    /// Raw-orientation dominance test between two mapped result rows,
    /// under this query's model — the single entry point the baselines and
    /// the test oracles use.
    #[inline]
    pub fn result_dominates(&self, a: &[f64], b: &[f64]) -> bool {
        use progxe_skyline::Dominance as _;
        self.dominance_view().dominates(a, b)
    }

    /// A raw-orientation [`progxe_skyline::Dominance`] view over this
    /// query's orders + model, for the skyline crate's model-generic
    /// algorithms.
    #[inline]
    pub fn dominance_view(&self) -> QueryDominance<'_> {
        QueryDominance::new(self.pref.orders(), &self.dominance)
    }

    /// The paper's experimental mapping: output dimension `j` is
    /// `r[j] + t[j]`, for `dims` dimensions.
    pub fn pairwise_sum(dims: usize, pref: Preference) -> Self {
        let maps: Vec<Box<dyn MappingFunction>> = (0..dims)
            .map(|j| Box::new(WeightedSum::dimension_sum(dims, j)) as Box<dyn MappingFunction>)
            .collect();
        Self::new(maps, pref).expect("pairwise_sum arity is consistent by construction")
    }

    /// Number of output dimensions (`k` in the paper).
    #[inline]
    pub fn out_dims(&self) -> usize {
        self.maps.len()
    }

    /// The output preference.
    #[inline]
    pub fn preference(&self) -> &Preference {
        &self.pref
    }

    /// The individual mapping functions.
    #[inline]
    pub fn maps(&self) -> &[Arc<dyn MappingFunction>] {
        &self.maps
    }

    /// Maps one joined pair into `out` (cleared first).
    #[inline]
    pub fn eval_into(&self, r: &[f64], t: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for m in &self.maps {
            out.push(m.eval(r, t));
        }
    }

    /// Maps a partition-pair box into per-output-dimension intervals,
    /// written into `lo`/`hi` (cleared first).
    pub fn eval_bounds_into(
        &self,
        r_lo: &[f64],
        r_hi: &[f64],
        t_lo: &[f64],
        t_hi: &[f64],
        lo: &mut Vec<f64>,
        hi: &mut Vec<f64>,
    ) {
        lo.clear();
        hi.clear();
        for m in &self.maps {
            let (a, b) = m.eval_bounds(r_lo, r_hi, t_lo, t_hi);
            debug_assert!(a <= b, "map {} produced inverted bounds", m.describe());
            lo.push(a);
            hi.push(b);
        }
    }

    /// Per-source interval terms of a partition box under the separable
    /// enclosure of [`MappingFunction::r_bounds`], written into `out` as
    /// one `(min, max)` per function; `false` when any map has none.
    pub(crate) fn r_bounds_into(&self, lo: &[f64], hi: &[f64], out: &mut Vec<(f64, f64)>) -> bool {
        out.clear();
        for m in &self.maps {
            match m.r_bounds(lo, hi) {
                Some(b) => out.push(b),
                None => return false,
            }
        }
        true
    }

    /// Mirror of [`MapSet::r_bounds_into`] for the T side.
    pub(crate) fn t_bounds_into(&self, lo: &[f64], hi: &[f64], out: &mut Vec<(f64, f64)>) -> bool {
        out.clear();
        for m in &self.maps {
            match m.t_bounds(lo, hi) {
                Some(b) => out.push(b),
                None => return false,
            }
        }
        true
    }

    /// Whether every function decomposes per the exact additive contract of
    /// [`MappingFunction::r_component`], probed on one sample pair — by the
    /// contract's all-or-nothing clause the answer holds for every pair.
    /// Decides, once per query, between the columnar and the per-match row
    /// producer of the tuple-level join.
    pub fn separable_at(&self, r: &[f64], t: &[f64]) -> bool {
        self.maps
            .iter()
            .all(|m| m.r_component(r).is_some() && m.t_component(t).is_some())
    }

    /// Per-source separable scores (push-through, join components), written
    /// into `out`; `false` when any map is not separable.
    pub fn r_components(&self, r: &[f64], out: &mut Vec<f64>) -> bool {
        out.clear();
        for m in &self.maps {
            match m.r_component(r) {
                Some(v) => out.push(v),
                None => return false,
            }
        }
        true
    }

    /// Mirror of [`MapSet::r_components`] for the T side.
    pub fn t_components(&self, t: &[f64], out: &mut Vec<f64>) -> bool {
        out.clear();
        for m in &self.maps {
            match m.t_component(t) {
                Some(v) => out.push(v),
                None => return false,
            }
        }
        true
    }
}

impl std::fmt::Debug for MapSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapSet")
            .field(
                "maps",
                &self.maps.iter().map(|m| m.describe()).collect::<Vec<_>>(),
            )
            .field("pref", &self.pref)
            .field("dominance", &self.dominance)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progxe_skyline::Order;

    #[test]
    fn weighted_sum_evaluates_q1_style() {
        // delay = 2·r.manTime + t.shipTime
        let f = WeightedSum::new(vec![0.0, 2.0], vec![0.0, 1.0]);
        assert_eq!(f.eval(&[9.0, 3.0], &[9.0, 4.0]), 10.0);
    }

    #[test]
    fn weighted_sum_bounds_are_tight_for_positive_weights() {
        let f = WeightedSum::dimension_sum(2, 0);
        let (lo, hi) = f.eval_bounds(&[0.0, 4.0], &[1.0, 5.0], &[3.0, 1.0], &[4.0, 2.0]);
        // Example 1 of the paper: R1 bounds [(0,4),(1,5)], T2 [(3,1),(4,2)]
        // → tCost region [3, 5]..? dimension 0 sum: [0+3, 1+4] = [3, 5].
        assert_eq!((lo, hi), (3.0, 5.0));
    }

    #[test]
    fn weighted_sum_bounds_handle_negative_weights() {
        let f = WeightedSum::new(vec![-1.0], vec![0.0]);
        let (lo, hi) = f.eval_bounds(&[2.0], &[5.0], &[0.0], &[0.0]);
        assert_eq!((lo, hi), (-5.0, -2.0));
    }

    #[test]
    fn bounds_enclose_samples() {
        let f = WeightedSum::new(vec![1.5, -0.5], vec![2.0]).with_constant(1.0);
        let (r_lo, r_hi) = ([1.0, 2.0], [3.0, 4.0]);
        let (t_lo, t_hi) = ([0.5], [0.9]);
        let (lo, hi) = f.eval_bounds(&r_lo, &r_hi, &t_lo, &t_hi);
        for ra in [1.0, 2.0, 3.0] {
            for rb in [2.0, 3.0, 4.0] {
                for tv in [0.5, 0.7, 0.9] {
                    let v = f.eval(&[ra, rb], &[tv]);
                    assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn components_are_separable_for_sums() {
        let f = WeightedSum::dimension_sum(2, 1);
        assert_eq!(f.r_component(&[3.0, 5.0]), Some(5.0));
        assert_eq!(f.t_component(&[2.0, 7.0]), Some(7.0));
    }

    /// The exact additive contract on random weighted sums — negative and
    /// zero weights, a constant, ±∞ and NaN attributes: `eval` is the sum
    /// of the two components bit for bit, and so is its negation (what
    /// folding `Order::Highest` into the components relies on).
    #[test]
    fn weighted_sum_is_exactly_the_sum_of_its_components() {
        let mut state = 0xADD1_7173_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut specials = 0;
        for _ in 0..2_000 {
            let (nr, nt) = (1 + next() as usize % 4, 1 + next() as usize % 4);
            let mut pick = |special: bool| match next() % 16 {
                0 => 0.0,
                1 if special => f64::INFINITY,
                2 if special => f64::NEG_INFINITY,
                3 if special => f64::NAN,
                _ => (next() % 20_001) as f64 / 97.0 - 100.0,
            };
            let rw: Vec<f64> = (0..nr).map(|_| pick(false)).collect();
            let tw: Vec<f64> = (0..nt).map(|_| pick(false)).collect();
            let f = WeightedSum::new(rw, tw).with_constant(pick(false));
            let r: Vec<f64> = (0..nr).map(|_| pick(true)).collect();
            let t: Vec<f64> = (0..nt).map(|_| pick(true)).collect();
            let (gr, gt) = (f.r_component(&r).unwrap(), f.t_component(&t).unwrap());
            let v = f.eval(&r, &t);
            specials += usize::from(!v.is_finite());
            assert!(same(v, gr + gt), "{f:?} at {r:?} {t:?}: {v} != {gr} + {gt}");
            let (hi, lo) = (Order::Highest, Order::Lowest);
            assert!(same(hi.orient(v), hi.orient(gr) + hi.orient(gt)));
            assert!(same(lo.orient(v), lo.orient(gr) + lo.orient(gt)));
            let (b_lo, b_hi) = f.eval_bounds(&r, &r, &t, &t);
            assert!(same(b_lo, v) && same(b_hi, v), "point box is the value");
        }
        assert!(specials > 100, "non-finite results barely exercised");
    }

    #[test]
    fn general_map_max() {
        let f = GeneralMap::max_of(0, 0);
        assert_eq!(f.eval(&[3.0], &[5.0]), 5.0);
        let (lo, hi) = f.eval_bounds(&[1.0], &[2.0], &[3.0], &[4.0]);
        assert_eq!((lo, hi), (3.0, 4.0));
        assert!(
            f.r_component(&[1.0]).is_none(),
            "max is not separable by default"
        );
    }

    #[test]
    fn mapset_pairwise_sum_evaluates_all_dims() {
        let ms = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let mut out = Vec::new();
        ms.eval_into(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0], &mut out);
        assert_eq!(out, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn mapset_defaults_to_pareto_and_accepts_a_flexible_model() {
        use crate::fdom::{DominanceModel, FDominance};
        let ms = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        assert!(ms.dominance().is_pareto());
        assert!(ms.result_dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!ms.result_dominates(&[1.0, 3.0], &[2.0, 2.0]));

        let model = DominanceModel::flexible(FDominance::simplex(2).unwrap());
        let ms = ms.with_dominance(model).unwrap();
        assert!(!ms.dominance().is_pareto());
        // Unconstrained simplex ≡ Pareto.
        assert!(ms.result_dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!ms.result_dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }

    #[test]
    fn mapset_rejects_mismatched_dominance_dims() {
        use crate::fdom::{DominanceModel, FDominance};
        let ms = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let model = DominanceModel::flexible(FDominance::simplex(3).unwrap());
        assert!(matches!(
            ms.with_dominance(model),
            Err(crate::error::Error::Dominance(_))
        ));
    }

    #[test]
    fn mapset_rejects_arity_mismatch() {
        let maps: Vec<Box<dyn MappingFunction>> = vec![Box::new(WeightedSum::dimension_sum(2, 0))];
        assert!(MapSet::new(maps, Preference::all_lowest(2)).is_err());
    }

    #[test]
    fn mapset_component_extraction() {
        let ms = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut buf = Vec::new();
        assert!(ms.r_components(&[1.0, 2.0], &mut buf));
        assert_eq!(buf, vec![1.0, 2.0]);
        assert!(ms.t_components(&[5.0, 6.0], &mut buf));
        assert_eq!(buf, vec![5.0, 6.0]);
    }

    #[test]
    fn mapset_with_non_separable_map_reports_false() {
        let maps: Vec<Box<dyn MappingFunction>> = vec![
            Box::new(WeightedSum::dimension_sum(1, 0)),
            Box::new(GeneralMap::max_of(0, 0)),
        ];
        let ms = MapSet::new(maps, Preference::new(vec![Order::Lowest, Order::Lowest])).unwrap();
        let mut buf = Vec::new();
        assert!(!ms.r_components(&[1.0], &mut buf));
    }
}
