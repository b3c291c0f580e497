//! The Pareto preference model of the paper (Section II-A).
//!
//! Each `d`-dimensional object is scored on `d` attributes; the user states,
//! per attribute, whether lower or higher values are preferred
//! (`PREFERRING LOWEST(tCost) AND LOWEST(delay)` in query Q1). The combined
//! Pareto preference treats all stated preferences as equally important,
//! which induces the strict partial *dominance* order of Definition 1.

use crate::dominance::DomRelation;
use std::cmp::Ordering;
use std::fmt;

/// Direction of preference for a single attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// Lower attribute values are better (`LOWEST(a)` in the query syntax).
    Lowest,
    /// Higher attribute values are better (`HIGHEST(a)` in the query syntax).
    Highest,
}

impl Order {
    /// Compares two attribute values under this order.
    ///
    /// Returns [`Ordering::Less`] when `a` is *better* than `b`.
    #[inline]
    pub fn cmp_values(self, a: f64, b: f64) -> Ordering {
        let ord = a.partial_cmp(&b).unwrap_or(Ordering::Equal);
        match self {
            Order::Lowest => ord,
            Order::Highest => ord.reverse(),
        }
    }

    /// Maps a value onto the canonical "lower is better" orientation.
    ///
    /// Sorting oriented values ascending puts better values first regardless
    /// of the original direction; algorithms that presort (SFS) use
    /// this to stay direction-agnostic.
    #[inline]
    pub fn orient(self, v: f64) -> f64 {
        match self {
            Order::Lowest => v,
            Order::Highest => -v,
        }
    }

    /// The better of the two values under this order.
    #[inline]
    pub fn better(self, a: f64, b: f64) -> f64 {
        if self.cmp_values(a, b) == Ordering::Less {
            a
        } else {
            b
        }
    }

    /// The worse of the two values under this order.
    #[inline]
    pub fn worse(self, a: f64, b: f64) -> f64 {
        if self.cmp_values(a, b) == Ordering::Greater {
            a
        } else {
            b
        }
    }
}

/// A combined Pareto preference: one [`Order`] per output dimension.
///
/// Given preference `P`, tuple `a` *dominates* tuple `b` (written `a ≺_P b`)
/// iff `a` is at least as good in every dimension and strictly better in at
/// least one (Definition 1).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Preference {
    orders: Box<[Order]>,
}

impl Preference {
    /// Builds a preference from per-dimension orders.
    ///
    /// # Panics
    /// Panics if `orders` is empty — a skyline needs at least one criterion.
    pub fn new(orders: Vec<Order>) -> Self {
        assert!(!orders.is_empty(), "preference needs at least 1 dimension");
        Self {
            orders: orders.into_boxed_slice(),
        }
    }

    /// A preference of `d` dimensions, all minimized — the setting used
    /// throughout the paper's experiments.
    pub fn all_lowest(d: usize) -> Self {
        Self::new(vec![Order::Lowest; d])
    }

    /// A preference of `d` dimensions, all maximized.
    pub fn all_highest(d: usize) -> Self {
        Self::new(vec![Order::Highest; d])
    }

    /// Number of preference dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.orders.len()
    }

    /// Per-dimension orders.
    #[inline]
    pub fn orders(&self) -> &[Order] {
        &self.orders
    }

    /// True iff `a` dominates `b` under this preference (Definition 1).
    ///
    /// Delegates to the shared scalar kernel; NaN attribute values compare
    /// as ties, matching the historical `partial_cmp(..).unwrap_or(Equal)`
    /// semantics (see [`crate::kernel`]).
    ///
    /// # Panics
    /// Debug-panics when the slices do not match the preference dimension.
    #[inline]
    pub fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        debug_assert_eq!(a.len(), self.dims());
        debug_assert_eq!(b.len(), self.dims());
        crate::kernel::dominates_ordered(&self.orders, a, b)
    }

    /// Full pairwise classification of `a` vs `b`.
    #[inline]
    pub fn compare(&self, a: &[f64], b: &[f64]) -> DomRelation {
        debug_assert_eq!(a.len(), self.dims());
        debug_assert_eq!(b.len(), self.dims());
        let mut a_better = false;
        let mut b_better = false;
        for (i, ord) in self.orders.iter().enumerate() {
            match ord.cmp_values(a[i], b[i]) {
                Ordering::Less => a_better = true,
                Ordering::Greater => b_better = true,
                Ordering::Equal => {}
            }
            if a_better && b_better {
                return DomRelation::Incomparable;
            }
        }
        match (a_better, b_better) {
            (true, false) => DomRelation::Dominates,
            (false, true) => DomRelation::DominatedBy,
            (false, false) => DomRelation::Equal,
            (true, true) => unreachable!("early return above"),
        }
    }
}

impl fmt::Debug for Preference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Preference[")?;
        for (i, o) in self.orders.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match o {
                Order::Lowest => write!(f, "LOWEST")?,
                Order::Highest => write!(f, "HIGHEST")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_prefers_smaller() {
        assert_eq!(Order::Lowest.cmp_values(1.0, 2.0), Ordering::Less);
        assert_eq!(Order::Lowest.cmp_values(2.0, 1.0), Ordering::Greater);
        assert_eq!(Order::Lowest.cmp_values(1.0, 1.0), Ordering::Equal);
    }

    #[test]
    fn highest_prefers_larger() {
        assert_eq!(Order::Highest.cmp_values(2.0, 1.0), Ordering::Less);
        assert_eq!(Order::Highest.cmp_values(1.0, 2.0), Ordering::Greater);
    }

    #[test]
    fn orient_flips_highest() {
        assert_eq!(Order::Lowest.orient(3.0), 3.0);
        assert_eq!(Order::Highest.orient(3.0), -3.0);
    }

    #[test]
    fn better_and_worse() {
        assert_eq!(Order::Lowest.better(1.0, 2.0), 1.0);
        assert_eq!(Order::Lowest.worse(1.0, 2.0), 2.0);
        assert_eq!(Order::Highest.better(1.0, 2.0), 2.0);
        assert_eq!(Order::Highest.worse(1.0, 2.0), 1.0);
    }

    #[test]
    fn dominates_requires_strict_improvement() {
        let p = Preference::all_lowest(2);
        assert!(p.dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(p.dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(
            !p.dominates(&[2.0, 2.0], &[2.0, 2.0]),
            "equal never dominates"
        );
        assert!(!p.dominates(&[1.0, 3.0], &[2.0, 2.0]), "trade-off");
    }

    #[test]
    fn dominates_respects_direction() {
        let p = Preference::new(vec![Order::Lowest, Order::Highest]);
        assert!(p.dominates(&[1.0, 9.0], &[2.0, 5.0]));
        assert!(!p.dominates(&[1.0, 5.0], &[2.0, 9.0]));
    }

    #[test]
    fn compare_classifies_all_cases() {
        let p = Preference::all_lowest(2);
        assert_eq!(p.compare(&[1.0, 1.0], &[2.0, 2.0]), DomRelation::Dominates);
        assert_eq!(
            p.compare(&[2.0, 2.0], &[1.0, 1.0]),
            DomRelation::DominatedBy
        );
        assert_eq!(p.compare(&[1.0, 1.0], &[1.0, 1.0]), DomRelation::Equal);
        assert_eq!(
            p.compare(&[1.0, 2.0], &[2.0, 1.0]),
            DomRelation::Incomparable
        );
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_preference_rejected() {
        let _ = Preference::new(vec![]);
    }
}
