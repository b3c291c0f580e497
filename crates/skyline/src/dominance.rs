//! Pairwise dominance classification and the pluggable dominance test.

use crate::preference::Preference;

/// A pluggable tuple-level dominance test over raw attribute values.
///
/// The classic algorithms of this crate were written against the Pareto
/// [`Preference`] model (Definition 1 of the paper). Flexible-skyline
/// workloads (F-dominance over a constrained family of scoring weights —
/// arXiv:2202.09857, arXiv:2201.04899) need the *same* algorithms under a
/// different, strictly stronger dominance relation. This trait is the seam:
/// [`crate::bnl::bnl_skyline_under`], [`crate::sfs::sfs_skyline_under`], and
/// [`crate::reference::naive_skyline_under`] are generic over it, and
/// `Preference` implements it with its existing semantics, so the historical
/// entry points behave bit-for-bit as before.
///
/// Implementations must be a **strict partial order** (irreflexive,
/// transitive, antisymmetric); BNL-style window maintenance is unsound
/// otherwise.
pub trait Dominance {
    /// Number of attribute dimensions the test expects.
    fn dims(&self) -> usize;

    /// True iff `a` dominates `b`.
    fn dominates(&self, a: &[f64], b: &[f64]) -> bool;

    /// Dimensionality of the relation's *kernel space*: a space in which
    /// this relation is exactly all-lowest Pareto dominance, so the batched
    /// kernels in [`crate::kernel`] apply. For Pareto this is `dims()`
    /// (orientation); for F-dominance it is the number of weight-polytope
    /// vertices (vertex projection).
    fn kernel_dims(&self) -> usize;

    /// Projects a raw tuple into kernel space, clearing and filling `out`
    /// (length becomes [`kernel_dims`](Self::kernel_dims)).
    ///
    /// Contract: `dominates(a, b)` must equal
    /// `kernel::dominates_scalar(project(a), project(b))` **exactly** —
    /// including on ties and NaN — so algorithms may run either path and
    /// produce identical output.
    fn project_kernel(&self, a: &[f64], out: &mut Vec<f64>);

    /// True when [`project_kernel`](Self::project_kernel) is the identity
    /// map, letting algorithms borrow the raw buffer instead of copying.
    fn kernel_is_identity(&self) -> bool {
        false
    }
}

impl Dominance for Preference {
    #[inline]
    fn dims(&self) -> usize {
        Preference::dims(self)
    }

    #[inline]
    fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        Preference::dominates(self, a, b)
    }

    #[inline]
    fn kernel_dims(&self) -> usize {
        Preference::dims(self)
    }

    #[inline]
    fn project_kernel(&self, a: &[f64], out: &mut Vec<f64>) {
        crate::kernel::orient_into(self.orders(), a, out);
    }

    #[inline]
    fn kernel_is_identity(&self) -> bool {
        self.orders().iter().all(|o| *o == crate::Order::Lowest)
    }
}

/// Outcome of comparing two tuples under a Pareto [`crate::Preference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomRelation {
    /// The left tuple dominates the right one.
    Dominates,
    /// The left tuple is dominated by the right one.
    DominatedBy,
    /// The tuples are identical on every preference dimension.
    Equal,
    /// Each tuple is strictly better in at least one dimension.
    Incomparable,
}

impl DomRelation {
    /// The same relation seen from the other tuple's perspective.
    #[inline]
    pub fn flip(self) -> Self {
        match self {
            DomRelation::Dominates => DomRelation::DominatedBy,
            DomRelation::DominatedBy => DomRelation::Dominates,
            other => other,
        }
    }

    /// True when neither tuple excludes the other from a skyline.
    #[inline]
    pub fn is_neutral(self) -> bool {
        matches!(self, DomRelation::Equal | DomRelation::Incomparable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_swaps_directions() {
        assert_eq!(DomRelation::Dominates.flip(), DomRelation::DominatedBy);
        assert_eq!(DomRelation::DominatedBy.flip(), DomRelation::Dominates);
        assert_eq!(DomRelation::Equal.flip(), DomRelation::Equal);
        assert_eq!(DomRelation::Incomparable.flip(), DomRelation::Incomparable);
    }

    #[test]
    fn neutral_relations() {
        assert!(DomRelation::Equal.is_neutral());
        assert!(DomRelation::Incomparable.is_neutral());
        assert!(!DomRelation::Dominates.is_neutral());
        assert!(!DomRelation::DominatedBy.is_neutral());
    }
}
