//! Sort-Filter-Skyline (SFS).
//!
//! Presorting the input in a linear extension of the dominance relation
//! guarantees that no tuple can be dominated by a tuple appearing *later*
//! in the sorted order. A single pass with an append-only window then
//! suffices — window entries are never evicted — and every admitted tuple
//! is immediately *final*, which makes SFS a progressive single-set skyline
//! algorithm (the paper's Section VII discusses this family \[4\], \[5\]).
//!
//! The order is `presort_cmp` over kernel rows: mostly the coordinate
//! sum, with the ties a rounded sum produces broken so that the order stays
//! a linear extension on every f64 input.

use crate::dominance::Dominance;
use crate::{kernel, PointStore, Preference, SkylineResult, SkylineStats};
use std::cmp::Ordering;

/// Computes the skyline by presorting on the coordinate sum (ties broken
/// lexicographically; see the module docs) and filtering in one pass. Output indices are in
/// presort order, i.e. in the order a progressive consumer would receive
/// them.
pub fn sfs_skyline(store: &PointStore, pref: &Preference) -> SkylineResult {
    sfs_skyline_under(store, pref)
}

/// [`sfs_skyline`] generalized over any [`Dominance`] model. The presort
/// runs on the model's kernel rows, where the relation is all-lowest Pareto
/// dominance, so a dominated tuple always sorts after its dominators and
/// the append-only window stays sufficient.
pub fn sfs_skyline_under<D: Dominance>(store: &PointStore, dom: &D) -> SkylineResult {
    let mut result = SkylineResult::default();
    sfs_skyline_with_under(
        store,
        dom,
        |idx| result.indices.push(idx),
        &mut result.stats,
    );
    result
}

/// Progressive SFS: invokes `emit(index)` the moment each skyline member is
/// confirmed (admission order = monotone score order).
pub fn sfs_skyline_with<F: FnMut(usize)>(
    store: &PointStore,
    pref: &Preference,
    emit: F,
    stats: &mut SkylineStats,
) {
    sfs_skyline_with_under(store, pref, emit, stats)
}

/// [`sfs_skyline_with`] generalized over any [`Dominance`] model.
pub fn sfs_skyline_with_under<D: Dominance, F: FnMut(usize)>(
    store: &PointStore,
    dom: &D,
    mut emit: F,
    stats: &mut SkylineStats,
) {
    assert_eq!(store.dims(), dom.dims(), "store/dominance dims mismatch");
    // Project once into kernel space; the presort reads the kernel rows and
    // the append-only window runs on the batched many-vs-one kernel. SFS
    // never evicts, so a PointStore of kernel rows is all the window state
    // needed.
    let kd = dom.kernel_dims();
    let mut kbuf = Vec::new();
    let kdata = kernel::project_store(dom, store, &mut kbuf);
    let mut window = PointStore::new(kd);
    for i in presort_order(kd, kdata) {
        stats.tuples_scanned += 1;
        let p = &kdata[i as usize * kd..(i as usize + 1) * kd];
        if kernel::any_dominates(kd, window.raw(), p, &mut stats.dominance_tests) {
            continue;
        }
        window.push(p);
        emit(i as usize);
    }
}

/// The indices of `rows` — kernel rows of `kd` values each, in all-lowest
/// Pareto space — in SFS's presort order (see the module docs): a stable
/// sort by the coordinate-sum key, each row keyed once, then the
/// coordinates lexicographically; rows that tie on both keep their input
/// order. On rows without NaN no row sorts after one it dominates; a NaN
/// coordinate still gets a fixed place, so the order is total.
pub fn presort_order(kd: usize, rows: &[f64]) -> Vec<u32> {
    let row = |i: u32| &rows[i as usize * kd..(i as usize + 1) * kd];
    let keys: Vec<SumKey> = rows.chunks_exact(kd).map(sum_key).collect();
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_by(|&a, &b| presort_cmp((keys[a as usize], row(a)), (keys[b as usize], row(b))));
    order
}

/// The presort's primary key of one kernel row ([`sum_key`]): its count
/// of `+∞` coordinates minus its count of `−∞` ones, then the float sum of
/// its finite ones (a plain sum is NaN on a row holding both infinities).
///
/// Ordered by the count, then the sum with the two zeros tied and NaN
/// placed as `total_cmp` places it; both are packed into one integer whose
/// order is that one. On rows without NaN it is monotone under weak
/// dominance: `a ⪯ b` everywhere gives `sum_key(a) ≤ sum_key(b)` (see
/// [`presort_cmp`]), so a row whose key is *greater* than a point's
/// cannot dominate it; rows whose keys tie with it still can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SumKey(u128);

/// The [`SumKey`] of one kernel row.
pub(crate) fn sum_key(row: &[f64]) -> SumKey {
    let (infinities, sum) = row.iter().fold((0i32, 0.0), |(inf, sum), &v| {
        if v == f64::INFINITY {
            (inf + 1, sum)
        } else if v == f64::NEG_INFINITY {
            (inf - 1, sum)
        } else {
            (inf, sum + v)
        }
    });
    // Flipping the sign bit makes both halves order as unsigned integers.
    let count = (infinities as u32 ^ 1 << 31) as u128;
    SumKey(count << 64 | total_order_bits(sum + 0.0) as u128)
}

/// The bits of `x` mapped so that their unsigned order is `total_cmp`'s.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// SFS's presort order on two kernel rows (all-lowest Pareto space) keyed
/// by [`sum_key`]: the key, then the coordinates lexicographically.
///
/// It is a linear extension of kernel dominance on rows without NaN. Let
/// `a` dominate `b` (`a ≤ b` everywhere, `<` somewhere). Every `+∞` of `a`
/// is one of `b`'s and every `−∞` of `b` is one of `a`'s, so the infinity
/// counts compare `≤`; if they are equal, both rows hold their infinities at
/// the same positions, and since a float sum is monotone in each term (also
/// where it rounds or overflows) the finite sums compare `≤`. When both tie
/// — rounding makes that possible for distinct rows — the first coordinate
/// where the rows differ is one where `a < b`. Zeros of either sign tie, as
/// they do in the kernels. A NaN coordinate, which the kernels treat as a
/// tie, has no place in any linear extension; the comparison stays a total
/// order so the sort is well defined.
fn presort_cmp((ka, a): (SumKey, &[f64]), (kb, b): (SumKey, &[f64])) -> Ordering {
    let lex = || {
        let mut pairs = a.iter().zip(b).map(|(&x, &y)| tie_cmp(x, y));
        pairs.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    };
    ka.cmp(&kb).then_with(lex)
}

/// `<` / `>` as the kernels compare, made total: `-0.0 + 0.0` is `+0.0`, so
/// the two zeros tie, and `total_cmp` places NaN instead of failing.
fn tie_cmp(x: f64, y: f64) -> Ordering {
    (x + 0.0).total_cmp(&(y + 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_skyline;

    #[test]
    fn matches_oracle() {
        let s = PointStore::from_rows(
            3,
            [
                [4.0, 1.0, 2.0],
                [1.0, 4.0, 3.0],
                [2.0, 2.0, 2.0],
                [3.0, 3.0, 1.0],
                [2.0, 3.0, 4.0],
                [5.0, 0.5, 5.0],
            ],
        );
        let p = Preference::all_lowest(3);
        assert_eq!(
            sfs_skyline(&s, &p).sorted_indices(),
            naive_skyline(&s, &p).sorted_indices()
        );
    }

    #[test]
    fn emits_in_sum_order() {
        let s = PointStore::from_rows(2, [[3.0, 3.0], [1.0, 1.0], [0.5, 4.0]]);
        let p = Preference::all_lowest(2);
        let r = sfs_skyline(&s, &p);
        // (1,1) has score 2, (0.5,4) has score 4.5; (3,3) is dominated.
        assert_eq!(r.indices, vec![1, 2]);
    }

    #[test]
    fn mixed_directions_match_oracle() {
        let s = PointStore::from_rows(
            2,
            [[1.0, 9.0], [2.0, 5.0], [0.5, 2.0], [3.0, 10.0], [1.5, 9.5]],
        );
        let p = Preference::new(vec![crate::Order::Lowest, crate::Order::Highest]);
        assert_eq!(
            sfs_skyline(&s, &p).sorted_indices(),
            naive_skyline(&s, &p).sorted_indices()
        );
    }

    #[test]
    fn progressive_emission_counts() {
        let s = PointStore::from_rows(2, [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]);
        let p = Preference::all_lowest(2);
        let mut seen = Vec::new();
        let mut stats = SkylineStats::default();
        sfs_skyline_with(&s, &p, |i| seen.push(i), &mut stats);
        assert_eq!(seen.len(), 2);
        assert_eq!(stats.tuples_scanned, 3);
    }

    /// A dominator whose rounded sum ties its victim's still sorts first:
    /// at 1e16 the float spacing is 2, so 1e16 + 0 and 1e16 + 1 sum alike.
    /// Zeros of either sign tie, as in the kernels, so the lexicographic
    /// tie-break reads past them.
    #[test]
    fn rounding_ties_keep_dominators_first() {
        let s = PointStore::from_rows(
            3,
            [
                [-0.0, 1e16, 1.0],
                [0.0, 1e16, 0.0],
                [1e16, 1.0, 0.0],
                [1e16, 0.0, 0.0],
            ],
        );
        assert_eq!(1e16 + 1.0, 1e16, "the sums tie");
        let p = Preference::all_lowest(3);
        assert_eq!(sfs_skyline(&s, &p).sorted_indices(), vec![1, 3]);
        assert_eq!(naive_skyline(&s, &p).sorted_indices(), vec![1, 3]);
    }

    /// Rows holding both infinities — whose float sum is NaN — still sort
    /// after their dominators and before their victims.
    #[test]
    fn opposite_infinities_keep_a_linear_extension() {
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let s = PointStore::from_rows(
            2,
            [[inf, 0.0], [inf, ninf], [5.0, ninf], [1.0, 2.0], [inf, inf]],
        );
        let p = Preference::all_lowest(2);
        let expected = naive_skyline(&s, &p).sorted_indices();
        assert_eq!(expected, vec![2, 3]);
        assert_eq!(sfs_skyline(&s, &p).sorted_indices(), expected);
        let mixed = Preference::new(vec![crate::Order::Highest, crate::Order::Lowest]);
        assert_eq!(
            sfs_skyline(&s, &mixed).sorted_indices(),
            naive_skyline(&s, &mixed).sorted_indices()
        );
    }

    #[test]
    fn empty_input() {
        let s = PointStore::new(2);
        assert!(sfs_skyline(&s, &Preference::all_lowest(2)).is_empty());
    }
}
