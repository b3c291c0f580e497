//! Batched, autovectorization-friendly dominance kernels.
//!
//! Every dominance model in the engine reduces to **all-lowest Pareto
//! dominance in a kernel space**: the plain Pareto model after per-dimension
//! orientation ([`Order::orient`]), and F-dominance after projecting tuples
//! onto the weight-polytope vertices (weak F-dominance is component-wise `≤`
//! in projection space). That means one family of kernels serves every hot
//! call site — BNL/SFS windows, the worker-local pre-filter, the admitted
//! forest's leaves and the cell store's unpublished rows, and the
//! emission filter.
//!
//! The kernels walk the flat `len × dims` buffer of a [`PointStore`]
//! row-blockwise in chunks of [`CHUNK`] rows with branch-free `|=`/bool
//! accumulators per row, so the compiler can unroll and vectorize the inner
//! dimension loop (dims are specialized for d ∈ 1..=8 via const generics; a
//! generic loop covers larger projection spaces). No SIMD intrinsics, no
//! `unsafe`, no dependencies.
//!
//! Semantics are pinned to the scalar reference [`fold_dominates`]: a row
//! `r` dominates `q` iff no coordinate of `r` compares greater and at least
//! one compares strictly less. NaN coordinates compare neither less nor
//! greater and are therefore treated as ties — exactly the behaviour of the
//! historical `partial_cmp(..).unwrap_or(Equal)` scalar path. The batched
//! kernels use the same `!(x > y) && (x < y)` formulation (not `x <= y`,
//! which would diverge on NaN), so batched and scalar results are identical
//! bit-for-bit on every input, ties and NaN included. Differential tests in
//! this module and `tests/` hold the two paths together.

use crate::dominance::Dominance;
use crate::point::PointStore;
use crate::preference::Order;

/// Row-block width of the batched kernels.
///
/// Pair counters advance in units of `CHUNK` inside full blocks because the
/// early-exit check runs once per block, not once per row.
pub const CHUNK: usize = 8;

/// Scalar reference core: folds per-dimension `(candidate, reference)` value
/// pairs into the dominance verdict of Definition 1.
///
/// Returns `true` iff no pair has `x > y` and at least one has `x < y`,
/// consuming the iterator lazily so callers keep their early exit. This is
/// **the** single scalar dominance implementation in the workspace; the
/// oriented Pareto test, the ordered raw-value test and the per-vertex
/// F-dominance tests are all thin adapters over it.
#[inline]
pub fn fold_dominates<I>(pairs: I) -> bool
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let mut strict = false;
    for (x, y) in pairs {
        if x > y {
            return false;
        }
        strict |= x < y;
    }
    strict
}

/// Scalar dominance of oriented (all-lowest) points: `a` dominates `b`.
#[inline]
pub fn dominates_scalar(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    fold_dominates(a.iter().copied().zip(b.iter().copied()))
}

/// Scalar dominance of raw points under per-dimension [`Order`]s, folding
/// the orientation into the comparison instead of materializing oriented
/// copies.
#[inline]
pub fn dominates_ordered(orders: &[Order], a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), orders.len());
    debug_assert_eq!(b.len(), orders.len());
    fold_dominates(
        orders
            .iter()
            .zip(a.iter().zip(b))
            .map(|(ord, (&x, &y))| (ord.orient(x), ord.orient(y))),
    )
}

/// Orients a raw point into the all-lowest kernel space, reusing `out`.
#[inline]
pub fn orient_into(orders: &[Order], p: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(p.len(), orders.len());
    out.clear();
    out.extend(orders.iter().zip(p).map(|(ord, &v)| ord.orient(v)));
}

/// Projects every row of `store` into `dom`'s kernel space, filling `buf`
/// row-major — or borrowing the raw buffer directly when the projection is
/// the identity, so all-lowest Pareto pays nothing.
pub fn project_store<'a, D: Dominance>(
    dom: &D,
    store: &'a PointStore,
    buf: &'a mut Vec<f64>,
) -> &'a [f64] {
    if dom.kernel_is_identity() {
        return store.raw();
    }
    let kd = dom.kernel_dims();
    buf.clear();
    buf.reserve(store.len() * kd);
    let mut tmp = Vec::with_capacity(kd);
    for p in store.iter() {
        dom.project_kernel(p, &mut tmp);
        buf.extend_from_slice(&tmp);
    }
    buf
}

/// Branch-free single-row dominance used by the specialized kernels.
#[inline(always)]
fn row_dominates(row: &[f64], q: &[f64]) -> bool {
    let mut gt = false;
    let mut lt = false;
    for d in 0..row.len() {
        gt |= row[d] > q[d];
        lt |= row[d] < q[d];
    }
    !gt && lt
}

macro_rules! dims_dispatch {
    ($dims:expr, $func:ident ( $($arg:expr),* )) => {
        match $dims {
            1 => $func::<1>($($arg),*),
            2 => $func::<2>($($arg),*),
            3 => $func::<3>($($arg),*),
            4 => $func::<4>($($arg),*),
            5 => $func::<5>($($arg),*),
            6 => $func::<6>($($arg),*),
            7 => $func::<7>($($arg),*),
            8 => $func::<8>($($arg),*),
            _ => $func::<0>($($arg),*),
        }
    };
}
pub(crate) use dims_dispatch;

#[inline(always)]
pub(crate) fn row_dominates_spec<const D: usize>(row: &[f64], q: &[f64]) -> bool {
    if D == 0 {
        // Generic fallback for projection spaces wider than 8.
        return row_dominates(row, q);
    }
    let mut gt = false;
    let mut lt = false;
    for d in 0..D {
        gt |= row[d] > q[d];
        lt |= row[d] < q[d];
    }
    !gt && lt
}

pub(crate) fn any_dominates_spec<const D: usize>(
    dims: usize,
    batch: &[f64],
    q: &[f64],
    pairs: &mut u64,
) -> bool {
    // `d` is a compile-time constant for the specialized instantiations.
    let d = if D == 0 { dims } else { D };
    let block = d * CHUNK;
    let mut chunks = batch.chunks_exact(block);
    for chunk in &mut chunks {
        let mut dom = false;
        for row in chunk.chunks_exact(d) {
            dom |= row_dominates_spec::<D>(row, q);
        }
        *pairs += CHUNK as u64;
        if dom {
            return true;
        }
    }
    for row in chunks.remainder().chunks_exact(d) {
        *pairs += 1;
        if row_dominates_spec::<D>(row, q) {
            return true;
        }
    }
    false
}

fn dominated_mask_spec<const D: usize>(
    dims: usize,
    batch: &[f64],
    q: &[f64],
    mask: &mut [bool],
    pairs: &mut u64,
) -> usize {
    let d = if D == 0 { dims } else { D };
    let mut hits = 0usize;
    for (r, row) in batch.chunks_exact(d).enumerate() {
        let dom = row_dominates_spec::<D>(q, row);
        mask[r] = dom;
        hits += dom as usize;
    }
    *pairs += (batch.len() / d) as u64;
    hits
}

/// Many-vs-one: does **any** row of `batch` (flat `len × dims`, all-lowest
/// oriented) dominate `q`?
///
/// Early-exits at [`CHUNK`]-row granularity; `pairs` advances by the number
/// of pair tests charged (whole blocks inside the chunked region). Returns
/// exactly `batch.rows().any(|r| dominates_scalar(r, q))`.
#[inline]
pub fn any_dominates(dims: usize, batch: &[f64], q: &[f64], pairs: &mut u64) -> bool {
    debug_assert!(dims > 0);
    debug_assert_eq!(batch.len() % dims, 0);
    debug_assert_eq!(q.len(), dims);
    dims_dispatch!(dims, any_dominates_spec(dims, batch, q, pairs))
}

/// One-vs-many: marks `mask[r] = true` for every row of `batch` that is
/// dominated **by** `q`, returning the number of marked rows.
///
/// `mask` must have exactly `batch.len() / dims` entries; every entry is
/// overwritten. The whole batch is evaluated branch-free (no early exit), so
/// `pairs` advances by the full row count.
#[inline]
pub fn dominated_mask(
    dims: usize,
    batch: &[f64],
    q: &[f64],
    mask: &mut [bool],
    pairs: &mut u64,
) -> usize {
    debug_assert!(dims > 0);
    debug_assert_eq!(batch.len() % dims, 0);
    debug_assert_eq!(q.len(), dims);
    assert_eq!(mask.len(), batch.len() / dims, "mask must cover the batch");
    dims_dispatch!(dims, dominated_mask_spec(dims, batch, q, mask, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 stream (xorshift) for property tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn value(&mut self) -> f64 {
            // Coarse grid in [0, 4) so ties and equal points occur often.
            (self.next() % 16) as f64 * 0.25
        }
    }

    #[test]
    fn fold_matches_definition() {
        assert!(fold_dominates([(1.0, 2.0), (3.0, 3.0)]));
        assert!(!fold_dominates([(1.0, 1.0), (3.0, 3.0)]), "equal");
        assert!(!fold_dominates([(1.0, 2.0), (4.0, 3.0)]), "trade-off");
        assert!(fold_dominates([(0.0, 1.0)]));
        assert!(!fold_dominates(std::iter::empty()));
    }

    #[test]
    fn nan_ties_match_partial_cmp_semantics() {
        let nan = f64::NAN;
        // NaN coordinate is a tie: dominance decided by the other dims.
        assert!(dominates_scalar(&[nan, 1.0], &[nan, 2.0]));
        assert!(!dominates_scalar(&[nan, 2.0], &[nan, 1.0]));
        assert!(!dominates_scalar(&[nan, 1.0], &[2.0, 0.0]));
        // All-NaN rows never dominate (no strict dimension).
        assert!(!dominates_scalar(&[nan], &[nan]));
        assert!(!dominates_scalar(&[nan], &[1.0]));
        assert!(!dominates_scalar(&[1.0], &[nan]));
    }

    #[test]
    fn ordered_matches_oriented() {
        let orders = [Order::Lowest, Order::Highest];
        assert!(dominates_ordered(&orders, &[1.0, 9.0], &[2.0, 5.0]));
        assert!(!dominates_ordered(&orders, &[1.0, 5.0], &[2.0, 9.0]));
        assert!(!dominates_ordered(&orders, &[1.0, 5.0], &[1.0, 5.0]));
    }

    #[test]
    fn batched_matches_scalar_across_dims_and_lengths() {
        let mut rng = Rng(0x5EED_CAFE);
        for dims in 1..=10usize {
            // Lengths straddling the chunk width, including 0 and non-multiples.
            for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 65] {
                let batch: Vec<f64> = (0..len * dims).map(|_| rng.value()).collect();
                let q: Vec<f64> = (0..dims).map(|_| rng.value()).collect();

                let expect_any = batch.chunks_exact(dims).any(|r| dominates_scalar(r, &q));
                let mut pairs = 0u64;
                assert_eq!(
                    any_dominates(dims, &batch, &q, &mut pairs),
                    expect_any,
                    "any_dominates dims={dims} len={len}"
                );
                if !expect_any {
                    // No early exit: every row charged.
                    assert_eq!(pairs, len as u64);
                }

                let mut mask = vec![false; len];
                let mut pairs = 0u64;
                let hits = dominated_mask(dims, &batch, &q, &mut mask, &mut pairs);
                assert_eq!(pairs, len as u64);
                let mut expect_hits = 0;
                for (r, row) in batch.chunks_exact(dims).enumerate() {
                    let expect = dominates_scalar(&q, row);
                    assert_eq!(mask[r], expect, "mask dims={dims} len={len} row={r}");
                    expect_hits += expect as usize;
                }
                assert_eq!(hits, expect_hits);
            }
        }
    }

    #[test]
    fn batched_handles_nan_like_scalar() {
        let nan = f64::NAN;
        // Rows exercising NaN in batch and query positions, len > CHUNK.
        let batch = vec![
            1.0, 1.0, //
            nan, 0.5, //
            nan, 2.0, //
            0.0, nan, //
            nan, nan, //
            0.5, 0.5, //
            2.0, 2.0, //
            0.5, nan, //
            1.0, 0.0, //
        ];
        for q in [[1.0, 1.0], [nan, 1.0], [nan, nan], [0.5, 0.75]] {
            let expect = batch.chunks_exact(2).any(|r| dominates_scalar(r, &q));
            let mut pairs = 0;
            assert_eq!(any_dominates(2, &batch, &q, &mut pairs), expect, "q={q:?}");
            let mut mask = vec![false; 9];
            dominated_mask(2, &batch, &q, &mut mask, &mut pairs);
            for (r, row) in batch.chunks_exact(2).enumerate() {
                assert_eq!(mask[r], dominates_scalar(&q, row), "q={q:?} row={r}");
            }
        }
    }

    #[test]
    fn any_dominates_charges_chunk_granular_pairs() {
        // 16 rows of 1-dim points; a dominator in the first chunk stops the
        // scan after charging exactly one chunk.
        let mut batch = vec![5.0; 16];
        batch[2] = 0.0;
        let mut pairs = 0;
        assert!(any_dominates(1, &batch, &[1.0], &mut pairs));
        assert_eq!(pairs, CHUNK as u64);
    }

    #[test]
    fn orient_into_reuses_buffer() {
        let orders = [Order::Lowest, Order::Highest];
        let mut out = vec![9.0; 7];
        orient_into(&orders, &[1.0, 2.0], &mut out);
        assert_eq!(out, vec![1.0, -2.0]);
    }
}
