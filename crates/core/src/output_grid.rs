//! Output-space geometry: cells, coordinates, and dominance predicates.
//!
//! The mapped output space is cut into a uniform grid ("each region is
//! composed of a set of output partitions", Section III-A). All geometry
//! here operates in the *oriented* output space: every output dimension is
//! transformed so that smaller is better, which lets dominance reasoning be
//! direction-agnostic throughout the executor.
//!
//! Cells are half-open boxes `[c·δ, (c+1)·δ)` identified by integer
//! coordinates. Two cell-level relations drive the framework:
//!
//! * `a` **fully dominates** `b` iff `a[i] + 1 ≤ b[i]` for every dimension:
//!   every point of `a` strictly dominates every point of `b`, so a single
//!   tuple landing in `a` kills `b` outright.
//! * `a` **partially dominates** `b` iff `a[i] ≤ b[i]` everywhere, `a ≠ b`,
//!   and not full: tuples in `a` *may* dominate tuples in `b`. Because
//!   `a ≤ b` without full dominance forces `a[j] = b[j]` in some dimension,
//!   the partial dominators of `b` are exactly the union of the `d`
//!   coordinate *slabs* through `b` — the paper's `k^d − (k−1)^d`
//!   comparable-partition bound (the cell store asks its admitted forest
//!   instead of walking them).

/// Maximum supported output dimensionality (paper evaluates d ≤ 5).
pub const MAX_DIMS: usize = 8;

/// Cell coordinate: one grid index per output dimension. Only the first
/// `dims` entries are meaningful; the rest stay zero so packed keys compare
/// consistently.
pub type Coord = [u16; MAX_DIMS];

/// Packs a coordinate into a hashable key (16 bits per dimension).
#[inline]
pub fn pack(c: &Coord) -> u128 {
    let mut k: u128 = 0;
    for (i, &v) in c.iter().enumerate() {
        k |= (v as u128) << (16 * i);
    }
    k
}

/// True iff `a[i] ≤ b[i]` for every meaningful dimension.
#[inline]
pub fn weak_leq(a: &Coord, b: &Coord, dims: usize) -> bool {
    a[..dims].iter().zip(&b[..dims]).all(|(x, y)| x <= y)
}

/// True iff cell `a` fully dominates cell `b` (see module docs).
#[inline]
#[allow(clippy::int_plus_one)] // `a[i] + 1 ≤ b[i]` mirrors the definition
pub fn full_dominates(a: &Coord, b: &Coord, dims: usize) -> bool {
    a[..dims].iter().zip(&b[..dims]).all(|(x, y)| x + 1 <= *y)
}

/// True iff cell `a` partially dominates cell `b`: `a ⪯ b`, `a ≠ b`, and
/// not full dominance.
#[inline]
pub fn partial_dominates(a: &Coord, b: &Coord, dims: usize) -> bool {
    weak_leq(a, b, dims) && a[..dims] != b[..dims] && !full_dominates(a, b, dims)
}

/// Position of `c` in a dense `k^dims` array, dimension 0 fastest — so
/// ascending position is ascending [`pack`] order. `dims = 0` is the
/// one-element array.
#[inline]
pub fn dense_position(c: &Coord, dims: usize, k: usize) -> usize {
    c[..dims]
        .iter()
        .rev()
        .fold(0, |pos, &v| pos * k + v as usize)
}

/// Calls `row` with every maximal run of consecutive [`dense_position`]s
/// inside the upper box `{c : lo ⪯ c}` of a `k^dims` array, in ascending
/// position order. The cell store's staircase is updated this way: an
/// upper box is `(k − lo₀)`-long rows along dimension 0.
pub fn for_each_upper_box_row(
    lo: &Coord,
    dims: usize,
    k: usize,
    mut row: impl FnMut(std::ops::Range<usize>),
) {
    if dims == 0 {
        return row(0..1);
    }
    let len = k - lo[0] as usize;
    let mut at = *lo;
    loop {
        let start = dense_position(&at, dims, k);
        row(start..start + len);
        // Advance dimensions 1.. like a mixed-radix counter.
        let mut d = 1;
        loop {
            if d == dims {
                return;
            }
            if (at[d] as usize) + 1 < k {
                at[d] += 1;
                break;
            }
            at[d] = lo[d];
            d += 1;
        }
    }
}

/// Uniform grid over the oriented output space.
#[derive(Debug, Clone)]
pub struct OutputGrid {
    dims: usize,
    lo: Vec<f64>,
    width: Vec<f64>,
    cells_per_dim: u16,
}

impl OutputGrid {
    /// Builds a grid over the oriented bounding box `[lo, hi]` with
    /// `cells_per_dim` cells per dimension — at most: a request whose grid
    /// would exceed [`Self::DENSE_INDEX_BUDGET`] positions is capped to the
    /// largest `k` with `k^dims` within it (1024 / 101 / 32 / 16 / 10 / 7 /
    /// 5 cells for `dims` = 2…8). Coarser cells only coarsen the batches;
    /// the result set does not depend on the grid.
    ///
    /// # Panics
    /// Panics on inconsistent inputs (zero dims, dims > [`MAX_DIMS`],
    /// inverted bounds).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>, cells_per_dim: u16) -> Self {
        let dims = lo.len();
        assert!(dims > 0 && dims <= MAX_DIMS, "unsupported dims {dims}");
        assert_eq!(lo.len(), hi.len());
        assert!(cells_per_dim > 0);
        let cells_per_dim = cells_per_dim.min(Self::max_cells_per_dim(dims));
        let width = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| {
                assert!(h >= l, "inverted bounds {l} > {h}");
                if h > l {
                    (h - l) / cells_per_dim as f64
                } else {
                    1.0 // degenerate dimension: all mass in cell 0
                }
            })
            .collect();
        Self {
            dims,
            lo,
            width,
            cells_per_dim,
        }
    }

    /// Output dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Cells per dimension (`k` in the paper's analysis).
    #[inline]
    pub fn cells_per_dim(&self) -> u16 {
        self.cells_per_dim
    }

    /// Largest grid volume (`cells_per_dim ^ dims`) [`Self::new`] builds:
    /// the cap on `cells_per_dim`, so every grid is densely indexable. The
    /// ordered committer's per-position state lives as long as the session
    /// — 4 bytes per position in [`CellStore`]'s index, 2 per position of a
    /// `dims − 1` slice in its staircase — so this holds it to about 4 MB
    /// per session, next to the ~100 bytes every *built* cell costs anyway
    /// (the default 24-cell grid fits up to `d = 4`, 1.3 MB).
    ///
    /// [`CellStore`]: crate::cells::CellStore
    pub const DENSE_INDEX_BUDGET: usize = 1 << 20;

    /// The largest `k ≤ u16::MAX` with `k^dims ≤ DENSE_INDEX_BUDGET`.
    fn max_cells_per_dim(dims: usize) -> u16 {
        let fits = |k: usize| {
            k.checked_pow(dims as u32)
                .is_some_and(|v| v <= Self::DENSE_INDEX_BUDGET)
        };
        // The float root is off by at most one either way.
        let mut k = (Self::DENSE_INDEX_BUDGET as f64)
            .powf(1.0 / dims as f64)
            .round() as usize;
        while !fits(k) {
            k -= 1;
        }
        while fits(k + 1) {
            k += 1;
        }
        k.min(u16::MAX as usize) as u16
    }

    /// Number of cells in the grid (`cells_per_dim ^ dims`), at most
    /// [`Self::DENSE_INDEX_BUDGET`].
    pub fn volume(&self) -> usize {
        (self.cells_per_dim as usize).pow(self.dims as u32)
    }

    /// A cell's grid position as a stable identity for reports: its
    /// [`dense_position`] (dimension 0 fastest).
    pub fn position(&self, c: &Coord) -> u64 {
        dense_position(c, self.dims, self.cells_per_dim as usize) as u64
    }

    /// The cell containing an oriented point (boundary values clamp into
    /// the last cell, making the top edge closed).
    #[inline]
    pub fn cell_of(&self, p: &[f64]) -> Coord {
        debug_assert_eq!(p.len(), self.dims);
        let mut c: Coord = [0; MAX_DIMS];
        for d in 0..self.dims {
            c[d] = self.slot(p[d], d);
        }
        c
    }

    /// Grid slot of a single value along `dim`, clamped into range.
    #[inline]
    pub fn slot(&self, v: f64, dim: usize) -> u16 {
        let raw = (v - self.lo[dim]) / self.width[dim];
        if raw <= 0.0 {
            0
        } else {
            (raw as u64).min(self.cells_per_dim as u64 - 1) as u16
        }
    }

    /// The inclusive cell-coordinate box covering the oriented value box
    /// `[lo, hi]`.
    pub fn box_of(&self, lo: &[f64], hi: &[f64]) -> (Coord, Coord) {
        (self.cell_of(lo), self.cell_of(hi))
    }

    /// Oriented lower corner of a cell.
    pub fn lower_corner(&self, c: &Coord) -> Vec<f64> {
        let mut out = Vec::new();
        self.lower_corner_into(c, &mut out);
        out
    }

    /// [`Self::lower_corner`] into a caller-provided buffer (cleared
    /// first) — the hot-loop variant that avoids a per-cell allocation.
    #[inline]
    pub fn lower_corner_into(&self, c: &Coord, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.dims).map(|d| self.lo[d] + c[d] as f64 * self.width[d]));
    }

    /// Oriented upper corner of a cell.
    pub fn upper_corner(&self, c: &Coord) -> Vec<f64> {
        let mut out = Vec::new();
        self.upper_corner_into(c, &mut out);
        out
    }

    /// [`Self::upper_corner`] into a caller-provided buffer (cleared
    /// first) — the hot-loop variant that avoids a per-cell allocation.
    #[inline]
    pub fn upper_corner_into(&self, c: &Coord, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.dims).map(|d| self.lo[d] + (c[d] + 1) as f64 * self.width[d]));
    }

    /// Number of cells in the inclusive coordinate box `[lo, hi]`.
    pub fn box_volume(&self, lo: &Coord, hi: &Coord) -> u64 {
        let mut v: u64 = 1;
        for d in 0..self.dims {
            debug_assert!(lo[d] <= hi[d]);
            v = v.saturating_mul((hi[d] - lo[d]) as u64 + 1);
        }
        v
    }

    /// Iterates all coordinates in the inclusive box `[lo, hi]` in
    /// row-major order.
    pub fn iter_box(&self, lo: Coord, hi: Coord) -> BoxIter {
        BoxIter {
            dims: self.dims,
            lo,
            hi,
            next: Some(lo),
        }
    }
}

/// Row-major iterator over a coordinate box.
#[derive(Debug, Clone)]
pub struct BoxIter {
    dims: usize,
    lo: Coord,
    hi: Coord,
    next: Option<Coord>,
}

impl Iterator for BoxIter {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let current = self.next?;
        // Advance like a mixed-radix counter, last dimension fastest.
        let mut succ = current;
        let mut d = self.dims;
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            if succ[d] < self.hi[d] {
                succ[d] += 1;
                succ[d + 1..self.dims].copy_from_slice(&self.lo[d + 1..self.dims]);
                self.next = Some(succ);
                break;
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(vals: &[u16]) -> Coord {
        let mut c: Coord = [0; MAX_DIMS];
        c[..vals.len()].copy_from_slice(vals);
        c
    }

    #[test]
    fn pack_is_injective_on_distinct_coords() {
        let a = coord(&[1, 2, 3]);
        let b = coord(&[3, 2, 1]);
        assert_ne!(pack(&a), pack(&b));
        assert_eq!(pack(&a), pack(&coord(&[1, 2, 3])));
    }

    #[test]
    fn grid_positions_ascend_in_pack_order_and_upper_box_rows_cover_the_box() {
        for (dims, k) in [(1usize, 7usize), (2, 5), (3, 4), (4, 3), (2, 1)] {
            let g = OutputGrid::new(vec![0.0; dims], vec![1.0; dims], k as u16);
            let mut top: Coord = [0; MAX_DIMS];
            top[..dims].fill(k as u16 - 1);
            let mut all: Vec<Coord> = g.iter_box([0; MAX_DIMS], top).collect();
            all.sort_by_key(pack);
            for (pos, c) in all.iter().enumerate() {
                assert_eq!(dense_position(c, dims, k), pos, "dims={dims} k={k} {c:?}");
                assert_eq!(g.position(c), pos as u64, "dims={dims} k={k} {c:?}");
            }
            for lo in &all {
                let mut visited = Vec::new();
                for_each_upper_box_row(lo, dims, k, |row| {
                    assert_eq!(row.len(), k - lo[0] as usize, "rows run along dimension 0");
                    visited.extend(row);
                });
                let expected: Vec<usize> = (0..all.len())
                    .filter(|&pos| weak_leq(lo, &all[pos], dims))
                    .collect();
                assert_eq!(visited, expected, "dims={dims} k={k} lo={lo:?}");
            }
        }
        // No dimensions: the one-element array (a 1-d staircase).
        let mut rows = Vec::new();
        for_each_upper_box_row(&[0; MAX_DIMS], 0, 9, |row| rows.push(row));
        assert_eq!(rows, vec![0..1]);
        assert_eq!(dense_position(&coord(&[5]), 0, 9), 0);
    }

    /// `new` builds `min(requested, cap)` cells per dimension, the cap
    /// being the largest `k` whose grid fits the dense budget — so no grid
    /// exceeds it.
    #[test]
    fn cells_per_dim_is_capped_to_the_dense_budget() {
        let budget = OutputGrid::DENSE_INDEX_BUDGET;
        let grid = |dims: usize, k: u16| OutputGrid::new(vec![0.0; dims], vec![1.0; dims], k);
        for dims in 1..=MAX_DIMS {
            let fits = |k: u16| {
                (k as usize)
                    .checked_pow(dims as u32)
                    .is_some_and(|v| v <= budget)
            };
            let cap = (1..=u16::MAX).rev().find(|&k| fits(k)).unwrap();
            for requested in [1, 2, 24, 1025, u16::MAX] {
                let g = grid(dims, requested);
                let k = g.cells_per_dim();
                let label = format!("dims={dims} requested={requested}");
                assert_eq!(k, requested.min(cap), "{label}");
                assert!(g.volume() <= budget, "{label}");
                if k < requested {
                    assert!(fits(k) && !fits(k + 1), "{label}: not the largest fit");
                }
            }
        }
        let caps: Vec<u16> = (1..=MAX_DIMS)
            .map(|d| grid(d, u16::MAX).cells_per_dim())
            .collect();
        assert_eq!(caps, [u16::MAX, 1024, 101, 32, 16, 10, 7, 5]);
        assert_eq!(grid(5, 24).cells_per_dim(), 16);
        assert_eq!(grid(2, 1025).cells_per_dim(), 1024);
        assert_eq!(grid(2, 1024).volume(), budget, "the cap itself still fits");
        assert_eq!(grid(4, 24).volume(), 331_776, "under the cap: as requested");
    }

    #[test]
    fn full_dominance_requires_gap_in_every_dim() {
        let d = 2;
        assert!(full_dominates(&coord(&[0, 0]), &coord(&[1, 1]), d));
        assert!(full_dominates(&coord(&[0, 0]), &coord(&[5, 1]), d));
        assert!(
            !full_dominates(&coord(&[0, 0]), &coord(&[0, 5]), d),
            "tie in dim 0"
        );
        assert!(!full_dominates(&coord(&[2, 0]), &coord(&[1, 5]), d));
    }

    #[test]
    fn partial_dominance_is_the_slab_set() {
        let d = 2;
        // Same row or column, weakly below-left:
        assert!(partial_dominates(&coord(&[0, 3]), &coord(&[2, 3]), d));
        assert!(partial_dominates(&coord(&[2, 0]), &coord(&[2, 3]), d));
        // Full dominance is excluded:
        assert!(!partial_dominates(&coord(&[0, 0]), &coord(&[2, 3]), d));
        // Identity is excluded:
        assert!(!partial_dominates(&coord(&[2, 3]), &coord(&[2, 3]), d));
        // Upper-right is excluded:
        assert!(!partial_dominates(&coord(&[3, 3]), &coord(&[2, 3]), d));
    }

    #[test]
    fn weak_leq_implies_partial_or_full_or_equal() {
        // Exhaustive check on a small grid: the three relations partition
        // the weak-≤ cone. This is the invariant the slab lookup relies on.
        let d = 2;
        for ax in 0..4u16 {
            for ay in 0..4u16 {
                for bx in ax..4u16 {
                    for by in ay..4u16 {
                        let a = coord(&[ax, ay]);
                        let b = coord(&[bx, by]);
                        let full = full_dominates(&a, &b, d);
                        let partial = partial_dominates(&a, &b, d);
                        let equal = a == b;
                        assert_eq!(
                            1,
                            full as u8 + partial as u8 + equal as u8,
                            "a={a:?} b={b:?}"
                        );
                        if partial {
                            assert!(
                                (0..d).any(|i| a[i] == b[i]),
                                "partial dominator must share a slab"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_of_clamps_boundaries() {
        let g = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 5);
        assert_eq!(g.cell_of(&[0.0, 0.0])[..2], [0, 0]);
        assert_eq!(g.cell_of(&[9.99, 9.99])[..2], [4, 4]);
        assert_eq!(g.cell_of(&[10.0, 10.0])[..2], [4, 4], "top edge closed");
        assert_eq!(g.cell_of(&[-1.0, 5.0])[..2], [0, 2], "below-range clamps");
    }

    #[test]
    fn corners_invert_cell_of() {
        let g = OutputGrid::new(vec![0.0], vec![8.0], 4);
        let c = g.cell_of(&[3.0]);
        assert_eq!(g.lower_corner(&c), vec![2.0]);
        assert_eq!(g.upper_corner(&c), vec![4.0]);
    }

    #[test]
    fn degenerate_dimension_maps_to_zero() {
        let g = OutputGrid::new(vec![5.0, 0.0], vec![5.0, 10.0], 4);
        assert_eq!(g.cell_of(&[5.0, 10.0])[..2], [0, 3]);
    }

    #[test]
    fn box_volume_counts_cells() {
        let g = OutputGrid::new(vec![0.0, 0.0], vec![1.0, 1.0], 10);
        assert_eq!(g.box_volume(&coord(&[1, 1]), &coord(&[3, 2])), 6);
        assert_eq!(g.box_volume(&coord(&[2, 2]), &coord(&[2, 2])), 1);
    }

    #[test]
    fn iter_box_visits_every_cell_once() {
        let g = OutputGrid::new(vec![0.0, 0.0], vec![1.0, 1.0], 10);
        let cells: Vec<Coord> = g.iter_box(coord(&[1, 2]), coord(&[2, 4])).collect();
        assert_eq!(cells.len(), 6);
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!((1..=2).contains(&c[0]));
            assert!((2..=4).contains(&c[1]));
            assert!(seen.insert(pack(c)));
        }
    }

    #[test]
    fn iter_box_single_cell() {
        let g = OutputGrid::new(vec![0.0], vec![1.0], 4);
        let cells: Vec<Coord> = g.iter_box(coord(&[2]), coord(&[2])).collect();
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn iter_box_3d_volume_matches() {
        let g = OutputGrid::new(vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0], 6);
        let lo = coord(&[0, 1, 2]);
        let hi = coord(&[2, 3, 5]);
        let count = g.iter_box(lo, hi).count() as u64;
        assert_eq!(count, g.box_volume(&lo, &hi));
    }
}
