//! Dense row-major storage for fixed-dimension points.
//!
//! All skyline algorithms in this workspace operate on a [`PointStore`]: a
//! flat `Vec<f64>` holding `len × dims` values. Compared with
//! `Vec<Vec<f64>>`, this avoids one pointer indirection and one heap
//! allocation per tuple, which matters when the join in a SkyMapJoin query
//! materializes millions of intermediate results.

/// A dense matrix of `f64` points, all with the same dimensionality.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointStore {
    dims: usize,
    data: Vec<f64>,
}

impl PointStore {
    /// Creates an empty store for `dims`-dimensional points.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "points need at least one dimension");
        Self {
            dims,
            data: Vec::new(),
        }
    }

    /// Creates an empty store with capacity reserved for `cap` points.
    pub fn with_capacity(dims: usize, cap: usize) -> Self {
        assert!(dims > 0, "points need at least one dimension");
        Self {
            dims,
            data: Vec::with_capacity(cap * dims),
        }
    }

    /// Builds a store from an iterator of rows; handy in tests.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dims`.
    pub fn from_rows<I, R>(dims: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut s = Self::new(dims);
        for r in rows {
            s.push(r.as_ref());
        }
        s
    }

    /// Appends one point; returns its index.
    ///
    /// # Panics
    /// Panics if `p.len() != dims`.
    #[inline]
    pub fn push(&mut self, p: &[f64]) -> usize {
        assert_eq!(p.len(), self.dims, "point dimensionality mismatch");
        let idx = self.len();
        self.data.extend_from_slice(p);
        idx
    }

    /// Appends every point of a row-major `rows × dims` buffer — how a
    /// columnar producer hands over a chunk of rows at once.
    ///
    /// # Panics
    /// Panics if `flat.len()` is not a multiple of `dims`.
    #[inline]
    pub fn extend_from_flat(&mut self, flat: &[f64]) {
        assert_eq!(
            flat.len() % self.dims,
            0,
            "flat buffer must hold whole points"
        );
        self.data.extend_from_slice(flat);
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// True when the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every stored point.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Borrow point `i` as a slice.
    ///
    /// # Panics
    /// Panics on out-of-bounds index.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        let start = i * self.dims;
        &self.data[start..start + self.dims]
    }

    /// A single attribute of a single point.
    #[inline]
    pub fn value(&self, i: usize, dim: usize) -> f64 {
        debug_assert!(dim < self.dims);
        self.data[i * self.dims + dim]
    }

    /// Iterate over all points in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dims)
    }

    /// The raw value buffer (row-major).
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Removes all points, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Removes point `i` in O(dims) by moving the last point into its slot
    /// (order is not preserved). Mirrors `Vec::swap_remove` for parallel
    /// bookkeeping structures.
    ///
    /// # Panics
    /// Panics on out-of-bounds index.
    pub fn swap_remove(&mut self, i: usize) {
        let n = self.len();
        assert!(i < n, "swap_remove index {i} out of bounds (len {n})");
        let last = n - 1;
        if i != last {
            for d in 0..self.dims {
                self.data[i * self.dims + d] = self.data[last * self.dims + d];
            }
        }
        self.data.truncate(last * self.dims);
    }

    /// Keeps only the points whose `keep` flag is set, preserving order.
    /// In-place and allocation-free: O(len × dims) forward copy.
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()`.
    pub fn compact(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "keep mask must cover the store");
        let dims = self.dims;
        let mut w = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if i != w {
                    self.data.copy_within(i * dims..(i + 1) * dims, w * dims);
                }
                w += 1;
            }
        }
        self.data.truncate(w * dims);
    }

    /// Per-dimension minima and maxima over all stored points, or `None`
    /// when the store is empty. Used to size grid structures.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        if self.bounds_into(&mut lo, &mut hi) {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Like [`bounds`](Self::bounds) but writing into caller-provided
    /// buffers, so repeated calls on the hot path do not allocate. Returns
    /// `false` (leaving the buffers empty) when the store is empty.
    pub fn bounds_into(&self, lo: &mut Vec<f64>, hi: &mut Vec<f64>) -> bool {
        lo.clear();
        hi.clear();
        if self.is_empty() {
            return false;
        }
        lo.extend_from_slice(self.point(0));
        hi.extend_from_slice(self.point(0));
        for p in self.iter().skip(1) {
            for d in 0..self.dims {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = PointStore::new(3);
        assert!(s.is_empty());
        let i = s.push(&[1.0, 2.0, 3.0]);
        let j = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!((i, j), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(s.value(1, 2), 6.0);
    }

    #[test]
    fn from_rows_round_trips() {
        let s = PointStore::from_rows(2, [[1.0, 2.0], [3.0, 4.0]]);
        let rows: Vec<&[f64]> = s.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn bounds_cover_all_points() {
        let s = PointStore::from_rows(2, [[1.0, 9.0], [5.0, 2.0], [3.0, 4.0]]);
        let (lo, hi) = s.bounds().unwrap();
        assert_eq!(lo, vec![1.0, 2.0]);
        assert_eq!(hi, vec![5.0, 9.0]);
    }

    #[test]
    fn bounds_empty_is_none() {
        assert!(PointStore::new(2).bounds().is_none());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimension_rejected() {
        let mut s = PointStore::new(2);
        s.push(&[1.0]);
    }

    #[test]
    fn swap_remove_moves_last() {
        let mut s = PointStore::from_rows(2, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        s.swap_remove(0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[5.0, 6.0]);
        assert_eq!(s.point(1), &[3.0, 4.0]);
        s.swap_remove(1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.point(0), &[5.0, 6.0]);
        s.swap_remove(0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn swap_remove_out_of_bounds_panics() {
        let mut s = PointStore::from_rows(2, [[1.0, 2.0]]);
        s.swap_remove(1);
    }

    #[test]
    fn compact_preserves_order() {
        let mut s = PointStore::from_rows(2, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]);
        s.compact(&[true, false, false, true]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[1.0, 2.0]);
        assert_eq!(s.point(1), &[7.0, 8.0]);
        s.compact(&[false, false]);
        assert!(s.is_empty());
    }

    #[test]
    fn bounds_into_reuses_buffers() {
        let s = PointStore::from_rows(2, [[1.0, 9.0], [5.0, 2.0]]);
        let mut lo = vec![0.0; 5];
        let mut hi = Vec::new();
        assert!(s.bounds_into(&mut lo, &mut hi));
        assert_eq!(lo, vec![1.0, 2.0]);
        assert_eq!(hi, vec![5.0, 9.0]);
        assert!(!PointStore::new(2).bounds_into(&mut lo, &mut hi));
        assert!(lo.is_empty());
    }

    #[test]
    fn clear_keeps_dims() {
        let mut s = PointStore::from_rows(2, [[1.0, 2.0]]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.dims(), 2);
    }
}
