//! Input-source abstraction: attribute matrix + join keys.

use crate::error::{Error, Result};
use crate::grid::CutMemo;
use progxe_skyline::PointStore;

/// Borrowed view over one input source of a SkyMapJoin query.
///
/// The executor never owns input data; callers keep their relations and hand
/// in views. `attrs` holds the mapping-relevant attributes (one row per
/// tuple) and `join_keys` the equi-join key of each tuple, both indexed by
/// row position.
///
/// Every attribute value behind a view is finite: [`SourceView::new`]
/// rejects NaN and ±∞, so the engines never see them as input (a mapping
/// function may still produce them as output).
///
/// A view may carry the [`CutMemo`] of the table it reads
/// ([`with_cuts`](Self::with_cuts)); ProgXe then takes the input grid's
/// row cut from it instead of cutting the rows again.
#[derive(Debug, Clone, Copy)]
pub struct SourceView<'a> {
    attrs: &'a PointStore,
    join_keys: &'a [u32],
    cuts: Option<&'a CutMemo>,
}

impl<'a> SourceView<'a> {
    /// Creates a view, validating that the two arrays are parallel and
    /// that every attribute value is finite.
    ///
    /// # Errors
    /// [`Error::SourceShape`] for arrays of different lengths,
    /// [`Error::NonFiniteValue`] naming the first row and column that holds
    /// NaN or ±∞.
    pub fn new(attrs: &'a PointStore, join_keys: &'a [u32]) -> Result<Self> {
        if attrs.len() != join_keys.len() {
            return Err(Error::SourceShape {
                attr_rows: attrs.len(),
                key_rows: join_keys.len(),
            });
        }
        if let Some(pos) = attrs.raw().iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue {
                row: pos / attrs.dims(),
                dim: pos % attrs.dims(),
            });
        }
        Ok(Self {
            attrs,
            join_keys,
            cuts: None,
        })
    }

    /// A view over rows already checked: copies of a checked view's rows,
    /// or ingest rows that `push` admitted within finite declared bounds.
    /// Skips [`new`](Self::new)'s scan.
    pub(crate) fn checked(attrs: &'a PointStore, join_keys: &'a [u32]) -> Self {
        debug_assert_eq!(attrs.len(), join_keys.len(), "arrays must be parallel");
        debug_assert!(attrs.raw().iter().all(|v| v.is_finite()));
        Self {
            attrs,
            join_keys,
            cuts: None,
        }
    }

    /// The view with the row-cut memo of its rows attached. `cuts` must be
    /// the memo of exactly these rows, kept beside them while they never
    /// change — a catalog registration's memo for its unfiltered table.
    #[must_use]
    pub fn with_cuts(self, cuts: &'a CutMemo) -> Self {
        Self {
            cuts: Some(cuts),
            ..self
        }
    }

    /// The attached row-cut memo, if any.
    #[inline]
    pub fn cuts(&self) -> Option<&'a CutMemo> {
        self.cuts
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.join_keys.len()
    }

    /// True when the source has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.join_keys.is_empty()
    }

    /// Attribute dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.attrs.dims()
    }

    /// Attributes of tuple `i`.
    #[inline]
    pub fn attrs_of(&self, i: usize) -> &'a [f64] {
        self.attrs.point(i)
    }

    /// Join key of tuple `i`.
    #[inline]
    pub fn join_key_of(&self, i: usize) -> u32 {
        self.join_keys[i]
    }

    /// The underlying attribute store.
    #[inline]
    pub fn attrs(&self) -> &'a PointStore {
        self.attrs
    }

    /// The underlying join-key column.
    #[inline]
    pub fn join_keys(&self) -> &'a [u32] {
        self.join_keys
    }

    /// Largest join key present, or `None` for an empty source.
    pub fn max_join_key(&self) -> Option<u32> {
        self.join_keys.iter().copied().max()
    }
}

/// Owned source data — a convenience for examples and tests.
///
/// Library consumers with their own storage should construct [`SourceView`]s
/// directly; `SourceData` simply bundles a [`PointStore`] with its join-key
/// column.
#[derive(Debug, Clone, Default)]
pub struct SourceData {
    /// Attribute matrix.
    pub attrs: PointStore,
    /// Join key per tuple.
    pub join_keys: Vec<u32>,
}

impl SourceData {
    /// Creates an empty source with `dims` attributes per tuple.
    pub fn new(dims: usize) -> Self {
        Self {
            attrs: PointStore::new(dims),
            join_keys: Vec::new(),
        }
    }

    /// Builds a source from `(attributes, join_key)` rows.
    pub fn from_rows(dims: usize, rows: &[(&[f64], u32)]) -> Self {
        let mut s = Self {
            attrs: PointStore::with_capacity(dims, rows.len()),
            join_keys: Vec::with_capacity(rows.len()),
        };
        for (attrs, key) in rows {
            s.push(attrs, *key);
        }
        s
    }

    /// Appends one tuple; returns its row index.
    ///
    /// # Panics
    /// Panics with a descriptive message when `attrs.len()` disagrees with
    /// the source's declared dimensionality — previously this surfaced as
    /// an opaque point-store assertion deep in the insert path.
    pub fn push(&mut self, attrs: &[f64], join_key: u32) -> usize {
        assert_eq!(
            attrs.len(),
            self.attrs.dims(),
            "SourceData::push arity mismatch: source declares {} attribute \
             dimension(s) but the pushed row has {} (join_key {join_key}, \
             row index {})",
            self.attrs.dims(),
            attrs.len(),
            self.join_keys.len(),
        );
        let idx = self.attrs.push(attrs);
        self.join_keys.push(join_key);
        idx
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.join_keys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.join_keys.is_empty()
    }

    /// A borrowed view suitable for the executor; [`try_view`] without
    /// the `Result`.
    ///
    /// # Panics
    /// Panics when a value is NaN or ±∞ (the arrays are parallel by
    /// construction).
    ///
    /// [`try_view`]: Self::try_view
    pub fn view(&self) -> SourceView<'_> {
        self.try_view().unwrap_or_else(|e| panic!("{e}"))
    }

    /// A borrowed view, or [`Error::NonFiniteValue`] naming the first
    /// row and column that holds NaN or ±∞.
    pub fn try_view(&self) -> Result<SourceView<'_>> {
        SourceView::new(&self.attrs, &self.join_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_validates_shape() {
        let attrs = PointStore::from_rows(2, [[1.0, 2.0], [3.0, 4.0]]);
        let keys = vec![1u32];
        assert!(matches!(
            SourceView::new(&attrs, &keys),
            Err(Error::SourceShape { .. })
        ));
    }

    #[test]
    fn view_rejects_non_finite_values_naming_row_and_column() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = SourceData::from_rows(3, &[(&[1.0, 2.0, 3.0], 0), (&[4.0, 5.0, bad], 1)]);
            assert_eq!(
                s.try_view().unwrap_err(),
                Error::NonFiniteValue { row: 1, dim: 2 }
            );
        }
        let extremes = SourceData::from_rows(1, &[(&[f64::MAX], 0), (&[-f64::MAX], 0)]);
        assert!(extremes.try_view().is_ok(), "finite extremes are valid");
    }

    #[test]
    #[should_panic(expected = "input row 0 holds a non-finite value in column 1")]
    fn view_panics_on_non_finite_values() {
        SourceData::from_rows(2, &[(&[0.0, f64::NAN], 0)]).view();
    }

    #[test]
    fn source_data_round_trip() {
        let s = SourceData::from_rows(2, &[(&[1.0, 2.0], 7), (&[3.0, 4.0], 9)]);
        let v = s.view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.dims(), 2);
        assert_eq!(v.attrs_of(1), &[3.0, 4.0]);
        assert_eq!(v.join_key_of(0), 7);
        assert_eq!(v.max_join_key(), Some(9));
    }

    #[test]
    #[should_panic(expected = "SourceData::push arity mismatch: source declares 2")]
    fn push_rejects_wrong_arity_with_context() {
        let mut s = SourceData::new(2);
        s.push(&[1.0, 2.0], 0);
        s.push(&[1.0, 2.0, 3.0], 7); // 3 attrs into a 2-d source
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn from_rows_rejects_wrong_arity() {
        // from_rows goes through push, so the diagnostic applies there too.
        SourceData::from_rows(1, &[(&[1.0, 2.0], 0)]);
    }

    #[test]
    fn empty_source() {
        let s = SourceData::new(3);
        assert!(s.is_empty());
        assert_eq!(s.view().max_join_key(), None);
    }
}
