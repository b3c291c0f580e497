//! Input-space grid partitioning (Section III).
//!
//! "We assume the input data sets are partitioned into a multi-dimensional
//! grid structure." Each source is cut into `p` equal-width slices per
//! attribute dimension (capped so a grid has at most [`INPUT_CELL_BUDGET`]
//! cells); only non-empty partitions are materialized. Every partition
//! carries (a) the row indices of its tuples, (b) a *tight* bounding box
//! (the min/max of its members, which maps to tighter output regions than
//! the raw cell geometry — a sound refinement), and (c) the join-value
//! [`JoinSignature`] used to decide whether a partition pair can produce
//! join results at all.
//!
//! A grid is built in two steps. The row cut (`RowCut`) — (a) and (b), a
//! counting sort over a dense array of per-cell counters: two passes over
//! the rows, no hashing and no growing buckets — depends only on the
//! attributes and the slice count, so, as in the paper, it is a property of
//! the stored
//! relation: a catalog table keeps its cuts in a [`CutMemo`], one per
//! effective slice count, and a query over it pays only the signature pass
//! (`InputGrid::sign`, (c) over the query's dense join keys).
//! [`InputGrid::build`] runs both steps, for every source without a memo.
//!
//! A stream's grid ([`InputGrid::declared`]) is the same structure over
//! *declared* bounds: one partition per cell, before any row arrives.
//!
//! For the tuple-level join a partition is prepared at most once per query
//! as a [`JoinSide`] — its rows grouped by join key beside a row-major slab
//! of what the join's row producer reads — held in the partition's slot of
//! a [`JoinSource`]: filled by the first region that joins it, or, on a
//! stream, when the cell seals.

use crate::mapping::MapSet;
use crate::pushthrough::Side;
use crate::signature::JoinSignature;
use crate::source::SourceView;
use progxe_skyline::PointStore;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Fixed slicing geometry of one input grid: `per_dim` equal-width slices
/// per attribute dimension over a bounding box.
///
/// The batch pipeline derives the box from the observed data
/// ([`InputGrid::build`]); the streaming pipeline ([`crate::ingest`]) uses
/// *declared* bounds instead, so that the cell a tuple lands in — and with
/// it the whole region structure — is independent of arrival order.
#[derive(Debug, Clone)]
pub struct GridGeometry {
    lo: Vec<f64>,
    width: Vec<f64>,
    per_dim: usize,
}

impl GridGeometry {
    /// Geometry over the box `[lo, hi]` with `per_dim` slices per
    /// dimension. Degenerate (zero-extent) dimensions collapse to a single
    /// effective slice.
    pub fn from_bounds(lo: &[f64], hi: &[f64], per_dim: usize) -> Self {
        assert!(per_dim > 0, "per_dim must be positive");
        assert_eq!(lo.len(), hi.len(), "bounds must be parallel");
        let width = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| if h > l { (h - l) / per_dim as f64 } else { 1.0 })
            .collect();
        Self {
            lo: lo.to_vec(),
            width,
            per_dim,
        }
    }

    /// Attribute dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Slices per dimension.
    #[inline]
    pub fn per_dim(&self) -> usize {
        self.per_dim
    }

    /// Total cell count (`per_dim ^ dims`), or `None` on overflow.
    pub fn cell_count(&self) -> Option<usize> {
        self.per_dim.checked_pow(self.dims() as u32)
    }

    /// Slice index of value `v` along dimension `d` (clamped into range).
    #[inline]
    pub fn slot(&self, d: usize, v: f64) -> usize {
        (((v - self.lo[d]) / self.width[d]) as usize).min(self.per_dim - 1)
    }

    /// Linear cell index of a point (row-major, dimension 0 most
    /// significant — matches the row cut's bucketing).
    #[inline]
    pub fn linear_of(&self, p: &[f64]) -> usize {
        let top = self.per_dim - 1;
        (p.iter().zip(&self.lo).zip(&self.width)).fold(0, |linear, ((&v, &lo), &width)| {
            linear * self.per_dim + (((v - lo) / width) as usize).min(top)
        })
    }

    /// Slice index along dimension `d` of the cell with linear index
    /// `linear`.
    pub fn slot_of_linear(&self, linear: usize, d: usize) -> usize {
        let mut rest = linear;
        let mut slot = 0;
        for dim in 0..self.dims() {
            slot = rest / self.per_dim.pow((self.dims() - 1 - dim) as u32);
            rest %= self.per_dim.pow((self.dims() - 1 - dim) as u32);
            if dim == d {
                return slot;
            }
        }
        slot
    }

    /// Geometric bounds of the cell with linear index `linear`
    /// (`[slice_lo, slice_hi]` per dimension).
    pub fn slice_bounds(&self, linear: usize) -> (Vec<f64>, Vec<f64>) {
        let dims = self.dims();
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        for d in 0..dims {
            let slot = self.slot_of_linear(linear, d) as f64;
            lo.push(self.lo[d] + slot * self.width[d]);
            hi.push(self.lo[d] + (slot + 1.0) * self.width[d]);
        }
        (lo, hi)
    }

    /// Upper geometric bound of slice `slot` along dimension `d`.
    #[inline]
    pub fn slice_hi(&self, d: usize, slot: usize) -> f64 {
        self.lo[d] + (slot as f64 + 1.0) * self.width[d]
    }
}

/// Most cells a grid built from rows ([`InputGrid::build`]) may have: its
/// per-cell counters are a dense array. A finer grid would also make the
/// look-ahead's partition-pair enumeration infeasible.
pub const INPUT_CELL_BUDGET: usize = 1 << 16;

/// Slices per dimension that an input grid cuts a `dims`-dimensional
/// source into when asked for `per_dim`: the largest `s ≤ per_dim` with
/// `s^dims ≤` [`INPUT_CELL_BUDGET`] (65 536 / 256 / 40 / 16 / 9 / 6 / 4 / 4
/// for d = 1…8).
pub fn capped_slices(per_dim: usize, dims: usize) -> usize {
    let fits = |s: usize| {
        s.checked_pow(dims as u32)
            .is_some_and(|cells| cells <= INPUT_CELL_BUDGET)
    };
    let root = (INPUT_CELL_BUDGET as f64).powf(1.0 / dims.max(1) as f64) as usize;
    let mut slices = per_dim.min(root + 1);
    while !fits(slices) {
        slices -= 1;
    }
    slices
}

/// The row cut of one source at one slice count: the rows of each
/// non-empty cell of its data-bounds grid and each such cell's tight
/// `lo`/`hi`. It reads the attributes only — no join key, no query — so a
/// registered table keeps its cuts ([`CutMemo`]) and every query over it
/// runs only [`InputGrid::sign`].
///
/// Held flat: 4 bytes per row, plus per partition one offset and `2·dims`
/// bounds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowCut {
    dims: usize,
    /// The effective slices per dimension ([`capped_slices`]).
    slices: usize,
    /// Each partition's rows, ascending, partitions in ascending linear
    /// cell index.
    rows: Vec<u32>,
    /// `len() + 1` offsets into `rows`.
    starts: Vec<u32>,
    /// Per partition, its `lo` then its `hi`.
    bounds: Vec<f64>,
}

impl RowCut {
    /// Cuts `attrs` into [`capped_slices`]`(per_dim, dims)` slices per
    /// dimension over their bounding box.
    ///
    /// A counting sort: one pass finds each row's cell and counts rows per
    /// cell in a dense array, a second places every row, in ascending row
    /// order, at its partition's next slot, folding it into the
    /// partition's bounds. Partitions are the non-empty cells in ascending
    /// linear index.
    ///
    /// # Panics
    /// Panics if `per_dim` is 0.
    pub(crate) fn new(attrs: &PointStore, per_dim: usize) -> Self {
        assert!(per_dim > 0, "per_dim must be positive");
        let (dims, n) = (attrs.dims(), attrs.len());
        let slices = capped_slices(per_dim, dims);
        let Some((lo, hi)) = attrs.bounds() else {
            return Self {
                dims,
                slices,
                rows: Vec::new(),
                starts: vec![0],
                bounds: Vec::new(),
            };
        };
        let geo = GridGeometry::from_bounds(&lo, &hi, slices);
        let cells = geo.cell_count().expect("a capped grid's cell count fits");

        let mut cell_of = Vec::with_capacity(n);
        let mut counts = vec![0u32; cells];
        for p in attrs.iter() {
            let cell = geo.linear_of(p);
            counts[cell] += 1;
            cell_of.push(cell as u32);
        }
        // Each non-empty cell opens a partition; from here on `counts` maps
        // a cell to its partition id.
        let mut starts = vec![0u32];
        for count in &mut counts {
            if *count > 0 {
                let id = starts.len() as u32 - 1;
                starts.push(starts[id as usize] + *count);
                *count = id;
            }
        }
        // The offsets live as long as the table: no growth slack.
        starts.shrink_to_fit();
        let width = 2 * dims;
        let mut next = starts[..starts.len() - 1].to_vec();
        let mut rows = vec![0u32; n];
        let mut bounds = vec![0.0; next.len() * width];
        for (row, &cell) in cell_of.iter().enumerate() {
            let part = counts[cell as usize] as usize;
            let (lo, hi) = bounds[part * width..(part + 1) * width].split_at_mut(dims);
            let values = attrs.point(row);
            if next[part] == starts[part] {
                lo.copy_from_slice(values);
                hi.copy_from_slice(values);
            }
            for (d, &v) in values.iter().enumerate() {
                lo[d] = lo[d].min(v);
                hi[d] = hi[d].max(v);
            }
            rows[next[part] as usize] = row as u32;
            next[part] += 1;
        }
        Self {
            dims,
            slices,
            rows,
            starts,
            bounds,
        }
    }

    /// Number of partitions (non-empty cells).
    #[inline]
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Partition `part`'s rows, ascending.
    #[inline]
    fn rows_of(&self, part: usize) -> &[u32] {
        &self.rows[self.starts[part] as usize..self.starts[part + 1] as usize]
    }

    /// Partition `part`'s per-dimension lower bounds.
    #[inline]
    fn lo(&self, part: usize) -> &[f64] {
        let at = part * 2 * self.dims;
        &self.bounds[at..at + self.dims]
    }

    /// Partition `part`'s per-dimension upper bounds.
    #[inline]
    fn hi(&self, part: usize) -> &[f64] {
        let at = (part * 2 + 1) * self.dims;
        &self.bounds[at..at + self.dims]
    }

    /// Heap bytes the cut holds.
    fn heap_bytes(&self) -> usize {
        4 * (self.rows.capacity() + self.starts.capacity()) + 8 * self.bounds.capacity()
    }
}

/// The row cuts of one table, one per effective slice count, each cut the
/// first time a query asks for it and shared by every later one.
///
/// A memo belongs to one set of rows that never changes: it lives beside a
/// catalog registration's data, which the catalog never mutates, and
/// replacing the table drops it. Two queries racing a cold fill may both
/// cut; they cut identical data, and the first one stored is kept.
#[derive(Debug, Default)]
pub struct CutMemo {
    cuts: Mutex<Vec<Arc<RowCut>>>,
}

impl CutMemo {
    /// The cut of `attrs` — the memo's rows — at `per_dim` slices per
    /// dimension: the kept one, or a fresh [`RowCut::new`], kept.
    ///
    /// # Panics
    /// Panics if a kept cut has another row count or dimensionality than
    /// `attrs`: the memo is not the one of these rows. Debug builds also
    /// check that a kept cut equals a fresh one.
    pub(crate) fn cut(&self, attrs: &PointStore, per_dim: usize) -> Arc<RowCut> {
        let slices = capped_slices(per_dim, attrs.dims());
        let kept = self.lock().iter().find(|c| c.slices == slices).cloned();
        let cut = kept.unwrap_or_else(|| {
            let fresh = Arc::new(RowCut::new(attrs, per_dim));
            let mut cuts = self.lock();
            // A query racing this one to the cold fill may have kept its
            // cut meanwhile; both cut the same rows.
            match cuts.iter().find(|c| c.slices == slices) {
                Some(first) => Arc::clone(first),
                None => {
                    cuts.push(Arc::clone(&fresh));
                    fresh
                }
            }
        });
        assert!(
            cut.rows.len() == attrs.len() && cut.dims == attrs.dims(),
            "a row-cut memo asked for other rows than its own"
        );
        debug_assert_eq!(*cut, RowCut::new(attrs, per_dim), "a stale row cut");
        cut
    }

    /// Heap bytes the kept cuts hold.
    pub fn heap_bytes(&self) -> usize {
        self.lock().iter().map(|c| c.heap_bytes()).sum()
    }

    /// The kept cuts. A panic while the lock is held cannot leave the list
    /// half updated (its one update is a push), so a poisoned lock is
    /// taken as it is.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<RowCut>>> {
        self.cuts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One input partition (`I^R_a` in the paper's notation).
///
/// A grid built from rows holds only non-empty partitions with tight
/// bounds; a declared grid holds every cell, with its slice bounds, no
/// rows yet, and [`JoinSignature::Unknown`].
#[derive(Debug, Clone)]
pub struct InputPartition {
    /// Dense partition id within its grid.
    pub id: u32,
    /// Row indices of member tuples in the source (empty in a declared
    /// grid).
    pub tuples: Vec<u32>,
    /// Per-dimension lower bounds of the members.
    pub lo: Vec<f64>,
    /// Per-dimension upper bounds of the members.
    pub hi: Vec<f64>,
    /// Join-value signature of the members.
    pub signature: JoinSignature,
}

impl InputPartition {
    /// Number of member tuples (`n^R_a` in Equation 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True for a partition without member rows: never in a grid built
    /// from rows, always in a declared one.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The grid over one input source: its partitions.
#[derive(Debug, Clone)]
pub struct InputGrid {
    partitions: Vec<InputPartition>,
}

impl InputGrid {
    /// Partitions `source` into `per_dim` slices per attribute dimension —
    /// at most [`capped_slices`]`(per_dim, dims)`, so the grid has no more
    /// than [`INPUT_CELL_BUDGET`] cells: the row cut of its attributes,
    /// then the signature pass over its join keys.
    ///
    /// `join_domain` is the exclusive upper bound of join-key values
    /// (`max key + 1`), used to size exact signatures.
    pub fn build(source: &SourceView<'_>, per_dim: usize, join_domain: usize) -> Self {
        Self::sign(
            &RowCut::new(source.attrs(), per_dim),
            source.join_keys(),
            join_domain,
        )
    }

    /// The grid of `cut` over the rows' join keys (`keys[row]`, dense,
    /// below `join_domain`): one partition per partition of the cut, with
    /// its rows and bounds, and the signature of its rows' keys, folded in
    /// cut order. This pass is all a query pays for a table whose cut it
    /// finds in the table's [`CutMemo`].
    ///
    /// # Panics
    /// Panics if `keys` does not hold one key per row of the cut.
    pub(crate) fn sign(cut: &RowCut, keys: &[u32], join_domain: usize) -> Self {
        assert_eq!(keys.len(), cut.rows.len(), "one join key per cut row");
        let partitions = (0..cut.len())
            .map(|part| {
                let tuples = cut.rows_of(part).to_vec();
                let mut signature = JoinSignature::empty(join_domain);
                for &row in &tuples {
                    signature.insert(keys[row as usize]);
                }
                InputPartition {
                    id: part as u32,
                    tuples,
                    lo: cut.lo(part).to_vec(),
                    hi: cut.hi(part).to_vec(),
                    signature,
                }
            })
            .collect();
        Self { partitions }
    }

    /// Today's one-pass build, kept as the reference the split
    /// ([`RowCut::new`] + [`sign`](Self::sign)) is checked against.
    #[cfg(test)]
    fn build_in_one_pass(source: &SourceView<'_>, per_dim: usize, join_domain: usize) -> Self {
        assert!(per_dim > 0, "per_dim must be positive");
        let n = source.len();
        if n == 0 {
            return Self {
                partitions: Vec::new(),
            };
        }
        let dims = source.dims();
        let (lo, hi) = source
            .attrs()
            .bounds()
            .expect("non-empty source has bounds");
        let geo = GridGeometry::from_bounds(&lo, &hi, capped_slices(per_dim, dims));
        let cells = geo.cell_count().expect("a capped grid's cell count fits");

        let mut cell_of = Vec::with_capacity(n);
        let mut counts = vec![0u32; cells];
        for p in source.attrs().iter() {
            let cell = geo.linear_of(p);
            counts[cell] += 1;
            cell_of.push(cell as u32);
        }
        let mut partitions = Vec::new();
        for count in &mut counts {
            if *count > 0 {
                let id = partitions.len() as u32;
                partitions.push(InputPartition {
                    id,
                    tuples: Vec::with_capacity(*count as usize),
                    lo: Vec::new(),
                    hi: Vec::new(),
                    signature: JoinSignature::empty(join_domain),
                });
                *count = id;
            }
        }
        for (row, &cell) in cell_of.iter().enumerate() {
            let part = &mut partitions[counts[cell as usize] as usize];
            let attrs = source.attrs_of(row);
            if part.tuples.is_empty() {
                part.lo = attrs.to_vec();
                part.hi = attrs.to_vec();
            }
            for (d, &v) in attrs.iter().enumerate() {
                part.lo[d] = part.lo[d].min(v);
                part.hi[d] = part.hi[d].max(v);
            }
            part.tuples.push(row as u32);
            part.signature.insert(source.join_key_of(row));
        }
        Self { partitions }
    }

    /// A stream's grid over declared bounds: one partition per cell of
    /// `geo`, id = linear cell index, bounded by the cell's slice. Neither
    /// rows nor join values are known before arrival, so every partition
    /// is empty and carries [`JoinSignature::Unknown`] — every pair of
    /// cells becomes a region the look-ahead can neither reject nor prune.
    ///
    /// # Panics
    /// Panics if `geo`'s cell count overflows `usize`.
    pub fn declared(geo: &GridGeometry) -> Self {
        let cells = geo.cell_count().expect("declared cell count fits");
        let partitions = (0..cells)
            .map(|cell| {
                let (lo, hi) = geo.slice_bounds(cell);
                InputPartition {
                    id: cell as u32,
                    tuples: Vec::new(),
                    lo,
                    hi,
                    signature: JoinSignature::Unknown,
                }
            })
            .collect();
        Self { partitions }
    }

    /// The partitions, ordered by grid position.
    #[inline]
    pub fn partitions(&self) -> &[InputPartition] {
        &self.partitions
    }

    /// Number of partitions.
    #[inline]
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when the source was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Total tuples across partitions (equals the source cardinality).
    pub fn total_tuples(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }
}

/// One input partition prepared for the tuple-level join — the join-side
/// type the batch pipeline (built on first use, see [`JoinSource`]) and
/// streaming ingestion (built when a cell seals) share.
///
/// Rows are held twice. In *partition order* — the order a region probes
/// them in, which fixes the emission order — and *grouped by join key*
/// (stable, CSR offsets over ascending keys), which is what the other side
/// of a region expands. Both orders carry the id a result reports for the
/// row and a row-major slab of [`width`](Self::width) values per row; a row
/// in partition order also carries the index of its key group, so a region
/// that has matched the two sides' key tables once (one merge) reaches a
/// probe row's partner group without a key lookup:
///
/// * separable maps ([`MapSet::separable_at`]): the row's *oriented*
///   components, one per output dimension, so a mapped, oriented join
///   result is `probe row + build row` — exactly, because
///   `-(a + b) == (-a) + (-b)` in IEEE arithmetic;
/// * otherwise the row's raw attributes, for the per-match `eval`.
///
/// A component side whose every value is finite is additionally *bounded*:
/// it records each key group's component-wise minimum and the partition's
/// component-wise maximum. IEEE addition is monotone, so the same
/// `add_rows` applied to two such bounds is an exact corner of the
/// *rounded* join results they cover — what the tuple-level join's key-group
/// look-ahead tests instead of expanding a group. One NaN or ±∞ component
/// leaves the side unbounded, and a region over it is never pruned:
/// NaN-as-tie dominance is not transitive, and `−∞ + ∞` can hide a NaN row
/// behind a finite corner.
#[derive(Debug)]
pub struct JoinSide {
    components: bool,
    width: usize,
    ids: Vec<u32>,
    /// Per row in partition order, the index of its key group.
    row_group: Vec<u32>,
    slab: Vec<f64>,
    group_keys: Vec<u32>,
    /// `group_keys.len() + 1` offsets into `group_ids` / `group_slab` rows.
    group_starts: Vec<u32>,
    group_ids: Vec<u32>,
    group_slab: Vec<f64>,
    bounds: Option<SideBounds>,
}

/// The corners of a bounded [`JoinSide`] ([`JoinSide::bounds`]).
#[derive(Debug)]
pub struct SideBounds {
    width: usize,
    group_min: Vec<f64>,
    max: Vec<f64>,
}

impl SideBounds {
    /// Component-wise minimum of key group `g`'s slab rows.
    #[inline]
    pub fn group_min(&self, g: usize) -> &[f64] {
        &self.group_min[g * self.width..(g + 1) * self.width]
    }

    /// Component-wise maximum of the partition's slab rows.
    #[inline]
    pub fn max(&self) -> &[f64] {
        &self.max
    }
}

impl JoinSide {
    /// Prepares the partition holding `rows` of `source` (in partition
    /// order); `ids[i]` is the id results report for `rows[i]`. `columnar`
    /// is the query-wide [`MapSet::separable_at`] verdict.
    ///
    /// # Panics
    /// Panics if `columnar` is set and a map answers `None` for a row — it
    /// broke the all-or-nothing clause of
    /// [`MappingFunction::r_component`](crate::mapping::MappingFunction::r_component).
    pub fn build(
        maps: &MapSet,
        side: Side,
        columnar: bool,
        source: &SourceView<'_>,
        rows: &[u32],
        ids: Vec<u32>,
    ) -> Self {
        assert_eq!(rows.len(), ids.len(), "one id per row");
        let n = rows.len();
        let width = if columnar {
            maps.out_dims()
        } else {
            source.dims()
        };
        let orders = maps.preference().orders();
        let mut keys = Vec::with_capacity(n);
        let mut slab = Vec::with_capacity(n * width);
        let mut raw = Vec::with_capacity(width);
        let mut max = vec![f64::NEG_INFINITY; width];
        let mut bounded = columnar && n > 0;
        for &row in rows {
            let attrs = source.attrs_of(row as usize);
            keys.push(source.join_key_of(row as usize));
            if columnar {
                let separable = match side {
                    Side::R => maps.r_components(attrs, &mut raw),
                    Side::T => maps.t_components(attrs, &mut raw),
                };
                assert!(
                    separable,
                    "a mapping function is separable for some rows only"
                );
                for ((&v, o), m) in raw.iter().zip(orders).zip(&mut max) {
                    let v = o.orient(v);
                    bounded &= v.is_finite();
                    *m = m.max(v);
                    slab.push(v);
                }
            } else {
                slab.extend_from_slice(attrs);
            }
        }
        // `(key, position)` packed into one integer: an unstable sort of
        // these is the stable grouping by key, without indirect compares.
        let mut order: Vec<u64> = (keys.iter().zip(0u64..))
            .map(|(&key, at)| u64::from(key) << 32 | at)
            .collect();
        order.sort_unstable();
        // The keys are in `order` now; their slots take the group indices.
        let mut row_group = keys;
        let mut group_keys = Vec::new();
        let mut group_starts = Vec::new();
        let mut group_ids = Vec::with_capacity(n);
        let mut group_slab = Vec::with_capacity(n * width);
        let mut group_min = Vec::new();
        for (at, &packed) in order.iter().enumerate() {
            let (key, i) = ((packed >> 32) as u32, (packed & 0xFFFF_FFFF) as usize);
            let row = &slab[i * width..(i + 1) * width];
            let opens_group = group_keys.last() != Some(&key);
            if opens_group {
                group_keys.push(key);
                group_starts.push(at as u32);
            }
            row_group[i] = (group_keys.len() - 1) as u32;
            group_ids.push(ids[i]);
            group_slab.extend_from_slice(row);
            if !bounded {
                continue;
            }
            if opens_group {
                group_min.extend_from_slice(row);
            } else {
                let least = group_min.len() - width;
                for (m, &v) in group_min[least..].iter_mut().zip(row) {
                    *m = m.min(v);
                }
            }
        }
        group_starts.push(n as u32);
        Self {
            components: columnar,
            width,
            ids,
            row_group,
            slab,
            group_keys,
            group_starts,
            group_ids,
            group_slab,
            bounds: bounded.then_some(SideBounds {
                width,
                group_min,
                max,
            }),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for a partition without rows (a streaming cell sealed empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Values per slab row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the slabs hold oriented map components (`false`: raw
    /// attributes).
    #[inline]
    pub fn holds_components(&self) -> bool {
        self.components
    }

    /// Row `i` in partition order: `(result id, key group index, slab
    /// row)`.
    #[inline]
    pub fn row(&self, i: usize) -> (u32, u32, &[f64]) {
        let values = &self.slab[i * self.width..(i + 1) * self.width];
        (self.ids[i], self.row_group[i], values)
    }

    /// The distinct join keys, ascending — one per key group, in group
    /// order.
    #[inline]
    pub fn group_keys(&self) -> &[u32] {
        &self.group_keys
    }

    /// The rows of key group `g`, in partition order: their result ids and
    /// their slab rows (row-major).
    #[inline]
    pub fn group(&self, g: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (
            self.group_starts[g] as usize,
            self.group_starts[g + 1] as usize,
        );
        (
            &self.group_ids[lo..hi],
            &self.group_slab[lo * self.width..hi * self.width],
        )
    }

    /// The side's corners — `None` unless it is bounded (a non-empty
    /// component side whose every value is finite; see the type docs).
    #[inline]
    pub fn bounds(&self) -> Option<&SideBounds> {
        self.bounds.as_ref()
    }
}

/// `out[row] = base + rows[row]` over row-major rows of `base.len()`
/// values: how two columnar [`JoinSide`] rows become a mapped, oriented
/// join result. The common widths are instantiated with a constant
/// dimension so the inner loop unrolls and vectorizes.
pub(crate) fn add_rows(base: &[f64], rows: &[f64], out: &mut [f64]) {
    fn fixed<const D: usize>(base: &[f64], rows: &[f64], out: &mut [f64]) {
        let base: [f64; D] = base.try_into().expect("dispatched on base.len()");
        for (o, row) in out.chunks_exact_mut(D).zip(rows.chunks_exact(D)) {
            for j in 0..D {
                o[j] = base[j] + row[j];
            }
        }
    }
    debug_assert_eq!(rows.len(), out.len());
    match base.len() {
        1 => fixed::<1>(base, rows, out),
        2 => fixed::<2>(base, rows, out),
        3 => fixed::<3>(base, rows, out),
        4 => fixed::<4>(base, rows, out),
        d => {
            for (o, row) in out.chunks_exact_mut(d).zip(rows.chunks_exact(d)) {
                for ((o, b), v) in o.iter_mut().zip(base).zip(row) {
                    *o = b + v;
                }
            }
        }
    }
}

/// One source of a query as the tuple-level phase uses it: one
/// [`JoinSide`] slot per input partition. A closed relation fills a slot
/// from its filtered rows the first time a region joins the partition —
/// once per query, never per region, and never before the first result for
/// partitions the first region does not touch. A stream has no rows to
/// fill from: ingestion sets a cell's slot when the cell seals.
#[derive(Debug)]
pub struct JoinSource {
    side: Side,
    /// The filtered rows (`attrs` ∥ dense `keys`) and their grid; `None`
    /// for a stream.
    rows: Option<(PointStore, Vec<u32>, InputGrid)>,
    slots: Vec<OnceLock<JoinSide>>,
}

impl JoinSource {
    /// Bundles one side's filtered rows (`attrs` ∥ `keys`, dense join keys)
    /// with the grid built over them.
    pub(crate) fn new(side: Side, attrs: PointStore, keys: Vec<u32>, grid: InputGrid) -> Self {
        let slots = grid.partitions().iter().map(|_| OnceLock::new()).collect();
        Self {
            side,
            rows: Some((attrs, keys, grid)),
            slots,
        }
    }

    /// A stream's side over `cells` declared cells, every slot unset.
    pub(crate) fn streamed(side: Side, cells: usize) -> Self {
        Self {
            side,
            rows: None,
            slots: (0..cells).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Whether the slots are set from outside as cells seal (a stream).
    pub(crate) fn is_streamed(&self) -> bool {
        self.rows.is_none()
    }

    /// Whether partition `part`'s slot is set.
    pub(crate) fn is_set(&self, part: usize) -> bool {
        self.slots[part].get().is_some()
    }

    /// Number of set slots.
    pub(crate) fn set_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Sets partition `part`'s slot: a stream cell sealed.
    ///
    /// # Panics
    /// Panics if the slot is already set.
    pub(crate) fn set(&self, part: usize, prepared: JoinSide) {
        assert!(
            self.slots[part].set(prepared).is_ok(),
            "a cell sealed twice"
        );
    }

    /// The prepared partition `part`, and how many rows this call grouped
    /// (its length if it filled the slot, else 0).
    ///
    /// # Panics
    /// Panics if the slot of a stream's partition is unset: a region must
    /// not be computed before both of its cells seal.
    pub(crate) fn side(&self, part: u32, maps: &MapSet, columnar: bool) -> (&JoinSide, u64) {
        let mut built = 0;
        let side = self.slots[part as usize].get_or_init(|| {
            let Some((attrs, keys, grid)) = &self.rows else {
                panic!("region popped before its {:?} cell sealed", self.side);
            };
            let rows = &grid.partitions()[part as usize].tuples;
            built = rows.len() as u64;
            let view = SourceView::checked(attrs, keys);
            JoinSide::build(maps, self.side, columnar, &view, rows, rows.clone())
        });
        (side, built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceData;

    fn source(rows: &[(&[f64], u32)]) -> SourceData {
        SourceData::from_rows(rows[0].0.len(), rows)
    }

    #[test]
    fn every_tuple_lands_in_exactly_one_partition() {
        let s = source(&[
            (&[1.0, 1.0], 0),
            (&[99.0, 99.0], 1),
            (&[50.0, 50.0], 2),
            (&[1.0, 99.0], 3),
            (&[99.0, 1.0], 4),
        ]);
        let g = InputGrid::build(&s.view(), 2, 5);
        assert_eq!(g.total_tuples(), 5);
        let mut seen: Vec<u32> = g
            .partitions()
            .iter()
            .flat_map(|p| p.tuples.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounds_are_tight() {
        let s = source(&[(&[10.0, 20.0], 0), (&[12.0, 22.0], 0)]);
        let g = InputGrid::build(&s.view(), 1, 1);
        assert_eq!(g.len(), 1);
        let p = &g.partitions()[0];
        assert_eq!(p.lo, vec![10.0, 20.0]);
        assert_eq!(p.hi, vec![12.0, 22.0]);
    }

    #[test]
    fn members_stay_inside_bounds() {
        let s = source(&[
            (&[1.0, 5.0], 0),
            (&[2.0, 6.0], 0),
            (&[80.0, 90.0], 1),
            (&[85.0, 95.0], 1),
            (&[40.0, 45.0], 2),
        ]);
        let g = InputGrid::build(&s.view(), 3, 3);
        for p in g.partitions() {
            for &row in &p.tuples {
                let attrs = s.view().attrs_of(row as usize);
                for (d, &a) in attrs.iter().enumerate() {
                    assert!(p.lo[d] <= a && a <= p.hi[d]);
                }
            }
        }
    }

    #[test]
    fn signatures_reflect_membership() {
        let s = source(&[(&[1.0], 7), (&[2.0], 9), (&[99.0], 3)]);
        let g = InputGrid::build(&s.view(), 2, 10);
        let low = g
            .partitions()
            .iter()
            .find(|p| p.lo[0] < 50.0)
            .expect("low partition exists");
        let mut want = JoinSignature::empty(10);
        want.insert(7);
        want.insert(9);
        assert_eq!(low.signature, want);
    }

    #[test]
    fn constant_dimension_collapses() {
        let s = source(&[(&[5.0, 1.0], 0), (&[5.0, 9.0], 0)]);
        let g = InputGrid::build(&s.view(), 4, 1);
        // dim 0 constant → one slice; dim 1 splits.
        assert!(g.len() >= 2);
        assert_eq!(g.total_tuples(), 2);
    }

    #[test]
    fn empty_source_empty_grid() {
        let s = SourceData::new(2);
        let g = InputGrid::build(&s.view(), 3, 1);
        assert!(g.is_empty());
    }

    #[test]
    fn max_value_tuples_clamp_into_top_slice() {
        let s = source(&[(&[0.0], 0), (&[100.0], 0)]);
        let g = InputGrid::build(&s.view(), 4, 1);
        assert_eq!(g.total_tuples(), 2);
    }

    #[test]
    fn geometry_slices_round_trip() {
        let geo = GridGeometry::from_bounds(&[0.0, 10.0], &[100.0, 20.0], 4);
        assert_eq!(geo.dims(), 2);
        assert_eq!(geo.per_dim(), 4);
        assert_eq!(geo.cell_count(), Some(16));
        // Point (30, 17): slots (1, 2) → linear 1*4 + 2 = 6.
        let linear = geo.linear_of(&[30.0, 17.0]);
        assert_eq!(linear, 6);
        assert_eq!(geo.slot_of_linear(linear, 0), 1);
        assert_eq!(geo.slot_of_linear(linear, 1), 2);
        let (lo, hi) = geo.slice_bounds(linear);
        assert!(lo[0] <= 30.0 && 30.0 <= hi[0]);
        assert!(lo[1] <= 17.0 && 17.0 <= hi[1]);
        assert_eq!(geo.slice_hi(0, 1), 50.0);
    }

    #[test]
    fn geometry_clamps_and_collapses_degenerate_dims() {
        let geo = GridGeometry::from_bounds(&[0.0, 5.0], &[10.0, 5.0], 3);
        // Values at and past the upper bound stay in the top slice.
        assert_eq!(geo.slot(0, 10.0), 2);
        assert_eq!(geo.slot(0, 999.0), 2);
        // Degenerate dim: everything in slot 0 (width 1 fallback).
        assert_eq!(geo.slot(1, 5.0), 0);
    }

    #[test]
    fn geometry_matches_input_grid_bucketing() {
        // The refactored InputGrid::build must bucket exactly as before:
        // every member tuple of a partition shares the partition's linear
        // cell under the data-bounds geometry.
        let s = source(&[
            (&[1.0, 5.0], 0),
            (&[2.0, 6.0], 0),
            (&[80.0, 90.0], 1),
            (&[40.0, 45.0], 2),
        ]);
        let (lo, hi) = s.view().attrs().bounds().unwrap();
        let geo = GridGeometry::from_bounds(&lo, &hi, 3);
        let g = InputGrid::build(&s.view(), 3, 3);
        for p in g.partitions() {
            let cell = geo.linear_of(s.view().attrs_of(p.tuples[0] as usize));
            for &row in &p.tuples {
                assert_eq!(geo.linear_of(s.view().attrs_of(row as usize)), cell);
            }
        }
    }

    /// The bound the tuple-level look-ahead rests on, as `f64`s out of the
    /// same `add_rows` that produces the rows: over random bounded sides —
    /// subnormals, ±0, magnitudes whose sums overflow to ±∞, duplicate keys,
    /// single-row groups, one dimension flipped by `HIGHEST` — every row
    /// of every expansion lies between its corners, and the key's corner
    /// below the row's. Each probe row's group index names the group that
    /// holds it, under its join key.
    #[test]
    fn corners_bound_every_expanded_row() {
        use progxe_skyline::{Order, Preference};
        let mut state = 0xC0A7_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
        let value = |next: &mut dyn FnMut(u64) -> u64| {
            let magnitude = match next(8) {
                0 => 0.0,
                1 => f64::MIN_POSITIVE / 4.0,
                2 => f64::MAX,
                3 => f64::MAX / 2.0,
                4 => 1e-300,
                _ => next(1000) as f64 / 7.0,
            };
            if next(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        };
        let (mut expanded, mut overflowed) = (0usize, false);
        for round in 0..200 {
            let mut relation = |n: u64| {
                let mut src = SourceData::new(2);
                for _ in 0..1 + next(n) {
                    let row = [value(&mut next), value(&mut next)];
                    src.push(&row, next(5) as u32);
                }
                src
            };
            let (r, t) = (relation(12), relation(12));
            let side = |src: &SourceData, side| {
                let rows: Vec<u32> = (0..src.len() as u32).collect();
                JoinSide::build(&maps, side, true, &src.view(), &rows, rows.clone())
            };
            let (probe, build) = (side(&r, Side::R), side(&t, Side::T));
            let (pb, bb) = (probe.bounds().unwrap(), build.bounds().unwrap());
            let mut upper = [0.0; 2];
            add_rows(pb.max(), bb.max(), &mut upper);
            for i in 0..probe.len() {
                let (id, pg, probe_row) = probe.row(i);
                let key = probe.group_keys()[pg as usize];
                assert_eq!(
                    key,
                    r.view().join_key_of(i),
                    "round {round}: row {i}'s group"
                );
                assert!(probe.group(pg as usize).0.contains(&id));
                let Ok(g) = build.group_keys().binary_search(&key) else {
                    continue;
                };
                let (ids, slab) = build.group(g);
                let mut rows = vec![0.0; slab.len()];
                add_rows(probe_row, slab, &mut rows);
                let (mut corner, mut key_corner) = ([0.0; 2], [0.0; 2]);
                add_rows(probe_row, bb.group_min(g), &mut corner);
                let pg = pg as usize;
                add_rows(pb.group_min(pg), bb.group_min(g), &mut key_corner);
                assert_eq!(rows.len(), ids.len() * 2);
                for row in rows.chunks_exact(2) {
                    for j in 0..2 {
                        let at = format!("round {round}, probe row {i}, dim {j}");
                        assert!(key_corner[j] <= corner[j], "{at}: key corner");
                        assert!(corner[j] <= row[j], "{at}: corner above a row");
                        assert!(row[j] <= upper[j], "{at}: row above the upper corner");
                        overflowed |= row[j].is_infinite();
                    }
                    expanded += 1;
                }
            }
        }
        assert!(expanded > 1000, "only {expanded} rows expanded");
        assert!(overflowed, "no sum overflowed");
    }

    /// A side whose components leave the finite range is unbounded. Inputs
    /// are finite, but a weighted map's components need not be:
    /// `2·r0 − 2·r1` is +∞ at (1e308, 0), −∞ at (0, 1e308) and NaN at
    /// (1e308, 1e308).
    #[test]
    fn non_finite_or_raw_sides_are_unbounded() {
        use crate::mapping::{MappingFunction, WeightedSum};
        use progxe_skyline::Preference;
        let map = WeightedSum::new(vec![2.0, -2.0], vec![1.0]);
        let maps = MapSet::new(
            vec![Box::new(map) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap();
        let side = |values: &[[f64; 2]], columnar| {
            let mut src = SourceData::new(2);
            for v in values {
                src.push(v, 0);
            }
            let rows: Vec<u32> = (0..values.len() as u32).collect();
            JoinSide::build(&maps, Side::R, columnar, &src.view(), &rows, rows.clone())
        };
        let finite = [[1.0, 0.0], [-0.0, 0.0], [f64::MAX / 4.0, 0.0]];
        assert!(side(&finite, true).bounds().is_some());
        for poison in [[1e308, 0.0], [0.0, 1e308], [1e308, 1e308]] {
            assert!(side(&[[1.0, 0.0], poison, [2.0, 0.0]], true)
                .bounds()
                .is_none());
        }
        assert!(
            side(&[[1.0, 0.0]], false).bounds().is_none(),
            "raw attributes"
        );
        assert!(side(&[], true).bounds().is_none(), "sealed empty");
    }

    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |m| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        }
    }

    /// The grid by definition: bucket every row by its cell under the
    /// capped data-bounds geometry, order buckets by linear index, fold
    /// bounds and signature over each bucket in row order.
    fn bucketed(source: &SourceView<'_>, per_dim: usize, domain: usize) -> Vec<InputPartition> {
        let Some((lo, hi)) = source.attrs().bounds() else {
            return Vec::new();
        };
        let geo = GridGeometry::from_bounds(&lo, &hi, capped_slices(per_dim, source.dims()));
        let mut buckets = std::collections::BTreeMap::<usize, Vec<u32>>::new();
        for row in 0..source.len() {
            let cell = geo.linear_of(source.attrs_of(row));
            buckets.entry(cell).or_default().push(row as u32);
        }
        (0u32..)
            .zip(buckets.into_values())
            .map(|(id, tuples)| {
                let mut lo = source.attrs_of(tuples[0] as usize).to_vec();
                let mut hi = lo.clone();
                let mut signature = JoinSignature::empty(domain);
                for &row in &tuples {
                    for (d, &v) in source.attrs_of(row as usize).iter().enumerate() {
                        lo[d] = lo[d].min(v);
                        hi[d] = hi[d].max(v);
                    }
                    signature.insert(source.join_key_of(row as usize));
                }
                InputPartition {
                    id,
                    tuples,
                    lo,
                    hi,
                    signature,
                }
            })
            .collect()
    }

    /// `InputGrid::build` against [`bucketed`], bit for bit, on random
    /// sources of d = 1…8 whose dimensions are each one of: spread values,
    /// values on slice boundaries, one constant (zero extent), or ±1e308 —
    /// with duplicate rows throughout.
    #[test]
    fn build_matches_a_bucketing_reference() {
        let mut next = lcg(0x6_12D);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cases = 0;
        for round in 0..160 {
            let dims = 1 + round % 8;
            let per_dim = [1, 2, 3, 5, 16, 300][next(6) as usize];
            let domain = 1 + next(40) as usize;
            let kinds: Vec<u64> = (0..dims).map(|_| next(4)).collect();
            let mut src = SourceData::new(dims);
            let mut row = vec![0.0; dims];
            for _ in 0..1 + next(300) {
                if src.is_empty() || next(5) != 0 {
                    for (v, &kind) in row.iter_mut().zip(&kinds) {
                        *v = match kind {
                            0 => next(100_000) as f64 / 37.0,
                            // 0…60 in whole steps: every multiple of 60 / p
                            // that is a whole number is a slice boundary.
                            1 => next(61) as f64,
                            2 => 4.25,
                            _ => [-1e308, 1e308, 0.0, -1.0][next(4) as usize],
                        };
                    }
                }
                src.push(&row, next(domain as u64) as u32);
            }
            let view = src.view();
            let got = InputGrid::build(&view, per_dim, domain);
            let want = bucketed(&view, per_dim, domain);
            let at = format!("round {round}: d = {dims}, p = {per_dim}, kinds {kinds:?}");
            assert_eq!(got.len(), want.len(), "{at}");
            for (g, w) in got.partitions().iter().zip(&want) {
                assert_eq!(g.id, w.id, "{at}");
                assert_eq!(g.tuples, w.tuples, "{at}: partition {}", w.id);
                assert_eq!(bits(&g.lo), bits(&w.lo), "{at}: partition {}", w.id);
                assert_eq!(bits(&g.hi), bits(&w.hi), "{at}: partition {}", w.id);
                assert_eq!(g.signature, w.signature, "{at}: partition {}", w.id);
            }
            cases += usize::from(want.len() > 1);
        }
        assert!(cases > 80, "only {cases} sources split at all");
    }

    /// The split — [`RowCut::new`] then [`InputGrid::sign`] — against the
    /// one-pass build it replaced, bit for bit: partitions, `lo`/`hi` bits
    /// and signature membership, on random sources of d = 1…8 (slice
    /// counts up to 300, so capped grids at every d ≥ 2) whose dimensions
    /// are each one of: spread values, values on slice boundaries, one
    /// constant (zero extent), or ±0.0 — duplicate rows throughout. A cut
    /// shared through a [`CutMemo`] signs the same grids under other join
    /// keys.
    #[test]
    fn split_matches_the_one_pass_build() {
        let mut next = lcg(0x5_911);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut capped, mut signed_zeros) = (0, 0);
        for round in 0..240 {
            let dims = 1 + round % 8;
            let per_dim = [1, 2, 3, 7, 16, 41, 300][next(7) as usize];
            let domain = 1 + next(40) as usize;
            let kinds: Vec<u64> = (0..dims).map(|_| next(4)).collect();
            let mut src = SourceData::new(dims);
            let mut row = vec![0.0; dims];
            for _ in 0..1 + next(400) {
                if src.is_empty() || next(4) != 0 {
                    for (v, &kind) in row.iter_mut().zip(&kinds) {
                        *v = match kind {
                            0 => next(100_000) as f64 / 37.0 - 1000.0,
                            // -30…30 in whole steps: boundaries at every
                            // whole multiple of 60 / p.
                            1 => next(61) as f64 - 30.0,
                            2 => -7.5,
                            _ => [0.0, -0.0, 1.0, -1.0][next(4) as usize],
                        };
                    }
                }
                src.push(&row, next(domain as u64) as u32);
            }
            let view = src.view();
            let want = InputGrid::build_in_one_pass(&view, per_dim, domain);
            let memo = CutMemo::default();
            let cut = memo.cut(view.attrs(), per_dim);
            let at = format!("round {round}: d = {dims}, p = {per_dim}, kinds {kinds:?}");
            assert_eq!(cut.rows.len(), src.len(), "{at}");
            capped += usize::from(cut.slices < per_dim);
            signed_zeros += usize::from(kinds.contains(&3));
            let got = InputGrid::sign(&cut, view.join_keys(), domain);
            assert_eq!(got.len(), want.len(), "{at}");
            for (g, w) in got.partitions().iter().zip(want.partitions()) {
                assert_eq!(g.id, w.id, "{at}");
                assert_eq!(g.tuples, w.tuples, "{at}: partition {}", w.id);
                assert_eq!(bits(&g.lo), bits(&w.lo), "{at}: partition {}", w.id);
                assert_eq!(bits(&g.hi), bits(&w.hi), "{at}: partition {}", w.id);
                assert_eq!(g.signature, w.signature, "{at}: partition {}", w.id);
            }
            let plain = InputGrid::build(&view, per_dim, domain);
            assert_eq!(plain.len(), want.len(), "{at}: build");
            // The kept cut under another key column: the grid the one-pass
            // build makes of those keys.
            let keys: Vec<u32> = (0..src.len()).map(|_| next(3) as u32).collect();
            let rekeyed = SourceView::new(&src.attrs, &keys).unwrap();
            assert!(Arc::ptr_eq(&cut, &memo.cut(view.attrs(), per_dim)), "{at}");
            let got = InputGrid::sign(&memo.cut(view.attrs(), per_dim), &keys, 3);
            let want = InputGrid::build_in_one_pass(&rekeyed, per_dim, 3);
            for (g, w) in got.partitions().iter().zip(want.partitions()) {
                assert_eq!(g.signature, w.signature, "{at}: rekeyed {}", w.id);
            }
        }
        assert!(capped > 40, "only {capped} capped grids");
        assert!(signed_zeros > 60, "only {signed_zeros} sources with ±0.0");
    }

    /// A memo keeps one cut per *effective* slice count — slice counts the
    /// cap maps to one count share it — and holds 4 bytes per row per cut
    /// plus its partitions' offsets and bounds.
    #[test]
    fn a_memo_keeps_one_cut_per_effective_slice_count() {
        let mut next = lcg(0xC07);
        let mut src = SourceData::new(4);
        for _ in 0..2_000 {
            let row: Vec<f64> = (0..4).map(|_| next(1000) as f64).collect();
            src.push(&row, 0);
        }
        let memo = CutMemo::default();
        assert_eq!(memo.heap_bytes(), 0);
        let two = memo.cut(&src.attrs, 2);
        assert_eq!(two.slices, 2);
        assert_eq!(memo.heap_bytes(), two.heap_bytes());
        // 16 is the cap at d = 4: 16, 17 and 300 are one cut.
        let capped = memo.cut(&src.attrs, 16);
        assert!(Arc::ptr_eq(&capped, &memo.cut(&src.attrs, 300)));
        assert!(Arc::ptr_eq(&two, &memo.cut(&src.attrs, 2)));
        let parts = two.len() + capped.len();
        assert_eq!(
            memo.heap_bytes(),
            2 * 4 * 2_000 + 4 * (parts + 2) + 8 * 2 * 4 * parts
        );
    }

    #[test]
    #[should_panic(expected = "other rows than its own")]
    fn a_memo_refuses_other_rows() {
        let a = source(&[(&[1.0], 0), (&[2.0], 0)]);
        let b = source(&[(&[1.0], 0), (&[2.0], 0), (&[3.0], 0)]);
        let memo = CutMemo::default();
        memo.cut(&a.attrs, 2);
        memo.cut(&b.attrs, 2);
    }

    /// The slice cap: `min(p, cap_d)` slices, `cap_d` the largest count
    /// whose d-th power fits the budget — and `build` cuts that many (1 001
    /// points spread along dimension 0, every other dimension constant, so
    /// the partitions are exactly the slices along dimension 0).
    #[test]
    fn build_caps_slices_per_dim() {
        for dims in 1..=8usize {
            let power = |s: usize| s.checked_pow(dims as u32).unwrap_or(usize::MAX);
            let cap = (1..=INPUT_CELL_BUDGET)
                .take_while(|&s| power(s) <= INPUT_CELL_BUDGET)
                .last()
                .unwrap();
            assert!(power(cap) <= INPUT_CELL_BUDGET && INPUT_CELL_BUDGET < power(cap + 1));
            let mut src = SourceData::new(dims);
            let mut row = vec![0.0; dims];
            for i in 0..=1000 {
                row[0] = i as f64 / 1000.0;
                src.push(&row, 0);
            }
            for per_dim in [1, 2, 3, 16, 300] {
                let slices = per_dim.min(cap);
                assert_eq!(
                    capped_slices(per_dim, dims),
                    slices,
                    "d = {dims}, p = {per_dim}"
                );
                let g = InputGrid::build(&src.view(), per_dim, 1);
                assert_eq!(g.len(), slices, "d = {dims}, p = {per_dim}");
            }
        }
    }

    #[test]
    fn deterministic_partition_ids() {
        let s = source(&[(&[1.0], 0), (&[99.0], 1), (&[50.0], 2)]);
        let a = InputGrid::build(&s.view(), 3, 3);
        let b = InputGrid::build(&s.view(), 3, 3);
        for (pa, pb) in a.partitions().iter().zip(b.partitions()) {
            assert_eq!(pa.id, pb.id);
            assert_eq!(pa.tuples, pb.tuples);
        }
    }
}
