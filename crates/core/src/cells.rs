//! Tracked output cells and tuple-level dominance (Section III-B).
//!
//! A *tracked* cell is one the store holds a [`Cell`] for. Under every
//! dominance model a cell is materialized the first time a tuple lands in
//! it, and pre-marked against the pessimistic skyline then;
//! [`ProgDetermine`](crate::progdetermine::ProgDetermine) gives it its
//! blocker count at that point. Tuples are inserted one at a time, and
//! the store never evicts one:
//!
//! * a new tuple is rejected if its cell is dead, or if a tuple the store
//!   admitted earlier dominates it — asked of the *admitted forest*
//!   ([`CellStore::admitted`]), the rows admitted since its last publish
//!   and the admitted rows with a NaN coordinate;
//! * a released cell ([`CellStore::take_emitted`]) drops the members an
//!   admitted tuple dominates, keeping the rest in admission order. Its
//!   release proves that no tuple still to come dominates them, so the
//!   survivors are exactly the skyline of everything inserted, restricted
//!   to the cell — what a live set kept exact by eviction on every insert
//!   would hold then (Section III-B's scheme; dominance is transitive, so
//!   "an admitted tuple dominates x" and "a live tuple dominates x" agree,
//!   as in the presorted skyline that never evicts, SFS);
//! * cell-level full dominance is tracked through the *populated-cell
//!   skyline*: the set of populated cells not fully dominated by another
//!   populated cell. A cell that is fully dominated is dead — every tuple it
//!   could ever hold is dominated by any tuple of the dominator — and
//!   drops its members. A *staircase* over the populated cells answers "is
//!   this cell fully dominated" in `O(d)` instead of a skyline walk.
//!
//! The store also owns the session's one coordinate → cell index
//! ([`CellStore::find`]): a table over grid positions — every grid fits
//! [`OutputGrid::DENSE_INDEX_BUDGET`] — so a lookup is `O(d)` arithmetic.
//! The batch producers ask the admitted forest too, before expanding a
//! key group or keeping a tuple.

use crate::fdom::DominanceModel;
use crate::output_grid::{dense_position, for_each_upper_box_row, Coord, OutputGrid};
use progxe_skyline::{kernel, DominanceForest, PointStore};

/// Work counters for tuple-level processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Pairwise dominance tests between tuples.
    pub dominance_tests: u64,
    /// Tuples admitted into cells.
    pub tuples_inserted: u64,
    /// Tuples rejected because an admitted tuple dominates them.
    pub tuples_rejected_dominated: u64,
    /// Tuples rejected because their cell is dead (no comparison needed —
    /// the paper's "discarded without performing any dominance comparisons").
    /// As observed by the store: a tuple rejected upstream of it
    /// ([`crate::tuple_level`]) is not counted here, whatever its cell.
    pub tuples_rejected_dead_cell: u64,
    /// Admitted tuples that never reach emission: dropped at their cell's
    /// release because a later admitted tuple dominates them, or cleared
    /// with their cell when it died.
    pub tuples_evicted: u64,
    /// Cells killed wholesale by full dominance. As observed by the store:
    /// an unpopulated cell counts when a tuple that reached the store first
    /// found it dead ([`CellStore::cell_is_dead`] needs no such visit).
    /// Includes the pre-marked cells.
    pub cells_killed: u64,
    /// Cells pre-marked dead by the pessimistic skyline (Example 3), when
    /// the cell materializes — so only cells a tuple reached.
    pub cells_premarked_dead: u64,
    /// Pareto-optimal tuples removed from emission by the flexible-model
    /// filter (0 under the Pareto model) — the measured result-set
    /// shrinkage of a flexible skyline.
    pub tuples_fdom_filtered: u64,
    /// Pairwise tests evaluated through the batched kernels (a subset of
    /// `dominance_tests`); advances at chunk granularity on early-exit
    /// scans.
    pub dominance_pairs: u64,
    /// Vertex dot products evaluated for flexible-model projections
    /// (emission filter; 0 under Pareto).
    pub fdom_vertex_evals: u64,
    /// Cells whose members the flexible emission filter actually compared
    /// against (i.e. that survived the projection-bound prefix + guard).
    /// Bounded above by populated cells × filter calls; the slab index
    /// keeps it far below that.
    pub fdom_filter_cells_visited: u64,
}

/// One tracked output cell (`O_h` in the paper).
#[derive(Debug)]
pub struct Cell {
    coord: Coord,
    /// `(r_idx, t_idx)` of the admitted tuples, in admission order,
    /// parallel to `points`. Until the cell's release they may include
    /// tuples a later admission dominates.
    ids: Vec<(u32, u32)>,
    /// Oriented output values of the admitted tuples.
    points: PointStore,
    populated: bool,
    dead: bool,
    emitted: bool,
}

impl Cell {
    fn new(coord: Coord, dims: usize) -> Self {
        Self {
            coord,
            ids: Vec::new(),
            points: PointStore::new(dims),
            populated: false,
            dead: false,
            emitted: false,
        }
    }

    /// Grid coordinate of this cell.
    #[inline]
    pub fn coord(&self) -> &Coord {
        &self.coord
    }

    /// Admitted tuple ids (see [`CellStore::take_emitted`] for the ones
    /// that survive release).
    #[inline]
    pub fn ids(&self) -> &[(u32, u32)] {
        &self.ids
    }

    /// Admitted tuple values (oriented), parallel to [`Cell::ids`].
    #[inline]
    pub fn points(&self) -> &PointStore {
        &self.points
    }

    /// Number of admitted tuples held.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the cell holds no tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether any tuple was ever admitted.
    #[inline]
    pub fn is_populated(&self) -> bool {
        self.populated
    }

    /// Whether the cell is *flagged* dead. Exact for a populated cell; for
    /// an unpopulated one a memo of [`CellStore::cell_is_dead`], set when a
    /// tuple tried to land in it — fine for release paths (an unpopulated
    /// cell emits nothing either way), wrong for anything that must not
    /// observe which rejected tuples reached the store.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether the cell's results were already emitted.
    #[inline]
    pub fn is_emitted(&self) -> bool {
        self.emitted
    }
}

/// The tracked-cell store.
#[derive(Debug)]
pub struct CellStore {
    grid: OutputGrid,
    /// The query's dominance model. Insert and release test **Pareto**
    /// dominance regardless (a sound superset for any flexible model,
    /// since Pareto dominance implies F-dominance); a flexible model
    /// additionally filters tuples at emission time
    /// ([`CellStore::filter_emitted`]).
    model: DominanceModel,
    cells: Vec<Cell>,
    /// Grid coordinate → tracked cell, the session's one cell index: the
    /// tracked cell at each [`dense_position`] of the grid, or
    /// [`UNTRACKED`] — 4 bytes per grid position, at most 4 MB.
    index: Vec<u32>,
    /// The grid's packed-coordinate layout.
    lanes: Lanes,
    /// Populated cells not fully dominated by another populated cell, as
    /// [`Lanes::entry`]s.
    cell_skyline: Vec<u64>,
    /// The *staircase* of the ever-populated cells: one entry per
    /// position `q` of the first `dims − 1` dimensions, holding the smallest
    /// last coordinate of any cell ever populated whose prefix is `⪯ q`
    /// ([`STAIR_NONE`] while there is none). Answers
    /// [`fully_dominated`](Self::fully_dominated) in `O(dims)` where the
    /// `cell_skyline` walk pays per skyline cell.
    stair: Vec<u16>,
    /// Cells that entered `cell_skyline` since the last drain — consumed by
    /// the executor's eager dead-region sweep (Algorithm 1, line 9).
    fresh_skyline: Vec<u32>,
    stats: CellStats,
    /// Cached per-cell lower-corner vertex projections for the flexible
    /// emission filter (`cells × vertex_count`, extended as cells
    /// materialize).
    fdom_cell_proj: Vec<f64>,
    /// Cell indices sorted by first projected corner coordinate — the
    /// emission filter's prefix bound (extended with `fdom_cell_proj`).
    fdom_filter_order: Vec<u32>,
    /// First projected corner coordinate per `fdom_filter_order` entry,
    /// ascending, for binary-searching the reachable prefix.
    fdom_filter_keys: Vec<f64>,
    /// Reused keep flags for the release and emission filters.
    scratch_keep: Vec<bool>,
    /// Reused candidate-tuple projections for the emission filter.
    fdom_tuple_proj: Vec<f64>,
    /// Reused per-cell member projections for the emission filter.
    fdom_member_proj: Vec<f64>,
    /// Reused single-point projection buffer.
    proj_tmp: Vec<f64>,
    /// The pessimistic skyline, flattened (`dims` values per point): a
    /// cell whose lower corner it dominates is pre-marked dead
    /// ([`CellStore::premark`]). Empty until
    /// [`set_pessimistic_skyline`](Self::set_pessimistic_skyline).
    pessimistic: Vec<f64>,
    /// Reused lower-corner buffer for [`CellStore::premark`].
    corner: Vec<f64>,
    /// Every NaN-free tuple admitted up to the last
    /// [`publish_admitted`](CellStore::publish_admitted) (see
    /// [`CellStore::admitted`]). Releases and cell kills leave it
    /// untouched; a publish adds a run, so a work unit's clone never
    /// changes under it.
    admitted: DominanceForest,
    /// NaN-free tuples admitted since the last publish, oriented,
    /// row-major, in admission order.
    fresh: Vec<f64>,
    /// Every admitted tuple with a NaN coordinate, oriented, row-major:
    /// never published, since NaN-as-tie dominance is not transitive.
    nan_rows: Vec<f64>,
}

/// The bit layout of a packed cell coordinate: dimension `i` in lane `i`,
/// each lane wide enough for coordinate `k − 1` plus a *guard* bit above
/// it. With the guard bits set on the minuend, a subtraction borrows inside
/// each lane and never across one, so one `u32` subtraction compares all
/// `dims` coordinates at once. Every grid fits: `k^d ≤ 2^20` keeps
/// `d ·` lane width `≤ 32` (17 bits at `d = 1`, `k = 65 535`; 32 at
/// `d = 8`, `k = 5`).
#[derive(Debug, Clone, Copy)]
struct Lanes {
    width: u32,
    /// The guard bit of every lane.
    guard: u32,
    /// The lowest bit of every lane.
    low: u32,
}

impl Lanes {
    fn new(dims: usize, k: u16) -> Self {
        let width = u32::BITS - u32::from(k - 1).leading_zeros() + 1;
        assert!(
            dims as u32 * width <= u32::BITS,
            "{dims} lanes of {width} bits do not pack into 32"
        );
        let (mut guard, mut low) = (0, 0);
        for lane in 0..dims as u32 {
            low |= 1 << (lane * width);
            guard |= 1 << (lane * width + width - 1);
        }
        Self { width, guard, low }
    }

    fn pack(&self, c: &Coord, dims: usize) -> u32 {
        (c[..dims].iter().rev()).fold(0, |packed, &v| packed << self.width | u32::from(v))
    }

    /// A cell-skyline entry: cell `idx` beside its packed coordinate.
    fn entry(idx: u32, packed: u32) -> u64 {
        u64::from(idx) << 32 | u64::from(packed)
    }

    /// `(cell index, packed coordinate)` of an [`entry`](Self::entry).
    fn split(entry: u64) -> (u32, u32) {
        ((entry >> 32) as u32, entry as u32)
    }

    /// `a < b` in every lane: [`full_dominates`](crate::output_grid::full_dominates).
    #[inline]
    fn full_dominates(&self, a: u32, b: u32) -> bool {
        ((b | self.guard) - (a + self.low)) & self.guard == self.guard
    }
}

/// Unpublished rows at which an insert publishes them. The store scans
/// them linearly, so without it a batch admitting thousands of rows (one
/// region covering the whole grid) makes its commit quadratic: at d = 6,
/// N = 4 000 on a `(1, 8)` grid, 13 474 admits in one batch, 128 did the
/// least dominance work of 64…2 048.
const FRESH_ROWS: usize = 128;

/// [`CellStore`] index entry of a grid position without a tracked cell: no
/// tuple landed there yet.
const UNTRACKED: u32 = u32::MAX;

/// Keeps the tuples whose `keep` flag is set — ids and points in step, in
/// place, order preserved.
pub(crate) fn retain_tuples(ids: &mut Vec<(u32, u32)>, points: &mut PointStore, keep: &[bool]) {
    let mut flags = keep.iter();
    ids.retain(|_| *flags.next().expect("one flag per tuple"));
    points.compact(keep);
}

/// [`CellStore::stair`] entry over which no cell was populated yet — above
/// every coordinate, since a grid has at most `u16::MAX` cells per dimension.
const STAIR_NONE: u16 = u16::MAX;

impl CellStore {
    /// Creates a store over the given oriented grid, under classical
    /// Pareto dominance.
    pub fn new(grid: OutputGrid) -> Self {
        Self::with_model(grid, DominanceModel::Pareto)
    }

    /// Creates a store over the given oriented grid under an explicit
    /// dominance model. Internal skyline maintenance always runs under
    /// Pareto (the sound superset); the model drives the emission-time
    /// filter for flexible skylines.
    pub fn with_model(grid: OutputGrid, model: DominanceModel) -> Self {
        let dims = grid.dims();
        let lanes = Lanes::new(dims, grid.cells_per_dim());
        let volume = grid.volume();
        let stair = vec![STAIR_NONE; volume / grid.cells_per_dim() as usize];
        let index = vec![UNTRACKED; volume];
        Self {
            grid,
            model,
            cells: Vec::new(),
            index,
            lanes,
            cell_skyline: Vec::new(),
            stair,
            fresh_skyline: Vec::new(),
            stats: CellStats::default(),
            fdom_cell_proj: Vec::new(),
            fdom_filter_order: Vec::new(),
            fdom_filter_keys: Vec::new(),
            scratch_keep: Vec::new(),
            fdom_tuple_proj: Vec::new(),
            fdom_member_proj: Vec::new(),
            proj_tmp: Vec::new(),
            pessimistic: Vec::new(),
            corner: Vec::new(),
            admitted: DominanceForest::new(dims),
            fresh: Vec::new(),
            nan_rows: Vec::new(),
        }
    }

    /// The dominance model the store emits under.
    #[inline]
    pub fn model(&self) -> &DominanceModel {
        &self.model
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &OutputGrid {
        &self.grid
    }

    /// Hands the store the pessimistic skyline, flattened (`dims` values
    /// per point), for [`premark`](Self::premark).
    pub(crate) fn set_pessimistic_skyline(&mut self, flat: Vec<f64>) {
        self.pessimistic = flat;
    }

    /// Example 3's pre-marking of one cell, when it materializes: marks it
    /// dead when the pessimistic skyline dominates its lower corner — no
    /// tuple landing in it could be a result.
    fn premark(&mut self, idx: u32) {
        if self.pessimistic.is_empty() {
            return;
        }
        let mut corner = std::mem::take(&mut self.corner);
        self.grid
            .lower_corner_into(&self.cells[idx as usize].coord, &mut corner);
        let mut pairs = 0u64;
        let dominated =
            kernel::any_dominates(self.grid.dims(), &self.pessimistic, &corner, &mut pairs);
        self.corner = corner;
        self.stats.dominance_tests += pairs;
        self.stats.dominance_pairs += pairs;
        if dominated {
            self.mark_dead(idx);
            self.stats.cells_premarked_dead += 1;
        }
    }

    /// Number of tracked cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing is tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell by index.
    #[inline]
    pub fn cell(&self, idx: u32) -> &Cell {
        &self.cells[idx as usize]
    }

    /// Index of the cell at `coord`, if tracked; `None` for a coordinate
    /// outside the grid.
    pub fn find(&self, coord: &Coord) -> Option<u32> {
        let dims = self.grid.dims();
        let k = self.grid.cells_per_dim();
        // An out-of-grid coordinate would alias another cell's position.
        if coord[..dims].iter().any(|&v| v >= k) {
            return None;
        }
        Some(self.index[dense_position(coord, dims, k as usize)]).filter(|&idx| idx != UNTRACKED)
    }

    /// Work counters.
    #[inline]
    pub fn stats(&self) -> CellStats {
        self.stats
    }

    /// The dominance index over every tuple the store admitted up to the
    /// last [`publish_admitted`](Self::publish_admitted), oriented values.
    ///
    /// "Does a row of it dominate this tuple?" is the store's own
    /// rejection test ([`insert`](Self::insert)), and so a sound *upstream*
    /// one: batch producers ask it before expanding a key group and for
    /// every survivor of their batch, before the ordered committer ever
    /// sees them ([`crate::tuple_level`]). Rows with a NaN coordinate are
    /// never recorded: the kernels treat NaN as a tie, which is not
    /// transitive, so the store keeps those rows in a list of their own
    /// that only it scans. A clone is a snapshot: publishing adds runs to
    /// the store's forest and never changes one a work unit holds.
    #[inline]
    pub fn admitted(&self) -> &DominanceForest {
        &self.admitted
    }

    /// Adds the NaN-free tuples admitted since the last call to the forest
    /// — the committer calls it once per commit, so a work unit dispatched
    /// after a commit sees every tuple that commit admitted; an insert
    /// calls it when `FRESH_ROWS` rows wait.
    pub fn publish_admitted(&mut self) {
        self.admitted.publish(&self.fresh);
        self.fresh.clear();
    }

    /// Current populated-cell skyline size (diagnostics).
    pub fn skyline_len(&self) -> usize {
        self.cell_skyline.len()
    }

    /// Marks a cell dead without inserting anything (pre-marking against
    /// the pessimistic skyline, and cells a populated one fully dominates).
    pub fn mark_dead(&mut self, idx: u32) {
        let cell = &mut self.cells[idx as usize];
        debug_assert!(
            !cell.emitted,
            "an emitted cell can never become dominated (emission proved finality)"
        );
        if !cell.dead {
            cell.dead = true;
            self.stats.cells_killed += 1;
            self.stats.tuples_evicted += cell.ids.len() as u64;
            cell.ids.clear();
            cell.points.clear();
        }
    }

    /// Marks a cell emitted: drops its members an admitted tuple dominates
    /// (counted in [`CellStats::tuples_evicted`]) and returns a copy of the
    /// survivors, in admission order.
    ///
    /// The release proved that no tuple still to come dominates a member,
    /// so the survivors are final skyline members. They deliberately *stay*
    /// in the cell, for the flexible emission filter of later releases
    /// ([`filter_emitted`](Self::filter_emitted)).
    pub fn take_emitted(&mut self, idx: u32) -> (Vec<(u32, u32)>, PointStore) {
        debug_assert!(!self.cells[idx as usize].emitted, "cell emitted twice");
        let mut keep = std::mem::take(&mut self.scratch_keep);
        keep.clear();
        let (mut work, mut pairs) = (0, 0);
        for p in self.cells[idx as usize].points.iter() {
            keep.push(!self.admitted_dominates(p, &mut work, &mut pairs));
        }
        self.count_tests(work, pairs);
        let dropped = keep.iter().filter(|&&kept| !kept).count();
        let cell = &mut self.cells[idx as usize];
        cell.emitted = true;
        if dropped > 0 {
            retain_tuples(&mut cell.ids, &mut cell.points, &keep);
            self.stats.tuples_evicted += dropped as u64;
        }
        self.scratch_keep = keep;
        (cell.ids.clone(), cell.points.clone())
    }

    /// Whether a tuple the store admitted dominates `p`: a row of the
    /// forest, an unpublished row, or a NaN row. `work` counts the forest's
    /// leaf boxes and rows tested, `pairs` the kernels' pair tests.
    fn admitted_dominates(&self, p: &[f64], work: &mut u64, pairs: &mut u64) -> bool {
        let dims = self.grid.dims();
        self.admitted.any_dominates(p, work)
            || kernel::any_dominates(dims, &self.fresh, p, pairs)
            || kernel::any_dominates(dims, &self.nan_rows, p, pairs)
    }

    /// Adds the work of [`admitted_dominates`](Self::admitted_dominates)
    /// calls to the dominance counters.
    fn count_tests(&mut self, work: u64, pairs: u64) {
        self.stats.dominance_tests += work + pairs;
        self.stats.dominance_pairs += pairs;
    }

    /// Flexible-model emission filter: drops tuples of an about-to-emit
    /// cell that are **F-dominated** by some tuple a cell of the store
    /// holds. A no-op under the Pareto model (where the release already
    /// dropped every dominated tuple).
    ///
    /// Correctness rests on the composition property (see [`crate::fdom`]):
    /// every produced tuple that F-dominates an emission candidate is
    /// either held by a cell itself or Pareto-dominated by a held tuple
    /// that also F-dominates the candidate — so testing against the cells'
    /// members is complete. Members an admitted tuple Pareto-dominates
    /// (those of cells not released yet) add work, not answers: their
    /// dominator F-dominates whatever they do. The strengthened blocker
    /// counts of
    /// [`crate::progdetermine::ProgDetermine`] guarantee no *future* tuple
    /// can F-dominate anything emitted here, preserving no-retraction.
    ///
    /// Unlike Pareto maintenance, F-dominance is not confined to the
    /// coordinate slabs (a dominator may sit in a Pareto-incomparable
    /// cell), so candidate dominators are found through a *vertex-projection
    /// slab index*: cells sorted by their lower corner's first projected
    /// coordinate. Weights are non-negative, so every member of a cell
    /// projects component-wise ≥ the cell's projected corner; a cell whose
    /// first corner projection exceeds every candidate's first tuple
    /// projection can hold no weak F-dominator and the sorted order cuts
    /// the scan to a binary-searched prefix. Cells inside the prefix are
    /// still pre-screened per tuple on the remaining projected coordinates,
    /// and only cells that pass for some tuple have their members projected
    /// and compared (batched, counted in
    /// [`CellStats::fdom_filter_cells_visited`]).
    pub fn filter_emitted(&mut self, ids: &mut Vec<(u32, u32)>, points: &mut PointStore) {
        let fdom = match &self.model {
            DominanceModel::Pareto => return,
            DominanceModel::Flexible(f) => std::sync::Arc::clone(f),
        };
        let k = fdom.vertex_count();
        // Project the lower corners of the cells materialized since the
        // last filter call, and slot each into the first-coordinate order
        // behind its equals. Cell geometry is immutable, so nothing else
        // goes stale.
        let mut buf = Vec::with_capacity(k);
        let mut corner = Vec::new();
        for ci in (self.fdom_cell_proj.len() / k) as u32..self.cells.len() as u32 {
            self.grid
                .lower_corner_into(&self.cells[ci as usize].coord, &mut corner);
            fdom.project_into(&corner, &mut buf);
            self.fdom_cell_proj.extend_from_slice(&buf);
            // A NaN corner projection (a corner mixing ±∞) bounds nothing:
            // key it −∞, so every prefix visits the cell.
            let key = if buf[0].is_nan() {
                f64::NEG_INFINITY
            } else {
                buf[0]
            };
            let at = self
                .fdom_filter_keys
                .partition_point(|v| v.total_cmp(&key).is_le());
            self.fdom_filter_keys.insert(at, key);
            self.fdom_filter_order.insert(at, ci);
        }

        let n = ids.len();
        // Project every candidate once.
        let mut tuple_proj = std::mem::take(&mut self.fdom_tuple_proj);
        let mut tmp = std::mem::take(&mut self.proj_tmp);
        tuple_proj.clear();
        tuple_proj.reserve(n * k);
        for t in points.iter() {
            fdom.project_into(t, &mut tmp);
            tuple_proj.extend_from_slice(&tmp);
        }
        let mut vertex_evals = (n * k) as u64;

        // Reachable prefix: a cell can weakly F-dominate some candidate
        // only if its first corner projection is ≤ the max first tuple
        // projection. NaN projections (NaN-valued tuples) disable the
        // bound rather than mis-pruning.
        let mut max0 = f64::NEG_INFINITY;
        let mut has_nan = false;
        for i in 0..n {
            let v = tuple_proj[i * k];
            if v.is_nan() {
                has_nan = true;
            } else {
                max0 = max0.max(v);
            }
        }
        let prefix = if has_nan {
            self.fdom_filter_order.len()
        } else {
            self.fdom_filter_keys.partition_point(|&key| key <= max0)
        };

        let mut keep = std::mem::take(&mut self.scratch_keep);
        keep.clear();
        keep.resize(n, true);
        let mut member_proj = std::mem::take(&mut self.fdom_member_proj);
        let mut dropped = 0usize;
        let mut pairs = 0u64;
        let mut cells_visited = 0u64;
        for &ci in &self.fdom_filter_order[..prefix] {
            if dropped == n {
                break;
            }
            let cell = &self.cells[ci as usize];
            if cell.points.is_empty() {
                continue;
            }
            let cproj = &self.fdom_cell_proj[ci as usize * k..(ci as usize + 1) * k];
            let mut projected = false;
            for i in 0..n {
                if !keep[i] {
                    continue;
                }
                let pt = &tuple_proj[i * k..(i + 1) * k];
                if cproj.iter().zip(pt).any(|(c, p)| c > p) {
                    // No member of this cell can weakly F-dominate t.
                    continue;
                }
                if !projected {
                    projected = true;
                    cells_visited += 1;
                    member_proj.clear();
                    member_proj.reserve(cell.points.len() * k);
                    for u in cell.points.iter() {
                        fdom.project_into(u, &mut tmp);
                        member_proj.extend_from_slice(&tmp);
                    }
                    vertex_evals += (cell.points.len() * k) as u64;
                }
                if kernel::any_dominates(k, &member_proj, pt, &mut pairs) {
                    keep[i] = false;
                    dropped += 1;
                }
            }
        }
        self.stats.dominance_tests += pairs;
        self.stats.dominance_pairs += pairs;
        self.stats.fdom_vertex_evals += vertex_evals;
        self.stats.fdom_filter_cells_visited += cells_visited;
        self.fdom_tuple_proj = tuple_proj;
        self.fdom_member_proj = member_proj;
        self.proj_tmp = tmp;

        if dropped > 0 {
            self.stats.tuples_fdom_filtered += dropped as u64;
            retain_tuples(ids, points, &keep);
        }
        self.scratch_keep = keep;
    }

    /// Whether an (unprocessed) region with the given box lower corner is
    /// entirely dominated by a populated cell — Algorithm 1's line 9 test.
    /// A populated cell `s` kills the whole box iff it fully dominates the
    /// box's best cell, `cell_lo`.
    pub fn region_is_dead(&self, cell_lo: &Coord) -> bool {
        self.fully_dominated(cell_lo)
    }

    /// Whether some populated cell fully dominates the cell at `coord`.
    /// ("Populated" may read "ever populated": a populated cell only loses
    /// that standing to a populated cell that fully dominates it, and full
    /// dominance is transitive.)
    fn fully_dominated(&self, coord: &Coord) -> bool {
        // A full dominator is smaller in every dimension: its prefix is
        // `⪯ coord's prefix − 1` (there is none when that underflows) and
        // its last coordinate is below `coord`'s.
        let prefix = self.grid.dims() - 1;
        let k = self.grid.cells_per_dim() as usize;
        let below = coord[..prefix]
            .iter()
            .rev()
            .try_fold(0, |pos, &v| Some(pos * k + usize::from(v.checked_sub(1)?)));
        let dominated = below.is_some_and(|pos: usize| self.stair[pos] < coord[prefix]);
        debug_assert_eq!(
            dominated,
            self.fully_dominated_by_skyline_walk(coord),
            "staircase and cell-skyline walk disagree on {:?}",
            &coord[..=prefix]
        );
        dominated
    }

    /// [`fully_dominated`](Self::fully_dominated) by definition, one test
    /// per populated-skyline cell: the staircase's cross-check in debug
    /// builds.
    fn fully_dominated_by_skyline_walk(&self, coord: &Coord) -> bool {
        let packed = self.lanes.pack(coord, self.grid.dims());
        (self.cell_skyline.iter()).any(|&s| (self.lanes).full_dominates(Lanes::split(s).1, packed))
    }

    /// Whether cell `idx` can never contribute results: flagged dead, or
    /// never populated and fully dominated by a populated cell. A function
    /// of the admitted tuples alone — unlike [`Cell::is_dead`], it does not
    /// depend on whether a rejected tuple ever visited the cell — and
    /// `O(dims)`.
    pub fn cell_is_dead(&self, idx: u32) -> bool {
        let cell = &self.cells[idx as usize];
        cell.dead || (!cell.populated && self.fully_dominated(&cell.coord))
    }

    /// Drains the cells that entered the populated-cell skyline since the
    /// previous drain (for incremental dead-region sweeps).
    pub fn drain_fresh_skyline(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.fresh_skyline)
    }

    /// Coordinate of a (possibly dead) cell index — valid for entries
    /// returned by [`CellStore::drain_fresh_skyline`].
    pub fn coord_of(&self, idx: u32) -> &Coord {
        &self.cells[idx as usize].coord
    }

    /// Inserts one mapped join result (oriented values). Returns `true`
    /// when the tuple was admitted. The first tuple to land in an untracked
    /// position materializes its cell, which is pre-marked then; a tuple in
    /// a pre-marked cell is rejected as a dead-cell tuple.
    pub fn insert(&mut self, r_idx: u32, t_idx: u32, oriented: &[f64]) -> bool {
        self.insert_at(self.grid.cell_of(oriented), r_idx, t_idx, oriented)
    }

    /// [`insert`](Self::insert) of a tuple whose cell, `coord =
    /// grid.cell_of(oriented)`, the caller already computed.
    pub(crate) fn insert_at(
        &mut self,
        coord: Coord,
        r_idx: u32,
        t_idx: u32,
        oriented: &[f64],
    ) -> bool {
        let idx = match self.find(&coord) {
            Some(idx) => idx,
            None => self.materialize(coord),
        };
        let dims = self.grid.dims();

        // 1. Dead cell: discard without any dominance comparison.
        if self.cells[idx as usize].dead {
            self.stats.tuples_rejected_dead_cell += 1;
            return false;
        }
        // 2. First tuple of a cell: lazily check full dominance against the
        //    populated-cell skyline.
        if self.kill_if_unpopulated_and_dominated(idx) {
            self.stats.tuples_rejected_dead_cell += 1;
            return false;
        }

        // 3. Reject the tuple if an admitted one dominates it. Nothing is
        //    evicted: a member a later admission dominates leaves at its
        //    cell's release (`take_emitted`).
        let (mut work, mut pairs) = (0, 0);
        let dominated = self.admitted_dominates(oriented, &mut work, &mut pairs);
        self.count_tests(work, pairs);
        if dominated {
            self.stats.tuples_rejected_dominated += 1;
            return false;
        }

        // 4. Admit the tuple; on first population update the populated-cell
        //    skyline (killing fully dominated cells) and the staircase.
        let newly_populated = !self.cells[idx as usize].populated;
        {
            let cell = &mut self.cells[idx as usize];
            cell.ids.push((r_idx, t_idx));
            cell.points.push(oriented);
            cell.populated = true;
        }
        if oriented.iter().any(|v| v.is_nan()) {
            self.nan_rows.extend_from_slice(oriented);
        } else {
            self.fresh.extend_from_slice(oriented);
            if self.fresh.len() >= FRESH_ROWS * dims {
                self.publish_admitted();
            }
        }
        self.stats.tuples_inserted += 1;
        if newly_populated {
            let lanes = self.lanes;
            let packed = lanes.pack(&coord, dims);
            // Skyline cells this one fully dominates leave it and die.
            let mut s = 0;
            while s < self.cell_skyline.len() {
                let (victim, victim_packed) = Lanes::split(self.cell_skyline[s]);
                if lanes.full_dominates(packed, victim_packed) {
                    self.cell_skyline.swap_remove(s);
                    self.mark_dead(victim);
                } else {
                    s += 1;
                }
            }
            self.cell_skyline.push(Lanes::entry(idx, packed));
            self.fresh_skyline.push(idx);
            // Lower the staircase over every prefix this cell's prefix is
            // `⪯` — nothing to do when a cell at or below its own prefix
            // already reaches as low, since entries only fall along `⪯`.
            let (prefix, last) = (dims - 1, coord[dims - 1]);
            let k = self.grid.cells_per_dim() as usize;
            if self.stair[dense_position(&coord, prefix, k)] > last {
                let stair = &mut self.stair;
                for_each_upper_box_row(&coord, prefix, k, |row| {
                    for step in &mut stair[row] {
                        *step = (*step).min(last);
                    }
                });
            }
        }
        true
    }

    /// The first touch of an untracked position: builds its cell, indexes
    /// it and pre-marks it.
    ///
    /// # Panics
    /// Panics if `coord` lies outside the grid, where it would alias
    /// another position.
    fn materialize(&mut self, coord: Coord) -> u32 {
        let (dims, k) = (self.grid.dims(), self.grid.cells_per_dim());
        assert!(
            coord[..dims].iter().all(|&v| v < k),
            "cell {:?} is not inside the {k}-cell grid",
            &coord[..dims]
        );
        let idx = self.cells.len() as u32;
        let slot = &mut self.index[dense_position(&coord, dims, k as usize)];
        debug_assert_eq!(*slot, UNTRACKED, "{coord:?} materialized twice");
        *slot = idx;
        self.cells.push(Cell::new(coord, dims));
        self.premark(idx);
        idx
    }

    /// Lazy cell death (insert step 2): a cell nothing was ever admitted
    /// into dies the first time something *tries* to land in it while a
    /// populated cell fully dominates it. Returns whether it died now.
    fn kill_if_unpopulated_and_dominated(&mut self, idx: u32) -> bool {
        let cell = &self.cells[idx as usize];
        if cell.populated || cell.dead {
            return false;
        }
        let dominated = self.fully_dominated(&cell.coord);
        if dominated {
            self.cells[idx as usize].dead = true;
            self.stats.cells_killed += 1;
        }
        dominated
    }

    /// Iterates over tracked cells with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| (i as u32, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::{full_dominates, pack, MAX_DIMS};

    fn coord(vals: &[u16]) -> Coord {
        let mut c: Coord = [0; MAX_DIMS];
        c[..vals.len()].copy_from_slice(vals);
        c
    }

    fn store_10x10() -> CellStore {
        CellStore::new(OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10))
    }

    /// A seeded LCG: `next(m)` draws from `0..m`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut x = seed;
        move |m| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A `k × k` grid of unit cells, under Pareto.
    fn square_store(dims: usize, k: u16) -> CellStore {
        CellStore::new(OutputGrid::new(vec![0.0; dims], vec![k as f64; dims], k))
    }

    /// The index maps `(k, 0)` and `(0, 1)` to one position: an
    /// out-of-grid coordinate must not be found.
    #[test]
    fn out_of_grid_coordinates_are_not_found() {
        let mut s = square_store(2, 4);
        assert!(s.insert(0, 0, &[0.5, 1.5]));
        assert_eq!(s.find(&coord(&[0, 1])), Some(0));
        assert_eq!(s.find(&coord(&[4, 0])), None, "aliases (0, 1)");
        assert_eq!(s.find(&coord(&[0, 4])), None, "past the table");
        assert_eq!(s.find(&coord(&[u16::MAX, u16::MAX])), None);
        assert_eq!(s.find(&coord(&[1, 1])), None, "in the grid, untracked");
        assert_eq!(s.len(), 1);
    }

    /// A store builds the cell a tuple lands in, once, under every model.
    #[test]
    fn inserts_materialize_their_cell_once() {
        let simplex = crate::fdom::FDominance::simplex(2).unwrap();
        for model in [DominanceModel::Pareto, DominanceModel::flexible(simplex)] {
            let grid = OutputGrid::new(vec![0.0; 2], vec![4.0; 2], 4);
            let mut s = CellStore::with_model(grid, model);
            assert!(s.is_empty());
            assert!(s.insert(0, 0, &[1.5, 2.5]));
            assert!(s.insert(1, 1, &[1.2, 2.8]), "same cell, incomparable");
            assert_eq!(s.find(&coord(&[1, 2])), Some(0));
            assert!(s.insert(2, 2, &[2.5, 0.5]));
            assert_eq!(s.find(&coord(&[2, 0])), Some(1));
            assert_eq!(s.len(), 2);
            assert_eq!(s.cell(0).ids(), &[(0, 0), (1, 1)]);
        }
    }

    /// The cell index against the definition — one hash probe per
    /// coordinate: cells get ascending indices in the order tuples first
    /// land in them, rejected or not, and `find` agrees on every grid
    /// position probed, tracked or not, up to a 2-d grid exactly on the
    /// dense budget.
    #[test]
    fn inserts_index_cells_in_first_landing_order() {
        let mut next = rng(0xB0C5);
        let budget_side = 1u16 << (OutputGrid::DENSE_INDEX_BUDGET.trailing_zeros() / 2);
        assert_eq!(
            (budget_side as usize).pow(2),
            OutputGrid::DENSE_INDEX_BUDGET,
            "a 2-d grid sits exactly on the budget"
        );
        let mut untracked_probes = 0;
        for (dims, k) in [
            (1usize, 1u16),
            (1, 9),
            (2, 7),
            (3, 5),
            (4, 4),
            (5, 3),
            (2, budget_side - 1),
            (2, budget_side),
        ] {
            let mut store = square_store(dims, k);
            assert_eq!(store.grid().cells_per_dim(), k, "under the cap");
            // The grid's top cell, then clusters around random cells (so
            // large grids stay cheap to probe).
            let top = coord(&vec![k - 1; dims]);
            let mut landed = vec![top];
            for _ in 0..24 {
                let centre: Vec<u16> = (0..dims).map(|_| next(k as u64) as u16).collect();
                for _ in 0..4 {
                    let c: Vec<u16> = (centre.iter())
                        .map(|&v| (v + next(3) as u16).min(k - 1))
                        .collect();
                    landed.push(coord(&c));
                }
            }
            let mut expected: Vec<Coord> = Vec::new();
            let mut seen: std::collections::HashMap<u128, u32> = Default::default();
            for (i, c) in landed.iter().enumerate() {
                let p: Vec<f64> = c[..dims].iter().map(|&v| v as f64 + 0.5).collect();
                store.insert(i as u32, i as u32, &p);
                seen.entry(pack(c)).or_insert_with(|| {
                    expected.push(*c);
                    expected.len() as u32 - 1
                });
            }
            let label = format!("dims={dims} k={k}");
            let got: Vec<Coord> = store.iter().map(|(_, c)| *c.coord()).collect();
            assert_eq!(got, expected, "{label}");
            assert!(landed.len() > expected.len(), "{label}: cells shared");
            // Every position of a small grid; on the budget-sized ones
            // the landed cells and their neighbours.
            let probes: Vec<Coord> = if k < 100 {
                store.grid().iter_box([0; MAX_DIMS], top).collect()
            } else {
                landed
                    .iter()
                    .flat_map(|c| {
                        let lo = coord(&[c[0].saturating_sub(1), c[1].saturating_sub(1)]);
                        let hi = coord(&[(c[0] + 1).min(k - 1), (c[1] + 1).min(k - 1)]);
                        store.grid().iter_box(lo, hi)
                    })
                    .collect()
            };
            untracked_probes += probes
                .iter()
                .filter(|c| !seen.contains_key(&pack(c)))
                .count();
            for c in &probes {
                assert_eq!(
                    store.find(c),
                    seen.get(&pack(c)).copied(),
                    "{label} {:?}",
                    &c[..dims]
                );
            }
        }
        assert!(untracked_probes > 500, "{untracked_probes}");
    }

    #[test]
    fn insert_and_survive() {
        let mut s = store_10x10();
        assert!(s.insert(1, 2, &[5.5, 5.5]));
        assert_eq!(s.stats().tuples_inserted, 1);
        let idx = s.find(&s.grid().cell_of(&[5.5, 5.5])).unwrap();
        assert_eq!(s.cell(idx).ids(), &[(1, 2)]);
    }

    #[test]
    fn dominated_insert_rejected_same_cell() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[5.1, 5.1]));
        assert!(!s.insert(1, 1, &[5.4, 5.4]), "same cell, dominated");
        assert_eq!(s.stats().tuples_rejected_dominated, 1);
    }

    #[test]
    fn dominated_insert_rejected_by_slab_neighbor() {
        let mut s = store_10x10();
        // (2.5, 5.5) is in cell (2,5); (7.5, 5.5) in cell (7,5): same row —
        // a partial dominator, so the comparison must happen.
        assert!(s.insert(0, 0, &[2.5, 5.5]));
        assert!(!s.insert(1, 1, &[7.5, 5.5]));
    }

    #[test]
    fn full_dominance_kills_cell_on_population() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[9.5, 9.5])); // cell (9,9)
        assert!(s.insert(1, 1, &[1.5, 1.5])); // cell (1,1) fully dominates (9,9)
        let victim = s.find(&s.grid().cell_of(&[9.5, 9.5])).unwrap();
        assert!(s.cell(victim).is_dead());
        assert!(s.cell(victim).is_empty(), "tuples purged");
        assert_eq!(s.stats().cells_killed, 1);
        // Future arrivals into the dead cell are rejected without tests.
        let tests_before = s.stats().dominance_tests;
        assert!(!s.insert(2, 2, &[9.4, 9.4]));
        assert_eq!(s.stats().dominance_tests, tests_before);
        assert_eq!(s.stats().tuples_rejected_dead_cell, 1);
    }

    #[test]
    fn lazy_death_on_first_insert() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[1.5, 1.5]));
        // Cell (8,8) was never populated; first insert discovers it's dead.
        assert!(!s.insert(1, 1, &[8.5, 8.5]));
        let idx = s.find(&s.grid().cell_of(&[8.5, 8.5])).unwrap();
        assert!(s.cell(idx).is_dead());
    }

    /// Death is derived: a never-populated cell a populated one fully
    /// dominates is dead whether or not a rejected tuple ever visited it;
    /// the visit only memoizes the answer in the flag (and the counter).
    #[test]
    fn cell_is_dead_does_not_wait_for_a_visit() {
        let mut s = store_10x10();
        let (far, beside) = (s.materialize(coord(&[8, 8])), s.materialize(coord(&[1, 8])));
        assert!(!s.cell_is_dead(far));
        assert!(s.insert(0, 0, &[1.5, 1.5]));
        assert!(s.cell_is_dead(far) && !s.cell(far).is_dead());
        assert!(!s.cell_is_dead(beside), "shares a slab — not dominated");
        assert_eq!(s.stats().cells_killed, 0, "nothing visited it yet");
        assert!(!s.insert(1, 1, &[8.5, 8.5]));
        assert!(s.cell_is_dead(far) && s.cell(far).is_dead());
        assert_eq!(s.stats().cells_killed, 1);
    }

    /// Releases every live cell, in index order; the tuples handed out.
    fn release_all(s: &mut CellStore) -> Vec<(u32, u32)> {
        let live: Vec<u32> = (0..s.len() as u32)
            .filter(|&i| !s.cell_is_dead(i))
            .collect();
        live.into_iter().flat_map(|i| s.take_emitted(i).0).collect()
    }

    /// A released cell's tuples come in the admission order of the
    /// survivors: a transient tuple, admitted and later dominated, leaves
    /// them as if it had never been there — and counts as evicted at the
    /// release, not before.
    #[test]
    fn release_keeps_the_admission_order_of_the_survivors() {
        let released = |with_transient: bool| {
            let mut s = store_10x10();
            if with_transient {
                assert!(s.insert(9, 9, &[5.5, 5.5]));
            }
            // Mutually incomparable, all in cell (5, 5).
            for (i, p) in [[5.1, 5.9], [5.2, 5.8], [5.3, 5.7], [5.6, 5.4]]
                .iter()
                .enumerate()
            {
                assert!(s.insert(i as u32, i as u32, p));
            }
            // Dominates the transient (and only it).
            assert!(s.insert(4, 4, &[5.45, 5.45]));
            assert_eq!(s.stats().tuples_evicted, 0, "nothing leaves before release");
            let idx = s.find(&s.grid().cell_of(&[5.5, 5.5])).unwrap();
            let out = s.take_emitted(idx);
            assert_eq!(s.stats().tuples_evicted, u64::from(with_transient));
            assert_eq!(s.cell(idx).ids(), out.0, "the cell keeps the survivors");
            out
        };
        let (ids, points) = released(true);
        assert_eq!(ids, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!((ids, points), released(false));
    }

    #[test]
    fn release_drops_members_a_neighbor_dominates() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[7.5, 5.5])); // cell (7,5)
        assert!(s.insert(1, 1, &[2.5, 5.5])); // same row, dominates the first
        let victim = s.find(&s.grid().cell_of(&[7.5, 5.5])).unwrap();
        assert_eq!(s.cell(victim).ids(), &[(0, 0)], "held until release");
        assert!(s.take_emitted(victim).0.is_empty());
        assert!(s.cell(victim).is_empty());
        assert_eq!(s.stats().tuples_evicted, 1);
        assert!(
            !s.cell(victim).is_dead(),
            "partial dominance drops tuples, not cells"
        );
    }

    /// A NaN row never enters the forest, yet dominates as the kernels say
    /// (NaN as a tie): admitted after a finite row it dominates, it
    /// removes that row at release, and it rejects a later one.
    #[test]
    fn a_nan_row_dominates_at_release_and_at_insert() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[5.5, 5.5]));
        assert!(s.insert(1, 1, &[f64::NAN, 5.2]), "a tie, then 5.2 < 5.5");
        s.publish_admitted();
        assert_eq!(s.admitted().len(), 1, "the NaN row stays out");
        assert!(
            !s.insert(2, 2, &[5.6, 5.3]),
            "only the NaN row dominates it"
        );
        assert_eq!(s.stats().tuples_rejected_dominated, 1);
        let idx = s.find(&s.grid().cell_of(&[5.5, 5.5])).unwrap();
        assert!(s.take_emitted(idx).0.is_empty());
        assert_eq!(s.stats().tuples_evicted, 1);
        let nan_cell = s.find(&s.grid().cell_of(&[f64::NAN, 5.2])).unwrap();
        assert_eq!(s.take_emitted(nan_cell).0, vec![(1, 1)]);
    }

    #[test]
    fn incomparable_tuples_coexist() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[2.5, 7.5]));
        assert!(s.insert(1, 1, &[7.5, 2.5]));
        assert_eq!(release_all(&mut s).len(), 2);
    }

    #[test]
    fn equal_tuples_coexist() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[5.5, 5.5]));
        assert!(s.insert(1, 1, &[5.5, 5.5]));
        assert_eq!(release_all(&mut s).len(), 2);
    }

    /// The release-time invariant against brute force: after any prefix of
    /// a pseudo-random insert sequence, each live cell releases exactly the
    /// skyline of everything inserted, restricted to the cell, in
    /// admission order — whether the dominators were published or not —
    /// and a dead cell holds no skyline tuple.
    #[test]
    fn released_cells_hold_the_skyline_of_everything_inserted() {
        let mut next = rng(42);
        for (dims, k) in [(2usize, 10u16), (3, 5)] {
            let pref = progxe_skyline::Preference::all_lowest(dims);
            let rows: Vec<Vec<f64>> = (0..300)
                .map(|_| {
                    (0..dims)
                        .map(|_| next(10 * k as u64) as f64 / 10.0)
                        .collect()
                })
                .collect();
            for n in (1..rows.len()).step_by(23).chain([rows.len()]) {
                let mut s = square_store(dims, k);
                for (i, p) in rows[..n].iter().enumerate() {
                    s.insert(i as u32, i as u32, p);
                }
                if n % 2 == 0 {
                    s.publish_admitted();
                }
                for idx in 0..s.len() as u32 {
                    let coord = *s.cell(idx).coord();
                    let skyline: Vec<(u32, u32)> = (rows[..n].iter().enumerate())
                        .filter(|(_, p)| s.grid().cell_of(p) == coord)
                        .filter(|(_, p)| !rows[..n].iter().any(|q| pref.dominates(q, p)))
                        .map(|(i, _)| (i as u32, i as u32))
                        .collect();
                    let label = format!("dims={dims} n={n} cell {:?}", &coord[..dims]);
                    if s.cell_is_dead(idx) {
                        assert!(skyline.is_empty(), "{label}: a dead cell holds {skyline:?}");
                    } else {
                        assert_eq!(s.take_emitted(idx).0, skyline, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn region_is_dead_via_skyline() {
        let mut s = store_10x10();
        let mut lo: Coord = [0; MAX_DIMS];
        lo[0] = 5;
        lo[1] = 5;
        assert!(!s.region_is_dead(&lo));
        s.insert(0, 0, &[1.5, 1.5]); // populates (1,1), fully dominates (5,5)
        assert!(s.region_is_dead(&lo));
        let mut edge: Coord = [0; MAX_DIMS];
        edge[0] = 1;
        edge[1] = 5;
        assert!(
            !s.region_is_dead(&edge),
            "shares a slab — not fully dominated"
        );
    }

    /// The staircase against both the retained `cell_skyline` walk and the
    /// definition (some ever-populated cell is smaller in every dimension),
    /// for every cell of the grid after every insert of random population
    /// sequences — small grids, so coordinate 0 turns up in every position
    /// and cells are populated repeatedly; `cells_per_dim = 1` included.
    #[test]
    fn staircase_matches_the_cell_skyline_walk() {
        let mut x: u64 = 0x5EED;
        let mut next = |m: u64| -> u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for (dims, k) in [
            (1usize, 1u16),
            (1, 9),
            (2, 1),
            (2, 2),
            (2, 6),
            (3, 4),
            (4, 3),
        ] {
            for round in 0..6 {
                let grid = OutputGrid::new(vec![0.0; dims], vec![k as f64; dims], k);
                let mut top: Coord = [0; MAX_DIMS];
                top[..dims].fill(k - 1);
                let all: Vec<Coord> = grid.iter_box([0; MAX_DIMS], top).collect();
                let mut s = CellStore::new(grid);
                let mut populated: Vec<Coord> = Vec::new();
                // Later rounds start high so the staircase keeps falling.
                let bias = if round < 3 { 0 } else { k as u64 / 2 };
                for i in 0..40u32 {
                    let p: Vec<f64> = (0..dims)
                        .map(|_| {
                            let slot = (next(k as u64) + bias.saturating_sub(i as u64 / 8))
                                .min(k as u64 - 1);
                            slot as f64 + next(100) as f64 / 100.0
                        })
                        .collect();
                    if s.insert(i, i, &p) {
                        populated.push(s.grid().cell_of(&p));
                    }
                    for c in &all {
                        let by_definition = populated.iter().any(|q| full_dominates(q, c, dims));
                        let label = format!("dims={dims} k={k} round={round} insert={i} {c:?}");
                        assert_eq!(s.fully_dominated(c), by_definition, "{label}");
                        assert_eq!(
                            s.fully_dominated_by_skyline_walk(c),
                            by_definition,
                            "{label}"
                        );
                    }
                }
                assert!(!populated.is_empty());
            }
        }
    }

    #[test]
    fn fresh_skyline_drains_incrementally() {
        let mut s = store_10x10();
        s.insert(0, 0, &[5.5, 5.5]);
        assert_eq!(s.drain_fresh_skyline().len(), 1);
        assert!(s.drain_fresh_skyline().is_empty());
        s.insert(1, 1, &[5.6, 5.6]); // same cell: no new skyline entry
        assert!(s.drain_fresh_skyline().is_empty());
        s.insert(2, 2, &[2.5, 7.5]); // new cell
        assert_eq!(s.drain_fresh_skyline().len(), 1);
    }

    #[test]
    fn flexible_filter_drops_fdominated_emissions() {
        use crate::fdom::{DominanceModel, FDominance, WeightConstraint};
        // Weights confined near (0.5, 0.5): (2, 2.5) F-dominates (8, 0.5)
        // (scores ~2.25 vs ~4.25) although the two are Pareto-incomparable
        // and live in slab-incomparable cells.
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.45),
                WeightConstraint::at_most(2, 0, 0.55),
            ],
        )
        .unwrap();
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut s = CellStore::with_model(grid, DominanceModel::flexible(fdom));
        assert!(s.insert(0, 0, &[2.0, 2.5]));
        assert!(s.insert(1, 1, &[8.0, 0.5]), "Pareto keeps the trade-off");

        let idx = s.find(&s.grid().cell_of(&[8.0, 0.5])).unwrap();
        let (mut ids, mut points) = s.take_emitted(idx);
        s.filter_emitted(&mut ids, &mut points);
        assert!(ids.is_empty(), "F-dominated tuple must not be emitted");
        assert_eq!(s.stats().tuples_fdom_filtered, 1);

        let idx = s.find(&s.grid().cell_of(&[2.0, 2.5])).unwrap();
        let (mut ids, mut points) = s.take_emitted(idx);
        s.filter_emitted(&mut ids, &mut points);
        assert_eq!(ids, vec![(0, 0)], "the dominator itself survives");
    }

    #[test]
    fn flexible_filter_prunes_unreachable_cells() {
        use crate::fdom::{DominanceModel, FDominance, WeightConstraint};
        // Populate a diagonal band of mutually Pareto-incomparable cells,
        // then filter a candidate from the *best* corner of the band. Cells
        // whose projected corner already exceeds the candidate's projection
        // sit beyond the prefix bound and must never be visited — the
        // retired PR 5 implementation scanned every populated cell instead.
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.45),
                WeightConstraint::at_most(2, 0, 0.55),
            ],
        )
        .unwrap();
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![32.0, 32.0], 32);
        let mut s = CellStore::with_model(grid, DominanceModel::flexible(fdom));
        let mut populated = 0u64;
        for i in 0..32u32 {
            let v = i as f64 + 0.5;
            if s.insert(i, i, &[v, 32.0 - v]) {
                populated += 1;
            }
        }
        assert!(populated >= 16, "anti-diagonal must co-exist under Pareto");
        // Candidate near the low corner: only similarly-projected cells can
        // hold an F-dominator for it.
        let idx = s.find(&s.grid().cell_of(&[0.5, 31.5])).unwrap();
        let (mut ids, mut points) = s.take_emitted(idx);
        let visited_before = s.stats().fdom_filter_cells_visited;
        s.filter_emitted(&mut ids, &mut points);
        let visited = s.stats().fdom_filter_cells_visited - visited_before;
        assert!(
            visited < populated,
            "prefix bound degenerated to a full scan: {visited} of {populated} cells"
        );
    }

    #[test]
    fn pareto_filter_is_a_no_op() {
        let mut s = store_10x10();
        assert!(s.insert(0, 0, &[2.5, 7.5]));
        let idx = s.find(&s.grid().cell_of(&[2.5, 7.5])).unwrap();
        let (mut ids, mut points) = s.take_emitted(idx);
        let tests_before = s.stats().dominance_tests;
        s.filter_emitted(&mut ids, &mut points);
        assert_eq!(ids, vec![(0, 0)]);
        assert_eq!(s.stats().dominance_tests, tests_before);
        assert_eq!(s.stats().tuples_fdom_filtered, 0);
    }

    #[test]
    fn take_emitted_marks_the_cell_and_copies_its_tuples() {
        let mut s = store_10x10();
        s.insert(3, 4, &[5.5, 5.5]);
        let idx = s.find(&s.grid().cell_of(&[5.5, 5.5])).unwrap();
        let (ids, points) = s.take_emitted(idx);
        assert_eq!(ids, vec![(3, 4)]);
        assert_eq!(points.len(), 1);
        assert!(s.cell(idx).is_emitted());
        assert_eq!(s.cell(idx).ids(), &[(3, 4)], "emitted tuples stay");
    }

    /// The rows of `forest`, each as its bit pattern, sorted: the forest
    /// keeps no admission order, so rows compare as a multiset.
    fn row_set(forest: &DominanceForest) -> Vec<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = forest.rows().map(bits).collect();
        rows.sort();
        rows
    }

    /// After every publish the forest holds exactly the admitted NaN-free
    /// rows, and a clone taken at an earlier publish still holds exactly
    /// the rows admitted by then. Ties, signed zeros, rounding ties above
    /// 2^53 and both infinities in the mix.
    #[test]
    fn admitted_forest_holds_every_admitted_row() {
        let mut next = rng(0x51AB);
        let big = 2f64.powi(53);
        let values = [
            0.0,
            -0.0,
            1.0,
            2.5,
            big,
            big + 2.0,
            1e308,
            -1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut nan_admitted = false;
        for dims in [1usize, 2, 3] {
            let mut s = square_store(dims, 4);
            let mut admitted: Vec<Vec<u64>> = Vec::new();
            let mut held: Vec<(DominanceForest, Vec<Vec<u64>>)> = Vec::new();
            for round in 0..60u32 {
                for i in 0..next(6) as u32 {
                    let mut row: Vec<f64> = (0..dims)
                        .map(|_| values[next(values.len() as u64) as usize])
                        .collect();
                    // A trade-off between the first and last coordinate
                    // keeps most rows incomparable.
                    row[dims - 1] = -row[0];
                    if s.insert(round, i, &row) {
                        if row.iter().any(|v| v.is_nan()) {
                            nan_admitted = true;
                        } else {
                            admitted.push(bits(&row));
                        }
                    }
                }
                s.publish_admitted();
                admitted.sort();
                let label = format!("dims={dims} round={round}");
                assert_eq!(row_set(s.admitted()), admitted, "{label}");
                assert_eq!(s.admitted().len(), admitted.len(), "{label}");
                if round % 3 == 0 {
                    held.push((s.admitted().clone(), admitted.clone()));
                }
                for (snapshot, rows) in &held {
                    assert_eq!(&row_set(snapshot), rows, "{label}: a held clone moved");
                }
            }
            assert!(
                admitted.len() > 10,
                "dims={dims}: {} admitted",
                admitted.len()
            );
        }
        assert!(nan_admitted, "no NaN row was ever admitted");
    }

    /// The packed full-dominance test against its definition on random
    /// pairs of coordinates, from `d = 1` at `k = 65 535` (one 17-bit
    /// lane) to `d = 8` (eight lanes filling 32 bits), half of them drawn
    /// from each dimension's edge values (`0`, `1`, `k − 2`, `k − 1`, and
    /// `2^15 − 1` / `2^15` where the grid reaches them — a 16-bit lane with
    /// a guard bit inside it would get those wrong at `k = 65 535`).
    #[test]
    fn packed_lanes_compare_like_coordinates() {
        let mut next = rng(0x1A7E5);
        for (dims, k) in [
            (1usize, 65_535u16),
            (1, 40_000),
            (1, 2),
            (2, 1024),
            (3, 101),
            (4, 32),
            (5, 16),
            (6, 10),
            (7, 7),
            (8, 5),
            (8, 1),
        ] {
            let lanes = Lanes::new(dims, k);
            let edges: Vec<u16> = [0, 1, k.saturating_sub(2), k - 1, 0x7FFF, 0x8000]
                .into_iter()
                .filter(|&v| v < k)
                .collect();
            let mut draw = || -> Coord {
                let mut c: Coord = [0; MAX_DIMS];
                for v in &mut c[..dims] {
                    *v = if next(2) == 0 {
                        edges[next(edges.len() as u64) as usize]
                    } else {
                        next(k as u64) as u16
                    };
                }
                c
            };
            for _ in 0..4000 {
                let (a, b) = (draw(), draw());
                let (pa, pb) = (lanes.pack(&a, dims), lanes.pack(&b, dims));
                let label = format!("dims={dims} k={k} {:?} {:?}", &a[..dims], &b[..dims]);
                assert_eq!(
                    lanes.full_dominates(pa, pb),
                    full_dominates(&a, &b, dims),
                    "{label}"
                );
            }
        }
    }

    /// A batch longer than [`FRESH_ROWS`] publishes as it goes, and
    /// rejects against the published rows as against unpublished ones.
    #[test]
    fn long_batches_publish_in_runs() {
        let n = 3 * FRESH_ROWS + 5;
        let mut s = store_10x10();
        // An anti-diagonal: mutually incomparable.
        let row = |i: usize| [i as f64 * 9.0 / n as f64, 9.0 - i as f64 * 9.0 / n as f64];
        for i in 0..n {
            assert!(s.insert(i as u32, 0, &row(i)));
        }
        assert_eq!(s.admitted().len(), 3 * FRESH_ROWS);
        for i in [0, FRESH_ROWS, n - 1] {
            let [a, b] = row(i);
            assert!(!s.insert(i as u32, 1, &[a + 1e-9, b + 1e-9]), "row {i}");
        }
        assert_eq!(s.stats().tuples_rejected_dominated, 3);
        s.publish_admitted();
        assert_eq!(s.admitted().len(), n);
    }

    /// The store's forest answers like a scan of every row it admitted.
    /// Along the value axis — integers above 2^53 whose sums round to ties,
    /// and ±1e308 / ±MAX whose sums overflow to ±∞ — a point is dominated
    /// through the forest exactly when a row of the admission list
    /// dominates it, whatever run or leaf holds that row.
    #[test]
    fn admitted_forest_answers_like_a_scan() {
        let mut next = rng(0xC07);
        let big = 2f64.powi(53);
        let values = [
            0.0,
            -0.0,
            1.0,
            2.0,
            big,
            big + 2.0,
            big + 4.0,
            1e308,
            -1e308,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let (mut dominated, mut free) = (0, 0);
        for case in 0..60 {
            let dims = 1 + case % 4;
            let mut draw = || -> Vec<f64> {
                (0..dims)
                    .map(|_| values[next(values.len() as u64) as usize])
                    .collect()
            };
            let mut s = square_store(dims, 4);
            let mut admitted: Vec<f64> = Vec::new();
            for round in 0..12u32 {
                for i in 0..6 {
                    let row = draw();
                    if s.insert(round, i, &row) {
                        admitted.extend_from_slice(&row);
                    }
                }
                s.publish_admitted();
                for _ in 0..16 {
                    let p = draw();
                    let (mut tests, mut work) = (0, 0);
                    let expected = kernel::any_dominates(dims, &admitted, &p, &mut tests);
                    let label = format!("case {case}: {p:?} against {admitted:?}");
                    assert_eq!(
                        s.admitted().any_dominates(&p, &mut work),
                        expected,
                        "{label}"
                    );
                    dominated += usize::from(expected);
                    free += usize::from(!expected);
                }
            }
        }
        assert!(
            dominated > 500 && free > 500,
            "{dominated} dominated, {free} free"
        );
    }
}
