//! Progressive result determination (Section V, Algorithm 2).
//!
//! Decides *when* the tuples of an output cell are safe to emit. The paper's
//! Principle 1 requires, for a cell `O_h`:
//!
//! 1. all tuples mapping to `O_h` have been generated and compared;
//! 2. every cell that would fully dominate `O_h` is guaranteed empty;
//! 3. no future tuple can land in a cell that partially dominates `O_h`.
//!
//! The paper maintains per-cell lists (`RegCount`, `Dom`, `DomBy`,
//! `Dependent`, `Dependence`) and then replaces them by dedicated counts.
//! We realize the counts per *region* — one integer per cell instead of five
//! lists to keep consistent: an unresolved
//! region `R'` **blocks** cell `c` iff `R'` could still deliver a tuple into
//! some cell `a ⪯ c` — geometrically iff `R'.cell_lo ⪯ c`, since the box
//! cell `aᵢ = min(cᵢ, R'.cell_hiᵢ)` then witnesses the dominator. A single
//! per-cell counter therefore covers all three conditions: condition 2's
//! "populated full dominator" case instead *kills* the cell the moment it is
//! observed (handled in [`crate::cells`]).
//!
//! When the last blocker of a live, non-dead cell resolves, its surviving
//! tuples are final skyline members — they are emitted immediately. The
//! cells one resolution releases are emitted in **ascending grid
//! coordinate** ([`pack`] order, dimension 0 fastest): a property of the
//! cells, not of when the store found which of their neighbours dead.
//!
//! ## Where the counts live
//!
//! The cells a region blocks are the upper box `{c : cell_lo ⪯ c}`. Under
//! Pareto the counts are kept per grid *position* — the very prefix-sum
//! grid the initial counts are computed in; every grid fits
//! [`OutputGrid::DENSE_INDEX_BUDGET`](crate::output_grid::OutputGrid::DENSE_INDEX_BUDGET)
//! positions — and a resolution decrements that box row by row: it pays
//! for the decrements it owes, not for a walk over every cell still
//! waiting. Counting positions needs no cell, so there the store
//! materializes cells on first insert ([`CellStore::materializes_lazily`]).
//! Flexible models (below) block outside the upper box: they keep one
//! count per tracked cell — every cell of every live box, tracked up
//! front — and scan the waiting cells at every resolution.
//!
//! ## Flexible skylines (F-dominance)
//!
//! Under a flexible model (see [`crate::fdom`]) the geometric blocker test
//! above is **incomplete**: an F-dominator may come from a region whose box
//! is Pareto-incomparable to the cell (trade-offs are exactly what weight
//! constraints permit). The blocker relation is therefore strengthened:
//! region `R'` blocks cell `c` iff a tuple of `R'` could *weakly
//! F-dominate* some tuple of `c` — conservatively, iff
//! `vₖ·LOWER(R') ≤ vₖ·upper_corner(c)` at **every** vertex `vₖ` of the
//! weight polytope (weights are non-negative, so the box corners bound the
//! dot products). Component-wise `≤` between vertex projections is exactly
//! weak F-dominance, so blocker counting stays a dominance count — just in
//! projection space. Every Pareto blocker is an F-blocker (unit-vector
//! reasoning), so cells emit no earlier than under Pareto: emission stays
//! no-retraction, merely later. On release the cell's survivors pass
//! [`CellStore::filter_emitted`], which removes F-dominated tuples; by the
//! strengthened counts no unresolved region can still deliver an
//! F-dominator for anything emitted.

use crate::cells::{CellStore, UNTRACKED};
use crate::lookahead::Region;
use crate::output_grid::{dense_position, for_each_upper_box_row, pack, Coord};
use progxe_skyline::PointStore;

/// A batch of tuples proven final, emitted from one cell.
#[derive(Debug)]
pub struct EmittedCell {
    /// Index of the emitting cell in the [`CellStore`].
    pub cell_idx: u32,
    /// `(r_idx, t_idx)` of each emitted tuple.
    pub ids: Vec<(u32, u32)>,
    /// Oriented output values, parallel to `ids`.
    pub points: PointStore,
}

/// Precomputed vertex projections realizing the flexible blocker relation:
/// region `rid` blocks cell `c` iff
/// `region_proj[rid·k ..][j] > cell_proj[c·k ..][j]` at no vertex `j`.
/// Mapped values may reach ±∞, and a projection mixing them is NaN; a NaN
/// proves nothing, so it blocks — a region must block every cell of its
/// own box, or the cell could be released before the region's tuples land.
#[derive(Debug)]
struct FdomBlockerIndex {
    /// Vertices of the weight polytope.
    k: usize,
    /// `regions × k` projections of each region's oriented lower bound.
    region_proj: Vec<f64>,
    /// `cells × k` projections of each cell's oriented upper corner.
    cell_proj: Vec<f64>,
}

impl FdomBlockerIndex {
    #[inline]
    fn blocks(&self, rid: u32, cell_idx: u32) -> bool {
        let r = &self.region_proj[rid as usize * self.k..(rid as usize + 1) * self.k];
        let c = &self.cell_proj[cell_idx as usize * self.k..(cell_idx as usize + 1) * self.k];
        r.iter().zip(c).all(|(&x, &y)| not_above(x, y))
    }
}

/// The flexible blocker test at one vertex: the region's projection is not
/// above the cell's. A NaN proves nothing, so it blocks.
#[inline]
fn not_above(region: f64, cell: f64) -> bool {
    region.partial_cmp(&cell) != Some(std::cmp::Ordering::Greater)
}

/// Leaf size of the blocker-count tree: below this, points are tested
/// directly.
const DOM_TREE_LEAF: usize = 16;

/// Static spatial index over region projections answering *dominance
/// counts* — `|{r : proj(r) ⪯ q component-wise}|` — without touching every
/// region per cell. A balanced kd-tree (median split, cycling coordinate)
/// whose nodes carry the subtree's bounding box and size: a query prunes
/// subtrees whose box minimum already violates `⪯ q`, counts subtrees whose
/// box maximum satisfies it wholesale, and only descends through straddling
/// nodes. This is the generalization of the Pareto dense prefix-sum trick
/// to arbitrary (projection-space) coordinates, replacing the PR 5
/// `O(regions × cells × vertices)` double loop.
///
/// Exactness: leaves test the same `not_above` predicate as
/// [`FdomBlockerIndex::blocks`]; subtree-wide counting is only taken when
/// the box maximum (`all ≤ q`) proves it, and pruning only when the box
/// minimum (`any > q`) does. Subtrees containing a NaN projection take
/// neither shortcut: the box ignores NaN, which blocks — the leaf test
/// gets them right.
#[derive(Debug)]
struct DomCountTree {
    k: usize,
    /// Region projections permuted into tree order (`n × k`).
    pts: Vec<f64>,
    nodes: Vec<DomTreeNode>,
    /// Per-node bounding boxes: `lo` then `hi`, `2k` values per node.
    bbox: Vec<f64>,
    /// Per-node "subtree contains a NaN projection" flag.
    has_nan: Vec<bool>,
}

#[derive(Debug)]
struct DomTreeNode {
    start: u32,
    end: u32,
    /// `u32::MAX` marks a leaf.
    left: u32,
    right: u32,
}

impl DomCountTree {
    fn build(k: usize, src: &[f64]) -> Self {
        let n = src.len() / k;
        let mut tree = Self {
            k,
            pts: Vec::with_capacity(src.len()),
            nodes: Vec::new(),
            bbox: Vec::new(),
            has_nan: Vec::new(),
        };
        if n == 0 {
            return tree;
        }
        let mut idx: Vec<u32> = (0..n as u32).collect();
        tree.build_node(src, &mut idx, 0, 0);
        // Materialize points in tree order so leaves scan contiguously.
        for &r in &idx {
            let row = &src[r as usize * k..(r as usize + 1) * k];
            tree.pts.extend_from_slice(row);
        }
        tree
    }

    /// Builds the subtree over `idx[..]` (a sub-slice whose first element
    /// sits at `base` in the final permutation); returns its node id.
    fn build_node(&mut self, src: &[f64], idx: &mut [u32], base: usize, depth: usize) -> u32 {
        let k = self.k;
        let ni = self.nodes.len() as u32;
        self.nodes.push(DomTreeNode {
            start: base as u32,
            end: (base + idx.len()) as u32,
            left: u32::MAX,
            right: u32::MAX,
        });
        // Bounding box + NaN flag over the range.
        let lo_at = self.bbox.len();
        self.bbox
            .extend_from_slice(&src[idx[0] as usize * k..(idx[0] as usize + 1) * k]);
        self.bbox
            .extend_from_slice(&src[idx[0] as usize * k..(idx[0] as usize + 1) * k]);
        let mut nan = false;
        for &r in idx.iter() {
            let row = &src[r as usize * k..(r as usize + 1) * k];
            for (j, &v) in row.iter().enumerate() {
                nan |= v.is_nan();
                self.bbox[lo_at + j] = self.bbox[lo_at + j].min(v);
                self.bbox[lo_at + k + j] = self.bbox[lo_at + k + j].max(v);
            }
        }
        self.has_nan.push(nan);
        if idx.len() > DOM_TREE_LEAF {
            let dim = depth % k;
            let mid = idx.len() / 2;
            idx.select_nth_unstable_by(mid, |&a, &b| {
                src[a as usize * k + dim].total_cmp(&src[b as usize * k + dim])
            });
            let (lo_half, hi_half) = idx.split_at_mut(mid);
            let left = self.build_node(src, lo_half, base, depth + 1);
            let right = self.build_node(src, hi_half, base + mid, depth + 1);
            self.nodes[ni as usize].left = left;
            self.nodes[ni as usize].right = right;
        }
        ni
    }

    /// Counts stored points `p` with `p ⪯ q` component-wise. `ops` advances
    /// by nodes visited plus leaf points tested (the measured counterpart
    /// of the naive loop's `regions` per query).
    fn count_dominated(&self, q: &[f64], ops: &mut u64) -> u32 {
        if self.nodes.is_empty() {
            return 0;
        }
        self.count_node(0, q, ops)
    }

    fn count_node(&self, ni: u32, q: &[f64], ops: &mut u64) -> u32 {
        *ops += 1;
        let k = self.k;
        let node = &self.nodes[ni as usize];
        let bb = &self.bbox[ni as usize * 2 * k..(ni as usize + 1) * 2 * k];
        let (lo, hi) = bb.split_at(k);
        if !self.has_nan[ni as usize] && lo.iter().zip(q).any(|(l, qv)| l > qv) {
            return 0;
        }
        if !self.has_nan[ni as usize] && hi.iter().zip(q).all(|(h, qv)| h <= qv) {
            return node.end - node.start;
        }
        if node.left == u32::MAX {
            let mut c = 0u32;
            for r in node.start..node.end {
                *ops += 1;
                let p = &self.pts[r as usize * k..(r as usize + 1) * k];
                if p.iter().zip(q).all(|(&x, &y)| not_above(x, y)) {
                    c += 1;
                }
            }
            return c;
        }
        self.count_node(node.left, q, ops) + self.count_node(node.right, q, ops)
    }
}

/// Count-based progressive-determination state.
#[derive(Debug)]
pub struct ProgDetermine {
    blockers: Blockers,
    /// Work (tree nodes visited + leaf points tested) spent computing the
    /// initial flexible blocker counts; `0` under Pareto. The retired naive
    /// loop costs `regions × cells` — benches assert this stays far below.
    flexible_blocker_ops: u64,
    emitted_cells: usize,
    emitted_tuples: usize,
    /// Reused per-resolution buffer: the cells the resolution releases.
    released: Vec<u32>,
}

/// Where the blocker counts live — chosen once, by the model.
#[derive(Debug)]
enum Blockers {
    /// Pareto — where the store materializes cells on first insert
    /// ([`CellStore::materializes_lazily`]): the prefix-sum grid the
    /// initial counts come from *is* the store. A resolution decrements
    /// the region's upper box `{c : cell_lo ⪯ c}` row by row — cost
    /// proportional to the decrements it owes, whatever is materialized,
    /// dead or already released. Which cell sits at a
    /// position is the [`CellStore`]'s own dense index.
    Dense {
        /// Unresolved regions with `cell_lo ⪯ c`, per grid position
        /// ([`dense_position`]) — materialized or not.
        counts: Vec<u32>,
    },
    /// Flexible models (blocking is not an upper box in grid coordinates):
    /// one count per tracked cell — all tracked before this is built — and
    /// a scan of the cells still waiting at every resolution.
    Scan {
        /// Blocker count per tracked cell (parallel to the cell store);
        /// no longer maintained once the cell is dead.
        counts: Vec<u32>,
        /// Cells not yet released or seen dead.
        live: Vec<u32>,
        /// The blocker geometry. The same projections decide both the
        /// initial counts and every decrement, so the two can never
        /// disagree.
        fdom: FdomBlockerIndex,
    },
}

/// `|{R : R.cell_lo ⪯ c}|` for every position `c` of a `k^dims` grid, in
/// `O(k^dims · dims + regions)`: each region's box corner is scattered into
/// the grid and a prefix sum runs along every dimension.
fn dense_blocker_counts(regions: &[Region], dims: usize, k: usize) -> Vec<u32> {
    let mut dense = vec![0u32; k.pow(dims as u32)];
    for region in regions {
        dense[dense_position(&region.cell_lo, dims, k)] += 1;
    }
    // After dimension `d`'s pass, dense[c] counts regions with lo ⪯ c on
    // dims 0..=d.
    let mut stride = 1usize;
    for _ in 0..dims {
        #[allow(clippy::manual_is_multiple_of)] // `% k > 0` reads as "coord_d > 0"
        for i in 0..dense.len() {
            if (i / stride) % k > 0 {
                dense[i] += dense[i - stride];
            }
        }
        stride *= k;
    }
    dense
}

impl ProgDetermine {
    /// Computes initial blocker counts and picks where they are kept, by
    /// the store's model (see the module docs). Under Pareto
    /// `blockers(c) = |{R : R.cell_lo ⪯ c}|` is a d-dimensional dominance
    /// count, computed by prefix sums over the grid. The scan arm counts
    /// the store's tracked cells, so they must all be tracked by now.
    pub fn new(store: &CellStore, regions: &[Region]) -> Self {
        let (blockers, flexible_blocker_ops) = match store.model().as_flexible() {
            None => {
                let grid = store.grid();
                let k = grid.cells_per_dim() as usize;
                let counts = dense_blocker_counts(regions, grid.dims(), k);
                (Blockers::Dense { counts }, 0)
            }
            Some(fdom) => Self::flexible_blockers(store, regions, fdom),
        };
        Self {
            blockers,
            flexible_blocker_ops,
            emitted_cells: 0,
            emitted_tuples: 0,
            released: Vec::new(),
        }
    }

    /// Flexible model: blockers are counted in vertex-projection space (see
    /// the module docs) — blocking is no longer `cell_lo ⪯ c`, so neither
    /// the prefix sums nor the upper-box decrement apply. Returns the
    /// blockers and the work the initial counts cost.
    fn flexible_blockers(
        store: &CellStore,
        regions: &[Region],
        fdom: &crate::fdom::FDominance,
    ) -> (Blockers, u64) {
        let k = fdom.vertex_count();
        let mut region_proj = Vec::with_capacity(regions.len() * k);
        let mut buf = Vec::with_capacity(k);
        for (i, region) in regions.iter().enumerate() {
            // `blocks()` is indexed by `region.id` (that is what
            // `resolve_region` receives), so the slice must be densely
            // id-ordered — enforced here in release builds too, since a
            // mismatch would silently corrupt blocker counts.
            assert_eq!(
                region.id as usize, i,
                "ProgDetermine requires regions in dense id order"
            );
            fdom.project_into(&region.lo, &mut buf);
            region_proj.extend_from_slice(&buf);
        }
        let mut cell_proj = Vec::with_capacity(store.len() * k);
        let mut corner = Vec::new();
        for (_, cell) in store.iter() {
            store.grid().upper_corner_into(cell.coord(), &mut corner);
            fdom.project_into(&corner, &mut buf);
            cell_proj.extend_from_slice(&buf);
        }
        let index = FdomBlockerIndex {
            k,
            region_proj,
            cell_proj,
        };
        // Initial counts are dominance counts in projection space; answer
        // each cell's query through a kd-tree over the region projections
        // instead of the retired `regions × cells × k` double loop.
        // Decrements in `resolve_region` still use `index.blocks` — the
        // tree and the predicate share the same projections, so the counts
        // cannot disagree.
        let tree = DomCountTree::build(k, &index.region_proj);
        let mut counts = vec![0u32; store.len()];
        let mut ops = 0u64;
        for (idx, _) in store.iter() {
            let q = &index.cell_proj[idx as usize * k..(idx as usize + 1) * k];
            counts[idx as usize] = tree.count_dominated(q, &mut ops);
        }
        let blockers = Blockers::Scan {
            counts,
            live: Self::undead_cells(store),
            fdom: index,
        };
        (blockers, ops)
    }

    fn undead_cells(store: &CellStore) -> Vec<u32> {
        store
            .iter()
            .filter(|(_, c)| !c.is_dead())
            .map(|(i, _)| i)
            .collect()
    }

    /// Current blocker count of a cell (diagnostics and the live-cell count): the
    /// unresolved regions that block it. Only meaningful while the cell is
    /// not dead — the scan arm stops counting for a cell it has seen dead.
    #[inline]
    pub fn blockers_of(&self, store: &CellStore, cell_idx: u32) -> u32 {
        match &self.blockers {
            Blockers::Dense { counts } => {
                let grid = store.grid();
                let k = grid.cells_per_dim() as usize;
                counts[dense_position(store.cell(cell_idx).coord(), grid.dims(), k)]
            }
            Blockers::Scan { counts, .. } => counts[cell_idx as usize],
        }
    }

    /// Work spent on the initial flexible blocker counts (kd-tree node
    /// visits plus leaf point tests); `0` under Pareto. Benches compare
    /// this against the `regions × cells` cost of the retired naive loop.
    pub fn flexible_blocker_ops(&self) -> u64 {
        self.flexible_blocker_ops
    }

    /// Cells emitted so far.
    pub fn emitted_cells(&self) -> usize {
        self.emitted_cells
    }

    /// Tuples emitted so far.
    pub fn emitted_tuples(&self) -> usize {
        self.emitted_tuples
    }

    /// Cells still awaiting blockers (diagnostics): zero once every region
    /// is resolved. Before that the arms count dead cells differently —
    /// the dense arm until their last blocker resolves, the scan arm until
    /// a resolution first sees them dead.
    pub fn live_cells(&self, store: &CellStore) -> usize {
        match &self.blockers {
            Blockers::Dense { .. } => store
                .iter()
                .filter(|&(idx, _)| self.blockers_of(store, idx) > 0)
                .count(),
            Blockers::Scan { live, .. } => live.len(),
        }
    }

    /// Whether a tuple may still land at grid position `coord`: an
    /// unresolved region blocks it, so nothing there has been released —
    /// the box invariant emission rests on, checked by the committer for
    /// every tuple it inserts. A tuple landing where this is `false` would
    /// never be emitted. On the scan arm a position without a tracked cell
    /// has no blocker, and a dead cell's stale count is no concern (it
    /// rejects every tuple).
    pub(crate) fn awaits_tuples_at(&self, store: &CellStore, coord: &Coord) -> bool {
        match &self.blockers {
            Blockers::Dense { counts } => {
                let grid = store.grid();
                counts[dense_position(coord, grid.dims(), grid.cells_per_dim() as usize)] > 0
            }
            Blockers::Scan { counts, .. } => store
                .find(coord)
                .is_some_and(|idx| store.cell(idx).is_dead() || counts[idx as usize] > 0),
        }
    }

    /// Resolves one region — processed *or* discarded — decrementing the
    /// blocker count of every cell it blocks. Cells whose count reaches
    /// zero are finalized: dead cells are dropped, all others emit their
    /// surviving tuples into `out`, **in ascending grid coordinate**
    /// ([`pack`] order, dimension 0 fastest) — a property of the cells
    /// released, not of how or when the store got to know them.
    ///
    /// Must be called exactly once per region, *after* the region's tuples
    /// (if any) have been inserted into `store`.
    pub fn resolve_region(
        &mut self,
        region: &Region,
        store: &mut CellStore,
        out: &mut Vec<EmittedCell>,
    ) {
        let mut released = std::mem::take(&mut self.released);
        match &mut self.blockers {
            Blockers::Dense { counts } => {
                let (dims, k) = (store.grid().dims(), store.grid().cells_per_dim() as usize);
                let cell_at = store.dense_index();
                // Ascending rows of ascending positions: `released` comes
                // out in coordinate order.
                for_each_upper_box_row(&region.cell_lo, dims, k, |row| {
                    // Branch-free so the row vectorizes; most rows free
                    // nothing.
                    let mut any_freed = false;
                    for count in &mut counts[row.clone()] {
                        debug_assert!(*count > 0, "blocker underflow in grid row {row:?}");
                        *count -= 1;
                        any_freed |= *count == 0;
                    }
                    if !any_freed {
                        return;
                    }
                    // Every position of an unresolved region's upper box
                    // counted that region, so a zero here is a fresh one.
                    for pos in row {
                        let idx = cell_at[pos];
                        if counts[pos] == 0 && idx != UNTRACKED && !store.cell(idx).is_dead() {
                            released.push(idx);
                        }
                    }
                });
            }
            Blockers::Scan { counts, live, fdom } => {
                let mut i = 0;
                while i < live.len() {
                    let idx = live[i];
                    let cell = store.cell(idx);
                    // Dead cells can be retired regardless of their counts.
                    if cell.is_dead() {
                        live.swap_remove(i);
                        continue;
                    }
                    // The decrement predicate must be *identical* to the
                    // one the initial counts were computed with.
                    if !fdom.blocks(region.id, idx) {
                        i += 1;
                        continue;
                    }
                    let count = &mut counts[idx as usize];
                    debug_assert!(*count > 0, "blocker underflow on cell {idx}");
                    *count -= 1;
                    if *count == 0 {
                        live.swap_remove(i);
                        released.push(idx);
                    } else {
                        i += 1;
                    }
                }
                // `live` is in `swap_remove` history order; the release
                // order is the dense arm's.
                released.sort_unstable_by_key(|&idx| pack(store.cell(idx).coord()));
            }
        }
        for idx in released.drain(..) {
            let (mut ids, mut points) = store.take_emitted(idx);
            // Flexible model: drop F-dominated survivors (no-op under
            // Pareto). Everything that could still F-dominate them is
            // already in the store — that is what the strengthened
            // blocker counts guarantee.
            store.filter_emitted(&mut ids, &mut points);
            if !ids.is_empty() {
                self.emitted_cells += 1;
                self.emitted_tuples += ids.len();
                out.push(EmittedCell {
                    cell_idx: idx,
                    ids,
                    points,
                });
            }
        }
        self.released = released;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookahead::{track_cells, Lookahead};
    use crate::output_grid::{weak_leq, OutputGrid, MAX_DIMS};

    fn coord(x: u16, y: u16) -> Coord {
        let mut c: Coord = [0; MAX_DIMS];
        c[0] = x;
        c[1] = y;
        c
    }

    /// Region with the given inclusive cell box (other fields immaterial).
    fn region(id: u32, lo: (u16, u16), hi: (u16, u16)) -> Region {
        Region {
            id,
            r_part: 0,
            t_part: 0,
            lo: vec![lo.0 as f64, lo.1 as f64],
            hi: vec![hi.0 as f64 + 1.0, hi.1 as f64 + 1.0],
            cell_lo: coord(lo.0, lo.1),
            cell_hi: coord(hi.0, hi.1),
            n_r: 1,
            n_t: 1,
            guaranteed: true,
        }
    }

    fn store_with_regions(regions: &[Region]) -> CellStore {
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::new(grid.clone());
        for r in regions {
            for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                store.track(c);
            }
        }
        store
    }

    #[test]
    fn initial_blockers_count_shadowing_regions() {
        // Region A at (0,0)-(1,1); region B at (2,2)-(3,3). A's shadow
        // covers B's cells; B's shadow does not reach A's.
        let a = region(0, (0, 0), (1, 1));
        let b = region(1, (2, 2), (3, 3));
        let store = store_with_regions(&[a.clone(), b.clone()]);
        let det = ProgDetermine::new(&store, &[a, b]);
        let a_cell = store.find(&coord(0, 0)).unwrap();
        let b_cell = store.find(&coord(2, 2)).unwrap();
        assert_eq!(
            det.blockers_of(&store, a_cell),
            1,
            "A's cells blocked only by A"
        );
        assert_eq!(
            det.blockers_of(&store, b_cell),
            2,
            "B's cells blocked by both"
        );
    }

    #[test]
    fn cells_emit_when_last_blocker_resolves() {
        // B sits directly "above" A in dim 1, sharing dim-0 columns: A's
        // cells can partially (not fully) dominate B's, so B's cells stay
        // alive but must wait for both regions.
        let a = region(0, (0, 0), (1, 1));
        let b = region(1, (0, 3), (1, 4));
        let regions = [a.clone(), b.clone()];
        let mut store = store_with_regions(&regions);
        let mut det = ProgDetermine::new(&store, &regions);
        let b_cell = store.find(&coord(0, 3)).unwrap();
        assert_eq!(det.blockers_of(&store, b_cell), 2, "blocked by A and B");

        // A's tuple does not dominate B's (trade-off in dim 0).
        assert!(store.insert(0, 0, &[0.9, 0.5]));
        assert!(store.insert(1, 1, &[0.5, 3.5]));
        let mut out = Vec::new();
        det.resolve_region(&a, &mut store, &mut out);
        // A's own cells emit now (blockers 1→0); B's cells drop to 1.
        assert!(out.iter().any(|e| e.ids.contains(&(0, 0))));
        assert_eq!(det.blockers_of(&store, b_cell), 1);
        assert!(!out.iter().any(|e| e.ids.contains(&(1, 1))), "B not ready");

        out.clear();
        det.resolve_region(&b, &mut store, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ids, vec![(1, 1)]);
    }

    #[test]
    fn dead_region_box_never_emits_dominated_tuples() {
        let a = region(0, (0, 0), (1, 1));
        let b = region(1, (2, 2), (3, 3));
        let regions = [a.clone(), b.clone()];
        let mut store = store_with_regions(&regions);
        let mut det = ProgDetermine::new(&store, &regions);
        // A's tuple fully dominates B's whole box; B's tuple is rejected.
        assert!(store.insert(0, 0, &[0.5, 0.5]));
        assert!(!store.insert(1, 1, &[2.5, 2.4]));
        let mut out = Vec::new();
        det.resolve_region(&a, &mut store, &mut out);
        assert!(out.iter().any(|e| e.ids.contains(&(0, 0))));
        out.clear();
        det.resolve_region(&b, &mut store, &mut out);
        assert!(out.is_empty(), "B's box is dead — nothing to emit");
    }

    #[test]
    fn non_overlapping_regions_emit_independently() {
        // A at rows 0-1, cols 0-1; B shares no shadow: place B down-left?
        // In 2-d any two boxes interact unless separated on both axes in
        // opposite directions: put A at (0,8)-(1,9), B at (8,0)-(9,1).
        let a = region(0, (0, 8), (1, 9));
        let b = region(1, (8, 0), (9, 1));
        let regions = [a.clone(), b.clone()];
        let mut store = store_with_regions(&regions);
        let mut det = ProgDetermine::new(&store, &regions);
        let a_cell = store.find(&coord(0, 8)).unwrap();
        let b_cell = store.find(&coord(8, 0)).unwrap();
        assert_eq!(det.blockers_of(&store, a_cell), 1);
        assert_eq!(det.blockers_of(&store, b_cell), 1);

        assert!(store.insert(7, 7, &[8.5, 0.5])); // B's box
        let mut out = Vec::new();
        det.resolve_region(&b, &mut store, &mut out);
        assert_eq!(out.len(), 1, "B emits immediately, before A resolves");
        assert_eq!(out[0].ids, vec![(7, 7)]);
    }

    #[test]
    fn dead_cells_never_emit() {
        let a = region(0, (0, 0), (9, 9));
        let regions = [a.clone()];
        let mut store = store_with_regions(&regions);
        let mut det = ProgDetermine::new(&store, &regions);
        assert!(store.insert(0, 0, &[0.5, 0.5]));
        assert!(!store.insert(1, 1, &[5.5, 5.5]), "killed by full dominance");
        let mut out = Vec::new();
        det.resolve_region(&a, &mut store, &mut out);
        let all: Vec<(u32, u32)> = out.iter().flat_map(|e| e.ids.iter().copied()).collect();
        assert_eq!(all, vec![(0, 0)]);
    }

    #[test]
    fn flexible_model_blocks_across_pareto_incomparable_boxes() {
        use crate::fdom::{DominanceModel, FDominance, WeightConstraint};
        use crate::output_grid::OutputGrid;
        // A at cells (0,8)-(1,9), B at (8,0)-(9,1): Pareto-independent
        // (each emits without waiting for the other — see
        // `non_overlapping_regions_emit_independently`). Under weights
        // confined to w₀ ∈ [0.45, 0.55] a tuple of A *can* F-dominate a
        // tuple of B — (0.5, 8.5) scores {4.9, 4.1} at the two vertices
        // against (9.5, 1.5)'s {5.1, 5.9} — so under the flexible model
        // B's cells must additionally wait for A.
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.45),
                WeightConstraint::at_most(2, 0, 0.55),
            ],
        )
        .unwrap();
        let a = region(0, (0, 8), (1, 9));
        let b = region(1, (8, 0), (9, 1));
        let regions = [a.clone(), b.clone()];
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::with_model(grid.clone(), DominanceModel::flexible(fdom));
        for r in &regions {
            for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                store.track(c);
            }
        }
        let mut det = ProgDetermine::new(&store, &regions);
        let b_cell = store.find(&coord(8, 0)).unwrap();
        assert_eq!(
            det.blockers_of(&store, b_cell),
            2,
            "flexible model: A must block B's best cell"
        );

        // B's tuple is F-dominated by A's; emission must reflect that.
        assert!(store.insert(0, 0, &[0.5, 8.5])); // region A's box
        assert!(store.insert(1, 1, &[9.5, 1.5])); // region B's box
        let mut out = Vec::new();
        det.resolve_region(&b, &mut store, &mut out);
        assert!(out.is_empty(), "B's cells still wait for A");
        det.resolve_region(&a, &mut store, &mut out);
        let emitted: Vec<(u32, u32)> = out.iter().flat_map(|e| e.ids.iter().copied()).collect();
        assert!(emitted.contains(&(0, 0)), "A's tuple is F-optimal");
        assert!(
            !emitted.contains(&(1, 1)),
            "B's tuple is F-dominated by A's and must be filtered"
        );
    }

    #[test]
    fn dense_prefix_blockers_match_brute_force() {
        // Pseudo-random overlapping regions; dense prefix counts must equal
        // the definition |{R : R.cell_lo ⪯ c}| for every tracked cell.
        let mut regions = Vec::new();
        let mut x: u64 = 12345;
        let mut next = |m: u16| -> u16 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m as u64) as u16
        };
        for id in 0..17u32 {
            let lo = (next(8), next(8));
            let hi = (lo.0 + next(3), lo.1 + next(3));
            regions.push(region(id, lo, hi));
        }
        let store = store_with_regions(&regions);
        let det = ProgDetermine::new(&store, &regions);
        for (idx, cell) in store.iter() {
            let expected = regions
                .iter()
                .filter(|r| crate::output_grid::weak_leq(&r.cell_lo, cell.coord(), 2))
                .count() as u32;
            assert_eq!(
                det.blockers_of(&store, idx),
                expected,
                "cell {:?}",
                &cell.coord()[..2]
            );
        }
    }

    /// The dense arm over a lazily materializing store against the
    /// definition, one resolution at a time: a resolution releases exactly
    /// the materialized, non-dead, unreleased cells no unresolved region
    /// blocks (`cell_lo ⪯ c`), in ascending coordinate. Random overlapping
    /// regions for d = 1..4 — several sharing one `cell_lo`, boxes leaving
    /// grid positions uncovered, cells pre-marked dead by a pessimistic
    /// skyline point as they materialize — resolved in random order with
    /// inserts in between (so cells are materialized, populated, killed
    /// eagerly and found dead lazily between resolutions).
    #[test]
    fn dense_arm_releases_exactly_the_unblocked_cells() {
        let mut x: u64 = 0xD1FF;
        let mut next = |m: u64| -> u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let mut released_populated = 0usize;
        let mut dropped_dead = 0usize;
        let (mut materialized, mut covered, mut premarked) = (0, 0, 0);
        for (dims, k) in [
            (1usize, 1u16),
            (1, 12),
            (2, 7),
            (3, 5),
            (4, 4),
            (2, 7),
            (3, 5),
        ] {
            let grid = OutputGrid::new(vec![0.0; dims], vec![k as f64; dims], k);
            let mut regions: Vec<Region> = Vec::new();
            for id in 0..14u32 {
                let mut cell_lo: Coord = [0; MAX_DIMS];
                let mut cell_hi: Coord = [0; MAX_DIMS];
                for d in 0..dims {
                    cell_lo[d] = next(k as u64) as u16;
                    cell_hi[d] = (cell_lo[d] + next(3) as u16).min(k - 1);
                }
                if id % 3 == 2 {
                    // Same best cell as an earlier region, own extent.
                    let earlier = &regions[next(id as u64) as usize];
                    for (hi, &lo) in cell_hi.iter_mut().zip(&earlier.cell_lo) {
                        *hi = (*hi).max(lo);
                    }
                    cell_lo = earlier.cell_lo;
                }
                regions.push(Region {
                    id,
                    r_part: 0,
                    t_part: 0,
                    lo: cell_lo[..dims].iter().map(|&v| v as f64).collect(),
                    hi: cell_hi[..dims].iter().map(|&v| v as f64 + 1.0).collect(),
                    cell_lo,
                    cell_hi,
                    n_r: 1,
                    n_t: 1,
                    guaranteed: true,
                });
            }
            let mut top: Coord = [0; MAX_DIMS];
            top[..dims].fill(k - 1);
            let positions: Vec<Coord> = grid.iter_box([0; MAX_DIMS], top).collect();
            covered += positions
                .iter()
                .filter(|c| {
                    regions
                        .iter()
                        .any(|r| weak_leq(&r.cell_lo, c, dims) && weak_leq(c, &r.cell_hi, dims))
                })
                .count();
            // A pessimistic skyline point somewhere in the grid: cells above
            // it are pre-marked dead as they materialize.
            let pessimistic: Vec<f64> = (0..dims).map(|_| next(k as u64) as f64 + 0.5).collect();
            let la = Lookahead {
                grid: grid.clone(),
                regions: regions.clone(),
                pairs_rejected_by_signature: 0,
                regions_pruned: 0,
                pessimistic_skyline: pessimistic,
            };
            let mut store = CellStore::new(grid.clone());
            assert_eq!(track_cells(&la, &mut store), 0);
            assert!(store.is_empty());
            let mut det = ProgDetermine::new(&store, &regions);
            assert!(matches!(det.blockers, Blockers::Dense { .. }));

            let mut unresolved: Vec<u32> = (0..regions.len() as u32).collect();
            let mut released_before: Vec<u32> = Vec::new();
            let mut tuple = 0u32;
            while !unresolved.is_empty() {
                // A few tuples out of unresolved regions' boxes — the only
                // cells a tuple can still arrive in.
                for _ in 0..next(4) {
                    let from =
                        &regions[unresolved[next(unresolved.len() as u64) as usize] as usize];
                    let p: Vec<f64> = (0..dims)
                        .map(|d| {
                            let span = (from.cell_hi[d] - from.cell_lo[d]) as u64 + 1;
                            (from.cell_lo[d] as u64 + next(span)) as f64 + next(100) as f64 / 100.0
                        })
                        .collect();
                    assert!(det.awaits_tuples_at(&store, &grid.cell_of(&p)));
                    tuple += 1;
                    store.insert(tuple, tuple, &p);
                }
                let rid = unresolved.swap_remove(next(unresolved.len() as u64) as usize);
                let mut out = Vec::new();
                det.resolve_region(&regions[rid as usize], &mut store, &mut out);

                let label = format!("dims={dims} k={k} after region {rid}");
                let blocking = |c: &Coord| {
                    unresolved
                        .iter()
                        .filter(|&&r| weak_leq(&regions[r as usize].cell_lo, c, dims))
                        .count() as u32
                };
                // By definition: every materialized cell that is not dead,
                // not released before, and blocked by nobody.
                let mut expected: Vec<u32> = store
                    .iter()
                    .filter(|&(idx, cell)| {
                        !cell.is_dead()
                            && !released_before.contains(&idx)
                            && blocking(cell.coord()) == 0
                    })
                    .map(|(idx, _)| idx)
                    .collect();
                expected.sort_unstable_by_key(|&idx| pack(store.cell(idx).coord()));
                let emitting: Vec<u32> = expected
                    .iter()
                    .copied()
                    .filter(|&idx| !store.cell(idx).is_empty())
                    .collect();
                let got: Vec<u32> = out.iter().map(|e| e.cell_idx).collect();
                assert_eq!(got, emitting, "{label}");
                for e in &out {
                    assert_eq!(e.ids, store.cell(e.cell_idx).ids(), "{label}");
                }
                released_before.extend(&expected);
                released_populated += out.len();
                for c in &positions {
                    let blockers = blocking(c);
                    assert_eq!(
                        det.awaits_tuples_at(&store, c),
                        blockers > 0,
                        "{label} {c:?}"
                    );
                    if let Some(idx) = store.find(c) {
                        assert_eq!(det.blockers_of(&store, idx), blockers, "{label} {c:?}");
                        assert_eq!(
                            store.cell(idx).is_emitted(),
                            released_before.contains(&idx),
                            "{label} {c:?}"
                        );
                    }
                }
            }
            assert_eq!(det.live_cells(&store), 0);
            let emitted: usize = store
                .iter()
                .filter(|(_, c)| c.is_emitted())
                .map(|(_, c)| c.len())
                .sum();
            assert_eq!(det.emitted_tuples(), emitted);
            premarked += store.stats().cells_premarked_dead;
            materialized += store.len();
            dropped_dead += store
                .iter()
                .filter(|(_, c)| c.is_dead() && !c.is_emitted())
                .count();
        }
        assert!(materialized < covered, "{materialized} of {covered}");
        assert!(premarked > 0);
        assert!(released_populated > 20, "{released_populated}");
        assert!(dropped_dead > 10, "{dropped_dead}");
    }

    #[test]
    fn dom_count_tree_matches_brute_force() {
        // Pseudo-random point sets (coarse grid → plenty of ties and
        // duplicates) across dims and sizes spanning the leaf threshold.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % 16) as f64 * 0.25
        };
        for k in [1usize, 2, 3, 5] {
            for n in [0usize, 1, 7, 16, 17, 64, 257] {
                let pts: Vec<f64> = (0..n * k).map(|_| next()).collect();
                let tree = DomCountTree::build(k, &pts);
                for _ in 0..40 {
                    let q: Vec<f64> = (0..k).map(|_| next()).collect();
                    let expected = pts
                        .chunks_exact(k.max(1))
                        .filter(|p| p.iter().zip(&q).all(|(a, b)| a <= b))
                        .count() as u32;
                    let mut ops = 0u64;
                    assert_eq!(
                        tree.count_dominated(&q, &mut ops),
                        expected,
                        "k={k} n={n} q={q:?}"
                    );
                }
            }
        }
    }

    /// A NaN lane proves nothing, so it blocks whatever the query holds
    /// there, and neither shortcut may skip a subtree holding one — the
    /// box ignores NaN.
    #[test]
    fn dom_count_tree_counts_nan_points_as_blocking() {
        let k = 2;
        let mut pts = Vec::new();
        for i in 0..40 {
            pts.push(i as f64 * 0.1);
            pts.push(if i % 7 == 0 { f64::NAN } else { 1.0 });
        }
        let tree = DomCountTree::build(k, &pts);
        for q in [[100.0, 100.0], [100.0, 0.5], [-1.0, 100.0], [f64::NAN, 0.5]] {
            let expected = pts
                .chunks_exact(k)
                .filter(|p| p.iter().zip(&q).all(|(&a, &b)| not_above(a, b)))
                .count() as u32;
            let mut ops = 0;
            assert_eq!(tree.count_dominated(&q, &mut ops), expected, "{q:?}");
        }
        let mut ops = 0;
        assert_eq!(
            tree.count_dominated(&[100.0, 0.5], &mut ops),
            6,
            "the NaN points"
        );
    }

    #[test]
    fn flexible_blocker_ops_beat_naive_loop() {
        use crate::fdom::{DominanceModel, FDominance, WeightConstraint};
        use crate::output_grid::OutputGrid;
        // Many regions × many cells: the kd-tree must do asymptotically
        // less work than the retired regions × cells double loop while
        // producing identical counts (checked against `index.blocks` via
        // the definition).
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.3),
                WeightConstraint::at_most(2, 0, 0.7),
            ],
        )
        .unwrap();
        let mut x: u64 = 7;
        let mut next = |m: u16| -> u16 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m as u64) as u16
        };
        let mut regions = Vec::new();
        for id in 0..200u32 {
            let lo = (next(9), next(9));
            regions.push(region(id, lo, (lo.0 + next(2), lo.1 + next(2))));
        }
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::with_model(grid.clone(), DominanceModel::flexible(fdom));
        for r in &regions {
            for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                store.track(c);
            }
        }
        let det = ProgDetermine::new(&store, &regions);
        let naive_ops = regions.len() as u64 * store.len() as u64;
        assert!(
            det.flexible_blocker_ops() < naive_ops / 2,
            "tree ops {} not beating naive {}",
            det.flexible_blocker_ops(),
            naive_ops
        );
        // Counts must equal the decrement predicate's brute-force totals.
        let Blockers::Scan { fdom: index, .. } = &det.blockers else {
            panic!("flexible models count on the scan arm");
        };
        for (idx, _) in store.iter() {
            let expected = (0..regions.len() as u32)
                .filter(|&rid| index.blocks(rid, idx))
                .count() as u32;
            assert_eq!(det.blockers_of(&store, idx), expected, "cell {idx}");
        }
    }

    #[test]
    fn emitted_counters_accumulate() {
        let a = region(0, (0, 0), (0, 0));
        let regions = [a.clone()];
        let mut store = store_with_regions(&regions);
        let mut det = ProgDetermine::new(&store, &regions);
        store.insert(0, 0, &[0.2, 0.3]);
        store.insert(1, 1, &[0.3, 0.2]);
        let mut out = Vec::new();
        det.resolve_region(&a, &mut store, &mut out);
        assert_eq!(det.emitted_cells(), 1);
        assert_eq!(det.emitted_tuples(), 2);
        assert_eq!(det.live_cells(&store), 0);
    }
}
