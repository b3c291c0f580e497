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
//! When the last blocker of a live, non-dead cell resolves, no tuple still
//! to come can dominate its members: those no admitted tuple dominates
//! are final skyline members, and they are emitted immediately
//! ([`CellStore::take_emitted`] drops the rest). The cells one resolution
//! releases are emitted in **ascending grid coordinate** ([`pack`] order,
//! dimension 0 fastest): a property of the cells, not of when the store
//! found which of their neighbours dead.
//!
//! ## Where the counts live
//!
//! Blocking is a dominance test between *keys*: region `R'` blocks cell `c`
//! iff `key(R') ⪯ key(c)` on every lane, where a NaN lane proves nothing
//! and so blocks. The model picks the keys (`DominanceModel::push_region_key`
//! and `push_cell_key`):
//! under Pareto a region's `cell_lo` against the cell's grid coordinate,
//! under a flexible model the vertex projections below. Everything else is
//! one structure for both:
//!
//! * A cell gets a count when it materializes — on its first insert
//!   ([`CellStore::insert`]) — and not before: the number of unresolved
//!   regions that block it, a dominance count over the region keys that a
//!   kd-tree (`DomCountTree`) answers, with resolved regions taken out of
//!   its per-node live counts.
//! * A resolution walks the cells still waiting (count above zero),
//!   decrements each one the region blocks, and releases those that reach
//!   zero and are not dead. It pays per materialized cell, never per grid
//!   position.
//! * A dead cell keeps its count until it reaches zero, so
//!   the committer's check (`awaits_tuples_at`) is exact for
//!   every position: a count above zero for a materialized cell, the live
//!   count of its key for any other.
//!
//! Pareto keys are grid coordinates, not value-space corners: a region
//! whose lower bound sits exactly on a cell's upper boundary lands in the
//! next cell, and a value-space test would count it as a blocker anyway.
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

use crate::cells::CellStore;
use crate::lookahead::Region;
use crate::output_grid::{pack, Coord};
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

/// The blocker test on one lane: the region's key is not above the cell's.
/// Mapped values may reach ±∞, and a projection mixing them is NaN; a NaN
/// proves nothing, so it blocks — a region must block every cell of its
/// own box, or the cell could be released before the region's tuples land.
#[inline]
fn not_above(region: f64, cell: f64) -> bool {
    region.partial_cmp(&cell) != Some(std::cmp::Ordering::Greater)
}

/// Whether a region key blocks a cell key: [`not_above`] on every lane.
#[inline]
fn blocks(region: &[f64], cell: &[f64]) -> bool {
    region.iter().zip(cell).all(|(&r, &c)| not_above(r, c))
}

/// Leaf size of the blocker-count tree: below this, points are tested
/// directly.
const DOM_TREE_LEAF: usize = 16;

/// Static spatial index over region keys answering *live dominance
/// counts* — `|{r unresolved : key(r) ⪯ q}|` — without touching every
/// region per cell. A balanced kd-tree (median split, cycling coordinate)
/// whose nodes carry the subtree's bounding box and its count of points not
/// yet resolved: a query skips subtrees with nothing live, prunes subtrees
/// whose box minimum already violates `⪯ q`, counts subtrees whose box
/// maximum satisfies it wholesale, and only descends through straddling
/// nodes. A resolution decrements the live counts along one leaf path; the
/// boxes stay those of the build, which is conservative.
///
/// Exactness: leaves test the same [`blocks`] predicate as the
/// resolution walk, on unresolved points only; subtree-wide counting is
/// only taken when the box maximum (`all ≤ q`) proves it, and pruning only
/// when the box minimum (`any > q`) does. Subtrees containing a NaN key
/// take neither shortcut: the box ignores NaN, which blocks — the leaf test
/// gets them right.
#[derive(Debug)]
struct DomCountTree {
    k: usize,
    /// Keys permuted into tree order (`n × k`).
    pts: Vec<f64>,
    nodes: Vec<DomTreeNode>,
    /// Per-node bounding boxes: `lo` then `hi`, `2k` values per node.
    bbox: Vec<f64>,
    /// Per-node "subtree contains a NaN key" flag.
    has_nan: Vec<bool>,
    /// Tree-order slot of each key, by input order.
    slot: Vec<u32>,
    /// Per tree-order slot: whether the key was resolved.
    resolved: Vec<bool>,
}

#[derive(Debug)]
struct DomTreeNode {
    start: u32,
    end: u32,
    /// `u32::MAX` marks a leaf.
    left: u32,
    right: u32,
    /// Unresolved keys in `start..end`.
    live: u32,
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
            slot: vec![0; n],
            resolved: vec![false; n],
        };
        if n == 0 {
            return tree;
        }
        let mut idx: Vec<u32> = (0..n as u32).collect();
        tree.build_node(src, &mut idx, 0, 0);
        // Materialize points in tree order so leaves scan contiguously.
        for (pos, &r) in idx.iter().enumerate() {
            tree.slot[r as usize] = pos as u32;
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
            live: idx.len() as u32,
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

    /// Takes key `i` (input order) out of every later count.
    ///
    /// # Panics
    /// Panics if key `i` was already resolved.
    fn resolve(&mut self, i: u32) {
        let pos = self.slot[i as usize];
        assert!(
            !std::mem::replace(&mut self.resolved[pos as usize], true),
            "key {i} resolved twice"
        );
        let mut ni = 0;
        loop {
            self.nodes[ni].live -= 1;
            let DomTreeNode { left, right, .. } = self.nodes[ni];
            if left == u32::MAX {
                return;
            }
            ni = if pos < self.nodes[left as usize].end {
                left
            } else {
                right
            } as usize;
        }
    }

    /// Counts unresolved keys `p` with `p ⪯ q` ([`blocks`]). `ops` advances
    /// by nodes visited plus leaf points tested (the measured counterpart
    /// of the naive loop's `regions` per query).
    fn count_live(&self, q: &[f64], ops: &mut u64) -> u32 {
        if self.nodes.is_empty() {
            return 0;
        }
        self.count_node(0, q, ops)
    }

    fn count_node(&self, ni: u32, q: &[f64], ops: &mut u64) -> u32 {
        *ops += 1;
        let k = self.k;
        let node = &self.nodes[ni as usize];
        if node.live == 0 {
            return 0;
        }
        let bb = &self.bbox[ni as usize * 2 * k..(ni as usize + 1) * 2 * k];
        let (lo, hi) = bb.split_at(k);
        if !self.has_nan[ni as usize] && lo.iter().zip(q).any(|(l, qv)| l > qv) {
            return 0;
        }
        if !self.has_nan[ni as usize] && hi.iter().zip(q).all(|(h, qv)| h <= qv) {
            return node.live;
        }
        if node.left == u32::MAX {
            let mut c = 0u32;
            for r in node.start..node.end {
                if self.resolved[r as usize] {
                    continue;
                }
                *ops += 1;
                if blocks(&self.pts[r as usize * k..(r as usize + 1) * k], q) {
                    c += 1;
                }
            }
            return c;
        }
        self.count_node(node.left, q, ops) + self.count_node(node.right, q, ops)
    }
}

/// Count-based progressive-determination state: one blocker count per
/// materialized cell, under every dominance model (see the module docs).
#[derive(Debug)]
pub struct ProgDetermine {
    /// Lanes per key: output dimensions under Pareto, polytope vertices
    /// under a flexible model.
    lanes: usize,
    /// Every region's key, by id.
    region_keys: Vec<f64>,
    /// The region keys, for registration counts; resolved ones count no
    /// more.
    tree: DomCountTree,
    /// Unresolved regions blocking each registered cell — the store's
    /// first `counts.len()`. A dead cell's count is kept until it reaches
    /// zero.
    counts: Vec<u32>,
    /// Registered cells whose count is above zero.
    waiting: Vec<u32>,
    /// Keys of the registered cells, `lanes` values per cell.
    cell_keys: Vec<f64>,
    /// Tree work (nodes visited + leaf keys tested) spent on registration
    /// counts. The naive loop costs `regions` per cell — benches assert
    /// this stays far below.
    count_ops: u64,
    emitted_cells: usize,
    emitted_tuples: usize,
    /// Reused per-resolution buffer: the cells the resolution releases.
    released: Vec<u32>,
}

impl ProgDetermine {
    /// Keys every region and indexes the keys for registration counts; the
    /// store's cells (usually none yet) are registered at once, later ones
    /// as they materialize.
    ///
    /// # Panics
    /// Panics if `regions` is not in dense id order: resolutions look their
    /// region's key up by id.
    pub fn new(store: &CellStore, regions: &[Region]) -> Self {
        let model = store.model();
        let lanes = model.blocker_lanes(store.grid().dims());
        let mut region_keys = Vec::with_capacity(regions.len() * lanes);
        for (i, region) in regions.iter().enumerate() {
            assert_eq!(
                region.id as usize, i,
                "ProgDetermine requires regions in dense id order"
            );
            model.push_region_key(&region.cell_lo, &region.lo, &mut region_keys);
        }
        let mut det = Self {
            lanes,
            tree: DomCountTree::build(lanes, &region_keys),
            region_keys,
            counts: Vec::new(),
            waiting: Vec::new(),
            cell_keys: Vec::new(),
            count_ops: 0,
            emitted_cells: 0,
            emitted_tuples: 0,
            released: Vec::new(),
        };
        det.register_cells(store);
        det
    }

    /// Gives every cell the store materialized since the last call its
    /// count: the unresolved regions that block it.
    fn register_cells(&mut self, store: &CellStore) {
        for idx in self.counts.len() as u32..store.len() as u32 {
            let at = self.cell_keys.len();
            store
                .model()
                .push_cell_key(store.grid(), store.cell(idx).coord(), &mut self.cell_keys);
            let count = self
                .tree
                .count_live(&self.cell_keys[at..], &mut self.count_ops);
            self.counts.push(count);
            if count > 0 {
                self.waiting.push(idx);
            }
        }
    }

    /// Unresolved regions blocking the grid position `coord`, counted from
    /// scratch.
    fn live_blockers_at(&self, store: &CellStore, coord: &Coord) -> u32 {
        let mut key = Vec::with_capacity(self.lanes);
        store.model().push_cell_key(store.grid(), coord, &mut key);
        self.tree.count_live(&key, &mut 0)
    }

    /// Current blocker count of a cell (diagnostics and the live-cell
    /// count): the unresolved regions that block it, dead or not.
    pub fn blockers_of(&self, store: &CellStore, cell_idx: u32) -> u32 {
        match self.counts.get(cell_idx as usize) {
            Some(&count) => count,
            None => self.live_blockers_at(store, store.cell(cell_idx).coord()),
        }
    }

    /// Tree work spent on registration counts (kd-tree node visits plus
    /// leaf key tests). Benches compare this against the `regions × cells`
    /// cost of the naive loop.
    pub fn blocker_count_ops(&self) -> u64 {
        self.count_ops
    }

    /// Cells emitted so far.
    pub fn emitted_cells(&self) -> usize {
        self.emitted_cells
    }

    /// Tuples emitted so far.
    pub fn emitted_tuples(&self) -> usize {
        self.emitted_tuples
    }

    /// Registered cells still awaiting a blocker, dead ones included
    /// (diagnostics): zero once every region is resolved.
    pub fn live_cells(&self) -> usize {
        self.waiting.len()
    }

    /// Whether a tuple may still land at grid position `coord`: an
    /// unresolved region blocks it, so nothing there has been released —
    /// the box invariant emission rests on, checked by the committer for
    /// every tuple it inserts. A tuple landing where this is `false` would
    /// never be emitted. Registers the cells materialized since the last
    /// call first, so a cell's count is taken once; a position without a
    /// cell is counted from scratch.
    pub(crate) fn awaits_tuples_at(&mut self, store: &CellStore, coord: &Coord) -> bool {
        self.register_cells(store);
        match store.find(coord) {
            Some(idx) => self.counts[idx as usize] > 0,
            None => self.live_blockers_at(store, coord) > 0,
        }
    }

    /// Resolves one region — processed *or* discarded — decrementing the
    /// blocker count of every cell it blocks. Cells whose count reaches
    /// zero are finalized: dead cells are dropped, all others emit the
    /// tuples no admitted tuple dominates into `out`, **in ascending grid
    /// coordinate** ([`pack`] order, dimension 0 fastest) — a property of
    /// the cells released, not of how or when the store got to know them.
    ///
    /// Must be called exactly once per region, *after* the region's tuples
    /// (if any) have been inserted into `store`.
    pub fn resolve_region(
        &mut self,
        region: &Region,
        store: &mut CellStore,
        out: &mut Vec<EmittedCell>,
    ) {
        self.register_cells(store);
        self.tree.resolve(region.id);
        let lanes = self.lanes;
        let key = &self.region_keys[region.id as usize * lanes..(region.id as usize + 1) * lanes];
        let mut released = std::mem::take(&mut self.released);
        let mut i = 0;
        while i < self.waiting.len() {
            let idx = self.waiting[i] as usize;
            if !blocks(key, &self.cell_keys[idx * lanes..(idx + 1) * lanes]) {
                i += 1;
                continue;
            }
            let count = &mut self.counts[idx];
            debug_assert!(*count > 0, "blocker underflow on cell {idx}");
            *count -= 1;
            if *count > 0 {
                i += 1;
                continue;
            }
            self.waiting.swap_remove(i);
            if !store.cell(idx as u32).is_dead() {
                released.push(idx as u32);
            }
        }
        released.sort_unstable_by_key(|&idx| pack(store.cell(idx).coord()));
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
    use crate::fdom::{DominanceModel, FDominance, WeightConstraint};
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

    /// The 10 × 10 grid of unit cells the two-region tests run on.
    fn store_10x10() -> CellStore {
        CellStore::new(OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10))
    }

    /// Weights confined to `w₀ ∈ [lo, hi]` in two dimensions.
    fn band(lo: f64, hi: f64) -> DominanceModel {
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, lo),
                WeightConstraint::at_most(2, 0, hi),
            ],
        )
        .unwrap();
        DominanceModel::flexible(fdom)
    }

    /// Whether `region` blocks the cell at `c`, by definition: `cell_lo ⪯ c`
    /// under Pareto; under a flexible model the region's lower bound
    /// projects at or below the cell's upper corner at every vertex.
    fn blocks_by_definition(
        model: &DominanceModel,
        grid: &OutputGrid,
        r: &Region,
        c: &Coord,
    ) -> bool {
        match model.as_flexible() {
            None => weak_leq(&r.cell_lo, c, grid.dims()),
            Some(fdom) => {
                let (mut lo, mut upper) = (Vec::new(), Vec::new());
                fdom.project_into(&r.lo, &mut lo);
                fdom.project_into(&grid.upper_corner(c), &mut upper);
                lo.iter().zip(&upper).all(|(a, b)| a <= b)
            }
        }
    }

    #[test]
    fn initial_blockers_count_shadowing_regions() {
        // Region A at (0,0)-(1,1); region B at (2,2)-(3,3). A's shadow
        // covers B's cells; B's shadow does not reach A's.
        let a = region(0, (0, 0), (1, 1));
        let b = region(1, (2, 2), (3, 3));
        let mut store = store_10x10();
        let det = ProgDetermine::new(&store, &[a, b]);
        assert!(store.insert(1, 1, &[2.5, 2.5]));
        assert!(store.insert(0, 0, &[0.5, 0.5]), "kills B's cell");
        let a_cell = store.find(&coord(0, 0)).unwrap();
        let b_cell = store.find(&coord(2, 2)).unwrap();
        assert!(store.cell(b_cell).is_dead());
        assert_eq!(
            det.blockers_of(&store, a_cell),
            1,
            "A's cells blocked only by A"
        );
        assert_eq!(
            det.blockers_of(&store, b_cell),
            2,
            "B's cells blocked by both, dead or not"
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
        let mut store = store_10x10();
        let mut det = ProgDetermine::new(&store, &regions);

        // A's tuple does not dominate B's (trade-off in dim 0).
        assert!(store.insert(0, 0, &[0.9, 0.5]));
        assert!(store.insert(1, 1, &[0.5, 3.5]));
        let b_cell = store.find(&coord(0, 3)).unwrap();
        assert_eq!(det.blockers_of(&store, b_cell), 2, "blocked by A and B");
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
        let mut store = store_10x10();
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
        // In 2-d any two boxes interact unless separated on both axes in
        // opposite directions: put A at (0,8)-(1,9), B at (8,0)-(9,1).
        let a = region(0, (0, 8), (1, 9));
        let b = region(1, (8, 0), (9, 1));
        let regions = [a.clone(), b.clone()];
        let mut store = store_10x10();
        let mut det = ProgDetermine::new(&store, &regions);
        assert!(store.insert(6, 6, &[0.5, 8.5])); // A's box
        assert!(store.insert(7, 7, &[8.5, 0.5])); // B's box
        let a_cell = store.find(&coord(0, 8)).unwrap();
        let b_cell = store.find(&coord(8, 0)).unwrap();
        assert_eq!(det.blockers_of(&store, a_cell), 1);
        assert_eq!(det.blockers_of(&store, b_cell), 1);

        let mut out = Vec::new();
        det.resolve_region(&b, &mut store, &mut out);
        assert_eq!(out.len(), 1, "B emits immediately, before A resolves");
        assert_eq!(out[0].ids, vec![(7, 7)]);
        assert_eq!(det.live_cells(), 1, "A's cell still waits");
    }

    #[test]
    fn dead_cells_never_emit() {
        let a = region(0, (0, 0), (9, 9));
        let regions = [a.clone()];
        let mut store = store_10x10();
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
        // A at cells (0,8)-(1,9), B at (8,0)-(9,1): Pareto-independent
        // (each emits without waiting for the other — see
        // `non_overlapping_regions_emit_independently`). Under weights
        // confined to w₀ ∈ [0.45, 0.55] a tuple of A *can* F-dominate a
        // tuple of B — (0.5, 8.5) scores {4.9, 4.1} at the two vertices
        // against (9.5, 1.5)'s {5.1, 5.9} — so under the flexible model
        // B's cells must additionally wait for A.
        let a = region(0, (0, 8), (1, 9));
        let b = region(1, (8, 0), (9, 1));
        let regions = [a.clone(), b.clone()];
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::with_model(grid, band(0.45, 0.55));
        let mut det = ProgDetermine::new(&store, &regions);

        // B's tuple is F-dominated by A's; emission must reflect that.
        assert!(store.insert(0, 0, &[0.5, 8.5])); // region A's box
        assert!(store.insert(1, 1, &[9.5, 1.5])); // region B's box
        let b_cell = store.find(&coord(9, 1)).unwrap();
        assert_eq!(
            det.blockers_of(&store, b_cell),
            2,
            "flexible model: A must block B's cell"
        );
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

    /// The one blocker structure against the definition, one resolution at
    /// a time, under Pareto and under a flexible polytope: a resolution
    /// releases exactly the materialized, non-dead, unreleased cells no
    /// unresolved region blocks, in ascending coordinate. Random
    /// overlapping regions for d = 1..4 — several sharing one `cell_lo`,
    /// boxes leaving grid positions uncovered, cells pre-marked dead by a
    /// pessimistic skyline point as they materialize — resolved in random
    /// order with inserts in between (so cells are materialized, populated,
    /// killed eagerly and found dead lazily between resolutions). Counts,
    /// `awaits_tuples_at` on every position and `live_cells` are checked
    /// after every step, registered cells and not yet registered ones.
    #[test]
    fn resolutions_release_exactly_the_unblocked_cells() {
        let mut x: u64 = 0xD1FF;
        let mut next = |m: u64| -> u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for flexible in [false, true] {
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
                let model = if flexible {
                    let lean = WeightConstraint::at_least(dims, 0, 0.2);
                    DominanceModel::flexible(FDominance::new(dims, vec![lean]).unwrap())
                } else {
                    DominanceModel::Pareto
                };
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
                // A pessimistic skyline point somewhere in the grid: cells
                // above it are pre-marked dead as they materialize.
                let pessimistic: Vec<f64> =
                    (0..dims).map(|_| next(k as u64) as f64 + 0.5).collect();
                let la = Lookahead {
                    grid: grid.clone(),
                    regions: regions.clone(),
                    pairs_rejected_by_signature: 0,
                    regions_pruned: 0,
                    pessimistic_skyline: pessimistic,
                };
                let mut store = CellStore::with_model(grid.clone(), model.clone());
                track_cells(&la, &mut store);
                assert!(store.is_empty());
                let mut det = ProgDetermine::new(&store, &regions);

                let mut unresolved: Vec<u32> = (0..regions.len() as u32).collect();
                let mut released_before: Vec<u32> = Vec::new();
                let mut tuple = 0u32;
                let mut emitted = 0usize;
                while !unresolved.is_empty() {
                    let label = format!("flexible={flexible} dims={dims} k={k}");
                    let blocking = |unresolved: &[u32], c: &Coord| {
                        (unresolved.iter())
                            .filter(|&&r| {
                                blocks_by_definition(&model, &grid, &regions[r as usize], c)
                            })
                            .count() as u32
                    };
                    // A few tuples out of unresolved regions' boxes — the
                    // only cells a tuple can still arrive in.
                    for _ in 0..next(4) {
                        let from =
                            &regions[unresolved[next(unresolved.len() as u64) as usize] as usize];
                        let p: Vec<f64> = (0..dims)
                            .map(|d| {
                                let span = (from.cell_hi[d] - from.cell_lo[d]) as u64 + 1;
                                (from.cell_lo[d] as u64 + next(span)) as f64
                                    + next(100) as f64 / 100.0
                            })
                            .collect();
                        assert!(det.awaits_tuples_at(&store, &grid.cell_of(&p)), "{label}");
                        tuple += 1;
                        store.insert(tuple, tuple, &p);
                    }
                    // Cells materialized since the last call are counted
                    // from scratch, registered ones from their counts.
                    for (idx, cell) in store.iter() {
                        let expected = blocking(&unresolved, cell.coord());
                        assert_eq!(det.blockers_of(&store, idx), expected, "{label}");
                    }
                    let rid = unresolved.swap_remove(next(unresolved.len() as u64) as usize);
                    let mut out = Vec::new();
                    det.resolve_region(&regions[rid as usize], &mut store, &mut out);

                    let label = format!("{label} after region {rid}");
                    // By definition: every materialized cell that is not
                    // dead, not released before, and blocked by nobody.
                    let mut expected: Vec<u32> = store
                        .iter()
                        .filter(|&(idx, cell)| {
                            !cell.is_dead()
                                && !released_before.contains(&idx)
                                && blocking(&unresolved, cell.coord()) == 0
                        })
                        .map(|(idx, _)| idx)
                        .collect();
                    expected.sort_unstable_by_key(|&idx| pack(store.cell(idx).coord()));
                    // The flexible filter may empty a released cell, and
                    // it keeps a subsequence of the cell's tuples.
                    let got: Vec<u32> = out.iter().map(|e| e.cell_idx).collect();
                    let emitting: Vec<u32> = (expected.iter().copied())
                        .filter(|&idx| !store.cell(idx).is_empty())
                        .filter(|idx| !flexible || got.contains(idx))
                        .collect();
                    assert_eq!(got, emitting, "{label}");
                    for e in &out {
                        let mut cell = store.cell(e.cell_idx).ids().iter();
                        assert!(e.ids.iter().all(|id| cell.any(|c| c == id)), "{label}");
                        if !flexible {
                            assert_eq!(e.ids, store.cell(e.cell_idx).ids(), "{label}");
                        }
                        emitted += e.ids.len();
                    }
                    released_before.extend(&expected);
                    released_populated += out.len();
                    for c in &positions {
                        let blockers = blocking(&unresolved, c);
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
                    let waiting = (store.iter())
                        .filter(|(_, cell)| blocking(&unresolved, cell.coord()) > 0)
                        .count();
                    assert_eq!(det.live_cells(), waiting, "{label}");
                }
                assert_eq!(det.live_cells(), 0);
                assert_eq!(det.emitted_tuples(), emitted);
                premarked += store.stats().cells_premarked_dead;
                materialized += store.len();
                dropped_dead += store
                    .iter()
                    .filter(|(_, c)| c.is_dead() && !c.is_emitted())
                    .count();
            }
            let label = format!("flexible={flexible}");
            assert!(
                materialized < covered,
                "{label}: {materialized} of {covered}"
            );
            assert!(premarked > 0, "{label}");
            assert!(released_populated > 20, "{label}: {released_populated}");
            assert!(dropped_dead > 10, "{label}: {dropped_dead}");
        }
    }

    /// Live dominance counts against the definition while keys resolve:
    /// pseudo-random keys on a coarse grid (plenty of ties and duplicates),
    /// some lanes NaN — a NaN lane blocks whatever the query holds there,
    /// and neither shortcut may skip a subtree holding one — across
    /// widths and sizes spanning the leaf threshold, queried between
    /// resolutions in random order until every key is resolved.
    #[test]
    fn dom_count_tree_matches_brute_force() {
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let value = |next: &mut dyn FnMut(u64) -> u64| match next(40) {
            0 => f64::NAN,
            v => (v % 16) as f64 * 0.25,
        };
        let mut nan_blocked = 0;
        for k in [1usize, 2, 3, 5] {
            for n in [0usize, 1, 7, 16, 17, 64, 257] {
                let pts: Vec<f64> = (0..n * k).map(|_| value(&mut next)).collect();
                let mut tree = DomCountTree::build(k, &pts);
                let mut order: Vec<u32> = (0..n as u32).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, next(i as u64 + 1) as usize);
                }
                let mut resolved = vec![false; n];
                for step in 0..=n {
                    for _ in 0..6 {
                        let q: Vec<f64> = (0..k).map(|_| value(&mut next)).collect();
                        let live = pts
                            .chunks_exact(k)
                            .zip(&resolved)
                            .filter(|&(p, &gone)| !gone && blocks(p, &q));
                        let expected = live.clone().count() as u32;
                        nan_blocked += live.filter(|(p, _)| p.iter().any(|v| v.is_nan())).count();
                        let mut ops = 0u64;
                        assert_eq!(
                            tree.count_live(&q, &mut ops),
                            expected,
                            "k={k} n={n} step={step} q={q:?}"
                        );
                    }
                    if let Some(&i) = order.get(step) {
                        tree.resolve(i);
                        resolved[i as usize] = true;
                    }
                }
                assert!(tree.nodes.iter().all(|node| node.live == 0));
            }
        }
        assert!(nan_blocked > 0, "no NaN key ever blocked");
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
            let expected = pts.chunks_exact(k).filter(|p| blocks(p, &q)).count() as u32;
            assert_eq!(tree.count_live(&q, &mut 0), expected, "{q:?}");
        }
        assert_eq!(tree.count_live(&[100.0, 0.5], &mut 0), 6, "the NaN points");
    }

    /// Registration counts under both models: the kd-tree does
    /// asymptotically less work than the `regions × cells` double loop
    /// while producing the same counts as the resolution walk's predicate.
    #[test]
    fn registration_counts_beat_the_naive_loop() {
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
        for model in [DominanceModel::Pareto, band(0.3, 0.7)] {
            let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
            let mut store = CellStore::with_model(grid.clone(), model.clone());
            // One tuple per box cell materializes it, admitted or not.
            let mut tuple = 0;
            for r in &regions {
                for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                    let centre: Vec<f64> = grid.lower_corner(&c).iter().map(|v| v + 0.5).collect();
                    tuple += 1;
                    store.insert(tuple, tuple, &centre);
                }
            }
            let det = ProgDetermine::new(&store, &regions);
            let naive_ops = regions.len() as u64 * store.len() as u64;
            assert!(
                det.blocker_count_ops() < naive_ops / 2,
                "{model:?}: tree ops {} not beating naive {naive_ops}",
                det.blocker_count_ops(),
            );
            for (idx, cell) in store.iter() {
                let expected = (regions.iter())
                    .filter(|r| blocks_by_definition(&model, &grid, r, cell.coord()))
                    .count() as u32;
                assert_eq!(det.blockers_of(&store, idx), expected, "cell {idx}");
            }
        }
    }

    #[test]
    fn emitted_counters_accumulate() {
        let a = region(0, (0, 0), (0, 0));
        let regions = [a.clone()];
        let mut store = store_10x10();
        let mut det = ProgDetermine::new(&store, &regions);
        store.insert(0, 0, &[0.2, 0.3]);
        store.insert(1, 1, &[0.3, 0.2]);
        let mut out = Vec::new();
        det.resolve_region(&a, &mut store, &mut out);
        assert_eq!(det.emitted_cells(), 1);
        assert_eq!(det.emitted_tuples(), 2);
        assert_eq!(det.live_cells(), 0);
    }
}
