//! Tuple-level processing of one region (Section III-B).
//!
//! For the chosen region `R_{a,b}`: evaluate the equi-join between the
//! tuples of `I^R_a` and `I^T_b` (hash join on the smaller side), apply the
//! mapping functions to each match, orient the output, and hand every mapped
//! tuple to a consumer — either the shared [`CellStore`] (streaming path,
//! [`process_region`]; small regions on the driver's `Inline` backend) or a
//! private batch buffer ([`RegionCtx::compute`]; pool workers always, and
//! large inline regions per
//! [`ProgXeConfig::prefilter_min_pairs`](crate::config::ProgXeConfig)).
//!
//! The batch split follows the paper's own decomposition: everything up
//! to the cell-restricted dominance insert is *pure* per-region work
//! ([`RegionCtx`] is `Send + Sync` and owns all inputs), while Algorithm 2's
//! blocker bookkeeping stays with the single ordered committer in
//! [`crate::driver`]. Batch producers additionally run a filter stage over
//! their own batch (`RegionBatch::from_join`): a bounded local skyline
//! pre-filter — sound because Pareto dominance is transitive, so a tuple
//! dominated inside its batch can never survive the shared store either —
//! and then rejection against a dispatch-time snapshot of every tuple the
//! store has ever admitted ([`CellStore::admitted_slab`]), which moves the
//! bulk of `CellStore::insert`'s rejections off the serial committer.
//!
//! Cancellation is checked *inside* the probe loop (every
//! [`CANCEL_CHECK_INTERVAL`] probe rows), so a `take(k)` consumer or a
//! timeout stops a huge region mid-flight instead of paying for the whole
//! join.

use crate::cells::CellStore;
use crate::fdom::DominanceModel;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::grid::{InputGrid, InputPartition};
use crate::lookahead::Region;
use crate::mapping::MapSet;
use crate::output_grid::{pack, OutputGrid};
use crate::session::CancellationToken;
use crate::source::SourceView;
use progxe_skyline::{kernel, PointStore};
use std::time::{Duration, Instant};

/// Work items (probe rows + join matches) between cancellation-token
/// checks inside the join loop: bounds how far a cancelled region can
/// overshoot, even when single probe rows fan out into many matches.
pub const CANCEL_CHECK_INTERVAL: usize = 256;

/// Upper bound on the local pre-filter's comparison window. Tuples kept
/// while the window is full are simply passed through unfiltered (sound:
/// the committer's cell store re-checks everything), keeping worker-side
/// filtering at `O(matches × window)`.
const LOCAL_FILTER_WINDOW: usize = 256;

/// Work counters from processing one region.
#[derive(Debug, Clone, Copy, Default)]
pub struct TupleLevelStats {
    /// Join-condition probes (`n_R · n_T` upper bound; hash join probes
    /// only actual key matches, this counts pairs *examined*).
    pub pairs_examined: u64,
    /// Join matches produced and mapped.
    pub matches: u64,
    /// Pairwise dominance tests performed by the batch filter stage — the
    /// local pre-filter plus the admitted-slab snapshot filter (0 on the
    /// streaming path). Both run on the batched kernels, so this advances
    /// at chunk granularity.
    pub local_dominance_tests: u64,
    /// Tuples dropped by the batch filter stage before reaching the
    /// committer (0 on the streaming path).
    pub locally_pruned: u64,
    /// Vertex dot products evaluated while projecting batches into the
    /// flexible model's vertex space (0 under Pareto).
    pub fdom_vertex_evals: u64,
}

/// The shared join + map + orient loop. Calls `emit` for every join match
/// with `(r_row, t_row, oriented values)`. Returns the work counters and
/// whether the region ran to completion (`false` = cancelled mid-region).
///
/// Generic over the consumer (not `dyn`) so both call sites — streaming
/// insert and batch collection — keep `emit` inlinable in the hot loop.
/// Crate-visible: the [`crate::ingest`] work units run the same loop over
/// sealed stream partitions.
pub(crate) fn join_region<F: FnMut(u32, u32, &[f64])>(
    r_part: &InputPartition,
    t_part: &InputPartition,
    r_src: &SourceView<'_>,
    t_src: &SourceView<'_>,
    maps: &MapSet,
    token: &CancellationToken,
    mut emit: F,
) -> (TupleLevelStats, bool) {
    let mut stats = TupleLevelStats::default();
    // An already-cancelled token stops the region before any join work;
    // afterwards it is re-checked every CANCEL_CHECK_INTERVAL work items.
    if token.is_cancelled() {
        return (stats, false);
    }
    let orders = maps.preference().orders();
    let mut raw = Vec::with_capacity(maps.out_dims());
    let mut oriented = vec![0.0f64; maps.out_dims()];

    // Build the hash table over the smaller partition.
    let (build_rows, probe_rows, build_is_r) = if r_part.len() <= t_part.len() {
        (&r_part.tuples, &t_part.tuples, true)
    } else {
        (&t_part.tuples, &r_part.tuples, false)
    };
    let build_src: &SourceView<'_> = if build_is_r { r_src } else { t_src };
    let probe_src: &SourceView<'_> = if build_is_r { t_src } else { r_src };

    let mut table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &row in build_rows {
        table
            .entry(build_src.join_key_of(row as usize))
            .or_default()
            .push(row);
    }

    let mut since_check = 0usize;
    for (probed, &probe) in probe_rows.iter().enumerate() {
        since_check += 1;
        if since_check >= CANCEL_CHECK_INTERVAL {
            since_check = 0;
            if token.is_cancelled() {
                // Account only the work actually performed before the stop.
                stats.pairs_examined = probed as u64 * build_rows.len() as u64;
                return (stats, false);
            }
        }
        let key = probe_src.join_key_of(probe as usize);
        let Some(matches) = table.get(&key) else {
            continue;
        };
        for &build in matches {
            since_check += 1;
            if since_check >= CANCEL_CHECK_INTERVAL {
                since_check = 0;
                if token.is_cancelled() {
                    stats.pairs_examined = (probed as u64 + 1) * build_rows.len() as u64;
                    return (stats, false);
                }
            }
            stats.matches += 1;
            let (r_row, t_row) = if build_is_r {
                (build, probe)
            } else {
                (probe, build)
            };
            maps.eval_into(
                r_src.attrs_of(r_row as usize),
                t_src.attrs_of(t_row as usize),
                &mut raw,
            );
            for (j, (&v, o)) in raw.iter().zip(orders).enumerate() {
                oriented[j] = o.orient(v);
            }
            emit(r_row, t_row, &oriented);
        }
    }
    // Account the full nested-pair count as "examined" for the cost model's
    // C_join = n_R·n_T bookkeeping (hash probing avoids most of it in
    // practice; the counter reports the logical join work of Equation 4).
    stats.pairs_examined = r_part.len() as u64 * t_part.len() as u64;
    (stats, true)
}

/// Joins one partition pair, maps the matches, and inserts them directly
/// into the shared cell store — the sequential path. Returns the work
/// counters and whether the region completed (`false` = cancelled
/// mid-region; the store then holds a *partial* insert set and the region
/// must **not** be resolved).
pub fn process_region(
    r_part: &InputPartition,
    t_part: &InputPartition,
    r_src: &SourceView<'_>,
    t_src: &SourceView<'_>,
    maps: &MapSet,
    store: &mut CellStore,
    token: &CancellationToken,
) -> (TupleLevelStats, bool) {
    join_region(r_part, t_part, r_src, t_src, maps, token, |r, t, o| {
        store.insert(r, t, o);
    })
}

/// Immutable, owned context shared by all tuple-level work units of one
/// query: filtered sources, grids, regions, and the mapping functions.
///
/// `Send + Sync` by construction (everything is owned; [`MapSet`] clones
/// are `Arc` bumps), so an `Arc<RegionCtx>` can be captured by `'static`
/// thread-pool jobs.
#[derive(Debug)]
pub struct RegionCtx {
    maps: MapSet,
    /// Filtered sources with dense join keys (push-through survivors).
    r_attrs: PointStore,
    r_keys: Vec<u32>,
    t_attrs: PointStore,
    t_keys: Vec<u32>,
    r_grid: InputGrid,
    t_grid: InputGrid,
    /// The output grid the committer's cell store is built over.
    out_grid: OutputGrid,
    /// Shared with the committer (which owns the schedule over the same
    /// region vector) — an `Arc` slice so neither side copies it.
    regions: std::sync::Arc<[Region]>,
}

impl RegionCtx {
    /// Bundles the per-query immutable state. Called by the executor's
    /// pipeline setup; `maps` is a cheap clone (`Arc`-backed).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        maps: MapSet,
        r_attrs: PointStore,
        r_keys: Vec<u32>,
        t_attrs: PointStore,
        t_keys: Vec<u32>,
        r_grid: InputGrid,
        t_grid: InputGrid,
        out_grid: OutputGrid,
        regions: std::sync::Arc<[Region]>,
    ) -> Self {
        Self {
            maps,
            r_attrs,
            r_keys,
            t_attrs,
            t_keys,
            r_grid,
            t_grid,
            out_grid,
            regions,
        }
    }

    /// The query's live regions (dense ids = indices).
    #[inline]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The mapping functions + preference of this query.
    #[inline]
    pub fn maps(&self) -> &MapSet {
        &self.maps
    }

    /// Views over the filtered sources.
    fn views(&self) -> (SourceView<'_>, SourceView<'_>) {
        let r = SourceView::new(&self.r_attrs, &self.r_keys).expect("filtered arrays are parallel");
        let t = SourceView::new(&self.t_attrs, &self.t_keys).expect("filtered arrays are parallel");
        (r, t)
    }

    /// Runs region `rid` through the streaming sequential path, inserting
    /// into `store` directly. Returns the counters and the completion flag.
    pub(crate) fn process_into(
        &self,
        rid: u32,
        store: &mut CellStore,
        token: &CancellationToken,
    ) -> (TupleLevelStats, bool) {
        let region = &self.regions[rid as usize];
        let rp = &self.r_grid.partitions()[region.r_part as usize];
        let tp = &self.t_grid.partitions()[region.t_part as usize];
        let (r_view, t_view) = self.views();
        process_region(rp, tp, &r_view, &t_view, &self.maps, store, token)
    }

    /// One pure, parallelizable work unit: join + map + orient region `rid`,
    /// pre-filter the batch down to its local skyline, and drop every
    /// survivor dominated by `snapshot` — a prefix of the cell store's
    /// [`admitted_slab`](CellStore::admitted_slab) (empty = no upstream
    /// rejection). The returned batch is committed by the ordered
    /// committer; a batch with `completed == false` (cancelled mid-region)
    /// must be discarded whole.
    pub fn compute(&self, rid: u32, snapshot: &[f64], token: &CancellationToken) -> RegionBatch {
        let started = Instant::now();
        let region = &self.regions[rid as usize];
        let rp = &self.r_grid.partitions()[region.r_part as usize];
        let tp = &self.t_grid.partitions()[region.t_part as usize];
        let (r_view, t_view) = self.views();

        let mut ids: Vec<(u32, u32)> = Vec::new();
        let mut points = PointStore::new(self.maps.out_dims());
        let joined = join_region(rp, tp, &r_view, &t_view, &self.maps, token, |r, t, o| {
            ids.push((r, t));
            points.push(o);
        });
        RegionBatch::from_join(
            rid,
            started,
            ids,
            points,
            joined,
            self.maps.dominance(),
            snapshot,
            &self.out_grid,
        )
    }
}

/// The output of one region work unit: mapped join results (oriented, local
/// skyline only) ready for ordered commit.
#[derive(Debug)]
pub struct RegionBatch {
    /// The region this batch belongs to.
    pub rid: u32,
    /// `(r_row, t_row)` of surviving tuples (filtered-source row ids).
    pub ids: Vec<(u32, u32)>,
    /// Oriented output values, parallel to `ids`.
    pub points: PointStore,
    /// Where the snapshot filter rejected tuples: `(i, cell key)` means a
    /// tuple of that output cell ([`pack`]ed coordinate) was dropped just
    /// before survivor `i` (ascending `i`; `ids.len()` = after the last).
    /// The committer replays these through
    /// [`CellStore::insert_batch`] at the same point of the
    /// insert sequence, so the store's lazily discovered dead cells — and
    /// with them the emission order — are exactly what they would be had
    /// the committer rejected the tuples itself.
    pub rejected_cells: Vec<(u32, u128)>,
    /// Work counters of the unit.
    pub stats: TupleLevelStats,
    /// Whether the join ran to completion. `false` means the token fired
    /// mid-region: the batch is partial and must not be committed.
    pub completed: bool,
    /// Wall-clock time the worker spent computing this unit.
    pub compute_time: Duration,
}

impl RegionBatch {
    /// Turns one region's joined matches into its batch — the tail every
    /// batch producer shares ([`RegionCtx::compute`] and the
    /// [`crate::ingest`] work units). A completed join (`joined.1`) goes
    /// through the filter stage: the bounded local skyline filter, then
    /// upstream rejection against `snapshot`, a dispatch-time prefix of the
    /// store's admitted slab. Both only drop tuples the committer's cell
    /// store would reject anyway; their work is reported through
    /// `local_dominance_tests` / `locally_pruned`. A cancelled join is
    /// passed through unfiltered — it is never committed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_join(
        rid: u32,
        started: Instant,
        mut ids: Vec<(u32, u32)>,
        mut points: PointStore,
        joined: (TupleLevelStats, bool),
        model: &DominanceModel,
        snapshot: &[f64],
        grid: &OutputGrid,
    ) -> Self {
        let (mut stats, completed) = joined;
        let rejected_cells = if completed {
            local_skyline_filter(&mut ids, &mut points, model, &mut stats);
            snapshot_filter(&mut ids, &mut points, snapshot, grid, &mut stats)
        } else {
            Vec::new()
        };
        Self {
            rid,
            ids,
            points,
            rejected_cells,
            stats,
            completed,
            compute_time: started.elapsed(),
        }
    }

    /// A placeholder for a work unit that did not run to completion
    /// (cancellation, or a failed worker). Committers must treat it as a
    /// mid-region stop: never commit it, leave the region unresolved.
    pub fn aborted(rid: u32, dims: usize) -> Self {
        Self {
            rid,
            ids: Vec::new(),
            points: PointStore::new(dims.max(1)),
            rejected_cells: Vec::new(),
            stats: TupleLevelStats::default(),
            completed: false,
            compute_time: Duration::ZERO,
        }
    }
}

/// Drops every tuple Pareto-dominated by a row of `snapshot` (flat,
/// oriented, `points.dims()` values per row), preserving order. Pareto is
/// the right relation under any model: the slab records what the store —
/// which maintains its live set under Pareto — admitted, and Pareto
/// dominance implies F-dominance. Tuples with a NaN coordinate are passed
/// through untested (NaN-as-tie dominance is not transitive; the slab
/// holds no such rows either), so the relation applied here is a strict
/// partial order and the soundness argument on
/// [`CellStore::admitted_slab`] holds.
///
/// Returns the output cell of every dropped tuple, positioned between the
/// survivors ([`RegionBatch::rejected_cells`]) and deduplicated per gap —
/// the store's state only changes when a survivor is inserted.
fn snapshot_filter(
    ids: &mut Vec<(u32, u32)>,
    points: &mut PointStore,
    snapshot: &[f64],
    grid: &OutputGrid,
    stats: &mut TupleLevelStats,
) -> Vec<(u32, u128)> {
    let mut rejected_cells = Vec::new();
    if snapshot.is_empty() || ids.is_empty() {
        return rejected_cells;
    }
    let dims = points.dims();
    let mut keep = vec![true; ids.len()];
    let mut survivors = 0u32;
    let mut gap_cells: FxHashSet<u128> = FxHashSet::default();
    for (k, p) in keep.iter_mut().zip(points.iter()) {
        if !p.iter().any(|v| v.is_nan())
            && kernel::any_dominates(dims, snapshot, p, &mut stats.local_dominance_tests)
        {
            *k = false;
            let cell = pack(&grid.cell_of(p));
            if gap_cells.insert(cell) {
                rejected_cells.push((survivors, cell));
            }
        } else {
            survivors += 1;
            if !gap_cells.is_empty() {
                gap_cells.clear();
            }
        }
    }
    let dropped = ids.len() as u64 - u64::from(survivors);
    if dropped == 0 {
        return rejected_cells;
    }
    let mut next = 0usize;
    ids.retain(|_| {
        let k = keep[next];
        next += 1;
        k
    });
    points.compact(&keep);
    stats.locally_pruned += dropped;
    rejected_cells
}

/// Order-preserving bounded BNL filter: drops tuples dominated (under the
/// query's [`DominanceModel`], over oriented values) by another tuple of
/// the same batch. Sound as a pre-filter because the relation is a
/// transitive strict partial order — a tuple dominated inside its batch
/// can never belong to the final (flexible) skyline, and its dominator
/// (or a dominator of that) survives to reject whatever it would have
/// rejected. Bounded by [`LOCAL_FILTER_WINDOW`] so a worker never does
/// quadratic work on a huge region.
fn local_skyline_filter(
    ids: &mut Vec<(u32, u32)>,
    points: &mut PointStore,
    model: &DominanceModel,
    stats: &mut TupleLevelStats,
) {
    let n = ids.len();
    if n <= 1 {
        return;
    }
    // Kernel space for the whole batch: the oriented values themselves
    // under Pareto (no copy), or one up-front vertex projection under a
    // flexible model — after which every dominance decision is a flat
    // all-lowest Pareto kernel call (k compares per pair instead of k·d
    // multiplies).
    let (kd, projected) = match model {
        DominanceModel::Pareto => (points.dims(), None),
        DominanceModel::Flexible(f) => {
            let k = f.vertex_count();
            let mut buf = Vec::with_capacity(n * k);
            let mut tmp = Vec::with_capacity(k);
            for p in points.iter() {
                f.project_into(p, &mut tmp);
                buf.extend_from_slice(&tmp);
            }
            stats.fdom_vertex_evals += (n * k) as u64;
            (k, Some(buf))
        }
    };
    let kdata: &[f64] = projected.as_deref().unwrap_or(points.raw());
    let mut keep = vec![true; n];
    let mut window: Vec<u32> = Vec::new();
    let mut wpoints = PointStore::new(kd);
    let mut mask: Vec<bool> = Vec::new();
    for i in 0..n {
        let p = &kdata[i * kd..(i + 1) * kd];
        if kernel::any_dominates(kd, wpoints.raw(), p, &mut stats.local_dominance_tests) {
            keep[i] = false;
            continue;
        }
        mask.clear();
        mask.resize(window.len(), false);
        if kernel::dominated_mask(
            kd,
            wpoints.raw(),
            p,
            &mut mask,
            &mut stats.local_dominance_tests,
        ) > 0
        {
            let mut w = 0;
            while w < window.len() {
                if mask[w] {
                    keep[window[w] as usize] = false;
                    mask.swap_remove(w);
                    window.swap_remove(w);
                    wpoints.swap_remove(w);
                } else {
                    w += 1;
                }
            }
        }
        if window.len() < LOCAL_FILTER_WINDOW {
            window.push(i as u32);
            wpoints.push(p);
        }
    }
    let survivors = keep.iter().filter(|&&k| k).count();
    if survivors == n {
        return;
    }
    // Compact survivors in place, preserving order — no reallocation.
    let mut next = 0usize;
    ids.retain(|_| {
        let k = keep[next];
        next += 1;
        k
    });
    points.compact(&keep);
    stats.locally_pruned += (n - survivors) as u64;
}

// Compile-time guarantee that work units can cross thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RegionCtx>();
    assert_send_sync::<RegionBatch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignatureConfig;
    use crate::grid::InputGrid;
    use crate::output_grid::OutputGrid;
    use crate::source::SourceData;
    use progxe_skyline::Preference;

    fn one_partition(src: &SourceData) -> InputPartition {
        let grid = InputGrid::build(&src.view(), 1, SignatureConfig::Exact, 16);
        grid.partitions()[0].clone()
    }

    fn tracked_store(grid: OutputGrid) -> CellStore {
        let mut store = CellStore::new(grid.clone());
        let lo = grid.cell_of(&vec![f64::NEG_INFINITY; grid.dims()]);
        let mut hi = lo;
        for h in hi.iter_mut().take(grid.dims()) {
            *h = grid.cells_per_dim() - 1;
        }
        for c in grid.iter_box(lo, hi) {
            store.track(c);
        }
        store
    }

    fn run(
        rp: &InputPartition,
        tp: &InputPartition,
        r: &SourceData,
        t: &SourceData,
        maps: &MapSet,
        store: &mut CellStore,
    ) -> TupleLevelStats {
        let (stats, completed) = process_region(
            rp,
            tp,
            &r.view(),
            &t.view(),
            maps,
            store,
            &CancellationToken::new(),
        );
        assert!(completed);
        stats
    }

    #[test]
    fn equi_join_produces_only_matching_pairs() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 1), (&[3.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[10.0], 0), (&[20.0], 2)]);
        let rp = one_partition(&r);
        let tp = one_partition(&t);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut store = tracked_store(OutputGrid::new(vec![0.0], vec![40.0], 8));
        let stats = run(&rp, &tp, &r, &t, &maps, &mut store);
        // Matching pairs: (r0,t0) and (r2,t0) — but 11 dominates 13 in 1-d,
        // so only one tuple survives.
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.pairs_examined, 6);
        assert_eq!(store.live_tuples(), 1);
    }

    #[test]
    fn mapped_values_are_oriented() {
        use progxe_skyline::Order;
        let r = SourceData::from_rows(1, &[(&[3.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[4.0], 0)]);
        let rp = one_partition(&r);
        let tp = one_partition(&t);
        let maps = MapSet::pairwise_sum(1, Preference::new(vec![Order::Highest]));
        // Oriented output = -(3+4) = -7.
        let mut store = tracked_store(OutputGrid::new(vec![-10.0], vec![0.0], 8));
        run(&rp, &tp, &r, &t, &maps, &mut store);
        assert_eq!(store.live_tuples(), 1);
        let (_, cell) = store.iter().find(|(_, c)| !c.is_empty()).unwrap();
        assert_eq!(cell.points().point(0), &[-7.0]);
    }

    #[test]
    fn build_side_selection_is_transparent() {
        // Asymmetric sizes exercise both build directions; ids must stay
        // (r, t) ordered either way.
        let r = SourceData::from_rows(1, &[(&[1.0], 5)]);
        let t = SourceData::from_rows(1, &[(&[1.0], 5), (&[2.0], 5), (&[3.0], 5), (&[4.0], 5)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut store = tracked_store(OutputGrid::new(vec![0.0], vec![10.0], 8));
        let rp = one_partition(&r);
        let tp = one_partition(&t);
        run(&rp, &tp, &r, &t, &maps, &mut store);
        let (_, cell) = store.iter().find(|(_, c)| !c.is_empty()).unwrap();
        assert_eq!(
            cell.ids(),
            &[(0, 0)],
            "r_idx=0, t_idx=0 regardless of build side"
        );

        // Mirrored: big R, small T.
        let mut store2 = tracked_store(OutputGrid::new(vec![0.0], vec![10.0], 8));
        run(&tp, &rp, &t, &r, &maps, &mut store2);
        let (_, cell2) = store2.iter().find(|(_, c)| !c.is_empty()).unwrap();
        assert_eq!(cell2.ids(), &[(0, 0)]);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_probe() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 0)]);
        let rp = one_partition(&r);
        let tp = one_partition(&t);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut store = tracked_store(OutputGrid::new(vec![0.0], vec![10.0], 8));
        let token = CancellationToken::new();
        token.cancel();
        let (stats, completed) =
            process_region(&rp, &tp, &r.view(), &t.view(), &maps, &mut store, &token);
        assert!(!completed);
        assert_eq!(stats.matches, 0);
        assert_eq!(store.live_tuples(), 0);
    }

    #[test]
    fn local_filter_keeps_exact_skyline_in_order() {
        let pref = DominanceModel::Pareto;
        let mut ids: Vec<(u32, u32)> = (0..5).map(|i| (i, i)).collect();
        let mut points = PointStore::from_rows(
            2,
            [
                [5.0, 5.0], // dominated by (1,1) later
                [0.5, 7.0], // survives (best dim 0)
                [1.0, 1.0], // survives, dominates 0 and 4
                [7.0, 0.5], // survives (best dim 1)
                [3.0, 3.0], // dominated
            ],
        );
        let mut stats = TupleLevelStats::default();
        local_skyline_filter(&mut ids, &mut points, &pref, &mut stats);
        assert_eq!(ids, vec![(1, 1), (2, 2), (3, 3)], "order preserved");
        assert_eq!(stats.locally_pruned, 2);
        assert!(stats.local_dominance_tests > 0);
    }

    #[test]
    fn local_filter_keeps_equal_tuples() {
        let pref = DominanceModel::Pareto;
        let mut ids = vec![(0, 0), (1, 1)];
        let mut points = PointStore::from_rows(1, [[3.0], [3.0]]);
        let mut stats = TupleLevelStats::default();
        local_skyline_filter(&mut ids, &mut points, &pref, &mut stats);
        assert_eq!(ids.len(), 2, "equal tuples are incomparable");
    }

    /// The store-level contract of upstream rejection: filtering each batch
    /// against the slab as it stood before the batch, then inserting the
    /// survivors with the rejected cells replayed, leaves the store in
    /// *exactly* the state plain insertion of the whole batch does — live
    /// tuples in the same per-cell order, the same cells dead — with NaN
    /// and ±∞ coordinates in the mix. NaN-as-tie dominance is not
    /// transitive, so NaN rows must stay out of the slab and NaN candidates
    /// must pass through untested; without either guard this diverges.
    #[test]
    fn upstream_rejection_with_replay_equals_store_side_rejection() {
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut plain = tracked_store(grid.clone());
        let mut filtered = tracked_store(grid.clone());
        let mut state = 0xD1FF_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut value = || match next() % 23 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => (next() % 100) as f64 / 10.0,
        };
        let mut stats = TupleLevelStats::default();
        let mut nan_admitted = false;
        for batch in 0..120u32 {
            let mut ids: Vec<(u32, u32)> = (0..9).map(|i| (batch, i)).collect();
            let mut points = PointStore::new(2);
            for _ in 0..ids.len() {
                points.push(&[value(), value()]);
            }
            for (i, &(r, t)) in ids.iter().enumerate() {
                plain.insert(r, t, points.point(i));
            }
            let snapshot = filtered.admitted_slab().to_vec();
            let rejected = snapshot_filter(&mut ids, &mut points, &snapshot, &grid, &mut stats);
            filtered.insert_batch(&ids, &points, &rejected);

            for ((_, a), (_, b)) in plain.iter().zip(filtered.iter()) {
                let at = format!("batch {batch}, cell {:?}", &a.coord()[..2]);
                assert_eq!(a.is_dead(), b.is_dead(), "{at}: dead flag");
                assert_eq!(a.ids(), b.ids(), "{at}: live tuples");
                nan_admitted |= a.points().raw().iter().any(|v| v.is_nan());
            }
        }
        assert!(stats.locally_pruned > 200, "filter barely fired");
        assert!(nan_admitted, "no NaN tuple was ever admitted");
        assert!(filtered.admitted_slab().iter().all(|v| !v.is_nan()));
        assert!(filtered.admitted_slab().iter().any(|v| v.is_infinite()));
        assert_eq!(
            plain.stats().tuples_inserted,
            filtered.stats().tuples_inserted
        );
    }

    #[test]
    fn local_filter_prunes_more_under_a_flexible_model() {
        use crate::fdom::{DominanceModel, FDominance, WeightConstraint};
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.45),
                WeightConstraint::at_most(2, 0, 0.55),
            ],
        )
        .unwrap();
        let model = DominanceModel::flexible(fdom);
        // Pareto-incomparable pair where the second is F-dominated
        // (vertex scores {4.9, 4.1} vs {5.1, 5.9}).
        let mut ids = vec![(0, 0), (1, 1)];
        let mut points = PointStore::from_rows(2, [[0.5, 8.5], [9.5, 1.5]]);
        let mut stats = TupleLevelStats::default();
        local_skyline_filter(&mut ids, &mut points, &model, &mut stats);
        assert_eq!(ids, vec![(0, 0)], "F-dominated batch member dropped");
        assert_eq!(stats.locally_pruned, 1);
    }
}
