//! Tuple-level processing of one region (Section III-B).
//!
//! For the chosen region `R_{a,b}`: evaluate the equi-join between the
//! tuples of `I^R_a` and `I^T_b`, apply the mapping functions to each match,
//! orient the output, and collect the mapped tuples into a private batch
//! (`join_batch`) for the ordered committer to insert into the shared
//! [`CellStore`] — the one way every region is computed, whichever thread
//! runs it.
//!
//! The producer is columnar. Each input partition is prepared once per
//! query as a [`JoinSide`] — rows grouped by join key beside a slab of
//! per-row oriented map components, each row carrying the index of its key
//! group. `join_region` merges the two sides' key tables once, which gives
//! every probe key group its partner group on the smaller side, and is then
//! one loop: for each probe row in partition order, read its group's
//! partner and add the probe row's components to the partner's slab, a
//! chunk of rows at a time. Maps that do not decompose
//! ([`MapSet::separable_at`]) go through the same loop with a second row
//! producer that calls `eval` per match over slabs of raw attributes. The
//! token is checked between chunks, so a `take(k)` consumer or a timeout
//! stops a huge region — even a single huge key group — mid-flight.
//!
//! Ahead of the expansion sits the *key-group look-ahead* — the paper's
//! region-level look-ahead (Section III-A) one level down. Two bounded
//! columnar sides ([`JoinSide::bounds`]) give every expansion an exact lower
//! corner, `probe row + group minimum`, computed with the add that produces
//! the rows; when a tuple the store already admitted dominates the corner
//! it dominates every row of the expansion, and the group is skipped
//! unexpanded.
//!
//! The key corners are tested in the same merge, so a settled key costs its
//! probe rows nothing but the skip count.
//!
//! Every such question — a key's corner, a probe row's corner, a batch
//! survivor — goes to the store's admitted forest as it stood at dispatch
//! ([`CellStore::admitted`]: a [`DominanceForest`] over every tuple the
//! store ever admitted, whose leaf boxes skip the rows that cannot dominate
//! the point). No per-unit guard is cut from it: a row that dominates a
//! point inside the region is `⪯` the region's upper corner anyway, so
//! asking the whole forest gives the same answer as asking those rows. The
//! corner questions first try the last few rows the forest answered with
//! (`RecentDominators`): a handful of admitted rows dominate most corners
//! of a region, and a forest row's answer is the forest's.
//!
//! The batch split follows the paper's own decomposition: everything up
//! to the cell-restricted dominance insert is *pure* per-region work
//! ([`RegionCtx`] is `Send + Sync` and owns all inputs), while Algorithm 2's
//! blocker bookkeeping stays with the single ordered committer in
//! [`crate::driver`]. The work unit additionally runs a filter stage over
//! its own batch: a local skyline pre-filter (a one-row vectorized sweep,
//! then a bounded window) — sound because Pareto dominance is transitive,
//! so a tuple dominated inside its batch can never survive the shared store
//! either — and then rejection against the admitted forest, which moves
//! the bulk of `CellStore::insert`'s rejections off the serial committer.
//! A rejected tuple leaves nothing behind in the store (cell death is
//! derived from the admitted tuples, [`CellStore::cell_is_dead`]), so where
//! it is rejected is invisible downstream.

use crate::cells::retain_tuples;
#[cfg(doc)]
use crate::cells::CellStore;
use crate::fdom::DominanceModel;
use crate::grid::{add_rows, JoinSide, JoinSource, SideBounds};
use crate::lookahead::Region;
use crate::mapping::MapSet;
use crate::pushthrough::Side;
use crate::session::CancellationToken;
use crate::source::SourceView;
use progxe_skyline::{kernel, DominanceForest, PointStore};
use std::time::{Duration, Instant};

/// Most join matches produced between two cancellation-token checks — the
/// row count of the chunks the join hands its consumer: bounds how far a
/// cancelled region can overshoot, even inside one huge key group.
pub const CANCEL_CHECK_INTERVAL: usize = 256;

/// Upper bound on the local pre-filter's comparison window. Tuples kept
/// while the window is full are simply passed through unfiltered (sound:
/// the committer's cell store re-checks everything), keeping worker-side
/// filtering at `O(matches × window)`.
const LOCAL_FILTER_WINDOW: usize = 256;

/// Most admitted rows a work unit keeps as recent dominators
/// ([`RecentDominators`]). On the join-bound benchmark inputs 4 left the
/// least look-ahead work of 1, 2, 4 and 8.
const RECENT_DOMINATORS: usize = 4;

/// Work counters from processing one region.
#[derive(Debug, Clone, Copy, Default)]
pub struct TupleLevelStats {
    /// The *logical* join work `n_R · n_T` of the paper's Equation 4 — the
    /// cost model's figure, not work done (that is `probes` + `matches`).
    pub pairs_examined: u64,
    /// Probe rows whose key was looked up in the other side's key groups.
    pub probes: u64,
    /// Join matches produced and mapped.
    pub matches: u64,
    /// Join matches the key-group look-ahead proved dominated and never
    /// expanded (the sizes of the skipped key groups); `matches + skipped`
    /// is what the region would have produced unpruned.
    pub skipped: u64,
    /// Rows this unit grouped by join key, being the first to join their
    /// partition (batch pipeline; streaming ingestion groups at seal time).
    pub build_rows: u64,
    /// Work of the key-group look-ahead's key and probe-row corner
    /// queries: the rows of the unit's recent-dominator window tested, plus
    /// the admitted forest's leaf boxes and rows tested
    /// ([`DominanceForest::find_dominator`]). Rows are tested by the
    /// batched kernels, so this advances at chunk granularity.
    pub lookahead_dominance_tests: u64,
    /// Work of the batch filters: pairwise tests of the local skyline
    /// pre-filter, plus the admitted-forest filter's leaf boxes and rows
    /// tested. Batched kernels too.
    pub filter_dominance_tests: u64,
    /// Produced tuples dropped by the batch filter stage before reaching
    /// the committer.
    pub locally_pruned: u64,
    /// Vertex dot products evaluated while projecting batches into the
    /// flexible model's vertex space (0 under Pareto).
    pub fdom_vertex_evals: u64,
}

/// The shared join + map + orient loop over two prepared partitions. Calls
/// `emit` with chunks of at most [`CANCEL_CHECK_INTERVAL`] matches — their
/// `(r id, t id)` pairs and, row-major, their oriented mapped values — in
/// probe-major order: probe rows (the larger side's) in partition order,
/// each one's matches in the build side's partition order. Returns the work
/// counters and whether the region ran to completion (`false` = cancelled
/// mid-region).
///
/// One merge of the two sides' key tables ([`match_keys`]) gives every
/// probe key group its [`Partner`] up front; a probe row reads its group's
/// through [`JoinSide::row`]'s group index, with no key lookup.
///
/// `admitted` holds tuples the cell store has admitted (oriented, no NaN —
/// [`CellStore::admitted`] or a snapshot of it). Over two bounded sides a
/// non-empty forest switches the key-group look-ahead on: a key whose
/// corner `probe group minimum + build group minimum` an admitted row
/// dominates is settled for the whole region, and a probe row of a key
/// still alive skips its group when `probe row + build group minimum` is
/// dominated. Both questions go through [`RecentDominators`]. The test is
/// Pareto whatever the query's model (Pareto dominance implies F-dominance,
/// and the store's live set is Pareto-maintained). Skipped matches are
/// counted, never emitted; an empty forest switches the look-ahead off.
///
/// Generic over the consumer (not `dyn`) so `emit` stays inlinable in the
/// hot loop.
pub(crate) fn join_region<F: FnMut(&[(u32, u32)], &[f64])>(
    r: &JoinSide,
    t: &JoinSide,
    maps: &MapSet,
    admitted: &DominanceForest,
    token: &CancellationToken,
    mut emit: F,
) -> (TupleLevelStats, bool) {
    let mut stats = TupleLevelStats::default();
    let (build, probe, build_is_r) = if r.len() <= t.len() {
        (r, t, true)
    } else {
        (t, r, false)
    };
    let columnar = build.holds_components();
    assert_eq!(columnar, probe.holds_components(), "one producer per query");
    let (dims, width) = (maps.out_dims(), build.width());
    let orders = maps.preference().orders();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(CANCEL_CHECK_INTERVAL);
    let mut rows = vec![0.0f64; CANCEL_CHECK_INTERVAL * dims];
    let mut raw = Vec::with_capacity(dims);
    let chunk_values = CANCEL_CHECK_INTERVAL * width;

    // The look-ahead's inputs: both sides' corners, and the key verdicts.
    let bounds = match (probe.bounds(), build.bounds()) {
        (Some(probe_bounds), Some(build_bounds)) if !admitted.is_empty() => {
            Some((probe_bounds, build_bounds))
        }
        _ => None,
    };
    let mut recent = RecentDominators::new(admitted);
    let tests = &mut stats.lookahead_dominance_tests;
    let partners = match_keys(probe, build, bounds, &mut recent, tests);
    let mut corner = vec![0.0f64; dims];

    // The token is re-read (one relaxed load) before every chunk and at the
    // end of every probe row, so a stop overshoots by at most one chunk and
    // a pre-cancelled token stops before any join work.
    let mut joined = 0usize;
    'probe: while joined < probe.len() {
        let (probe_id, group, probe_row) = probe.row(joined);
        let (mut ids, mut slab): (&[u32], &[f64]) = (&[], &[]);
        match partners[group as usize] {
            Partner::Absent => {}
            Partner::Settled(g) => stats.skipped += build.group(g as usize).0.len() as u64,
            Partner::Live(g) => {
                let g = g as usize;
                (ids, slab) = build.group(g);
                let dominated = bounds.is_some_and(|(_, build_bounds)| {
                    add_rows(probe_row, build_bounds.group_min(g), &mut corner);
                    recent.dominates(&corner, &mut stats.lookahead_dominance_tests)
                });
                if dominated {
                    stats.skipped += ids.len() as u64;
                    (ids, slab) = (&[], &[]);
                }
            }
        }
        let mut chunks = (ids.chunks(CANCEL_CHECK_INTERVAL)).zip(slab.chunks(chunk_values));
        loop {
            if token.is_cancelled() {
                break 'probe;
            }
            let Some((build_ids, build_rows)) = chunks.next() else {
                break;
            };
            let pair = |&b| {
                if build_is_r {
                    (b, probe_id)
                } else {
                    (probe_id, b)
                }
            };
            pairs.clear();
            pairs.extend(build_ids.iter().map(pair));
            let out = &mut rows[..build_ids.len() * dims];
            if columnar {
                add_rows(probe_row, build_rows, out);
            } else {
                let build_rows = build_rows.chunks_exact(width);
                for (out_row, build_row) in out.chunks_exact_mut(dims).zip(build_rows) {
                    if build_is_r {
                        maps.eval_into(build_row, probe_row, &mut raw);
                    } else {
                        maps.eval_into(probe_row, build_row, &mut raw);
                    }
                    for ((o, &v), order) in out_row.iter_mut().zip(&raw).zip(orders) {
                        *o = order.orient(v);
                    }
                }
            }
            emit(&pairs, out);
            stats.matches += build_ids.len() as u64;
        }
        joined += 1;
    }
    stats.probes = joined as u64;
    // Complete: the full nested-pair count n_R·n_T, the cost model's C_join
    // (Equation 4). Stopped: only the probe rows finished.
    stats.pairs_examined = joined as u64 * build.len() as u64;
    (stats, joined == probe.len())
}

/// What one probe key group meets on the build side of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partner {
    /// The key is not on the build side: the group's rows match nothing.
    Absent,
    /// Build group `g` holds the key, and an admitted row dominates the
    /// key's corner: every match of the group is skipped.
    Settled(u32),
    /// Build group `g` holds the key, still alive: each probe row's own
    /// corner decides.
    Live(u32),
}

/// The key level of the join, once per work unit: one merge of the two
/// ascending key tables gives every probe key group its [`Partner`]. With
/// `bounds` (the look-ahead on), a key both sides hold is settled when an
/// admitted row dominates `probe group minimum + build group minimum` —
/// the lower corner of everything the key produces in this region.
/// Indexed by probe group.
fn match_keys(
    probe: &JoinSide,
    build: &JoinSide,
    bounds: Option<(&SideBounds, &SideBounds)>,
    recent: &mut RecentDominators<'_>,
    tests: &mut u64,
) -> Vec<Partner> {
    let (probe_keys, build_keys) = (probe.group_keys(), build.group_keys());
    let mut partners = vec![Partner::Absent; probe_keys.len()];
    let mut corner = vec![0.0f64; probe.width()];
    let (mut p, mut b) = (0, 0);
    while p < probe_keys.len() && b < build_keys.len() {
        match probe_keys[p].cmp(&build_keys[b]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                let settled = bounds.is_some_and(|(probe_bounds, build_bounds)| {
                    let (probe_min, build_min) =
                        (probe_bounds.group_min(p), build_bounds.group_min(b));
                    add_rows(probe_min, build_min, &mut corner);
                    recent.dominates(&corner, tests)
                });
                partners[p] = if settled {
                    Partner::Settled(b as u32)
                } else {
                    Partner::Live(b as u32)
                };
                p += 1;
                b += 1;
            }
        }
    }
    partners
}

/// The admitted forest behind a small window of the rows it last answered
/// with — BNL's self-organizing window (Börzsönyi, Kossmann and Stocker,
/// "The Skyline Operator", ICDE 2001) in front of an index: a few admitted
/// rows dominate most of a region's corners, and testing them is cheaper
/// than a forest walk. The window holds forest rows only, so every answer
/// is the forest's.
struct RecentDominators<'f> {
    forest: &'f DominanceForest,
    /// Up to [`RECENT_DOMINATORS`] rows, flat.
    rows: Vec<f64>,
    /// The window slot the next forest answer overwrites once it is full.
    next: usize,
}

impl<'f> RecentDominators<'f> {
    fn new(forest: &'f DominanceForest) -> Self {
        Self {
            forest,
            rows: Vec::new(),
            next: 0,
        }
    }

    /// Whether a row of the forest strictly dominates `q`: the window
    /// first (batched kernel), then the forest, whose dominator joins the
    /// window in place of the oldest. `tests` advances by the window's row
    /// tests plus the forest's work.
    fn dominates(&mut self, q: &[f64], tests: &mut u64) -> bool {
        let dims = q.len();
        if kernel::any_dominates(dims, &self.rows, q, tests) {
            return true;
        }
        let Some(row) = self.forest.find_dominator(q, tests) else {
            return false;
        };
        if self.rows.len() < RECENT_DOMINATORS * dims {
            self.rows.extend_from_slice(row);
        } else {
            self.rows[self.next * dims..(self.next + 1) * dims].copy_from_slice(row);
            self.next = (self.next + 1) % RECENT_DOMINATORS;
        }
        true
    }
}

/// One pure, parallelizable work unit: join + map + orient the prepared
/// partition pair of region `rid` behind the key-group look-ahead,
/// pre-filter the batch down to its local skyline, and drop every survivor
/// dominated by a row of `snapshot`, the cell store's
/// [`admitted`](CellStore::admitted) forest as of dispatch (empty = no
/// upstream rejection). All three only drop tuples the committer's cell
/// store would reject anyway. A cancelled join is passed through
/// unfiltered and flagged `completed == false` — it must be discarded
/// whole.
fn join_batch(
    rid: u32,
    r: &JoinSide,
    t: &JoinSide,
    maps: &MapSet,
    snapshot: &DominanceForest,
    token: &CancellationToken,
) -> RegionBatch {
    let started = Instant::now();
    let mut ids: Vec<(u32, u32)> = Vec::new();
    let mut points = PointStore::new(maps.out_dims());
    let (mut stats, completed) = join_region(r, t, maps, snapshot, token, |pairs, rows| {
        ids.extend_from_slice(pairs);
        points.extend_from_flat(rows);
    });
    if completed {
        local_skyline_filter(&mut ids, &mut points, maps.dominance(), &mut stats);
        snapshot_filter(&mut ids, &mut points, snapshot, &mut stats);
    }
    RegionBatch {
        rid,
        ids,
        points,
        stats,
        completed,
        compute_time: started.elapsed(),
    }
}

/// The one work context of a query, shared by all of its tuple-level work
/// units on either backend and either front end: both sources' per-partition
/// [`JoinSide`] slots ([`JoinSource`]), the regions, and the mapping
/// functions. A closed relation fills a slot the first time a region joins
/// the partition; streaming ingestion sets it when the cell seals — a
/// closed relation is a stream whose every cell sealed at open.
///
/// `Send + Sync` by construction (everything is owned; [`MapSet`] clones
/// are `Arc` bumps; slots are `OnceLock`s, read without a lock), so an
/// `Arc<RegionCtx>` can be captured by `'static` thread-pool jobs.
#[derive(Debug)]
pub struct RegionCtx {
    maps: MapSet,
    /// The query-wide producer verdict ([`MapSet::separable_at`]).
    columnar: bool,
    /// Result ids are the filtered rows of a closed relation, the caller's
    /// row ids of a stream.
    r: JoinSource,
    t: JoinSource,
    /// Shared with the committer (which owns the schedule over the same
    /// region vector) — an `Arc` slice so neither side copies it.
    regions: std::sync::Arc<[Region]>,
}

impl RegionCtx {
    /// Bundles the per-query state; `maps` is a cheap clone (`Arc`-backed)
    /// and `columnar` its [`MapSet::separable_at`] verdict.
    pub(crate) fn new(
        maps: MapSet,
        columnar: bool,
        r: JoinSource,
        t: JoinSource,
        regions: std::sync::Arc<[Region]>,
    ) -> Self {
        Self {
            maps,
            columnar,
            r,
            t,
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

    /// One side's slots.
    pub(crate) fn source(&self, side: Side) -> &JoinSource {
        match side {
            Side::R => &self.r,
            Side::T => &self.t,
        }
    }

    /// Whether the slots are set as a stream's cells seal — the driver
    /// then gates every pop on `is_ready`.
    pub(crate) fn is_streamed(&self) -> bool {
        self.r.is_streamed()
    }

    /// Whether both partitions of region `rid` are prepared: on a closed
    /// relation once some region joined them, on a stream once both cells
    /// sealed.
    pub(crate) fn is_ready(&self, rid: u32) -> bool {
        let region = &self.regions[rid as usize];
        self.r.is_set(region.r_part as usize) && self.t.is_set(region.t_part as usize)
    }

    /// Seals stream cell `part` of `side`: prepares `rows` of `source`
    /// (in partition order, reporting `ids`) into its slot.
    pub(crate) fn seal(
        &self,
        side: Side,
        part: usize,
        source: &SourceView<'_>,
        rows: &[u32],
        ids: Vec<u32>,
    ) {
        let prepared = JoinSide::build(&self.maps, side, self.columnar, source, rows, ids);
        self.source(side).set(part, prepared);
    }

    /// The prepared partition pair of region `rid`, and the rows grouped to
    /// provide it.
    fn sides(&self, rid: u32) -> (&JoinSide, &JoinSide, u64) {
        let region = &self.regions[rid as usize];
        let (r, r_built) = self.r.side(region.r_part, &self.maps, self.columnar);
        let (t, t_built) = self.t.side(region.t_part, &self.maps, self.columnar);
        (r, t, r_built + t_built)
    }

    /// Computes region `rid` as a batch work unit (`join_batch`); the
    /// ordered committer commits the returned batch.
    ///
    /// # Panics
    /// Panics if a cell of a stream's region has not sealed.
    pub fn compute(
        &self,
        rid: u32,
        snapshot: &DominanceForest,
        token: &CancellationToken,
    ) -> RegionBatch {
        let started = Instant::now();
        let (r, t, built) = self.sides(rid);
        let mut batch = join_batch(rid, r, t, &self.maps, snapshot, token);
        // The unit's time includes preparing its partitions when it is the
        // first to join them.
        batch.compute_time = started.elapsed();
        batch.stats.build_rows = built;
        batch
    }
}

/// The output of one region work unit: mapped join results (oriented, local
/// skyline only) ready for ordered commit.
#[derive(Debug)]
pub struct RegionBatch {
    /// The region this batch belongs to.
    pub rid: u32,
    /// `(r id, t id)` of surviving tuples (filtered-source rows for the
    /// batch pipeline, caller row ids under streaming ingestion).
    pub ids: Vec<(u32, u32)>,
    /// Oriented output values, parallel to `ids`.
    pub points: PointStore,
    /// Work counters of the unit.
    pub stats: TupleLevelStats,
    /// Whether the join ran to completion. `false` means the token fired
    /// mid-region: the batch is partial and must not be committed.
    pub completed: bool,
    /// Wall-clock time the worker spent computing this unit.
    pub compute_time: Duration,
}

impl RegionBatch {
    /// A placeholder for a work unit that did not run to completion
    /// (cancellation, or a failed worker). Committers must treat it as a
    /// mid-region stop: never commit it, leave the region unresolved.
    pub fn aborted(rid: u32, dims: usize) -> Self {
        Self {
            rid,
            ids: Vec::new(),
            points: PointStore::new(dims.max(1)),
            stats: TupleLevelStats::default(),
            completed: false,
            compute_time: Duration::ZERO,
        }
    }
}

/// Drops every tuple Pareto-dominated by a row of `admitted` (oriented,
/// `points.dims()` values per row), preserving order. Pareto is the right
/// relation under any model: the forest records what the store — which
/// maintains its live set under Pareto — admitted, and Pareto dominance
/// implies F-dominance. Tuples with a NaN coordinate are passed through
/// untested (NaN-as-tie dominance is not transitive; the forest holds no
/// such rows either), so the relation applied here is a strict partial
/// order and the soundness argument on [`CellStore::admitted`] holds.
fn snapshot_filter(
    ids: &mut Vec<(u32, u32)>,
    points: &mut PointStore,
    admitted: &DominanceForest,
    stats: &mut TupleLevelStats,
) {
    if admitted.is_empty() || ids.is_empty() {
        return;
    }
    let tests = &mut stats.filter_dominance_tests;
    let keep: Vec<bool> = points
        .iter()
        .map(|p| p.iter().any(|v| v.is_nan()) || !admitted.any_dominates(p, tests))
        .collect();
    retain_kept(ids, points, &keep, stats);
}

/// Compacts a batch down to the rows flagged in `keep`, in place and
/// preserving order (no reallocation), and counts the rest as pruned.
fn retain_kept(
    ids: &mut Vec<(u32, u32)>,
    points: &mut PointStore,
    keep: &[bool],
    stats: &mut TupleLevelStats,
) {
    let survivors = keep.iter().filter(|&&k| k).count();
    if survivors == keep.len() {
        return;
    }
    retain_tuples(ids, points, keep);
    stats.locally_pruned += (keep.len() - survivors) as u64;
}

/// Order-preserving local skyline filter: drops tuples dominated (under the
/// query's [`DominanceModel`], over oriented values) by another tuple of
/// the same batch. Sound as a pre-filter because the relation is a
/// transitive strict partial order — a tuple dominated inside its batch
/// can never belong to the final (flexible) skyline, and its dominator
/// (or a dominator of that) survives to reject whatever it would have
/// rejected. A `champion_sweep` clears the bulk in one vectorized pass;
/// the bounded `window_filter` does the rest.
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
    let mut keep = champion_sweep(kd, kdata, &mut stats.filter_dominance_tests);
    window_filter(kd, kdata, &mut keep, &mut stats.filter_dominance_tests);
    retain_kept(ids, points, &keep, stats);
}

/// The keep-mask that drops every row of `kdata` (row-major, `kd` all-lowest
/// values per row) dominated by the batch's *champion* — its first row of
/// minimal coordinate sum — in one [`kernel::dominated_mask`] pass; on
/// typical batches that one row dominates most of the others. By
/// transitivity the `window_filter` that follows keeps exactly the rows,
/// in the order, it would keep unaided whenever its window does not
/// saturate. Skipped (nothing dropped, nothing charged) when a coordinate
/// sum is NaN, which covers every batch holding a NaN value: NaN-as-tie
/// dominance is not transitive, so dropping a row early could change what
/// the window filter decides about the others.
fn champion_sweep(kd: usize, kdata: &[f64], tests: &mut u64) -> Vec<bool> {
    let (mut champion, mut least, mut any_nan) = (0usize, f64::INFINITY, false);
    for (i, row) in kdata.chunks_exact(kd).enumerate() {
        let sum: f64 = row.iter().sum();
        any_nan |= sum.is_nan();
        if sum < least {
            least = sum;
            champion = i;
        }
    }
    let mut keep = vec![true; kdata.len() / kd];
    if !any_nan {
        let row = &kdata[champion * kd..(champion + 1) * kd];
        kernel::dominated_mask(kd, kdata, row, &mut keep, tests);
        keep.iter_mut()
            .for_each(|dominated| *dominated = !*dominated);
    }
    keep
}

/// Order-preserving bounded BNL over the rows still marked in `keep`.
/// Bounded by [`LOCAL_FILTER_WINDOW`] so a worker never does quadratic work
/// on a huge region.
fn window_filter(kd: usize, kdata: &[f64], keep: &mut [bool], tests: &mut u64) {
    let mut window: Vec<u32> = Vec::new();
    let mut wpoints = PointStore::new(kd);
    let mut mask: Vec<bool> = Vec::new();
    for i in 0..keep.len() {
        if !keep[i] {
            continue;
        }
        let p = &kdata[i * kd..(i + 1) * kd];
        if kernel::any_dominates(kd, wpoints.raw(), p, tests) {
            keep[i] = false;
            continue;
        }
        mask.clear();
        mask.resize(window.len(), false);
        if kernel::dominated_mask(kd, wpoints.raw(), p, &mut mask, tests) > 0 {
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
    use crate::cells::CellStore;
    use crate::output_grid::{Coord, OutputGrid, MAX_DIMS};
    use crate::source::SourceData;
    use progxe_skyline::Preference;

    /// A forest over `rows` (flat, `dims` values per row), one publish.
    fn forest_of(dims: usize, rows: &[f64]) -> DominanceForest {
        let mut forest = DominanceForest::new(dims);
        forest.publish(rows);
        forest
    }

    /// Each source whole, as one prepared partition.
    fn partitions(r: &SourceData, t: &SourceData, maps: &MapSet) -> (JoinSide, JoinSide) {
        let columnar = maps.separable_at(r.view().attrs_of(0), t.view().attrs_of(0));
        let whole = |src: &SourceData, side| {
            let rows: Vec<u32> = (0..src.len() as u32).collect();
            JoinSide::build(maps, side, columnar, &src.view(), &rows, rows.clone())
        };
        (whole(r, Side::R), whole(t, Side::T))
    }

    /// The unfiltered reference a work unit must be invisible against: joins
    /// one prepared partition pair, look-ahead off, and inserts every mapped
    /// match straight into `store`. Returns the work counters and whether
    /// the region completed (`false` = cancelled mid-region, partial insert
    /// set).
    fn join_into_store(
        r: &JoinSide,
        t: &JoinSide,
        maps: &MapSet,
        store: &mut CellStore,
        token: &CancellationToken,
    ) -> (TupleLevelStats, bool) {
        let dims = maps.out_dims();
        join_region(
            r,
            t,
            maps,
            &DominanceForest::default(),
            token,
            |pairs, rows| {
                for (&(r_id, t_id), row) in pairs.iter().zip(rows.chunks_exact(dims)) {
                    store.insert(r_id, t_id, row);
                }
            },
        )
    }

    fn run(
        r: &SourceData,
        t: &SourceData,
        maps: &MapSet,
        store: &mut CellStore,
    ) -> TupleLevelStats {
        let (rp, tp) = partitions(r, t, maps);
        let (stats, completed) = join_into_store(&rp, &tp, maps, store, &CancellationToken::new());
        assert!(completed);
        stats
    }

    #[test]
    fn equi_join_produces_only_matching_pairs() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 1), (&[3.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[10.0], 0), (&[20.0], 2)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut store = CellStore::new(OutputGrid::new(vec![0.0], vec![40.0], 8));
        let stats = run(&r, &t, &maps, &mut store);
        // Matching pairs: (r0,t0) and (r2,t0) — but 11 dominates 13 in 1-d,
        // so only one tuple survives.
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.pairs_examined, 6, "logical n_R·n_T");
        assert_eq!(stats.probes, 3, "the larger side probes");
        assert_eq!(store.live_tuples(), 1);
    }

    #[test]
    fn mapped_values_are_oriented() {
        use progxe_skyline::Order;
        let r = SourceData::from_rows(1, &[(&[3.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[4.0], 0)]);
        let maps = MapSet::pairwise_sum(1, Preference::new(vec![Order::Highest]));
        // Oriented output = -(3+4) = -7.
        let mut store = CellStore::new(OutputGrid::new(vec![-10.0], vec![0.0], 8));
        run(&r, &t, &maps, &mut store);
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
        let mut store = CellStore::new(OutputGrid::new(vec![0.0], vec![10.0], 8));
        run(&r, &t, &maps, &mut store);
        let (_, cell) = store.iter().find(|(_, c)| !c.is_empty()).unwrap();
        assert_eq!(
            cell.ids(),
            &[(0, 0)],
            "r_idx=0, t_idx=0 regardless of build side"
        );

        // Mirrored: big R, small T.
        let mut store2 = CellStore::new(OutputGrid::new(vec![0.0], vec![10.0], 8));
        run(&t, &r, &maps, &mut store2);
        let (_, cell2) = store2.iter().find(|(_, c)| !c.is_empty()).unwrap();
        assert_eq!(cell2.ids(), &[(0, 0)]);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_probe() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 0)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut store = CellStore::new(OutputGrid::new(vec![0.0], vec![10.0], 8));
        let token = CancellationToken::new();
        token.cancel();
        let (rp, tp) = partitions(&r, &r, &maps);
        let (stats, completed) = join_into_store(&rp, &tp, &maps, &mut store, &token);
        assert!(!completed);
        assert_eq!(stats.matches, 0);
        assert_eq!(store.live_tuples(), 0);
        // The work unit settles keys before the first probe row: a token
        // that fired by then still stops the unit before anything is
        // expanded.
        let batch = join_batch(0, &rp, &tp, &maps, &forest_of(1, &[-1.0]), &token);
        assert!(!batch.completed);
        assert_eq!((batch.stats.matches, batch.ids.len()), (0, 0));
    }

    /// One key group of 224 × 224 ≈ 50k matches, the token fired by the
    /// consumer on the first chunk it sees: the columnar producer stops
    /// within `CANCEL_CHECK_INTERVAL` work items instead of finishing the
    /// group (`tests/parallel.rs` cancels the per-match one from inside a
    /// map) — with the look-ahead off, and with an admitted row that leaves the key
    /// alive and would skip the later probe rows.
    #[test]
    fn mid_group_cancel_stops_within_the_check_interval() {
        let mut src = SourceData::new(1);
        for i in 0..224 {
            src.push(&[i as f64], 0);
        }
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let (rp, tp) = partitions(&src, &src, &maps);
        let at_100 = forest_of(1, &[100.5]);
        for guard in [&DominanceForest::default(), &at_100] {
            let token = CancellationToken::new();
            let mut seen = 0usize;
            let (stats, completed) = join_region(&rp, &tp, &maps, guard, &token, |pairs, rows| {
                assert_eq!(pairs.len(), rows.len());
                seen += pairs.len();
                token.cancel();
            });
            assert!(!completed);
            assert!(seen > 0 && seen <= CANCEL_CHECK_INTERVAL, "{seen} matches");
            assert_eq!((stats.matches, stats.skipped), (seen as u64, 0));
            assert!(stats.pairs_examined < 224 * 224, "partial work only");
        }
        // Run to the end, that row skips every probe row above 100.
        let token = CancellationToken::new();
        let (stats, completed) = join_region(&rp, &tp, &maps, &at_100, &token, |_, _| {});
        assert!(completed);
        assert_eq!((stats.matches, stats.skipped), (101 * 224, 123 * 224));
    }

    /// Random batches with ties, duplicated minima and ±∞: the champion
    /// sweep changes neither the survivors nor their order.
    #[test]
    fn champion_sweep_is_invisible_to_the_window_filter() {
        let mut state = 0xC4A3_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut swept_something = false;
        for round in 0..200 {
            let (kd, n) = (1 + round % 4, 2 + (next() % 120) as usize);
            let mut kdata: Vec<f64> = (0..n * kd)
                .map(|_| match next() % 40 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    v => (v % 6) as f64,
                })
                .collect();
            // Duplicate one row over another: tied minima, equal points.
            let (from, to) = ((next() as usize % n) * kd, (next() as usize % n) * kd);
            kdata.copy_within(from..from + kd, to);

            let (mut plain, mut tests) = (vec![true; n], 0u64);
            window_filter(kd, &kdata, &mut plain, &mut tests);
            let mut swept = champion_sweep(kd, &kdata, &mut tests);
            swept_something |= swept.contains(&false);
            window_filter(kd, &kdata, &mut swept, &mut tests);
            assert_eq!(plain, swept, "round {round}: kd={kd} rows={kdata:?}");
        }
        assert!(swept_something, "the sweep never fired");
    }

    #[test]
    fn champion_sweep_leaves_nan_batches_alone() {
        // (1,1) would clear (2,2); the NaN row vetoes the sweep.
        let kdata = [2.0, 2.0, f64::NAN, 0.0, 1.0, 1.0];
        let mut tests = 0u64;
        let keep = champion_sweep(2, &kdata, &mut tests);
        assert_eq!((keep, tests), (vec![true; 3], 0));
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
        assert!(stats.filter_dominance_tests > 0);
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

    /// Every grid position's live tuples (in order) and derived death —
    /// all of a store's state that anything downstream of the committer
    /// reads. A position without a cell holds nothing, and is dead iff a
    /// populated cell fully dominates it.
    fn assert_same_cells(plain: &CellStore, filtered: &CellStore, at: &str) {
        let grid = plain.grid();
        let mut top = [0; MAX_DIMS];
        top[..grid.dims()].fill(grid.cells_per_dim() - 1);
        let ids =
            |s: &CellStore, c: &Coord| s.find(c).map_or(Vec::new(), |i| s.cell(i).ids().to_vec());
        let dead =
            |s: &CellStore, c: &Coord| s.find(c).map_or(s.region_is_dead(c), |i| s.cell_is_dead(i));
        for c in grid.iter_box([0; MAX_DIMS], top) {
            let at = format!("{at}, cell {:?}", &c[..grid.dims()]);
            assert_eq!(ids(plain, &c), ids(filtered, &c), "{at}: live tuples");
            assert_eq!(dead(plain, &c), dead(filtered, &c), "{at}: dead");
        }
    }

    /// The store-level contract of upstream rejection: filtering each batch
    /// against the admitted forest as it stood before the batch, then
    /// inserting the survivors, leaves every cell holding the live tuples,
    /// in the order, plain insertion of the whole batch does, and the same
    /// cells dead
    /// ([`CellStore::cell_is_dead`]; the *flags* differ — a rejected tuple
    /// that never reaches the store cannot memoize its cell's death) — with
    /// NaN and ±∞ coordinates in the mix. NaN-as-tie dominance is not
    /// transitive, so NaN rows must stay out of the forest and NaN candidates
    /// must pass through untested; without either guard this diverges.
    #[test]
    fn upstream_rejection_equals_store_side_rejection() {
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut plain = CellStore::new(grid.clone());
        let mut filtered = CellStore::new(grid.clone());
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
            let snapshot = filtered.admitted().clone();
            snapshot_filter(&mut ids, &mut points, &snapshot, &mut stats);
            for (i, &(r, t)) in ids.iter().enumerate() {
                filtered.insert(r, t, points.point(i));
            }
            filtered.publish_admitted();
            assert_same_cells(&plain, &filtered, &format!("batch {batch}"));
            nan_admitted |=
                (plain.iter()).any(|(_, c)| c.points().raw().iter().any(|v| v.is_nan()));
        }
        assert!(stats.locally_pruned > 200, "filter barely fired");
        assert!(nan_admitted, "no NaN tuple was ever admitted");
        let admitted = || filtered.admitted().rows().flatten();
        assert!(admitted().all(|v| !v.is_nan()));
        assert!(admitted().any(|v| v.is_infinite()));
        assert_eq!(
            plain.stats().tuples_inserted,
            filtered.stats().tuples_inserted
        );
    }

    /// A relation of `n` random rows over `[lo, lo + 10)²` with 4 join keys.
    fn random_relation(n: usize, lo: f64, state: &mut u64) -> SourceData {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 33
        };
        let mut src = SourceData::new(2);
        for _ in 0..n {
            let row = [lo, lo].map(|lo| lo + (next() % 1000) as f64 / 100.0);
            src.push(&row, (next() % 4) as u32);
        }
        src
    }

    /// The same contract one level up, for the key-group look-ahead:
    /// committing `join_batch`'s output — pruned against the store's own
    /// forest as it stood before the unit, locally filtered, snapshot
    /// filtered — leaves every cell exactly as streaming the region's every
    /// match into the store (`join_into_store`) does. The streaming side
    /// admits transient tuples the batch side never sees; eviction is
    /// order-stable, so they leave nothing behind. Skipped and produced
    /// matches add up to the streamed ones.
    #[test]
    fn pruned_batches_commit_to_the_same_cells_as_streamed_regions() {
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        // Coarse cells, so a transient's eviction has neighbours to permute.
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![40.0, 40.0], 4);
        let mut streamed = CellStore::new(grid.clone());
        let mut batched = CellStore::new(grid);
        let mut state = 0x5EED_u64;
        let token = CancellationToken::new();
        let sides: Vec<(JoinSide, JoinSide)> = [0.0, 10.0, 5.0]
            .iter()
            .enumerate()
            .map(|(i, &lo)| {
                let r = random_relation(60 + 20 * i, lo, &mut state);
                let t = random_relation(50, lo, &mut state);
                partitions(&r, &t, &maps)
            })
            .collect();
        let mut skipped = 0u64;
        // Worst corner first, so later regions meet admitted rows that matter.
        for (rid, (ri, ti)) in [(1, 1), (1, 2), (2, 1), (2, 2), (0, 1), (1, 0), (0, 0)]
            .into_iter()
            .enumerate()
        {
            let (rp, tp) = (&sides[ri].0, &sides[ti].1);
            let (plain, completed) = join_into_store(rp, tp, &maps, &mut streamed, &token);
            assert!(completed);
            let snapshot = batched.admitted().clone();
            let batch = join_batch(rid as u32, rp, tp, &maps, &snapshot, &token);
            assert!(batch.completed);
            assert_eq!(plain.matches, batch.stats.matches + batch.stats.skipped);
            skipped += batch.stats.skipped;
            for (&(r, t), point) in batch.ids.iter().zip(batch.points.iter()) {
                batched.insert(r, t, point);
            }
            batched.publish_admitted();
            assert_same_cells(&streamed, &batched, &format!("region {rid}"));
        }
        assert!(skipped > 0, "the look-ahead never fired");
        assert!(
            streamed.stats().tuples_inserted > batched.stats().tuples_inserted,
            "no transient tuple put eviction order to the test"
        );
    }

    /// Sides holding a NaN, a `+∞` or a `−∞` component — the `−∞ + ∞`
    /// pairing included, whose row is NaN behind a finite-looking corner —
    /// are unbounded: the look-ahead stays off and the batch is, bit for
    /// bit, join + local filter + snapshot filter. Inputs are finite; the
    /// first output's map overflows them into the poisons: `2·a0` per side
    /// is ±∞ at a0 = ±1e308, and `2·(a0 − a1)` is NaN at (1e308, 1e308).
    #[test]
    fn non_finite_sides_are_never_pruned() {
        use crate::mapping::{MappingFunction, WeightedSum};
        let weighted = |w: Vec<f64>| {
            let maps: Vec<Box<dyn MappingFunction>> = vec![
                Box::new(WeightedSum::new(w.clone(), w)),
                Box::new(WeightedSum::new(vec![0.0, 1.0], vec![0.0, 1.0])),
            ];
            MapSet::new(maps, Preference::all_lowest(2)).unwrap()
        };
        let (doubled, differenced) = (weighted(vec![2.0, 0.0]), weighted(vec![2.0, -2.0]));
        let token = CancellationToken::new();
        // Dominates every finite corner: whatever may be pruned, is.
        let snapshot = forest_of(2, &[-f64::MAX, -f64::MAX]);
        let bits = |batch: &RegionBatch| -> Vec<u64> {
            batch.points.raw().iter().map(|v| v.to_bits()).collect()
        };
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        for (maps, r_row, t_row, r_poison, t_poison) in [
            (&differenced, [1e308, 1e308], [1.0, 3.0], f64::NAN, 0.0),
            (&doubled, [1e308, 2.0], [1.0, 3.0], inf, 0.0),
            (&doubled, [1.0, 2.0], [-1e308, 3.0], 0.0, ninf),
            // No row beats the pairing's second output, 0.
            (&doubled, [-1e308, 0.0], [1e308, 0.0], ninf, inf),
            (&doubled, [1.0, 2.0], [1.0, 3.0], 0.0, 0.0),
        ] {
            let mut state = 0xBAD_u64;
            let (mut r, mut t) = (
                random_relation(40, 0.0, &mut state),
                random_relation(30, 0.0, &mut state),
            );
            r.push(&r_row, 1);
            t.push(&t_row, 1);
            let (rp, tp) = partitions(&r, &t, maps);
            let batch = join_batch(0, &rp, &tp, maps, &snapshot, &token);

            let label = format!("poison components ({r_poison}, {t_poison})");
            if r_poison.is_finite() && t_poison.is_finite() {
                // The control: bounded sides, everything skipped.
                assert_eq!(batch.stats.matches, 0, "{label}");
                assert!(batch.stats.skipped > 0 && batch.ids.is_empty(), "{label}");
                continue;
            }
            let mut reference = RegionBatch::aborted(0, 2);
            let unguarded = DominanceForest::default();
            let (mut stats, completed) =
                join_region(&rp, &tp, maps, &unguarded, &token, |pairs, rows| {
                    reference.ids.extend_from_slice(pairs);
                    reference.points.extend_from_flat(rows);
                });
            assert!(completed);
            local_skyline_filter(
                &mut reference.ids,
                &mut reference.points,
                maps.dominance(),
                &mut stats,
            );
            snapshot_filter(
                &mut reference.ids,
                &mut reference.points,
                &snapshot,
                &mut stats,
            );
            assert_eq!(batch.stats.skipped, 0, "{label}");
            assert_eq!(batch.stats.matches, stats.matches, "{label}");
            assert_eq!(batch.ids, reference.ids, "{label}");
            assert_eq!(bits(&batch), bits(&reference), "{label}");
            if r_poison == f64::NEG_INFINITY {
                let nan_rows = batch.points.iter().filter(|p| p[0].is_nan()).count();
                assert_eq!(nan_rows, 1, "{label}: the −∞ + ∞ row passes untested");
            }
        }
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

    /// The per-row loop the key merge replaced, kept as the reference
    /// `join_region` must match: every probe row binary-searches the build
    /// side's key table, a separate pass settles the keys, and every
    /// corner is a fresh forest query.
    fn join_region_per_row<F: FnMut(&[(u32, u32)], &[f64])>(
        r: &JoinSide,
        t: &JoinSide,
        maps: &MapSet,
        admitted: &DominanceForest,
        token: &CancellationToken,
        mut emit: F,
    ) -> (TupleLevelStats, bool) {
        let mut stats = TupleLevelStats::default();
        let (build, probe, build_is_r) = if r.len() <= t.len() {
            (r, t, true)
        } else {
            (t, r, false)
        };
        let (columnar, dims, width) = (build.holds_components(), maps.out_dims(), build.width());
        let orders = maps.preference().orders();
        let mut rows = vec![0.0f64; CANCEL_CHECK_INTERVAL * dims];
        let mut raw = Vec::with_capacity(dims);
        let bounds = match (probe.bounds(), build.bounds()) {
            (Some(p), Some(b)) if !admitted.is_empty() => Some((p, b)),
            _ => None,
        };
        let tests = &mut stats.lookahead_dominance_tests;
        let settled = bounds.map_or_else(Vec::new, |(probe_bounds, build_bounds)| {
            let (probe_keys, build_keys) = (probe.group_keys(), build.group_keys());
            let mut settled = vec![false; build_keys.len()];
            let mut corner = vec![0.0f64; dims];
            for (b, key) in build_keys.iter().enumerate() {
                if let Ok(p) = probe_keys.binary_search(key) {
                    add_rows(
                        probe_bounds.group_min(p),
                        build_bounds.group_min(b),
                        &mut corner,
                    );
                    settled[b] = admitted.any_dominates(&corner, tests);
                }
            }
            settled
        });
        let mut corner = vec![0.0f64; dims];
        let mut joined = 0usize;
        'probe: while joined < probe.len() {
            let (probe_id, group, probe_row) = probe.row(joined);
            let key = probe.group_keys()[group as usize];
            let (mut ids, mut slab): (&[u32], &[f64]) = (&[], &[]);
            if let Ok(g) = build.group_keys().binary_search(&key) {
                (ids, slab) = build.group(g);
                let dominated = bounds.is_some_and(|(_, build_bounds)| {
                    settled[g] || {
                        add_rows(probe_row, build_bounds.group_min(g), &mut corner);
                        let tests = &mut stats.lookahead_dominance_tests;
                        admitted.any_dominates(&corner, tests)
                    }
                });
                if dominated {
                    stats.skipped += ids.len() as u64;
                    (ids, slab) = (&[], &[]);
                }
            }
            let chunks = ids.chunks(CANCEL_CHECK_INTERVAL);
            let mut chunks = chunks.zip(slab.chunks(CANCEL_CHECK_INTERVAL * width));
            loop {
                if token.is_cancelled() {
                    break 'probe;
                }
                let Some((build_ids, build_rows)) = chunks.next() else {
                    break;
                };
                let pairs: Vec<(u32, u32)> = (build_ids.iter())
                    .map(|&b| {
                        if build_is_r {
                            (b, probe_id)
                        } else {
                            (probe_id, b)
                        }
                    })
                    .collect();
                let out = &mut rows[..build_ids.len() * dims];
                if columnar {
                    add_rows(probe_row, build_rows, out);
                } else {
                    let build_rows = build_rows.chunks_exact(width);
                    for (out_row, build_row) in out.chunks_exact_mut(dims).zip(build_rows) {
                        if build_is_r {
                            maps.eval_into(build_row, probe_row, &mut raw);
                        } else {
                            maps.eval_into(probe_row, build_row, &mut raw);
                        }
                        for ((o, &v), order) in out_row.iter_mut().zip(&raw).zip(orders) {
                            *o = order.orient(v);
                        }
                    }
                }
                emit(&pairs, out);
                stats.matches += build_ids.len() as u64;
            }
            joined += 1;
        }
        stats.probes = joined as u64;
        stats.pairs_examined = joined as u64 * build.len() as u64;
        (stats, joined == probe.len())
    }

    /// Every chunk a join hands its consumer: pairs and row bits.
    type Chunks = Vec<(Vec<(u32, u32)>, Vec<u64>)>;

    /// Runs `join` with a consumer that records every chunk and fires the
    /// token on the `stop_after`-th.
    fn recorded(
        stop_after: usize,
        join: impl FnOnce(
            &CancellationToken,
            &mut dyn FnMut(&[(u32, u32)], &[f64]),
        ) -> (TupleLevelStats, bool),
    ) -> (Chunks, TupleLevelStats, bool) {
        let token = CancellationToken::new();
        let mut chunks = Chunks::new();
        let (stats, completed) = join(&token, &mut |pairs, rows| {
            chunks.push((pairs.to_vec(), rows.iter().map(|v| v.to_bits()).collect()));
            if chunks.len() == stop_after {
                token.cancel();
            }
        });
        (chunks, stats, completed)
    }

    /// `join_region` and the per-row reference over the same inputs, the
    /// token fired on the `stop_after`-th chunk: equal chunks and equal
    /// counts. Returns both runs' stats and `join_region`'s chunks.
    fn assert_joins_alike(
        (r, t): (&JoinSide, &JoinSide),
        maps: &MapSet,
        admitted: &DominanceForest,
        stop_after: usize,
        label: &str,
    ) -> (TupleLevelStats, TupleLevelStats, Chunks) {
        let (chunks, new, new_completed) = recorded(stop_after, |token, emit| {
            join_region(r, t, maps, admitted, token, emit)
        });
        let (reference, old, old_completed) = recorded(stop_after, |token, emit| {
            join_region_per_row(r, t, maps, admitted, token, emit)
        });
        let label = format!("{label}, token at chunk {stop_after}");
        assert_eq!(new_completed, old_completed, "{label}");
        assert_eq!(chunks.len(), reference.len(), "{label}: chunk count");
        assert!(chunks == reference, "{label}: chunks differ");
        let counts = |s: &TupleLevelStats| (s.matches, s.skipped, s.probes, s.pairs_examined);
        assert_eq!(counts(&new), counts(&old), "{label}: counts");
        (new, old, chunks)
    }

    /// A relation of `n` rows over `[lo, lo + 10)²`: join keys drawn from
    /// `keys`, except that `heavy` takes about half of the rows.
    fn keyed_relation(
        n: usize,
        lo: f64,
        keys: std::ops::Range<u32>,
        heavy: u32,
        next: &mut impl FnMut(u64) -> u64,
    ) -> SourceData {
        let mut src = SourceData::new(2);
        for _ in 0..n {
            let row = [
                lo + next(1000) as f64 / 100.0,
                lo + next(1000) as f64 / 100.0,
            ];
            let key = if next(2) == 0 {
                heavy
            } else {
                keys.start + next(u64::from(keys.end - keys.start)) as u32
            };
            src.push(&row, key);
        }
        src
    }

    /// The key merge, the row → group index and the recent-dominator window
    /// change nothing a consumer sees: over random partitions — keys on one
    /// side only, settled keys, one key holding half of the rows (a group
    /// past the check interval) — with an admitted forest, an empty one, an
    /// unbounded side and `GeneralMap` sides, `join_region` hands out the
    /// reference's chunks with the reference's counts, also when the token
    /// fires on the first chunk, mid-group and half-way.
    #[test]
    fn key_merge_emits_like_the_per_row_loop() {
        let mut state = 0x6E0_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let summed = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (mut absent, mut settled, mut row_skips, mut mid_group) = (0, 0, 0u64, 0);
        let (mut new_tests, mut old_tests) = (0u64, 0u64);
        let mut unbounded_seen = false;
        for case in 0..12 {
            let heavy = 5;
            let r = keyed_relation(520 + next(240) as usize, 0.0, 0..10, heavy, &mut next);
            let t = keyed_relation(520 + next(240) as usize, 0.0, 3..14, heavy, &mut next);
            // Admitted rows from far below every corner to above most.
            let floor = [-1.0, 1.0, 3.0, 6.0][case % 4];
            let admitted: Vec<f64> = (0..2 * (1 + next(40)))
                .map(|_| floor + next(800) as f64 / 100.0)
                .collect();
            let forest = forest_of(2, &admitted);
            let (rp, tp) = partitions(&r, &t, &summed);
            let (probe, build) = if rp.len() <= tp.len() {
                (&tp, &rp)
            } else {
                (&rp, &tp)
            };
            let mut recent = RecentDominators::new(&forest);
            let bounds = Some((probe.bounds().unwrap(), build.bounds().unwrap()));
            for partner in match_keys(probe, build, bounds, &mut recent, &mut 0) {
                absent += usize::from(partner == Partner::Absent);
                settled += usize::from(matches!(partner, Partner::Settled(_)));
            }

            for guard in [&forest, &DominanceForest::default()] {
                let label = format!("case {case}, forest of {} rows", guard.len());
                let (new, old, chunks) =
                    assert_joins_alike((&rp, &tp), &summed, guard, usize::MAX, &label);
                new_tests += new.lookahead_dominance_tests;
                old_tests += old.lookahead_dominance_tests;
                // The probe id of a chunk: the pair component of the larger side.
                let probe_id = |c: usize| {
                    let (r_id, t_id) = chunks[c].0[0];
                    if rp.len() <= tp.len() {
                        t_id
                    } else {
                        r_id
                    }
                };
                let inside = (0..chunks.len().saturating_sub(1)).find(|&c| {
                    chunks[c].0.len() == CANCEL_CHECK_INTERVAL && probe_id(c) == probe_id(c + 1)
                });
                mid_group += usize::from(inside.is_some());
                let stops = [Some(1), inside.map(|c| c + 1), Some(chunks.len() / 2 + 1)];
                for stop in stops.into_iter().flatten() {
                    assert_joins_alike((&rp, &tp), &summed, guard, stop, &label);
                }
                if !guard.is_empty() {
                    row_skips += new.skipped;
                }
            }

            // One +∞ component (2 · 1e308) leaves the R side unbounded.
            let doubled = {
                use crate::mapping::{MappingFunction, WeightedSum};
                let maps: Vec<Box<dyn MappingFunction>> = vec![
                    Box::new(WeightedSum::new(vec![2.0, 0.0], vec![2.0, 0.0])),
                    Box::new(WeightedSum::new(vec![0.0, 1.0], vec![0.0, 1.0])),
                ];
                MapSet::new(maps, Preference::all_lowest(2)).unwrap()
            };
            let mut r_inf = r.clone();
            r_inf.push(&[1e308, 0.0], heavy);
            let (rp, tp) = partitions(&r_inf, &t, &doubled);
            unbounded_seen |= rp.bounds().is_none();
            assert_joins_alike((&rp, &tp), &doubled, &forest, usize::MAX, "unbounded");

            // Maps hidden in `GeneralMap`s: raw-attribute sides, `eval` per match.
            if case % 3 == 0 {
                use crate::mapping::{GeneralMap, MappingFunction};
                let maps: Vec<Box<dyn MappingFunction>> = vec![
                    Box::new(GeneralMap::max_of(0, 0)),
                    Box::new(GeneralMap::max_of(1, 1)),
                ];
                let general = MapSet::new(maps, Preference::all_lowest(2)).unwrap();
                let (rp, tp) = partitions(&r, &t, &general);
                assert!(!rp.holds_components());
                assert_joins_alike((&rp, &tp), &general, &forest, usize::MAX, "general");
                assert_joins_alike((&rp, &tp), &general, &forest, 3, "general");
            }
        }
        assert!(
            absent > 0 && settled > 0,
            "{absent} absent, {settled} settled"
        );
        assert!(row_skips > 0 && mid_group > 0 && unbounded_seen);
        assert!(
            new_tests < old_tests,
            "the window saved nothing: {new_tests} vs {old_tests} tests"
        );
    }
}
