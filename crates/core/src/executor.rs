//! The ProgXe executor: Figure 2's pipeline end to end.
//!
//! ```text
//! sources ─▶ (push-through?) ─▶ input grids ─▶ output-space look-ahead
//!        ─▶ progressive-driven ordering ─▶ tuple-level processing
//!        ─▶ progressive result determination ─▶ stream (early, safe output)
//! ```
//!
//! The pipeline is organized for *pull-based* consumption: [`ProgXe::session`]
//! front-loads everything up to the look-ahead phase and returns a
//! [`QuerySession`] whose `next_batch` steps the region loop one region at a
//! time. Cancellation (and `take(k)` early termination) is checked at every
//! region boundary *and* inside the tuple-level probe loop, so an abandoned
//! session stops even mid-region.
//!
//! This module is the pipeline *front end* only: validation, push-through,
//! grid construction, the output-space look-ahead, and the region schedule
//! — everything [`ProgXe::prepare`] produces. Streaming ingestion
//! ([`crate::ingest`]) opens through the same `FrontEnd`: it hands the
//! look-ahead two declared grids instead of two built from rows, and gets
//! the same committer and work context back. The region loop itself —
//! schedule pop, tuple-level phase, ordered commit — lives exactly once in
//! [`crate::driver`]: the sequential path is the
//! [`Inline`](crate::driver::ExecutorBackend::Inline) instantiation of
//! [`crate::driver::RegionDriver`], and the `progxe-runtime`
//! crate supplies the [`Pooled`](crate::driver::ExecutorBackend::Pooled)
//! backend for `threads > 1`.
//!
//! The executor is deterministic given its configuration: grid construction,
//! region ids, EL-graph tie-breaks, and the `Random` ordering's shuffle are
//! all seeded or ordinal.

use crate::cells::CellStore;
use crate::config::ProgXeConfig;
use crate::driver::{CommitterParts, ExecutorBackend, RegionDriver, RowIds};
use crate::error::{Error, Result};
use crate::fxhash::FxHashMap;
use crate::grid::{InputGrid, JoinSource};
use crate::lookahead::{run_lookahead, track_cells, Lookahead, Region};
use crate::mapping::MapSet;
use crate::output_grid::MAX_DIMS;
use crate::progdetermine::ProgDetermine;
use crate::pushthrough::{push_through, Side};
use crate::session::{CancellationToken, QuerySession};
use crate::source::SourceView;
use crate::stats::{ExecStats, Laps, ResultTuple};
use crate::tuple_level::RegionCtx;
use progxe_obs::{Recorder, Span, SpanGuard, Trace};
use progxe_skyline::PointStore;
use std::sync::Arc;
use std::time::Instant;

pub use crate::driver::Committer;

/// The progressive SkyMapJoin executor.
#[derive(Debug, Clone, Default)]
pub struct ProgXe {
    config: ProgXeConfig,
    /// Optional trace sink. `None` (the default) costs one branch per
    /// instrumentation site; see [`ProgXe::with_recorder`].
    recorder: Option<Arc<dyn Recorder>>,
}

/// Collected output of [`ProgXe::run_collect`], [`QuerySession::collect`],
/// and [`QuerySession::take`].
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// All results in emission order.
    pub results: Vec<ResultTuple>,
    /// Run statistics.
    pub stats: ExecStats,
}

/// Everything [`ProgXe::prepare`] produces: the front half of the pipeline
/// (validation, push-through, grids, look-ahead, schedule) already done.
pub struct Prepared {
    /// Counters accumulated during preparation (look-ahead stats etc.).
    pub stats: ExecStats,
    /// The region-loop committer, or `None` when the run finished trivially
    /// (empty input, or cancelled during setup).
    pub committer: Option<Committer>,
    /// The shared tuple-level work context (regions, per-partition join
    /// sides), present exactly when `committer` is. Backends call
    /// [`RegionCtx::compute`] on it; the committer itself only keeps the
    /// region metadata.
    pub ctx: Option<Arc<RegionCtx>>,
    /// The instant preparation started — the zero point of every
    /// [`ResultEvent::elapsed`](crate::session::ResultEvent::elapsed) and
    /// of [`ExecStats::total_time`].
    pub started: Instant,
}

/// One session's setup in progress, shared by both front ends
/// ([`ProgXe::prepare`] and streaming ingestion's open): the clock, the
/// look-ahead ledger (one [`Laps`] lap per [`ExecStats`] phase bucket) and
/// the `lookahead` trace span, from validation until
/// [`finish`](Self::finish) hands the region loop a committer.
pub(crate) struct FrontEnd {
    pub(crate) stats: ExecStats,
    pub(crate) laps: Laps,
    pub(crate) trace: Trace,
    started: Instant,
    /// Closed when `lookahead_time` is recorded; a trivial run closes it
    /// by RAII.
    span: SpanGuard,
}

impl FrontEnd {
    /// Validates the query shape and starts the clock, the ledger and the
    /// span. `threads` is the backend's worker count.
    pub(crate) fn open(
        config: &ProgXeConfig,
        maps: &MapSet,
        recorder: Option<Arc<dyn Recorder>>,
        threads: usize,
    ) -> Result<Self> {
        config.validate()?;
        if maps.out_dims() > MAX_DIMS {
            return Err(Error::TooManyDimensions {
                dims: maps.out_dims(),
                max: MAX_DIMS,
            });
        }
        let started = Instant::now();
        let trace = Trace::from_recorder(recorder, started);
        Ok(Self {
            stats: ExecStats {
                threads_used: threads,
                ..ExecStats::default()
            },
            laps: Laps::since(started),
            span: trace.span(Span::Lookahead),
            trace,
            started,
        })
    }

    /// A run that ends before the region loop (empty input, or cancelled
    /// during setup).
    fn trivial(self) -> Prepared {
        Prepared {
            stats: self.stats,
            committer: None,
            ctx: None,
            started: self.started,
        }
    }

    /// The back half every front end shares. Takes the look-ahead's
    /// regions (the caller has stamped everything up to
    /// `region_lookahead_time`), tracks their cells, builds Algorithm 2's
    /// blocker counts and the committer over the region schedule, and the
    /// work context `work` wraps around the same regions; then closes the
    /// ledger and the span. σ feeds the benefit/cost models, `row_ids`
    /// translates emitted ids.
    pub(crate) fn finish(
        mut self,
        la: Lookahead,
        maps: &MapSet,
        config: &ProgXeConfig,
        sigma: f64,
        row_ids: RowIds,
        work: impl FnOnce(Arc<[Region]>) -> RegionCtx,
    ) -> Prepared {
        let stats = &mut self.stats;
        stats.pairs_rejected_by_signature = la.pairs_rejected_by_signature;
        stats.regions_pruned_lookahead = la.regions_pruned;
        stats.regions_created = la.regions.len();
        // The store maintains its live set under Pareto regardless of the
        // model (sound superset — Pareto dominance implies F-dominance);
        // a flexible model additionally strengthens blocker counts and
        // filters emissions. Region/cell pruning in `track_cells` stays
        // Pareto-based and therefore sound for any model.
        let mut store = CellStore::with_model(la.grid.clone(), maps.dominance().clone());
        let tracked = track_cells(&la, &mut store);
        stats.cells_premarked_dead = tracked.premarked_dead;
        stats.cell_positions_scanned = tracked.positions_scanned;
        stats.cells_tracked = store.len();
        stats.cell_track_time = self.laps.lap();
        let regions: Arc<[Region]> = la.regions.into();
        let det = ProgDetermine::new(&store, &regions);
        stats.determine_init_time = self.laps.lap();

        let ctx = Arc::new(work(Arc::clone(&regions)));
        let committer = Committer::new(
            CommitterParts {
                regions,
                row_ids,
                store,
                det,
                orders: maps.preference().orders().to_vec(),
                sigma,
                started: self.started,
                trace: self.trace,
            },
            config.ordering,
        );
        stats.schedule_time = self.laps.lap();
        stats.close_lookahead_ledger();
        self.span.end();
        committer
            .trace()
            .counter("regions_created", self.stats.regions_created as u64);
        Prepared {
            stats: self.stats,
            committer: Some(committer),
            ctx: Some(ctx),
            started: self.started,
        }
    }
}

impl ProgXe {
    /// Creates an executor with the given configuration.
    #[must_use]
    pub fn new(config: ProgXeConfig) -> Self {
        Self {
            config,
            recorder: None,
        }
    }

    /// Attaches a trace recorder: every session opened by this executor
    /// emits span/point/counter events into it (see the `progxe-obs`
    /// crate's taxonomy). Keep a clone of the `Arc` to drain the events.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) accepting an optional sink —
    /// convenient when the caller itself was configured with an
    /// `Option<Arc<dyn Recorder>>`.
    #[must_use]
    pub fn with_recorder_opt(mut self, recorder: Option<Arc<dyn Recorder>>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ProgXeConfig {
        &self.config
    }

    /// Opens a pull-based [`QuerySession`] over the query with a fresh
    /// cancellation token. Validation, push-through, grid construction, and
    /// the output-space look-ahead happen here; tuple-level work is driven
    /// incrementally by [`QuerySession::next_batch`].
    pub fn session<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<QuerySession<'a>> {
        self.session_with_token(r, t, maps, CancellationToken::new())
    }

    /// Like [`session`](Self::session), but sharing a caller-provided
    /// cancellation token (e.g. one watched by a timeout thread).
    pub fn session_with_token<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
        token: CancellationToken,
    ) -> Result<QuerySession<'a>> {
        let prep = self.prepare(r, t, maps, token.clone())?;
        let driver = RegionDriver::new(prep, token.clone(), ExecutorBackend::Inline);
        Ok(QuerySession::stepped("progxe", token, driver))
    }

    /// Convenience wrapper: run to completion and collect all results.
    pub fn run_collect(
        &self,
        r: &SourceView<'_>,
        t: &SourceView<'_>,
        maps: &MapSet,
    ) -> Result<RunOutput> {
        Ok(self.session(r, t, maps)?.collect())
    }

    /// Builds the front half of the pipeline: everything before the region
    /// loop. The cancellation token is checked between phases so a session
    /// cancelled during setup stops before tuple-level work.
    ///
    /// This is the shared entry point of every backend: the inline session
    /// *and* the `progxe-runtime` pooled driver receive the same
    /// [`Committer`] and differ only in who computes the region batches.
    pub fn prepare(
        &self,
        r: &SourceView<'_>,
        t: &SourceView<'_>,
        maps: &MapSet,
        token: CancellationToken,
    ) -> Result<Prepared> {
        let mut front = FrontEnd::open(&self.config, maps, self.recorder.clone(), 1)?;
        if r.is_empty() || t.is_empty() {
            return Ok(front.trivial());
        }
        if token.is_cancelled() {
            front.stats.cancelled = true;
            return Ok(front.trivial());
        }

        // ── Push-through (ProgXe+) ────────────────────────────────────────
        // `kept_*` map filtered row ids back to the caller's original rows.
        let stats = &mut front.stats;
        let (kept_r, kept_t) = if self.config.push_through {
            match (
                push_through(r, maps, Side::R),
                push_through(t, maps, Side::T),
            ) {
                (Some(kr), Some(kt)) => {
                    stats.push_through_pruned_r = r.len() - kr.len();
                    stats.push_through_pruned_t = t.len() - kt.len();
                    (kr, kt)
                }
                _ => {
                    stats.push_through_skipped = true;
                    ((0..r.len() as u32).collect(), (0..t.len() as u32).collect())
                }
            }
        } else {
            ((0..r.len() as u32).collect(), (0..t.len() as u32).collect())
        };

        // ── Dense join-key remapping ─────────────────────────────────────
        // Exact signatures are bitsets over the join domain; remapping to
        // dense ids bounds them by the number of *distinct* keys.
        let mut key_ids: FxHashMap<u32, u32> = FxHashMap::default();
        let mut dense = |k: u32| -> u32 {
            let next = key_ids.len() as u32;
            *key_ids.entry(k).or_insert(next)
        };
        let (r_attrs, r_keys) = filter_source(r, &kept_r, &mut dense);
        let (t_attrs, t_keys) = filter_source(t, &kept_t, &mut dense);
        let join_domain = key_ids.len();
        front.stats.remap_time = front.laps.lap();
        if r_keys.is_empty() || t_keys.is_empty() {
            return Ok(front.trivial());
        }
        if token.is_cancelled() {
            front.stats.cancelled = true;
            return Ok(front.trivial());
        }

        // Selectivity estimate for the benefit/cost models.
        let sigma = self
            .config
            .selectivity_hint
            .unwrap_or(1.0 / join_domain.max(1) as f64);

        // ── Grids + output-space look-ahead ──────────────────────────────
        let per_dim = self.config.input_partitions_per_dim;
        let r_view = SourceView::new(&r_attrs, &r_keys)?;
        let t_view = SourceView::new(&t_attrs, &t_keys)?;
        let r_grid = InputGrid::build(&r_view, per_dim, self.config.signature, join_domain);
        let t_grid = InputGrid::build(&t_view, per_dim, self.config.signature, join_domain);
        front.stats.partitions_r = r_grid.len();
        front.stats.partitions_t = t_grid.len();
        front.stats.grid_time = front.laps.lap();
        if token.is_cancelled() {
            front.stats.cancelled = true;
            return Ok(front.trivial());
        }

        let cells_per_dim = self.config.output_cells_per_dim as u16;
        let la = run_lookahead(&r_grid, &t_grid, maps, cells_per_dim);
        front.stats.region_lookahead_time = front.laps.lap();
        let columnar = maps.separable_at(r_attrs.point(0), t_attrs.point(0));
        let r = JoinSource::new(Side::R, r_attrs, r_keys, r_grid);
        let t = JoinSource::new(Side::T, t_attrs, t_keys, t_grid);
        let row_ids = RowIds::Table {
            r: kept_r,
            t: kept_t,
        };
        Ok(
            front.finish(la, maps, &self.config, sigma, row_ids, |regions| {
                RegionCtx::new(maps.clone(), columnar, r, t, regions)
            }),
        )
    }
}

/// Copies the kept rows of a source, remapping join keys to dense ids.
fn filter_source(
    src: &SourceView<'_>,
    kept: &[u32],
    dense: &mut impl FnMut(u32) -> u32,
) -> (PointStore, Vec<u32>) {
    let mut attrs = PointStore::with_capacity(src.dims(), kept.len());
    let mut keys = Vec::with_capacity(kept.len());
    for &row in kept {
        attrs.push(src.attrs_of(row as usize));
        keys.push(dense(src.join_key_of(row as usize)));
    }
    (attrs, keys)
}

/// Deterministic Fisher–Yates shuffle driven by SplitMix64 (keeps `rand`
/// out of the core crate's dependencies).
pub(crate) fn shuffle(v: &mut [u32], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OrderingPolicy, SignatureConfig};
    use crate::mapping::MapSet;
    use crate::session::ProgressiveEngine;
    use crate::source::SourceData;
    use progxe_skyline::{naive_skyline, Preference};

    /// Oracle: full nested-loop join + map + naive skyline.
    fn oracle(r: &SourceData, t: &SourceData, maps: &MapSet) -> Vec<(u32, u32)> {
        let mut points = PointStore::new(maps.out_dims());
        let mut ids = Vec::new();
        let mut out = Vec::new();
        for ri in 0..r.len() {
            for ti in 0..t.len() {
                if r.view().join_key_of(ri) != t.view().join_key_of(ti) {
                    continue;
                }
                maps.eval_into(r.view().attrs_of(ri), t.view().attrs_of(ti), &mut out);
                points.push(&out);
                ids.push((ri as u32, ti as u32));
            }
        }
        let sky = naive_skyline(&points, maps.preference());
        let mut result: Vec<(u32, u32)> = sky.indices.iter().map(|&i| ids[i]).collect();
        result.sort_unstable();
        result
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_source(n: usize, dims: usize, keys: u32, seed: u64) -> SourceData {
        let mut s = SourceData::new(dims);
        let mut st = seed;
        let mut row = vec![0.0; dims];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = (lcg(&mut st) % 1000) as f64 / 10.0;
            }
            let k = (lcg(&mut st) % keys as u64) as u32;
            s.push(&row, k);
        }
        s
    }

    fn run_and_sort(
        exec: &ProgXe,
        r: &SourceData,
        t: &SourceData,
        maps: &MapSet,
    ) -> Vec<(u32, u32)> {
        let out = exec
            .run_collect(&r.view(), &t.view(), maps)
            .expect("run succeeds");
        let mut ids: Vec<(u32, u32)> = out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn matches_oracle_on_tiny_input() {
        let r = SourceData::from_rows(2, &[(&[1.0, 5.0], 0), (&[4.0, 2.0], 1)]);
        let t = SourceData::from_rows(2, &[(&[2.0, 3.0], 0), (&[1.0, 1.0], 1)]);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        assert_eq!(run_and_sort(&exec, &r, &t, &maps), oracle(&r, &t, &maps));
    }

    #[test]
    fn matches_oracle_random_2d() {
        let r = random_source(120, 2, 8, 1);
        let t = random_source(110, 2, 8, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        assert_eq!(run_and_sort(&exec, &r, &t, &maps), oracle(&r, &t, &maps));
    }

    #[test]
    fn matches_oracle_random_3d() {
        let r = random_source(80, 3, 5, 3);
        let t = random_source(90, 3, 5, 4);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let exec = ProgXe::new(ProgXeConfig::default());
        assert_eq!(run_and_sort(&exec, &r, &t, &maps), oracle(&r, &t, &maps));
    }

    #[test]
    fn all_orderings_agree_with_oracle() {
        let r = random_source(100, 2, 6, 5);
        let t = random_source(100, 2, 6, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = oracle(&r, &t, &maps);
        for ordering in [
            OrderingPolicy::ProgOrder,
            OrderingPolicy::Random { seed: 7 },
            OrderingPolicy::Random { seed: 99 },
            OrderingPolicy::Fifo,
        ] {
            let exec = ProgXe::new(ProgXeConfig::default().with_ordering(ordering));
            assert_eq!(
                run_and_sort(&exec, &r, &t, &maps),
                expected,
                "ordering {ordering:?} diverged"
            );
        }
    }

    #[test]
    fn push_through_preserves_results() {
        let r = random_source(150, 2, 4, 7);
        let t = random_source(150, 2, 4, 8);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let plain = ProgXe::new(ProgXeConfig::variation(true, false));
        let plus = ProgXe::new(ProgXeConfig::variation(true, true));
        assert_eq!(
            run_and_sort(&plain, &r, &t, &maps),
            run_and_sort(&plus, &r, &t, &maps)
        );
        let stats = plus.run_collect(&r.view(), &t.view(), &maps).unwrap().stats;
        assert!(
            stats.push_through_pruned_r > 0,
            "group pruning should remove something on 150×2d×4keys"
        );
    }

    #[test]
    fn bloom_signatures_preserve_results() {
        let r = random_source(100, 2, 10, 9);
        let t = random_source(100, 2, 10, 10);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exact = ProgXe::new(ProgXeConfig::default());
        let bloom = ProgXe::new(
            ProgXeConfig::default().with_signature(SignatureConfig::Bloom { bits: 128 }),
        );
        assert_eq!(
            run_and_sort(&exact, &r, &t, &maps),
            run_and_sort(&bloom, &r, &t, &maps)
        );
    }

    #[test]
    fn mixed_preference_directions() {
        use progxe_skyline::Order;
        let r = random_source(90, 2, 5, 11);
        let t = random_source(90, 2, 5, 12);
        let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
        let exec = ProgXe::new(ProgXeConfig::default());
        assert_eq!(run_and_sort(&exec, &r, &t, &maps), oracle(&r, &t, &maps));
    }

    #[test]
    fn no_join_matches_emits_nothing() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[1.0], 1)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let exec = ProgXe::new(ProgXeConfig::default());
        let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.results_emitted, 0);
    }

    #[test]
    fn empty_source_is_fine() {
        let r = SourceData::new(2);
        let t = SourceData::from_rows(2, &[(&[1.0, 1.0], 0)]);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(out.results.is_empty());
    }

    #[test]
    fn grid_granularity_does_not_change_results() {
        let r = random_source(100, 2, 6, 13);
        let t = random_source(100, 2, 6, 14);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = oracle(&r, &t, &maps);
        for (p, k) in [(1, 4), (2, 8), (3, 24), (5, 40), (8, 64)] {
            let exec = ProgXe::new(
                ProgXeConfig::default()
                    .with_input_partitions(p)
                    .with_output_cells(k),
            );
            assert_eq!(
                run_and_sort(&exec, &r, &t, &maps),
                expected,
                "diverged at p={p} k={k}"
            );
        }
    }

    #[test]
    fn emitted_results_never_duplicate() {
        let r = random_source(150, 2, 5, 15);
        let t = random_source(150, 2, 5, 16);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let mut ids: Vec<(u32, u32)> = out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(before, ids.len());
    }

    #[test]
    fn stats_are_consistent() {
        let r = random_source(100, 2, 5, 17);
        let t = random_source(100, 2, 5, 18);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let s = &out.stats;
        assert_eq!(s.results_emitted as usize, out.results.len());
        assert!(s.regions_processed + s.regions_discarded_dead <= s.regions_created);
        assert!(s.tuples_inserted >= s.results_emitted + s.tuples_evicted);
        assert!(s.total_time >= s.lookahead_time);
        assert_eq!(s.threads_used, 1);
        assert!(!s.cancelled);
        assert_eq!(s.regions_skipped, 0);
    }

    /// The look-ahead buckets tile `prepare`, and every computed region is
    /// timed on both sides of the commit.
    #[test]
    fn lookahead_buckets_add_up_and_the_phases_fit_the_wall() {
        let r = random_source(400, 3, 5, 19);
        let t = random_source(400, 3, 5, 20);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let out = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        let s = &out.stats;
        s.assert_inline_ledger();
        assert!(s.regions_processed > 0, "{s}");
        assert!(s.cell_positions_scanned > s.cells_tracked as u64, "{s}");
        for bucket in [
            s.remap_time,
            s.grid_time,
            s.region_lookahead_time,
            s.cell_track_time,
            s.determine_init_time,
            s.schedule_time,
        ] {
            assert!(!bucket.is_zero(), "{s}");
        }
    }

    #[test]
    fn values_in_results_match_mapping() {
        let r = SourceData::from_rows(2, &[(&[1.0, 2.0], 0)]);
        let t = SourceData::from_rows(2, &[(&[10.0, 20.0], 0)]);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].values, vec![11.0, 22.0]);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b: Vec<u32> = (0..20).collect();
        shuffle(&mut a, 42);
        shuffle(&mut b, 42);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        shuffle(&mut c, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_join_keys_are_remapped() {
        // Huge sparse keys must not blow up signature bitsets.
        let r = SourceData::from_rows(1, &[(&[1.0], 4_000_000_000), (&[2.0], 17)]);
        let t = SourceData::from_rows(1, &[(&[3.0], 4_000_000_000), (&[4.0], 99)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let exec = ProgXe::new(ProgXeConfig::default());
        let out = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!((out.results[0].r_idx, out.results[0].t_idx), (0, 0));
    }

    // ── Streaming session behaviour ──────────────────────────────────────

    #[test]
    fn stream_and_collect_paths_agree_exactly() {
        let r = random_source(200, 2, 6, 21);
        let t = random_source(200, 2, 6, 22);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());

        let collected = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();

        let mut session = exec.session(&r.view(), &t.view(), &maps).unwrap();
        let mut streamed = Vec::new();
        let mut last_progress = 0.0;
        while let Some(event) = session.next_batch() {
            assert!(event.proven_final, "every ProgXe batch is final");
            assert!(
                event.progress_estimate >= last_progress,
                "progress is monotone"
            );
            last_progress = event.progress_estimate;
            streamed.extend(event.tuples);
        }
        let stream_stats = session.finish();

        // Identical results in identical emission order, identical work.
        let collect_stats = &collected.stats;
        assert_eq!(streamed, collected.results);
        assert_eq!(collect_stats.results_emitted, stream_stats.results_emitted);
        assert_eq!(
            collect_stats.regions_processed,
            stream_stats.regions_processed
        );
        assert_eq!(collect_stats.dominance_tests, stream_stats.dominance_tests);
        assert!(!stream_stats.cancelled);
    }

    #[test]
    fn take_k_stops_the_region_loop_early() {
        let r = random_source(400, 2, 4, 31);
        let t = random_source(400, 2, 4, 32);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());

        let full = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(full.results.len() >= 3, "workload too small for the test");

        let k = 2;
        let partial = exec.session(&r.view(), &t.view(), &maps).unwrap().take(k);
        assert_eq!(partial.results.len(), k);
        assert_eq!(&full.results[..k], &partial.results[..]);
        assert!(partial.stats.cancelled);
        assert!(
            partial.stats.regions_processed < full.stats.regions_processed,
            "take({k}) must process fewer regions ({} vs {})",
            partial.stats.regions_processed,
            full.stats.regions_processed
        );
        assert!(partial.stats.regions_skipped > 0);
    }

    #[test]
    fn cancellation_token_stops_run() {
        let r = random_source(150, 2, 5, 41);
        let t = random_source(150, 2, 5, 42);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let token = CancellationToken::new();
        token.cancel();
        let out = exec
            .session_with_token(&r.view(), &t.view(), &maps, token)
            .unwrap()
            .collect();
        assert!(out.stats.cancelled);
        assert_eq!(
            out.stats.regions_processed, 0,
            "cancelled before region work"
        );
        assert!(out.results.is_empty());
    }

    #[test]
    fn session_cancel_mid_stream_skips_remaining_regions() {
        let r = random_source(300, 2, 4, 51);
        let t = random_source(300, 2, 4, 52);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let full = exec.run_collect(&r.view(), &t.view(), &maps).unwrap();

        let mut session = exec.session(&r.view(), &t.view(), &maps).unwrap();
        let first = session.next_batch().expect("at least one batch");
        assert!(!first.tuples.is_empty());
        session.cancel();
        assert!(session.next_batch().is_none());
        let stats = session.finish();
        assert!(stats.cancelled);
        assert!(stats.regions_skipped > 0);
        assert!(stats.results_emitted <= full.stats.results_emitted);
    }

    #[test]
    fn engine_trait_runs_progxe() {
        let r = random_source(80, 2, 5, 61);
        let t = random_source(80, 2, 5, 62);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine: &dyn ProgressiveEngine = &ProgXe::new(ProgXeConfig::default());
        assert_eq!(engine.name(), "progxe");
        let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let direct = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        assert_eq!(out.results, direct.results);
    }

    #[test]
    fn prepare_exposes_committer_for_external_drivers() {
        // Drive the region loop by hand through the public Committer API —
        // exactly what a custom backend would do — and check it agrees with
        // the standard session.
        let r = random_source(120, 2, 5, 71);
        let t = random_source(120, 2, 5, 72);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default());
        let expected = run_and_sort(&exec, &r, &t, &maps);

        let token = CancellationToken::new();
        let prep = exec
            .prepare(&r.view(), &t.view(), &maps, token.clone())
            .unwrap();
        let mut committer = prep.committer.expect("non-trivial workload");
        let ctx = prep.ctx.expect("non-trivial workload has a context");
        let mut stats = prep.stats;
        let mut ids = Vec::new();
        while let crate::driver::Popped::Region(rid) = committer.pop_gated(&mut stats, None) {
            let event = if committer.region_box_is_dead(rid) {
                committer.discard_dead(rid, &mut stats)
            } else {
                let batch = ctx.compute(rid, committer.admitted_slab(), &token);
                assert!(batch.completed);
                committer.commit_batch(batch, &mut stats)
            };
            if let Some(event) = event {
                ids.extend(event.tuples.iter().map(|x| (x.r_idx, x.t_idx)));
            }
        }
        committer.finalize(&mut stats);
        assert!(!stats.cancelled);
        ids.sort_unstable();
        assert_eq!(ids, expected);
    }

    /// The join counters against an independent count: per region,
    /// `matches` is Σ over join keys of (R rows with the key) × (T rows
    /// with it), `probes` the larger partition's rows and `pairs_examined`
    /// the logical `n_R · n_T`; `build_rows` counts a row once — for the
    /// first region to join its partition — however many regions follow.
    #[test]
    fn join_counters_report_the_work_done() {
        let (keys, per_dim) = (7u32, 3usize);
        let r = random_source(400, 2, keys, 81);
        let t = random_source(300, 2, keys, 82);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let exec = ProgXe::new(ProgXeConfig::default().with_input_partitions(per_dim));
        let token = CancellationToken::new();
        let prep = exec
            .prepare(&r.view(), &t.view(), &maps, token.clone())
            .unwrap();
        let ctx = prep.ctx.expect("non-trivial workload has a context");

        // Push-through is off, so the prepared partitions are the grids of
        // the raw sources.
        let domain = keys as usize;
        let r_grid = InputGrid::build(&r.view(), per_dim, SignatureConfig::Exact, domain);
        let t_grid = InputGrid::build(&t.view(), per_dim, SignatureConfig::Exact, domain);
        let key_counts = |src: &SourceData, rows: &[u32]| {
            let mut counts = vec![0u64; domain];
            for &row in rows {
                counts[src.view().join_key_of(row as usize) as usize] += 1;
            }
            counts
        };
        let (mut regions_per_row, mut built, mut matches) = (0u64, 0u64, 0u64);
        for region in ctx.regions() {
            let rp = &r_grid.partitions()[region.r_part as usize];
            let tp = &t_grid.partitions()[region.t_part as usize];
            let (rc, tc) = (key_counts(&r, &rp.tuples), key_counts(&t, &tp.tuples));
            let expected: u64 = rc.iter().zip(&tc).map(|(a, b)| a * b).sum();
            let work = ctx.compute(region.id, &[], &token).stats;
            assert_eq!(work.matches, expected, "region {}", region.id);
            assert_eq!(work.probes, rp.len().max(tp.len()) as u64);
            assert_eq!(work.pairs_examined, (rp.len() * tp.len()) as u64);
            regions_per_row += (rp.len() + tp.len()) as u64;
            built += work.build_rows;
            matches += expected;
        }
        assert!(regions_per_row > 2 * 700, "rows pair into several regions");
        assert!(built > 0 && built <= 700, "{built} rows grouped");
        assert_eq!(
            ctx.compute(0, &[], &token).stats.build_rows,
            0,
            "built once"
        );

        // A full run folds the same figures, minus regions it never joins.
        let stats = exec.run_collect(&r.view(), &t.view(), &maps).unwrap().stats;
        assert!(stats.join_build_rows > 0 && stats.join_build_rows <= built);
        assert!(stats.join_matches > 0 && stats.join_matches <= matches);
        assert!(stats.join_probes > 0 && stats.join_probes <= stats.join_pairs_evaluated);
    }
}
