//! Streaming source ingestion: progressive execution over incrementally
//! arriving inputs.
//!
//! The batch pipeline ([`crate::executor::ProgXe`]) demands both sources
//! fully materialized before `prepare()`. In the paper's motivating
//! federated/web setting, inputs arrive in batches over the network — and
//! the first skyline results should be emitted long before the slowest
//! source finishes. This module makes first-result latency bounded by
//! *data arrival*, not data completeness:
//!
//! * [`IngestSession`] accepts per-source row batches
//!   ([`push`](IngestSession::push)), optional per-dimension
//!   [watermarks](IngestSession::set_watermark) ("all future rows of this
//!   source are ≥ these values"), and a [`close`](IngestSession::close)
//!   signal per source.
//! * The session opens through the batch pipeline's own front end. Its two
//!   input grids are **declared** ([`InputGrid::declared`] over the
//!   [`StreamSpec`] bounds): one partition per cell, no rows, and a join
//!   signature that overlaps everything and guarantees nothing. The
//!   output-space look-ahead ([`run_lookahead`]) therefore keeps every
//!   cell pair as a region — id `r_cell · t_cells + t_cell`, sizes zero,
//!   nothing pruned — and the pessimistic skyline is empty, so no output
//!   cell is ever pre-marked: the region/schedule/blocker structure is
//!   fixed up front and independent of arrival order. (Output cells
//!   themselves materialize, and get their blocker counts, as join results
//!   land in them, under every dominance model; no emission depends on
//!   when.)
//! * Cells fill incrementally; a cell **seals** once its source closed or a
//!   watermark passed the cell's slice, guaranteeing it can receive no more
//!   rows. Sealing prepares the cell's rows into its slot of the query's
//!   one work context ([`RegionCtx`]) — the slot a closed relation fills
//!   the first time a region joins the partition. A closed relation is a
//!   stream whose every cell sealed at open.
//! * A region becomes **ready** when both of its slots are set. The
//!   [`RegionDriver`] gates every pop on
//!   it: the schedule *stalls* on its next region until that region is
//!   ready (it never skips ahead to a different ready region).
//!   Stalling preserves ProgOrder's pop order exactly, so the commit
//!   sequence — and with it Algorithm 2's blocker bookkeeping and the
//!   emitted result stream — is **bit-identical** to the all-at-once run,
//!   for every arrival schedule, on both the Inline and Pooled backends.
//!
//! ## Why emission stays safe and schedule-independent
//!
//! Soundness is inherited unchanged: the committer resolves a region only
//! after its (complete, sealed) tuples are in the cell store, and cells
//! release only when every potentially-contributing region resolved — the
//! paper's Principle 1. Schedule-independence holds because every input to
//! the scheduling decision is a deterministic function of the *commit
//! history*, never of arrival timing: region geometry comes from declared
//! bounds, region tuple counts are pinned to zero (sizes are unknowable
//! before arrival), sealed partitions present their rows sorted by caller
//! row id, and a stalled pop re-offers the identical region later. The
//! price is head-of-line blocking — a not-yet-ready region parks ready
//! ones behind it — which is the deliberate trade recorded in ROADMAP.md.

use crate::config::ProgXeConfig;
use crate::driver::{DriverPoll, ExecutorBackend, RegionDriver, RowIds};
use crate::error::{Error, Result};
use crate::executor::FrontEnd;
use crate::fxhash::FxHashMap;
use crate::grid::{GridGeometry, InputGrid, JoinSource};
use crate::lookahead::run_lookahead;
use crate::mapping::MapSet;
use crate::pushthrough::Side;
use crate::session::{CancellationToken, ResultEvent};
use crate::source::SourceView;
use crate::stats::ExecStats;
use crate::tuple_level::RegionCtx;
use progxe_obs::{Histogram, Point, Recorder, Span, Trace};
use progxe_skyline::PointStore;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bound on `r_cells × t_cells` for a streaming session. The
/// streaming pipeline provisions *every* potential cell pair at open
/// (signatures and emptiness are unknown before arrival): one region per
/// pair and Algorithm 2's blocker index over their keys — all before any
/// row arrives (output cells materialize as results land). The subscriber's query
/// chooses that size through its dimensionality (`partitions_per_dim^d`
/// cells per side), so this cap bounds what a declared shape can make the
/// session allocate. Lower `input_partitions_per_dim` to stay inside it at
/// higher dimensionality.
pub const MAX_STREAM_REGIONS: usize = 16_384;

/// Declared shape of one streaming source: attribute dimensionality plus
/// per-dimension value bounds. The bounds fix the input-grid geometry
/// before any row arrives; rows outside them are rejected
/// ([`IngestError::OutOfBounds`]) because they could land in a cell whose
/// output region was not provisioned.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl StreamSpec {
    /// Declares a source whose rows lie inside `[lo, hi]` per dimension.
    /// Each bound, and each extent `hi − lo`, must be finite: the input
    /// grid slices the extent.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.is_empty() || lo.len() != hi.len() {
            return Err(Error::InvalidConfig(
                "stream spec bounds must be non-empty and parallel",
            ));
        }
        for (l, h) in lo.iter().zip(&hi) {
            if !l.is_finite() || !h.is_finite() || l > h {
                return Err(Error::InvalidConfig(
                    "stream spec bounds must be finite with lo <= hi",
                ));
            }
            if !(h - l).is_finite() {
                return Err(Error::InvalidConfig(
                    "stream spec extents hi - lo must be finite",
                ));
            }
        }
        Ok(Self { lo, hi })
    }

    /// Attribute dimensionality.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Declared per-dimension lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Declared per-dimension upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }
}

/// Which streaming source an ingest operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceId {
    /// The left (R) source.
    R,
    /// The right (T) source.
    T,
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SourceId::R => "R",
            SourceId::T => "T",
        })
    }
}

impl From<SourceId> for Side {
    fn from(id: SourceId) -> Self {
        match id {
            SourceId::R => Side::R,
            SourceId::T => Side::T,
        }
    }
}

impl From<SourceId> for progxe_obs::Source {
    fn from(id: SourceId) -> Self {
        match id {
            SourceId::R => progxe_obs::Source::R,
            SourceId::T => progxe_obs::Source::T,
        }
    }
}

/// Typed ingestion failures. Every error is *atomic*: the offending call
/// mutates nothing, so session state (cell contents, seals, readiness)
/// stays exactly as before the call.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// A pushed row's attribute count disagrees with the source's declared
    /// dimensionality.
    Arity {
        /// The source addressed.
        source: SourceId,
        /// Declared dimensionality.
        expected: usize,
        /// Attributes in the offending row.
        got: usize,
    },
    /// A pushed row lies outside the source's declared bounds (or has a
    /// non-finite attribute).
    OutOfBounds {
        /// The source addressed.
        source: SourceId,
        /// Offending dimension.
        dim: usize,
        /// Offending value.
        value: f64,
    },
    /// A pushed row arrived *below* the source's declared watermark — the
    /// producer broke its ordering promise. Admitting the row could land it
    /// in an already-sealed cell and corrupt region readiness, so the whole
    /// batch is rejected instead.
    RowBelowWatermark {
        /// The source addressed.
        source: SourceId,
        /// Dimension where the promise broke.
        dim: usize,
        /// The declared watermark in that dimension.
        watermark: f64,
        /// The offending row value.
        value: f64,
    },
    /// A watermark update moved backwards in some dimension.
    WatermarkRetreat {
        /// The source addressed.
        source: SourceId,
        /// Offending dimension.
        dim: usize,
        /// Previously declared watermark.
        from: f64,
        /// Attempted (lower) watermark.
        to: f64,
    },
    /// A watermark vector's length disagrees with the source
    /// dimensionality, or a component is NaN.
    BadWatermark {
        /// The source addressed.
        source: SourceId,
    },
    /// A row id was pushed twice for the same source. Row ids are the
    /// caller's stable identities; duplicates would make results ambiguous.
    DuplicateRow {
        /// The source addressed.
        source: SourceId,
        /// The duplicated id.
        row_id: u32,
    },
    /// Rows or watermarks were pushed to a source after `close(source)`.
    SourceClosed(SourceId),
    /// Rows or watermarks were pushed after the session's cancellation
    /// token fired. A long-lived (subscription-style) session whose
    /// consumer is gone must not keep accumulating input — the producer
    /// needs a typed signal to stop feeding it.
    Cancelled,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Arity {
                source,
                expected,
                got,
            } => write!(
                f,
                "ingest arity mismatch on source {source}: declared {expected} \
                 attribute dimension(s), row has {got}"
            ),
            IngestError::OutOfBounds { source, dim, value } => write!(
                f,
                "row value {value} escapes source {source}'s declared bounds in dimension {dim}"
            ),
            IngestError::RowBelowWatermark {
                source,
                dim,
                watermark,
                value,
            } => write!(
                f,
                "watermark regression on source {source}: row value {value} in dimension {dim} \
                 is below the declared watermark {watermark}"
            ),
            IngestError::WatermarkRetreat {
                source,
                dim,
                from,
                to,
            } => write!(
                f,
                "watermark retreat on source {source}: dimension {dim} cannot move from {from} \
                 back to {to}"
            ),
            IngestError::BadWatermark { source } => write!(
                f,
                "watermark for source {source} must match its dimensionality and be NaN-free"
            ),
            IngestError::DuplicateRow { source, row_id } => {
                write!(f, "row id {row_id} pushed twice on source {source}")
            }
            IngestError::SourceClosed(source) => {
                write!(f, "source {source} is closed")
            }
            IngestError::Cancelled => {
                write!(f, "session is cancelled; it accepts no further input")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Outcome of one [`IngestSession::poll`] call.
#[derive(Debug)]
pub enum IngestPoll {
    /// A batch of proven-final results (never retracted).
    Batch(ResultEvent),
    /// The next scheduled region is still waiting for input: push more
    /// rows, advance a watermark, or close a source, then poll again.
    NeedInput,
    /// The query finished (all regions resolved) or was cancelled.
    Complete,
}

/// Mutable per-source ingestion state: the rows of cells not yet sealed.
struct SourceState {
    dims: usize,
    spec: StreamSpec,
    geo: GridGeometry,
    /// Arrival-ordered row store (attrs ∥ keys ∥ caller ids).
    attrs: PointStore,
    keys: Vec<u32>,
    ids: Vec<u32>,
    /// Row-store indices per grid cell (arrival order; sorted by caller id
    /// at seal time).
    buckets: Vec<Vec<u32>>,
    watermark: Vec<f64>,
    closed: bool,
    seen: FxHashMap<u32, ()>,
    /// Next auto-assigned row id (callers may also pass explicit ids).
    auto_id: u32,
}

impl SourceState {
    fn new(spec: StreamSpec, geo: GridGeometry) -> Self {
        let dims = spec.dims();
        let cells = geo.cell_count().expect("cell count validated at open");
        Self {
            dims,
            spec,
            geo,
            attrs: PointStore::new(dims),
            keys: Vec::new(),
            ids: Vec::new(),
            buckets: vec![Vec::new(); cells],
            watermark: vec![f64::NEG_INFINITY; dims],
            closed: false,
            seen: FxHashMap::default(),
            auto_id: 0,
        }
    }

    /// Whether cell `cell` can provably receive no more rows.
    fn cell_is_final(&self, cell: usize) -> bool {
        if self.closed {
            return true;
        }
        // A watermark seals every slice strictly below its own slot:
        // future rows are ≥ the watermark in *every* dimension and
        // `GridGeometry::slot` is monotone in the value, so one passed
        // dimension suffices. Deciding with `slot(watermark)` — the same
        // arithmetic that places rows — rather than comparing against a
        // recomputed slice boundary keeps sealing and placement consistent
        // at floating-point boundary values (a row admitted by the
        // watermark check can never land in a sealed cell). The top slice
        // only seals on close, since `slot` clamps into it.
        (0..self.dims)
            .any(|d| self.geo.slot(d, self.watermark[d]) > self.geo.slot_of_linear(cell, d))
    }

    /// Seals one cell into `ctx`'s `side` slot (rows sorted by caller id,
    /// making the partition content independent of arrival order) and
    /// returns its row count.
    fn seal_cell(&mut self, cell: usize, ctx: &RegionCtx, side: Side) -> usize {
        let mut members = std::mem::take(&mut self.buckets[cell]);
        members.sort_unstable_by_key(|&idx| self.ids[idx as usize]);
        let ids = members.iter().map(|&idx| self.ids[idx as usize]).collect();
        let src = SourceView::checked(&self.attrs, &self.keys);
        ctx.seal(side, cell, &src, &members, ids);
        members.len()
    }
}

/// Shared mutable ingestion state: both sources' unsealed rows, and the
/// work context their cells seal into.
struct IngestInner {
    r: SourceState,
    t: SourceState,
    ctx: Arc<RegionCtx>,
    /// Regions whose second cell sealed so far.
    regions_unlocked: usize,
    tuples_ingested: u64,
    /// Rows prepared for joining so far ([`ExecStats::join_build_rows`]).
    join_build_rows: u64,
    /// The session's trace handle (ingest-side events: batch spans, seal
    /// points).
    trace: Trace,
    /// Arrival instant of the last accepted batch (either source).
    last_batch_at: Option<Instant>,
    /// Inter-arrival time between accepted batches.
    interarrival: Histogram,
}

impl IngestInner {
    fn source(&mut self, id: SourceId) -> &mut SourceState {
        match id {
            SourceId::R => &mut self.r,
            SourceId::T => &mut self.t,
        }
    }

    /// Seals every cell of source `id` that became final. Each one unlocks
    /// the regions pairing it with an already sealed cell of the other
    /// source.
    fn reseal(&mut self, id: SourceId) {
        let (src, other) = match id {
            SourceId::R => (&mut self.r, Side::T),
            SourceId::T => (&mut self.t, Side::R),
        };
        let side = Side::from(id);
        let mut newly = 0;
        for cell in 0..src.buckets.len() {
            if self.ctx.source(side).is_set(cell) || !src.cell_is_final(cell) {
                continue;
            }
            self.join_build_rows += src.seal_cell(cell, &self.ctx, side) as u64;
            self.trace.point(Point::Seal {
                source: id.into(),
                cell: cell as u64,
            });
            newly += 1;
        }
        self.regions_unlocked += newly * self.ctx.source(other).set_count();
    }

    /// Validates a whole batch, then applies it — atomically: a batch with
    /// any bad row changes nothing.
    fn push_batch(
        &mut self,
        side: SourceId,
        rows: &[(u32, &[f64], u32)],
    ) -> std::result::Result<(), IngestError> {
        let src = self.source(side);
        if src.closed {
            return Err(IngestError::SourceClosed(side));
        }
        let mut batch_ids: FxHashMap<u32, ()> = FxHashMap::default();
        for &(id, attrs, _key) in rows {
            if attrs.len() != src.dims {
                return Err(IngestError::Arity {
                    source: side,
                    expected: src.dims,
                    got: attrs.len(),
                });
            }
            for (d, &v) in attrs.iter().enumerate() {
                if !v.is_finite() || v < src.spec.lo()[d] || v > src.spec.hi()[d] {
                    return Err(IngestError::OutOfBounds {
                        source: side,
                        dim: d,
                        value: v,
                    });
                }
                if v < src.watermark[d] {
                    return Err(IngestError::RowBelowWatermark {
                        source: side,
                        dim: d,
                        watermark: src.watermark[d],
                        value: v,
                    });
                }
            }
            if src.seen.contains_key(&id) || batch_ids.insert(id, ()).is_some() {
                return Err(IngestError::DuplicateRow {
                    source: side,
                    row_id: id,
                });
            }
        }
        // Validation passed: the batch is accepted. The span covers the apply
        // loop only, so failed batches leave no trace events behind.
        let span = self.trace.span(Span::IngestBatch {
            source: side.into(),
            rows: rows.len() as u64,
        });
        let sealed = self.ctx.source(side.into());
        let src = match side {
            SourceId::R => &mut self.r,
            SourceId::T => &mut self.t,
        };
        for &(id, attrs, key) in rows {
            let idx = src.ids.len() as u32;
            src.attrs.push(attrs);
            src.keys.push(key);
            src.ids.push(id);
            src.seen.insert(id, ());
            let cell = src.geo.linear_of(attrs);
            debug_assert!(
                !sealed.is_set(cell),
                "watermark check admitted a row into a sealed cell"
            );
            src.buckets[cell].push(idx);
        }
        src.auto_id = src.auto_id.max(
            rows.iter()
                .map(|r| r.0.saturating_add(1))
                .max()
                .unwrap_or(0),
        );
        self.tuples_ingested += rows.len() as u64;
        span.end();
        let now = Instant::now();
        if let Some(prev) = self.last_batch_at {
            self.interarrival
                .record(now.saturating_duration_since(prev));
        }
        self.last_batch_at = Some(now);
        Ok(())
    }

    fn set_watermark(
        &mut self,
        side: SourceId,
        wm: &[f64],
    ) -> std::result::Result<(), IngestError> {
        let src = self.source(side);
        if src.closed {
            return Err(IngestError::SourceClosed(side));
        }
        if wm.len() != src.dims || wm.iter().any(|v| v.is_nan()) {
            return Err(IngestError::BadWatermark { source: side });
        }
        for (d, (&new, &old)) in wm.iter().zip(&src.watermark).enumerate() {
            if new < old {
                return Err(IngestError::WatermarkRetreat {
                    source: side,
                    dim: d,
                    from: old,
                    to: new,
                });
            }
        }
        src.watermark.copy_from_slice(wm);
        self.reseal(side);
        Ok(())
    }

    fn close(&mut self, side: SourceId) {
        let src = self.source(side);
        if src.closed {
            return; // idempotent
        }
        src.closed = true;
        self.reseal(side);
    }

    /// Writes the ingest-side counters into a stats snapshot.
    fn fold_counters(&self, stats: &mut ExecStats) {
        stats.tuples_ingested = self.tuples_ingested;
        stats.regions_unlocked = self.regions_unlocked;
        stats.join_build_rows = self.join_build_rows;
        stats.batch_interarrival.merge(&self.interarrival);
    }
}

/// A progressive query over two incrementally arriving sources.
///
/// Obtain one from [`IngestSession::open`] (Inline backend) or
/// [`ProgXe::open_ingest`](crate::executor::ProgXe::open_ingest) (the
/// engine's backend — pooled at `threads > 1` — and its trace recorder).
/// Feed it with
/// [`push`](Self::push) / [`set_watermark`](Self::set_watermark) /
/// [`close`](Self::close), and interleave [`poll`](Self::poll) calls to
/// drain proven-final result batches as regions unlock. Emitted
/// `r_idx`/`t_idx` are the caller's row ids.
///
/// Dropping the session — with or without calling `finish` — fires its
/// [`CancellationToken`], so in-flight pooled workers stop even when the
/// session is simply abandoned (same contract as
/// [`QuerySession`](crate::session::QuerySession)).
#[must_use = "an ingest session does no work until it is polled"]
pub struct IngestSession {
    driver: RegionDriver,
    inner: Arc<Mutex<IngestInner>>,
    token: CancellationToken,
    emitted: u64,
    /// High-water mark enforcing monotone, `[0, 1]`-clamped progress.
    last_progress: f64,
    /// Fires `token` on drop (`IngestSession` itself must stay
    /// `Drop`-free: `finish` partially moves out of `self`).
    _drop_cancel: crate::session::DropCancel,
}

impl IngestSession {
    /// Opens an inline (single-threaded) streaming session, whatever
    /// `config.threads` says; [`ProgXe::open_ingest`] honours it.
    ///
    /// [`ProgXe::open_ingest`]: crate::executor::ProgXe::open_ingest
    pub fn open(
        config: &ProgXeConfig,
        maps: &MapSet,
        r_spec: StreamSpec,
        t_spec: StreamSpec,
    ) -> Result<IngestSession> {
        Self::open_observed(config, maps, r_spec, t_spec, ExecutorBackend::Inline, None)
    }

    /// Opens a streaming session on an explicit executor backend. A
    /// [`Recorder`] makes the session emit trace events: `lookahead` /
    /// `ingest_batch` spans, `seal` / `stall` points, and the driver-side
    /// span taxonomy shared with materialized execution.
    pub(crate) fn open_observed(
        config: &ProgXeConfig,
        maps: &MapSet,
        r_spec: StreamSpec,
        t_spec: StreamSpec,
        backend: ExecutorBackend,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<IngestSession> {
        let threads = match &backend {
            ExecutorBackend::Inline => 1,
            ExecutorBackend::Pooled { threads, .. } => *threads,
        };
        let mut front = FrontEnd::open(config, maps, recorder, threads)?;
        let per_dim = config.input_partitions_per_dim;
        let r_geo = GridGeometry::from_bounds(r_spec.lo(), r_spec.hi(), per_dim);
        let t_geo = GridGeometry::from_bounds(t_spec.lo(), t_spec.hi(), per_dim);
        let (Some(r_cells), Some(t_cells)) = (r_geo.cell_count(), t_geo.cell_count()) else {
            return Err(Error::InvalidConfig(
                "streaming grid cell count overflows; reduce input_partitions_per_dim",
            ));
        };
        let total_regions = r_cells
            .checked_mul(t_cells)
            .filter(|&n| n <= MAX_STREAM_REGIONS);
        if total_regions.is_none() {
            return Err(Error::InvalidConfig(
                "streaming session would provision too many potential regions \
                 and blocker keys at open; reduce \
                 input_partitions_per_dim or the dimensionality \
                 (see ingest::MAX_STREAM_REGIONS)",
            ));
        }
        // Every cell pair is provisioned: emptiness and join signatures are
        // unknowable before arrival, and a region missing here could later
        // deliver a tuple into a cell another region already released —
        // exactly the false positive Principle 1 forbids.
        let (r_grid, t_grid) = (InputGrid::declared(&r_geo), InputGrid::declared(&t_geo));
        front.stats.partitions_r = r_cells;
        front.stats.partitions_t = t_cells;
        front.stats.grid_time = front.laps.lap();
        let la = run_lookahead(&r_grid, &t_grid, maps, config.output_cells_per_dim as u16);
        front.stats.region_lookahead_time = front.laps.lap();

        let columnar = maps.separable_at(r_spec.lo(), t_spec.lo());
        let trace = front.trace.clone();
        let prep = front.finish(la, maps, config, RowIds::Identity, |regions| {
            let r = JoinSource::streamed(Side::R, r_cells);
            let t = JoinSource::streamed(Side::T, t_cells);
            RegionCtx::new(maps.clone(), columnar, r, t, regions)
        });
        let ctx = Arc::clone(prep.ctx.as_ref().expect("a stream always has regions"));
        let inner = Arc::new(Mutex::new(IngestInner {
            r: SourceState::new(r_spec, r_geo),
            t: SourceState::new(t_spec, t_geo),
            ctx,
            regions_unlocked: 0,
            tuples_ingested: 0,
            join_build_rows: 0,
            trace,
            last_batch_at: None,
            interarrival: Histogram::default(),
        }));
        let token = CancellationToken::new();
        Ok(IngestSession {
            driver: RegionDriver::new(prep, token.clone(), backend),
            inner,
            _drop_cancel: crate::session::DropCancel(token.clone()),
            token,
            emitted: 0,
            last_progress: 0.0,
        })
    }

    /// Forwards to [`RegionDriver::without_snapshot_filter`] — the
    /// differential suites' reference arrangement.
    #[doc(hidden)]
    pub fn without_snapshot_filter(mut self) -> Self {
        self.driver = self.driver.without_snapshot_filter();
        self
    }

    /// Pushes a batch of `(attrs, join_key)` rows, auto-assigning
    /// consecutive row ids per source (the arrival position, matching the
    /// row-id convention of a materialized table). Returns the first
    /// assigned id. Atomic: a batch with any invalid row changes nothing.
    pub fn push(
        &mut self,
        source: SourceId,
        rows: &[(&[f64], u32)],
    ) -> std::result::Result<u32, IngestError> {
        if self.token.is_cancelled() {
            return Err(IngestError::Cancelled);
        }
        let base = {
            let inner = self.inner.lock().expect("ingest state poisoned");
            match source {
                SourceId::R => inner.r.auto_id,
                SourceId::T => inner.t.auto_id,
            }
        };
        let with_ids: Vec<(u32, &[f64], u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, &(attrs, key))| (base + i as u32, attrs, key))
            .collect();
        self.push_with_ids(source, &with_ids)?;
        Ok(base)
    }

    /// Pushes a batch of `(row_id, attrs, join_key)` rows with
    /// caller-chosen stable row ids. Results reference these ids, and the
    /// emission order of the whole session depends only on the id/attr/key
    /// content — never on how rows were batched or interleaved. Atomic: a
    /// batch with any invalid row changes nothing.
    pub fn push_with_ids(
        &mut self,
        source: SourceId,
        rows: &[(u32, &[f64], u32)],
    ) -> std::result::Result<(), IngestError> {
        if self.token.is_cancelled() {
            return Err(IngestError::Cancelled);
        }
        self.inner
            .lock()
            .expect("ingest state poisoned")
            .push_batch(source, rows)
    }

    /// Declares that every future row of `source` is ≥ `watermark` in every
    /// dimension. Cells whose slice lies strictly below the watermark in
    /// some dimension seal immediately, unlocking their regions. Watermarks
    /// must be monotone per dimension.
    pub fn set_watermark(
        &mut self,
        source: SourceId,
        watermark: &[f64],
    ) -> std::result::Result<(), IngestError> {
        if self.token.is_cancelled() {
            return Err(IngestError::Cancelled);
        }
        self.inner
            .lock()
            .expect("ingest state poisoned")
            .set_watermark(source, watermark)
    }

    /// Declares `source` complete: all of its cells seal, and every region
    /// whose opposite cell is sealed unlocks. Idempotent.
    pub fn close(&mut self, source: SourceId) {
        self.inner
            .lock()
            .expect("ingest state poisoned")
            .close(source);
    }

    /// Pulls the next result batch, advancing the readiness-gated region
    /// loop as far as the ingested data allows.
    ///
    /// Progress estimates are normalized exactly like
    /// [`QuerySession::next_batch`](crate::session::QuerySession::next_batch):
    /// clamped to `[0, 1]` and monotone across the session.
    pub fn poll(&mut self) -> IngestPoll {
        if self.token.is_cancelled() {
            return IngestPoll::Complete;
        }
        match self.driver.poll_next() {
            DriverPoll::Event(mut event) => {
                event.normalize_progress(&mut self.last_progress);
                self.emitted += event.tuples.len() as u64;
                IngestPoll::Batch(event)
            }
            DriverPoll::Stalled => IngestPoll::NeedInput,
            DriverPoll::Finished => IngestPoll::Complete,
        }
    }

    /// Drains every batch that is currently deliverable (stops at the
    /// first stall or at completion).
    pub fn drain_ready(&mut self) -> Vec<ResultEvent> {
        let mut out = Vec::new();
        while let IngestPoll::Batch(event) = self.poll() {
            out.push(event);
        }
        out
    }

    /// Total tuples delivered so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// A shareable handle to this session's cancellation flag.
    pub fn cancel_token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// Requests cancellation: `poll` returns [`IngestPoll::Complete`] from
    /// then on, remaining regions are skipped, and in-flight pool workers
    /// stop at their next token check. Safe at any time — including on a
    /// session whose sources were never closed.
    pub fn cancel(&mut self) {
        self.token.cancel();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// A snapshot of the statistics accumulated so far (mid-ingest safe).
    pub fn stats_snapshot(&self) -> ExecStats {
        let mut stats = self.driver.stats_snapshot();
        let inner = self.inner.lock().expect("ingest state poisoned");
        inner.fold_counters(&mut stats);
        stats
    }

    /// Consumes the session and returns its statistics. Unresolved regions
    /// (sources never closed, or an early cancel) flag
    /// [`ExecStats::cancelled`].
    pub fn finish(self) -> ExecStats {
        let inner = self.inner;
        let mut stats = self.driver.finalize();
        let guard = inner.lock().expect("ingest state poisoned");
        guard.fold_counters(&mut stats);
        stats
    }
}

impl std::fmt::Debug for IngestSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestSession")
            .field("emitted", &self.emitted)
            .field("cancelled", &self.token.is_cancelled())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ProgXe;
    use crate::source::SourceData;
    use progxe_skyline::Preference;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_rows(n: usize, dims: usize, keys: u32, seed: u64) -> Vec<(Vec<f64>, u32)> {
        let mut st = seed;
        (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..dims)
                    .map(|_| (lcg(&mut st) % 1000) as f64 / 10.0)
                    .collect();
                let k = (lcg(&mut st) % keys as u64) as u32;
                (row, k)
            })
            .collect()
    }

    fn refs(rows: &[(Vec<f64>, u32)]) -> Vec<(&[f64], u32)> {
        rows.iter().map(|(a, k)| (a.as_slice(), *k)).collect()
    }

    fn spec(dims: usize) -> StreamSpec {
        StreamSpec::new(vec![0.0; dims], vec![100.0; dims]).unwrap()
    }

    fn batch_oracle(
        rows_r: &[(Vec<f64>, u32)],
        rows_t: &[(Vec<f64>, u32)],
        maps: &MapSet,
    ) -> Vec<(u32, u32)> {
        let mut r = SourceData::new(rows_r[0].0.len());
        for (a, k) in rows_r {
            r.push(a, *k);
        }
        let mut t = SourceData::new(rows_t[0].0.len());
        for (a, k) in rows_t {
            t.push(a, *k);
        }
        let out = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), maps)
            .unwrap();
        let mut ids: Vec<(u32, u32)> = out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        ids.sort_unstable();
        ids
    }

    fn drain_all(session: &mut IngestSession) -> Vec<(u32, u32)> {
        session
            .drain_ready()
            .iter()
            .flat_map(|e| e.tuples.iter().map(|t| (t.r_idx, t.t_idx)))
            .collect()
    }

    /// The batch ledger on a stream: every declared cell pair is a region,
    /// none rejected and none pruned.
    #[test]
    fn every_declared_cell_pair_is_a_region() {
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        for p in [1, 2, 5] {
            let config = ProgXeConfig::default().with_input_partitions(p);
            let session = IngestSession::open(&config, &maps, spec(2), spec(2)).unwrap();
            let s = session.stats_snapshot();
            assert_eq!((s.partitions_r, s.partitions_t), (p * p, p * p));
            assert_eq!(
                (s.pairs_rejected_by_signature, s.regions_pruned_lookahead),
                (0, 0)
            );
            assert_eq!(
                s.partitions_r * s.partitions_t,
                s.regions_created,
                "p = {p}"
            );
        }
    }

    #[test]
    fn all_at_once_matches_batch_engine_result_set() {
        let rows_r = random_rows(150, 2, 5, 1);
        let rows_t = random_rows(150, 2, 5, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();
        session.push(SourceId::R, &refs(&rows_r)).unwrap();
        session.push(SourceId::T, &refs(&rows_t)).unwrap();
        session.close(SourceId::R);
        session.close(SourceId::T);
        let mut ids = drain_all(&mut session);
        assert!(matches!(session.poll(), IngestPoll::Complete));
        let stats = session.finish();
        assert!(!stats.cancelled);
        assert_eq!(stats.tuples_ingested, 300);
        assert!(stats.regions_unlocked > 0);
        stats.assert_inline_ledger();
        assert!(
            stats.remap_time.is_zero(),
            "nothing to remap before arrival"
        );
        assert!(!stats.determine_init_time.is_zero() && !stats.schedule_time.is_zero());
        ids.sort_unstable();
        assert_eq!(ids, batch_oracle(&rows_r, &rows_t, &maps));
    }

    #[test]
    fn results_flow_before_sources_finish_under_watermarks() {
        // Sorted-by-sum arrival with watermarks: the low cells seal early,
        // so proven-final results must emerge before either close().
        let mut rows_r = random_rows(300, 2, 3, 3);
        let mut rows_t = random_rows(300, 2, 3, 4);
        let by_min = |a: &(Vec<f64>, u32)| a.0.iter().cloned().fold(f64::INFINITY, f64::min);
        rows_r.sort_by(|a, b| by_min(a).total_cmp(&by_min(b)));
        rows_t.sort_by(|a, b| by_min(a).total_cmp(&by_min(b)));
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();

        // Push 80% first: the suffix minimum (the tightest sound watermark)
        // then clears the first grid-slice boundary, sealing the low cells.
        let half = 240;
        for side in [SourceId::R, SourceId::T] {
            let rows = if side == SourceId::R {
                &rows_r
            } else {
                &rows_t
            };
            session.push(side, &refs(&rows[..half])).unwrap();
            // Everything still to come is ≥ the per-dim min of the suffix.
            let mut wm = vec![f64::INFINITY; 2];
            for (a, _) in &rows[half..] {
                for d in 0..2 {
                    wm[d] = wm[d].min(a[d]);
                }
            }
            session.set_watermark(side, &wm).unwrap();
        }
        let mut ids = drain_all(&mut session);
        assert!(
            !ids.is_empty(),
            "watermarks must unlock results before close"
        );

        for side in [SourceId::R, SourceId::T] {
            let rows = if side == SourceId::R {
                &rows_r
            } else {
                &rows_t
            };
            session.push(side, &refs(&rows[half..])).unwrap();
            session.close(side);
        }
        ids.extend(drain_all(&mut session));
        assert!(matches!(session.poll(), IngestPoll::Complete));
        assert!(!session.finish().cancelled);
        ids.sort_unstable();
        // `push` auto-ids are arrival positions — which match row indices
        // of the (sorted) vectors the oracle materializes.
        assert_eq!(ids.len(), batch_oracle(&rows_r, &rows_t, &maps).len());
        assert_eq!(ids, batch_oracle(&rows_r, &rows_t, &maps));
    }

    #[test]
    fn typed_errors_leave_the_session_usable() {
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();

        // Arity.
        assert!(matches!(
            session.push(SourceId::R, &[(&[1.0][..], 0)]),
            Err(IngestError::Arity {
                expected: 2,
                got: 1,
                ..
            })
        ));
        // Out of declared bounds / non-finite.
        assert!(matches!(
            session.push(SourceId::R, &[(&[1.0, 200.0][..], 0)]),
            Err(IngestError::OutOfBounds { dim: 1, .. })
        ));
        assert!(matches!(
            session.push(SourceId::R, &[(&[f64::NAN, 1.0][..], 0)]),
            Err(IngestError::OutOfBounds { dim: 0, .. })
        ));
        // Watermark regression: declare wm then push below it.
        session.set_watermark(SourceId::R, &[50.0, 0.0]).unwrap();
        assert!(matches!(
            session.push(SourceId::R, &[(&[10.0, 5.0][..], 0)]),
            Err(IngestError::RowBelowWatermark { dim: 0, watermark, .. }) if watermark == 50.0
        ));
        // Watermark retreat.
        assert!(matches!(
            session.set_watermark(SourceId::R, &[40.0, 0.0]),
            Err(IngestError::WatermarkRetreat { dim: 0, .. })
        ));
        // Duplicate row ids.
        session
            .push_with_ids(SourceId::T, &[(7, &[1.0, 1.0][..], 0)])
            .unwrap();
        assert!(matches!(
            session.push_with_ids(SourceId::T, &[(7, &[2.0, 2.0][..], 0)]),
            Err(IngestError::DuplicateRow { row_id: 7, .. })
        ));
        // Closed source.
        session.close(SourceId::T);
        assert!(matches!(
            session.push(SourceId::T, &[(&[1.0, 1.0][..], 0)]),
            Err(IngestError::SourceClosed(SourceId::T))
        ));

        // The session still runs to a correct result afterwards.
        session.push(SourceId::R, &[(&[60.0, 1.0][..], 0)]).unwrap();
        session.close(SourceId::R);
        let ids = drain_all(&mut session);
        assert!(matches!(session.poll(), IngestPoll::Complete));
        assert!(!session.finish().cancelled);
        // R row (auto id 0 of R) joins T row id 7 on key 0.
        assert_eq!(ids, vec![(0, 7)]);
    }

    #[test]
    fn poll_needs_input_until_data_arrives() {
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut session = IngestSession::open(
            &ProgXeConfig::default(),
            &maps,
            StreamSpec::new(vec![0.0], vec![10.0]).unwrap(),
            StreamSpec::new(vec![0.0], vec![10.0]).unwrap(),
        )
        .unwrap();
        assert!(matches!(session.poll(), IngestPoll::NeedInput));
        session.push(SourceId::R, &[(&[1.0][..], 0)]).unwrap();
        assert!(matches!(session.poll(), IngestPoll::NeedInput));
        session.close(SourceId::R);
        session.push(SourceId::T, &[(&[2.0][..], 0)]).unwrap();
        session.close(SourceId::T);
        let ids = drain_all(&mut session);
        assert_eq!(ids, vec![(0, 0)]);
        assert!(!session.finish().cancelled);
    }

    /// The driver's gate never hands out a region whose cells are
    /// unsealed; computing one anyway is a bug, and it fails loudly
    /// instead of joining rows that may still grow.
    #[test]
    #[should_panic(expected = "region popped before its R cell sealed")]
    fn computing_a_region_before_its_cells_seal_panics() {
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();
        session.push(SourceId::R, &[(&[1.0, 1.0][..], 0)]).unwrap();
        session.close(SourceId::T);
        let ctx = Arc::clone(&session.inner.lock().unwrap().ctx);
        assert!(!ctx.is_ready(0));
        ctx.compute(
            0,
            &progxe_skyline::DominanceForest::default(),
            &CancellationToken::new(),
        );
    }

    #[test]
    fn cancel_on_never_closed_source_finishes_cleanly() {
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();
        session.push(SourceId::R, &[(&[1.0, 1.0][..], 0)]).unwrap();
        assert!(matches!(session.poll(), IngestPoll::NeedInput));
        session.cancel();
        assert!(matches!(session.poll(), IngestPoll::Complete));
        let stats = session.finish();
        assert!(stats.cancelled);
        assert!(stats.regions_skipped > 0);
    }

    #[test]
    fn cancelled_session_rejects_further_input_with_a_typed_error() {
        // Long-lived (subscription-style) sessions stay open across many
        // pushes; once their token fires — unsubscribe, disconnect — the
        // producer must get a typed stop signal instead of feeding a
        // session nobody will ever drain.
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();
        session.push(SourceId::R, &[(&[1.0, 1.0][..], 0)]).unwrap();
        // Fire the token through a shared handle, the way a watchdog
        // thread would.
        session.cancel_token().cancel();
        assert!(matches!(
            session.push(SourceId::R, &[(&[2.0, 2.0][..], 0)]),
            Err(IngestError::Cancelled)
        ));
        assert!(matches!(
            session.push_with_ids(SourceId::T, &[(0, &[2.0, 2.0][..], 0)]),
            Err(IngestError::Cancelled)
        ));
        assert!(matches!(
            session.set_watermark(SourceId::R, &[5.0, 5.0]),
            Err(IngestError::Cancelled)
        ));
        assert!(matches!(session.poll(), IngestPoll::Complete));
        let stats = session.finish();
        assert!(stats.cancelled, "open-source cancel must flag the stats");
        // The rejected batches never entered the session.
        assert_eq!(stats.tuples_ingested, 1);
    }

    #[test]
    fn watermark_on_a_float_slice_boundary_never_swallows_rows() {
        // Regression: sealing used to compare the watermark against a
        // *recomputed* slice boundary (lo + (s+1)·width), which at float
        // boundaries can sit below the exact value — sealing slot 0 while
        // `slot()` still placed a legal watermark-equal row into it,
        // silently dropping the row from every join. Sealing now uses
        // `slot(watermark)` itself, so admitted rows can never land in a
        // sealed cell.
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let config = ProgXeConfig::default().with_input_partitions(10);
        let lo = 0.1f64;
        let hi = 1.1f64;
        let boundary = lo + (hi - lo) / 10.0; // fl(0.2) = 0.19999999999999998
        let s = || StreamSpec::new(vec![lo], vec![hi]).unwrap();
        let mut session = IngestSession::open(&config, &maps, s(), s()).unwrap();
        session.set_watermark(SourceId::R, &[boundary]).unwrap();
        // Legal (== watermark) row exactly on the computed boundary.
        session.push(SourceId::R, &[(&[boundary][..], 0)]).unwrap();
        session.close(SourceId::R);
        session.push(SourceId::T, &[(&[0.5][..], 0)]).unwrap();
        session.close(SourceId::T);
        let ids = drain_all(&mut session);
        assert_eq!(ids, vec![(0, 0)], "boundary row must survive to the join");
        assert!(!session.finish().cancelled);
    }

    #[test]
    fn max_row_id_does_not_overflow_auto_ids() {
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session =
            IngestSession::open(&ProgXeConfig::default(), &maps, spec(2), spec(2)).unwrap();
        session
            .push_with_ids(SourceId::R, &[(u32::MAX, &[1.0, 1.0][..], 0)])
            .unwrap();
        // A later auto-id push saturates instead of wrapping to 0 and
        // colliding; the collision surfaces as a typed error, not a panic.
        assert!(matches!(
            session.push(SourceId::R, &[(&[2.0, 2.0][..], 0)]),
            Err(IngestError::DuplicateRow {
                row_id: u32::MAX,
                ..
            })
        ));
    }

    #[test]
    fn open_rejects_oversized_streaming_grids() {
        let maps = MapSet::pairwise_sum(4, Preference::all_lowest(4));
        let err = IngestSession::open(
            &ProgXeConfig::default().with_input_partitions(8),
            &maps,
            spec(4),
            spec(4),
        );
        assert!(matches!(err, Err(Error::InvalidConfig(_))));
    }

    /// At the default grid the subscriber's dimensionality alone decides
    /// whether a session opens: d = 4 provisions 3⁴ × 3⁴ = 6 561 regions,
    /// d = 5 would provision 3⁵ × 3⁵ = 59 049.
    #[test]
    fn the_region_cap_follows_the_declared_dimensionality() {
        let engine = ProgXe::new(ProgXeConfig::default());
        let open = |dims: usize| {
            let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
            engine.open_ingest(&maps, spec(dims), spec(dims))
        };
        assert!(open(4).is_ok());
        assert!(matches!(open(5), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn stream_spec_validation() {
        assert!(StreamSpec::new(vec![], vec![]).is_err());
        assert!(StreamSpec::new(vec![0.0], vec![0.0, 1.0]).is_err());
        assert!(StreamSpec::new(vec![2.0], vec![1.0]).is_err());
        assert!(StreamSpec::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(StreamSpec::new(vec![0.0], vec![f64::INFINITY]).is_err());
        let overflow = StreamSpec::new(vec![0.0, -1e308], vec![1.0, 1e308]);
        assert!(matches!(overflow, Err(Error::InvalidConfig(_))));
        assert!(StreamSpec::new(vec![-1e308], vec![0.0]).is_ok());
        let s = StreamSpec::new(vec![0.0, 1.0], vec![5.0, 1.0]).unwrap();
        assert_eq!(s.dims(), 2);
    }
}
