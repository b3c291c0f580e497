//! The unified region driver: one schedule-pop → tuple-level phase →
//! ordered-commit loop for every execution backend.
//!
//! The loop lives here exactly once, in [`RegionDriver`], parameterized by
//! an [`ExecutorBackend`] that [`ProgXe`](crate::executor::ProgXe) picks
//! from `ProgXeConfig::threads`:
//!
//! * [`ExecutorBackend::Inline`] — `threads = 1`. Regions are computed on
//!   the calling thread, one per step, through the same work unit a pool
//!   worker runs ([`RegionCtx::compute`]), filtering against the live
//!   admitted-tuple forest.
//! * [`ExecutorBackend::Pooled`] — `threads > 1`. Regions are fanned out as
//!   pure work units through a [`TaskSpawner`] (the engine's shared
//!   [`ThreadPool`](crate::pool::ThreadPool)) into a bounded dispatch
//!   window, and batches are committed **strictly in pop order** via a
//!   reorder buffer — the discipline that keeps parallel emission
//!   deterministic regardless of worker interleaving. Each unit carries
//!   the store's admitted-tuple forest as it stood at dispatch and rejects
//!   dominated tuples against it on the worker, so the serial committer
//!   only sees the few tuples that can still be admitted.
//!
//! ```text
//!             ┌─ Inline:  compute on this thread ──────────────┐
//! schedule ───┤                                                ├─▶ ordered
//!             └─ Pooled:  spawner ─▶ workers ─▶ reorder buffer ─┘   commit
//! ```
//!
//! Both backends share [`Committer`] — the single-threaded owner of the
//! cell store, the region schedule, and Algorithm 2's blocker bookkeeping.
//! All emission decisions flow through it in schedule order, which is what
//! keeps progressive output safe (no false positives or negatives) no
//! matter who computed the batches. The schedule ([`crate::progorder`]) is
//! a cursor over a fixed region order — origin first, or the No-Order
//! arm's shuffle — that no commit changes.
//!
//! ## Why parallel commit stays safe
//!
//! Algorithm 2's guarantee ("emit a cell only when no unresolved region can
//! still place a tuple into a dominating cell") only cares that a region is
//! *resolved after its tuples are in the store*. Workers never touch the
//! store; the committer inserts a region's batch and resolves it in one
//! step on either backend — in-flight regions simply stay unresolved,
//! keeping their blocker counts up, so nothing they could still produce is
//! ever contradicted by an early emission. Dispatch order deviating from
//! sequential ProgOrder only shifts the *rate* optimization (Section IV),
//! never correctness, as the paper's No-Order variation already
//! establishes. And because every pop and every commit happens at a
//! deterministic point of the loop — never "whichever worker finished
//! first" — the emitted event sequence is a pure function of the query and
//! its configuration; the admitted-forest snapshot a unit filters against is
//! taken on the committer thread, so it is one too.
//!
//! ## Pool lifecycle
//!
//! Sessions **never construct a pool**: they borrow their engine's
//! [`EngineRuntime`](crate::runtime::EngineRuntime), which lazily spawns
//! one long-lived pool on the first non-trivial session and shares it with
//! every later one (and with every clone of the engine) — spawn/join is
//! paid once per engine, not once per query. Cancellation: workers check
//! the shared token inside the probe loop and return partial batches
//! flagged `completed = false`; the committer never commits those, so a
//! cancelled query cannot emit a false positive, and its leftover jobs
//! vacate the shared pool at their first token check.

use crate::cells::CellStore;
use crate::executor::Prepared;
use crate::lookahead::Region;
use crate::progdetermine::{EmittedCell, ProgDetermine};
use crate::progorder::Schedule;
use crate::session::{CancellationToken, ResultEvent};
use crate::stats::{ExecStats, ResultTuple};
use crate::tuple_level::{RegionBatch, RegionCtx, TupleLevelStats};
use progxe_obs::{Point, Span, Trace};
use progxe_skyline::{DominanceForest, Order};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of one schedule-pop attempt (see [`Committer::pop_gated`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped {
    /// The next region to work on, marked dispatched.
    Region(u32),
    /// The schedule's next region exists but its input is not ready yet
    /// (streaming ingestion only): nothing was popped, and the *same*
    /// region will be offered again once its cells seal. Stalling — rather
    /// than skipping to a ready region — is what keeps the commit sequence,
    /// and with it the emission order, independent of the arrival schedule.
    Stalled,
    /// Every region has been handed out.
    Exhausted,
}

/// How emitted `(r, t)` tuple ids map back to the caller's row ids.
///
/// The batch pipeline inserts *filtered-source* row ids into the cell
/// store; when push-through dropped rows it translates them through the
/// survivor tables on emission. Without push-through (off, or skipped) the
/// filtered source is every row in order, and the streaming-ingestion
/// pipeline inserts caller row ids directly, so no table exists.
#[derive(Debug)]
pub(crate) enum RowIds {
    /// Emitted ids are already the caller's.
    Identity,
    /// Translate through filtered→original row tables (push-through).
    Table {
        /// Original R row id per filtered row.
        r: Vec<u32>,
        /// Original T row id per filtered row.
        t: Vec<u32>,
    },
}

impl RowIds {
    #[inline]
    fn map_r(&self, i: u32) -> u32 {
        match self {
            RowIds::Identity => i,
            RowIds::Table { r, .. } => r[i as usize],
        }
    }

    #[inline]
    fn map_t(&self, i: u32) -> u32 {
        match self {
            RowIds::Identity => i,
            RowIds::Table { t, .. } => t[i as usize],
        }
    }
}

/// The single-threaded back half of the region loop: owns the cell store,
/// the region schedule, and Algorithm 2's blocker bookkeeping.
///
/// Every region goes through exactly one of two commit paths — both of
/// which resolve it and may release proven-final cells as a
/// [`ResultEvent`]:
///
/// * [`discard_dead`](Self::discard_dead) — the region box was already
///   fully dominated when it was popped; no tuple work at all;
/// * [`commit_batch`](Self::commit_batch) — apply a [`RegionBatch`],
///   whether a pool worker or the inline backend computed it.
///
/// Drivers **must** commit batches in the order the regions were popped
/// from [`pop_gated`](Self::pop_gated); combined with the cancellation-token
/// discipline this makes emission deterministic regardless of worker
/// interleaving.
pub struct Committer {
    /// The query's live regions (shared with the compute side's context).
    regions: Arc<[Region]>,
    /// Emitted-id translation (push-through survivor tables, or identity).
    row_ids: RowIds,
    store: CellStore,
    det: ProgDetermine,
    orders: Vec<Order>,
    schedule: Schedule,
    resolved: usize,
    total_regions: usize,
    emitted_buf: Vec<EmittedCell>,
    started: Instant,
    /// The session's trace handle (disabled unless a recorder was wired in
    /// at prepare time). Commit-side events are recorded here; the driver
    /// and pool workers clone it for their own spans.
    trace: Trace,
}

/// Everything a pipeline front end (the executor's `prepare`, or the
/// streaming-ingestion setup) hands over to build a [`Committer`].
/// Crate-internal: external callers receive the committer ready-made inside
/// [`Prepared`].
pub(crate) struct CommitterParts {
    pub regions: Arc<[Region]>,
    pub row_ids: RowIds,
    pub store: CellStore,
    pub det: ProgDetermine,
    pub orders: Vec<Order>,
    pub started: Instant,
    pub trace: Trace,
}

impl Committer {
    /// Assembles a committer over prepared pipeline state, building the
    /// region schedule for the configured ordering policy.
    pub(crate) fn new(parts: CommitterParts, ordering: crate::config::OrderingPolicy) -> Self {
        Self {
            schedule: Schedule::new(&parts.regions, ordering),
            total_regions: parts.regions.len(),
            regions: parts.regions,
            row_ids: parts.row_ids,
            store: parts.store,
            det: parts.det,
            orders: parts.orders,
            resolved: 0,
            emitted_buf: Vec::new(),
            started: parts.started,
            trace: parts.trace,
        }
    }

    /// The instant the pipeline started (zero point of event timestamps).
    pub fn started_at(&self) -> Instant {
        self.started
    }

    /// The session's trace handle (cheap to clone; disabled when no
    /// recorder was attached).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Regions not yet resolved.
    pub fn unresolved(&self) -> usize {
        self.total_regions - self.resolved
    }

    /// Upper bound on the region's join work: `n_R · n_T` of its partition
    /// pair, as its `tuple_phase` span reports it. Zero for
    /// streaming-ingestion regions, whose sizes are unknowable before
    /// arrival.
    pub fn pair_bound(&self, rid: u32) -> u64 {
        let region = &self.regions[rid as usize];
        u64::from(region.n_r) * u64::from(region.n_t)
    }

    /// Picks the next region to work on, marking it dispatched.
    /// [`Popped::Exhausted`] is final.
    ///
    /// `gate` is the streaming-ingestion readiness gate: when it rejects
    /// the region the schedule would hand out, the pop returns
    /// [`Popped::Stalled`] and the schedule is left positioned on that same
    /// region. The streaming-ingestion driver stalls until watermarks or a
    /// source close seal the region's input cells; order preservation under
    /// the gate keeps emission identical to the all-at-once run.
    pub fn pop_gated(&mut self, gate: Option<&RegionCtx>) -> Popped {
        let _span = self.trace.span(Span::RegionPop);
        let popped = self
            .schedule
            .pop(|rid| gate.is_none_or(|g| g.is_ready(rid)));
        if matches!(popped, Popped::Stalled) {
            self.trace.point(Point::Stall);
        }
        popped
    }

    /// The cell store's forest of admitted tuples
    /// ([`CellStore::admitted`]) as of the commits landed so far — what a
    /// batch producer prunes and filters against ([`RegionCtx::compute`]).
    pub fn admitted(&self) -> &DominanceForest {
        self.store.admitted()
    }

    /// Whether the region's whole output box is fully dominated by results
    /// committed so far (Algorithm 1, line 9) — its tuple work can be
    /// skipped entirely.
    pub fn region_box_is_dead(&self, rid: u32) -> bool {
        self.store
            .region_is_dead(&self.regions[rid as usize].cell_lo)
    }

    /// Resolves a dead region without tuple-level work.
    pub fn discard_dead(&mut self, rid: u32, stats: &mut ExecStats) -> Option<ResultEvent> {
        stats.regions_discarded_dead += 1;
        self.resolve(rid, stats)
    }

    /// Applies one computed batch. The region box is re-checked against
    /// results committed in the meantime (a region dispatched early may be
    /// dead by the time its batch lands — counted as
    /// [`ExecStats::regions_computed_dead`]), then the surviving tuples go
    /// through the store's insert — rejected if their cell is dead or an
    /// admitted tuple dominates them, never evicting one — the admitted
    /// ones are published to the forest, and the region resolves, releasing
    /// cells without the members a later admission dominates.
    ///
    /// # Panics
    /// Debug-asserts that the batch completed; committing a partial batch
    /// would break Principle 1. Panics if a surviving tuple lands in a
    /// grid position no unresolved region blocks: the cell there is
    /// released (or would be built past its release), so the
    /// tuple would be lost — the look-ahead's box invariant broke.
    pub fn commit_batch(
        &mut self,
        batch: RegionBatch,
        stats: &mut ExecStats,
    ) -> Option<ResultEvent> {
        debug_assert!(batch.completed, "partial batches must not be committed");
        let span = self.trace.span(Span::Commit {
            region_id: u64::from(batch.rid),
        });
        let commit_started = Instant::now();
        stats.region_latency.record(batch.compute_time);
        absorb_batch_work(stats, batch.compute_time, &batch.stats);
        if self.region_box_is_dead(batch.rid) {
            stats.regions_computed_dead += 1;
        } else {
            stats.regions_processed += 1;
            for (&(r, t), point) in batch.ids.iter().zip(batch.points.iter()) {
                let coord = self.store.grid().cell_of(point);
                // Checked once the insert has built the cell, so a new
                // cell's blocker count is taken once, at registration.
                self.store.insert_at(coord, r, t, point);
                assert!(
                    self.det.awaits_tuples_at(&self.store, &coord),
                    "a tuple of region {} landed in released grid position {:?}: \
                     look-ahead box invariant violated",
                    batch.rid,
                    &coord[..self.store.grid().dims()]
                );
            }
            self.store.publish_admitted();
        }
        let event = self.resolve(batch.rid, stats);
        let commit_elapsed = commit_started.elapsed();
        span.end();
        stats.commit_time += commit_elapsed;
        stats.commit_latency.record(commit_elapsed);
        event
    }

    /// Resolves one dispatched region: blocker bookkeeping, schedule
    /// update, and conversion of released cells into a [`ResultEvent`].
    fn resolve(&mut self, rid: u32, stats: &mut ExecStats) -> Option<ResultEvent> {
        let region = &self.regions[rid as usize];
        let resolve_started = Instant::now();
        self.det
            .resolve_region(region, &mut self.store, &mut self.emitted_buf);
        stats.resolve_time += resolve_started.elapsed();
        self.resolved += 1;
        self.trace.gauge(
            "progress_estimate",
            self.resolved as f64 / self.total_regions.max(1) as f64,
        );

        if self.emitted_buf.is_empty() {
            return None;
        }
        let mut tuples = Vec::new();
        let grid = self.store.grid();
        for cell in self.emitted_buf.drain(..) {
            stats.cells_emitted += 1;
            self.trace.point(Point::Emit {
                cell: grid.position(self.store.cell(cell.cell_idx).coord()),
                n: cell.ids.len() as u64,
                proven_final: true,
            });
            for (i, &(ri, ti)) in cell.ids.iter().enumerate() {
                let oriented = cell.points.point(i);
                let values = self
                    .orders
                    .iter()
                    .zip(oriented)
                    .map(|(o, &v)| o.orient(v))
                    .collect();
                tuples.push(ResultTuple {
                    r_idx: self.row_ids.map_r(ri),
                    t_idx: self.row_ids.map_t(ti),
                    values,
                });
            }
        }
        stats.results_emitted += tuples.len() as u64;
        self.trace.counter("results_emitted", tuples.len() as u64);
        Some(ResultEvent {
            tuples,
            proven_final: true,
            progress_estimate: self.resolved as f64 / self.total_regions.max(1) as f64,
            elapsed: self.started.elapsed(),
        })
    }

    /// Closes the region loop: merges cell-store counters into `stats` and
    /// flags an early stop when regions were left unresolved.
    pub fn finalize(self, stats: &mut ExecStats) {
        let unresolved = self.total_regions - self.resolved;
        if unresolved > 0 {
            stats.cancelled = true;
            stats.regions_skipped = unresolved;
        } else {
            // All regions resolved ⇒ every live cell must have been
            // released.
            debug_assert_eq!(
                self.det.live_cells(),
                0,
                "cells left blocked after all regions resolved"
            );
        }
        let cell_stats = self.store.stats();
        // `+=`: worker-side tests were already accumulated.
        stats.store_dominance_tests += cell_stats.dominance_tests;
        stats.dominance_tests += cell_stats.dominance_tests;
        stats.dominance_pairs += cell_stats.dominance_pairs;
        stats.fdom_vertex_evals += cell_stats.fdom_vertex_evals;
        stats.tuples_inserted = cell_stats.tuples_inserted;
        stats.tuples_rejected_dominated = cell_stats.tuples_rejected_dominated;
        stats.tuples_rejected_dead_cell = cell_stats.tuples_rejected_dead_cell;
        stats.tuples_evicted = cell_stats.tuples_evicted;
        stats.cells_tracked = self.store.len();
        stats.cells_premarked_dead = cell_stats.cells_premarked_dead as usize;
        stats.tuples_fdom_filtered = cell_stats.tuples_fdom_filtered;
    }
}

/// Typed rejection from [`TaskSpawner::spawn_task`]: the spawner has shut
/// down and the job was **not** (and never will be) run. The region driver
/// treats this as a cancellation signal for the whole session — the pinned
/// behavior when an engine runtime is shut down under a live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnError;

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("task spawner is shut down; job was not run")
    }
}

impl std::error::Error for SpawnError {}

/// Something that can run `'static` jobs on worker threads. The shared
/// [`ThreadPool`](crate::pool::ThreadPool) implements it; keeping the
/// driver behind the trait lets its tests substitute simpler spawners.
pub trait TaskSpawner: Send + Sync {
    /// Enqueues a job for execution on some worker thread, or returns
    /// [`SpawnError`] if the spawner has shut down. `Ok` is a contract:
    /// an accepted job runs (and thus reports) exactly once.
    fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError>;
}

/// How [`RegionDriver`] executes the tuple-level phase.
pub enum ExecutorBackend {
    /// Compute regions on the calling thread, one per step.
    Inline,
    /// Fan region work units out through a [`TaskSpawner`] with a bounded
    /// dispatch window of `2 × threads`. The window fills whenever the
    /// schedule can hand out that many regions, and every unit rejects
    /// dominated tuples on its worker against the admitted-tuple forest as it
    /// stood when the unit was dispatched, leaving the ordered committer
    /// only the tuples that can still be admitted.
    Pooled {
        /// Executes the work units (e.g. a shared thread pool handle).
        spawner: Arc<dyn TaskSpawner>,
        /// Worker count behind the spawner — sizes the dispatch window.
        threads: usize,
    },
}

impl std::fmt::Debug for ExecutorBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorBackend::Inline => f.write_str("Inline"),
            ExecutorBackend::Pooled { threads, .. } => f
                .debug_struct("Pooled")
                .field("threads", threads)
                .finish_non_exhaustive(),
        }
    }
}

/// Reorder buffer between workers and the committer: a `Mutex`/`Condvar`
/// channel keyed by dispatch sequence number.
struct ResultQueue {
    slots: Mutex<BTreeMap<u64, RegionBatch>>,
    ready: Condvar,
}

impl ResultQueue {
    fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, seq: u64, batch: RegionBatch) {
        let mut slots = self.slots.lock().expect("result queue poisoned");
        slots.insert(seq, batch);
        drop(slots);
        self.ready.notify_all();
    }

    /// Blocks until the batch for `seq` arrives. Every dispatched job is
    /// guaranteed to push exactly one entry (a [`DeliveryGuard`] reports
    /// even on worker panic), so this cannot deadlock.
    fn wait_take(&self, seq: u64) -> RegionBatch {
        let mut slots = self.slots.lock().expect("result queue poisoned");
        loop {
            if let Some(batch) = slots.remove(&seq) {
                return batch;
            }
            slots = self.ready.wait(slots).expect("result queue poisoned");
        }
    }

    /// Takes the batch for `seq` only if it has already been delivered.
    /// Used by the cancelled-run scavenge, which must never block on the
    /// shared pool.
    fn try_take(&self, seq: u64) -> Option<RegionBatch> {
        self.slots
            .lock()
            .expect("result queue poisoned")
            .remove(&seq)
    }
}

/// Ensures a dispatched work unit always reports: if the job unwinds before
/// delivering, `Drop` pushes an aborted batch so the committer wakes up and
/// treats the run as failed instead of deadlocking.
struct DeliveryGuard {
    queue: Arc<ResultQueue>,
    seq: u64,
    rid: u32,
    dims: usize,
    delivered: bool,
}

impl DeliveryGuard {
    fn deliver(mut self, batch: RegionBatch) {
        self.delivered = true;
        self.queue.push(self.seq, batch);
    }
}

impl Drop for DeliveryGuard {
    fn drop(&mut self) {
        if !self.delivered {
            self.queue
                .push(self.seq, RegionBatch::aborted(self.rid, self.dims));
        }
    }
}

/// Outcome of one [`RegionDriver::poll_next`] call.
#[derive(Debug)]
pub enum DriverPoll {
    /// A batch of proven-final results.
    Event(ResultEvent),
    /// Streaming ingestion only: the next scheduled region's input cells
    /// are not sealed yet — push more rows, advance a watermark, or close a
    /// source, then poll again.
    Stalled,
    /// The run is over (all regions resolved, or cancelled).
    Finished,
}

/// Internal outcome of one scheduling round.
enum Advance {
    /// Work happened (events may be queued); poll again.
    Progressed,
    /// Readiness-gated schedule is waiting for input (ingestion only).
    Stalled,
    /// Schedule exhausted or cancelled mid-region.
    Finished,
}

/// The one region-execution loop of the codebase, behind a
/// [`QuerySession`](crate::session::QuerySession) through
/// [`next_event`](Self::next_event) (batch pipeline) or polled directly by an
/// [`IngestSession`](crate::ingest::IngestSession) (streaming pipeline).
///
/// Owns a [`Committer`] and advances the region loop, queueing a
/// [`ResultEvent`] whenever a resolution releases proven-final cells. Owns
/// no borrows: all query state was copied/`Arc`ed during
/// [`ProgXe::prepare`](crate::executor::ProgXe::prepare) (or the ingest
/// setup).
pub struct RegionDriver {
    start: Instant,
    token: CancellationToken,
    stats: ExecStats,
    committer: Option<Committer>,
    backend: ExecutorBackend,
    work: Option<Arc<RegionCtx>>,
    /// Whether pops go through the readiness gate
    /// ([`RegionCtx::is_ready`]): a stream's work context, whose slots
    /// are set as cells seal.
    gated: bool,
    queue: Arc<ResultQueue>,
    /// Dispatch sequence numbers of in-flight regions, oldest first
    /// (pooled backend only; always empty on inline).
    inflight: VecDeque<u64>,
    next_seq: u64,
    /// Dispatch-window size: 1 inline; `2 × threads` pooled — enough to
    /// keep workers busy while the committer applies the oldest batch,
    /// small enough to bound batch memory, speculative work on regions that
    /// die before their batch lands, and the distance from the schedule's
    /// intent. Each round tops the window up before committing one batch,
    /// so after the first fill pops and commits alternate one for one.
    /// Readiness-gated (streaming) runs force 1 on either backend: popping
    /// ahead of the commit frontier would interleave pops and commits
    /// differently per arrival schedule and break emission-order
    /// invariance.
    window: usize,
    /// Whether work units filter against the admitted forest. Always true in
    /// production; see [`RegionDriver::without_snapshot_filter`].
    snapshot_filter: bool,
    ready: VecDeque<ResultEvent>,
    done: bool,
    /// Clone of the committer's trace handle, used for driver-side events
    /// (inline compute spans, the pooled arm's worker spans, cancellation).
    trace: Trace,
    /// Whether the `cancel` point was already recorded (once per session).
    cancel_noted: bool,
}

impl RegionDriver {
    /// Builds the driver over a prepared pipeline — a closed relation's or
    /// a stream's. Over a stream's work context every pop is
    /// readiness-gated: it stalls until the scheduled region's cells seal,
    /// and the dispatch window is 1 on either backend: popping ahead of
    /// the commit frontier would interleave pops and commits differently
    /// per arrival schedule.
    pub fn new(prep: Prepared, token: CancellationToken, backend: ExecutorBackend) -> Self {
        let gated = prep.ctx.as_ref().is_some_and(|ctx| ctx.is_streamed());
        let window = match &backend {
            ExecutorBackend::Pooled { threads, .. } if !gated => threads.saturating_mul(2).max(1),
            _ => 1,
        };
        let committer = prep.committer;
        let done = committer.is_none();
        let trace = committer
            .as_ref()
            .map(|c| c.trace().clone())
            .unwrap_or_default();
        Self {
            start: prep.started,
            token,
            stats: prep.stats,
            committer,
            backend,
            work: prep.ctx,
            gated,
            queue: Arc::new(ResultQueue::new()),
            inflight: VecDeque::new(),
            next_seq: 0,
            window,
            snapshot_filter: true,
            ready: VecDeque::new(),
            done,
            trace,
            cancel_noted: false,
        }
    }

    /// The reference arrangement of the differential suites: every work
    /// unit gets an empty snapshot, so rejection happens on the committer
    /// alone. The emitted stream is identical either way — the suites pin
    /// exactly that — so this is not a tuning knob.
    #[doc(hidden)]
    #[must_use]
    pub fn without_snapshot_filter(mut self) -> Self {
        self.snapshot_filter = false;
        self
    }

    /// Pulls the next driver outcome: an event, a stall (gated runs only),
    /// or the end of the run. The streaming-ingestion session polls this
    /// directly; [`next_event`](Self::next_event) wraps it for batch sessions.
    pub fn poll_next(&mut self) -> DriverPoll {
        loop {
            if self.token.is_cancelled() {
                if !self.cancel_noted {
                    self.cancel_noted = true;
                    self.trace.point(Point::Cancel);
                }
                return DriverPoll::Finished;
            }
            if let Some(event) = self.ready.pop_front() {
                return DriverPoll::Event(event);
            }
            if self.done {
                return DriverPoll::Finished;
            }
            match self.advance() {
                Advance::Progressed => continue,
                Advance::Stalled => return DriverPoll::Stalled,
                Advance::Finished => self.done = true,
            }
        }
    }

    /// One deterministic scheduling round. Inline: pop one region, compute
    /// its batch here, commit it. Pooled: top the dispatch window up, then
    /// — unless dead-region discards already produced deliverable events —
    /// commit the oldest in-flight batch. Gated (ingestion) runs additionally stall when the
    /// scheduled region's input is not sealed yet.
    fn advance(&mut self) -> Advance {
        let Some(committer) = self.committer.as_mut() else {
            return Advance::Finished;
        };
        let work = self
            .work
            .as_ref()
            .expect("a committer implies a work context");
        let gate = self.gated.then_some(&**work);
        let mut stalled = false;
        let topup_started = Instant::now();
        while self.inflight.len() < self.window {
            let rid = match committer.pop_gated(gate) {
                Popped::Region(rid) => rid,
                Popped::Stalled => {
                    stalled = true;
                    break;
                }
                Popped::Exhausted => break,
            };
            if committer.region_box_is_dead(rid) {
                if let Some(event) = committer.discard_dead(rid, &mut self.stats) {
                    self.ready.push_back(event);
                    // Inline delivers the released cells before touching
                    // the next region (one region per step, like the
                    // pre-refactor sequential loop); the pooled arm keeps
                    // filling its window and delivers via the ready-check
                    // below, before blocking on a worker.
                    if matches!(self.backend, ExecutorBackend::Inline) {
                        return Advance::Progressed;
                    }
                }
                continue;
            }
            match &self.backend {
                ExecutorBackend::Inline => {
                    let span = self.trace.span(Span::TuplePhase {
                        region_id: u64::from(rid),
                        pairs: committer.pair_bound(rid),
                    });
                    // Inline borrows the store's forest: nothing commits
                    // while this region computes.
                    let unfiltered = DominanceForest::default();
                    let snapshot = if self.snapshot_filter {
                        committer.admitted()
                    } else {
                        &unfiltered
                    };
                    let batch = work.compute(rid, snapshot, &self.token);
                    span.end();
                    return self.land(batch);
                }
                ExecutorBackend::Pooled { spawner, .. } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let work = Arc::clone(work);
                    let token = self.token.clone();
                    let queue = Arc::clone(&self.queue);
                    let dims = work.maps().out_dims();
                    let trace = self.trace.clone();
                    let pairs = committer.pair_bound(rid);
                    // The forest as it stands *now*, on the committer
                    // thread, at this fixed point of the pop/commit sequence
                    // — which is what makes the unit's output, and the
                    // counters it reports, independent of worker timing. A
                    // pointer copy per run: a publish adds runs rather than
                    // changing one a unit holds.
                    let snapshot = if self.snapshot_filter {
                        committer.admitted().clone()
                    } else {
                        DominanceForest::default()
                    };
                    let spawned = spawner.spawn_task(Box::new(move || {
                        let guard = DeliveryGuard {
                            queue,
                            seq,
                            rid,
                            dims,
                            delivered: false,
                        };
                        // Declared after the guard so an unwinding compute
                        // still closes the span *before* the aborted batch
                        // is delivered (drop order is reverse declaration).
                        let span = trace.span(Span::TuplePhase {
                            region_id: u64::from(rid),
                            pairs,
                        });
                        let batch = work.compute(rid, &snapshot, &token);
                        span.end();
                        guard.deliver(batch);
                    }));
                    match spawned {
                        Ok(()) => {
                            self.inflight.push_back(seq);
                            self.stats.inflight_peak =
                                self.stats.inflight_peak.max(self.inflight.len());
                        }
                        Err(SpawnError) => {
                            // The spawner shut down under this live session
                            // (e.g. `EngineRuntime::shutdown` closed the
                            // shared pool). The rejected job never reports,
                            // so waiting on `seq` would deadlock; instead
                            // the run cancels: fire the token so earlier
                            // accepted jobs abort at their next check, and
                            // let `finalize` scavenge whatever they already
                            // delivered. The session surfaces this exactly
                            // like a user cancel — `stats.cancelled`.
                            progxe_obs::log::warn(
                                "task spawner shut down under a live session; cancelling the run",
                            );
                            self.token.cancel();
                            self.stats.cancelled = true;
                            return Advance::Finished;
                        }
                    }
                }
            }
        }
        if matches!(self.backend, ExecutorBackend::Pooled { .. }) {
            // Inline leaves the loop above from inside (compute + commit);
            // on Pooled it holds exactly the committer's scheduling work.
            self.stats.dispatch_time += topup_started.elapsed();
        }
        if !self.ready.is_empty() {
            // Deliver discard-produced events before blocking on a worker.
            return Advance::Progressed;
        }
        let Some(seq) = self.inflight.pop_front() else {
            return if stalled {
                Advance::Stalled
            } else {
                Advance::Finished
            };
        };
        let wait_started = Instant::now();
        let batch = self.queue.wait_take(seq);
        self.stats.commit_wait_time += wait_started.elapsed();
        self.land(batch)
    }

    /// Commits the batch of the oldest dispatched region, or — when it is
    /// incomplete — ends the run with the region unresolved.
    fn land(&mut self, batch: RegionBatch) -> Advance {
        if !batch.completed {
            // An incomplete batch has exactly two causes. If the shared
            // token fired, this is an ordinary cancellation: the region
            // stays unresolved and the run ends cancelled, never emitting
            // from partial state. Otherwise a pool worker died (a panicking
            // mapping function) and the DeliveryGuard reported for it —
            // propagate, matching the inline backend (where the panic
            // unwinds straight out of `compute`) instead of disguising a
            // crash as a user-initiated cancel.
            if !self.token.is_cancelled() {
                panic!(
                    "progxe worker panicked while computing region {} \
                     (see stderr for the worker's panic message)",
                    batch.rid
                );
            }
            // Never committed, but its partial work is real: account it so
            // cancelled-run stats reflect the pairs actually evaluated.
            absorb_batch_work(&mut self.stats, batch.compute_time, &batch.stats);
            self.stats.cancelled = true;
            return Advance::Finished;
        }
        let committer = self
            .committer
            .as_mut()
            .expect("only a running driver computes batches");
        if let Some(event) = committer.commit_batch(batch, &mut self.stats) {
            self.ready.push_back(event);
        }
        Advance::Progressed
    }
}

/// Folds the work one region's tuple-level unit reports — compute time,
/// join counters, and the batch filter stage's dominance work — into the
/// run stats. The one place these are accumulated:
/// [`Committer::commit_batch`] calls it for every batch it applies, and the
/// driver for batches that will never be committed (token fired
/// mid-region, or scavenged at `finalize`), so a cancelled run still
/// reports the work it did.
fn absorb_batch_work(stats: &mut ExecStats, compute_time: Duration, work: &TupleLevelStats) {
    stats.tuple_time += compute_time;
    stats.join_pairs_evaluated += work.pairs_examined;
    stats.join_probes += work.probes;
    stats.join_build_rows += work.build_rows;
    stats.join_matches += work.matches;
    stats.join_matches_skipped += work.skipped;
    let tests = work.lookahead_dominance_tests + work.filter_dominance_tests;
    stats.lookahead_dominance_tests += work.lookahead_dominance_tests;
    stats.filter_dominance_tests += work.filter_dominance_tests;
    stats.dominance_tests += tests;
    // Look-ahead and filter stage run entirely on the batched kernels.
    stats.dominance_pairs += tests;
    stats.fdom_vertex_evals += work.fdom_vertex_evals;
    // A skipped match is a tuple rejected upstream of the committer too.
    stats.tuples_prefiltered += work.locally_pruned + work.skipped;
}

impl RegionDriver {
    /// Pulls the next event of a batch session, stepping the region loop as
    /// needed; `None` once the run has completed or was cancelled.
    pub fn next_event(&mut self) -> Option<ResultEvent> {
        match self.poll_next() {
            DriverPoll::Event(event) => Some(event),
            DriverPoll::Finished => None,
            DriverPoll::Stalled => {
                // Unreachable through QuerySession: only ingest drivers are
                // gated, and they are polled directly via `poll_next`.
                debug_assert!(false, "ungated driver stalled");
                None
            }
        }
    }

    /// A snapshot of the statistics accumulated so far (mid-run safe).
    pub fn stats_snapshot(&self) -> ExecStats {
        let mut stats = self.stats.clone();
        stats.total_time = self.start.elapsed();
        stats
    }

    /// Closes the session: fires the token for any in-flight workers
    /// (their regions are *skipped*, not awaited — abandoned queries must
    /// stop burning shared-pool CPU), merges cell-store counters into the
    /// stats, and flags an early stop (unresolved regions or undelivered
    /// events).
    pub fn finalize(mut self) -> ExecStats {
        if !self.inflight.is_empty() {
            self.token.cancel();
        }
        // A `take(k)`-style early finish cancels the token and never polls
        // again, so the poll-loop observation point would miss it.
        if self.token.is_cancelled() && !self.cancel_noted {
            self.cancel_noted = true;
            self.trace.point(Point::Cancel);
        }
        let mut stats = std::mem::take(&mut self.stats);
        // Scavenge whatever in-flight batches have already been delivered:
        // their regions are skipped (never committed), but the work
        // happened and belongs in the cancelled run's counters. Strictly
        // non-blocking — a still-running worker's stats are forfeited
        // rather than stalling finish() behind the shared pool.
        for seq in self.inflight.drain(..) {
            if let Some(batch) = self.queue.try_take(seq) {
                absorb_batch_work(&mut stats, batch.compute_time, &batch.stats);
            }
        }
        if let Some(committer) = self.committer.take() {
            if !self.ready.is_empty() || committer.unresolved() > 0 {
                stats.cancelled = true;
            }
            committer.finalize(&mut stats);
        }
        stats.total_time = self.start.elapsed();
        stats
    }
}

impl Drop for RegionDriver {
    /// A session dropped without `finish()` must not leave pool workers
    /// computing doomed regions on a *shared* pool: fire the token so
    /// in-flight jobs exit at their next check. The jobs own all the state
    /// they touch (`Arc`s of context, token, and reorder buffer), so no
    /// join is needed.
    fn drop(&mut self) {
        if !self.inflight.is_empty() {
            self.token.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProgXeConfig;
    use crate::executor::ProgXe;
    use crate::mapping::MapSet;
    use crate::session::QuerySession;
    use crate::source::SourceData;
    use progxe_skyline::Preference;

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

    /// A minimal spawner: one OS thread per job. Exercises the pooled
    /// code path without the shared pool.
    struct ThreadPerTask;
    impl TaskSpawner for ThreadPerTask {
        fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError> {
            std::thread::spawn(job);
            Ok(())
        }
    }

    fn drive(
        config: &ProgXeConfig,
        r: &SourceData,
        t: &SourceData,
        maps: &MapSet,
        backend: ExecutorBackend,
    ) -> Vec<(u32, u32)> {
        let token = CancellationToken::new();
        let prep = ProgXe::new(config.clone())
            .prepare(&r.view(), &t.view(), maps, token.clone())
            .unwrap();
        let driver = RegionDriver::new(prep, token.clone(), backend);
        let mut session = QuerySession::stepped("test", token, driver);
        let mut ids = Vec::new();
        while let Some(event) = session.next_batch() {
            assert!(event.proven_final);
            ids.extend(event.tuples.iter().map(|x| (x.r_idx, x.t_idx)));
        }
        assert!(!session.finish().cancelled);
        ids.sort_unstable();
        ids
    }

    #[test]
    fn pooled_backend_matches_inline_through_any_spawner() {
        let r = random_source(180, 2, 5, 3);
        let t = random_source(180, 2, 5, 4);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let config = ProgXeConfig::default();
        let inline = drive(&config, &r, &t, &maps, ExecutorBackend::Inline);
        let pooled = drive(
            &config,
            &r,
            &t,
            &maps,
            ExecutorBackend::Pooled {
                spawner: Arc::new(ThreadPerTask),
                threads: 3,
            },
        );
        assert!(!inline.is_empty());
        assert_eq!(inline, pooled);
    }

    /// A spawner that runs each job on the calling thread, inside
    /// `spawn_task`: the batch sits in the reorder buffer before the driver
    /// pops again, so a recorder sees `TuplePhase` spans in **pop order**
    /// and `Commit` spans in commit order, on one thread, deterministically.
    struct RunAtDispatch;
    impl TaskSpawner for RunAtDispatch {
        fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError> {
            job();
            Ok(())
        }
    }

    /// The pooled dispatch window fills, and the committer still applies
    /// batches strictly in pop order.
    #[test]
    fn pooled_window_fills_and_commits_in_pop_order() {
        use progxe_obs::{EventKind, RingRecorder};
        let r = random_source(400, 2, 4, 11);
        let t = random_source(400, 2, 4, 12);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let config = ProgXeConfig::default().with_input_partitions(2);
        let token = CancellationToken::new();
        let ring = Arc::new(RingRecorder::new());
        let prep = ProgXe::new(config.clone())
            .with_recorder(ring.clone())
            .prepare(&r.view(), &t.view(), &maps, token.clone())
            .unwrap();
        let threads = 2;
        let driver = RegionDriver::new(
            prep,
            token.clone(),
            ExecutorBackend::Pooled {
                spawner: Arc::new(RunAtDispatch),
                threads,
            },
        );
        let window = driver.window;
        assert_eq!(window, 2 * threads);
        let mut session = QuerySession::stepped("test", token, driver);
        while session.next_batch().is_some() {}
        let stats = session.finish();
        assert!(!stats.cancelled);
        assert_eq!(stats.inflight_peak, window, "window never filled");

        let mut popped = Vec::new();
        let mut committed = Vec::new();
        let mut popped_before_first_commit = 0;
        for event in ring.drain() {
            match event.kind {
                EventKind::SpanBegin {
                    span: Span::TuplePhase { region_id, .. },
                    ..
                } => popped.push(region_id),
                EventKind::SpanBegin {
                    span: Span::Commit { region_id },
                    ..
                } => {
                    if committed.is_empty() {
                        popped_before_first_commit = popped.len();
                    }
                    committed.push(region_id);
                }
                _ => {}
            }
        }
        assert!(committed.len() > window);
        assert_eq!(committed, popped, "commit order must equal pop order");
        assert_eq!(
            popped_before_first_commit, window,
            "the window must fill before the first commit"
        );
        assert_eq!(
            committed.len(),
            stats.regions_processed + stats.regions_computed_dead
        );
    }

    /// A tuple committed into a grid position no unresolved region blocks
    /// would never be emitted — its cell is released, or would be built
    /// past its release: the committer refuses it.
    #[test]
    #[should_panic(expected = "landed in released grid position")]
    fn committing_into_a_released_position_panics() {
        use crate::output_grid::MAX_DIMS;
        use progxe_skyline::PointStore;
        let r = random_source(120, 2, 3, 21);
        let t = random_source(120, 2, 3, 22);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let prep = ProgXe::new(ProgXeConfig::default().with_input_partitions(2))
            .prepare(&r.view(), &t.view(), &maps, CancellationToken::new())
            .unwrap();
        let mut committer = prep.committer.expect("a non-trivial run");
        let mut stats = ExecStats::default();
        let empty = |rid| RegionBatch {
            rid,
            ids: Vec::new(),
            points: PointStore::new(2),
            stats: TupleLevelStats::default(),
            completed: true,
            compute_time: Duration::ZERO,
        };
        let mut rids = Vec::new();
        while let Popped::Region(rid) = committer.pop_gated(None) {
            rids.push(rid);
        }
        let last = rids.pop().expect("at least two regions");
        for rid in rids {
            committer.commit_batch(empty(rid), &mut stats);
        }
        // Only `last` is unresolved, and its upper box misses the origin.
        assert_ne!(committer.regions[last as usize].cell_lo[..2], [0, 0]);
        let origin = committer.store.grid().lower_corner(&[0; MAX_DIMS]);
        let mut stray = empty(last);
        stray.ids.push((0, 0));
        stray.points.push(&origin);
        committer.commit_batch(stray, &mut stats);
    }

    #[test]
    fn inline_prefilter_prunes_and_counts() {
        // Anti-correlated-ish duplicates in one region: the inline backend
        // must report pre-filter work in the stats.
        let r = random_source(300, 2, 2, 5);
        let t = random_source(300, 2, 2, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let token = CancellationToken::new();
        let prep = ProgXe::new(ProgXeConfig::default())
            .prepare(&r.view(), &t.view(), &maps, token.clone())
            .unwrap();
        let driver = RegionDriver::new(prep, token.clone(), ExecutorBackend::Inline);
        let mut session = QuerySession::stepped("test", token, driver);
        while session.next_batch().is_some() {}
        let stats = session.finish();
        assert!(
            stats.tuples_prefiltered > 0,
            "local pre-filter should prune on dense regions"
        );
    }
}
