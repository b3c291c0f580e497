//! Pull-based progressive query consumption.
//!
//! The paper's framework pushes results into a sink the moment
//! they are proven final. That is the right *production* discipline but the
//! wrong *consumption* model for a serving layer: callers need to pause,
//! interleave result handling with other work, stop after the first `k`
//! answers, or abandon a query altogether. This module inverts control:
//!
//! * [`ProgressiveEngine`] — the uniform execution interface implemented by
//!   the ProgXe executor *and* every baseline. `open` returns a session;
//!   `run_collect` drains one into a [`RunOutput`].
//! * [`QuerySession`] — a pull-based cursor over a running query.
//!   [`QuerySession::next_batch`] yields [`ResultEvent`]s; [`QuerySession::cancel`]
//!   (or a shared [`CancellationToken`]) stops the executor *inside* its
//!   region loop — remaining regions are skipped, not processed and
//!   discarded; [`QuerySession::take`] returns exactly the first `k` tuples
//!   and terminates early; [`QuerySession::finish`] reports [`ExecStats`].
//!
//! For the truly progressive ProgXe executor the session steps the region
//! loop incrementally (see [`crate::driver::RegionDriver`]). The blocking
//! baselines cannot produce anything before their final (or, for SSMJ,
//! phase-1) skyline pass, so their sessions defer the whole run to the
//! first pull — cancelling an unpulled baseline session costs nothing.

use crate::error::Result;
use crate::executor::{ProgXe, RunOutput};
use crate::mapping::MapSet;
use crate::source::SourceView;
use crate::stats::{ExecStats, ResultTuple};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One batch of results pulled from a [`QuerySession`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEvent {
    /// The tuples of this batch, in emission order.
    pub tuples: Vec<ResultTuple>,
    /// Whether every tuple in the batch is guaranteed to belong to the
    /// final result. True for ProgXe (Principle 1: no false positives) and
    /// for the single final batch of the blocking baselines; false for
    /// SSMJ's phase-1 batch, which mapping functions can later disown
    /// (Section VII).
    pub proven_final: bool,
    /// Estimated fraction of the query completed when the batch was
    /// emitted, in `[0, 1]` (region-resolution progress for ProgXe,
    /// result-count progress for the deferred baselines).
    pub progress_estimate: f64,
    /// Time since the session was opened.
    pub elapsed: Duration,
}

impl ResultEvent {
    /// Whether this event carries no tuples — it exists only to advance
    /// the progress estimate. Progress-only events matter to remote
    /// consumers (the serving layer forwards them so a wire client's
    /// observed progress cannot go stale), but a local collector can skip
    /// them.
    pub fn is_progress_only(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Normalizes the progress estimate against a session high-water mark:
    /// clamped to `[0, 1]`, monotone non-decreasing, with non-finite
    /// estimates degrading to the previous value. Shared by
    /// [`QuerySession::next_batch`] and
    /// [`IngestSession::poll`](crate::ingest::IngestSession::poll) so both
    /// session types keep the same progress contract.
    pub(crate) fn normalize_progress(&mut self, high_water: &mut f64) {
        let p = self.progress_estimate;
        let clamped = if p.is_finite() {
            p.clamp(0.0, 1.0)
        } else {
            *high_water
        };
        *high_water = clamped.max(*high_water);
        self.progress_estimate = *high_water;
    }
}

/// Shareable cancellation flag threaded through the executor's phase loop.
///
/// Cloning yields a handle to the *same* flag, so a consumer (or a timeout
/// watchdog on another thread) can cancel a session it does not own.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken(Arc<AtomicBool>);

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the executor's
    /// next phase or region boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fires a [`CancellationToken`] when dropped.
///
/// Every session type holds one of these so that *dropping* a session —
/// the natural way to abandon a query, and the only way when a serving
/// layer's client vanishes — stops its in-flight pooled workers exactly
/// like an explicit `cancel` would. Firing after a completed run is a
/// harmless store to a flag nothing reads again, so the guard is
/// unconditional; the price is that a token outliving its session always
/// reads cancelled, which is also the honest answer.
#[derive(Debug)]
pub(crate) struct DropCancel(pub(crate) CancellationToken);

impl Drop for DropCancel {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// An incrementally stepped query execution that a [`QuerySession`] can
/// drive. The sequential ProgXe pipeline implements this, and so does the
/// parallel driver in the `progxe-runtime` crate — which is exactly why the
/// trait is public: external execution strategies plug into the same
/// session contract through [`QuerySession::stepped`].
pub trait SessionStep {
    /// Produces the next result event, advancing execution as needed.
    /// Returns `None` once the query has completed or was cancelled.
    fn next_event(&mut self) -> Option<ResultEvent>;

    /// A snapshot of the statistics accumulated so far (mid-run safe).
    fn stats_snapshot(&self) -> ExecStats;

    /// Consumes the stepper and returns final statistics. Implementations
    /// must flag [`ExecStats::cancelled`] when work was left undone.
    fn finalize(self: Box<Self>) -> ExecStats;
}

/// The uniform execution interface: one implementation per engine
/// (ProgXe and each baseline), one consumption model for all of them.
pub trait ProgressiveEngine {
    /// Short engine name for diagnostics and harness output.
    fn name(&self) -> &'static str;

    /// Opens a pull-based session over the query. Inputs are validated and
    /// any pre-processing the engine front-loads (for ProgXe: push-through,
    /// grid construction, output-space look-ahead) happens here; tuple
    /// work is driven by [`QuerySession::next_batch`].
    fn open<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<QuerySession<'a>>;

    /// Runs to completion and collects all results in emission order.
    fn run_collect<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<RunOutput> {
        Ok(self.open(r, t, maps)?.collect())
    }
}

/// A deferred engine run: executes on first pull, returning every batch it
/// will ever produce plus final statistics.
type DeferredRun<'a> = Box<dyn FnOnce() -> (Vec<ResultEvent>, ExecStats) + 'a>;

/// State of a deferred (blocking-engine) session.
struct DeferredState<'a> {
    run: Option<DeferredRun<'a>>,
    queue: VecDeque<ResultEvent>,
    stats: Option<ExecStats>,
}

enum SessionInner<'a> {
    /// Incrementally stepped execution (the unified
    /// [`RegionDriver`](crate::driver::RegionDriver), or any external
    /// [`SessionStep`]).
    Stream(Box<dyn SessionStep + 'a>),
    /// Blocking engine: the whole run happens at the first `next_batch`.
    Deferred(Box<DeferredState<'a>>),
}

/// A pull-based cursor over one running query.
///
/// Obtained from [`ProgressiveEngine::open`]. Results arrive through
/// [`next_batch`](Self::next_batch) as they are proven final; the session
/// ends when `next_batch` returns `None` (query complete or cancelled),
/// after which [`finish`](Self::finish) reports the run's [`ExecStats`].
///
/// Dropping a session — with or without calling `finish` — fires its
/// [`CancellationToken`], so in-flight pooled workers stop even when the
/// session is simply abandoned. A consequence: a token clone that outlives
/// its session always reads cancelled.
#[must_use = "a session does no tuple work until it is pulled"]
pub struct QuerySession<'a> {
    engine: &'static str,
    inner: SessionInner<'a>,
    token: CancellationToken,
    /// Per side, the original row id of each engine row id; `None` leaves
    /// that side's ids as the engine reports them.
    remap: (Option<Vec<u32>>, Option<Vec<u32>>),
    emitted: u64,
    /// High-water mark enforcing monotone, `[0, 1]`-clamped progress.
    last_progress: f64,
    /// Fires `token` on drop (`QuerySession` itself must stay `Drop`-free:
    /// `finish` partially moves out of `self`).
    _drop_cancel: DropCancel,
}

impl<'a> QuerySession<'a> {
    /// Wraps a [`SessionStep`] implementation (the core
    /// [`RegionDriver`](crate::driver::RegionDriver) on either backend, or
    /// any external stepper) together with the cancellation token it
    /// watches. The token must be shared with the stepper: `cancel` relies
    /// on it.
    pub fn stepped(
        engine: &'static str,
        token: CancellationToken,
        step: Box<dyn SessionStep + 'a>,
    ) -> Self {
        Self {
            engine,
            inner: SessionInner::Stream(step),
            _drop_cancel: DropCancel(token.clone()),
            token,
            remap: (None, None),
            emitted: 0,
            last_progress: 0.0,
        }
    }

    /// Wraps a blocking engine as a deferred session: `run` executes on the
    /// first [`next_batch`](Self::next_batch) call and returns every batch
    /// of the run (in emission order) plus its final statistics. Engines in
    /// other crates (the baselines) build their sessions through this.
    pub fn deferred<F>(engine: &'static str, run: F) -> Self
    where
        F: FnOnce() -> (Vec<ResultEvent>, ExecStats) + 'a,
    {
        let token = CancellationToken::new();
        Self {
            engine,
            inner: SessionInner::Deferred(Box::new(DeferredState {
                run: Some(Box::new(run)),
                queue: VecDeque::new(),
                stats: None,
            })),
            _drop_cancel: DropCancel(token.clone()),
            token,
            remap: (None, None),
            emitted: 0,
            last_progress: 0.0,
        }
    }

    /// The engine that produced this session.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// A shareable handle to this session's cancellation flag.
    pub fn cancel_token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// Requests cancellation: the executor stops at its next region
    /// boundary and `next_batch` returns `None` from then on.
    pub fn cancel(&mut self) {
        self.token.cancel();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Total tuples delivered so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Translates emitted row ids through the given lookup tables
    /// (`tuple.r_idx = r_rows[tuple.r_idx]`, likewise for `t`); a side given
    /// as `None` is reported untranslated. Used by the query layer to
    /// report ids of the caller's original tables after planning filtered a
    /// source.
    pub fn with_id_translation(
        mut self,
        r_rows: Option<Vec<u32>>,
        t_rows: Option<Vec<u32>>,
    ) -> Self {
        self.remap = (r_rows, t_rows);
        self
    }

    /// Pulls the next batch of proven-final results. Returns `None` once
    /// the query has completed or the session was cancelled.
    ///
    /// [`ResultEvent::progress_estimate`] is normalized here, uniformly for
    /// every engine: clamped to `[0, 1]` and made monotonically
    /// non-decreasing across the batches of one session (non-finite
    /// estimates degrade to the previous value).
    pub fn next_batch(&mut self) -> Option<ResultEvent> {
        if self.token.is_cancelled() {
            return None;
        }
        let mut event = match &mut self.inner {
            SessionInner::Stream(session) => session.next_event()?,
            SessionInner::Deferred(deferred) => {
                if let Some(run) = deferred.run.take() {
                    let (events, run_stats) = run();
                    deferred.queue = events.into();
                    deferred.stats = Some(run_stats);
                }
                deferred.queue.pop_front()?
            }
        };
        if let Some(r_rows) = &self.remap.0 {
            for tuple in &mut event.tuples {
                tuple.r_idx = r_rows[tuple.r_idx as usize];
            }
        }
        if let Some(t_rows) = &self.remap.1 {
            for tuple in &mut event.tuples {
                tuple.t_idx = t_rows[tuple.t_idx as usize];
            }
        }
        event.normalize_progress(&mut self.last_progress);
        self.emitted += event.tuples.len() as u64;
        Some(event)
    }

    /// A snapshot of the statistics accumulated so far, without consuming
    /// the session. For a deferred (blocking) engine that has not run yet,
    /// this is all zeros.
    pub fn stats_snapshot(&self) -> ExecStats {
        match &self.inner {
            SessionInner::Stream(session) => session.stats_snapshot(),
            SessionInner::Deferred(deferred) => deferred.stats.clone().unwrap_or_default(),
        }
    }

    /// Consumes the session and returns its statistics. If the query had
    /// not finished, remaining work is skipped (not silently completed) and
    /// [`ExecStats::cancelled`] is set.
    pub fn finish(self) -> ExecStats {
        match self.inner {
            SessionInner::Stream(session) => session.finalize(),
            SessionInner::Deferred(deferred) => {
                let mut stats = deferred.stats.unwrap_or_default();
                // Never ran, or ran but results were not fully delivered.
                stats.cancelled |= deferred.run.is_some() || !deferred.queue.is_empty();
                stats
            }
        }
    }

    /// Drains the session to completion, collecting all results.
    pub fn collect(mut self) -> RunOutput {
        let mut results = Vec::new();
        while let Some(event) = self.next_batch() {
            results.extend(event.tuples);
        }
        RunOutput {
            results,
            stats: self.finish(),
        }
    }

    /// Pulls until `k` tuples have arrived, then cancels: remaining regions
    /// are never processed. Returns exactly the first `k` emitted tuples
    /// (fewer if the query completes first) plus the partial-run stats.
    pub fn take(mut self, k: usize) -> RunOutput {
        let mut results = Vec::with_capacity(k);
        while results.len() < k {
            let Some(event) = self.next_batch() else {
                break;
            };
            results.extend(event.tuples);
        }
        results.truncate(k);
        self.cancel();
        RunOutput {
            results,
            stats: self.finish(),
        }
    }
}

impl std::fmt::Debug for QuerySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySession")
            .field("engine", &self.engine)
            .field("emitted", &self.emitted)
            .field("cancelled", &self.token.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl ProgressiveEngine for ProgXe {
    fn name(&self) -> &'static str {
        "progxe"
    }

    fn open<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<QuerySession<'a>> {
        self.session(r, t, maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(r: u32) -> ResultTuple {
        ResultTuple {
            r_idx: r,
            t_idx: r,
            values: vec![f64::from(r)],
        }
    }

    fn two_batch_session<'a>() -> QuerySession<'a> {
        QuerySession::deferred("test", || {
            let events = vec![
                ResultEvent {
                    tuples: vec![tuple(0), tuple(1)],
                    proven_final: false,
                    progress_estimate: 0.5,
                    elapsed: Duration::from_millis(1),
                },
                ResultEvent {
                    tuples: vec![tuple(2)],
                    proven_final: true,
                    progress_estimate: 1.0,
                    elapsed: Duration::from_millis(2),
                },
            ];
            let stats = ExecStats {
                results_emitted: 3,
                ..ExecStats::default()
            };
            (events, stats)
        })
    }

    #[test]
    fn deferred_session_delivers_all_batches() {
        let mut s = two_batch_session();
        let first = s.next_batch().unwrap();
        assert_eq!(first.tuples.len(), 2);
        assert!(!first.proven_final);
        let second = s.next_batch().unwrap();
        assert_eq!(second.tuples.len(), 1);
        assert!(second.proven_final);
        assert!(s.next_batch().is_none());
        assert_eq!(s.emitted(), 3);
        let stats = s.finish();
        assert!(!stats.cancelled);
        assert_eq!(stats.results_emitted, 3);
    }

    #[test]
    fn cancel_before_first_pull_skips_the_run() {
        let mut s = QuerySession::deferred("test", || {
            panic!("deferred run must not execute after cancellation");
        });
        s.cancel();
        assert!(s.next_batch().is_none());
        assert!(s.finish().cancelled);
    }

    #[test]
    fn cancel_mid_stream_stops_delivery() {
        let mut s = two_batch_session();
        assert!(s.next_batch().is_some());
        s.cancel();
        assert!(s.next_batch().is_none());
        assert!(s.finish().cancelled);
    }

    #[test]
    fn take_truncates_to_exactly_k() {
        let out = two_batch_session().take(1);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].r_idx, 0);
        assert!(out.stats.cancelled, "undelivered batch marks cancellation");
    }

    #[test]
    fn take_more_than_available_returns_everything() {
        let out = two_batch_session().take(10);
        assert_eq!(out.results.len(), 3);
        assert!(!out.stats.cancelled);
    }

    #[test]
    fn id_translation_applies_to_events() {
        let mut s =
            two_batch_session().with_id_translation(Some(vec![10, 11, 12]), Some(vec![20, 21, 22]));
        let first = s.next_batch().unwrap();
        assert_eq!(first.tuples[0].r_idx, 10);
        assert_eq!(first.tuples[0].t_idx, 20);
        assert_eq!(first.tuples[1].r_idx, 11);
    }

    #[test]
    fn id_translation_leaves_an_unfiltered_side_alone() {
        let plain = two_batch_session().next_batch().unwrap();
        let mut s = two_batch_session().with_id_translation(None, Some(vec![20, 21, 22]));
        let first = s.next_batch().unwrap();
        for (got, raw) in first.tuples.iter().zip(&plain.tuples) {
            assert_eq!(got.r_idx, raw.r_idx);
            assert_eq!(got.t_idx, 20 + raw.t_idx);
        }
    }

    #[test]
    fn token_is_shared_across_clones() {
        let s = two_batch_session();
        let token = s.cancel_token();
        token.cancel();
        assert!(s.is_cancelled());
    }

    #[test]
    fn dropping_a_session_without_finish_fires_its_token() {
        // Regression: abandoning a session (no `finish`, no `cancel`) must
        // cancel it — a serving layer drops sessions when clients vanish,
        // and in-flight pooled workers watch this token.
        let mut s = two_batch_session();
        let token = s.cancel_token();
        assert!(s.next_batch().is_some(), "mid-stream, not unpulled");
        drop(s);
        assert!(token.is_cancelled(), "drop must fire the token");
    }
}
