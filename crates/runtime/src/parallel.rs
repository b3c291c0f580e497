//! The parallel ProgXe engine: the pooled instantiation of the core's
//! unified region driver.
//!
//! ## Architecture
//!
//! [`ParallelProgXe`] reuses the whole pipeline front end
//! ([`ProgXe::prepare`]): validation, push-through, grid construction,
//! output-space look-ahead, and the region schedule. The region loop itself
//! is **not** implemented here — it lives exactly once, in
//! [`progxe_core::driver::RegionDriver`]; this crate merely supplies the
//! [`Pooled`](progxe_core::driver::ExecutorBackend::Pooled) backend: a
//! handle to the engine's shared [`EngineRuntime`] pool.
//!
//! ```text
//!           ┌─ pop ──▶ worker: ctx.compute(rid)  ─┐   (any thread, any order)
//! schedule ─┼─ pop ──▶ worker: ctx.compute(rid)  ─┼─▶ reorder buffer
//!           └─ pop ──▶ worker: ctx.compute(rid)  ─┘        │
//!                                                          ▼  oldest-first
//!                                       committer: insert + resolve + emit
//! ```
//!
//! The driver pops regions from the schedule into a bounded dispatch
//! window (`2 × threads`), hands each to the shared pool as a pure work
//! unit, and then **commits strictly in pop order**, blocking on the oldest
//! outstanding batch. Because every pop and every commit happens at a
//! deterministic point of that loop — never "whichever worker finished
//! first" — the emitted event sequence is a pure function of the query and
//! its configuration, independent of worker interleaving or machine load.
//!
//! Each unit also carries the cell store's admitted-tuple slab as it stood
//! when the unit was dispatched (an `Arc<[f64]>`, re-cloned only when the
//! slab grew) and drops every tuple the slab dominates before delivering
//! its batch: rejection — most of the old commit cost — runs on the
//! workers, and the serial committer only inserts what can still be
//! admitted. The snapshot is taken on the committer thread, so it too is a
//! function of the pop/commit sequence alone.
//!
//! ## Why safety is preserved
//!
//! Algorithm 2's guarantee ("emit a cell only when no unresolved region can
//! still place a tuple into a dominating cell") only cares that a region is
//! *resolved after its tuples are in the store*. Workers never touch the
//! store; the committer inserts a region's batch and resolves it in one
//! step, exactly like the inline backend — in-flight regions simply stay
//! unresolved, keeping their blocker counts up, so nothing they could still
//! produce is ever contradicted by an early emission. Dispatch order
//! deviating from sequential ProgOrder only shifts the *rate* optimization
//! (Section IV), never correctness, as the paper's No-Order variation
//! already establishes.
//!
//! ## Pool lifecycle
//!
//! Sessions **never construct a pool**: they borrow the engine's
//! [`EngineRuntime`], which lazily spawns one long-lived
//! [`ThreadPool`](crate::ThreadPool) on the first session and shares it
//! with every subsequent one — per-query spawn/join latency is paid once per engine,
//! not once per query. Cancellation: workers check the shared token inside
//! the probe loop and return partial batches flagged `completed = false`;
//! the committer never commits those, so a cancelled query cannot emit a
//! false positive, and its leftover jobs vacate the shared pool at their
//! first token check.

use crate::runtime::EngineRuntime;
use progxe_core::config::ProgXeConfig;
use progxe_core::driver::{ExecutorBackend, RegionDriver, TaskSpawner};
use progxe_core::error::Result;
use progxe_core::executor::ProgXe;
use progxe_core::ingest::{IngestSession, StreamSpec};
use progxe_core::mapping::MapSet;
use progxe_core::session::{CancellationToken, ProgressiveEngine, QuerySession};
use progxe_core::source::SourceView;
use progxe_obs::Recorder;
use std::sync::Arc;

/// A [`ProgressiveEngine`] that runs ProgXe's tuple-level phase on
/// [`ProgXeConfig::threads`] shared worker threads with ordered progressive
/// commit. With `threads = 1` it still works (one worker + committer) but
/// [`ProgXe`] itself is the better choice — the query layer dispatches
/// accordingly.
///
/// Cloning shares the [`EngineRuntime`]: clones and their sessions all use
/// the same pool.
#[derive(Debug, Clone)]
pub struct ParallelProgXe {
    config: ProgXeConfig,
    runtime: Arc<EngineRuntime>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl ParallelProgXe {
    /// Creates a parallel executor with the given configuration and a
    /// fresh (lazily-spawned) runtime sized to `config.threads`.
    #[must_use]
    pub fn new(config: ProgXeConfig) -> Self {
        let threads = config.threads.get();
        Self {
            config,
            runtime: Arc::new(EngineRuntime::new(threads)),
            recorder: None,
        }
    }

    /// Creates a parallel executor borrowing an existing shared runtime —
    /// the query layer uses this so every engine clone and every session
    /// of one query-layer `Engine` description reuses one pool.
    #[must_use]
    pub fn with_runtime(config: ProgXeConfig, runtime: Arc<EngineRuntime>) -> Self {
        Self {
            config,
            runtime,
            recorder: None,
        }
    }

    /// Attaches a trace [`Recorder`]; every session opened afterwards
    /// emits span/point/counter events into it (see `progxe_obs`).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) taking an optional recorder —
    /// `None` leaves tracing off (the zero-cost default).
    #[must_use]
    pub fn with_recorder_opt(mut self, recorder: Option<Arc<dyn Recorder>>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ProgXeConfig {
        &self.config
    }

    /// The shared execution runtime backing this engine's sessions.
    pub fn runtime(&self) -> &Arc<EngineRuntime> {
        &self.runtime
    }

    /// Opens a session sharing a caller-provided cancellation token. The
    /// token stops the committer *and* every in-flight worker.
    pub fn session_with_token<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
        token: CancellationToken,
    ) -> Result<QuerySession<'a>> {
        let mut prep = ProgXe::new(self.config.clone())
            .with_recorder_opt(self.recorder.clone())
            .prepare(r, t, maps, token.clone())?;
        prep.stats.threads_used = self.runtime.threads();
        // Trivial runs (empty input, cancelled setup) must not spawn the
        // lazily-created pool.
        let backend = if prep.committer.is_some() {
            let pool = self.runtime.handle();
            let threads = pool.threads();
            ExecutorBackend::Pooled {
                spawner: pool as Arc<dyn TaskSpawner>,
                threads,
            }
        } else {
            ExecutorBackend::Inline
        };
        let driver = RegionDriver::new(prep, token.clone(), backend);
        Ok(QuerySession::stepped("progxe-mt", token, driver))
    }

    /// Opens a streaming-ingestion session whose region compute runs on
    /// this engine's shared pool. Ingestion (pushes, watermarks, closes)
    /// happens on the caller's thread and overlaps with in-flight region
    /// joins; the readiness-gated schedule keeps emission identical to the
    /// Inline backend (see `progxe_core::ingest`).
    pub fn open_ingest(
        &self,
        maps: &MapSet,
        r_spec: StreamSpec,
        t_spec: StreamSpec,
    ) -> Result<IngestSession> {
        let pool = self.runtime.handle();
        let threads = pool.threads();
        IngestSession::open_observed(
            &self.config,
            maps,
            r_spec,
            t_spec,
            ExecutorBackend::Pooled {
                spawner: pool as Arc<dyn TaskSpawner>,
                threads,
            },
            CancellationToken::new(),
            self.recorder.clone(),
        )
    }
}

impl ProgressiveEngine for ParallelProgXe {
    fn name(&self) -> &'static str {
        "progxe-mt"
    }

    fn open<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<QuerySession<'a>> {
        self.session_with_token(r, t, maps, CancellationToken::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progxe_core::source::SourceData;
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

    fn sorted_ids(results: &[progxe_core::stats::ResultTuple]) -> Vec<(u32, u32)> {
        let mut ids: Vec<(u32, u32)> = results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let r = random_source(300, 2, 6, 1);
        let t = random_source(300, 2, 6, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let seq = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        let par = ParallelProgXe::new(ProgXeConfig::default().with_threads(4))
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        assert_eq!(sorted_ids(&seq.results), sorted_ids(&par.results));
        assert_eq!(par.stats.threads_used, 4);
        assert!(!par.stats.cancelled);
        assert_eq!(seq.stats.results_emitted, par.stats.results_emitted);
    }

    #[test]
    fn parallel_run_is_self_deterministic() {
        // Same query twice: identical event-by-event output, including
        // batch boundaries — worker interleaving must not leak through.
        let r = random_source(250, 2, 5, 3);
        let t = random_source(250, 2, 5, 4);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(4));
        let run = || {
            let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
            let mut batches = Vec::new();
            while let Some(event) = session.next_batch() {
                assert!(event.proven_final);
                batches.push(event.tuples);
            }
            batches
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sessions_share_one_pool() {
        let r = random_source(200, 2, 5, 30);
        let t = random_source(200, 2, 5, 31);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(3));
        assert_eq!(engine.runtime().pools_spawned(), 0, "runtime is lazy");
        let a = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let b = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert_eq!(sorted_ids(&a.results), sorted_ids(&b.results));
        assert_eq!(
            engine.runtime().pools_spawned(),
            1,
            "both sessions must reuse the engine's pool"
        );
    }

    #[test]
    fn dropping_the_engine_shuts_the_pool_down() {
        let r = random_source(150, 2, 5, 40);
        let t = random_source(150, 2, 5, 41);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(2));
        let _ = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let watch = engine.runtime().pool_watch().expect("pool spawned");
        drop(engine);
        assert!(
            watch.upgrade().is_none(),
            "engine drop must join the shared pool's workers"
        );
    }

    #[test]
    fn parallel_take_k_cancels_workers() {
        let r = random_source(400, 2, 4, 5);
        let t = random_source(400, 2, 4, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(4));
        let full = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(full.results.len() >= 3);
        let partial = engine.open(&r.view(), &t.view(), &maps).unwrap().take(2);
        assert_eq!(partial.results.len(), 2);
        assert_eq!(&full.results[..2], &partial.results[..]);
        assert!(partial.stats.cancelled);
        assert!(partial.stats.regions_skipped > 0);
    }

    #[test]
    fn finish_without_explicit_cancel_stops_inflight_workers() {
        let r = random_source(400, 2, 4, 20);
        let t = random_source(400, 2, 4, 21);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(4));
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        assert!(session.next_batch().is_some());
        // No cancel() call: finish() itself must skip the remaining work
        // (firing the token for in-flight workers) rather than await it.
        let stats = session.finish();
        assert!(stats.cancelled);
        assert!(stats.regions_skipped > 0);
    }

    #[test]
    fn pre_cancelled_parallel_session_does_nothing() {
        let r = random_source(100, 2, 5, 7);
        let t = random_source(100, 2, 5, 8);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(2));
        let token = CancellationToken::new();
        token.cancel();
        let mut session = engine
            .session_with_token(&r.view(), &t.view(), &maps, token)
            .unwrap();
        assert!(session.next_batch().is_none());
        let stats = session.finish();
        assert!(stats.cancelled);
        assert_eq!(stats.regions_processed, 0);
        assert!(
            !engine.runtime().is_running(),
            "a trivial session must not spawn the pool"
        );
    }

    #[test]
    fn empty_inputs_are_trivial() {
        let r = SourceData::new(2);
        let t = random_source(10, 2, 2, 9);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(4));
        let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(out.results.is_empty());
        assert!(!out.stats.cancelled);
        assert!(!engine.runtime().is_running());
    }

    #[test]
    #[should_panic(expected = "progxe worker panicked while computing region")]
    fn worker_panic_propagates_instead_of_masquerading_as_cancel() {
        use progxe_core::mapping::{GeneralMap, MappingFunction};
        let r = random_source(50, 1, 1, 12);
        let t = random_source(50, 1, 1, 13);
        let exploding = GeneralMap::new(
            "exploding",
            |_r: &[f64], _t: &[f64]| panic!("user mapping function failed"),
            |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
                (r_lo[0] + t_lo[0], r_hi[0] + t_hi[0])
            },
        );
        let maps = MapSet::new(
            vec![Box::new(exploding) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap();
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(2));
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        while session.next_batch().is_some() {}
    }

    #[test]
    fn pool_survives_a_query_with_panicking_maps() {
        use progxe_core::mapping::{GeneralMap, MappingFunction};
        let r = random_source(50, 1, 1, 14);
        let t = random_source(50, 1, 1, 15);
        let exploding = GeneralMap::new(
            "exploding",
            |_r: &[f64], _t: &[f64]| panic!("user mapping function failed"),
            |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
                (r_lo[0] + t_lo[0], r_hi[0] + t_hi[0])
            },
        );
        let maps = MapSet::new(
            vec![Box::new(exploding) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap();
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(2));
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
            while session.next_batch().is_some() {}
        }));
        assert!(failed.is_err(), "the failing query must propagate");
        // The *shared* pool must still serve healthy queries afterwards.
        let good = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let out = engine.run_collect(&r.view(), &t.view(), &good).unwrap();
        assert!(!out.stats.cancelled);
        assert_eq!(engine.runtime().pools_spawned(), 1);
    }

    #[test]
    fn pooled_ingest_matches_inline_ingest_event_for_event() {
        use progxe_core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
        let rows_r = random_source(200, 2, 5, 50);
        let rows_t = random_source(200, 2, 5, 51);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let spec = || StreamSpec::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();

        let run = |mut session: IngestSession| -> Vec<Vec<(u32, u32)>> {
            let mut batches: Vec<Vec<(u32, u32)>> = Vec::new();
            for (side, src) in [(SourceId::R, &rows_r), (SourceId::T, &rows_t)] {
                // Trickled in four batches to exercise mid-ingest polls.
                for chunk in 0..4 {
                    let lo = chunk * 50;
                    let rows: Vec<(&[f64], u32)> = (lo..lo + 50)
                        .map(|i| (src.view().attrs_of(i), src.view().join_key_of(i)))
                        .collect();
                    session.push(side, &rows).unwrap();
                    while let IngestPoll::Batch(e) = session.poll() {
                        batches.push(e.tuples.iter().map(|t| (t.r_idx, t.t_idx)).collect());
                    }
                }
                session.close(side);
            }
            loop {
                match session.poll() {
                    IngestPoll::Batch(e) => {
                        batches.push(e.tuples.iter().map(|t| (t.r_idx, t.t_idx)).collect())
                    }
                    IngestPoll::NeedInput => panic!("closed session cannot need input"),
                    IngestPoll::Complete => break,
                }
            }
            let stats = session.finish();
            assert!(!stats.cancelled);
            assert_eq!(stats.tuples_ingested, 400);
            batches
        };

        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(3));
        let pooled = run(engine.open_ingest(&maps, spec(), spec()).unwrap());
        assert_eq!(engine.runtime().pools_spawned(), 1);
        let inline = IngestSession::open(&ProgXeConfig::default(), &maps, spec(), spec()).unwrap();
        // The readiness-gated schedule serializes the dispatch window, so
        // pooled and inline agree batch-for-batch — not just as sets.
        // (Only events after close are compared here; both paths drain
        // mid-ingest identically by the same argument.)
        assert_eq!(run(inline), pooled);
        assert!(!pooled.is_empty());
    }

    #[test]
    fn parallel_works_across_orderings() {
        use progxe_core::config::OrderingPolicy;
        let r = random_source(200, 2, 5, 10);
        let t = random_source(200, 2, 5, 11);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let reference = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        for ordering in [
            OrderingPolicy::ProgOrder,
            OrderingPolicy::Random { seed: 1 },
            OrderingPolicy::Fifo,
        ] {
            let engine = ParallelProgXe::new(
                ProgXeConfig::default()
                    .with_ordering(ordering)
                    .with_threads(3),
            );
            let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
            assert_eq!(
                sorted_ids(&reference.results),
                sorted_ids(&out.results),
                "{ordering:?}"
            );
        }
    }

    #[test]
    fn dropping_a_session_without_finish_fires_its_token_on_both_backends() {
        // Regression: a dropped (not finished, not cancelled) session left
        // its token unfired unless the driver happened to have in-flight
        // dispatches — so pooled workers of an abandoned session could keep
        // burning shared CPU. Drop must behave like cancel on *every*
        // backend, including mid-stream with nothing in flight.
        let r = random_source(300, 2, 6, 41);
        let t = random_source(300, 2, 6, 42);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        // Inline backend (sequential ProgXe).
        let engine = ProgXe::new(ProgXeConfig::default());
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        let token = session.cancel_token();
        assert!(session.next_batch().is_some(), "mid-stream, not unpulled");
        drop(session);
        assert!(token.is_cancelled(), "inline: drop must fire the token");
        // Pooled backend (shared runtime).
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(3));
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        let token = session.cancel_token();
        assert!(session.next_batch().is_some(), "mid-stream, not unpulled");
        drop(session);
        assert!(token.is_cancelled(), "pooled: drop must fire the token");
        // Pooled ingest session, same contract.
        let spec = || StreamSpec::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let engine = ParallelProgXe::new(ProgXeConfig::default().with_threads(3));
        let session = engine.open_ingest(&maps, spec(), spec()).unwrap();
        let token = session.cancel_token();
        drop(session);
        assert!(token.is_cancelled(), "ingest: drop must fire the token");
    }

    #[test]
    fn shutdown_under_a_live_session_cancels_instead_of_deadlocking() {
        // Regression: `ThreadPool::execute` after shutdown used to enqueue
        // into queues no worker would ever drain again (release builds
        // compiled the debug_assert away), so the committer blocked forever
        // in `wait_take` on a job that never ran. Pinned behavior: the
        // pool is *closed* by `EngineRuntime::shutdown`, the session's next
        // dispatch gets a typed `SpawnError`, and the run ends as a clean
        // cancellation — never a deadlock, never a silent drop.
        let r = random_source(400, 2, 8, 21);
        let t = random_source(400, 2, 8, 22);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let runtime = std::sync::Arc::new(EngineRuntime::new(2));
        let engine = ParallelProgXe::with_runtime(
            ProgXeConfig::default().with_threads(2),
            std::sync::Arc::clone(&runtime),
        );
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        // Let the first dispatch window land so the session is genuinely
        // mid-flight, then rip the pool out from under it.
        assert!(session.next_batch().is_some(), "workload emits something");
        runtime.shutdown();
        // Draining must terminate (the whole point of the fix)...
        while session.next_batch().is_some() {}
        // ...and the interrupted run must say so.
        let stats = session.finish();
        assert!(
            stats.cancelled,
            "a shutdown racing a live session must surface as a cancelled run"
        );
        // The runtime stays usable: the next session respawns a pool.
        let fresh = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(!fresh.stats.cancelled);
        assert_eq!(runtime.pools_spawned(), 2);
    }
}
