//! Shared helpers for the integration suites. Each test binary compiles
//! this module independently and uses a subset of it.
#![allow(dead_code)]

pub mod oracle;

use progxe::core::driver::{ExecutorBackend, RegionDriver, TaskSpawner};
use progxe::core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
use progxe::core::prelude::*;
use progxe::datagen::SmjWorkload;
use progxe::obs::{EventKind, Recorder, RingRecorder, Span};
use std::sync::Arc;

/// A bit-exact emission transcript: one inner vec per [`ResultEvent`],
/// each tuple as `(r_idx, t_idx, value bit patterns)` — ids, values, order
/// and batch boundaries all compare.
pub type Stream = Vec<Vec<(u32, u32, Vec<u64>)>>;

/// One event of a [`Stream`].
pub fn event_key(event: &ResultEvent) -> Vec<(u32, u32, Vec<u64>)> {
    event
        .tuples
        .iter()
        .map(|x| {
            (
                x.r_idx,
                x.t_idx,
                x.values.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// The backend `engine` runs its regions on: `Inline` at one thread, else
/// `Pooled` on its shared pool. Built by hand because [`batch_stream`]
/// drives the region loop itself, to reach the reference arrangement.
fn backend(engine: &ProgXe) -> ExecutorBackend {
    let threads = engine.config().threads.get();
    if threads == 1 {
        return ExecutorBackend::Inline;
    }
    ExecutorBackend::Pooled {
        threads,
        spawner: engine.runtime().handle() as Arc<dyn TaskSpawner>,
    }
}

/// Runs a closed-relation query on `threads` workers straight through the
/// region driver and returns its full event stream and stats.
/// `snapshot_filter = false` selects the reference arrangement (no
/// upstream rejection against the admitted slab).
pub fn batch_stream(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    threads: usize,
    snapshot_filter: bool,
) -> (Stream, ExecStats) {
    traced_batch_stream(config, w, maps, threads, snapshot_filter, None)
}

/// [`batch_stream`] under a recorder, additionally returning the region
/// commit order: the `region_id` of every `commit` span, in trace order.
pub fn batch_stream_commits(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    threads: usize,
    snapshot_filter: bool,
) -> (Stream, ExecStats, Vec<u64>) {
    let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
    let (stream, stats) = traced_batch_stream(
        config,
        w,
        maps,
        threads,
        snapshot_filter,
        Some(ring.clone()),
    );
    assert_eq!(ring.dropped(), 0, "ring too small for the run");
    let commits = ring
        .drain()
        .into_iter()
        .filter_map(|event| match event.kind {
            EventKind::SpanBegin {
                span: Span::Commit { region_id },
                ..
            } => Some(region_id),
            _ => None,
        })
        .collect();
    (stream, stats, commits)
}

/// [`batch_stream`] under an optional recorder.
pub fn traced_batch_stream(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    threads: usize,
    snapshot_filter: bool,
    ring: Option<Arc<RingRecorder>>,
) -> (Stream, ExecStats) {
    let (events, stats) = batch_events(config, w, maps, threads, snapshot_filter, ring);
    (events.iter().map(event_key).collect(), stats)
}

/// The events of [`traced_batch_stream`] themselves, progress estimates
/// included.
pub fn batch_events(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    threads: usize,
    snapshot_filter: bool,
    ring: Option<Arc<RingRecorder>>,
) -> (Vec<ResultEvent>, ExecStats) {
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
    let token = CancellationToken::new();
    let engine = ProgXe::new(config.clone().with_threads(threads))
        .with_recorder_opt(ring.map(|ring| ring as Arc<dyn Recorder>));
    let prep = engine
        .prepare(&r, &t, maps, token.clone())
        .expect("valid configuration");
    let mut driver = RegionDriver::new(prep, token.clone(), backend(&engine));
    if !snapshot_filter {
        driver = driver.without_snapshot_filter();
    }
    let mut session = QuerySession::stepped("kit", token, driver);
    let mut events = Vec::new();
    while let Some(event) = session.next_batch() {
        assert!(event.proven_final);
        events.push(event);
    }
    let stats = session.finish();
    assert!(!stats.cancelled);
    (events, stats)
}

/// Runs the same workload as a streaming-ingestion session on `threads`
/// workers: rows arrive in `chunks` slices per source (R and T
/// interleaved, a drain after every push), then both sources close. Row
/// ids are relation positions, so the result ids are comparable with
/// [`batch_stream`]'s.
pub fn ingest_stream(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    spec: &StreamSpec,
    threads: usize,
    snapshot_filter: bool,
    chunks: usize,
) -> (Stream, ExecStats) {
    let (events, stats) = ingest_events(config, w, maps, spec, threads, snapshot_filter, chunks);
    (events.iter().map(event_key).collect(), stats)
}

/// The events of [`ingest_stream`] themselves, progress estimates included.
pub fn ingest_events(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    spec: &StreamSpec,
    threads: usize,
    snapshot_filter: bool,
    chunks: usize,
) -> (Vec<ResultEvent>, ExecStats) {
    let mut session = ProgXe::new(config.clone().with_threads(threads))
        .open_ingest(maps, spec.clone(), spec.clone())
        .expect("valid configuration");
    if !snapshot_filter {
        session = session.without_snapshot_filter();
    }
    let mut events = Vec::new();
    let drain = |session: &mut IngestSession, events: &mut Vec<ResultEvent>| {
        while let IngestPoll::Batch(event) = session.poll() {
            events.push(event);
        }
    };
    let step = w.r.len().max(w.t.len()).div_ceil(chunks.max(1));
    for lo in (0..w.r.len().max(w.t.len())).step_by(step.max(1)) {
        for (side, rel) in [(SourceId::R, &w.r), (SourceId::T, &w.t)] {
            let rows: Vec<(u32, &[f64], u32)> = (lo..(lo + step).min(rel.len()))
                .map(|i| (i as u32, rel.attrs_of(i), rel.join_key_of(i)))
                .collect();
            session.push_with_ids(side, &rows).expect("rows in bounds");
            drain(&mut session, &mut events);
        }
    }
    session.close(SourceId::R);
    session.close(SourceId::T);
    drain(&mut session, &mut events);
    let stats = session.finish();
    assert!(!stats.cancelled);
    (events, stats)
}
