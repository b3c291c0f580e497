//! Shared helpers for the integration suites. Each test binary compiles
//! this module independently and uses a subset of it.
#![allow(dead_code)]

pub mod oracle;

use progxe::core::driver::{ExecutorBackend, RegionDriver, TaskSpawner};
use progxe::core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
use progxe::core::prelude::*;
use progxe::datagen::SmjWorkload;
use progxe::obs::{EventKind, Recorder, RingRecorder, Span};
use progxe::runtime::EngineRuntime;
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

/// The region driver's backend for `threads` workers: `Inline` for 1, else
/// `Pooled` over `runtime`'s shared pool.
pub fn backend(runtime: &EngineRuntime, threads: usize) -> ExecutorBackend {
    if threads <= 1 {
        return ExecutorBackend::Inline;
    }
    let pool = runtime.handle();
    ExecutorBackend::Pooled {
        threads: pool.threads(),
        spawner: pool as Arc<dyn TaskSpawner>,
    }
}

/// Runs a closed-relation query straight through the region driver and
/// returns its full event stream and stats. `snapshot_filter = false`
/// selects the reference arrangement (no upstream rejection against the
/// admitted slab).
pub fn batch_stream(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    backend: ExecutorBackend,
    snapshot_filter: bool,
) -> (Stream, ExecStats) {
    traced_batch_stream(config, w, maps, backend, snapshot_filter, None)
}

/// [`batch_stream`] under a recorder, additionally returning the region
/// commit order: the `region_id` of every `commit` span, in trace order.
pub fn batch_stream_commits(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    backend: ExecutorBackend,
    snapshot_filter: bool,
) -> (Stream, ExecStats, Vec<u64>) {
    let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
    let (stream, stats) = traced_batch_stream(
        config,
        w,
        maps,
        backend,
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

fn traced_batch_stream(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    backend: ExecutorBackend,
    snapshot_filter: bool,
    ring: Option<Arc<RingRecorder>>,
) -> (Stream, ExecStats) {
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
    let token = CancellationToken::new();
    let prep = ProgXe::new(config.clone())
        .with_recorder_opt(ring.map(|ring| ring as Arc<dyn Recorder>))
        .prepare(&r, &t, maps, token.clone())
        .expect("valid configuration");
    let mut driver = RegionDriver::new(prep, token.clone(), backend);
    if !snapshot_filter {
        driver = driver.without_snapshot_filter();
    }
    let mut session = QuerySession::stepped("kit", token, driver);
    let mut stream = Stream::new();
    while let Some(event) = session.next_batch() {
        assert!(event.proven_final);
        stream.push(event_key(&event));
    }
    let stats = session.finish();
    assert!(!stats.cancelled);
    (stream, stats)
}

/// Runs the same workload as a streaming-ingestion session: rows arrive in
/// `chunks` slices per source (R and T interleaved, a drain after every
/// push), then both sources close. Row ids are relation positions, so the
/// result ids are comparable with [`batch_stream`]'s.
pub fn ingest_stream(
    config: &ProgXeConfig,
    w: &SmjWorkload,
    maps: &MapSet,
    spec: &StreamSpec,
    backend: ExecutorBackend,
    snapshot_filter: bool,
    chunks: usize,
) -> (Stream, ExecStats) {
    let mut session = IngestSession::open_observed(
        config,
        maps,
        spec.clone(),
        spec.clone(),
        backend,
        CancellationToken::new(),
        None,
    )
    .expect("valid configuration");
    if !snapshot_filter {
        session = session.without_snapshot_filter();
    }
    let mut stream = Stream::new();
    let drain = |session: &mut IngestSession, stream: &mut Stream| {
        while let IngestPoll::Batch(event) = session.poll() {
            stream.push(event_key(&event));
        }
    };
    let step = w.r.len().max(w.t.len()).div_ceil(chunks.max(1));
    for lo in (0..w.r.len().max(w.t.len())).step_by(step.max(1)) {
        for (side, rel) in [(SourceId::R, &w.r), (SourceId::T, &w.t)] {
            let rows: Vec<(u32, &[f64], u32)> = (lo..(lo + step).min(rel.len()))
                .map(|i| (i as u32, rel.attrs_of(i), rel.join_key_of(i)))
                .collect();
            session.push_with_ids(side, &rows).expect("rows in bounds");
            drain(&mut session, &mut stream);
        }
    }
    session.close(SourceId::R);
    session.close(SourceId::T);
    drain(&mut session, &mut stream);
    let stats = session.finish();
    assert!(!stats.cancelled);
    (stream, stats)
}
