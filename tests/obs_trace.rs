//! Trace well-formedness: the observability subsystem's structural
//! guarantees, fuzzed across workload distributions and seeds on both
//! executor backends.
//!
//! * Every span begun ends exactly once (balanced begin/end, unique ids,
//!   monotone sequence numbers) — on completed *and* cancelled sessions.
//! * Inline and Pooled backends agree on the multiset of `emit` points
//!   (tracing must see the same bit-identical emission the session
//!   contract guarantees).
//! * Streaming sessions record `ingest_batch` spans, `seal` points on
//!   close, and `stall` points while the schedule is input-gated.

use progxe::core::config::ProgXeConfig;
use progxe::core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
use progxe::core::mapping::MapSet;
use progxe::core::prelude::*;
use progxe::datagen::{Distribution, SmjWorkload, WorkloadSpec};
use progxe::obs::{Event, EventKind, Point, Recorder, RingRecorder, Span, SpanId};
use progxe::skyline::Preference;
use std::collections::BTreeMap;
use std::sync::Arc;

const DISTRIBUTIONS: [Distribution; 3] = [
    Distribution::Correlated,
    Distribution::Independent,
    Distribution::AntiCorrelated,
];

fn views(w: &SmjWorkload) -> (SourceView<'_>, SourceView<'_>) {
    (
        SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap(),
        SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap(),
    )
}

fn big_ring() -> Arc<RingRecorder> {
    // Large enough that no test workload can overflow: a dropped event
    // would make the balance check vacuous.
    Arc::new(RingRecorder::with_capacity(1 << 20))
}

/// Asserts the structural invariants every trace must satisfy and returns
/// the number of spans seen.
fn assert_wellformed(events: &[Event], ctx: &str) -> usize {
    let mut last_seq = None;
    let mut open: BTreeMap<SpanId, Span> = BTreeMap::new();
    let mut closed: BTreeMap<SpanId, ()> = BTreeMap::new();
    for event in events {
        if let Some(prev) = last_seq {
            assert!(event.seq > prev, "{ctx}: seq not strictly increasing");
        }
        last_seq = Some(event.seq);
        match &event.kind {
            EventKind::SpanBegin { id, span } => {
                assert!(
                    !closed.contains_key(id),
                    "{ctx}: span id {id} reused after close"
                );
                assert!(
                    open.insert(*id, *span).is_none(),
                    "{ctx}: span id {id} begun twice"
                );
            }
            EventKind::SpanEnd { id } => {
                assert!(
                    open.remove(id).is_some(),
                    "{ctx}: span {id} ended without begin (or twice)"
                );
                closed.insert(*id, ());
            }
            _ => {}
        }
    }
    assert!(
        open.is_empty(),
        "{ctx}: {} spans never closed: {:?}",
        open.len(),
        open.values().map(Span::name).collect::<Vec<_>>()
    );
    closed.len()
}

/// The multiset of `emit` points, sorted for comparison.
fn emit_multiset(events: &[Event]) -> Vec<(u64, u64, bool)> {
    let mut emits: Vec<(u64, u64, bool)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Point(Point::Emit {
                cell,
                n,
                proven_final,
            }) => Some((cell, n, proven_final)),
            _ => None,
        })
        .collect();
    emits.sort_unstable();
    emits
}

fn has_point(events: &[Event], want: &str) -> bool {
    events.iter().any(|e| match &e.kind {
        EventKind::Point(p) => p.name() == want,
        _ => false,
    })
}

#[test]
fn spans_balance_and_backends_agree_on_emission() {
    for dist in DISTRIBUTIONS {
        for seed in [7u64, 4242] {
            let w = WorkloadSpec::new(400, 2, dist, 0.02)
                .with_seed(seed)
                .generate();
            let (r, t) = views(&w);
            let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
            let ctx = format!("{dist:?}/{seed}");

            let inline_ring = big_ring();
            let inline = ProgXe::new(ProgXeConfig::default())
                .with_recorder(inline_ring.clone() as Arc<dyn Recorder>)
                .run_collect(&r, &t, &maps)
                .unwrap();
            assert_eq!(inline_ring.dropped(), 0, "{ctx}: inline ring overflowed");
            let inline_events = inline_ring.drain();
            let spans = assert_wellformed(&inline_events, &format!("{ctx}/inline"));
            assert!(spans > 0, "{ctx}: no spans recorded");

            let pooled_ring = big_ring();
            let engine = ProgXe::new(ProgXeConfig::default().with_threads(4))
                .with_recorder(pooled_ring.clone() as Arc<dyn Recorder>);
            let pooled = engine.run_collect(&r, &t, &maps).unwrap();
            drop(engine); // joins the pool: every worker-side event has landed
            assert_eq!(pooled_ring.dropped(), 0, "{ctx}: pooled ring overflowed");
            let pooled_events = pooled_ring.drain();
            assert_wellformed(&pooled_events, &format!("{ctx}/pooled"));

            let inline_emits = emit_multiset(&inline_events);
            assert_eq!(
                inline_emits,
                emit_multiset(&pooled_events),
                "{ctx}: backends disagree on emit events"
            );
            let traced: u64 = inline_emits.iter().map(|&(_, n, _)| n).sum();
            assert_eq!(
                traced, inline.stats.results_emitted,
                "{ctx}: emit points must account for every result"
            );
            assert_eq!(inline.stats.results_emitted, pooled.stats.results_emitted);
            assert!(
                inline_emits.iter().all(|&(_, _, f)| f),
                "{ctx}: ProgXe emitted a non-final batch"
            );
        }
    }
}

#[test]
fn cancelled_sessions_close_every_span() {
    for dist in DISTRIBUTIONS {
        for seed in [11u64, 23] {
            let w = WorkloadSpec::new(500, 2, dist, 0.05)
                .with_seed(seed)
                .generate();
            let (r, t) = views(&w);
            let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));

            for backend in ["inline", "pooled"] {
                let ctx = format!("{dist:?}/{seed}/{backend}/cancelled");
                let ring = big_ring();
                let pooled_engine = (backend == "pooled").then(|| {
                    ProgXe::new(ProgXeConfig::default().with_threads(4))
                        .with_recorder(ring.clone() as Arc<dyn Recorder>)
                });
                let out = match &pooled_engine {
                    Some(engine) => engine.open(&r, &t, &maps).unwrap().take(1),
                    None => ProgXe::new(ProgXeConfig::default())
                        .with_recorder(ring.clone() as Arc<dyn Recorder>)
                        .open(&r, &t, &maps)
                        .unwrap()
                        .take(1),
                };
                // Joining the pool bounds the wait for in-flight workers'
                // span ends; aborted deliveries close their spans on the
                // unwind path before the guard reports.
                drop(pooled_engine);
                assert_eq!(out.results.len(), 1, "{ctx}: no result before cancel");
                assert!(out.stats.cancelled, "{ctx}: take(1) must cancel");
                assert_eq!(ring.dropped(), 0, "{ctx}: ring overflowed");
                let events = ring.drain();
                assert_wellformed(&events, &ctx);
                assert!(
                    has_point(&events, "cancel"),
                    "{ctx}: no cancel point recorded"
                );
            }
        }
    }
}

#[test]
fn ingest_traces_record_batches_seals_and_stalls() {
    let dims = 2;
    for dist in DISTRIBUTIONS {
        let w = WorkloadSpec::new(240, dims, dist, 0.05)
            .with_seed(99)
            .generate();
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let spec = || StreamSpec::new(vec![1.0; dims], vec![100.0; dims]).unwrap();
        let ctx = format!("{dist:?}/ingest");

        let run = |session: &mut IngestSession| -> (u64, usize) {
            let mut results = 0u64;
            let mut pushes = 0usize;
            for (side, rel) in [(SourceId::R, &w.r), (SourceId::T, &w.t)] {
                for chunk in 0..4 {
                    let lo = chunk * 60;
                    let rows: Vec<(&[f64], u32)> = (lo..lo + 60)
                        .map(|i| (rel.attrs_of(i), rel.join_key_of(i)))
                        .collect();
                    session.push(side, &rows).unwrap();
                    pushes += 1;
                    // Mid-ingest poll: with both sources still open the
                    // schedule is input-gated, so stalls are recorded.
                    while let IngestPoll::Batch(e) = session.poll() {
                        results += e.tuples.len() as u64;
                    }
                }
            }
            session.close(SourceId::R);
            session.close(SourceId::T);
            loop {
                match session.poll() {
                    IngestPoll::Batch(e) => results += e.tuples.len() as u64,
                    IngestPoll::NeedInput => panic!("{ctx}: closed session needs input"),
                    IngestPoll::Complete => break,
                }
            }
            (results, pushes)
        };

        let ring = big_ring();
        let mut session = ProgXe::new(ProgXeConfig::default())
            .with_recorder(ring.clone() as Arc<dyn Recorder>)
            .open_ingest(&maps, spec(), spec())
            .unwrap();
        let (results, pushes) = run(&mut session);
        let stats = session.finish();
        assert!(!stats.cancelled, "{ctx}");
        assert_eq!(ring.dropped(), 0, "{ctx}: ring overflowed");
        let events = ring.drain();
        assert_wellformed(&events, &ctx);

        let batch_spans = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::SpanBegin {
                        span: Span::IngestBatch { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(batch_spans, pushes, "{ctx}: one span per accepted batch");
        assert!(has_point(&events, "seal"), "{ctx}: close never sealed");
        assert!(
            has_point(&events, "stall"),
            "{ctx}: gated polls never stalled"
        );
        let traced: u64 = emit_multiset(&events).iter().map(|&(_, n, _)| n).sum();
        assert_eq!(traced, results, "{ctx}: emit points vs polled results");
        assert_eq!(results, stats.results_emitted, "{ctx}");
        assert!(
            stats.batch_interarrival.count() as usize >= pushes - 1,
            "{ctx}: inter-arrival histogram missing batches"
        );

        // The pooled backend must trace the identical emission.
        let pooled_ring = big_ring();
        let engine = ProgXe::new(ProgXeConfig::default().with_threads(4))
            .with_recorder(pooled_ring.clone() as Arc<dyn Recorder>);
        let mut pooled = engine.open_ingest(&maps, spec(), spec()).unwrap();
        let (pooled_results, _) = run(&mut pooled);
        assert!(!pooled.finish().cancelled, "{ctx}");
        drop(engine);
        assert_eq!(pooled_ring.dropped(), 0, "{ctx}: pooled ring overflowed");
        let pooled_events = pooled_ring.drain();
        assert_wellformed(&pooled_events, &format!("{ctx}/pooled"));
        assert_eq!(pooled_results, results, "{ctx}: backends diverged");
        assert_eq!(
            emit_multiset(&pooled_events),
            emit_multiset(&events),
            "{ctx}: backends disagree on streamed emit events"
        );
    }
}
