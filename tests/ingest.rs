//! Differential arrival-order fuzzing for streaming ingestion.
//!
//! The contract under test (see `progxe_core::ingest`): for a fixed logical
//! input — row ids, attributes, join keys — the streaming engine's emitted
//! event sequence is **identical** for *every* arrival schedule (batch
//! sizes × row orders × watermark cadences × source interleavings) and
//! equal to the all-at-once run, on both the Inline and Pooled backends;
//! and the final result set equals the batch engine's. Along the way every
//! run re-checks the session invariants: progress estimates clamped to
//! `[0, 1]` and monotone, every batch proven-final, and no tuple ever
//! emitted twice (no retraction).

mod common;

use progxe::core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
use progxe::core::prelude::*;
use progxe::datagen::{ArrivalSchedule, ArrivalSpec, Batching, Distribution, WorkloadSpec};
use progxe::runtime::ParallelProgXe;

const N: usize = 120;
const DIMS: usize = 2;

/// Flattened emission transcript: one inner vec per `ResultEvent`.
type Transcript = Vec<Vec<(u32, u32)>>;

fn spec() -> StreamSpec {
    // The generator's declared value range is [1, 100].
    StreamSpec::new(vec![0.0; DIMS], vec![101.0; DIMS]).unwrap()
}

fn open_session(pooled: bool) -> IngestSession {
    let maps = MapSet::pairwise_sum(DIMS, Preference::all_lowest(DIMS));
    let config = ProgXeConfig::default();
    if pooled {
        ParallelProgXe::new(config.with_threads(3))
            .open_ingest(&maps, spec(), spec())
            .unwrap()
    } else {
        IngestSession::open(&config, &maps, spec(), spec()).unwrap()
    }
}

/// Drains deliverable events, checking the session invariants as it goes.
fn drain(
    session: &mut IngestSession,
    transcript: &mut Transcript,
    seen: &mut std::collections::HashSet<(u32, u32)>,
    last_progress: &mut f64,
) {
    while let IngestPoll::Batch(event) = session.poll() {
        assert!(event.proven_final, "every ingest batch is final");
        assert!(
            (0.0..=1.0).contains(&event.progress_estimate),
            "progress clamped"
        );
        assert!(
            event.progress_estimate >= *last_progress,
            "progress monotone across ingest-unlocked batches"
        );
        *last_progress = event.progress_estimate;
        let ids: Vec<(u32, u32)> = event.tuples.iter().map(|t| (t.r_idx, t.t_idx)).collect();
        for &id in &ids {
            assert!(seen.insert(id), "tuple {id:?} emitted twice (retraction)");
        }
        transcript.push(ids);
    }
}

/// Runs one full streaming session following per-source schedules
/// interleaved round-robin, returning the emission transcript.
fn run_schedule(
    w: &progxe::datagen::SmjWorkload,
    r_sched: &ArrivalSchedule,
    t_sched: &ArrivalSchedule,
    pooled: bool,
) -> Transcript {
    let mut session = open_session(pooled);
    let mut transcript = Transcript::new();
    let mut seen = std::collections::HashSet::new();
    let mut progress = 0.0;

    let steps = r_sched.batches.len().max(t_sched.batches.len());
    for i in 0..steps {
        for (side, rel, sched) in [(SourceId::R, &w.r, r_sched), (SourceId::T, &w.t, t_sched)] {
            let Some(batch) = sched.batches.get(i) else {
                continue;
            };
            let rows: Vec<(u32, &[f64], u32)> = batch
                .rows
                .iter()
                .map(|&row| {
                    (
                        row,
                        rel.attrs_of(row as usize),
                        rel.join_key_of(row as usize),
                    )
                })
                .collect();
            session.push_with_ids(side, &rows).unwrap();
            if let Some(wm) = &batch.watermark {
                session.set_watermark(side, wm).unwrap();
            }
            drain(&mut session, &mut transcript, &mut seen, &mut progress);
        }
    }
    session.close(SourceId::R);
    session.close(SourceId::T);
    drain(&mut session, &mut transcript, &mut seen, &mut progress);
    assert!(matches!(session.poll(), IngestPoll::Complete));
    let stats = session.finish();
    assert!(!stats.cancelled, "fully-fed session must complete");
    assert_eq!(stats.tuples_ingested, (w.r.len() + w.t.len()) as u64);
    transcript
}

/// The all-at-once oracle: everything pushed in relation order, then close.
fn oracle(w: &progxe::datagen::SmjWorkload, pooled: bool) -> Transcript {
    let all = |rel: &progxe::datagen::Relation| ArrivalSchedule {
        batches: vec![progxe::datagen::ArrivalBatch {
            rows: (0..rel.len() as u32).collect(),
            watermark: None,
        }],
    };
    run_schedule(w, &all(&w.r), &all(&w.t), pooled)
}

/// The batch engine's result set on the same workload.
fn batch_ids(w: &progxe::datagen::SmjWorkload) -> Vec<(u32, u32)> {
    let maps = MapSet::pairwise_sum(DIMS, Preference::all_lowest(DIMS));
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
    let out = ProgXe::new(ProgXeConfig::default())
        .run_collect(&r, &t, &maps)
        .unwrap();
    let mut ids: Vec<(u32, u32)> = out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
    ids.sort_unstable();
    ids
}

/// The shared brute-force oracle's result set (tests/common/oracle.rs).
fn naive_ids(w: &progxe::datagen::SmjWorkload) -> Vec<(u32, u32)> {
    let maps = MapSet::pairwise_sum(DIMS, Preference::all_lowest(DIMS));
    common::oracle::workload_oracle_ids(w, &maps)
        .into_iter()
        .collect()
}

/// The sampled schedule grid: 3 orders × 3 batchings/cadences = 9 specs.
fn schedule_specs(seed: u64) -> Vec<ArrivalSpec> {
    let mut specs = Vec::new();
    for order_spec in [
        ArrivalSpec::uniform_shuffle(seed, 13),
        ArrivalSpec::attr_sorted(17),
        ArrivalSpec {
            order: progxe::datagen::ArrivalOrder::Original,
            batching: Batching::Fixed(40),
            watermark_every: Some(1),
            seed,
        },
    ] {
        for variant in 0..3 {
            let mut s = order_spec.clone();
            match variant {
                0 => {} // the preset's own batching + per-batch watermarks
                1 => {
                    s.batching = Batching::Bursty {
                        small: 5,
                        large: 45,
                    };
                    s.watermark_every = Some(4);
                }
                _ => {
                    s.batching = Batching::Fixed(29);
                    s.watermark_every = None; // no watermarks at all
                }
            }
            specs.push(s);
        }
    }
    specs
}

/// ≥50 sampled arrival schedules over 3 distributions × 2 seeds, asserting
/// streaming ≡ all-at-once oracle (result set *and* emission order) on the
/// Inline backend.
#[test]
fn arrival_order_fuzz_inline() {
    arrival_order_fuzz(false);
}

/// The same grid through the Pooled backend (shared worker pool).
#[test]
fn arrival_order_fuzz_pooled() {
    arrival_order_fuzz(true);
}

fn arrival_order_fuzz(pooled: bool) {
    let mut schedules_run = 0usize;
    for dist in [
        Distribution::Independent,
        Distribution::Correlated,
        Distribution::AntiCorrelated,
    ] {
        for seed in [11u64, 29] {
            let w = WorkloadSpec::new(N, DIMS, dist, 0.1)
                .with_seed(seed)
                .generate();
            let reference = oracle(&w, pooled);
            assert!(
                reference.iter().map(|b| b.len()).sum::<usize>() > 0,
                "workload produced no results — fuzz would be vacuous"
            );
            // Result-set equality with the *batch engine* and with the
            // shared brute-force oracle.
            let mut flat: Vec<(u32, u32)> = reference.iter().flatten().copied().collect();
            flat.sort_unstable();
            assert_eq!(flat, batch_ids(&w), "{dist:?}/{seed}: oracle vs batch");
            assert_eq!(flat, naive_ids(&w), "{dist:?}/{seed}: oracle vs naive");

            for (si, spec) in schedule_specs(seed).into_iter().enumerate() {
                // R and T follow differently-seeded variants of the same
                // spec so their interleaving is non-trivial.
                let mut t_spec = spec.clone();
                t_spec.seed = spec.seed.wrapping_add(1);
                let r_sched = spec.schedule(&w.r);
                let t_sched = t_spec.schedule(&w.t);
                let transcript = run_schedule(&w, &r_sched, &t_sched, pooled);
                assert_eq!(
                    transcript, reference,
                    "{dist:?}/seed {seed}/schedule {si}: emission diverged from all-at-once"
                );
                schedules_run += 1;
            }
        }
    }
    assert!(
        schedules_run >= 50,
        "fuzz grid shrank below the 50-schedule floor ({schedules_run})"
    );
}

/// `cancel()` during ingestion on a never-closed source stops cleanly —
/// no deadlock, stats flagged cancelled — on both backends.
#[test]
fn cancel_during_ingestion_never_deadlocks() {
    for pooled in [false, true] {
        let w = WorkloadSpec::new(N, DIMS, Distribution::Independent, 0.1)
            .with_seed(5)
            .generate();
        let mut session = open_session(pooled);
        let rows: Vec<(u32, &[f64], u32)> = (0..N / 2)
            .map(|i| (i as u32, w.r.attrs_of(i), w.r.join_key_of(i)))
            .collect();
        session.push_with_ids(SourceId::R, &rows).unwrap();
        // T never receives anything and neither source ever closes.
        assert!(matches!(session.poll(), IngestPoll::NeedInput));
        session.cancel();
        assert!(matches!(session.poll(), IngestPoll::Complete));
        let stats = session.finish();
        assert!(stats.cancelled, "pooled={pooled}");
        assert!(stats.regions_skipped > 0);
        assert_eq!(stats.results_emitted, 0);
    }
}

/// Early results taken mid-ingest are a strict prefix of the full run
/// (take(k)-style consumption), and detaching afterwards cancels cleanly —
/// on both backends.
#[test]
fn take_k_style_early_stop_mid_ingest() {
    // Independent data populates the low output cells, which is what lets
    // the sorted trickle emit before close (anti-correlated data leaves
    // them empty: tuples concentrate along the anti-diagonal, whose cells
    // wait for mid-grid regions that only seal at close).
    let w = WorkloadSpec::new(300, DIMS, Distribution::Independent, 0.1)
        .with_seed(77)
        .generate();
    // Sorted trickle with watermarks so results flow before close.
    let spec_r = ArrivalSpec::trickle(10);
    for pooled in [false, true] {
        let full = {
            let r = spec_r.schedule(&w.r);
            let t = spec_r.schedule(&w.t);
            run_schedule(&w, &r, &t, pooled)
        };
        let full_flat: Vec<(u32, u32)> = full.iter().flatten().copied().collect();
        assert!(full_flat.len() >= 3, "workload too small for the test");

        let mut session = open_session(pooled);
        let r_sched = spec_r.schedule(&w.r);
        let t_sched = spec_r.schedule(&w.t);
        let k = 2;
        let steps = r_sched.batches.len().max(t_sched.batches.len());
        let mut taken: Vec<(u32, u32)> = Vec::new();
        let mut taken_at = None;
        'feed: for i in 0..steps {
            for (side, rel, sched) in [(SourceId::R, &w.r, &r_sched), (SourceId::T, &w.t, &t_sched)]
            {
                let Some(batch) = sched.batches.get(i) else {
                    continue;
                };
                let rows: Vec<(u32, &[f64], u32)> = batch
                    .rows
                    .iter()
                    .map(|&row| {
                        (
                            row,
                            rel.attrs_of(row as usize),
                            rel.join_key_of(row as usize),
                        )
                    })
                    .collect();
                session.push_with_ids(side, &rows).unwrap();
                if let Some(wm) = &batch.watermark {
                    session.set_watermark(side, wm).unwrap();
                }
                while taken.len() < k {
                    match session.poll() {
                        IngestPoll::Batch(e) => {
                            taken.extend(e.tuples.iter().map(|t| (t.r_idx, t.t_idx)))
                        }
                        _ => break,
                    }
                }
                if taken.len() >= k {
                    taken_at = Some(i);
                    break 'feed;
                }
            }
        }
        // "Early" means before the last batch arrives: an engine that held
        // every result until all rows were in would reach k only at the
        // final step.
        let taken_at = taken_at.unwrap_or(steps);
        assert!(
            taken_at + 1 < steps,
            "pooled={pooled}: watermarked trickle must emit before full arrival, \
             but the first {k} results came at step {taken_at} of {steps}"
        );
        session.cancel();
        let stats = session.finish();
        assert!(stats.cancelled);
        // Prefix property: what was taken is exactly how the full run starts.
        assert_eq!(&full_flat[..taken.len()], &taken[..]);
    }
}

// ── Watermark boundary semantics ─────────────────────────────────────────
//
// The admission check is strict (`v < watermark[d]` rejects), so a row
// exactly *equal* to the watermark in some dimension is legal — including
// the subtle case where the watermark sits exactly on a grid cell
// boundary: the boundary value belongs to the *next* slot, so the low
// slice seals while the equality row is still admissible. Bounds [0, 90]
// with the default 3 input partitions per dimension put those boundaries
// at exactly 30 and 60; the waves below walk watermarks onto both (plus a
// non-boundary value, 45.5) and push equality rows after each one.

fn boundary_spec() -> StreamSpec {
    StreamSpec::new(vec![0.0; DIMS], vec![90.0; DIMS]).unwrap()
}

fn open_boundary_session(pooled: bool) -> IngestSession {
    let maps = MapSet::pairwise_sum(DIMS, Preference::all_lowest(DIMS));
    let config = ProgXeConfig::default();
    if pooled {
        ParallelProgXe::new(config.with_threads(3))
            .open_ingest(&maps, boundary_spec(), boundary_spec())
            .unwrap()
    } else {
        IngestSession::open(&config, &maps, boundary_spec(), boundary_spec()).unwrap()
    }
}

/// One arrival step: rows to push, then an optional watermark.
type BoundaryWave = (Vec<(u32, Vec<f64>, u32)>, Option<Vec<f64>>);

fn r_boundary_waves() -> Vec<BoundaryWave> {
    vec![
        (
            vec![
                (0, vec![5.0, 80.0], 0),
                (1, vec![78.0, 6.0], 0),
                (2, vec![25.0, 28.0], 0),
            ],
            Some(vec![30.0, 30.0]), // exactly on the first cell boundary
        ),
        (
            vec![
                (3, vec![30.0, 30.0], 0), // == watermark in every dimension
                (4, vec![30.0, 55.0], 0), // == watermark in dimension 0 only
                (5, vec![55.0, 30.0], 0), // == watermark in dimension 1 only
            ],
            Some(vec![45.5, 30.0]), // non-boundary watermark value
        ),
        (
            vec![(6, vec![45.5, 30.0], 0), (7, vec![60.0, 44.0], 0)],
            Some(vec![60.0, 60.0]), // exactly on the second cell boundary
        ),
        (
            vec![(8, vec![60.0, 60.0], 0), (9, vec![89.0, 89.0], 0)],
            None,
        ),
    ]
}

fn t_boundary_waves() -> Vec<BoundaryWave> {
    vec![
        (
            vec![
                (0, vec![10.0, 60.0], 0),
                (1, vec![62.0, 8.0], 0),
                (2, vec![28.0, 25.0], 0),
            ],
            Some(vec![30.0, 30.0]),
        ),
        (
            vec![(3, vec![30.0, 30.0], 0), (4, vec![40.0, 33.0], 0)],
            Some(vec![60.0, 60.0]),
        ),
        (
            vec![(5, vec![60.0, 60.0], 0), (6, vec![85.0, 70.0], 0)],
            None,
        ),
    ]
}

fn push_boundary_wave(session: &mut IngestSession, side: SourceId, wave: &BoundaryWave) {
    let rows: Vec<(u32, &[f64], u32)> = wave
        .0
        .iter()
        .map(|(id, attrs, key)| (*id, attrs.as_slice(), *key))
        .collect();
    session.push_with_ids(side, &rows).unwrap();
    if let Some(wm) = &wave.1 {
        session.set_watermark(side, wm).unwrap();
    }
}

/// Feeds the boundary waves following `order` (a sequence of
/// `(source, wave index)` steps), draining after every step, and returns
/// the emission transcript.
fn run_boundary_schedule(order: &[(SourceId, usize)], pooled: bool) -> Transcript {
    let r = r_boundary_waves();
    let t = t_boundary_waves();
    let mut session = open_boundary_session(pooled);
    let mut transcript = Transcript::new();
    let mut seen = std::collections::HashSet::new();
    let mut progress = 0.0;
    for &(side, wave) in order {
        let wave = match side {
            SourceId::R => &r[wave],
            SourceId::T => &t[wave],
        };
        push_boundary_wave(&mut session, side, wave);
        drain(&mut session, &mut transcript, &mut seen, &mut progress);
    }
    session.close(SourceId::R);
    session.close(SourceId::T);
    drain(&mut session, &mut transcript, &mut seen, &mut progress);
    assert!(matches!(session.poll(), IngestPoll::Complete));
    let stats = session.finish();
    assert!(!stats.cancelled);
    let total: usize =
        r.iter().map(|w| w.0.len()).sum::<usize>() + t.iter().map(|w| w.0.len()).sum::<usize>();
    assert_eq!(
        stats.tuples_ingested, total as u64,
        "every equality row must be admitted"
    );
    transcript
}

/// Rows exactly equal to the watermark — including watermarks sitting on
/// grid cell boundaries — are admitted on every arrival schedule, and the
/// emission transcript still matches the all-at-once oracle on both
/// backends.
#[test]
fn watermark_equality_rows_match_the_oracle_across_schedules() {
    use SourceId::{R, T};
    let interleaved: &[(SourceId, usize)] =
        &[(R, 0), (T, 0), (R, 1), (T, 1), (R, 2), (T, 2), (R, 3)];
    let t_first: &[(SourceId, usize)] = &[(T, 0), (T, 1), (T, 2), (R, 0), (R, 1), (R, 2), (R, 3)];
    let r_first: &[(SourceId, usize)] = &[(R, 0), (R, 1), (R, 2), (R, 3), (T, 0), (T, 1), (T, 2)];

    for pooled in [false, true] {
        // All-at-once oracle: same logical rows, no watermarks.
        let mut session = open_boundary_session(pooled);
        let r_rows: Vec<(u32, Vec<f64>, u32)> =
            r_boundary_waves().into_iter().flat_map(|w| w.0).collect();
        let t_rows: Vec<(u32, Vec<f64>, u32)> =
            t_boundary_waves().into_iter().flat_map(|w| w.0).collect();
        for (side, rows) in [(R, &r_rows), (T, &t_rows)] {
            let refs: Vec<(u32, &[f64], u32)> = rows
                .iter()
                .map(|(id, attrs, key)| (*id, attrs.as_slice(), *key))
                .collect();
            session.push_with_ids(side, &refs).unwrap();
            session.close(side);
        }
        let mut reference = Transcript::new();
        let mut seen = std::collections::HashSet::new();
        let mut progress = 0.0;
        drain(&mut session, &mut reference, &mut seen, &mut progress);
        session.finish();
        let results: usize = reference.iter().map(|b| b.len()).sum();
        assert!(
            results > 1,
            "boundary workload must keep a non-trivial skyline ({results} results)"
        );

        for (name, order) in [
            ("interleaved", interleaved),
            ("t-first", t_first),
            ("r-first", r_first),
        ] {
            let transcript = run_boundary_schedule(order, pooled);
            assert_eq!(
                transcript, reference,
                "pooled={pooled}/{name}: emission diverged from all-at-once"
            );
        }
    }
}

/// The admission boundary is strict in the right direction: exactly-equal
/// rows are accepted (even on a cell boundary), strictly-below rows get a
/// typed `RowBelowWatermark` with the offending dimension, and the
/// rejection leaves the session fully usable.
#[test]
fn below_watermark_rows_are_rejected_with_a_typed_error() {
    use progxe::core::ingest::IngestError;

    for pooled in [false, true] {
        let mut session = open_boundary_session(pooled);
        session.set_watermark(SourceId::R, &[30.0, 30.0]).unwrap();

        // Equality on a cell boundary: admitted.
        session
            .push_with_ids(SourceId::R, &[(0, &[30.0, 30.0][..], 0)])
            .unwrap();
        // Strictly below in dimension 1: typed rejection.
        let err = session
            .push_with_ids(SourceId::R, &[(1, &[31.0, 29.5][..], 0)])
            .unwrap_err();
        match err {
            IngestError::RowBelowWatermark {
                source,
                dim,
                watermark,
                value,
            } => {
                assert_eq!(source, SourceId::R);
                assert_eq!(dim, 1);
                assert_eq!(watermark, 30.0);
                assert_eq!(value, 29.5);
            }
            other => panic!("expected RowBelowWatermark, got {other:?}"),
        }

        // The rejection must not poison the session: keep feeding and run
        // to completion.
        session
            .push_with_ids(SourceId::R, &[(2, &[40.0, 30.0][..], 0)])
            .unwrap();
        session
            .push_with_ids(SourceId::T, &[(0, &[10.0, 10.0][..], 0)])
            .unwrap();
        session.close(SourceId::R);
        session.close(SourceId::T);
        let mut transcript = Transcript::new();
        let mut seen = std::collections::HashSet::new();
        let mut progress = 0.0;
        drain(&mut session, &mut transcript, &mut seen, &mut progress);
        assert!(matches!(session.poll(), IngestPoll::Complete));
        let stats = session.finish();
        assert!(!stats.cancelled, "pooled={pooled}");
        assert_eq!(stats.tuples_ingested, 3, "the rejected row is not counted");
        let flat: Vec<(u32, u32)> = transcript.into_iter().flatten().collect();
        assert_eq!(
            flat,
            vec![(0, 0)],
            "pooled={pooled}: the boundary row joins; the rejected row never surfaces"
        );
    }
}
