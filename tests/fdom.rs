//! Differential suite for the flexible-skyline (F-dominance) workload.
//!
//! Contract under test: with a `MapSet` carrying a flexible
//! [`DominanceModel`], every engine — ProgXe on the Inline and on the
//! Pooled backend, and all four
//! baselines — produces exactly the brute-force F-skyline of
//! `tests/common/oracle.rs`; progressive emission stays no-retraction and
//! run-to-run deterministic; `take(k)` early-stop and mid-region
//! cancellation behave as under Pareto; and streaming ingestion emits a
//! bit-identical event stream across sampled arrival schedules, equal to
//! the all-at-once run. The CI matrix re-runs this file under
//! `PROGXE_THREADS={1,4}`, which routes the env-built engine through the
//! sequential and pooled dispatch respectively.

mod common;

use progxe::baselines::{JfSlEngine, SkyAlgo, SsmjEngine};
use progxe::core::fdom::DominanceModel;
use progxe::core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
use progxe::core::prelude::*;
use progxe::datagen::{ArrivalSpec, Distribution, SmjWorkload, WorkloadSpec};
use std::collections::BTreeSet;

fn views(w: &SmjWorkload) -> (SourceView<'_>, SourceView<'_>) {
    (
        SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap(),
        SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap(),
    )
}

/// The canonical nested band family (`tight=0` ≡ the whole simplex ≡
/// Pareto; `tight→1` pins equal weights) — the same
/// `datagen::weights::simplex_band` the `figures -- fdom` bench sweeps, so
/// the differential suite and the measurements can never drift apart.
fn band_model(dims: usize, tight: f64) -> DominanceModel {
    progxe::core::fdom::flexible_model(dims, progxe::datagen::simplex_band(dims, tight))
        .expect("band is non-empty")
}

fn flexible_maps(dims: usize, tight: f64) -> MapSet {
    MapSet::pairwise_sum(dims, Preference::all_lowest(dims))
        .with_dominance(band_model(dims, tight))
        .unwrap()
}

fn result_ids(results: &[progxe::core::stats::ResultTuple]) -> BTreeSet<(u32, u32)> {
    results.iter().map(|x| (x.r_idx, x.t_idx)).collect()
}

/// The acceptance matrix: every engine/backend/path combination equals the
/// shared brute-force F-oracle, across 3 distributions × seeds × two
/// constraint tightnesses — and the flexible answer genuinely shrinks
/// below the Pareto skyline somewhere in the grid.
#[test]
fn fskyline_matches_oracle_across_engines_and_backends() {
    let mut shrunk_somewhere = false;
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::AntiCorrelated,
    ] {
        for seed in [19u64, 1234] {
            let w = WorkloadSpec::new(220, 2, dist, 0.03)
                .with_seed(seed)
                .generate();
            let (r, t) = views(&w);
            for tight in [0.4, 0.8] {
                let maps = flexible_maps(2, tight);
                let expected = common::oracle::workload_oracle_ids(&w, &maps);
                assert!(
                    !expected.is_empty(),
                    "{dist:?}/{seed}/{tight}: empty oracle"
                );
                let pareto = common::oracle::workload_oracle_ids(
                    &w,
                    &MapSet::pairwise_sum(2, Preference::all_lowest(2)),
                );
                assert!(expected.is_subset(&pareto));
                shrunk_somewhere |= expected.len() < pareto.len();

                // ProgXe Inline.
                let inline = ProgXe::new(ProgXeConfig::default())
                    .run_collect(&r, &t, &maps)
                    .unwrap();
                assert!(!inline.stats.cancelled);
                assert_eq!(
                    result_ids(&inline.results),
                    expected,
                    "{dist:?}/{seed}/{tight}: inline"
                );
                // ProgXe Pooled (shared worker pool).
                let pooled = ProgXe::new(ProgXeConfig::default().with_threads(4))
                    .run_collect(&r, &t, &maps)
                    .unwrap();
                assert_eq!(
                    result_ids(&pooled.results),
                    expected,
                    "{dist:?}/{seed}/{tight}: pooled"
                );
                // The env-built engine — the backend the CI PROGXE_THREADS
                // matrix steers between Inline and Pooled.
                let env_out = ProgXe::new(ProgXeConfig::from_env())
                    .run_collect(&r, &t, &maps)
                    .unwrap();
                assert_eq!(
                    result_ids(&env_out.results),
                    expected,
                    "{dist:?}/{seed}/{tight}: env-dispatched engine"
                );

                // The three baselines, across both skyline algorithms (BNL
                // and SFS each run the model natively).
                let baselines: Vec<Box<dyn ProgressiveEngine>> = vec![
                    Box::new(JfSlEngine::new(SkyAlgo::Bnl)),
                    Box::new(JfSlEngine::new(SkyAlgo::Sfs)),
                    Box::new(JfSlEngine::plus(SkyAlgo::Sfs)),
                    Box::new(JfSlEngine::plus(SkyAlgo::Bnl)),
                    Box::new(SsmjEngine::new(SkyAlgo::Sfs)),
                ];
                for engine in baselines {
                    let out = engine.run_collect(&r, &t, &maps).unwrap();
                    let emitted = result_ids(&out.results);
                    for id in &expected {
                        assert!(
                            emitted.contains(id),
                            "{dist:?}/{seed}/{tight}: {} missing {id:?}",
                            engine.name()
                        );
                    }
                    if engine.name() != "ssmj" {
                        // SSMJ's batch 1 is tentative by design; everyone
                        // else must be exact.
                        assert_eq!(
                            emitted,
                            expected,
                            "{dist:?}/{seed}/{tight}: {}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
    assert!(
        shrunk_somewhere,
        "constraints never shrank the skyline — the F-workload is vacuous"
    );
}

/// Progressive semantics under F-dominance: every emitted batch is proven
/// final and a subset of the final answer (no retraction), and two
/// identical runs produce the identical event stream on both backends.
#[test]
fn fdominance_emission_is_no_retraction_and_deterministic() {
    let w = WorkloadSpec::new(500, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(42)
        .generate();
    let (r, t) = views(&w);
    let maps = flexible_maps(2, 0.6);
    let expected = common::oracle::workload_oracle_ids(&w, &maps);

    let collect_stream = |pooled: bool| -> Vec<Vec<(u32, u32)>> {
        let mut session = if pooled {
            ProgXe::new(ProgXeConfig::default().with_threads(4))
                .open(&r, &t, &maps)
                .unwrap()
        } else {
            ProgXe::new(ProgXeConfig::default())
                .open(&r, &t, &maps)
                .unwrap()
        };
        let mut batches = Vec::new();
        let mut emitted = BTreeSet::new();
        while let Some(event) = session.next_batch() {
            assert!(event.proven_final, "pooled={pooled}: tentative batch");
            let ids: Vec<(u32, u32)> = event.tuples.iter().map(|x| (x.r_idx, x.t_idx)).collect();
            for &id in &ids {
                assert!(
                    expected.contains(&id),
                    "pooled={pooled}: emitted {id:?} outside the F-skyline (false positive)"
                );
                assert!(emitted.insert(id), "pooled={pooled}: duplicate emission");
            }
            batches.push(ids);
        }
        assert!(!session.finish().cancelled);
        assert_eq!(emitted, expected, "pooled={pooled}: false negatives");
        batches
    };

    for pooled in [false, true] {
        let a = collect_stream(pooled);
        let b = collect_stream(pooled);
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "pooled={pooled}: emission not run-to-run deterministic"
        );
    }
    // Inline and Pooled agree event-for-event too.
    assert_eq!(collect_stream(false), collect_stream(true));
}

/// Regression pin for the batched dominance kernels: the full emission
/// stream — batch boundaries, tuple identities, *and the exact f64 bit
/// patterns of every output value* — is identical between the Inline and
/// Pooled backends and across repeated runs. Any drift in tie/strictness
/// semantics or float accumulation order inside the kernels (batch
/// projection, windowed pre-filter, cell-store eviction, emission filter)
/// shows up here as a bit-level diff.
#[test]
fn fdominance_emission_stream_is_bit_identical_across_backends() {
    type Stream = Vec<Vec<(u32, u32, Vec<u64>)>>;
    let w = WorkloadSpec::new(400, 3, Distribution::AntiCorrelated, 0.03)
        .with_seed(11)
        .generate();
    let (r, t) = views(&w);
    let maps = flexible_maps(3, 0.5);
    let collect = |pooled: bool| -> Stream {
        let mut session = if pooled {
            ProgXe::new(ProgXeConfig::default().with_threads(4))
                .open(&r, &t, &maps)
                .unwrap()
        } else {
            ProgXe::new(ProgXeConfig::default())
                .open(&r, &t, &maps)
                .unwrap()
        };
        let mut stream = Vec::new();
        while let Some(event) = session.next_batch() {
            stream.push(
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
                    .collect(),
            );
        }
        session.finish();
        stream
    };
    let inline_a = collect(false);
    assert!(!inline_a.is_empty(), "workload emitted nothing");
    assert_eq!(inline_a, collect(false), "inline not run-deterministic");
    assert_eq!(inline_a, collect(true), "pooled diverged from inline");
}

/// `take(k)` under F-dominance returns exactly the first `k` tuples of the
/// engine's own full emission order and stops early.
#[test]
fn take_k_is_an_early_stopping_prefix_under_fdominance() {
    let w = WorkloadSpec::new(600, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(7)
        .generate();
    let (r, t) = views(&w);
    let maps = flexible_maps(2, 0.4);
    let exec = ProgXe::new(ProgXeConfig::default());
    let full = exec.run_collect(&r, &t, &maps).unwrap();
    assert!(full.results.len() >= 3, "workload too small for take(k)");
    let k = 2;
    let partial = exec.session(&r, &t, &maps).unwrap().take(k);
    assert_eq!(partial.results.len(), k);
    assert_eq!(&full.results[..k], &partial.results[..]);
    assert!(partial.stats.cancelled);
    assert!(partial.stats.regions_skipped > 0);
    assert!(partial.stats.regions_processed < full.stats.regions_processed);
}

/// Mid-region cancellation stays prompt when the model is flexible: the
/// token check lives in the shared probe loop, which the model does not
/// touch.
#[test]
fn mid_region_cancel_stays_prompt_under_fdominance() {
    use progxe::core::mapping::{GeneralMap, MappingFunction};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let n = 250usize;
    let mut r = SourceData::new(2);
    let mut t = SourceData::new(2);
    let mut x: u64 = 3;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % 1000) as f64 / 10.0
    };
    for _ in 0..n {
        r.push(&[next(), next()], 0);
        t.push(&[next(), next()], 0);
    }
    let token = CancellationToken::new();
    let fuse_token = token.clone();
    let evals = Arc::new(AtomicU64::new(0));
    let fuse_evals = Arc::clone(&evals);
    let counting = GeneralMap::new(
        "fused-sum",
        move |r: &[f64], t: &[f64]| {
            if fuse_evals.fetch_add(1, Ordering::Relaxed) + 1 == 4_000 {
                fuse_token.cancel();
            }
            r[0] + t[0]
        },
        |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
            (r_lo[0] + t_lo[0], r_hi[0] + t_hi[0])
        },
    );
    let plain = GeneralMap::new(
        "sum1",
        |r: &[f64], t: &[f64]| r[1] + t[1],
        |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
            (r_lo[1] + t_lo[1], r_hi[1] + t_hi[1])
        },
    );
    let maps = MapSet::new(
        vec![
            Box::new(counting) as Box<dyn MappingFunction>,
            Box::new(plain),
        ],
        Preference::all_lowest(2),
    )
    .unwrap()
    .with_dominance(band_model(2, 0.6))
    .unwrap();

    let exec = ProgXe::new(ProgXeConfig::default().with_input_partitions(1));
    let mut session = exec
        .session_with_token(&r.view(), &t.view(), &maps, token)
        .unwrap();
    assert!(session.next_batch().is_none(), "cancel fires mid-region");
    let stats = session.finish();
    assert!(stats.cancelled);
    assert_eq!(stats.results_emitted, 0);
    assert!(
        stats.join_matches < (n * n) as u64 / 4,
        "join stopped late under the flexible model ({} matches)",
        stats.join_matches
    );
}

/// Streaming ingestion under F-dominance: the emitted event stream is
/// bit-identical across sampled arrival schedules and backends, equal to
/// the all-at-once run, and its result set equals the brute-force
/// F-oracle.
#[test]
fn streaming_ingest_is_schedule_invariant_under_fdominance() {
    const N: usize = 110;
    let spec = || StreamSpec::new(vec![0.0; 2], vec![101.0; 2]).unwrap();
    let maps = flexible_maps(2, 0.5);

    type Transcript = Vec<Vec<(u32, u32)>>;
    let run_schedule = |w: &SmjWorkload,
                        r_sched: &progxe::datagen::ArrivalSchedule,
                        t_sched: &progxe::datagen::ArrivalSchedule,
                        pooled: bool|
     -> Transcript {
        let threads = if pooled { 3 } else { 1 };
        let mut session = ProgXe::new(ProgXeConfig::default().with_threads(threads))
            .open_ingest(&maps, spec(), spec())
            .unwrap();
        let mut transcript = Transcript::new();
        let mut seen = BTreeSet::new();
        let mut drain = |session: &mut IngestSession, transcript: &mut Transcript| {
            while let IngestPoll::Batch(event) = session.poll() {
                assert!(event.proven_final);
                let ids: Vec<(u32, u32)> =
                    event.tuples.iter().map(|t| (t.r_idx, t.t_idx)).collect();
                for &id in &ids {
                    assert!(seen.insert(id), "tuple {id:?} emitted twice");
                }
                transcript.push(ids);
            }
        };
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
                drain(&mut session, &mut transcript);
            }
        }
        session.close(SourceId::R);
        session.close(SourceId::T);
        drain(&mut session, &mut transcript);
        assert!(!session.finish().cancelled);
        transcript
    };

    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        let w = WorkloadSpec::new(N, 2, dist, 0.1).with_seed(23).generate();
        let expected = common::oracle::workload_oracle_ids(&w, &maps);
        let all = |rel: &progxe::datagen::Relation| progxe::datagen::ArrivalSchedule {
            batches: vec![progxe::datagen::ArrivalBatch {
                rows: (0..rel.len() as u32).collect(),
                watermark: None,
            }],
        };
        for pooled in [false, true] {
            let reference = run_schedule(&w, &all(&w.r), &all(&w.t), pooled);
            let flat: BTreeSet<(u32, u32)> = reference.iter().flatten().copied().collect();
            assert_eq!(flat, expected, "{dist:?}/pooled={pooled}: vs F-oracle");

            for (si, sched_spec) in [
                ArrivalSpec::uniform_shuffle(23, 11),
                ArrivalSpec::attr_sorted(13),
                ArrivalSpec::trickle(9),
                ArrivalSpec::bursty(23, 4, 30),
            ]
            .into_iter()
            .enumerate()
            {
                let mut t_spec = sched_spec.clone();
                t_spec.seed = sched_spec.seed.wrapping_add(1);
                let transcript = run_schedule(
                    &w,
                    &sched_spec.schedule(&w.r),
                    &t_spec.schedule(&w.t),
                    pooled,
                );
                assert_eq!(
                    transcript, reference,
                    "{dist:?}/pooled={pooled}/schedule {si}: emission diverged"
                );
            }
        }
    }
}
