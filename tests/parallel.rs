//! Integration tests for the unified region driver and the shared runtime:
//! Inline/Pooled equivalence (against a naive oracle) across workload
//! distributions and seeds, the proven-final (no-retraction) guarantee
//! under parallel commit, self-determinism of parallel emission,
//! env-driven thread configuration, the committer's ordered stream on the
//! finest 3-d grid, pool sharing across the sessions of one engine, and
//! mid-region cancellation promptness on both backends.

mod common;

use progxe::core::config::{OrderingPolicy, ProgXeConfig};
use progxe::core::mapping::{GeneralMap, MapSet, MappingFunction};
use progxe::core::prelude::*;
use progxe::core::session::CancellationToken;
use progxe::datagen::{Distribution, SmjWorkload, WorkloadSpec};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn views(w: &SmjWorkload) -> (SourceView<'_>, SourceView<'_>) {
    (
        SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap(),
        SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap(),
    )
}

/// A result id + values key usable for set comparison (values are exact
/// f64 copies of the same computation, so bitwise comparison is sound).
fn result_key(t: &progxe::core::stats::ResultTuple) -> (u32, u32, Vec<u64>) {
    (
        t.r_idx,
        t.t_idx,
        t.values.iter().map(|v| v.to_bits()).collect(),
    )
}

/// For each workload distribution and several seeds: the parallel session's
/// final result set must equal the sequential run's (set equality), and
/// every batch the parallel session marks `proven_final` must already be a
/// subset of that final set — i.e. nothing a parallel run emits is ever
/// retracted (Principle 1 survives the fan-out).
#[test]
fn parallel_matches_sequential_across_distributions_and_seeds() {
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::AntiCorrelated,
    ] {
        for seed in [7u64, 4242] {
            let w = WorkloadSpec::new(500, 2, dist, 0.02)
                .with_seed(seed)
                .generate();
            let (r, t) = views(&w);
            let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));

            let sequential = ProgXe::new(ProgXeConfig::default())
                .run_collect(&r, &t, &maps)
                .unwrap();
            let final_set: BTreeSet<_> = sequential.results.iter().map(result_key).collect();
            assert!(!final_set.is_empty(), "{dist:?}/{seed}: empty workload");

            let engine = ProgXe::new(ProgXeConfig::default().with_threads(4));
            let mut session = engine.open(&r, &t, &maps).unwrap();
            let mut emitted = BTreeSet::new();
            while let Some(event) = session.next_batch() {
                assert!(event.proven_final, "{dist:?}/{seed}: tentative batch");
                for tuple in &event.tuples {
                    let key = result_key(tuple);
                    assert!(
                        final_set.contains(&key),
                        "{dist:?}/{seed}: parallel emitted {key:?} which the \
                         sequential final result does not contain (false positive)"
                    );
                    assert!(emitted.insert(key), "{dist:?}/{seed}: duplicate emission");
                }
            }
            let stats = session.finish();
            assert!(!stats.cancelled, "{dist:?}/{seed}: spurious cancellation");
            assert_eq!(stats.threads_used, 4);
            assert_eq!(stats.results_emitted, sequential.stats.results_emitted);
            assert_eq!(
                emitted, final_set,
                "{dist:?}/{seed}: parallel final set diverged (false negatives)"
            );
        }
    }
}

/// The tentpole's equivalence matrix: for each datagen distribution and
/// several seeds, the unified driver must produce the oracle's result set
/// on both backends, Inline and Pooled.
#[test]
fn unified_driver_matches_oracle_on_every_backend() {
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::AntiCorrelated,
    ] {
        for seed in [3u64, 77] {
            let w = WorkloadSpec::new(250, 2, dist, 0.03)
                .with_seed(seed)
                .generate();
            let (r, t) = views(&w);
            let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
            // Shared brute-force reference (tests/common/oracle.rs): full
            // nested-loop join + map + model-aware skyline — what the
            // pre-refactor executor was verified against.
            let expected = common::oracle::workload_oracle_ids(&w, &maps);
            assert!(!expected.is_empty(), "{dist:?}/{seed}: empty oracle");

            let run_ids = |out: &progxe::core::RunOutput| -> BTreeSet<(u32, u32)> {
                out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect()
            };
            let inline = ProgXe::new(ProgXeConfig::default())
                .run_collect(&r, &t, &maps)
                .unwrap();
            assert!(!inline.stats.cancelled);
            assert_eq!(
                run_ids(&inline),
                expected,
                "{dist:?}/{seed}: inline diverged from the oracle"
            );
            let pooled = ProgXe::new(ProgXeConfig::default().with_threads(3))
                .run_collect(&r, &t, &maps)
                .unwrap();
            assert_eq!(
                run_ids(&pooled),
                expected,
                "{dist:?}/{seed}: pooled diverged from the oracle"
            );
        }
    }
}

/// Two identical parallel runs must produce the *identical* event stream —
/// same batches, same order — because the committer's pop/commit discipline
/// is deterministic regardless of worker timing.
#[test]
fn parallel_emission_is_deterministic_across_runs() {
    let w = WorkloadSpec::new(600, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(99)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let engine = ProgXe::new(ProgXeConfig::default().with_threads(4));
    let run = || {
        let mut session = engine.open(&r, &t, &maps).unwrap();
        let mut batches = Vec::new();
        while let Some(event) = session.next_batch() {
            batches.push(event.tuples);
        }
        batches
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "event stream depends on worker interleaving");
}

/// Determinism reaches the counters, not just the stream. The pooled
/// driver takes each work unit's admitted-forest snapshot on the committer
/// thread at dispatch — a fixed point of the pop/commit sequence — so the
/// worker-side filter does the same work, and speculation wastes the same
/// regions, on every run, however the workers interleave. And with two
/// workers the dispatch window really holds more than one region.
#[test]
fn parallel_counters_are_deterministic_and_the_window_fills() {
    let w = WorkloadSpec::new(1500, 3, Distribution::AntiCorrelated, 0.05)
        .with_seed(2024)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    // Two input partitions per dimension: 64 regions whose boxes all
    // overlap, as on the benchmark workloads' grids.
    let config = ProgXeConfig::default()
        .with_input_partitions(2)
        .with_threads(2);
    let engine = ProgXe::new(config);
    let run = || {
        let mut session = engine.open(&r, &t, &maps).unwrap();
        let mut stream = Vec::new();
        while let Some(event) = session.next_batch() {
            stream.push(common::event_key(&event));
        }
        (stream, session.finish())
    };
    let (stream_a, a) = run();
    let (stream_b, b) = run();
    assert!(!stream_a.is_empty());
    assert_eq!(stream_a, stream_b, "event stream depends on worker timing");
    assert_eq!(a.dominance_tests, b.dominance_tests);
    assert_eq!(a.dominance_pairs, b.dominance_pairs);
    assert_eq!(a.tuples_prefiltered, b.tuples_prefiltered);
    assert_eq!(a.tuples_inserted, b.tuples_inserted);
    assert_eq!(a.regions_computed_dead, b.regions_computed_dead);
    assert_eq!(a.regions_processed, b.regions_processed);
    assert_eq!(a.inflight_peak, b.inflight_peak);
    assert!(a.tuples_prefiltered > 0, "worker-side filters never fired");

    assert_eq!(a.threads_used, 2);
    assert!(
        a.inflight_peak >= 2,
        "two workers but at most {} region in flight",
        a.inflight_peak
    );
    assert!(a.inflight_peak <= 4, "window is 2 × threads");
    // Every region is accounted for exactly once.
    assert_eq!(
        a.regions_processed + a.regions_discarded_dead + a.regions_computed_dead,
        a.regions_created
    );
    // The pooled ledger adds up on the committer thread (`tuple_time` is
    // summed worker time and stays out of it).
    let ledger = a.lookahead_time + a.dispatch_time + a.commit_time + a.commit_wait_time;
    assert!(ledger <= a.total_time);
    // Resolving regions is a sub-bucket of the ledger, not a term of it:
    // on Pooled every resolution happens inside a commit or a discard.
    assert!(!a.resolve_time.is_zero());
    assert!(a.resolve_time <= a.commit_time + a.dispatch_time);
    assert!(
        ledger.as_secs_f64() >= 0.8 * a.total_time.as_secs_f64(),
        "committer-thread buckets cover only {ledger:?} of {:?}",
        a.total_time
    );
}

/// The ordered committer on the finest 3-d grid (101³ positions, the
/// cap): its stream is the same on one thread and on two, its result set
/// is the oracle's under either region order — origin first, or one seeded
/// shuffle — and the cells inside each event come in ascending grid
/// coordinate (read off the trace's `emit` points, which carry each
/// cell's grid position, grouped per event by the `results_emitted`
/// counter that closes it).
///
/// Attributes are whole numbers in three tight clusters, so outputs tie
/// and cells fully dominate one another often: tuples land in dead cells,
/// whole regions die, and — under the shuffle, which commits some tuples
/// before the guaranteed region whose upper bound dominates their cell —
/// cells are pre-marked as they materialize.
#[test]
fn committer_emits_one_ordered_stream_that_matches_the_oracle() {
    use progxe::datagen::Relation;
    use progxe::obs::{EventKind, Point, RingRecorder};

    let clustered = |rel: &Relation| {
        let mut out = Relation::with_capacity(3, rel.len());
        for i in 0..rel.len() {
            let attrs: Vec<f64> = rel
                .attrs_of(i)
                .iter()
                .map(|&v| 10.0 * ((v - 1.0) / 33.0).floor() + v.floor() % 2.0)
                .collect();
            out.push(&attrs, rel.join_key_of(i));
        }
        out
    };
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let (mut found_dead, mut discarded, mut premarked) = (0, 0, 0);
    for (n, sigma) in [(400usize, 0.05), (800, 0.02)] {
        let mut w = WorkloadSpec::new(n, 3, Distribution::AntiCorrelated, sigma)
            .with_seed(17)
            .generate();
        w.r = clustered(&w.r);
        w.t = clustered(&w.t);
        let oracle = common::oracle::workload_oracle_ids(&w, &maps);
        for ordering in [
            OrderingPolicy::ProgOrder,
            OrderingPolicy::Random { seed: 5 },
        ] {
            let label = format!("n={n} {ordering:?}");
            let config = ProgXeConfig::default()
                .with_input_partitions(3)
                .with_output_cells(101)
                .with_ordering(ordering);
            let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
            let (stream, stats) =
                common::traced_batch_stream(&config, &w, &maps, 1, true, Some(ring.clone()));
            assert_eq!(ring.dropped(), 0, "{label}: ring too small for the run");
            assert!(stream.len() > 1, "{label}: not progressive");
            assert!(
                stream.iter().any(|event| event.len() > 1),
                "{label}: no event had an order to disagree on"
            );
            let (pooled, _) = common::batch_stream(&config, &w, &maps, 2, true);
            assert_eq!(
                stream, pooled,
                "{label}: threads 1 and 2 emit different streams"
            );

            let emitted: Vec<(u32, u32)> = stream.iter().flatten().map(|x| (x.0, x.1)).collect();
            let ids: BTreeSet<(u32, u32)> = emitted.iter().copied().collect();
            assert_eq!(ids.len(), emitted.len(), "{label}: a tuple emitted twice");
            assert_eq!(ids, oracle, "{label}");

            let mut per_event: Vec<Vec<(u64, u64)>> = Vec::new();
            let mut cells = Vec::new();
            for event in ring.drain() {
                match event.kind {
                    EventKind::Point(Point::Emit { cell, n, .. }) => cells.push((cell, n)),
                    EventKind::Counter {
                        name: "results_emitted",
                        ..
                    } => per_event.push(std::mem::take(&mut cells)),
                    _ => {}
                }
            }
            let events: Vec<_> = stream.iter().filter(|event| !event.is_empty()).collect();
            assert_eq!(per_event.len(), events.len(), "{label}");
            for (event, cells) in events.iter().zip(&per_event) {
                assert!(
                    cells.windows(2).all(|pair| pair[0].0 < pair[1].0),
                    "{label}: cells out of coordinate order: {cells:?}"
                );
                let tuples: u64 = cells.iter().map(|&(_, n)| n).sum();
                assert_eq!(tuples, event.len() as u64, "{label}");
            }
            found_dead += stats.tuples_rejected_dead_cell;
            discarded += stats.regions_discarded_dead;
            premarked += stats.cells_premarked_dead;
        }
    }
    assert!(
        found_dead > 0 && discarded > 0,
        "a lookup never said yes: {found_dead} dead-cell rejections, {discarded} dead regions"
    );
    assert!(premarked > 0, "no cell was pre-marked as it materialized");
}

/// `ProgXeConfig::from_env` means the CI matrix (PROGXE_THREADS=4) runs
/// this very test on the pooled backend, against an inline reference.
#[test]
fn env_configured_thread_count_preserves_results() {
    let config = ProgXeConfig::from_env();
    let w = WorkloadSpec::new(400, 3, Distribution::Independent, 0.05)
        .with_seed(11)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let reference = ProgXe::new(ProgXeConfig::default())
        .run_collect(&r, &t, &maps)
        .unwrap();
    let out = ProgXe::new(config.clone())
        .run_collect(&r, &t, &maps)
        .unwrap();
    let expect: BTreeSet<_> = reference.results.iter().map(result_key).collect();
    let got: BTreeSet<_> = out.results.iter().map(result_key).collect();
    assert_eq!(expect, got, "threads={}", config.threads.get());
    assert_eq!(out.stats.threads_used, config.threads.get());
}

/// Builds a 2-d workload that collapses into a single huge region
/// (1 partition per dimension, every tuple shares one join key), with a
/// mapping function that cancels the session token after `fuse` evaluations.
/// Lets us measure how promptly the tuple-level loop honors cancellation.
fn single_region_run(n: usize, fuse: u64) -> (u64, ExecStats) {
    let mut r = SourceData::new(2);
    let mut t = SourceData::new(2);
    let mut x: u64 = 5;
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
    let evals = Arc::new(AtomicU64::new(0));
    let fuse_token = token.clone();
    let fuse_evals = Arc::clone(&evals);
    let counting = GeneralMap::new(
        "fused-sum",
        move |r: &[f64], t: &[f64]| {
            if fuse_evals.fetch_add(1, Ordering::Relaxed) + 1 == fuse {
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
    .unwrap();

    let exec = ProgXe::new(ProgXeConfig::default().with_input_partitions(1));
    let mut session = exec
        .session_with_token(&r.view(), &t.view(), &maps, token)
        .unwrap();
    assert!(session.next_batch().is_none(), "cancel fires mid-region");
    let stats = session.finish();
    (evals.load(Ordering::Relaxed), stats)
}

/// Satellite: cancelling during one huge region must stop the join loop
/// within the token-check interval, not at the region boundary. With
/// n = 300 (90 000 matches in the single region), a fuse of 5 000 map
/// evaluations must stop the loop long before the region completes.
#[test]
fn cancel_during_a_single_huge_region_stops_promptly() {
    let n = 300u64;
    let full_matches = n * n; // one region, one join key ⇒ n² matches
    let (evals, stats) = single_region_run(n as usize, 5_000);
    assert!(stats.cancelled, "run must report cancellation");
    assert_eq!(stats.results_emitted, 0, "nothing may be emitted");
    assert_eq!(
        stats.regions_skipped, 1,
        "the single region stays unresolved"
    );
    // Partial work must be *accounted* (non-zero) yet bounded: the driver
    // absorbs a cancelled region's counters without committing it.
    assert!(
        stats.join_matches > 0,
        "cancelled-run stats must reflect the partial join work"
    );
    assert!(
        stats.join_matches < full_matches / 4,
        "join stopped late: {} of {} matches processed",
        stats.join_matches,
        full_matches
    );
    // The map runs once per match (plus interval evaluations during
    // look-ahead); the overshoot past the fuse must stay within a few
    // token-check intervals, not scale with the region.
    assert!(
        evals < 5_000 + 4 * 256 * 2,
        "tuple loop overshot the cancellation fuse: {evals} evaluations"
    );
}

/// `take(k)` through the Inline backend: the session stops early, skips the
/// remaining regions, and still returns the exact prefix a full run would
/// have produced.
#[test]
fn take_k_stops_early_on_the_inline_batch_path() {
    let w = WorkloadSpec::new(600, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(5)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let exec = ProgXe::new(ProgXeConfig::default());
    let full = exec.run_collect(&r, &t, &maps).unwrap();
    assert!(full.results.len() >= 3, "workload too small");
    let k = 2;
    let partial = exec.session(&r, &t, &maps).unwrap().take(k);
    assert_eq!(partial.results.len(), k);
    assert_eq!(&full.results[..k], &partial.results[..]);
    assert!(partial.stats.cancelled);
    assert!(
        partial.stats.regions_skipped > 0,
        "remaining regions skipped"
    );
    assert!(partial.stats.regions_processed < full.stats.regions_processed);
}

/// Pool sharing end to end: the sessions of one parallel engine reuse a
/// single lazily-spawned pool, and dropping the engine joins its workers.
#[test]
fn engine_runtime_is_shared_and_shuts_down() {
    let w = WorkloadSpec::new(300, 2, Distribution::Independent, 0.03)
        .with_seed(9)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let engine = ProgXe::new(ProgXeConfig::default().with_threads(3));
    assert_eq!(engine.runtime().pools_spawned(), 0, "runtime spawns lazily");
    let a = engine.run_collect(&r, &t, &maps).unwrap();
    let b = engine.run_collect(&r, &t, &maps).unwrap();
    assert_eq!(
        a.results, b.results,
        "shared-pool sessions must stay deterministic"
    );
    assert_eq!(
        engine.runtime().pools_spawned(),
        1,
        "second session must reuse the first session's pool"
    );
    let watch = engine.runtime().pool_watch().expect("pool spawned");
    drop(engine);
    assert!(
        watch.upgrade().is_none(),
        "dropping the engine must join the shared pool"
    );
}

/// The same property holds through the parallel driver: the in-flight
/// worker observes the token mid-region and the session ends cancelled.
#[test]
fn parallel_worker_stops_mid_region_on_cancel() {
    let n = 300usize;
    let mut r = SourceData::new(2);
    let mut t = SourceData::new(2);
    for i in 0..n {
        let v = (i % 97) as f64;
        r.push(&[v, 100.0 - v], 0);
        t.push(&[100.0 - v, v], 0);
    }
    let token = CancellationToken::new();
    let fuse_token = token.clone();
    let evals = Arc::new(AtomicU64::new(0));
    let fuse_evals = Arc::clone(&evals);
    let counting = GeneralMap::new(
        "fused-sum",
        move |r: &[f64], t: &[f64]| {
            if fuse_evals.fetch_add(1, Ordering::Relaxed) + 1 == 2_000 {
                fuse_token.cancel();
            }
            r[0] + t[0]
        },
        |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
            (r_lo[0] + t_lo[0], r_hi[0] + t_hi[0])
        },
    );
    let maps = MapSet::new(
        vec![Box::new(counting) as Box<dyn MappingFunction>],
        Preference::all_lowest(1),
    )
    .unwrap();
    let engine = ProgXe::new(
        ProgXeConfig::default()
            .with_input_partitions(1)
            .with_threads(2),
    );
    let mut session = engine
        .session_with_token(&r.view(), &t.view(), &maps, token)
        .unwrap();
    assert!(session.next_batch().is_none());
    let stats = session.finish();
    assert!(stats.cancelled);
    assert_eq!(stats.results_emitted, 0);
    assert!(
        stats.join_matches < (n * n) as u64 / 4,
        "worker ignored the token mid-region ({} matches)",
        stats.join_matches
    );
}
