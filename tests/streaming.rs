//! Integration tests for the pull-based streaming API: stream/collect
//! equivalence across every engine, `take(k)` early termination, and
//! cancellation — on generated workloads, through the facade crate.

mod common;

use progxe::baselines::{JfSlEngine, SkyAlgo, SsmjEngine};
use progxe::core::prelude::*;
use progxe::datagen::{Distribution, SmjWorkload, WorkloadSpec};

fn views(w: &SmjWorkload) -> (SourceView<'_>, SourceView<'_>) {
    (
        SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap(),
        SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap(),
    )
}

fn engines() -> Vec<Box<dyn ProgressiveEngine>> {
    vec![
        Box::new(ProgXe::new(ProgXeConfig::default())),
        Box::new(ProgXe::new(ProgXeConfig::default().with_threads(4))),
        Box::new(JfSlEngine::new(SkyAlgo::Bnl)),
        Box::new(JfSlEngine::plus(SkyAlgo::Sfs)),
        Box::new(SsmjEngine::new(SkyAlgo::Sfs)),
    ]
}

/// Pulling batches one by one and `run_collect` must produce identical
/// results in identical order, for ProgXe and every baseline, on a seeded
/// anti-correlated workload (the skyline-hostile case).
#[test]
fn stream_and_sink_agree_for_every_engine() {
    let w = WorkloadSpec::new(400, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(2024)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    // Shared brute-force reference (tests/common/oracle.rs): every engine's
    // final set must cover it; non-tentative engines must equal it.
    let expected = common::oracle::workload_oracle_ids(&w, &maps);
    for engine in engines() {
        // Collect path.
        let collected = engine.run_collect(&r, &t, &maps).unwrap();
        let emitted: std::collections::BTreeSet<(u32, u32)> = collected
            .results
            .iter()
            .map(|x| (x.r_idx, x.t_idx))
            .collect();
        for id in &expected {
            assert!(emitted.contains(id), "{}: missing {id:?}", engine.name());
        }
        if engine.name() != "ssmj" {
            assert_eq!(emitted, expected, "{}: oracle mismatch", engine.name());
        }

        // Pull path.
        let mut session = engine.open(&r, &t, &maps).unwrap();
        let mut streamed = Vec::new();
        while let Some(event) = session.next_batch() {
            streamed.extend(event.tuples);
        }
        let stream_stats = session.finish();

        assert_eq!(
            streamed,
            collected.results,
            "{}: stream and collect diverged",
            engine.name()
        );
        assert_eq!(
            collected.stats.results_emitted,
            stream_stats.results_emitted,
            "{}: stats diverged",
            engine.name()
        );
        assert!(!stream_stats.cancelled, "{}", engine.name());
    }
}

/// Event metadata is coherent on every engine: progress estimates are
/// monotone in `[0, 1]`, elapsed times are monotone, and only SSMJ may
/// deliver batches that are not proven final.
#[test]
fn event_metadata_is_coherent() {
    let w = WorkloadSpec::new(300, 3, Distribution::Independent, 0.02)
        .with_seed(11)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    for engine in engines() {
        let mut session = engine.open(&r, &t, &maps).unwrap();
        let mut last_progress = 0.0;
        let mut last_elapsed = std::time::Duration::ZERO;
        let mut tentative = 0;
        while let Some(event) = session.next_batch() {
            assert!(!event.tuples.is_empty(), "{}: empty event", engine.name());
            assert!(
                (0.0..=1.0).contains(&event.progress_estimate),
                "{}: progress {} out of range",
                engine.name(),
                event.progress_estimate
            );
            assert!(
                event.progress_estimate >= last_progress,
                "{}: progress regressed",
                engine.name()
            );
            assert!(
                event.elapsed >= last_elapsed,
                "{}: elapsed regressed",
                engine.name()
            );
            last_progress = event.progress_estimate;
            last_elapsed = event.elapsed;
            if !event.proven_final {
                tentative += 1;
            }
        }
        if engine.name() != "ssmj" {
            assert_eq!(
                tentative,
                0,
                "{}: unexpected tentative batch",
                engine.name()
            );
        }
        let _ = session.finish();
    }
}

/// The acceptance scenario: `take(k)` on a 10k-row anti-correlated
/// workload returns exactly the first k emitted tuples and demonstrably
/// stops before full execution — fewer regions processed, fewer join pairs
/// evaluated, fewer dominance tests than a full run.
#[test]
fn take_k_terminates_early_on_10k_anticorrelated() {
    let w = WorkloadSpec::new(10_000, 2, Distribution::AntiCorrelated, 0.002)
        .with_seed(77)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let exec = ProgXe::new(
        ProgXeConfig::default()
            .with_input_partitions(6)
            .with_output_cells(48),
    );

    let full = exec.run_collect(&r, &t, &maps).unwrap();
    assert!(
        full.results.len() > 20,
        "anti-correlated workload should have a large skyline, got {}",
        full.results.len()
    );

    let k = 10;
    let partial = exec.session(&r, &t, &maps).unwrap().take(k);

    // Exactly the first k tuples, in emission order.
    assert_eq!(partial.results.len(), k);
    assert_eq!(&full.results[..k], &partial.results[..]);

    // And the executor really stopped: strictly less work than a full run.
    assert!(partial.stats.cancelled);
    assert!(partial.stats.regions_skipped > 0);
    assert!(
        partial.stats.regions_processed < full.stats.regions_processed,
        "regions: {} !< {}",
        partial.stats.regions_processed,
        full.stats.regions_processed
    );
    assert!(
        partial.stats.join_pairs_evaluated < full.stats.join_pairs_evaluated,
        "join pairs: {} !< {}",
        partial.stats.join_pairs_evaluated,
        full.stats.join_pairs_evaluated
    );
    assert!(
        partial.stats.dominance_tests < full.stats.dominance_tests,
        "dominance tests: {} !< {}",
        partial.stats.dominance_tests,
        full.stats.dominance_tests
    );
}

/// `take(k)` through every engine returns a prefix of that engine's own
/// full emission order.
#[test]
fn take_k_is_a_prefix_for_every_engine() {
    let w = WorkloadSpec::new(300, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(5)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    for engine in engines() {
        let full = engine.run_collect(&r, &t, &maps).unwrap();
        let k = 3.min(full.results.len());
        let partial = engine.open(&r, &t, &maps).unwrap().take(k);
        assert_eq!(partial.results.len(), k, "{}", engine.name());
        assert_eq!(
            &full.results[..k],
            &partial.results[..],
            "{}: take(k) is not a prefix",
            engine.name()
        );
    }
}

/// A cancelled session stops every engine before (baselines) or during
/// (ProgXe) execution.
#[test]
fn cancellation_stops_every_engine() {
    let w = WorkloadSpec::new(500, 2, Distribution::Independent, 0.02)
        .with_seed(9)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    for engine in engines() {
        let mut session = engine.open(&r, &t, &maps).unwrap();
        session.cancel();
        assert!(session.next_batch().is_none(), "{}", engine.name());
        let stats = session.finish();
        assert!(stats.cancelled, "{}", engine.name());
        assert_eq!(stats.results_emitted, 0, "{}", engine.name());
    }
}

/// A shared token cancels a ProgXe run mid-flight: fired by a consumer
/// holding only a clone of the token, after the first batch, it stops the
/// region loop at the next boundary.
#[test]
fn shared_token_interrupts_sink_adapter() {
    let w = WorkloadSpec::new(2_000, 2, Distribution::AntiCorrelated, 0.01)
        .with_seed(13)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let exec = ProgXe::new(ProgXeConfig::default());
    let token = CancellationToken::new();
    let mut session = exec
        .session_with_token(&r, &t, &maps, token.clone())
        .unwrap();
    let mut batches = 0;
    while session.next_batch().is_some() {
        batches += 1;
        token.cancel();
    }
    let stats = session.finish();
    assert_eq!(batches, 1, "cancelled after the first batch");
    assert!(stats.cancelled);
    assert!(stats.regions_skipped > 0, "remaining regions were skipped");
}

/// Regression (progress normalization): `QuerySession::next_batch` clamps
/// `progress_estimate` to `[0, 1]` and makes it monotone non-decreasing —
/// even when the underlying engine reports garbage (negative, > 1, NaN,
/// or regressing values).
#[test]
fn progress_estimates_are_clamped_and_monotone() {
    use progxe::core::session::QuerySession;
    use std::time::Duration;

    let raw = [-0.5, 0.2, f64::NAN, 7.0, 0.4, f64::INFINITY];
    let mut session = QuerySession::deferred("rogue", move || {
        let events = raw
            .iter()
            .map(|&p| ResultEvent {
                tuples: vec![ResultTuple {
                    r_idx: 0,
                    t_idx: 0,
                    values: vec![0.0],
                }],
                proven_final: true,
                progress_estimate: p,
                elapsed: Duration::ZERO,
            })
            .collect();
        (events, ExecStats::default())
    });
    let mut seen = Vec::new();
    while let Some(event) = session.next_batch() {
        seen.push(event.progress_estimate);
    }
    assert_eq!(seen.len(), raw.len());
    let mut last = 0.0;
    for (i, &p) in seen.iter().enumerate() {
        assert!((0.0..=1.0).contains(&p), "event {i}: {p} out of range");
        assert!(p >= last, "event {i}: progress regressed ({p} < {last})");
        last = p;
    }
    // NaN degrades to the previous value; 7.0 clamps to the 1.0 ceiling.
    assert_eq!(seen[2], seen[1]);
    assert_eq!(seen[3], 1.0);
    assert_eq!(seen[4], 1.0, "monotonicity holds after the ceiling");
}

/// Mid-run statistics snapshots: available without consuming the session,
/// and coherent with the final numbers.
#[test]
fn stats_snapshot_mid_run_is_coherent() {
    let w = WorkloadSpec::new(600, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(21)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let exec = ProgXe::new(ProgXeConfig::default());
    let mut session = exec.session(&r, &t, &maps).unwrap();
    assert!(session.next_batch().is_some());
    let mid = session.stats_snapshot();
    assert!(mid.results_emitted > 0);
    assert!(
        !mid.cancelled,
        "snapshot must not flag a live run cancelled"
    );
    while session.next_batch().is_some() {}
    let fin = session.finish();
    assert!(fin.results_emitted >= mid.results_emitted);
    assert!(fin.regions_processed >= mid.regions_processed);
}
