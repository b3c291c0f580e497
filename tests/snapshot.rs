//! Differential suite for worker-side rejection against the admitted-tuple
//! slab (`CellStore::admitted_slab`, filtered in the shared batch-compute
//! path of `tuple_level` / `ingest`).
//!
//! Contract under test: handing work units the slab snapshot moves *where*
//! a dominated tuple is rejected — on the worker instead of inside
//! `CellStore::insert` on the ordered committer — and nothing else. The
//! `ResultEvent` sequence (ids, value bits, order, batch boundaries) is
//! identical with the filter on and off, for Pareto and flexible models,
//! closed relations and streaming ingestion, `Inline` and `Pooled`; and
//! non-finite mapped values neither panic nor prune anything the store
//! would have admitted.

mod common;

use common::{backend, batch_stream, ingest_stream};
use progxe::core::config::OrderingPolicy;
use progxe::core::ingest::StreamSpec;
use progxe::core::mapping::{GeneralMap, MappingFunction};
use progxe::core::prelude::*;
use progxe::datagen::{simplex_band, Distribution, WorkloadSpec};
use progxe::runtime::EngineRuntime;

fn models(dims: usize) -> Vec<(&'static str, MapSet)> {
    let pareto = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let flexible = pareto
        .clone()
        .with_dominance(
            progxe::core::fdom::flexible_model(dims, simplex_band(dims, 0.5))
                .expect("band is non-empty"),
        )
        .unwrap();
    vec![("pareto", pareto), ("flexible", flexible)]
}

/// Closed relations: filter on ≡ filter off, event for event, on the
/// Inline batch path and on Pooled with 2 and 4 workers, under ProgOrder
/// (root-free fallback *and* real roots, depending on the grid) and a
/// static order, across distributions, dimensionalities and seeds.
#[test]
fn snapshot_filter_is_invisible_in_the_batch_event_stream() {
    let runtime2 = EngineRuntime::new(2);
    let runtime4 = EngineRuntime::new(4);
    let mut filtered_somewhere = false;
    for (dims, n, sigma) in [(2usize, 300usize, 0.03), (3, 250, 0.04), (4, 200, 0.06)] {
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::AntiCorrelated,
        ] {
            for (seed, arrangements) in [
                (
                    5u64,
                    [
                        (OrderingPolicy::ProgOrder, 1usize),
                        (OrderingPolicy::ProgOrder, 2),
                        (OrderingPolicy::Fifo, 2),
                    ],
                ),
                (
                    1701,
                    [
                        (OrderingPolicy::ProgOrder, 1),
                        (OrderingPolicy::ProgOrder, 4),
                        (OrderingPolicy::Fifo, 1),
                    ],
                ),
            ] {
                let w = WorkloadSpec::new(n, dims, dist, sigma)
                    .with_seed(seed)
                    .generate();
                for (model, maps) in models(dims) {
                    for (ordering, threads) in arrangements {
                        // prefilter_min_pairs = 0 routes every Inline
                        // region through the batch path the filter lives
                        // in. Coarser grids above d = 2 keep the region
                        // count (partitions^2d) and the tracked cells
                        // (cells^d) test-sized.
                        let config = ProgXeConfig::default()
                            .with_prefilter_min_pairs(0)
                            .with_input_partitions(if dims == 2 { 3 } else { 2 })
                            .with_output_cells([24, 16, 8][dims - 2])
                            .with_ordering(ordering);
                        let rt = if threads == 4 { &runtime4 } else { &runtime2 };
                        let (on, on_stats) =
                            batch_stream(&config, &w, &maps, backend(rt, threads), true);
                        let (off, off_stats) =
                            batch_stream(&config, &w, &maps, backend(rt, threads), false);
                        let label = format!(
                            "d={dims} {dist:?} seed={seed} {model} {ordering:?} threads={threads}"
                        );
                        assert!(!on.is_empty(), "{label}: nothing emitted");
                        assert_eq!(on, off, "{label}: event stream moved");
                        assert_eq!(on_stats.results_emitted, off_stats.results_emitted);
                        assert!(
                            on_stats.tuples_prefiltered >= off_stats.tuples_prefiltered,
                            "{label}: the filter can only add to the pre-filter count"
                        );
                        assert!(
                            on_stats.tuples_inserted == off_stats.tuples_inserted,
                            "{label}: admits differ ({} vs {}) — the filter dropped \
                             something the store would have admitted",
                            on_stats.tuples_inserted,
                            off_stats.tuples_inserted
                        );
                        filtered_somewhere |=
                            on_stats.tuples_prefiltered > off_stats.tuples_prefiltered;
                    }
                }
            }
        }
    }
    assert!(filtered_somewhere, "the snapshot filter never fired");
}

/// Streaming ingestion: the same invariance on the readiness-gated path
/// (window 1, `IngestCtx::compute` on Pooled, streaming insert on Inline).
#[test]
fn snapshot_filter_is_invisible_in_the_ingest_event_stream() {
    let runtime = EngineRuntime::new(2);
    let dims = 2;
    // The generator's declared value range is [1, 100].
    let spec = StreamSpec::new(vec![0.0; dims], vec![101.0; dims]).unwrap();
    let config = ProgXeConfig::default();
    let mut filtered_somewhere = false;
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        for seed in [3u64, 88] {
            let w = WorkloadSpec::new(300, dims, dist, 0.03)
                .with_seed(seed)
                .generate();
            for (model, maps) in models(dims) {
                let label = format!("{dist:?} seed={seed} {model}");
                for threads in [1usize, 2] {
                    let (on, on_stats) = ingest_stream(
                        &config,
                        &w,
                        &maps,
                        &spec,
                        backend(&runtime, threads),
                        true,
                        6,
                    );
                    let (off, off_stats) = ingest_stream(
                        &config,
                        &w,
                        &maps,
                        &spec,
                        backend(&runtime, threads),
                        false,
                        6,
                    );
                    assert!(!on.is_empty(), "{label}: nothing emitted");
                    assert_eq!(on, off, "{label} threads={threads}: event stream moved");
                    assert_eq!(on_stats.tuples_inserted, off_stats.tuples_inserted);
                    if threads == 1 {
                        // Inline ingest regions always stream-insert: the
                        // filter has no batch to run on and costs nothing.
                        assert_eq!(on_stats.tuples_prefiltered, 0, "{label}");
                        assert_eq!(on_stats.dominance_tests, off_stats.dominance_tests);
                    }
                    filtered_somewhere |=
                        on_stats.tuples_prefiltered > off_stats.tuples_prefiltered;
                }
            }
        }
    }
    assert!(
        filtered_somewhere,
        "the snapshot filter never fired on ingest"
    );
}

/// Inline ≡ Pooled on streaming ingestion, bit for bit, on the inputs that
/// used to diverge (ROADMAP item 7's counter-example: AntiCorrelated seeds
/// 3, 7, 13 and 88 emitted the same set with a different cell order inside
/// an event). The pooled workers' local pre-filter drops tuples the inline
/// streaming insert would have rejected itself, which moves the moment a
/// cell is lazily *found* dead; the order of cells inside a `ResultEvent`
/// is ascending grid coordinate and cannot observe that.
#[test]
fn ingest_streams_agree_across_backends_whatever_the_local_filter_drops() {
    let runtime = EngineRuntime::new(2);
    let dims = 2;
    let spec = StreamSpec::new(vec![0.0; dims], vec![101.0; dims]).unwrap();
    let config = ProgXeConfig::default();
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let mut multi_cell_events = 0usize;
    for dist in [
        Distribution::Independent,
        Distribution::AntiCorrelated,
        Distribution::Correlated,
    ] {
        for seed in [1u64, 2, 3, 5, 7, 11, 13, 21, 34, 88] {
            let w = WorkloadSpec::new(300, dims, dist, 0.03)
                .with_seed(seed)
                .generate();
            let (inline, _) =
                ingest_stream(&config, &w, &maps, &spec, backend(&runtime, 1), true, 6);
            let (pooled, _) =
                ingest_stream(&config, &w, &maps, &spec, backend(&runtime, 2), true, 6);
            assert!(!inline.is_empty(), "{dist:?} seed={seed}: nothing emitted");
            assert_eq!(inline, pooled, "{dist:?} seed={seed}: backends diverge");
            multi_cell_events += inline.iter().filter(|event| event.len() > 1).count();
        }
    }
    assert!(
        multi_cell_events > 0,
        "no event had an order to disagree on"
    );
}

/// NaN and ±∞ mapped values reach the slab and the filter. The kernels
/// treat a NaN coordinate as a tie, which is not transitive, so NaN rows
/// are kept out of the slab and NaN candidates are never tested against
/// it; ±∞ order normally. Either way the stream equals the filter-off
/// reference and nothing panics.
#[test]
fn non_finite_mapped_values_neither_prune_wrongly_nor_panic() {
    let runtime = EngineRuntime::new(2);
    // Independent: corner tuples get an arbitrary dimension-1 value, so
    // some of them are good enough to be admitted.
    let w = WorkloadSpec::new(400, 2, Distribution::Independent, 0.05)
        .with_seed(23)
        .generate();
    for (label, poison) in [
        ("nan", f64::NAN),
        ("+inf", f64::INFINITY),
        ("-inf", f64::NEG_INFINITY),
    ] {
        // Dimension 0 turns non-finite in one corner of the input space:
        // the corner whose regions' output boxes contain the grid slot a
        // NaN/−∞ (first) or +∞ (last) value lands in, so the tuple maps
        // into a tracked cell. Bounds stay the finite sum, so look-ahead
        // is unaffected.
        let high = poison == f64::INFINITY;
        let poisoned = GeneralMap::new(
            "poisoned-sum",
            move |r: &[f64], t: &[f64]| {
                let corner = if high {
                    r[0] > 85.0 && t[0] > 85.0
                } else {
                    r[0] < 15.0 && t[0] < 15.0
                };
                if corner {
                    poison
                } else {
                    r[0] + t[0]
                }
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
                Box::new(poisoned) as Box<dyn MappingFunction>,
                Box::new(plain),
            ],
            Preference::all_lowest(2),
        )
        .unwrap();
        // Fifo visits the low corner last, so its batches meet a full slab.
        let config = ProgXeConfig::default()
            .with_prefilter_min_pairs(0)
            .with_ordering(OrderingPolicy::Fifo);
        for threads in [1usize, 2] {
            let (on, on_stats) = batch_stream(&config, &w, &maps, backend(&runtime, threads), true);
            let (off, off_stats) =
                batch_stream(&config, &w, &maps, backend(&runtime, threads), false);
            assert_eq!(on, off, "{label} threads={threads}: stream moved");
            assert_eq!(on_stats.tuples_inserted, off_stats.tuples_inserted);
            assert!(
                on_stats.tuples_prefiltered > off_stats.tuples_prefiltered,
                "{label}: filter idle"
            );
            let poisoned_out = on
                .iter()
                .flatten()
                .filter(|(_, _, bits)| !f64::from_bits(bits[0]).is_finite())
                .count();
            // (−∞, y) beats every finite tuple with a larger y, so some are
            // emitted; (+∞, y) and — under NaN-as-tie — (NaN, y) lose to
            // any batch neighbour with a smaller y and rarely get this far
            // (the store-level property test in `tuple_level` drives those
            // into the slab deterministically).
            if poison == f64::NEG_INFINITY {
                assert!(poisoned_out > 0, "{label}: no non-finite tuple was emitted");
            }
        }
    }
}
