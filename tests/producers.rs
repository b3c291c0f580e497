//! Differential suite for the two row producers of the tuple-level join
//! (`tuple_level::join_region`).
//!
//! Contract under test: compiling separable maps to per-row component
//! slabs changes *how* a join match is mapped — one add per dimension over
//! two per-row constants instead of one `eval` call per match — and nothing
//! else. The same weighted sums hidden inside `GeneralMap`s (not separable,
//! so the per-match producer runs) and handed over plainly (columnar
//! producer) give the same `ResultEvent` sequence — ids, value bits, order,
//! batch boundaries — and the same logical work, for closed relations and
//! streaming ingestion, on `Inline` and on `Pooled` with 2 and 4 workers,
//! under Pareto and a flexible model. Only the columnar producer can skip
//! key groups unexpanded (nothing bounds a non-separable map), so the
//! matches it produces and the dominance tests it spends are fewer; what it
//! produces and what it skips add up to what the per-match producer maps.

mod common;

use common::{batch_stream, ingest_stream};
use progxe::core::ingest::StreamSpec;
use progxe::core::mapping::{GeneralMap, MappingFunction, WeightedSum};
use progxe::core::prelude::*;
use progxe::datagen::{simplex_band, Distribution, WorkloadSpec};

/// Output `j` mixes two R attributes with one T attribute, a constant and a
/// negative weight — sums whose rounding depends on the order of addition.
fn weighted_sums(dims: usize) -> Vec<WeightedSum> {
    (0..dims)
        .map(|j| {
            let mut rw = vec![0.0; dims];
            let mut tw = vec![0.0; dims];
            rw[j] = 1.0;
            rw[(j + 1) % dims] += 0.3;
            tw[j] = 0.7;
            tw[(j + 1) % dims] -= 0.1;
            WeightedSum::new(rw, tw).with_constant(0.5 + j as f64)
        })
        .collect()
}

/// The sums as they are (`separable`) or each behind a `GeneralMap` that
/// forwards `eval` and `eval_bounds` and hides the components.
fn map_set(dims: usize, separable: bool, orders: Vec<Order>, flexible: bool) -> MapSet {
    let maps: Vec<Box<dyn MappingFunction>> = weighted_sums(dims)
        .into_iter()
        .map(|sum| -> Box<dyn MappingFunction> {
            if separable {
                return Box::new(sum);
            }
            let bounds = sum.clone();
            Box::new(GeneralMap::new(
                sum.describe(),
                move |r: &[f64], t: &[f64]| sum.eval(r, t),
                move |rl: &[f64], rh: &[f64], tl: &[f64], th: &[f64]| {
                    bounds.eval_bounds(rl, rh, tl, th)
                },
            ))
        })
        .collect();
    let maps = MapSet::new(maps, Preference::new(orders)).unwrap();
    if !flexible {
        return maps;
    }
    let model = progxe::core::fdom::flexible_model(dims, simplex_band(dims, 0.5)).unwrap();
    maps.with_dominance(model).unwrap()
}

/// Asserts the work both producers must report alike, and the conservation
/// law between the columnar producer (`fast`, prunes) and the per-match one
/// (`slow`, cannot).
fn assert_same_work(fast: &ExecStats, slow: &ExecStats, flexible: bool, label: &str) {
    let alike = |s: &ExecStats| {
        [
            s.join_pairs_evaluated,
            s.join_probes,
            s.join_build_rows,
            s.results_emitted,
        ]
    };
    assert_eq!(alike(fast), alike(slow), "{label}");
    assert_eq!(slow.join_matches_skipped, 0, "{label}");
    assert_eq!(
        fast.join_matches + fast.join_matches_skipped,
        slow.join_matches,
        "{label}: matches not conserved"
    );
    // Under a flexible model a row the local F-filter dropped thanks to a
    // batch-mate the look-ahead now skips reaches the store instead (and
    // leaves through `filter_emitted`): more admits, same stream.
    if flexible {
        assert!(fast.tuples_inserted >= slow.tuples_inserted, "{label}");
    } else {
        assert_eq!(fast.tuples_inserted, slow.tuples_inserted, "{label}");
    }
}

#[test]
fn columnar_and_per_match_producers_emit_identical_streams() {
    let mut skipped = 0u64;
    for (dims, n, sigma) in [(2usize, 300usize, 0.03), (3, 250, 0.04), (4, 200, 0.06)] {
        // The generator's declared value range is [1, 100].
        let spec = StreamSpec::new(vec![0.0; dims], vec![101.0; dims]).unwrap();
        // Coarser grids above d = 2 keep the region count test-sized.
        let config = ProgXeConfig::default()
            .with_input_partitions(if dims == 2 { 3 } else { 2 })
            .with_output_cells([24, 16, 8][dims - 2]);
        for (dist, seed) in [
            (Distribution::Correlated, 5u64),
            (Distribution::Independent, 1701),
            (Distribution::AntiCorrelated, 42),
        ] {
            let w = WorkloadSpec::new(n, dims, dist, sigma)
                .with_seed(seed)
                .generate();
            let mut mixed = vec![Order::Lowest; dims];
            mixed[0] = Order::Highest;
            for (model, orders, flexible) in [
                ("pareto", mixed, false),
                ("flexible", vec![Order::Lowest; dims], true),
            ] {
                let columnar = map_set(dims, true, orders.clone(), flexible);
                let per_match = map_set(dims, false, orders, flexible);
                for threads in [1usize, 2, 4] {
                    let label = format!("d={dims} {dist:?} {model} threads={threads}");

                    let (fast, fast_stats) = batch_stream(&config, &w, &columnar, threads, true);
                    let (slow, slow_stats) = batch_stream(&config, &w, &per_match, threads, true);
                    assert!(!fast.is_empty(), "{label}: nothing emitted");
                    assert_eq!(fast, slow, "{label}: batch stream moved");
                    assert_same_work(&fast_stats, &slow_stats, flexible, &label);
                    skipped += fast_stats.join_matches_skipped;

                    let (fast, fast_stats) =
                        ingest_stream(&config, &w, &columnar, &spec, threads, true, 5);
                    let (slow, slow_stats) =
                        ingest_stream(&config, &w, &per_match, &spec, threads, true, 5);
                    assert!(!fast.is_empty(), "{label}: nothing streamed");
                    assert_eq!(fast, slow, "{label}: ingest stream moved");
                    assert_same_work(&fast_stats, &slow_stats, flexible, &label);
                    skipped += fast_stats.join_matches_skipped;
                }
            }
        }
    }
    assert!(skipped > 0, "the columnar producer never pruned");
}
