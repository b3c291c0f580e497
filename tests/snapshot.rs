//! Differential suite for worker-side rejection against the admitted-tuple
//! forest (`CellStore::admitted`, filtered in the shared batch-compute
//! path of `tuple_level` / `ingest`).
//!
//! Contract under test: handing work units the forest snapshot (the
//! *guard*) moves *where* a dominated tuple is rejected — on the worker,
//! most of them before their key group is even expanded (the key-group
//! look-ahead asks the same forest),
//! instead of inside `CellStore::insert` on the ordered committer — and
//! nothing else. The `ResultEvent` sequence (ids, value bits, order, batch
//! boundaries) is identical with the filter on and off, for Pareto and
//! flexible models, closed relations and streaming ingestion, `Inline` and
//! `Pooled`; the region commit order does not move either; and non-finite
//! mapped values neither panic nor prune anything the store would have
//! admitted.

mod common;

use common::{batch_stream, batch_stream_commits, ingest_stream};
use progxe::core::config::OrderingPolicy;
use progxe::core::ingest::StreamSpec;
use progxe::core::mapping::{GeneralMap, MappingFunction};
use progxe::core::prelude::*;
use progxe::datagen::{simplex_band, Distribution, SmjWorkload, WorkloadSpec};

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

/// Closed relations: filter on ≡ filter off, event for event, on Inline
/// and on Pooled with 2 and 4 workers, under the origin-first order and a
/// seeded shuffle, across distributions, dimensionalities and seeds.
#[test]
fn snapshot_filter_is_invisible_in_the_batch_event_stream() {
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
                        (OrderingPolicy::Random { seed: 0x5EED }, 2),
                    ],
                ),
                (
                    1701,
                    [
                        (OrderingPolicy::ProgOrder, 1),
                        (OrderingPolicy::ProgOrder, 4),
                        (OrderingPolicy::Random { seed: 0x5EED }, 1),
                    ],
                ),
            ] {
                let w = WorkloadSpec::new(n, dims, dist, sigma)
                    .with_seed(seed)
                    .generate();
                for (model, maps) in models(dims) {
                    for (ordering, threads) in arrangements {
                        // Coarser grids above d = 2 keep the region count
                        // (partitions^2d) and the tracked cells (cells^d)
                        // test-sized.
                        let config = ProgXeConfig::default()
                            .with_input_partitions(if dims == 2 { 3 } else { 2 })
                            .with_output_cells([24, 16, 8][dims - 2])
                            .with_ordering(ordering);
                        let (on, on_stats) = batch_stream(&config, &w, &maps, threads, true);
                        let (off, off_stats) = batch_stream(&config, &w, &maps, threads, false);
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
                        assert_admits(&on_stats, &off_stats, model, &label);
                        assert_matches_conserved(&on_stats, &off_stats, &label);
                        filtered_somewhere |=
                            on_stats.tuples_prefiltered > off_stats.tuples_prefiltered;
                    }
                }
            }
        }
    }
    assert!(filtered_somewhere, "the snapshot filter never fired");

    // At a size where key groups are worth skipping, most of them are.
    let w = WorkloadSpec::new(2_000, 3, Distribution::AntiCorrelated, 0.1)
        .with_seed(5)
        .generate();
    let config = ProgXeConfig::default();
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let (on, on_stats) = batch_stream(&config, &w, &maps, 1, true);
    let (off, off_stats) = batch_stream(&config, &w, &maps, 1, false);
    assert_eq!(on, off, "d=3 N=2000: event stream moved");
    assert_admits(&on_stats, &off_stats, "pareto", "d=3 N=2000");
    assert_matches_conserved(&on_stats, &off_stats, "d=3 N=2000");
    assert!(
        on_stats.join_matches_skipped > off_stats.join_matches / 2,
        "only {} of {} matches skipped unexpanded",
        on_stats.join_matches_skipped,
        off_stats.join_matches
    );
}

/// Admits with the guard on against the reference arrangement. Equal under
/// Pareto: the look-ahead and the snapshot filter drop what the store would
/// have rejected. Under a flexible model the local filter drops by
/// F-dominance but the guard tests by Pareto, so a row that used to be
/// F-dropped thanks to a batch-mate the look-ahead now skips can reach the
/// store — where `filter_emitted` removes it before emission.
fn assert_admits(on: &ExecStats, off: &ExecStats, model: &str, label: &str) {
    let (on, off) = (on.tuples_inserted, off.tuples_inserted);
    let holds = if model == "pareto" {
        on == off
    } else {
        on >= off
    };
    assert!(
        holds,
        "{label}: admits differ ({on} vs {off}) — the guard dropped something \
         the store would have admitted"
    );
}

/// Produced + skipped matches with the guard on are exactly the matches the
/// reference arrangement produces, and only the guard skips.
fn assert_matches_conserved(on: &ExecStats, off: &ExecStats, label: &str) {
    assert_eq!(off.join_matches_skipped, 0, "{label}: skipped unguarded");
    assert_eq!(
        on.join_matches + on.join_matches_skipped,
        off.join_matches,
        "{label}: matches not conserved"
    );
    assert!(on.tuples_prefiltered >= on.join_matches_skipped, "{label}");
}

/// Streaming ingestion: the same invariance on the readiness-gated path
/// (window 1, `RegionCtx::compute` on either backend).
#[test]
fn snapshot_filter_is_invisible_in_the_ingest_event_stream() {
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
                    let (on, on_stats) = ingest_stream(&config, &w, &maps, &spec, threads, true, 6);
                    let (off, off_stats) =
                        ingest_stream(&config, &w, &maps, &spec, threads, false, 6);
                    assert!(!on.is_empty(), "{label}: nothing emitted");
                    assert_eq!(on, off, "{label} threads={threads}: event stream moved");
                    assert_admits(&on_stats, &off_stats, model, &label);
                    assert_matches_conserved(&on_stats, &off_stats, &label);
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
/// an event). Back then the pooled workers' local pre-filter dropped tuples
/// the inline streaming insert rejected itself, which moved the moment a
/// cell was lazily *found* dead; the order of cells inside a `ResultEvent`
/// is ascending grid coordinate and cannot observe that.
#[test]
fn ingest_streams_agree_across_backends_whatever_the_local_filter_drops() {
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
            let (inline, _) = ingest_stream(&config, &w, &maps, &spec, 1, true, 6);
            let (pooled, _) = ingest_stream(&config, &w, &maps, &spec, 2, true, 6);
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

/// The arrangement matrix: Inline and Pooled(2), each with the guard on
/// and off, emit one `Stream`, bit for bit, on 90 inputs. The arrangements
/// differ in which dominated tuples reach the store at all — a batch
/// filtered against a staler slab, or against none, hands the committer
/// tuples a fresher guard drops upstream — and so in the moment a cell is
/// lazily found dead; cells inside an event come out in ascending grid
/// coordinate and a cell's tuples in the admission order of its survivors,
/// so neither can observe that. The inputs make the store admit
/// *transient* tuples (admitted, dominated before their cell is
/// released), so the release's order is exercised too. With eviction replayed as
/// `swap_remove`s (before the key-group look-ahead PR) the since-deleted
/// streaming insert ≠ the batch arrangement on 16 of these inputs, and
/// Inline ≠ Pooled(2) on d = 4 AntiCorrelated seed 3.
#[test]
fn every_arrangement_emits_the_same_stream() {
    let mut transient_somewhere = false;
    for (dims, n, sigma) in [(2usize, 600usize, 0.03), (3, 500, 0.04), (4, 400, 0.06)] {
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let config = ProgXeConfig::default()
            .with_input_partitions(if dims == 2 { 3 } else { 2 })
            .with_output_cells([24, 16, 8][dims - 2]);
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::AntiCorrelated,
        ] {
            for seed in [1u64, 2, 3, 5, 7, 11, 13, 21, 34, 88] {
                let w = WorkloadSpec::new(n, dims, dist, sigma)
                    .with_seed(seed)
                    .generate();
                let run =
                    |threads: usize, guard: bool| batch_stream(&config, &w, &maps, threads, guard);
                let (reference, reference_stats) = run(1, false);
                assert!(!reference.is_empty(), "d={dims} {dist:?} seed={seed}");
                transient_somewhere |= reference_stats.tuples_evicted > 0;
                for (name, threads, guard) in [
                    ("inline guarded", 1, true),
                    ("pooled unguarded", 2, false),
                    ("pooled guarded", 2, true),
                ] {
                    let (stream, _) = run(threads, guard);
                    assert_eq!(
                        reference, stream,
                        "d={dims} {dist:?} seed={seed}: {name} ≠ inline unguarded"
                    );
                }
            }
        }
    }
    assert!(
        transient_somewhere,
        "no transient tuple: the matrix compared nothing"
    );
}

/// The guard does not move the *schedule* either: the region commit order
/// — the `commit` spans of a recorder — is the same with upstream
/// rejection on and off, and strictly ascending in the origin-first order
/// ([`origin_first_ranks`]), inline and pooled. The 16 × 400 grid is fine
/// enough that the paper's elimination graph has roots, so a schedule that
/// ranked them would reorder it.
#[test]
fn region_commit_order_does_not_observe_the_guard() {
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let config = ProgXeConfig::default()
        .with_input_partitions(16)
        .with_output_cells(400);
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        for seed in [5u64, 1701] {
            let w = WorkloadSpec::new(600, 2, dist, 0.03)
                .with_seed(seed)
                .generate();
            for threads in [1usize, 2] {
                let label = format!("{dist:?} seed={seed} threads={threads}");
                let (on, on_stats, on_commits) =
                    batch_stream_commits(&config, &w, &maps, threads, true);
                let (off, _, off_commits) =
                    batch_stream_commits(&config, &w, &maps, threads, false);
                assert_eq!(on, off, "{label}: event stream moved");
                assert!(on_commits.len() > 10, "{label}: too few commits");
                assert_eq!(on_commits, off_commits, "{label}: commit order moved");
                assert!(on_stats.tuples_prefiltered > 0, "{label}: guard idle");
                let rank = origin_first_ranks(&config, &w, &maps);
                assert!(
                    on_commits
                        .windows(2)
                        .all(|w| rank[w[0] as usize] < rank[w[1] as usize]),
                    "{label}: commit order is not origin first"
                );
            }
        }
    }
}

/// Each region's position in the origin-first order of `ProgOrder`: by the
/// coordinate sum of its oriented lower corner, then the corner
/// lexicographically, then its id. Written for finite corners, which
/// these inputs have.
fn origin_first_ranks(config: &ProgXeConfig, w: &SmjWorkload, maps: &MapSet) -> Vec<usize> {
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
    let prep = ProgXe::new(config.clone())
        .prepare(&r, &t, maps, CancellationToken::new())
        .unwrap();
    let regions = prep.ctx.expect("a non-trivial run").regions().to_vec();
    assert!(regions.iter().flat_map(|r| &r.lo).all(|v| v.is_finite()));
    let key = |i: usize| {
        let lo = &regions[i].lo;
        (lo.iter().fold(0.0, |s, v| s + v), lo.clone(), i)
    };
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap());
    let mut rank = vec![0; regions.len()];
    for (position, &region) in order.iter().enumerate() {
        rank[region] = position;
    }
    rank
}

/// NaN and ±∞ mapped values reach the slab and the filter. The kernels
/// treat a NaN coordinate as a tie, which is not transitive, so NaN rows
/// are kept out of the slab and NaN candidates are never tested against
/// it; ±∞ order normally. Either way the stream equals the filter-off
/// reference and nothing panics.
#[test]
fn non_finite_mapped_values_neither_prune_wrongly_nor_panic() {
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
        // The default grid, committed origin first: the poisoned corner's
        // batches meet the forest as it stands when their region comes up.
        let config = ProgXeConfig::default();
        for threads in [1usize, 2] {
            let (on, on_stats) = batch_stream(&config, &w, &maps, threads, true);
            let (off, off_stats) = batch_stream(&config, &w, &maps, threads, false);
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

/// One pinned run: a label, the FNV-1a hash of its events, its
/// `results_emitted`, and its store counters `[inserted, rejected
/// dominated, rejected dead cell, evicted]`.
type Pin = (&'static str, u64, u64, [u64; 4]);

/// The pinned transcripts of [`emission_matches_the_pinned_stream_hashes`].
#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("join seed=7 threads=1 pt=false", 0x8fbb7b84a7376ca3, 326, [382, 0, 0, 56]),
    ("join seed=7 threads=1 pt=true", 0x1fb896d8bea276ce, 326, [379, 0, 0, 53]),
    ("join seed=7 threads=2 pt=false", 0x325b2ce44f1ac86c, 326, [382, 4, 6, 56]),
    ("join seed=7 threads=2 pt=true", 0x8e091d83d9f80aac, 326, [379, 8, 6, 53]),
    ("join seed=448 threads=1 pt=false", 0x39a3937f32d17193, 257, [338, 0, 0, 81]),
    ("join seed=448 threads=1 pt=true", 0x0a5d67815d1a0242, 257, [335, 0, 0, 78]),
    ("join seed=448 threads=2 pt=false", 0xbaaab3e5e1243b29, 257, [338, 13, 9, 81]),
    ("join seed=448 threads=2 pt=true", 0xa1629a046e680c3d, 257, [335, 13, 15, 78]),
    ("small seed=7 threads=1 pt=false", 0x639b482d35e2a83e, 15, [15, 0, 0, 0]),
    ("small seed=7 threads=1 pt=true", 0xc9514c165b4be5d7, 15, [15, 0, 0, 0]),
    ("small seed=7 threads=2 pt=false", 0x7b9b84ae4acc743c, 15, [15, 5, 12, 0]),
    ("small seed=7 threads=2 pt=true", 0xf6bd3704a4f93ceb, 15, [15, 4, 11, 0]),
    ("small seed=448 threads=1 pt=false", 0xa101e345ac9b1573, 13, [14, 0, 0, 1]),
    ("small seed=448 threads=1 pt=true", 0xbb1ea7988c103d9c, 13, [14, 0, 0, 1]),
    ("small seed=448 threads=2 pt=false", 0x8a048e87b8b7decf, 13, [14, 0, 5, 1]),
    ("small seed=448 threads=2 pt=true", 0xe1c82055ad9c9534, 13, [14, 2, 5, 1]),
    ("commit seed=7 threads=1 pt=false", 0x4e358c1d2cd4ecbe, 684, [801, 0, 0, 117]),
    ("commit seed=7 threads=1 pt=true", 0x4fbc3549969d8a99, 684, [800, 0, 0, 116]),
    ("commit seed=7 threads=2 pt=false", 0x3979193eed23c9f4, 684, [801, 21, 4, 117]),
    ("commit seed=7 threads=2 pt=true", 0xe0d58c97bc86f301, 684, [800, 23, 4, 116]),
    ("commit seed=448 threads=1 pt=false", 0xb1cabe63d53f7d0f, 744, [878, 0, 0, 134]),
    ("commit seed=448 threads=1 pt=true", 0xb109d79b08fd5e89, 744, [874, 0, 0, 130]),
    ("commit seed=448 threads=2 pt=false", 0x03b4c575fd0e0c1e, 744, [878, 18, 2, 134]),
    ("commit seed=448 threads=2 pt=true", 0x9da6d8d1fd898a40, 744, [874, 13, 2, 130]),
    ("stream seed=7 threads=1 pt=false", 0x6752e5d458e3c8e3, 85, [96, 0, 0, 11]),
    ("stream seed=7 threads=1 pt=true", 0x66b635b389a62daa, 85, [95, 0, 0, 10]),
    ("stream seed=7 threads=2 pt=false", 0x17ef09c391370a6c, 85, [96, 14, 32, 11]),
    ("stream seed=7 threads=2 pt=true", 0xd5813987e498d931, 85, [95, 10, 13, 10]),
    ("stream seed=448 threads=1 pt=false", 0xa2e34da7844c46a4, 102, [111, 0, 0, 9]),
    ("stream seed=448 threads=1 pt=true", 0xa466fa09e89b38e6, 102, [112, 0, 0, 10]),
    ("stream seed=448 threads=2 pt=false", 0x210b249369bddd72, 102, [111, 11, 12, 9]),
    ("stream seed=448 threads=2 pt=true", 0x6fbf532fbfb6dddf, 102, [112, 15, 14, 10]),
    ("ingest threads=1", 0x78f7d1567b1df61d, 85, [96, 0, 0, 11]),
    ("ingest threads=2", 0x78f7d1567b1df61d, 85, [96, 0, 0, 11]),
    ("flexible threads=1", 0x7f0f7f7e26b34264, 16, [105, 0, 0, 12]),
    ("flexible threads=2", 0x7f0f7f7e26b34264, 16, [105, 1, 4, 12]),
];

/// FNV-1a over every event in order: its progress estimate's bits, its
/// length, then each tuple's ids and value bits — so ids, values, order,
/// batch boundaries and progress all move the hash.
fn events_hash(events: &[ResultEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for event in events {
        word(event.progress_estimate.to_bits());
        word(event.tuples.len() as u64);
        for x in &event.tuples {
            word(u64::from(x.r_idx) << 32 | u64::from(x.t_idx));
            x.values.iter().for_each(|v| word(v.to_bits()));
        }
    }
    hash
}

/// Emission pinned across refactors of the committer: the event stream of
/// fixed inputs, hashed, must equal the recorded one. The inputs are the
/// benchmark workloads' shapes (dimensionality, distribution, σ and grid;
/// the one-shot inputs at a fifth of their rows, so that a debug run stays
/// short) at seeds 7 and 448, on Inline and Pooled(2), with push-through
/// off and on; the streaming feed's shape through an ingest session on
/// each backend; and a flexible query of `tests/fdom.rs`. The store's
/// counters are pinned as well: a Pooled unit filters against the forest
/// as of its dispatch, a fixed point of the pop/commit sequence, so its
/// counters are as deterministic as Inline's. On a mismatch the message
/// carries the whole computed table.
#[test]
fn emission_matches_the_pinned_stream_hashes() {
    let grid = |dims: usize| match dims {
        2 => (6, 48),
        3 => (3, 24),
        _ => (2, 12),
    };
    let config = |dims: usize, sigma: f64| {
        let (p, k) = grid(dims);
        ProgXeConfig::default()
            .with_input_partitions(p)
            .with_output_cells(k)
            .with_selectivity_hint(sigma)
    };
    let pin = |label: String, (events, stats): (Vec<ResultEvent>, ExecStats)| {
        let counters = [
            stats.tuples_inserted,
            stats.tuples_rejected_dominated,
            stats.tuples_rejected_dead_cell,
            stats.tuples_evicted,
        ];
        assert!(!events.is_empty(), "{label}: nothing emitted");
        (label, events_hash(&events), stats.results_emitted, counters)
    };
    let mut got = Vec::new();
    for (shape, rows, dims, dist, sigma) in [
        ("join", 2_000, 3usize, Distribution::AntiCorrelated, 0.1),
        ("small", 2_000, 2, Distribution::Independent, 0.01),
        ("commit", 2_000, 4, Distribution::AntiCorrelated, 0.01),
        ("stream", 1_000, 3, Distribution::Independent, 0.1),
    ] {
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        for seed in [7u64, 448] {
            let w = WorkloadSpec::new(rows, dims, dist, sigma)
                .with_seed(seed)
                .generate();
            for threads in [1usize, 2] {
                for push_through in [false, true] {
                    let config = config(dims, sigma).with_push_through(push_through);
                    let label = format!("{shape} seed={seed} threads={threads} pt={push_through}");
                    let run = common::batch_events(&config, &w, &maps, threads, true, None);
                    got.push(pin(label, run));
                }
            }
        }
    }
    // The streaming feed: 1 000 rows a side in 20 pushes each.
    let w = WorkloadSpec::new(1_000, 3, Distribution::Independent, 0.1)
        .with_seed(7)
        .generate();
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let spec = StreamSpec::new(vec![0.0; 3], vec![101.0; 3]).unwrap();
    for threads in [1usize, 2] {
        let run = common::ingest_events(&config(3, 0.1), &w, &maps, &spec, threads, true, 20);
        got.push(pin(format!("ingest threads={threads}"), run));
    }
    // `tests/fdom.rs`' bit-identity query.
    let w = WorkloadSpec::new(400, 3, Distribution::AntiCorrelated, 0.03)
        .with_seed(11)
        .generate();
    let (_, flexible) = models(3).pop().unwrap();
    for threads in [1usize, 2] {
        let run =
            common::batch_events(&ProgXeConfig::default(), &w, &flexible, threads, true, None);
        got.push(pin(format!("flexible threads={threads}"), run));
    }

    let table: String = got
        .iter()
        .map(|(label, hash, emitted, counters)| {
            format!("    (\"{label}\", {hash:#018x}, {emitted}, {counters:?}),\n")
        })
        .collect();
    let matches = got.len() == PINNED.len()
        && (got.iter().zip(PINNED)).all(|(g, p)| (g.0.as_str(), g.1, g.2, g.3) == *p);
    assert!(matches, "emission moved; computed:\n{table}");
}
