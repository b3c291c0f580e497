//! SSMJ — the Skyline-Sort-Merge-Join of Jin et al. (ICDE 2007), as
//! characterized in Section VI-A of the paper.
//!
//! Per source, SSMJ maintains two active lists:
//!
//! * `LS(S)` — the *source-level* skyline (ignoring the join condition);
//! * `LS(N)` — the *group-level* skyline per join-attribute value, minus
//!   tuples already in `LS(S)`.
//!
//! Tuples in neither list are dominated within their own join group and can
//! never contribute (safe under separable monotone maps). Evaluation then
//! proceeds in four join phases; results are reported in **two batches**:
//!
//! 1. `LS(S) ⋈ LS(S)` — batch 1: the skyline of these results is output as
//!    soon as the phase completes;
//! 2. `LS(S) ⋈ LS(N)`, `LS(N) ⋈ LS(S)`, `LS(N) ⋈ LS(N)` — the final batch
//!    at the end of query evaluation.
//!
//! The paper's Section VII criticism is reproduced measurably: with mapping
//! functions, batch-1 results are **not** guaranteed final (cross-source
//! trade-offs can dominate them later). [`crate::BaselineStats::batch1_false_positives`]
//! counts how many batch-1 tuples the final skyline disowns. The *final*
//! result set is always correct: the last phase recomputes the skyline over
//! all generated candidates.
//!
//! When a mapping function is not separable, the lists degenerate to "all
//! tuples" and SSMJ behaves like JF-SL with a single batch.

use crate::common::{hash_join_into, results_from, BaselineStats, JoinedOutput, SkyAlgo};
use progxe_core::fxhash::FxHashSet;
use progxe_core::mapping::MapSet;
use progxe_core::pushthrough::{push_through, Side};
use progxe_core::sink::ResultSink;
use progxe_core::source::SourceView;
use progxe_skyline::{bnl_skyline, PointStore, Preference};
use std::time::Instant;

/// Per-source active lists.
#[derive(Debug)]
struct ActiveLists {
    /// Rows in the source-level skyline.
    ls_s: Vec<u32>,
    /// Rows in a group-level skyline but not the source-level one.
    ls_n: Vec<u32>,
    /// Rows dropped entirely (group-dominated).
    pruned: usize,
}

/// Builds `LS(S)` / `LS(N)` from local component scores; `None` when the
/// maps are not separable for this side. The group-level skylines are
/// push-through's survivors (join partners come from `partner`), so a
/// tuple leaves both lists only when a same-key tuple dominates it by a
/// gap no partner's add rounds away.
fn build_lists(
    src: &SourceView<'_>,
    partner: &SourceView<'_>,
    maps: &MapSet,
    side: Side,
    stats: &mut BaselineStats,
) -> Option<ActiveLists> {
    let survivors = push_through(src, partner, maps, side)?;
    let n = src.len();
    let k = maps.out_dims();
    let pref = Preference::new(maps.preference().orders().to_vec());
    let mut scores = PointStore::with_capacity(k, n);
    let mut buf = Vec::with_capacity(k);
    for row in 0..n {
        match side {
            Side::R => maps.r_components(src.attrs_of(row), &mut buf),
            Side::T => maps.t_components(src.attrs_of(row), &mut buf),
        };
        scores.push(&buf);
    }

    // Source-level skyline (ignoring the join attribute).
    let source_sky = bnl_skyline(&scores, &pref);
    stats.dominance_tests += source_sky.stats.dominance_tests;
    let in_ls_s: FxHashSet<u32> = source_sky.indices.iter().map(|&i| i as u32).collect();
    let ls_n: Vec<u32> = survivors
        .iter()
        .copied()
        .filter(|row| !in_ls_s.contains(row))
        .collect();
    let mut ls_s: Vec<u32> = in_ls_s.into_iter().collect();
    ls_s.sort_unstable();
    Some(ActiveLists {
        pruned: n - ls_s.len() - ls_n.len(),
        ls_s,
        ls_n,
    })
}

/// Runs SSMJ. Emits batch 1 at the end of phase 1 and the remaining final
/// results at the end; returns counters including the batch-1 false
/// positives (Section VII's unsoundness-under-maps observation).
pub fn ssmj<S: ResultSink + ?Sized>(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
    algo: SkyAlgo,
    sink: &mut S,
) -> BaselineStats {
    let start = Instant::now();
    let mut stats = BaselineStats::default();

    let (r_lists, t_lists) = match (
        build_lists(r, t, maps, Side::R, &mut stats),
        build_lists(t, r, maps, Side::T, &mut stats),
    ) {
        (Some(a), Some(b)) => (a, b),
        // Non-separable maps: degenerate to a single all-tuples list.
        _ => {
            stats.dominance_tests = 0;
            (
                ActiveLists {
                    ls_s: (0..r.len() as u32).collect(),
                    ls_n: Vec::new(),
                    pruned: 0,
                },
                ActiveLists {
                    ls_s: (0..t.len() as u32).collect(),
                    ls_n: Vec::new(),
                    pruned: 0,
                },
            )
        }
    };
    stats.pruned_r = r_lists.pruned;
    stats.pruned_t = t_lists.pruned;

    // Phase 1: LS(S) ⋈ LS(S) — batch 1 output.
    let mut all = JoinedOutput::new(maps.out_dims());
    hash_join_into(
        r,
        t,
        r_lists.ls_s.iter().copied(),
        t_lists.ls_s.iter().copied(),
        maps,
        &mut all,
    );
    let phase1_sky = algo.run_model(&all.points, maps);
    stats.dominance_tests += phase1_sky.stats.dominance_tests;
    let batch1 = results_from(&all, &phase1_sky.indices);
    let batch1_ids: FxHashSet<(u32, u32)> = batch1.iter().map(|x| (x.r_idx, x.t_idx)).collect();
    stats.batch1_results = batch1.len() as u64;
    if !batch1.is_empty() {
        sink.emit_batch(&batch1);
    }
    stats.first_batch_time = Some(start.elapsed());

    // Phase 2: the remaining three list combinations.
    hash_join_into(
        r,
        t,
        r_lists.ls_s.iter().copied(),
        t_lists.ls_n.iter().copied(),
        maps,
        &mut all,
    );
    hash_join_into(
        r,
        t,
        r_lists.ls_n.iter().copied(),
        t_lists.ls_s.iter().copied(),
        maps,
        &mut all,
    );
    hash_join_into(
        r,
        t,
        r_lists.ls_n.iter().copied(),
        t_lists.ls_n.iter().copied(),
        maps,
        &mut all,
    );
    stats.join_matches = all.len() as u64;

    // Final skyline over every generated candidate (correct result set,
    // under the query's dominance model).
    let final_sky = algo.run_model(&all.points, maps);
    stats.dominance_tests += final_sky.stats.dominance_tests;
    let final_ids: FxHashSet<(u32, u32)> = final_sky
        .indices
        .iter()
        .map(|&i| (all.ids[i].0, all.ids[i].1))
        .collect();
    stats.results = final_ids.len() as u64;
    stats.batch1_false_positives = batch1_ids
        .iter()
        .filter(|id| !final_ids.contains(id))
        .count() as u64;

    let second_batch: Vec<_> = final_sky
        .indices
        .iter()
        .filter(|&&i| !batch1_ids.contains(&(all.ids[i].0, all.ids[i].1)))
        .copied()
        .collect();
    let second = results_from(&all, &second_batch);
    if !second.is_empty() {
        sink.emit_batch(&second);
    }
    stats.total_time = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{oracle_smj, sorted_ids};
    use progxe_core::sink::{CollectSink, ProgressSink};
    use progxe_core::source::SourceData;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_source(n: usize, dims: usize, keys: u32, seed: u64) -> SourceData {
        let mut s = SourceData::new(dims);
        let mut st = seed;
        let mut row = vec![0.0; dims];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = (lcg(&mut st) % 1000) as f64 / 10.0;
            }
            s.push(&row, (lcg(&mut st) % keys as u64) as u32);
        }
        s
    }

    /// SSMJ's *union of emitted batches* must cover the true skyline, and
    /// the final-skyline stat must match the oracle exactly.
    #[test]
    fn final_results_match_oracle() {
        let r = random_source(150, 2, 5, 1);
        let t = random_source(150, 2, 5, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let mut sink = CollectSink::default();
        let stats = ssmj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(stats.results as usize, expected.len());
        // Emitted ⊇ oracle; surplus = batch-1 false positives.
        let emitted = sorted_ids(&sink.results);
        for id in &expected {
            assert!(emitted.contains(id), "missing {id:?}");
        }
        assert_eq!(
            emitted.len(),
            expected.len() + stats.batch1_false_positives as usize
        );
    }

    #[test]
    fn two_batches_at_two_times() {
        let r = random_source(200, 2, 3, 3);
        let t = random_source(200, 2, 3, 4);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = ProgressSink::new();
        let stats = ssmj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert!(
            sink.records.len() <= 2,
            "SSMJ reports in at most two batches"
        );
        assert!(stats.first_batch_time.unwrap() <= stats.total_time);
    }

    #[test]
    fn group_pruning_is_safe() {
        // Tuples dominated within their join group must not change results.
        let r = random_source(100, 3, 2, 5);
        let t = random_source(100, 3, 2, 6);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let mut sink = CollectSink::default();
        let stats = ssmj(&r.view(), &t.view(), &maps, SkyAlgo::Sfs, &mut sink);
        assert!(stats.pruned_r > 0, "expected group pruning on 100×3d×2keys");
        let emitted = sorted_ids(&sink.results);
        for id in &expected {
            assert!(emitted.contains(id));
        }
    }

    /// The paper's Section VII claim, made executable: under mapping
    /// functions, SSMJ's first batch can contain tuples that the final
    /// skyline disowns. Construction: the batch-1 pair (0,10)+(10,0) =
    /// (10,10) is later dominated by the phase-2 pair (2,2)+(1,1) = (3,3),
    /// whose R-side tuple (2,2) is only group-level (it is source-dominated
    /// by (1,1) of a *different* join key, so it sits in LS(N), not LS(S)).
    #[test]
    fn batch1_false_positives_exist_under_maps() {
        let r = SourceData::from_rows(2, &[(&[0.0, 10.0], 0), (&[1.0, 1.0], 0), (&[2.0, 2.0], 1)]);
        let t = SourceData::from_rows(2, &[(&[10.0, 0.0], 0), (&[1.0, 1.0], 1)]);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = CollectSink::default();
        let stats = ssmj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(
            stats.batch1_false_positives, 1,
            "expected exactly one batch-1 false positive, stats: {stats:?}"
        );
        // Final result set is still correct.
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        for id in &expected {
            assert!(sorted_ids(&sink.results).contains(id));
        }
    }

    #[test]
    fn empty_inputs() {
        let r = SourceData::new(2);
        let t = random_source(10, 2, 2, 7);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = CollectSink::default();
        let stats = ssmj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(stats.results, 0);
        assert!(sink.results.is_empty());
    }
}
