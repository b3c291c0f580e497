//! JF-SL and JF-SL+: the traditional blocking plan (Figure 1.b).
//!
//! "The traditional approach is to view skyline processing independent from
//! join evaluation. … the skyline operation has to wait until all join
//! results have been generated and inspected to even begin to generate a
//! skyline result over them." JF-SL therefore produces exactly one output
//! batch, at the very end — the yardstick for blocking behaviour.
//!
//! JF-SL+ applies skyline partial push-through (group-level, map-aware —
//! see [`progxe_core::pushthrough`]) to each source before the join.

use crate::common::{hash_join_into, results_from, BaselineStats, JoinedOutput, SkyAlgo};
use progxe_core::mapping::MapSet;
use progxe_core::pushthrough::{push_through, Side};
use progxe_core::sink::ResultSink;
use progxe_core::source::SourceView;
use std::time::Instant;

/// Runs JF-SL: join-first, skyline-later, one batch at the end.
pub fn jfsl<S: ResultSink + ?Sized>(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
    algo: SkyAlgo,
    sink: &mut S,
) -> BaselineStats {
    run(r, t, maps, algo, false, sink)
}

/// Runs JF-SL+: push-through pruning on both sources, then JF-SL.
pub fn jfsl_plus<S: ResultSink + ?Sized>(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
    algo: SkyAlgo,
    sink: &mut S,
) -> BaselineStats {
    run(r, t, maps, algo, true, sink)
}

fn run<S: ResultSink + ?Sized>(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
    algo: SkyAlgo,
    push: bool,
    sink: &mut S,
) -> BaselineStats {
    let start = Instant::now();
    let mut stats = BaselineStats::default();

    let (r_rows, t_rows) = if push {
        let kr = push_through(r, t, maps, Side::R).unwrap_or_else(|| (0..r.len() as u32).collect());
        let kt = push_through(t, r, maps, Side::T).unwrap_or_else(|| (0..t.len() as u32).collect());
        stats.pruned_r = r.len() - kr.len();
        stats.pruned_t = t.len() - kt.len();
        (kr, kt)
    } else {
        (
            (0..r.len() as u32).collect::<Vec<_>>(),
            (0..t.len() as u32).collect::<Vec<_>>(),
        )
    };

    let mut out = JoinedOutput::new(maps.out_dims());
    hash_join_into(
        r,
        t,
        r_rows.iter().copied(),
        t_rows.iter().copied(),
        maps,
        &mut out,
    );
    stats.join_matches = out.len() as u64;

    let sky = algo.run_model(&out.points, maps);
    stats.dominance_tests = sky.stats.dominance_tests;
    let results = results_from(&out, &sky.indices);
    stats.results = results.len() as u64;
    if !results.is_empty() {
        sink.emit_batch(&results);
    }
    stats.first_batch_time = Some(start.elapsed());
    stats.total_time = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{oracle_smj, sorted_ids};
    use progxe_core::sink::{CollectSink, ProgressSink};
    use progxe_core::source::SourceData;
    use progxe_skyline::Preference;

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

    #[test]
    fn jfsl_matches_oracle_all_algorithms() {
        let r = random_source(120, 2, 6, 1);
        let t = random_source(120, 2, 6, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        for algo in [SkyAlgo::Bnl, SkyAlgo::Sfs] {
            let mut sink = CollectSink::default();
            let stats = jfsl(&r.view(), &t.view(), &maps, algo, &mut sink);
            assert_eq!(sorted_ids(&sink.results), expected, "algo {algo:?}");
            assert_eq!(stats.results as usize, expected.len());
        }
    }

    #[test]
    fn jfsl_plus_matches_jfsl() {
        let r = random_source(150, 3, 4, 3);
        let t = random_source(150, 3, 4, 4);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let mut plain = CollectSink::default();
        let mut plus = CollectSink::default();
        jfsl(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut plain);
        let stats = jfsl_plus(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut plus);
        assert_eq!(sorted_ids(&plain.results), sorted_ids(&plus.results));
        assert!(stats.pruned_r + stats.pruned_t > 0, "pruning should bite");
    }

    #[test]
    fn jfsl_is_blocking_single_batch() {
        let r = random_source(80, 2, 4, 5);
        let t = random_source(80, 2, 4, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = ProgressSink::new();
        jfsl(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(sink.records.len(), 1, "exactly one batch, at the end");
    }

    #[test]
    fn empty_join_emits_nothing() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[1.0], 1)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut sink = CollectSink::default();
        let stats = jfsl(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert!(sink.results.is_empty());
        assert_eq!(stats.join_matches, 0);
    }
}
