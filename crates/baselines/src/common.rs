//! Shared plumbing for the baselines: join materialization, skyline
//! dispatch, counters, and the test oracle.

use progxe_core::fxhash::FxHashMap;
use progxe_core::mapping::MapSet;
use progxe_core::source::SourceView;
use progxe_core::stats::ResultTuple;
use progxe_skyline::{
    bnl_skyline, bnl_skyline_under, naive_skyline, sfs_skyline, sfs_skyline_under, PointStore,
    Preference, SkylineResult,
};
use std::time::Duration;

/// Which single-set skyline algorithm a baseline uses for its final pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkyAlgo {
    /// Block-nested-loops (the classic default).
    #[default]
    Bnl,
    /// Sort-filter-skyline.
    Sfs,
}

impl SkyAlgo {
    /// Runs the selected algorithm.
    pub fn run(self, store: &PointStore, pref: &Preference) -> SkylineResult {
        match self {
            SkyAlgo::Bnl => bnl_skyline(store, pref),
            SkyAlgo::Sfs => sfs_skyline(store, pref),
        }
    }

    /// Runs the selected algorithm under the query's [`MapSet`] dominance
    /// model. Pareto queries take the historical path unchanged; under a
    /// flexible model both algorithms run **natively** on the model (BNL
    /// needs a strict partial order, SFS a presort key that is a linear
    /// extension of it).
    pub fn run_model(self, store: &PointStore, maps: &MapSet) -> SkylineResult {
        if maps.dominance().is_pareto() {
            return self.run(store, maps.preference());
        }
        let view = maps.dominance_view();
        match self {
            SkyAlgo::Bnl => bnl_skyline_under(store, &view),
            SkyAlgo::Sfs => sfs_skyline_under(store, &view),
        }
    }
}

/// Counters shared by all baseline runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineStats {
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Time of the first output batch (for SSMJ: end of phase 1; for the
    /// blocking baselines this equals `total_time`).
    pub first_batch_time: Option<Duration>,
    /// Join results materialized (after any pruning).
    pub join_matches: u64,
    /// Pairwise dominance tests performed.
    pub dominance_tests: u64,
    /// Tuples pruned from R by source pre-processing (JF-SL+/SSMJ lists).
    pub pruned_r: usize,
    /// Tuples pruned from T by source pre-processing.
    pub pruned_t: usize,
    /// Results emitted (final skyline size).
    pub results: u64,
    /// SSMJ only: size of the first output batch.
    pub batch1_results: u64,
    /// SSMJ only: batch-1 tuples later found dominated — the unsoundness
    /// under mapping functions the paper points out in Section VII.
    pub batch1_false_positives: u64,
}

/// Materialized, mapped join output: raw values plus originating row ids.
#[derive(Debug, Default)]
pub struct JoinedOutput {
    /// Mapped output values (raw orientation), one row per join match.
    pub points: PointStore,
    /// `(r_idx, t_idx)` per row.
    pub ids: Vec<(u32, u32)>,
}

impl JoinedOutput {
    /// Creates an empty output buffer for `dims` output attributes.
    pub fn new(dims: usize) -> Self {
        Self {
            points: PointStore::new(dims),
            ids: Vec::new(),
        }
    }

    /// Number of join matches.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no match was produced.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Hash-joins `r ⋈ t` on the join key over the given row subsets, mapping
/// each match into `out`.
pub fn hash_join_into(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    r_rows: impl Iterator<Item = u32>,
    t_rows: impl Iterator<Item = u32> + Clone,
    maps: &MapSet,
    out: &mut JoinedOutput,
) {
    let mut table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for row in r_rows {
        table
            .entry(r.join_key_of(row as usize))
            .or_default()
            .push(row);
    }
    let mut buf = Vec::with_capacity(maps.out_dims());
    for t_row in t_rows {
        let Some(matches) = table.get(&t.join_key_of(t_row as usize)) else {
            continue;
        };
        for &r_row in matches {
            maps.eval_into(
                r.attrs_of(r_row as usize),
                t.attrs_of(t_row as usize),
                &mut buf,
            );
            out.points.push(&buf);
            out.ids.push((r_row, t_row));
        }
    }
}

/// Converts skyline indices over a [`JoinedOutput`] into result tuples.
pub fn results_from(out: &JoinedOutput, indices: &[usize]) -> Vec<ResultTuple> {
    indices
        .iter()
        .map(|&i| ResultTuple {
            r_idx: out.ids[i].0,
            t_idx: out.ids[i].1,
            values: out.points.point(i).to_vec(),
        })
        .collect()
}

/// Reference answer: full nested-loop join + naive skyline under the
/// query's dominance model (Pareto by default, F-dominance for flexible
/// queries). The correctness oracle for every algorithm in the workspace.
pub fn oracle_smj(r: &SourceView<'_>, t: &SourceView<'_>, maps: &MapSet) -> Vec<ResultTuple> {
    let mut out = JoinedOutput::new(maps.out_dims());
    let mut buf = Vec::new();
    for ri in 0..r.len() {
        for ti in 0..t.len() {
            if r.join_key_of(ri) != t.join_key_of(ti) {
                continue;
            }
            maps.eval_into(r.attrs_of(ri), t.attrs_of(ti), &mut buf);
            out.points.push(&buf);
            out.ids.push((ri as u32, ti as u32));
        }
    }
    let sky = if maps.dominance().is_pareto() {
        naive_skyline(&out.points, maps.preference())
    } else {
        progxe_skyline::naive_skyline_under(&out.points, &maps.dominance_view())
    };
    let mut res = results_from(&out, &sky.indices);
    res.sort_by_key(|x| (x.r_idx, x.t_idx));
    res
}

/// Sorts result ids — convenience for set comparisons in tests.
pub fn sorted_ids(results: &[ResultTuple]) -> Vec<(u32, u32)> {
    let mut ids: Vec<(u32, u32)> = results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use progxe_core::source::SourceData;

    #[test]
    fn hash_join_matches_keys_only() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 1)]);
        let t = SourceData::from_rows(1, &[(&[10.0], 1), (&[20.0], 2)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut out = JoinedOutput::new(1);
        hash_join_into(&r.view(), &t.view(), 0..2, 0..2, &maps, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.ids, vec![(1, 0)]);
        assert_eq!(out.points.point(0), &[12.0]);
    }

    #[test]
    fn hash_join_row_subsets() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[10.0], 0)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let mut out = JoinedOutput::new(1);
        hash_join_into(
            &r.view(),
            &t.view(),
            std::iter::once(1u32),
            0..1,
            &maps,
            &mut out,
        );
        assert_eq!(out.ids, vec![(1, 0)]);
    }

    #[test]
    fn oracle_tiny() {
        let r = SourceData::from_rows(1, &[(&[1.0], 0), (&[5.0], 0)]);
        let t = SourceData::from_rows(1, &[(&[1.0], 0)]);
        let maps = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let res = oracle_smj(&r.view(), &t.view(), &maps);
        assert_eq!(sorted_ids(&res), vec![(0, 0)]);
    }

    #[test]
    fn run_model_agrees_across_algorithms_under_fdominance() {
        use progxe_core::fdom::{DominanceModel, FDominance, WeightConstraint};
        use progxe_skyline::naive_skyline_under;

        let mut rows = Vec::new();
        let mut x: u64 = 31;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % 100) as f64 / 10.0
        };
        for _ in 0..80 {
            rows.push([next(), next()]);
        }
        let store = PointStore::from_rows(2, rows.iter());
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.3),
                WeightConstraint::at_most(2, 0, 0.7),
            ],
        )
        .unwrap();
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2))
            .with_dominance(DominanceModel::flexible(fdom))
            .unwrap();
        let expected = naive_skyline_under(&store, &maps.dominance_view()).sorted_indices();
        let pareto = naive_skyline(&store, maps.preference()).sorted_indices();
        assert!(
            expected.len() < pareto.len(),
            "constraints should shrink the skyline ({} vs {})",
            expected.len(),
            pareto.len()
        );
        for algo in [SkyAlgo::Bnl, SkyAlgo::Sfs] {
            assert_eq!(
                algo.run_model(&store, &maps).sorted_indices(),
                expected,
                "{algo:?} diverged under the flexible model"
            );
        }
    }
}
