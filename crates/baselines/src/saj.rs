//! SAJ — a Fagin/threshold-style skyline-over-join algorithm.
//!
//! The paper describes SAJ only as "extended the popular Fagin technique
//! \[15\] following the JF-SL paradigm" (Section VI-A) and gives no
//! pseudo-code, so this is our own reconstruction of a sound variant:
//!
//! * each source keeps one list per output dimension, sorted ascending by
//!   the *oriented* local component score `g_j`;
//! * lists are consumed round-robin (Fagin-style sorted access); a tuple is
//!   *seen* when encountered in any list, and newly seen tuples are
//!   immediately equi-joined against all seen tuples of the other source;
//! * after each round, a **virtual threshold point** lower-bounds the
//!   output of any join pair involving an unseen tuple:
//!   `τ_j = min(frontier_R[j] + min_T[j], min_R[j] + frontier_T[j])`
//!   (sorted lists bound unseen tuples by the frontier; the partner is
//!   bounded by its global minimum). If some already-generated result
//!   dominates `τ`, no unseen pair can ever enter the skyline — sorted
//!   access stops;
//! * the skyline of all generated pairs is output as one batch (SAJ is
//!   blocking, like all JF-SL-paradigm methods).
//!
//! Requires separable maps (as does any per-source sorted access); falls
//! back to plain JF-SL otherwise.

use crate::common::{results_from, BaselineStats, JoinedOutput, SkyAlgo};
use crate::jfsl::jfsl;
use progxe_core::fxhash::FxHashMap;
use progxe_core::mapping::MapSet;
use progxe_core::sink::ResultSink;
use progxe_core::source::SourceView;
use progxe_skyline::{bnl::BnlWindow, PointStore, Preference};
use std::time::Instant;

/// Oriented local scores + sorted per-dimension access lists of one source.
struct SortedSource {
    scores: PointStore,
    /// One list per dimension: row ids sorted ascending by that score.
    lists: Vec<Vec<u32>>,
    /// Per-dimension global minimum score.
    mins: Vec<f64>,
    /// Current position in each list.
    pos: Vec<usize>,
    seen: Vec<bool>,
    seen_count: usize,
    /// Seen rows grouped by join key (for incremental joining).
    seen_by_key: FxHashMap<u32, Vec<u32>>,
}

impl SortedSource {
    fn build(src: &SourceView<'_>, maps: &MapSet, is_r: bool) -> Option<Self> {
        let n = src.len();
        let k = maps.out_dims();
        let orders = maps.preference().orders();
        let mut scores = PointStore::with_capacity(k, n);
        let mut buf = Vec::with_capacity(k);
        let mut oriented = vec![0.0; k];
        for row in 0..n {
            let ok = if is_r {
                maps.r_components(src.attrs_of(row), &mut buf)
            } else {
                maps.t_components(src.attrs_of(row), &mut buf)
            };
            if !ok {
                return None;
            }
            for (j, (&v, o)) in buf.iter().zip(orders).enumerate() {
                oriented[j] = o.orient(v);
            }
            scores.push(&oriented);
        }
        let mut lists = Vec::with_capacity(k);
        let mut mins = Vec::with_capacity(k);
        for j in 0..k {
            let mut list: Vec<u32> = (0..n as u32).collect();
            list.sort_by(|&a, &b| {
                scores
                    .value(a as usize, j)
                    .total_cmp(&scores.value(b as usize, j))
            });
            mins.push(
                list.first()
                    .map_or(f64::INFINITY, |&row| scores.value(row as usize, j)),
            );
            lists.push(list);
        }
        Some(Self {
            scores,
            lists,
            mins,
            pos: vec![0; k],
            seen: vec![false; n],
            seen_count: 0,
            seen_by_key: FxHashMap::default(),
        })
    }

    fn len(&self) -> usize {
        self.seen.len()
    }

    fn exhausted(&self) -> bool {
        self.seen_count == self.len()
    }

    /// Advances every list one step; returns rows newly seen this round.
    fn advance(&mut self, src: &SourceView<'_>) -> Vec<u32> {
        let mut fresh = Vec::new();
        for j in 0..self.lists.len() {
            while self.pos[j] < self.lists[j].len() {
                let row = self.lists[j][self.pos[j]];
                self.pos[j] += 1;
                if !self.seen[row as usize] {
                    self.seen[row as usize] = true;
                    self.seen_count += 1;
                    self.seen_by_key
                        .entry(src.join_key_of(row as usize))
                        .or_default()
                        .push(row);
                    fresh.push(row);
                    break;
                }
                // Already seen through another list: move to the next entry
                // so each round contributes one *new* tuple per list.
            }
        }
        fresh
    }

    /// Frontier value of dimension `j`: a lower bound on `g_j` of every
    /// unseen tuple.
    fn frontier(&self, j: usize) -> f64 {
        let list = &self.lists[j];
        if self.pos[j] >= list.len() {
            f64::INFINITY
        } else {
            self.scores.value(list[self.pos[j]] as usize, j)
        }
    }
}

/// Reusable buffers for pair materialization.
struct PairScratch {
    raw: Vec<f64>,
    oriented: Vec<f64>,
}

/// Materializes one join pair: map, record, and offer to the threshold
/// window (oriented).
#[allow(clippy::too_many_arguments)]
fn push_pair(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
    orders: &[progxe_skyline::Order],
    r_row: u32,
    t_row: u32,
    out: &mut JoinedOutput,
    window: &mut BnlWindow<()>,
    scratch: &mut PairScratch,
) {
    maps.eval_into(
        r.attrs_of(r_row as usize),
        t.attrs_of(t_row as usize),
        &mut scratch.raw,
    );
    out.points.push(&scratch.raw);
    out.ids.push((r_row, t_row));
    for (j, (&v, o)) in scratch.raw.iter().zip(orders).enumerate() {
        scratch.oriented[j] = o.orient(v);
    }
    window.offer(&scratch.oriented, ());
}

/// Runs SAJ. Emits one batch at the end; `stats.accessed_*` report how much
/// of each source the threshold allowed it to skip.
pub fn saj<S: ResultSink + ?Sized>(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
    algo: SkyAlgo,
    sink: &mut S,
) -> BaselineStats {
    let start = Instant::now();
    let (Some(mut sr), Some(mut st)) = (
        SortedSource::build(r, maps, true),
        SortedSource::build(t, maps, false),
    ) else {
        // Non-separable maps: no sorted access possible — JF-SL fallback.
        return jfsl(r, t, maps, algo, sink);
    };

    let k = maps.out_dims();
    let orders = maps.preference().orders().to_vec();
    let pref_min = Preference::all_lowest(k);
    let mut out = JoinedOutput::new(k);
    // Window over *oriented* outputs for the threshold test.
    let mut window: BnlWindow<()> = BnlWindow::new(pref_min.clone());
    let mut scratch = PairScratch {
        raw: Vec::with_capacity(k),
        oriented: vec![0.0; k],
    };
    let mut stats = BaselineStats::default();

    let mut tau = vec![0.0f64; k];
    while !(sr.exhausted() && st.exhausted()) {
        let fresh_r = sr.advance(r);
        let fresh_t = st.advance(t);
        // Join fresh R rows against all seen T rows (which already include
        // this round's fresh T rows). Fresh T rows are then joined only
        // against previously-seen R rows, so fresh×fresh pairs appear
        // exactly once.
        let prev_seen_r: FxHashMap<u32, Vec<u32>> = {
            let mut m = sr.seen_by_key.clone();
            for &row in &fresh_r {
                if let Some(v) = m.get_mut(&r.join_key_of(row as usize)) {
                    v.retain(|&x| x != row);
                }
            }
            m
        };
        for &r_row in &fresh_r {
            let key = r.join_key_of(r_row as usize);
            let Some(partners) = st.seen_by_key.get(&key) else {
                continue;
            };
            for &t_row in partners {
                push_pair(
                    r,
                    t,
                    maps,
                    &orders,
                    r_row,
                    t_row,
                    &mut out,
                    &mut window,
                    &mut scratch,
                );
            }
        }
        for &t_row in &fresh_t {
            let key = t.join_key_of(t_row as usize);
            let Some(partners) = prev_seen_r.get(&key) else {
                continue;
            };
            for &r_row in partners {
                push_pair(
                    r,
                    t,
                    maps,
                    &orders,
                    r_row,
                    t_row,
                    &mut out,
                    &mut window,
                    &mut scratch,
                );
            }
        }

        // Threshold: can any unseen-involved pair still matter?
        for (j, tj) in tau.iter_mut().enumerate() {
            *tj = (sr.frontier(j) + st.mins[j]).min(sr.mins[j] + st.frontier(j));
        }
        if tau.iter().all(|v| v.is_finite()) && window.is_dominated(&tau) {
            break;
        }
    }

    stats.accessed_r = sr.seen_count;
    stats.accessed_t = st.seen_count;
    stats.join_matches = out.len() as u64;
    // The threshold stop above is Pareto-based and stays sound under a
    // flexible model: a generated pair that Pareto-dominates τ also
    // F-dominates every unseen-involved pair (Pareto ⇒ F-dominance), so
    // none of them can enter the F-skyline either. The final pass then
    // runs under the query's model.
    let sky = algo.run_model(&out.points, maps);
    stats.dominance_tests = sky.stats.dominance_tests + window.stats().dominance_tests;
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
    use progxe_core::sink::CollectSink;
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

    #[test]
    fn matches_oracle() {
        let r = random_source(120, 2, 5, 1);
        let t = random_source(120, 2, 5, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let mut sink = CollectSink::default();
        let stats = saj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(sorted_ids(&sink.results), expected);
        assert_eq!(stats.results as usize, expected.len());
    }

    #[test]
    fn matches_oracle_3d() {
        let r = random_source(90, 3, 4, 3);
        let t = random_source(90, 3, 4, 4);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let mut sink = CollectSink::default();
        saj(&r.view(), &t.view(), &maps, SkyAlgo::Sfs, &mut sink);
        assert_eq!(sorted_ids(&sink.results), expected);
    }

    #[test]
    fn correlated_data_stops_early() {
        // Strongly correlated data: the best few tuples dominate the rest,
        // so the threshold must fire long before the sources are exhausted.
        let mut r = SourceData::new(2);
        let mut t = SourceData::new(2);
        for i in 0..500 {
            let v = i as f64;
            r.push(&[v, v + 0.5], 0);
            t.push(&[v, v + 0.25], 0);
        }
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = CollectSink::default();
        let stats = saj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert!(
            stats.accessed_r < 500 && stats.accessed_t < 500,
            "no early stop: accessed {}x{}",
            stats.accessed_r,
            stats.accessed_t
        );
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        assert_eq!(sorted_ids(&sink.results), expected);
    }

    #[test]
    fn anti_correlated_data_scans_most() {
        let mut r = SourceData::new(2);
        let mut t = SourceData::new(2);
        for i in 0..100 {
            let v = i as f64;
            r.push(&[v, 100.0 - v], 0);
            t.push(&[v, 100.0 - v], 0);
        }
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = CollectSink::default();
        let stats = saj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        assert_eq!(sorted_ids(&sink.results), expected);
        assert_eq!(
            stats.accessed_r, 100,
            "anti-correlated defeats the threshold"
        );
    }

    #[test]
    fn mixed_directions_match_oracle() {
        use progxe_skyline::Order;
        let r = random_source(80, 2, 4, 5);
        let t = random_source(80, 2, 4, 6);
        let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let mut sink = CollectSink::default();
        saj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(sorted_ids(&sink.results), expected);
    }

    #[test]
    fn empty_source() {
        let r = SourceData::new(2);
        let t = random_source(10, 2, 2, 7);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut sink = CollectSink::default();
        let stats = saj(&r.view(), &t.view(), &maps, SkyAlgo::Bnl, &mut sink);
        assert_eq!(stats.results, 0);
    }
}
