//! [`ProgressiveEngine`] implementations for the baselines.
//!
//! Every baseline becomes a first-class engine behind the same pull-based
//! [`QuerySession`] interface as ProgXe, which is what makes their
//! progressiveness directly comparable *and* lets the query layer dispatch
//! uniformly. The baselines are blocking by construction — nothing can be
//! emitted before their (final or, for SSMJ, phase-1) skyline pass — so
//! their sessions are *deferred*: the whole run executes at the first
//! `next_batch` call and its batches are then replayed with their original
//! timestamps. Cancelling a baseline session before the first pull skips
//! the run entirely.
//!
//! SSMJ's phase-1 batch is delivered with `proven_final = false`: under
//! mapping functions those tuples are not guaranteed to survive (the paper's
//! Section VII criticism), and the event stream makes that visible.

use crate::common::{BaselineStats, SkyAlgo};
use crate::jfsl::{jfsl, jfsl_plus};
use crate::ssmj::ssmj;
use progxe_core::error::Result;
use progxe_core::mapping::MapSet;
use progxe_core::session::{ProgressiveEngine, QuerySession, ResultEvent};
use progxe_core::sink::ResultSink;
use progxe_core::source::SourceView;
use progxe_core::stats::{ExecStats, ResultTuple};
use std::time::{Duration, Instant};

/// Converts a baseline's counters into the uniform [`ExecStats`] shape
/// reported by [`QuerySession::finish`]. Fields without a baseline
/// equivalent (grid/region counters) stay zero.
pub fn baseline_exec_stats(stats: &BaselineStats) -> ExecStats {
    ExecStats {
        total_time: stats.total_time,
        push_through_pruned_r: stats.pruned_r,
        push_through_pruned_t: stats.pruned_t,
        join_matches: stats.join_matches,
        dominance_tests: stats.dominance_tests,
        threads_used: 1,
        ..ExecStats::default()
    }
}

/// A sink recording each batch with its emission timestamp, for replay
/// through the pull interface.
struct Recorder {
    start: Instant,
    batches: Vec<(Vec<ResultTuple>, Duration)>,
}

impl Recorder {
    /// `start` is the session-open instant, so `ResultEvent::elapsed`
    /// means "time since open" exactly as it does for ProgXe sessions —
    /// including any gap between opening and the first pull.
    fn with_start(start: Instant) -> Self {
        Self {
            start,
            batches: Vec::new(),
        }
    }

    /// Converts the recording into session events plus final stats.
    /// `tentative_first` marks every batch before the last as not proven
    /// final (SSMJ's phase-1 semantics).
    fn into_events(
        self,
        stats: &BaselineStats,
        tentative_first: bool,
    ) -> (Vec<ResultEvent>, ExecStats) {
        let total: u64 = self.batches.iter().map(|(b, _)| b.len() as u64).sum();
        let n_batches = self.batches.len();
        let mut cumulative = 0u64;
        let events = self
            .batches
            .into_iter()
            .enumerate()
            .map(|(i, (tuples, elapsed))| {
                cumulative += tuples.len() as u64;
                ResultEvent {
                    tuples,
                    proven_final: !(tentative_first && i + 1 < n_batches),
                    progress_estimate: cumulative as f64 / total.max(1) as f64,
                    elapsed,
                }
            })
            .collect();
        let mut exec = baseline_exec_stats(stats);
        exec.results_emitted = total;
        (events, exec)
    }
}

impl ResultSink for Recorder {
    fn emit_batch(&mut self, batch: &[ResultTuple]) {
        self.batches.push((batch.to_vec(), self.start.elapsed()));
    }
}

/// JF-SL — the traditional blocking plan; with `push_through`, JF-SL+.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JfSlEngine {
    /// Skyline algorithm for the final pass.
    pub algo: SkyAlgo,
    /// Apply skyline partial push-through to each source (JF-SL+).
    pub push_through: bool,
}

impl JfSlEngine {
    /// Plain JF-SL with the given skyline algorithm.
    #[must_use]
    pub fn new(algo: SkyAlgo) -> Self {
        Self {
            algo,
            push_through: false,
        }
    }

    /// JF-SL+ (push-through pruning enabled).
    #[must_use]
    pub fn plus(algo: SkyAlgo) -> Self {
        Self {
            algo,
            push_through: true,
        }
    }
}

impl ProgressiveEngine for JfSlEngine {
    fn name(&self) -> &'static str {
        if self.push_through {
            "jf-sl+"
        } else {
            "jf-sl"
        }
    }

    fn open<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<QuerySession<'a>> {
        let (r, t, engine) = (*r, *t, *self);
        let opened = Instant::now();
        Ok(QuerySession::deferred(self.name(), move || {
            let mut recorder = Recorder::with_start(opened);
            let stats = if engine.push_through {
                jfsl_plus(&r, &t, maps, engine.algo, &mut recorder)
            } else {
                jfsl(&r, &t, maps, engine.algo, &mut recorder)
            };
            recorder.into_events(&stats, false)
        }))
    }
}

/// SSMJ — the two-batch baseline of Jin et al. (ICDE 2007).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SsmjEngine {
    /// Skyline algorithm for the batch passes.
    pub algo: SkyAlgo,
}

impl SsmjEngine {
    /// SSMJ with the given skyline algorithm.
    #[must_use]
    pub fn new(algo: SkyAlgo) -> Self {
        Self { algo }
    }
}

impl ProgressiveEngine for SsmjEngine {
    fn name(&self) -> &'static str {
        "ssmj"
    }

    fn open<'a>(
        &self,
        r: &SourceView<'a>,
        t: &SourceView<'a>,
        maps: &'a MapSet,
    ) -> Result<QuerySession<'a>> {
        let (r, t, algo) = (*r, *t, self.algo);
        let opened = Instant::now();
        Ok(QuerySession::deferred(self.name(), move || {
            let mut recorder = Recorder::with_start(opened);
            let stats = ssmj(&r, &t, maps, algo, &mut recorder);
            // Phase-1 results are not sound under mapping functions.
            let (events, mut exec) = recorder.into_events(&stats, true);
            exec.results_retracted = stats.batch1_false_positives;
            (events, exec)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{oracle_smj, sorted_ids};
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

    fn engines() -> Vec<Box<dyn ProgressiveEngine>> {
        vec![
            Box::new(JfSlEngine::new(SkyAlgo::Bnl)),
            Box::new(JfSlEngine::plus(SkyAlgo::Sfs)),
            Box::new(SsmjEngine::new(SkyAlgo::Bnl)),
        ]
    }

    #[test]
    fn sessions_match_collect_paths() {
        let r = random_source(150, 2, 5, 1);
        let t = random_source(150, 2, 5, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        for engine in engines() {
            let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
            let mut pulled = Vec::new();
            while let Some(event) = session.next_batch() {
                pulled.extend(event.tuples);
            }
            assert!(!session.finish().cancelled, "{}", engine.name());
            let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
            assert_eq!(out.results, pulled, "{}", engine.name());
            assert_eq!(out.stats.results_emitted as usize, out.results.len());
            assert!(!out.stats.cancelled);
        }
    }

    #[test]
    fn union_of_session_batches_covers_oracle() {
        let r = random_source(120, 2, 4, 3);
        let t = random_source(120, 2, 4, 4);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        for engine in engines() {
            let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
            let emitted = sorted_ids(&out.results);
            for id in &expected {
                assert!(emitted.contains(id), "{} missing {id:?}", engine.name());
            }
        }
    }

    #[test]
    fn all_baselines_compute_the_flexible_skyline() {
        use progxe_core::fdom::{DominanceModel, FDominance, WeightConstraint};
        let r = random_source(120, 2, 4, 11);
        let t = random_source(120, 2, 4, 12);
        let fdom = FDominance::new(
            2,
            vec![
                WeightConstraint::at_least(2, 0, 0.35),
                WeightConstraint::at_most(2, 0, 0.65),
            ],
        )
        .unwrap();
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2))
            .with_dominance(DominanceModel::flexible(fdom))
            .unwrap();
        let pareto_maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let expected = sorted_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let pareto = sorted_ids(&oracle_smj(&r.view(), &t.view(), &pareto_maps));
        assert!(
            expected.len() < pareto.len(),
            "weight constraints should shrink the answer ({} vs {})",
            expected.len(),
            pareto.len()
        );
        for engine in engines() {
            let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
            let mut emitted = sorted_ids(&out.results);
            emitted.dedup(); // SSMJ batch-1 may repeat final tuples
                             // Emitted must cover the F-skyline; surplus only from SSMJ's
                             // tentative batch 1.
            for id in &expected {
                assert!(emitted.contains(id), "{} missing {id:?}", engine.name());
            }
            if engine.name() != "ssmj" {
                assert_eq!(emitted, expected, "{}", engine.name());
            }
        }
    }

    #[test]
    fn ssmj_first_batch_is_tentative() {
        // The Section VII construction: batch 1 contains a tuple the final
        // skyline disowns, so the stream must not mark it proven final.
        let r = SourceData::from_rows(2, &[(&[0.0, 10.0], 0), (&[1.0, 1.0], 0), (&[2.0, 2.0], 1)]);
        let t = SourceData::from_rows(2, &[(&[10.0, 0.0], 0), (&[1.0, 1.0], 1)]);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session = SsmjEngine::new(SkyAlgo::Bnl)
            .open(&r.view(), &t.view(), &maps)
            .unwrap();
        let mut events = Vec::new();
        while let Some(event) = session.next_batch() {
            events.push(event);
        }
        assert_eq!(events.len(), 2, "construction yields two batches");
        assert!(!events[0].proven_final, "phase-1 batch is tentative");
        assert!(events[1].proven_final);
    }

    #[test]
    fn blocking_engines_emit_single_final_batch() {
        let r = random_source(100, 2, 4, 5);
        let t = random_source(100, 2, 4, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        for engine in [
            JfSlEngine::new(SkyAlgo::Bnl),
            JfSlEngine::plus(SkyAlgo::Sfs),
        ] {
            let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
            let event = session.next_batch().expect("one batch");
            assert!(event.proven_final);
            assert!((event.progress_estimate - 1.0).abs() < f64::EPSILON);
            assert!(session.next_batch().is_none());
        }
    }

    #[test]
    fn cancelled_baseline_session_does_no_work() {
        let r = random_source(100, 2, 4, 7);
        let t = random_source(100, 2, 4, 8);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let mut session = JfSlEngine::new(SkyAlgo::Bnl)
            .open(&r.view(), &t.view(), &maps)
            .unwrap();
        session.cancel();
        assert!(session.next_batch().is_none());
        let stats = session.finish();
        assert!(stats.cancelled);
        assert_eq!(stats.join_matches, 0, "join never ran");
    }

    #[test]
    fn take_one_from_baseline() {
        let r = random_source(100, 2, 4, 9);
        let t = random_source(100, 2, 4, 10);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let engine = JfSlEngine::new(SkyAlgo::Bnl);
        let full = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let out = engine.open(&r.view(), &t.view(), &maps).unwrap().take(1);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0], full.results[0]);
    }
}
