//! Correctness is part of the run: reference results computed once in
//! set-up, and the checks every measured op goes through.
//!
//! One-shot queries are checked against the blocking baseline
//! (`JF-SL` with BNL) run through the same query layer — an independent
//! engine over the same plan. Subscriptions are checked against an
//! in-process `StreamingQuery` fed the identical frames: the wire `Update`
//! sequence must match it batch for batch.

use crate::workload::{catalog, Feed, Inputs};
use progxe_core::ingest::IngestPoll;
use progxe_core::session::ResultEvent;
use progxe_query::{Engine, QueryRunner, StreamingQuery};
use progxe_server::{BatchFrame, DoneFrame, PushFrame, WireTuple};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The wire image of a session event (what `server` sends for it).
pub fn batch_frame(event: &ResultEvent) -> BatchFrame {
    BatchFrame {
        progress: event.progress_estimate,
        proven_final: event.proven_final,
        tuples: event
            .tuples
            .iter()
            .map(|t| WireTuple {
                r_idx: t.r_idx,
                t_idx: t.t_idx,
                values: t.values.clone(),
            })
            .collect(),
    }
}

/// The reference result of a one-shot query: `(r_idx, t_idx)` → values.
#[derive(Debug, Clone)]
pub struct ExpectedSet {
    pub pairs: HashMap<(u32, u32), Vec<f64>>,
}

impl ExpectedSet {
    /// Runs `sql` on the blocking baseline. Brute force is O(M²) over the
    /// join; BNL over the joined set is what keeps set-up under a second.
    pub fn compute(runner: &QueryRunner, sql: &str) -> Result<ExpectedSet, String> {
        let out = runner
            .run_collect(sql, &Engine::jfsl_bnl())
            .map_err(|e| format!("reference query failed: {e}"))?;
        let pairs = out
            .results
            .into_iter()
            .map(|t| ((t.r_idx, t.t_idx), t.values))
            .collect();
        Ok(ExpectedSet { pairs })
    }

    /// Checks one finished one-shot op: the streamed set equals the
    /// reference (no duplicate, nothing missing, nothing extra, same
    /// values), `Done.results` counts the tuples received, the query was
    /// not cancelled, and wire progress never went backwards.
    pub fn check(
        &self,
        tuples: &[WireTuple],
        progress: &[f64],
        done: &DoneFrame,
    ) -> Result<(), String> {
        if done.cancelled {
            return Err("Done reports a cancelled query".into());
        }
        if done.results != tuples.len() as u64 {
            return Err(format!(
                "Done.results {} but {} tuples received",
                done.results,
                tuples.len()
            ));
        }
        if tuples.len() != self.pairs.len() {
            return Err(format!(
                "{} tuples streamed, reference has {}",
                tuples.len(),
                self.pairs.len()
            ));
        }
        let mut seen = HashSet::with_capacity(tuples.len());
        for t in tuples {
            let key = (t.r_idx, t.t_idx);
            if !seen.insert(key) {
                return Err(format!("duplicate result {key:?}"));
            }
            match self.pairs.get(&key) {
                Some(values) if *values == t.values => {}
                Some(values) => {
                    return Err(format!(
                        "result {key:?}: values {:?}, reference {values:?}",
                        t.values
                    ))
                }
                None => return Err(format!("result {key:?} is not in the reference set")),
            }
        }
        check_progress(progress)
    }
}

fn check_progress(progress: &[f64]) -> Result<(), String> {
    match progress.windows(2).find(|w| w[1] < w[0]) {
        Some(w) => Err(format!("wire progress fell from {} to {}", w[0], w[1])),
        None => Ok(()),
    }
}

/// What one `Push` did to an in-process `StreamingQuery`.
#[derive(Debug, Clone)]
pub struct PushOutcome {
    /// Batches the push released, in order (progress-only ones included —
    /// the server forwards every one as an `Update`).
    pub batches: Vec<BatchFrame>,
    /// Time spent in `push` + `set_watermark` + `close`.
    pub push_ms: f64,
    /// Time spent draining what the push released.
    pub drain_ms: f64,
    /// Whether the drain ended with the query complete.
    pub completed: bool,
}

/// Applies one frame exactly as the server's push handler does: rows,
/// then watermark, then close, then drain until the session stalls.
pub fn apply_push(query: &mut StreamingQuery, frame: &PushFrame) -> Result<PushOutcome, String> {
    let started = Instant::now();
    let rows: Vec<(&[f64], u32)> = frame
        .rows
        .iter()
        .map(|r| (r.attrs.as_slice(), r.key))
        .collect();
    if !rows.is_empty() {
        query
            .push(frame.source, &rows)
            .map_err(|e| format!("push rejected: {e}"))?;
    }
    if let Some(wm) = &frame.watermark {
        query
            .set_watermark(frame.source, wm)
            .map_err(|e| format!("watermark rejected: {e}"))?;
    }
    if frame.close {
        query.close(frame.source);
    }
    let pushed = Instant::now();
    let mut batches = Vec::new();
    let completed = loop {
        match query.poll() {
            IngestPoll::Batch(event) => batches.push(batch_frame(&event)),
            IngestPoll::NeedInput => break false,
            IngestPoll::Complete => break true,
        }
    };
    Ok(PushOutcome {
        batches,
        push_ms: (pushed - started).as_secs_f64() * 1e3,
        drain_ms: pushed.elapsed().as_secs_f64() * 1e3,
        completed,
    })
}

/// The reference transcript of one subscription feed.
#[derive(Debug, Clone)]
pub struct ExpectedFeed {
    /// Every `Update` the server must send, in order.
    pub updates: Vec<BatchFrame>,
    /// For the k-th `Update`, the index of the `Push` frame that released
    /// it — the exact push→update attribution the reader thread uses to
    /// time an update from its push's *due* time.
    pub update_push: Vec<usize>,
    /// Result tuples over the whole feed.
    pub results: u64,
}

impl ExpectedFeed {
    /// Replays `feed` through an in-process `StreamingQuery` and checks
    /// the replay's result set against the blocking baseline over the
    /// same rows, so the transcript is itself verified.
    pub fn compute(
        inputs: &Inputs,
        runner: &QueryRunner,
        feed: &Feed,
    ) -> Result<ExpectedFeed, String> {
        let mut query = runner
            .ingest_session(&inputs.sql(0), &inputs.engine())
            .map_err(|e| format!("reference subscription failed to open: {e}"))?;
        let mut expected = ExpectedFeed {
            updates: Vec::new(),
            update_push: Vec::new(),
            results: 0,
        };
        let mut completed = false;
        for (k, frame) in feed.frames.iter().enumerate() {
            let outcome = apply_push(&mut query, frame)?;
            completed = outcome.completed;
            for batch in outcome.batches {
                expected.results += batch.tuples.len() as u64;
                expected.updates.push(batch);
                expected.update_push.push(k);
            }
        }
        let stats = query.finish();
        if !completed || stats.cancelled {
            return Err("reference subscription did not complete on its last frame".into());
        }

        // Streamed ids are arrival positions; translate to generator rows
        // and compare with the baseline over the closed relations.
        let closed = QueryRunner::new(catalog(std::slice::from_ref(&feed.rows)));
        let baseline = ExpectedSet::compute(&closed, &inputs.sql(0))?;
        let streamed: HashSet<(u32, u32)> = expected
            .updates
            .iter()
            .flat_map(|b| &b.tuples)
            .map(|t| {
                (
                    feed.arrival[0][t.r_idx as usize],
                    feed.arrival[1][t.t_idx as usize],
                )
            })
            .collect();
        let reference: HashSet<(u32, u32)> = baseline.pairs.keys().copied().collect();
        if streamed != reference || streamed.len() as u64 != expected.results {
            return Err(format!(
                "in-process replay produced {} results, the blocking baseline {}",
                expected.results,
                reference.len()
            ));
        }
        Ok(expected)
    }

    /// Checks one finished subscription: the `Update` sequence is
    /// identical to the replay (ids, values, batch boundaries, progress),
    /// and `SubDone` counts the tuples received and is not cancelled.
    pub fn check(&self, updates: &[BatchFrame], done: &DoneFrame) -> Result<(), String> {
        if done.cancelled {
            return Err("SubDone reports a cancelled subscription".into());
        }
        if updates.len() != self.updates.len() {
            return Err(format!(
                "{} updates received, replay has {}",
                updates.len(),
                self.updates.len()
            ));
        }
        if let Some(k) = (0..updates.len()).find(|&k| updates[k] != self.updates[k]) {
            return Err(format!("update {k} differs from the in-process replay"));
        }
        if done.results != self.results {
            return Err(format!(
                "SubDone.results {} but replay has {}",
                done.results, self.results
            ));
        }
        let progress: Vec<f64> = updates.iter().map(|u| u.progress).collect();
        check_progress(&progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WORKLOADS};

    fn tiny(base: usize) -> Inputs {
        let workload = Workload {
            rows: 300,
            inputs: 2,
            ..WORKLOADS[base]
        };
        Inputs::generate(&workload, 11)
    }

    #[test]
    fn the_engine_under_test_passes_and_a_corrupted_stream_fails() {
        let inputs = tiny(1);
        let runner = QueryRunner::new(inputs.catalog());
        let expected = ExpectedSet::compute(&runner, &inputs.sql(1)).unwrap();
        assert!(!expected.pairs.is_empty());
        let out = runner
            .run_collect(&inputs.sql(1), &inputs.engine())
            .unwrap();
        let tuples: Vec<WireTuple> = out
            .results
            .iter()
            .map(|t| WireTuple {
                r_idx: t.r_idx,
                t_idx: t.t_idx,
                values: t.values.clone(),
            })
            .collect();
        let done = DoneFrame {
            cancelled: false,
            results: tuples.len() as u64,
            elapsed_us: 1,
        };
        assert_eq!(expected.check(&tuples, &[0.2, 0.2, 1.0], &done), Ok(()));

        let mut dup = tuples.clone();
        dup[0] = dup[1].clone();
        assert!(expected
            .check(&dup, &[], &done)
            .unwrap_err()
            .contains("duplicate"));
        let mut wrong = tuples.clone();
        wrong[0].values[0] += 1.0;
        assert!(expected
            .check(&wrong, &[], &done)
            .unwrap_err()
            .contains("values"));
        assert!(expected.check(&tuples[1..], &[], &done).is_err());
        assert!(expected
            .check(&tuples, &[0.5, 0.4], &done)
            .unwrap_err()
            .contains("progress"));
        let cancelled = DoneFrame {
            cancelled: true,
            ..done
        };
        assert!(expected.check(&tuples, &[], &cancelled).is_err());
    }

    #[test]
    fn replay_attributes_every_update_to_the_push_that_released_it() {
        let inputs = tiny(3);
        let runner = QueryRunner::new(inputs.catalog());
        let feed = &inputs.feeds[0];
        let expected = ExpectedFeed::compute(&inputs, &runner, feed).unwrap();
        assert!(expected.results > 0);
        assert_eq!(expected.updates.len(), expected.update_push.len());
        assert!(expected.update_push.windows(2).all(|w| w[0] <= w[1]));
        assert!(*expected.update_push.last().unwrap() < feed.frames.len());
        let done = DoneFrame {
            cancelled: false,
            results: expected.results,
            elapsed_us: 1,
        };
        assert_eq!(expected.check(&expected.updates, &done), Ok(()));

        // A moved batch boundary is a mismatch even when the tuples agree.
        let mut merged = expected.updates.clone();
        let k = merged.iter().position(|b| !b.tuples.is_empty()).unwrap();
        let moved = merged[k].tuples.pop().unwrap();
        let next = if k + 1 < merged.len() { k + 1 } else { k - 1 };
        merged[next].tuples.insert(0, moved);
        assert!(expected.check(&merged, &done).is_err());
        assert!(expected.check(&expected.updates[1..], &done).is_err());
    }
}
