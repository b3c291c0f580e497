//! Set-up and the gated, client-observed run of one workload.

use crate::check::{ExpectedFeed, ExpectedSet};
use crate::ops::{oneshot_op, sub_op, Off, OpTimes};
use crate::proc;
use crate::workload::{Inputs, Load, Workload};
use progxe_query::QueryRunner;
use progxe_server::{Client, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Reference results for everything a run can check.
pub struct Reference {
    /// Parallel to `Inputs::tables`.
    pub sets: Vec<ExpectedSet>,
    /// Parallel to `Inputs::feeds`.
    pub feeds: Vec<ExpectedFeed>,
}

/// A workload ready to be measured: inputs generated, references
/// computed, server listening on an ephemeral loopback port.
pub struct Ready {
    pub inputs: Inputs,
    /// The query text per data set, parallel to `Inputs::tables`.
    pub sqls: Vec<String>,
    pub reference: Reference,
    pub server: ServerHandle,
}

impl Ready {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Datagen, catalog registration, reference computation and server
/// start — everything of set-up except connecting and warming up.
pub fn set_up(workload: &Workload, seed: u64) -> Result<Ready, String> {
    let inputs = Inputs::generate(workload, seed);
    let sqls: Vec<String> = (0..inputs.tables.len()).map(|i| inputs.sql(i)).collect();
    let runner = QueryRunner::new(inputs.catalog());
    let reference = Reference {
        sets: sqls
            .iter()
            .map(|sql| ExpectedSet::compute(&runner, sql))
            .collect::<Result<_, _>>()?,
        feeds: inputs
            .feeds
            .iter()
            .map(|feed| ExpectedFeed::compute(&inputs, &runner, feed))
            .collect::<Result<_, _>>()?,
    };
    let server = Server::start(
        runner,
        inputs.engine(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("server failed to start: {e}"))?;
    Ok(Ready {
        inputs,
        sqls,
        reference,
        server,
    })
}

/// What clients saw over the measured window: one log per client
/// thread, merged into the run's.
#[derive(Debug, Default)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// One entry per correct op.
    pub ttfr_ms: Vec<f64>,
    /// One entry per correct op.
    pub total_ms: Vec<f64>,
    /// One entry per result tuple of a correct op.
    pub lag_ms: Vec<f64>,
}

impl OpLog {
    fn record(&mut self, op: Result<OpTimes, String>) {
        self.attempted += 1;
        match op {
            Ok(times) => {
                self.ttfr_ms.push(times.ttfr_ms);
                self.total_ms.push(times.total_ms);
                self.lag_ms.extend(times.lag_ms);
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    fn merge(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.ttfr_ms.extend(other.ttfr_ms);
        self.total_ms.extend(other.total_ms);
        self.lag_ms.extend(other.lag_ms);
    }
}

/// The raw outcome of one gated run.
#[derive(Debug)]
pub struct E2eRun {
    pub ops: OpLog,
    /// First measured op sent → last measured op finished.
    pub window_s: f64,
    /// Process CPU (user + system, all threads) over the window.
    pub cpu_ms: f64,
    /// Connect + warm-up time, part of `setup_s`.
    pub warmup_s: f64,
}

/// A client's op source: its connection state plus what to run next.
struct Driver<'a> {
    ready: &'a Ready,
    /// Persistent connection of a one-shot client (re-established after a
    /// transport failure so one dead socket fails one op, not the rest).
    conn: Option<Client>,
    /// Index of the next data set or feed in the rotation.
    next_input: usize,
}

impl Driver<'_> {
    fn op(&mut self) -> Result<OpTimes, String> {
        let ready = self.ready;
        let turn = self.next_input;
        self.next_input += 1;
        match ready.inputs.workload.load {
            Load::OneShot => {
                let k = turn % ready.sqls.len();
                if self.conn.is_none() {
                    let client = Client::connect(ready.addr())
                        .map_err(|e| format!("connect refused: {e}"))?;
                    self.conn = Some(client);
                }
                let client = self.conn.as_mut().expect("connected above");
                let op = oneshot_op(
                    &mut Off,
                    client,
                    &ready.sqls[k],
                    &ready.reference.sets[k],
                    None,
                );
                if op.is_err() {
                    self.conn = None;
                }
                op
            }
            Load::SubStream => {
                let k = turn % ready.inputs.feeds.len();
                let (feed, expected) = (&ready.inputs.feeds[k], &ready.reference.feeds[k]);
                sub_op(&mut Off, ready.addr(), &ready.sqls[0], feed, expected)
                    .map(|(times, _)| times)
            }
        }
    }
}

/// Connects the workload's clients, warms up, then measures a closed loop
/// for `window`: every client issues its next op when the previous one
/// ended, stops issuing at the deadline, and finishes the op in flight.
pub fn run(ready: &Ready, window: Duration) -> Result<E2eRun, String> {
    let workload = &ready.inputs.workload;
    let clients = workload.clients.max(1);
    let warmup_each = workload.warmup_ops.div_ceil(clients);
    // Clients and this thread meet twice: warm-up done, window open.
    let barrier = Barrier::new(clients + 1);
    let warmup_started = Instant::now();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<OpLog, String> {
                    let mut driver = Driver {
                        ready,
                        conn: None,
                        // Clients start at different points of the rotation.
                        next_input: c * workload.inputs / clients,
                    };
                    let warm: Result<(), String> =
                        (0..warmup_each).try_for_each(|_| driver.op().map(|_| ()));
                    barrier.wait();
                    barrier.wait();
                    warm.map_err(|e| format!("warm-up op failed: {e}"))?;
                    let deadline = Instant::now() + window;
                    let mut log = OpLog::default();
                    while Instant::now() < deadline {
                        log.record(driver.op());
                    }
                    Ok(log)
                })
            })
            .collect();

        barrier.wait();
        let warmup_s = warmup_started.elapsed().as_secs_f64();
        let cpu_before = proc::cpu_ms();
        let opened = Instant::now();
        barrier.wait();
        let mut ops = OpLog::default();
        let mut failure = None;
        for handle in handles {
            match handle.join().expect("client thread panicked") {
                Ok(log) => ops.merge(log),
                Err(e) => failure = Some(e),
            }
        }
        let window_s = opened.elapsed().as_secs_f64();
        let cpu_ms = match (cpu_before, proc::cpu_ms()) {
            (Some(before), Some(after)) => after - before,
            _ => return Err("/proc/self/stat is unreadable".into()),
        };
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(E2eRun {
            ops,
            window_s,
            cpu_ms,
            warmup_s,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn tiny(base: usize) -> Workload {
        Workload {
            rows: 300,
            inputs: 3,
            warmup_ops: 2,
            ..WORKLOADS[base]
        }
    }

    #[test]
    fn a_short_run_of_each_load_shape_is_clean() {
        for base in [1, 3] {
            let ready = set_up(&tiny(base), 5).unwrap();
            let run = run(&ready, Duration::from_millis(300)).unwrap().ops;
            assert!(run.attempted >= 1, "{run:?}");
            assert_eq!(run.failed, 0, "{:?}", run.first_error);
            assert_eq!(run.ttfr_ms.len() as u64, run.attempted);
            assert!(run.lag_ms.len() >= run.ttfr_ms.len());
            assert!(run
                .ttfr_ms
                .iter()
                .zip(&run.total_ms)
                .all(|(first, total)| first <= total));
            ready.server.shutdown();
        }
    }

    #[test]
    fn a_corrupted_reference_turns_every_op_into_a_failure() {
        let mut ready = set_up(&tiny(1), 5).unwrap();
        for set in &mut ready.reference.sets {
            let victim = *set.pairs.keys().next().unwrap();
            set.pairs.remove(&victim);
        }
        let stopped = run(&ready, Duration::from_millis(200));
        // Warm-up ops are checked too, so the corruption already stops the
        // run there — with an error, which the binary turns into exit 1.
        assert!(stopped.unwrap_err().contains("warm-up op failed"));

        let mut ready = set_up(
            &Workload {
                warmup_ops: 0,
                ..tiny(3)
            },
            5,
        )
        .unwrap();
        for feed in &mut ready.reference.feeds {
            feed.updates[0].progress += 0.5;
        }
        let run = run(&ready, Duration::from_millis(200)).unwrap();
        assert!(
            run.ops.failed >= 1 && run.ops.failed == run.ops.attempted,
            "{run:?}"
        );
        assert!(
            run.ops.ttfr_ms.is_empty(),
            "a failed op contributes no latency"
        );
        let report = crate::report::Report::end_to_end(&ready.inputs.workload, &run, 0.1, false);
        assert_ne!(report.exit_code(), 0);
        assert_eq!(
            report.result_line().get("correct"),
            Some(&crate::json::Json::Bool(false))
        );
    }
}
