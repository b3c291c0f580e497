//! The traced run: the workload's own inputs pushed through each layer's
//! public functions from outside, one benchmark-side span per call.
//!
//! A *round* visits every layer once — datagen, query, core, runtime,
//! baselines, skyline kernels, ingest, server (loopback), obs — and rounds
//! repeat until the window closes; every per-layer number is a median
//! over rounds. Count metrics come from one deterministic call per round,
//! so they repeat exactly for a fixed seed.

use crate::check::{apply_push, PushOutcome};
use crate::e2e::Ready;
use crate::ops::{oneshot_op, sub_op, Frames, Off};
use crate::report::Samples;
use crate::span::Tracer;
use crate::workload::Inputs;
use progxe_baselines::{JfSlEngine, SkyAlgo};
use progxe_core::ingest::{IngestSession, StreamSpec};
use progxe_core::session::{ProgressiveEngine, QuerySession};
use progxe_core::stats::ExecStats;
use progxe_core::ProgXe;
use progxe_obs::{MetricsRegistry, RingRecorder};
use progxe_query::plan::plan;
use progxe_query::{parse_query, Engine, PlannedQuery, QueryRunner};
use progxe_runtime::ParallelProgXe;
use progxe_server::protocol::{read_server_frame, write_server_frame};
use progxe_server::{Client, ServerFrame, ServerMetrics};
use progxe_skyline::{bnl_skyline, kernel, sfs_skyline, PointStore, Preference};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Join results fed to the skyline kernels (the first this many, in
/// R-major order).
const SKYLINE_POINTS: usize = 200_000;
/// Rows of that slab used as the probing side of the two kernels.
const KERNEL_PROBES: usize = 64;
/// Threads of the pooled engine the runtime layer is measured on.
const POOLED_THREADS: usize = 2;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timings of one drained session.
struct Drained {
    open_ms: f64,
    /// Session requested → first non-empty batch.
    first_ms: f64,
    /// First non-empty batch → stream end.
    drain_ms: f64,
    total_ms: f64,
    batches: u64,
    stats: ExecStats,
}

/// Opens a session with `open`, drains it, and records `<prefix>.open`,
/// `.first_batch`, `.drain` and `.finish` spans under `<prefix>.run`.
fn drain<'a>(
    tracer: &mut Tracer,
    names: [&'static str; 5],
    open: impl FnOnce() -> Result<QuerySession<'a>, String>,
) -> Result<Drained, String> {
    let [run, open_name, first_name, drain_name, finish_name] = names;
    let (result, total) = tracer.span(run, |tracer| {
        let (session, open_d) = tracer.span(open_name, |_| open());
        let mut session = session?;
        let mut batches = 0u64;
        let (_, first_d) = tracer.span(first_name, |_| {
            while let Some(event) = session.next_batch() {
                batches += 1;
                if !event.tuples.is_empty() {
                    break;
                }
            }
        });
        let (_, drain_d) = tracer.span(drain_name, |_| {
            while session.next_batch().is_some() {
                batches += 1;
            }
        });
        let (stats, _) = tracer.span(finish_name, |_| session.finish());
        Ok::<_, String>((open_d, first_d, drain_d, batches, stats))
    });
    let (open_d, first_d, drain_d, batches, stats) = result?;
    if stats.cancelled {
        return Err(format!("{run}: session reports cancelled"));
    }
    Ok(Drained {
        open_ms: ms(open_d),
        first_ms: ms(open_d + first_d),
        drain_ms: ms(drain_d),
        total_ms: ms(total),
        batches,
        stats,
    })
}

/// `(counter, histogram count, histogram sum in ms)` of the process-wide
/// pool metrics; the histogram keeps no sum, so it is mean × count.
fn pool_snapshot() -> (u64, f64, f64) {
    let registry = MetricsRegistry::global();
    let sum_ms = |name: &str| {
        registry
            .histogram(name)
            .map_or(0.0, |h| h.mean_us() as f64 * h.count() as f64 / 1e3)
    };
    (
        registry.counter("pool.jobs"),
        sum_ms("pool.queue_wait"),
        sum_ms("pool.run"),
    )
}

fn server_snapshot(m: &ServerMetrics) -> [u64; 4] {
    [
        m.queries_ok(),
        m.queries_cancelled(),
        m.queries_failed(),
        m.rejected(),
    ]
}

/// State the rounds share.
pub struct Layers<'a> {
    ready: &'a Ready,
    seed: u64,
    runner: QueryRunner,
    /// The workload's engine, built once like the server's: its sessions
    /// share one lazily spawned pool.
    engine: Engine,
    planned: PlannedQuery,
    inline: ProgXe,
    pooled: ParallelProgXe,
    points: PointStore,
    pub tracer: Tracer,
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    rounds: usize,
}

impl<'a> Layers<'a> {
    pub fn new(ready: &'a Ready, seed: u64) -> Result<Self, String> {
        let inputs = &ready.inputs;
        let runner = QueryRunner::new(inputs.catalog());
        let planned = runner
            .prepare(&ready.sqls[0])
            .map_err(|e| format!("prepare failed: {e}"))?;
        let points = join_points(&planned);
        Ok(Self {
            ready,
            seed,
            runner,
            engine: inputs.engine(),
            inline: ProgXe::new(inputs.config.clone().with_threads(1)),
            pooled: ParallelProgXe::new(inputs.config.clone().with_threads(POOLED_THREADS)),
            planned,
            points,
            tracer: Tracer::new(),
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            first_error: None,
            rounds: 0,
        })
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Counts one checked op of the traced run.
    fn checked<T>(&mut self, op: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match op {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// One pass over every layer.
    pub fn round(&mut self) -> Result<(), String> {
        self.datagen();
        let query_total = self.query_layer()?;
        let engine_total = self.engine_layers(query_total)?;
        self.baselines(engine_total.1)?;
        self.skyline();
        let pushes = self.ingest()?;
        self.server(query_total, &pushes)?;
        self.obs(query_total.0)?;
        self.rounds += 1;
        Ok(())
    }

    fn datagen(&mut self) {
        let workload = self.ready.inputs.workload;
        let seed = self.seed;
        let (inputs, took) = self
            .tracer
            .span("datagen.generate", |_| Inputs::generate(&workload, seed));
        std::hint::black_box(inputs);
        self.samples.add("datagen.generate_ms", ms(took));
    }

    /// The in-process query path: parse, plan, session, drain. Returns
    /// `(total, first result)` in ms.
    fn query_layer(&mut self) -> Result<(f64, f64), String> {
        let sql = &self.ready.sqls[0];
        let engine = &self.engine;
        let runner = &self.runner;
        let samples = &mut self.samples;
        let (result, total) = self.tracer.span("query.run", |tracer| {
            let (query, parse_d) = tracer.span("query.parse", |_| parse_query(sql));
            let query = query.map_err(|e| format!("parse failed: {e}"))?;
            let (planned, plan_d) = tracer.span("query.plan", |_| plan(&query, runner.catalog()));
            let planned = planned.map_err(|e| format!("plan failed: {e}"))?;
            samples.add("query.parse_ms", ms(parse_d));
            samples.add("query.plan_ms", ms(plan_d));
            let names = [
                "query.execute",
                "query.session",
                "query.first_batch",
                "query.drain",
                "query.finish",
            ];
            let drained = drain(tracer, names, || {
                runner.session(&planned, engine).map_err(|e| e.to_string())
            })?;
            Ok::<_, String>(ms(parse_d + plan_d) + drained.first_ms)
        });
        let first_ms = result?;
        self.samples.add("query.total_ms", ms(total));
        Ok((ms(total), first_ms))
    }

    /// Core on the inline backend and runtime on the pooled one, over the
    /// planned views. Returns `(core total, core first result)` in ms.
    fn engine_layers(&mut self, query: (f64, f64)) -> Result<(f64, f64), String> {
        let planned = &self.planned;
        let (r, t) = (planned.r.view(), planned.t.view());
        let names = [
            "core.run",
            "core.open",
            "core.first_batch",
            "core.drain",
            "core.finish",
        ];
        let inline = &self.inline;
        let core = drain(&mut self.tracer, names, || {
            inline
                .open(&r, &t, &planned.maps)
                .map_err(|e| e.to_string())
        })?;
        let s = &mut self.samples;
        s.add("core.open_ms", core.open_ms);
        s.add("core.first_batch_ms", core.first_ms);
        s.add("core.drain_ms", core.drain_ms);
        s.add("core.total_ms", core.total_ms);
        let st = &core.stats;
        let phases = st.lookahead_time + st.tuple_time + st.commit_time;
        s.add("core.lookahead_ms", ms(st.lookahead_time));
        s.add("core.tuple_ms", ms(st.tuple_time));
        s.add(
            "core.phase_coverage",
            phases.as_secs_f64() / st.total_time.as_secs_f64(),
        );
        s.add("core.regions_created", st.regions_created as f64);
        s.add("core.regions_processed", st.regions_processed as f64);
        s.add("core.join_pairs_evaluated", st.join_pairs_evaluated as f64);
        s.add("core.join_matches", st.join_matches as f64);
        s.add("core.dominance_tests", st.dominance_tests as f64);
        s.add("core.tuples_prefiltered", st.tuples_prefiltered as f64);
        s.add("core.tuples_inserted", st.tuples_inserted as f64);
        s.add("core.tuples_evicted", st.tuples_evicted as f64);
        s.add("core.results_emitted", st.results_emitted as f64);
        s.add("core.batches", core.batches as f64);
        s.add(
            "core.useful_ratio",
            st.results_emitted as f64 / st.join_matches.max(1) as f64,
        );

        let before = pool_snapshot();
        let names = [
            "runtime.run",
            "runtime.open",
            "runtime.first_batch",
            "runtime.drain",
            "runtime.finish",
        ];
        let pooled_engine = &self.pooled;
        let pooled = drain(&mut self.tracer, names, || {
            pooled_engine
                .open(&r, &t, &planned.maps)
                .map_err(|e| e.to_string())
        })?;
        let after = pool_snapshot();
        if pooled.stats.results_emitted != core.stats.results_emitted {
            return Err("pooled and inline runs disagree on the result count".into());
        }
        let s = &mut self.samples;
        s.add("runtime.pooled_total_ms", pooled.total_ms);
        s.add("runtime.pooled_first_ms", pooled.first_ms);
        s.add("runtime.speedup", core.total_ms / pooled.total_ms);
        s.add("runtime.pool_jobs", (after.0 - before.0) as f64);
        s.add("runtime.pool_queue_wait_ms", after.1 - before.1);
        s.add("runtime.pool_run_ms", after.2 - before.2);
        // Where every inline region streams, the inline backend folds the
        // commit into tuple time and times no commit at all; the pooled run
        // over the same data is then the one place the ordered committer
        // runs as a step of its own.
        let commit = if core.stats.commit_time.is_zero() {
            &pooled.stats
        } else {
            &core.stats
        };
        s.add("core.commit_ms", ms(commit.commit_time));

        // The query layer's cost over the engine it ran on: the workload's
        // own backend, on identical data.
        let engine_total = if self.ready.inputs.workload.threads > 1 {
            pooled.total_ms
        } else {
            core.total_ms
        };
        s.add("query.overhead_ms", query.0 - engine_total);
        Ok((core.total_ms, core.first_ms))
    }

    /// The blocking baseline — context for the progressive-vs-blocking gap.
    fn baselines(&mut self, core_first_ms: f64) -> Result<(), String> {
        let planned = &self.planned;
        let (r, t) = (planned.r.view(), planned.t.view());
        let (out, took) = self.tracer.span("baselines.jfsl", |_| {
            JfSlEngine::new(SkyAlgo::Bnl)
                .open(&r, &t, &planned.maps)
                .map(QuerySession::collect)
        });
        let out = out.map_err(|e| format!("jf-sl failed: {e}"))?;
        if out.results.len() != self.ready.reference.sets[0].pairs.len() {
            return Err("jf-sl disagrees with the reference set".into());
        }
        self.samples.add("baselines.jfsl_total_ms", ms(took));
        self.samples
            .add("baselines.ttfr_ratio", core_first_ms / ms(took));
        Ok(())
    }

    /// The dominance kernels and two skyline algorithms over the
    /// workload's own mapped join results.
    fn skyline(&mut self) {
        let store = &self.points;
        let dims = store.dims();
        let slab = store.raw();
        let probes = store.len().min(KERNEL_PROBES);
        let s = &mut self.samples;
        self.tracer.span("skyline.kernels", |tracer| {
            let mut mask = vec![false; store.len()];
            let mut pairs = 0u64;
            let (hits, took) = tracer.span("skyline.kernel_mask", |_| {
                (0..probes)
                    .map(|q| {
                        kernel::dominated_mask(dims, slab, store.point(q), &mut mask, &mut pairs)
                    })
                    .sum::<usize>()
            });
            std::hint::black_box(hits);
            s.add(
                "skyline.kernel_mask_mpairs_s",
                pairs as f64 / took.as_secs_f64() / 1e6,
            );
            let mut pairs = 0u64;
            let (hits, took) = tracer.span("skyline.kernel_any", |_| {
                (0..probes)
                    .filter(|&q| kernel::any_dominates(dims, slab, store.point(q), &mut pairs))
                    .count()
            });
            std::hint::black_box(hits);
            s.add(
                "skyline.kernel_any_mpairs_s",
                pairs as f64 / took.as_secs_f64() / 1e6,
            );
            let pref = Preference::all_lowest(dims);
            let (bnl, took) = tracer.span("skyline.bnl", |_| bnl_skyline(store, &pref));
            s.add("skyline.bnl_ms", ms(took));
            s.add("skyline.bnl_dom_tests", bnl.stats.dominance_tests as f64);
            let (sfs, took) = tracer.span("skyline.sfs", |_| sfs_skyline(store, &pref));
            std::hint::black_box(sfs.len());
            s.add("skyline.sfs_ms", ms(took));
            s.add("skyline.points_in", store.len() as f64);
        });
    }

    /// In-process replay of the first feed: core's session open, then the
    /// query layer's `StreamingQuery` fed frame by frame as the server
    /// would. Returns what each push did, for the wire comparison.
    fn ingest(&mut self) -> Result<Vec<PushOutcome>, String> {
        let inputs = &self.ready.inputs;
        let sql = &self.ready.sqls[0];
        let feed = &inputs.feeds[0];
        let runner = &self.runner;
        let engine = &self.engine;
        let planned = &self.planned;
        let s = &mut self.samples;
        let (result, _) = self.tracer.span("ingest.replay", |tracer| {
            let (lo, hi) = inputs.tables[0].spec.value_range;
            let dims = inputs.workload.dims;
            let spec =
                || StreamSpec::new(vec![lo; dims], vec![hi; dims]).map_err(|e| e.to_string());
            let (r_spec, t_spec) = (spec()?, spec()?);
            let config = inputs.config.clone().with_threads(1);
            let (session, took) = tracer.span("core.ingest_open", |_| {
                IngestSession::open(&config, &planned.maps, r_spec, t_spec)
            });
            drop(session.map_err(|e| format!("ingest open failed: {e}"))?);
            s.add("core.ingest_open_ms", ms(took));

            let (query, took) =
                tracer.span("query.stream_open", |_| runner.ingest_session(sql, engine));
            let mut query = query.map_err(|e| format!("stream open failed: {e}"))?;
            s.add("query.stream_open_ms", ms(took));
            let (pushes, _) = tracer.span("core.ingest_feed", |_| {
                feed.frames
                    .iter()
                    .map(|frame| apply_push(&mut query, frame))
                    .collect::<Result<Vec<_>, _>>()
            });
            let pushes = pushes?;
            let stats = query.finish();
            for push in &pushes {
                s.add("core.ingest_push_ms", push.push_ms);
                s.add("core.ingest_drain_ms", push.drain_ms);
            }
            let idle = pushes.iter().filter(|p| p.batches.is_empty()).count();
            s.add(
                "core.ingest_busy_ms",
                pushes.iter().map(|p| p.push_ms + p.drain_ms).sum(),
            );
            s.add("core.ingest_rows", stats.tuples_ingested as f64);
            s.add(
                "core.ingest_regions_unlocked",
                stats.regions_unlocked as f64,
            );
            s.add(
                "core.ingest_updates",
                pushes.iter().map(|p| p.batches.len()).sum::<usize>() as f64,
            );
            s.add(
                "core.ingest_idle_push_ratio",
                idle as f64 / pushes.len().max(1) as f64,
            );
            Ok::<_, String>(pushes)
        });
        result
    }

    /// The loopback server: connect, one traced and one untraced one-shot
    /// op, the codec over the op's own frames, a cancel, a subscription.
    fn server(&mut self, query: (f64, f64), pushes: &[PushOutcome]) -> Result<(), String> {
        let ready = self.ready;
        let inputs = &ready.inputs;
        let sql = &ready.sqls[0];
        let metrics = ready.server.metrics();
        let before = server_snapshot(&metrics);

        let (client, took) = self
            .tracer
            .span("server.connect", |_| Client::connect(ready.addr()));
        let mut client = client.map_err(|e| format!("connect refused: {e}"))?;
        self.samples.add("server.connect_ms", ms(took));

        // Traced and untraced op alternate in order, so neither always
        // runs on the warmer cache.
        let mut frames = Frames::new();
        let mut traced = None;
        let mut untraced = None;
        for pass in 0..2 {
            if (pass + self.rounds).is_multiple_of(2) {
                let op = oneshot_op(
                    &mut self.tracer,
                    &mut client,
                    sql,
                    &ready.reference.sets[0],
                    Some(&mut frames),
                );
                traced = self.checked(op);
            } else {
                let op = oneshot_op(&mut Off, &mut client, sql, &ready.reference.sets[0], None);
                untraced = self.checked(op);
            }
        }
        if let (Some(traced), Some(untraced)) = (traced, untraced) {
            let s = &mut self.samples;
            s.add("server.wire_first_overhead_ms", traced.ttfr_ms - query.1);
            s.add("server.wire_total_overhead_ms", traced.total_ms - query.0);
            s.add(
                "loadgen.trace_overhead_ratio",
                traced.total_ms / untraced.total_ms,
            );
        }
        self.codec(&frames)?;

        let cancel = self.cancel(&mut client);
        if let Some(cancel_ms) = self.checked(cancel) {
            self.samples.add("server.cancel_ms", cancel_ms);
        }
        drop(client);

        let feed = &inputs.feeds[0];
        let sub = sub_op(
            &mut self.tracer,
            ready.addr(),
            sql,
            feed,
            &ready.reference.feeds[0],
        );
        if let Some((_, detail)) = self.checked(sub) {
            let s = &mut self.samples;
            s.add("server.sub_accept_ms", detail.accept_ms);
            // Per push that released something: the wire's lag at that
            // push's last update, over what the same push cost in process.
            let update_push = &ready.reference.feeds[0].update_push;
            let mut overheads = Vec::new();
            for (k, &lag) in detail.push_to_update_ms.iter().enumerate() {
                s.add("server.push_to_update_ms", lag);
                let push = update_push[k];
                if update_push.get(k + 1) != Some(&push) {
                    overheads.push(lag - (pushes[push].push_ms + pushes[push].drain_ms));
                }
            }
            s.add(
                "server.sub_wire_overhead_ms",
                crate::stats::median(&overheads),
            );
            for late in detail.late_ms {
                s.add("loadgen.late_ms", late);
            }
        }

        // The handler counts a subscription after its `SubDone` is on the
        // wire; give that a moment to land before reading the counters.
        let deadline = Instant::now() + Duration::from_millis(200);
        let expect_done = before[0] + before[1] + 4;
        while metrics.queries_ok() + metrics.queries_cancelled() < expect_done
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let after = server_snapshot(&metrics);
        let names = [
            "server.queries_ok",
            "server.queries_cancelled",
            "server.queries_failed",
            "server.rejected",
        ];
        for (name, (after, before)) in names.into_iter().zip(after.into_iter().zip(before)) {
            self.samples.add(name, (after - before) as f64);
        }
        Ok(())
    }

    /// Encodes and decodes the frames of the traced one-shot op through a
    /// `Vec<u8>`: the codec's share of the wire overhead.
    fn codec(&mut self, frames: &[ServerFrame]) -> Result<(), String> {
        let s = &mut self.samples;
        let (result, _) = self.tracer.span("server.codec", |tracer| {
            let mut wire = Vec::new();
            let (written, took) = tracer.span("server.encode", |_| {
                frames
                    .iter()
                    .try_for_each(|f| write_server_frame(&mut wire, f))
            });
            written.map_err(|e| format!("encode failed: {e}"))?;
            s.add("server.encode_ms", ms(took));
            s.add("server.bytes_out", wire.len() as f64);
            s.add("server.frames_out", frames.len() as f64);
            let mut cursor = wire.as_slice();
            let (decoded, took) = tracer.span("server.decode", |_| {
                (0..frames.len())
                    .map(|_| read_server_frame(&mut cursor))
                    .collect::<Result<Vec<_>, _>>()
            });
            if decoded.map_err(|e| format!("decode failed: {e}"))? != frames {
                return Err("codec round trip changed a frame".to_string());
            }
            s.add("server.decode_ms", ms(took));
            Ok(())
        });
        result
    }

    /// `Cancel{seq}` after the first non-empty batch → `Done`, in ms. A
    /// query that finishes before the cancel lands answers `Done` all the
    /// same; the server's `queries_cancelled` says which happened.
    fn cancel(&mut self, client: &mut Client) -> Result<f64, String> {
        let sql = &self.ready.sqls[0];
        let (result, _) = self.tracer.span("server.cancel", |tracer| {
            let seq = client.send_query(sql).map_err(|e| e.to_string())?;
            let mut sent: Option<Instant> = None;
            loop {
                match client.next_server_frame().map_err(|e| e.to_string())? {
                    ServerFrame::Batch(batch) if sent.is_none() && !batch.tuples.is_empty() => {
                        client.cancel_seq(seq).map_err(|e| e.to_string())?;
                        sent = Some(Instant::now());
                    }
                    ServerFrame::Accepted { .. } | ServerFrame::Batch(_) => {}
                    ServerFrame::Done(_) => {
                        let now = Instant::now();
                        let sent = sent.ok_or("Done before any result")?;
                        tracer.record("server.cancel_to_done", sent, now);
                        return Ok(ms(now - sent));
                    }
                    other => return Err(format!("unexpected frame {other:?}")),
                }
            }
        });
        result
    }

    /// The same in-process query with a ring recorder attached, against
    /// this round's plain run.
    fn obs(&mut self, plain_total_ms: f64) -> Result<(), String> {
        let sql = &self.ready.sqls[0];
        let ring = Arc::new(RingRecorder::new());
        let engine = self.engine.clone().with_recorder(ring.clone());
        let runner = &self.runner;
        let (out, took) = self
            .tracer
            .span("obs.ring_run", |_| runner.run_collect(sql, &engine));
        let out = out.map_err(|e| format!("recorded run failed: {e}"))?;
        if out.results.len() != self.ready.reference.sets[0].pairs.len() {
            return Err("recorded run disagrees with the reference set".into());
        }
        let s = &mut self.samples;
        s.add("obs.ring_overhead_ratio", ms(took) / plain_total_ms);
        s.add("obs.events_per_op", ring.recorded() as f64);
        s.add("obs.events_dropped", ring.dropped() as f64);
        Ok(())
    }

    /// Closes the run: the round count becomes `loadgen.samples`.
    pub fn finish(&mut self) {
        self.samples.add("loadgen.samples", self.rounds as f64);
    }
}

/// The first [`SKYLINE_POINTS`] mapped join results of the planned query,
/// by a benchmark-side hash join (R-major, T rows in id order per key).
fn join_points(planned: &PlannedQuery) -> PointStore {
    let (r, t) = (planned.r.view(), planned.t.view());
    let mut by_key: HashMap<u32, Vec<u32>> = HashMap::new();
    for j in 0..t.len() {
        by_key.entry(t.join_key_of(j)).or_default().push(j as u32);
    }
    let mut store = PointStore::new(planned.maps.out_dims());
    let mut mapped = Vec::new();
    'rows: for i in 0..r.len() {
        for &j in by_key.get(&r.join_key_of(i)).map_or(&[][..], Vec::as_slice) {
            if store.len() >= SKYLINE_POINTS {
                break 'rows;
            }
            planned
                .maps
                .eval_into(r.attrs_of(i), t.attrs_of(j as usize), &mut mapped);
            store.push(&mapped);
        }
    }
    store
}
