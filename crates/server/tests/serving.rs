//! End-to-end serving tests: correctness over the wire, disconnect- and
//! frame-driven cancellation, admission control, concurrent load, and clean
//! shutdown.
//!
//! Every test binds port 0 and runs its own server; the "slow" catalogs
//! (2000 anti-correlated rows) take seconds in debug mode, which is the
//! runway the cancellation tests need to catch a query mid-flight.

use progxe_core::ingest::IngestPoll;
use progxe_core::stats::ExecStats;
use progxe_query::exec::StreamingQuery;
use progxe_query::{Engine, QueryRunner};
use progxe_server::server::wait_for_cancelled;
use progxe_server::{
    synthetic, BatchFrame, Client, ErrorCode, PushFrame, Server, ServerConfig, ServerFrame,
    WireTuple,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn start_server(
    rows: usize,
    dims: usize,
    seed: u64,
    max_sessions: usize,
) -> progxe_server::ServerHandle {
    let runner = QueryRunner::new(synthetic::catalog(rows, dims, seed));
    let engine = Engine::progxe_threads(2);
    Server::start(runner, engine, ServerConfig { max_sessions }, "127.0.0.1:0")
        .expect("bind port 0")
}

/// A server whose catalog also registers `R`/`T` as streaming tables, so
/// subscriptions and one-shot queries share one connection.
fn start_streaming_server(
    rows: usize,
    dims: usize,
    seed: u64,
    max_sessions: usize,
) -> progxe_server::ServerHandle {
    let runner = QueryRunner::new(synthetic::streaming_catalog(rows, dims, seed));
    let engine = Engine::progxe_threads(2);
    Server::start(runner, engine, ServerConfig { max_sessions }, "127.0.0.1:0")
        .expect("bind port 0")
}

/// One drained result event, flattened for transcript comparison:
/// `(progress_estimate, proven_final, [(r_idx, t_idx, values)])`.
type TranscriptEvent = (f64, bool, Vec<(u32, u32, Vec<f64>)>);

/// Applies one wire push frame to an in-process [`StreamingQuery`] and
/// drains it, exactly mirroring the server's ingest loop. Returns the
/// drained events and whether the session completed.
fn apply_in_process(
    query: &mut StreamingQuery,
    frame: &PushFrame,
    transcript: &mut Vec<TranscriptEvent>,
) -> bool {
    let rows: Vec<(&[f64], u32)> = frame
        .rows
        .iter()
        .map(|r| (r.attrs.as_slice(), r.key))
        .collect();
    if !rows.is_empty() {
        query.push(frame.source, &rows).expect("push");
    }
    if let Some(wm) = &frame.watermark {
        query.set_watermark(frame.source, wm).expect("watermark");
    }
    if frame.close {
        query.close(frame.source);
    }
    loop {
        match query.poll() {
            IngestPoll::Batch(event) => transcript.push((
                event.progress_estimate,
                event.proven_final,
                event
                    .tuples
                    .iter()
                    .map(|t| (t.r_idx, t.t_idx, t.values.clone()))
                    .collect(),
            )),
            IngestPoll::NeedInput => return false,
            IngestPoll::Complete => return true,
        }
    }
}

/// Replays a whole feed into `query` with [`apply_in_process`] and finishes
/// it. The feed must close both sources, so the run completes.
fn replay_in_process(
    mut query: StreamingQuery,
    feed: &[PushFrame],
) -> (Vec<TranscriptEvent>, ExecStats) {
    let mut transcript = Vec::new();
    let mut completed = false;
    for frame in feed {
        completed = apply_in_process(&mut query, frame, &mut transcript);
    }
    assert!(completed, "the feed closes both sources");
    let stats = query.finish();
    assert!(!stats.cancelled);
    (transcript, stats)
}

/// One wire `Update` batch, flattened like an in-process event.
fn wire_event(batch: &BatchFrame) -> TranscriptEvent {
    (
        batch.progress,
        batch.proven_final,
        batch
            .tuples
            .iter()
            .map(|t| (t.r_idx, t.t_idx, t.values.clone()))
            .collect(),
    )
}

/// Reads the next frame and asserts the in-flight query was `Accepted` —
/// i.e. the server has opened a session and is about to stream.
fn read_until_accepted(client: &mut Client) {
    match client.next_server_frame().expect("server frame") {
        ServerFrame::Accepted { .. } => {}
        ServerFrame::Error { code, message } => {
            panic!("query rejected ({code:?}): {message}")
        }
        other => panic!("expected Accepted, got {other:?}"),
    }
}

#[test]
fn results_over_the_wire_match_run_collect() {
    let rows = 400;
    let dims = 2;
    let seed = 3;
    let sql = synthetic::query_sql(dims);
    let reference = QueryRunner::new(synthetic::catalog(rows, dims, seed))
        .run_collect(&sql, &Engine::progxe_threads(2))
        .expect("reference run");

    let handle = start_server(rows, dims, seed, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let outcome = client.run_query(&sql).expect("query runs");

    assert!(
        outcome.error.is_none(),
        "unexpected error: {:?}",
        outcome.error
    );
    let done = outcome.done.expect("terminal Done frame");
    assert!(!done.cancelled);
    assert_eq!(done.results, reference.results.len() as u64);
    assert_eq!(outcome.columns, reference.output_names);

    let mut got: Vec<(u32, u32)> = outcome.tuples.iter().map(|t| (t.r_idx, t.t_idx)).collect();
    let mut want: Vec<(u32, u32)> = reference
        .results
        .iter()
        .map(|t| (t.r_idx, t.t_idx))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "wire results must match the in-process run");
    for tuple in &outcome.tuples {
        assert_eq!(tuple.values.len(), dims, "wire tuples carry mapped values");
    }

    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_ok(), 1);
    assert_eq!(metrics.queries_cancelled(), 0);
}

#[test]
fn killing_the_socket_cancels_in_flight_pooled_work() {
    // ~2s of pooled region work in debug mode; the client vanishes right
    // after admission, so completion without cancellation would mean the
    // server kept burning the shared pool for a dead connection.
    let handle = start_server(2000, 3, 5, 8);
    let metrics = handle.metrics();

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.send_query(&synthetic::query_sql(3)).expect("send");
    read_until_accepted(&mut client);
    drop(client); // kill the socket mid-query

    assert!(
        wait_for_cancelled(&metrics, 1, Duration::from_secs(20)),
        "disconnect must cancel the in-flight session (queries_cancelled={}, ok={})",
        metrics.queries_cancelled(),
        metrics.queries_ok()
    );
    assert_eq!(
        metrics.queries_ok(),
        0,
        "the run must not count as completed"
    );
    handle.shutdown();
}

#[test]
fn explicit_cancel_frame_ends_the_stream_with_done_cancelled() {
    let handle = start_server(2000, 3, 6, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.send_query(&synthetic::query_sql(3)).expect("send");
    read_until_accepted(&mut client);
    client.cancel().expect("send cancel");

    let done = loop {
        match client
            .next_server_frame()
            .expect("stream stays well-formed")
        {
            ServerFrame::Batch(_) => continue,
            ServerFrame::Done(done) => break done,
            other => panic!("expected Batch or Done, got {other:?}"),
        }
    };
    assert!(done.cancelled, "a cancelled run must report itself as such");
    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_cancelled(), 1);
}

#[test]
fn admission_control_sheds_load_with_a_typed_error() {
    let handle = start_server(200, 2, 7, 1);
    let holder = Client::connect(handle.addr()).expect("first connection admitted");

    let err = Client::connect(handle.addr()).expect_err("second connection must be shed");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(
        err.to_string().contains("session cap"),
        "error should carry the server's message, got: {err}"
    );
    assert_eq!(handle.metrics().rejected(), 1);
    assert_eq!(handle.metrics().accepted(), 1);

    // Freeing the slot re-opens admission.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.active_sessions(), 0, "slot must free on disconnect");
    let mut client = Client::connect(handle.addr()).expect("admitted after slot frees");
    let outcome = client.run_query(&synthetic::query_sql(2)).expect("runs");
    assert!(outcome.done.is_some());
    handle.shutdown();
}

#[test]
fn bad_query_is_reported_in_band_and_the_connection_survives() {
    let handle = start_server(200, 2, 8, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let outcome = client
        .run_query("SELECT nonsense FROM nowhere")
        .expect("frame exchange");
    let (code, message) = outcome.error.expect("typed error for a bad query");
    assert_eq!(code, ErrorCode::BadQuery);
    assert!(!message.is_empty());
    assert!(outcome.done.is_none());

    // Same connection, valid query: the error must not have poisoned it.
    let outcome = client
        .run_query(&synthetic::query_sql(2))
        .expect("retry runs");
    assert!(outcome.error.is_none());
    assert!(!outcome.tuples.is_empty());
    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_failed(), 1);
    assert_eq!(metrics.queries_ok(), 1);
}

#[test]
fn subscription_updates_are_bit_identical_to_an_in_process_transcript() {
    let rows = 240;
    let dims = 2;
    let handle = start_streaming_server(50, dims, 3, 8);
    let sql = synthetic::query_sql(dims);
    let sub_id = 42;
    let feed = synthetic::arrival_feed(sub_id, rows, dims, 11, 24);

    // Wire run: subscribe, replay the feed, collect every Update verbatim.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.subscribe(sub_id, &sql).expect("subscribe");
    let columns = match client.next_server_frame().expect("frame") {
        ServerFrame::SubAccepted {
            sub_id: id,
            columns,
        } => {
            assert_eq!(id, sub_id);
            columns
        }
        other => panic!("expected SubAccepted, got {other:?}"),
    };
    for frame in &feed {
        client.push(frame).expect("push");
    }
    let mut wire: Vec<TranscriptEvent> = Vec::new();
    let done = loop {
        match client.next_server_frame().expect("frame") {
            ServerFrame::Update { sub_id: id, batch } => {
                assert_eq!(id, sub_id);
                wire.push(wire_event(&batch));
            }
            ServerFrame::SubDone { sub_id: id, done } => {
                assert_eq!(id, sub_id);
                break done;
            }
            other => panic!("expected Update or SubDone, got {other:?}"),
        }
    };
    assert!(!done.cancelled, "a fully fed subscription completes");

    // In-process run: same engine config, same arrival schedule.
    let runner = QueryRunner::new(synthetic::streaming_catalog(50, dims, 3));
    let query = runner
        .ingest_session(&sql, &Engine::progxe_threads(2))
        .expect("in-process session");
    assert_eq!(query.output_names(), columns.as_slice());
    let (reference, stats) = replay_in_process(query, &feed);

    assert_eq!(
        wire, reference,
        "wire Update stream must be bit-identical to the in-process transcript"
    );
    assert_eq!(done.results, stats.results_emitted);
    assert!(done.results > 0, "anti-correlated feed must emit results");
    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_ok(), 1);
    assert_eq!(metrics.queries_cancelled(), 0);
}

#[test]
fn unsubscribe_cancels_the_standing_session() {
    let dims = 2;
    let handle = start_streaming_server(50, dims, 4, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let sub_id = 7;
    client
        .subscribe(sub_id, &synthetic::query_sql(dims))
        .expect("subscribe");
    assert!(matches!(
        client.next_server_frame().expect("frame"),
        ServerFrame::SubAccepted { .. }
    ));
    // Feed part of the stream — never closing — then unsubscribe.
    let feed = synthetic::arrival_feed(sub_id, 200, dims, 5, 32);
    for frame in feed.iter().filter(|f| !f.close).take(4) {
        client.push(frame).expect("push");
    }
    client.unsubscribe(sub_id).expect("unsubscribe");
    let done = loop {
        match client.next_server_frame().expect("frame") {
            ServerFrame::Update { .. } => continue,
            ServerFrame::SubDone { sub_id: id, done } => {
                assert_eq!(id, sub_id);
                break done;
            }
            other => panic!("expected Update or SubDone, got {other:?}"),
        }
    };
    assert!(done.cancelled, "unsubscribe ends the session as cancelled");
    let metrics = handle.metrics();
    assert_eq!(metrics.queries_cancelled(), 1);
    // The connection survives: a fresh subscription under the same id.
    client
        .subscribe(sub_id, &synthetic::query_sql(dims))
        .expect("resubscribe");
    assert!(matches!(
        client.next_server_frame().expect("frame"),
        ServerFrame::SubAccepted { .. }
    ));
    handle.shutdown();
}

#[test]
fn disconnect_cancels_standing_subscriptions() {
    let dims = 2;
    let handle = start_streaming_server(50, dims, 6, 8);
    let metrics = handle.metrics();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .subscribe(1, &synthetic::query_sql(dims))
        .expect("subscribe");
    assert!(matches!(
        client.next_server_frame().expect("frame"),
        ServerFrame::SubAccepted { .. }
    ));
    let feed = synthetic::arrival_feed(1, 200, dims, 8, 32);
    for frame in feed.iter().filter(|f| !f.close).take(3) {
        client.push(frame).expect("push");
    }
    drop(client); // vanish with the subscription standing
    assert!(
        wait_for_cancelled(&metrics, 1, Duration::from_secs(20)),
        "disconnect must cancel the standing subscription (cancelled={})",
        metrics.queries_cancelled()
    );
    handle.shutdown();
}

#[test]
fn v1_client_completes_a_one_shot_query_unchanged() {
    let rows = 300;
    let dims = 2;
    let seed = 12;
    let sql = synthetic::query_sql(dims);
    let reference = QueryRunner::new(synthetic::catalog(rows, dims, seed))
        .run_collect(&sql, &Engine::progxe_threads(2))
        .expect("reference run");

    let handle = start_streaming_server(rows, dims, seed, 8);
    // No v2 Hello echo: the server must confine itself to v1 frames.
    let mut client = Client::connect_v1(handle.addr()).expect("connect");
    let outcome = client.run_query(&sql).expect("query runs");
    assert!(outcome.error.is_none());
    let done = outcome.done.expect("Done frame");
    assert!(!done.cancelled);
    assert_eq!(done.results, reference.results.len() as u64);
    let mut got: Vec<(u32, u32)> = outcome.tuples.iter().map(|t| (t.r_idx, t.t_idx)).collect();
    let mut want: Vec<(u32, u32)> = reference
        .results
        .iter()
        .map(|t| (t.r_idx, t.t_idx))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);

    // A v2-only request on the v1 connection gets a v1-safe typed error,
    // never an unknown tag.
    client.subscribe(9, &sql).expect("send subscribe");
    match client.next_server_frame().expect("frame") {
        ServerFrame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadQuery);
            assert!(
                message.contains("v2"),
                "explains the version gate: {message}"
            );
        }
        other => panic!("expected v1-safe Error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn cancel_in_the_same_write_as_the_query_is_not_lost() {
    use progxe_server::protocol::{read_server_frame, write_client_frame, ClientFrame};
    use std::io::Write;

    // The lost-cancel race: Cancel lands after Query but before the
    // handler installs the session token. Sending both frames in ONE
    // write maximizes the window; the pending-cancel set must catch it.
    let handle = start_server(2000, 3, 5, 8);
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    match read_server_frame(&mut reader).expect("hello") {
        ServerFrame::Hello { .. } => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    let mut buf = Vec::new();
    write_client_frame(&mut buf, &ClientFrame::Query(synthetic::query_sql(3))).unwrap();
    write_client_frame(&mut buf, &ClientFrame::Cancel { seq: None }).unwrap();
    (&stream).write_all(&buf).expect("one write");
    (&stream).flush().expect("flush");

    let done = loop {
        match read_server_frame(&mut reader).expect("stream well-formed") {
            ServerFrame::Accepted { .. } | ServerFrame::Batch(_) => continue,
            ServerFrame::Done(done) => break done,
            other => panic!("expected Accepted/Batch/Done, got {other:?}"),
        }
    };
    assert!(
        done.cancelled,
        "a Cancel racing the token install must still cancel the query"
    );
    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_cancelled(), 1);
    assert_eq!(metrics.queries_ok(), 0);
}

#[test]
fn stale_cancel_never_kills_the_next_pipelined_query() {
    let handle = start_server(2000, 3, 13, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let sql = synthetic::query_sql(3);
    let seq0 = client.send_query(&sql).expect("send q0");
    let _seq1 = client.send_query(&sql).expect("send q1");
    assert_eq!(seq0, 0);

    // Drain query 0 to its Done...
    let done0 = loop {
        match client.next_server_frame().expect("frame") {
            ServerFrame::Accepted { .. } | ServerFrame::Batch(_) => continue,
            ServerFrame::Done(done) => break done,
            other => panic!("q0: unexpected {other:?}"),
        }
    };
    assert!(!done0.cancelled);
    // ...then cancel it — stale: query 1 is (or is about to be) running,
    // and before cancels were sequenced this killed it.
    client.cancel_seq(seq0).expect("stale cancel");
    let done1 = loop {
        match client.next_server_frame().expect("frame") {
            ServerFrame::Accepted { .. } | ServerFrame::Batch(_) => continue,
            ServerFrame::Done(done) => break done,
            other => panic!("q1: unexpected {other:?}"),
        }
    };
    assert!(
        !done1.cancelled,
        "a stale Cancel for a finished query must not touch its successor"
    );
    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_ok(), 2);
    assert_eq!(metrics.queries_cancelled(), 0);
}

#[test]
fn wire_progress_is_monotone_and_reaches_the_final_estimate() {
    let rows = 400;
    let dims = 2;
    let seed = 3;
    let sql = synthetic::query_sql(dims);

    // In-process reference: the highest progress estimate any event
    // (including empty, progress-only ones) carries.
    let runner = QueryRunner::new(synthetic::catalog(rows, dims, seed));
    let planned = runner.prepare(&sql).expect("prepare");
    let mut session = runner
        .session(&planned, &Engine::progxe_threads(2))
        .expect("session");
    let mut final_estimate = 0.0f64;
    while let Some(event) = session.next_batch() {
        final_estimate = final_estimate.max(event.progress_estimate);
    }
    drop(session);
    assert!(final_estimate > 0.0);

    let handle = start_server(rows, dims, seed, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let outcome = client.run_query(&sql).expect("query runs");
    assert!(outcome.error.is_none());
    assert!(!outcome.progress.is_empty());
    for pair in outcome.progress.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "wire progress regressed: {:?}",
            outcome.progress
        );
    }
    let observed = outcome.progress.last().copied().unwrap();
    assert!(
        observed >= final_estimate,
        "wire progress went stale: observed {observed}, final estimate {final_estimate}"
    );
    handle.shutdown();
}

#[test]
fn shutdown_with_a_live_query_terminates_cleanly() {
    let handle = start_server(2000, 3, 9, 8);
    let metrics = handle.metrics();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.send_query(&synthetic::query_sql(3)).expect("send");
    read_until_accepted(&mut client);

    // Shutdown severs the connection; it must join every server thread
    // without waiting for the multi-second query to run to completion.
    let t = Instant::now();
    handle.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "shutdown blocked on a live query for {:?}",
        t.elapsed()
    );
    assert_eq!(
        metrics.queries_cancelled(),
        1,
        "the live query was cancelled"
    );
    assert_eq!(metrics.queries_ok(), 0);
}

/// The serving load gate: one server, many one-shot clients and
/// subscribers at once. Nothing is shed, cancelled or failed, and every
/// client receives exactly what an in-process run of its query (or of its
/// own arrival feed) emits.
#[test]
fn concurrent_clients_and_subscribers_match_in_process_runs() {
    const CLIENTS: usize = 32;
    const SUBSCRIBERS: usize = 16;
    let (rows, dims, seed) = (200, 2, 17);
    let sql = synthetic::query_sql(dims);
    let runner = QueryRunner::new(synthetic::streaming_catalog(rows, dims, seed));
    let engine = Engine::progxe_threads(2);

    let reference: Vec<WireTuple> = runner
        .run_collect(&sql, &engine)
        .expect("reference run")
        .results
        .into_iter()
        .map(|t| WireTuple {
            r_idx: t.r_idx,
            t_idx: t.t_idx,
            values: t.values,
        })
        .collect();
    assert!(!reference.is_empty(), "anti-correlated joins emit results");
    let feeds: Vec<Vec<PushFrame>> = (0..SUBSCRIBERS as u64)
        .map(|i| synthetic::arrival_feed(i, 120, dims, seed ^ (i + 1), 20))
        .collect();
    let transcripts: Vec<(Vec<TranscriptEvent>, ExecStats)> = feeds
        .iter()
        .map(|feed| {
            let query = runner
                .ingest_session(&sql, &engine)
                .expect("in-process session");
            replay_in_process(query, feed)
        })
        .collect();
    for (i, (_, stats)) in transcripts.iter().enumerate() {
        assert!(
            stats.results_emitted > 0,
            "anti-correlated feed {i} must emit results"
        );
    }

    // Every connection is open before any query starts, so all of them are
    // live at once against a cap of exactly that many.
    let handle = Server::start(
        runner,
        engine,
        ServerConfig {
            max_sessions: CLIENTS + SUBSCRIBERS,
        },
        "127.0.0.1:0",
    )
    .expect("bind port 0");
    let mut clients: Vec<Client> = (0..CLIENTS + SUBSCRIBERS)
        .map(|_| Client::connect(handle.addr()).expect("admitted under the cap"))
        .collect();
    let subscribers = clients.split_off(CLIENTS);
    let start = Barrier::new(CLIENTS + SUBSCRIBERS);
    let (start, sql, reference) = (&start, &sql, &reference);
    std::thread::scope(|s| {
        for mut client in clients {
            s.spawn(move || {
                start.wait();
                let outcome = client.run_query(sql).expect("query frame exchange");
                assert!(
                    outcome.error.is_none(),
                    "server error under load: {:?}",
                    outcome.error
                );
                let done = outcome.done.expect("terminal Done frame");
                assert!(!done.cancelled, "no client cancelled, yet a run was");
                assert_eq!(
                    &outcome.tuples, reference,
                    "wire results must equal run_collect"
                );
            });
        }
        for ((sub_id, mut client), (feed, (transcript, stats))) in (0u64..)
            .zip(subscribers)
            .zip(feeds.iter().zip(&transcripts))
        {
            s.spawn(move || {
                start.wait();
                client.subscribe(sub_id, sql).expect("subscribe");
                match client.next_server_frame().expect("frame") {
                    ServerFrame::SubAccepted { sub_id: id, .. } => assert_eq!(id, sub_id),
                    other => panic!("expected SubAccepted, got {other:?}"),
                }
                for frame in feed {
                    client.push(frame).expect("push");
                }
                let mut wire = Vec::new();
                let done = loop {
                    match client.next_server_frame().expect("frame") {
                        ServerFrame::Update { sub_id: id, batch } => {
                            assert_eq!(id, sub_id);
                            wire.push(wire_event(&batch));
                        }
                        ServerFrame::SubDone { sub_id: id, done } => {
                            assert_eq!(id, sub_id);
                            break done;
                        }
                        other => panic!("expected Update or SubDone, got {other:?}"),
                    }
                };
                assert!(!done.cancelled, "a fully fed subscription completes");
                assert_eq!(done.results, stats.results_emitted);
                assert_eq!(
                    &wire, transcript,
                    "subscription {sub_id}: Update stream must equal the in-process replay"
                );
            });
        }
    });

    // The server counts a run before writing its Done / SubDone, so the
    // counters are final here. A second SubDone for one subscription would
    // also push `queries_ok` past the total.
    let metrics = handle.metrics();
    handle.shutdown();
    assert_eq!(metrics.queries_ok(), (CLIENTS + SUBSCRIBERS) as u64);
    assert_eq!(metrics.queries_cancelled(), 0);
    assert_eq!(metrics.queries_failed(), 0);
    assert_eq!(metrics.rejected(), 0);
}
