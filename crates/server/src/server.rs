//! The serving loop: accept, admit, stream, cancel, subscribe.
//!
//! One OS thread per connection plus a per-connection *watchdog* thread
//! that owns the read half of the socket. The watchdog is what makes
//! cancellation prompt: while the handler streams batches, the watchdog
//! sits in a blocking read, so a [`ClientFrame::Cancel`], an
//! [`ClientFrame::Unsubscribe`] — or the read error / EOF of a vanished
//! client — reaches the targeted session's [`CancellationToken`]
//! immediately, and pooled region workers stop at their next token check
//! instead of burning shared CPU for a client that will never see the
//! results.
//!
//! Cancellation is *sequenced*: the watchdog assigns every `Query` frame a
//! connection-scoped sequence number in wire order, and a `Cancel` resolves
//! against it under one lock. A Cancel that races ahead of the query's
//! session (the token not yet installed) parks in a pending set and fires
//! the moment the token exists; a Cancel whose target already finished is
//! a no-op. Without the sequence discipline, an early Cancel was silently
//! lost and a late one killed the *next* pipelined query.
//!
//! Subscriptions (protocol v2) are standing [`StreamingQuery`] sessions
//! held in a per-connection registry, keyed by the client's `sub_id`. The handler
//! thread — the connection's single writer — ingests `Push` frames and
//! multiplexes each subscription's proven-final batches onto the socket as
//! `Update` frames the moment regions resolve. One token per subscription:
//! `Unsubscribe` and disconnect both fire it, and the teardown is
//! accounted in [`ServerMetrics::queries_cancelled`].
//!
//! Admission control is strict shedding: past
//! [`ServerConfig::max_sessions`] concurrent connections, a new client
//! gets a typed [`ErrorCode::Overloaded`] frame and an immediate close.
//! The server never queues connections — unbounded queueing just converts
//! overload into latency nobody asked for.
//!
//! Batches are written as the engine proves them final
//! ([`progxe_core::session::QuerySession`] pull loop → frame → flush);
//! the full result is never materialized
//! server-side. Empty batches are forwarded too when they advance the
//! progress estimate, so a wire client's observed progress never goes
//! stale relative to the server's.

use crate::protocol::{
    write_server_frame, BatchFrame, ClientFrame, DoneFrame, ErrorCode, PushFrame, ServerFrame,
    WireTuple, PROTOCOL_VERSION,
};
use progxe_core::ingest::{IngestError, IngestPoll};
use progxe_core::session::{CancellationToken, ResultEvent};
use progxe_obs::MetricsRegistry;
use progxe_query::exec::{Engine, QueryError, QueryRunner, StreamingQuery};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection cap; connection `max_sessions + 1` is shed
    /// with [`ErrorCode::Overloaded`].
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { max_sessions: 64 }
    }
}

/// Monotone counters describing a server's lifetime, shared across threads
/// and readable at any point (including from tests and the load
/// generator). Mirrored as `server.*` counters in
/// [`MetricsRegistry::global`].
#[derive(Debug, Default)]
pub struct ServerMetrics {
    accepted: AtomicU64,
    rejected: AtomicU64,
    queries_ok: AtomicU64,
    queries_cancelled: AtomicU64,
    queries_failed: AtomicU64,
}

impl ServerMetrics {
    /// Connections admitted past admission control.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections shed with [`ErrorCode::Overloaded`].
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Queries and subscriptions that ran to completion.
    pub fn queries_ok(&self) -> u64 {
        self.queries_ok.load(Ordering::Relaxed)
    }

    /// Queries and subscriptions whose run ended with
    /// `ExecStats::cancelled` — an explicit `Cancel`/`Unsubscribe` frame,
    /// a vanished client, or a dropped session.
    pub fn queries_cancelled(&self) -> u64 {
        self.queries_cancelled.load(Ordering::Relaxed)
    }

    /// Queries rejected at parse/plan time or failed during execution.
    pub fn queries_failed(&self) -> u64 {
        self.queries_failed.load(Ordering::Relaxed)
    }

    fn count_done(&self, cancelled: bool) {
        if cancelled {
            self.queries_cancelled.fetch_add(1, Ordering::Relaxed);
            MetricsRegistry::global().incr("server.queries_cancelled", 1);
        } else {
            self.queries_ok.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Shared state every connection handler needs.
struct Shared {
    runner: QueryRunner,
    engine: Engine,
    metrics: Arc<ServerMetrics>,
    active: AtomicUsize,
    max_sessions: usize,
    /// Read halves of live connections, keyed by connection id, so
    /// [`ServerHandle::shutdown`] can unblock every watchdog.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// The ProgXe TCP server. See [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `addr` and starts the accept loop on a background thread.
    ///
    /// `runner` supplies the catalog; `engine` is shared by every session
    /// (clones share one `EngineRuntime`, so the worker pool is spawned
    /// once for the whole server — per-session parallelism comes from
    /// `ProgXeConfig::threads`). Attach a `Recorder` to the engine
    /// beforehand (`Engine::with_recorder`) to trace every connection's
    /// sessions through `crates/obs`.
    pub fn start(
        runner: QueryRunner,
        engine: Engine,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            runner,
            engine,
            metrics: Arc::new(ServerMetrics::default()),
            active: AtomicUsize::new(0),
            max_sessions: config.max_sessions.max(1),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let stopping = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let stopping = Arc::clone(&stopping);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("progxe-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &stopping, &handlers))
                .expect("spawn accept thread")
        };
        progxe_obs::log::info(&format!("progxe-server listening on {local_addr}"));
        Ok(ServerHandle {
            addr: local_addr,
            shared,
            stopping,
            accept: Some(accept),
            handlers,
        })
    }
}

/// Owner handle for a running server: address, metrics, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's lifetime counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Live connections right now.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Stops accepting, severs every live connection (in-flight queries
    /// and subscriptions cancel via their tokens), and joins all server
    /// threads. Idempotent via `Drop`; returns once the server is fully
    /// quiesced.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stopping.store(true, Ordering::Release);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Sever live connections: each watchdog's read fails, fires the
        // in-flight tokens, and its handler unwinds cleanly.
        {
            let conns = self.shared.conns.lock().expect("conn registry poisoned");
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
        debug_assert_eq!(self.shared.active.load(Ordering::Acquire), 0);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    stopping: &Arc<AtomicBool>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if stopping.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Admission control: shed, never queue. `fetch_add` first so two
        // racing connections cannot both sneak under the cap.
        if shared.active.fetch_add(1, Ordering::AcqRel) >= shared.max_sessions {
            shared.active.fetch_sub(1, Ordering::AcqRel);
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            MetricsRegistry::global().incr("server.rejected", 1);
            let mut w = BufWriter::new(&stream);
            let _ = write_server_frame(
                &mut w,
                &ServerFrame::Error {
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "session cap reached ({} concurrent); retry later",
                        shared.max_sessions
                    ),
                },
            );
            let _ = w.flush();
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        MetricsRegistry::global().incr("server.accepted", 1);
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("progxe-conn".into())
            .spawn(move || {
                let conn_id = conn_shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                handle_connection(stream, conn_id, &conn_shared);
                conn_shared
                    .conns
                    .lock()
                    .expect("conn registry poisoned")
                    .remove(&conn_id);
                conn_shared.active.fetch_sub(1, Ordering::AcqRel);
            });
        match handle {
            Ok(h) => {
                let mut list = handlers.lock().expect("handler list poisoned");
                // Reap finished handlers so a long-lived server does not
                // accumulate join handles.
                list.retain(|h| !h.is_finished());
                list.push(h);
            }
            Err(_) => {
                shared.active.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

/// Cancellation bookkeeping shared between a connection's watchdog (which
/// resolves `Cancel` frames and disconnects) and its handler (which
/// installs and clears tokens). Everything lives under one mutex so a
/// Cancel and a token install can never interleave invisibly.
#[derive(Default)]
struct CancelState {
    /// Queries received so far, i.e. the next `Query` frame's sequence
    /// number. Assigned by the watchdog in wire order.
    next_seq: u64,
    /// Sequences fully finished (`done_up_to` = highest finished + 1,
    /// since queries run in order). Cancels below this are stale no-ops.
    done_up_to: u64,
    /// The query currently holding a session, if any.
    running: Option<(u64, CancellationToken)>,
    /// Cancels that arrived before their target's token was installed.
    pending: HashSet<u64>,
    /// Live subscription tokens, keyed by `sub_id`, so disconnect and
    /// `Unsubscribe` can fire them without waiting on the handler.
    subs: HashMap<u64, CancellationToken>,
    /// Whether the client echoed `Hello { version >= 2 }`. Until then the
    /// server must not emit v2 frame tags.
    v2: bool,
}

impl CancelState {
    /// Resolves a `Cancel` frame. `None` (v1 wire image) targets the most
    /// recently received query.
    fn cancel(&mut self, seq: Option<u64>) {
        let target = match seq {
            Some(s) => s,
            None if self.next_seq > 0 => self.next_seq - 1,
            None => return, // nothing ever queried: no-op
        };
        if target < self.done_up_to {
            return; // already finished: must NOT touch a later query
        }
        match &self.running {
            Some((running_seq, token)) if *running_seq == target => token.cancel(),
            _ => {
                // Not started yet (or the handler hasn't installed the
                // token): park the cancel; `install_token` fires it.
                self.pending.insert(target);
            }
        }
    }

    /// Fires every live token — the connection is gone.
    fn cancel_all(&mut self) {
        if let Some((_, token)) = &self.running {
            token.cancel();
        }
        for token in self.subs.values() {
            token.cancel();
        }
    }
}

/// Work items the watchdog forwards to the handler thread, in wire order.
enum Work {
    Query { seq: u64, sql: String },
    Subscribe { sub_id: u64, sql: String },
    Unsubscribe { sub_id: u64 },
    Push(PushFrame),
}

/// Serves one connection: a watchdog thread owns the read half and
/// forwards work over a channel; this thread runs queries, feeds
/// subscriptions, and owns the write half. The watchdog cancels targeted
/// sessions on `Cancel`/`Unsubscribe`, and everything on read error or
/// EOF — disconnect detection is just "the read failed".
fn handle_connection(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    {
        let mut conns = shared.conns.lock().expect("conn registry poisoned");
        match read_half.try_clone() {
            Ok(registered) => {
                conns.insert(conn_id, registered);
            }
            Err(_) => return,
        }
    }
    let mut writer = BufWriter::new(stream);
    if write_server_frame(
        &mut writer,
        &ServerFrame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .and_then(|()| writer.flush())
    .is_err()
    {
        return;
    }

    let state: Arc<Mutex<CancelState>> = Arc::new(Mutex::new(CancelState::default()));
    let (tx, rx) = mpsc::channel::<Work>();
    let watchdog = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("progxe-conn-watchdog".into())
            .spawn(move || {
                let mut reader = BufReader::new(read_half);
                loop {
                    match crate::protocol::read_client_frame(&mut reader) {
                        Ok(ClientFrame::Query(sql)) => {
                            let seq = {
                                let mut st = state.lock().expect("cancel state poisoned");
                                let seq = st.next_seq;
                                st.next_seq += 1;
                                seq
                            };
                            if tx.send(Work::Query { seq, sql }).is_err() {
                                return;
                            }
                        }
                        Ok(ClientFrame::Cancel { seq }) => {
                            state.lock().expect("cancel state poisoned").cancel(seq);
                        }
                        Ok(ClientFrame::Hello { version }) => {
                            state.lock().expect("cancel state poisoned").v2 = version >= 2;
                        }
                        Ok(ClientFrame::Subscribe { sub_id, sql }) => {
                            if tx.send(Work::Subscribe { sub_id, sql }).is_err() {
                                return;
                            }
                        }
                        Ok(ClientFrame::Unsubscribe { sub_id }) => {
                            // Fire the token *now* for promptness (pooled
                            // workers stop mid-drain); the handler sends
                            // SubDone when it reaches this point in the
                            // work queue.
                            if let Some(token) = state
                                .lock()
                                .expect("cancel state poisoned")
                                .subs
                                .get(&sub_id)
                            {
                                token.cancel();
                            }
                            if tx.send(Work::Unsubscribe { sub_id }).is_err() {
                                return;
                            }
                        }
                        Ok(ClientFrame::Push(push)) => {
                            if tx.send(Work::Push(push)).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            // Disconnect (or protocol garbage): stop every
                            // in-flight session and end the connection.
                            state.lock().expect("cancel state poisoned").cancel_all();
                            return;
                        }
                    }
                }
            })
    };
    let Ok(watchdog) = watchdog else { return };

    // Work items run sequentially per connection; the channel closes when
    // the watchdog exits (client gone), ending the loop.
    let mut subs: HashMap<u64, SubEntry> = HashMap::new();
    while let Ok(work) = rx.recv() {
        let io = match work {
            Work::Query { seq, sql } => run_query(seq, &sql, &mut writer, shared, &state),
            Work::Subscribe { sub_id, sql } => {
                subscribe(sub_id, &sql, &mut subs, &mut writer, shared, &state)
            }
            Work::Unsubscribe { sub_id } => {
                unsubscribe(sub_id, &mut subs, &mut writer, shared, &state)
            }
            Work::Push(push) => handle_push(push, &mut subs, &mut writer, shared, &state),
        };
        if io.is_err() {
            break; // write half is dead; the connection is over
        }
    }
    // Tear down standing subscriptions: the client is gone (or the socket
    // died), so every remaining session counts as cancelled.
    for (sub_id, entry) in subs.drain() {
        state
            .lock()
            .expect("cancel state poisoned")
            .subs
            .remove(&sub_id);
        let mut query = entry.query;
        query.cancel();
        let stats = query.finish();
        debug_assert!(stats.cancelled);
        shared.metrics.count_done(stats.cancelled);
    }
    // Unblock the watchdog if it is still in read() (e.g. we exited on a
    // write error before the client closed).
    let _ = writer.get_ref().shutdown(Shutdown::Both);
    let _ = watchdog.join();
}

/// A standing subscription owned by the handler thread.
struct SubEntry {
    query: StreamingQuery,
    started: Instant,
}

/// Converts a session event into its wire image.
fn batch_frame(event: &ResultEvent) -> BatchFrame {
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

/// Runs one query, streaming batches as they are proven final. `Err` means
/// the socket write failed (client gone) — the session is dropped, which
/// fires its token. Query-level failures (parse, plan) are reported
/// in-band and return `Ok`.
fn run_query(
    seq: u64,
    sql: &str,
    writer: &mut BufWriter<TcpStream>,
    shared: &Arc<Shared>,
    state: &Arc<Mutex<CancelState>>,
) -> io::Result<()> {
    let started = Instant::now();
    MetricsRegistry::global().incr("server.queries", 1);
    // However this query ends, its sequence is finished afterwards: clear
    // the running slot, retire the seq, and drop any cancel still aimed at
    // it (all under one lock, so a racing Cancel sees either a live token
    // or a finished query — never the gap in between).
    let finish_seq = |state: &Arc<Mutex<CancelState>>| {
        let mut st = state.lock().expect("cancel state poisoned");
        st.running = None;
        st.done_up_to = st.done_up_to.max(seq + 1);
        st.pending.remove(&seq);
    };
    let planned = match shared.runner.prepare(sql) {
        Ok(p) => p,
        Err(e) => {
            finish_seq(state);
            shared
                .metrics
                .queries_failed
                .fetch_add(1, Ordering::Relaxed);
            write_server_frame(
                writer,
                &ServerFrame::Error {
                    code: ErrorCode::BadQuery,
                    message: e.to_string(),
                },
            )?;
            return writer.flush();
        }
    };
    let mut session = match shared.runner.session(&planned, &shared.engine) {
        Ok(s) => s,
        Err(e) => {
            finish_seq(state);
            shared
                .metrics
                .queries_failed
                .fetch_add(1, Ordering::Relaxed);
            // A NaN or ±∞ in a row the query reads is the query's input
            // at fault, not the engine.
            let code = match e {
                QueryError::Exec(progxe_core::error::Error::NonFiniteValue { .. }) => {
                    ErrorCode::BadQuery
                }
                _ => ErrorCode::Internal,
            };
            write_server_frame(
                writer,
                &ServerFrame::Error {
                    code,
                    message: e.to_string(),
                },
            )?;
            return writer.flush();
        }
    };
    {
        // Install the token; a Cancel that raced ahead of us (landed after
        // the Query frame but before this point) is parked in `pending`
        // and must fire now, not be lost.
        let mut st = state.lock().expect("cancel state poisoned");
        let token = session.cancel_token();
        if st.pending.remove(&seq) {
            token.cancel();
        }
        st.running = Some((seq, token));
    }
    write_server_frame(
        writer,
        &ServerFrame::Accepted {
            columns: planned.output_names.clone(),
        },
    )?;
    writer.flush()?;

    let mut first_result = true;
    // Progress high-water actually sent; empty batches are forwarded only
    // when they move it, so progress never goes stale and never spams.
    let mut sent_progress = -1.0f64;
    let stream_result: io::Result<()> = loop {
        let Some(event) = session.next_batch() else {
            break Ok(());
        };
        if event.is_progress_only() && event.progress_estimate <= sent_progress {
            continue;
        }
        if first_result && !event.tuples.is_empty() {
            first_result = false;
            MetricsRegistry::global().observe("server.first_result", started.elapsed());
        }
        sent_progress = sent_progress.max(event.progress_estimate);
        let frame = ServerFrame::Batch(batch_frame(&event));
        // Flush per batch: progressiveness is the product; batching frames
        // in the BufWriter would trade first-result latency for throughput
        // behind the client's back.
        if let Err(e) = write_server_frame(writer, &frame).and_then(|()| writer.flush()) {
            break Err(e);
        }
    };

    if let Err(e) = stream_result {
        finish_seq(state);
        // Client vanished mid-stream. Finish (not drop) the session so the
        // cancellation is accounted in `ExecStats` and our counters even
        // though nobody is listening anymore.
        session.cancel();
        let stats = session.finish();
        debug_assert!(stats.cancelled);
        shared
            .metrics
            .queries_cancelled
            .fetch_add(1, Ordering::Relaxed);
        MetricsRegistry::global().incr("server.queries_cancelled", 1);
        return Err(e);
    }
    finish_seq(state);
    let stats = session.finish();
    shared.metrics.count_done(stats.cancelled);
    let done = ServerFrame::Done(DoneFrame {
        cancelled: stats.cancelled,
        results: stats.results_emitted,
        elapsed_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    });
    write_server_frame(writer, &done)?;
    writer.flush()
}

/// Writes a frame only a v2 client understands — or, when the client never
/// echoed `Hello { version: 2 }`, a v1-safe `Error` instead. Keeps the "a
/// v1 client never sees an unknown tag" invariant in one place.
fn write_v2_or_reject(
    writer: &mut BufWriter<TcpStream>,
    state: &Arc<Mutex<CancelState>>,
    frame: &ServerFrame,
) -> io::Result<bool> {
    let v2 = state.lock().expect("cancel state poisoned").v2;
    if v2 {
        write_server_frame(writer, frame)?;
        writer.flush()?;
        return Ok(true);
    }
    write_server_frame(
        writer,
        &ServerFrame::Error {
            code: ErrorCode::BadQuery,
            message: "subscriptions require a protocol v2 Hello echo".into(),
        },
    )?;
    writer.flush()?;
    Ok(false)
}

/// Opens a standing streaming query under `sub_id`.
fn subscribe(
    sub_id: u64,
    sql: &str,
    subs: &mut HashMap<u64, SubEntry>,
    writer: &mut BufWriter<TcpStream>,
    shared: &Arc<Shared>,
    state: &Arc<Mutex<CancelState>>,
) -> io::Result<()> {
    MetricsRegistry::global().incr("server.subscriptions", 1);
    if subs.contains_key(&sub_id) {
        return write_v2_or_reject(
            writer,
            state,
            &ServerFrame::SubError {
                sub_id,
                code: ErrorCode::BadQuery,
                message: format!("sub_id {sub_id} is already subscribed on this connection"),
            },
        )
        .map(|_| ());
    }
    let query = match shared.runner.ingest_session(sql, &shared.engine) {
        Ok(q) => q,
        Err(e) => {
            shared
                .metrics
                .queries_failed
                .fetch_add(1, Ordering::Relaxed);
            return write_v2_or_reject(
                writer,
                state,
                &ServerFrame::SubError {
                    sub_id,
                    code: ErrorCode::BadQuery,
                    message: e.to_string(),
                },
            )
            .map(|_| ());
        }
    };
    let accepted = ServerFrame::SubAccepted {
        sub_id,
        columns: query.output_names().to_vec(),
    };
    if !write_v2_or_reject(writer, state, &accepted)? {
        // v1 connection: the session never becomes visible; drop it (the
        // DropCancel guard fires its token).
        shared
            .metrics
            .queries_failed
            .fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    state
        .lock()
        .expect("cancel state poisoned")
        .subs
        .insert(sub_id, query.cancel_token());
    subs.insert(
        sub_id,
        SubEntry {
            query,
            started: Instant::now(),
        },
    );
    Ok(())
}

/// Ends a subscription: cancel (idempotent — the watchdog already fired
/// the token), finish, account, `SubDone`. Unknown ids are ignored: the
/// subscription may have just completed on its own while the Unsubscribe
/// was in flight.
fn unsubscribe(
    sub_id: u64,
    subs: &mut HashMap<u64, SubEntry>,
    writer: &mut BufWriter<TcpStream>,
    shared: &Arc<Shared>,
    state: &Arc<Mutex<CancelState>>,
) -> io::Result<()> {
    let Some(entry) = subs.remove(&sub_id) else {
        return Ok(());
    };
    state
        .lock()
        .expect("cancel state poisoned")
        .subs
        .remove(&sub_id);
    let mut query = entry.query;
    query.cancel();
    let stats = query.finish();
    shared.metrics.count_done(stats.cancelled);
    let done = ServerFrame::SubDone {
        sub_id,
        done: DoneFrame {
            cancelled: stats.cancelled,
            results: stats.results_emitted,
            elapsed_us: u64::try_from(entry.started.elapsed().as_micros()).unwrap_or(u64::MAX),
        },
    };
    write_v2_or_reject(writer, state, &done).map(|_| ())
}

/// Feeds one `Push` frame into its subscription and multiplexes every
/// batch it unlocks onto the socket. Ingest rejections are subscription-
/// scoped `SubError`s (the session survives — ingest errors are atomic);
/// a push racing an unsubscribe is dropped silently.
fn handle_push(
    push: PushFrame,
    subs: &mut HashMap<u64, SubEntry>,
    writer: &mut BufWriter<TcpStream>,
    shared: &Arc<Shared>,
    state: &Arc<Mutex<CancelState>>,
) -> io::Result<()> {
    let sub_id = push.sub_id;
    let Some(entry) = subs.get_mut(&sub_id) else {
        return write_v2_or_reject(
            writer,
            state,
            &ServerFrame::SubError {
                sub_id,
                code: ErrorCode::BadQuery,
                message: format!("push for unknown sub_id {sub_id}"),
            },
        )
        .map(|_| ());
    };
    let ingest: Result<(), QueryError> = (|| {
        let rows: Vec<(&[f64], u32)> = push
            .rows
            .iter()
            .map(|r| (r.attrs.as_slice(), r.key))
            .collect();
        if !rows.is_empty() {
            entry.query.push(push.source, &rows)?;
        }
        if let Some(wm) = &push.watermark {
            entry.query.set_watermark(push.source, wm)?;
        }
        if push.close {
            entry.query.close(push.source);
        }
        Ok(())
    })();
    match ingest {
        Ok(()) => {}
        Err(QueryError::Ingest(IngestError::Cancelled)) => {
            // An Unsubscribe raced this push through the watchdog's eager
            // token fire; the SubDone is already queued behind us.
            return Ok(());
        }
        Err(e) => {
            return write_v2_or_reject(
                writer,
                state,
                &ServerFrame::SubError {
                    sub_id,
                    code: ErrorCode::BadQuery,
                    message: e.to_string(),
                },
            )
            .map(|_| ());
        }
    }

    // Drain everything the push unlocked. Every batch is forwarded
    // verbatim — progress-only events included — so the wire transcript
    // is bit-identical to an in-process session fed the same schedule.
    let completed = loop {
        match entry.query.poll() {
            IngestPoll::Batch(event) => {
                let frame = ServerFrame::Update {
                    sub_id,
                    batch: batch_frame(&event),
                };
                write_server_frame(writer, &frame)?;
                writer.flush()?;
            }
            IngestPoll::NeedInput => break false,
            IngestPoll::Complete => break true,
        }
    };
    if !completed {
        return Ok(());
    }
    let entry = subs.remove(&sub_id).expect("entry exists");
    state
        .lock()
        .expect("cancel state poisoned")
        .subs
        .remove(&sub_id);
    let stats = entry.query.finish();
    shared.metrics.count_done(stats.cancelled);
    let done = ServerFrame::SubDone {
        sub_id,
        done: DoneFrame {
            cancelled: stats.cancelled,
            results: stats.results_emitted,
            elapsed_us: u64::try_from(entry.started.elapsed().as_micros()).unwrap_or(u64::MAX),
        },
    };
    write_server_frame(writer, &done)?;
    writer.flush()
}

/// Blocks until `metrics` reports at least `n` cancelled queries or the
/// timeout elapses; returns whether the threshold was reached. Test and
/// load-generator helper (the cancel path is asynchronous by design).
pub fn wait_for_cancelled(metrics: &ServerMetrics, n: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if metrics.queries_cancelled() >= n {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    metrics.queries_cancelled() >= n
}
