//! A small blocking client for the ProgXe wire protocol.
//!
//! Used by the integration tests and the `benchmark/` package; also the
//! reference implementation for anyone speaking the protocol from another
//! language. One [`Client`] maps to one connection; one-shot queries run
//! sequentially and any number of subscriptions multiplex alongside them,
//! mirroring the server's per-connection model.
//!
//! [`Client::connect`] performs the v2 handshake (reads the server's
//! `Hello`, echoes the client's). [`Client::connect_v1`] skips the echo
//! and restricts itself to v1 frames — it exists so tests can prove a v1
//! client keeps working against a v2 server, and doubles as the reference
//! for v1-era peers.

use crate::protocol::{
    read_server_frame, write_client_frame, ClientFrame, DoneFrame, ErrorCode, PushFrame,
    ServerFrame, WireTuple, PROTOCOL_VERSION,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything a completed (or failed) query produced, client-side.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Output column names from the `Accepted` frame.
    pub columns: Vec<String>,
    /// All tuples received, in server emission order.
    pub tuples: Vec<WireTuple>,
    /// The `progress` of every batch frame received, in arrival order
    /// (including empty, progress-only batches).
    pub progress: Vec<f64>,
    /// The terminal `Done` frame, if the query ran (even cancelled runs
    /// get one). `None` when the server answered with an error instead.
    pub done: Option<DoneFrame>,
    /// The terminal `Error` frame, if any.
    pub error: Option<(ErrorCode, String)>,
    /// Time from sending the query to the first non-empty batch.
    pub first_result: Option<Duration>,
}

/// A connected protocol client. Dropping it closes the socket, which the
/// server treats as disconnect: any in-flight query or standing
/// subscription is cancelled.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Queries sent on this connection — the server assigns sequence
    /// numbers in the same order, so this mirrors its numbering.
    queries_sent: u64,
}

impl Client {
    /// Connects, waits for the server's `Hello`, checks the protocol
    /// version, and echoes a client `Hello` (the v2 capability echo that
    /// unlocks subscription frames). An `Error` frame in place of `Hello`
    /// (admission shed) is surfaced as
    /// [`io::ErrorKind::ConnectionRefused`] with the server's message.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let mut client = Self::connect_v1(addr)?;
        write_client_frame(
            &mut client.writer,
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
        )?;
        client.writer.flush()?;
        Ok(client)
    }

    /// Connects as a protocol v1 client: no capability echo, so the server
    /// confines itself to v1 frames. Subscription methods must not be used
    /// on such a connection.
    pub fn connect_v1(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Self {
            reader,
            writer,
            queries_sent: 0,
        };
        match client.next_server_frame()? {
            // Any server version ≥ 1 works: the server only ever sends v2
            // tags after our explicit opt-in.
            ServerFrame::Hello { version } if version >= 1 => Ok(client),
            ServerFrame::Hello { version } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server speaks protocol v{version}, client v{PROTOCOL_VERSION}"),
            )),
            ServerFrame::Error { code, message } => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server refused connection ({code:?}): {message}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Hello, got {other:?}"),
            )),
        }
    }

    /// Sends a `Query` frame without waiting for any response; returns the
    /// query's connection-scoped sequence number (usable with
    /// [`Client::cancel_seq`]). Pair with [`Client::next_server_frame`] to
    /// drive the stream by hand (as the cancellation tests do).
    pub fn send_query(&mut self, sql: &str) -> io::Result<u64> {
        write_client_frame(&mut self.writer, &ClientFrame::Query(sql.to_string()))?;
        self.writer.flush()?;
        let seq = self.queries_sent;
        self.queries_sent += 1;
        Ok(seq)
    }

    /// Sends a v1 `Cancel` frame targeting the most recently sent query.
    /// The server still terminates that query's stream with
    /// `Done { cancelled: true }`.
    pub fn cancel(&mut self) -> io::Result<()> {
        write_client_frame(&mut self.writer, &ClientFrame::Cancel { seq: None })?;
        self.writer.flush()
    }

    /// Sends a v2 `Cancel` targeting one specific query by the sequence
    /// number [`Client::send_query`] returned. Stale targets (the query
    /// already finished) are no-ops server-side — this can never kill a
    /// later query.
    pub fn cancel_seq(&mut self, seq: u64) -> io::Result<()> {
        write_client_frame(&mut self.writer, &ClientFrame::Cancel { seq: Some(seq) })?;
        self.writer.flush()
    }

    /// Opens a subscription (standing streaming query) under a caller-
    /// chosen, connection-scoped `sub_id`. The server answers with
    /// `SubAccepted` (then `Update`s as pushes arrive) or `SubError`.
    pub fn subscribe(&mut self, sub_id: u64, sql: &str) -> io::Result<()> {
        write_client_frame(
            &mut self.writer,
            &ClientFrame::Subscribe {
                sub_id,
                sql: sql.to_string(),
            },
        )?;
        self.writer.flush()
    }

    /// Ends a subscription; the server answers with `SubDone`
    /// (`cancelled: true` unless it had already completed).
    pub fn unsubscribe(&mut self, sub_id: u64) -> io::Result<()> {
        write_client_frame(&mut self.writer, &ClientFrame::Unsubscribe { sub_id })?;
        self.writer.flush()
    }

    /// Feeds rows / a watermark / a close into a subscription's source.
    pub fn push(&mut self, frame: &PushFrame) -> io::Result<()> {
        write_client_frame(&mut self.writer, &ClientFrame::Push(frame.clone()))?;
        self.writer.flush()
    }

    /// Reads the next frame from the server (blocking).
    pub fn next_server_frame(&mut self) -> io::Result<ServerFrame> {
        read_server_frame(&mut self.reader)
    }

    /// Sets (or clears) the socket read timeout used by
    /// [`Client::next_server_frame`]; a timed-out read surfaces as
    /// `WouldBlock`/`TimedOut`. Note a timeout can strike mid-frame and
    /// lose the bytes already consumed — prefer [`Client::into_split`]
    /// with a blocking reader thread when multiplexing; timeouts suit
    /// liveness checks where the connection is abandoned on expiry.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Splits the connection into its two halves so one thread can keep
    /// pushing while another drains `Update`s — the multiplexed shape a
    /// real subscriber (and the `benchmark/` package) uses. The halves
    /// share the socket; dropping both closes it.
    pub fn into_split(self) -> (ClientWriter, ClientReader) {
        (
            ClientWriter {
                writer: self.writer,
            },
            ClientReader {
                reader: self.reader,
            },
        )
    }

    /// Runs one query to completion: sends it, collects every batch, and
    /// returns when the terminal `Done` or `Error` frame arrives.
    /// Subscription frames for other streams arriving mid-run are an
    /// error here — drive the connection by hand when multiplexing.
    pub fn run_query(&mut self, sql: &str) -> io::Result<RunOutcome> {
        let started = Instant::now();
        self.send_query(sql)?;
        let mut outcome = RunOutcome::default();
        loop {
            match self.next_server_frame()? {
                ServerFrame::Accepted { columns } => outcome.columns = columns,
                ServerFrame::Batch(batch) => {
                    if outcome.first_result.is_none() && !batch.tuples.is_empty() {
                        outcome.first_result = Some(started.elapsed());
                    }
                    outcome.progress.push(batch.progress);
                    outcome.tuples.extend(batch.tuples);
                }
                ServerFrame::Done(done) => {
                    outcome.done = Some(done);
                    return Ok(outcome);
                }
                ServerFrame::Error { code, message } => {
                    outcome.error = Some((code, message));
                    return Ok(outcome);
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame during one-shot query: {other:?}"),
                    ));
                }
            }
        }
    }
}

/// The sending half of a split [`Client`] (see [`Client::into_split`]).
#[derive(Debug)]
pub struct ClientWriter {
    writer: BufWriter<TcpStream>,
}

impl ClientWriter {
    /// Writes one frame and flushes it onto the wire.
    pub fn send(&mut self, frame: &ClientFrame) -> io::Result<()> {
        write_client_frame(&mut self.writer, frame)?;
        self.writer.flush()
    }
}

/// The receiving half of a split [`Client`] (see [`Client::into_split`]).
#[derive(Debug)]
pub struct ClientReader {
    reader: BufReader<TcpStream>,
}

impl ClientReader {
    /// Reads the next frame from the server (blocking).
    pub fn next_server_frame(&mut self) -> io::Result<ServerFrame> {
        read_server_frame(&mut self.reader)
    }
}
