//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is `tag (1 byte) · payload length (u32, big-endian) ·
//! payload`. Multi-byte integers and the IEEE-754 bit patterns of floats
//! are big-endian throughout. The protocol is deliberately minimal — text
//! query in, framed progressive result batches out — because the hard part
//! of serving progressive queries is lifecycle (cancellation, admission,
//! no-buffering streaming), not serialization.
//!
//! # Frame table
//!
//! | Tag    | Frame                        | Since | Direction |
//! |--------|------------------------------|-------|-----------|
//! | `0x01` | [`ClientFrame::Query`]       | v1    | c → s     |
//! | `0x02` | [`ClientFrame::Cancel`]      | v1¹   | c → s     |
//! | `0x03` | [`ClientFrame::Hello`]       | v2    | c → s     |
//! | `0x04` | [`ClientFrame::Subscribe`]   | v2    | c → s     |
//! | `0x05` | [`ClientFrame::Unsubscribe`] | v2    | c → s     |
//! | `0x06` | [`ClientFrame::Push`]        | v2    | c → s     |
//! | `0x81` | [`ServerFrame::Hello`]       | v1    | s → c     |
//! | `0x82` | [`ServerFrame::Accepted`]    | v1    | s → c     |
//! | `0x83` | [`ServerFrame::Batch`]       | v1    | s → c     |
//! | `0x84` | [`ServerFrame::Done`]        | v1    | s → c     |
//! | `0x85` | [`ServerFrame::Error`]       | v1    | s → c     |
//! | `0x86` | [`ServerFrame::SubAccepted`] | v2    | s → c     |
//! | `0x87` | [`ServerFrame::Update`]      | v2    | s → c     |
//! | `0x88` | [`ServerFrame::SubDone`]     | v2    | s → c     |
//! | `0x89` | [`ServerFrame::SubError`]    | v2    | s → c     |
//!
//! ¹ `Cancel` exists since v1 (empty payload: cancel the most recent
//! query); v2 adds an optional 8-byte query sequence number to target a
//! specific pipelined query.
//!
//! # Version negotiation
//!
//! The server's first frame is [`ServerFrame::Hello`] announcing
//! [`PROTOCOL_VERSION`]. A v1 client just starts sending `Query` frames; a
//! v2 client first *echoes* a [`ClientFrame::Hello`] carrying the version
//! it speaks. The server never sends a v2 tag until it has seen a Hello
//! echo with `version >= 2`, so a v1 client is never faced with an unknown
//! tag (which is, by design, a typed decode error). v2 client frames sent
//! before the echo are answered with a v1-safe [`ServerFrame::Error`]
//! (`BadQuery`) and otherwise ignored.
//!
//! # Subscription lifecycle
//!
//! A subscription is a *standing* streaming query (see
//! `progxe_query::exec::StreamingQuery`): the client supplies the rows,
//! the server pushes proven-final updates the moment regions resolve.
//!
//! ```text
//! client                                server
//!   │  Subscribe { sub_id, sql }          │
//!   │ ────────────────────────────────▶   │  plan + open ingest session
//!   │   ◀──────────────────────────────── │  SubAccepted { sub_id, columns }
//!   │  Push { sub_id, rows, watermark? }  │     (or SubError { sub_id, .. })
//!   │ ────────────────────────────────▶   │
//!   │   ◀──────────────────────────────── │  Update { sub_id, batch }  (0..n)
//!   │  Push { sub_id, rows, close }       │
//!   │ ────────────────────────────────▶   │
//!   │   ◀──────────────────────────────── │  Update { sub_id, batch }  (0..n)
//!   │   ◀──────────────────────────────── │  SubDone { sub_id, stats }
//! ```
//!
//! The terminal `SubDone` arrives when both sources are closed and every
//! region resolved, when the client sends
//! [`ClientFrame::Unsubscribe`] (`cancelled: true`), or when the query is
//! torn down with the connection. `sub_id` is chosen by the client and
//! scoped to the connection; reusing a live id is an error, reusing a
//! finished one is fine. One-shot queries and subscriptions multiplex
//! freely on one connection — every server frame names its stream.

use progxe_core::ingest::SourceId;
use std::io::{self, Read, Write};

/// Protocol version announced in [`ServerFrame::Hello`] and echoed by v2
/// clients in [`ClientFrame::Hello`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame payload; anything larger is a protocol error.
/// Generous (a batch of ~1M five-value tuples fits), but bounds what a
/// malformed or hostile peer can make us allocate.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const TAG_QUERY: u8 = 0x01;
const TAG_CANCEL: u8 = 0x02;
const TAG_CLIENT_HELLO: u8 = 0x03;
const TAG_SUBSCRIBE: u8 = 0x04;
const TAG_UNSUBSCRIBE: u8 = 0x05;
const TAG_PUSH: u8 = 0x06;
const TAG_HELLO: u8 = 0x81;
const TAG_ACCEPTED: u8 = 0x82;
const TAG_BATCH: u8 = 0x83;
const TAG_DONE: u8 = 0x84;
const TAG_ERROR: u8 = 0x85;
const TAG_SUB_ACCEPTED: u8 = 0x86;
const TAG_UPDATE: u8 = 0x87;
const TAG_SUB_DONE: u8 = 0x88;
const TAG_SUB_ERROR: u8 = 0x89;

const PUSH_FLAG_WATERMARK: u8 = 0b0000_0001;
const PUSH_FLAG_CLOSE: u8 = 0b0000_0010;

/// Typed error codes carried by [`ServerFrame::Error`] and
/// [`ServerFrame::SubError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control shed this connection: the server is at its
    /// concurrent-session cap. Retry later; the server never queues.
    Overloaded = 1,
    /// The query failed to parse or plan, a row it reads holds NaN or ±∞,
    /// or a subscription frame was invalid (unknown `sub_id`, duplicate
    /// `sub_id`, rejected rows, v2 frame before the Hello echo). The
    /// connection stays usable.
    BadQuery = 2,
    /// The engine failed during execution.
    Internal = 3,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Overloaded),
            2 => Some(ErrorCode::BadQuery),
            3 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// One result tuple on the wire: the two source row ids plus the mapped
/// output values.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple {
    /// Row id in the R source (the caller's original table).
    pub r_idx: u32,
    /// Row id in the T source.
    pub t_idx: u32,
    /// Mapped output values, aligned with the `Accepted` column names.
    pub values: Vec<f64>,
}

/// One progressive result batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFrame {
    /// Monotone completion estimate in `[0, 1]`.
    pub progress: f64,
    /// Whether every tuple is guaranteed final (true for ProgXe).
    pub proven_final: bool,
    /// The batch's tuples, in emission order. May be empty: an empty batch
    /// carries a progress advance.
    pub tuples: Vec<WireTuple>,
}

/// Terminal frame of a query: summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneFrame {
    /// Whether the run was cancelled before completion.
    pub cancelled: bool,
    /// Results emitted over the query's lifetime.
    pub results: u64,
    /// Server-side wall time of the run, microseconds.
    pub elapsed_us: u64,
}

/// One row pushed into a subscription: pre-filter attribute values plus
/// the join key.
#[derive(Debug, Clone, PartialEq)]
pub struct PushRow {
    /// Attribute values, matching the streaming table's declared arity.
    pub attrs: Vec<f64>,
    /// Join key.
    pub key: u32,
}

/// A [`ClientFrame::Push`]: rows (and/or a watermark, and/or a close) for
/// one source of one subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct PushFrame {
    /// The subscription addressed.
    pub sub_id: u64,
    /// Which streamed source the rows belong to.
    pub source: SourceId,
    /// Rows to ingest, in arrival order (row ids are assigned
    /// server-side as arrival positions). May be empty.
    pub rows: Vec<PushRow>,
    /// Optional watermark declared *after* the rows: every future row of
    /// `source` is ≥ it per dimension.
    pub watermark: Option<Vec<f64>>,
    /// Whether `source` is complete after this frame.
    pub close: bool,
}

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Run a `PREFERRING` query (UTF-8 SQL text).
    Query(String),
    /// Cancel a query. `seq: None` (the v1 empty payload) targets the most
    /// recently sent query; `Some(n)` targets the connection's `n`-th
    /// query (0-based, in send order). Stale or unmatched targets are
    /// no-ops — a Cancel can never kill a *different* query.
    Cancel {
        /// Connection-scoped query sequence number to cancel.
        seq: Option<u64>,
    },
    /// Capability echo: the client speaks `version`. Must precede any
    /// other v2 frame; a server never sends v2 tags without it.
    Hello {
        /// The client's protocol version.
        version: u32,
    },
    /// Open a standing streaming query under a client-chosen, connection-
    /// scoped id.
    Subscribe {
        /// Client-chosen subscription id.
        sub_id: u64,
        /// The `PREFERRING` query over streaming-registered tables.
        sql: String,
    },
    /// Tear a subscription down; the server answers with
    /// [`ServerFrame::SubDone`] (`cancelled: true` unless it had already
    /// completed). Unknown ids are ignored (the subscription may have
    /// just completed on its own).
    Unsubscribe {
        /// The subscription to end.
        sub_id: u64,
    },
    /// Feed rows / a watermark / a close into a subscription's source.
    Push(PushFrame),
}

/// Frames a server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// First frame on every accepted connection.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// The query parsed and planned; batches follow.
    Accepted {
        /// Output column names, aligned with [`WireTuple::values`].
        columns: Vec<String>,
    },
    /// One progressive result batch, final the moment it arrives.
    Batch(BatchFrame),
    /// The query ended (complete or cancelled).
    Done(DoneFrame),
    /// Something went wrong; `code` says whether to retry.
    Error {
        /// Typed error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The subscription planned and its ingest session is open; `Update`s
    /// follow as pushes resolve regions.
    SubAccepted {
        /// The id from the `Subscribe` frame.
        sub_id: u64,
        /// Output column names, aligned with [`WireTuple::values`].
        columns: Vec<String>,
    },
    /// One proven-final batch of a subscription.
    Update {
        /// The subscription that produced the batch.
        sub_id: u64,
        /// The batch (tuple row ids are arrival positions per source).
        batch: BatchFrame,
    },
    /// Terminal frame of a subscription (completed, unsubscribed, or torn
    /// down with the connection).
    SubDone {
        /// The subscription that ended.
        sub_id: u64,
        /// Summary statistics.
        done: DoneFrame,
    },
    /// A subscription-scoped error; other streams on the connection are
    /// unaffected.
    SubError {
        /// The subscription addressed (echoed from the client frame).
        sub_id: u64,
        /// Typed error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// A cursor over a frame payload with bounds-checked big-endian reads.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(bad_frame("payload truncated")),
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self, len: usize) -> io::Result<String> {
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| bad_frame("invalid UTF-8"))
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad_frame("trailing bytes in frame payload"))
        }
    }
}

fn bad_frame(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("protocol error: {what}"),
    )
}

fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(bad_frame("frame exceeds MAX_FRAME_LEN"));
    }
    let mut header = [0u8; 5];
    header[0] = tag;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header[1..5].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(bad_frame("frame exceeds MAX_FRAME_LEN"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((header[0], payload))
}

fn source_to_u8(source: SourceId) -> u8 {
    match source {
        SourceId::R => 0,
        SourceId::T => 1,
    }
}

fn source_from_u8(v: u8) -> io::Result<SourceId> {
    match v {
        0 => Ok(SourceId::R),
        1 => Ok(SourceId::T),
        _ => Err(bad_frame("unknown push source")),
    }
}

fn encode_batch(buf: &mut Vec<u8>, batch: &BatchFrame) -> io::Result<()> {
    let dims = batch.tuples.first().map_or(0, |t| t.values.len());
    if dims > u16::MAX as usize {
        return Err(bad_frame("too many values per tuple"));
    }
    put_f64(buf, batch.progress);
    buf.push(u8::from(batch.proven_final));
    put_u16(buf, dims as u16);
    put_u32(buf, batch.tuples.len() as u32);
    for t in &batch.tuples {
        if t.values.len() != dims {
            return Err(bad_frame("ragged tuple arity in batch"));
        }
        put_u32(buf, t.r_idx);
        put_u32(buf, t.t_idx);
        for &v in &t.values {
            put_f64(buf, v);
        }
    }
    Ok(())
}

fn decode_batch(p: &mut Payload<'_>) -> io::Result<BatchFrame> {
    let progress = p.f64()?;
    let proven_final = p.u8()? != 0;
    let dims = p.u16()? as usize;
    let n = p.u32()? as usize;
    // Cheap sanity bound before allocating: every tuple needs at least its
    // two row ids plus `dims` values in the remaining payload.
    let per_tuple = 8 + 8 * dims;
    if n.saturating_mul(per_tuple) > p.remaining() {
        return Err(bad_frame("batch tuple count exceeds payload"));
    }
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let r_idx = p.u32()?;
        let t_idx = p.u32()?;
        let mut values = Vec::with_capacity(dims);
        for _ in 0..dims {
            values.push(p.f64()?);
        }
        tuples.push(WireTuple {
            r_idx,
            t_idx,
            values,
        });
    }
    Ok(BatchFrame {
        progress,
        proven_final,
        tuples,
    })
}

/// Serializes one client frame.
pub fn write_client_frame(w: &mut impl Write, frame: &ClientFrame) -> io::Result<()> {
    let mut buf = Vec::new();
    match frame {
        ClientFrame::Query(sql) => write_frame(w, TAG_QUERY, sql.as_bytes()),
        ClientFrame::Cancel { seq } => {
            if let Some(seq) = seq {
                put_u64(&mut buf, *seq);
            }
            write_frame(w, TAG_CANCEL, &buf)
        }
        ClientFrame::Hello { version } => {
            put_u32(&mut buf, *version);
            write_frame(w, TAG_CLIENT_HELLO, &buf)
        }
        ClientFrame::Subscribe { sub_id, sql } => {
            put_u64(&mut buf, *sub_id);
            buf.extend_from_slice(sql.as_bytes());
            write_frame(w, TAG_SUBSCRIBE, &buf)
        }
        ClientFrame::Unsubscribe { sub_id } => {
            put_u64(&mut buf, *sub_id);
            write_frame(w, TAG_UNSUBSCRIBE, &buf)
        }
        ClientFrame::Push(push) => {
            let dims = push
                .watermark
                .as_ref()
                .map(Vec::len)
                .or_else(|| push.rows.first().map(|r| r.attrs.len()))
                .unwrap_or(0);
            if dims > u16::MAX as usize {
                return Err(bad_frame("too many attributes per row"));
            }
            put_u64(&mut buf, push.sub_id);
            buf.push(source_to_u8(push.source));
            let mut flags = 0u8;
            if push.watermark.is_some() {
                flags |= PUSH_FLAG_WATERMARK;
            }
            if push.close {
                flags |= PUSH_FLAG_CLOSE;
            }
            buf.push(flags);
            put_u16(&mut buf, dims as u16);
            if let Some(wm) = &push.watermark {
                for &v in wm {
                    put_f64(&mut buf, v);
                }
            }
            put_u32(&mut buf, push.rows.len() as u32);
            for row in &push.rows {
                if row.attrs.len() != dims {
                    return Err(bad_frame("ragged row arity in push"));
                }
                for &v in &row.attrs {
                    put_f64(&mut buf, v);
                }
                put_u32(&mut buf, row.key);
            }
            write_frame(w, TAG_PUSH, &buf)
        }
    }
}

/// Reads one client frame. `UnexpectedEof` at a frame boundary means the
/// peer hung up; any other error is a protocol violation.
pub fn read_client_frame(r: &mut impl Read) -> io::Result<ClientFrame> {
    let (tag, payload) = read_frame(r)?;
    let mut p = Payload::new(&payload);
    match tag {
        TAG_QUERY => {
            let sql = p.string(payload.len())?;
            p.finish()?;
            Ok(ClientFrame::Query(sql))
        }
        TAG_CANCEL => {
            let seq = if payload.is_empty() {
                None
            } else {
                Some(p.u64()?)
            };
            p.finish()?;
            Ok(ClientFrame::Cancel { seq })
        }
        TAG_CLIENT_HELLO => {
            let version = p.u32()?;
            p.finish()?;
            Ok(ClientFrame::Hello { version })
        }
        TAG_SUBSCRIBE => {
            let sub_id = p.u64()?;
            let sql = p.string(payload.len() - 8)?;
            p.finish()?;
            Ok(ClientFrame::Subscribe { sub_id, sql })
        }
        TAG_UNSUBSCRIBE => {
            let sub_id = p.u64()?;
            p.finish()?;
            Ok(ClientFrame::Unsubscribe { sub_id })
        }
        TAG_PUSH => {
            let sub_id = p.u64()?;
            let source = source_from_u8(p.u8()?)?;
            let flags = p.u8()?;
            if flags & !(PUSH_FLAG_WATERMARK | PUSH_FLAG_CLOSE) != 0 {
                return Err(bad_frame("unknown push flags"));
            }
            let dims = p.u16()? as usize;
            let watermark = if flags & PUSH_FLAG_WATERMARK != 0 {
                let mut wm = Vec::with_capacity(dims);
                for _ in 0..dims {
                    wm.push(p.f64()?);
                }
                Some(wm)
            } else {
                None
            };
            let n = p.u32()? as usize;
            // Same pre-allocation sanity bound as batches: each row needs
            // `dims` values plus its key in the remaining payload.
            let per_row = 8 * dims + 4;
            if n.saturating_mul(per_row) > p.remaining() {
                return Err(bad_frame("push row count exceeds payload"));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let mut attrs = Vec::with_capacity(dims);
                for _ in 0..dims {
                    attrs.push(p.f64()?);
                }
                let key = p.u32()?;
                rows.push(PushRow { attrs, key });
            }
            p.finish()?;
            Ok(ClientFrame::Push(PushFrame {
                sub_id,
                source,
                rows,
                watermark,
                close: flags & PUSH_FLAG_CLOSE != 0,
            }))
        }
        _ => Err(bad_frame("unknown client frame tag")),
    }
}

/// Serializes one server frame.
pub fn write_server_frame(w: &mut impl Write, frame: &ServerFrame) -> io::Result<()> {
    let mut buf = Vec::new();
    match frame {
        ServerFrame::Hello { version } => {
            put_u32(&mut buf, *version);
            write_frame(w, TAG_HELLO, &buf)
        }
        ServerFrame::Accepted { columns } => {
            encode_columns(&mut buf, columns)?;
            write_frame(w, TAG_ACCEPTED, &buf)
        }
        ServerFrame::Batch(batch) => {
            encode_batch(&mut buf, batch)?;
            write_frame(w, TAG_BATCH, &buf)
        }
        ServerFrame::Done(done) => {
            encode_done(&mut buf, done);
            write_frame(w, TAG_DONE, &buf)
        }
        ServerFrame::Error { code, message } => {
            buf.push(*code as u8);
            buf.extend_from_slice(message.as_bytes());
            write_frame(w, TAG_ERROR, &buf)
        }
        ServerFrame::SubAccepted { sub_id, columns } => {
            put_u64(&mut buf, *sub_id);
            encode_columns(&mut buf, columns)?;
            write_frame(w, TAG_SUB_ACCEPTED, &buf)
        }
        ServerFrame::Update { sub_id, batch } => {
            put_u64(&mut buf, *sub_id);
            encode_batch(&mut buf, batch)?;
            write_frame(w, TAG_UPDATE, &buf)
        }
        ServerFrame::SubDone { sub_id, done } => {
            put_u64(&mut buf, *sub_id);
            encode_done(&mut buf, done);
            write_frame(w, TAG_SUB_DONE, &buf)
        }
        ServerFrame::SubError {
            sub_id,
            code,
            message,
        } => {
            put_u64(&mut buf, *sub_id);
            buf.push(*code as u8);
            buf.extend_from_slice(message.as_bytes());
            write_frame(w, TAG_SUB_ERROR, &buf)
        }
    }
}

fn encode_columns(buf: &mut Vec<u8>, columns: &[String]) -> io::Result<()> {
    if columns.len() > u16::MAX as usize {
        return Err(bad_frame("too many columns"));
    }
    put_u16(buf, columns.len() as u16);
    for c in columns {
        if c.len() > u16::MAX as usize {
            return Err(bad_frame("column name too long"));
        }
        put_u16(buf, c.len() as u16);
        buf.extend_from_slice(c.as_bytes());
    }
    Ok(())
}

fn decode_columns(p: &mut Payload<'_>) -> io::Result<Vec<String>> {
    let n = p.u16()? as usize;
    let mut columns = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let len = p.u16()? as usize;
        columns.push(p.string(len)?);
    }
    Ok(columns)
}

fn encode_done(buf: &mut Vec<u8>, done: &DoneFrame) {
    buf.push(u8::from(done.cancelled));
    put_u64(buf, done.results);
    put_u64(buf, done.elapsed_us);
}

fn decode_done(p: &mut Payload<'_>) -> io::Result<DoneFrame> {
    let cancelled = p.u8()? != 0;
    let results = p.u64()?;
    let elapsed_us = p.u64()?;
    Ok(DoneFrame {
        cancelled,
        results,
        elapsed_us,
    })
}

/// Reads one server frame. `UnexpectedEof` at a frame boundary means the
/// server closed the connection.
pub fn read_server_frame(r: &mut impl Read) -> io::Result<ServerFrame> {
    let (tag, payload) = read_frame(r)?;
    let mut p = Payload::new(&payload);
    match tag {
        TAG_HELLO => {
            let version = p.u32()?;
            p.finish()?;
            Ok(ServerFrame::Hello { version })
        }
        TAG_ACCEPTED => {
            let columns = decode_columns(&mut p)?;
            p.finish()?;
            Ok(ServerFrame::Accepted { columns })
        }
        TAG_BATCH => {
            let batch = decode_batch(&mut p)?;
            p.finish()?;
            Ok(ServerFrame::Batch(batch))
        }
        TAG_DONE => {
            let done = decode_done(&mut p)?;
            p.finish()?;
            Ok(ServerFrame::Done(done))
        }
        TAG_ERROR => {
            let code =
                ErrorCode::from_u8(p.u8()?).ok_or_else(|| bad_frame("unknown error code"))?;
            let message = p.string(payload.len() - 1)?;
            p.finish()?;
            Ok(ServerFrame::Error { code, message })
        }
        TAG_SUB_ACCEPTED => {
            let sub_id = p.u64()?;
            let columns = decode_columns(&mut p)?;
            p.finish()?;
            Ok(ServerFrame::SubAccepted { sub_id, columns })
        }
        TAG_UPDATE => {
            let sub_id = p.u64()?;
            let batch = decode_batch(&mut p)?;
            p.finish()?;
            Ok(ServerFrame::Update { sub_id, batch })
        }
        TAG_SUB_DONE => {
            let sub_id = p.u64()?;
            let done = decode_done(&mut p)?;
            p.finish()?;
            Ok(ServerFrame::SubDone { sub_id, done })
        }
        TAG_SUB_ERROR => {
            let sub_id = p.u64()?;
            let code =
                ErrorCode::from_u8(p.u8()?).ok_or_else(|| bad_frame("unknown error code"))?;
            let message = p.string(payload.len() - 9)?;
            p.finish()?;
            Ok(ServerFrame::SubError {
                sub_id,
                code,
                message,
            })
        }
        _ => Err(bad_frame("unknown server frame tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn client_roundtrip(frame: ClientFrame) -> ClientFrame {
        let mut buf = Vec::new();
        write_client_frame(&mut buf, &frame).unwrap();
        read_client_frame(&mut Cursor::new(buf)).unwrap()
    }

    fn server_roundtrip(frame: ServerFrame) -> ServerFrame {
        let mut buf = Vec::new();
        write_server_frame(&mut buf, &frame).unwrap();
        read_server_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn client_frames_roundtrip() {
        for frame in [
            ClientFrame::Query("SELECT R.id FROM a R, b T PREFERRING LOWEST(x)".into()),
            ClientFrame::Cancel { seq: None },
            ClientFrame::Cancel { seq: Some(7) },
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
            ClientFrame::Subscribe {
                sub_id: 17,
                sql: "SELECT … PREFERRING LOWEST(c0)".into(),
            },
            ClientFrame::Unsubscribe { sub_id: u64::MAX },
            ClientFrame::Push(PushFrame {
                sub_id: 3,
                source: SourceId::R,
                rows: vec![
                    PushRow {
                        attrs: vec![1.0, 2.5],
                        key: 9,
                    },
                    PushRow {
                        attrs: vec![f64::MIN_POSITIVE, 99.0],
                        key: u32::MAX,
                    },
                ],
                watermark: Some(vec![1.0, 2.0]),
                close: false,
            }),
            // Watermark-only and close-only pushes are legal.
            ClientFrame::Push(PushFrame {
                sub_id: 3,
                source: SourceId::T,
                rows: vec![],
                watermark: Some(vec![5.0]),
                close: false,
            }),
            ClientFrame::Push(PushFrame {
                sub_id: 4,
                source: SourceId::T,
                rows: vec![],
                watermark: None,
                close: true,
            }),
        ] {
            assert_eq!(client_roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn v1_cancel_wire_image_is_the_empty_payload() {
        // The v1 encoding (tag + zero-length payload) must keep decoding
        // as a seq-less Cancel, and a seq-less Cancel must keep encoding
        // as v1 bytes — v1 peers depend on both directions.
        let mut buf = Vec::new();
        write_client_frame(&mut buf, &ClientFrame::Cancel { seq: None }).unwrap();
        assert_eq!(buf, vec![0x02, 0, 0, 0, 0]);
        assert_eq!(
            read_client_frame(&mut Cursor::new(buf)).unwrap(),
            ClientFrame::Cancel { seq: None }
        );
    }

    #[test]
    fn server_frames_roundtrip() {
        let batch = BatchFrame {
            progress: 0.25,
            proven_final: true,
            tuples: vec![
                WireTuple {
                    r_idx: 3,
                    t_idx: 9,
                    values: vec![1.5, -2.0],
                },
                WireTuple {
                    r_idx: 0,
                    t_idx: u32::MAX,
                    values: vec![f64::MAX, f64::MIN_POSITIVE],
                },
            ],
        };
        for frame in [
            ServerFrame::Hello {
                version: PROTOCOL_VERSION,
            },
            ServerFrame::Accepted {
                columns: vec!["tCost".into(), "delay".into()],
            },
            ServerFrame::Batch(batch.clone()),
            ServerFrame::Batch(BatchFrame {
                progress: 1.0,
                proven_final: false,
                tuples: vec![],
            }),
            ServerFrame::Done(DoneFrame {
                cancelled: true,
                results: 42,
                elapsed_us: 123_456,
            }),
            ServerFrame::Error {
                code: ErrorCode::Overloaded,
                message: "session cap reached".into(),
            },
            ServerFrame::SubAccepted {
                sub_id: 11,
                columns: vec!["c0".into()],
            },
            ServerFrame::Update { sub_id: 11, batch },
            ServerFrame::SubDone {
                sub_id: 11,
                done: DoneFrame {
                    cancelled: false,
                    results: 7,
                    elapsed_us: 99,
                },
            },
            ServerFrame::SubError {
                sub_id: 12,
                code: ErrorCode::BadQuery,
                message: "unknown sub_id".into(),
            },
        ] {
            assert_eq!(server_roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf = Vec::new();
        write_server_frame(
            &mut buf,
            &ServerFrame::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        write_server_frame(
            &mut buf,
            &ServerFrame::Done(DoneFrame {
                cancelled: false,
                results: 1,
                elapsed_us: 2,
            }),
        )
        .unwrap();
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_server_frame(&mut cur).unwrap(),
            ServerFrame::Hello { .. }
        ));
        assert!(matches!(
            read_server_frame(&mut cur).unwrap(),
            ServerFrame::Done(_)
        ));
        // Clean EOF at a frame boundary.
        let err = read_server_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_server_frame(
            &mut buf,
            &ServerFrame::Accepted {
                columns: vec!["x".into()],
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_server_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A header advertising an enormous payload is rejected before any
        // allocation.
        let mut huge = vec![TAG_QUERY];
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let err = read_client_frame(&mut Cursor::new(huge)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A push frame whose row count outruns its payload is rejected by
        // the pre-allocation bound.
        let mut buf = Vec::new();
        write_client_frame(
            &mut buf,
            &ClientFrame::Push(PushFrame {
                sub_id: 1,
                source: SourceId::R,
                rows: vec![PushRow {
                    attrs: vec![1.0],
                    key: 0,
                }],
                watermark: None,
                close: false,
            }),
        )
        .unwrap();
        // Row count sits after sub_id(8) + source(1) + flags(1) + dims(2);
        // payload starts at byte 5.
        let count_at = 5 + 8 + 1 + 1 + 2;
        buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_client_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        for tag in [0x00u8, 0x07, 0x80, 0x8a, 0xff] {
            let mut buf = vec![tag];
            buf.extend_from_slice(&0u32.to_be_bytes());
            assert_eq!(
                read_client_frame(&mut Cursor::new(buf.clone()))
                    .unwrap_err()
                    .kind(),
                io::ErrorKind::InvalidData,
                "client tag {tag:#x}"
            );
            assert_eq!(
                read_server_frame(&mut Cursor::new(buf)).unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "server tag {tag:#x}"
            );
        }
    }

    #[test]
    fn ragged_batches_are_rejected_at_encode_time() {
        let frame = ServerFrame::Batch(BatchFrame {
            progress: 0.0,
            proven_final: true,
            tuples: vec![
                WireTuple {
                    r_idx: 0,
                    t_idx: 0,
                    values: vec![1.0, 2.0],
                },
                WireTuple {
                    r_idx: 1,
                    t_idx: 1,
                    values: vec![1.0],
                },
            ],
        });
        let mut buf = Vec::new();
        assert!(write_server_frame(&mut buf, &frame).is_err());

        // Same for a push whose rows disagree with the watermark arity.
        let frame = ClientFrame::Push(PushFrame {
            sub_id: 0,
            source: SourceId::R,
            rows: vec![PushRow {
                attrs: vec![1.0],
                key: 0,
            }],
            watermark: Some(vec![1.0, 2.0]),
            close: false,
        });
        let mut buf = Vec::new();
        assert!(write_client_frame(&mut buf, &frame).is_err());
    }
}
