//! Network serving layer for ProgXe.
//!
//! Turns the in-process [`QuerySession`](progxe_core::session::QuerySession)
//! streaming model into a TCP service without giving up its two defining
//! properties:
//!
//! * **Progressiveness** — result batches cross the wire the moment the
//!   engine proves them final; nothing is buffered server-side, so a
//!   client's first results arrive while the bulk of the join is still
//!   running (the paper's core metric, time-to-first-result, survives the
//!   network hop).
//! * **Cancellation** — every connection's in-flight session holds a
//!   [`CancellationToken`](progxe_core::session::CancellationToken) that a
//!   per-connection watchdog thread fires on an explicit `Cancel` frame
//!   *or* on disconnect, so a vanished client stops consuming the shared
//!   worker pool at the next region boundary. Cancels are sequenced per
//!   connection: an early Cancel is never lost and a late one never kills
//!   the next pipelined query.
//!
//! Protocol v2 adds **continuous queries**: a client `Subscribe`s a
//! `PREFERRING` query over streaming-registered tables, `Push`es rows and
//! watermarks over the wire, and receives proven-final `Update` frames the
//! moment regions resolve — the paper's progressive contract, standing
//! instead of one-shot. See [`protocol`] for the frame table, version
//! negotiation, and the subscription lifecycle.
//!
//! Modules:
//!
//! * [`protocol`] — the length-prefixed wire format (frames, codec).
//! * [`server`] — accept loop, admission control, per-connection serving.
//! * [`client`] — a blocking reference client used by tests and the
//!   `benchmark/` package.
//! * [`synthetic`] — datagen-backed catalogs for the `progxe-serve` binary
//!   and load tests.
//!
//! Admission control sheds load instead of queueing: past
//! [`ServerConfig::max_sessions`] concurrent connections, new clients get
//! a typed `Overloaded` error frame and an immediate close.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod synthetic;

pub use client::{Client, ClientReader, ClientWriter, RunOutcome};
pub use protocol::{
    BatchFrame, ClientFrame, DoneFrame, ErrorCode, PushFrame, PushRow, ServerFrame, WireTuple,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerMetrics};
