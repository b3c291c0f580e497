//! One client-observed op: a one-shot query or a subscription, driven
//! through `server::Client` against the loopback server and checked.
//!
//! The same functions serve the gated run (probe [`Off`], no span is
//! taken) and the traced run (probe [`Tracer`]), so what the trace
//! explains is what the end-to-end metrics measured.

use crate::check::{ExpectedFeed, ExpectedSet};
use crate::span::Tracer;
use crate::workload::{Feed, PUSH_GAP, SUB_ID};
use progxe_server::{BatchFrame, Client, ClientFrame, ServerFrame};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Where an op reports its phases. [`Off`] compiles to nothing.
pub trait Probe {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// An interval already measured (between two frames, or on another
    /// thread), as a child of the open span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant);
}

/// Tracing off: the gated, client-observed runs.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    #[inline(always)]
    fn record(&mut self, _name: &'static str, _start: Instant, _end: Instant) {}
}

impl Probe for Tracer {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        Tracer::span(self, name, f).0
    }
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        Tracer::record(self, name, start, end);
    }
}

/// Client-side timings of one successful op, in ms.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    /// Op start → first non-empty `Batch`/`Update` decoded.
    pub ttfr_ms: f64,
    /// Op start → terminal frame.
    pub total_ms: f64,
    /// One entry per result tuple: decode time minus the creation time of
    /// the last input it needed.
    pub lag_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn unexpected(frame: &ServerFrame) -> String {
    match frame {
        ServerFrame::Error { code, message } => format!("Error frame ({code:?}): {message}"),
        ServerFrame::SubError { code, message, .. } => {
            format!("SubError frame ({code:?}): {message}")
        }
        other => format!("unexpected frame {other:?}"),
    }
}

fn transport(e: io::Error) -> String {
    format!("transport error: {e}")
}

/// The frames of one one-shot op, kept by the traced run to price the
/// codec on the op's own traffic.
pub type Frames = Vec<ServerFrame>;

/// Runs `sql` on `client` (`Query` sent → `Done`), checks the streamed
/// result against `expected`, and returns the client-side timings. The
/// lag of a one-shot result is its decode time since the `Query` was
/// sent, so the lag percentiles summarise the progressiveness curve.
pub fn oneshot_op<P: Probe>(
    probe: &mut P,
    client: &mut Client,
    sql: &str,
    expected: &ExpectedSet,
    keep_frames: Option<&mut Frames>,
) -> Result<OpTimes, String> {
    let mut frames_out = keep_frames;
    probe.span("loopback.query", |probe| {
        let started = Instant::now();
        probe
            .span("client.send_query", |_| client.send_query(sql))
            .map_err(transport)?;
        let mut times = OpTimes::default();
        let mut phases = Phases::new(Instant::now());
        let mut tuples = Vec::new();
        let mut progress = Vec::new();
        let done = loop {
            let frame = client.next_server_frame().map_err(transport)?;
            let now = Instant::now();
            if let Some(keep) = frames_out.as_deref_mut() {
                keep.push(frame.clone());
            }
            match frame {
                ServerFrame::Accepted { .. } => phases.accepted(probe, now),
                ServerFrame::Batch(batch) => {
                    if !batch.tuples.is_empty() {
                        phases.result(probe, now);
                        let lag = ms(now - started);
                        times
                            .lag_ms
                            .extend(std::iter::repeat_n(lag, batch.tuples.len()));
                    }
                    progress.push(batch.progress);
                    tuples.extend(batch.tuples);
                }
                ServerFrame::Done(done) => {
                    phases.done(probe, now);
                    times.total_ms = ms(now - started);
                    break done;
                }
                other => return Err(unexpected(&other)),
            }
        };
        times.ttfr_ms = ms(phases.first.ok_or("no result before the terminal frame")? - started);
        probe.span("loadgen.check", |_| {
            expected.check(&tuples, &progress, &done)
        })?;
        Ok(times)
    })
}

/// Splits an op's stream into three back-to-back waits — for the accept
/// frame, for the first result, for the terminal frame — recorded as
/// sibling spans, so the op's self times still add up to its wall time.
struct Phases {
    mark: Instant,
    first: Option<Instant>,
}

impl Phases {
    fn new(sent: Instant) -> Self {
        Self {
            mark: sent,
            first: None,
        }
    }

    fn step<P: Probe>(&mut self, probe: &mut P, name: &'static str, now: Instant) {
        probe.record(name, self.mark, now);
        self.mark = now;
    }

    fn accepted<P: Probe>(&mut self, probe: &mut P, now: Instant) {
        self.step(probe, "client.await_accept", now);
    }

    /// A non-empty batch was decoded at `now`.
    fn result<P: Probe>(&mut self, probe: &mut P, now: Instant) {
        if self.first.is_none() {
            self.first = Some(now);
            self.step(probe, "client.await_first_result", now);
        }
    }

    fn done<P: Probe>(&mut self, probe: &mut P, now: Instant) {
        self.step(probe, "client.await_done", now);
    }
}

/// What one subscription op produced beyond its timings.
#[derive(Debug, Clone, Default)]
pub struct SubDetail {
    /// `Subscribe` sent → `SubAccepted` decoded.
    pub accept_ms: f64,
    /// Per `Update`: decode time minus the due time of its push.
    pub push_to_update_ms: Vec<f64>,
    /// Per push: how late the open-loop sender ran against its schedule.
    pub late_ms: Vec<f64>,
}

/// Runs one subscription over a fresh connection: `Subscribe`, then the
/// feed's frames **open loop** — frame `k` is due `k ×` [`PUSH_GAP`] after
/// the `Subscribe` was sent, whatever the server is doing — from a writer
/// thread while this thread decodes `Update`s. The k-th `Update` is
/// attributed to the push the in-process replay says releases it, and
/// timed from that push's *due* time, so a stall is charged to every push
/// it delays. The `Update` sequence must equal the replay's.
pub fn sub_op<P: Probe>(
    probe: &mut P,
    addr: SocketAddr,
    sql: &str,
    feed: &Feed,
    expected: &ExpectedFeed,
) -> Result<(OpTimes, SubDetail), String> {
    probe.span("loopback.subscription", |probe| {
        let client = probe
            .span("client.connect", |_| Client::connect(addr))
            .map_err(|e| format!("connect refused: {e}"))?;
        let (mut writer, mut reader) = client.into_split();
        let started = Instant::now();
        let subscribe = ClientFrame::Subscribe {
            sub_id: SUB_ID,
            sql: sql.to_string(),
        };
        writer.send(&subscribe).map_err(transport)?;
        let due = |k: usize| started + PUSH_GAP * k as u32;

        std::thread::scope(|scope| {
            let pusher = scope.spawn(move || -> io::Result<Vec<(Instant, Instant)>> {
                let mut sends = Vec::with_capacity(feed.frames.len());
                for (k, frame) in feed.frames.iter().enumerate() {
                    if let Some(wait) = due(k).checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let begin = Instant::now();
                    writer.send(&ClientFrame::Push(frame.clone()))?;
                    sends.push((begin, Instant::now()));
                }
                Ok(sends)
            });

            let mut times = OpTimes::default();
            let mut detail = SubDetail::default();
            let mut phases = Phases::new(Instant::now());
            let mut updates: Vec<BatchFrame> = Vec::new();
            let streamed = loop {
                let frame = match reader.next_server_frame() {
                    Ok(frame) => frame,
                    Err(e) => break Err(transport(e)),
                };
                let now = Instant::now();
                match frame {
                    ServerFrame::SubAccepted { .. } => {
                        detail.accept_ms = ms(now - started);
                        phases.accepted(probe, now);
                    }
                    ServerFrame::Update { batch, .. } => {
                        let Some(&push) = expected.update_push.get(updates.len()) else {
                            break Err("more updates than the in-process replay".to_string());
                        };
                        let lag = ms(now.saturating_duration_since(due(push)));
                        detail.push_to_update_ms.push(lag);
                        if !batch.tuples.is_empty() {
                            phases.result(probe, now);
                            times
                                .lag_ms
                                .extend(std::iter::repeat_n(lag, batch.tuples.len()));
                        }
                        updates.push(batch);
                    }
                    ServerFrame::SubDone { done, .. } => {
                        phases.done(probe, now);
                        times.total_ms = ms(now - started);
                        break Ok(done);
                    }
                    other => break Err(unexpected(&other)),
                }
            };
            let sends = pusher
                .join()
                .expect("push writer panicked")
                .map_err(transport);
            let done = streamed?;
            for (k, &(begin, end)) in sends?.iter().enumerate() {
                detail
                    .late_ms
                    .push(ms(begin.saturating_duration_since(due(k))));
                probe.record("client.push", begin, end);
            }
            times.ttfr_ms =
                ms(phases.first.ok_or("no result before the terminal frame")? - started);
            probe.span("loadgen.check", |_| expected.check(&updates, &done))?;
            Ok((times, detail))
        })
    })
}
