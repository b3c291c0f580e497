//! The structured event model: spans, points, and the envelope around them.

use std::fmt;
use std::time::Duration;

/// Identifier of one span within one [`Trace`](crate::Trace). Allocated
/// from a per-trace atomic counter, so ids are unique per session and a
/// begin/end pair can be matched even when events from concurrent workers
/// interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Which input source an ingest event refers to. Mirrors the core crate's
/// `SourceId` without depending on it (this crate sits below core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The R (left) source.
    R,
    /// The T (right) source.
    T,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::R => "R",
            Source::T => "T",
        })
    }
}

/// The engine-wide span taxonomy: phases with duration. Every variant
/// corresponds to one instrumented site in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Output-space look-ahead: grid build, region generation,
    /// abstraction-level pruning, cell-store set-up.
    Lookahead,
    /// One schedule pop: choosing (and re-checking) the next region.
    RegionPop,
    /// Tuple-level processing of one region: join + map + dominance.
    TuplePhase {
        /// The region's index in the schedule order.
        region_id: u64,
        /// Upper bound on join pairs for the region (`n_R · n_T`).
        pairs: u64,
    },
    /// Ordered commit of one region's batch into the cell store.
    Commit {
        /// The region's index in the schedule order.
        region_id: u64,
    },
    /// One accepted ingest batch (validation + grid placement + unlock).
    IngestBatch {
        /// Which source pushed the batch.
        source: Source,
        /// Rows in the batch.
        rows: u64,
    },
}

impl Span {
    /// Short lowercase name, stable across releases (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            Span::Lookahead => "lookahead",
            Span::RegionPop => "region_pop",
            Span::TuplePhase { .. } => "tuple_phase",
            Span::Commit { .. } => "commit",
            Span::IngestBatch { .. } => "ingest_batch",
        }
    }
}

/// Instantaneous events: things that happen at a moment, not over one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Point {
    /// An output cell's tuples were emitted as a proven-final batch.
    Emit {
        /// The output cell's grid position: its coordinate flattened,
        /// dimension 0 fastest — the same on every backend, whatever order
        /// the cells were built in.
        cell: u64,
        /// Tuples emitted from the cell.
        n: u64,
        /// Whether the batch is guaranteed final (always true for ProgXe;
        /// recorded so baseline engines can share the taxonomy).
        proven_final: bool,
    },
    /// A streaming input cell was sealed by a watermark or source close.
    Seal {
        /// Which source's grid the cell belongs to.
        source: Source,
        /// Input-grid cell index.
        cell: u64,
    },
    /// The driver found no ready region and must wait for input.
    Stall,
    /// Cancellation was observed by the driver.
    Cancel,
}

impl Point {
    /// Short lowercase name, stable across releases (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            Point::Emit { .. } => "emit",
            Point::Seal { .. } => "seal",
            Point::Stall => "stall",
            Point::Cancel => "cancel",
        }
    }
}

/// What one [`Event`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened.
    SpanBegin {
        /// Id matching the eventual [`EventKind::SpanEnd`].
        id: SpanId,
        /// Which phase opened.
        span: Span,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the matching [`EventKind::SpanBegin`].
        id: SpanId,
    },
    /// An instantaneous event.
    Point(Point),
    /// A named counter increment.
    Counter {
        /// Counter name (static, dot-separated).
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
    /// A named gauge sample.
    Gauge {
        /// Gauge name (static, dot-separated).
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
}

/// One timestamped record in a trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic offset from the trace epoch (the session's start instant),
    /// so event times line up with `ResultEvent::elapsed`.
    pub at: Duration,
    /// Position in the recorder's stream (assigned by the recorder, gap-free
    /// even when ring overflow drops old events).
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Span::Lookahead.name(), "lookahead");
        assert_eq!(
            Span::TuplePhase {
                region_id: 0,
                pairs: 0
            }
            .name(),
            "tuple_phase"
        );
        assert_eq!(Span::Commit { region_id: 1 }.name(), "commit");
        assert_eq!(
            Span::IngestBatch {
                source: Source::R,
                rows: 3
            }
            .name(),
            "ingest_batch"
        );
        assert_eq!(
            Point::Emit {
                cell: 0,
                n: 1,
                proven_final: true
            }
            .name(),
            "emit"
        );
        assert_eq!(
            Point::Seal {
                source: Source::T,
                cell: 9
            }
            .name(),
            "seal"
        );
        assert_eq!(Point::Stall.name(), "stall");
        assert_eq!(Point::Cancel.name(), "cancel");
        assert_eq!(SpanId(7).to_string(), "#7");
        assert_eq!(Source::R.to_string(), "R");
        assert_eq!(Source::T.to_string(), "T");
    }
}
