//! Benchmark-side spans: name, start, end, parent, op id.
//!
//! The traced run wraps each call into a layer's public functions in a
//! span recorded *here*, outside the program — in-program spans are a
//! later issue. Spans stay in memory and are dumped once, after the run,
//! as one JSON object per line.

use crate::json::Json;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// The traced op (one query, one subscription, one layer pass) this
    /// span belongs to; all spans of an op share it.
    pub op: u64,
    /// Index of this span in the dump.
    pub id: usize,
    /// The span that caused this one (`None` for an op's root).
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans on the calling thread with a parent stack. A span from
/// another thread (the open-loop push writer) is added after the fact
/// with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration. A span opened while no other is open starts a new
    /// op; nested spans join the enclosing op.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(SpanRec {
            op,
            id,
            parent,
            name,
            start_us: self.us(start),
            end_us: f64::NAN,
        });
        self.stack.push(id);
        let result = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[id].end_us = self.us(end);
        (result, end - start)
    }

    /// Adds an already-measured interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.stack.last().copied();
        let op = parent.map_or(0, |p| self.spans[p].op);
        let id = self.spans.len();
        self.spans.push(SpanRec {
            op,
            id,
            parent,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        });
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes every span as one JSON line:
    /// `{"op":…,"id":…,"parent":…,"name":…,"start_us":…,"end_us":…,"self_us":…}`.
    pub fn dump(&self, w: &mut impl Write) -> io::Result<()> {
        let self_us = self_times(&self.spans);
        for (span, self_us) in self.spans.iter().zip(self_us) {
            let line = Json::obj([
                ("op", Json::Num(span.op as f64)),
                ("id", Json::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(span.name)),
                ("start_us", Json::Num(span.start_us)),
                ("end_us", Json::Num(span.end_us)),
                ("self_us", Json::Num(self_us)),
            ]);
            writeln!(w, "{}", line.encode())?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (the *union* of the child intervals, so
/// children that overlap — parallel parts — are not subtracted twice).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            // Clip to the parent: a child recorded from another thread may
            // stick out by scheduling jitter.
            let lo = span.start_us.max(spans[p].start_us);
            let hi = span.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            span.duration_us() - covered
        })
        .collect()
}

/// Per op: `(wall of the root span, sum of the self times of all its
/// spans)`. The two agree when spans nest properly — the check that the
/// per-layer numbers of a traced op add up to what the op took.
pub fn op_accounts(spans: &[SpanRec]) -> Vec<(u64, f64, f64)> {
    let self_us = self_times(spans);
    let mut out: Vec<(u64, f64, f64)> = Vec::new();
    for (span, self_us) in spans.iter().zip(self_us) {
        if span.op == 0 {
            continue;
        }
        if span.parent.is_none() {
            out.push((span.op, span.duration_us(), self_us));
        } else if let Some(acc) = out.iter_mut().find(|acc| acc.0 == span.op) {
            acc.2 += self_us;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start: f64, end: f64) -> SpanRec {
        SpanRec {
            op: 1,
            id,
            parent,
            name: "t",
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            rec(0, None, 0.0, 100.0),
            rec(1, Some(0), 10.0, 40.0),
            // Overlaps span 1 by 10 µs: the union covers 10..60 = 50 µs.
            rec(2, Some(0), 30.0, 60.0),
            rec(3, Some(0), 80.0, 90.0),
            // A grandchild only reduces its own parent.
            rec(4, Some(1), 10.0, 25.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![40.0, 15.0, 30.0, 10.0, 15.0]);
    }

    #[test]
    fn a_child_sticking_out_of_its_parent_is_clipped() {
        let spans = vec![rec(0, None, 10.0, 20.0), rec(1, Some(0), 5.0, 15.0)];
        assert_eq!(self_times(&spans)[0], 5.0);
    }

    #[test]
    fn self_times_of_a_traced_op_sum_to_its_wall_time() {
        let mut tr = Tracer::new();
        let work = |n: u64| std::hint::black_box((0..n).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
        tr.span("op", |tr| {
            work(20_000);
            tr.span("parse", |_| work(50_000));
            tr.span("run", |tr| {
                tr.span("open", |_| work(80_000));
                work(10_000);
                tr.span("drain", |_| work(120_000));
            });
            work(5_000);
        });
        tr.span("second-op", |tr| {
            tr.span("only-child", |_| work(30_000));
        });
        let accounts = op_accounts(tr.spans());
        assert_eq!(accounts.len(), 2);
        for (op, wall, summed) in accounts {
            assert!(wall > 0.0);
            assert!(
                (wall - summed).abs() <= 0.05 * wall,
                "op {op}: self times {summed} µs vs wall {wall} µs"
            );
        }
        // Sibling spans nest under the same parent and share the op id.
        let spans = tr.spans();
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[..5].iter().all(|s| s.op == 1));
        assert_eq!(spans[6].op, 2);
    }

    #[test]
    fn dump_writes_one_parseable_line_per_span() {
        let mut tr = Tracer::new();
        tr.span("op", |tr| {
            let t0 = Instant::now();
            tr.record("from-elsewhere", t0, t0 + Duration::from_micros(5));
        });
        let mut buf = Vec::new();
        tr.dump(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = Json::parse(lines[1]).unwrap();
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("from-elsewhere")
        );
        assert_eq!(child.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
