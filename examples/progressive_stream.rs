//! Progressive vs blocking, live: the motivation of the whole paper.
//!
//! Runs the same anti-correlated workload (the skyline-hostile case) under
//! ProgXe — sequential *and* parallel (`PROGXE_THREADS`, default 4) — and
//! under the blocking JF-SL plan, all through the *same*
//! [`ProgressiveEngine`] interface, printing a timeline of result
//! arrivals. ProgXe streams results throughout its execution; JF-SL stays
//! silent until everything is joined and compared.
//!
//! ```text
//! cargo run --release --example progressive_stream
//! PROGXE_THREADS=8 cargo run --release --example progressive_stream
//! ```

use progxe::baselines::{JfSlEngine, SkyAlgo};
use progxe::core::prelude::*;
use progxe::datagen::{Distribution, WorkloadSpec};
use progxe::obs::{EventKind, MetricsRegistry, Point, Recorder, RingRecorder};
use std::sync::Arc;
use std::time::Duration;

/// Pulls a session dry, recording `(elapsed, cumulative)` per batch.
fn drain(mut session: QuerySession<'_>) -> (Vec<(Duration, u64)>, ExecStats) {
    let mut records = Vec::new();
    let mut cumulative = 0u64;
    while let Some(event) = session.next_batch() {
        cumulative += event.tuples.len() as u64;
        records.push((event.elapsed, cumulative));
    }
    (records, session.finish())
}

fn main() {
    let spec = WorkloadSpec::new(3000, 3, Distribution::AntiCorrelated, 0.005);
    let w = spec.generate();
    println!(
        "workload: N = {} per source, d = {}, σ = {}, anti-correlated",
        spec.n_r, spec.dims, spec.selectivity
    );
    let maps = MapSet::pairwise_sum(spec.dims, Preference::all_lowest(spec.dims));
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();

    let progxe = ProgXe::new(
        ProgXeConfig::default()
            .with_input_partitions(3)
            .with_output_cells(24),
    );
    let jfsl = JfSlEngine::new(SkyAlgo::Sfs);

    // The pooled run honors PROGXE_THREADS; unset, default to 4.
    let threads = if std::env::var_os("PROGXE_THREADS").is_some() {
        ProgXeConfig::from_env().threads.get()
    } else {
        4
    };
    let parallel = ProgXe::new(progxe.config().clone().with_threads(threads));

    // All engines behind the same trait, the same pull loop.
    let (progxe_records, progxe_stats) = drain(progxe.open(&r, &t, &maps).unwrap());
    let (parallel_records, parallel_stats) = drain(parallel.open(&r, &t, &maps).unwrap());
    let (jfsl_records, jfsl_stats) = drain(jfsl.open(&r, &t, &maps).unwrap());

    println!("\ntimeline (cumulative results over time):");
    println!("{:>12}  {:>10}  {:>10}", "time", "ProgXe", "JF-SL");
    // Sample the two series on a shared timeline.
    let horizon = progxe_stats.total_time.max(jfsl_stats.total_time);
    let steps = 12u32;
    for s in 1..=steps {
        let at = horizon * s / steps;
        let count_at = |records: &[(Duration, u64)]| {
            records
                .iter()
                .rev()
                .find(|(elapsed, _)| *elapsed <= at)
                .map_or(0, |&(_, cumulative)| cumulative)
        };
        println!(
            "{:>10.2}ms  {:>10}  {:>10}",
            at.as_secs_f64() * 1e3,
            count_at(&progxe_records),
            count_at(&jfsl_records)
        );
    }
    println!(
        "\nProgXe: first result {:.2}ms, done {:.2}ms ({} batches)",
        progxe_records[0].0.as_secs_f64() * 1e3,
        progxe_stats.total_time.as_secs_f64() * 1e3,
        progxe_records.len()
    );
    println!(
        "JF-SL : first result {:.2}ms, done {:.2}ms (single batch)",
        jfsl_records[0].0.as_secs_f64() * 1e3,
        jfsl_stats.total_time.as_secs_f64() * 1e3,
    );
    println!("\nper-engine stats (ExecStats one-liners):");
    println!("  progxe       {progxe_stats}");
    println!("  progxe x{threads}   {parallel_stats}");
    println!("  jf-sl        {jfsl_stats}");

    // ── Observability: the same query again, traced live ────────────────
    // A RingRecorder is attached to the engine; draining it between
    // `next_batch` calls yields a per-batch timeline — emit points and the
    // committer's progress-estimate gauge — without touching the results.
    let ring = Arc::new(RingRecorder::new());
    let mut session = ProgXe::new(progxe.config().clone())
        .with_recorder(ring.clone() as Arc<dyn Recorder>)
        .open(&r, &t, &maps)
        .unwrap();
    println!("\nlive trace timeline (ring drained between batches):");
    println!(
        "{:>10}  {:>5}  {:>10}  {:>8}  batch",
        "time", "batch", "cumulative", "progress"
    );
    let mut cumulative = 0u64;
    let mut progress = 0.0f64;
    let mut batch_no = 0u32;
    while let Some(event) = session.next_batch() {
        batch_no += 1;
        cumulative += event.tuples.len() as u64;
        // Everything recorded since the previous batch, in order.
        let mut emit_points = 0usize;
        for ev in ring.drain() {
            match ev.kind {
                EventKind::Gauge {
                    name: "progress_estimate",
                    value,
                } => progress = value,
                EventKind::Point(Point::Emit { .. }) => emit_points += 1,
                _ => {}
            }
        }
        println!(
            "{:>8.2}ms  {:>5}  {:>10}  {:>7.0}%  +{} tuples / {} emit points{}",
            event.elapsed.as_secs_f64() * 1e3,
            batch_no,
            cumulative,
            progress * 100.0,
            event.tuples.len(),
            emit_points,
            if event.proven_final {
                " (proven final)"
            } else {
                ""
            },
        );
    }
    let traced_stats = session.finish();
    println!(
        "\nExecStats as a structured report:\n{}",
        traced_stats.report()
    );
    println!(
        "process-wide metrics (pool telemetry from the parallel run):\n{}",
        MetricsRegistry::global().snapshot()
    );
    assert_eq!(cumulative, traced_stats.results_emitted, "trace vs stats");

    assert_eq!(
        progxe_records.last().unwrap().1,
        jfsl_records.last().unwrap().1,
        "same final skyline"
    );
    assert_eq!(
        parallel_records.last().unwrap().1,
        jfsl_records.last().unwrap().1,
        "parallel run produces the same final skyline"
    );
}
