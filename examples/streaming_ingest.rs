//! Streaming source ingestion, live: results before the sources finish.
//!
//! Simulates two slow remote sources delivering an independent workload in
//! sorted batches with watermarks (the `trickle` arrival family of
//! `progxe_datagen::arrival`). The streaming engine (`core::ingest`) seals
//! input-grid cells as watermarks advance, unlocks their output regions,
//! and emits proven-final skyline results while most of the data is still
//! in flight — a batch engine would have to wait for the last batch.
//!
//! ```text
//! cargo run --release --example streaming_ingest
//! PROGXE_THREADS=4 cargo run --release --example streaming_ingest
//! ```

use progxe::core::ingest::{IngestPoll, SourceId, StreamSpec};
use progxe::core::prelude::*;
use progxe::datagen::{ArrivalSpec, Distribution, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::new(4000, 3, Distribution::Independent, 0.05);
    let w = spec.generate();
    println!(
        "workload: N = {} per source, d = {}, σ = {}, independent",
        spec.n_r, spec.dims, spec.selectivity
    );
    let maps = MapSet::pairwise_sum(spec.dims, Preference::all_lowest(spec.dims));
    let bounds = || StreamSpec::new(vec![1.0; spec.dims], vec![100.0; spec.dims]).unwrap();

    let config = ProgXeConfig::from_env();
    println!("threads: {} (PROGXE_THREADS)", config.threads);
    let mut session = ProgXe::new(config)
        .open_ingest(&maps, bounds(), bounds())
        .unwrap();

    // Sorted trickle: ~32 batches per source, watermark after each.
    let arrival = ArrivalSpec::trickle(spec.n_r / 32);
    let r_sched = arrival.schedule(&w.r);
    let t_sched = arrival.schedule(&w.t);
    let steps = r_sched.batches.len().max(t_sched.batches.len());

    let mut emitted = 0u64;
    for i in 0..steps {
        for (side, rel, sched) in [(SourceId::R, &w.r, &r_sched), (SourceId::T, &w.t, &t_sched)] {
            let Some(batch) = sched.batches.get(i) else {
                continue;
            };
            let rows: Vec<(u32, &[f64], u32)> = batch
                .rows
                .iter()
                .map(|&row| {
                    (
                        row,
                        rel.attrs_of(row as usize),
                        rel.join_key_of(row as usize),
                    )
                })
                .collect();
            session.push_with_ids(side, &rows).unwrap();
            if let Some(wm) = &batch.watermark {
                session.set_watermark(side, wm).unwrap();
            }
        }
        let mut step_results = 0usize;
        while let IngestPoll::Batch(event) = session.poll() {
            step_results += event.tuples.len();
        }
        emitted += step_results as u64;
        if step_results > 0 {
            let arrived = (i + 1) as f64 / steps as f64 * 100.0;
            println!(
                "  after {arrived:>5.1}% of arrival: +{step_results:>4} proven-final results \
                 ({emitted} total)"
            );
        }
    }

    session.close(SourceId::R);
    session.close(SourceId::T);
    let mut tail = 0usize;
    while let IngestPoll::Batch(event) = session.poll() {
        tail += event.tuples.len();
    }
    println!("  after close:            +{tail:>4} proven-final results");
    let stats = session.finish();
    println!(
        "\ndone: {} results, {} rows ingested, {} regions unlocked, {}",
        stats.results_emitted, stats.tuples_ingested, stats.regions_unlocked, stats
    );
}
