//! Synthetic catalog for serving demos, tests, and the benchmark.
//!
//! Builds a two-table catalog from the Börzsönyi-style generator in
//! `crates/datagen` (the same workloads the paper's experiments use), so
//! `progxe-serve` can come up with realistic data without any files on
//! disk, and the `benchmark/` package can dial query cost through row
//! count, dimensionality, and distribution.

use crate::protocol::{PushFrame, PushRow};
use progxe_core::ingest::SourceId;
use progxe_core::source::SourceData;
use progxe_datagen::arrival::ArrivalSpec;
use progxe_datagen::{Distribution, Relation, WorkloadSpec};
use progxe_query::{Catalog, TableSchema};

/// Attribute column names for a `dims`-dimensional table: `a0 … a{dims-1}`.
fn columns(dims: usize) -> Vec<String> {
    (0..dims).map(|d| format!("a{d}")).collect()
}

/// Builds a catalog with tables `R` and `T` (`rows` rows each, `dims`
/// attribute columns `a0…`, join key column `k`) from an anti-correlated
/// workload — the paper's hard case, where skylines are large and region
/// work is plentiful.
pub fn catalog(rows: usize, dims: usize, seed: u64) -> Catalog {
    catalog_with(rows, dims, seed, Distribution::AntiCorrelated)
}

/// [`catalog`] with an explicit attribute distribution.
pub fn catalog_with(rows: usize, dims: usize, seed: u64, dist: Distribution) -> Catalog {
    let workload = WorkloadSpec::new(rows, dims, dist, 0.5)
        .with_seed(seed)
        .generate();
    let mut cat = Catalog::new();
    for (name, rel) in [("R", &workload.r), ("T", &workload.t)] {
        let rows: Vec<(&[f64], u32)> = (0..rel.len())
            .map(|i| (rel.attrs_of(i), rel.join_key_of(i)))
            .collect();
        cat.register(
            TableSchema::new(name, columns(dims), "k"),
            SourceData::from_rows(dims, &rows),
        );
    }
    cat
}

/// [`catalog`] plus streaming registrations of the same two table names,
/// so one server answers both one-shot queries (over the materialized
/// rows) and subscriptions (over rows pushed on the wire). The declared
/// streaming bounds are the workload generator's value range.
pub fn streaming_catalog(rows: usize, dims: usize, seed: u64) -> Catalog {
    let mut cat = catalog(rows, dims, seed);
    let (lo, hi) =
        WorkloadSpec::new(rows.max(1), dims, Distribution::AntiCorrelated, 0.5).value_range;
    for name in ["R", "T"] {
        cat.register_streaming(
            TableSchema::new(name, columns(dims), "k"),
            vec![lo; dims],
            vec![hi; dims],
        );
    }
    cat
}

/// A deterministic arrival feed for one subscription: attribute-sorted
/// batches of `batch` rows per source with tightest-sound watermarks
/// after every batch (see `progxe_datagen::arrival`), interleaved
/// R/T/R/T…, each source closed on its last frame. The rows are a fresh
/// anti-correlated workload — same generator family as [`catalog`], so
/// region work is plentiful and updates flow long before the close.
pub fn arrival_feed(
    sub_id: u64,
    rows: usize,
    dims: usize,
    seed: u64,
    batch: usize,
) -> Vec<PushFrame> {
    let workload = WorkloadSpec::new(rows, dims, Distribution::AntiCorrelated, 0.5)
        .with_seed(seed)
        .generate();
    let spec = ArrivalSpec::attr_sorted(batch);
    let sources: [(SourceId, &Relation); 2] =
        [(SourceId::R, &workload.r), (SourceId::T, &workload.t)];
    let schedules: Vec<_> = sources.iter().map(|(_, rel)| spec.schedule(rel)).collect();
    let mut frames = Vec::new();
    let rounds = schedules
        .iter()
        .map(|s| s.batches.len().max(1))
        .max()
        .unwrap_or(1);
    for i in 0..rounds {
        for ((source, rel), sched) in sources.iter().zip(&schedules) {
            let last = i + 1 >= sched.batches.len().max(1);
            let Some(b) = sched.batches.get(i) else {
                // Empty schedule (zero rows): still close the source once.
                if i == 0 {
                    frames.push(PushFrame {
                        sub_id,
                        source: *source,
                        rows: Vec::new(),
                        watermark: None,
                        close: true,
                    });
                }
                continue;
            };
            frames.push(PushFrame {
                sub_id,
                source: *source,
                rows: b
                    .rows
                    .iter()
                    .map(|&r| PushRow {
                        attrs: rel.attrs_of(r as usize).to_vec(),
                        key: rel.join_key_of(r as usize),
                    })
                    .collect(),
                watermark: b.watermark.clone(),
                close: last,
            });
        }
    }
    frames
}

/// The canonical serving query over [`catalog`]: joins `R` and `T` on `k`
/// and prefers the sum of each attribute pair to be lowest, mirroring the
/// paper's Q1 shape at arbitrary dimensionality.
pub fn query_sql(dims: usize) -> String {
    let selects: Vec<String> = (0..dims)
        .map(|d| format!("(R.a{d} + T.a{d}) AS c{d}"))
        .collect();
    let prefs: Vec<String> = (0..dims).map(|d| format!("LOWEST(c{d})")).collect();
    format!(
        "SELECT R.id, T.id, {} FROM R R, T T WHERE R.k = T.k PREFERRING {}",
        selects.join(", "),
        prefs.join(" AND ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use progxe_query::{Engine, QueryRunner};

    #[test]
    fn synthetic_catalog_answers_its_own_query() {
        let runner = QueryRunner::new(catalog(200, 2, 7));
        let out = runner
            .run_collect(&query_sql(2), &Engine::progxe())
            .expect("synthetic query runs");
        assert!(
            !out.results.is_empty(),
            "a 200-row anti-correlated join must produce results"
        );
        assert_eq!(out.output_names, vec!["c0", "c1"]);
    }

    #[test]
    fn arrival_feed_covers_every_row_and_closes_both_sources() {
        let feed = arrival_feed(1, 120, 2, 9, 16);
        let mut per_source = [0usize, 0usize];
        let mut closes = [0usize, 0usize];
        for frame in &feed {
            let slot = match frame.source {
                SourceId::R => 0,
                SourceId::T => 1,
            };
            per_source[slot] += frame.rows.len();
            closes[slot] += usize::from(frame.close);
            for row in &frame.rows {
                assert_eq!(row.attrs.len(), 2);
            }
        }
        assert_eq!(per_source, [120, 120]);
        assert_eq!(closes, [1, 1], "each source closes exactly once");
        assert_eq!(feed, arrival_feed(1, 120, 2, 9, 16), "deterministic");
        assert_ne!(feed, arrival_feed(1, 120, 2, 10, 16));
    }

    #[test]
    fn same_seed_is_deterministic_and_seeds_differ() {
        let a = QueryRunner::new(catalog(100, 2, 1))
            .run_collect(&query_sql(2), &Engine::progxe())
            .unwrap();
        let b = QueryRunner::new(catalog(100, 2, 1))
            .run_collect(&query_sql(2), &Engine::progxe())
            .unwrap();
        let c = QueryRunner::new(catalog(100, 2, 2))
            .run_collect(&query_sql(2), &Engine::progxe())
            .unwrap();
        assert_eq!(a.results, b.results, "same seed, same results");
        assert_ne!(
            a.results, c.results,
            "different seed should perturb results"
        );
    }
}
