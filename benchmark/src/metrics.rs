//! The metric tables: names, units, directions and regression bounds.
//!
//! These mirror `BENCHMARK.json` at the repository root (a unit test keeps
//! the two in step); the comparison code reads its bounds from here.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Client-observed metrics, measured with tracing off; every workload
/// reports every one. `failed_ratio` is carried by the result line's
/// `failed`/`attempted` (a gated metric may never be 0, and this one must
/// be); any increase is a regression.
///
/// Every bound sits at the contract's cap of 25 %. The acceptance check
/// takes a metric's spread (interquartile range over the median) across
/// ten runs with ten different seeds, which holds input-to-input variation
/// and host noise together, and wants it within a third of the bound; on
/// the 2-core reference host that spread reaches 10–16 % on the noisiest
/// workload for every metric but `ttfr_ms_p50` (7–10 %), even between
/// runs of one seed. `README.md` lists the spreads; a quieter host can
/// recalibrate towards the issue's 10 %.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("ttfr_ms_p50", "ms", Better::Lower, 0.25),
    e2e("result_lag_ms_p50", "ms", Better::Lower, 0.25),
    e2e("result_lag_ms_p90", "ms", Better::Lower, 0.25),
    e2e("total_ms_p50", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Printed with every run, never gated and never claimable: the op-level
/// p90s need 100 ops for ten samples beyond them, and three of the four
/// workloads complete 70–90 ops in a window.
pub const DIAGNOSTICS: [(&str, &str); 3] = [
    ("ttfr_ms_p90", "ms"),
    ("total_ms_p90", "ms"),
    ("failed_ratio", "ratio"),
];

/// How a per-layer metric is reduced from the traced run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    /// Median of one value per traced round, recorded under the metric's
    /// own name.
    Rounds,
    /// Nearest-rank percentile over every sample of all rounds recorded
    /// under `key`.
    Pooled(&'static str, f64),
}

/// A per-layer metric of the traced run. Per-layer metrics carry no
/// bound; which way is better is recorded in `BENCHMARK.json` only.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub reduce: Reduce,
}

const fn rounds(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        reduce: Reduce::Rounds,
    }
}

const fn pooled(name: &'static str, key: &'static str, pct: f64) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        reduce: Reduce::Pooled(key, pct),
    }
}

/// Per-layer metrics, layer = crate. Every workload reports every one:
/// a one-shot workload traces the ingest layers on a feed over its first
/// rows, `sub-stream` traces the one-shot layers on its first feed's rows.
pub const PER_LAYER: [PerLayer; 69] = [
    rounds("datagen.generate_ms", "ms"),
    rounds("query.parse_ms", "ms"),
    rounds("query.plan_ms", "ms"),
    rounds("query.total_ms", "ms"),
    rounds("query.overhead_ms", "ms"),
    rounds("query.stream_open_ms", "ms"),
    rounds("core.open_ms", "ms"),
    rounds("core.first_batch_ms", "ms"),
    rounds("core.drain_ms", "ms"),
    rounds("core.total_ms", "ms"),
    rounds("core.lookahead_ms", "ms"),
    rounds("core.tuple_ms", "ms"),
    rounds("core.commit_ms", "ms"),
    rounds("core.phase_coverage", "ratio"),
    rounds("core.regions_created", "count"),
    rounds("core.regions_processed", "count"),
    rounds("core.join_pairs_evaluated", "count"),
    rounds("core.join_matches", "count"),
    rounds("core.dominance_tests", "count"),
    rounds("core.tuples_prefiltered", "count"),
    rounds("core.tuples_inserted", "count"),
    rounds("core.tuples_evicted", "count"),
    rounds("core.results_emitted", "count"),
    rounds("core.batches", "count"),
    rounds("core.useful_ratio", "ratio"),
    rounds("core.ingest_open_ms", "ms"),
    pooled("core.ingest_push_ms_p50", "core.ingest_push_ms", 50.0),
    pooled("core.ingest_drain_ms_p50", "core.ingest_drain_ms", 50.0),
    rounds("core.ingest_busy_ms", "ms"),
    rounds("core.ingest_rows", "count"),
    rounds("core.ingest_regions_unlocked", "count"),
    rounds("core.ingest_updates", "count"),
    rounds("core.ingest_idle_push_ratio", "ratio"),
    rounds("skyline.kernel_mask_mpairs_s", "Mpairs/s"),
    rounds("skyline.kernel_any_mpairs_s", "Mpairs/s"),
    rounds("skyline.bnl_ms", "ms"),
    rounds("skyline.sfs_ms", "ms"),
    rounds("skyline.bnl_dom_tests", "count"),
    rounds("skyline.points_in", "count"),
    rounds("runtime.pooled_total_ms", "ms"),
    rounds("runtime.pooled_first_ms", "ms"),
    rounds("runtime.speedup", "ratio"),
    rounds("runtime.pool_jobs", "count"),
    rounds("runtime.pool_queue_wait_ms", "ms"),
    rounds("runtime.pool_run_ms", "ms"),
    rounds("baselines.jfsl_total_ms", "ms"),
    rounds("baselines.ttfr_ratio", "ratio"),
    rounds("server.connect_ms", "ms"),
    rounds("server.encode_ms", "ms"),
    rounds("server.decode_ms", "ms"),
    rounds("server.bytes_out", "bytes"),
    rounds("server.frames_out", "count"),
    rounds("server.wire_first_overhead_ms", "ms"),
    rounds("server.wire_total_overhead_ms", "ms"),
    rounds("server.cancel_ms", "ms"),
    rounds("server.sub_accept_ms", "ms"),
    pooled(
        "server.push_to_update_ms_p50",
        "server.push_to_update_ms",
        50.0,
    ),
    pooled(
        "server.push_to_update_ms_p90",
        "server.push_to_update_ms",
        90.0,
    ),
    rounds("server.sub_wire_overhead_ms", "ms"),
    rounds("server.queries_ok", "count"),
    rounds("server.queries_cancelled", "count"),
    rounds("server.queries_failed", "count"),
    rounds("server.rejected", "count"),
    rounds("obs.ring_overhead_ratio", "ratio"),
    rounds("obs.events_per_op", "count"),
    rounds("obs.events_dropped", "count"),
    pooled("loadgen.late_ms_p90", "loadgen.late_ms", 90.0),
    rounds("loadgen.trace_overhead_ratio", "ratio"),
    rounds("loadgen.samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn names(list: &Json) -> Vec<(String, String, Option<String>, Option<f64>)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                (
                    text("name").expect("name"),
                    text("unit").unwrap_or_default(),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads and this table is what
    /// the code reports and compares with; they must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();

        let listed = names(doc.get("end_to_end").unwrap());
        let table: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    Some(m.better.as_str().to_string()),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed, table);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(listed.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));

        let listed: Vec<_> = names(doc.get("per_layer").unwrap())
            .into_iter()
            .map(|m| (m.0, m.1))
            .collect();
        let table: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed, table);

        let listed: Vec<String> = names(doc.get("workloads").unwrap())
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(listed, WORKLOADS.map(|w| w.name.to_string()));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &all {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
