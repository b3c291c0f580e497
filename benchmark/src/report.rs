//! Turning a run's raw samples into named metrics, and printing them.
//!
//! A run prints a table for people, then two machine lines: a
//! `DETAIL {json}` line (sample counts, diagnostics, provenance, the
//! `quick` stamp) that `run`/`trace`/`--aa` read back from their child
//! processes, and last the result object the driver's contract fixes.

use crate::e2e::E2eRun;
use crate::json::Json;
use crate::metrics::{Reduce, DIAGNOSTICS, END_TO_END, PER_LAYER};
use crate::proc;
use crate::stats;
use crate::workload::Workload;
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the number (ops, result tuples, traced rounds).
    pub samples: usize,
}

/// A finished run of one workload, gated or traced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Every metric of the list `--trace` selects, in table order.
    pub metrics: Vec<Value>,
    /// Printed, never gated.
    pub diagnostics: Vec<Value>,
    /// Gated percentiles the window was too short to support (fewer than
    /// ten samples beyond them).
    pub too_short: Vec<&'static str>,
    pub quick: bool,
}

/// Per-layer samples of a traced run, by metric or pooled-sample key.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, key: &'static str, value: f64) {
        self.0.entry(key).or_default().push(value);
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }
}

impl Report {
    /// The gated report: nearest-rank percentiles over every op (or every
    /// result tuple) of the window.
    pub fn end_to_end(workload: &Workload, run: &E2eRun, setup_s: f64, quick: bool) -> Report {
        let ops = &run.ops;
        let ok_ops = ops.total_ms.len();
        let ttfr = stats::sorted(ops.ttfr_ms.clone());
        let total = stats::sorted(ops.total_ms.clone());
        let lag = stats::sorted(ops.lag_ms.clone());
        // A percentile with its sample count and the rank it must support.
        let pct = |sorted: &[f64], p: f64| {
            let value = stats::percentile(sorted, p).unwrap_or(f64::NAN);
            (value, sorted.len(), Some(p))
        };
        let mut too_short = Vec::new();
        let metrics = END_TO_END
            .iter()
            .map(|def| {
                let (value, samples, percentile) = match def.name {
                    "ttfr_ms_p50" => pct(&ttfr, 50.0),
                    "result_lag_ms_p50" => pct(&lag, 50.0),
                    "result_lag_ms_p90" => pct(&lag, 90.0),
                    "total_ms_p50" => pct(&total, 50.0),
                    "ops_per_s" => (ok_ops as f64 / run.window_s, ok_ops, None),
                    "cpu_ms_per_op" => (run.cpu_ms / ok_ops as f64, ok_ops, None),
                    "setup_s" => (setup_s, 1, None),
                    "peak_rss_mb" => (proc::peak_rss_mb().unwrap_or(f64::NAN), 1, None),
                    other => unreachable!("no reducer for end-to-end metric {other}"),
                };
                if percentile.is_some_and(|p| !stats::supports(samples, p)) {
                    too_short.push(def.name);
                }
                Value {
                    name: def.name,
                    unit: def.unit,
                    value,
                    samples,
                }
            })
            .collect();
        let diagnostics = DIAGNOSTICS
            .iter()
            .map(|&(name, unit)| {
                let (value, samples, _) = match name {
                    "ttfr_ms_p90" => pct(&ttfr, 90.0),
                    "total_ms_p90" => pct(&total, 90.0),
                    "failed_ratio" => {
                        let attempted = ops.attempted.max(1);
                        (
                            ops.failed as f64 / attempted as f64,
                            attempted as usize,
                            None,
                        )
                    }
                    other => unreachable!("no reducer for diagnostic {other}"),
                };
                Value {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect();
        Report {
            workload: workload.name,
            traced: false,
            attempted: ops.attempted,
            failed: ops.failed,
            first_error: ops.first_error.clone(),
            metrics,
            diagnostics,
            too_short,
            quick,
        }
    }

    /// The traced report: one median per metric over the traced rounds
    /// (a percentile over all pooled samples where the table says so).
    pub fn per_layer(
        workload: &Workload,
        samples: &Samples,
        attempted: u64,
        failed: u64,
        first_error: Option<String>,
        quick: bool,
    ) -> Report {
        let metrics = PER_LAYER
            .iter()
            .map(|def| {
                let (value, n) = match def.reduce {
                    Reduce::Rounds => {
                        let v = samples.get(def.name);
                        (stats::median(v), v.len())
                    }
                    Reduce::Pooled(key, p) => {
                        let v = stats::sorted(samples.get(key).to_vec());
                        (stats::percentile(&v, p).unwrap_or(0.0), v.len())
                    }
                };
                Value {
                    name: def.name,
                    unit: def.unit,
                    value,
                    samples: n,
                }
            })
            .collect();
        Report {
            workload: workload.name,
            traced: true,
            attempted,
            failed,
            first_error,
            metrics,
            diagnostics: Vec::new(),
            too_short: Vec::new(),
            quick,
        }
    }

    /// 0 only for a run whose every op was correct and whose gated
    /// percentiles had the samples they need. A `--quick` window is too
    /// short by design; its numbers are stamped, not refused.
    pub fn exit_code(&self) -> i32 {
        if self.failed > 0 || self.attempted == 0 {
            1
        } else if !self.too_short.is_empty() && !self.quick {
            2
        } else {
            0
        }
    }

    /// The table for people.
    pub fn print_table(&self) {
        let kind = if self.traced {
            "per-layer, traced"
        } else {
            "end-to-end, tracing off"
        };
        println!(
            "== {} ({kind}{}) ==",
            self.workload,
            if self.quick { ", QUICK" } else { "" }
        );
        for v in self.metrics.iter().chain(&self.diagnostics) {
            let gated = self.traced || self.metrics.iter().any(|m| m.name == v.name);
            let note = if !gated {
                "  (diagnostic, not gated)"
            } else if self.too_short.contains(&v.name) {
                "  (fewer than 10 samples beyond: window too short)"
            } else {
                ""
            };
            println!(
                "{:<34} {:>16.4} {:<9} n={}{note}",
                v.name, v.value, v.unit, v.samples
            );
        }
        println!("ops attempted {} failed {}", self.attempted, self.failed);
        if let Some(e) = &self.first_error {
            println!("first failure: {e}");
        }
    }

    fn values_json(values: &[Value], with_samples: bool) -> Json {
        Json::obj(values.iter().map(|v| {
            let mut fields = vec![("value", Json::Num(v.value)), ("unit", Json::str(v.unit))];
            if with_samples {
                fields.push(("samples", Json::Num(v.samples as f64)));
            }
            (v.name, Json::obj(fields))
        }))
    }

    /// The `DETAIL` document.
    pub fn detail(&self, seed: u64, seconds: u64) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(self.quick)),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Self::values_json(&self.metrics, true)),
            ("diagnostics", Self::values_json(&self.diagnostics, true)),
        ])
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Self::values_json(&self.metrics, false)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::OpLog;
    use crate::workload::WORKLOADS;

    fn run(ops: usize, failed: u64) -> E2eRun {
        E2eRun {
            ops: OpLog {
                attempted: ops as u64 + failed,
                failed,
                first_error: (failed > 0).then(|| "mismatch".to_string()),
                ttfr_ms: (0..ops).map(|i| 1.0 + i as f64).collect(),
                total_ms: (0..ops).map(|i| 10.0 + i as f64).collect(),
                lag_ms: (0..ops * 5).map(|i| 2.0 + i as f64).collect(),
            },
            window_s: 2.0,
            cpu_ms: 400.0,
            warmup_s: 0.1,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_every_gated_metric() {
        let report = Report::end_to_end(&WORKLOADS[0], &run(40, 0), 1.5, false);
        assert_eq!(report.exit_code(), 0, "{:?}", report.too_short);
        let line = Json::parse(&report.result_line().encode()).unwrap();
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().members().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        let get = |name: &str| {
            line.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(get("ttfr_ms_p50"), 20.0);
        assert_eq!(get("total_ms_p50"), 29.0);
        assert_eq!(get("ops_per_s"), 20.0);
        assert_eq!(get("cpu_ms_per_op"), 10.0);
        assert_eq!(get("setup_s"), 1.5);
        assert!(get("peak_rss_mb") > 0.0);
    }

    #[test]
    fn failures_and_short_windows_change_the_exit_code() {
        let failed = Report::end_to_end(&WORKLOADS[0], &run(40, 1), 1.0, false);
        assert_eq!(failed.exit_code(), 1);
        assert_eq!(
            failed.result_line().get("correct"),
            Some(&Json::Bool(false))
        );
        let ratio = failed
            .diagnostics
            .iter()
            .find(|d| d.name == "failed_ratio")
            .unwrap();
        assert!(ratio.value > 0.0);

        // 12 ops: p50 has only 6 samples beyond it.
        let short = Report::end_to_end(&WORKLOADS[0], &run(12, 0), 1.0, false);
        assert!(short.too_short.contains(&"ttfr_ms_p50"));
        assert_eq!(short.exit_code(), 2);
        let quick = Report::end_to_end(&WORKLOADS[0], &run(12, 0), 1.0, true);
        assert_eq!(quick.exit_code(), 0);
        assert_eq!(quick.detail(1, 3).get("quick"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_traced_report_lists_every_per_layer_metric() {
        let mut samples = Samples::default();
        for round in 0..3 {
            samples.add("core.total_ms", 10.0 + round as f64);
            for k in 0..40 {
                samples.add("server.push_to_update_ms", k as f64);
            }
        }
        let report = Report::per_layer(&WORKLOADS[3], &samples, 9, 0, None, false);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        let get = |name: &str| report.metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("core.total_ms").value, 11.0);
        assert_eq!(get("core.total_ms").samples, 3);
        assert_eq!(get("server.push_to_update_ms_p90").value, 35.0);
        assert_eq!(get("server.push_to_update_ms_p90").samples, 120);
        assert_eq!(report.exit_code(), 0);
    }
}
