//! Whole-suite modes: `run`/`trace` over every workload and `--aa`.
//!
//! Each workload runs in a process of its own (so `peak_rss_mb` and CPU
//! time are per workload): this binary starts itself once per workload
//! and reads the child's `DETAIL` line back.

use crate::json::Json;
use crate::metrics::{Better, DIAGNOSTICS, END_TO_END};
use crate::stats;
use crate::workload::WORKLOADS;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Options every run takes.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
}

/// Runs one workload in a child process, echoing its table, and returns
/// its `DETAIL` document with the child's exit code.
fn run_child(workload: &str, traced: bool, opts: Options) -> Result<(Json, i32), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.quick {
        command.arg("--quick");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut detail = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the run's output: {e}"))?;
        if let Some(doc) = line.strip_prefix("DETAIL ") {
            detail = Some(Json::parse(doc)?);
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the run: {e}"))?;
    let detail =
        detail.ok_or_else(|| format!("the run of {workload} printed no DETAIL line ({status})"))?;
    Ok((detail, status.code().unwrap_or(-1)))
}

/// `run` / `trace` without `--workload`: every workload in turn. Returns
/// the worst exit code.
pub fn run_all(traced: bool, opts: Options) -> Result<i32, String> {
    let mut worst = 0;
    for workload in &WORKLOADS {
        let (_, code) = run_child(workload.name, traced, opts)?;
        worst = worst.max(code);
        println!();
    }
    Ok(worst)
}

fn metric_value(detail: &Json, section: &str, name: &str) -> Option<f64> {
    detail.get(section)?.get(name)?.get("value")?.as_f64()
}

fn metric_samples(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("samples")?.as_f64()
}

/// Refuses documents that must not be compared: a `--quick` window is a
/// smoke test, not a measurement.
pub fn comparable(details: &[Json]) -> Result<(), String> {
    match details
        .iter()
        .find(|d| d.get("quick").and_then(Json::as_bool) != Some(false))
    {
        Some(d) => Err(format!(
            "run of {} is stamped quick: refusing to compare",
            d.get("workload").and_then(Json::as_str).unwrap_or("?")
        )),
        None => Ok(()),
    }
}

/// By how much of `a` the value `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Quartiles over the runs of one metric (the spread is not defined for
/// a single run; it is written as `null`).
fn summary(values: &[f64]) -> [(&'static str, Json); 3] {
    let (q1, q2, q3) =
        stats::quartiles(values).unwrap_or((f64::NAN, stats::median(values), f64::NAN));
    [
        ("q1", Json::Num(q1)),
        ("median", Json::Num(q2)),
        ("q3", Json::Num(q3)),
    ]
}

/// `--aa`: the suite `2 × pairs` times, workload order reversed every
/// other time. Prints, per gated metric × workload, the gap between the
/// two sets' medians against the metric's bound, and writes the
/// provenance document to `out/aa.json`. Exit code 0 only when every
/// run was clean and every gap is within its bound.
pub fn run_aa(pairs: usize, opts: Options) -> Result<i32, String> {
    let mut sets: [Vec<Vec<Json>>; 2] = [
        vec![Vec::new(); WORKLOADS.len()],
        vec![Vec::new(); WORKLOADS.len()],
    ];
    let mut worst = 0;
    for pass in 0..2 * pairs {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        println!(
            "## A/A pass {} of {} (set {})",
            pass + 1,
            2 * pairs,
            ["A", "B"][pass % 2]
        );
        for w in order {
            let (detail, code) = run_child(WORKLOADS[w].name, false, opts)?;
            worst = worst.max(code);
            sets[pass % 2][w].push(detail);
        }
    }
    let every: Vec<Json> = sets.iter().flatten().flatten().cloned().collect();
    if let Err(refusal) = comparable(&every) {
        println!("{refusal}");
        return Ok(worst.max(3));
    }

    println!();
    println!(
        "{:<22} {:<20} {:>12} {:>12} {:>9} {:>7} {:>8}",
        "workload", "metric", "A", "B", "gap", "bound", "spread"
    );
    let mut workloads_json = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let values = |set: usize, section: &str, name: &str| -> Vec<f64> {
            sets[set][w]
                .iter()
                .filter_map(|d| metric_value(d, section, name))
                .collect()
        };
        let mut metrics_json = Vec::new();
        for def in &END_TO_END {
            let (a, b) = (
                values(0, "metrics", def.name),
                values(1, "metrics", def.name),
            );
            let gap = worse_by(def.better, stats::median(&a), stats::median(&b)).abs();
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread = stats::relative_spread(&all).unwrap_or(f64::NAN);
            let verdict = if gap <= def.bound {
                ""
            } else {
                "  EXCEEDS BOUND"
            };
            println!(
                "{:<22} {:<20} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}% {:>7.2}%{verdict}",
                workload.name,
                def.name,
                stats::median(&a),
                stats::median(&b),
                gap * 100.0,
                def.bound * 100.0,
                spread * 100.0
            );
            if gap > def.bound {
                worst = worst.max(4);
            }
            let samples: Vec<f64> = sets
                .iter()
                .flat_map(|s| &s[w])
                .filter_map(|d| metric_samples(d, def.name))
                .collect();
            let mut doc = vec![
                ("samples", Json::Num(stats::median(&samples))),
                ("aa_gap", Json::Num(gap)),
            ];
            doc.extend(summary(&all));
            metrics_json.push((def.name, Json::obj(doc)));
        }
        let diagnostics = DIAGNOSTICS.iter().map(|&(name, _)| {
            let all: Vec<f64> = (0..2)
                .flat_map(|set| values(set, "diagnostics", name))
                .collect();
            (name, Json::obj(summary(&all)))
        });
        workloads_json.push((
            workload.name,
            Json::obj([
                ("runs", Json::Num((2 * pairs) as f64)),
                ("end_to_end", Json::obj(metrics_json)),
                ("diagnostics", Json::obj(diagnostics)),
            ]),
        ));
    }

    let doc = Json::obj([
        ("schema_version", Json::Num(1.0)),
        ("git_rev", Json::str(git_rev())),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("window_seconds", Json::Num(opts.seconds as f64)),
        ("aa_pairs", Json::Num(pairs as f64)),
        (
            "metrics",
            Json::obj(END_TO_END.iter().map(|m| {
                let fields = [
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ];
                (m.name, Json::obj(fields))
            })),
        ),
        (
            "diagnostics",
            Json::Arr(
                DIAGNOSTICS
                    .iter()
                    .map(|&(name, _)| Json::str(name))
                    .collect(),
            ),
        ),
        ("workloads", Json::obj(workloads_json)),
        ("claim", Json::Null),
    ]);
    let path = crate::out_dir()?.join("aa.json");
    std::fs::write(&path, doc.encode() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(worst)
}

/// The commit the numbers belong to, when run inside a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::{E2eRun, OpLog};
    use crate::report::Report;

    fn detail(quick: bool) -> Json {
        let run = E2eRun {
            ops: OpLog {
                attempted: 30,
                ttfr_ms: vec![1.0; 30],
                total_ms: vec![2.0; 30],
                lag_ms: vec![1.5; 300],
                ..OpLog::default()
            },
            window_s: 3.0,
            cpu_ms: 100.0,
            warmup_s: 0.0,
        };
        let report = Report::end_to_end(&WORKLOADS[0], &run, 1.0, quick);
        Json::parse(&report.detail(1, 3).encode()).unwrap()
    }

    #[test]
    fn quick_runs_are_refused_by_the_comparison() {
        assert_eq!(comparable(&[detail(false), detail(false)]), Ok(()));
        let refusal = comparable(&[detail(false), detail(true)]).unwrap_err();
        assert!(refusal.contains("quick"), "{refusal}");
        // A document without the stamp is not trusted either.
        assert!(comparable(&[Json::obj([("workload", Json::str("x"))])]).is_err());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 100.0, 90.0) < 0.0);
        assert_eq!(
            metric_value(&detail(false), "metrics", "total_ms_p50"),
            Some(2.0)
        );
        assert_eq!(
            metric_samples(&detail(false), "result_lag_ms_p90"),
            Some(300.0)
        );
    }
}
