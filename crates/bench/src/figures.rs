//! One function per paper figure/ablation: generate the workload(s), run
//! the algorithms, print the series the figure plots, write CSVs. The last
//! four rows are the experiments CI runs on every change, each with the
//! gate it enforces in parentheses. End-to-end and per-layer timings are
//! the `benchmark/` package's job, not this module's.
//!
//! Figure-to-function map (the README's "Paper-to-module map" places the
//! harness in the whole system):
//!
//! | Paper artifact | Function | Series (gate) |
//! |---|---|---|
//! | Fig. 10 a–c | [`fig10_prog`] | results vs time, 4 ProgXe variants × 3 distributions, σ=0.001 |
//! | Fig. 10 d–f | [`fig10_time`] | total time vs σ, 4 ProgXe variants × 3 distributions |
//! | Fig. 11 a–f | [`fig11`] | results vs time, ProgXe/ProgXe+/SSMJ, σ ∈ {0.01, 0.1} |
//! | Fig. 12 a–b | [`fig12`] | results vs time at d = 5, σ = 0.1 |
//! | Fig. 13 a–c | [`fig13`] | total time vs σ, ProgXe/ProgXe+/SSMJ |
//! | Sec. III-B bound | [`cellbound`] | comparable cells vs `k^d − (k−1)^d` |
//! | Sec. VI-B δ remark | [`ablate_delta`] | grid-granularity sensitivity |
//! | Sec. VI-B overhead claim | [`ablate_order`] | ProgOrder cost vs benefit |
//! | Sec. VII claim | [`ssmj_soundness`] | SSMJ batch-1 false positives |
//! | Figs. 11–12 at scale | [`scaling`] | first-output latency vs N |
//! | parallel runtime | [`threads`] | wall time vs threads 1/2/4/8 (pooled(2) holds ≥ 2 regions in flight; full size: pooled(2) beats inline on general maps) |
//! | columnar kernels | [`kernels`] | batched vs scalar, index vs naive (batched never loses to scalar; the blocker index does less work; full size: the columnar map producer wins) |
//! | flexible skylines | [`fdom`] | shrinkage + latency vs band tightness (the unit test: tightness 0 ≡ Pareto, answers shrink monotonically) |
//! | tracing overhead | [`obs`] | recorder off / null / ring (ring within [`obs_overhead_gate`] of null) |

use crate::report::{
    fmt_duration, fmt_opt_duration, json_object, json_str, write_csv, write_json, Table,
};
use crate::runners::{
    default_config_for, drain_run, run_algo, run_algo_with_timeout, AlgoKind, RunResult,
};
use progxe_core::config::OrderingPolicy;
use progxe_core::executor::ProgXe;
use progxe_core::mapping::MapSet;
use progxe_core::session::ProgressiveEngine;
use progxe_core::source::SourceView;
use progxe_datagen::{Distribution, SmjWorkload, WorkloadSpec};
use progxe_runtime::ParallelProgXe;
use progxe_skyline::Preference;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Shared experiment options (CLI overrides).
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Cardinality override (default figure-specific).
    pub n: Option<usize>,
    /// Dimensionality override.
    pub dims: Option<usize>,
    /// Selectivity override (single-σ experiments only).
    pub sigma: Option<f64>,
    /// Workload seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// Shrink sizes drastically (test/CI mode).
    pub quick: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            n: None,
            dims: None,
            sigma: None,
            seed: 0xC0FFEE,
            out: PathBuf::from("results"),
            quick: false,
        }
    }
}

impl ExpOptions {
    fn pick_n(&self, default: usize) -> usize {
        let n = self.n.unwrap_or(default);
        if self.quick {
            (n / 10).max(60)
        } else {
            n
        }
    }

    fn pick_dims(&self, default: usize) -> usize {
        self.dims.unwrap_or(default)
    }
}

fn workload(n: usize, dims: usize, dist: Distribution, sigma: f64, seed: u64) -> SmjWorkload {
    WorkloadSpec::new(n, dims, dist, sigma)
        .with_seed(seed)
        .generate()
}

fn progressiveness_rows(dist: Distribution, sigma: f64, run: &RunResult) -> Vec<Vec<String>> {
    run.records
        .iter()
        .map(|r| {
            vec![
                dist.name().to_string(),
                format!("{sigma}"),
                run.algo.to_string(),
                format!("{}", r.elapsed.as_micros()),
                format!("{}", r.cumulative),
            ]
        })
        .collect()
}

fn summarize(table: &mut Table, dist: Distribution, run: &RunResult) {
    table.row(vec![
        dist.name().to_string(),
        run.algo.to_string(),
        format!("{}", run.results),
        fmt_opt_duration(run.first_result()),
        fmt_opt_duration(run.time_to_fraction(0.25)),
        fmt_opt_duration(run.time_to_fraction(0.5)),
        fmt_opt_duration(run.time_to_fraction(0.75)),
        fmt_duration(run.total_time),
    ]);
}

const PROG_HEADER: [&str; 8] = [
    "distribution",
    "algo",
    "results",
    "first",
    "t25",
    "t50",
    "t75",
    "total",
];
const SERIES_HEADER: [&str; 5] = ["distribution", "sigma", "algo", "elapsed_us", "cumulative"];

/// Figure 10 a–c: progressiveness of the four ProgXe variations
/// (correlated / independent / anti-correlated; σ = 0.001; d = 4).
pub fn fig10_prog(opt: &ExpOptions) {
    let n = opt.pick_n(4000);
    let dims = opt.pick_dims(4);
    let sigma = opt.sigma.unwrap_or(0.001);
    println!(
        "== Figure 10 a–c: ProgXe variations, progressiveness (N={n}, d={dims}, sigma={sigma}) =="
    );
    let mut table = Table::new(&PROG_HEADER);
    let mut series = Vec::new();
    for dist in Distribution::ALL {
        let w = workload(n, dims, dist, sigma, opt.seed);
        for kind in AlgoKind::PROGXE_VARIATIONS {
            let run = run_algo(kind, &w);
            series.extend(progressiveness_rows(dist, sigma, &run));
            summarize(&mut table, dist, &run);
        }
    }
    println!("{}", table.render());
    let path = write_csv(&opt.out, "fig10_prog_series", &SERIES_HEADER, &series).unwrap();
    println!("series written to {}", path.display());
}

/// Figure 10 d–f: total execution time of the four ProgXe variations over
/// the σ sweep.
pub fn fig10_time(opt: &ExpOptions) {
    sweep_sigma(
        "fig10_time",
        "Figure 10 d–f",
        &AlgoKind::PROGXE_VARIATIONS,
        opt,
    );
}

/// Figure 13 a–c: total execution time of ProgXe, ProgXe+ and SSMJ over the
/// σ sweep.
pub fn fig13(opt: &ExpOptions) {
    sweep_sigma("fig13_time", "Figure 13 a–c", &AlgoKind::VS_SSMJ, opt);
}

fn sweep_sigma(csv: &str, title: &str, algos: &[AlgoKind], opt: &ExpOptions) {
    let n = opt.pick_n(1000);
    let dims = opt.pick_dims(4);
    let sigmas: &[f64] = if opt.quick {
        &[0.001, 0.01]
    } else {
        &[0.0001, 0.001, 0.01, 0.1]
    };
    println!("== {title}: total time vs join selectivity (N={n}, d={dims}) ==");
    let mut table = Table::new(&["distribution", "sigma", "algo", "total", "results"]);
    let mut rows = Vec::new();
    for dist in Distribution::ALL {
        for &sigma in sigmas {
            let w = workload(n, dims, dist, sigma, opt.seed);
            for &kind in algos {
                let run = run_algo(kind, &w);
                table.row(vec![
                    dist.name().into(),
                    format!("{sigma}"),
                    run.algo.into(),
                    fmt_duration(run.total_time),
                    format!("{}", run.results),
                ]);
                rows.push(vec![
                    dist.name().to_string(),
                    format!("{sigma}"),
                    run.algo.to_string(),
                    format!("{}", run.total_time.as_micros()),
                    format!("{}", run.results),
                ]);
            }
        }
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        csv,
        &["distribution", "sigma", "algo", "total_us", "results"],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
}

/// Figure 11 a–f: progressiveness of ProgXe, ProgXe+ and SSMJ at σ = 0.01
/// and σ = 0.1 (d = 4).
pub fn fig11(opt: &ExpOptions) {
    let dims = opt.pick_dims(4);
    println!("== Figure 11 a–f: ProgXe vs ProgXe+ vs SSMJ, progressiveness (d={dims}) ==");
    let mut series = Vec::new();
    let mut table = Table::new(&PROG_HEADER);
    for (sigma, default_n) in [(0.01, 4000), (0.1, 2000)] {
        let sigma = opt.sigma.unwrap_or(sigma);
        let n = opt.pick_n(default_n);
        println!("-- sigma = {sigma}, N = {n} --");
        for dist in Distribution::ALL {
            let w = workload(n, dims, dist, sigma, opt.seed);
            for kind in AlgoKind::VS_SSMJ {
                let run = run_algo(kind, &w);
                series.extend(progressiveness_rows(dist, sigma, &run));
                summarize(&mut table, dist, &run);
            }
        }
    }
    println!("{}", table.render());
    let path = write_csv(&opt.out, "fig11_series", &SERIES_HEADER, &series).unwrap();
    println!("series written to {}", path.display());
}

/// Figure 12 a–b: d = 5, σ = 0.1 — independent and anti-correlated (the
/// setting where SSMJ degenerates; the paper reports it failing entirely on
/// anti-correlated data).
pub fn fig12(opt: &ExpOptions) {
    let n = opt.pick_n(1500);
    let dims = opt.pick_dims(5);
    let sigma = opt.sigma.unwrap_or(0.1);
    let budget = Duration::from_secs(if opt.quick { 20 } else { 120 });
    println!("== Figure 12 a–b: higher dimension (N={n}, d={dims}, sigma={sigma}) ==");
    let mut series = Vec::new();
    let mut table = Table::new(&PROG_HEADER);
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        let w = workload(n, dims, dist, sigma, opt.seed);
        for kind in AlgoKind::VS_SSMJ {
            // SSMJ runs under a wall-clock budget: the paper's Figure 12.b
            // annotates "SSMJ did not return results even after several
            // hours" on anti-correlated data.
            match run_algo_with_timeout(kind, &w, budget) {
                Some(run) => {
                    series.extend(progressiveness_rows(dist, sigma, &run));
                    summarize(&mut table, dist, &run);
                }
                None => {
                    table.row(vec![
                        dist.name().into(),
                        kind.label().into(),
                        "0".into(),
                        format!(">{budget:?}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!(">{budget:?}"),
                    ]);
                    println!(
                        "  {} produced no results within {budget:?} on {} data \
                         (cf. the paper's Fig. 12.b annotation)",
                        kind.label(),
                        dist.name()
                    );
                }
            }
        }
    }
    println!("{}", table.render());
    let path = write_csv(&opt.out, "fig12_series", &SERIES_HEADER, &series).unwrap();
    println!("series written to {}", path.display());
}

/// Scaling trend: first-output latency and total time vs N on
/// anti-correlated data. This is the laptop-scale demonstration of why the
/// paper's 500K-tuple runs separate ProgXe from SSMJ by orders of
/// magnitude: SSMJ's first batch waits for its entire phase-1 join +
/// skyline (growing superlinearly with N), while ProgXe's first safe batch
/// arrives after one region's tuple-level work (near-constant).
pub fn scaling(opt: &ExpOptions) {
    let dims = opt.pick_dims(4);
    let sigma = opt.sigma.unwrap_or(0.01);
    let ns: &[usize] = if opt.quick {
        &[250, 500]
    } else {
        &[1000, 2000, 4000, 8000, 16000]
    };
    println!("== Scaling: first-output latency vs N (anti-correlated, d={dims}, sigma={sigma}) ==");
    let mut table = Table::new(&["N", "algo", "results", "first output", "total"]);
    let mut rows = Vec::new();
    for &n in ns {
        let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
        for kind in [AlgoKind::ProgXe, AlgoKind::Ssmj, AlgoKind::JfSl] {
            let run = run_algo(kind, &w);
            table.row(vec![
                format!("{n}"),
                run.algo.into(),
                format!("{}", run.results),
                fmt_opt_duration(run.first_result()),
                fmt_duration(run.total_time),
            ]);
            rows.push(vec![
                format!("{n}"),
                run.algo.to_string(),
                format!("{}", run.results),
                run.first_result()
                    .map(|d| d.as_micros().to_string())
                    .unwrap_or_default(),
                format!("{}", run.total_time.as_micros()),
            ]);
        }
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "scaling",
        &["n", "algo", "results", "first_us", "total_us"],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
}

/// Thread scaling: end-to-end time of the 10k anti-correlated workload
/// (the skyline-hostile case) against `ProgXeConfig::threads`. `threads=1`
/// runs the unified driver's `Inline` backend; higher counts run its
/// `Pooled` backend over the engine's shared runtime. Reports per-row
/// speedup over the inline baseline — the ROADMAP's "as fast as the
/// hardware allows" tracking number — with the pooled ledger beside it
/// (`inflight_peak`, `dispatch_ms`, `commit_wait_ms`,
/// `regions_computed_dead`, `join_matches_skipped`). Every arrangement is
/// run `THREADS_REPS` times and reports its fastest run.
///
/// The sweep runs with the separable maps every SQL query plans. Since the
/// tuple-level join skips dominated key groups unexpanded, that input has
/// no heavy regions left (mean region compute is of the order of a pool
/// hand-off), so a second inline / pooled(2) pair runs the same input with
/// the sums behind `general_sum_maps` — maps nothing can bound, whose
/// regions stay heavy — and speedups in those rows are over
/// `inline-general`.
///
/// Gated (`assert_threads_gates`): two workers must actually overlap on the
/// separable run, and must pay on the general one.
///
/// Besides the CSV, writes machine-readable `BENCH_threads.json`
/// (workload, per-run threads / wall-ms / first-result-ms / ledger) so the
/// perf trajectory is tracked across PRs; CI uploads it as an artifact.
pub fn threads(opt: &ExpOptions) {
    let n = opt.pick_n(10_000);
    // Defaults pick the tuple-phase-heavy corner (d = 3, σ = 0.1): enough
    // join matches per region that region fan-out, not the serial
    // look-ahead front end, dominates the wall clock.
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.1);
    let counts: &[usize] = if opt.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "== Thread scaling: total time vs threads \
         (anti-correlated, N={n}, d={dims}, sigma={sigma}; {hw} hardware threads) =="
    );
    let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
    let separable = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let general = general_sum_maps(dims);
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");

    // Fastest of THREADS_REPS runs: one-shot wall times on a shared host
    // swing by tens of percent, and the gate below compares two of them.
    let run_engine = |engine: Box<dyn ProgressiveEngine>, maps: &MapSet| {
        (0..THREADS_REPS)
            .map(|_| {
                let mut session = engine.open(&r, &t, maps).expect("valid configuration");
                let mut first: Option<Duration> = None;
                while let Some(event) = session.next_batch() {
                    if first.is_none() && !event.tuples.is_empty() {
                        first = Some(event.elapsed);
                    }
                }
                (first, session.finish())
            })
            .min_by_key(|(_, stats)| stats.total_time)
            .expect("THREADS_REPS > 0")
    };

    struct Run {
        mode: &'static str,
        threads: usize,
        first: Option<Duration>,
        stats: progxe_core::stats::ExecStats,
    }
    let base_cfg = default_config_for(dims, sigma);
    let engine_for = |count: usize| -> Box<dyn ProgressiveEngine> {
        let config = base_cfg.clone().with_threads(count);
        if count > 1 {
            Box::new(ParallelProgXe::new(config))
        } else {
            Box::new(ProgXe::new(config))
        }
    };
    let measure = |mode: &'static str, engine: Box<dyn ProgressiveEngine>, maps: &MapSet| {
        let (first, stats) = run_engine(engine, maps);
        Run {
            mode,
            threads: stats.threads_used.max(1),
            first,
            stats,
        }
    };
    // Discarded warm-up: first-touch allocation and CPU ramp must not be
    // charged to whichever measured arrangement happens to run first.
    let _ = run_engine(engine_for(1), &separable);
    let mut runs = vec![measure("inline", engine_for(1), &separable)];
    let inline_general = measure("inline-general", engine_for(1), &general);
    if hw >= 2 {
        // Small VMs park an idle core and take a second or two of
        // multi-threaded demand to bring it back — and every row so far
        // was single-threaded. Keep two workers busy on the heavy regions
        // until they visibly overlap, or the budget runs out (if pooled(2)
        // really is no faster than inline, the gate below says so).
        let warm_started = Instant::now();
        while warm_started.elapsed() < THREADS_WARMUP_BUDGET
            && run_engine(engine_for(2), &general).1.total_time >= inline_general.stats.total_time
        {
        }
    }
    runs.push(inline_general);
    runs.push(measure("pooled-general", engine_for(2), &general));
    for &count in counts.iter().filter(|&&count| count > 1) {
        runs.push(measure("pooled", engine_for(count), &separable));
    }

    // Speedups are relative to the inline (threads = 1) run with the same
    // maps.
    let run_of = |mode: &str, threads: usize| -> &Run {
        runs.iter()
            .find(|r| r.mode == mode && r.threads == threads)
            .expect("counts always include 1 and 2")
    };
    let mut table = Table::new(&[
        "mode",
        "threads",
        "results",
        "first output",
        "total",
        "speedup",
    ]);
    let mut rows = Vec::new();
    let mut json_runs = Vec::new();
    for run in &runs {
        println!("   {}/threads={}: {}", run.mode, run.threads, run.stats);
        let general = run.mode.ends_with("-general");
        let baseline = run_of(if general { "inline-general" } else { "inline" }, 1);
        let total = run.stats.total_time;
        let speedup = baseline.stats.total_time.as_secs_f64() / total.as_secs_f64().max(1e-9);
        table.row(vec![
            run.mode.to_string(),
            format!("{}", run.threads),
            format!("{}", run.stats.results_emitted),
            fmt_opt_duration(run.first),
            fmt_duration(total),
            format!("{speedup:.2}x"),
        ]);
        rows.push(vec![
            run.mode.to_string(),
            format!("{}", run.threads),
            format!("{}", run.stats.results_emitted),
            run.first
                .map(|d| d.as_micros().to_string())
                .unwrap_or_default(),
            format!("{}", total.as_micros()),
            format!("{speedup:.3}"),
        ]);
        json_runs.push(json_object(&[
            ("mode", json_str(run.mode)),
            (
                "maps",
                json_str(if general { "general" } else { "separable" }),
            ),
            ("threads", format!("{}", run.threads)),
            ("wall_ms", format!("{:.3}", total.as_secs_f64() * 1e3)),
            (
                "first_result_ms",
                run.first
                    .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
                    .unwrap_or_else(|| "null".into()),
            ),
            ("results", format!("{}", run.stats.results_emitted)),
            ("join_matches", format!("{}", run.stats.join_matches)),
            (
                "join_matches_skipped",
                format!("{}", run.stats.join_matches_skipped),
            ),
            (
                "tuples_prefiltered",
                format!("{}", run.stats.tuples_prefiltered),
            ),
            ("inflight_peak", format!("{}", run.stats.inflight_peak)),
            (
                "dispatch_ms",
                format!("{:.3}", run.stats.dispatch_time.as_secs_f64() * 1e3),
            ),
            (
                "commit_wait_ms",
                format!("{:.3}", run.stats.commit_wait_time.as_secs_f64() * 1e3),
            ),
            (
                "regions_computed_dead",
                format!("{}", run.stats.regions_computed_dead),
            ),
            ("speedup_vs_inline", format!("{speedup:.3}")),
        ]));
    }
    println!("{}", table.render());
    if hw < 4 {
        println!(
            "note: only {hw} hardware thread(s) available — rows above \
             threads={hw} oversubscribe the host; run on a multi-core machine \
             for the rest of the curve"
        );
    }
    assert_threads_gates(
        &run_of("pooled", 2).stats,
        &run_of("pooled-general", 2).stats,
        run_of("inline-general", 1).stats.total_time,
        hw,
        opt.quick,
    );
    let path = write_csv(
        &opt.out,
        "threads",
        &[
            "mode", "threads", "results", "first_us", "total_us", "speedup",
        ],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
    let json = json_object(&[
        (
            "workload",
            json_object(&[
                ("distribution", json_str("anti-correlated")),
                ("n", format!("{n}")),
                ("dims", format!("{dims}")),
                ("sigma", format!("{sigma}")),
                ("seed", format!("{}", opt.seed)),
            ]),
        ),
        ("hardware_threads", format!("{hw}")),
        ("runs", format!("[{}]", json_runs.join(", "))),
    ]);
    let path = write_json(&opt.out, "BENCH_threads", &json).unwrap();
    println!("json written to {}", path.display());
}

/// Runs per arrangement in [`threads`]; each row reports the fastest.
const THREADS_REPS: usize = 3;

/// Longest [`threads`] keeps two workers busy waiting for a parked core.
const THREADS_WARMUP_BUDGET: Duration = Duration::from_secs(3);

/// The CI gates behind `BENCH_threads.json`, on the two `threads = 2` rows.
///
/// * Always, on the separable run: the dispatch window must have held at
///   least two regions — `inflight_peak` is a count fixed by the schedule,
///   not a timing, so it holds on any host, in debug, and at `--quick`
///   scale. A value of 1 is the scheduling bug this gate was added for (a
///   root-free EL-graph handing out one region at a time: two workers'
///   hand-off cost for zero overlap).
/// * Full-size release runs on a host with at least two hardware threads,
///   on the general-map run: pooled(2) must beat inline on wall time. The
///   separable run cannot carry this gate — with dominated key groups
///   skipped unexpanded the serial look-ahead is a third of a ~30 ms query
///   and a region costs about what handing it to a worker does, which is
///   also why it is not applied to `--quick`, where the two arrangements
///   sit within run-to-run noise of each other — nor is it applied to debug
///   builds (the in-process unit test runs under full-suite contention).
fn assert_threads_gates(
    pooled2: &progxe_core::stats::ExecStats,
    pooled2_general: &progxe_core::stats::ExecStats,
    inline_general: Duration,
    hw: usize,
    quick: bool,
) {
    assert!(
        pooled2.inflight_peak >= 2,
        "pooled(2) never had more than {} region in flight",
        pooled2.inflight_peak
    );
    if hw >= 2 && !quick && !cfg!(debug_assertions) {
        assert!(
            pooled2_general.total_time < inline_general,
            "general maps: pooled(2) took {:.1?}, inline {:.1?}: two workers bought \
             nothing (committer waited {:.1?})",
            pooled2_general.total_time,
            inline_general,
            pooled2_general.commit_wait_time
        );
    }
}

/// One measured flexible-skyline run (see [`fdom`]).
pub struct FdomRun {
    /// Workload distribution family.
    pub distribution: &'static str,
    /// Constraint tightness `t` of the weight band (0 = whole simplex ≡
    /// Pareto; → 1 pins equal weights). `None` marks the Pareto baseline.
    pub tightness: Option<f64>,
    /// Final result-set size.
    pub results: u64,
    /// Pareto skyline size of the same workload (the shrinkage baseline).
    pub pareto_results: u64,
    /// First proven-final result latency.
    pub first_result_ms: Option<f64>,
    /// End-to-end wall time.
    pub wall_ms: f64,
    /// Pareto-optimal tuples removed by the emission filter.
    pub fdom_filtered: u64,
}

/// Flexible skylines: result-set shrinkage and first-result latency vs
/// weight-constraint tightness, across the three distributions.
///
/// For each distribution the ProgXe engine runs once under Pareto and once
/// per tightness step of the nested `simplex_band` family
/// (`progxe_datagen::weights`). As the band tightens the admissible
/// scoring weights shrink, more trade-off pairs become F-dominated, and
/// the answer interpolates from the full skyline toward a top-1-style
/// result — the shrinkage column. Writes `fdom.csv` and machine-readable
/// `BENCH_fdom.json`; CI uploads the JSON next to the other `BENCH_*`
/// artifacts.
pub fn fdom(opt: &ExpOptions) {
    let runs = fdom_measurements(opt);
    write_fdom_outputs(opt, &runs);
}

/// The measured core of [`fdom`], separated so tests can assert on the
/// numbers (tightness 0 ≡ Pareto; counts non-increasing along the nested
/// sweep) without re-running the sweep for the writer.
pub fn fdom_measurements(opt: &ExpOptions) -> Vec<FdomRun> {
    use progxe_core::fdom::flexible_model;
    use progxe_datagen::simplex_band;

    let n = opt.pick_n(4_000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.01);
    let tightnesses: &[f64] = if opt.quick {
        &[0.0, 0.5, 0.9]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 0.9]
    };
    println!(
        "== Flexible skylines: shrinkage + first-result latency vs constraint tightness \
         (N={n}, d={dims}, sigma={sigma}) =="
    );
    let config = default_config_for(dims, sigma);
    let run_once = |maps: &MapSet, r: &SourceView<'_>, t: &SourceView<'_>| {
        let mut session = ProgXe::new(config.clone())
            .open(r, t, maps)
            .expect("valid configuration");
        let mut first: Option<Duration> = None;
        while let Some(event) = session.next_batch() {
            if first.is_none() && !event.tuples.is_empty() {
                first = Some(event.elapsed);
            }
        }
        (first, session.finish())
    };

    let mut runs = Vec::new();
    for dist in Distribution::ALL {
        let w = workload(n, dims, dist, sigma, opt.seed);
        let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
        let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
        let pareto_maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let (p_first, p_stats) = run_once(&pareto_maps, &r, &t);
        let pareto_results = p_stats.results_emitted;
        runs.push(FdomRun {
            distribution: dist.name(),
            tightness: None,
            results: pareto_results,
            pareto_results,
            first_result_ms: p_first.map(|d| d.as_secs_f64() * 1e3),
            wall_ms: p_stats.total_time.as_secs_f64() * 1e3,
            fdom_filtered: 0,
        });
        for &tight in tightnesses {
            let model = flexible_model(dims, simplex_band(dims, tight)).expect("band is non-empty");
            let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims))
                .with_dominance(model)
                .expect("dims match");
            let (first, stats) = run_once(&maps, &r, &t);
            runs.push(FdomRun {
                distribution: dist.name(),
                tightness: Some(tight),
                results: stats.results_emitted,
                pareto_results,
                first_result_ms: first.map(|d| d.as_secs_f64() * 1e3),
                wall_ms: stats.total_time.as_secs_f64() * 1e3,
                fdom_filtered: stats.tuples_fdom_filtered,
            });
        }
    }
    runs
}

/// Renders + persists one set of [`FdomRun`]s (`fdom.csv`,
/// `BENCH_fdom.json`).
fn write_fdom_outputs(opt: &ExpOptions, runs: &[FdomRun]) {
    let mut table = Table::new(&[
        "distribution",
        "tightness",
        "results",
        "shrinkage",
        "filtered",
        "first",
        "total",
    ]);
    let mut rows = Vec::new();
    let mut json_runs = Vec::new();
    for run in runs {
        let tightness = run
            .tightness
            .map(|t| format!("{t}"))
            .unwrap_or_else(|| "pareto".into());
        let shrinkage = if run.pareto_results == 0 {
            1.0
        } else {
            run.results as f64 / run.pareto_results as f64
        };
        table.row(vec![
            run.distribution.to_string(),
            tightness.clone(),
            format!("{}", run.results),
            format!("{shrinkage:.3}"),
            format!("{}", run.fdom_filtered),
            run.first_result_ms
                .map(|v| format!("{v:.1}ms"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}ms", run.wall_ms),
        ]);
        rows.push(vec![
            run.distribution.to_string(),
            tightness.clone(),
            format!("{}", run.results),
            format!("{shrinkage:.4}"),
            format!("{}", run.fdom_filtered),
            run.first_result_ms
                .map(|v| format!("{v:.3}"))
                .unwrap_or_default(),
            format!("{:.3}", run.wall_ms),
        ]);
        json_runs.push(json_object(&[
            ("distribution", json_str(run.distribution)),
            (
                "tightness",
                run.tightness
                    .map(|t| format!("{t}"))
                    .unwrap_or_else(|| "null".into()),
            ),
            ("results", format!("{}", run.results)),
            ("pareto_results", format!("{}", run.pareto_results)),
            ("shrinkage", format!("{shrinkage:.4}")),
            ("fdom_filtered", format!("{}", run.fdom_filtered)),
            (
                "first_result_ms",
                run.first_result_ms
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "null".into()),
            ),
            ("wall_ms", format!("{:.3}", run.wall_ms)),
        ]));
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "fdom",
        &[
            "distribution",
            "tightness",
            "results",
            "shrinkage",
            "fdom_filtered",
            "first_ms",
            "total_ms",
        ],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
    let json = json_object(&[
        (
            "workload",
            json_object(&[
                ("n", format!("{}", opt.pick_n(4_000))),
                ("dims", format!("{}", opt.pick_dims(3))),
                ("sigma", format!("{}", opt.sigma.unwrap_or(0.01))),
                ("seed", format!("{}", opt.seed)),
            ]),
        ),
        ("runs", format!("[{}]", json_runs.join(", "))),
    ]);
    let path = write_json(&opt.out, "BENCH_fdom", &json).unwrap();
    println!("json written to {}", path.display());
}

/// One measured kernel-vs-scalar comparison (see [`kernels`]).
pub struct KernelRun {
    /// `"mask"` (batched dominated-mask vs per-row scalar loop),
    /// `"blocker"` (kd-tree flexible blocker counts vs the retired
    /// `regions × cells` double loop) or `"map"` (the tuple-level join's
    /// columnar row producer vs its per-match `eval` producer).
    pub kind: &'static str,
    /// Value dimensions (mask, map rows) / polytope vertices (blocker rows).
    pub dims: usize,
    /// Batch rows (mask) / region count (blocker) / rows per source (map).
    pub n: usize,
    /// Query points (mask) / tracked cells (blocker) / regions joined (map).
    pub queries: usize,
    /// Best-of-repeats wall time of the scalar/naive side.
    pub scalar_ms: f64,
    /// Best-of-repeats wall time of the batched/indexed side.
    pub batched_ms: f64,
    /// `scalar_ms / batched_ms`.
    pub speedup: f64,
    /// Scalar throughput in million pair-tests (map rows: join matches)
    /// per second.
    pub scalar_mpairs_s: f64,
    /// Batched throughput in million pair-tests (map rows: join matches)
    /// per second.
    pub batched_mpairs_s: f64,
    /// Work the index actually did (blocker rows: tree node visits + leaf
    /// tests; mask rows: equals `naive_ops` — the mask has no early exit;
    /// map rows: join matches mapped).
    pub index_ops: u64,
    /// Work the retired implementation would do (`n × queries`; map rows:
    /// the same join matches).
    pub naive_ops: u64,
}

/// Columnar-kernel microbenchmarks: batched dominated-mask throughput vs
/// the one-pair-at-a-time scalar loop across dims × batch sizes
/// (anti-correlated data — the dominance-heavy worst case), and the
/// kd-tree flexible blocker index vs the retired `regions × cells` loop at
/// growing region counts, and the tuple-level join's columnar row producer
/// vs the per-match `eval` producer over one region set. Both sides are
/// verified to produce identical answers before timing is reported. Writes
/// `kernels.csv` and machine-readable `BENCH_kernels.json`; panics (failing
/// CI) if the batched kernel loses to scalar, the blocker index fails to do
/// less work than the naive loop, or (full size) the columnar producer is
/// not faster than the per-match one.
pub fn kernels(opt: &ExpOptions) {
    let runs = kernel_measurements(opt);
    assert_kernel_gates(&runs, opt.quick);
    write_kernel_outputs(opt, &runs);
}

/// The measured core of [`kernels`], separated so tests can assert on the
/// numbers without re-running the sweep for the writer.
pub fn kernel_measurements(opt: &ExpOptions) -> Vec<KernelRun> {
    use progxe_skyline::kernel;
    use std::time::Instant;

    let queries = 64usize;
    let repeats = 5usize;
    let dims_list: &[usize] = if opt.quick { &[2, 3, 8] } else { &[2, 3, 5, 8] };
    let sizes: &[usize] = if opt.quick {
        &[512, 4_096]
    } else {
        &[1_000, 10_000, 100_000]
    };
    println!("== Columnar dominance kernels: batched vs scalar (anti-correlated) ==");

    let mut runs = Vec::new();
    for &d in dims_list {
        for &n in sizes {
            // Anti-correlated points: the dominance-heavy regime where the
            // window stays large and every pair is genuinely tested.
            let w = workload(n + queries, d, Distribution::AntiCorrelated, 0.01, opt.seed);
            let batch = &w.r.attrs.raw()[..n * d];
            let qs = &w.t.attrs.raw()[..queries * d];
            let mut mask = vec![false; n];

            let mut scalar_hits = 0u64;
            let mut scalar_ms = f64::INFINITY;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let mut hits = 0u64;
                for q in qs.chunks_exact(d) {
                    for row in batch.chunks_exact(d) {
                        hits += u64::from(kernel::dominates_scalar(q, row));
                    }
                }
                scalar_ms = scalar_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                scalar_hits = hits;
            }

            let mut batched_hits = 0u64;
            let mut batched_ms = f64::INFINITY;
            let mut pairs = 0u64;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let mut hits = 0u64;
                for q in qs.chunks_exact(d) {
                    hits += kernel::dominated_mask(d, batch, q, &mut mask, &mut pairs) as u64;
                }
                batched_ms = batched_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                batched_hits = hits;
            }
            assert_eq!(
                scalar_hits, batched_hits,
                "d={d} n={n}: batched kernel diverged from scalar"
            );

            let total_pairs = (n * queries) as u64;
            runs.push(KernelRun {
                kind: "mask",
                dims: d,
                n,
                queries,
                scalar_ms,
                batched_ms,
                speedup: scalar_ms / batched_ms,
                scalar_mpairs_s: total_pairs as f64 / (scalar_ms * 1e3),
                batched_mpairs_s: total_pairs as f64 / (batched_ms * 1e3),
                index_ops: total_pairs,
                naive_ops: total_pairs,
            });
        }
    }

    runs.extend(blocker_measurements(opt));
    runs.push(map_measurement(opt));
    runs
}

/// [`MapSet::pairwise_sum`] with every sum hidden in a `GeneralMap`: the
/// same values, bit for bit, through maps that do not decompose — so the
/// join `eval`s them per match and nothing bounds a key group's outputs.
fn general_sum_maps(d: usize) -> MapSet {
    use progxe_core::mapping::{GeneralMap, MappingFunction, WeightedSum};
    let hidden: Vec<Box<dyn MappingFunction>> = (0..d)
        .map(|j| {
            let (sum, bounds) = (
                WeightedSum::dimension_sum(d, j),
                WeightedSum::dimension_sum(d, j),
            );
            Box::new(GeneralMap::new(
                sum.describe(),
                move |r: &[f64], t: &[f64]| sum.eval(r, t),
                move |rl: &[f64], rh: &[f64], tl: &[f64], th: &[f64]| {
                    bounds.eval_bounds(rl, rh, tl, th)
                },
            )) as Box<dyn MappingFunction>
        })
        .collect();
    MapSet::new(hidden, Preference::all_lowest(d)).expect("arity matches")
}

/// Map half of [`kernel_measurements`]: every region of one query computed
/// as a batch work unit ([`RegionCtx::compute`](progxe_core::tuple_level::RegionCtx::compute),
/// empty snapshot) twice — with the plain separable maps, which the join
/// compiles to per-row component slabs, and with the same maps hidden in
/// `GeneralMap`s, which it must `eval` per match. Identical batches
/// verified per region. Both sides pay the same batch filter stage, so the
/// reported speed-up understates the producers' own gap.
fn map_measurement(opt: &ExpOptions) -> KernelRun {
    use progxe_core::session::CancellationToken;
    use std::time::Instant;

    let (n, d, sigma) = (opt.pick_n(10_000), 3usize, 0.1);
    println!("== Tuple-level map: columnar producer vs per-match eval (anti-correlated) ==");
    let w = workload(n, d, Distribution::AntiCorrelated, sigma, opt.seed);
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
    let columnar = MapSet::pairwise_sum(d, Preference::all_lowest(d));
    let per_match = general_sum_maps(d);

    let token = CancellationToken::new();
    let exec = ProgXe::new(default_config_for(d, sigma));
    let ctx_of = |maps: &MapSet| {
        let prep = exec
            .prepare(&r, &t, maps, token.clone())
            .expect("valid configuration");
        prep.ctx.expect("non-empty workload")
    };
    let (fast_ctx, slow_ctx) = (ctx_of(&columnar), ctx_of(&per_match));
    let regions = fast_ctx.regions().len();
    assert_eq!(regions, slow_ctx.regions().len(), "same region set");

    let mut matches = 0u64;
    let (mut fast_ms, mut slow_ms) = (f64::INFINITY, f64::INFINITY);
    for repeat in 0..3 {
        let (mut fast, mut slow) = (0.0f64, 0.0f64);
        for rid in 0..regions as u32 {
            let t0 = Instant::now();
            let a = fast_ctx.compute(rid, &[], &token);
            fast += t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let b = slow_ctx.compute(rid, &[], &token);
            slow += t0.elapsed().as_secs_f64() * 1e3;
            if repeat == 0 {
                assert!(
                    a.ids == b.ids && a.points == b.points,
                    "region {rid}: columnar producer diverged from per-match eval"
                );
                matches += a.stats.matches;
            }
        }
        fast_ms = fast_ms.min(fast);
        slow_ms = slow_ms.min(slow);
    }
    KernelRun {
        kind: "map",
        dims: d,
        n,
        queries: regions,
        scalar_ms: slow_ms,
        batched_ms: fast_ms,
        speedup: slow_ms / fast_ms,
        scalar_mpairs_s: matches as f64 / (slow_ms * 1e3),
        batched_mpairs_s: matches as f64 / (fast_ms * 1e3),
        index_ops: matches,
        naive_ops: matches,
    }
}

/// Blocker-index half of [`kernel_measurements`]: kd-tree dominance counts
/// vs the retired naive double loop, identical counts verified per cell.
fn blocker_measurements(opt: &ExpOptions) -> Vec<KernelRun> {
    use progxe_core::cells::CellStore;
    use progxe_core::fdom::flexible_model;
    use progxe_core::lookahead::Region;
    use progxe_core::output_grid::OutputGrid;
    use progxe_core::progdetermine::ProgDetermine;
    use progxe_datagen::simplex_band;
    use std::time::Instant;

    let region_counts: &[usize] = if opt.quick {
        &[100, 400]
    } else {
        &[400, 1_600, 6_400]
    };
    let cells_per_dim: u16 = if opt.quick { 16 } else { 32 };
    println!("== Flexible blocker counting: kd-tree index vs naive double loop ==");

    let model = flexible_model(2, simplex_band(2, 0.5)).expect("band is non-empty");
    let fdom = model.as_flexible().expect("flexible by construction");
    let k = fdom.vertex_count();

    let mut runs = Vec::new();
    for &n_regions in region_counts {
        // Deterministic pseudo-random region boxes over a [0,64)² space.
        let mut x: u64 = opt.seed | 1;
        let mut next = |m: f64| -> f64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 31) as f64) * m
        };
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![64.0, 64.0], cells_per_dim);
        let mut regions = Vec::with_capacity(n_regions);
        for id in 0..n_regions as u32 {
            let lo = vec![next(60.0), next(60.0)];
            let hi = vec![lo[0] + next(4.0), lo[1] + next(4.0)];
            let (cell_lo, cell_hi) = grid.box_of(&lo, &hi);
            regions.push(Region {
                id,
                r_part: 0,
                t_part: 0,
                lo,
                hi,
                cell_lo,
                cell_hi,
                n_r: 1,
                n_t: 1,
                guaranteed: true,
            });
        }
        let mut store = CellStore::with_model(grid.clone(), model.clone());
        for r in &regions {
            for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                store.track(c);
            }
        }
        let cells = store.len();

        // Indexed side: ProgDetermine::new projects everything and answers
        // each cell through the kd-tree.
        let t0 = Instant::now();
        let det = ProgDetermine::new(&store, &regions);
        let batched_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Naive side (the retired PR 5 implementation): same projections,
        // then the full regions × cells double loop.
        let t0 = Instant::now();
        let mut buf = Vec::with_capacity(k);
        let mut region_proj = Vec::with_capacity(n_regions * k);
        for r in &regions {
            fdom.project_into(&r.lo, &mut buf);
            region_proj.extend_from_slice(&buf);
        }
        let mut cell_proj = Vec::with_capacity(cells * k);
        let mut corner = Vec::new();
        for (_, cell) in store.iter() {
            grid.upper_corner_into(cell.coord(), &mut corner);
            fdom.project_into(&corner, &mut buf);
            cell_proj.extend_from_slice(&buf);
        }
        let mut naive = vec![0u32; cells];
        for r in 0..n_regions {
            let rp = &region_proj[r * k..(r + 1) * k];
            for (c, counter) in naive.iter_mut().enumerate() {
                let cp = &cell_proj[c * k..(c + 1) * k];
                if rp.iter().zip(cp).all(|(a, b)| a <= b) {
                    *counter += 1;
                }
            }
        }
        let scalar_ms = t0.elapsed().as_secs_f64() * 1e3;

        for (idx, _) in store.iter() {
            assert_eq!(
                det.blockers_of(&store, idx),
                naive[idx as usize],
                "regions={n_regions}: kd-tree count diverged from naive on cell {idx}"
            );
        }

        let naive_ops = (n_regions * cells) as u64;
        runs.push(KernelRun {
            kind: "blocker",
            dims: k,
            n: n_regions,
            queries: cells,
            scalar_ms,
            batched_ms,
            speedup: scalar_ms / batched_ms,
            scalar_mpairs_s: naive_ops as f64 / (scalar_ms * 1e3),
            batched_mpairs_s: naive_ops as f64 / (batched_ms * 1e3),
            index_ops: det.flexible_blocker_ops(),
            naive_ops,
        });
    }
    runs
}

/// The CI gates behind `BENCH_kernels.json`: the batched mask kernel must
/// never lose to the scalar loop; on the full-size run the flagship
/// configuration (d=3, N=10k, anti-correlated) must win by ≥ 1.5× and the
/// columnar map producer must beat the per-match one; and the blocker
/// index must do strictly less work than `regions × cells`.
///
/// Wall-clock gates are release-only: the batched win comes from
/// autovectorization, which debug builds don't perform, and the in-process
/// unit test runs in debug under full-suite core contention. The ops-based
/// blocker gate (and every differential equality check in the measurement
/// loops) stays on everywhere. CI enforces the timing gates via the release
/// `figures -- kernels --quick` step.
fn assert_kernel_gates(runs: &[KernelRun], quick: bool) {
    let timing = !cfg!(debug_assertions);
    for run in runs {
        match run.kind {
            "mask" => assert!(
                !timing || run.speedup >= 1.0,
                "batched kernel lost to scalar at d={} n={}: {:.2}x",
                run.dims,
                run.n,
                run.speedup
            ),
            "blocker" => assert!(
                run.index_ops < run.naive_ops,
                "blocker index did {} ops, naive bound is {}",
                run.index_ops,
                run.naive_ops
            ),
            // Quick regions hold a few dozen matches each: timer noise.
            "map" => assert!(
                !timing || quick || run.speedup > 1.0,
                "columnar map producer not faster than per-match eval: {:.2}x",
                run.speedup
            ),
            other => unreachable!("unknown kernel run kind {other}"),
        }
    }
    if !quick {
        let flagship = runs
            .iter()
            .find(|r| r.kind == "mask" && r.dims == 3 && r.n == 10_000)
            .expect("full sweep includes d=3 N=10k");
        assert!(
            !timing || flagship.speedup >= 1.5,
            "flagship d=3 N=10k speedup {:.2}x below the 1.5x acceptance bar",
            flagship.speedup
        );
    }
}

/// Renders + persists one set of [`KernelRun`]s (`kernels.csv`,
/// `BENCH_kernels.json`).
fn write_kernel_outputs(opt: &ExpOptions, runs: &[KernelRun]) {
    let mut table = Table::new(&[
        "kind", "dims", "n", "queries", "scalar", "batched", "speedup", "ops", "naive",
    ]);
    let mut rows = Vec::new();
    let mut json_runs = Vec::new();
    for run in runs {
        table.row(vec![
            run.kind.to_string(),
            format!("{}", run.dims),
            format!("{}", run.n),
            format!("{}", run.queries),
            format!("{:.2}ms", run.scalar_ms),
            format!("{:.2}ms", run.batched_ms),
            format!("{:.2}x", run.speedup),
            format!("{}", run.index_ops),
            format!("{}", run.naive_ops),
        ]);
        rows.push(vec![
            run.kind.to_string(),
            format!("{}", run.dims),
            format!("{}", run.n),
            format!("{}", run.queries),
            format!("{:.4}", run.scalar_ms),
            format!("{:.4}", run.batched_ms),
            format!("{:.3}", run.speedup),
            format!("{:.2}", run.scalar_mpairs_s),
            format!("{:.2}", run.batched_mpairs_s),
            format!("{}", run.index_ops),
            format!("{}", run.naive_ops),
        ]);
        json_runs.push(json_object(&[
            ("kind", json_str(run.kind)),
            ("dims", format!("{}", run.dims)),
            ("n", format!("{}", run.n)),
            ("queries", format!("{}", run.queries)),
            ("scalar_ms", format!("{:.4}", run.scalar_ms)),
            ("batched_ms", format!("{:.4}", run.batched_ms)),
            ("speedup", format!("{:.3}", run.speedup)),
            ("scalar_mpairs_s", format!("{:.2}", run.scalar_mpairs_s)),
            ("batched_mpairs_s", format!("{:.2}", run.batched_mpairs_s)),
            ("index_ops", format!("{}", run.index_ops)),
            ("naive_ops", format!("{}", run.naive_ops)),
        ]));
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "kernels",
        &[
            "kind",
            "dims",
            "n",
            "queries",
            "scalar_ms",
            "batched_ms",
            "speedup",
            "scalar_mpairs_s",
            "batched_mpairs_s",
            "index_ops",
            "naive_ops",
        ],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
    let json = json_object(&[
        (
            "workload",
            json_object(&[
                ("distribution", json_str("anti-correlated")),
                ("queries", "64".into()),
                ("seed", format!("{}", opt.seed)),
                ("quick", format!("{}", opt.quick)),
            ]),
        ),
        ("runs", format!("[{}]", json_runs.join(", "))),
    ]);
    let path = write_json(&opt.out, "BENCH_kernels", &json).unwrap();
    println!("json written to {}", path.display());
}

/// One measured tracing-overhead run (see [`obs`]).
pub struct ObsRun {
    /// Recorder mode: `"off"` (no recorder attached), `"null"` (a
    /// [`progxe_obs::NullRecorder`] — attached but disabled), or `"ring"`
    /// (full event capture into a [`progxe_obs::RingRecorder`]).
    pub mode: &'static str,
    /// End-to-end wall time of the best (min-wall) repeat.
    pub wall_ms: f64,
    /// First proven-final result latency of that repeat.
    pub first_result_ms: Option<f64>,
    /// Final result count — identical across modes by Principle 1 (tracing
    /// must never change what is emitted).
    pub results: u64,
    /// Events recorded by the ring (0 for off/null).
    pub events: u64,
    /// Events dropped on ring overflow (0 for off/null).
    pub dropped: u64,
}

/// Ring capacity used by the `ring` leg — the recorder default, large
/// enough that the reference workload never overflows (asserted).
pub const OBS_RING_CAPACITY: usize = 64 * 1024;

/// The ring-vs-null overhead bound enforced by [`obs`]: full runs gate at
/// 3%; quick (CI smoke) runs use a generous 25% margin because their
/// millisecond-scale walls are noise-dominated on shared runners.
pub fn obs_overhead_gate(quick: bool) -> f64 {
    if quick {
        0.25
    } else {
        0.03
    }
}

/// Tracing overhead: wall time and first-result latency of the reference
/// progressive workload (anti-correlated, d = 3, σ = 0.1) with the
/// recorder off, attached-but-null, and fully recording into a bounded
/// ring. Writes `obs.csv` and machine-readable `BENCH_obs.json`; CI
/// uploads the JSON next to the other `BENCH_*` artifacts.
///
/// **Gate**: the `ring` leg's wall time must stay within
/// [`obs_overhead_gate`] of the `null` leg's — panics otherwise, so a
/// regression that makes tracing expensive fails the build instead of
/// silently taxing every traced session.
pub fn obs(opt: &ExpOptions) {
    let runs = obs_measurements(opt);
    let gate = obs_overhead_gate(opt.quick);
    assert_obs_overhead(&runs, gate);
    write_obs_outputs(opt, &runs, gate);
}

fn obs_wall(runs: &[ObsRun], mode: &str) -> f64 {
    runs.iter()
        .find(|r| r.mode == mode)
        .map(|r| r.wall_ms)
        .expect("mode measured")
}

fn assert_obs_overhead(runs: &[ObsRun], gate: f64) {
    let null = obs_wall(runs, "null");
    let ring = obs_wall(runs, "ring");
    let overhead = (ring - null) / null;
    assert!(
        overhead <= gate,
        "ring-recorder overhead {:.1}% exceeds the {:.0}% gate \
         (null={null:.2}ms, ring={ring:.2}ms)",
        overhead * 100.0,
        gate * 100.0,
    );
}

/// The measured core of [`obs`], separated so tests can assert on the
/// numbers (modes agree on results; the ring never drops) without
/// re-running the sweep for the writer.
pub fn obs_measurements(opt: &ExpOptions) -> Vec<ObsRun> {
    use progxe_obs::{NullRecorder, Recorder, RingRecorder};
    use std::sync::Arc;

    let n = opt.pick_n(10_000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.1);
    let repeats = if opt.quick { 3 } else { 5 };
    println!(
        "== Tracing overhead: recorder off / null / ring \
         (anti-correlated, N={n}, d={dims}, sigma={sigma}, min of {repeats}) =="
    );
    let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let config = default_config_for(dims, sigma);
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");

    let run_once = |recorder: Option<Arc<dyn Recorder>>| {
        let mut session = ProgXe::new(config.clone())
            .with_recorder_opt(recorder)
            .open(&r, &t, &maps)
            .expect("valid configuration");
        let mut first: Option<Duration> = None;
        while let Some(event) = session.next_batch() {
            if first.is_none() && !event.tuples.is_empty() {
                first = Some(event.elapsed);
            }
        }
        (first, session.finish())
    };

    // Warm-up, discarded: first-touch page faults and lazy allocations
    // must not land on whichever mode happens to run first.
    let _ = run_once(None);

    let mut runs = Vec::new();
    for mode in ["off", "null", "ring"] {
        let mut best: Option<ObsRun> = None;
        for _ in 0..repeats {
            let ring =
                (mode == "ring").then(|| Arc::new(RingRecorder::with_capacity(OBS_RING_CAPACITY)));
            let recorder: Option<Arc<dyn Recorder>> = match mode {
                "off" => None,
                "null" => Some(Arc::new(NullRecorder)),
                _ => ring.clone().map(|r| r as Arc<dyn Recorder>),
            };
            let (first, stats) = run_once(recorder);
            assert!(!stats.cancelled);
            let run = ObsRun {
                mode,
                wall_ms: stats.total_time.as_secs_f64() * 1e3,
                first_result_ms: first.map(|d| d.as_secs_f64() * 1e3),
                results: stats.results_emitted,
                events: ring.as_ref().map(|r| r.recorded()).unwrap_or(0),
                dropped: ring.as_ref().map(|r| r.dropped()).unwrap_or(0),
            };
            if best.as_ref().is_none_or(|b| run.wall_ms < b.wall_ms) {
                best = Some(run);
            }
        }
        runs.push(best.expect("repeats >= 1"));
    }
    runs
}

/// Renders + persists one set of [`ObsRun`]s (`obs.csv`,
/// `BENCH_obs.json`).
fn write_obs_outputs(opt: &ExpOptions, runs: &[ObsRun], gate: f64) {
    let mut table = Table::new(&["mode", "wall", "first", "results", "events", "dropped"]);
    let mut rows = Vec::new();
    let mut json_runs = Vec::new();
    for run in runs {
        table.row(vec![
            run.mode.to_string(),
            format!("{:.1}ms", run.wall_ms),
            run.first_result_ms
                .map(|v| format!("{v:.1}ms"))
                .unwrap_or_else(|| "-".into()),
            format!("{}", run.results),
            format!("{}", run.events),
            format!("{}", run.dropped),
        ]);
        rows.push(vec![
            run.mode.to_string(),
            format!("{:.3}", run.wall_ms),
            run.first_result_ms
                .map(|v| format!("{v:.3}"))
                .unwrap_or_default(),
            format!("{}", run.results),
            format!("{}", run.events),
            format!("{}", run.dropped),
        ]);
        json_runs.push(json_object(&[
            ("mode", json_str(run.mode)),
            ("wall_ms", format!("{:.3}", run.wall_ms)),
            (
                "first_result_ms",
                run.first_result_ms
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "null".into()),
            ),
            ("results", format!("{}", run.results)),
            ("events", format!("{}", run.events)),
            ("dropped", format!("{}", run.dropped)),
        ]));
    }
    println!("{}", table.render());
    let null = obs_wall(runs, "null");
    let off = obs_wall(runs, "off");
    let ring = obs_wall(runs, "ring");
    let ring_pct = (ring - null) / null * 100.0;
    let null_pct = (null - off) / off * 100.0;
    println!(
        "ring-vs-null overhead: {ring_pct:+.2}% (gate {:.0}%)",
        gate * 100.0
    );
    let path = write_csv(
        &opt.out,
        "obs",
        &[
            "mode", "wall_ms", "first_ms", "results", "events", "dropped",
        ],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
    let json = json_object(&[
        (
            "workload",
            json_object(&[
                ("distribution", json_str("anti-correlated")),
                ("n", format!("{}", opt.pick_n(10_000))),
                ("dims", format!("{}", opt.pick_dims(3))),
                ("sigma", format!("{}", opt.sigma.unwrap_or(0.1))),
                ("seed", format!("{}", opt.seed)),
                ("ring_capacity", format!("{OBS_RING_CAPACITY}")),
            ]),
        ),
        (
            "overhead",
            json_object(&[
                ("gate_pct", format!("{:.1}", gate * 100.0)),
                ("ring_vs_null_pct", format!("{ring_pct:.2}")),
                ("null_vs_off_pct", format!("{null_pct:.2}")),
            ]),
        ),
        ("runs", format!("[{}]", json_runs.join(", "))),
    ]);
    let path = write_json(&opt.out, "BENCH_obs", &json).unwrap();
    println!("json written to {}", path.display());
}

/// Section III-B: the comparable-cell bound. For each new tuple, dominance
/// comparisons are confined to at most `k^d − (k−1)^d` of the `k^d` output
/// cells; this experiment reports the *measured* average candidate cells
/// per insertion against both bounds.
pub fn cellbound(opt: &ExpOptions) {
    let n = opt.pick_n(2000);
    let sigma = opt.sigma.unwrap_or(0.01);
    println!("== Section III-B: comparable-cell bound (N={n}, sigma={sigma}) ==");
    let mut table = Table::new(&[
        "d",
        "k",
        "cells k^d",
        "bound k^d-(k-1)^d",
        "measured avg",
        "measured max",
    ]);
    let mut rows = Vec::new();
    for dims in [2usize, 3, 4] {
        let w = workload(n, dims, Distribution::Independent, sigma, opt.seed);
        let config = default_config_for(dims, sigma);
        let k = config.output_cells_per_dim as u64;
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
        let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
        let stats = ProgXe::new(config)
            .run_collect(&r, &t, &maps)
            .unwrap()
            .stats;
        let attempts = stats.tuples_inserted + stats.tuples_rejected_dominated;
        let avg = if attempts == 0 {
            0.0
        } else {
            stats.comparable_cells_visited as f64 / attempts as f64
        };
        let naive = k.pow(dims as u32);
        let bound = naive - (k - 1).pow(dims as u32);
        table.row(vec![
            format!("{dims}"),
            format!("{k}"),
            format!("{naive}"),
            format!("{bound}"),
            format!("{avg:.1}"),
            format!("{}", stats.comparable_cells_max),
        ]);
        rows.push(vec![
            format!("{dims}"),
            format!("{k}"),
            format!("{naive}"),
            format!("{bound}"),
            format!("{avg:.3}"),
            format!("{}", stats.comparable_cells_max),
        ]);
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "cellbound",
        &[
            "d",
            "k",
            "naive_cells",
            "bound",
            "measured_avg",
            "measured_max",
        ],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
}

/// Section VI-B's δ remark: sensitivity to grid granularity (input
/// partitions per dimension × output cells per dimension).
pub fn ablate_delta(opt: &ExpOptions) {
    let n = opt.pick_n(2000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.01);
    println!("== Ablation: grid granularity δ (N={n}, d={dims}, sigma={sigma}) ==");
    let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
    let mut table = Table::new(&[
        "p (input)",
        "k (output)",
        "regions",
        "cells",
        "total",
        "t50",
    ]);
    let mut rows = Vec::new();
    for p in [1usize, 2, 3, 4] {
        for k in [8usize, 16, 32] {
            let config = default_config_for(dims, sigma)
                .with_input_partitions(p)
                .with_output_cells(k);
            let session = ProgXe::new(config).session(&r, &t, &maps).unwrap();
            let (run, stats) = drain_run("ProgXe", session);
            let half = run
                .records
                .iter()
                .find(|rec| rec.cumulative * 2 >= run.results)
                .map(|rec| rec.elapsed);
            table.row(vec![
                format!("{p}"),
                format!("{k}"),
                format!("{}", stats.regions_created),
                format!("{}", stats.cells_tracked),
                fmt_duration(stats.total_time),
                fmt_opt_duration(half),
            ]);
            rows.push(vec![
                format!("{p}"),
                format!("{k}"),
                format!("{}", stats.regions_created),
                format!("{}", stats.cells_tracked),
                format!("{}", stats.total_time.as_micros()),
                half.map(|d| d.as_micros().to_string()).unwrap_or_default(),
            ]);
        }
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "ablate_delta",
        &["p", "k", "regions", "cells", "total_us", "t50_us"],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
}

/// Section VI-B's overhead claim: "the overhead incurred due to ordering is
/// insignificant but has good progressiveness benefits". Compares ProgOrder
/// against random and FIFO ordering on identical workloads.
pub fn ablate_order(opt: &ExpOptions) {
    let n = opt.pick_n(2500);
    let dims = opt.pick_dims(4);
    let sigma = opt.sigma.unwrap_or(0.001);
    println!("== Ablation: ordering policy (N={n}, d={dims}, sigma={sigma}) ==");
    // `fallbacks/regions` says when ProgOrder degenerated to FIFO: at
    // `regions − 1` the EL-graph never had a root to rank.
    let mut table = Table::new(&[
        "distribution",
        "policy",
        "results",
        "first",
        "t50",
        "total",
        "fallbacks/regions",
    ]);
    let mut rows = Vec::new();
    for dist in Distribution::ALL {
        let w = workload(n, dims, dist, sigma, opt.seed);
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
        let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
        for (name, ordering) in [
            ("ProgOrder", OrderingPolicy::ProgOrder),
            ("Random", OrderingPolicy::Random { seed: 0x5EED }),
            ("FIFO", OrderingPolicy::Fifo),
        ] {
            let config = default_config_for(dims, sigma).with_ordering(ordering);
            let session = ProgXe::new(config).session(&r, &t, &maps).unwrap();
            let (run, stats) = drain_run(name, session);
            table.row(vec![
                dist.name().into(),
                name.into(),
                format!("{}", run.results),
                fmt_opt_duration(run.first_result()),
                fmt_opt_duration(run.time_to_fraction(0.5)),
                fmt_duration(run.total_time),
                format!("{}/{}", stats.ordering_fallbacks, stats.regions_created),
            ]);
            rows.push(vec![
                dist.name().to_string(),
                name.to_string(),
                format!("{}", run.results),
                run.first_result()
                    .map(|d| d.as_micros().to_string())
                    .unwrap_or_default(),
                run.time_to_fraction(0.5)
                    .map(|d| d.as_micros().to_string())
                    .unwrap_or_default(),
                format!("{}", run.total_time.as_micros()),
                format!("{}", stats.ordering_fallbacks),
                format!("{}", stats.regions_created),
            ]);
        }
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "ablate_order",
        &[
            "distribution",
            "policy",
            "results",
            "first_us",
            "t50_us",
            "total_us",
            "fallbacks",
            "regions",
        ],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
}

/// Section VII's claim, quantified: SSMJ's batch-1 results are not final
/// under mapping functions. Counts false positives across distributions
/// and dimensionalities.
pub fn ssmj_soundness(opt: &ExpOptions) {
    let n = opt.pick_n(1500);
    let sigma = opt.sigma.unwrap_or(0.01);
    println!("== SSMJ batch-1 soundness under maps (N={n}, sigma={sigma}) ==");
    let mut table = Table::new(&["distribution", "d", "batch1", "false positives", "final"]);
    let mut rows = Vec::new();
    for dist in Distribution::ALL {
        for dims in [2usize, 3, 4] {
            let w = workload(n, dims, dist, sigma, opt.seed);
            let run = run_algo(AlgoKind::Ssmj, &w);
            let batch1 = run.records.first().map(|r| r.cumulative).unwrap_or(0);
            table.row(vec![
                dist.name().into(),
                format!("{dims}"),
                format!("{batch1}"),
                format!("{}", run.false_positives),
                format!("{}", run.results - run.false_positives),
            ]);
            rows.push(vec![
                dist.name().to_string(),
                format!("{dims}"),
                format!("{batch1}"),
                format!("{}", run.false_positives),
                format!("{}", run.results - run.false_positives),
            ]);
        }
    }
    println!("{}", table.render());
    let path = write_csv(
        &opt.out,
        "ssmj_soundness",
        &["distribution", "d", "batch1", "false_positives", "final"],
        &rows,
    )
    .unwrap();
    println!("rows written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(dir: &str) -> ExpOptions {
        ExpOptions {
            quick: true,
            out: std::env::temp_dir().join(dir),
            ..ExpOptions::default()
        }
    }

    #[test]
    fn fig10_prog_quick_writes_csv() {
        let opt = quick_opts("progxe-fig10");
        fig10_prog(&opt);
        assert!(opt.out.join("fig10_prog_series.csv").exists());
    }

    #[test]
    fn fig12_quick_runs() {
        let opt = quick_opts("progxe-fig12");
        fig12(&opt);
        assert!(opt.out.join("fig12_series.csv").exists());
    }

    #[test]
    fn ssmj_soundness_quick_runs() {
        let opt = quick_opts("progxe-ssmj");
        ssmj_soundness(&opt);
        assert!(opt.out.join("ssmj_soundness.csv").exists());
    }

    #[test]
    fn cellbound_quick_runs() {
        let opt = quick_opts("progxe-cellbound");
        cellbound(&opt);
        assert!(opt.out.join("cellbound.csv").exists());
    }

    #[test]
    fn kernels_quick_passes_gates_and_writes_json() {
        let opt = quick_opts("progxe-kernels");
        let runs = kernel_measurements(&opt);
        assert_kernel_gates(&runs, true);
        assert!(runs.iter().any(|r| r.kind == "mask"), "mask sweep missing");
        assert!(
            runs.iter().any(|r| r.kind == "blocker"),
            "blocker sweep missing"
        );
        let map = runs.iter().find(|r| r.kind == "map").expect("map row");
        assert!(map.index_ops > 0, "the map row joined nothing");
        write_kernel_outputs(&opt, &runs);
        assert!(opt.out.join("kernels.csv").exists());
        let json = std::fs::read_to_string(opt.out.join("BENCH_kernels.json")).unwrap();
        for key in [
            "\"kind\"",
            "\"speedup\"",
            "\"batched_mpairs_s\"",
            "\"index_ops\"",
            "\"naive_ops\"",
            "\"mask\"",
            "\"blocker\"",
            "\"map\"",
        ] {
            assert!(json.contains(key), "BENCH_kernels.json missing {key}");
        }
    }

    #[test]
    fn fdom_quick_shrinks_monotonically_and_writes_json() {
        let opt = quick_opts("progxe-fdom");
        let runs = fdom_measurements(&opt);
        for dist in Distribution::ALL {
            let of_dist: Vec<&FdomRun> = runs
                .iter()
                .filter(|r| r.distribution == dist.name())
                .collect();
            let pareto = of_dist
                .iter()
                .find(|r| r.tightness.is_none())
                .expect("pareto baseline present");
            assert!(pareto.results > 0, "{dist:?}: empty baseline");
            // t = 0 is the whole simplex: identical to Pareto.
            let loose = of_dist
                .iter()
                .find(|r| r.tightness == Some(0.0))
                .expect("t=0 leg present");
            assert_eq!(
                loose.results, pareto.results,
                "{dist:?}: unconstrained family must equal Pareto"
            );
            assert_eq!(loose.fdom_filtered, 0, "{dist:?}: nothing to filter at t=0");
            // Nested families: results non-increasing along the sweep.
            let mut last = u64::MAX;
            for run in of_dist.iter().filter(|r| r.tightness.is_some()) {
                assert!(
                    run.results <= last,
                    "{dist:?}: tightening grew the answer ({} > {last})",
                    run.results
                );
                assert!(run.results <= run.pareto_results);
                last = run.results;
            }
            // The tightest leg must demonstrably shrink the answer.
            assert!(
                last < pareto.results,
                "{dist:?}: tightest band never shrank the skyline"
            );
        }

        write_fdom_outputs(&opt, &runs);
        assert!(opt.out.join("fdom.csv").exists());
        let json = std::fs::read_to_string(opt.out.join("BENCH_fdom.json")).unwrap();
        for key in [
            "\"workload\"",
            "\"tightness\"",
            "\"results\"",
            "\"shrinkage\"",
            "\"fdom_filtered\"",
            "\"first_result_ms\"",
            "\"wall_ms\"",
        ] {
            assert!(json.contains(key), "BENCH_fdom.json missing {key}");
        }
    }

    #[test]
    fn obs_quick_measures_all_modes_and_writes_json() {
        let opt = quick_opts("progxe-obs");
        let runs = obs_measurements(&opt);
        assert_eq!(runs.len(), 3);
        let results: Vec<u64> = runs.iter().map(|r| r.results).collect();
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "tracing must not change what is emitted: {results:?}"
        );
        let ring = runs.iter().find(|r| r.mode == "ring").unwrap();
        assert!(ring.results > 0);
        assert!(ring.events > 0, "ring leg captured nothing");
        assert_eq!(ring.dropped, 0, "reference workload must fit the ring");
        for off_mode in ["off", "null"] {
            let run = runs.iter().find(|r| r.mode == off_mode).unwrap();
            assert_eq!(run.events, 0, "{off_mode} leg must not record");
        }

        // The writer runs on the same measurements (no second sweep). The
        // overhead gate itself is exercised by `figures -- obs` in CI; at
        // smoke-test scale (parallel test threads, ~ms walls) the ratio is
        // pure noise, so it is not asserted here.
        write_obs_outputs(&opt, &runs, obs_overhead_gate(true));
        assert!(opt.out.join("obs.csv").exists());
        let json = std::fs::read_to_string(opt.out.join("BENCH_obs.json")).unwrap();
        for key in [
            "\"workload\"",
            "\"ring_capacity\"",
            "\"overhead\"",
            "\"gate_pct\"",
            "\"ring_vs_null_pct\"",
            "\"mode\"",
            "\"wall_ms\"",
            "\"first_result_ms\"",
            "\"events\"",
            "\"dropped\"",
            "\"off\"",
            "\"null\"",
            "\"ring\"",
        ] {
            assert!(json.contains(key), "BENCH_obs.json missing {key}");
        }
    }

    #[test]
    fn threads_quick_writes_machine_readable_json() {
        let opt = quick_opts("progxe-threads");
        threads(&opt);
        assert!(opt.out.join("threads.csv").exists());
        let json = std::fs::read_to_string(opt.out.join("BENCH_threads.json")).unwrap();
        // Sanity over the contract the CI artifact consumers rely on.
        for key in [
            "\"workload\"",
            "\"threads\"",
            "\"wall_ms\"",
            "\"first_result_ms\"",
            "\"inline\"",
            "\"pooled\"",
            "\"inline-general\"",
            "\"pooled-general\"",
            "\"join_matches_skipped\"",
            "\"inflight_peak\"",
            "\"commit_wait_ms\"",
            "\"regions_computed_dead\"",
        ] {
            assert!(json.contains(key), "BENCH_threads.json missing {key}");
        }
    }

    #[test]
    #[should_panic(expected = "never had more than 1 region in flight")]
    fn threads_gate_rejects_a_window_that_never_fills() {
        let serialized = progxe_core::stats::ExecStats {
            inflight_peak: 1,
            ..Default::default()
        };
        let inline = Duration::from_millis(100);
        assert_threads_gates(&serialized, &serialized, inline, 2, true);
    }
}
