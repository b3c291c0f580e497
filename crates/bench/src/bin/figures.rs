//! CLI entry point regenerating the paper's figures and running the gated
//! experiments CI runs (`threads`, `fdom`, `obs`, `kernels`; the gate each
//! enforces is in the `progxe_bench::figures` table).
//!
//! ```text
//! figures <experiment|all> [--n N] [--dims D] [--sigma S] [--seed S]
//!                          [--out DIR] [--quick]
//! ```
//!
//! Experiments: fig10-prog, fig10-time, fig11, fig12, fig13, cellbound,
//! ablate-delta, ablate-order, ssmj-soundness, scaling, threads, fdom, obs,
//! kernels, all.
//!
//! Run in release mode: `cargo run --release -p progxe-bench --bin figures -- all`.

use progxe_bench::figures::{
    ablate_delta, ablate_order, cellbound, fdom, fig10_prog, fig10_time, fig11, fig12, fig13,
    kernels, obs, scaling, ssmj_soundness, threads, ExpOptions,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: figures <experiment|all> [options]

experiments:
  fig10-prog      Figure 10 a-c  progressiveness of the ProgXe variations
  fig10-time      Figure 10 d-f  total time vs join selectivity (variations)
  fig11           Figure 11 a-f  ProgXe / ProgXe+ / SSMJ progressiveness
  fig12           Figure 12 a-b  d = 5 progressiveness (SSMJ degenerates)
  fig13           Figure 13 a-c  total time vs selectivity vs SSMJ
  cellbound       Section III-B  comparable-cell bound, measured
  ablate-delta    Section VI-B   grid-granularity sensitivity
  ablate-order    Section VI-B   ordering-policy cost/benefit
  ssmj-soundness  Section VII    SSMJ batch-1 false positives
  scaling         first-output latency growth vs N (vs SSMJ, JF-SL)
  threads         end-to-end speedup vs ProgXeConfig::threads (parallel runtime, gated)
  fdom            flexible skylines: shrinkage + latency vs constraint tightness
  obs             tracing overhead: recorder off / null / ring (gated)
  kernels         columnar dominance kernels: batched vs scalar, blocker index vs naive (gated)
  all             everything above

options:
  --n N         override source cardinality
  --dims D      override output dimensionality
  --sigma S     override join selectivity (single-sigma experiments)
  --seed S      workload seed (default 0xC0FFEE)
  --out DIR     CSV output directory (default ./results)
  --quick       shrink workloads ~10x (smoke-test mode)";

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 14] = [
    "fig10-prog",
    "fig10-time",
    "fig11",
    "fig12",
    "fig13",
    "cellbound",
    "ablate-delta",
    "ablate-order",
    "ssmj-soundness",
    "scaling",
    "threads",
    "fdom",
    "obs",
    "kernels",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut opt = ExpOptions::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match flag {
            "--n" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.n = Some(v),
                None => return bad_flag(flag),
            },
            "--dims" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.dims = Some(v),
                None => return bad_flag(flag),
            },
            "--sigma" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.sigma = Some(v),
                None => return bad_flag(flag),
            },
            "--seed" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.seed = v,
                None => return bad_flag(flag),
            },
            "--out" => match value(&mut i) {
                Some(v) => opt.out = PathBuf::from(v),
                None => return bad_flag(flag),
            },
            "--quick" => opt.quick = true,
            other => {
                eprintln!("unknown option {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let run_one = |name: &str, opt: &ExpOptions| -> bool {
        match name {
            "fig10-prog" => fig10_prog(opt),
            "fig10-time" => fig10_time(opt),
            "fig11" => fig11(opt),
            "fig12" => fig12(opt),
            "fig13" => fig13(opt),
            "cellbound" => cellbound(opt),
            "ablate-delta" => ablate_delta(opt),
            "ablate-order" => ablate_order(opt),
            "ssmj-soundness" => ssmj_soundness(opt),
            "scaling" => scaling(opt),
            "threads" => threads(opt),
            "fdom" => fdom(opt),
            "obs" => obs(opt),
            "kernels" => kernels(opt),
            _ => return false,
        }
        true
    };

    match exp.as_str() {
        "all" => {
            for name in EXPERIMENTS {
                println!();
                run_one(name, &opt);
            }
            ExitCode::SUCCESS
        }
        name if run_one(name, &opt) => ExitCode::SUCCESS,
        other => {
            eprintln!("unknown experiment {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn bad_flag(flag: &str) -> ExitCode {
    eprintln!("flag {flag} needs a valid value\n{USAGE}");
    ExitCode::FAILURE
}
