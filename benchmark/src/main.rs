//! The repository's one benchmark: four wire workloads measured as a
//! client sees them (tracing off), and a traced run that prices each
//! layer on the same inputs. See `README.md` beside this package.

mod check;
mod e2e;
mod json;
mod layers;
mod metrics;
mod ops;
mod proc;
mod report;
mod span;
mod stats;
mod suite;
mod workload;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use suite::Options;
use workload::Workload;

/// Measured window when `--seconds` is not given — `run_seconds` of
/// `BENCHMARK.json`, the same on every commit.
const DEFAULT_SECONDS: u64 = 20;
/// Window of a `--quick` smoke test.
const QUICK_SECONDS: u64 = 3;

const USAGE: &str =
    "usage: progxe-benchmark [run|trace] [--workload W] [--seed S] [--seconds N] [--quick]
       progxe-benchmark --aa [--pairs P] [--seed S] [--seconds N] [--quick]
       progxe-benchmark --workload W --seed S --seconds N --trace 0|1

  run      end-to-end metrics, tracing off (default)
  trace    per-layer metrics; writes out/trace-<workload>.jsonl
  --aa     the suite twice per pair in alternating workload order; prints
           each metric's A/A gap against its bound, writes out/aa.json
  --quick  3 s windows, same inputs; output is stamped and never compared
Without --workload every workload runs, each in a process of its own.";

/// `out/` beside this package's manifest: span dumps and `aa.json`.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    traced: bool,
    aa: bool,
    pairs: usize,
    seed: u64,
    seconds: Option<u64>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        traced: false,
        aa: false,
        pairs: 1,
        seed: workload::DEFAULT_SEED,
        seconds: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "run" => out.traced = false,
            "trace" => out.traced = true,
            "--aa" => out.aa = true,
            "--quick" => out.quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                out.workload = Some(
                    workload::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}; one of {names:?}"))?,
                );
            }
            "--seed" => out.seed = number(value("a seed")?)?,
            "--seconds" => out.seconds = Some(number(value("a number of seconds")?)?.max(1)),
            "--pairs" => out.pairs = number(value("a number of pairs")?)?.max(1) as usize,
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// One workload, in this process: set-up, the run `--trace` selects,
/// the table, the `DETAIL` line, and last the contract's result line.
fn run_workload(
    workload: &Workload,
    traced: bool,
    opts: Options,
    started: Instant,
) -> Result<i32, String> {
    let ready = e2e::set_up(workload, opts.seed)?;
    let set_up_s = started.elapsed().as_secs_f64();
    let window = Duration::from_secs(opts.seconds);
    let report = if traced {
        let mut layers = layers::Layers::new(&ready, opts.seed)?;
        let deadline = Instant::now() + window;
        // At least two rounds, so every median has a spread behind it.
        while layers.rounds() < 2 || Instant::now() < deadline {
            layers.round()?;
        }
        layers.finish();
        let path = out_dir()?.join(format!("trace-{}.jsonl", workload.name));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        );
        layers
            .tracer
            .dump(&mut file)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        std::io::Write::flush(&mut file)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "{} spans of {} traced rounds written to {}",
            layers.tracer.spans().len(),
            layers.rounds(),
            path.display()
        );
        // Spans nest, so an op's self times must add up to its wall time;
        // a gap means a child outlived its parent and the layer shares
        // read from this trace would not sum to the op.
        let off = span::op_accounts(layers.tracer.spans())
            .into_iter()
            .map(|(_, wall, summed)| (wall - summed).abs() / wall)
            .fold(0.0, f64::max);
        println!(
            "self times sum to op wall time within {:.3} %{}",
            off * 100.0,
            if off > 0.05 { " (OVER 5 %)" } else { "" }
        );
        Report::per_layer(
            workload,
            &layers.samples,
            layers.attempted,
            layers.failed,
            layers.first_error.clone(),
            opts.quick,
        )
    } else {
        let run = e2e::run(&ready, window)?;
        // Process start → first measured op.
        let setup_s = set_up_s + run.warmup_s;
        println!(
            "set-up {:.3} s + warm-up {:.3} s, window {:.3} s",
            set_up_s, run.warmup_s, run.window_s
        );
        Report::end_to_end(workload, &run, setup_s, opts.quick)
    };
    ready.server.shutdown();
    report.print_table();
    println!("DETAIL {}", report.detail(opts.seed, opts.seconds).encode());
    println!("{}", report.result_line().encode());
    Ok(report.exit_code())
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(64);
        }
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        quick: args.quick,
    };
    let outcome = match (args.aa, args.workload) {
        (true, _) => suite::run_aa(args.pairs, opts),
        (false, Some(workload)) => run_workload(workload, args.traced, opts, started),
        (false, None) => suite::run_all(args.traced, opts),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = args(&[
            "--workload",
            "sub-stream",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "sub-stream");
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.aa, a.quick),
            (7, Some(10), true, false, false)
        );
        let a = args(&["trace", "--quick"]).unwrap();
        assert!(a.traced && a.quick && a.workload.is_none());
        assert_eq!(a.seed, workload::DEFAULT_SEED);
        let a = args(&["--aa", "--pairs", "3"]).unwrap();
        assert!(a.aa && a.pairs == 3);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
