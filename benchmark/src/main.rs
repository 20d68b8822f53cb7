//! Command line of the repo benchmark; see `README.md` beside this package.

use std::path::PathBuf;
use std::process::ExitCode;
use swallow_benchmark::alloc::CountingAlloc;
use swallow_benchmark::catalog::Catalog;
use swallow_benchmark::compare::compare;
use swallow_benchmark::run::{run, RunOpts};
use swallow_benchmark::suite::{run_suite, SuiteOpts, CLEARED_ENV};
use swallow_benchmark::workloads::Size;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage:
  swallow-benchmark [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
      run every workload, one process each; print every metric; write
      results/<commit>.json (--traced adds the per-layer run)
  swallow-benchmark --workload NAME --seed N --seconds S --trace 0|1
                    [--trace-out FILE] [--smoke] [--detail]
      run one workload; the last line of standard output is the result
  swallow-benchmark --compare A.json B.json
      compare two result files against the bounds in BENCHMARK.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    detail: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {v:?}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--detail" => args.detail = true,
            "--trace-out" => args.trace_out = Some(value("a path")?.into()),
            "--out" => args.out = Some(value("a path")?.into()),
            "--compare" => {
                args.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before any thread exists: these change how the crates under test run.
    let env_was_set: Vec<&'static str> = CLEARED_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    for name in CLEARED_ENV {
        std::env::remove_var(name);
    }

    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("swallow-benchmark: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.0
    } else {
        Catalog::get().run_seconds as f64
    });

    if let Some((a, b)) = &args.compare {
        return match compare(a, b) {
            Ok((report, agree)) => {
                print!("{report}");
                println!("{}", if agree { "AGREE" } else { "DISAGREE" });
                ExitCode::from(u8::from(!agree))
            }
            Err(why) => {
                eprintln!("swallow-benchmark: {why}");
                ExitCode::from(2)
            }
        };
    }

    let Some(workload) = args.workload else {
        let opts = SuiteOpts {
            seed,
            seconds,
            traced: args.trace,
            smoke: args.smoke,
            out: args.out,
            env_was_set,
        };
        return match run_suite(&opts) {
            Ok(correct) => ExitCode::from(u8::from(!correct)),
            Err(why) => {
                eprintln!("swallow-benchmark: {why}");
                ExitCode::from(2)
            }
        };
    };

    let opts = RunOpts {
        workload,
        seed,
        seconds,
        traced: args.trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        trace_out: args.trace_out,
    };
    match run(&opts) {
        Ok(result) => {
            if args.detail {
                // For the suite, which passes everything but the last line on.
                print!("{}", result.table());
                println!("{}", result.detail_json());
            } else {
                eprint!("{}", result.table());
                if result.correct {
                    // A wrong run prints no contract line.
                    println!("{}", result.contract_json());
                }
            }
            ExitCode::from(u8::from(!result.correct))
        }
        Err(why) => {
            eprintln!("swallow-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
