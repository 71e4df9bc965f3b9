//! `perfbench`: runs one workload (or all) and prints its metrics.
//!
//! ```text
//! perfbench --workload paper_cold|serve_warm|fleet_restart|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-digests N     # paper_cold CSV digests for seeds 0..N
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any checked output was wrong or the run could not complete.

use std::path::PathBuf;
use std::process::ExitCode;

use lowvcc_bench::experiments::run_all;
use lowvcc_perfbench::report::{result_line, Metric};
use lowvcc_perfbench::stats::ratio;
use lowvcc_perfbench::{cold, layers, run_workload, selected, Args, Res, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload paper_cold|serve_warm|fleet_restart|all \
[--seed N] [--seconds S] [--trace 0|1] | --write-digests N";

enum Mode {
    Run(Args),
    WriteDigests(u64),
}

fn parse(mut argv: impl Iterator<Item = String>) -> Res<Mode> {
    let mut args = Args {
        workload: String::new(),
        seed: lowvcc_perfbench::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        scale: Scale::full(),
        work_dir: PathBuf::from(".perfbench"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--write-digests" => {
                return Ok(Mode::WriteDigests(
                    value()?.parse().map_err(|_| "bad --write-digests")?,
                ))
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Mode::Run(args))
}

/// Prints the committed-digest lines for seeds `0..n` at the measured
/// size.
fn write_digests(n: u64) -> Res<()> {
    let scale = Scale::full();
    let dir = PathBuf::from(".perfbench").join(format!("digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    println!("# paper_cold CSV digests at the measured size: <seed> <file> <FNV-1a 64 hex>");
    for seed in 0..n {
        let ctx = cold::build_context(seed, &scale)?;
        run_all(&ctx, &dir).map_err(|e| e.to_string())?;
        print!("{}", cold::digest_lines(seed, &cold::csv_digests(&dir)?));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn run(args: &Args) -> Res<bool> {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<Metric> = Vec::new();
    for name in &names {
        let one = Args {
            workload: (*name).to_string(),
            ..args.clone()
        };
        let mut outcome = if args.trace {
            layers::run(&one)?
        } else {
            run_workload(name, &one)?
        };
        if !args.trace {
            let failed = ratio(outcome.failed as f64, outcome.attempted as f64);
            outcome.metric("ops_failed_ratio", "ratio", failed);
        }
        print!("{}", outcome.human(name));
        attempted += outcome.attempted;
        failed += outcome.failed;
        for m in selected(name, &outcome, args.trace)? {
            metrics.push(if names.len() > 1 {
                Metric {
                    name: format!("{name}.{}", m.name),
                    ..m
                }
            } else {
                m
            });
        }
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let mode = match parse(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::WriteDigests(n) => write_digests(n).map(|()| true),
        Mode::Run(args) => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: wrong outputs (see the WRONG lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
