//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! experiments [--suite quick|standard|paper|NxLEN] [--out DIR]
//!             [--jobs N] [--json PATH] [--cache DIR]
//! ```
//!
//! Examples: `experiments`, `experiments --suite quick`,
//! `experiments --suite 3x50000 --out results --jobs 8 --json sweep.json`,
//! `experiments --suite quick --cache /var/lib/lowvcc/cache`.
//!
//! `--jobs` fans the per-voltage suite sweeps out over N worker threads
//! (default: all hardware threads; results are identical for any value).
//! `--json` additionally writes the sweep results and the
//! `uops_per_second` throughput figure machine-readably. `--suite paper`
//! is the paper-scale target (532 traces × 200k uops — the closest
//! 7-family multiple of the paper's 531) the parallel runner makes
//! tractable. `--cache DIR` routes every simulation through the
//! content-addressed result store rooted at DIR: a warm re-run answers
//! every figure from the store (the trailing `cache:` stats line reports
//! `0 simulated`) yet writes byte-identical CSV artifacts. The same DIR
//! can back a running `lowvcc-serve` daemon.

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lowvcc_bench::experiments::run_all;
use lowvcc_bench::{ExperimentContext, ExperimentError, ResultStore, SuiteChoice};
use lowvcc_core::Parallelism;

/// Binary-local error: either a usage problem or a harness failure.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Run(ExperimentError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) => f.write_str(msg),
            Self::Run(e) => write!(f, "experiment failed: {e}"),
        }
    }
}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        Self::Run(e)
    }
}

const USAGE: &str = "usage: experiments [--suite quick|standard|paper|NxLEN] [--out DIR] \
                     [--jobs N] [--json PATH] [--cache DIR]";

fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// Validated command line, before any trace generation or I/O happens.
/// Pure function of the argument list — see [`parse_args`] — so the
/// degenerate-input rejections are unit-testable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CliOptions {
    suite: SuiteChoice,
    out: PathBuf,
    json: Option<PathBuf>,
    cache: Option<PathBuf>,
    jobs: usize,
    help: bool,
}

/// Parses and validates the argument list (everything after `argv[0]`).
///
/// Degenerate inputs are rejected *here*, before any work starts:
/// `--suite 0x200000` (zero traces per family), `--suite 3x0` (empty
/// traces) and `--jobs 0` (a zero-worker runner) are usage errors, not
/// empty sweeps.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<CliOptions, CliError> {
    let mut suite = "standard".to_string();
    let mut out = PathBuf::from("results");
    let mut json = None;
    let mut cache = None;
    let mut jobs = Parallelism::available().count();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--suite" => match args.next() {
                Some(v) => suite = v,
                None => return usage("--suite needs a value"),
            },
            "--out" => match args.next() {
                Some(v) => out = PathBuf::from(v),
                None => return usage("--out needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--cache" => match args.next() {
                Some(v) => cache = Some(PathBuf::from(v)),
                None => return usage("--cache needs a value"),
            },
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = n,
                Some(_) => return usage("--jobs needs a positive integer"),
                None => return usage("--jobs needs a value"),
            },
            "--help" | "-h" => {
                return Ok(CliOptions {
                    suite: SuiteChoice::Standard,
                    out,
                    json,
                    cache,
                    jobs,
                    help: true,
                })
            }
            other => return usage(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    // The shared grammar (lowvcc_bench::SuiteChoice) rejects degenerate
    // sizes — no traces, empty traces — before any work starts.
    let suite = match SuiteChoice::parse(&suite) {
        Ok(s) => s,
        Err(e) => return usage(e.to_string()),
    };
    Ok(CliOptions {
        suite,
        out,
        json,
        cache,
        jobs,
        help: false,
    })
}

struct Cli {
    ctx: ExperimentContext,
    out: PathBuf,
    json: Option<PathBuf>,
    jobs: usize,
    store: Option<Arc<ResultStore>>,
}

/// Turns validated options into a runnable context (builds traces, opens
/// the cache).
fn build(opts: CliOptions) -> Result<Cli, CliError> {
    let mut ctx = opts
        .suite
        .build()?
        .with_parallelism(Parallelism::threads(opts.jobs));
    let store = match opts.cache {
        Some(dir) => {
            let store = Arc::new(ResultStore::open(dir).map_err(ExperimentError::from)?);
            ctx = ctx.with_cache(Arc::clone(&store));
            Some(store)
        }
        None => None,
    };
    Ok(Cli {
        ctx,
        out: opts.out,
        json: opts.json,
        jobs: opts.jobs,
        store,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match build(opts) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "running all experiments on suite {} ({} uops, {} jobs)…",
        cli.ctx.suite_label,
        cli.ctx.total_uops(),
        cli.jobs
    );
    match run_all(&cli.ctx, &cli.out) {
        Ok(summary) => {
            println!("{}", summary.report);
            eprintln!(
                "sweep: {} uops in {:.2?} ({:.2} Muops/s)",
                summary.sweep_uops,
                summary.sweep_elapsed,
                summary.uops_per_second() / 1e6
            );
            eprintln!("CSV files written under {}", cli.out.display());
            if let Some(store) = &cli.store {
                let s = store.stats();
                eprintln!(
                    "cache: {} hits, {} misses ({} simulated), {} records in {} segments on disk",
                    s.hits,
                    s.misses,
                    s.misses,
                    store.disk_entries(),
                    store.disk_segments()
                );
                if s.quarantined + s.retries + s.write_failures + s.orphans_swept > 0 || s.degraded
                {
                    eprintln!(
                        "cache health: {} segments quarantined, {} retries, {} write failures, \
                         {} orphans swept{}",
                        s.quarantined,
                        s.retries,
                        s.write_failures,
                        s.orphans_swept,
                        if s.degraded {
                            " — DEGRADED (memory-only)"
                        } else {
                            ""
                        }
                    );
                }
            }
            if let Some(path) = cli.json {
                let doc = summary.to_json(&cli.ctx.suite_label, cli.ctx.total_uops(), cli.jobs);
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("{}", CliError::Run(ExperimentError::io_at(&path)(e)));
                    return ExitCode::FAILURE;
                }
                eprintln!("sweep JSON written to {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", CliError::Run(e));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, CliError> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    fn usage_of(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Usage(msg)) => msg,
            Ok(o) => panic!("{args:?} accepted: {o:?}"),
            Err(CliError::Run(e)) => panic!("{args:?} ran: {e}"),
        }
    }

    #[test]
    fn defaults_are_standard_suite_all_threads() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.suite, SuiteChoice::Standard);
        assert_eq!(o.out, PathBuf::from("results"));
        assert_eq!(o.json, None);
        assert_eq!(o.cache, None);
        assert!(o.jobs >= 1);
        assert!(!o.help);
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse(&[
            "--suite", "3x50000", "--out", "r", "--jobs", "8", "--json", "s.json", "--cache", "c",
        ])
        .unwrap();
        assert_eq!(
            o.suite,
            SuiteChoice::Sized {
                per_family: 3,
                len: 50_000
            }
        );
        assert_eq!(o.jobs, 8);
        assert_eq!(o.cache, Some(PathBuf::from("c")));
        assert_eq!(o.json, Some(PathBuf::from("s.json")));
    }

    #[test]
    fn zero_traces_per_family_is_a_usage_error() {
        // "0x200000" is a suite spec (0 per family), not a hex literal —
        // and an empty suite has no defined speedups.
        let msg = usage_of(&["--suite", "0x200000"]);
        assert!(msg.contains("at least 1 trace"), "{msg}");
    }

    #[test]
    fn zero_length_traces_are_a_usage_error() {
        let msg = usage_of(&["--suite", "3x0"]);
        assert!(msg.contains("1 uop per trace"), "{msg}");
    }

    #[test]
    fn zero_jobs_is_a_usage_error() {
        let msg = usage_of(&["--jobs", "0"]);
        assert!(msg.contains("positive integer"), "{msg}");
        // Same for garbage and negative values.
        assert!(usage_of(&["--jobs", "-3"]).contains("positive integer"));
        assert!(usage_of(&["--jobs", "many"]).contains("positive integer"));
    }

    #[test]
    fn malformed_suite_specs_are_usage_errors() {
        assert!(usage_of(&["--suite", "banana"]).contains("bad suite spec"));
        assert!(usage_of(&["--suite", "x"]).contains("per-family count"));
        assert!(usage_of(&["--suite", "3x"]).contains("trace length"));
        assert!(usage_of(&["--suite", "99999999999999999999x5"]).contains("per-family count"));
    }

    #[test]
    fn dangling_values_and_unknown_flags_rejected() {
        assert!(usage_of(&["--suite"]).contains("--suite needs a value"));
        assert!(usage_of(&["--cache"]).contains("--cache needs a value"));
        assert!(usage_of(&["--jobs"]).contains("--jobs needs a value"));
        assert!(usage_of(&["--frobnicate"]).contains("unknown argument"));
    }

    #[test]
    fn help_short_circuits_validation() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }
}
