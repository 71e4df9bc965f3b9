//! The lowvcc repository benchmark.
//!
//! Three workloads drive the reproduction through its public functions
//! from one process:
//!
//! * [`cold`] (`paper_cold`) — `run_all` over a fresh suite through a
//!   fresh in-memory store: the engine and the grid executor;
//! * [`warm`] (`serve_warm`) — a warmed 3-shard cluster answering an
//!   open-loop and then a closed-loop request mix: store hits, daemon
//!   assembly, the reactor and the router, with nothing simulated;
//! * [`restart`] (`fleet_restart`) — a cold pass through a 3-shard
//!   cluster over a fresh on-disk cache, then the same pass after a
//!   restart: publishes, key ownership and peer read-through.
//!
//! The traced run ([`layers`]) measures each layer's public functions on
//! its own and reports the per-layer metrics. Every run checks its
//! outputs; see `README.md` for the metric table.

pub mod cold;
pub mod host;
pub mod layers;
pub mod report;
pub mod restart;
pub mod serve;
pub mod span;
pub mod stats;
pub mod warm;

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{Metric, Outcome};

/// Benchmark-internal result: errors are described, not typed.
pub type Res<T> = Result<T, String>;

/// Attaches a short description to any displayable error.
pub trait Ctx<T> {
    /// Maps the error to `"<what>: <error>"`.
    ///
    /// # Errors
    ///
    /// Passes the original error on, described.
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["paper_cold", "serve_warm", "fleet_restart"];

/// The seed whose `paper_cold` CSV digests are committed.
pub const DEFAULT_SEED: u64 = 0;

/// How big a run is. `full` is what the benchmark measures; `tiny` is
/// for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `paper_cold`: traces per family.
    pub cold_per_family: u32,
    /// `paper_cold`: uops per trace.
    pub cold_len: usize,
    /// `paper_cold`: simulation jobs.
    pub cold_jobs: usize,
    /// Serve workloads: uops per trace of the one-per-family suite.
    pub serve_len: usize,
    /// `serve_warm`: set-ups timed per run (the last one is kept).
    pub setups: usize,
    /// Sampled configurations checked fast path against reference.
    pub naive_checks: usize,
    /// Uops per trace of the engine and naive samples.
    pub sample_len: usize,
}

impl Scale {
    /// The measured size.
    #[must_use]
    pub fn full() -> Self {
        Self {
            cold_per_family: 2,
            cold_len: 25_000,
            cold_jobs: 1,
            serve_len: 10_000,
            setups: 5,
            naive_checks: 4,
            sample_len: 20_000,
        }
    }

    /// The self-test size: every path, a fraction of the work.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            cold_per_family: 1,
            cold_len: 2_000,
            cold_jobs: 2,
            serve_len: 2_000,
            setups: 2,
            naive_checks: 2,
            sample_len: 2_000,
        }
    }

    /// The serve workloads' suite: one trace per family.
    #[must_use]
    pub fn serve_suite(&self) -> lowvcc_bench::SuiteChoice {
        lowvcc_bench::SuiteChoice::Sized {
            per_family: 1,
            len: self.serve_len,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
    /// Where scratch files and the span file go.
    pub work_dir: PathBuf,
}

impl Args {
    /// The measuring window.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.1))
    }

    /// A scratch path under the work directory, unique to this process.
    #[must_use]
    pub fn scratch(&self, what: &str) -> PathBuf {
        self.work_dir
            .join(format!("{what}-{}-{}", std::process::id(), self.seed))
    }
}

/// SplitMix64: the benchmark's only randomness, fully determined by the
/// seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The end-to-end metrics every workload reports (and the result line
/// carries), with what each one is on each workload.
///
/// | name | paper_cold | serve_warm | fleet_restart |
/// |---|---|---|---|
/// | `setup_s` | suite + store | cluster + warm-up pass | cluster start |
/// | `peak_rss_mb` | peak RSS | peak RSS | peak RSS |
/// | `main_ms` | `report_s` | `sweep_p50_ms` | `cold_pass_s` |
/// | `second_ms` | the report's sweep | `point_p50_ms` | `restart_pass_s` |
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_ms", "ms"),
    ("second_ms", "ms"),
];

/// Which workload metric each generic end-to-end metric is.
#[must_use]
pub fn end_to_end_source(workload: &str, generic: &str) -> Option<&'static str> {
    Some(match (workload, generic) {
        (_, "setup_s") => "setup_s",
        (_, "peak_rss_mb") => "peak_rss_mb",
        ("paper_cold", "main_ms") => "report_ms",
        ("paper_cold", "second_ms") => "sweep_ms",
        ("serve_warm", "main_ms") => "sweep_p50_ms",
        ("serve_warm", "second_ms") => "point_p50_ms",
        ("fleet_restart", "main_ms") => "cold_pass_ms",
        ("fleet_restart", "second_ms") => "restart_pass_ms",
        _ => return None,
    })
}

/// Runs one workload's end-to-end measurement.
///
/// # Errors
///
/// Reports set-up failures (wrong outputs are counted, not errors).
pub fn run_workload(name: &str, args: &Args) -> Res<Outcome> {
    match name {
        "paper_cold" => cold::run(args),
        "serve_warm" => warm::run(args),
        "fleet_restart" => restart::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Picks the result-line metrics for `workload` out of `outcome`:
/// every end-to-end metric (untraced), its times scaled to the
/// reference host by `host_scale` (see [`host`]), or every per-layer
/// metric (traced).
///
/// # Errors
///
/// Reports a metric the run failed to produce.
pub fn selected(workload: &str, outcome: &Outcome, trace: bool) -> Res<Vec<Metric>> {
    if trace {
        return layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                outcome
                    .get(name)
                    .map(|value| Metric {
                        name: name.to_string(),
                        unit,
                        value,
                    })
                    .ok_or_else(|| format!("traced run did not produce {name}"))
            })
            .collect();
    }
    let host_scale = outcome
        .get("host_scale")
        .ok_or_else(|| format!("{workload} did not time the host kernel"))?;
    END_TO_END
        .iter()
        .map(|&(generic, unit)| {
            let source = end_to_end_source(workload, generic)
                .ok_or_else(|| format!("{workload} has no source for {generic}"))?;
            let scale = if matches!(unit, "s" | "ms") {
                host_scale
            } else {
                1.0
            };
            outcome
                .get(source)
                .map(|value| Metric {
                    name: generic.to_string(),
                    unit,
                    value: value * scale,
                })
                .ok_or_else(|| format!("{workload} did not produce {source}"))
        })
        .collect()
}
