//! Multi-trace aggregation, the grid executor, and mechanism comparison
//! (the machinery behind Figure 11b's "performance gains" series).
//!
//! Every grid the paper reports — the voltage sweep, Table 1's technique
//! rows, the stall split — is a set of configurations over one trace
//! suite, and every (config, trace) pair is an independent,
//! deterministic simulation. [`run_batch_groups`] is the single executor
//! for all of them: it fans per-trace groups out over a
//! [`Parallelism`]-sized pool of scoped threads and reassembles results
//! in suite order, making the output byte-identical for any thread count
//! (including errors: the reported error is the first in suite order,
//! not the first in wall-clock order). Within a group, configurations
//! with equal cycle-level projections ([`SimConfig::cycle_config`]) are
//! simulated once. The executor takes the suite as [`TraceArena`]s,
//! decoded and validated where they were built, and neither validates
//! nor decodes a trace itself.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::TraceArena;

use crate::batch::EngineWorkspace;
use crate::config::{CoreConfig, CycleConfig, SimConfig};
use crate::error::SimError;
use crate::stats::SimResult;

/// Worker-thread count for suite execution.
///
/// `Parallelism::sequential()` (the default) runs in the calling thread;
/// [`Parallelism::available`] sizes the pool to the machine. The output
/// of every suite API is identical for any value — parallelism here is
/// purely a wall-clock knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Run in the calling thread, no workers.
    #[must_use]
    pub const fn sequential() -> Self {
        Self(NonZeroUsize::MIN)
    }

    /// Use exactly `threads` workers (clamped up to 1).
    #[must_use]
    pub fn threads(threads: usize) -> Self {
        Self(NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"))
    }

    /// One worker per available hardware thread (1 when the machine
    /// cannot report its parallelism).
    #[must_use]
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    #[must_use]
    pub fn count(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Results of one configuration over a trace suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Per-trace results, in suite order.
    pub per_trace: Vec<(String, SimResult)>,
}

impl SuiteResult {
    /// Total simulated wall-clock time across the suite.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.per_trace.iter().map(|(_, r)| r.seconds()).sum()
    }

    /// Total committed instructions.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.per_trace
            .iter()
            .map(|(_, r)| r.stats.instructions)
            .sum()
    }

    /// Suite-aggregate IPC (instructions over cycles).
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        let cycles: u64 = self.per_trace.iter().map(|(_, r)| r.stats.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / cycles as f64
        }
    }

    /// Fraction of instructions delayed by RF IRAW avoidance across the
    /// suite (the paper's 13.2% statistic).
    #[must_use]
    pub fn delayed_instruction_fraction(&self) -> f64 {
        let delayed: u64 = self
            .per_trace
            .iter()
            .map(|(_, r)| r.stats.iraw_delayed_instructions)
            .sum();
        let total = self.total_instructions();
        if total == 0 {
            0.0
        } else {
            delayed as f64 / total as f64
        }
    }
}

/// Speedup of one suite run over another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Ratio of total suite times (weighted by trace length).
    pub total_time: f64,
    /// Geometric mean of per-trace speedups.
    pub geomean: f64,
}

/// For each configuration, the index of the first one in `cfgs` with an
/// equal cycle-level projection ([`SimConfig::cycle_config`]) — its own
/// index when it is the first. Configurations sharing an index run the
/// same simulation; they differ at most in the cycle time stamped on
/// the result.
#[must_use]
pub fn same_projection_as(cfgs: &[SimConfig]) -> Vec<usize> {
    let projections: Vec<CycleConfig> = cfgs.iter().map(SimConfig::cycle_config).collect();
    projections
        .iter()
        .enumerate()
        .map(|(i, p)| projections[..i].iter().position(|q| q == p).unwrap_or(i))
        .collect()
}

/// Runs each group's configurations over its trace — the one grid
/// executor every suite API is built on. Each group replays its
/// distinct configurations over its [`TraceArena`] through the claiming
/// worker's reused [`EngineWorkspace`], so the arena stays hot in cache
/// across all of its sweep points. A config whose projection equals an
/// earlier one's in the same group is not simulated again: it gets a
/// copy of that result with its own `cycle_time` (see
/// [`same_projection_as`]).
///
/// `groups` pairs an index into `traces` with the configurations to run
/// on it (every arena is valid when it is built). Results come back in group
/// order, each `Vec` in config order. Deterministic for any `par`,
/// including which error is reported: the lowest group index, then the
/// lowest config index within it (every config is validated before any
/// is collapsed into another).
///
/// # Errors
///
/// Propagates the first (group-order, then config-order) error.
pub fn run_batch_groups(
    groups: &[(usize, Vec<SimConfig>)],
    traces: &[TraceArena],
    par: Parallelism,
) -> Result<Vec<Vec<SimResult>>, SimError> {
    // Work stealing over the group list: each worker claims the next
    // unclaimed index and tags its results with it, so the merged output
    // is reassembled in group order regardless of completion order.
    // `first_err` lets workers stop claiming groups *after* a known
    // failure — indices below it always complete, so the group-order
    // error choice stays deterministic while the tail is cancelled.
    let next = AtomicUsize::new(0);
    let first_err = AtomicUsize::new(usize::MAX);
    let worker = || {
        let mut ws = EngineWorkspace::new();
        // Sized once up front: work stealing puts no bound below the
        // full grid on one worker's claims.
        let mut out = Vec::with_capacity(groups.len());
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((ti, cfgs)) = groups.get(i) else {
                break;
            };
            if i > first_err.load(Ordering::Relaxed) {
                // Claims are monotone per worker: everything this worker
                // would claim next is even later.
                break;
            }
            // The projection drops `cycle_time`, which `validate` checks,
            // so validate every config before collapsing.
            let valid = cfgs.iter().try_for_each(SimConfig::validate);
            let r = valid.map_err(SimError::from).and_then(|()| {
                let mut results: Vec<SimResult> = Vec::with_capacity(cfgs.len());
                for (cfg, first) in cfgs.iter().zip(same_projection_as(cfgs)) {
                    let r = match results.get(first) {
                        Some(done) => SimResult {
                            cycle_time: cfg.cycle_time,
                            ..done.clone()
                        },
                        None => ws.run(cfg, &traces[*ti])?,
                    };
                    results.push(r);
                }
                Ok(results)
            });
            if r.is_err() {
                first_err.fetch_min(i, Ordering::Relaxed);
            }
            out.push((i, r));
        }
        out
    };
    let workers = par.count().min(groups.len());
    let mut tagged = if workers <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("grid worker panicked"))
                .collect()
        })
    };
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Runs every configuration over every trace, batched per trace: all of
/// `cfgs` replay one trace back to back before the next trace is
/// touched. Returns one [`SuiteResult`] per configuration, in `cfgs`
/// order — the per-config transpose of [`run_batch_groups`],
/// byte-identical for any `par`.
///
/// # Errors
///
/// Propagates the first (trace-order, then config-order) error.
pub fn run_suite_batch(
    cfgs: &[SimConfig],
    traces: &[TraceArena],
    par: Parallelism,
) -> Result<Vec<SuiteResult>, SimError> {
    let groups: Vec<(usize, Vec<SimConfig>)> =
        (0..traces.len()).map(|i| (i, cfgs.to_vec())).collect();
    let per_group = run_batch_groups(&groups, traces, par)?;
    let mut suites: Vec<SuiteResult> = cfgs
        .iter()
        .map(|_| SuiteResult {
            per_trace: Vec::with_capacity(traces.len()),
        })
        .collect();
    for (trace, results) in traces.iter().zip(per_group) {
        for (suite, r) in suites.iter_mut().zip(results) {
            suite.per_trace.push((trace.name().to_string(), r));
        }
    }
    Ok(suites)
}

/// Computes the speedup of `new` over `baseline` (paired by suite order).
///
/// # Panics
///
/// Panics if the two suites ran different trace counts.
#[must_use]
pub fn speedup(new: &SuiteResult, baseline: &SuiteResult) -> Speedup {
    assert_eq!(
        new.per_trace.len(),
        baseline.per_trace.len(),
        "suites must pair one-to-one"
    );
    let total_time = baseline.total_seconds() / new.total_seconds();
    let log_sum: f64 = new
        .per_trace
        .iter()
        .zip(&baseline.per_trace)
        .map(|((_, a), (_, b))| (b.seconds() / a.seconds()).ln())
        .sum();
    Speedup {
        total_time,
        geomean: (log_sum / new.per_trace.len() as f64).exp(),
    }
}

/// Baseline-vs-IRAW comparison at one supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismComparison {
    /// Supply voltage.
    pub vcc: Millivolts,
    /// Write-limited baseline results.
    pub baseline: SuiteResult,
    /// IRAW-avoidance results.
    pub iraw: SuiteResult,
    /// Clock-frequency gain of IRAW at this voltage.
    pub frequency_gain: f64,
    /// Measured performance speedup.
    pub speedup: Speedup,
}

impl MechanismComparison {
    /// Assembles the comparison from the two suite runs of
    /// [`SimConfig::mechanism_pair`] at `vcc`.
    ///
    /// # Panics
    ///
    /// Panics if the two suites ran different trace counts.
    #[must_use]
    pub fn new(
        timing: &CycleTimeModel,
        vcc: Millivolts,
        baseline: SuiteResult,
        iraw: SuiteResult,
    ) -> Self {
        let speedup = speedup(&iraw, &baseline);
        Self {
            vcc,
            baseline,
            iraw,
            frequency_gain: timing.frequency_gain(vcc),
            speedup,
        }
    }
}

/// Runs both mechanisms over the suite at `vcc` as one two-configuration
/// batch fanned out across `par` workers. Output is identical for any
/// `par`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn compare_mechanisms(
    core: CoreConfig,
    timing: &CycleTimeModel,
    vcc: Millivolts,
    traces: &[TraceArena],
    par: Parallelism,
) -> Result<MechanismComparison, SimError> {
    let (base_cfg, iraw_cfg) = SimConfig::mechanism_pair(core, timing, vcc);
    let [baseline, iraw]: [SuiteResult; 2] = run_suite_batch(&[base_cfg, iraw_cfg], traces, par)?
        .try_into()
        .expect("two configs in, two suites out");
    Ok(MechanismComparison::new(timing, vcc, baseline, iraw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanism;
    use crate::error::ConfigError;
    use crate::sim::Simulator;
    use lowvcc_sram::voltage::mv;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn small_specs() -> [TraceSpec; 3] {
        [
            (WorkloadFamily::SpecInt, 0u64),
            (WorkloadFamily::SpecFp, 1),
            (WorkloadFamily::Multimedia, 2),
        ]
        .map(|(f, s)| TraceSpec::new(f, s, 20_000))
    }

    fn small_suite() -> Vec<TraceArena> {
        small_specs().iter().map(|s| s.build().unwrap()).collect()
    }

    fn run_one(cfg: &SimConfig, traces: &[TraceArena]) -> SuiteResult {
        let [suite]: [SuiteResult; 1] =
            run_suite_batch(std::slice::from_ref(cfg), traces, Parallelism::sequential())
                .unwrap()
                .try_into()
                .unwrap();
        suite
    }

    #[test]
    fn suite_totals_add_up() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(550),
            Mechanism::Baseline,
        );
        let suite = run_one(&cfg, &small_suite());
        assert_eq!(suite.per_trace.len(), 3);
        assert_eq!(suite.total_instructions(), 60_000);
        assert!(suite.total_seconds() > 0.0);
        assert!(suite.aggregate_ipc() > 0.0);
    }

    #[test]
    fn iraw_beats_baseline_at_low_vcc() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cmp = compare_mechanisms(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            &small_suite(),
            Parallelism::sequential(),
        )
        .unwrap();
        // The paper's central claim, in miniature: substantial speedup,
        // below the raw frequency gain (stalls + constant-time memory).
        assert!(
            cmp.speedup.total_time > 1.2,
            "speedup {:.3} too small",
            cmp.speedup.total_time
        );
        assert!(
            cmp.speedup.total_time <= cmp.frequency_gain + 0.05,
            "speedup {:.3} cannot exceed frequency gain {:.3}",
            cmp.speedup.total_time,
            cmp.frequency_gain
        );
        assert!(cmp.iraw.delayed_instruction_fraction() > 0.0);
        assert_eq!(cmp.baseline.delayed_instruction_fraction(), 0.0);
    }

    #[test]
    fn geomean_close_to_total_time_for_equal_length_traces() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cmp = compare_mechanisms(
            CoreConfig::silverthorne(),
            &timing,
            mv(475),
            &small_suite(),
            Parallelism::threads(2),
        )
        .unwrap();
        let diff = (cmp.speedup.total_time - cmp.speedup.geomean).abs();
        assert!(
            diff < 0.3,
            "aggregates should roughly agree, diff {diff:.3}"
        );
    }

    #[test]
    fn batched_suite_is_byte_identical_to_fresh_per_point_runs() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let cfgs: Vec<SimConfig> = [475u32, 500, 550]
            .iter()
            .flat_map(|&vcc| {
                let (base, iraw) = SimConfig::mechanism_pair(core, &timing, mv(vcc));
                [base, iraw]
            })
            .collect();
        let traces = small_suite();
        // Reference: one fresh engine per (config, trace) pair.
        let per_point: Vec<SuiteResult> = cfgs
            .iter()
            .map(|cfg| {
                let sim = Simulator::new(cfg.clone()).unwrap();
                SuiteResult {
                    per_trace: traces
                        .iter()
                        .map(|t| (t.name().to_string(), sim.run(t).unwrap()))
                        .collect(),
                }
            })
            .collect();
        for workers in [1, 2, 3, 5, 8] {
            let batched = run_suite_batch(&cfgs, &traces, Parallelism::threads(workers)).unwrap();
            assert_eq!(per_point, batched, "{workers} workers");
        }
    }

    #[test]
    fn batch_groups_report_lowest_index_error() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let good = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        let mut bad = good.clone();
        bad.core.iq_entries = 33;
        let traces = small_suite();
        let groups = vec![
            (0usize, vec![good.clone()]),
            (1, vec![bad.clone(), good.clone()]),
            (2, vec![bad.clone()]),
        ];
        for workers in [1, 3] {
            let err = run_batch_groups(&groups, &traces, Parallelism::threads(workers))
                .expect_err("invalid config must surface");
            assert!(
                matches!(err, SimError::Config(_)),
                "unexpected error {err:?} at {workers} workers"
            );
        }

        // Dedup never hides an invalid config. A zero cycle time and a
        // (valid) 1e-300 ps clock both saturate the memory latency to
        // `u64::MAX` cycles, so the two project equal; only validating
        // every config before collapsing still reports the copy as the
        // lowest invalid index of its group.
        let mut instant = good.clone();
        instant.cycle_time = lowvcc_sram::Picoseconds::new(1e-300);
        let mut stopped = good.clone();
        stopped.cycle_time = lowvcc_sram::Picoseconds::new(0.0);
        assert_eq!(instant.cycle_config(), stopped.cycle_config());
        let groups = vec![
            (0usize, vec![good.clone()]),
            (1, vec![good.clone(), instant, stopped.clone(), bad.clone()]),
            (2, vec![bad.clone()]),
        ];
        for workers in [1, 3] {
            let err = run_batch_groups(&groups, &traces, Parallelism::threads(workers))
                .expect_err("a zero cycle time must surface");
            assert!(
                matches!(err, SimError::Config(ConfigError::NonPositiveCycleTime)),
                "unexpected error {err:?} at {workers} workers"
            );
        }
        let groups = vec![(0usize, vec![good.clone(), bad, stopped])];
        let err = run_batch_groups(&groups, &traces, Parallelism::sequential())
            .expect_err("invalid config must surface");
        assert!(
            matches!(
                err,
                SimError::Config(ConfigError::IqNotPowerOfTwo { entries: 33 })
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn same_projection_as_collapses_only_equal_behaviour() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let (base600, iraw600) = SimConfig::mechanism_pair(core, &timing, mv(600));
        let (base500, iraw500) = SimConfig::mechanism_pair(core, &timing, mv(500));
        let cfgs = [base500, iraw600, iraw500.clone(), base600, iraw500];
        assert_eq!(same_projection_as(&cfgs), vec![0, 1, 2, 1, 2]);
        assert_eq!(same_projection_as(&[]), Vec::<usize>::new());
    }

    #[test]
    fn parallelism_counts() {
        assert_eq!(Parallelism::sequential().count(), 1);
        assert_eq!(Parallelism::threads(0).count(), 1, "clamped");
        assert_eq!(Parallelism::threads(6).count(), 6);
        assert!(Parallelism::available().count() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::sequential());
    }

    #[test]
    #[should_panic(expected = "one-to-one")]
    fn mismatched_suites_rejected() {
        let a = SuiteResult { per_trace: vec![] };
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        let b = run_one(&cfg, &small_suite());
        let _ = speedup(&a, &b);
    }
}
