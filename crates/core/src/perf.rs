//! Multi-trace aggregation, the grid executor, and mechanism comparison
//! (the machinery behind Figure 11b's "performance gains" series).
//!
//! Every grid the paper reports — the voltage sweep, Table 1's technique
//! rows, the stall split — is a set of configurations over one trace
//! suite, and every (config, trace) pair is an independent,
//! deterministic simulation. [`run_batch_groups`] is the executor under
//! all of them: it fans per-trace groups out over a
//! [`Parallelism`]-sized pool of scoped threads and reassembles results
//! in suite order, making the output byte-identical for any thread count
//! (including errors: the reported error is the first in suite order,
//! not the first in wall-clock order). It has no policy: each group runs
//! exactly the configurations it is given. Which of them are worth
//! simulating — a cache hit, or an equal cycle-level projection
//! ([`same_projection_as`]) — is decided by the grid runner above it,
//! `ExperimentContext::run_suite_batch` in `lowvcc-bench`. Each group
//! names its trace, and the worker that claims the group gets the
//! [`TraceArena`] from a caller-supplied function and drops it when the
//! group is done: the caller decides whether that builds the trace for
//! the group (the batch path, which so holds at most one arena per
//! worker) or lends one it keeps (a serving daemon). Arenas are valid
//! when built, so the executor neither validates nor decodes a trace.

use std::num::NonZeroUsize;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::TraceArena;

use crate::batch::EngineWorkspace;
use crate::config::{CycleConfig, SimConfig};
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
/// executor every suite API is built on. Each group names its trace
/// (`T`); the worker that claims the group gets the arena from `arena`,
/// replays the group's configurations over it through the worker's
/// reused [`EngineWorkspace`] (which validates each one), and drops it
/// before claiming the next group. So the arena stays hot in cache
/// across all of its sweep points, and a grid whose `arena` builds each
/// trace holds at most `par` of them at once. Every configuration is
/// simulated: collapsing equal projections is the caller's choice (see
/// [`same_projection_as`]).
///
/// Results come back in group order, each `Vec` in config order.
/// Deterministic for any `par`, including which error is reported: the
/// lowest group index, then within it a failure to get the arena, then
/// the lowest config index.
///
/// # Errors
///
/// Propagates the first (group-order, then config-order) error, from
/// `arena` or from a simulation.
pub fn run_batch_groups<T, A, E>(
    groups: &[(T, Vec<SimConfig>)],
    arena: impl Fn(&T) -> Result<A, E> + Sync,
    par: Parallelism,
) -> Result<Vec<Vec<SimResult>>, E>
where
    T: Sync,
    A: Deref<Target = TraceArena>,
    E: From<SimError> + Send,
{
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
            let Some((name, cfgs)) = groups.get(i) else {
                break;
            };
            if i > first_err.load(Ordering::Relaxed) {
                // Claims are monotone per worker: everything this worker
                // would claim next is even later.
                break;
            }
            // The arena lives for this group only.
            let r = arena(name).and_then(|trace| {
                cfgs.iter()
                    .try_fold(Vec::with_capacity(cfgs.len()), |mut done, cfg| {
                        done.push(ws.run(cfg, &trace)?);
                        Ok(done)
                    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, Mechanism};
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

    /// The executor's arena function for groups that name a built arena.
    fn lend<'a>(t: &&'a TraceArena) -> Result<&'a TraceArena, SimError> {
        Ok(*t)
    }

    /// One suite per configuration: every config over every trace
    /// through the executor, transposed to config-major order.
    fn suites(cfgs: &[SimConfig], traces: &[TraceArena], par: Parallelism) -> Vec<SuiteResult> {
        let groups: Vec<_> = traces.iter().map(|t| (t, cfgs.to_vec())).collect();
        let per_group = run_batch_groups(&groups, lend, par).unwrap();
        (0..cfgs.len())
            .map(|c| SuiteResult {
                per_trace: traces
                    .iter()
                    .zip(&per_group)
                    .map(|(t, results)| (t.name().to_string(), results[c].clone()))
                    .collect(),
            })
            .collect()
    }

    fn run_one(cfg: &SimConfig, traces: &[TraceArena]) -> SuiteResult {
        let [suite]: [SuiteResult; 1] =
            suites(std::slice::from_ref(cfg), traces, Parallelism::sequential())
                .try_into()
                .unwrap();
        suite
    }

    fn compare(vcc: Millivolts, par: Parallelism) -> MechanismComparison {
        let timing = CycleTimeModel::silverthorne_45nm();
        let (base, iraw) = SimConfig::mechanism_pair(CoreConfig::silverthorne(), &timing, vcc);
        let [baseline, iraw]: [SuiteResult; 2] = suites(&[base, iraw], &small_suite(), par)
            .try_into()
            .unwrap();
        MechanismComparison::new(&timing, vcc, baseline, iraw)
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
        let cmp = compare(mv(500), Parallelism::sequential());
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
        let cmp = compare(mv(475), Parallelism::threads(2));
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
            let batched = suites(&cfgs, &traces, Parallelism::threads(workers));
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
            (&traces[0], vec![good.clone()]),
            (&traces[1], vec![bad.clone(), good.clone()]),
            (&traces[2], vec![bad.clone()]),
        ];
        for workers in [1, 3] {
            let err = run_batch_groups(&groups, lend, Parallelism::threads(workers))
                .expect_err("invalid config must surface");
            assert!(
                matches!(err, SimError::Config(_)),
                "unexpected error {err:?} at {workers} workers"
            );
        }

        // Within a group the lowest invalid config index is reported.
        let mut stopped = good.clone();
        stopped.cycle_time = lowvcc_sram::Picoseconds::new(0.0);
        let groups = vec![
            (&traces[0], vec![good.clone()]),
            (&traces[1], vec![good.clone(), stopped.clone(), bad.clone()]),
            (&traces[2], vec![bad.clone()]),
        ];
        for workers in [1, 3] {
            let err = run_batch_groups(&groups, lend, Parallelism::threads(workers))
                .expect_err("a zero cycle time must surface");
            assert!(
                matches!(err, SimError::Config(ConfigError::NonPositiveCycleTime)),
                "unexpected error {err:?} at {workers} workers"
            );
        }
        let groups = vec![(&traces[0], vec![good.clone(), bad, stopped])];
        let err = run_batch_groups(&groups, lend, Parallelism::sequential())
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
    fn arena_failures_report_in_group_order() {
        #[derive(Debug, PartialEq)]
        enum Failure {
            Sim(SimError),
            Arena(usize),
        }
        impl From<SimError> for Failure {
            fn from(e: SimError) -> Self {
                Self::Sim(e)
            }
        }
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
        // A group names `Ok(t)` for trace `t`, or `Err(g)` for an arena
        // that cannot be had.
        let arena = |g: &Result<usize, usize>| g.map(|t| &traces[t]).map_err(Failure::Arena);
        let run = |groups: &[(Result<usize, usize>, Vec<SimConfig>)], workers| {
            run_batch_groups(groups, arena, Parallelism::threads(workers))
                .expect_err("a failure must surface")
        };
        for workers in [1, 3] {
            let groups = [
                (Ok(0), vec![good.clone()]),
                (Err(1), vec![good.clone()]),
                (Ok(2), vec![bad.clone()]),
            ];
            assert_eq!(
                run(&groups, workers),
                Failure::Arena(1),
                "{workers} workers"
            );
            let groups = [
                (Ok(0), vec![good.clone()]),
                (Ok(1), vec![good.clone(), bad.clone()]),
                (Err(2), vec![good.clone()]),
            ];
            assert!(
                matches!(run(&groups, workers), Failure::Sim(SimError::Config(_))),
                "{workers} workers"
            );
            // The arena is had before any of its group's configs run.
            let groups = [(Ok(0), vec![good.clone()]), (Err(1), vec![bad.clone()])];
            assert_eq!(
                run(&groups, workers),
                Failure::Arena(1),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_group_holds_its_arena_only_while_it_runs() {
        /// An arena built for one group, counted while it lives.
        struct Held<'a> {
            arena: TraceArena,
            live: &'a AtomicUsize,
        }
        impl Deref for Held<'_> {
            type Target = TraceArena;
            fn deref(&self) -> &TraceArena {
                &self.arena
            }
        }
        impl Drop for Held<'_> {
            fn drop(&mut self) {
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let timing = CycleTimeModel::silverthorne_45nm();
        let (base, iraw) = SimConfig::mechanism_pair(CoreConfig::silverthorne(), &timing, mv(500));
        let specs = small_specs();
        let groups: Vec<_> = specs
            .iter()
            .map(|s| (s, vec![base.clone(), iraw.clone()]))
            .collect();
        let want = suites(&[base, iraw], &small_suite(), Parallelism::sequential());
        for workers in [1, 2] {
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let build = |s: &&TraceSpec| {
                let arena = s.build().expect("family presets build");
                let now = live.fetch_add(1, Ordering::Relaxed) + 1;
                peak.fetch_max(now, Ordering::Relaxed);
                Ok::<_, SimError>(Held { arena, live: &live })
            };
            let per_group =
                run_batch_groups(&groups, build, Parallelism::threads(workers)).unwrap();
            assert_eq!(live.load(Ordering::Relaxed), 0, "every arena dropped");
            assert!(peak.load(Ordering::Relaxed) <= workers, "{workers} workers");
            for (c, suite) in want.iter().enumerate() {
                let results: Vec<_> = per_group.iter().map(|g| &g[c]).collect();
                let reference: Vec<_> = suite.per_trace.iter().map(|(_, r)| r).collect();
                assert_eq!(results, reference, "{workers} workers");
            }
        }
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
