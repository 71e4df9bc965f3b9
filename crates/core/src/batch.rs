//! Build-once/simulate-many batch execution.
//!
//! A voltage sweep replays the *same* trace under many configurations
//! (13 voltage points × up to 3 mechanisms). The grid executor
//! ([`run_batch_groups`](crate::perf::run_batch_groups)) gets each
//! group's [`TraceArena`] when a worker claims the group — synthesized
//! straight into the arena for that group and dropped after it in a
//! batch run, lent from a table a serving daemon keeps — replays every
//! configuration of the group over it, and reuses one [`EngineWorkspace`]
//! per worker across all points, so the steady state of a sweep over a
//! built trace allocates nothing (verified by the counting-allocator
//! test in `tests/zero_alloc.rs`). Every arena is valid when it is built, so
//! nothing here validates a trace again; each configuration is validated
//! by the [`EngineWorkspace::run`] that simulates it.
//!
//! A reused workspace is byte-identical to a fresh engine per run: every
//! [`Engine::reset`] restores the exact freshly-constructed state, and
//! the equivalence suites assert it across traces, mechanisms and worker
//! counts.

use lowvcc_trace::TraceArena;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::pipeline::{Engine, EngineProfile};
use crate::stats::SimResult;

/// A reusable engine slot: scoreboards, timed buffers, pending heaps and
/// stall-guard state live across runs and are `reset()` between them
/// instead of reallocated.
///
/// ```
/// use lowvcc_core::{CoreConfig, EngineWorkspace, Mechanism, SimConfig};
/// use lowvcc_sram::{CycleTimeModel, Millivolts};
/// use lowvcc_trace::{TraceSpec, WorkloadFamily};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let timing = CycleTimeModel::silverthorne_45nm();
/// let arena = TraceSpec::new(WorkloadFamily::Kernel, 0, 2_000).build()?;
/// let mut ws = EngineWorkspace::new();
/// for vcc in [500u32, 525, 550] {
///     let cfg = SimConfig::at_vcc(
///         CoreConfig::silverthorne(),
///         &timing,
///         Millivolts::new(vcc)?,
///         Mechanism::Iraw,
///     );
///     let result = ws.run(&cfg, &arena)?;
///     assert_eq!(result.stats.instructions, 2_000);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineWorkspace {
    engine: Option<Engine>,
}

impl EngineWorkspace {
    /// Creates an empty workspace (the first run builds the engine).
    #[must_use]
    pub fn new() -> Self {
        Self { engine: None }
    }

    /// Runs `cfg` over an already-built trace, reusing the previous
    /// run's engine storage when the core geometry matches (the common
    /// sweep case — only Vcc/mechanism parameters change) and falling
    /// back to a fresh construction otherwise. The engine runs on
    /// [`SimConfig::cycle_config`]; the result carries `cfg`'s own cycle
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and simulation errors.
    pub fn run(&mut self, cfg: &SimConfig, trace: &TraceArena) -> Result<SimResult, SimError> {
        cfg.validate()?;
        let projection = cfg.cycle_config();
        match &mut self.engine {
            Some(engine) if engine.config().core == cfg.core => engine.reset(projection)?,
            slot => *slot = Some(Engine::new(projection)?),
        }
        let stats = self
            .engine
            .as_mut()
            .expect("engine installed above")
            .run(trace)?;
        Ok(SimResult {
            stats,
            cycle_time: cfg.cycle_time,
        })
    }

    /// The engine self-profile of the last run (all zeros before the
    /// first): stepped vs skipped cycles and skip refusals by reason.
    /// Kept out of [`SimResult`], so it never reaches a result key or a
    /// stored record.
    #[must_use]
    pub fn profile(&self) -> EngineProfile {
        self.engine
            .as_ref()
            .map_or_else(EngineProfile::default, Engine::profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, Mechanism};
    use crate::error::ConfigError;
    use crate::sim::Simulator;
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn sweep_cfgs() -> Vec<SimConfig> {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        [450u32, 500, 550]
            .iter()
            .flat_map(|&vcc| {
                let (base, iraw) = SimConfig::mechanism_pair(core, &timing, mv(vcc));
                [base, iraw]
            })
            .collect()
    }

    #[test]
    fn batch_matches_fresh_engines_exactly() {
        let arena = TraceSpec::new(WorkloadFamily::SpecInt, 3, 5_000)
            .build()
            .unwrap();
        let cfgs = sweep_cfgs();
        let mut ws = EngineWorkspace::new();
        for cfg in &cfgs {
            let batched = ws.run(cfg, &arena).unwrap();
            let fresh = Simulator::new(cfg.clone()).unwrap().run(&arena).unwrap();
            assert_eq!(batched, fresh, "{:?} at {:?}", cfg.mechanism, cfg.vcc);
        }
    }

    #[test]
    fn workspace_reruns_same_config_identically() {
        let arena = TraceSpec::new(WorkloadFamily::Kernel, 1, 3_000)
            .build()
            .unwrap();
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        let mut ws = EngineWorkspace::new();
        let a = ws.run(&cfg, &arena).unwrap();
        let b = ws.run(&cfg, &arena).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn geometry_change_falls_back_to_fresh_engine() {
        let arena = TraceSpec::new(WorkloadFamily::Kernel, 2, 2_000)
            .build()
            .unwrap();
        let timing = CycleTimeModel::silverthorne_45nm();
        let mut small = CoreConfig::silverthorne();
        small.iq_entries = 16;
        let a = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        let b = SimConfig::at_vcc(small, &timing, mv(500), Mechanism::Iraw);
        let mut ws = EngineWorkspace::new();
        let ra = ws.run(&a, &arena).unwrap();
        let rb = ws.run(&b, &arena).unwrap();
        let fresh_b = Simulator::new(b).unwrap().run(&arena).unwrap();
        assert_eq!(rb, fresh_b, "rebuilt engine must match fresh");
        let ra2 = ws.run(&a, &arena).unwrap();
        assert_eq!(ra, ra2, "switching back must also match");
    }

    #[test]
    fn an_overflowing_memory_latency_fails_the_run() {
        // specint-000's first off-chip access would add `u64::MAX` cycles.
        let arena = TraceSpec::new(WorkloadFamily::SpecInt, 0, 1_000)
            .build()
            .unwrap();
        let mut instant = sweep_cfgs().remove(0);
        instant.cycle_time = lowvcc_sram::Picoseconds::new(1e-300);
        let mut ws = EngineWorkspace::new();
        let want = Err(SimError::Config(ConfigError::MemoryLatencyTooLong {
            cycles: u64::MAX,
        }));
        assert_eq!(ws.run(&instant, &arena), want, "fresh workspace");
        ws.run(&sweep_cfgs()[0], &arena).unwrap();
        assert_eq!(ws.run(&instant, &arena), want, "reused workspace");
    }

    #[test]
    fn non_finite_clocks_fail_the_run() {
        let arena = TraceSpec::new(WorkloadFamily::SpecInt, 0, 1_000)
            .build()
            .unwrap();
        let mut ws = EngineWorkspace::new();
        for value in [f64::NAN, f64::INFINITY] {
            let mut clock = sweep_cfgs().remove(0);
            clock.cycle_time = lowvcc_sram::Picoseconds::new(value);
            assert_eq!(
                ws.run(&clock, &arena),
                Err(SimError::Config(ConfigError::NonPositiveCycleTime)),
                "cycle time {value}"
            );
            let mut memory = sweep_cfgs().remove(0);
            memory.core.memory_latency_ns = value;
            assert!(
                matches!(
                    ws.run(&memory, &arena),
                    Err(SimError::Config(
                        ConfigError::NonPositiveMemoryLatency { .. }
                    ))
                ),
                "memory latency {value}"
            );
        }
    }

    #[test]
    fn profile_reconciles_with_the_cycle_count() {
        let arena = TraceSpec::new(WorkloadFamily::SpecInt, 4, 6_000)
            .build()
            .unwrap();
        let mut ws = EngineWorkspace::new();
        assert_eq!(ws.profile(), EngineProfile::default());
        for cfg in sweep_cfgs() {
            let result = ws.run(&cfg, &arena).unwrap();
            let p = ws.profile();
            assert_eq!(
                p.stepped_cycles + p.skipped_cycles,
                result.stats.cycles,
                "{:?} at {:?}",
                cfg.mechanism,
                cfg.vcc
            );
            assert!(p.skips > 0 && p.skipped_cycles >= p.skips);
            // After every stepped cycle the fast path either skips or
            // refuses for exactly one reason — except after the last,
            // when the run is finished.
            assert_eq!(p.skips + p.refusals() + 1, p.stepped_cycles);
        }
    }

    #[test]
    fn naive_runs_never_skip_and_reset_clears_the_profile() {
        let arena = TraceSpec::new(WorkloadFamily::Office, 5, 3_000)
            .build()
            .unwrap();
        let cfgs = sweep_cfgs();
        let cfg = cfgs[1].cycle_config();
        let mut engine = Engine::new(cfg.clone()).unwrap();
        let naive = engine.run_naive(&arena).unwrap();
        let p = engine.profile();
        assert_eq!(p.skipped_cycles, 0);
        assert_eq!(p.skips + p.refusals(), 0, "the naive stepper never asks");
        assert_eq!(p.stepped_cycles, naive.cycles);
        let fast = Engine::new(cfg.clone()).unwrap().run(&arena).unwrap();
        assert_eq!(fast, naive);
        engine.reset(cfg.clone()).unwrap();
        let fresh = Engine::new(cfg).unwrap();
        assert_eq!(engine.profile(), fresh.profile());
        assert_eq!(fresh.profile(), EngineProfile::default());
    }

    #[test]
    fn invalid_config_is_reported() {
        let arena = TraceSpec::new(WorkloadFamily::Kernel, 0, 100)
            .build()
            .unwrap();
        let timing = CycleTimeModel::silverthorne_45nm();
        let mut cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        cfg.core.iq_entries = 33;
        let mut ws = EngineWorkspace::new();
        assert!(ws.run(&cfg, &arena).is_err());
    }
}
