//! The public simulator facade.

use lowvcc_trace::Trace;

use crate::batch::decode_trace;
use crate::config::SimConfig;
use crate::error::{ConfigError, SimError};
use crate::pipeline::Engine;
use crate::stats::{SimResult, SimStats};

/// A configured simulator, ready to replay traces.
///
/// ```
/// use lowvcc_core::{CoreConfig, Mechanism, SimConfig, Simulator};
/// use lowvcc_sram::{CycleTimeModel, Millivolts};
/// use lowvcc_trace::{TraceSpec, WorkloadFamily};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let timing = CycleTimeModel::silverthorne_45nm();
/// let vcc = Millivolts::new(500)?;
/// let cfg = SimConfig::at_vcc(CoreConfig::silverthorne(), &timing, vcc, Mechanism::Iraw);
/// let sim = Simulator::new(cfg)?;
/// let trace = TraceSpec::new(WorkloadFamily::Kernel, 0, 2_000).build()?;
/// let result = sim.run(&trace)?;
/// assert_eq!(result.stats.instructions, 2_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator, validating the configuration once.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem found.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Replays `trace` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] for a malformed uop (checked
    /// before anything runs), and [`SimError::NoProgress`] if the engine
    /// detects a live-lock (a simulator bug surfaced rather than a hang).
    pub fn run(&self, trace: &Trace) -> Result<SimResult, SimError> {
        let arena = decode_trace(trace)?;
        let stats = Engine::new(self.cfg.cycle_config())?.run(&arena)?;
        Ok(self.result(stats))
    }

    /// Replays `trace` on the naive cycle-by-cycle reference stepper —
    /// the semantics [`Simulator::run`]'s event-driven fast path must
    /// reproduce bit for bit. Several times slower; exists for the
    /// equivalence suite and for bisecting fast-path regressions.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::run`].
    pub fn run_naive(&self, trace: &Trace) -> Result<SimResult, SimError> {
        let arena = decode_trace(trace)?;
        let stats = Engine::new(self.cfg.cycle_config())?.run_naive(&arena)?;
        Ok(self.result(stats))
    }

    fn result(&self, stats: SimStats) -> SimResult {
        SimResult {
            stats,
            cycle_time: self.cfg.cycle_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, Mechanism};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    #[test]
    fn runs_a_synthetic_trace_end_to_end() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        let sim = Simulator::new(cfg).unwrap();
        let trace = TraceSpec::new(WorkloadFamily::SpecInt, 1, 20_000)
            .build()
            .unwrap();
        let result = sim.run(&trace).unwrap();
        assert_eq!(result.stats.instructions, 20_000);
        assert!(result.stats.ipc() > 0.1 && result.stats.ipc() < 2.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(475),
            Mechanism::Iraw,
        );
        let sim = Simulator::new(cfg).unwrap();
        let trace = TraceSpec::new(WorkloadFamily::Office, 2, 3_000)
            .build()
            .unwrap();
        let a = sim.run(&trace).unwrap();
        let b = sim.run(&trace).unwrap();
        assert_eq!(a.stats, b.stats);
    }

    /// Regression: a load without an address (or destination) used to
    /// reach an `expect` deep in the engine. Both entry points now reject
    /// the trace up front with a typed error.
    #[test]
    fn malformed_trace_is_an_error_not_a_panic() {
        use lowvcc_trace::{Reg, Uop, UopError};
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        let sim = Simulator::new(cfg).unwrap();
        let mut no_addr = Uop::load(0x40, Reg::new(1).unwrap(), None, 0x1000, 8);
        no_addr.addr = None;
        let mut no_dst = Uop::load(0x44, Reg::new(2).unwrap(), None, 0x2000, 8);
        no_dst.dst = None;
        for (bad, index) in [(no_addr, 1), (no_dst, 1)] {
            let trace = Trace::new("bad", vec![Uop::nop(0x3c), bad]);
            for result in [sim.run(&trace), sim.run_naive(&trace)] {
                match result {
                    Err(SimError::InvalidTrace { index: i, source }) => {
                        assert_eq!(i, index);
                        assert!(matches!(
                            source,
                            UopError::MissingAddress { .. } | UopError::MissingDestination { .. }
                        ));
                    }
                    other => panic!("expected InvalidTrace, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let mut cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        cfg.core.iq_entries = 33;
        assert!(Simulator::new(cfg).is_err());
    }
}
