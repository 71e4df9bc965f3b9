//! The **Extra Bypass** baseline (paper §2.2, Table 1).
//!
//! Clock above the write delay and pipeline each SRAM write across two
//! cycles, adding a bypass level so consumers can still obtain in-flight
//! values. The paper's Table 1 charges it with:
//!
//! * **Not applicable to all blocks** — bypassing requires knowing *who*
//!   will consume the written data; cache-like structures learn addresses
//!   too late. With [`ExtraBypassScope::RegisterFileOnly`] the caches pin
//!   the clock at the full write delay and the core gains nothing.
//! * **No Vcc adaptability** — the extra latches/wires are in place (and
//!   burning energy, and deepening the bypass mux) at *every* Vcc level.
//! * **High hardware overhead** — up to 128/256-bit latches per write
//!   port (see `lowvcc_energy::ExtraBypassOverhead`: most of a datapath's
//!   worth of latches).
//! * **IPC impact** — each write occupies its port for two cycles; the
//!   resulting contention is simulated via
//!   `SimConfig::extra_write_port_cycles`.

use lowvcc_core::{CoreConfig, Mechanism, SimConfig};
use lowvcc_energy::ExtraBypassOverhead;
use lowvcc_sram::fo4::PHASE_FO4;
use lowvcc_sram::{CycleTimeModel, Millivolts, Picoseconds};

/// Which blocks can pipeline their writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtraBypassScope {
    /// Realistic: only the register file (consumers known at issue).
    /// Cache fills still need single-cycle writes, pinning the clock.
    RegisterFileOnly,
    /// What-if: every SRAM write pipelines across two cycles.
    AllBlocksHypothetical,
}

/// An Extra Bypass design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtraBypassDesign {
    /// Extra bypass network levels added (1 in the paper's discussion).
    pub extra_levels: u32,
    /// Cycles a write occupies its port (2 = pipelined over two cycles).
    pub write_pipeline_cycles: u32,
    /// Block coverage.
    pub scope: ExtraBypassScope,
}

impl ExtraBypassDesign {
    /// The canonical two-cycle-write, one-extra-level design.
    #[must_use]
    pub fn two_cycle(scope: ExtraBypassScope) -> Self {
        Self {
            extra_levels: 1,
            write_pipeline_cycles: 2,
            scope,
        }
    }

    /// Cycle time at `vcc`: the deeper bypass mux adds FO4 stages to the
    /// logic path, and a write pipelined over `k` cycles has `2k − 1`
    /// phases to finish (it starts in the second phase of its first
    /// cycle).
    #[must_use]
    pub fn cycle_time(&self, timing: &CycleTimeModel, vcc: Millivolts) -> Picoseconds {
        let mux_factor = f64::from(PHASE_FO4 + self.extra_levels) / f64::from(PHASE_FO4);
        let logic_phase = timing.phase(vcc).picos() * mux_factor;
        let read_phase = timing.read_phase(vcc).picos();
        let phase = match self.scope {
            ExtraBypassScope::RegisterFileOnly => {
                // Cache-like blocks cannot pipeline writes: the full write
                // path still limits the phase.
                logic_phase
                    .max(read_phase)
                    .max(timing.write_phase(vcc).picos())
            }
            ExtraBypassScope::AllBlocksHypothetical => {
                let phases_available = f64::from(2 * self.write_pipeline_cycles - 1);
                logic_phase
                    .max(read_phase)
                    .max(timing.write_phase(vcc).picos() / phases_available)
            }
        };
        Picoseconds::new(phase * 2.0)
    }

    /// Clock-frequency gain over the write-limited baseline.
    #[must_use]
    pub fn frequency_gain(&self, timing: &CycleTimeModel, vcc: Millivolts) -> f64 {
        timing.baseline_cycle(vcc) / self.cycle_time(timing, vcc)
    }

    /// The hardware inventory of this design.
    #[must_use]
    pub fn overhead(&self) -> ExtraBypassOverhead {
        ExtraBypassOverhead {
            extra_levels: u64::from(self.extra_levels),
            ..ExtraBypassOverhead::silverthorne()
        }
    }

    /// Builds the simulation configuration at `vcc`: faster clock, an
    /// extra bypass level in the scoreboard patterns, and two-cycle write
    /// ports.
    #[must_use]
    pub fn sim_config(
        &self,
        core: CoreConfig,
        timing: &CycleTimeModel,
        vcc: Millivolts,
    ) -> SimConfig {
        let mut core = core;
        core.bypass_levels += self.extra_levels;
        let mut cfg = SimConfig::at_vcc(core, timing, vcc, Mechanism::Baseline);
        cfg.cycle_time = self.cycle_time(timing, vcc);
        cfg.extra_write_port_cycles = self.write_pipeline_cycles - 1;
        cfg
    }

    /// Extra Bypass keeps testing deterministic (Table 1's one advantage).
    #[must_use]
    pub fn testing_indeterminism(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::mv;

    fn timing() -> CycleTimeModel {
        CycleTimeModel::silverthorne_45nm()
    }

    #[test]
    fn rf_only_scope_gains_nothing() {
        let d = ExtraBypassDesign::two_cycle(ExtraBypassScope::RegisterFileOnly);
        let t = timing();
        for v in [575, 500, 450, 400] {
            let gain = d.frequency_gain(&t, mv(v));
            assert!(
                gain <= 1.0 + 1e-12,
                "caches pin the clock; got gain {gain:.3} at {v} mV"
            );
        }
    }

    #[test]
    fn hypothetical_scope_gains_but_pays_mux_delay() {
        let d = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
        let t = timing();
        let gain_500 = d.frequency_gain(&t, mv(500));
        assert!(
            gain_500 > 1.3,
            "two-cycle writes unlock the clock: {gain_500:.3}"
        );
        // At high Vcc (logic-limited) the deeper mux makes it *slower*
        // than the baseline — the "costs paid at any Vcc level" row.
        let gain_700 = d.frequency_gain(&t, mv(700));
        assert!(gain_700 < 1.0, "mux penalty at 700 mV: {gain_700:.3}");
    }

    #[test]
    fn sim_config_wires_contention_and_bypass() {
        let d = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
        let t = timing();
        let cfg = d.sim_config(CoreConfig::silverthorne(), &t, mv(500));
        assert_eq!(cfg.extra_write_port_cycles, 1);
        assert_eq!(cfg.core.bypass_levels, 2);
        assert!(!cfg.cycle_config().iraw_active());
        cfg.validate().unwrap();
        assert!(!d.testing_indeterminism());
    }

    #[test]
    fn overhead_is_datapath_scale() {
        let d = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
        assert!(d.overhead().datapath_area_fraction() > 0.5);
    }

    #[test]
    fn deeper_write_pipelines_relax_the_write_constraint() {
        let t = timing();
        let v = mv(400);
        let two = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
        let three = ExtraBypassDesign {
            write_pipeline_cycles: 3,
            ..two
        };
        assert!(three.cycle_time(&t, v) <= two.cycle_time(&t, v));
    }
}
