//! Core configuration: the Silverthorne-like in-order machine and the
//! clocking/mechanism choices of one simulation.

use lowvcc_sram::{CycleTimeModel, Millivolts, Picoseconds, TimingLimiter};
use lowvcc_uarch::cache::CacheConfig;

use crate::error::ConfigError;

/// Static machine parameters (structure sizes, widths, latencies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions allocated to the IQ per cycle (the paper's `AI`).
    pub alloc_width: usize,
    /// Oldest instructions considered for issue (the paper's `ICI`).
    pub issue_width: usize,
    /// IQ capacity (power of two).
    pub iq_entries: usize,
    /// Depth of the front end between fetch and IQ allocation.
    pub front_end_stages: u32,
    /// Bypass network levels (the paper's example uses 1).
    pub bypass_levels: u32,
    /// Scoreboard shift-register width in bits (baseline width + the two
    /// IRAW extension bits).
    pub scoreboard_width: u32,
    /// First-level instruction cache.
    pub il0: CacheConfig,
    /// First-level data cache.
    pub dl0: CacheConfig,
    /// Unified second-level cache.
    pub ul1: CacheConfig,
    /// Instruction TLB entries.
    pub itlb_entries: usize,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// Branch predictor entries (2-bit counters).
    pub bp_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Return stack entries.
    pub rsb_entries: usize,
    /// Fill buffer entries.
    pub fb_entries: usize,
    /// Write-combining / eviction buffer entries.
    pub wcb_entries: usize,
    /// Store Table physical entries (sized for the largest `N`).
    pub stable_max_entries: usize,
    /// Single-cycle integer ALU latency.
    pub lat_alu: u32,
    /// Pipelined integer multiply latency.
    pub lat_mul: u32,
    /// Unpipelined integer divide latency.
    pub lat_div: u32,
    /// FP add latency.
    pub lat_fp_add: u32,
    /// FP multiply latency.
    pub lat_fp_mul: u32,
    /// Unpipelined FP divide latency.
    pub lat_fp_div: u32,
    /// DL0 load-to-use latency (hit).
    pub lat_dl0_hit: u32,
    /// UL1 access latency (cycles; on-chip SRAM scales with the clock).
    pub lat_ul1: u32,
    /// Page-walk penalty on a TLB miss (cycles).
    pub page_walk_cycles: u32,
    /// Front-end redirect penalty on a mispredicted branch (cycles).
    pub mispredict_penalty: u32,
    /// Off-chip memory latency in nanoseconds — **constant in time**, so
    /// its cycle count grows with frequency (paper §5.2 observation (i)).
    pub memory_latency_ns: f64,
}

impl CoreConfig {
    /// The Silverthorne-like preset used throughout the evaluation:
    /// 2-wide in-order, 32-entry IQ, 32 KB IL0 / 24 KB DL0 / 512 KB UL1,
    /// 16-entry TLBs, 4K-entry bimodal BP, 8-entry RSB/FB/WCB.
    #[must_use]
    pub fn silverthorne() -> Self {
        Self {
            fetch_width: 2,
            alloc_width: 2,
            issue_width: 2,
            iq_entries: 32,
            front_end_stages: 6,
            bypass_levels: 1,
            scoreboard_width: 7,
            il0: CacheConfig::silverthorne_il0(),
            dl0: CacheConfig::silverthorne_dl0(),
            ul1: CacheConfig::silverthorne_ul1(),
            itlb_entries: 16,
            dtlb_entries: 16,
            bp_entries: 4096,
            btb_entries: 512,
            rsb_entries: 8,
            fb_entries: 8,
            wcb_entries: 8,
            stable_max_entries: 2,
            lat_alu: 1,
            lat_mul: 4,
            lat_div: 16,
            lat_fp_add: 4,
            lat_fp_mul: 4,
            lat_fp_div: 24,
            lat_dl0_hit: 3,
            lat_ul1: 9,
            page_walk_cycles: 30,
            mispredict_penalty: 11,
            memory_latency_ns: 90.0,
        }
    }

    /// Validates widths and structure sizes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 || self.alloc_width == 0 || self.issue_width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        if !self.iq_entries.is_power_of_two() {
            return Err(ConfigError::IqNotPowerOfTwo {
                entries: self.iq_entries,
            });
        }
        for (which, cache) in [("IL0", &self.il0), ("DL0", &self.dl0), ("UL1", &self.ul1)] {
            cache
                .validate()
                .map_err(|source| ConfigError::Cache { which, source })?;
        }
        if self.scoreboard_width < self.bypass_levels + 2 {
            return Err(ConfigError::ScoreboardMissingWindowBits {
                width: self.scoreboard_width,
                bypass_levels: self.bypass_levels,
            });
        }
        if self.stable_max_entries == 0 {
            return Err(ConfigError::NoStoreTableEntries);
        }
        if !(self.memory_latency_ns.is_finite() && self.memory_latency_ns > 0.0) {
            return Err(ConfigError::NonPositiveMemoryLatency {
                latency_ns: self.memory_latency_ns,
            });
        }
        Ok(())
    }

    /// Execution latency of a uop kind.
    #[must_use]
    pub fn latency_of(&self, kind: lowvcc_trace::UopKind) -> u32 {
        use lowvcc_trace::UopKind::{
            Branch, Call, FpAdd, FpDiv, FpMul, IntAlu, IntDiv, IntMul, Load, Nop, Ret, Store,
        };
        match kind {
            IntAlu | Branch | Call | Ret | Nop | Store => self.lat_alu,
            IntMul => self.lat_mul,
            IntDiv => self.lat_div,
            FpAdd => self.lat_fp_add,
            FpMul => self.lat_fp_mul,
            FpDiv => self.lat_fp_div,
            Load => self.lat_dl0_hit,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::silverthorne()
    }
}

/// Which clocking discipline and avoidance hardware a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Conventional write-limited clock; no IRAW hardware, no stalls.
    Baseline,
    /// IRAW avoidance: interrupted writes, faster clock, `N`-cycle
    /// stabilization enforced by the per-block mechanisms.
    Iraw,
    /// Logic-limited clock with no SRAM-safety mechanism at all — the
    /// unconstrained reference of Figures 11a/12 (not buildable silicon
    /// below the write crossover; used for reference curves only).
    IdealLogic,
}

/// Full per-run simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Machine parameters.
    pub core: CoreConfig,
    /// Supply voltage of the run.
    pub vcc: Millivolts,
    /// Mechanism in force.
    pub mechanism: Mechanism,
    /// Cycle time (derived from `mechanism` + `vcc` via
    /// [`SimConfig::at_vcc`], or overridden for the baseline crates).
    pub cycle_time: Picoseconds,
    /// Stabilization cycles `N` (0 disables every IRAW mechanism).
    pub stabilization_cycles: u32,
    /// Extra cycles each register-file write occupies its write port
    /// (Extra Bypass baseline: 1; otherwise 0).
    pub extra_write_port_cycles: u32,
    /// Cache lines to disable per cache (Faulty Bits baseline), as
    /// `(il0, dl0, ul1)` line counts.
    pub disabled_lines: (usize, usize, usize),
    /// Seed for fault-map placement.
    pub fault_seed: u64,
}

impl SimConfig {
    /// Builds the canonical configuration for `mechanism` at `vcc` using
    /// the calibrated timing model: cycle time from the limiter, `N` from
    /// the stabilization model (IRAW only).
    #[must_use]
    pub fn at_vcc(
        core: CoreConfig,
        timing: &CycleTimeModel,
        vcc: Millivolts,
        mechanism: Mechanism,
    ) -> Self {
        let (limiter, n) = match mechanism {
            Mechanism::Baseline => (TimingLimiter::WriteLimited, 0),
            Mechanism::Iraw => (TimingLimiter::Iraw, timing.stabilization_cycles(vcc)),
            Mechanism::IdealLogic => (TimingLimiter::Logic, 0),
        };
        Self {
            core,
            vcc,
            mechanism,
            cycle_time: timing.cycle_time(vcc, limiter),
            stabilization_cycles: n,
            extra_write_port_cycles: 0,
            disabled_lines: (0, 0, 0),
            fault_seed: 0,
        }
    }

    /// Builds the (Baseline, Iraw) configuration pair at `vcc` — the two
    /// runs every sweep point compares. The single construction site for
    /// the voltage→config mapping shared by the sweep, the mechanism
    /// comparison, and the batched sweep grid.
    #[must_use]
    pub fn mechanism_pair(
        core: CoreConfig,
        timing: &CycleTimeModel,
        vcc: Millivolts,
    ) -> (Self, Self) {
        (
            Self::at_vcc(core, timing, vcc, Mechanism::Baseline),
            Self::at_vcc(core, timing, vcc, Mechanism::Iraw),
        )
    }

    /// The cycle-level projection: everything the engine reads of this
    /// configuration. The one rule for "same behaviour" — two configs
    /// with equal projections produce equal [`SimStats`] on any trace,
    /// so the result key, the grid runner's dedup
    /// ([`same_projection_as`](crate::perf::same_projection_as)) and the
    /// engine itself all go through this.
    ///
    /// `fault_seed` only places disabled lines, so a config that
    /// disables none projects with seed 0.
    ///
    /// [`SimStats`]: crate::stats::SimStats
    #[must_use]
    pub fn cycle_config(&self) -> CycleConfig {
        let places_lines = self.disabled_lines != (0, 0, 0);
        CycleConfig {
            core: self.core,
            stabilization_cycles: self.stabilization_cycles,
            extra_write_port_cycles: self.extra_write_port_cycles,
            disabled_lines: self.disabled_lines,
            fault_seed: if places_lines { self.fault_seed } else { 0 },
            memory_latency_cycles: (self.core.memory_latency_ns * 1000.0 / self.cycle_time.picos())
                .ceil() as u64,
        }
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Checks the cycle time, then propagates [`CycleConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let picos = self.cycle_time.picos();
        if !(picos.is_finite() && picos > 0.0) {
            return Err(ConfigError::NonPositiveCycleTime);
        }
        self.cycle_config().validate()
    }
}

/// The longest off-chip latency, in cycles, a configuration may ask for.
/// The memory model adds it to a cycle count and the UL1 latency, so the
/// bound keeps every completion cycle far inside `u64`; a real clock
/// (90 ns at even 1 ps per cycle is 90,000 cycles) never comes near it.
pub const MAX_MEMORY_LATENCY_CYCLES: u64 = u32::MAX as u64;

/// What one simulation *is*, in cycles: the projection of a [`SimConfig`]
/// the engine runs on ([`SimConfig::cycle_config`]). Supply voltage,
/// mechanism and cycle time are not here — the clock reaches the engine
/// only as `memory_latency_cycles` — so, e.g., the IRAW run at ≥600 mV
/// (`N = 0`, baseline clock) projects equal to the baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleConfig {
    /// Machine parameters.
    pub core: CoreConfig,
    /// Stabilization cycles `N` (0 disables every IRAW mechanism).
    pub stabilization_cycles: u32,
    /// Extra cycles each register-file write occupies its write port.
    pub extra_write_port_cycles: u32,
    /// Cache lines disabled per cache, as `(il0, dl0, ul1)` line counts.
    pub disabled_lines: (usize, usize, usize),
    /// Seed for fault-map placement.
    pub fault_seed: u64,
    /// Off-chip memory latency in cycles at the run's clock (the
    /// constant-time `core.memory_latency_ns`, rounded up to cycles).
    pub memory_latency_cycles: u64,
}

impl CycleConfig {
    /// Whether any IRAW avoidance hardware is active.
    #[must_use]
    pub fn iraw_active(&self) -> bool {
        self.stabilization_cycles > 0
    }

    /// Validates the machine, the stabilization window and the memory
    /// latency.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreConfig::validate`], checks that every
    /// short-latency producer pattern fits the scoreboard, and that the
    /// memory latency is at most [`MAX_MEMORY_LATENCY_CYCLES`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.core.validate()?;
        // Every short-latency producer pattern must fit the shift register
        // with a trailing ready bit: latency + bypass + N < width. Longer
        // producers (divides, load misses) use completion events instead.
        let max_short = self
            .core
            .lat_alu
            .max(self.core.lat_mul)
            .max(self.core.lat_fp_add)
            .max(self.core.lat_fp_mul)
            .max(self.core.lat_dl0_hit);
        if max_short + self.core.bypass_levels + self.stabilization_cycles
            >= self.core.scoreboard_width
        {
            return Err(ConfigError::ScoreboardTooNarrow {
                width: self.core.scoreboard_width,
                max_latency: max_short,
                bypass_levels: self.core.bypass_levels,
                stabilization_cycles: self.stabilization_cycles,
            });
        }
        if self.memory_latency_cycles > MAX_MEMORY_LATENCY_CYCLES {
            return Err(ConfigError::MemoryLatencyTooLong {
                cycles: self.memory_latency_cycles,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::mv;
    use lowvcc_trace::UopKind;

    #[test]
    fn silverthorne_preset_validates() {
        let cfg = CoreConfig::silverthorne();
        cfg.validate().unwrap();
        assert_eq!(cfg.issue_width, 2);
        assert_eq!(cfg.iq_entries, 32);
    }

    #[test]
    fn latency_table_covers_all_kinds() {
        let cfg = CoreConfig::silverthorne();
        for kind in UopKind::all() {
            assert!(cfg.latency_of(kind) >= 1);
        }
        assert!(cfg.latency_of(UopKind::IntDiv) > cfg.latency_of(UopKind::IntMul));
        assert_eq!(cfg.latency_of(UopKind::Load), cfg.lat_dl0_hit);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = CoreConfig::silverthorne();
        cfg.iq_entries = 30;
        assert!(cfg.validate().is_err());
        let mut cfg2 = CoreConfig::silverthorne();
        cfg2.scoreboard_width = 2;
        assert!(cfg2.validate().is_err());
        let mut cfg3 = CoreConfig::silverthorne();
        cfg3.memory_latency_ns = 0.0;
        assert!(cfg3.validate().is_err());
    }

    #[test]
    fn at_vcc_derives_clock_and_n() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let base = SimConfig::at_vcc(core, &timing, mv(500), Mechanism::Baseline);
        let iraw = SimConfig::at_vcc(core, &timing, mv(500), Mechanism::Iraw);
        let ideal = SimConfig::at_vcc(core, &timing, mv(500), Mechanism::IdealLogic);
        assert!(base.cycle_time > iraw.cycle_time);
        assert!(iraw.cycle_time > ideal.cycle_time);
        assert_eq!(base.stabilization_cycles, 0);
        assert_eq!(iraw.stabilization_cycles, 1);
        assert!(iraw.cycle_config().iraw_active());
        assert!(!base.cycle_config().iraw_active());
        base.validate().unwrap();
    }

    #[test]
    fn iraw_off_at_600mv_and_above() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let cfg = SimConfig::at_vcc(core, &timing, mv(600), Mechanism::Iraw);
        assert_eq!(cfg.stabilization_cycles, 0, "paper §4.1.3 rule");
    }

    #[test]
    fn an_overflowing_memory_latency_is_rejected() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let mut cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        // 90 ns at 1e-300 ps per cycle saturates to `u64::MAX` cycles.
        cfg.cycle_time = Picoseconds::new(1e-300);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MemoryLatencyTooLong { cycles: u64::MAX })
        );
        // The bound itself is accepted, one cycle past it is not.
        let mut cycles = cfg.cycle_config();
        cycles.memory_latency_cycles = MAX_MEMORY_LATENCY_CYCLES;
        assert_eq!(cycles.validate(), Ok(()));
        cycles.memory_latency_cycles += 1;
        assert!(cycles.validate().is_err());
    }

    #[test]
    fn memory_cycles_scale_with_frequency() {
        // Constant-time memory: the faster IRAW clock sees *more* cycles of
        // latency at high Vcc, and far fewer at the collapsed baseline
        // clock at low Vcc.
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let fast = SimConfig::at_vcc(core, &timing, mv(700), Mechanism::IdealLogic);
        let slow = SimConfig::at_vcc(core, &timing, mv(400), Mechanism::Baseline);
        assert!(fast.cycle_config().memory_latency_cycles > 100);
        assert!(slow.cycle_config().memory_latency_cycles < 10);
    }
}
