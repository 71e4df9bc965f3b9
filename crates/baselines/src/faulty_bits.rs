//! The **Faulty Bits** baseline (paper §2.2, Table 1).
//!
//! Instead of margining every SRAM cell at 6σ, clock the array faster
//! (e.g., at the 4σ write delay) and disable the cache lines containing
//! cells beyond the margin. The paper's Table 1 charges this technique
//! with four costs, all modelled here:
//!
//! * **Not applicable to all blocks** — the register file of an in-order
//!   core needs *every* entry, so with [`FaultyBitsScope::CachesOnly`] the
//!   core clock stays limited by the RF's full 6σ write delay and the
//!   technique gains nothing at the core level. The
//!   [`FaultyBitsScope::AllBlocksHypothetical`] scope quantifies the
//!   what-if where faults were tolerable everywhere.
//! * **Fault maps** — one disable bit per line per supported Vcc level
//!   (~50× the IRAW hardware; see `lowvcc_energy::FaultyBitsOverhead`).
//! * **IPC impact** — disabled lines shrink cache capacity; measured by
//!   simulation via `SimConfig::disabled_lines`.
//! * **Testing indeterminism** — disabled hardware makes lock-step
//!   multi-core test comparison ambiguous (a flag here; nothing to
//!   simulate).

use lowvcc_core::{CoreConfig, Mechanism, SimConfig};
use lowvcc_sram::variation::{cell_fail_probability, line_fail_probability};
use lowvcc_sram::{Bitcell8T, CycleTimeModel, Millivolts, Picoseconds};

/// Which blocks the fault maps may cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultyBitsScope {
    /// Realistic: caches only. The RF still needs 6σ margin, so the core
    /// clock cannot be raised — the paper's "does not work for all SRAM
    /// blocks" row.
    CachesOnly,
    /// What-if: every block tolerates faults, so the clock runs at the
    /// reduced-σ write delay and the caches lose the disabled lines.
    AllBlocksHypothetical,
}

/// A Faulty Bits design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyBitsDesign {
    /// Write-margin in σ (the paper's example alternative to 6σ: 4σ).
    pub sigma: f64,
    /// Block coverage.
    pub scope: FaultyBitsScope,
}

impl FaultyBitsDesign {
    /// The canonical 4σ design discussed by the paper.
    #[must_use]
    pub fn four_sigma(scope: FaultyBitsScope) -> Self {
        Self { sigma: 4.0, scope }
    }

    /// Cycle time at `vcc` under this design.
    #[must_use]
    pub fn cycle_time(&self, timing: &CycleTimeModel, vcc: Millivolts) -> Picoseconds {
        match self.scope {
            FaultyBitsScope::CachesOnly => timing.baseline_cycle(vcc),
            FaultyBitsScope::AllBlocksHypothetical => {
                timing.write_limited_cycle_at_sigma(vcc, self.sigma)
            }
        }
    }

    /// Clock-frequency gain over the 6σ write-limited baseline.
    #[must_use]
    pub fn frequency_gain(&self, timing: &CycleTimeModel, vcc: Millivolts) -> f64 {
        timing.baseline_cycle(vcc) / self.cycle_time(timing, vcc)
    }

    /// Per-cell write-fail probability at this design's clock.
    #[must_use]
    pub fn cell_fail_probability(&self, timing: &CycleTimeModel, vcc: Millivolts) -> f64 {
        let budget = self.write_budget(timing, vcc);
        cell_fail_probability(timing.bitcell(), vcc, budget)
    }

    /// Bitcell write-time budget: half the cycle minus wordline activation.
    fn write_budget(&self, timing: &CycleTimeModel, vcc: Millivolts) -> Picoseconds {
        let phase = self.cycle_time(timing, vcc) * 0.5;
        let wl = timing.wordline_delay(vcc);
        Picoseconds::new((phase - wl).picos().max(1.0))
    }

    /// Expected number of disabled lines in `(IL0, DL0, UL1)` at `vcc`
    /// (64-byte lines ⇒ 538 bits of data+tag per line).
    #[must_use]
    pub fn expected_disabled_lines(
        &self,
        timing: &CycleTimeModel,
        vcc: Millivolts,
        core: &CoreConfig,
    ) -> (usize, usize, usize) {
        let budget = self.write_budget(timing, vcc);
        let bits_per_line = 512 + 26;
        let p = line_fail_probability(timing.bitcell(), vcc, budget, bits_per_line);
        let lines = |cache: &lowvcc_uarch::cache::CacheConfig| {
            let n = cache.size_bytes / cache.line_bytes;
            // Expected value, rounded to the nearest whole line.
            (p * n as f64).round() as usize
        };
        (lines(&core.il0), lines(&core.dl0), lines(&core.ul1))
    }

    /// Builds the simulation configuration for this design at `vcc`.
    #[must_use]
    pub fn sim_config(
        &self,
        core: CoreConfig,
        timing: &CycleTimeModel,
        vcc: Millivolts,
        fault_seed: u64,
    ) -> SimConfig {
        let mut cfg = SimConfig::at_vcc(core, timing, vcc, Mechanism::Baseline);
        cfg.cycle_time = self.cycle_time(timing, vcc);
        cfg.disabled_lines = self.expected_disabled_lines(timing, vcc, &core);
        cfg.fault_seed = fault_seed;
        cfg
    }

    /// Whether this design introduces post-silicon testing indeterminism
    /// (Table 1's "hard to test" row): disabled hardware differs per die.
    #[must_use]
    pub fn testing_indeterminism(&self) -> bool {
        true
    }
}

/// Convenience re-export: the bitcell the σ math runs on.
#[must_use]
pub fn bitcell() -> Bitcell8T {
    Bitcell8T::silverthorne_45nm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::mv;

    fn timing() -> CycleTimeModel {
        CycleTimeModel::silverthorne_45nm()
    }

    #[test]
    fn caches_only_scope_gains_nothing() {
        // The paper's core argument: the RF pins the clock, so realistic
        // Faulty Bits cannot raise core frequency at all.
        let d = FaultyBitsDesign::four_sigma(FaultyBitsScope::CachesOnly);
        for v in [575, 500, 450, 400] {
            assert!((d.frequency_gain(&timing(), mv(v)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hypothetical_scope_buys_frequency_with_faults() {
        let d = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
        let t = timing();
        let v = mv(450);
        let gain = d.frequency_gain(&t, v);
        assert!(gain > 1.1, "4σ margin must clock faster, got {gain:.3}");
        // And the price: a real fail probability per cell near Φ̄(4).
        let p = d.cell_fail_probability(&t, v);
        assert!(p > 1e-6 && p < 1e-3, "p_cell {p:e}");
        let (il0, dl0, ul1) = d.expected_disabled_lines(&t, v, &CoreConfig::silverthorne());
        assert!(ul1 > il0, "the big UL1 loses the most lines");
        assert!(il0 + dl0 + ul1 > 0, "some lines must be mapped out");
    }

    #[test]
    fn six_sigma_design_disables_nothing() {
        let d = FaultyBitsDesign {
            sigma: 6.0,
            scope: FaultyBitsScope::AllBlocksHypothetical,
        };
        let t = timing();
        let (il0, dl0, ul1) = d.expected_disabled_lines(&t, mv(500), &CoreConfig::silverthorne());
        assert_eq!((il0, dl0, ul1), (0, 0, 0));
        assert!((d.frequency_gain(&t, mv(500)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sim_config_carries_faults_and_clock() {
        let d = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
        let t = timing();
        let cfg = d.sim_config(CoreConfig::silverthorne(), &t, mv(425), 7);
        assert!(cfg.cycle_time < t.baseline_cycle(mv(425)));
        assert!(
            !cfg.cycle_config().iraw_active(),
            "Faulty Bits needs no IRAW stalls"
        );
        assert_eq!(cfg.fault_seed, 7);
        cfg.validate().unwrap();
        assert!(d.testing_indeterminism());
    }

    #[test]
    fn lower_sigma_means_more_faults_and_more_speed() {
        let t = timing();
        let v = mv(450);
        let d3 = FaultyBitsDesign {
            sigma: 3.0,
            scope: FaultyBitsScope::AllBlocksHypothetical,
        };
        let d5 = FaultyBitsDesign {
            sigma: 5.0,
            scope: FaultyBitsScope::AllBlocksHypothetical,
        };
        assert!(d3.frequency_gain(&t, v) > d5.frequency_gain(&t, v));
        assert!(d3.cell_fail_probability(&t, v) > d5.cell_fail_probability(&t, v));
    }
}
