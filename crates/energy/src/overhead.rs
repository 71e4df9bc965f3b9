//! Extra-hardware inventories: area and energy overhead of each mechanism.
//!
//! The paper estimates its IRAW hardware at latch-sized bits (citing latch
//! designs \[16, 23\]) and applies a *pessimistic 20× activity factor* for
//! power, concluding **<0.1% area (0.03%) and <1% energy** overhead. This
//! module reproduces that accounting from an explicit bit inventory, and
//! provides the analogous inventories for the two Table 1 comparators
//! (Faulty Bits fault maps, Extra Bypass latches/wires).

/// SRAM bits of the whole Silverthorne core (paper Figure 3), the
/// denominator of every area fraction here. Every cache-like block stores
/// 64-byte lines plus 26 tag/state bits: IL0 (512 lines), DL0 (384),
/// UL1 (8192), the write-combining/eviction and fill buffers (8 each).
/// Then the two 16 × 64-bit TLBs, the 32 × 80-bit IQ, the 64 × 64-bit
/// register file, the 4K × 2-bit predictor and the 8 × 32-bit return
/// stack. The caches dominate: UL1 alone is over 80% of the total.
const CORE_SRAM_BITS: u64 =
    (512 + 384 + 8192 + 8 + 8) * (512 + 26) + 2 * 16 * 64 + 32 * 80 + 64 * 64 + 4096 * 2 + 8 * 32;

/// Area of a latch bit relative to an 8-T SRAM bitcell.
pub const LATCH_AREA_FACTOR: f64 = 4.0;

/// The paper's pessimistic switching-activity factor for the extra
/// hardware, relative to an average core SRAM bit.
pub const ACTIVITY_FACTOR: f64 = 20.0;

/// Bit inventory of the IRAW avoidance hardware (paper §4).
///
/// ```
/// use lowvcc_energy::IrawOverhead;
///
/// let ovh = IrawOverhead::silverthorne();
/// // Paper §5.3: ~0.03% extra area, <1% extra energy.
/// assert!(ovh.area_fraction() < 0.001);
/// assert!(ovh.dynamic_energy_factor() < 1.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrawOverhead {
    /// Scoreboard shift-register extension: 2 extra bits (1 bypass level +
    /// 1 bubble cycle) per logical register.
    pub scoreboard_bits: u64,
    /// IQ occupancy threshold logic of Figure 9 (adders, comparator, `N`
    /// register, `stall issue?` flag), in latch-bit equivalents.
    pub iq_logic_bits: u64,
    /// Store Table: `stores/cycle × N_max` entries of valid + address +
    /// widest store data (paper §4.4), built from latch cells.
    pub stable_bits: u64,
    /// Post-fill stall counters for the infrequently written blocks.
    pub stall_counter_bits: u64,
    /// Per-Vcc configuration registers (`N`, enables).
    pub config_bits: u64,
}

impl IrawOverhead {
    /// The Silverthorne inventory used by the paper's implementation:
    /// 64 logical registers, 32-entry IQ, 1 store/cycle with `N_max = 2`,
    /// six stall-guarded blocks.
    #[must_use]
    pub fn silverthorne() -> Self {
        Self {
            scoreboard_bits: 64 * 2,
            iq_logic_bits: 24,
            stable_bits: 2 * (1 + 32 + 64),
            stall_counter_bits: 6 * 2,
            config_bits: 8,
        }
    }

    /// Total extra latch bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.scoreboard_bits
            + self.iq_logic_bits
            + self.stable_bits
            + self.stall_counter_bits
            + self.config_bits
    }

    /// Extra area as a fraction of total core SRAM area
    /// (latch bits weighted by [`LATCH_AREA_FACTOR`]).
    #[must_use]
    pub fn area_fraction(&self) -> f64 {
        self.total_bits() as f64 * LATCH_AREA_FACTOR / CORE_SRAM_BITS as f64
    }

    /// Multiplier on core dynamic energy from the extra hardware, using the
    /// paper's pessimistic 20× activity factor.
    #[must_use]
    pub fn dynamic_energy_factor(&self) -> f64 {
        1.0 + self.total_bits() as f64 * LATCH_AREA_FACTOR * ACTIVITY_FACTOR / CORE_SRAM_BITS as f64
    }
}

impl Default for IrawOverhead {
    fn default() -> Self {
        Self::silverthorne()
    }
}

/// Fault-map storage for the Faulty Bits baseline (paper §2.2, Table 1).
///
/// Faulty Bits needs one disable bit per cache line *per supported Vcc
/// level* (or a re-test at every level change). The paper flags this cost
/// as "may not be negligible" — it is ~50× the IRAW hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyBitsOverhead {
    /// Cache lines covered by the fault maps (IL0 + DL0 + UL1).
    pub lines: u64,
    /// Number of Vcc levels with a stored map.
    pub vcc_levels: u32,
}

impl FaultyBitsOverhead {
    /// Silverthorne caches (512 + 384 + 8192 lines) with one map per
    /// low-Vcc level of the paper sweep (575..400 mV, 8 levels).
    #[must_use]
    pub fn silverthorne() -> Self {
        Self {
            lines: 512 + 384 + 8192,
            vcc_levels: 8,
        }
    }

    /// Total fault-map SRAM bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.lines * u64::from(self.vcc_levels)
    }

    /// Extra area as a fraction of total core SRAM (maps live in SRAM, so
    /// no latch factor applies).
    #[must_use]
    pub fn area_fraction(&self) -> f64 {
        self.total_bits() as f64 / CORE_SRAM_BITS as f64
    }
}

impl Default for FaultyBitsOverhead {
    fn default() -> Self {
        Self::silverthorne()
    }
}

/// Extra Bypass hardware (paper §2.2, Table 1): pipelining writes across
/// two cycles requires an additional bypass level — wide latches and muxes
/// in the execution datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtraBypassOverhead {
    /// Datapath width latched per write port (the paper: "up to 128 or
    /// 256-bit latches for SIMD data").
    pub datapath_width_bits: u64,
    /// Write ports whose in-flight value must be latched.
    pub write_ports: u64,
    /// Extra bypass levels added.
    pub extra_levels: u64,
    /// Mux/compare logic per consumer source, in latch-bit equivalents.
    pub mux_bits: u64,
    /// Bits of the existing execution datapath (denominator for the
    /// "prohibitive relative to the bypass network" claim).
    pub datapath_bits: u64,
}

impl ExtraBypassOverhead {
    /// Silverthorne datapath: 128-bit SIMD, 2 write ports, 1 extra level,
    /// 2 issue slots × 2 sources of 128-bit 3-way muxing.
    #[must_use]
    pub fn silverthorne() -> Self {
        Self {
            datapath_width_bits: 128,
            write_ports: 2,
            extra_levels: 1,
            mux_bits: 2 * 2 * 128,
            datapath_bits: 4096,
        }
    }

    /// Total extra latch-equivalent bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.datapath_width_bits * self.write_ports * self.extra_levels + self.mux_bits
    }

    /// Extra area relative to total core SRAM — deceptively small because
    /// caches dominate the denominator.
    #[must_use]
    pub fn area_fraction(&self) -> f64 {
        self.total_bits() as f64 * LATCH_AREA_FACTOR / CORE_SRAM_BITS as f64
    }

    /// Extra area relative to the execution datapath itself — the paper's
    /// "prohibitive" framing (\[3, 4, 20\]): most of a datapath's worth of
    /// extra latches and wiring.
    #[must_use]
    pub fn datapath_area_fraction(&self) -> f64 {
        self.total_bits() as f64 * LATCH_AREA_FACTOR / self.datapath_bits as f64
    }

    /// Always-on dynamic energy multiplier (bypass latches clock at every
    /// Vcc level — the cost is paid even when not needed, which is the
    /// Table 1 "does not adapt to multiple Vcc" row).
    #[must_use]
    pub fn dynamic_energy_factor(&self) -> f64 {
        1.0 + self.total_bits() as f64 * LATCH_AREA_FACTOR * ACTIVITY_FACTOR / CORE_SRAM_BITS as f64
    }

    /// Extra FO4 stages the deeper bypass mux adds to the 24-FO4 cycle.
    #[must_use]
    pub fn extra_fo4_stages(&self) -> u32 {
        u32::try_from(self.extra_levels).unwrap_or(u32::MAX)
    }
}

impl Default for ExtraBypassOverhead {
    fn default() -> Self {
        Self::silverthorne()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iraw_inventory_matches_paper_magnitudes() {
        let ovh = IrawOverhead::silverthorne();
        // A few hundred latch bits in total.
        assert!(ovh.total_bits() > 200 && ovh.total_bits() < 600);
        // Paper: ~0.03% area.
        let area = ovh.area_fraction();
        assert!(
            (0.0001..0.001).contains(&area),
            "area fraction {area:.5} (paper ≈0.0003)"
        );
        // Paper: <1% energy even with the pessimistic 20× activity.
        let energy = ovh.dynamic_energy_factor();
        assert!(energy > 1.0 && energy < 1.01, "energy factor {energy}");
    }

    #[test]
    fn fault_maps_cost_far_more_than_iraw() {
        let fb = FaultyBitsOverhead::silverthorne();
        let iraw = IrawOverhead::silverthorne();
        assert!(fb.total_bits() > 50 * iraw.total_bits());
        assert!(fb.area_fraction() > 0.01, "fault maps ≈1.5% of SRAM");
    }

    #[test]
    fn fault_map_bits_scale_with_levels() {
        let mut fb = FaultyBitsOverhead::silverthorne();
        let one = FaultyBitsOverhead {
            vcc_levels: 1,
            ..fb
        };
        fb.vcc_levels = 4;
        assert_eq!(fb.total_bits(), 4 * one.total_bits());
    }

    #[test]
    fn extra_bypass_prohibitive_relative_to_datapath() {
        let eb = ExtraBypassOverhead::silverthorne();
        // Tiny against the caches…
        assert!(eb.area_fraction() < 0.002);
        // …but most of a datapath's worth of new latches/muxes.
        assert!(eb.datapath_area_fraction() > 0.5);
        assert_eq!(eb.extra_fo4_stages(), 1);
        assert!(eb.dynamic_energy_factor() > 1.0);
    }

    #[test]
    fn core_sram_inventory_total() {
        assert_eq!(CORE_SRAM_BITS, 4_915_104);
    }

    #[test]
    fn iraw_bit_groups_sum() {
        let ovh = IrawOverhead::silverthorne();
        assert_eq!(
            ovh.total_bits(),
            ovh.scoreboard_bits
                + ovh.iq_logic_bits
                + ovh.stable_bits
                + ovh.stall_counter_bits
                + ovh.config_bits
        );
        assert_eq!(ovh.scoreboard_bits, 128);
        assert_eq!(ovh.stable_bits, 194);
    }
}
