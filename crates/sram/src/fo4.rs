//! Alpha-power-law logic delay model and FO4 inverter chains.
//!
//! The paper models the processor's combinational critical path as a chain
//! of fanout-of-4 (FO4) inverters: 12 FO4 per clock phase, 24 FO4 per full
//! cycle. Gate delay versus supply voltage follows the classic alpha-power
//! law (Sakurai–Newton):
//!
//! ```text
//! d(V) = k · V / (V − Vth)^α
//! ```
//!
//! with `Vth = 300 mV` and `α = 1.40` calibrated so the 12-FO4 phase delay
//! grows ≈4× between 700 mV and 400 mV, matching the scale of the paper's
//! Figure 1.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

use crate::voltage::Millivolts;

/// Number of FO4 inverter delays in one clock phase (half cycle).
pub const PHASE_FO4: u32 = 12;

/// Number of FO4 inverter delays in one full clock cycle.
pub const CYCLE_FO4: u32 = 24;

/// A time duration in picoseconds.
///
/// Thin newtype so cycle times, access latencies and stabilization windows
/// cannot be confused with unit-less ratios.
///
/// ```
/// use lowvcc_sram::Picoseconds;
///
/// let cycle = Picoseconds::new(720.0);
/// assert_eq!(cycle.nanos(), 0.72);
/// assert_eq!((cycle * 2.0).picos(), 1440.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picoseconds(f64);

impl Picoseconds {
    /// Creates a duration from picoseconds.
    #[must_use]
    pub fn new(ps: f64) -> Self {
        Self(ps)
    }

    /// Returns the duration in picoseconds.
    #[must_use]
    pub fn picos(self) -> f64 {
        self.0
    }

    /// Returns the duration in nanoseconds.
    #[must_use]
    pub fn nanos(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns the duration in seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.0 * 1e-12
    }

    /// The equivalent clock frequency of a cycle of this duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not strictly positive.
    #[must_use]
    pub fn as_frequency(self) -> Megahertz {
        assert!(
            self.0 > 0.0,
            "cannot convert non-positive duration to frequency"
        );
        Megahertz(1e6 / self.0)
    }
}

impl Add for Picoseconds {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Picoseconds {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<f64> for Picoseconds {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<Picoseconds> for Picoseconds {
    type Output = f64;
    fn div(self, rhs: Picoseconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Picoseconds {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Picoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ps", self.0)
    }
}

/// A clock frequency in megahertz.
///
/// ```
/// use lowvcc_sram::{Megahertz, Picoseconds};
///
/// let f = Picoseconds::new(720.0).as_frequency();
/// assert!((f.megahertz() - 1388.9).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Megahertz(f64);

impl Megahertz {
    /// Creates a frequency from megahertz.
    #[must_use]
    pub fn new(mhz: f64) -> Self {
        Self(mhz)
    }

    /// Returns the frequency in megahertz.
    #[must_use]
    pub fn megahertz(self) -> f64 {
        self.0
    }

    /// Returns the frequency in gigahertz.
    #[must_use]
    pub fn gigahertz(self) -> f64 {
        self.0 / 1000.0
    }
}

impl fmt::Display for Megahertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MHz", self.0)
    }
}

/// Alpha-power-law gate-delay model.
///
/// Delay of one FO4 inverter stage as a function of Vcc, with an absolute
/// calibration point at 700 mV. The entire timing stack is expressed in
/// multiples of this delay, so the model also fixes the absolute time scale
/// of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPowerModel {
    vth_mv: f64,
    alpha: f64,
    fo4_at_700mv: Picoseconds,
}

impl AlphaPowerModel {
    /// Threshold voltage of the calibrated 45 nm logic transistors (mV).
    pub const VTH_LOGIC_MV: f64 = 300.0;

    /// Velocity-saturation exponent of the calibrated 45 nm process.
    pub const ALPHA: f64 = 1.40;

    /// FO4 inverter delay at the 700 mV anchor (ps); yields a 720 ps
    /// (≈1.39 GHz) 24-FO4 cycle at 700 mV, a plausible 45 nm in-order core.
    pub const FO4_AT_700MV_PS: f64 = 30.0;

    /// The calibrated 45 nm model used throughout the reproduction.
    #[must_use]
    pub fn silverthorne_45nm() -> Self {
        Self {
            vth_mv: Self::VTH_LOGIC_MV,
            alpha: Self::ALPHA,
            fo4_at_700mv: Picoseconds::new(Self::FO4_AT_700MV_PS),
        }
    }

    /// Unit-less alpha-power kernel `V / (V − Vth)^α` (mV domain).
    fn kernel(&self, v: Millivolts) -> f64 {
        let v_mv = f64::from(v.millivolts());
        let overdrive = v_mv - self.vth_mv;
        debug_assert!(overdrive > 0.0);
        v_mv / overdrive.powf(self.alpha)
    }

    /// Delay of a single FO4 inverter at the given supply voltage.
    ///
    /// ```
    /// use lowvcc_sram::{AlphaPowerModel, Millivolts};
    ///
    /// let m = AlphaPowerModel::silverthorne_45nm();
    /// let d700 = m.fo4_delay(Millivolts::new(700)?);
    /// let d400 = m.fo4_delay(Millivolts::new(400)?);
    /// assert!(d400.picos() / d700.picos() > 3.9); // steep low-Vcc slowdown
    /// # Ok::<(), lowvcc_sram::VoltageError>(())
    /// ```
    #[must_use]
    pub fn fo4_delay(&self, v: Millivolts) -> Picoseconds {
        const ANCHOR: Millivolts = Millivolts::literal(700);
        let anchor = ANCHOR;
        self.fo4_at_700mv * (self.kernel(v) / self.kernel(anchor))
    }

    /// Delay of one 12-FO4 clock *phase* at the given supply voltage.
    #[must_use]
    pub fn phase_delay(&self, v: Millivolts) -> Picoseconds {
        self.fo4_delay(v) * f64::from(PHASE_FO4)
    }

    /// Delay of one 24-FO4 logic-limited clock *cycle*.
    #[must_use]
    pub fn cycle_delay(&self, v: Millivolts) -> Picoseconds {
        self.fo4_delay(v) * f64::from(CYCLE_FO4)
    }
}

impl Default for AlphaPowerModel {
    fn default() -> Self {
        Self::silverthorne_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voltage::mv;

    #[test]
    fn anchor_is_30ps_at_700mv() {
        let m = AlphaPowerModel::silverthorne_45nm();
        assert!((m.fo4_delay(mv(700)).picos() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn delay_monotonically_decreases_with_voltage() {
        let m = AlphaPowerModel::silverthorne_45nm();
        let mut last = f64::INFINITY;
        for v in (400..=1100).step_by(25) {
            let d = m.fo4_delay(mv(v)).picos();
            assert!(d < last, "delay must shrink as Vcc rises ({v} mV)");
            assert!(d > 0.0);
            last = d;
        }
    }

    #[test]
    fn low_vcc_slowdown_matches_figure1_scale() {
        // Figure 1 shows the 12-FO4 phase at roughly 3.5–5 a.u. at 400 mV
        // (normalized to 1.0 at 700 mV). The calibrated model gives ≈3.98×.
        let m = AlphaPowerModel::silverthorne_45nm();
        let ratio = m.fo4_delay(mv(400)) / m.fo4_delay(mv(700));
        assert!(
            (3.5..=5.0).contains(&ratio),
            "700→400 mV slowdown {ratio:.2} outside Figure 1 scale"
        );
    }

    #[test]
    fn phase_and_cycle_are_12_and_24_fo4() {
        let m = AlphaPowerModel::silverthorne_45nm();
        let v = mv(550);
        let fo4 = m.fo4_delay(v).picos();
        assert!((m.phase_delay(v).picos() - 12.0 * fo4).abs() < 1e-9);
        assert!((m.cycle_delay(v).picos() - 24.0 * fo4).abs() < 1e-9);
    }

    #[test]
    fn cycle_at_700mv_is_720ps() {
        let m = AlphaPowerModel::silverthorne_45nm();
        assert!((m.cycle_delay(mv(700)).picos() - 720.0).abs() < 1e-9);
        let f = m.cycle_delay(mv(700)).as_frequency();
        assert!((f.gigahertz() - 1.3889).abs() < 1e-3);
    }

    #[test]
    fn picoseconds_arithmetic() {
        let a = Picoseconds::new(100.0);
        let b = Picoseconds::new(40.0);
        assert_eq!((a + b).picos(), 140.0);
        assert_eq!((a - b).picos(), 60.0);
        assert_eq!((a * 2.5).picos(), 250.0);
        assert_eq!(a / b, 2.5);
        let total: Picoseconds = [a, b, b].into_iter().sum();
        assert_eq!(total.picos(), 180.0);
    }

    #[test]
    fn frequency_conversion_roundtrip() {
        let cycle = Picoseconds::new(500.0); // 2 GHz
        assert!((cycle.as_frequency().gigahertz() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_duration_has_no_frequency() {
        let _ = Picoseconds::new(0.0).as_frequency();
    }

    #[test]
    fn display_formats() {
        assert_eq!(Picoseconds::new(123.45).to_string(), "123.5 ps");
        assert_eq!(Megahertz::new(1500.0).to_string(), "1500 MHz");
    }
}
