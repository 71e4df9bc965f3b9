//! Supply-voltage newtype and sweep ranges.
//!
//! The paper evaluates the Vcc range \[700 mV, 400 mV\] in 25 mV steps on a
//! 45 nm process. [`Millivolts`] keeps voltages as integers (exact grid
//! arithmetic, hashable, orderable); models convert to volts internally.

use std::fmt;

/// Lowest supply voltage the delay models accept.
///
/// Below ~350 mV the calibrated alpha-power logic model approaches its
/// threshold-voltage singularity and the paper presents no data, so the
/// models refuse to extrapolate there.
pub const MIN_MODEL_MV: u32 = 350;

/// Highest supply voltage the delay models accept.
///
/// The paper's data stops at 700 mV; we allow head-room up to a nominal
/// 45 nm supply so a caller can model a "high" operating point.
pub const MAX_MODEL_MV: u32 = 1100;

/// A supply voltage in millivolts.
///
/// ```
/// use lowvcc_sram::Millivolts;
///
/// let v = Millivolts::new(500)?;
/// assert_eq!(v.millivolts(), 500);
/// assert!((v.volts() - 0.5).abs() < 1e-12);
/// # Ok::<(), lowvcc_sram::VoltageError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Millivolts(u32);

impl Millivolts {
    /// Creates a supply voltage, validating it against the model range.
    ///
    /// # Errors
    ///
    /// Returns [`VoltageError::OutOfRange`] when `mv` lies outside
    /// [`MIN_MODEL_MV`]..=[`MAX_MODEL_MV`].
    pub fn new(mv: u32) -> Result<Self, VoltageError> {
        if (MIN_MODEL_MV..=MAX_MODEL_MV).contains(&mv) {
            Ok(Self(mv))
        } else {
            Err(VoltageError::OutOfRange { mv })
        }
    }

    /// Creates a supply voltage from a compile-time constant, validated
    /// at compile time: an out-of-range literal fails the build rather
    /// than the run. This is the panic-free spelling for hard-wired
    /// grid voltages (e.g. the daemon's 500 mV Table 1 anchor).
    ///
    /// ```
    /// use lowvcc_sram::Millivolts;
    ///
    /// const ANCHOR: Millivolts = Millivolts::literal(500);
    /// assert_eq!(ANCHOR.millivolts(), 500);
    /// ```
    #[must_use]
    pub const fn literal(mv: u32) -> Self {
        assert!(
            MIN_MODEL_MV <= mv && mv <= MAX_MODEL_MV,
            "literal voltage outside the calibrated model range"
        );
        Self(mv)
    }

    /// Returns the voltage in millivolts.
    #[must_use]
    pub const fn millivolts(self) -> u32 {
        self.0
    }

    /// Returns the voltage in volts.
    #[must_use]
    pub fn volts(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Number of 25 mV steps this voltage lies *below* 600 mV.
    ///
    /// This is the `x` coordinate of the calibrated write-delay curve
    /// (positive below 600 mV, negative above). Non-grid voltages yield
    /// fractional steps, so the delay models remain continuous.
    #[must_use]
    pub fn steps_below_600(self) -> f64 {
        (600.0 - f64::from(self.0)) / 25.0
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

/// Error produced when constructing an unsupported [`Millivolts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoltageError {
    /// The requested voltage lies outside the calibrated model range.
    OutOfRange {
        /// The rejected voltage in millivolts.
        mv: u32,
    },
}

impl fmt::Display for VoltageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfRange { mv } => write!(
                f,
                "supply voltage {mv} mV outside supported range [{MIN_MODEL_MV}, {MAX_MODEL_MV}] mV"
            ),
        }
    }
}

impl std::error::Error for VoltageError {}

/// An inclusive, descending sweep of supply voltages on a fixed step grid.
///
/// The paper plots everything from 700 mV down to 400 mV in 25 mV steps;
/// [`PAPER_SWEEP`] is that range.
///
/// ```
/// use lowvcc_sram::{VccRange, PAPER_SWEEP};
///
/// let points: Vec<u32> = PAPER_SWEEP.iter().map(|v| v.millivolts()).collect();
/// assert_eq!(points.first(), Some(&700));
/// assert_eq!(points.last(), Some(&400));
/// assert_eq!(points.len(), 13);
///
/// let custom = VccRange::new(650, 500, 50)?;
/// assert_eq!(custom.iter().count(), 4);
/// # Ok::<(), lowvcc_sram::VoltageError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VccRange {
    high_mv: u32,
    low_mv: u32,
    step_mv: u32,
}

/// The paper's evaluation sweep: 700 mV down to 400 mV in 25 mV steps.
pub const PAPER_SWEEP: VccRange = VccRange {
    high_mv: 700,
    low_mv: 400,
    step_mv: 25,
};

impl VccRange {
    /// Creates a descending sweep from `high_mv` down to `low_mv`.
    ///
    /// # Errors
    ///
    /// Returns [`VoltageError::OutOfRange`] if either endpoint is outside
    /// the model range, if `high_mv < low_mv`, or if `step_mv` is zero.
    pub fn new(high_mv: u32, low_mv: u32, step_mv: u32) -> Result<Self, VoltageError> {
        let _ = Millivolts::new(high_mv)?;
        let _ = Millivolts::new(low_mv)?;
        if high_mv < low_mv || step_mv == 0 {
            return Err(VoltageError::OutOfRange { mv: high_mv });
        }
        Ok(Self {
            high_mv,
            low_mv,
            step_mv,
        })
    }

    /// Iterates the sweep from the highest voltage downwards.
    pub fn iter(&self) -> impl Iterator<Item = Millivolts> + '_ {
        let steps = (self.high_mv - self.low_mv) / self.step_mv;
        (0..=steps).map(move |i| Millivolts(self.high_mv - i * self.step_mv))
    }

    /// The highest voltage in the sweep.
    #[must_use]
    pub fn high(&self) -> Millivolts {
        Millivolts(self.high_mv)
    }

    /// The lowest grid voltage in the sweep.
    #[must_use]
    pub fn low(&self) -> Millivolts {
        Millivolts(self.high_mv - (self.high_mv - self.low_mv) / self.step_mv * self.step_mv)
    }
}

impl IntoIterator for VccRange {
    type Item = Millivolts;
    type IntoIter = std::vec::IntoIter<Millivolts>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// Convenience constructor for tests and examples on the 25 mV paper grid.
///
/// # Panics
///
/// Panics if `mv` is outside the supported model range. Use
/// [`Millivolts::new`] for fallible construction.
#[must_use]
pub fn mv(mv: u32) -> Millivolts {
    Millivolts::new(mv).expect("voltage within model range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_in_range() {
        assert_eq!(Millivolts::new(500).unwrap().millivolts(), 500);
        assert_eq!(Millivolts::new(400).unwrap().volts(), 0.4);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Millivolts::new(MIN_MODEL_MV - 1).is_err());
        assert!(Millivolts::new(MAX_MODEL_MV + 1).is_err());
        assert!(Millivolts::new(0).is_err());
    }

    #[test]
    fn boundary_values_accepted() {
        assert!(Millivolts::new(MIN_MODEL_MV).is_ok());
        assert!(Millivolts::new(MAX_MODEL_MV).is_ok());
    }

    #[test]
    fn literal_matches_fallible_construction() {
        const ANCHOR: Millivolts = Millivolts::literal(500);
        assert_eq!(Some(ANCHOR), Millivolts::new(500).ok());
        const LOW: Millivolts = Millivolts::literal(MIN_MODEL_MV);
        const HIGH: Millivolts = Millivolts::literal(MAX_MODEL_MV);
        assert_eq!(LOW.millivolts(), MIN_MODEL_MV);
        assert_eq!(HIGH.millivolts(), MAX_MODEL_MV);
    }

    #[test]
    fn steps_below_600_signed() {
        assert_eq!(mv(600).steps_below_600(), 0.0);
        assert_eq!(mv(550).steps_below_600(), 2.0);
        assert_eq!(mv(700).steps_below_600(), -4.0);
        assert_eq!(mv(400).steps_below_600(), 8.0);
    }

    #[test]
    fn paper_sweep_has_13_points() {
        let points: Vec<_> = PAPER_SWEEP.iter().collect();
        assert_eq!(points.len(), 13);
        assert_eq!(points[0], mv(700));
        assert_eq!(points[12], mv(400));
        // Strictly descending by 25 mV.
        for pair in points.windows(2) {
            assert_eq!(pair[0].millivolts() - pair[1].millivolts(), 25);
        }
    }

    #[test]
    fn custom_range_validation() {
        assert!(VccRange::new(500, 700, 25).is_err());
        assert!(VccRange::new(700, 400, 0).is_err());
        assert!(VccRange::new(2000, 400, 25).is_err());
        let r = VccRange::new(700, 390, 100).unwrap();
        let pts: Vec<_> = r.iter().map(|v| v.millivolts()).collect();
        assert_eq!(pts, vec![700, 600, 500, 400]);
        assert_eq!(r.low().millivolts(), 400);
    }

    #[test]
    fn display_formats() {
        assert_eq!(mv(500).to_string(), "500 mV");
        let err = Millivolts::new(10).unwrap_err();
        assert!(err.to_string().contains("10 mV"));
    }

    #[test]
    fn ordering_follows_voltage() {
        assert!(mv(700) > mv(400));
        assert_eq!(mv(500), mv(500));
    }
}
