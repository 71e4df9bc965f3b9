//! The five delay-versus-Vcc series of the paper's Figure 1.
//!
//! Figure 1 plots, normalized to the 12-FO4 phase delay at 700 mV:
//! the 12-FO4 clock phase, bitcell write delay, bitcell read delay, and
//! both SRAM delays with wordline activation added. Its two take-aways —
//! write+WL crossing the phase at 600 mV, bitcell-only write crossing at
//! 525 mV — anchor the whole calibration (see DESIGN.md).

use crate::cycle::CycleTimeModel;
use crate::voltage::{Millivolts, PAPER_SWEEP};

/// One voltage point of Figure 1. All delays are normalized to the 12-FO4
/// phase at 700 mV (the paper's "a.u." axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Row {
    /// Supply voltage of this row.
    pub vcc: Millivolts,
    /// 12-FO4 clock-phase delay.
    pub phase_12fo4: f64,
    /// Bitcell write delay (no wordline activation).
    pub bitcell_write: f64,
    /// Bitcell read delay (no wordline activation).
    pub bitcell_read: f64,
    /// Bitcell write delay + wordline activation.
    pub write_plus_wl: f64,
    /// Bitcell read delay + wordline activation.
    pub read_plus_wl: f64,
}

/// The full Figure 1 dataset over a voltage sweep.
///
/// ```
/// use lowvcc_sram::{CycleTimeModel, Figure1Series};
///
/// let series = Figure1Series::generate(&CycleTimeModel::silverthorne_45nm());
/// // Crossovers reported by the paper:
/// assert_eq!(series.write_wl_crossover().unwrap().millivolts(), 600);
/// assert_eq!(series.write_only_crossover().unwrap().millivolts(), 525);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Series {
    rows: Vec<Figure1Row>,
}

impl Figure1Series {
    /// Generates the series over the paper's 700→400 mV sweep.
    #[must_use]
    pub fn generate(model: &CycleTimeModel) -> Self {
        const ANCHOR: Millivolts = Millivolts::literal(700);
        let anchor = ANCHOR;
        let unit = model.phase(anchor).picos();
        let rows = PAPER_SWEEP
            .iter()
            .map(|v| Figure1Row {
                vcc: v,
                phase_12fo4: model.phase(v).picos() / unit,
                bitcell_write: model.bitcell().write_delay(v).picos() / unit,
                bitcell_read: model.bitcell().read_delay(v).picos() / unit,
                write_plus_wl: model.write_phase(v).picos() / unit,
                read_plus_wl: model.read_phase(v).picos() / unit,
            })
            .collect();
        Self { rows }
    }

    /// The rows, ordered from high to low Vcc.
    #[must_use]
    pub fn rows(&self) -> &[Figure1Row] {
        &self.rows
    }

    /// Highest grid voltage at which `write + wordline` meets or exceeds
    /// the 12-FO4 phase (the paper: 600 mV).
    #[must_use]
    pub fn write_wl_crossover(&self) -> Option<Millivolts> {
        self.rows
            .iter()
            .find(|r| r.write_plus_wl >= r.phase_12fo4 - 1e-9)
            .map(|r| r.vcc)
    }

    /// Highest grid voltage at which the bitcell-only write delay meets or
    /// exceeds the 12-FO4 phase (the paper: 525 mV).
    #[must_use]
    pub fn write_only_crossover(&self) -> Option<Millivolts> {
        self.rows
            .iter()
            .find(|r| r.bitcell_write >= r.phase_12fo4 - 1e-9)
            .map(|r| r.vcc)
    }

    /// Whether the read path (with wordline) stays below the phase at every
    /// point, as the paper observes for properly sized 8-T read ports.
    #[must_use]
    pub fn read_never_limits(&self) -> bool {
        self.rows.iter().all(|r| r.read_plus_wl < r.phase_12fo4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Figure1Series {
        Figure1Series::generate(&CycleTimeModel::silverthorne_45nm())
    }

    #[test]
    fn normalization_anchor_is_one() {
        let s = series();
        let first = &s.rows()[0];
        assert_eq!(first.vcc.millivolts(), 700);
        assert!((first.phase_12fo4 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossovers_match_paper() {
        let s = series();
        assert_eq!(s.write_wl_crossover().unwrap().millivolts(), 600);
        assert_eq!(s.write_only_crossover().unwrap().millivolts(), 525);
    }

    #[test]
    fn read_never_limits_the_cycle() {
        assert!(series().read_never_limits());
    }

    #[test]
    fn write_grows_exponentially_but_phase_nearly_linearly() {
        let s = series();
        let at = |mv: u32| s.rows().iter().find(|r| r.vcc.millivolts() == mv).unwrap();
        // Phase grows gently (≈4.4× over the whole range)…
        assert!(at(400).phase_12fo4 / at(700).phase_12fo4 < 5.0);
        // …while write+WL grows by nearly two orders of magnitude.
        assert!(at(400).write_plus_wl / at(700).write_plus_wl > 50.0);
    }

    #[test]
    fn rows_ordered_descending() {
        let s = series();
        assert_eq!(s.rows().len(), 13);
        for pair in s.rows().windows(2) {
            assert!(pair[0].vcc > pair[1].vcc);
        }
    }
}
