//! S1/S3/S4 — the paper's scalar results: delayed-instruction fraction,
//! prediction-only corruption rates, and hardware overheads.
//!
//! Each headline row measured on the sweep has a band in [`BANDS`]: the
//! standard suite's value today, in the row's display unit. The bands
//! pin the reproduction, not the paper; CI's `claims` job fails when a
//! standard-suite row leaves its band.

use lowvcc_energy::{ExtraBypassOverhead, FaultyBitsOverhead, IrawOverhead};

use crate::error::ExperimentError;
use crate::experiments::sweep::{at, SweepPoint};
use crate::report::TextTable;

/// A headline row measured on the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The row's `quantity` cell.
    pub quantity: &'static str,
    /// The value in the row's display unit (a percentage or a ratio).
    pub value: f64,
    /// The rendered `measured` cell.
    pub cell: String,
    /// The paper's value (the `paper` cell).
    pub paper: &'static str,
}

/// The standard suite's value of each [`measured`] row, as an inclusive
/// `(quantity, low, high)` band in the row's display unit.
pub const BANDS: [(&str, f64, f64); 7] = [
    ("frequency increase @500 mV", 58.0, 60.0),
    ("frequency increase @400 mV", 96.0, 98.0),
    ("performance gain @500 mV", 38.0, 40.0),
    ("performance gain @400 mV", 81.0, 83.0),
    ("relative EDP @500 mV", 0.63, 0.65),
    ("relative EDP @400 mV", 0.33, 0.35),
    ("instructions delayed @575 mV", 10.0, 11.0),
];

/// The band [`BANDS`] declares for `quantity`, if any.
#[must_use]
pub fn band(quantity: &str) -> Option<(f64, f64)> {
    BANDS
        .iter()
        .find(|(q, _, _)| *q == quantity)
        .map(|&(_, low, high)| (low, high))
}

/// The headline rows of the scalar table: frequency gain, performance
/// gain and relative EDP at 500 and 400 mV, and the delayed fraction
/// at 575 mV.
///
/// # Errors
///
/// Returns an error if the sweep lacks the anchor voltages.
pub fn measured(points: &[SweepPoint]) -> Result<Vec<Measured>, ExperimentError> {
    let p500 = at(points, 500).ok_or(ExperimentError::MissingSweepPoint { mv: 500 })?;
    let p400 = at(points, 400).ok_or(ExperimentError::MissingSweepPoint { mv: 400 })?;
    let p575 = at(points, 575).ok_or(ExperimentError::MissingSweepPoint { mv: 575 })?;
    let gain = |quantity, ratio: f64, paper| {
        let value = (ratio - 1.0) * 100.0;
        Measured {
            quantity,
            value,
            cell: format!("+{value:.0}%"),
            paper,
        }
    };
    let edp = |quantity, value: f64, paper| Measured {
        quantity,
        value,
        cell: format!("{value:.2}"),
        paper,
    };
    let delayed = p575.delayed_fraction * 100.0;
    Ok(vec![
        gain("frequency increase @500 mV", p500.frequency_gain, "+57%"),
        gain("frequency increase @400 mV", p400.frequency_gain, "+99%"),
        gain("performance gain @500 mV", p500.speedup, "+48%"),
        gain("performance gain @400 mV", p400.speedup, "+90%"),
        edp("relative EDP @500 mV", p500.relative_edp, "0.61"),
        edp("relative EDP @400 mV", p400.relative_edp, "0.33"),
        Measured {
            quantity: "instructions delayed @575 mV",
            value: delayed,
            cell: format!("{delayed:.1}%"),
            paper: "13.2%",
        },
    ])
}

/// Builds the scalar-results table from an already-run sweep.
///
/// # Errors
///
/// Returns an error if the sweep lacks the anchor voltages.
pub fn table(points: &[SweepPoint]) -> Result<TextTable, ExperimentError> {
    let p575 = at(points, 575).ok_or(ExperimentError::MissingSweepPoint { mv: 575 })?;

    let iraw = IrawOverhead::silverthorne();
    let fb = FaultyBitsOverhead::silverthorne();
    let eb = ExtraBypassOverhead::silverthorne();

    let mut t = TextTable::new(vec!["quantity", "measured", "paper"]);
    for row in measured(points)? {
        t.row(vec![row.quantity.into(), row.cell, row.paper.into()]);
    }
    t.row(vec![
        "BP potential corruption rate".into(),
        format!("{:.5}%", p575.bp_corruption_rate * 100.0),
        "0.0017%".into(),
    ]);
    t.row(vec![
        "RSB potential corruptions".into(),
        p575.rsb_corruptions.to_string(),
        "0 (none found)".into(),
    ]);
    t.row(vec![
        "IRAW extra area".into(),
        format!("{:.3}%", iraw.area_fraction() * 100.0),
        "~0.03% (<0.1%)".into(),
    ]);
    t.row(vec![
        "IRAW extra energy".into(),
        format!("+{:.2}%", (iraw.dynamic_energy_factor() - 1.0) * 100.0),
        "<1%".into(),
    ]);
    t.row(vec![
        "Faulty Bits fault-map area".into(),
        format!("{:.2}%", fb.area_fraction() * 100.0),
        "\"may not be negligible\"".into(),
    ]);
    t.row(vec![
        "Extra Bypass latches vs datapath".into(),
        format!("{:.0}%", eb.datapath_area_fraction() * 100.0),
        "\"prohibitive\"".into(),
    ]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentContext;
    use crate::experiments::sweep::run_sweep_at;
    use lowvcc_sram::PAPER_SWEEP;

    #[test]
    fn scalar_table_builds_from_sweep() {
        let ctx = ExperimentContext::quick().unwrap();
        let points = run_sweep_at(&ctx, PAPER_SWEEP.iter()).unwrap();
        let t = table(&points).unwrap();
        assert!(t.len() >= 12);
        let s = t.render();
        assert!(s.contains("13.2%"));
        assert!(s.contains("0.61"));
    }

    #[test]
    fn every_measured_row_has_a_band() {
        let ctx = ExperimentContext::sized(1, 2_000).unwrap();
        let rows = measured(&run_sweep_at(&ctx, PAPER_SWEEP.iter()).unwrap()).unwrap();
        for row in &rows {
            let (low, high) =
                band(row.quantity).unwrap_or_else(|| panic!("{} declares no band", row.quantity));
            assert!(low < high, "{}: empty band", row.quantity);
        }
        // …and no band outlives its row.
        assert_eq!(rows.len(), BANDS.len());
    }
}
