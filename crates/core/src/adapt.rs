//! Measured dynamic adaptation: at each Vcc, run both mechanisms and keep
//! the better one (paper abstract: "our mechanism can be adapted
//! dynamically to provide the highest performance and lowest EDP at each
//! Vcc level").
//!
//! The predictive controller in `lowvcc_energy::dvfs` picks operating
//! points from the analytical model; this module instead *measures* —
//! the gold standard the predictor is tested against.

use lowvcc_energy::{EnergyModel, IrawOverhead, Joules};
use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::Trace;

use crate::config::{CoreConfig, Mechanism};
use crate::error::SimError;
use crate::perf::{compare_mechanisms, Parallelism, SuiteResult};

/// Objective for the measured selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptGoal {
    /// Minimize execution time.
    Performance,
    /// Minimize energy-delay product.
    MinEdp,
}

/// Outcome of measured adaptation at one voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOutcome {
    /// Supply voltage.
    pub vcc: Millivolts,
    /// The winning mechanism.
    pub chosen: Mechanism,
    /// Execution time of the winner (seconds).
    pub seconds: f64,
    /// Total energy of the winner.
    pub energy: Joules,
    /// EDP of the winner (joule-seconds).
    pub edp: f64,
    /// IRAW-over-baseline speedup measured at this voltage.
    pub iraw_speedup: f64,
    /// IRAW-over-baseline EDP ratio measured at this voltage.
    pub iraw_edp_ratio: f64,
}

fn suite_energy(
    energy: &EnergyModel,
    vcc: Millivolts,
    suite: &SuiteResult,
    dynamic_overhead: f64,
) -> Joules {
    suite
        .per_trace
        .iter()
        .map(|(_, r)| {
            energy
                .breakdown(vcc, r.stats.instructions, r.seconds(), dynamic_overhead)
                .total()
        })
        .sum()
}

/// Runs both mechanisms at `vcc` and selects per `goal`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn adapt_at(
    core: CoreConfig,
    timing: &CycleTimeModel,
    energy: &EnergyModel,
    vcc: Millivolts,
    traces: &[Trace],
    goal: AdaptGoal,
) -> Result<AdaptOutcome, SimError> {
    let cmp = compare_mechanisms(core, timing, vcc, traces, Parallelism::sequential())?;
    let iraw_overhead = IrawOverhead::silverthorne().dynamic_energy_factor();

    let t_base = cmp.baseline.total_seconds();
    let t_iraw = cmp.iraw.total_seconds();
    let e_base = suite_energy(energy, vcc, &cmp.baseline, 1.0);
    let e_iraw = suite_energy(energy, vcc, &cmp.iraw, iraw_overhead);
    let edp_base = e_base.joules() * t_base;
    let edp_iraw = e_iraw.joules() * t_iraw;

    let iraw_wins = match goal {
        AdaptGoal::Performance => t_iraw < t_base,
        AdaptGoal::MinEdp => edp_iraw < edp_base,
    };
    let (chosen, seconds, energy_j, edp) = if iraw_wins {
        (Mechanism::Iraw, t_iraw, e_iraw, edp_iraw)
    } else {
        (Mechanism::Baseline, t_base, e_base, edp_base)
    };
    Ok(AdaptOutcome {
        vcc,
        chosen,
        seconds,
        energy: energy_j,
        edp,
        iraw_speedup: t_base / t_iraw,
        iraw_edp_ratio: edp_iraw / edp_base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::mv;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn traces() -> Vec<Trace> {
        vec![
            TraceSpec::new(WorkloadFamily::SpecInt, 0, 3_000)
                .build()
                .unwrap(),
            TraceSpec::new(WorkloadFamily::Kernel, 1, 3_000)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn chooses_iraw_at_low_vcc_and_baseline_at_high() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let energy = EnergyModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let ts = traces();
        for goal in [AdaptGoal::Performance, AdaptGoal::MinEdp] {
            let low = adapt_at(core, &timing, &energy, mv(475), &ts, goal).unwrap();
            assert_eq!(low.chosen, Mechanism::Iraw, "{goal:?} at 475 mV");
            assert!(low.iraw_speedup > 1.0);
            assert!(low.iraw_edp_ratio < 1.0);

            let high = adapt_at(core, &timing, &energy, mv(650), &ts, goal).unwrap();
            // At 650 mV the IRAW config degenerates to the same clock with
            // no stalls (N = 0): both mechanisms tie, so either choice is
            // acceptable — but nothing may be *worse*.
            assert!((high.iraw_speedup - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn outcome_carries_consistent_metrics() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let energy = EnergyModel::silverthorne_45nm();
        let out = adapt_at(
            CoreConfig::silverthorne(),
            &timing,
            &energy,
            mv(500),
            &traces(),
            AdaptGoal::MinEdp,
        )
        .unwrap();
        assert!((out.edp - out.energy.joules() * out.seconds).abs() / out.edp < 1e-9);
    }
}
