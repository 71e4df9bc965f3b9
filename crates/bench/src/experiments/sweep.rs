//! The Vcc sweep behind Figures 11b and 12: baseline vs IRAW simulation at
//! every voltage, with the energy model applied on top. Every measurement
//! goes through [`ExperimentContext::run_suite_batch`]'s result cache
//! when one is configured, so a warm sweep performs zero simulations.

use lowvcc_core::{MechanismComparison, SimConfig, SuiteResult};
use lowvcc_energy::{EdpPoint, IrawOverhead};
use lowvcc_sram::{Millivolts, PAPER_SWEEP};

use crate::context::ExperimentContext;
use crate::error::ExperimentError;
use crate::json;
use crate::report::{fnum, TextTable};

/// Measured baseline-vs-IRAW numbers at one supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Supply voltage.
    pub vcc: Millivolts,
    /// Clock-frequency gain of IRAW.
    pub frequency_gain: f64,
    /// Measured performance speedup (suite total time).
    pub speedup: f64,
    /// Fraction of instructions delayed by the RF IRAW mechanism.
    pub delayed_fraction: f64,
    /// IRAW execution time relative to the baseline (lower is better).
    pub relative_delay: f64,
    /// IRAW total energy relative to the baseline.
    pub relative_energy: f64,
    /// IRAW EDP relative to the baseline.
    pub relative_edp: f64,
    /// Baseline leakage fraction of total energy at this voltage.
    pub baseline_leakage_fraction: f64,
    /// Average per-trace stall-cycle fractions `(rf, iq, dl0, other)`.
    pub stall_fractions: (f64, f64, f64, f64),
    /// Potential BP corruption rate (paper §4.5).
    pub bp_corruption_rate: f64,
    /// Potential RSB corruptions (paper §4.5: expected 0).
    pub rsb_corruptions: u64,
}

fn suite_energy(
    ctx: &ExperimentContext,
    vcc: Millivolts,
    suite: &SuiteResult,
    overhead: f64,
) -> lowvcc_energy::EnergyBreakdown {
    suite
        .per_trace
        .iter()
        .map(|(_, r)| {
            ctx.energy
                .breakdown(vcc, r.stats.instructions, r.seconds(), overhead)
        })
        .fold(lowvcc_energy::EnergyBreakdown::default(), |a, b| a + b)
}

/// Derives one sweep point's measurements from a completed baseline-vs-
/// IRAW comparison — the single assembly site behind [`run_sweep_at`].
#[must_use]
pub fn point_from(ctx: &ExperimentContext, cmp: &MechanismComparison) -> SweepPoint {
    let vcc = cmp.vcc;
    let iraw_overhead = IrawOverhead::silverthorne().dynamic_energy_factor();
    let base_energy = suite_energy(ctx, vcc, &cmp.baseline, 1.0);
    // The IRAW hardware is present (and clocking) at every Vcc, so its
    // ~0.6% dynamic overhead applies even where the mechanism is off —
    // the paper's "slightly worse at high Vcc" effect.
    let iraw_energy = suite_energy(ctx, vcc, &cmp.iraw, iraw_overhead);
    let base_point = EdpPoint::new(cmp.baseline.total_seconds(), base_energy);
    let iraw_point = EdpPoint::new(cmp.iraw.total_seconds(), iraw_energy);
    let rel = iraw_point.relative_to(&base_point);

    let n = cmp.iraw.per_trace.len() as f64;
    let mut stall = (0.0, 0.0, 0.0, 0.0);
    let mut bp_reads = 0u64;
    let mut bp_corrupt = 0u64;
    let mut rsb_corrupt = 0u64;
    for (_, r) in &cmp.iraw.per_trace {
        let f = r.stats.stall_fractions();
        stall.0 += f.0 / n;
        stall.1 += f.1 / n;
        stall.2 += f.2 / n;
        stall.3 += f.3 / n;
        bp_reads += r.stats.branches.branches;
        bp_corrupt += r.stats.branches.bp_potential_corruptions;
        rsb_corrupt += r.stats.branches.rsb_potential_corruptions;
    }

    SweepPoint {
        vcc,
        frequency_gain: cmp.frequency_gain,
        speedup: cmp.speedup.total_time,
        delayed_fraction: cmp.iraw.delayed_instruction_fraction(),
        relative_delay: rel.delay,
        relative_energy: rel.energy,
        relative_edp: rel.edp,
        baseline_leakage_fraction: base_energy.leakage_fraction(),
        stall_fractions: stall,
        bp_corruption_rate: if bp_reads == 0 {
            0.0
        } else {
            bp_corrupt as f64 / bp_reads as f64
        },
        rsb_corruptions: rsb_corrupt,
    }
}

/// (baseline, IRAW) at each of `vccs`, in order.
fn pairs_at(ctx: &ExperimentContext, vccs: &[Millivolts]) -> Vec<SimConfig> {
    vccs.iter()
        .flat_map(|&vcc| {
            let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
            [base, iraw]
        })
        .collect()
}

/// The sweep grid: (baseline, IRAW) at every voltage of the paper's
/// grid, in voltage order — 26 configurations, of which 21 are distinct
/// simulations (at ≥600 mV the IRAW run is the baseline run).
#[must_use]
pub fn configs(ctx: &ExperimentContext) -> Vec<SimConfig> {
    pairs_at(ctx, &PAPER_SWEEP.iter().collect::<Vec<_>>())
}

/// Measures the baseline-vs-IRAW point at each of `vccs`, in the order
/// given, in one batched pass: every (baseline, IRAW) pair goes through
/// one [`ExperimentContext::run_suite_batch`] call, so each trace is
/// replayed for all of them back to back, each distinct simulation runs
/// once, its misses publish as one segment, and each worker's engine
/// workspace is reused across all of them. The full sweep is
/// `PAPER_SWEEP.iter()`; one voltage is `[vcc]` — the unit of work
/// `lowvcc-serve` answers per query. Byte-identical to one fresh
/// simulation per (config, trace) pair for any worker count and any
/// slice — the `batch_vs_perpoint` suite asserts it.
///
/// # Errors
///
/// Propagates simulation and cache failures.
pub fn run_sweep_at(
    ctx: &ExperimentContext,
    vccs: impl IntoIterator<Item = Millivolts>,
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let vccs: Vec<Millivolts> = vccs.into_iter().collect();
    let mut suites = ctx.run_suite_batch(&pairs_at(ctx, &vccs))?.into_iter();
    Ok(vccs
        .into_iter()
        .map(|vcc| {
            let baseline = suites.next().expect("one suite per config");
            let iraw = suites.next().expect("one suite per config");
            let cmp = MechanismComparison::new(&ctx.timing, vcc, baseline, iraw);
            point_from(ctx, &cmp)
        })
        .collect())
}

/// Renders one sweep point as a JSON object — shared by the `--json`
/// document and the `lowvcc-serve` response body.
#[must_use]
pub fn point_json(p: &SweepPoint) -> String {
    json::object(&[
        ("vcc_mv", p.vcc.millivolts().to_string()),
        ("frequency_gain", json::number(p.frequency_gain)),
        ("speedup", json::number(p.speedup)),
        ("delayed_fraction", json::number(p.delayed_fraction)),
        ("relative_delay", json::number(p.relative_delay)),
        ("relative_energy", json::number(p.relative_energy)),
        ("relative_edp", json::number(p.relative_edp)),
        (
            "baseline_leakage_fraction",
            json::number(p.baseline_leakage_fraction),
        ),
        ("bp_corruption_rate", json::number(p.bp_corruption_rate)),
        ("rsb_corruptions", p.rsb_corruptions.to_string()),
    ])
}

/// Formats the Figure 11b table (frequency increase & performance gains).
#[must_use]
pub fn fig11b_table(points: &[SweepPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "vcc_mv",
        "frequency_increase",
        "performance_gain",
        "delayed_instr_frac",
    ]);
    for p in points {
        t.row(vec![
            p.vcc.millivolts().to_string(),
            fnum(p.frequency_gain, 3),
            fnum(p.speedup, 3),
            fnum(p.delayed_fraction, 4),
        ]);
    }
    t
}

/// Formats the Figure 12 table (relative delay, energy, EDP).
#[must_use]
pub fn fig12_table(points: &[SweepPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "vcc_mv",
        "relative_delay",
        "relative_energy",
        "relative_edp",
        "baseline_leakage_frac",
    ]);
    for p in points {
        t.row(vec![
            p.vcc.millivolts().to_string(),
            fnum(p.relative_delay, 3),
            fnum(p.relative_energy, 3),
            fnum(p.relative_edp, 3),
            fnum(p.baseline_leakage_fraction, 3),
        ]);
    }
    t
}

/// Convenience: the sweep point at `mv`, if present.
#[must_use]
pub fn at(points: &[SweepPoint], mv: u32) -> Option<&SweepPoint> {
    points.iter().find(|p| p.vcc.millivolts() == mv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;
    use std::sync::Arc;

    #[test]
    fn cold_sweep_simulates_each_distinct_projection_once() {
        let store = Arc::new(ResultStore::ephemeral());
        let ctx = ExperimentContext::sized(1, 2_000)
            .unwrap()
            .with_cache(Arc::clone(&store));
        assert_eq!(configs(&ctx).len(), 26);
        run_sweep_at(&ctx, PAPER_SWEEP.iter()).unwrap();
        // At ≥600 mV the IRAW run is the baseline run: 26 configs, 21
        // simulations per trace, each looked up once.
        let traces = ctx.specs().len() as u64;
        assert_eq!(store.stats().misses, 21 * traces);
        assert_eq!(store.stats().hits + store.stats().coalesced, 0);
        assert_eq!(store.stats().simulated_uops, 21 * ctx.total_uops() as u64);
    }

    #[test]
    fn sweep_reproduces_paper_shape_on_quick_suite() {
        let ctx = ExperimentContext::quick().unwrap();
        let points = run_sweep_at(&ctx, PAPER_SWEEP.iter()).unwrap();
        assert_eq!(points.len(), 13);

        // High Vcc: no gain, EDP slightly above 1 (hardware overhead).
        let p700 = at(&points, 700).unwrap();
        assert!((p700.speedup - 1.0).abs() < 0.01);
        assert!(p700.relative_edp >= 1.0);

        // 500 mV: the headline band (paper: ×1.48 perf, 0.61 EDP).
        let p500 = at(&points, 500).unwrap();
        assert!(p500.frequency_gain > 1.5);
        assert!(p500.speedup > 1.2 && p500.speedup < p500.frequency_gain);
        assert!(p500.relative_edp < 0.75, "EDP {:.3}", p500.relative_edp);

        // 400 mV: the extreme point (paper: ×1.90 perf, 0.33 EDP).
        let p400 = at(&points, 400).unwrap();
        assert!(p400.speedup > 1.6);
        assert!(p400.relative_edp < p500.relative_edp);

        // Monotone speedup as Vcc falls.
        for pair in points.windows(2) {
            assert!(
                pair[1].speedup >= pair[0].speedup - 0.02,
                "speedup must grow as Vcc falls"
            );
        }

        // Prediction-only blocks: corruption rates negligible, as §4.5.
        for p in &points {
            assert!(p.bp_corruption_rate < 0.01);
        }

        let t = fig11b_table(&points);
        assert_eq!(t.len(), 13);
        let t = fig12_table(&points);
        assert_eq!(t.len(), 13);
    }
}
