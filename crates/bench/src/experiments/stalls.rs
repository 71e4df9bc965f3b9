//! S2 — the paper's §5.2 stall attribution at 575 mV.
//!
//! The paper: "performance drop at 575 mV is 8.86% and distributes as
//! follows: 8.52% due to issue stalls required to avoid IRAW in the
//! register file, 0.30% due to DL0 IRAW avoidance, and the remaining
//! 0.04% due to IRAW avoidance in the remaining blocks."
//!
//! Measured the same way here: the IRAW run is compared against a
//! *stall-free* run at the identical (IRAW) clock — the difference is the
//! total degradation due to IRAW stalls, which the per-block stall-cycle
//! counters then apportion.

use lowvcc_core::{Mechanism, SimConfig, SuiteResult};
use lowvcc_sram::Millivolts;

use crate::context::ExperimentContext;
use crate::error::ExperimentError;
use crate::report::{fnum, TextTable};

/// The measured attribution at one voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallReport {
    /// Voltage of the measurement.
    pub vcc: Millivolts,
    /// Total performance degradation from IRAW stalls (time ratio − 1,
    /// against a stall-free run at the same clock).
    pub total_degradation: f64,
    /// Degradation share attributed to RF issue stalls.
    pub rf_share: f64,
    /// …to the IQ occupancy gate.
    pub iq_share: f64,
    /// …to the DL0 (Store Table + post-fill guard).
    pub dl0_share: f64,
    /// …to the remaining blocks' fill guards.
    pub other_share: f64,
    /// Fraction of instructions delayed (paper: 13.2%).
    pub delayed_fraction: f64,
}

/// The paper's §5.2 reference point: the voltage of the report's stall
/// attribution, and the default of a `stalls` request to the serve
/// daemon.
pub const DEFAULT_VCC: Millivolts = Millivolts::literal(575);

/// Measures the attribution at [`DEFAULT_VCC`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn measure(ctx: &ExperimentContext) -> Result<StallReport, ExperimentError> {
    measure_at(ctx, DEFAULT_VCC)
}

/// The attribution's two configurations at `vcc`: the IRAW run and a
/// stall-free reference at the identical clock with every IRAW
/// mechanism off. They key differently — `stabilization_cycles` is part
/// of the canonical SimKey encoding — so the cache serves both.
#[must_use]
pub fn configs(ctx: &ExperimentContext, vcc: Millivolts) -> [SimConfig; 2] {
    let iraw_cfg = SimConfig::at_vcc(ctx.core, &ctx.timing, vcc, Mechanism::Iraw);
    let mut free_cfg = iraw_cfg.clone();
    free_cfg.stabilization_cycles = 0;
    [iraw_cfg, free_cfg]
}

/// Measures the attribution at an arbitrary voltage. The IRAW and
/// stall-free [`configs`] run as one two-configuration batch, so each
/// trace is replayed for both back to back.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn measure_at(
    ctx: &ExperimentContext,
    vcc: Millivolts,
) -> Result<StallReport, ExperimentError> {
    let [iraw, free]: [SuiteResult; 2] = ctx
        .run_suite_batch(&configs(ctx, vcc))?
        .try_into()
        .expect("two configs in, two suites out");
    Ok(report(vcc, &iraw, &free))
}

/// The attribution at `vcc` from the suite results of its two
/// [`configs`] — so the stall study can ride in a grid beside other
/// experiments' configurations.
#[must_use]
pub fn report(vcc: Millivolts, iraw: &SuiteResult, free: &SuiteResult) -> StallReport {
    let total_degradation = iraw.total_seconds() / free.total_seconds() - 1.0;

    let mut rf = 0u64;
    let mut iq = 0u64;
    let mut dl0 = 0u64;
    let mut other = 0u64;
    for (_, r) in &iraw.per_trace {
        rf += r.stats.stalls.rf_iraw;
        iq += r.stats.stalls.iq_iraw;
        dl0 += r.stats.stalls.dl0_total();
        other += r.stats.stalls.other_fill;
    }
    let total_cycles = (rf + iq + dl0 + other).max(1) as f64;
    let share = |x: u64| total_degradation * x as f64 / total_cycles;

    StallReport {
        vcc,
        total_degradation,
        rf_share: share(rf),
        iq_share: share(iq),
        dl0_share: share(dl0),
        other_share: share(other),
        delayed_fraction: iraw.delayed_instruction_fraction(),
    }
}

/// Measures the attribution at [`DEFAULT_VCC`] and formats it as a
/// table (returning the raw report too).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn table(ctx: &ExperimentContext) -> Result<(TextTable, StallReport), ExperimentError> {
    let r = measure(ctx)?;
    Ok((render(&r), r))
}

/// Formats a report as the attribution table.
#[must_use]
pub fn render(r: &StallReport) -> TextTable {
    let mut t = TextTable::new(vec!["quantity", "measured", "paper"]);
    t.row(vec![
        "total degradation from IRAW stalls".into(),
        format!("{:.2}%", r.total_degradation * 100.0),
        "8.86%".into(),
    ]);
    t.row(vec![
        "  register file issue stalls".into(),
        format!("{:.2}%", r.rf_share * 100.0),
        "8.52%".into(),
    ]);
    t.row(vec![
        "  IQ occupancy gate".into(),
        format!("{:.2}%", r.iq_share * 100.0),
        "(in 0.04%)".into(),
    ]);
    t.row(vec![
        "  DL0 (STable + fill guard)".into(),
        format!("{:.2}%", r.dl0_share * 100.0),
        "0.30%".into(),
    ]);
    t.row(vec![
        "  remaining blocks".into(),
        format!("{:.2}%", r.other_share * 100.0),
        "0.04%".into(),
    ]);
    t.row(vec![
        "instructions delayed by IRAW".into(),
        fnum(r.delayed_fraction * 100.0, 2) + "%",
        "13.2%".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;
    use std::sync::Arc;

    #[test]
    fn attribution_orders_like_the_paper() {
        let ctx = ExperimentContext::quick().unwrap();
        let (_, r) = table(&ctx).unwrap();
        // Degradation present and single-digit-percent scale.
        assert!(r.total_degradation > 0.0 && r.total_degradation < 0.35);
        // RF dominates, as the paper reports.
        assert!(r.rf_share >= r.dl0_share);
        assert!(r.rf_share >= r.other_share);
        // Shares sum to the total.
        let sum = r.rf_share + r.iq_share + r.dl0_share + r.other_share;
        assert!((sum - r.total_degradation).abs() < 1e-9);
        // A meaningful fraction of instructions gets delayed.
        assert!(r.delayed_fraction > 0.03 && r.delayed_fraction < 0.3);
    }

    #[test]
    fn cold_measurement_is_one_batch_and_warm_rerun_is_free() {
        let ctx = ExperimentContext::sized(1, 2_000).unwrap();
        let uncached = measure(&ctx).unwrap();
        let store = Arc::new(ResultStore::ephemeral());
        let ctx = ctx.with_cache(Arc::clone(&store));
        let suite_size = ctx.specs().len() as u64;

        let cold = measure(&ctx).unwrap();
        let s = store.stats();
        assert_eq!(s.misses, 2 * suite_size, "IRAW + stall-free per trace");
        assert_eq!(s.coalesced, 0, "one caller, nothing to wait for");
        assert_eq!(cold, uncached);

        let warm = measure(&ctx).unwrap();
        assert_eq!(
            store.stats().misses,
            2 * suite_size,
            "warm rerun simulates nothing"
        );
        assert_eq!(warm, uncached);
    }
}
