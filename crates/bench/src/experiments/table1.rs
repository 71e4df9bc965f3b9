//! T1 — the paper's Table 1 and its measured companion.

use lowvcc_baselines::{qualitative_table, rows_from_results, technique_configs, QuantRow};
use lowvcc_core::SimConfig;
use lowvcc_sram::Millivolts;

use crate::context::ExperimentContext;
use crate::error::ExperimentError;
use crate::report::{fnum, TextTable};

fn yes_no(b: bool) -> String {
    if b { "YES" } else { "NO" }.to_string()
}

/// The published qualitative Table 1 (plus the IRAW row).
#[must_use]
pub fn qualitative() -> TextTable {
    let mut t = TextTable::new(vec![
        "technique",
        "works_for_all_blocks",
        "adapts_to_multiple_vcc",
        "hw_overhead",
        "large_ipc_impact",
        "hard_to_test",
    ]);
    for r in qualitative_table() {
        t.row(vec![
            r.technique.to_string(),
            yes_no(r.works_for_all_blocks),
            yes_no(r.adapts_to_multiple_vcc),
            r.hw_overhead.to_string(),
            yes_no(r.large_ipc_impact),
            yes_no(r.hard_to_test),
        ]);
    }
    t
}

/// Measured rows at `vcc` over the context suite, as **one batch**: all
/// technique configurations replay each trace back to back via
/// [`ExperimentContext::run_suite_batch`]. Through the result cache each
/// technique's `SimConfig` still keys its own suite run, so a warm
/// Table 1 performs zero simulations (and shares the baseline run with
/// the sweep at the same voltage).
///
/// # Errors
///
/// Propagates simulation and cache failures.
pub fn quantitative_rows_at(
    ctx: &ExperimentContext,
    vcc: Millivolts,
) -> Result<Vec<QuantRow>, ExperimentError> {
    let configs = technique_configs(ctx.core, &ctx.timing, vcc);
    let cfgs: Vec<SimConfig> = configs.iter().map(|tc| tc.cfg.clone()).collect();
    let suites = ctx.run_suite_batch(&cfgs)?;
    Ok(rows_from_results(&configs, &suites))
}

/// Formats measured rows as the Table 1 companion — the single rendering
/// site shared by [`quantitative`] and the batched-vs-legacy equivalence
/// suite.
#[must_use]
pub fn rows_table(rows: &[QuantRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "technique",
        "freq_gain",
        "speedup",
        "relative_ipc",
        "area_frac",
        "energy_factor",
        "hard_to_test",
    ]);
    for r in rows {
        t.row(vec![
            r.technique.clone(),
            fnum(r.frequency_gain, 3),
            fnum(r.speedup, 3),
            fnum(r.relative_ipc, 3),
            format!("{:.5}", r.area_fraction),
            fnum(r.energy_factor, 4),
            yes_no(r.hard_to_test),
        ]);
    }
    t
}

/// Measured comparison at 500 mV over the context suite.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn quantitative(ctx: &ExperimentContext) -> Result<TextTable, ExperimentError> {
    const VCC: Millivolts = Millivolts::literal(500);
    let vcc = VCC;
    Ok(rows_table(&quantitative_rows_at(ctx, vcc)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualitative_has_three_techniques() {
        let t = qualitative();
        assert_eq!(t.len(), 3);
        let s = t.render();
        assert!(s.contains("Faulty Bits"));
        assert!(s.contains("Extra Bypass"));
        assert!(s.contains("IRAW"));
    }

    #[test]
    fn quantitative_runs_on_quick_suite() {
        let ctx = ExperimentContext::quick().unwrap();
        let t = quantitative(&ctx).unwrap();
        assert_eq!(t.len(), 6);
    }
}
