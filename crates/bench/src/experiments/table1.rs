//! T1 — the paper's Table 1 and its measured companion.

use lowvcc_baselines::{qualitative_table, rows_from_results, technique_configs, QuantRow};
use lowvcc_core::{SimConfig, SuiteResult};
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

/// Table 1's technique configurations at `vcc`, in row order; each has
/// `vcc` as its supply voltage.
#[must_use]
pub fn configs(ctx: &ExperimentContext, vcc: Millivolts) -> Vec<SimConfig> {
    let configs = technique_configs(ctx.core, &ctx.timing, vcc);
    configs.into_iter().map(|tc| tc.cfg).collect()
}

/// Measured rows at `vcc` from the suite results of [`configs`] at
/// `vcc`, in the same order — so Table 1 can ride in a grid beside
/// other experiments' configurations.
///
/// # Panics
///
/// Panics unless `suites` holds one result per configuration.
#[must_use]
pub fn rows_from(
    ctx: &ExperimentContext,
    vcc: Millivolts,
    suites: &[SuiteResult],
) -> Vec<QuantRow> {
    rows_from_results(&technique_configs(ctx.core, &ctx.timing, vcc), suites)
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
    let suites = ctx.run_suite_batch(&configs(ctx, vcc))?;
    Ok(rows_from(ctx, vcc, &suites))
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

/// The voltage of the report's Table 1 companion, and the default of a
/// `table1` request to the serve daemon.
pub const DEFAULT_VCC: Millivolts = Millivolts::literal(500);

/// Measured comparison at [`DEFAULT_VCC`] over the context suite.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn quantitative(ctx: &ExperimentContext) -> Result<TextTable, ExperimentError> {
    Ok(rows_table(&quantitative_rows_at(ctx, DEFAULT_VCC)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::mv;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

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

    #[test]
    fn quantitative_rows_tell_the_papers_story() {
        let specs = [
            TraceSpec::new(WorkloadFamily::SpecInt, 0, 12_000),
            TraceSpec::new(WorkloadFamily::Multimedia, 1, 12_000),
        ];
        let ctx = ExperimentContext::from_specs(&specs, "two traces").unwrap();
        let rows = quantitative_rows_at(&ctx, mv(475)).unwrap();
        assert_eq!(rows.len(), 6);
        let by_name = |s: &str| {
            rows.iter()
                .find(|r| r.technique.contains(s))
                .unwrap_or_else(|| panic!("row {s}"))
        };
        // Realistic alternatives cannot speed the core up…
        assert!((by_name("caches only").speedup - 1.0).abs() < 0.02);
        assert!(by_name("RF only").speedup <= 1.02);
        // …IRAW can, and decisively.
        let iraw = by_name("IRAW");
        assert!(iraw.speedup > 1.3, "IRAW speedup {:.3}", iraw.speedup);
        // The hypothetical variants gain frequency but pay IPC.
        let eb = by_name("extra bypass (all blocks");
        assert!(eb.frequency_gain > 1.2);
        assert!(eb.relative_ipc < 1.0, "write-port contention costs IPC");
        // Overheads ordered as the paper argues: IRAW ≪ fault maps.
        assert!(iraw.area_fraction < by_name("faulty bits").area_fraction);
    }
}
