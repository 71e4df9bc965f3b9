//! Regenerates the paper's Table 1 — qualitatively and, beyond the paper,
//! quantitatively from simulation.
//!
//! Table 1 compares state-of-the-art ways to override the SRAM write
//! delay along five axes: works for all SRAM blocks, adapts to multiple
//! Vcc, hardware overhead, IPC impact, and testability. The qualitative
//! rows reproduce the published table verbatim; [`technique_configs`]
//! plus [`rows_from_results`] back each claim with measured numbers at a
//! chosen voltage, run through whichever grid executor the caller uses.

use lowvcc_core::{CoreConfig, Mechanism, SimConfig, SuiteResult};
use lowvcc_energy::{ExtraBypassOverhead, FaultyBitsOverhead, IrawOverhead};
use lowvcc_sram::{CycleTimeModel, Millivolts};

use crate::extra_bypass::{ExtraBypassDesign, ExtraBypassScope};
use crate::faulty_bits::{FaultyBitsDesign, FaultyBitsScope};

/// One qualitative row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Technique name.
    pub technique: &'static str,
    /// Works for all SRAM blocks in the core?
    pub works_for_all_blocks: bool,
    /// Adapts cheaply to multiple Vcc levels?
    pub adapts_to_multiple_vcc: bool,
    /// Hardware-overhead verdict.
    pub hw_overhead: &'static str,
    /// Large IPC impact?
    pub large_ipc_impact: bool,
    /// Introduces post-silicon testing indeterminism?
    pub hard_to_test: bool,
}

/// The paper's Table 1, plus the IRAW row its Section 5 concludes with.
#[must_use]
pub fn qualitative_table() -> Vec<Table1Row> {
    vec![
        Table1Row {
            technique: "Faulty Bits",
            works_for_all_blocks: false,
            adapts_to_multiple_vcc: true, // "costly": maps or re-test
            hw_overhead: "LOW (fault maps not negligible)",
            large_ipc_impact: true,
            hard_to_test: true,
        },
        Table1Row {
            technique: "Extra Bypass",
            works_for_all_blocks: false,
            adapts_to_multiple_vcc: false,
            hw_overhead: "HIGH (wide latches, wires)",
            large_ipc_impact: true,
            hard_to_test: false,
        },
        Table1Row {
            technique: "IRAW avoidance",
            works_for_all_blocks: true,
            adapts_to_multiple_vcc: true,
            hw_overhead: "NEGLIGIBLE (<0.1% area)",
            large_ipc_impact: false,
            hard_to_test: false,
        },
    ]
}

/// One measured row of the quantitative companion table.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantRow {
    /// Technique name.
    pub technique: String,
    /// Core-level clock-frequency gain over the write-limited baseline.
    pub frequency_gain: f64,
    /// Measured performance speedup over the baseline (total time).
    pub speedup: f64,
    /// Measured IPC relative to the baseline's IPC.
    pub relative_ipc: f64,
    /// Extra area as a fraction of core SRAM.
    pub area_fraction: f64,
    /// Dynamic-energy multiplier of the extra hardware.
    pub energy_factor: f64,
    /// Testing indeterminism?
    pub hard_to_test: bool,
}

/// One technique of the quantitative comparison: its name, the exact
/// [`SimConfig`] it runs under, and its bookkept overheads.
///
/// Exposing the configuration (rather than running it) lets callers
/// route the rows through their own executor — the bench crate's result
/// cache replays Table 1 without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueConfig {
    /// Technique name (row label).
    pub name: &'static str,
    /// The configuration the technique runs under.
    pub cfg: SimConfig,
    /// Extra area as a fraction of core SRAM.
    pub area_fraction: f64,
    /// Dynamic-energy multiplier of the extra hardware.
    pub energy_factor: f64,
    /// Testing indeterminism?
    pub hard_to_test: bool,
}

/// The six techniques of the quantitative Table 1 companion at `vcc`,
/// in row order. The first entry is always the write-limited baseline —
/// [`rows_from_results`] uses it as the reference.
#[must_use]
pub fn technique_configs(
    core: CoreConfig,
    timing: &CycleTimeModel,
    vcc: Millivolts,
) -> Vec<TechniqueConfig> {
    let fb_real = FaultyBitsDesign::four_sigma(FaultyBitsScope::CachesOnly);
    let fb_hyp = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
    let eb_real = ExtraBypassDesign::two_cycle(ExtraBypassScope::RegisterFileOnly);
    let eb_hyp = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
    vec![
        TechniqueConfig {
            name: "baseline (6-sigma write-limited)",
            cfg: SimConfig::at_vcc(core, timing, vcc, Mechanism::Baseline),
            area_fraction: 0.0,
            energy_factor: 1.0,
            hard_to_test: false,
        },
        TechniqueConfig {
            name: "faulty bits 4-sigma (caches only, realistic)",
            cfg: fb_real.sim_config(core, timing, vcc, 1),
            area_fraction: FaultyBitsOverhead::silverthorne().area_fraction(),
            energy_factor: 1.0,
            hard_to_test: true,
        },
        TechniqueConfig {
            name: "faulty bits 4-sigma (all blocks, hypothetical)",
            cfg: fb_hyp.sim_config(core, timing, vcc, 1),
            area_fraction: FaultyBitsOverhead::silverthorne().area_fraction(),
            energy_factor: 1.0,
            hard_to_test: true,
        },
        TechniqueConfig {
            name: "extra bypass (RF only, realistic)",
            cfg: eb_real.sim_config(core, timing, vcc),
            area_fraction: ExtraBypassOverhead::silverthorne().area_fraction(),
            energy_factor: ExtraBypassOverhead::silverthorne().dynamic_energy_factor(),
            hard_to_test: false,
        },
        TechniqueConfig {
            name: "extra bypass (all blocks, hypothetical)",
            cfg: eb_hyp.sim_config(core, timing, vcc),
            area_fraction: ExtraBypassOverhead::silverthorne().area_fraction(),
            energy_factor: ExtraBypassOverhead::silverthorne().dynamic_energy_factor(),
            hard_to_test: false,
        },
        TechniqueConfig {
            name: "IRAW avoidance (this paper)",
            cfg: SimConfig::at_vcc(core, timing, vcc, Mechanism::Iraw),
            area_fraction: IrawOverhead::silverthorne().area_fraction(),
            energy_factor: IrawOverhead::silverthorne().dynamic_energy_factor(),
            hard_to_test: false,
        },
    ]
}

/// Assembles the quantitative rows from suite results paired one-to-one
/// with [`technique_configs`] output (`suites[0]` must be the baseline).
///
/// # Panics
///
/// Panics if `configs` is empty or the two slices differ in length.
#[must_use]
pub fn rows_from_results(configs: &[TechniqueConfig], suites: &[SuiteResult]) -> Vec<QuantRow> {
    assert_eq!(
        configs.len(),
        suites.len(),
        "one suite result per technique"
    );
    let base_cfg = &configs.first().expect("baseline row present").cfg;
    let base_time = suites[0].total_seconds();
    let base_ipc = suites[0].aggregate_ipc();
    configs
        .iter()
        .zip(suites)
        .map(|(tc, suite)| QuantRow {
            technique: tc.name.to_string(),
            frequency_gain: base_cfg.cycle_time / tc.cfg.cycle_time,
            speedup: base_time / suite.total_seconds(),
            relative_ipc: suite.aggregate_ipc() / base_ipc,
            area_fraction: tc.area_fraction,
            energy_factor: tc.energy_factor,
            hard_to_test: tc.hard_to_test,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_core::{run_suite_batch, sim_key, Parallelism};
    use lowvcc_sram::voltage::mv;
    use lowvcc_trace::{TraceArena, TraceSpec, WorkloadFamily};

    #[test]
    fn qualitative_rows_match_the_paper() {
        let t = qualitative_table();
        assert_eq!(t.len(), 3);
        let fb = &t[0];
        assert!(!fb.works_for_all_blocks && fb.hard_to_test);
        let eb = &t[1];
        assert!(!eb.works_for_all_blocks && !eb.adapts_to_multiple_vcc && !eb.hard_to_test);
        let iraw = &t[2];
        assert!(iraw.works_for_all_blocks && iraw.adapts_to_multiple_vcc && !iraw.hard_to_test);
    }

    #[test]
    fn quantitative_rows_tell_the_papers_story() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let traces: Vec<TraceArena> = vec![
            TraceSpec::new(WorkloadFamily::SpecInt, 0, 12_000)
                .build()
                .unwrap(),
            TraceSpec::new(WorkloadFamily::Multimedia, 1, 12_000)
                .build()
                .unwrap(),
        ];
        let configs = technique_configs(CoreConfig::silverthorne(), &timing, mv(475));
        let cfgs: Vec<SimConfig> = configs.iter().map(|tc| tc.cfg.clone()).collect();
        let suites = run_suite_batch(&cfgs, &traces, Parallelism::sequential()).unwrap();
        let rows = rows_from_results(&configs, &suites);
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

    #[test]
    fn the_realistic_faulty_bits_row_is_the_baseline_run_where_it_disables_nothing() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let spec = TraceSpec::new(WorkloadFamily::Kernel, 0, 1_000);
        for v in [500, 450, 425, 400] {
            let configs = technique_configs(CoreConfig::silverthorne(), &timing, mv(v));
            let (baseline, realistic) = (&configs[0].cfg, &configs[1].cfg);
            assert_eq!(realistic.disabled_lines, (0, 0, 0), "{v} mV");
            assert_ne!(realistic.fault_seed, baseline.fault_seed, "{v} mV");
            assert_eq!(
                sim_key(realistic, &spec),
                sim_key(baseline, &spec),
                "{v} mV: one simulation for both rows"
            );
        }
    }
}
