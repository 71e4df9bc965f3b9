//! Alternatives face-off: IRAW avoidance vs Faulty Bits vs Extra Bypass
//! across the low-Vcc range — the paper's Table 1 argument as a sweep.
//!
//! Run with: `cargo run --release --example alternatives_faceoff`

use lowvcc::baselines::{ExtraBypassDesign, ExtraBypassScope, FaultyBitsDesign, FaultyBitsScope};
use lowvcc::core::{Mechanism, SimConfig, SuiteResult};
use lowvcc::sram::VccRange;
use lowvcc::trace::{TraceSpec, WorkloadFamily};
use lowvcc_bench::ExperimentContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let specs = [
        (WorkloadFamily::SpecInt, 0u64),
        (WorkloadFamily::Office, 1),
        (WorkloadFamily::Multimedia, 2),
    ]
    .map(|(f, s)| TraceSpec::new(f, s, 60_000));
    let ctx = ExperimentContext::from_specs(&specs, "face-off")?;
    let (core, timing) = (ctx.core, &ctx.timing);

    let fb = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
    let eb = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);

    println!("speedup over the 6σ write-limited baseline (higher is better):");
    println!(
        "{:>7} {:>8} {:>22} {:>24}",
        "Vcc", "IRAW", "FaultyBits 4σ (hypo.)", "ExtraBypass 2-cyc (hypo.)"
    );
    let sweep = VccRange::new(575, 400, 25)?;
    for vcc in sweep.iter() {
        // One batch per voltage: all four designs replay each trace back
        // to back.
        let cfgs = [
            SimConfig::at_vcc(core, timing, vcc, Mechanism::Baseline),
            SimConfig::at_vcc(core, timing, vcc, Mechanism::Iraw),
            fb.sim_config(core, timing, vcc, 1),
            eb.sim_config(core, timing, vcc),
        ];
        let [base, iraw, fb_run, eb_run]: [SuiteResult; 4] = ctx
            .run_suite_batch(&cfgs)?
            .try_into()
            .expect("four configs in, four suites out");
        let t0 = base.total_seconds();
        println!(
            "{:>7} {:>8.3} {:>22.3} {:>24.3}",
            vcc.to_string(),
            t0 / iraw.total_seconds(),
            t0 / fb_run.total_seconds(),
            t0 / eb_run.total_seconds(),
        );
    }
    println!("\nCaveat (the paper's Table 1 point): the Faulty Bits and Extra Bypass");
    println!("columns are *hypothetical* — neither technique actually covers all SRAM");
    println!("blocks of the core, so their realistic core-level speedup is 1.0, and");
    println!("they pay fault maps / wide always-on latches respectively.");
    Ok(())
}
