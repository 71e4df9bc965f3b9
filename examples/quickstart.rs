//! Quickstart: simulate one workload at 500 mV with and without IRAW
//! avoidance, and print the paper's headline comparison.
//!
//! Run with: `cargo run --release --example quickstart`

use lowvcc::core::{CoreConfig, Mechanism, SimConfig, Simulator};
use lowvcc::sram::{CycleTimeModel, Millivolts, TimingLimiter};
use lowvcc::trace::{TraceSpec, WorkloadFamily};

fn main() -> Result<(), lowvcc::Error> {
    // 1. The calibrated 45 nm timing model (the paper's Figure 1 physics).
    let timing = CycleTimeModel::silverthorne_45nm();
    let vcc = Millivolts::new(500)?;
    println!(
        "At {vcc}: logic-limited cycle {:.0} ps, write-limited {:.0} ps, IRAW {:.0} ps",
        timing.cycle_time(vcc, TimingLimiter::Logic).picos(),
        timing.cycle_time(vcc, TimingLimiter::WriteLimited).picos(),
        timing.cycle_time(vcc, TimingLimiter::Iraw).picos(),
    );

    // 2. A synthetic SPEC-integer-like trace (stand-in for the paper's
    //    production traces).
    let trace = TraceSpec::new(WorkloadFamily::SpecInt, 42, 200_000).build()?;
    println!("workload: {} ({} uops)", trace.name(), trace.len());

    // 3. Simulate the write-limited baseline and the IRAW core.
    let core = CoreConfig::silverthorne();
    let baseline =
        Simulator::new(SimConfig::at_vcc(core, &timing, vcc, Mechanism::Baseline))?.run(&trace)?;
    let iraw =
        Simulator::new(SimConfig::at_vcc(core, &timing, vcc, Mechanism::Iraw))?.run(&trace)?;

    println!(
        "baseline: {:>8} cycles  IPC {:.3}  {:.2} ms",
        baseline.stats.cycles,
        baseline.stats.ipc(),
        baseline.seconds() * 1e3
    );
    println!(
        "IRAW:     {:>8} cycles  IPC {:.3}  {:.2} ms  ({:.1}% instructions delayed)",
        iraw.stats.cycles,
        iraw.stats.ipc(),
        iraw.seconds() * 1e3,
        iraw.stats.delayed_instruction_fraction() * 100.0
    );
    println!(
        "frequency gain ×{:.2}  →  speedup ×{:.2}   (paper at 500 mV: ×1.57 → ×1.48)",
        timing.frequency_gain(vcc),
        iraw.speedup_over(&baseline)
    );
    Ok(())
}
