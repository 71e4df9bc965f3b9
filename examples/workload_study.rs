//! Workload study: how much each of the paper's seven workload classes
//! benefits from IRAW avoidance at 475 mV, and why (stall anatomy).
//!
//! Memory-bound kernels gain the least (constant-time DRAM dilutes the
//! clock gain); cache-resident integer/media code gains the most.
//!
//! Run with: `cargo run --release --example workload_study`

use lowvcc::sram::{CycleTimeModel, Millivolts};
use lowvcc::trace::{TraceSpec, TraceStats, WorkloadFamily};
use lowvcc_bench::ExperimentContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vcc = Millivolts::new(475)?;

    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "family", "speedup", "IPC", "delayed%", "rf-stall%", "dl0%", "code KB", "missrate"
    );
    for family in WorkloadFamily::all() {
        let specs: Vec<_> = (0..3)
            .map(|seed| TraceSpec::new(family, seed, 100_000))
            .collect();
        let ctx = ExperimentContext::from_specs(&specs, family.name())?;
        let cmp = ctx.compare_mechanisms(vcc)?;
        let tstats = TraceStats::analyze(&*ctx.trace(0)?);
        let mut rf = 0.0;
        let mut dl0 = 0.0;
        let mut miss = 0.0;
        let n = cmp.iraw.per_trace.len() as f64;
        for (_, r) in &cmp.iraw.per_trace {
            let f = r.stats.stall_fractions();
            rf += f.0 / n;
            dl0 += f.2 / n;
            miss += r.stats.dl0.miss_ratio() / n;
        }
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>8.1}% {:>8.2}% {:>7.2}% {:>8.1} {:>8.3}",
            family.name(),
            cmp.speedup.total_time,
            cmp.iraw.aggregate_ipc(),
            cmp.iraw.delayed_instruction_fraction() * 100.0,
            rf * 100.0,
            dl0 * 100.0,
            tstats.code_footprint_bytes() as f64 / 1024.0,
            miss,
        );
    }
    println!(
        "\nFrequency gain available at {vcc}: ×{:.2}",
        CycleTimeModel::silverthorne_45nm().frequency_gain(vcc)
    );
    Ok(())
}
