//! Sweep calibration: suite speedups at the paper's anchor voltages.
use lowvcc_bench::ExperimentContext;
use lowvcc_sram::voltage::mv;
use lowvcc_trace::{TraceSpec, WorkloadFamily};

fn main() {
    let len = 100_000;
    let specs: Vec<_> = WorkloadFamily::all()
        .iter()
        .flat_map(|&f| (0..2).map(move |s| TraceSpec::new(f, s, len)))
        .collect();
    let ctx = ExperimentContext::from_specs(&specs, "calibration").unwrap();
    for v in [575u32, 500, 450, 400] {
        let cmp = ctx.compare_mechanisms(mv(v)).unwrap();
        let mut stall = (0.0, 0.0, 0.0, 0.0);
        let n = cmp.iraw.per_trace.len() as f64;
        for (_, r) in &cmp.iraw.per_trace {
            let f = r.stats.stall_fractions();
            stall.0 += f.0 / n;
            stall.1 += f.1 / n;
            stall.2 += f.2 / n;
            stall.3 += f.3 / n;
        }
        println!("{v} mV: freq_gain={:.3} speedup={:.3} delayed={:.4} rf={:.4} iq={:.4} dl0={:.4} oth={:.4} ipc_iraw={:.3}",
            cmp.frequency_gain, cmp.speedup.total_time, cmp.iraw.delayed_instruction_fraction(),
            stall.0, stall.1, stall.2, stall.3, cmp.iraw.aggregate_ipc());
    }
}
