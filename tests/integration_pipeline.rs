//! Cross-crate pipeline integration: mechanism orderings, determinism
//! and baseline designs on real synthetic workloads. The per-Vcc choice
//! between IRAW and the baseline is read off the sweep in
//! `integration_experiments.rs`.

use lowvcc_baselines::{ExtraBypassDesign, ExtraBypassScope, FaultyBitsDesign, FaultyBitsScope};
use lowvcc_core::{
    compare_mechanisms, run_suite_batch, CoreConfig, Mechanism, Parallelism, SimConfig, Simulator,
    SuiteResult,
};
use lowvcc_sram::voltage::mv;
use lowvcc_sram::CycleTimeModel;
use lowvcc_trace::{TraceArena, TraceSpec, WorkloadFamily};

fn timing() -> CycleTimeModel {
    CycleTimeModel::silverthorne_45nm()
}

fn traces(len: usize) -> Vec<TraceArena> {
    [
        (WorkloadFamily::SpecInt, 3u64),
        (WorkloadFamily::Office, 4),
        (WorkloadFamily::Kernel, 5),
    ]
    .iter()
    .map(|&(f, s)| TraceSpec::new(f, s, len).build().unwrap())
    .collect()
}

/// One suite result per config, through the batched grid executor.
fn run_grid<const N: usize>(cfgs: [SimConfig; N], ts: &[TraceArena]) -> [SuiteResult; N] {
    run_suite_batch(&cfgs, ts, Parallelism::sequential())
        .unwrap()
        .try_into()
        .unwrap()
}

#[test]
fn mechanism_time_ordering_at_every_low_voltage() {
    let core = CoreConfig::silverthorne();
    let ts = traces(15_000);
    for v in [575, 525, 475, 425] {
        let [base, iraw, ideal] = run_grid(
            [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic]
                .map(|m| SimConfig::at_vcc(core, &timing(), mv(v), m)),
            &ts,
        );
        // Wall-clock: ideal ≤ IRAW < baseline. The ideal clock may lose up
        // to ~1% to ceil() quantization of the constant-time DRAM latency
        // (a faster clock rounds the same nanoseconds up to more cycles).
        assert!(
            ideal.total_seconds() <= iraw.total_seconds() * 1.01,
            "{v} mV"
        );
        assert!(iraw.total_seconds() < base.total_seconds(), "{v} mV");
        // IRAW pays stall cycles against a stall-free run at the *same*
        // clock (the clean comparison; the ideal clock differs in memory
        // cycle counts). Measured via the stall counters directly:
        let iraw_stalls: u64 = iraw
            .per_trace
            .iter()
            .map(|(_, r)| r.stats.stalls.rf_iraw + r.stats.stalls.iq_iraw)
            .sum();
        assert!(iraw_stalls > 0, "{v} mV: IRAW must pay some stalls");
        // Baseline never stalls for IRAW.
        for (_, r) in &base.per_trace {
            assert_eq!(r.stats.stalls.rf_iraw, 0);
            assert_eq!(r.stats.stalls.iq_iraw, 0);
            assert_eq!(r.stats.stable.probes, 0);
        }
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let core = CoreConfig::silverthorne();
    let cfg = SimConfig::at_vcc(core, &timing(), mv(450), Mechanism::Iraw);
    let sim = Simulator::new(cfg).unwrap();
    let t = TraceSpec::new(WorkloadFamily::Server, 11, 30_000)
        .build()
        .unwrap();
    let a = sim.run(&t).unwrap();
    let b = sim.run(&t).unwrap();
    assert_eq!(a.stats, b.stats);
    // Rebuilding the trace from the same spec gives the same stream.
    let t2 = TraceSpec::new(WorkloadFamily::Server, 11, 30_000)
        .build()
        .unwrap();
    assert_eq!(t, t2);
}

#[test]
fn faulty_bits_all_blocks_pays_with_misses() {
    let core = CoreConfig::silverthorne();
    let ts = traces(15_000);
    let v = mv(425);
    let design = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
    let [faulty, base] = run_grid(
        [
            design.sim_config(core, &timing(), v, 9),
            SimConfig::at_vcc(core, &timing(), v, Mechanism::Baseline),
        ],
        &ts,
    );
    // Faster clock wins time…
    assert!(faulty.total_seconds() < base.total_seconds());
    // …but the disabled lines cost IPC.
    assert!(faulty.aggregate_ipc() <= base.aggregate_ipc() + 1e-9);
}

#[test]
fn extra_bypass_contention_shows_up_in_stats() {
    let core = CoreConfig::silverthorne();
    let ts = traces(15_000);
    let design = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
    let cfg = design.sim_config(core, &timing(), mv(475));
    let [suite] = run_grid([cfg], &ts);
    let port_stalls: u64 = suite
        .per_trace
        .iter()
        .map(|(_, r)| r.stats.write_port_stalls)
        .sum();
    assert!(port_stalls > 0, "two-cycle writes must contend for ports");
}

#[test]
fn iraw_comparison_carries_block_level_evidence() {
    let core = CoreConfig::silverthorne();
    let cmp = compare_mechanisms(
        core,
        &timing(),
        mv(475),
        &traces(20_000),
        Parallelism::sequential(),
    )
    .unwrap();
    let mut full_matches = 0;
    let mut bp_reads = 0;
    for (_, r) in &cmp.iraw.per_trace {
        full_matches += r.stats.stable.full_matches;
        bp_reads += r.stats.branches.branches;
        // Every run commits its full trace.
        assert_eq!(r.stats.instructions, 20_000);
    }
    assert!(full_matches > 0, "stack spills must hit the Store Table");
    assert!(bp_reads > 1000, "branches flow through the predictor");
}
