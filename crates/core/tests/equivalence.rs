//! Fast-path ↔ naive-stepper equivalence suite.
//!
//! The event-driven engine ([`Simulator::run`]) must produce *exactly*
//! the [`SimStats`] of the cycle-by-cycle reference stepper
//! ([`Simulator::run_naive`]) — not approximately: every counter, every
//! stall attribution, every cache statistic. These tests sweep the full
//! mechanism × workload-family matrix over several supply voltages, plus
//! the Extra Bypass / Faulty Bits baseline shapes the engine also serves.
//!
//! With `debug_assertions` enabled (the default test profile, and the
//! release CI job that sets `RUSTFLAGS="-C debug-assertions"`), the fast
//! path additionally replays every skipped stretch against a cloned
//! naive engine internally, so a divergence fails twice over.

use lowvcc_core::{
    run_batch_groups, CoreConfig, Mechanism, Parallelism, SimConfig, SimError, Simulator,
};
use lowvcc_sram::voltage::mv;
use lowvcc_sram::CycleTimeModel;
use lowvcc_trace::{TraceSpec, WorkloadFamily};

fn sim(mechanism: Mechanism, vcc: u32) -> Simulator {
    let cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(vcc),
        mechanism,
    );
    Simulator::new(cfg).expect("preset config is valid")
}

#[test]
fn fast_path_equals_naive_across_mechanisms_families_and_voltages() {
    // 400 mV (N = 2, extreme point), 500 mV (headline band), 575 mV
    // (the paper's attribution point) and 700 mV (IRAW off) cover every
    // distinct stabilization-cycle setting.
    for vcc in [400u32, 500, 575, 700] {
        for mech in [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic] {
            let s = sim(mech, vcc);
            for (seed, family) in WorkloadFamily::all().into_iter().enumerate() {
                let trace = TraceSpec::new(family, seed as u64, 4_000)
                    .build()
                    .expect("preset trace params");
                let fast = s.run(&trace).expect("fast path completes");
                let naive = s.run_naive(&trace).expect("naive stepper completes");
                assert_eq!(
                    fast.stats, naive.stats,
                    "stats diverged: {mech:?} {family:?} at {vcc} mV"
                );
                assert_eq!(fast.cycle_time, naive.cycle_time);
            }
        }
    }
}

#[test]
fn fast_path_equals_naive_for_extra_bypass_write_ports() {
    // The Extra Bypass baseline exercises the WritePort blocker, which
    // has its own skip wake-up rule (port frees minus write latency).
    let mut cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(450),
        Mechanism::Baseline,
    );
    cfg.extra_write_port_cycles = 1;
    let s = Simulator::new(cfg).expect("valid config");
    for (seed, family) in WorkloadFamily::all().into_iter().enumerate() {
        let trace = TraceSpec::new(family, 100 + seed as u64, 3_000)
            .build()
            .expect("preset trace params");
        let fast = s.run(&trace).expect("fast path completes");
        let naive = s.run_naive(&trace).expect("naive stepper completes");
        assert_eq!(fast.stats, naive.stats, "extra-bypass {family:?}");
    }
}

#[test]
fn fast_path_equals_naive_with_faulty_lines() {
    // Disabled cache lines change the miss pattern (and thus which
    // cycles are skippable) without touching the skip machinery itself.
    let mut cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(450),
        Mechanism::Baseline,
    );
    cfg.disabled_lines = (16, 16, 256);
    cfg.fault_seed = 11;
    let s = Simulator::new(cfg).expect("valid config");
    let trace = TraceSpec::new(WorkloadFamily::SpecInt, 7, 5_000)
        .build()
        .expect("preset trace params");
    let fast = s.run(&trace).expect("fast path completes");
    let naive = s.run_naive(&trace).expect("naive stepper completes");
    assert_eq!(fast.stats, naive.stats);
}

#[test]
fn parallel_suite_results_are_byte_identical_for_any_worker_count() {
    let traces: Vec<_> = WorkloadFamily::all()
        .into_iter()
        .enumerate()
        .map(|(seed, family)| {
            TraceSpec::new(family, seed as u64, 3_000)
                .build()
                .expect("preset trace params")
        })
        .collect();
    let cfgs: Vec<SimConfig> = [Mechanism::Baseline, Mechanism::Iraw]
        .map(|mech| {
            SimConfig::at_vcc(
                CoreConfig::silverthorne(),
                &CycleTimeModel::silverthorne_45nm(),
                mv(500),
                mech,
            )
        })
        .into();
    let groups: Vec<_> = (0..traces.len()).map(|t| (t, cfgs.clone())).collect();
    let lend = |&t: &usize| Ok::<_, SimError>(&traces[t]);
    let sequential =
        run_batch_groups(&groups, lend, Parallelism::sequential()).expect("suite runs");
    for workers in [2usize, 5, 16] {
        let parallel =
            run_batch_groups(&groups, lend, Parallelism::threads(workers)).expect("suite runs");
        // Full structural equality: order and every statistic.
        assert_eq!(sequential, parallel, "{workers} workers");
    }
}
