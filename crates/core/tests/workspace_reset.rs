//! Property test for the batch path's central invariant: a reused
//! [`EngineWorkspace`] produces bit-identical `SimStats` to a fresh
//! engine, across all 7 trace families × 3 mechanisms (satellite of the
//! batched-sweep PR).
//!
//! One workspace threads through every run in sequence, so each run's
//! engine state is `reset()` from a *different* predecessor — any field
//! a reset forgets to restore shows up as a stats mismatch on some
//! (family, mechanism) pair.

use lowvcc_core::{CoreConfig, EngineWorkspace, Mechanism, SimConfig, Simulator};
use lowvcc_sram::voltage::mv;
use lowvcc_sram::CycleTimeModel;
use lowvcc_trace::{TraceSpec, WorkloadFamily};

#[test]
fn reset_workspace_matches_fresh_engine_across_families_and_mechanisms() {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let mut ws = EngineWorkspace::new();
    for (seed, family) in WorkloadFamily::all().into_iter().enumerate() {
        let arena = TraceSpec::new(family, seed as u64, 3_000).build().unwrap();
        for mech in [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic] {
            // Two voltages so the stabilization window N (and with it the
            // Store Table / stall-guard reconfiguration) changes between
            // consecutive resets.
            for vcc in [450u32, 500] {
                let cfg = SimConfig::at_vcc(core, &timing, mv(vcc), mech);
                let batched = ws.run(&cfg, &arena).unwrap();
                let fresh = Simulator::new(cfg).unwrap().run(&arena).unwrap();
                assert_eq!(
                    batched.stats, fresh.stats,
                    "{family:?} / {mech:?} at {vcc} mV"
                );
                assert_eq!(batched.cycle_time, fresh.cycle_time);
            }
        }
    }
}

#[test]
fn fault_map_survives_reset() {
    // The Faulty Bits fault map is applied at construction from a seeded
    // RNG; a reset must re-apply the identical map, not accumulate more
    // disabled lines or drop them.
    let timing = CycleTimeModel::silverthorne_45nm();
    let arena = TraceSpec::new(WorkloadFamily::Server, 11, 3_000)
        .build()
        .unwrap();
    let mut cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &timing,
        mv(500),
        Mechanism::Baseline,
    );
    cfg.disabled_lines = (8, 8, 64);
    cfg.fault_seed = 42;
    let mut ws = EngineWorkspace::new();
    let first = ws.run(&cfg, &arena).unwrap();
    let second = ws.run(&cfg, &arena).unwrap();
    let fresh = Simulator::new(cfg).unwrap().run(&arena).unwrap();
    assert_eq!(first.stats, fresh.stats);
    assert_eq!(second.stats, fresh.stats);
}
