//! Equivalence gate for the grid executor: the figure and table
//! artefacts produced through [`ExperimentContext::run_suite_batch`]
//! must be byte-identical to an independent reference — one fresh
//! [`Simulator::run`] per (config, trace) pair, assembled through the
//! same `point_from` / `rows_from_results` — at every worker count the
//! CI matrix exercises. CSV bytes — not floats with an epsilon — are
//! compared, so even a last-ulp drift in the shared engine state fails
//! the gate.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use lowvcc_baselines::{rows_from_results, technique_configs};
use lowvcc_bench::experiments::{fig11a, sweep, table1, SweepPoint};
use lowvcc_bench::{ExperimentContext, ResultStore, TextTable};
use lowvcc_core::{
    run_batch_groups, Mechanism, MechanismComparison, Parallelism, SimConfig, Simulator,
    SuiteResult,
};
use lowvcc_sram::{Millivolts, PAPER_SWEEP};

fn ctx_with(jobs: usize) -> ExperimentContext {
    ExperimentContext::sized(1, 3_000)
        .expect("preset suite")
        .with_parallelism(Parallelism::threads(jobs))
}

/// Round-trips a table through the CSV writer and returns the bytes.
fn csv_bytes(table: &TextTable, name: &str) -> Vec<u8> {
    let path: PathBuf =
        std::env::temp_dir().join(format!("lowvcc_bvp_{}_{name}.csv", std::process::id()));
    table.write_csv(&path).expect("csv written");
    let bytes = fs::read(&path).expect("csv read back");
    fs::remove_file(&path).ok();
    bytes
}

/// The reference: `cfg` over the suite, one fresh engine per trace,
/// each trace built afresh from its spec (not the context's arenas).
fn per_point(ctx: &ExperimentContext, cfg: &SimConfig) -> SuiteResult {
    let sim = Simulator::new(cfg.clone()).expect("valid config");
    SuiteResult {
        per_trace: ctx
            .specs
            .iter()
            .map(|spec| {
                let t = spec.build().expect("preset trace");
                let r = sim.run(&t).expect("simulation completes");
                (t.name().to_string(), r)
            })
            .collect(),
    }
}

fn reference_sweep(ctx: &ExperimentContext) -> Vec<SweepPoint> {
    PAPER_SWEEP
        .iter()
        .map(|vcc| {
            let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
            let cmp = MechanismComparison::new(
                &ctx.timing,
                vcc,
                per_point(ctx, &base),
                per_point(ctx, &iraw),
            );
            sweep::point_from(ctx, &cmp)
        })
        .collect()
}

#[test]
fn batched_sweep_matches_per_point_at_every_worker_count() {
    let reference = reference_sweep(&ctx_with(1));
    let r11b = csv_bytes(&sweep::fig11b_table(&reference), "f11b_reference");
    let r12 = csv_bytes(&sweep::fig12_table(&reference), "f12_reference");
    for jobs in [1, 2, 5] {
        let ctx = ctx_with(jobs);

        // F11a is analytic (no simulation): identical bytes before and
        // after the sweep guard that it does not mutate the context.
        let f11a_before = csv_bytes(&fig11a::table(&ctx), "f11a_before");

        let batched = sweep::run_sweep(&ctx).expect("batched sweep");
        assert_eq!(batched, reference, "sweep points diverged at jobs={jobs}");

        let b11b = csv_bytes(&sweep::fig11b_table(&batched), "f11b_batched");
        assert_eq!(b11b, r11b, "F11b CSV diverged at jobs={jobs}");

        let b12 = csv_bytes(&sweep::fig12_table(&batched), "f12_batched");
        assert_eq!(b12, r12, "F12 CSV diverged at jobs={jobs}");

        let f11a_after = csv_bytes(&fig11a::table(&ctx), "f11a_after");
        assert_eq!(f11a_before, f11a_after, "context mutated at jobs={jobs}");
    }
}

#[test]
fn batched_table1_matches_per_config_runs() {
    let vcc = Millivolts::new(500).expect("in range");
    let ctx = ctx_with(1);
    let configs = technique_configs(ctx.core, &ctx.timing, vcc);
    let suites: Vec<SuiteResult> = configs.iter().map(|tc| per_point(&ctx, &tc.cfg)).collect();
    let reference = csv_bytes(
        &table1::rows_table(&rows_from_results(&configs, &suites)),
        "t1_reference",
    );
    for jobs in [1, 2, 5] {
        let ctx = ctx_with(jobs);
        let batched_rows = table1::quantitative_rows_at(&ctx, vcc).expect("batched rows");
        let b = csv_bytes(&table1::rows_table(&batched_rows), "t1_batched");
        assert_eq!(b, reference, "Table 1 CSV diverged at jobs={jobs}");
    }
}

/// The grid executor collapses configurations with equal cycle-level
/// projections into one simulation per group and copies the result
/// with each config's own cycle time. One group holding repeated
/// configs, all five ≥600 mV (baseline, IRAW) pairs, the 575 mV
/// stall-free / ideal-logic pair and a retimed baseline (a different
/// clock with the same memory latency in cycles) must still equal one
/// fresh simulator per config — through the bare executor and through
/// the context, cached and uncached.
#[test]
fn duplicate_projections_match_per_config_runs() {
    let ctx = ctx_with(1);
    let at = |mv: u32, mech| {
        SimConfig::at_vcc(ctx.core, &ctx.timing, Millivolts::new(mv).unwrap(), mech)
    };
    let mut cfgs: Vec<SimConfig> = [600u32, 625, 650, 675, 700]
        .into_iter()
        .flat_map(|mv| [at(mv, Mechanism::Baseline), at(mv, Mechanism::Iraw)])
        .collect();
    let mut free = at(575, Mechanism::Iraw);
    free.stabilization_cycles = 0;
    let mut retimed = at(500, Mechanism::Baseline);
    retimed.cycle_time = retimed.cycle_time * 1.001;
    cfgs.extend([
        at(500, Mechanism::Iraw),
        at(575, Mechanism::IdealLogic),
        free,
        at(500, Mechanism::Baseline),
        retimed,
        at(500, Mechanism::Iraw),
        cfgs[0].clone(),
    ]);
    let firsts = lowvcc_core::same_projection_as(&cfgs);
    let collapsed = firsts.iter().enumerate().filter(|&(i, &f)| i != f);
    assert_eq!(collapsed.clone().count(), 9, "{firsts:?}");
    assert!(
        collapsed
            .clone()
            .any(|(i, &f)| cfgs[i].cycle_time != cfgs[f].cycle_time),
        "some collapsed pair must differ in cycle time"
    );

    let reference: Vec<SuiteResult> = cfgs.iter().map(|c| per_point(&ctx, c)).collect();
    for jobs in [1, 2] {
        let ctx = ctx_with(jobs);
        let groups: Vec<(usize, Vec<SimConfig>)> =
            (0..ctx.suite.len()).map(|t| (t, cfgs.clone())).collect();
        let per_group =
            run_batch_groups(&groups, &ctx.suite, Parallelism::threads(jobs)).expect("grid");
        for (t, results) in per_group.iter().enumerate() {
            for (c, r) in results.iter().enumerate() {
                assert_eq!(*r, reference[c].per_trace[t].1, "trace {t} config {c}");
            }
        }
        assert_eq!(ctx.run_suite_batch(&cfgs).expect("uncached"), reference);
        let cached = ctx.with_cache(Arc::new(ResultStore::ephemeral()));
        assert_eq!(cached.run_suite_batch(&cfgs).expect("cold"), reference);
        assert_eq!(cached.run_suite_batch(&cfgs).expect("warm"), reference);
    }
}
