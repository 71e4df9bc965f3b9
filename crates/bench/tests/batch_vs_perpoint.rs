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

use lowvcc_baselines::{rows_from_results, technique_configs};
use lowvcc_bench::experiments::{fig11a, sweep, table1, SweepPoint};
use lowvcc_bench::{ExperimentContext, TextTable};
use lowvcc_core::{MechanismComparison, Parallelism, SimConfig, Simulator, SuiteResult};
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

/// The reference: `cfg` over the suite, one fresh engine per trace.
fn per_point(ctx: &ExperimentContext, cfg: &SimConfig) -> SuiteResult {
    let sim = Simulator::new(cfg.clone()).expect("valid config");
    SuiteResult {
        per_trace: ctx
            .suite
            .iter()
            .map(|t| (t.name.clone(), sim.run(t).expect("simulation completes")))
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
