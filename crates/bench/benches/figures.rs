//! Criterion benches, one per paper artefact: regenerating each figure and
//! table end-to-end on the quick suite. Wall-clock here tracks how costly
//! each reproduction artefact is, and guards against performance
//! regressions in the experiment pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowvcc_bench::experiments::{fig1, fig11a, stalls, sweep, table1};
use lowvcc_bench::ExperimentContext;
use lowvcc_sram::PAPER_SWEEP;

fn ctx() -> ExperimentContext {
    ExperimentContext::quick().expect("quick suite builds")
}

fn bench_fig1(c: &mut Criterion) {
    let ctx = ctx();
    c.bench_function("fig1_delay_curves", |b| {
        b.iter(|| black_box(fig1::table(&ctx)));
    });
}

fn bench_fig11a(c: &mut Criterion) {
    let ctx = ctx();
    c.bench_function("fig11a_cycle_time", |b| {
        b.iter(|| black_box(fig11a::table(&ctx)));
    });
}

fn bench_fig11b_and_fig12(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.bench_function("fig11b_fig12_full_sweep", |b| {
        b.iter(|| {
            let points = sweep::run_sweep_at(&ctx, PAPER_SWEEP.iter()).expect("sweep runs");
            black_box((sweep::fig11b_table(&points), sweep::fig12_table(&points)))
        });
    });
    g.finish();
}

fn bench_table1(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("table1_quantitative", |b| {
        b.iter(|| black_box(table1::quantitative(&ctx).expect("table runs")));
    });
    g.finish();
}

fn bench_stalls(c: &mut Criterion) {
    let ctx = ctx();
    let mut g = c.benchmark_group("stalls");
    g.sample_size(10);
    g.bench_function("stall_attribution_575mv", |b| {
        b.iter(|| black_box(stalls::measure(&ctx).expect("measurement runs")));
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig1,
    bench_fig11a,
    bench_fig11b_and_fig12,
    bench_table1,
    bench_stalls
);
criterion_main!(figures);
