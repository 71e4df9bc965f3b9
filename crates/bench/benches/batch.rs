//! The batched sweep engine — smoke-run by the `engine-gates` CI job.
//! One 20k-uop SPEC-int trace replayed under the paper's full grid (13
//! voltage points × 3 mechanisms): one decode and a reset-reused
//! workspace for the whole grid.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lowvcc_core::{CoreConfig, EngineWorkspace, Mechanism, SimConfig};
use lowvcc_sram::{CycleTimeModel, PAPER_SWEEP};
use lowvcc_trace::{TraceArena, TraceSpec, WorkloadFamily};

const TRACE_LEN: usize = 20_000;

fn full_grid() -> Vec<SimConfig> {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    PAPER_SWEEP
        .iter()
        .flat_map(|vcc| {
            [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic]
                .map(|m| SimConfig::at_vcc(core, &timing, vcc, m))
        })
        .collect()
}

fn bench_batched_grid(c: &mut Criterion) {
    let trace = TraceSpec::new(WorkloadFamily::SpecInt, 0, TRACE_LEN)
        .build()
        .expect("preset params");
    let cfgs = full_grid();
    let mut g = c.benchmark_group("batch_sweep_full_grid");
    g.throughput(Throughput::Elements((TRACE_LEN * cfgs.len()) as u64));
    g.sample_size(10);

    g.bench_function("batched", |b| {
        let mut ws = EngineWorkspace::new();
        b.iter(|| {
            // Decode-once is part of the measured model: the arena build
            // sits inside the timed region, amortized over the grid.
            let arena = TraceArena::from_trace(&trace);
            for cfg in &cfgs {
                black_box(ws.run(cfg, &arena).expect("simulation completes"));
            }
        });
    });
    g.finish();
}

criterion_group!(batch, bench_batched_grid);
criterion_main!(batch);
