//! Micro-benchmarks of the substrate crates: timing models, variation
//! math, caches, scoreboard, predictors and trace generation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lowvcc_sram::variation::cell_fail_probability;
use lowvcc_sram::{voltage::mv, Bitcell8T, CycleTimeModel, Figure1Series};
use lowvcc_trace::{Reg, SimRng, TraceSpec, WorkloadFamily};
use lowvcc_uarch::bpred::Bimodal;
use lowvcc_uarch::cache::{CacheConfig, SetAssocCache};
use lowvcc_uarch::scoreboard::{IrawWindow, Scoreboard};

fn bench_timing_model(c: &mut Criterion) {
    let model = CycleTimeModel::silverthorne_45nm();
    c.bench_function("cycle_time_model_sweep", |b| {
        b.iter(|| black_box(Figure1Series::generate(&model)));
    });
    c.bench_function("frequency_gain_single_point", |b| {
        b.iter(|| black_box(model.frequency_gain(mv(500))));
    });
}

fn bench_variation_math(c: &mut Criterion) {
    let cell = Bitcell8T::silverthorne_45nm();
    let budget = cell.write_delay_at_sigma(mv(450), 4.0);
    c.bench_function("cell_fail_probability_bisection", |b| {
        b.iter(|| black_box(cell_fail_probability(&cell, mv(450), budget)));
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("dl0_access_hit_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::silverthorne_dl0()).unwrap();
        for line in 0..64u32 {
            let _ = cache.fill(line);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(cache.access(i))
        });
    });
    c.bench_function("ul1_fill_evict_churn", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::silverthorne_ul1()).unwrap();
        let mut line = 0u32;
        b.iter(|| {
            line = line.wrapping_add(8191); // walk sets
            black_box(cache.fill(line))
        });
    });
}

fn bench_scoreboard(c: &mut Criterion) {
    c.bench_function("scoreboard_tick_64_regs", |b| {
        let mut sb = Scoreboard::new(7);
        sb.set_producer(
            Reg::new(5).unwrap(),
            3,
            Some(IrawWindow {
                bypass_levels: 1,
                bubble: 1,
            }),
        );
        b.iter(|| {
            sb.tick();
            black_box(sb.is_ready(Reg::new(5).unwrap()))
        });
    });
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("bimodal_predict_update", |b| {
        let mut bp = Bimodal::new(4096);
        let mut rng = SimRng::seed_from(3);
        b.iter(|| {
            let pc = rng.below(1 << 16) << 2;
            let (pred, _) = bp.predict(pc);
            black_box(bp.update(pc, pred ^ rng.chance(0.1)))
        });
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_gen");
    g.sample_size(20);
    for family in [WorkloadFamily::SpecInt, WorkloadFamily::Server] {
        g.bench_function(format!("generate_{}_20k", family.name()), |b| {
            b.iter(|| {
                black_box(
                    TraceSpec::new(family, 1, 20_000)
                        .build()
                        .expect("preset params"),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    substrate,
    bench_timing_model,
    bench_variation_math,
    bench_cache,
    bench_scoreboard,
    bench_bpred,
    bench_trace_generation
);
criterion_main!(substrate);
