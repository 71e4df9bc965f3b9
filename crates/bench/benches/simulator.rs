//! Whole-simulator throughput benches: uops simulated per second for each
//! mechanism, plus the Faulty Bits / Extra Bypass baseline configurations,
//! the lazy-vs-eager scoreboard microbenches, and the `long_trace_200k`
//! engine-throughput group that tracks the event-driven fast path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lowvcc_baselines::{ExtraBypassDesign, ExtraBypassScope, FaultyBitsDesign, FaultyBitsScope};
use lowvcc_core::{CoreConfig, Mechanism, SimConfig, Simulator};
use lowvcc_sram::{voltage::mv, CycleTimeModel};
use lowvcc_trace::{Reg, TraceArena, TraceSpec, Uop, UopKind, WorkloadFamily};
use lowvcc_uarch::scoreboard::{IrawWindow, Scoreboard};

const TRACE_LEN: usize = 20_000;

fn trace() -> TraceArena {
    TraceSpec::new(WorkloadFamily::SpecInt, 0, TRACE_LEN)
        .build()
        .expect("preset params")
}

fn bench_mechanisms(c: &mut Criterion) {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let t = trace();
    let mut g = c.benchmark_group("simulator_throughput");
    g.throughput(Throughput::Elements(TRACE_LEN as u64));
    g.sample_size(10);
    for (name, mech) in [
        ("baseline_500mv", Mechanism::Baseline),
        ("iraw_500mv", Mechanism::Iraw),
        ("ideal_logic_500mv", Mechanism::IdealLogic),
    ] {
        let cfg = SimConfig::at_vcc(core, &timing, mv(500), mech);
        let sim = Simulator::new(cfg).expect("valid config");
        g.bench_function(name, |b| {
            b.iter(|| black_box(sim.run(&t).expect("simulation completes")));
        });
    }
    g.finish();
}

fn bench_baseline_designs(c: &mut Criterion) {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let t = trace();
    let mut g = c.benchmark_group("baseline_designs");
    g.throughput(Throughput::Elements(TRACE_LEN as u64));
    g.sample_size(10);

    let fb = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
    let sim = Simulator::new(fb.sim_config(core, &timing, mv(450), 1)).expect("valid config");
    g.bench_function("faulty_bits_4sigma_450mv", |b| {
        b.iter(|| black_box(sim.run(&t).expect("simulation completes")));
    });

    let eb = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);
    let sim = Simulator::new(eb.sim_config(core, &timing, mv(450))).expect("valid config");
    g.bench_function("extra_bypass_450mv", |b| {
        b.iter(|| black_box(sim.run(&t).expect("simulation completes")));
    });
    g.finish();
}

/// Eager reference scoreboard: what the engine used before the lazy
/// representation — every register physically shifted every cycle. Kept
/// here (not in the library) purely as the bench baseline.
struct EagerScoreboard {
    regs: Vec<u32>,
    width: u32,
    mask: u32,
}

impl EagerScoreboard {
    fn new(width: u32) -> Self {
        let mask = (1u32 << width) - 1;
        Self {
            regs: vec![mask; usize::from(lowvcc_trace::NUM_REGS)],
            width,
            mask,
        }
    }

    fn set_producer(&mut self, reg: Reg, pattern: u32) {
        self.regs[usize::from(reg.index())] = pattern;
    }

    fn is_ready(&self, reg: Reg) -> bool {
        self.regs[usize::from(reg.index())] >> (self.width - 1) & 1 == 1
    }

    fn tick(&mut self) {
        for r in &mut self.regs {
            *r = ((*r << 1) | (*r & 1)) & self.mask;
        }
    }
}

/// Lazy vs eager scoreboard: the identical producer/tick/read sequence,
/// so the delta is exactly the cost of shifting every register per cycle.
fn bench_scoreboard_tick(c: &mut Criterion) {
    const CYCLES: u64 = 4_096;
    let window = IrawWindow {
        bypass_levels: 1,
        bubble: 1,
    };
    let reg = |i: u8| Reg::new(i).expect("in range");
    let mut g = c.benchmark_group("scoreboard_tick");
    g.throughput(Throughput::Elements(CYCLES));

    g.bench_function("lazy", |b| {
        b.iter(|| {
            let mut sb = Scoreboard::new(7);
            for i in 0..CYCLES {
                let r = reg((i % 32) as u8);
                sb.set_producer(r, 3, Some(window));
                sb.tick();
                black_box(sb.is_ready(r));
            }
            black_box(sb)
        });
    });

    g.bench_function("eager", |b| {
        // Same Figure 8 pattern, pre-built once (being generous to the
        // eager version: its per-cycle cost is purely the full shift).
        let pattern = {
            let mut probe = Scoreboard::new(7);
            probe.set_producer(reg(0), 3, Some(window));
            probe.pattern(reg(0))
        };
        b.iter(|| {
            let mut sb = EagerScoreboard::new(7);
            for i in 0..CYCLES {
                let r = reg((i % 32) as u8);
                sb.set_producer(r, pattern);
                sb.tick();
                black_box(sb.is_ready(r));
            }
            black_box(sb.is_ready(reg(0)))
        });
    });
    g.finish();
}

const LONG_TRACE_LEN: usize = 200_000;

/// Dependent divide clusters: long structural/data stalls the
/// cycle-skipping fast path jumps over.
fn div_chain_trace(n: usize) -> TraceArena {
    let reg = |i: u8| Reg::new(i).expect("in range");
    let mut uops = Vec::with_capacity(n);
    while uops.len() < n {
        let i = uops.len();
        let d = reg((16 + (i % 8)) as u8);
        let mut div = Uop::alu(0x40_0000 + (i as u64 % 16) * 4, Some(d), Some(reg(0)), None);
        div.kind = UopKind::IntDiv;
        uops.push(div);
        uops.push(Uop::alu(0x40_0040, Some(reg(40)), Some(d), None));
        uops.push(Uop::alu(0x40_0044, Some(reg(41)), Some(reg(40)), None));
    }
    uops.truncate(n);
    TraceArena::from_uops("div_chain", uops).expect("well-formed uops")
}

/// Strided loads over a 16 MB footprint: every access misses the DL0 and
/// most miss the UL1 — the memory-bound shape that dominates paper-scale
/// suites at the fast (IRAW) clock.
fn mem_stream_trace(n: usize) -> TraceArena {
    let reg = |i: u8| Reg::new(i).expect("in range");
    let mut uops = Vec::with_capacity(n);
    while uops.len() < n {
        let i = (uops.len() / 2) as u64;
        let addr = 0x100_0000 + i * 72 % (1 << 24);
        uops.push(Uop::load(0x40_0000 + (i % 16) * 4, reg(20), None, addr, 8));
        uops.push(Uop::alu(0x40_0040, Some(reg(21)), Some(reg(20)), None));
    }
    uops.truncate(n);
    TraceArena::from_uops("mem_stream", uops).expect("well-formed uops")
}

/// Engine throughput on 200k-uop traces — the number the fast path is
/// judged on. Three shapes: the balanced SPEC-int mix, a divide-bound
/// chain, and a memory-bound stream (the latter two are where the
/// event-driven skip dominates).
fn bench_long_traces(c: &mut Criterion) {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let mut g = c.benchmark_group("long_trace_200k");
    g.throughput(Throughput::Elements(LONG_TRACE_LEN as u64));
    g.sample_size(10);
    let specint = TraceSpec::new(WorkloadFamily::SpecInt, 0, LONG_TRACE_LEN)
        .build()
        .expect("preset params");
    for (name, t) in [
        ("specint_iraw_500mv", &specint),
        ("div_chain_iraw_500mv", &div_chain_trace(LONG_TRACE_LEN)),
        ("mem_stream_iraw_500mv", &mem_stream_trace(LONG_TRACE_LEN)),
    ] {
        let cfg = SimConfig::at_vcc(core, &timing, mv(500), Mechanism::Iraw);
        let sim = Simulator::new(cfg).expect("valid config");
        g.bench_function(name, |b| {
            b.iter(|| black_box(sim.run(t).expect("simulation completes")));
        });
    }
    let cfg = SimConfig::at_vcc(core, &timing, mv(500), Mechanism::Baseline);
    let sim = Simulator::new(cfg).expect("valid config");
    g.bench_function("specint_baseline_500mv", |b| {
        b.iter(|| black_box(sim.run(&specint).expect("simulation completes")));
    });
    g.finish();
}

criterion_group!(
    simulator,
    bench_mechanisms,
    bench_baseline_designs,
    bench_scoreboard_tick,
    bench_long_traces
);
criterion_main!(simulator);
