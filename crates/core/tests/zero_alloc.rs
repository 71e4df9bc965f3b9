//! Counting-allocator proof of the batch path's allocation-free steady
//! state: once an [`EngineWorkspace`] is warmed up, re-running the whole
//! sweep grid over an already-decoded [`TraceArena`] performs **zero**
//! heap allocations.
//!
//! Debug builds replay every fast-path skip on a *cloned* engine (the
//! shadow equivalence check), which allocates by design, so the
//! assertion only runs in release builds — CI exercises it via
//! `cargo test --release -p lowvcc-core --test zero_alloc`.

// The one sanctioned unsafe block in the tree: a counting GlobalAlloc
// has an inherently unsafe interface. Everything else builds under the
// workspace-wide `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lowvcc_core::{CoreConfig, EngineWorkspace, Mechanism, SimConfig};
use lowvcc_sram::voltage::mv;
use lowvcc_sram::CycleTimeModel;
use lowvcc_trace::{TraceSpec, WorkloadFamily};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation on the
/// calling thread.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn steady_state_is_allocation_free_after_warmup() {
    if cfg!(debug_assertions) {
        // The debug shadow replay clones the engine per skip by design;
        // only release builds have an allocation-free steady state.
        eprintln!("skipping: debug builds clone the engine for the shadow replay");
        return;
    }
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let arena = TraceSpec::new(WorkloadFamily::SpecInt, 7, 20_000)
        .build()
        .unwrap();
    let cfgs: Vec<SimConfig> = [450u32, 500, 550]
        .iter()
        .flat_map(|&vcc| {
            [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic]
                .map(|mech| SimConfig::at_vcc(core, &timing, mv(vcc), mech))
        })
        .collect();
    let mut ws = EngineWorkspace::new();
    // Warm-up pass: builds the engine and grows every internal buffer to
    // its high-water mark for this (grid, trace) pair.
    for cfg in &cfgs {
        ws.run(cfg, &arena).unwrap();
    }
    let before = allocations();
    let mut committed = 0u64;
    for cfg in &cfgs {
        committed += ws.run(cfg, &arena).unwrap().stats.instructions;
    }
    let after = allocations();
    assert_eq!(committed, 20_000 * cfgs.len() as u64);
    assert_eq!(after - before, 0, "warmed-up batch sweep must not allocate");
}
