//! Counting-allocator proof of the batch path's allocation-free steady
//! state: once an [`EngineWorkspace`] is warmed up, re-running the whole
//! sweep grid over an already-decoded [`TraceArena`] performs **zero**
//! heap allocations. The warm-up pass itself is held to a byte budget,
//! so engine state that widens again fails here.
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
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation on the
/// calling thread and the bytes it asks for (a `realloc` counts its
/// whole new size).
struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes a fresh workspace's warm-up pass over the grid below may
/// allocate: 100,800 measured with 32-bit cache tags and stamps and
/// 32-bit BTB and corruption-tracker entries, against 230,864 for the
/// `u64` layout before them. The slack is smaller than any one table
/// widened back (the BTB alone would add 8 KiB).
const WARM_UP_BUDGET: u64 = 104 * 1024;

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
    let before = allocated_bytes();
    for cfg in &cfgs {
        ws.run(cfg, &arena).unwrap();
    }
    let warm_up = allocated_bytes() - before;
    eprintln!("warm-up pass: {warm_up} bytes");
    assert!(
        warm_up <= WARM_UP_BUDGET,
        "warm-up allocated {warm_up} bytes, budget {WARM_UP_BUDGET}"
    );
    let before = allocations();
    let mut committed = 0u64;
    for cfg in &cfgs {
        committed += ws.run(cfg, &arena).unwrap().stats.instructions;
    }
    let after = allocations();
    assert_eq!(committed, 20_000 * cfgs.len() as u64);
    assert_eq!(after - before, 0, "warmed-up batch sweep must not allocate");
}
