//! Mechanism tour: watch each IRAW-avoidance mechanism act, at the bit
//! level, exactly as the paper's figures describe.
//!
//! Run with: `cargo run --release --example mechanism_tour`

use lowvcc::core::{CoreConfig, Mechanism, SimConfig, Simulator};
use lowvcc::sram::{CycleTimeModel, Millivolts};
use lowvcc::trace::{Reg, TraceArena, Uop};
use lowvcc::uarch::iq::issue_allowed;
use lowvcc::uarch::scoreboard::{IrawWindow, Scoreboard};
use lowvcc::uarch::stable::{StableMatch, StoreTable, TrackedStore};

fn main() {
    let timing = CycleTimeModel::silverthorne_45nm();
    let vcc = Millivolts::new(500).expect("grid voltage");
    let n = timing.stabilization_cycles(vcc);
    println!("== At {vcc}: N = {n} stabilization cycle(s) ==\n");

    // --- Register file: the Figure 8 ready vector --------------------
    println!("Register file scoreboard (paper Figure 8):");
    let mut sb = Scoreboard::new(7);
    let r = Reg::new(3).expect("valid register");
    sb.set_producer(
        r,
        3,
        Some(IrawWindow {
            bypass_levels: 1,
            bubble: n,
        }),
    );
    for cycle in 0..7 {
        println!(
            "  cycle i+{cycle}: {:07b}  consumer may issue: {}",
            sb.pattern(r),
            if sb.is_ready(r) { "yes" } else { "NO " }
        );
        sb.tick();
    }
    println!("  → ready at i+3 (bypass), blocked at i+4 (RF stabilizing), ready from i+5.\n");

    // --- Instruction queue: the Figure 9 occupancy gate --------------
    println!("Instruction queue gate (paper Figure 9, ICI=2, AI=2):");
    for occupancy in 1..=5 {
        println!(
            "  occupancy {occupancy}: issue allowed = {}",
            issue_allowed(occupancy, 2, 2, n)
        );
    }
    println!(
        "  → issue requires occupancy ≥ ICI + AI·N = {}.",
        2 + 2 * n as usize
    );
    // A 3-uop program never reaches that occupancy by itself: at the end
    // of the trace the core pads the queue with NOOPs (paper §4.2).
    let uops = (0..3u8).map(|i| {
        let dst = Reg::new(16 + i).expect("valid register");
        let src = Reg::new(0).expect("valid register");
        Uop::alu(0x40_0000 + 4 * u64::from(i), Some(dst), Some(src), None)
    });
    let tail = TraceArena::from_uops("tail", uops).expect("well-formed uops");
    let cfg = SimConfig::at_vcc(CoreConfig::silverthorne(), &timing, vcc, Mechanism::Iraw);
    let result = Simulator::new(cfg)
        .expect("calibrated config is valid")
        .run(&tail)
        .expect("the drain lets every uop issue");
    println!(
        "  a {}-uop trace commits {} uops after {} drain NOOP(s).\n",
        tail.len(),
        result.stats.instructions,
        result.stats.drain_noops
    );

    // --- DL0 Store Table: the Figure 10 flow -------------------------
    println!("DL0 Store Table (paper Figure 10):");
    let mut st = StoreTable::new(2);
    st.reconfigure(n as usize);
    st.cycle_update(Some(TrackedStore {
        addr: 0x1000,
        size: 8,
        set: 4,
    }));
    for (what, addr, set) in [
        ("load of another set      ", 0x2000u64, 9u64),
        ("load of the stored addr  ", 0x1000, 4),
        ("load of same set, diff addr", 0x9000, 4),
    ] {
        let outcome = st.probe(addr, 8, set);
        let verdict = match outcome {
            StableMatch::None => "no conflict — proceeds normally".to_string(),
            StableMatch::Full { replay_stores } => {
                format!("FULL match — STable forwards data, replay {replay_stores} store(s)")
            }
            StableMatch::SetOnly { replay_stores } => {
                format!("SET match — repair: stall + replay {replay_stores} store(s)")
            }
        };
        println!("  {what}: {verdict}");
    }
    println!("\nPrediction-only blocks (BP, RSB) run unprotected — a corrupted");
    println!("counter can only mispredict, never break correctness (paper §4.5).");
}
