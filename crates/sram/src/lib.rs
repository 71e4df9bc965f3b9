//! SRAM, bitcell and logic timing models versus supply voltage (Vcc).
//!
//! This crate is the circuit-level substrate for the reproduction of the
//! HPCA 2010 paper *"High-Performance Low-Vcc In-Order Core"* (Abella,
//! Chaparro, Vera, Carretero, González). The paper's evaluation rests on a
//! single circuit-level observation (its Figure 1): as Vcc scales down,
//! combinational logic delay (modelled as a chain of fanout-of-4 inverters)
//! grows roughly linearly, while **SRAM bitcell write delay grows
//! exponentially** and becomes the cycle-time limiter below ~600 mV.
//!
//! The paper gathered that data from a proprietary Intel circuit simulator at
//! 45 nm with 6σ process-variation margins. This crate substitutes an
//! analytical model **calibrated to the paper's published anchor points**:
//!
//! * write+wordline delay crosses the 12-FO4 clock phase at **600 mV**,
//! * bitcell-only write delay crosses it at **525 mV**,
//! * the write-limited frequency is **77%** of the logic-limited frequency at
//!   550 mV and **24%** at 450 mV,
//! * the write-limited cycle time "almost doubles" at 500 mV,
//! * interrupting writes early (IRAW) raises frequency by **+57%** at 500 mV
//!   and **+99%** at 400 mV, with one stabilization cycle sufficing below
//!   600 mV and the mechanism disabled at or above 600 mV.
//!
//! # Quickstart
//!
//! ```
//! use lowvcc_sram::{CycleTimeModel, Millivolts};
//!
//! let model = CycleTimeModel::silverthorne_45nm();
//! let v = Millivolts::new(500).unwrap();
//!
//! // Write-limited (baseline) vs logic/pulse-limited (IRAW) cycle times.
//! let base = model.baseline_cycle(v);
//! let iraw = model.iraw_cycle(v);
//! assert!(base.picos() > iraw.picos());
//!
//! // The headline result: ~+57% operating frequency at 500 mV.
//! let gain = model.frequency_gain(v);
//! assert!(gain > 1.5 && gain < 1.7);
//!
//! // One stabilization cycle suffices below 600 mV.
//! assert_eq!(model.stabilization_cycles(v), 1);
//! ```
//!
//! # Module map
//!
//! * [`voltage`] — [`Millivolts`] newtype and the paper's Vcc sweep.
//! * [`fo4`] — alpha-power-law inverter delay and FO4 chains.
//! * [`bitcell`] — 8-T bitcell read/write/interrupted-write delays.
//! * [`variation`] — Gaussian Vth variation, σ margins, write-fail
//!   probabilities (used by the Faulty Bits baseline).
//! * [`wordline`] — array geometry and wordline activation delay.
//! * [`array`](mod@array) — descriptors for every SRAM block of the Silverthorne core.
//! * [`cycle`] — baseline vs IRAW cycle time, frequency gain, stabilization
//!   cycle count (the quantitative heart of Figures 11a/11b).
//! * [`figure1`] — the five delay-vs-Vcc series of the paper's Figure 1.

pub mod array;
pub mod bitcell;
pub mod cycle;
pub mod figure1;
pub mod fo4;
pub mod variation;
pub mod voltage;
pub mod wordline;

pub use array::{ArrayKind, SramArray, SramPorts};
pub use bitcell::Bitcell8T;
pub use cycle::{CycleTimeModel, TimingLimiter};
pub use figure1::{Figure1Row, Figure1Series};
pub use fo4::{AlphaPowerModel, Megahertz, Picoseconds};
pub use voltage::{Millivolts, VccRange, VoltageError, PAPER_SWEEP};
pub use wordline::{ArrayGeometry, WordlineModel};
