//! Energy, leakage, EDP and hardware-overhead models for the low-Vcc
//! in-order core reproduction (HPCA 2010).
//!
//! The paper's Figure 12 compares energy, delay and energy-delay product
//! (EDP) of the IRAW-avoidance core against the write-limited baseline at
//! each Vcc. Its energy model is simple and stated in Section 5:
//!
//! * dynamic energy depends **quadratically** on Vcc,
//! * leakage is **10% of total energy at 600 mV** for the baseline,
//! * leakage's share grows rapidly as Vcc falls (the paper's worked 450 mV
//!   example: 8.50 J total / 4.74 J leakage for the baseline vs 6.40 J /
//!   2.64 J for IRAW), so the faster IRAW core saves energy by finishing
//!   earlier and burning less leakage.
//!
//! This crate implements that model with the leakage-power curve anchored
//! to the paper's published fractions (see [`model::EnergyModel`]), plus the
//! extra-hardware overhead accounting that reproduces the paper's "<1%
//! energy, ~0.03% area" claims ([`overhead`]).
//!
//! ```
//! use lowvcc_energy::{EnergyModel, Joules};
//! use lowvcc_sram::Millivolts;
//!
//! let model = EnergyModel::silverthorne_45nm();
//! let v = Millivolts::new(500)?;
//! // A 1-second run of 1e9 instructions at 500 mV:
//! let e = model.breakdown(v, 1_000_000_000, 1.0, 1.0);
//! assert!(e.total() > Joules::new(0.0));
//! # Ok::<(), lowvcc_sram::VoltageError>(())
//! ```

pub mod edp;
pub mod interp;
pub mod model;
pub mod overhead;

pub use edp::{EdpPoint, EnergyBreakdown, Joules, Watts};
pub use interp::MonotoneCubic;
pub use model::EnergyModel;
pub use overhead::{ExtraBypassOverhead, FaultyBitsOverhead, IrawOverhead};
