//! Faulty Bits and Extra Bypass — the two state-of-the-art alternatives
//! the HPCA 2010 low-Vcc paper compares IRAW avoidance against (its
//! Table 1), implemented and measurable.
//!
//! Both techniques try to clock an SRAM-bearing core above its 6σ write
//! delay. Both fail the paper's first test — *works for all SRAM blocks* —
//! which is why each design here carries a **realistic scope** (the blocks
//! it can actually cover, at which the core gains nothing) and an
//! **all-blocks hypothetical scope** (quantifying what the technique would
//! cost even if it applied everywhere).
//!
//! ```
//! use lowvcc_baselines::{FaultyBitsDesign, FaultyBitsScope};
//! use lowvcc_sram::{CycleTimeModel, Millivolts};
//!
//! let timing = CycleTimeModel::silverthorne_45nm();
//! let vcc = Millivolts::new(450)?;
//! // Realistic Faulty Bits (caches only): the register file pins the
//! // clock, so the core-level frequency gain is exactly 1.
//! let realistic = FaultyBitsDesign::four_sigma(FaultyBitsScope::CachesOnly);
//! assert_eq!(realistic.frequency_gain(&timing, vcc), 1.0);
//! # Ok::<(), lowvcc_sram::VoltageError>(())
//! ```

pub mod comparison;
pub mod extra_bypass;
pub mod faulty_bits;

pub use comparison::{
    qualitative_table, rows_from_results, technique_configs, QuantRow, Table1Row, TechniqueConfig,
};
pub use extra_bypass::{ExtraBypassDesign, ExtraBypassScope};
pub use faulty_bits::{FaultyBitsDesign, FaultyBitsScope};
