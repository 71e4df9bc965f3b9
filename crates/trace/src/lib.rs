//! Micro-op trace model and synthetic workload generators for the
//! reproduction of *"High-Performance Low-Vcc In-Order Core"* (HPCA 2010).
//!
//! The paper evaluates on 531 proprietary Intel traces of 10 M instructions
//! spanning Spec2006/2000, kernels, multimedia, office, server and
//! workstation programs. This crate substitutes seeded synthetic programs —
//! structured control flow walked into dynamic uop streams — one
//! parameterized family per workload class (see [`families`]).
//!
//! ```
//! use lowvcc_trace::families::{TraceSpec, WorkloadFamily};
//! use lowvcc_trace::stats::TraceStats;
//!
//! let trace = TraceSpec::new(WorkloadFamily::SpecInt, 0, 10_000).build()?;
//! let stats = TraceStats::analyze(&trace);
//! assert!(stats.control_fraction() > 0.05); // branchy integer code
//! # Ok::<(), lowvcc_trace::TraceError>(())
//! ```

pub mod addr;
pub mod arena;
pub mod dist;
pub mod error;
pub mod families;
pub mod rng;
pub mod stats;
pub mod synth;
pub mod uop;

pub use arena::{PcWalk, Trace, TraceArena, UopRecord};
pub use error::{TraceError, UopError};
pub use families::{suite, TraceSpec, WorkloadFamily};
pub use rng::SimRng;
pub use stats::TraceStats;
pub use synth::{Generator, SynthParams};
pub use uop::{Reg, RegError, Uop, UopKind, NUM_REGS};
