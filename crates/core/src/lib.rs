//! Cycle-level in-order core simulator with IRAW (immediate read after
//! write) avoidance — the primary contribution of *"High-Performance
//! Low-Vcc In-Order Core"* (HPCA 2010), reproduced in Rust.
//!
//! The simulator replays synthetic traces (`lowvcc-trace`) through a
//! 2-wide in-order Silverthorne-like pipeline built from `lowvcc-uarch`
//! blocks, clocked by the calibrated `lowvcc-sram` timing model. Three
//! clocking disciplines are supported ([`Mechanism`]):
//!
//! * **Baseline** — conventional write-limited clock (slow at low Vcc,
//!   no stalls);
//! * **Iraw** — interrupted SRAM writes at the fast IRAW clock, with the
//!   paper's per-block avoidance mechanisms inserting the occasional
//!   stall: scoreboard bubbles for the RF (§4.1), the occupancy gate for
//!   the IQ (§4.2), post-fill port stalls for the infrequently written
//!   caches (§4.3), the Store Table for the DL0 (§4.4), and nothing at
//!   all for the BP/RSB (§4.5);
//! * **IdealLogic** — the unconstrained 24-FO4 reference.
//!
//! ```
//! use lowvcc_core::{CoreConfig, SimConfig, Simulator};
//! use lowvcc_sram::{CycleTimeModel, Millivolts};
//! use lowvcc_trace::{TraceSpec, WorkloadFamily};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let timing = CycleTimeModel::silverthorne_45nm();
//! let vcc = Millivolts::new(500)?;
//! let trace = TraceSpec::new(WorkloadFamily::SpecInt, 0, 20_000).build()?;
//! let (base, iraw) = SimConfig::mechanism_pair(CoreConfig::silverthorne(), &timing, vcc);
//! let base = Simulator::new(base)?.run(&trace)?;
//! let iraw = Simulator::new(iraw)?.run(&trace)?;
//! // The paper's headline: large speedup at 500 mV from the faster clock.
//! assert!(base.seconds() / iraw.seconds() > 1.2);
//! # Ok(())
//! # }
//! ```
//!
//! Suites and grids of configurations run through
//! `ExperimentContext::run_suite_batch` in `lowvcc-bench`, over the
//! executor [`run_batch_groups`].

pub mod batch;
pub mod canon;
pub mod config;
pub mod error;
pub mod perf;
pub mod pipeline;
pub mod sim;
pub mod stats;

pub use batch::EngineWorkspace;
pub use canon::{
    decode_sim_result, encode_sim_result, sim_key, CanonError, SimKey, SimKeyPrefix,
    ENGINE_SEMANTICS_VERSION,
};
pub use config::{CoreConfig, CycleConfig, Mechanism, SimConfig, MAX_MEMORY_LATENCY_CYCLES};
pub use error::{ConfigError, SimError};
pub use perf::{
    run_batch_groups, same_projection_as, speedup, MechanismComparison, Parallelism, Speedup,
    SuiteResult,
};
pub use pipeline::EngineProfile;
pub use sim::Simulator;
pub use stats::{BranchStats, SimResult, SimStats, StallBreakdown};
