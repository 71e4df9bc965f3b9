//! Microarchitecture building blocks for the low-Vcc in-order core
//! reproduction (HPCA 2010): caches, TLBs, the branch predictor, the
//! shift-register scoreboard, the instruction queue's occupancy gate, the
//! Store Table, and fill/eviction buffers.
//!
//! Three modules implement the paper's IRAW-avoidance hardware verbatim:
//!
//! * [`scoreboard`] — the extended ready shift registers (Figures 6 & 8);
//! * [`iq`] — the instruction queue's occupancy gate, [`iq::issue_allowed`]
//!   (Figure 9);
//! * [`stable`] — the DL0 Store Table (Figure 10);
//!
//! while [`buffers::StallGuard`] provides the post-fill port stalls of the
//! infrequently written blocks (§4.3) and
//! [`bpred::CorruptionTracker`]/[`rsb`] measure the prediction-only
//! corruption windows (§4.5). The pipeline that composes them lives in
//! `lowvcc-core`.
//!
//! ```
//! use lowvcc_trace::Reg;
//! use lowvcc_uarch::scoreboard::{IrawWindow, Scoreboard};
//!
//! // The paper's Figure 8 bit pattern, executable:
//! let mut sb = Scoreboard::new(7);
//! sb.set_producer(Reg::new(0).unwrap(), 3,
//!                 Some(IrawWindow { bypass_levels: 1, bubble: 1 }));
//! assert_eq!(sb.pattern(Reg::new(0).unwrap()), 0b0001011);
//! ```

pub mod bpred;
pub mod buffers;
pub mod cache;
pub mod iq;
pub mod ports;
pub mod rsb;
pub mod scoreboard;
pub mod stable;
pub mod tlb;

pub use bpred::{Bimodal, Btb, CorruptionTracker};
pub use buffers::{StallGuard, TimedBuffer};
pub use cache::{CacheConfig, CacheConfigError, CacheStats, SetAssocCache};
pub use ports::{Port, PortSet};
pub use rsb::ReturnStack;
pub use scoreboard::{IrawWindow, Scoreboard};
pub use stable::{StableMatch, StoreTable, TrackedStore};
pub use tlb::Tlb;
