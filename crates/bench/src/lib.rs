//! Experiment harness: regenerates every table and figure of the HPCA 2010
//! low-Vcc paper from the reproduction stack.
//!
//! Each experiment module produces plain data rows plus formatted text
//! tables and CSV files, so the same code backs the `experiments` binary,
//! the integration tests and the criterion benches. The experiment IDs
//! match DESIGN.md §4:
//!
//! | ID | module | paper artefact |
//! |----|--------|----------------|
//! | F1 | [`experiments::fig1`] | Figure 1 — delay vs Vcc |
//! | F11a | [`experiments::fig11a`] | Figure 11a — cycle time vs Vcc |
//! | F11b | [`experiments::sweep`] ([`fig11b_table`](experiments::sweep::fig11b_table)) | Figure 11b — frequency & performance gains |
//! | F12 | [`experiments::sweep`] ([`fig12_table`](experiments::sweep::fig12_table)) | Figure 12 — energy / delay / EDP |
//! | T1 | [`experiments::table1`] | Table 1 — technique comparison |
//! | S2 | [`experiments::stalls`] | §5.2 stall attribution at 575 mV |
//! | S1/S3/S4 | [`experiments::scalars`] | §5.2/§4.5/§5.3 scalar results |
//!
//! Figure 11b and Figure 12 share one measurement, a single baseline-vs-
//! IRAW sweep in [`experiments::sweep`], which formats both tables.
//! Every fallible API returns the typed [`ExperimentError`].
//! See the repository README for how to run the `experiments` binary.

pub mod admin;
pub mod bundle;
pub mod context;
pub mod error;
pub mod experiments;
pub mod json;
pub mod lockdep;
pub mod report;
pub mod store;
pub mod store_io;

pub use admin::{
    BundleExportReport, BundleImportReport, QuarantineEntry, ScrubReport, StoreSummary,
    VacuumReport,
};
pub use bundle::{BundleRecord, BUNDLE_FORMAT_VERSION, BUNDLE_MAGIC};
pub use context::{ExperimentContext, HeldTrace, SuiteChoice, SuiteSpecError};
pub use error::ExperimentError;
pub use lockdep::{OrderedCondvar, OrderedGuard, OrderedMutex};
pub use report::TextTable;
pub use store::{
    Flight, FlightGuard, FlightWaiter, ResultStore, StoreError, StoreStats, QUARANTINE_DIR,
    SEGMENTS_DIR,
};
pub use store_io::{FaultCounts, FaultKind, FaultPlan, FaultyIo, RealIo, RetryPolicy, StoreIo};
