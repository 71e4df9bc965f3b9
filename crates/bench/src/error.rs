//! The experiment harness's boundary error type.
//!
//! Every fallible public API of this crate returns [`ExperimentError`];
//! `From` impls lift the upstream crates' typed errors
//! ([`TraceError`] from workload generation,
//! [`SimError`] from simulation) so experiment code
//! can use `?` at each seam, and CSV emission failures carry the offending
//! path.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use lowvcc_core::SimError;
use lowvcc_trace::TraceError;

use crate::store::StoreError;

/// Error running an experiment to completion.
#[derive(Debug)]
pub enum ExperimentError {
    /// Building a workload trace failed.
    Trace(TraceError),
    /// A simulation failed.
    Sim(SimError),
    /// Writing a result file failed.
    Io {
        /// Path of the file being written.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A sweep result lacks one of the paper's anchor voltages.
    MissingSweepPoint {
        /// The absent voltage in millivolts.
        mv: u32,
    },
    /// The result cache failed to *open* or an admin operation (scrub,
    /// vacuum) failed. Lookups and publishes never produce this:
    /// corrupt or unreadable records are quarantined and re-simulated,
    /// failed publishes degrade the store to memory-only (DESIGN.md §9).
    Store(StoreError),
}

impl ExperimentError {
    /// Adapter for `map_err` on file writes: attaches `path` to the
    /// underlying I/O error.
    pub fn io_at(path: &Path) -> impl FnOnce(io::Error) -> Self + '_ {
        |source| Self::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Trace(e) => write!(f, "trace generation failed: {e}"),
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
            Self::Io { path, source } => {
                write!(f, "writing {} failed: {source}", path.display())
            }
            Self::MissingSweepPoint { mv } => {
                write!(f, "sweep missing the {mv} mV anchor point")
            }
            Self::Store(e) => write!(f, "result cache failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Trace(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            Self::MissingSweepPoint { .. } => None,
            Self::Store(e) => Some(e),
        }
    }
}

impl From<TraceError> for ExperimentError {
    fn from(e: TraceError) -> Self {
        Self::Trace(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<StoreError> for ExperimentError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn lifts_upstream_errors() {
        let e: ExperimentError = TraceError::Empty {
            name: "branch_biases",
        }
        .into();
        assert!(matches!(e, ExperimentError::Trace(_)));
        assert!(e.source().is_some());

        let e: ExperimentError = SimError::NoProgress {
            cycles: 1,
            committed: 0,
            total: 1,
        }
        .into();
        assert!(e.to_string().starts_with("simulation failed:"));
    }

    #[test]
    fn io_carries_the_path() {
        let path = Path::new("/tmp/out.csv");
        let e = ExperimentError::io_at(path)(io::Error::other("disk full"));
        assert!(e.to_string().contains("/tmp/out.csv"));
        assert!(e.source().is_some());
    }
}
