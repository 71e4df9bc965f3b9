//! Typed errors for trace validation and synthesis.
//!
//! The crate exposes three error layers: [`DistError`]
//! for raw distribution parameters, [`UopError`] for a single malformed
//! micro-op, and [`TraceError`] — the crate's boundary type — for anything
//! that can go wrong validating [`SynthParams`](crate::synth::SynthParams)
//! or building/validating a [`Trace`](crate::uop::Trace).

use std::fmt;

use crate::dist::DistError;
use crate::uop::UopKind;

/// A single micro-op failed its kind/payload consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopError {
    /// A memory uop carries no effective address.
    MissingAddress {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
    /// A non-memory uop carries an address.
    UnexpectedAddress {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
    /// A memory uop carries a next-pc target (its record slot holds the
    /// address instead).
    UnexpectedTarget {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
    /// A taken control uop has no target.
    MissingTarget {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
    /// A load has no destination register.
    MissingDestination {
        /// Program counter of the uop.
        pc: u64,
    },
    /// A memory uop's access size is not 1, 2, 4 or 8 bytes (a trace
    /// record stores its log2 in two bits).
    InvalidSize {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
        /// The rejected size in bytes.
        size: u8,
    },
    /// A non-memory uop carries an access size.
    UnexpectedSize {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
    /// A non-control uop is marked taken.
    UnexpectedTaken {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
    /// The pc, data address or target lies above `u32::MAX`, outside the
    /// 32-bit address space a trace record stores.
    AddressOutOfRange {
        /// Offending uop kind.
        kind: UopKind,
        /// Program counter of the uop.
        pc: u64,
    },
}

impl fmt::Display for UopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::MissingAddress { kind, pc } => {
                write!(f, "{kind} at {pc:#x} lacks an address")
            }
            Self::UnexpectedAddress { kind, pc } => {
                write!(f, "{kind} at {pc:#x} carries an address")
            }
            Self::UnexpectedTarget { kind, pc } => {
                write!(f, "{kind} at {pc:#x} carries a target")
            }
            Self::MissingTarget { kind, pc } => {
                write!(f, "{kind} at {pc:#x} lacks a target")
            }
            Self::MissingDestination { pc } => {
                write!(f, "load at {pc:#x} lacks a destination")
            }
            Self::InvalidSize { kind, pc, size } => {
                write!(
                    f,
                    "{kind} at {pc:#x} accesses {size} bytes, not 1, 2, 4 or 8"
                )
            }
            Self::UnexpectedSize { kind, pc } => {
                write!(f, "{kind} at {pc:#x} carries an access size")
            }
            Self::UnexpectedTaken { kind, pc } => {
                write!(f, "{kind} at {pc:#x} is marked taken")
            }
            Self::AddressOutOfRange { kind, pc } => {
                write!(f, "{kind} at {pc:#x} reaches past the 32-bit address space")
            }
        }
    }
}

impl std::error::Error for UopError {}

/// Error validating synthesis parameters or building/validating a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A weight set could not form a sampling distribution.
    Weights {
        /// Which weight set (e.g. `"instruction mix"`).
        which: &'static str,
        /// The underlying distribution error.
        source: DistError,
    },
    /// A scalar parameter fell outside its valid interval.
    OutOfRange {
        /// Parameter name.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the valid interval.
        expected: &'static str,
    },
    /// An inclusive `(lo, hi)` range parameter is empty or zero-based.
    InvalidRange {
        /// Parameter name.
        name: &'static str,
        /// Range lower bound.
        lo: u32,
        /// Range upper bound.
        hi: u32,
    },
    /// A parameter that must be non-empty is empty.
    Empty {
        /// Parameter name.
        name: &'static str,
    },
    /// A uop of the trace failed validation.
    Uop {
        /// Index of the offending uop in the dynamic stream.
        index: usize,
        /// The underlying uop error.
        source: UopError,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Weights { which, source } => write!(f, "{which}: {source}"),
            Self::OutOfRange {
                name,
                value,
                expected,
            } => write!(f, "{name} {value} outside {expected}"),
            Self::InvalidRange { name, lo, hi } => {
                write!(f, "invalid {name} range ({lo}, {hi})")
            }
            Self::Empty { name } => write!(f, "{name} must be non-empty"),
            Self::Uop { index, source } => write!(f, "uop {index}: {source}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Weights { source, .. } => Some(source),
            Self::Uop { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_carry_context() {
        let e = TraceError::Weights {
            which: "instruction mix",
            source: DistError::BadWeights,
        };
        assert!(e.to_string().starts_with("instruction mix:"));
        assert!(e.source().is_some());

        let e = TraceError::Uop {
            index: 3,
            source: UopError::MissingDestination { pc: 0x40 },
        };
        assert_eq!(e.to_string(), "uop 3: load at 0x40 lacks a destination");

        let e = TraceError::OutOfRange {
            name: "dep_p",
            value: 0.0,
            expected: "(0, 1]",
        };
        assert_eq!(e.to_string(), "dep_p 0 outside (0, 1]");
    }
}
