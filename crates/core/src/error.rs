//! Typed errors for configuration validation and simulation.
//!
//! [`ConfigError`] covers everything [`CoreConfig::validate`] and
//! [`SimConfig::validate`] can reject; [`SimError`] is the boundary type
//! of the simulator itself — either a bad configuration or a detected
//! live-lock. `From` impls let `?` lift cache-geometry and configuration
//! failures at each crate seam.
//!
//! [`CoreConfig::validate`]: crate::config::CoreConfig::validate
//! [`SimConfig::validate`]: crate::config::SimConfig::validate

use std::fmt;

use lowvcc_uarch::cache::CacheConfigError;

/// Error validating a [`CoreConfig`](crate::config::CoreConfig) or
/// [`SimConfig`](crate::config::SimConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A fetch/alloc/issue width is zero.
    ZeroWidth,
    /// The IQ capacity is not a power of two.
    IqNotPowerOfTwo {
        /// The rejected entry count.
        entries: usize,
    },
    /// One of the cache geometries is invalid.
    Cache {
        /// Which cache (`"IL0"`, `"DL0"`, `"UL1"`).
        which: &'static str,
        /// The underlying geometry error.
        source: CacheConfigError,
    },
    /// The scoreboard shift register lacks the structural minimum of
    /// `bypass_levels + 2` bits (bypass window + bubble + trailing ready).
    ScoreboardMissingWindowBits {
        /// Scoreboard width in bits.
        width: u32,
        /// Bypass network levels.
        bypass_levels: u32,
    },
    /// The scoreboard shift register cannot hold the bypass+bubble bits.
    ScoreboardTooNarrow {
        /// Scoreboard width in bits.
        width: u32,
        /// Largest short-latency producer pattern.
        max_latency: u32,
        /// Bypass network levels.
        bypass_levels: u32,
        /// Stabilization cycles `N`.
        stabilization_cycles: u32,
    },
    /// The Store Table has no physical entries.
    NoStoreTableEntries,
    /// Off-chip memory latency is not a positive finite number (zero,
    /// negative, NaN or infinite).
    NonPositiveMemoryLatency {
        /// The rejected latency in nanoseconds.
        latency_ns: f64,
    },
    /// The derived cycle time is not a positive finite number (zero,
    /// negative, NaN or infinite).
    NonPositiveCycleTime,
    /// The off-chip latency in cycles exceeds
    /// [`MAX_MEMORY_LATENCY_CYCLES`](crate::config::MAX_MEMORY_LATENCY_CYCLES),
    /// so a miss's completion cycle could overflow.
    MemoryLatencyTooLong {
        /// The rejected latency in cycles.
        cycles: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroWidth => f.write_str("pipeline widths must be positive"),
            Self::IqNotPowerOfTwo { entries } => {
                write!(f, "IQ entries {entries} must be a power of two")
            }
            Self::Cache { which, source } => write!(f, "{which}: {source}"),
            Self::ScoreboardMissingWindowBits {
                width,
                bypass_levels,
            } => write!(
                f,
                "scoreboard width {width} too narrow for the bypass+bubble bits \
                 (needs at least bypass {bypass_levels} + 2)"
            ),
            Self::ScoreboardTooNarrow {
                width,
                max_latency,
                bypass_levels,
                stabilization_cycles,
            } => write!(
                f,
                "scoreboard width {width} too narrow for latency {max_latency} \
                 + bypass {bypass_levels} + N {stabilization_cycles}"
            ),
            Self::NoStoreTableEntries => {
                f.write_str("store table needs at least one physical entry")
            }
            Self::NonPositiveMemoryLatency { latency_ns } => {
                write!(
                    f,
                    "memory latency {latency_ns} ns must be positive and finite"
                )
            }
            Self::NonPositiveCycleTime => f.write_str("cycle time must be positive and finite"),
            Self::MemoryLatencyTooLong { cycles } => write!(
                f,
                "memory latency of {cycles} cycles exceeds {} (cycle time too short)",
                crate::config::MAX_MEMORY_LATENCY_CYCLES
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Cache { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Error running a simulation to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The run configuration failed validation.
    Config(ConfigError),
    /// The pipeline stopped making forward progress — a simulator bug
    /// surfaced rather than a hang.
    NoProgress {
        /// Cycle count at which the budget was exhausted.
        cycles: u64,
        /// Instructions committed so far.
        committed: u64,
        /// Total instructions of the trace.
        total: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::NoProgress {
                cycles,
                committed,
                total,
            } => write!(
                f,
                "no forward progress after {cycles} cycles \
                 ({committed} of {total} uops committed)"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::NoProgress { .. } => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn config_error_displays_and_chains() {
        let e = ConfigError::Cache {
            which: "DL0",
            source: CacheConfigError::ZeroDimension,
        };
        assert!(e.to_string().starts_with("DL0:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn sim_error_lifts_config_error() {
        let e: SimError = ConfigError::ZeroWidth.into();
        assert!(matches!(e, SimError::Config(ConfigError::ZeroWidth)));
        assert!(e.to_string().contains("invalid configuration"));
        let np = SimError::NoProgress {
            cycles: 10,
            committed: 1,
            total: 5,
        };
        assert!(np.to_string().contains("1 of 5"));
        assert!(np.source().is_none());
    }
}
