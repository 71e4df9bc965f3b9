//! Deterministic consistent-hash sharding over [`SimKey`]s.
//!
//! The sharded serve tier splits the result store's key space across N
//! shard daemons. The split must be a pure function of `(key, shard
//! count)` — no wall-clock, no per-process randomness, no
//! `std::hash` iteration-order leaks — so every router instance, every
//! shard, and every test partitions identically, forever. The
//! [`Ring`] uses Lamping–Veach **jump consistent hash** seeded through
//! the store's canonical FNV-1a: stateless (the shard count is its only
//! configuration), perfectly balanced in expectation, and minimally
//! disruptive when the shard count changes (keys only move onto the new
//! shard, never between old ones).
//!
//! One granularity: **request routing** hashes a *voltage anchor* — the
//! [`SimKey`] of the baseline configuration at the request's voltage on
//! the suite's first trace — so a whole operating point (all mechanisms
//! × all traces) lands on one shard and its single-flight layer dedups
//! concurrent identical queries exactly as in the single-process
//! daemon. Routing alone decides who persists what: a shard's
//! [`lowvcc_bench::ResultStore`] publishes every key it computes, as
//! segments named for the shard's index. A request sent straight to a
//! shard that does not own its voltage only writes a duplicate record —
//! the bytes are identical, and every store's index deduplicates — and
//! a shared directory is safe for any number of writers, since
//! tempfiles are unique per process and per call and the publish is an
//! atomic rename.

use lowvcc_core::canon::fnv1a_64;
use lowvcc_core::{sim_key, CoreConfig, SimConfig, SimKey};
use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::TraceSpec;

/// The ring's hash seed (`fnv1a_64("lowvcc-ring-v1")`, precomputed as
/// a literal so the partition is stable by construction, not by code
/// path). One constant, so a router and its shards cannot disagree.
const RING_SEED: u64 = 0x7f3a_e5c1_9d24_6b08;

/// A deterministic consistent-hash ring: the shard count is its entire
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    shards: u32,
}

impl Ring {
    /// A ring over `shards` shards (clamped up to 1).
    #[must_use]
    pub fn new(shards: u32) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Number of shards in the ring.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard index (`0..shards`) owning `key`. Pure: identical for
    /// any ring over the same number of shards.
    #[must_use]
    pub fn owner(&self, key: SimKey) -> u32 {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&RING_SEED.to_le_bytes());
        bytes[8..].copy_from_slice(&key.value().to_le_bytes());
        jump_hash(fnv1a_64(&bytes), self.shards)
    }

    /// Whether shard `index` owns `key` (for an anchor: whether the
    /// shard serves that operating point).
    #[must_use]
    pub fn owns(&self, index: u32, key: SimKey) -> bool {
        self.owner(key) == index
    }
}

/// Lamping–Veach jump consistent hash: maps a 64-bit key state to a
/// bucket in `0..buckets` with minimal movement as `buckets` grows.
/// The float arithmetic is IEEE-exact, so the mapping is bit-stable
/// across platforms.
fn jump_hash(mut state: u64, buckets: u32) -> u32 {
    let buckets = i64::from(buckets.max(1));
    let mut b: i64 = 0;
    let mut j: i64 = 0;
    while j < buckets {
        b = j;
        state = state
            .wrapping_mul(2_862_933_555_777_941_757)
            .wrapping_add(1);
        let denom = ((state >> 33).wrapping_add(1)) as f64;
        j = (((b.wrapping_add(1)) as f64) * ((1u64 << 31) as f64 / denom)) as i64;
    }
    // 0 <= b < buckets <= u32::MAX, so the cast is lossless.
    b as u32
}

/// The routing anchor for one operating point: the [`SimKey`] of the
/// *baseline* configuration at `vcc` on the suite's first trace spec.
/// Routing by this key sends every request touching an operating point
/// (any mechanism, any trace) to the same shard, preserving per-point
/// single-flight across the cluster.
#[must_use]
pub fn voltage_anchor(
    core: CoreConfig,
    timing: &CycleTimeModel,
    spec: &TraceSpec,
    vcc: Millivolts,
) -> SimKey {
    let (base, _iraw) = SimConfig::mechanism_pair(core, timing, vcc);
    sim_key(&base, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::PAPER_SWEEP;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        let core = CoreConfig::silverthorne();
        let timing = CycleTimeModel::silverthorne_45nm();
        let specs = lowvcc_trace::suite(1, 1_000);
        for vcc in PAPER_SWEEP.iter() {
            for spec in &specs {
                let key = voltage_anchor(core, &timing, spec, vcc);
                let owner = a.owner(key);
                assert!(owner < 4);
                assert_eq!(owner, b.owner(key), "same inputs, same shard");
                assert!(a.owns(owner, key));
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = Ring::new(1);
        let core = CoreConfig::silverthorne();
        let timing = CycleTimeModel::silverthorne_45nm();
        let specs = lowvcc_trace::suite(1, 1_000);
        let key = voltage_anchor(core, &timing, &specs[0], Millivolts::literal(500));
        assert_eq!(ring.owner(key), 0);
        // Degenerate construction clamps instead of panicking.
        assert_eq!(Ring::new(0).shards(), 1);
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let small = Ring::new(3);
        let big = Ring::new(4);
        let core = CoreConfig::silverthorne();
        let timing = CycleTimeModel::silverthorne_45nm();
        let specs = lowvcc_trace::suite(3, 1_000);
        for vcc in PAPER_SWEEP.iter() {
            for spec in &specs {
                let key = voltage_anchor(core, &timing, spec, vcc);
                let (before, after) = (small.owner(key), big.owner(key));
                assert!(
                    before == after || after == 3,
                    "jump hash moves keys only onto the new shard: {before} -> {after}"
                );
            }
        }
    }
}
