//! Deterministic consistent-hash sharding over operating points.
//!
//! The sharded serve tier splits the paper's operating points across N
//! shard daemons. The split must be a pure function of `(vcc, shard
//! count)` — no wall-clock, no per-process randomness, no `std::hash`
//! iteration-order leaks — so every router instance, every shard, and
//! every test partitions identically, forever. The [`Ring`] uses
//! Lamping–Veach **jump consistent hash** seeded through the store's
//! canonical FNV-1a: stateless (the shard count is its only
//! configuration), perfectly balanced in expectation, and minimally
//! disruptive when the shard count changes (voltages only move onto the
//! new shard, never between old ones).
//!
//! One granularity: the ring is keyed by the **supply voltage in
//! millivolts**, so a whole operating point (all mechanisms × all
//! traces) lands on one shard and its single-flight layer dedups
//! concurrent identical queries exactly as in the single-process
//! daemon. The key holds nothing but the voltage, so the partition does
//! not depend on the suite, the models or the engine version. The
//! partition decides who computes, not what survives: a shard's
//! [`lowvcc_bench::ResultStore`] publishes every key it computes, as
//! segments named for the shard's index, and every shard reads the
//! whole shared directory. A request sent straight to a shard that does
//! not own its voltage only writes a duplicate record — the bytes are
//! identical, and every store's index deduplicates — and a shared
//! directory is safe for any number of writers, since tempfiles are
//! unique per process and per call and the publish is an atomic rename.

use lowvcc_core::canon::fnv1a_64;
use lowvcc_sram::Millivolts;

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

    /// The shard index (`0..shards`) serving the operating point at
    /// `vcc`. Pure: identical for any ring over the same number of
    /// shards.
    #[must_use]
    pub fn owner(&self, vcc: Millivolts) -> u32 {
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&RING_SEED.to_le_bytes());
        bytes[8..].copy_from_slice(&vcc.millivolts().to_le_bytes());
        jump_hash(fnv1a_64(&bytes), self.shards)
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

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::{MAX_MODEL_MV, MIN_MODEL_MV};
    use lowvcc_sram::PAPER_SWEEP;

    /// Every voltage the models accept.
    fn model_range() -> impl Iterator<Item = Millivolts> {
        (MIN_MODEL_MV..=MAX_MODEL_MV).map(Millivolts::literal)
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let (a, b) = (Ring::new(4), Ring::new(4));
        for vcc in model_range() {
            let owner = a.owner(vcc);
            assert!(owner < 4, "{vcc:?} -> {owner}");
            assert_eq!(owner, b.owner(vcc), "same inputs, same shard");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = Ring::new(1);
        assert!(model_range().all(|vcc| ring.owner(vcc) == 0));
        // Degenerate construction clamps instead of panicking.
        assert_eq!(Ring::new(0).shards(), 1);
    }

    /// The 3-shard partition of the paper sweep, pinned: a change to
    /// the seed, the key bytes or the hash moves it and must be made on
    /// purpose.
    #[test]
    fn the_three_shard_paper_partition_is_pinned() {
        let ring = Ring::new(3);
        let mut owned = [Vec::new(), Vec::new(), Vec::new()];
        for vcc in PAPER_SWEEP.iter() {
            owned[ring.owner(vcc) as usize].push(vcc.millivolts());
        }
        assert_eq!(
            owned,
            [
                vec![700, 525, 475, 450, 425],
                vec![625, 500, 400],
                vec![675, 650, 600, 575, 550],
            ]
        );
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let small = Ring::new(3);
        let big = Ring::new(4);
        for vcc in model_range() {
            let (before, after) = (small.owner(vcc), big.owner(vcc));
            assert!(
                before == after || after == 3,
                "jump hash moves keys only onto the new shard: {before} -> {after}"
            );
        }
    }
}
