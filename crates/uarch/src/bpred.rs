//! The bimodal branch predictor, the BTB and the IRAW corruption tracker
//! (paper §4.5).
//!
//! The BP is a *prediction-only* block: the paper lets reads hit
//! not-yet-stabilized entries freely, because a corrupted counter can only
//! mispredict, never break correctness. Two things still matter:
//!
//! * only updates that **flip a counter's uppermost bit** can change a
//!   prediction, and only reads arriving within `N` cycles of such a
//!   write can observe a half-flipped cell — [`CorruptionTracker`]
//!   measures this (the paper reports a negligible 0.0017% potential
//!   extra misprediction rate);
//! * testing determinism (Table 1) — tracked as the same statistic.

/// Result of a predictor update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateEffect {
    /// Table index written.
    pub index: usize,
    /// Whether the counter's uppermost (direction) bit flipped.
    pub msb_flipped: bool,
}

#[inline]
fn saturating_update(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

/// Bimodal predictor: a table of 2-bit saturating counters indexed by pc.
///
/// ```
/// use lowvcc_uarch::bpred::Bimodal;
///
/// let mut bp = Bimodal::new(1024);
/// for _ in 0..4 { bp.update(0x40, true); }
/// assert!(bp.predict(0x40).0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bimodal {
    counters: Vec<u8>,
    mask: usize,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters (power of two),
    /// initialized weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0 && entries.is_power_of_two());
        Self {
            counters: vec![1; entries],
            mask: entries - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & self.mask
    }

    /// Predicts the direction of the branch at `pc` and returns the table
    /// index consulted.
    #[inline]
    #[must_use]
    pub fn predict(&self, pc: u64) -> (bool, usize) {
        let idx = self.index(pc);
        (self.counters[idx] >= 2, idx)
    }

    /// Trains with the resolved direction.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) -> UpdateEffect {
        let idx = self.index(pc);
        let old = self.counters[idx];
        let new = saturating_update(old, taken);
        self.counters[idx] = new;
        UpdateEffect {
            index: idx,
            msb_flipped: (old >= 2) != (new >= 2),
        }
    }

    /// Restores the freshly-constructed state in place (all counters
    /// weakly not-taken). No allocation.
    pub fn reset(&mut self) {
        self.counters.fill(1);
    }
}

/// Direct-mapped branch target buffer over the 32-bit address space.
///
/// Each slot is one `(pc, target)` pair. A vacant slot holds the pc of
/// its neighbour (index bit 0 flipped), which no lookup into this slot
/// can match, so every `u32` pc and target stays representable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<(u32, u32)>,
    mask: u32,
}

impl Btb {
    /// Creates a BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two of at least 2 (a single
    /// slot has no pc left to mark it vacant) and at most 2^32.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries >= 2 && entries.is_power_of_two(),
            "a BTB needs a power-of-two slot count of at least 2"
        );
        let mut btb = Self {
            entries: vec![(0, 0); entries],
            mask: u32::try_from(entries - 1).expect("a 32-bit pc indexes the BTB"),
        };
        btb.reset();
        btb
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicted target for the branch at `pc`, if any.
    #[inline]
    #[must_use]
    pub fn predict(&self, pc: u32) -> Option<u32> {
        let (tag, target) = self.entries[self.index(pc)];
        (tag == pc).then_some(target)
    }

    /// Installs/updates the target of `pc`.
    #[inline]
    pub fn update(&mut self, pc: u32, target: u32) {
        let idx = self.index(pc);
        self.entries[idx] = (pc, target);
    }

    /// Restores the freshly-constructed (empty) state in place.
    pub fn reset(&mut self) {
        for (slot, entry) in (0..=self.mask).zip(&mut self.entries) {
            *entry = ((slot ^ 1) << 2, 0);
        }
    }
}

/// Marks a table entry with no MSB-flipping write in reach.
const NEVER: u32 = u32::MAX;

/// Tracks potential IRAW corruptions in prediction-only tables.
///
/// A read of entry `i` at cycle `c` is *potentially corrupted* when entry
/// `i` was written within the previous `N` cycles by an update that
/// flipped its direction bit (paper §4.5: "only those entries whose
/// uppermost bit is flipped could be corrupted"). Cycles passed to
/// [`on_write`](Self::on_write) and [`on_read`](Self::on_read) never
/// decrease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionTracker {
    /// Cycle of each entry's last MSB-flipping write, as an offset from
    /// `base`, or [`NEVER`].
    last_flip_write: Vec<u32>,
    /// Moves forward before an offset could reach [`NEVER`]; flips older
    /// than the window are dropped when it does.
    base: u64,
    window: u32,
    potential: u64,
}

impl CorruptionTracker {
    /// Creates a tracker for a table of `entries` and an IRAW window of
    /// `n` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n` is `u32::MAX` (a validated configuration keeps `n`
    /// below the scoreboard width).
    #[must_use]
    pub fn new(entries: usize, n: u32) -> Self {
        let mut tracker = Self {
            last_flip_write: vec![NEVER; entries],
            base: 0,
            window: 0,
            potential: 0,
        };
        tracker.reset(n);
        tracker
    }

    /// Records an update; only MSB-flipping writes can corrupt.
    #[inline]
    pub fn on_write(&mut self, effect: UpdateEffect, cycle: u64) {
        if effect.msb_flipped {
            let offset = match u32::try_from(cycle - self.base) {
                Ok(offset) if offset != NEVER => offset,
                _ => {
                    self.rebase(cycle);
                    self.window
                }
            };
            self.last_flip_write[effect.index] = offset;
        }
    }

    /// Moves `base` to the oldest cycle whose flip a read at `cycle` or
    /// later can still observe, `cycle - N`, and drops every older flip.
    #[cold]
    fn rebase(&mut self, cycle: u64) {
        let base = cycle - u64::from(self.window);
        for last in &mut self.last_flip_write {
            if *last != NEVER {
                let at = self.base + u64::from(*last);
                *last = at.checked_sub(base).map_or(NEVER, |offset| {
                    u32::try_from(offset).expect("a kept flip lies within the window")
                });
            }
        }
        self.base = base;
    }

    /// Records a read; returns whether it fell in a stabilization window.
    #[inline]
    pub fn on_read(&mut self, index: usize, cycle: u64) -> bool {
        let last = self.last_flip_write[index];
        let at = self.base + u64::from(last);
        let conflict =
            last != NEVER && cycle.saturating_sub(at) <= u64::from(self.window) && cycle != at;
        if conflict {
            self.potential += 1;
        }
        conflict
    }

    /// Restores the freshly-constructed state in place for a window of
    /// `n` cycles: write stamps and counters cleared. No allocation.
    ///
    /// # Panics
    ///
    /// Panics if `n` is `u32::MAX`: a flip `n` cycles back and the
    /// "no flip" marker would need the same offset.
    pub fn reset(&mut self, n: u32) {
        assert!(n < NEVER, "the IRAW window must be below u32::MAX cycles");
        self.last_flip_write.fill(NEVER);
        self.base = 0;
        self.window = n;
        self.potential = 0;
    }

    /// Potentially corrupted reads.
    #[must_use]
    pub fn potential_corruptions(&self) -> u64 {
        self.potential
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut bp = Bimodal::new(256);
        for _ in 0..8 {
            bp.update(0x100, true);
        }
        assert!(bp.predict(0x100).0);
        for _ in 0..8 {
            bp.update(0x100, false);
        }
        assert!(!bp.predict(0x100).0);
    }

    #[test]
    fn counters_saturate() {
        assert_eq!(saturating_update(3, true), 3);
        assert_eq!(saturating_update(0, false), 0);
        assert_eq!(saturating_update(1, true), 2);
        assert_eq!(saturating_update(2, false), 1);
    }

    #[test]
    fn msb_flip_reported_exactly_at_threshold() {
        let mut bp = Bimodal::new(64);
        // From init (1, weakly NT): taken → 2 flips the direction bit.
        let e1 = bp.update(0x40, true);
        assert!(e1.msb_flipped);
        // 2 → 3: no flip.
        let e2 = bp.update(0x40, true);
        assert!(!e2.msb_flipped);
        // 3 → 2: no flip; 2 → 1: flip.
        assert!(!bp.update(0x40, false).msb_flipped);
        assert!(bp.update(0x40, false).msb_flipped);
    }

    #[test]
    fn bimodal_aliases_by_index_mask() {
        let bp = Bimodal::new(16);
        let (_, i1) = bp.predict(0x40);
        let (_, i2) = bp.predict(0x40 + 16 * 4); // same index after masking
        assert_eq!(i1, i2);
    }

    #[test]
    fn btb_round_trip_and_capacity_conflicts() {
        let mut btb = Btb::new(16);
        assert_eq!(btb.predict(0x100), None);
        btb.update(0x100, 0x2000);
        assert_eq!(btb.predict(0x100), Some(0x2000));
        // An aliasing pc evicts (direct-mapped, tag mismatch → None).
        btb.update(0x100 + 16 * 4, 0x3000);
        assert_eq!(btb.predict(0x100), None);
    }

    #[test]
    fn btb_holds_the_top_of_the_address_space() {
        let mut btb = Btb::new(512);
        // No pc, the last one included, hits a vacant slot.
        for pc in [0, 4, 0x7FC, u32::MAX - 3, u32::MAX] {
            assert_eq!(btb.predict(pc), None, "{pc:#x}");
        }
        btb.update(u32::MAX, u32::MAX);
        assert_eq!(btb.predict(u32::MAX), Some(u32::MAX));
        // Same slot, different pc: a miss, and the entry survives it.
        assert_eq!(btb.predict(u32::MAX - 3), None);
        assert_eq!(btb.predict(u32::MAX), Some(u32::MAX));
        btb.reset();
        assert_eq!(btb.predict(u32::MAX), None);
        assert_eq!(btb, Btb::new(512));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_slot_btb_rejected() {
        let _ = Btb::new(1);
    }

    #[test]
    fn corruption_tracker_counts_window_reads() {
        let mut t = CorruptionTracker::new(64, 1);
        let flip = UpdateEffect {
            index: 5,
            msb_flipped: true,
        };
        t.on_write(flip, 100);
        assert!(t.on_read(5, 101), "read 1 cycle after flip-write");
        assert!(!t.on_read(5, 103), "outside the window");
        assert!(!t.on_read(6, 101), "different entry");
        // Non-flipping writes never arm the tracker.
        let benign = UpdateEffect {
            index: 7,
            msb_flipped: false,
        };
        t.on_write(benign, 200);
        assert!(!t.on_read(7, 201));
        assert_eq!(t.potential_corruptions(), 1);
    }

    #[test]
    fn corruption_tracker_window_reconfigures() {
        // A read two cycles after a flip conflicts at N = 2, not at N = 1.
        let flip = UpdateEffect {
            index: 0,
            msb_flipped: true,
        };
        let mut t = CorruptionTracker::new(8, 2);
        t.on_write(flip, 10);
        assert!(t.on_read(0, 12));
        t.reset(1);
        t.on_write(flip, 20);
        assert!(!t.on_read(0, 22));
        let mut t = CorruptionTracker::new(8, 1);
        t.on_write(flip, 20);
        assert!(!t.on_read(0, 22));
    }

    /// The `u64` model the tracker replaced: one absolute cycle per entry.
    struct ReferenceTracker {
        last: Vec<Option<u64>>,
        window: u64,
        potential: u64,
    }

    impl ReferenceTracker {
        fn on_write(&mut self, effect: UpdateEffect, cycle: u64) {
            if effect.msb_flipped {
                self.last[effect.index] = Some(cycle);
            }
        }

        fn on_read(&mut self, index: usize, cycle: u64) -> bool {
            let conflict = self.last[index]
                .is_some_and(|last| cycle.saturating_sub(last) <= self.window && cycle != last);
            self.potential += u64::from(conflict);
            conflict
        }
    }

    #[test]
    fn tracker_offsets_match_absolute_cycles_across_2_pow_32() {
        let fresh = |n: u32| {
            let reference = ReferenceTracker {
                last: vec![None; 16],
                window: u64::from(n),
                potential: 0,
            };
            (CorruptionTracker::new(16, n), reference)
        };
        let top = u64::from(u32::MAX);
        for n in 0..=2u32 {
            // The base moves at the flip of entry 2: entry 0's flip is
            // long gone, entry 1's lies exactly N cycles back at N = 2,
            // and reads on the moving cycle itself see both.
            let (mut t, mut reference) = fresh(n);
            let flip = |index| UpdateEffect {
                index,
                msb_flipped: true,
            };
            for (index, cycle) in [(0, 5), (1, top - 2), (2, top)] {
                t.on_write(flip(index), cycle);
                reference.on_write(flip(index), cycle);
            }
            for (index, cycle) in [(0, top), (1, top), (2, top), (1, top + 1), (2, top + 2)] {
                let ctx = format!("N {n} entry {index} cycle {cycle}");
                assert_eq!(
                    t.on_read(index, cycle),
                    reference.on_read(index, cycle),
                    "{ctx}"
                );
            }
            assert!(t.base > 0, "N {n}: the base never moved");
            for seed in 0..4u64 {
                let (mut t, mut reference) = fresh(n);
                let mut rng = lowvcc_trace::SimRng::seed_from(seed);
                // Flips early on, then a jump to just below 2^32 (and,
                // for odd seeds, to just below 2^33), then dense traffic
                // across the boundary: the base moves at least once with
                // flips still in the window.
                let mut cycle = 0u64;
                for step in 0..6_000 {
                    cycle += match step {
                        500 => (1u64 << 32) - 1_000 - cycle,
                        3_000 if seed % 2 == 1 => (1u64 << 33) - 500 - cycle,
                        _ => rng.below(3),
                    };
                    let index = rng.below(16) as usize;
                    let ctx = format!("N {n} seed {seed} step {step} cycle {cycle}");
                    if rng.below(2) == 0 {
                        assert_eq!(
                            t.on_read(index, cycle),
                            reference.on_read(index, cycle),
                            "{ctx}"
                        );
                    } else {
                        let effect = UpdateEffect {
                            index,
                            msb_flipped: rng.below(3) > 0,
                        };
                        t.on_write(effect, cycle);
                        reference.on_write(effect, cycle);
                    }
                }
                assert!(cycle > 1u64 << 32, "N {n} seed {seed}: never crossed 2^32");
                assert!(t.base > 0, "N {n} seed {seed}: the base never moved");
                assert_eq!(
                    t.potential_corruptions(),
                    reference.potential,
                    "N {n} seed {seed}"
                );
            }
        }
    }
}
