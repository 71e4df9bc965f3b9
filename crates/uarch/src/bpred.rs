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

/// Direct-mapped branch target buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc tag, target)
    mask: usize,
}

impl Btb {
    /// Creates a BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0 && entries.is_power_of_two());
        Self {
            entries: vec![None; entries],
            mask: entries - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & self.mask
    }

    /// Predicted target for the branch at `pc`, if any.
    #[inline]
    #[must_use]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Installs/updates the target of `pc`.
    #[inline]
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, target));
    }

    /// Restores the freshly-constructed (empty) state in place.
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }
}

/// Tracks potential IRAW corruptions in prediction-only tables.
///
/// A read of entry `i` at cycle `c` is *potentially corrupted* when entry
/// `i` was written within the previous `N` cycles by an update that
/// flipped its direction bit (paper §4.5: "only those entries whose
/// uppermost bit is flipped could be corrupted").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionTracker {
    last_flip_write: Vec<u64>,
    window: u64,
    reads: u64,
    potential: u64,
}

impl CorruptionTracker {
    /// Creates a tracker for a table of `entries` and an IRAW window of
    /// `n` cycles.
    #[must_use]
    pub fn new(entries: usize, n: u32) -> Self {
        Self {
            last_flip_write: vec![u64::MAX, u64::MAX]
                .into_iter()
                .cycle()
                .take(entries)
                .collect(),
            window: u64::from(n),
            reads: 0,
            potential: 0,
        }
    }

    /// Records an update; only MSB-flipping writes can corrupt.
    #[inline]
    pub fn on_write(&mut self, effect: UpdateEffect, cycle: u64) {
        if effect.msb_flipped {
            self.last_flip_write[effect.index] = cycle;
        }
    }

    /// Records a read; returns whether it fell in a stabilization window.
    #[inline]
    pub fn on_read(&mut self, index: usize, cycle: u64) -> bool {
        self.reads += 1;
        let last = self.last_flip_write[index];
        let conflict =
            last != u64::MAX && cycle.saturating_sub(last) <= self.window && cycle != last;
        if conflict {
            self.potential += 1;
        }
        conflict
    }

    /// Reconfigures the window at a Vcc change.
    pub fn set_window(&mut self, n: u32) {
        self.window = u64::from(n);
    }

    /// Restores the freshly-constructed state in place for a window of
    /// `n` cycles: write stamps and counters cleared. No allocation.
    pub fn reset(&mut self, n: u32) {
        self.last_flip_write.fill(u64::MAX);
        self.window = u64::from(n);
        self.reads = 0;
        self.potential = 0;
    }

    /// Reads observed.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Potentially corrupted reads.
    #[must_use]
    pub fn potential_corruptions(&self) -> u64 {
        self.potential
    }

    /// Potential corruption rate (the paper's 0.0017%-scale statistic).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.potential as f64 / self.reads as f64
        }
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
        assert_eq!(t.reads(), 4);
        assert!((t.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn corruption_tracker_window_reconfigures() {
        let mut t = CorruptionTracker::new(8, 2);
        t.on_write(
            UpdateEffect {
                index: 0,
                msb_flipped: true,
            },
            10,
        );
        assert!(t.on_read(0, 12));
        t.set_window(1);
        t.on_write(
            UpdateEffect {
                index: 0,
                msb_flipped: true,
            },
            20,
        );
        assert!(!t.on_read(0, 22));
    }

    #[test]
    fn fresh_tracker_reports_zero_rate() {
        let t = CorruptionTracker::new(8, 1);
        assert_eq!(t.rate(), 0.0);
    }
}
