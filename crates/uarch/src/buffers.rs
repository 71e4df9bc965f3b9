//! Fill buffers, write-combining/eviction buffers, and post-fill stall
//! guards.
//!
//! The FB holds lines in flight from UL1/memory into the L0 caches; the
//! WCB/EB holds lines traveling the other way. Both are "infrequently
//! written cache-like blocks" (paper §4.3): after any fill completes, the
//! block's port is simply kept busy for `N` extra cycles so nothing can
//! read a stabilizing entry — that is [`StallGuard`].

/// Error returned when allocating into a full buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferFull;

impl std::fmt::Display for BufferFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("buffer is full")
    }
}

impl std::error::Error for BufferFull {}

/// Line value marking a free [`TimedBuffer`] slot. Callers pass line
/// addresses (`addr >> 6`), which never reach it.
const FREE: u64 = u64::MAX;

/// One [`TimedBuffer`] slot; a free slot holds `(FREE, u64::MAX)`, so it
/// never matches a line and never expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    line: u64,
    ready_at: u64,
}

const EMPTY: Slot = Slot {
    line: FREE,
    ready_at: u64::MAX,
};

/// A buffer of in-flight lines, each completing at a known cycle.
///
/// Used for both fill buffers (miss → line arrives) and WCB/EB
/// (eviction/write-combine → line drains).
///
/// Slots are a flat `(line, ready_at)` array with a free sentinel rather
/// than `Option`s: lookups and expiry are straight compare loops over
/// 16-byte records. `line` must not be `u64::MAX` (the free marker).
///
/// ```
/// use lowvcc_uarch::buffers::TimedBuffer;
///
/// let mut fb = TimedBuffer::new(8);
/// fb.allocate(0x40, 100).unwrap();
/// assert!(fb.contains(0x40));
/// fb.expire(99);
/// assert!(fb.contains(0x40));
/// fb.expire(100);
/// assert!(!fb.contains(0x40));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedBuffer {
    slots: Vec<Slot>,
    /// Earliest `ready_at` among occupied slots (`u64::MAX` when empty):
    /// lets the per-cycle [`TimedBuffer::expire`] poll exit in O(1) on the
    /// overwhelmingly common nothing-completes cycle.
    next_ready: u64,
    /// Occupied-slot count, so occupancy/fullness checks on the access
    /// hot path are O(1) instead of slot scans.
    occupied: usize,
}

impl TimedBuffer {
    /// Creates a buffer with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "buffer needs at least one entry");
        Self {
            slots: vec![EMPTY; entries],
            next_ready: u64::MAX,
            occupied: 0,
        }
    }

    /// Capacity in entries.
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied entries.
    #[inline]
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Whether the buffer is full.
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.occupied == self.slots.len()
    }

    /// Earliest completion cycle among in-flight lines (`u64::MAX` when
    /// empty).
    #[inline]
    #[must_use]
    pub fn next_ready(&self) -> u64 {
        self.next_ready
    }

    /// Whether `line` is already in flight (secondary-miss merge).
    #[inline]
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.occupied > 0 && self.slots.iter().any(|s| s.line == line)
    }

    /// Cycle at which `line` completes, if in flight.
    #[inline]
    #[must_use]
    pub fn ready_at(&self, line: u64) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        self.slots
            .iter()
            .find(|s| s.line == line)
            .map(|s| s.ready_at)
    }

    /// Allocates `line`, completing at `ready_at`. Duplicate lines merge
    /// (keeping the earlier completion).
    ///
    /// # Errors
    ///
    /// Returns [`BufferFull`] when no slot is free.
    #[inline]
    pub fn allocate(&mut self, line: u64, ready_at: u64) -> Result<(), BufferFull> {
        debug_assert_ne!(line, FREE, "u64::MAX marks a free slot");
        // One pass: merge into the slot holding `line`, else remember the
        // first free slot.
        let mut free = None;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.line == line {
                slot.ready_at = slot.ready_at.min(ready_at);
                self.next_ready = self.next_ready.min(slot.ready_at);
                return Ok(());
            }
            if slot.line == FREE && free.is_none() {
                free = Some(i);
            }
        }
        let i = free.ok_or(BufferFull)?;
        self.slots[i] = Slot { line, ready_at };
        self.next_ready = self.next_ready.min(ready_at);
        self.occupied += 1;
        Ok(())
    }

    /// Frees every slot whose completion cycle has arrived (the per-cycle
    /// tick). O(1) on cycles where nothing completes.
    #[inline]
    pub fn expire(&mut self, now: u64) {
        if self.next_ready <= now {
            self.expire_due(now);
        }
    }

    /// The slot sweep behind [`TimedBuffer::expire`]: free slots carry
    /// `ready_at == u64::MAX`, so they neither expire nor lower the
    /// recomputed minimum.
    fn expire_due(&mut self, now: u64) {
        let mut remaining_min = u64::MAX;
        for slot in &mut self.slots {
            if slot.ready_at <= now {
                *slot = EMPTY;
                self.occupied -= 1;
            } else {
                remaining_min = remaining_min.min(slot.ready_at);
            }
        }
        self.next_ready = remaining_min;
    }

    /// Restores the freshly-constructed state in place, without
    /// reallocating the slot storage.
    pub fn reset(&mut self) {
        self.slots.fill(EMPTY);
        self.next_ready = u64::MAX;
        self.occupied = 0;
    }
}

/// Post-fill stall guard: the paper's IRAW mechanism for infrequently
/// written blocks — "keeping the ports busy to prevent the port arbiter
/// from issuing new accesses" for `N` cycles after a fill.
///
/// ```
/// use lowvcc_uarch::buffers::StallGuard;
///
/// let mut g = StallGuard::new(1);
/// g.on_fill(100);               // fill completes at cycle 100
/// assert!(g.is_stalled(100));   // N = 1: cycle 100 blocked…
/// assert!(g.is_stalled(101));
/// assert!(!g.is_stalled(102));  // …free again
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallGuard {
    n: u32,
    /// Stabilization window `[start, end]` of the most recent fill, if any.
    window: Option<(u64, u64)>,
}

impl StallGuard {
    /// Creates a guard enforcing `n` stabilization cycles (0 = disabled).
    #[must_use]
    pub fn new(n: u32) -> Self {
        Self { n, window: None }
    }

    /// Current `N`.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Notifies the guard that a fill completed at `cycle`; the port is
    /// busy for the window `[cycle, cycle + N]` while the entry
    /// stabilizes. Earlier fills with shorter windows are superseded.
    #[inline]
    pub fn on_fill(&mut self, cycle: u64) {
        if self.n == 0 {
            return;
        }
        let end = cycle + u64::from(self.n);
        match self.window {
            Some((_, old_end)) if old_end >= end => {}
            _ => self.window = Some((cycle, end)),
        }
    }

    /// Whether the port is blocked at `cycle` (inside a stabilization
    /// window). Cycles *before* the fill completes are not blocked by the
    /// guard — the in-flight miss itself covers those.
    #[inline]
    #[must_use]
    pub fn is_stalled(&self, cycle: u64) -> bool {
        match self.window {
            Some((start, end)) => self.n > 0 && cycle >= start && cycle <= end,
            None => false,
        }
    }

    /// First cycle at which the current window (if any) has passed.
    #[inline]
    #[must_use]
    pub fn free_at(&self) -> u64 {
        match self.window {
            Some((_, end)) => end + 1,
            None => 0,
        }
    }

    /// First cycle after `now` at which [`StallGuard::is_stalled`] changes
    /// value, absent new fills — the window opening (a fill completing in
    /// the future) or closing. `None` when the guard's answer is settled.
    #[inline]
    #[must_use]
    pub fn next_change(&self, now: u64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        match self.window {
            Some((start, _)) if now < start => Some(start),
            Some((_, end)) if now <= end => Some(end + 1),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_trace::SimRng;

    #[test]
    fn allocate_complete_roundtrip() {
        let mut fb = TimedBuffer::new(2);
        fb.allocate(1, 10).unwrap();
        fb.allocate(2, 5).unwrap();
        assert_eq!(fb.occupancy(), 2);
        assert!(fb.is_full());
        fb.expire(10);
        assert_eq!(fb.occupancy(), 0);
        assert!(!fb.contains(1) && !fb.contains(2));
    }

    #[test]
    fn full_buffer_rejects_new_lines_but_merges() {
        let mut fb = TimedBuffer::new(1);
        fb.allocate(1, 10).unwrap();
        assert_eq!(fb.allocate(2, 10), Err(BufferFull));
        assert!(!fb.contains(2), "a rejected line is not in flight");
        assert_eq!(fb.allocate(1, 8), Ok(()), "a full buffer still merges");
        assert_eq!(fb.ready_at(1), Some(8));
    }

    #[test]
    fn duplicate_lines_merge_keeping_earlier_completion() {
        let mut fb = TimedBuffer::new(2);
        fb.allocate(7, 20).unwrap();
        fb.allocate(7, 15).unwrap(); // merge, earlier wins
        assert_eq!(fb.occupancy(), 1);
        assert_eq!(fb.ready_at(7), Some(15));
        fb.allocate(7, 30).unwrap(); // merge, later ignored
        assert_eq!(fb.ready_at(7), Some(15));
    }

    #[test]
    fn partial_readiness() {
        let mut fb = TimedBuffer::new(4);
        fb.allocate(1, 10).unwrap();
        fb.allocate(2, 20).unwrap();
        fb.allocate(3, 15).unwrap();
        fb.expire(15);
        assert!(!fb.contains(1) && !fb.contains(3));
        assert!(fb.contains(2));
        assert_eq!(fb.next_ready(), 20);
        // Nothing-ready cycles are no-ops.
        let before = fb.clone();
        fb.expire(16);
        assert_eq!(fb, before);
        fb.expire(25);
        assert_eq!(fb.occupancy(), 0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut fb = TimedBuffer::new(2);
        fb.allocate(1, 10).unwrap();
        fb.allocate(2, 10).unwrap();
        let _ = fb.allocate(3, 10); // rejection
        fb.reset();
        assert_eq!(fb, TimedBuffer::new(2));
        assert!(!fb.contains(1));
    }

    /// The pre-flattening model: `Option` slots, scanned in slot order.
    struct ReferenceBuffer {
        slots: Vec<Option<(u64, u64)>>,
        rejections: u64,
    }

    impl ReferenceBuffer {
        fn allocate(&mut self, line: u64, ready_at: u64) -> bool {
            if let Some(slot) = self.slots.iter_mut().flatten().find(|(l, _)| *l == line) {
                slot.1 = slot.1.min(ready_at);
                return true;
            }
            match self.slots.iter_mut().find(|s| s.is_none()) {
                Some(slot) => {
                    *slot = Some((line, ready_at));
                    true
                }
                None => {
                    self.rejections += 1;
                    false
                }
            }
        }

        fn expire(&mut self, now: u64) {
            for slot in &mut self.slots {
                if slot.is_some_and(|(_, at)| at <= now) {
                    *slot = None;
                }
            }
        }

        fn ready_at(&self, line: u64) -> Option<u64> {
            self.slots
                .iter()
                .flatten()
                .find(|&&(l, _)| l == line)
                .map(|&(_, t)| t)
        }

        fn occupancy(&self) -> usize {
            self.slots.iter().flatten().count()
        }
    }

    #[test]
    fn flat_slots_match_the_option_reference() {
        for seed in 0..6u64 {
            let mut rng = SimRng::seed_from(seed);
            let cap = 1 + (seed as usize % 4) * 2;
            let mut fb = TimedBuffer::new(cap);
            let mut reference = ReferenceBuffer {
                slots: vec![None; cap],
                rejections: 0,
            };
            let mut now = 0u64;
            for step in 0..3_000 {
                let ctx = format!("seed {seed} step {step}");
                // A small line domain makes merges frequent; short
                // completions against a small buffer make it fill up.
                let line = rng.below(12);
                match rng.below(8) {
                    0..=3 => {
                        let at = now + rng.below(20);
                        let ok = fb.allocate(line, at).is_ok();
                        assert_eq!(ok, reference.allocate(line, at), "{ctx}");
                    }
                    4 | 5 => {
                        now += rng.below(6);
                        fb.expire(now);
                        reference.expire(now);
                    }
                    _ => {
                        assert_eq!(fb.ready_at(line), reference.ready_at(line), "{ctx}");
                        assert_eq!(fb.contains(line), reference.ready_at(line).is_some());
                    }
                }
                assert_eq!(fb.occupancy(), reference.occupancy(), "{ctx}");
                assert_eq!(fb.is_full(), reference.occupancy() == cap, "{ctx}");
                let min = reference.slots.iter().flatten().map(|&(_, t)| t).min();
                assert_eq!(fb.next_ready(), min.unwrap_or(u64::MAX), "{ctx}");
            }
            assert!(reference.rejections > 0, "seed {seed}: never filled up");
        }
    }

    #[test]
    fn stall_guard_blocks_n_cycles_after_fill() {
        let mut g = StallGuard::new(2);
        assert!(!g.is_stalled(50));
        g.on_fill(100);
        assert!(g.is_stalled(100));
        assert!(g.is_stalled(102));
        assert!(!g.is_stalled(103));
        assert_eq!(g.free_at(), 103);
    }

    #[test]
    fn stall_guard_next_change_brackets_the_window() {
        let mut g = StallGuard::new(2);
        assert_eq!(g.next_change(5), None);
        g.on_fill(100);
        // Before the fill lands: the window opens at 100…
        assert_eq!(g.next_change(50), Some(100));
        // …inside it: closes at 103…
        assert_eq!(g.next_change(100), Some(103));
        assert_eq!(g.next_change(102), Some(103));
        // …after: settled.
        assert_eq!(g.next_change(103), None);
    }

    #[test]
    fn stall_guard_disabled_at_n_zero() {
        let mut g = StallGuard::new(0);
        g.on_fill(100);
        assert!(!g.is_stalled(100));
        assert_eq!(g.free_at(), 0, "a disabled guard never arms");
    }

    #[test]
    fn stall_guard_extends_not_shrinks() {
        let mut g = StallGuard::new(3);
        g.on_fill(100);
        g.on_fill(98); // earlier fill must not shorten the stall
        assert!(g.is_stalled(103));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = TimedBuffer::new(0);
    }
}
