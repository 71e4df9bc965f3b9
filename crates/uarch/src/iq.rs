//! Instruction queue with the IRAW occupancy gate (paper §4.2, Figure 9).
//!
//! The in-order core allocates decoded instructions to a circular queue and
//! considers only the `ICI` oldest for issue; IQ entries are read every
//! cycle regardless of validity, so reading a just-allocated (still
//! stabilizing) entry would corrupt it at low Vcc. The paper's gate allows
//! issue only when
//!
//! ```text
//! occupancy ≥ ICI + AI·N
//! ```
//!
//! (`AI` = allocation width, `N` = stabilization cycles): even if the
//! newest `AI·N` entries are stabilizing, the `ICI` oldest are safe. On a
//! pipeline drain, `AI·N` NOOPs are injected so the real tail can issue.

use crate::ring::Ring;

/// The Figure 9 issue gate over a queue holding `occupancy` entries:
/// `occupancy ≥ ICI + AI·N`.
///
/// With `n = 0` (IRAW disabled — the `stall issue?` signal cleared) any
/// non-empty queue may issue. The one statement of the gate: both
/// [`InstQueue::issue_allowed`] and the engine's IQ call it.
///
/// ```
/// use lowvcc_uarch::iq::issue_allowed;
///
/// // ICI = 2, AI = 2, N = 1: the threshold is 4 (the paper's example).
/// assert!(!issue_allowed(3, 2, 2, 1));
/// assert!(issue_allowed(4, 2, 2, 1));
/// // IRAW off: one entry suffices, none never does.
/// assert!(issue_allowed(1, 2, 2, 0));
/// assert!(!issue_allowed(0, 2, 2, 0));
/// ```
#[inline]
#[must_use]
pub fn issue_allowed(occupancy: usize, ici: usize, ai: usize, n: u32) -> bool {
    if n == 0 {
        occupancy > 0
    } else {
        occupancy >= ici + ai * n as usize
    }
}

/// Circular instruction queue.
///
/// ```
/// use lowvcc_uarch::iq::InstQueue;
///
/// let mut iq: InstQueue<u32> = InstQueue::new(32);
/// iq.alloc(7).unwrap();
/// // One entry, ICI=2, AI=2, N=1: occupancy 1 < 2 + 2·1 → gated.
/// assert!(!iq.issue_allowed(2, 2, 1));
/// // With IRAW off (N = 0) the entry may issue immediately.
/// assert!(iq.issue_allowed(2, 2, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstQueue<T: Copy + Default> {
    entries: Ring<T>,
    /// Monotone counters emulating the Figure 9 head/tail registers.
    head: u64,
    tail: u64,
}

/// Error returned when allocating into a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("instruction queue is full")
    }
}

impl std::error::Error for QueueFull {}

impl<T: Copy + Default> InstQueue<T> {
    /// Creates a queue of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two (the Figure 9
    /// modulus trick requires a power-of-two size).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity.is_power_of_two());
        Self {
            entries: Ring::new(capacity),
            head: 0,
            tail: 0,
        }
    }

    /// Queue capacity.
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Current occupancy.
    #[inline]
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full.
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.is_full()
    }

    /// Occupancy computed the way the Figure 9 hardware does: append a
    /// `1` to the left of `tail` (add the queue size), subtract `head`,
    /// and drop the uppermost bit (mod size) — with a full-queue special
    /// case. Kept alongside the architectural count for cross-checking.
    #[must_use]
    pub fn hardware_occupancy(&self) -> usize {
        let size = self.capacity() as u64;
        let tail = self.tail % size;
        let head = self.head % size;
        let raw = ((tail + size) - head) % size;
        if raw == 0 && !self.entries.is_empty() {
            self.capacity()
        } else {
            raw as usize
        }
    }

    /// Allocates one entry at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when at capacity.
    #[inline]
    pub fn alloc(&mut self, item: T) -> Result<(), QueueFull> {
        self.entries.push_back(item).map_err(|_| QueueFull)?;
        self.tail += 1;
        Ok(())
    }

    /// The Figure 9 issue gate ([`issue_allowed`]) at this queue's
    /// occupancy.
    #[inline]
    #[must_use]
    pub fn issue_allowed(&self, ici: usize, ai: usize, n: u32) -> bool {
        issue_allowed(self.occupancy(), ici, ai, n)
    }

    /// The `ICI` oldest entries, oldest first.
    pub fn oldest(&self, ici: usize) -> impl Iterator<Item = &T> {
        self.entries.iter().take(ici)
    }

    /// Reference to the oldest entry.
    #[inline]
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        self.entries.front()
    }

    /// Pops the oldest entry (it issued).
    #[inline]
    pub fn pop_oldest(&mut self) -> Option<T> {
        let item = self.entries.pop_front();
        if item.is_some() {
            self.head += 1;
        }
        item
    }

    /// Drops every entry (misprediction/exception flush).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.head = self.tail;
    }

    /// Restores the freshly-constructed state in place: empty queue *and*
    /// head/tail counters rewound (unlike [`InstQueue::flush`], which
    /// keeps the monotone counters running). No allocation.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.tail = 0;
    }

    /// Injects `count` drain entries (the paper's NOOP injection: when the
    /// pipeline must empty, `AI·N` NOOPs are allocated so every real
    /// instruction can clear the occupancy gate).
    ///
    /// Entries beyond capacity are silently dropped — a full queue needs
    /// no padding to issue.
    pub fn inject_drain(&mut self, count: usize, mut make: impl FnMut() -> T) {
        for _ in 0..count {
            if self.alloc(make()).is_err() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_occupancy() {
        let mut iq = InstQueue::new(8);
        for i in 0..5 {
            iq.alloc(i).unwrap();
        }
        assert_eq!(iq.occupancy(), 5);
        assert_eq!(iq.front(), Some(&0));
        assert_eq!(iq.pop_oldest(), Some(0));
        assert_eq!(iq.pop_oldest(), Some(1));
        assert_eq!(iq.occupancy(), 3);
        let oldest: Vec<_> = iq.oldest(2).copied().collect();
        assert_eq!(oldest, vec![2, 3]);
    }

    #[test]
    fn rejects_allocation_when_full() {
        let mut iq = InstQueue::new(4);
        for i in 0..4 {
            iq.alloc(i).unwrap();
        }
        assert!(iq.is_full());
        assert_eq!(iq.alloc(9), Err(QueueFull));
    }

    #[test]
    fn figure9_gate_silverthorne_parameters() {
        // ICI = 2, AI = 2, N = 1 ⇒ threshold 4 (paper's own example).
        let mut iq = InstQueue::new(32);
        for occupancy in 1..=3 {
            iq.alloc(occupancy).unwrap();
            assert!(
                !iq.issue_allowed(2, 2, 1),
                "occupancy {occupancy} must be gated"
            );
        }
        iq.alloc(4).unwrap();
        assert!(iq.issue_allowed(2, 2, 1));
    }

    #[test]
    fn gate_scales_with_n() {
        let mut iq = InstQueue::new(32);
        for i in 0..5 {
            iq.alloc(i).unwrap();
        }
        assert!(iq.issue_allowed(2, 2, 1)); // needs 4
        assert!(!iq.issue_allowed(2, 2, 2)); // needs 6
        iq.alloc(5).unwrap();
        assert!(iq.issue_allowed(2, 2, 2));
    }

    #[test]
    fn gate_disabled_when_n_zero() {
        let mut iq = InstQueue::new(32);
        assert!(!iq.issue_allowed(2, 2, 0), "empty queue never issues");
        iq.alloc(1).unwrap();
        assert!(iq.issue_allowed(2, 2, 0));
    }

    #[test]
    fn hardware_occupancy_matches_count_through_wraparound() {
        let mut iq = InstQueue::new(8);
        // Drive through several wrap-arounds with mixed alloc/pop.
        for round in 0u64..50 {
            if round % 3 != 2 {
                let _ = iq.alloc(round);
            } else {
                let _ = iq.pop_oldest();
            }
            assert_eq!(
                iq.hardware_occupancy(),
                iq.occupancy(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn hardware_occupancy_full_queue() {
        let mut iq = InstQueue::new(4);
        for i in 0..4 {
            iq.alloc(i).unwrap();
        }
        assert_eq!(iq.hardware_occupancy(), 4);
    }

    #[test]
    fn drain_injection_unblocks_the_tail() {
        // 1 real instruction stuck behind the gate: inject AI·N = 2 NOOPs.
        let mut iq = InstQueue::new(32);
        iq.alloc(100).unwrap();
        assert!(!iq.issue_allowed(2, 2, 1));
        iq.inject_drain(3, || -1);
        assert!(iq.issue_allowed(2, 2, 1));
        assert_eq!(iq.pop_oldest(), Some(100), "real instruction issues first");
    }

    #[test]
    fn drain_injection_respects_capacity() {
        let mut iq = InstQueue::new(4);
        for i in 0..3 {
            iq.alloc(i).unwrap();
        }
        iq.inject_drain(10, || -1);
        assert_eq!(iq.occupancy(), 4);
    }

    #[test]
    fn flush_empties_and_keeps_counters_consistent() {
        let mut iq = InstQueue::new(8);
        for i in 0..6 {
            iq.alloc(i).unwrap();
        }
        iq.pop_oldest();
        iq.flush();
        assert!(iq.is_empty());
        assert_eq!(iq.hardware_occupancy(), 0);
        iq.alloc(1).unwrap();
        assert_eq!(iq.hardware_occupancy(), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_capacity_rejected() {
        let _: InstQueue<u8> = InstQueue::new(6);
    }
}
