//! Return stack buffer (RSB) — prediction-only, IRAW ignored (paper §4.5).
//!
//! The RSB is written on calls and read on returns. A return could only
//! observe a stabilizing entry if the matching call happened within the
//! last `N` cycles — the paper "did not find any short function meeting
//! those conditions"; [`ReturnStack`] tracks the same statistic so the
//! claim can be checked per workload.

/// A circular return-address stack.
///
/// ```
/// use lowvcc_uarch::rsb::ReturnStack;
///
/// let mut rsb = ReturnStack::new(8, 1);
/// rsb.push(0x1234, 10);
/// assert_eq!(rsb.pop(20), Some(0x1234));
/// assert_eq!(rsb.pop(21), None); // empty
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnStack {
    slots: Vec<(u64, u64)>, // (return address, push cycle)
    top: usize,
    live: usize,
    window: u64,
    potential_corruptions: u64,
}

impl ReturnStack {
    /// Creates a return stack of `capacity` entries with an IRAW window of
    /// `n` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, n: u32) -> Self {
        assert!(capacity > 0, "return stack needs at least one entry");
        Self {
            slots: vec![(0, 0); capacity],
            top: 0,
            live: 0,
            window: u64::from(n),
            potential_corruptions: 0,
        }
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Live entries (≤ capacity).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.live
    }

    /// Pushes a return address (on a call). Overflow wraps, overwriting
    /// the oldest entry — standard RSB behaviour.
    #[inline]
    pub fn push(&mut self, return_addr: u64, cycle: u64) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = (return_addr, cycle);
        if self.live < self.slots.len() {
            self.live += 1;
        }
    }

    /// Pops the predicted return address (on a return). Returns `None` on
    /// underflow. Tracks pops landing within the IRAW window of the
    /// matching push.
    #[inline]
    pub fn pop(&mut self, cycle: u64) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let (addr, pushed_at) = self.slots[self.top];
        if cycle.saturating_sub(pushed_at) <= self.window && cycle != pushed_at {
            self.potential_corruptions += 1;
        }
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.live -= 1;
        Some(addr)
    }

    /// Pops that landed within the IRAW stabilization window — i.e.
    /// call→return distances short enough to read a stabilizing entry
    /// (paper §4.5: observed to be zero in practice).
    #[must_use]
    pub fn potential_corruptions(&self) -> u64 {
        self.potential_corruptions
    }

    /// Clears the stack (pipeline flush does *not* normally do this — the
    /// RSB is speculative state — but tests and resets need it).
    pub fn clear(&mut self) {
        self.live = 0;
        self.top = 0;
    }

    /// Restores the freshly-constructed state in place for a window of
    /// `n` cycles: contents, depth and the corruption count (unlike
    /// [`ReturnStack::clear`], which keeps the count). No allocation.
    pub fn reset(&mut self, n: u32) {
        self.slots.fill((0, 0));
        self.top = 0;
        self.live = 0;
        self.window = u64::from(n);
        self.potential_corruptions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut rsb = ReturnStack::new(4, 1);
        rsb.push(0xA, 1);
        rsb.push(0xB, 2);
        rsb.push(0xC, 3);
        assert_eq!(rsb.pop(10), Some(0xC));
        assert_eq!(rsb.pop(11), Some(0xB));
        assert_eq!(rsb.pop(12), Some(0xA));
        assert_eq!(rsb.pop(13), None);
        assert_eq!(rsb.depth(), 0, "an underflowing pop leaves the stack empty");
        rsb.push(0xD, 14);
        assert_eq!(rsb.pop(15), Some(0xD));
    }

    #[test]
    fn overflow_wraps_and_loses_oldest() {
        let mut rsb = ReturnStack::new(2, 1);
        rsb.push(0x1, 1);
        rsb.push(0x2, 2);
        rsb.push(0x3, 3); // overwrites 0x1
        assert_eq!(rsb.depth(), 2);
        assert_eq!(rsb.pop(10), Some(0x3));
        assert_eq!(rsb.pop(11), Some(0x2));
        assert_eq!(rsb.pop(12), None, "0x1 was lost to the wrap");
    }

    #[test]
    fn immediate_return_counts_as_potential_corruption() {
        let mut rsb = ReturnStack::new(8, 1);
        rsb.push(0xAB, 100);
        let _ = rsb.pop(101); // within N=1 of the push
        assert_eq!(rsb.potential_corruptions(), 1);
        rsb.push(0xCD, 200);
        assert_eq!(rsb.pop(205), Some(0xCD)); // far outside
        assert_eq!(rsb.potential_corruptions(), 1);
        assert_eq!(rsb.pop(206), None);
        assert_eq!(rsb.potential_corruptions(), 1, "underflows are not pops");
    }

    #[test]
    fn window_reconfiguration() {
        // A pop two cycles after its push conflicts at N = 2, not at N = 1.
        let mut rsb = ReturnStack::new(8, 2);
        rsb.push(0x1, 10);
        let _ = rsb.pop(12);
        assert_eq!(rsb.potential_corruptions(), 1);
        rsb.reset(1);
        rsb.push(0x2, 20);
        let _ = rsb.pop(22);
        assert_eq!(rsb.potential_corruptions(), 0);
        let mut rsb = ReturnStack::new(8, 1);
        rsb.push(0x2, 20);
        let _ = rsb.pop(22);
        assert_eq!(rsb.potential_corruptions(), 0);
    }

    #[test]
    fn clear_resets_depth() {
        let mut rsb = ReturnStack::new(4, 1);
        rsb.push(0x1, 1);
        rsb.push(0x2, 2);
        rsb.clear();
        assert_eq!(rsb.depth(), 0);
        assert_eq!(rsb.pop(5), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = ReturnStack::new(0, 1);
    }
}
