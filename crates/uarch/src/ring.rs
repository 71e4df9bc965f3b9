//! Fixed-capacity FIFO ring: the storage behind the instruction queue
//! model ([`InstQueue`](crate::iq::InstQueue)).
//!
//! The queue is tiny (16–32 entries) and power-of-two sized, as in
//! Figure 9. A flat slot array indexed by `(head + i) & mask` keeps push
//! and pop to one masked load or store, with no growth path and no
//! wrap-around branch. Equality compares *logical* contents (oldest to
//! newest), never the raw slots, so two rings holding the same queue at
//! different physical offsets compare equal.

use std::fmt;

/// A fixed-capacity FIFO over a power-of-two slot array.
///
/// ```
/// use lowvcc_uarch::ring::Ring;
///
/// let mut ring: Ring<u32> = Ring::new(4);
/// assert!(ring.push_back(1).is_ok());
/// assert!(ring.push_back(2).is_ok());
/// assert_eq!(ring.pop_front(), Some(1));
/// assert_eq!(ring.front(), Some(&2));
/// assert_eq!(ring.len(), 1);
/// ```
#[derive(Clone)]
pub struct Ring<T> {
    slots: Vec<T>,
    mask: usize,
    /// Physical index of the oldest entry.
    head: usize,
    len: usize,
}

impl<T: Copy + Default> Ring<T> {
    /// Creates an empty ring of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity.is_power_of_two(),
            "ring capacity must be a positive power of two"
        );
        Self {
            slots: vec![T::default(); capacity],
            mask: capacity - 1,
            head: 0,
            len: 0,
        }
    }

    /// Slot count.
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of queued entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every slot is taken.
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// The oldest entry.
    #[inline]
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            Some(&self.slots[self.head])
        }
    }

    /// Appends `item` as the newest entry.
    ///
    /// # Errors
    ///
    /// Hands `item` back when the ring is full.
    #[inline]
    pub fn push_back(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        let idx = (self.head + self.len) & self.mask;
        self.slots[idx] = item;
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the oldest entry.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(item)
    }

    /// Drops every entry and rewinds to slot 0 (no allocation).
    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The queued entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self.slots[(self.head + i) & self.mask])
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Default + Eq> Eq for Ring<T> {}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_trace::SimRng;
    use std::collections::VecDeque;

    #[test]
    fn matches_vecdeque_on_random_ops() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(seed);
            let cap = 1usize << (seed % 4 + 1);
            let mut ring: Ring<u64> = Ring::new(cap);
            let mut reference: VecDeque<u64> = VecDeque::new();
            for step in 0..4_000u64 {
                match rng.below(10) {
                    0..=4 => {
                        let pushed = ring.push_back(step);
                        if reference.len() < cap {
                            reference.push_back(step);
                            assert_eq!(pushed, Ok(()), "seed {seed} step {step}");
                        } else {
                            assert_eq!(pushed, Err(step), "full ring must reject");
                        }
                    }
                    5..=8 => assert_eq!(ring.pop_front(), reference.pop_front()),
                    _ => {
                        ring.clear();
                        reference.clear();
                    }
                }
                assert_eq!(ring.len(), reference.len());
                assert_eq!(ring.front(), reference.front());
                assert_eq!(ring.is_full(), reference.len() == cap);
                assert!(ring.iter().eq(reference.iter()), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn equality_ignores_physical_offset() {
        let mut a: Ring<u8> = Ring::new(4);
        let mut b: Ring<u8> = Ring::new(4);
        for i in 0..3 {
            a.push_back(i).unwrap();
        }
        a.pop_front();
        a.pop_front();
        a.push_back(3).unwrap();
        a.push_back(4).unwrap(); // wraps: physical slot 0
        for i in 2..5 {
            b.push_back(i).unwrap();
        }
        assert_eq!(a, b);
        b.pop_front();
        assert_ne!(a, b);
        assert_eq!(format!("{b:?}"), "[3, 4]");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _: Ring<u8> = Ring::new(6);
    }
}
