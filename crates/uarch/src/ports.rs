//! Port arbitration: busy-until reservations with stall accounting.

/// A single structural port.
///
/// ```
/// use lowvcc_uarch::ports::Port;
///
/// let mut p = Port::new();
/// assert!(p.try_reserve(10, 3)); // busy for cycles 10, 11, 12
/// assert!(!p.try_reserve(12, 1));
/// assert!(p.try_reserve(13, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Port {
    busy_until: u64, // first free cycle
    grants: u64,
    conflicts: u64,
}

impl Port {
    /// Creates a free port.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the port is busy at `cycle`.
    #[inline]
    #[must_use]
    pub fn is_busy(&self, cycle: u64) -> bool {
        cycle < self.busy_until
    }

    /// Reserves the port for `cycles` starting at `cycle` if free.
    #[inline]
    pub fn try_reserve(&mut self, cycle: u64, cycles: u64) -> bool {
        if self.is_busy(cycle) {
            self.conflicts += 1;
            return false;
        }
        self.busy_until = cycle + cycles;
        self.grants += 1;
        true
    }

    /// First cycle at which the port is free.
    #[inline]
    #[must_use]
    pub fn free_at(&self) -> u64 {
        self.busy_until
    }

    /// Successful reservations.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Rejected reservations (structural-hazard stalls).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

/// A bank of identical ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSet {
    ports: Vec<Port>,
}

impl PortSet {
    /// Creates `count` free ports.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "need at least one port");
        Self {
            ports: vec![Port::new(); count],
        }
    }

    /// Number of ports.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the set is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Reserves any free port for `cycles` starting at `cycle`.
    #[inline]
    pub fn try_reserve(&mut self, cycle: u64, cycles: u64) -> bool {
        for p in &mut self.ports {
            if !p.is_busy(cycle) {
                return p.try_reserve(cycle, cycles);
            }
        }
        false
    }

    /// Free ports at `cycle`.
    #[inline]
    #[must_use]
    pub fn free_count(&self, cycle: u64) -> usize {
        self.ports.iter().filter(|p| !p.is_busy(cycle)).count()
    }

    /// Earliest cycle at which any port is (or becomes) free — the wake-up
    /// bound for a caller blocked on an all-busy set.
    #[inline]
    #[must_use]
    pub fn earliest_free(&self) -> u64 {
        self.ports.iter().map(Port::free_at).min().unwrap_or(0)
    }

    /// Restores the freshly-constructed state in place: every port free
    /// with zeroed grant/conflict counters. No allocation.
    pub fn reset(&mut self) {
        for p in &mut self.ports {
            *p = Port::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_blocks_until_released() {
        let mut p = Port::new();
        assert!(p.try_reserve(0, 2));
        assert!(p.is_busy(0));
        assert!(p.is_busy(1));
        assert!(!p.is_busy(2));
        assert_eq!(p.free_at(), 2);
    }

    #[test]
    fn conflicts_counted() {
        let mut p = Port::new();
        assert!(p.try_reserve(0, 5));
        assert!(!p.try_reserve(3, 1));
        assert_eq!(p.grants(), 1);
        assert_eq!(p.conflicts(), 1);
    }

    #[test]
    fn port_set_spreads_load() {
        let mut set = PortSet::new(2);
        assert_eq!(set.free_count(0), 2);
        assert!(set.try_reserve(0, 4));
        assert!(set.try_reserve(0, 4));
        assert!(!set.try_reserve(0, 1), "both busy");
        assert_eq!(set.free_count(0), 0);
        assert!(set.try_reserve(4, 1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn earliest_free_is_the_unblock_cycle() {
        let mut set = PortSet::new(2);
        assert_eq!(set.earliest_free(), 0);
        assert!(set.try_reserve(0, 4));
        assert!(set.try_reserve(0, 7));
        assert_eq!(set.earliest_free(), 4);
        assert_eq!(set.free_count(set.earliest_free()), 1);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn empty_port_set_rejected() {
        let _ = PortSet::new(0);
    }
}
