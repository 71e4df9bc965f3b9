//! Fully-associative TLBs (ITLB, DTLB) with LRU replacement.
//!
//! TLBs are among the paper's "infrequently written cache-like blocks": a
//! fill happens only on a TLB miss, so IRAW avoidance simply stalls the
//! port for `N` cycles after each fill (paper §4.3).

/// Page size: 4 KiB.
pub const PAGE_SHIFT: u32 = 12;

/// Translation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Misses (page walks).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio (0 when unused).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// VPN marking a free TLB slot; real VPNs (`addr >> 12`) never reach it.
const FREE: u64 = u64::MAX;

/// One TLB slot; free slots hold [`FREE`] and never match a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    vpn: u64,
    last_use: u64,
}

const EMPTY: Entry = Entry {
    vpn: FREE,
    last_use: 0,
};

/// A fully-associative TLB.
///
/// ```
/// use lowvcc_uarch::tlb::Tlb;
///
/// let mut tlb = Tlb::new(16);
/// let addr = 0xAB12_3000u64; // page-aligned
/// assert!(!tlb.access(addr)); // cold miss
/// tlb.fill(addr);
/// assert!(tlb.access(addr));
/// assert!(tlb.access(addr + 0xFFF)); // same page
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    /// Flat `(vpn, last_use)` slots with a free sentinel, so a lookup is
    /// one compare per slot.
    entries: Vec<Entry>,
    /// Slot of the most recent hit: page locality makes the next access
    /// overwhelmingly likely to land there, turning the linear scan into
    /// an O(1) probe on the hot path.
    mru: usize,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        Self {
            entries: vec![EMPTY; entries],
            mru: 0,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Virtual page number of an address.
    #[inline]
    #[must_use]
    pub fn vpn(addr: u64) -> u64 {
        addr >> PAGE_SHIFT
    }

    /// Looks up the page of `addr`; returns whether it hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let vpn = Self::vpn(addr);
        let slot = if self.entries[self.mru].vpn == vpn {
            Some(self.mru)
        } else {
            self.entries.iter().position(|e| e.vpn == vpn)
        };
        match slot {
            Some(idx) => {
                self.entries[idx].last_use = self.clock;
                self.mru = idx;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Installs the page of `addr`, evicting the LRU entry if full.
    pub fn fill(&mut self, addr: u64) {
        self.clock += 1;
        let vpn = Self::vpn(addr);
        if self.entries.iter().any(|e| e.vpn == vpn) {
            return;
        }
        let slot = match self.entries.iter().position(|e| e.vpn == FREE) {
            Some(idx) => idx,
            // Full: the first least-recently-used slot.
            None => self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map_or(0, |(i, _)| i),
        };
        self.entries[slot] = Entry {
            vpn,
            last_use: self.clock,
        };
    }

    /// Restores the freshly-constructed state in place: translations,
    /// MRU slot, clock and statistics. No allocation.
    pub fn reset(&mut self) {
        self.entries.fill(EMPTY);
        self.mru = 0;
        self.clock = 0;
        self.stats = TlbStats::default();
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_4k() {
        assert_eq!(Tlb::vpn(0x0000), Tlb::vpn(0x0FFF));
        assert_ne!(Tlb::vpn(0x0FFF), Tlb::vpn(0x1000));
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut tlb = Tlb::new(2);
        tlb.fill(0x1000);
        tlb.fill(0x2000);
        assert!(tlb.access(0x1000)); // touch page 1: page 2 becomes LRU
        tlb.fill(0x3000);
        assert!(tlb.access(0x1000));
        assert!(!tlb.access(0x2000), "LRU page must have been evicted");
        assert!(tlb.access(0x3000));
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut tlb = Tlb::new(2);
        tlb.fill(0x1000);
        tlb.fill(0x1000);
        tlb.fill(0x2000);
        assert!(tlb.access(0x1000));
        assert!(tlb.access(0x2000));
    }

    #[test]
    fn stats_track_miss_ratio() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.access(0x5000));
        tlb.fill(0x5000);
        assert!(tlb.access(0x5000));
        assert!(tlb.access(0x5800));
        let s = tlb.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (3, 2, 1));
        assert!((s.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// The pre-flattening model: `Option` slots with an MRU probe and
    /// first-minimal LRU eviction.
    struct ReferenceTlb {
        entries: Vec<Option<(u64, u64)>>,
        mru: usize,
        clock: u64,
        stats: TlbStats,
    }

    impl ReferenceTlb {
        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let vpn = Tlb::vpn(addr);
            if let Some(entry) = &mut self.entries[self.mru] {
                if entry.0 == vpn {
                    entry.1 = self.clock;
                    self.stats.hits += 1;
                    return true;
                }
            }
            for (idx, entry) in self.entries.iter_mut().enumerate() {
                if let Some(entry) = entry {
                    if entry.0 == vpn {
                        entry.1 = self.clock;
                        self.mru = idx;
                        self.stats.hits += 1;
                        return true;
                    }
                }
            }
            self.stats.misses += 1;
            false
        }

        fn fill(&mut self, addr: u64) {
            self.clock += 1;
            let vpn = Tlb::vpn(addr);
            if self.entries.iter().flatten().any(|&(v, _)| v == vpn) {
                return;
            }
            let slot = self
                .entries
                .iter()
                .position(Option::is_none)
                .unwrap_or_else(|| {
                    self.entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.map_or(0, |(_, t)| t))
                        .map(|(i, _)| i)
                        .unwrap()
                });
            self.entries[slot] = Some((vpn, self.clock));
        }
    }

    #[test]
    fn flat_entries_match_the_option_reference() {
        for seed in 0..6u64 {
            let mut rng = lowvcc_trace::SimRng::seed_from(seed);
            let cap = 1 + seed as usize * 3;
            let mut tlb = Tlb::new(cap);
            let mut reference = ReferenceTlb {
                entries: vec![None; cap],
                mru: 0,
                clock: 0,
                stats: TlbStats::default(),
            };
            for step in 0..4_000 {
                // More pages than slots: misses, refills and evictions.
                let addr =
                    (rng.below(3 * cap as u64 + 2) << PAGE_SHIFT) | rng.below(1u64 << PAGE_SHIFT);
                match rng.below(6) {
                    0 => {
                        tlb.reset();
                        reference.entries.fill(None);
                        reference.mru = 0;
                        reference.clock = 0;
                        reference.stats = TlbStats::default();
                    }
                    1 | 2 => {
                        tlb.fill(addr);
                        reference.fill(addr);
                    }
                    _ => {
                        let hit = tlb.access(addr);
                        assert_eq!(hit, reference.access(addr), "seed {seed} step {step}");
                        if !hit {
                            tlb.fill(addr);
                            reference.fill(addr);
                        }
                    }
                }
                assert_eq!(tlb.stats(), reference.stats, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }
}
