//! Store Table (STable) — IRAW avoidance for the DL0 (paper §4.4,
//! Figure 10).
//!
//! Stores write the DL0 data array with interrupted writes, so for `N`
//! cycles the written cells are unreadable — and because every way of a
//! set is read on any access to that set, *any* load touching the set
//! could both read garbage and destroy the stabilizing cells. The STable
//! is a tiny latch-built table holding the address and data of the last
//! `stores/cycle × N` stores. Loads probe it in parallel with the DL0:
//!
//! * **no match** (common case) — nothing happens;
//! * **full address match** — the STable forwards the data; then accesses
//!   stall and the matching stores are replayed from the oldest onwards;
//! * **set-only match** — DL0 data is used, but the stabilizing line may
//!   have been destroyed, so the same stall + replay repair runs.
//!
//! Entries are replaced round-robin so the just-stabilized entry is always
//! the one overwritten; on cycles without a committing store the slot is
//! invalidated instead (paper's update rule).

/// A store tracked by the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedStore {
    /// Byte address of the store.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// DL0 set index of the store (precomputed by the cache owner).
    pub set: u64,
}

/// Outcome of a load probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StableMatch {
    /// No conflict: proceed normally (the overwhelmingly common case).
    None,
    /// The load reads recently stored data: STable forwards it, then the
    /// repair sequence replays `replay_stores` stores.
    Full {
        /// Stores to replay, from the oldest matching entry onwards.
        replay_stores: u32,
    },
    /// The load touches the same DL0 set as a stabilizing store: DL0
    /// provides the data, and the repair replays `replay_stores` stores.
    SetOnly {
        /// Stores to replay, from the oldest matching entry onwards.
        replay_stores: u32,
    },
}

impl StableMatch {
    /// Whether this outcome triggers the stall + replay repair.
    #[must_use]
    pub fn needs_repair(self) -> bool {
        !matches!(self, Self::None)
    }

    /// Stores replayed by the repair (0 when no repair).
    #[must_use]
    pub fn replay_stores(self) -> u32 {
        match self {
            Self::None => 0,
            Self::Full { replay_stores } | Self::SetOnly { replay_stores } => replay_stores,
        }
    }
}

/// Cumulative STable statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StableStats {
    /// Loads probed against the table.
    pub probes: u64,
    /// Full-address matches (store-to-load forwards + repair).
    pub full_matches: u64,
    /// Set-only matches (repair only).
    pub set_matches: u64,
    /// Total stores replayed by repairs.
    pub stores_replayed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    store: TrackedStore,
    /// Insertion order stamp for oldest-first replay.
    age: u64,
}

/// The Store Table.
///
/// ```
/// use lowvcc_uarch::stable::{StableMatch, StoreTable, TrackedStore};
///
/// let mut st = StoreTable::new(2);
/// st.reconfigure(1); // N = 1, one store per cycle
/// st.cycle_update(Some(TrackedStore { addr: 0x100, size: 8, set: 4 }));
/// // A load of the same address in the next cycle: full match.
/// let m = st.probe(0x100, 8, 4);
/// assert!(matches!(m, StableMatch::Full { .. }));
/// // A load of a different address in the same set: set-only match.
/// let m = st.probe(0x2100, 8, 4);
/// assert!(matches!(m, StableMatch::SetOnly { .. }));
/// // Any other set: no conflict.
/// assert_eq!(st.probe(0x300, 8, 5), StableMatch::None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreTable {
    slots: Vec<Option<Slot>>,
    enabled: usize,
    cursor: usize,
    next_age: u64,
    stats: StableStats,
}

impl StoreTable {
    /// Creates a table with `max_entries` physical entries (sized for the
    /// largest `N` the Vcc range may require; paper: `stores/cycle × N`).
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    #[must_use]
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries > 0, "store table needs at least one entry");
        Self {
            slots: vec![None; max_entries],
            enabled: max_entries,
            cursor: 0,
            next_age: 0,
            stats: StableStats::default(),
        }
    }

    /// Number of physical entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently enabled entries.
    #[must_use]
    pub fn enabled_entries(&self) -> usize {
        self.enabled
    }

    /// Reconfigures for a new Vcc level: only `enabled` entries are
    /// checked (as many as IRAW cycles); the rest are disabled and cleared
    /// (paper §4.4). `enabled == 0` turns the mechanism off.
    pub fn reconfigure(&mut self, enabled: usize) {
        let enabled = enabled.min(self.slots.len());
        self.enabled = enabled;
        for slot in &mut self.slots[enabled..] {
            *slot = None;
        }
        if self.cursor >= enabled.max(1) {
            self.cursor = 0;
        }
    }

    /// Per-cycle update: the round-robin slot receives the committing
    /// store, or is invalidated when no store commits this cycle.
    #[inline]
    pub fn cycle_update(&mut self, store: Option<TrackedStore>) {
        if self.enabled == 0 {
            return;
        }
        self.slots[self.cursor] = store.map(|s| {
            self.next_age += 1;
            Slot {
                store: s,
                age: self.next_age,
            }
        });
        self.cursor = self.next_slot(self.cursor);
    }

    /// Advances `cycles` store-less cycles at once — equivalent to that
    /// many [`StoreTable::cycle_update`]`(None)` calls, but O(entries):
    /// the round-robin cursor sweeps forward invalidating the slots it
    /// passes (all of them once `cycles` covers a full lap). Used by the
    /// engine's cycle-skipping fast path, which only skips cycles in which
    /// no store can commit.
    #[inline]
    pub fn advance_idle(&mut self, cycles: u64) {
        if self.enabled == 0 || cycles == 0 {
            return;
        }
        let n = self.enabled as u64;
        if cycles >= n {
            for slot in &mut self.slots[..self.enabled] {
                *slot = None;
            }
        } else {
            for _ in 0..cycles {
                self.slots[self.cursor] = None;
                self.cursor = self.next_slot(self.cursor);
            }
            return;
        }
        self.cursor = ((self.cursor as u64 + cycles) % n) as usize;
    }

    /// The round-robin successor of `slot` among the enabled entries
    /// (a compare, not a division: this runs every simulated cycle).
    #[inline]
    fn next_slot(&self, slot: usize) -> usize {
        if slot + 1 == self.enabled {
            0
        } else {
            slot + 1
        }
    }

    /// Probes a load against the enabled entries.
    #[inline]
    pub fn probe(&mut self, addr: u64, size: u8, set: u64) -> StableMatch {
        self.stats.probes += 1;
        if self.enabled == 0 {
            return StableMatch::None;
        }
        let mut oldest_match_age: Option<u64> = None;
        let mut full = false;
        for slot in self.slots[..self.enabled].iter().flatten() {
            let s = slot.store;
            let overlap = addr < s.addr + u64::from(s.size) && s.addr < addr + u64::from(size);
            let set_match = s.set == set;
            if overlap || set_match {
                oldest_match_age = Some(match oldest_match_age {
                    Some(a) => a.min(slot.age),
                    None => slot.age,
                });
            }
            full |= overlap;
        }
        let Some(oldest) = oldest_match_age else {
            return StableMatch::None;
        };
        // Replay from the oldest matching entry onwards: every valid entry
        // at least as young as it.
        let replay_stores = self.slots[..self.enabled]
            .iter()
            .flatten()
            .filter(|slot| slot.age >= oldest)
            .count() as u32;
        self.stats.stores_replayed += u64::from(replay_stores);
        if full {
            self.stats.full_matches += 1;
            StableMatch::Full { replay_stores }
        } else {
            self.stats.set_matches += 1;
            StableMatch::SetOnly { replay_stores }
        }
    }

    /// Clears all entries (pipeline flush / repair completion).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.cursor = 0;
    }

    /// Restores the freshly-constructed state in place: entries, cursor,
    /// age stamps and statistics (unlike [`StoreTable::clear`], which
    /// keeps ages and stats). All physical entries re-enable; call
    /// [`StoreTable::reconfigure`] afterwards for the target Vcc.
    pub fn reset(&mut self) {
        self.clear();
        self.enabled = self.slots.len();
        self.next_age = 0;
        self.stats = StableStats::default();
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> StableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(addr: u64, set: u64) -> TrackedStore {
        TrackedStore { addr, size: 8, set }
    }

    #[test]
    fn no_match_is_the_common_case() {
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 3)));
        assert_eq!(st.probe(0x2000, 8, 7), StableMatch::None);
        assert_eq!(st.stats().probes, 1);
        assert_eq!(st.stats().full_matches, 0);
    }

    #[test]
    fn full_match_on_overlap() {
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 3)));
        // Exact, partial-low and partial-high overlaps all count.
        assert!(st.probe(0x1000, 8, 3).needs_repair());
        assert!(matches!(st.probe(0x1004, 4, 3), StableMatch::Full { .. }));
        assert!(matches!(st.probe(0x0FFC, 8, 3), StableMatch::Full { .. }));
        // Adjacent but non-overlapping in the same set: set-only.
        assert!(matches!(
            st.probe(0x1008, 4, 3),
            StableMatch::SetOnly { .. }
        ));
    }

    #[test]
    fn set_only_match_catches_way_destruction() {
        // The paper's subtle case: a load of a *different* address in the
        // same set can destroy a stabilizing line because all ways are
        // read simultaneously.
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 5)));
        let m = st.probe(0x9000, 8, 5);
        assert!(matches!(m, StableMatch::SetOnly { replay_stores: 1 }));
        assert_eq!(st.stats().set_matches, 1);
    }

    #[test]
    fn replay_counts_from_oldest_match() {
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 5))); // older
        st.cycle_update(Some(store(0x2000, 9))); // younger
                                                 // Match the older entry: both must replay (oldest onwards).
        let m = st.probe(0x1000, 8, 5);
        assert_eq!(m.replay_stores(), 2);
        // Match only the younger: one replay.
        let m = st.probe(0x2000, 8, 9);
        assert_eq!(m.replay_stores(), 1);
        assert_eq!(st.stats().stores_replayed, 3);
    }

    #[test]
    fn round_robin_replaces_stabilized_entries() {
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 1)));
        st.cycle_update(Some(store(0x2000, 2)));
        // Third store overwrites the slot of the first (just stabilized).
        st.cycle_update(Some(store(0x3000, 3)));
        assert_eq!(st.probe(0x1000, 8, 1), StableMatch::None);
        assert!(st.probe(0x2000, 8, 2).needs_repair());
        assert!(st.probe(0x3000, 8, 3).needs_repair());
    }

    #[test]
    fn idle_cycles_invalidate_slots() {
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 1)));
        st.cycle_update(None);
        st.cycle_update(None); // wraps around, invalidating the store's slot
        assert_eq!(st.probe(0x1000, 8, 1), StableMatch::None);
    }

    #[test]
    fn advance_idle_matches_repeated_none_updates() {
        for idle in [0u64, 1, 2, 3, 7, 100] {
            let mut looped = StoreTable::new(2);
            let mut jumped = StoreTable::new(2);
            for st in [&mut looped, &mut jumped] {
                st.cycle_update(Some(store(0x1000, 1)));
            }
            for _ in 0..idle {
                looped.cycle_update(None);
            }
            jumped.advance_idle(idle);
            assert_eq!(looped, jumped, "idle {idle}");
            // And the next committing store lands in the same slot.
            looped.cycle_update(Some(store(0x2000, 2)));
            jumped.cycle_update(Some(store(0x2000, 2)));
            assert_eq!(looped, jumped, "idle {idle} + store");
        }
    }

    #[test]
    fn advance_idle_noop_when_disabled() {
        let mut st = StoreTable::new(2);
        st.reconfigure(0);
        st.advance_idle(10);
        assert_eq!(st.enabled_entries(), 0);
    }

    #[test]
    fn reconfigure_shrinks_and_disables() {
        let mut st = StoreTable::new(4);
        st.reconfigure(2);
        assert_eq!(st.enabled_entries(), 2);
        st.cycle_update(Some(store(0x1000, 1)));
        assert!(st.probe(0x1000, 8, 1).needs_repair());
        // Turning the mechanism off stops both tracking and matching.
        st.reconfigure(0);
        st.cycle_update(Some(store(0x2000, 2)));
        assert_eq!(st.probe(0x2000, 8, 2), StableMatch::None);
        // Re-enable beyond capacity clamps.
        st.reconfigure(99);
        assert_eq!(st.enabled_entries(), 4);
    }

    #[test]
    fn clear_removes_everything() {
        let mut st = StoreTable::new(2);
        st.cycle_update(Some(store(0x1000, 1)));
        st.clear();
        assert_eq!(st.probe(0x1000, 8, 1), StableMatch::None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = StoreTable::new(0);
    }
}
