//! The memory hierarchy: IL0/DL0/UL1, TLBs, fill and eviction buffers,
//! and the post-fill IRAW stall guards (paper §4.3).
//!
//! Timing discipline: cache/TLB *state* updates eagerly (standard
//! trace-driven practice), while *availability* is expressed as
//! ready-at cycles. Every fill arms the owning block's [`StallGuard`] at
//! the fill-completion cycle, so accesses landing in the next `N` cycles
//! are pushed out — those pushed cycles are the paper's "remaining
//! blocks" stall bucket (0.04% at 575 mV).

use lowvcc_trace::SimRng;
use lowvcc_uarch::buffers::{StallGuard, TimedBuffer};
use lowvcc_uarch::cache::SetAssocCache;
use lowvcc_uarch::tlb::Tlb;

use crate::config::CycleConfig;
use crate::error::ConfigError;
use crate::pipeline::addr32;

/// Outcome of a data-side access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOutcome {
    /// Cycle at which the data is available to consumers (loads) or the
    /// write is underway (stores).
    pub ready_at: u64,
    /// Whether the DL0 hit.
    pub dl0_hit: bool,
    /// Whether a page walk was needed.
    pub dtlb_walked: bool,
}

/// The full memory hierarchy of the core.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    il0: SetAssocCache,
    dl0: SetAssocCache,
    ul1: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    fb: TimedBuffer,
    wcb: TimedBuffer,
    il0_guard: StallGuard,
    dl0_guard: StallGuard,
    ul1_guard: StallGuard,
    itlb_guard: StallGuard,
    dtlb_guard: StallGuard,
    wcb_guard: StallGuard,
    lat_ul1: u64,
    lat_dl0: u64,
    page_walk: u64,
    mem_latency: u64,
    memory_accesses: u64,
    other_fill_stall_cycles: u64,
}

impl MemHierarchy {
    /// Builds the hierarchy from a run configuration (applying any
    /// Faulty Bits disabled lines).
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry validation failures.
    pub fn new(cfg: &CycleConfig) -> Result<Self, ConfigError> {
        let cache = |which| move |source| ConfigError::Cache { which, source };
        let mut il0 = SetAssocCache::new(cfg.core.il0).map_err(cache("IL0"))?;
        let mut dl0 = SetAssocCache::new(cfg.core.dl0).map_err(cache("DL0"))?;
        let mut ul1 = SetAssocCache::new(cfg.core.ul1).map_err(cache("UL1"))?;
        let (dis_il0, dis_dl0, dis_ul1) = cfg.disabled_lines;
        if dis_il0 + dis_dl0 + dis_ul1 > 0 {
            let mut rng = SimRng::seed_from(cfg.fault_seed);
            il0.disable_random_lines(dis_il0, &mut rng);
            dl0.disable_random_lines(dis_dl0, &mut rng);
            ul1.disable_random_lines(dis_ul1, &mut rng);
        }
        let n = cfg.stabilization_cycles;
        Ok(Self {
            il0,
            dl0,
            ul1,
            itlb: Tlb::new(cfg.core.itlb_entries),
            dtlb: Tlb::new(cfg.core.dtlb_entries),
            fb: TimedBuffer::new(cfg.core.fb_entries),
            wcb: TimedBuffer::new(cfg.core.wcb_entries),
            il0_guard: StallGuard::new(n),
            dl0_guard: StallGuard::new(n),
            ul1_guard: StallGuard::new(n),
            itlb_guard: StallGuard::new(n),
            dtlb_guard: StallGuard::new(n),
            wcb_guard: StallGuard::new(n),
            lat_ul1: u64::from(cfg.core.lat_ul1),
            lat_dl0: u64::from(cfg.core.lat_dl0_hit),
            page_walk: u64::from(cfg.core.page_walk_cycles),
            mem_latency: cfg.memory_latency_cycles,
            memory_accesses: 0,
            other_fill_stall_cycles: 0,
        })
    }

    /// Restores the freshly-constructed state in place for `cfg` — the
    /// exact state [`MemHierarchy::new`] would build, including the
    /// re-applied fault map and every cfg-derived latency — without
    /// reallocating the cache, TLB or buffer storage. The caller must
    /// keep the cache geometry (`cfg.core`) unchanged; batch reuse falls
    /// back to a fresh construction otherwise.
    pub fn reset(&mut self, cfg: &CycleConfig) {
        self.il0.reset();
        self.dl0.reset();
        self.ul1.reset();
        let (dis_il0, dis_dl0, dis_ul1) = cfg.disabled_lines;
        if dis_il0 + dis_dl0 + dis_ul1 > 0 {
            // Same draw order as `new`: il0 → dl0 → ul1 from one stream.
            let mut rng = SimRng::seed_from(cfg.fault_seed);
            self.il0.disable_random_lines(dis_il0, &mut rng);
            self.dl0.disable_random_lines(dis_dl0, &mut rng);
            self.ul1.disable_random_lines(dis_ul1, &mut rng);
        }
        self.itlb.reset();
        self.dtlb.reset();
        self.fb.reset();
        self.wcb.reset();
        let n = cfg.stabilization_cycles;
        self.il0_guard = StallGuard::new(n);
        self.dl0_guard = StallGuard::new(n);
        self.ul1_guard = StallGuard::new(n);
        self.itlb_guard = StallGuard::new(n);
        self.dtlb_guard = StallGuard::new(n);
        self.wcb_guard = StallGuard::new(n);
        self.lat_ul1 = u64::from(cfg.core.lat_ul1);
        self.lat_dl0 = u64::from(cfg.core.lat_dl0_hit);
        self.page_walk = u64::from(cfg.core.page_walk_cycles);
        self.mem_latency = cfg.memory_latency_cycles;
        self.memory_accesses = 0;
        self.other_fill_stall_cycles = 0;
    }

    /// DL0 set index of a byte address (for the Store Table).
    #[inline]
    #[must_use]
    pub fn dl0_set_of(&self, addr: u64) -> u64 {
        u64::from(self.dl0.set_index(line_of(addr)))
    }

    /// Whether the DL0 port is blocked at `cycle` by a post-fill guard.
    #[inline]
    #[must_use]
    pub fn dl0_blocked(&self, cycle: u64) -> bool {
        self.dl0_guard.is_stalled(cycle)
    }

    /// First cycle after `now` at which [`MemHierarchy::dl0_blocked`]
    /// changes value absent new fills (the guard window opening or
    /// closing); `None` when settled. Fast-path wake-up bound.
    #[inline]
    #[must_use]
    pub fn dl0_next_change(&self, now: u64) -> Option<u64> {
        self.dl0_guard.next_change(now)
    }

    /// Frees completed fill-buffer and WCB entries. One compare on the
    /// common cycle in which neither buffer has anything due.
    #[inline]
    pub fn tick(&mut self, now: u64) {
        if self.fb.next_ready().min(self.wcb.next_ready()) <= now {
            self.fb.expire(now);
            self.wcb.expire(now);
        }
    }

    /// Delays `start` past a guard, charging the pushed cycles to the
    /// "other blocks" stall bucket.
    #[inline]
    fn guarded_start(&mut self, guard: Guard, start: u64) -> u64 {
        let g = match guard {
            Guard::Il0 => &self.il0_guard,
            Guard::Ul1 => &self.ul1_guard,
            Guard::Itlb => &self.itlb_guard,
            Guard::Dtlb => &self.dtlb_guard,
            Guard::Wcb => &self.wcb_guard,
        };
        if g.is_stalled(start) {
            let free = g.free_at();
            self.other_fill_stall_cycles += free - start;
            free
        } else {
            start
        }
    }

    /// Requests `line` from the UL1 (and memory beyond), returning its
    /// arrival cycle at the requesting L0. Fills UL1 on miss and arms the
    /// UL1 guard.
    fn ul1_request(&mut self, line: u32, now: u64) -> u64 {
        let start = self.guarded_start(Guard::Ul1, now);
        if self.ul1.access(line) {
            return start + self.lat_ul1;
        }
        // Miss: off-chip access, then fill (evictions drain via WCB).
        self.memory_accesses += 1;
        let arrival = start + self.lat_ul1 + self.mem_latency;
        if let Ok(evicted) = self.ul1.fill(line) {
            self.ul1_guard.on_fill(arrival);
            if let Some(victim) = evicted {
                self.spill_to_wcb(u64::from(victim), arrival);
            }
        }
        arrival
    }

    /// Sends an evicted line through the WCB/EB (arming its guard — the
    /// WCB is itself an IRAW-protected SRAM block, so back-to-back
    /// evictions are spaced out by `N` cycles).
    fn spill_to_wcb(&mut self, line: u64, now: u64) {
        let start = self.guarded_start(Guard::Wcb, now);
        let drain_at = start + self.lat_ul1;
        if self.wcb.allocate(line, drain_at).is_ok() {
            self.wcb_guard.on_fill(start);
        }
        // A full WCB drops the entry from the timing model: the write-back
        // itself has no consumer to delay in a trace-driven run.
    }

    /// Allocates a fill-buffer slot for `line`, merging secondary misses.
    /// Returns the cycle at which the FB can accept it (may be pushed by
    /// a full buffer) — FB full events are real pipeline stalls.
    fn fb_admit(&mut self, line: u64, now: u64) -> u64 {
        if self.fb.contains(line) || !self.fb.is_full() {
            return now;
        }
        wait_for_free_slot(&mut self.fb, now)
    }

    /// Instruction fetch of the line holding `pc`. Returns the cycle at
    /// which the fetch group is available.
    pub fn ifetch(&mut self, pc: u64, now: u64) -> u64 {
        let mut start = self.guarded_start(Guard::Itlb, now);
        if !self.itlb.access(pc) {
            start += self.page_walk;
            self.itlb.fill(pc);
            self.itlb_guard.on_fill(start);
        }
        start = self.guarded_start(Guard::Il0, start);
        let line = line_of(pc);
        let fb_line = u64::from(line);
        let ready = if self.il0.access(line) {
            // Tag hit — but the line may still be in flight (prefetched or
            // a merged miss): the FB gates availability.
            match self.fb.ready_at(fb_line) {
                Some(t) => t.max(start),
                None => start,
            }
        } else {
            let start = self.fb_admit(fb_line, start);
            let arrival = self.ul1_request(line, start);
            let _ = self.fb.allocate(fb_line, arrival);
            if self.il0.fill(line).is_ok() {
                self.il0_guard.on_fill(arrival);
            }
            arrival
        };
        // Next-line instruction prefetch (background; no stall).
        let next = line + 1;
        if !self.il0.probe(next) && !self.fb.contains(fb_line + 1) && !self.fb.is_full() {
            let arrival = self.ul1_request(next, ready);
            let _ = self.fb.allocate(fb_line + 1, arrival);
            if self.il0.fill(next).is_ok() {
                self.il0_guard.on_fill(arrival);
            }
        }
        ready
    }

    /// Data access (load or store) to `addr`.
    pub fn data_access(&mut self, addr: u64, is_store: bool, now: u64) -> DataOutcome {
        let mut start = self.guarded_start(Guard::Dtlb, now);
        let mut walked = false;
        if !self.dtlb.access(addr) {
            walked = true;
            start += self.page_walk;
            self.dtlb.fill(addr);
            self.dtlb_guard.on_fill(start);
        }
        let line = line_of(addr);
        let fb_line = u64::from(line);
        if self.dl0.access(line) {
            // Tag hit; a line still in flight in the FB gates readiness.
            let base_ready = start + self.lat_dl0;
            let ready_at = match self.fb.ready_at(fb_line) {
                Some(t) => base_ready.max(t + 1),
                None => base_ready,
            };
            return DataOutcome {
                ready_at,
                dl0_hit: true,
                dtlb_walked: walked,
            };
        }
        // Miss (write-allocate for stores too): fetch the line.
        let start = self.fb_admit(fb_line, start);
        let pending = self.fb.ready_at(fb_line);
        let arrival = match pending {
            Some(t) => t.max(start),
            None => self.ul1_request(line, start),
        };
        let _ = self.fb.allocate(fb_line, arrival);
        if pending.is_none() {
            if let Ok(evicted) = self.dl0.fill(line) {
                self.dl0_guard.on_fill(arrival);
                if let Some(victim) = evicted {
                    self.spill_to_wcb(u64::from(victim), arrival);
                }
            }
        }
        DataOutcome {
            ready_at: if is_store { arrival } else { arrival + 1 },
            dl0_hit: false,
            dtlb_walked: walked,
        }
    }

    /// Off-chip accesses performed.
    #[must_use]
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Cycles by which non-DL0 guards pushed accesses out.
    #[must_use]
    pub fn other_fill_stall_cycles(&self) -> u64 {
        self.other_fill_stall_cycles
    }

    /// IL0 statistics.
    #[must_use]
    pub fn il0_stats(&self) -> lowvcc_uarch::cache::CacheStats {
        self.il0.stats()
    }

    /// DL0 statistics.
    #[must_use]
    pub fn dl0_stats(&self) -> lowvcc_uarch::cache::CacheStats {
        self.dl0.stats()
    }

    /// UL1 statistics.
    #[must_use]
    pub fn ul1_stats(&self) -> lowvcc_uarch::cache::CacheStats {
        self.ul1.stats()
    }

    /// ITLB statistics.
    #[must_use]
    pub fn itlb_stats(&self) -> lowvcc_uarch::tlb::TlbStats {
        self.itlb.stats()
    }

    /// DTLB statistics.
    #[must_use]
    pub fn dtlb_stats(&self) -> lowvcc_uarch::tlb::TlbStats {
        self.dtlb.stats()
    }
}

/// The 64-byte line holding `addr`, below 2^26: a cache tag never
/// reaches the sentinel keys at the top of the `u32` range.
#[inline]
fn line_of(addr: u64) -> u32 {
    addr32(addr) >> 6
}

/// Longest a fill-buffer admission waits for a free slot, in cycles.
const FB_WAIT_CAP: u64 = 63;

/// The cycle at which a full fill buffer can next admit a line, expiring
/// what has completed by then. The earliest in-flight fill frees its
/// slot the cycle after it lands, never before `now + 1`, and the wait
/// is capped at [`FB_WAIT_CAP`]. Equal, side effects included, to polling
/// `expire` one cycle at a time from `now`: expiry is monotone in time,
/// so one call at the last polled cycle frees the same slots.
fn wait_for_free_slot(fb: &mut TimedBuffer, now: u64) -> u64 {
    let t = fb
        .next_ready()
        .saturating_add(1)
        .clamp(now + 1, now + FB_WAIT_CAP);
    fb.expire(t - 1);
    if fb.is_full() {
        // Nothing lands before the cap: the poll's last step.
        fb.expire(t);
    }
    t
}

#[derive(Debug, Clone, Copy)]
enum Guard {
    Il0,
    Ul1,
    Itlb,
    Dtlb,
    Wcb,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, Mechanism, SimConfig};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::SimRng;

    fn mem(mechanism: Mechanism, vcc: u32) -> MemHierarchy {
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &CycleTimeModel::silverthorne_45nm(),
            mv(vcc),
            mechanism,
        );
        MemHierarchy::new(&cfg.cycle_config()).unwrap()
    }

    #[test]
    fn ifetch_hit_after_cold_miss() {
        let mut m = mem(Mechanism::Iraw, 500);
        let t0 = m.ifetch(0x40_0000, 0);
        assert!(t0 > 0, "cold miss takes time");
        // Re-fetching the same line later hits instantly (after the
        // post-fill guard expires).
        let later = t0 + 10;
        let t1 = m.ifetch(0x40_0004, later);
        assert_eq!(t1, later);
        assert_eq!(m.il0_stats().misses, 1);
        assert_eq!(m.il0_stats().hits, 1);
    }

    #[test]
    fn il0_post_fill_guard_delays_next_fetch() {
        let mut m = mem(Mechanism::Iraw, 500);
        let arrival = m.ifetch(0x40_0000, 0);
        // A different line in the same page (skipping the prefetched
        // next line), fetched exactly at the fill-completion cycle, is
        // pushed out by the guard (N = 1 at 500 mV).
        let t = m.ifetch(0x40_0080, arrival);
        assert!(t > arrival, "guard must delay the access");
        assert!(m.other_fill_stall_cycles() > 0);
    }

    #[test]
    fn no_guard_delays_when_iraw_off() {
        let mut m = mem(Mechanism::Baseline, 500);
        let arrival = m.ifetch(0x40_0000, 0);
        let before = m.other_fill_stall_cycles();
        // Immediately access another line: both accesses may proceed —
        // baseline writes complete within the (longer) cycle.
        let _ = m.ifetch(0x55_0000, arrival);
        assert_eq!(m.other_fill_stall_cycles(), before);
    }

    #[test]
    fn load_hit_takes_dl0_latency() {
        let mut m = mem(Mechanism::Iraw, 500);
        let miss = m.data_access(0x8000, false, 0);
        assert!(!miss.dl0_hit);
        let after = miss.ready_at + 10;
        let hit = m.data_access(0x8008, false, after);
        assert!(hit.dl0_hit);
        assert_eq!(hit.ready_at, after + 3);
    }

    #[test]
    fn dtlb_walk_charged_once_per_page() {
        let mut m = mem(Mechanism::Iraw, 500);
        let first = m.data_access(0x10_0000, false, 0);
        assert!(first.dtlb_walked);
        let again = m.data_access(0x10_0040, false, first.ready_at + 5);
        assert!(!again.dtlb_walked);
        assert_eq!(m.dtlb_stats().misses, 1);
    }

    #[test]
    fn memory_cycles_depend_on_clock() {
        // Same Vcc, different limiters: the faster IRAW clock sees more
        // cycles of constant-time DRAM latency.
        let mut fast = mem(Mechanism::Iraw, 500);
        let mut slow = mem(Mechanism::Baseline, 500);
        let tf = fast.data_access(0x9000, false, 0).ready_at;
        let ts = slow.data_access(0x9000, false, 0).ready_at;
        assert!(
            tf > ts,
            "IRAW clock: {tf} cycles vs baseline {ts} — constant-time memory"
        );
        assert_eq!(fast.memory_accesses(), 1);
    }

    #[test]
    fn secondary_miss_merges_in_fill_buffer() {
        let mut m = mem(Mechanism::Iraw, 500);
        let a = m.data_access(0xA000, false, 0);
        let b = m.data_access(0xA008, false, 1); // same line, in flight
        assert!(!a.dl0_hit);
        // The second access sees the (eagerly installed) tag, but its data
        // readiness is gated by the in-flight fill — merged, not
        // serialized, and crucially not an instant phantom hit.
        assert!(b.ready_at >= a.ready_at - 1, "no phantom early hit");
        assert!(b.ready_at <= a.ready_at + 4, "merged, not serialized");
        assert_eq!(m.memory_accesses(), 1, "one off-chip fetch");
    }

    #[test]
    fn faulty_bits_disable_lines() {
        let mut cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &CycleTimeModel::silverthorne_45nm(),
            mv(500),
            Mechanism::Baseline,
        );
        cfg.disabled_lines = (10, 10, 100);
        cfg.fault_seed = 7;
        let m = MemHierarchy::new(&cfg.cycle_config()).unwrap();
        assert_eq!(m.il0_stats().accesses, 0);
        // Capacity shrank.
        assert!(m.dl0_stats().accesses == 0);
    }

    /// The closed-form wait against the 64-step poll it replaced, over
    /// full buffers whose completions land before, inside and beyond the
    /// cap.
    #[test]
    fn full_buffer_wait_matches_cycle_by_cycle_polling() {
        fn poll(fb: &mut TimedBuffer, now: u64) -> u64 {
            let mut earliest = u64::MAX;
            for probe in 0..=FB_WAIT_CAP {
                let t = now + probe;
                if !fb.is_full() {
                    return t;
                }
                fb.expire(t);
                earliest = t;
            }
            earliest
        }
        let mut rng = SimRng::seed_from(9);
        for case in 0..2_000u64 {
            let now = 1_000 + rng.below(50);
            let mut fb = TimedBuffer::new(1 + case as usize % 8);
            let mut line = 0;
            while !fb.is_full() {
                // Completions from already due to well past the cap.
                fb.allocate(line, now - 5 + rng.below(80)).unwrap();
                line += 1;
            }
            let mut polled = fb.clone();
            assert_eq!(
                wait_for_free_slot(&mut fb, now),
                poll(&mut polled, now),
                "case {case}"
            );
            assert_eq!(fb, polled, "case {case}: buffer state");
        }
    }

    #[test]
    fn stores_allocate_on_miss() {
        let mut m = mem(Mechanism::Iraw, 500);
        let w = m.data_access(0xB000, true, 0);
        assert!(!w.dl0_hit);
        let r = m.data_access(0xB000, false, w.ready_at + 5);
        assert!(r.dl0_hit, "write-allocate brings the line in");
    }
}
