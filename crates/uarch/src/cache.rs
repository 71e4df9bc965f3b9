//! Set-associative cache model (IL0, DL0, UL1).
//!
//! Timing-oriented tag store: hits/misses, LRU state, fills and evictions,
//! plus per-line *disable* support used by the Faulty Bits baseline
//! (disabled lines shrink effective capacity, raising the miss rate — the
//! IPC cost the paper's Table 1 charges that technique with).
//!
//! The cache operates on 64-byte-line addresses supplied by the caller
//! (`addr >> 6`); whether a fill stalls subsequent accesses for IRAW
//! stabilization is the pipeline's business (see `lowvcc-core`).

use std::fmt;

use lowvcc_trace::SimRng;

/// Error validating a [`CacheConfig`] geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Capacity, way count or line size is zero.
    ZeroDimension,
    /// Capacity is not an exact multiple of `ways × line_bytes`.
    Indivisible,
    /// The derived set count is not a power of two.
    SetsNotPowerOfTwo {
        /// The offending set count.
        sets: usize,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroDimension => f.write_str("cache dimensions must be positive"),
            Self::Indivisible => f.write_str("capacity must divide into ways × line size"),
            Self::SetsNotPowerOfTwo { sets } => {
                write!(f, "set count {sets} must be a power of two")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Geometry of a cache (replacement is always LRU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] when any dimension is zero, the
    /// capacity is not an exact multiple of `ways × line_bytes`, or the
    /// set count is not a power of two.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.size_bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err(CacheConfigError::ZeroDimension);
        }
        if self.size_bytes % (self.ways * self.line_bytes) != 0 {
            return Err(CacheConfigError::Indivisible);
        }
        if !self.sets().is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo { sets: self.sets() });
        }
        Ok(())
    }

    /// Silverthorne IL0: 32 KB, 8-way, 64 B lines.
    #[must_use]
    pub fn silverthorne_il0() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Silverthorne DL0: 24 KB, 6-way, 64 B lines.
    #[must_use]
    pub fn silverthorne_dl0() -> Self {
        Self {
            size_bytes: 24 * 1024,
            ways: 6,
            line_bytes: 64,
        }
    }

    /// Silverthorne UL1: 512 KB, 8-way, 64 B lines.
    #[must_use]
    pub fn silverthorne_ul1() -> Self {
        Self {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }
}

/// Hit/miss/fill counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines evicted by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio (0 when no accesses yet).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Key of an invalid (empty) way.
const INVALID: u32 = u32::MAX;
/// Key of a way disabled by the fault map (never valid, never filled).
const DISABLED: u32 = u32::MAX - 1;
/// Keys at or above this are sentinels; real tags
/// (`line_addr >> log2(sets)`) never reach them.
const FIRST_SENTINEL: u32 = DISABLED;

/// The set-associative cache over the 32-bit address space. A line
/// address is a byte address `>> 6`, below 2^26, so a tag never meets
/// the sentinel keys at the top of the `u32` range.
///
/// ```
/// use lowvcc_uarch::cache::{CacheConfig, SetAssocCache};
///
/// let mut dl0 = SetAssocCache::new(CacheConfig::silverthorne_dl0())?;
/// let line = 0x1234;
/// assert!(!dl0.access(line));      // cold miss
/// dl0.fill(line);
/// assert!(dl0.access(line));       // now hits
/// assert_eq!(dl0.stats().misses, 1);
/// # Ok::<(), lowvcc_uarch::cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Per-way key, sets × ways row-major: the tag of a valid line, or
    /// [`INVALID`] / [`DISABLED`]. A lookup compares one dense `u32` per
    /// way, and validity and the fault map need no separate flags.
    keys: Vec<u32>,
    /// Per-way last-use stamp, parallel to `keys` (bigger = more recent).
    /// Only the stamps of valid ways are ever compared, and within a set
    /// they are distinct and at least 1.
    last_use: Vec<u32>,
    /// `sets - 1`: the set index is `line_addr & set_mask`…
    set_mask: u32,
    /// …and the tag `line_addr >> set_bits` (sets are a power of two).
    set_bits: u32,
    stats: CacheStats,
    /// The recency clock; `tick` re-ranks every set before it would
    /// wrap.
    clock: u32,
    disabled_lines: usize,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`] failures.
    ///
    /// # Panics
    ///
    /// Panics if the set count is 2^32 or more, beyond what a `u32` line
    /// address can index.
    pub fn new(cfg: CacheConfig) -> Result<Self, CacheConfigError> {
        cfg.validate()?;
        let sets = cfg.sets();
        Ok(Self {
            cfg,
            keys: vec![INVALID; sets * cfg.ways],
            last_use: vec![0; sets * cfg.ways],
            set_mask: u32::try_from(sets).expect("a u32 line address indexes the sets") - 1,
            set_bits: sets.trailing_zeros(),
            stats: CacheStats::default(),
            clock: 0,
            disabled_lines: 0,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Set index of a line address.
    #[inline]
    #[must_use]
    pub fn set_index(&self, line_addr: u32) -> u32 {
        line_addr & self.set_mask
    }

    #[inline]
    fn tag_of(&self, line_addr: u32) -> u32 {
        let tag = line_addr >> self.set_bits;
        debug_assert!(
            tag < FIRST_SENTINEL,
            "line {line_addr:#x} is no 64-byte line of a 32-bit address"
        );
        tag
    }

    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.cfg.ways;
        base..base + self.cfg.ways
    }

    /// Index into `keys`/`last_use` of the way holding `line_addr`, if any.
    #[inline]
    fn lookup(&self, line_addr: u32) -> Option<usize> {
        let range = self.set_range(self.set_index(line_addr) as usize);
        let base = range.start;
        let tag = self.tag_of(line_addr);
        self.keys[range]
            .iter()
            .position(|&k| k == tag)
            .map(|w| base + w)
    }

    /// Advances the recency clock and returns the new stamp. Before the
    /// clock would wrap, every set's valid stamps are rewritten as ranks
    /// `1..=ways` in the same order, and the clock restarts above them,
    /// so LRU order stays exact.
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.rerank();
        }
        self.clock += 1;
        self.clock
    }

    /// Rewrites each set's valid stamps as their ranks, in place and
    /// without allocating. Rank `r` goes to the way with the `r`-th
    /// smallest stamp `s_r`; since valid stamps are distinct and at
    /// least 1, `r <= s_r`, so a way already ranked never exceeds the
    /// threshold of the next search and is never picked again.
    #[cold]
    fn rerank(&mut self) {
        let ways = self.cfg.ways;
        for (keys, stamps) in self.keys.chunks(ways).zip(self.last_use.chunks_mut(ways)) {
            let mut threshold = 0;
            for rank in 1.. {
                let next = (0..keys.len())
                    .filter(|&w| keys[w] < FIRST_SENTINEL && stamps[w] > threshold)
                    .min_by_key(|&w| stamps[w]);
                let Some(way) = next else { break };
                threshold = stamps[way];
                stamps[way] = rank;
            }
        }
        self.clock =
            u32::try_from(self.cfg.ways).expect("a set's way count fits the recency clock");
    }

    /// Demand access; returns whether it hit, updating recency and stats.
    #[inline]
    pub fn access(&mut self, line_addr: u32) -> bool {
        let now = self.tick();
        self.stats.accesses += 1;
        match self.lookup(line_addr) {
            Some(idx) => {
                self.last_use[idx] = now;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Non-destructive lookup (no stats, no recency update).
    #[inline]
    #[must_use]
    pub fn probe(&self, line_addr: u32) -> bool {
        self.lookup(line_addr).is_some()
    }

    /// Fills a line, returning the evicted line address if a valid line
    /// was displaced. Returns `Err(())` when every way of the set is
    /// disabled (Faulty Bits can render sets uncacheable).
    #[allow(clippy::result_unit_err)]
    pub fn fill(&mut self, line_addr: u32) -> Result<Option<u32>, ()> {
        let now = self.tick();
        let set = self.set_index(line_addr);
        let tag = self.tag_of(line_addr);
        // One pass over the set: the first invalid way wins outright;
        // otherwise the first least-recently-used enabled way.
        let mut victim: Option<(usize, u32)> = None;
        for idx in self.set_range(set as usize) {
            match self.keys[idx] {
                INVALID => {
                    victim = Some((idx, 0));
                    break;
                }
                DISABLED => {}
                _ => {
                    let last_use = self.last_use[idx];
                    if victim.map_or(true, |(_, oldest)| last_use < oldest) {
                        victim = Some((idx, last_use));
                    }
                }
            }
        }
        // `None` when every way is disabled.
        let Some((idx, _)) = victim else {
            return Err(());
        };
        let old = self.keys[idx];
        let evicted = (old < FIRST_SENTINEL).then(|| (old << self.set_bits) | set);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.keys[idx] = tag;
        self.last_use[idx] = now;
        self.stats.fills += 1;
        Ok(evicted)
    }

    /// Disables `count` randomly chosen lines (Faulty Bits fault map).
    /// Disabled lines lose their contents and are never refilled.
    pub fn disable_random_lines(&mut self, count: usize, rng: &mut SimRng) {
        let total = self.keys.len();
        let mut disabled = 0;
        let mut attempts = 0;
        while disabled < count && attempts < total * 20 {
            attempts += 1;
            let idx = rng.below(total as u64) as usize;
            if self.keys[idx] != DISABLED {
                self.keys[idx] = DISABLED;
                disabled += 1;
            }
        }
        self.disabled_lines += disabled;
    }

    /// Number of disabled lines.
    #[must_use]
    pub fn disabled_lines(&self) -> usize {
        self.disabled_lines
    }

    /// Usable capacity in bytes after disabling.
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        self.cfg.size_bytes - self.disabled_lines * self.cfg.line_bytes
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Restores the freshly-constructed state in place — contents,
    /// recency, statistics, and the disable map — without
    /// reallocating the way arrays. Callers modeling faulty lines must
    /// re-apply their fault map afterwards.
    pub fn reset(&mut self) {
        self.keys.fill(INVALID);
        self.last_use.fill(0);
        self.stats = CacheStats::default();
        self.clock = 0;
        self.disabled_lines = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
        .unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(5));
        c.fill(5).unwrap();
        assert!(c.access(5));
        let s = c.stats();
        assert_eq!((s.accesses, s.hits, s.misses, s.fills), (2, 1, 1, 1));
    }

    #[test]
    fn conflicting_tags_evict_lru() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0).unwrap();
        c.fill(4).unwrap();
        assert!(c.access(0));
        assert!(c.access(4));
        // Touch 0 so 4 is LRU, then fill 8: 4 must be evicted.
        assert!(c.access(0));
        let evicted = c.fill(8).unwrap();
        assert_eq!(evicted, Some(4));
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = tiny();
        c.fill(3).unwrap();
        let before = c.stats();
        assert!(c.probe(3));
        assert!(!c.probe(7));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn silverthorne_geometries_validate() {
        for cfg in [
            CacheConfig::silverthorne_il0(),
            CacheConfig::silverthorne_dl0(),
            CacheConfig::silverthorne_ul1(),
        ] {
            cfg.validate().unwrap();
            SetAssocCache::new(cfg).unwrap();
        }
        assert_eq!(CacheConfig::silverthorne_dl0().sets(), 64);
        assert_eq!(CacheConfig::silverthorne_ul1().sets(), 1024);
    }

    #[test]
    fn bad_geometry_rejected() {
        assert!(CacheConfig {
            size_bytes: 0,
            ways: 1,
            line_bytes: 64,
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 3 * 64 * 3,
            ways: 3,
            line_bytes: 64,
        }
        .validate()
        .is_err()); // 3 sets: not a power of two
    }

    #[test]
    fn miss_ratio_reflects_working_set() {
        let mut c = tiny(); // 512 B = 8 lines
        let phase = |c: &mut SetAssocCache, lines: u32, rounds: usize| {
            let before = c.stats();
            for _ in 0..rounds {
                for line in 0..lines {
                    if !c.access(line) {
                        c.fill(line).unwrap();
                    }
                }
            }
            let after = c.stats();
            (after.misses - before.misses) as f64 / (after.accesses - before.accesses) as f64
        };
        // Working set of 4 lines: after warmup, all hits.
        phase(&mut c, 4, 1);
        assert_eq!(phase(&mut c, 4, 100), 0.0);
        // Working set of 16 lines in 8-line cache: mostly misses.
        assert!(phase(&mut c, 16, 50) > 0.5);
    }

    #[test]
    fn disabled_lines_shrink_capacity_and_raise_misses() {
        let mut healthy = tiny();
        let mut faulty = tiny();
        let mut rng = SimRng::seed_from(1);
        faulty.disable_random_lines(4, &mut rng); // half the cache
        assert_eq!(faulty.disabled_lines(), 4);
        assert_eq!(faulty.effective_capacity(), 256);

        let run = |c: &mut SetAssocCache| {
            for _ in 0..200 {
                for line in 0..6u32 {
                    if !c.access(line) {
                        let _ = c.fill(line);
                    }
                }
            }
            c.stats().miss_ratio()
        };
        let healthy_miss = run(&mut healthy);
        let faulty_miss = run(&mut faulty);
        assert!(
            faulty_miss > healthy_miss,
            "faulty {faulty_miss:.3} vs healthy {healthy_miss:.3}"
        );
    }

    #[test]
    fn fully_disabled_set_rejects_fills() {
        let mut c = tiny();
        let mut rng = SimRng::seed_from(2);
        c.disable_random_lines(8, &mut rng); // everything
        assert_eq!(c.fill(0), Err(()));
        assert!(!c.access(0));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut used = tiny();
        let mut rng = SimRng::seed_from(3);
        used.disable_random_lines(2, &mut rng);
        for line in 0..12u32 {
            if !used.access(line) {
                let _ = used.fill(line);
            }
        }
        used.reset();
        assert_eq!(used, tiny());
        assert_eq!(used.disabled_lines(), 0);
        assert_eq!(used.stats(), CacheStats::default());
    }

    /// The pre-rewrite model: per-way records, `%`/`/` indexing, a
    /// linear tag scan, the two-pass LRU victim choice, and a `u64`
    /// recency clock that never wraps.
    struct ReferenceCache {
        sets: u64,
        ways: usize,
        lines: Vec<(u64, bool, bool, u64)>, // (tag, valid, disabled, last_use)
        clock: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn new(cfg: CacheConfig, clock: u64) -> Self {
            let sets = cfg.sets();
            Self {
                sets: sets as u64,
                ways: cfg.ways,
                lines: vec![(0, false, false, 0); sets * cfg.ways],
                clock,
                stats: CacheStats::default(),
            }
        }

        fn set_of(&self, line: u64) -> std::ops::Range<usize> {
            let base = (line % self.sets) as usize * self.ways;
            base..base + self.ways
        }

        fn access(&mut self, line: u32) -> bool {
            let line = u64::from(line);
            self.clock += 1;
            self.stats.accesses += 1;
            let tag = line / self.sets;
            let range = self.set_of(line);
            for l in &mut self.lines[range] {
                if l.1 && !l.2 && l.0 == tag {
                    l.3 = self.clock;
                    self.stats.hits += 1;
                    return true;
                }
            }
            self.stats.misses += 1;
            false
        }

        fn probe(&self, line: u32) -> bool {
            let line = u64::from(line);
            let tag = line / self.sets;
            self.lines[self.set_of(line)]
                .iter()
                .any(|l| l.1 && !l.2 && l.0 == tag)
        }

        fn fill(&mut self, line: u32) -> Result<Option<u32>, ()> {
            let line = u64::from(line);
            self.clock += 1;
            let set = (line % self.sets) as usize;
            let range = self.set_of(line);
            let ways = &self.lines[range.clone()];
            let free = ways.iter().position(|l| !l.2 && !l.1);
            let enabled: Vec<usize> = (0..self.ways).filter(|&w| !ways[w].2).collect();
            let way = match free {
                Some(w) => w,
                None if enabled.is_empty() => return Err(()),
                None => *enabled.iter().min_by_key(|&&w| ways[w].3).unwrap(),
            };
            let l = &mut self.lines[range.start + way];
            let evicted = l.1.then(|| l.0 * self.sets + set as u64);
            if evicted.is_some() {
                self.stats.evictions += 1;
            }
            *l = (line / self.sets, true, l.2, self.clock);
            self.stats.fills += 1;
            Ok(evicted.map(|e| u32::try_from(e).unwrap()))
        }

        fn disable_random_lines(&mut self, count: usize, rng: &mut SimRng) {
            let total = self.lines.len();
            let (mut disabled, mut attempts) = (0, 0);
            while disabled < count && attempts < total * 20 {
                attempts += 1;
                let idx = rng.below(total as u64) as usize;
                if !self.lines[idx].2 {
                    self.lines[idx].2 = true;
                    self.lines[idx].1 = false;
                    disabled += 1;
                }
            }
        }
    }

    #[test]
    fn key_array_matches_the_linear_scan_reference() {
        // 8 sets × 4 ways, and 4 sets × 32 ways (there is no way limit).
        for (sets, ways) in [(8, 4), (4, 32)] {
            let cfg = CacheConfig {
                size_bytes: sets * ways * 64,
                ways,
                line_bytes: 64,
            };
            let lines = sets * ways;
            // Seeds 10 and up start the recency clock just below
            // `u32::MAX`, so the cache re-ranks its stamps once, with
            // full sets, part-way through the sequence; the reference
            // clock runs on past 2^32.
            for seed in 0..16u64 {
                let clock = match seed {
                    0..=9 => 0,
                    _ => u32::MAX - [3, 500, 1_000, 2_000, 3_000, 4_000][seed as usize - 10],
                };
                let mut cache = SetAssocCache::new(cfg).unwrap();
                cache.clock = clock;
                let mut reference = ReferenceCache::new(cfg, u64::from(clock));
                // Faulty Bits: from none to most of the cache, whole sets
                // included, drawn identically for both models.
                let faults = lines * [0, 3, 9, 20, 28][seed as usize % 5] / 32;
                cache.disable_random_lines(faults, &mut SimRng::seed_from(seed));
                reference.disable_random_lines(faults, &mut SimRng::seed_from(seed));
                let mut rng = SimRng::seed_from(100 + seed);
                for step in 0..5_000 {
                    let ctx = format!("{ways} ways seed {seed} step {step}");
                    let line = u32::try_from(rng.below(3 * lines as u64)).unwrap();
                    match rng.below(9) {
                        0..=4 => {
                            let hit = cache.access(line);
                            assert_eq!(hit, reference.access(line), "{ctx}");
                            if !hit {
                                assert_eq!(cache.fill(line), reference.fill(line), "{ctx}");
                            }
                        }
                        5 | 6 => assert_eq!(cache.fill(line), reference.fill(line), "{ctx}"),
                        _ => assert_eq!(cache.probe(line), reference.probe(line), "{ctx}"),
                    }
                    assert_eq!(cache.stats(), reference.stats, "{ctx}");
                }
                if clock > 0 {
                    assert!(
                        cache.clock < clock,
                        "seed {seed}: the clock never re-ranked"
                    );
                }
            }
        }
    }

    #[test]
    fn eviction_reports_correct_line_address() {
        let mut c = tiny();
        c.fill(13).unwrap(); // set 1, tag 3
                             // Fill two more lines into set 1 to force 13 out (2 ways).
        c.fill(1).unwrap();
        c.access(1);
        let evicted = c.fill(21).unwrap(); // set 1, tag 5 — evicts LRU (13)
        assert_eq!(evicted, Some(13));
    }
}
