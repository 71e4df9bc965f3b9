//! Cache replacement policies.

use lowvcc_trace::SimRng;

/// What the victim selector is allowed to see about one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayView {
    /// Whether the way holds a valid line.
    pub valid: bool,
    /// Whether the way is disabled (Faulty Bits mapped it out).
    pub disabled: bool,
    /// Last-use stamp (bigger = more recent).
    pub last_use: u64,
}

/// Replacement policy of a set-associative structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Evict the least-recently-used way.
    Lru,
    /// Rotate through the ways.
    RoundRobin,
    /// Pseudo-random way selection.
    Random,
}

/// Per-cache mutable state a policy needs (round-robin cursors, RNG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyState {
    policy: Policy,
    cursors: Vec<usize>,
    rng: SimRng,
    seed: u64,
}

impl PolicyState {
    /// Creates state for `sets` sets under `policy`.
    #[must_use]
    pub fn new(policy: Policy, sets: usize, seed: u64) -> Self {
        Self {
            policy,
            cursors: vec![0; sets],
            rng: SimRng::seed_from(seed),
            seed,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Restores the freshly-constructed state in place: cursors rewound,
    /// RNG reseeded from the construction seed. No allocation.
    pub fn reset(&mut self) {
        self.cursors.fill(0);
        self.rng = SimRng::seed_from(self.seed);
    }

    /// Picks the victim way for a fill into `set`.
    ///
    /// Invalid enabled ways are always preferred; among valid ways the
    /// policy decides. Returns `None` when every way is disabled.
    ///
    /// Allocation-free: candidate enumeration walks `ways` directly
    /// (fills run every cycle in miss-heavy phases, so this sits on the
    /// simulator's steady-state hot path).
    #[inline]
    pub fn select_victim(&mut self, set: usize, ways: &[WayView]) -> Option<usize> {
        // One pass: the first free enabled way wins outright; otherwise
        // count the enabled (hence valid) ways and track the first
        // least-recently-used one (min_by_key semantics).
        let mut enabled = 0;
        let mut lru: Option<(usize, u64)> = None;
        for (i, w) in ways.iter().enumerate() {
            if w.disabled {
                continue;
            }
            if !w.valid {
                return Some(i);
            }
            enabled += 1;
            if lru.map_or(true, |(_, best)| w.last_use < best) {
                lru = Some((i, w.last_use));
            }
        }
        // `None` when every way is disabled.
        let (lru_way, _) = lru?;
        // The k-th enabled way, in way order — the same indexing the old
        // materialized candidate list gave.
        let nth_enabled = |k: usize| -> usize {
            ways.iter()
                .enumerate()
                .filter(|(_, w)| !w.disabled)
                .nth(k)
                .map(|(i, _)| i)
                .expect("k < enabled count")
        };
        let pick = match self.policy {
            Policy::Lru => lru_way,
            Policy::RoundRobin => {
                let cursor = &mut self.cursors[set];
                let pick = nth_enabled(*cursor % enabled);
                *cursor = (*cursor + 1) % enabled;
                pick
            }
            Policy::Random => nth_enabled(self.rng.below(enabled as u64) as usize),
        };
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn way(valid: bool, disabled: bool, last_use: u64) -> WayView {
        WayView {
            valid,
            disabled,
            last_use,
        }
    }

    #[test]
    fn invalid_way_preferred_by_all_policies() {
        for policy in [Policy::Lru, Policy::RoundRobin, Policy::Random] {
            let mut st = PolicyState::new(policy, 1, 0);
            let ways = [
                way(true, false, 10),
                way(false, false, 0),
                way(true, false, 5),
            ];
            assert_eq!(st.select_victim(0, &ways), Some(1), "{policy:?}");
        }
    }

    #[test]
    fn lru_picks_least_recent() {
        let mut st = PolicyState::new(Policy::Lru, 1, 0);
        let ways = [
            way(true, false, 30),
            way(true, false, 10),
            way(true, false, 20),
        ];
        assert_eq!(st.select_victim(0, &ways), Some(1));
    }

    #[test]
    fn disabled_ways_never_chosen() {
        let mut st = PolicyState::new(Policy::Lru, 1, 0);
        let ways = [way(true, true, 0), way(true, false, 99)];
        assert_eq!(st.select_victim(0, &ways), Some(1));
        let all_disabled = [way(true, true, 0), way(false, true, 0)];
        assert_eq!(st.select_victim(0, &all_disabled), None);
    }

    #[test]
    fn round_robin_rotates_per_set() {
        let mut st = PolicyState::new(Policy::RoundRobin, 2, 0);
        let ways = [
            way(true, false, 0),
            way(true, false, 0),
            way(true, false, 0),
        ];
        let picks: Vec<_> = (0..4)
            .map(|_| st.select_victim(0, &ways).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0]);
        // Set 1 has an independent cursor.
        assert_eq!(st.select_victim(1, &ways), Some(0));
    }

    /// The pre-rewrite selector, kept verbatim as the behavioral oracle
    /// for the allocation-free version.
    fn reference_select(
        policy: Policy,
        cursor: &mut usize,
        rng: &mut SimRng,
        ways: &[WayView],
    ) -> Option<usize> {
        if let Some(idx) = ways.iter().position(|w| !w.disabled && !w.valid) {
            return Some(idx);
        }
        let candidates: Vec<usize> = ways
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.disabled)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(match policy {
            Policy::Lru => candidates
                .iter()
                .copied()
                .min_by_key(|&i| ways[i].last_use)
                .unwrap(),
            Policy::RoundRobin => {
                let pick = candidates[*cursor % candidates.len()];
                *cursor = (*cursor + 1) % candidates.len();
                pick
            }
            Policy::Random => candidates[rng.below(candidates.len() as u64) as usize],
        })
    }

    #[test]
    fn allocation_free_selector_matches_reference() {
        for policy in [Policy::Lru, Policy::RoundRobin, Policy::Random] {
            let mut st = PolicyState::new(policy, 1, 42);
            let mut ref_cursor = 0usize;
            let mut ref_rng = SimRng::seed_from(42);
            let mut pattern_rng = SimRng::seed_from(7);
            for round in 0..500 {
                let ways: Vec<WayView> = (0..8)
                    .map(|_| WayView {
                        valid: pattern_rng.below(4) != 0,
                        disabled: pattern_rng.below(5) == 0,
                        last_use: pattern_rng.below(64),
                    })
                    .collect();
                assert_eq!(
                    st.select_victim(0, &ways),
                    reference_select(policy, &mut ref_cursor, &mut ref_rng, &ways),
                    "{policy:?} diverged at round {round}"
                );
            }
        }
    }

    #[test]
    fn reset_rewinds_cursors_and_rng() {
        let ways = [
            way(true, false, 0),
            way(true, false, 0),
            way(true, false, 0),
        ];
        for policy in [Policy::RoundRobin, Policy::Random] {
            let mut st = PolicyState::new(policy, 2, 9);
            let first: Vec<_> = (0..6).map(|_| st.select_victim(0, &ways)).collect();
            st.reset();
            let second: Vec<_> = (0..6).map(|_| st.select_victim(0, &ways)).collect();
            assert_eq!(first, second, "{policy:?}");
            st.reset();
            assert_eq!(st, PolicyState::new(policy, 2, 9));
        }
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let ways = [
            way(true, false, 0),
            way(true, false, 0),
            way(true, false, 0),
        ];
        let mut a = PolicyState::new(Policy::Random, 1, 42);
        let mut b = PolicyState::new(Policy::Random, 1, 42);
        for _ in 0..20 {
            let va = a.select_victim(0, &ways).unwrap();
            assert_eq!(Some(va), b.select_victim(0, &ways));
            assert!(va < 3);
        }
    }
}
