//! Property-based tests over the core data structures and models.
//!
//! The properties are checked over many pseudo-random cases drawn from the
//! workspace's own deterministic [`SimRng`] (the container image has no
//! crates.io access, so `proptest` is substituted with a seeded case loop —
//! same properties, reproducible failures).

use lowvcc_sram::voltage::mv;
use lowvcc_sram::{Bitcell8T, CycleTimeModel, TimingLimiter};
use lowvcc_trace::{Reg, SimRng, TraceSpec, WorkloadFamily};
use lowvcc_uarch::cache::{CacheConfig, SetAssocCache};
use lowvcc_uarch::scoreboard::{IrawWindow, Scoreboard};
use lowvcc_uarch::stable::{StableMatch, StoreTable, TrackedStore};

const CASES: u64 = 128;

/// One RNG per property, seeded by the property's name, so cases are
/// independent across properties but stable across runs.
fn case_rng(property: &str) -> SimRng {
    let seed = property.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    SimRng::seed_from(seed)
}

/// Draws from an inclusive-exclusive range.
fn draw(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Scoreboard semantics: for any producer latency and IRAW window that
/// fit the register, readiness over time is exactly
/// `not-ready(lat) ; ready(bypass) ; not-ready(bubble) ; ready(∞)`.
#[test]
fn scoreboard_window_semantics() {
    let mut rng = case_rng("scoreboard_window_semantics");
    let mut checked = 0;
    while checked < CASES {
        let latency = draw(&mut rng, 1, 5) as u32;
        let bypass = draw(&mut rng, 1, 3) as u32;
        let bubble = draw(&mut rng, 0, 3) as u32;
        let width = draw(&mut rng, 8, 16) as u32;
        // A B-bit register supports windows up to B − 1 bits (the pattern
        // needs a trailing ready bit).
        if latency + bypass + bubble >= width {
            continue;
        }
        checked += 1;
        let mut sb = Scoreboard::new(width);
        let r = Reg::new(7).unwrap();
        sb.set_producer(
            r,
            latency,
            Some(IrawWindow {
                bypass_levels: bypass,
                bubble,
            }),
        );
        let horizon = width + 4;
        for cycle in 0..horizon {
            let expect = if cycle < latency {
                false
            } else if cycle < latency + bypass {
                true
            } else {
                cycle >= latency + bypass + bubble
            };
            assert_eq!(
                sb.is_ready(r),
                expect,
                "lat {latency} bypass {bypass} bubble {bubble} width {width} cycle {cycle}"
            );
            sb.tick();
        }
    }
}

/// Once ready-forever, a register stays ready under arbitrary ticks
/// (the trailing ones are sticky).
#[test]
fn scoreboard_ready_is_sticky() {
    let mut rng = case_rng("scoreboard_ready_is_sticky");
    for _ in 0..CASES {
        let latency = draw(&mut rng, 1, 6) as u32;
        let extra_ticks = draw(&mut rng, 0, 40);
        let mut sb = Scoreboard::new(8);
        let r = Reg::new(1).unwrap();
        sb.set_producer(r, latency, None);
        for _ in 0..latency {
            sb.tick();
        }
        assert!(sb.is_ready(r), "latency {latency}");
        for _ in 0..extra_ticks {
            sb.tick();
            assert!(sb.is_ready(r), "latency {latency}");
        }
    }
}

/// Cache coherence of the tag store: after a fill, the line hits until
/// it is evicted or invalidated; misses never lie.
#[test]
fn cache_tag_store_is_truthful() {
    let mut rng = case_rng("cache_tag_store_is_truthful");
    for _ in 0..CASES {
        let accesses = draw(&mut rng, 1, 300);
        let mut cache = SetAssocCache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        })
        .unwrap();
        let mut resident = std::collections::HashSet::new();
        for _ in 0..accesses {
            let line = u32::try_from(rng.below(64)).unwrap();
            let hit = cache.access(line);
            assert_eq!(hit, resident.contains(&line), "line {line}");
            if !hit {
                if let Ok(evicted) = cache.fill(line) {
                    if let Some(v) = evicted {
                        resident.remove(&v);
                    }
                    resident.insert(line);
                }
            }
        }
    }
}

/// Store Table: a probe returns Full iff some enabled tracked store
/// overlaps the probed range; SetOnly iff only a set matches.
#[test]
fn stable_matches_reference_model() {
    let mut rng = case_rng("stable_matches_reference_model");
    for _ in 0..CASES {
        let stores = draw(&mut rng, 1, 40);
        let probe_word = rng.below(32);
        let mut st = StoreTable::new(2);
        let mut window: std::collections::VecDeque<Option<(u64, u64)>> =
            std::collections::VecDeque::new(); // (addr, set)
        for _ in 0..stores {
            let word = rng.below(32);
            let present = rng.chance(0.5);
            let addr = word * 8;
            let set = word % 4;
            let tracked = present.then_some(TrackedStore { addr, size: 8, set });
            st.cycle_update(tracked);
            window.push_back(present.then_some((addr, set)));
            if window.len() > 2 {
                window.pop_front();
            }
        }
        let addr = probe_word * 8;
        let set = probe_word % 4;
        let live: Vec<(u64, u64)> = window.iter().flatten().copied().collect();
        let expect_full = live.iter().any(|&(a, _)| a == addr);
        let expect_set = live.iter().any(|&(_, s)| s == set);
        match st.probe(addr, 8, set) {
            StableMatch::Full { .. } => assert!(expect_full),
            StableMatch::SetOnly { .. } => assert!(!expect_full && expect_set),
            StableMatch::None => assert!(!expect_full && !expect_set),
        }
    }
}

/// Timing-model monotonicity: for any two voltages, the lower one has
/// longer delays under every limiter, and IRAW sits between logic and
/// write-limited.
#[test]
fn cycle_times_monotone_and_ordered() {
    let mut rng = case_rng("cycle_times_monotone_and_ordered");
    let m = CycleTimeModel::silverthorne_45nm();
    let mut checked = 0;
    while checked < CASES {
        let a = draw(&mut rng, 400, 700) as u32;
        let b = draw(&mut rng, 400, 700) as u32;
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            continue;
        }
        checked += 1;
        for limiter in [
            TimingLimiter::Logic,
            TimingLimiter::WriteLimited,
            TimingLimiter::Iraw,
        ] {
            assert!(
                m.cycle_time(mv(lo), limiter) > m.cycle_time(mv(hi), limiter),
                "{lo} vs {hi} under {limiter:?}"
            );
        }
        for v in [lo, hi] {
            let logic = m.cycle_time(mv(v), TimingLimiter::Logic);
            let iraw = m.cycle_time(mv(v), TimingLimiter::Iraw);
            let base = m.cycle_time(mv(v), TimingLimiter::WriteLimited);
            assert!(logic <= iraw, "at {v} mV");
            assert!(iraw <= base, "at {v} mV");
        }
    }
}

/// Bitcell σ-sensitivity: write delay increases with σ at any voltage.
#[test]
fn write_delay_monotone_in_sigma() {
    let mut rng = case_rng("write_delay_monotone_in_sigma");
    let cell = Bitcell8T::silverthorne_45nm();
    let mut checked = 0;
    while checked < CASES {
        let v = draw(&mut rng, 400, 700) as u32;
        let s1 = rng.next_f64() * 6.0;
        let s2 = rng.next_f64() * 6.0;
        if (s1 - s2).abs() <= 0.05 {
            continue;
        }
        checked += 1;
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        assert!(
            cell.write_delay_at_sigma(mv(v), lo) < cell.write_delay_at_sigma(mv(v), hi),
            "{v} mV, sigma {lo:.2} vs {hi:.2}"
        );
    }
}

/// PRNG bounds: `below(n)` always lands in range and `chance` respects
/// the clamped extremes.
#[test]
fn rng_bounds() {
    let mut meta = case_rng("rng_bounds");
    for _ in 0..CASES {
        let seed = meta.below(u64::MAX);
        let bound = draw(&mut meta, 1, 1_000_000);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            assert!(rng.below(bound) < bound, "seed {seed} bound {bound}");
        }
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}

/// Whole-stack property: any seeded workload simulates to completion
/// under every mechanism, committing exactly its uop count, with IPC
/// within the machine's physical bounds.
#[test]
fn any_workload_simulates_cleanly() {
    use lowvcc_core::{CoreConfig, Mechanism, SimConfig, Simulator};
    let mut rng = case_rng("any_workload_simulates_cleanly");
    let timing = CycleTimeModel::silverthorne_45nm();
    for _ in 0..12 {
        let seed = rng.below(5000);
        let family = WorkloadFamily::all()[rng.below(7) as usize];
        let len = draw(&mut rng, 1_000, 4_000) as usize;
        let trace = TraceSpec::new(family, seed, len).build().unwrap();
        for mech in [Mechanism::Baseline, Mechanism::Iraw] {
            let cfg = SimConfig::at_vcc(CoreConfig::silverthorne(), &timing, mv(475), mech);
            let result = Simulator::new(cfg).unwrap().run(&trace).unwrap();
            assert_eq!(
                result.stats.instructions, len as u64,
                "{family} seed {seed}"
            );
            assert!(result.stats.ipc() <= 2.0, "{family} seed {seed}");
            assert!(
                result.stats.cycles >= (len as u64) / 2,
                "{family} seed {seed}"
            );
        }
    }
}

/// The one rule for "same behaviour": configurations with equal
/// cycle-level projections produce equal `SimStats` from fresh
/// simulators, and unequal projections never share a key. Pairs are
/// drawn from the paper's voltage grid × every mechanism plus the §5.2
/// stall-free reference (IRAW clock, `N = 0`); half the cases pick a
/// partner with the same projection when one exists, so the collisions
/// are exercised and not only the (common) distinct pairs.
#[test]
fn equal_projection_means_equal_stats() {
    use lowvcc_core::{sim_key, CoreConfig, Mechanism, SimConfig, SimStats, Simulator};
    use lowvcc_sram::PAPER_SWEEP;
    let mut rng = case_rng("equal_projection_means_equal_stats");
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let mut cfgs = Vec::new();
    for vcc in PAPER_SWEEP.iter() {
        for mech in [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic] {
            cfgs.push(SimConfig::at_vcc(core, &timing, vcc, mech));
        }
        let mut free = SimConfig::at_vcc(core, &timing, vcc, Mechanism::Iraw);
        free.stabilization_cycles = 0;
        cfgs.push(free);
    }
    let specs: Vec<TraceSpec> = [
        WorkloadFamily::SpecInt,
        WorkloadFamily::Multimedia,
        WorkloadFamily::Server,
    ]
    .into_iter()
    .map(|family| TraceSpec::new(family, rng.below(5000), 1_500))
    .collect();
    let traces: Vec<_> = specs.iter().map(|s| s.build().unwrap()).collect();

    // The collisions the paper grid relies on: IRAW is the baseline run
    // at ≥600 mV, and the stall-free reference is the ideal-logic run at
    // 575 and 550 mV (same `N = 0`, memory latency 91 / 83 cycles).
    // `cfgs` holds (baseline, IRAW, ideal logic, stall-free) per voltage.
    let at = |mv: u32, slot: usize| {
        4 * PAPER_SWEEP
            .iter()
            .position(|v| v.millivolts() == mv)
            .unwrap()
            + slot
    };
    for mv in [600, 625, 650, 675, 700] {
        let (base, iraw) = (&cfgs[at(mv, 0)], &cfgs[at(mv, 1)]);
        assert_eq!(base.cycle_config(), iraw.cycle_config(), "{mv} mV");
    }
    for mv in [550, 575] {
        let (ideal, free) = (&cfgs[at(mv, 2)], &cfgs[at(mv, 3)]);
        assert_eq!(ideal.cycle_config(), free.cycle_config(), "{mv} mV");
        assert_ne!(
            ideal.cycle_config(),
            cfgs[at(mv, 1)].cycle_config(),
            "{mv} mV"
        );
    }

    let mut memo: Vec<Option<SimStats>> = vec![None; cfgs.len() * specs.len()];
    let mut stats = |c: usize, s: usize| {
        memo[c * specs.len() + s]
            .get_or_insert_with(|| {
                let sim = Simulator::new(cfgs[c].clone()).unwrap();
                sim.run(&traces[s]).unwrap().stats
            })
            .clone()
    };
    let mut collisions = 0;
    for _ in 0..CASES {
        let a = rng.below(cfgs.len() as u64) as usize;
        let s = rng.below(specs.len() as u64) as usize;
        let partners: Vec<usize> = (0..cfgs.len())
            .filter(|&b| b != a && cfgs[b].cycle_config() == cfgs[a].cycle_config())
            .collect();
        let b = if !partners.is_empty() && rng.below(2) == 0 {
            partners[rng.below(partners.len() as u64) as usize]
        } else {
            rng.below(cfgs.len() as u64) as usize
        };
        let (ka, kb) = (sim_key(&cfgs[a], &specs[s]), sim_key(&cfgs[b], &specs[s]));
        let what = format!(
            "{:?} vs {:?} on {}",
            (cfgs[a].vcc, cfgs[a].mechanism, cfgs[a].stabilization_cycles),
            (cfgs[b].vcc, cfgs[b].mechanism, cfgs[b].stabilization_cycles),
            specs[s].name()
        );
        if cfgs[a].cycle_config() == cfgs[b].cycle_config() {
            assert_eq!(ka, kb, "{what}");
            assert_eq!(stats(a, s), stats(b, s), "{what}");
            collisions += usize::from(a != b);
        } else {
            assert_ne!(ka, kb, "{what}");
        }
    }
    assert!(collisions > 0, "no colliding pair was drawn");
}

/// A key built from a config's saved prefix is the one-pass FNV-128 of
/// the whole key encoding, for any voltage in the model, any
/// mechanism and any trace spec, including when one prefix keys
/// several specs in turn (how `run_suite_batch` uses it).
#[test]
fn prefix_keys_equal_one_pass_keys() {
    use lowvcc_core::canon::{encode_cycle_config, encode_trace_spec, fnv1a_128, CanonWriter};
    use lowvcc_core::{
        sim_key, CoreConfig, Mechanism, SimConfig, SimKey, SimKeyPrefix, ENGINE_SEMANTICS_VERSION,
    };
    use lowvcc_sram::voltage::{MAX_MODEL_MV, MIN_MODEL_MV};
    let mut rng = case_rng("prefix_keys_equal_one_pass_keys");
    let timing = CycleTimeModel::silverthorne_45nm();
    let families = WorkloadFamily::all();
    let mechanisms = [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic];
    for _ in 0..CASES {
        let vcc = mv(draw(
            &mut rng,
            u64::from(MIN_MODEL_MV),
            u64::from(MAX_MODEL_MV) + 1,
        ) as u32);
        let mechanism = mechanisms[rng.below(mechanisms.len() as u64) as usize];
        let mut cfg = SimConfig::at_vcc(CoreConfig::silverthorne(), &timing, vcc, mechanism);
        if rng.below(2) == 0 {
            cfg.disabled_lines = (rng.below(4) as usize, rng.below(4) as usize, 0);
            cfg.fault_seed = rng.below(1 << 20);
        }
        let prefix = SimKeyPrefix::new(&cfg);
        for _ in 0..3 {
            let family = families[rng.below(families.len() as u64) as usize];
            let spec = TraceSpec::new(
                family,
                rng.below(1 << 32),
                draw(&mut rng, 1, 1 << 24) as usize,
            );
            let mut w = CanonWriter::new();
            w.str("lowvcc-simkey");
            w.u32(ENGINE_SEMANTICS_VERSION);
            encode_cycle_config(&mut w, &cfg.cycle_config());
            encode_trace_spec(&mut w, &spec);
            let one_pass = SimKey::from_value(fnv1a_128(w.bytes()));
            assert_eq!(
                prefix.key(&spec),
                one_pass,
                "{vcc:?} {mechanism:?} {spec:?}"
            );
            assert_eq!(
                sim_key(&cfg, &spec),
                one_pass,
                "{vcc:?} {mechanism:?} {spec:?}"
            );
        }
    }
}
