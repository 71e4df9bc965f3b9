//! End-to-end reproduction checks: every paper artefact regenerated on a
//! small suite, with its qualitative *shape* asserted — crossover
//! voltages, who wins, and rough factors — plus the result-cache
//! contract: strict-JSON round trips, bit-identical warm replays, and
//! corrupt records quarantined then healed by re-simulation.

use std::sync::Arc;

use lowvcc_bench::experiments::{fig1, fig11a, run_all, scalars, stalls, sweep, table1};
use lowvcc_bench::{json, ExperimentContext, ResultStore};
use lowvcc_core::{Parallelism, SimConfig, SuiteResult};

fn ctx() -> ExperimentContext {
    ExperimentContext::quick().expect("quick suite builds")
}

#[test]
fn figure1_crossovers_match_paper() {
    let series =
        lowvcc_sram::Figure1Series::generate(&lowvcc_sram::CycleTimeModel::silverthorne_45nm());
    assert_eq!(series.write_wl_crossover().unwrap().millivolts(), 600);
    assert_eq!(series.write_only_crossover().unwrap().millivolts(), 525);
    assert!(series.read_never_limits());
    // Table renders all 13 sweep points.
    assert_eq!(fig1::table(&ctx()).len(), 13);
    assert_eq!(fig11a::table(&ctx()).len(), 13);
}

#[test]
fn figure11b_shape_holds() {
    let points = sweep::run_sweep(&ctx()).expect("sweep runs");
    let at = |mv: u32| sweep::at(&points, mv).expect("grid point");

    // Frequency-gain anchors (±4% of the published +57% / +99%).
    assert!((at(500).frequency_gain - 1.57).abs() < 0.07);
    assert!((at(400).frequency_gain - 1.99).abs() < 0.07);

    // Performance follows frequency but stays below it — and the gap
    // (stalls + constant-time memory) stays bounded.
    for p in &points {
        assert!(p.speedup <= p.frequency_gain + 0.02, "at {}", p.vcc);
        // The quick suite (10k-uop traces) is warmup-dominated, so its
        // speedup/gain ratio sits lower than the standard suite's ≈0.87;
        // 0.72 bounds the cold-start case while still failing if stalls
        // ever explode.
        assert!(
            p.speedup >= p.frequency_gain * 0.72,
            "at {}: speedup {:.3} too far below gain {:.3}",
            p.vcc,
            p.speedup,
            p.frequency_gain
        );
    }

    // No mechanism, no effect: at and above 600 mV everything ties.
    for mv in [600, 625, 650, 675, 700] {
        assert!((at(mv).speedup - 1.0).abs() < 0.01);
        assert_eq!(at(mv).delayed_fraction, 0.0);
    }

    // Below 600 mV a noticeable fraction of instructions is delayed
    // (paper: 13.2%).
    for mv in [575, 500, 450, 400] {
        let d = at(mv).delayed_fraction;
        assert!((0.05..0.25).contains(&d), "delayed {d:.3} at {mv} mV");
    }
}

#[test]
fn figure12_shape_holds() {
    let points = sweep::run_sweep(&ctx()).expect("sweep runs");
    let at = |mv: u32| sweep::at(&points, mv).expect("grid point");

    // High Vcc: IRAW hardware costs ~0.5% energy, delay unchanged → EDP
    // slightly above 1 (paper: "slightly worse at high Vcc").
    let p700 = at(700);
    assert!((p700.relative_delay - 1.0).abs() < 1e-9);
    assert!(p700.relative_energy > 1.0 && p700.relative_energy < 1.02);

    // Low Vcc: decisive EDP wins, monotone in the published direction.
    assert!(at(500).relative_edp < 0.75, "paper 0.61");
    assert!(at(450).relative_edp < at(500).relative_edp, "paper 0.41");
    assert!(at(400).relative_edp < at(450).relative_edp, "paper 0.33");
    assert!(at(400).relative_edp > 0.2, "not implausibly low");

    // The paper's per-Vcc adaptivity (§4.1.3), read off the sweep: below
    // 600 mV IRAW is both faster and lower-EDP, so it is the mechanism to
    // run; at and above 600 mV it ties on time and pays its hardware in
    // EDP, so the baseline is.
    for p in &points {
        let mv = p.vcc.millivolts();
        if mv < 600 {
            assert!(p.speedup > 1.0, "IRAW faster at {mv} mV");
            assert!(p.relative_edp < 1.0, "IRAW lower EDP at {mv} mV");
        } else {
            assert!((p.speedup - 1.0).abs() < 0.01, "tie at {mv} mV");
            assert!(p.relative_edp > 1.0, "baseline lower EDP at {mv} mV");
        }
    }

    // Baseline leakage share grows as Vcc falls (the energy mechanism
    // behind the EDP wins).
    for pair in points.windows(2) {
        assert!(pair[1].baseline_leakage_fraction >= pair[0].baseline_leakage_fraction - 1e-9);
    }
}

#[test]
fn table1_story_holds() {
    let t = table1::qualitative();
    assert_eq!(t.len(), 3);
    let quant = table1::quantitative(&ctx()).expect("table runs");
    assert_eq!(quant.len(), 6);
    let rendered = quant.render();
    assert!(rendered.contains("IRAW avoidance"));
    assert!(rendered.contains("hypothetical"));
}

#[test]
fn stall_attribution_rf_dominates() {
    let (_, report) = stalls::table(&ctx()).expect("measurement runs");
    assert!(
        report.total_degradation > 0.01,
        "IRAW stalls must cost something"
    );
    assert!(report.rf_share >= report.dl0_share);
    assert!(report.rf_share >= report.other_share);
}

#[test]
fn full_report_generates_and_writes_csvs() {
    let dir = std::env::temp_dir().join("lowvcc_it_results");
    let _ = std::fs::remove_dir_all(&dir);
    let summary = run_all(&ctx(), &dir).expect("all experiments run");
    for section in [
        "Figure 1",
        "Figure 11a",
        "Figure 11b",
        "Figure 12",
        "Table 1",
        "stall attribution",
        "Scalar results",
    ] {
        assert!(
            summary.report.contains(section),
            "missing section {section}"
        );
    }
    // The machine-readable side carries the sweep and its throughput.
    assert_eq!(summary.sweep.len(), 13);
    assert!(summary.sweep_uops > 0);
    assert!(summary.uops_per_second() > 0.0);
    let json = summary.to_json("it (7×2k)", 14_000, 1);
    assert!(json.contains("\"uops_per_second\""));
    assert!(json.contains("\"vcc_mv\": 500"));
    for csv in [
        "fig1.csv",
        "fig11a.csv",
        "fig11b.csv",
        "fig12.csv",
        "table1_qualitative.csv",
        "table1_quantitative.csv",
        "stalls_575mv.csv",
        "scalars.csv",
    ] {
        assert!(dir.join(csv).exists(), "missing {csv}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `--json` document must survive the strict parser and carry the
/// full sweep grid with finite numbers (non-finite floats become `null`,
/// never bare `inf`/`NaN` tokens).
#[test]
fn json_documents_round_trip_through_the_strict_parser() {
    let dir = std::env::temp_dir().join(format!("lowvcc_it_json_{}", std::process::id()));
    let ctx = ExperimentContext::sized(1, 2_000).expect("tiny suite builds");
    let summary = run_all(&ctx, &dir).expect("runs");
    let doc = summary.to_json(&ctx.suite_label, ctx.total_uops(), 1);
    let v = json::parse(&doc).expect("strictly valid JSON");
    assert_eq!(
        v.get("suite").unwrap().as_str(),
        Some(ctx.suite_label.as_str())
    );
    let points = v.get("points").unwrap().as_array().unwrap();
    assert_eq!(points.len(), 13);
    let grid: Vec<u64> = points
        .iter()
        .map(|p| p.get("vcc_mv").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(grid.first(), Some(&700));
    assert_eq!(grid.last(), Some(&400));
    for p in points {
        for field in [
            "frequency_gain",
            "speedup",
            "relative_edp",
            "baseline_leakage_fraction",
        ] {
            let x = p.get(field).unwrap().as_f64().unwrap();
            assert!(x.is_finite(), "{field} must be finite, got {x}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache contract end to end: a warm `run_all` replay performs zero
/// simulations yet produces a byte-identical report and bit-identical
/// sweep measurements (`SweepPoint` is all-`f64` — equality here is
/// bit-equality of every derived statistic).
#[test]
fn warm_cached_rerun_is_simulation_free_and_bit_identical() {
    let dir = std::env::temp_dir().join(format!("lowvcc_it_cache_{}", std::process::id()));
    let out = dir.join("out");
    let _ = std::fs::remove_dir_all(&dir);
    let base = ExperimentContext::sized(1, 2_000).expect("tiny suite builds");

    let uncached = run_all(&base.clone(), &out).expect("uncached run");

    let store = Arc::new(ResultStore::open(dir.join("store")).expect("store opens"));
    let cold_ctx = base.clone().with_cache(Arc::clone(&store));
    let cold = run_all(&cold_ctx, &out).expect("cold cached run");
    let cold_misses = store.stats().misses;
    assert!(cold_misses > 0, "cold run must simulate");
    assert_eq!(cold.sweep, uncached.sweep, "cache must not change results");

    assert_eq!(
        cold.sweep_uops, uncached.sweep_uops,
        "a cold cached sweep simulates exactly what an uncached one does"
    );

    let warm = run_all(&cold_ctx, &out).expect("warm cached run");
    assert_eq!(
        store.stats().misses,
        cold_misses,
        "warm run must perform zero simulations"
    );
    assert_eq!(warm.sweep, cold.sweep, "warm sweep bit-identical");
    assert_eq!(warm.report, cold.report, "warm report byte-identical");
    assert_eq!(
        warm.sweep_uops, 0,
        "the throughput numerator counts engine work, not cache hits"
    );

    // A brand-new process (fresh store handle over the same directory)
    // also replays without simulating: persistence, not just the LRU.
    let fresh = Arc::new(ResultStore::open(dir.join("store")).expect("store reopens"));
    let fresh_ctx = base.with_cache(Arc::clone(&fresh));
    let replay = run_all(&fresh_ctx, &out).expect("replay run");
    assert_eq!(fresh.stats().misses, 0, "disk replay simulates nothing");
    assert_eq!(replay.sweep, cold.sweep);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent experiments sharing one *persistent* store (the
/// `lowvcc-serve` worker-pool shape): identical cold queries racing on
/// every key are deduplicated by the single-flight layer — one engine
/// invocation per key — and every thread's answer is bit-identical to
/// the sequential one.
#[test]
fn concurrent_shared_store_single_flights_and_stays_bit_identical() {
    let dir = std::env::temp_dir().join(format!("lowvcc_it_conc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = ExperimentContext::sized(1, 2_000).expect("tiny suite builds");
    let vcc = lowvcc_sram::Millivolts::new(575).unwrap();
    let sequential = sweep::point(&base, vcc).expect("uncached point");

    let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
    let ctx = base.with_cache(Arc::clone(&store));
    let points: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| sweep::point(&ctx, vcc).expect("concurrent point")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = store.stats();
    assert_eq!(
        stats.misses, 14,
        "4 racing cold queries, 2 mechanisms × 7 traces: one simulation per key ({stats:?})"
    );
    assert_eq!(store.disk_entries(), 14);
    for p in &points {
        assert_eq!(
            *p, sequential,
            "cache + concurrency must not change results"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipped bytes in store segments self-heal: every corrupt segment is
/// quarantined whole (never read as garbage statistics — the digest
/// fails closed), the experiment re-simulates and re-publishes every
/// record it held, and the answer is bit-identical to the uncorrupted
/// one.
#[test]
fn corrupt_store_entries_quarantine_and_self_heal() {
    let dir = std::env::temp_dir().join(format!("lowvcc_it_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = ExperimentContext::sized(1, 2_000).expect("tiny suite builds");
    let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
    let ctx = base.with_cache(Arc::clone(&store));
    let vcc = lowvcc_sram::Millivolts::new(575).unwrap();
    let clean = sweep::point(&ctx, vcc).expect("cold point");
    let published = store.disk_entries();
    assert_eq!(published, 14, "2 mechanisms × 7 traces persisted");

    // Flip one byte in every segment; no read may ever trust them again.
    // The records they hold are counted by decoding them first.
    let (mut segments, mut flipped) = (0, 0);
    for shard in std::fs::read_dir(&dir).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&shard).unwrap() {
            let p = entry.unwrap().path();
            let mut bytes = std::fs::read(&p).unwrap();
            flipped += lowvcc_bench::bundle::decode_bundle(&bytes).unwrap().len() as u64;
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&p, bytes).unwrap();
            segments += 1;
        }
    }
    assert_eq!(flipped, published, "every record corrupted");

    // A fresh handle (cold LRU) hits the corrupt bytes, quarantines
    // every segment, re-simulates, and still answers identically.
    let fresh = Arc::new(ResultStore::open(&dir).expect("store reopens"));
    let base2 = ExperimentContext::sized(1, 2_000).expect("suite rebuilds");
    let ctx2 = base2.with_cache(Arc::clone(&fresh));
    let healed = sweep::point(&ctx2, vcc).expect("degraded reads must not error");
    assert_eq!(healed, clean, "re-simulation is bit-identical");
    let stats = fresh.stats();
    assert_eq!(
        stats.quarantined, segments,
        "every corrupt segment quarantined ({stats:?})"
    );
    assert_eq!(stats.misses, flipped, "every key re-simulated");
    assert_eq!(
        fresh.disk_entries(),
        published,
        "the store healed itself back to full population"
    );
    // And the healed records verify scrub-clean.
    let scrub = fresh.verify().expect("scrub");
    assert_eq!(
        (scrub.ok_records, scrub.quarantined),
        (published, 0),
        "healed store is scrub-clean"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reproduction's headline numbers on the standard suite stay in
/// the bands `experiments::scalars` declares beside them. It runs the
/// standard suite (~30 s in release on two threads), so it is ignored
/// by default; CI's `claims` job runs it with `--release -- --ignored`.
#[test]
#[ignore = "runs the standard suite; CI's claims job runs it in release"]
fn standard_suite_scalars_stay_in_band() {
    let ctx = ExperimentContext::standard()
        .expect("standard suite builds")
        .with_parallelism(Parallelism::threads(2));
    let points = sweep::run_sweep(&ctx).expect("sweep runs");
    for row in scalars::measured(&points).expect("anchor voltages swept") {
        let (low, high) = scalars::band(row.quantity).expect("every measured row has a band");
        assert!(
            (low..=high).contains(&row.value),
            "{} left its band: {} ({}) is outside [{low}, {high}]",
            row.quantity,
            row.value,
            row.cell
        );
    }
}

/// Where the headline gap between frequency gain and performance gain
/// goes, as inclusive `(mV, memory-stretch loss, IRAW-stall loss)` rows.
/// A loss is `1 − speedup / frequency gain`, in percent; each band is the
/// standard suite's value today ±1 point, like `scalars::BANDS`.
const GAP_BANDS: [(u32, [f64; 2], [f64; 2]); 2] =
    [(500, [6.9, 8.9], [4.3, 6.3]), (400, [0.4, 2.4], [5.2, 7.2])];

/// The headline gap splits into two causes, each measured by a copy of
/// the shipped IRAW run that keeps only that cause. Off-chip latency is
/// constant in time, so the faster IRAW clock stretches it over more
/// cycles (paper §5.2 (i)): the `N = 0` copy keeps that stretch and has
/// no IRAW stalls. The copy whose memory latency is scaled back to the
/// baseline's cycle count keeps the stalls and has no stretch. Both
/// copies live only here: the product grid never runs them. Ignored by
/// default, like the scalar bands; CI's `claims` job runs it.
#[test]
#[ignore = "runs the standard suite; CI's claims job runs it in release"]
fn standard_suite_gap_attribution_stays_in_band() {
    let ctx = ExperimentContext::standard()
        .expect("standard suite builds")
        .with_parallelism(Parallelism::threads(2));
    for (mv, memory_band, stall_band) in GAP_BANDS {
        let vcc = lowvcc_sram::Millivolts::new(mv).expect("grid voltage");
        let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
        let mut no_stalls = iraw.clone();
        no_stalls.stabilization_cycles = 0;
        let mut no_stretch = iraw.clone();
        no_stretch.core.memory_latency_ns *= iraw.cycle_time / base.cycle_time;
        assert_eq!(
            no_stretch.cycle_config().memory_latency_cycles,
            base.cycle_config().memory_latency_cycles,
            "{mv} mV: memory must take the baseline's cycles"
        );
        let [base, no_stalls, no_stretch]: [SuiteResult; 3] = ctx
            .run_suite_batch(&[base, no_stalls, no_stretch])
            .expect("suite runs")
            .try_into()
            .expect("three configs in, three suites out");
        let gain = ctx.timing.frequency_gain(vcc);
        let loss =
            |copy: &SuiteResult| (1.0 - base.total_seconds() / copy.total_seconds() / gain) * 100.0;
        for (cause, value, [low, high]) in [
            ("memory stretch", loss(&no_stalls), memory_band),
            ("IRAW stalls", loss(&no_stretch), stall_band),
        ] {
            assert!(
                (low..=high).contains(&value),
                "loss from {cause} @{mv} mV left its band: {value:.2}% is outside [{low}, {high}]"
            );
        }
    }
}
