//! `paper_cold`: the whole paper report from a cold start.
//!
//! Each measured pass runs `experiments::run_all` over the suite through
//! a fresh in-memory `ResultStore`, so every simulation of the report is
//! computed: the engine and the grid executor do nearly all the work.
//! No sockets; the only disk use is the CSV directory `run_all` writes.
//! A second `run_all` over the then-warm store times re-rendering alone.
//!
//! Checks: the CSV bytes against digests committed for the listed seeds
//! (against the pass's first CSVs for other seeds), and the engine's
//! fast path against `Simulator::run_naive` on seeded sample configs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lowvcc_bench::experiments::{run_all, SweepPoint};
use lowvcc_bench::{ExperimentContext, ResultStore};
use lowvcc_core::canon::fnv1a_64;
use lowvcc_core::{EngineWorkspace, Mechanism, Parallelism, SimConfig, Simulator};
use lowvcc_sram::{CycleTimeModel, PAPER_SWEEP};
use lowvcc_trace::{TraceArena, TraceSpec, WorkloadFamily};

use crate::report::Outcome;
use crate::serve::count_records;
use crate::stats::median;
use crate::{host, peak_rss_mb, secs, span, Args, Ctx, Res, Rng, Scale};

/// CSV digests of `run_all` at the measured size, per seed.
const DIGESTS: &str = include_str!("../digests.txt");

/// Passes measured at least, however short the window.
const MIN_PASSES: usize = 3;

/// The suite for `seed`: `per_family` traces per family, with trace
/// seeds `seed * per_family ..` — seed 0 is exactly the `NxLEN` suite
/// of the `experiments` binary.
#[must_use]
pub fn suite_specs(seed: u64, per_family: u32, len: usize) -> Vec<TraceSpec> {
    let base = seed.wrapping_mul(u64::from(per_family));
    WorkloadFamily::all()
        .into_iter()
        .flat_map(|family| {
            (0..u64::from(per_family)).map(move |j| TraceSpec::new(family, base + j, len))
        })
        .collect()
}

/// Builds the suite and a fresh store: the `paper_cold` set-up.
///
/// # Errors
///
/// Propagates trace synthesis failures.
pub fn build_context(seed: u64, scale: &Scale) -> Res<ExperimentContext> {
    let _s = span::span("bench.context.build");
    let specs = suite_specs(seed, scale.cold_per_family, scale.cold_len);
    let label = format!("perfbench seed {seed} ({}×{})", specs.len(), scale.cold_len);
    Ok(ExperimentContext::from_specs(&specs, &label)
        .ctx("suite synthesis")?
        .with_parallelism(Parallelism::threads(scale.cold_jobs))
        .with_cache(Arc::new(ResultStore::ephemeral())))
}

/// Engine results of one `run_all`, counted outside the store's
/// counters: `run_all` through a fresh store on disk, which owns and
/// publishes every key it computes, then the records counted in its
/// directory. Returns `(records, store misses)`; a key simulated twice
/// shows as more misses than records.
///
/// # Errors
///
/// Reports store and `run_all` failures.
pub fn engine_calls(
    ctx: &mut ExperimentContext,
    store_dir: &Path,
    csv_dir: &Path,
) -> Res<(u64, u64)> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = Arc::new(ResultStore::open(store_dir).ctx("open disk store")?);
    ctx.cache = Some(Arc::clone(&store));
    {
        let _s = span::span("bench.experiments.run_all.disk");
        run_all(ctx, csv_dir).ctx("run_all on disk")?;
    }
    let misses = store.stats().misses;
    ctx.cache = None;
    drop(store);
    let records = count_records(store_dir);
    let _ = std::fs::remove_dir_all(store_dir);
    Ok((records, misses))
}

/// FNV-1a digests of every CSV under `dir`, by file name.
///
/// # Errors
///
/// Reports unreadable files.
pub fn csv_digests(dir: &Path) -> Res<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).ctx("list CSV dir")? {
        let path = entry.ctx("list CSV dir")?.path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            out.insert(name, fnv1a_64(&std::fs::read(&path).ctx("read CSV")?));
        }
    }
    Ok(out)
}

/// The committed digests for `seed` at the measured size, if any.
#[must_use]
pub fn committed_digests(seed: u64) -> Option<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for line in DIGESTS.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (Some(s), Some(file), Some(hex)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if s.parse::<u64>().ok() == Some(seed) {
            out.insert(file.to_string(), u64::from_str_radix(hex, 16).ok()?);
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Renders digests in the committed file's line format.
#[must_use]
pub fn digest_lines(seed: u64, digests: &BTreeMap<String, u64>) -> String {
    digests
        .iter()
        .map(|(file, d)| format!("{seed} {file} {d:016x}\n"))
        .collect()
}

/// One sampled fast-path check: the configuration, the trace spec, and
/// the two engines' wall times.
#[derive(Debug, Clone)]
pub struct NaiveSample {
    /// Configuration simulated.
    pub cfg: SimConfig,
    /// Trace simulated.
    pub spec: TraceSpec,
    /// `EngineWorkspace::run` wall time, s.
    pub fast_s: f64,
    /// `Simulator::run_naive` wall time, s.
    pub naive_s: f64,
    /// Whether both returned identical results.
    pub same: bool,
}

/// Runs `n` seeded (config, trace) samples through both engines.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn naive_samples(seed: u64, n: usize, len: usize) -> Res<Vec<NaiveSample>> {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = lowvcc_core::CoreConfig::silverthorne();
    let voltages: Vec<_> = PAPER_SWEEP.iter().collect();
    let families = WorkloadFamily::all();
    let mut rng = Rng::new(seed, 1);
    let mut ws = EngineWorkspace::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let vcc = voltages[rng.below(voltages.len())];
        let mechanism = if rng.below(2) == 0 {
            Mechanism::Baseline
        } else {
            Mechanism::Iraw
        };
        let cfg = SimConfig::at_vcc(core, &timing, vcc, mechanism);
        let spec = TraceSpec::new(
            families[rng.below(families.len())],
            rng.next_u64() % 1000,
            len,
        );
        let trace = spec.build().ctx("sample trace")?;
        let arena = TraceArena::from_trace(&trace);
        let t = Instant::now();
        let fast = {
            let _s = span::span("core.engine.run");
            ws.run(&cfg, &arena).ctx("fast path")?
        };
        let fast_s = secs(t);
        let sim = Simulator::new(cfg.clone()).ctx("naive config")?;
        let t = Instant::now();
        let naive = {
            let _s = span::span("core.engine.run_naive");
            sim.run_naive(&trace).ctx("naive run")?
        };
        let naive_s = secs(t);
        out.push(NaiveSample {
            same: fast == naive,
            cfg,
            spec,
            fast_s,
            naive_s,
        });
    }
    Ok(out)
}

/// The simulated anchors beside the paper's published ones.
pub fn note_anchors(out: &mut Outcome, sweep: &[SweepPoint]) {
    let at = |mv| sweep.iter().find(|p| p.vcc.millivolts() == mv);
    if let (Some(p500), Some(p575)) = (at(500), at(575)) {
        out.note(format!(
            "anchors (model calibrated to the paper, not validated on hardware): \
             500 mV frequency gain +{:.1}% (paper +57%), speedup +{:.1}% (paper +48%), \
             delayed {:.1}% at 500 mV / {:.1}% at 575 mV (paper 13.2%)",
            (p500.frequency_gain - 1.0) * 100.0,
            (p500.speedup - 1.0) * 100.0,
            p500.delayed_fraction * 100.0,
            p575.delayed_fraction * 100.0,
        ));
    }
}

/// Runs the `paper_cold` workload.
///
/// # Errors
///
/// Reports set-up and I/O failures.
pub fn run(args: &Args) -> Res<Outcome> {
    let scale = args.scale;
    let mut out = Outcome::default();

    for s in naive_samples(args.seed, scale.naive_checks, scale.sample_len)? {
        out.check(s.same, || {
            format!(
                "EngineWorkspace::run differs from run_naive: {} at {} mV {:?}",
                s.spec.name(),
                s.cfg.vcc.millivolts(),
                s.cfg.mechanism
            )
        });
    }

    let dir = args.scratch("paper_cold");
    std::fs::create_dir_all(&dir).ctx("create CSV dir")?;
    // Digests are committed for the measured size only.
    let committed = if scale == Scale::full() {
        committed_digests(args.seed)
    } else {
        None
    };
    let mut reference = committed.clone();
    let mut setup = Vec::new();
    let mut report_ms = Vec::new();
    let mut rerender_ms = Vec::new();
    let mut sweep_ms = Vec::new();
    let mut misses = Vec::new();
    let mut sweep = Vec::new();
    let deadline = Instant::now() + args.window();
    let mut kernel_ms = vec![host::kernel_ms()];
    while report_ms.len() < MIN_PASSES || Instant::now() < deadline {
        // A fresh suite per pass, so set-up is timed across the window,
        // beside the passes and the kernel. The previous pass's suite is
        // freed first: with two alive, peak memory varied by a third
        // across seeds.
        let t = Instant::now();
        let mut ctx = build_context(args.seed, &scale)?;
        setup.push(secs(t));
        let store = Arc::new(ResultStore::ephemeral());
        ctx.cache = Some(Arc::clone(&store));
        let t = Instant::now();
        let summary = {
            let _s = span::span("bench.experiments.run_all");
            run_all(&ctx, &dir).ctx("run_all")?
        };
        report_ms.push(secs(t) * 1e3);
        sweep_ms.push(summary.sweep_elapsed.as_secs_f64() * 1e3);
        let stats = store.stats();
        misses.push(stats.misses);
        let digests = csv_digests(&dir)?;
        match &reference {
            Some(want) => out.check(*want == digests, || {
                format!(
                    "CSV bytes differ from {} (seed {})",
                    if committed.is_some() {
                        "the committed digests"
                    } else {
                        "this run's first pass"
                    },
                    args.seed
                )
            }),
            None => {
                out.check(digests.len() == 8, || {
                    format!("run_all wrote {} CSVs, not 8", digests.len())
                });
                reference = Some(digests);
            }
        }

        let t = Instant::now();
        {
            let _s = span::span("bench.experiments.run_all.warm");
            run_all(&ctx, &dir).ctx("warm run_all")?;
        }
        rerender_ms.push(secs(t) * 1e3);
        out.check(store.stats().misses == stats.misses, || {
            "the warm re-render simulated".to_string()
        });
        out.check(reference.as_ref() == Some(&csv_digests(&dir)?), || {
            "warm re-render changed the CSV bytes".to_string()
        });
        sweep = summary.sweep;
        kernel_ms.push(host::kernel_ms());
    }
    let _ = std::fs::remove_dir_all(&dir);

    note_anchors(&mut out, &sweep);
    let same_misses = misses.windows(2).all(|w| w[0] == w[1]);
    out.check(same_misses, || {
        format!("store misses vary across passes: {misses:?}")
    });

    host::record(&mut out, &kernel_ms);
    out.timing("setup_s", "s", &setup);
    out.metric("setup_s", "s", median(&setup));
    let report = out.timing("report_ms", "ms", &report_ms);
    let sweep = out.timing("sweep_ms", "ms", &sweep_ms);
    let rerender = out.timing("rerender_ms", "ms", &rerender_ms);
    out.metric("report_s", "s", report.median / 1e3);
    out.metric("report_ms", "ms", report.median);
    out.metric("sweep_ms", "ms", sweep.median);
    out.metric("rerender_ms", "ms", rerender.median);
    out.metric("store_misses", "count", misses[0] as f64);
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    Ok(out)
}
