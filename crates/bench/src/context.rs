//! Shared experiment context: models, machine configuration, the trace
//! suite's specs, and the optional result cache every experiment runs
//! through.
//!
//! The context holds specs, and a trace lives as long as the work that
//! needs it. In a batch run (`run_all`, the `experiments` binary, the
//! examples) the grid worker that claims a trace's group builds its
//! [`TraceArena`], runs the group and drops it, so a cold run holds at
//! most one arena per worker and a fully warm run builds none. A
//! serving daemon answers many grids over one suite for its whole life,
//! so its constructor makes the context keep each trace once built, in
//! one table every clone shares (each shard of an in-process cluster,
//! say) — see [`ExperimentContext::with_resident_traces`]. Either way no
//! grid run decodes or validates a trace again.

use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::{panic, thread};

use lowvcc_core::{
    run_batch_groups, same_projection_as, CoreConfig, MechanismComparison, Parallelism, SimConfig,
    SimError, SimKey, SimKeyPrefix, SimResult, SuiteResult,
};

use crate::error::ExperimentError;
use crate::store::{Flight, FlightGuard, FlightWaiter, ResultStore};
use lowvcc_energy::EnergyModel;
use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::{suite, TraceArena, TraceError, TraceSpec};

/// A parsed suite choice — the one grammar behind the `--suite` flag of
/// both the `experiments` binary and `lowvcc-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteChoice {
    /// 7 traces × 10k uops.
    Quick,
    /// 49 traces × 200k uops.
    Standard,
    /// 532 traces × 200k uops: the closest 7-family multiple of the
    /// paper's 531 traces, at a length swept in minutes, not days.
    Paper,
    /// `NxLEN`: N traces per family, LEN uops each.
    Sized {
        /// Traces per workload family.
        per_family: u32,
        /// Dynamic uops per trace.
        len: usize,
    },
}

/// Why a `--suite` argument was rejected. The `Display` form is the
/// usage message both binaries print verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteSpecError {
    /// Not a named suite and not of the `NxLEN` form.
    BadSpec(String),
    /// The `N` in `NxLEN` is not a count.
    BadPerFamily,
    /// The `LEN` in `NxLEN` is not a length.
    BadLength,
    /// Zero traces per family or zero-length traces: no defined
    /// speedups/EDP.
    Degenerate,
}

impl std::fmt::Display for SuiteSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadSpec(spec) => write!(f, "bad suite spec {spec}; want e.g. 3x50000"),
            Self::BadPerFamily => write!(f, "bad per-family count"),
            Self::BadLength => write!(f, "bad trace length"),
            Self::Degenerate => write!(
                f,
                "suite spec needs at least 1 trace per family and 1 uop per trace"
            ),
        }
    }
}

impl std::error::Error for SuiteSpecError {}

impl SuiteChoice {
    /// Parses a `--suite` argument (`quick`, `standard`, `paper`, or
    /// `NxLEN`), rejecting degenerate sizes before any work starts:
    /// zero traces per family or zero-length traces have no defined
    /// speedups/EDP.
    ///
    /// # Errors
    ///
    /// Returns a [`SuiteSpecError`] whose `Display` form is a usage
    /// message suitable for printing verbatim.
    pub fn parse(arg: &str) -> Result<Self, SuiteSpecError> {
        match arg {
            "quick" => Ok(Self::Quick),
            "standard" => Ok(Self::Standard),
            "paper" => Ok(Self::Paper),
            custom => {
                let Some((n, len)) = custom.split_once('x') else {
                    return Err(SuiteSpecError::BadSpec(custom.to_string()));
                };
                let Ok(n) = n.parse::<u32>() else {
                    return Err(SuiteSpecError::BadPerFamily);
                };
                let Ok(len) = len.parse::<usize>() else {
                    return Err(SuiteSpecError::BadLength);
                };
                if n == 0 || len == 0 {
                    return Err(SuiteSpecError::Degenerate);
                }
                Ok(Self::Sized { per_family: n, len })
            }
        }
    }

    /// Builds the corresponding context; its traces are built on first
    /// miss.
    ///
    /// # Errors
    ///
    /// As [`ExperimentContext::from_specs`].
    pub fn build(self) -> Result<ExperimentContext, ExperimentError> {
        ExperimentContext::from_specs(&self.specs(), &self.label())
    }

    /// The trace specs of the suite — a few bytes of identity (family,
    /// seed, length) each. The one statement of each suite's size.
    #[must_use]
    pub fn specs(self) -> Vec<TraceSpec> {
        match self {
            Self::Quick => suite(1, 10_000),
            Self::Standard => suite(7, 200_000),
            Self::Paper => suite(76, 200_000),
            Self::Sized { per_family, len } => suite(per_family, len),
        }
    }

    /// The suite label reports print.
    fn label(self) -> String {
        match self {
            Self::Quick => "quick (7×10k)".to_string(),
            Self::Standard => "standard (49×200k)".to_string(),
            Self::Paper => "paper (532×200k)".to_string(),
            Self::Sized { per_family, len } => format!("custom ({}×{len})", per_family * 7),
        }
    }
}

/// Everything an experiment needs: the calibrated models, the machine,
/// the suite's trace specs (which key the result cache), the traces kept
/// so far when the context keeps them, and the optional cache itself.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Calibrated timing model.
    pub timing: CycleTimeModel,
    /// Calibrated energy model.
    pub energy: EnergyModel,
    /// Machine configuration.
    pub core: CoreConfig,
    /// The suite. Content addressing hashes these (family, seed, length)
    /// rather than megabytes of generated uops.
    specs: Vec<TraceSpec>,
    /// `Some` when the context keeps its traces (a serving daemon's):
    /// `traces[t]` is built from `specs[t]` on first use, and every
    /// clone shares the one table. `None` builds a trace for each use
    /// and drops it after.
    traces: Option<Arc<[KeptTrace]>>,
    /// Synthesis counters every clone shares.
    residency: Arc<Residency>,
    /// Human-readable suite label for reports.
    pub suite_label: String,
    /// Worker threads for suite sweeps (sequential by default; every
    /// experiment's output is identical for any value).
    pub parallelism: Parallelism,
    /// Content-addressed result cache. When set, every suite run first
    /// consults it and only simulates the misses; results are byte-
    /// identical with or without it.
    pub cache: Option<Arc<ResultStore>>,
}

impl ExperimentContext {
    /// Builds a context from trace specs. Nothing is synthesized here:
    /// each trace is built by the first grid that misses on it.
    ///
    /// # Errors
    ///
    /// None today; a spec that cannot be synthesized fails the first
    /// grid that needs its trace.
    pub fn from_specs(specs: &[TraceSpec], label: &str) -> Result<Self, ExperimentError> {
        Ok(Self {
            timing: CycleTimeModel::silverthorne_45nm(),
            energy: EnergyModel::silverthorne_45nm(),
            core: CoreConfig::silverthorne(),
            specs: specs.to_vec(),
            traces: None,
            residency: Arc::default(),
            suite_label: label.to_string(),
            parallelism: Parallelism::sequential(),
            cache: None,
        })
    }

    /// Returns the context with suite sweeps fanned out over `par`
    /// worker threads. Results are unchanged — only wall-clock time.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Returns the context keeping each trace once built, in one table
    /// every clone made from here on shares; a context that keeps its
    /// traces already keeps its table. Serving daemons and clusters set
    /// this in their constructors: they answer grids over one suite for
    /// their whole life, and a trace built per group on their request
    /// threads would cost a build per grid and an allocator arena's
    /// worth of memory per thread. Results are unchanged — only how long
    /// a trace stays in memory.
    #[must_use]
    pub fn with_resident_traces(mut self) -> Self {
        if self.traces.is_none() {
            self.traces = Some(self.specs.iter().map(|_| OnceLock::new()).collect());
        }
        self
    }

    /// Returns the context with every suite run going through `store`.
    /// Results are unchanged — only which of them are simulated.
    #[must_use]
    pub fn with_cache(mut self, store: Arc<ResultStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Tiny suite (7 traces × 10k uops) — for tests and criterion benches.
    ///
    /// # Errors
    ///
    /// As [`from_specs`](Self::from_specs).
    pub fn quick() -> Result<Self, ExperimentError> {
        SuiteChoice::Quick.build()
    }

    /// Standard suite (49 traces × 200k uops) — the default for the
    /// `experiments` binary; a scaled-down stand-in for the paper's
    /// 531 × 10 M traces.
    ///
    /// # Errors
    ///
    /// As [`from_specs`](Self::from_specs).
    pub fn standard() -> Result<Self, ExperimentError> {
        SuiteChoice::Standard.build()
    }

    /// Custom suite size.
    ///
    /// # Errors
    ///
    /// As [`from_specs`](Self::from_specs).
    pub fn sized(per_family: u32, len: usize) -> Result<Self, ExperimentError> {
        SuiteChoice::Sized { per_family, len }.build()
    }

    /// The suite's trace specs, in suite order.
    #[must_use]
    pub fn specs(&self) -> &[TraceSpec] {
        &self.specs
    }

    /// Trace `t` of the suite (`t < specs().len()`). A context that keeps
    /// its traces lends the one built on first use (concurrent callers
    /// wait for that one build); otherwise each call synthesizes the
    /// trace afresh, and it is freed when the returned handle drops.
    ///
    /// # Errors
    ///
    /// Propagates the synthesis failure of `specs()[t]`, on every call.
    pub fn trace(&self, t: usize) -> Result<HeldTrace<'_>, ExperimentError> {
        let build = || self.residency.build(&self.specs[t]);
        let Some(table) = &self.traces else {
            return Ok(HeldTrace(Held::Built(build()?, &self.residency)));
        };
        // A mitigation of per-thread allocator arenas: on a short-lived thread
        // the generator's transient memory reuses one arena, not one per
        // request thread that first needs a trace. Even with the flat
        // `Program::build`, building on request threads instead read a cold
        // 3-shard cluster's peak RSS at 16.7–17.6 MB against 14.0–15.0 MB
        // here (the benchmark's `fleet_restart`, 6 pairs, 2 vCPUs).
        let on_own_thread = || {
            thread::scope(|s| match thread::Builder::new().spawn_scoped(s, build) {
                Ok(worker) => worker.join().unwrap_or_else(|p| panic::resume_unwind(p)),
                Err(_) => build(),
            })
        };
        match table[t].get_or_init(on_own_thread) {
            Ok(arena) => Ok(HeldTrace(Held::Resident(arena))),
            Err(e) => Err(e.clone().into()),
        }
    }

    /// Trace syntheses so far, by this context or any clone of it: once
    /// per trace for a context that keeps its traces, once per group that
    /// needs a trace otherwise.
    #[must_use]
    pub fn trace_builds(&self) -> usize {
        self.residency.builds.load(Ordering::Relaxed)
    }

    /// The most bytes of trace records ([`TraceArena::decoded_bytes`])
    /// this context and its clones held at once so far: at most `jobs` ×
    /// the largest arena for a batch run, every trace built so far for a
    /// context that keeps its traces.
    #[must_use]
    pub fn peak_resident_record_bytes(&self) -> usize {
        self.residency.peak.load(Ordering::Relaxed)
    }

    /// Whether `other` shares this context's kept traces: a trace either
    /// of them builds is built for both.
    #[must_use]
    pub fn shares_traces_with(&self, other: &Self) -> bool {
        match (&self.traces, &other.traces) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Total dynamic uops in the suite.
    #[must_use]
    pub fn total_uops(&self) -> usize {
        self.specs.iter().map(|s| s.len).sum()
    }

    /// Runs every configuration over the whole suite, batched per trace.
    /// Returns one [`SuiteResult`] per configuration, in `cfgs` order —
    /// byte-identical to one fresh simulation per (config, trace) pair
    /// (the `batch_vs_perpoint` suite asserts it). This is the one grid
    /// runner every experiment goes through.
    ///
    /// The call answers from the store where possible — without a cache,
    /// a store of its own that lives for the call — and simulates only
    /// the misses, which each round publishes as one segment
    /// ([`ResultStore::put_batch`]); the determinism guarantee of
    /// DESIGN.md §6 is what makes keyed reuse sound. One round groups
    /// every missing configuration of a trace into one group of the grid
    /// executor, so a worker replays that trace for all of them while it
    /// is hot in cache. The worker gets the trace from
    /// [`trace`](Self::trace) when it claims the group — built there, and
    /// dropped when the group is done, unless the context keeps its
    /// traces — so only traces with a miss are built.
    ///
    /// This is the one place equal projections collapse: configurations
    /// with equal cycle-level projections share a key
    /// ([`same_projection_as`]), so each distinct `(trace, key)` is
    /// looked up and simulated once per call; every copy handed back
    /// carries its own config's `cycle_time`, which overwrites the
    /// stored record's (a shared record keeps its first writer's). Every
    /// configuration is validated first, so a collapse never hides an
    /// invalid one.
    ///
    /// Misses go through the store's **single-flight** layer: this call
    /// simulates the keys it leads (as one parallel batch), then *waits*
    /// for keys a concurrent caller is simulating — so N identical
    /// concurrent runs simulate each key once, and distinct ones overlap.
    ///
    /// # Errors
    ///
    /// Propagates configuration, synthesis and simulation failures (an
    /// invalid configuration fails the call before any lookup, the first
    /// in `cfgs` order). The cache itself
    /// never errors a run: corrupt or unreadable entries are quarantined
    /// and re-simulated, and publish failures degrade the store to
    /// memory-only (see `store.rs`) — so output stays byte-identical
    /// even on a failing disk.
    pub fn run_suite_batch(&self, cfgs: &[SimConfig]) -> Result<Vec<SuiteResult>, ExperimentError> {
        // The projection drops `cycle_time`, which `validate` checks.
        cfgs.iter()
            .try_for_each(SimConfig::validate)
            .map_err(SimError::from)?;
        let local = ResultStore::ephemeral();
        let store = self.cache.as_deref().unwrap_or(&local);
        let mut slots: Vec<Vec<Option<(String, SimResult)>>> = cfgs
            .iter()
            .map(|_| self.specs.iter().map(|_| None).collect())
            .collect();
        // One lookup per distinct projection: `c` stands for every
        // config whose `firsts` entry is `c`, and `fill` hands each of
        // them the result stamped with its own cycle time. Each such `c`
        // hashes its key prefix once, for every trace (equal projections
        // have equal prefixes).
        let firsts = same_projection_as(cfgs);
        let mut prefixes: Vec<SimKeyPrefix> = Vec::with_capacity(cfgs.len());
        for (c, &f) in firsts.iter().enumerate() {
            let prefix = if c == f {
                SimKeyPrefix::new(&cfgs[c])
            } else {
                prefixes[f]
            };
            prefixes.push(prefix);
        }
        let names: Vec<String> = self.specs.iter().map(TraceSpec::name).collect();
        let mut fill = |t: usize, c: usize, result: &SimResult| {
            for (i, _) in firsts.iter().enumerate().filter(|&(_, &f)| f == c) {
                let stamped = SimResult {
                    cycle_time: cfgs[i].cycle_time,
                    ..result.clone()
                };
                slots[i][t] = Some((names[t].clone(), stamped));
            }
        };
        // Trace-major order, so one round's leaders arrive grouped by
        // trace and form one executor group per trace below.
        let mut unresolved: Vec<(usize, usize)> = (0..self.specs.len())
            .flat_map(|t| {
                firsts
                    .iter()
                    .enumerate()
                    .filter(|&(c, &f)| c == f)
                    .map(move |(c, _)| (t, c))
            })
            .collect();
        while !unresolved.is_empty() {
            let mut leaders: Vec<(usize, usize, SimKey, FlightGuard<'_>)> = Vec::new();
            let mut pending: Vec<(usize, usize, FlightWaiter)> = Vec::new();
            for &(t, c) in &unresolved {
                let k = prefixes[c].key(&self.specs[t]);
                match store.lookup(k) {
                    Flight::Hit(result) => fill(t, c, &result),
                    Flight::Lead(guard) => leaders.push((t, c, k, guard)),
                    Flight::Pending(waiter) => pending.push((t, c, waiter)),
                }
            }
            if !leaders.is_empty() {
                // One executor group per trace (leaders are trace-major,
                // so each trace's misses are one run): `run_batch_groups`
                // then gets the trace and replays it once per missing
                // configuration, back to back. On error the guards drop
                // unpublished, waking every waiter to re-arbitrate; the
                // error propagates here.
                let groups: Vec<(usize, Vec<SimConfig>)> = leaders
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|run| {
                        (
                            run[0].0,
                            run.iter().map(|(_, c, _, _)| cfgs[*c].clone()).collect(),
                        )
                    })
                    .collect();
                store.note_simulated_uops(
                    leaders
                        .iter()
                        .map(|(t, _, _, _)| self.specs[*t].len as u64)
                        .sum(),
                );
                let fresh = run_batch_groups(&groups, |&t| self.trace(t), self.parallelism)?;
                let batch: Vec<(SimKey, SimResult)> = leaders
                    .iter()
                    .zip(fresh.into_iter().flatten())
                    .map(|((_, _, k, _), result)| (*k, result))
                    .collect();
                // The whole round is one segment: one fsync, however
                // many misses it filled.
                store.put_batch(&batch);
                for ((t, c, _, guard), (_, result)) in leaders.into_iter().zip(&batch) {
                    drop(guard); // published: retires the flight, wakes waiters
                    fill(t, c, result);
                }
            }
            // A retired flight either published (next round hits) or was
            // abandoned by an erroring leader (next round claims it).
            unresolved = pending
                .into_iter()
                .map(|(t, c, waiter)| {
                    waiter.wait();
                    (t, c)
                })
                .collect();
        }
        Ok(slots
            .into_iter()
            .map(|per_trace| SuiteResult {
                per_trace: per_trace
                    .into_iter()
                    .map(|s| s.expect("every slot filled"))
                    .collect(),
            })
            .collect())
    }

    /// Baseline-vs-IRAW comparison at `vcc` over the suite
    /// ([`SimConfig::mechanism_pair`]), as one two-configuration grid
    /// through [`run_suite_batch`](Self::run_suite_batch).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn compare_mechanisms(
        &self,
        vcc: Millivolts,
    ) -> Result<MechanismComparison, ExperimentError> {
        let (base_cfg, iraw_cfg) = SimConfig::mechanism_pair(self.core, &self.timing, vcc);
        let [baseline, iraw]: [SuiteResult; 2] = self
            .run_suite_batch(&[base_cfg, iraw_cfg])?
            .try_into()
            .expect("two configs in, two suites out");
        Ok(MechanismComparison::new(&self.timing, vcc, baseline, iraw))
    }
}

/// One slot of a context's kept traces: empty until first use, then the
/// built arena or the synthesis failure, for good.
type KeptTrace = OnceLock<Result<TraceArena, TraceError>>;

/// Synthesis counters every clone of a context shares.
#[derive(Debug, Default)]
struct Residency {
    /// Syntheses started.
    builds: AtomicUsize,
    /// Record bytes of the arenas alive now.
    resident: AtomicUsize,
    /// The most `resident` has been.
    peak: AtomicUsize,
}

impl Residency {
    fn build(&self, spec: &TraceSpec) -> Result<TraceArena, TraceError> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        let arena = spec.build()?;
        let bytes = arena.decoded_bytes();
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(arena)
    }
}

/// A trace as [`ExperimentContext::trace`] hands it out: lent from the
/// context's kept traces, or built for this use and freed when the
/// handle drops. Dereferences to the [`TraceArena`].
#[derive(Debug)]
pub struct HeldTrace<'a>(Held<'a>);

#[derive(Debug)]
enum Held<'a> {
    Resident(&'a TraceArena),
    Built(TraceArena, &'a Residency),
}

impl Deref for HeldTrace<'_> {
    type Target = TraceArena;

    fn deref(&self) -> &TraceArena {
        match &self.0 {
            Held::Resident(arena) => arena,
            Held::Built(arena, _) => arena,
        }
    }
}

impl Drop for HeldTrace<'_> {
    fn drop(&mut self) {
        if let Held::Built(arena, residency) = &self.0 {
            residency
                .resident
                .fetch_sub(arena.decoded_bytes(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{stalls, sweep, table1};
    use lowvcc_core::canon::{encode_cycle_config, encode_trace_spec, fnv1a_128, CanonWriter};
    use lowvcc_core::{sim_key, ConfigError, ENGINE_SEMANTICS_VERSION};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::PAPER_SWEEP;

    /// The key of `(cfg, spec)` hashed in one pass over its whole
    /// encoding, as keys were made before prefixes.
    fn one_pass_key(cfg: &SimConfig, spec: &TraceSpec) -> SimKey {
        let mut w = CanonWriter::new();
        w.str("lowvcc-simkey");
        w.u32(ENGINE_SEMANTICS_VERSION);
        encode_cycle_config(&mut w, &cfg.cycle_config());
        encode_trace_spec(&mut w, spec);
        SimKey::from_value(fnv1a_128(w.bytes()))
    }

    /// Every key the batch runner makes from a saved prefix is the key
    /// `sim_key` makes and the one-pass hash, for every config of the
    /// sweep, Table 1 and stall grids (at every sweep voltage) over the
    /// quick suite.
    #[test]
    fn prefix_keys_match_sim_key_on_every_grid() {
        let ctx = ExperimentContext::quick().unwrap();
        let mut grid = sweep::configs(&ctx);
        for vcc in PAPER_SWEEP.iter() {
            grid.extend(table1::configs(&ctx, vcc));
            grid.extend(stalls::configs(&ctx, vcc));
        }
        for cfg in &grid {
            let prefix = SimKeyPrefix::new(cfg);
            for spec in ctx.specs() {
                let key = prefix.key(spec);
                assert_eq!(key, sim_key(cfg, spec), "{cfg:?} {spec:?}");
                assert_eq!(key, one_pass_key(cfg, spec), "{cfg:?} {spec:?}");
            }
        }
    }

    #[test]
    fn a_batch_context_builds_each_use_and_frees_it() {
        let ctx = ExperimentContext::quick().unwrap();
        assert_eq!(ctx.specs().len(), 7);
        assert_eq!(ctx.total_uops(), 70_000);
        assert!(ctx.suite_label.contains("quick"));
        assert_eq!(
            (ctx.trace_builds(), ctx.peak_resident_record_bytes()),
            (0, 0)
        );
        let clone = ctx.clone();
        for (t, spec) in ctx.specs().iter().enumerate() {
            assert_eq!(
                spec.name(),
                ctx.trace(t).unwrap().name(),
                "specs track traces"
            );
        }
        let (a, b) = (clone.trace(0).unwrap(), clone.trace(0).unwrap());
        assert!(!std::ptr::eq(&*a, &*b), "each use builds its own");
        assert_eq!(ctx.trace_builds(), 9, "clones count together");
        // One trace at a time until the last two: 10k uops and a pc break.
        assert_eq!(ctx.peak_resident_record_bytes(), 2 * (8 * 10_000 + 16));
        assert!(!ctx.shares_traces_with(&clone));
    }

    #[test]
    fn clones_share_one_kept_trace_table() {
        let ctx = ExperimentContext::sized(1, 1_000)
            .unwrap()
            .with_resident_traces();
        let cached = ctx.clone().with_cache(Arc::new(ResultStore::ephemeral()));
        let threaded = ctx.clone().with_parallelism(Parallelism::threads(2));
        assert!(ctx.shares_traces_with(&cached) && ctx.shares_traces_with(&threaded));
        assert!(ctx.clone().with_resident_traces().shares_traces_with(&ctx));
        let other = ExperimentContext::sized(1, 1_000)
            .unwrap()
            .with_resident_traces();
        assert!(!ctx.shares_traces_with(&other));
        // Racing first uses build each trace once, for every clone.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for c in [&cached, &threaded] {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    (0..7).for_each(|t| assert!(c.trace(t).is_ok()));
                });
            }
        });
        assert_eq!(ctx.trace_builds(), 7);
        assert!(std::ptr::eq(
            &*ctx.trace(3).unwrap(),
            &*cached.trace(3).unwrap()
        ));
        assert_eq!(ctx.trace_builds(), 7, "kept traces are lent, not rebuilt");
        assert_eq!(ctx.peak_resident_record_bytes(), 7 * (8 * 1_000 + 16));
        assert_eq!(other.trace_builds(), 0);
    }

    #[test]
    fn suite_choice_specs_match_built_contexts() {
        // Each suite's size and label are stated once, in `SuiteChoice`,
        // and building its context synthesizes nothing, `paper` included.
        let sized = SuiteChoice::Sized {
            per_family: 2,
            len: 5_000,
        };
        for (choice, label, traces, len) in [
            (SuiteChoice::Quick, "quick (7×10k)", 7, 10_000),
            (SuiteChoice::Standard, "standard (49×200k)", 49, 200_000),
            (SuiteChoice::Paper, "paper (532×200k)", 532, 200_000),
            (sized, "custom (14×5000)", 14, 5_000),
        ] {
            assert_eq!(choice.label(), label);
            let specs = choice.specs();
            assert_eq!(specs.len(), traces, "{label}");
            assert!(specs.iter().all(|s| s.len == len), "{label}");
            let ctx = choice.build().unwrap();
            assert_eq!(ctx.specs(), choice.specs());
            assert_eq!(ctx.suite_label, label);
            assert_eq!(
                ctx.trace_builds(),
                0,
                "{label}: building a context synthesizes nothing"
            );
        }
    }

    #[test]
    fn sized_context_scales() {
        let ctx = ExperimentContext::sized(2, 5_000).unwrap();
        assert_eq!(ctx.specs().len(), 14);
        assert_eq!(ctx.total_uops(), 70_000);
    }

    #[test]
    fn batched_cached_suite_matches_per_config_runs() {
        let ctx = ExperimentContext::sized(1, 3_000).unwrap();
        let cfgs: Vec<SimConfig> = [475u32, 500]
            .iter()
            .flat_map(|&v| {
                let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, mv(v));
                [base, iraw]
            })
            .collect();
        // Reference: one single-config grid per configuration.
        let per_cfg: Vec<SuiteResult> = cfgs
            .iter()
            .flat_map(|c| ctx.run_suite_batch(std::slice::from_ref(c)).unwrap())
            .collect();
        let uncached = ctx.run_suite_batch(&cfgs).unwrap();
        assert_eq!(per_cfg, uncached);

        let store = Arc::new(ResultStore::ephemeral());
        let ctx = ctx.with_cache(Arc::clone(&store));
        let cold = ctx.run_suite_batch(&cfgs).unwrap();
        assert_eq!(store.stats().misses, 28, "4 cfgs × 7 traces, all simulated");
        let warm = ctx.run_suite_batch(&cfgs).unwrap();
        assert_eq!(store.stats().misses, 28, "warm batch simulates nothing");
        assert_eq!(store.stats().hits, 28);
        assert_eq!(per_cfg, cold);
        assert_eq!(cold, warm);
    }

    #[test]
    fn concurrent_batched_runs_simulate_each_key_once() {
        let ctx = ExperimentContext::sized(1, 2_000).unwrap();
        let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, mv(500));
        let cfgs = vec![base, iraw];
        let sequential = ctx.run_suite_batch(&cfgs).unwrap();
        let store = Arc::new(ResultStore::ephemeral());
        let ctx = ctx.with_cache(Arc::clone(&store));
        let results: Vec<Vec<SuiteResult>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| ctx.run_suite_batch(&cfgs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        // Single-flight still holds under per-trace batching: 4 identical
        // cold batches cost one simulation per (config, trace) key.
        assert_eq!(store.stats().misses, 14, "one simulation per key");
        assert_eq!(store.stats().stores, 14);
        for r in &results {
            assert_eq!(*r, sequential);
        }
    }

    #[test]
    fn cached_comparison_matches_uncached() {
        let ctx = ExperimentContext::sized(1, 3_000).unwrap();
        // Reference: one fresh simulator per (config, trace) pair, each
        // trace built afresh from its spec.
        let direct = |cfg: SimConfig| {
            let sim = lowvcc_core::Simulator::new(cfg).unwrap();
            let run = |spec: &TraceSpec| {
                let t = spec.build().unwrap();
                (t.name().to_string(), sim.run(&t).unwrap())
            };
            SuiteResult {
                per_trace: ctx.specs().iter().map(run).collect(),
            }
        };
        let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, mv(500));
        let direct = MechanismComparison::new(&ctx.timing, mv(500), direct(base), direct(iraw));
        assert_eq!(direct, ctx.compare_mechanisms(mv(500)).unwrap());
        let cached_ctx = ctx.with_cache(Arc::new(ResultStore::ephemeral()));
        let through_cache = cached_ctx.compare_mechanisms(mv(500)).unwrap();
        assert_eq!(direct, through_cache);
    }

    #[test]
    fn non_finite_clocks_fail_the_grid() {
        let ctx = ExperimentContext::sized(1, 1_000).unwrap();
        let (good, _) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, mv(500));
        let store = Arc::new(ResultStore::ephemeral());
        let cached = ctx.clone().with_cache(Arc::clone(&store));
        for value in [f64::NAN, f64::INFINITY] {
            let mut clock = good.clone();
            clock.cycle_time = lowvcc_sram::Picoseconds::new(value);
            let mut memory = good.clone();
            memory.core.memory_latency_ns = value;
            for ctx in [&ctx, &cached] {
                let err = ctx.run_suite_batch(&[good.clone(), clock.clone()]);
                assert!(
                    matches!(
                        err,
                        Err(ExperimentError::Sim(SimError::Config(
                            ConfigError::NonPositiveCycleTime
                        )))
                    ),
                    "cycle time {value}: {err:?}"
                );
                let err = ctx.run_suite_batch(&[memory.clone()]);
                assert!(
                    matches!(
                        err,
                        Err(ExperimentError::Sim(SimError::Config(
                            ConfigError::NonPositiveMemoryLatency { .. }
                        )))
                    ),
                    "memory latency {value}: {err:?}"
                );
            }
        }
        assert_eq!(store.stats().misses, 0, "nothing simulated");
    }

    #[test]
    fn collapse_never_hides_an_invalid_config() {
        // A zero cycle time and a 1e-300 ps clock both saturate the
        // memory latency to `u64::MAX` cycles, so the two project equal
        // and share a key. Each is invalid on its own count, and every
        // configuration is validated before any collapse, so the first
        // invalid one in `cfgs` order is the one reported.
        let ctx = ExperimentContext::sized(1, 1_000).unwrap();
        let (good, _) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, mv(500));
        let mut instant = good.clone();
        instant.cycle_time = lowvcc_sram::Picoseconds::new(1e-300);
        let mut stopped = good.clone();
        stopped.cycle_time = lowvcc_sram::Picoseconds::new(0.0);
        assert_eq!(
            same_projection_as(&[instant.clone(), stopped.clone()]),
            [0, 0]
        );
        let mut bad = good.clone();
        bad.core.iq_entries = 33;
        let too_long = ConfigError::MemoryLatencyTooLong { cycles: u64::MAX };
        let cases = [
            (vec![instant.clone(), stopped.clone()], too_long),
            (
                vec![stopped.clone(), instant],
                ConfigError::NonPositiveCycleTime,
            ),
            (
                vec![good, bad, stopped],
                ConfigError::IqNotPowerOfTwo { entries: 33 },
            ),
        ];
        for jobs in [1, 2] {
            let ctx = ctx.clone().with_parallelism(Parallelism::threads(jobs));
            let store = Arc::new(ResultStore::ephemeral());
            for ctx in [ctx.clone(), ctx.with_cache(Arc::clone(&store))] {
                for (cfgs, want) in &cases {
                    let err = ctx
                        .run_suite_batch(cfgs)
                        .expect_err("an invalid config must surface");
                    assert!(
                        matches!(err, ExperimentError::Sim(SimError::Config(e)) if e == *want),
                        "unexpected error {err:?} at {jobs} jobs, want {want:?}"
                    );
                }
            }
            assert_eq!(
                store.stats().misses,
                0,
                "nothing simulated before the error"
            );
        }
        assert_eq!(ctx.trace_builds(), 0, "nothing built before the error");
    }
}
