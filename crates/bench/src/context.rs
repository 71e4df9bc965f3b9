//! Shared experiment context: models, machine configuration, the trace
//! suite, and the optional result cache every experiment runs through.
//!
//! The suite is synthesized straight into [`TraceArena`]s once, when the
//! context is built, and held behind an `Arc`: every clone of a context
//! (each shard of an in-process cluster, say) shares that one decoded
//! copy, and no grid run decodes or validates a trace again.

use std::sync::Arc;

use lowvcc_core::{
    run_batch_groups, same_projection_as, sim_key, CoreConfig, MechanismComparison, Parallelism,
    SimConfig, SimKey, SimResult, SuiteResult,
};

use crate::error::ExperimentError;
use crate::store::{Flight, FlightGuard, FlightWaiter, ResultStore};
use lowvcc_energy::EnergyModel;
use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::{suite, TraceArena, TraceSpec};

/// A parsed suite choice — the one grammar behind the `--suite` flag of
/// both the `experiments` binary and `lowvcc-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteChoice {
    /// 7 traces × 10k uops.
    Quick,
    /// 49 traces × 200k uops.
    Standard,
    /// 532 traces × 200k uops.
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

    /// Builds the corresponding context (generates the traces).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn build(self) -> Result<ExperimentContext, ExperimentError> {
        ExperimentContext::from_specs(&self.specs(), &self.label())
    }

    /// The trace specs [`build`](Self::build) constructs its suite
    /// from, *without* generating any trace — specs are a few bytes of
    /// identity (family, seed, length). The one statement of each
    /// suite's size.
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
/// a built trace suite (plus the specs that generated it, which key the
/// result cache), and the optional cache itself.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Calibrated timing model.
    pub timing: CycleTimeModel,
    /// Calibrated energy model.
    pub energy: EnergyModel,
    /// Machine configuration.
    pub core: CoreConfig,
    /// The workload suite, built once and shared by every clone.
    pub suite: Arc<[TraceArena]>,
    /// The specs the suite was built from, index-aligned with `suite`.
    /// Content addressing hashes these (family, seed, length) rather
    /// than megabytes of generated uops.
    pub specs: Vec<TraceSpec>,
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
    /// Builds a context from trace specs.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn from_specs(specs: &[TraceSpec], label: &str) -> Result<Self, ExperimentError> {
        let suite = specs
            .iter()
            .map(TraceSpec::build)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            timing: CycleTimeModel::silverthorne_45nm(),
            energy: EnergyModel::silverthorne_45nm(),
            core: CoreConfig::silverthorne(),
            suite: suite.into(),
            specs: specs.to_vec(),
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
    /// Propagates trace-generation failures.
    pub fn quick() -> Result<Self, ExperimentError> {
        SuiteChoice::Quick.build()
    }

    /// Standard suite (49 traces × 200k uops) — the default for the
    /// `experiments` binary; a scaled-down stand-in for the paper's
    /// 531 × 10 M traces.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn standard() -> Result<Self, ExperimentError> {
        SuiteChoice::Standard.build()
    }

    /// Paper-scale suite (532 traces × 200k uops — the closest
    /// 7-family multiple of the paper's 531 traces, at a trace length
    /// the parallel runner sweeps in minutes rather than days).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn paper() -> Result<Self, ExperimentError> {
        SuiteChoice::Paper.build()
    }

    /// Custom suite size.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn sized(per_family: u32, len: usize) -> Result<Self, ExperimentError> {
        SuiteChoice::Sized { per_family, len }.build()
    }

    /// Total dynamic uops in the suite.
    #[must_use]
    pub fn total_uops(&self) -> usize {
        self.suite.iter().map(TraceArena::len).sum()
    }

    /// Bytes of decoded trace the suite holds: 8 per uop plus 16 per pc
    /// break, one break per synthesized trace.
    #[must_use]
    pub fn decoded_bytes(&self) -> usize {
        self.suite.iter().map(TraceArena::decoded_bytes).sum()
    }

    /// Runs every configuration over the whole suite, batched per trace:
    /// all of `cfgs` replay one trace's arena back to back through a
    /// reused engine workspace. Returns one [`SuiteResult`] per
    /// configuration, in `cfgs` order — byte-identical to one fresh
    /// simulation per (config, trace) pair (the `batch_vs_perpoint` suite
    /// asserts it). This is the one cached grid runner every experiment
    /// goes through.
    ///
    /// With a cache, the call answers from the store where possible and
    /// simulates only the misses, which each round publishes as one
    /// segment ([`ResultStore::put_batch`]); output is
    /// bit-identical to the uncached run — the determinism guarantee of
    /// DESIGN.md §6 is what makes keyed reuse sound. Misses are batched
    /// **per trace**: one round groups every missing configuration of a
    /// trace into one group of the grid executor, so a worker replays
    /// that trace for all of them while it is hot in cache.
    ///
    /// Configurations with equal cycle-level projections share a key
    /// ([`same_projection_as`]), so each distinct `(trace, key)` is
    /// looked up and simulated once per call; every copy handed back
    /// carries its own config's `cycle_time`, which overwrites the
    /// stored record's (a shared record keeps its first writer's).
    ///
    /// Misses go through the store's **single-flight** layer: this call
    /// simulates only the keys it claims leadership of (as one parallel
    /// batch over the grid executor) and *waits* for keys some
    /// concurrent caller is already simulating — so N identical
    /// concurrent runs perform each simulation exactly once. Waiting
    /// happens after our own batch, so concurrent distinct workloads
    /// overlap instead of serializing.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures. The cache itself never errors a
    /// run: corrupt or unreadable entries are quarantined and
    /// re-simulated, and publish failures degrade the store to
    /// memory-only (see `store.rs`) — so output stays byte-identical
    /// even on a failing disk.
    ///
    /// # Panics
    ///
    /// Panics when a cache is configured and `specs` has drifted out of
    /// alignment with `suite` (both are public fields; keep them
    /// index-aligned).
    pub fn run_suite_batch(&self, cfgs: &[SimConfig]) -> Result<Vec<SuiteResult>, ExperimentError> {
        let Some(store) = &self.cache else {
            return Ok(lowvcc_core::run_suite_batch(
                cfgs,
                &self.suite,
                self.parallelism,
            )?);
        };
        // Hard assert, not debug: both fields are public, and a silent
        // zip truncation here would make the cached path drop the tail
        // of a misaligned suite — cache on/off changing results.
        assert_eq!(
            self.specs.len(),
            self.suite.len(),
            "ExperimentContext.specs must stay index-aligned with .suite"
        );
        let mut slots: Vec<Vec<Option<(String, SimResult)>>> = cfgs
            .iter()
            .map(|_| self.suite.iter().map(|_| None).collect())
            .collect();
        // One lookup per distinct projection: `c` stands for every
        // config whose `firsts` entry is `c`, and `fill` hands each of
        // them the result stamped with its own cycle time.
        let firsts = same_projection_as(cfgs);
        let mut fill = |t: usize, c: usize, result: &SimResult| {
            for (i, _) in firsts.iter().enumerate().filter(|&(_, &f)| f == c) {
                let stamped = SimResult {
                    cycle_time: cfgs[i].cycle_time,
                    ..result.clone()
                };
                slots[i][t] = Some((self.suite[t].name().to_string(), stamped));
            }
        };
        // Trace-major order, so one round's leaders arrive grouped by
        // trace and form one executor group per trace below.
        let mut unresolved: Vec<(usize, usize)> = (0..self.suite.len())
            .flat_map(|t| {
                firsts
                    .iter()
                    .enumerate()
                    .filter(|&(c, &f)| c == f)
                    .map(move |(c, _)| (t, c))
            })
            .collect();
        while !unresolved.is_empty() {
            let mut leaders: Vec<(usize, usize, FlightGuard<'_>)> = Vec::new();
            let mut pending: Vec<(usize, usize, FlightWaiter)> = Vec::new();
            for &(t, c) in &unresolved {
                match store.lookup(sim_key(&cfgs[c], &self.specs[t])) {
                    Flight::Hit(result) => fill(t, c, &result),
                    Flight::Lead(guard) => leaders.push((t, c, guard)),
                    Flight::Pending(waiter) => pending.push((t, c, waiter)),
                }
            }
            if !leaders.is_empty() {
                // Group this round's misses per *trace* (leaders are
                // trace-major, so consecutive runs share an index):
                // `run_batch_groups` then replays each trace once per
                // missing configuration, back to back.
                let mut groups: Vec<(usize, Vec<SimConfig>)> = Vec::new();
                for (t, c, _) in &leaders {
                    match groups.last_mut() {
                        Some((ti, group)) if ti == t => group.push(cfgs[*c].clone()),
                        _ => groups.push((*t, vec![cfgs[*c].clone()])),
                    }
                }
                store.note_simulated_uops(
                    leaders
                        .iter()
                        .map(|(t, _, _)| self.suite[*t].len() as u64)
                        .sum(),
                );
                // On error the guards drop unpublished, waking every
                // waiter to re-arbitrate; the error propagates here.
                let fresh = run_batch_groups(&groups, &self.suite, self.parallelism)?;
                let batch: Vec<(SimKey, SimResult)> = leaders
                    .iter()
                    .zip(fresh.into_iter().flatten())
                    .map(|((t, c, _), result)| (sim_key(&cfgs[*c], &self.specs[*t]), result))
                    .collect();
                // The whole round is one segment: one fsync, however
                // many misses it filled.
                store.put_batch(&batch);
                for ((t, c, guard), (_, result)) in leaders.into_iter().zip(&batch) {
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

    /// Baseline-vs-IRAW comparison at `vcc` over the suite, as one
    /// two-configuration batch through the cache. The cache-aware
    /// equivalent of [`lowvcc_core::compare_mechanisms`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use lowvcc_sram::voltage::mv;

    #[test]
    fn quick_context_builds() {
        let ctx = ExperimentContext::quick().unwrap();
        assert_eq!(ctx.suite.len(), 7);
        assert_eq!(ctx.specs.len(), 7);
        assert_eq!(ctx.total_uops(), 70_000);
        assert!(ctx.suite_label.contains("quick"));
        for (spec, trace) in ctx.specs.iter().zip(ctx.suite.iter()) {
            assert_eq!(spec.name(), trace.name(), "specs track traces");
        }
        assert_eq!(ctx.decoded_bytes(), 8 * 70_000 + 16 * 7);
    }

    #[test]
    fn clones_share_one_decoded_suite() {
        let ctx = ExperimentContext::sized(1, 1_000).unwrap();
        let cached = ctx.clone().with_cache(Arc::new(ResultStore::ephemeral()));
        let threaded = ctx.clone().with_parallelism(Parallelism::threads(2));
        assert!(Arc::ptr_eq(&ctx.suite, &cached.suite));
        assert!(Arc::ptr_eq(&ctx.suite, &threaded.suite));
    }

    #[test]
    fn suite_choice_specs_match_built_contexts() {
        // Each suite's size and label are stated once, in `SuiteChoice`,
        // and the named constructors build exactly that.
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
        }
        // Building synthesizes the suite, so only the small ones are
        // built here; `standard` and `paper` go through the same
        // `build()`.
        for (choice, ctx) in [
            (SuiteChoice::Quick, ExperimentContext::quick().unwrap()),
            (sized, ExperimentContext::sized(2, 5_000).unwrap()),
        ] {
            assert_eq!(ctx.specs, choice.specs());
            assert_eq!(ctx.suite_label, choice.label());
        }
    }

    #[test]
    fn sized_context_scales() {
        let ctx = ExperimentContext::sized(2, 5_000).unwrap();
        assert_eq!(ctx.suite.len(), 14);
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
        let direct = lowvcc_core::compare_mechanisms(
            ctx.core,
            &ctx.timing,
            mv(500),
            &ctx.suite,
            ctx.parallelism,
        )
        .unwrap();
        let cached_ctx = ctx.with_cache(Arc::new(ResultStore::ephemeral()));
        let through_cache = cached_ctx.compare_mechanisms(mv(500)).unwrap();
        assert_eq!(direct, through_cache);
    }
}
