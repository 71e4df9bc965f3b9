//! The experiment implementations, one module per paper artefact.

pub mod fig1;
pub mod fig11a;
pub mod scalars;
pub mod stalls;
pub mod sweep;
pub mod table1;

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lowvcc_core::SuiteResult;
use lowvcc_sram::PAPER_SWEEP;

use crate::context::ExperimentContext;
use crate::error::ExperimentError;
use crate::report::TextTable;
use crate::store::ResultStore;

/// Re-exported for Figure 11b / Figure 12 consumers.
pub use sweep::{point_from, point_json, run_sweep_at, SweepPoint};

fn save(table: &TextTable, path: &Path) -> Result<(), ExperimentError> {
    table.write_csv(path).map_err(ExperimentError::io_at(path))
}

/// Everything `run_all` produced: the rendered report plus the raw sweep
/// measurements and their throughput, for machine-readable emission.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The combined human-readable report.
    pub report: String,
    /// The baseline-vs-IRAW sweep behind Figures 11b/12.
    pub sweep: Vec<SweepPoint>,
    /// Wall-clock time of the sweep alone.
    pub sweep_elapsed: Duration,
    /// Dynamic uops the *engine actually simulated* during the sweep
    /// (every distinct simulation of the voltage × mechanism grid), the
    /// numerator of the throughput figure. Cache hits contribute
    /// nothing: a fully warm cached sweep reports 0, not a fictitious
    /// engine throughput.
    pub sweep_uops: u64,
    /// Engine runs over the whole run: the misses of the store it went
    /// through, one per distinct simulation. A fully warm run reports 0.
    pub simulated: u64,
}

impl RunSummary {
    /// Simulated uops per wall-clock second over the sweep, as the
    /// `experiments` binary reports it. Zero-duration sweeps (an
    /// empty suite, a fully-cached warm run on a coarse clock) yield
    /// `0.0`, never `inf`/`NaN` — the JSON writer would otherwise have
    /// nothing valid to emit.
    #[must_use]
    pub fn uops_per_second(&self) -> f64 {
        let secs = self.sweep_elapsed.as_secs_f64();
        if secs > 0.0 && secs.is_finite() {
            self.sweep_uops as f64 / secs
        } else {
            0.0
        }
    }

    /// Machine-readable sweep results: suite metadata, throughput, and
    /// one record per voltage point. Always a single line of valid JSON:
    /// every float goes through [`json::number`](crate::json::number), which renders
    /// non-finite values as `null` instead of emitting them verbatim.
    #[must_use]
    pub fn to_json(&self, suite_label: &str, suite_uops: usize, jobs: usize) -> String {
        use crate::json;
        let points: Vec<String> = self.sweep.iter().map(sweep::point_json).collect();
        let mut out = json::object(&[
            ("suite", json::string(suite_label)),
            ("suite_uops", suite_uops.to_string()),
            ("jobs", jobs.to_string()),
            (
                "sweep_elapsed_seconds",
                json::number(self.sweep_elapsed.as_secs_f64()),
            ),
            ("sweep_simulated_uops", self.sweep_uops.to_string()),
            ("uops_per_second", json::number(self.uops_per_second())),
            ("points", json::array(&points)),
        ]);
        out.push('\n');
        out
    }
}

/// Runs every experiment, writing CSVs under `out_dir` and returning the
/// report plus the raw sweep data. Without a cache on `ctx`, the run
/// goes through an in-memory store of its own.
///
/// # Errors
///
/// Propagates simulation failures and CSV I/O failures (with the
/// offending path attached).
pub fn run_all(ctx: &ExperimentContext, out_dir: &Path) -> Result<RunSummary, ExperimentError> {
    // One store for every grid: they share keys, and it counts the work.
    let mut ctx = ctx.clone();
    let store = Arc::clone(
        ctx.cache
            .get_or_insert_with(|| Arc::new(ResultStore::ephemeral())),
    );
    let ctx = &ctx;
    let misses_before = store.stats().misses;
    let mut report = String::new();

    report.push_str(&format!(
        "# lowvcc experiment report — suite: {} ({} uops total)\n\n",
        ctx.suite_label,
        ctx.total_uops()
    ));

    report.push_str("## Figure 1 — delay vs Vcc (normalized to 12 FO4 @ 700 mV)\n");
    let t = fig1::table(ctx);
    save(&t, &out_dir.join("fig1.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    report.push_str("## Figure 11a — cycle time vs Vcc (normalized to 24 FO4 @ 700 mV)\n");
    let t = fig11a::table(ctx);
    save(&t, &out_dir.join("fig11a.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    let uops_before = store.stats().simulated_uops;
    // lint: allow(no-wallclock) -- report metadata only; never feeds a simulated result
    let sweep_started = Instant::now();
    let points = sweep::run_sweep_at(ctx, PAPER_SWEEP.iter())?;
    let sweep_elapsed = sweep_started.elapsed();
    // Throughput numerator: engine work only, as the store counted it.
    let sweep_uops = store.stats().simulated_uops - uops_before;

    report.push_str("## Figure 11b — frequency increase and performance gains\n");
    let t = sweep::fig11b_table(&points);
    save(&t, &out_dir.join("fig11b.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    report.push_str("## Figure 12 — IRAW-relative energy, delay and EDP\n");
    let t = sweep::fig12_table(&points);
    save(&t, &out_dir.join("fig12.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    report.push_str("## Table 1 — technique comparison (qualitative)\n");
    let t = table1::qualitative();
    save(&t, &out_dir.join("table1_qualitative.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    // Table 1's measured rows and the stall study run as one grid, so
    // each trace is built once for both; each reads its slice.
    let mut grid = table1::configs(ctx, table1::DEFAULT_VCC);
    let table1_len = grid.len();
    grid.extend(stalls::configs(ctx, stalls::DEFAULT_VCC));
    let mut table1_suites = ctx.run_suite_batch(&grid)?;
    let [iraw, free]: [SuiteResult; 2] = table1_suites
        .split_off(table1_len)
        .try_into()
        .expect("two stall configs in, two suites out");

    report.push_str("## Table 1 companion — measured at 500 mV\n");
    let rows = table1::rows_from(ctx, table1::DEFAULT_VCC, &table1_suites);
    let t = table1::rows_table(&rows);
    save(&t, &out_dir.join("table1_quantitative.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    report.push_str("## §5.2 — stall attribution at 575 mV\n");
    let t = stalls::render(&stalls::report(stalls::DEFAULT_VCC, &iraw, &free));
    save(&t, &out_dir.join("stalls_575mv.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    report.push_str("## Scalar results (paper §5.2, §4.5, §5.3)\n");
    let t = scalars::table(&points)?;
    save(&t, &out_dir.join("scalars.csv"))?;
    report.push_str(&t.render());
    report.push('\n');

    Ok(RunSummary {
        report,
        sweep: points,
        sweep_elapsed,
        sweep_uops,
        simulated: store.stats().misses - misses_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn zero_duration_summary() -> RunSummary {
        RunSummary {
            report: String::new(),
            sweep: Vec::new(),
            sweep_elapsed: Duration::ZERO,
            sweep_uops: 1_000_000,
            simulated: 0,
        }
    }

    #[test]
    fn zero_duration_throughput_is_zero_not_nan() {
        let s = zero_duration_summary();
        assert_eq!(s.uops_per_second(), 0.0);
        assert!(s.uops_per_second().is_finite());
    }

    #[test]
    fn zero_duration_json_is_still_valid() {
        let s = zero_duration_summary();
        let doc = s.to_json("smoke (0×0)", 0, 1);
        let v = json::parse(&doc).expect("valid JSON even with degenerate timing");
        assert_eq!(v.get("uops_per_second").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("points").unwrap().as_array().unwrap().len(), 0);
    }
}
