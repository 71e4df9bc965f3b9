//! What one workload run found, and how it is printed.
//!
//! Every line but the last is for people: metrics by name with their
//! unit, each timing's median / supported tail / sample count, the
//! paper anchors and the counter findings. The last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

use crate::stats::{summarize, Summary};

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `report_s`.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A timing kept with all its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Timing name, e.g. `sweep_ms`.
    pub name: String,
    /// Unit of the samples.
    pub unit: &'static str,
    /// Median, tail and count.
    pub summary: Summary,
}

/// Everything a workload run (or the traced layer run) produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong, an error or late past
    /// its timeout.
    pub failed: u64,
    /// The first few mismatches, described.
    pub mismatches: Vec<String>,
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Timings with their sample summaries.
    pub timings: Vec<Timing>,
    /// Paper anchors, counter reconciliations and other notes.
    pub notes: Vec<String>,
}

/// Mismatch descriptions kept per run (the count is always exact).
const MAX_MISMATCH_NOTES: usize = 8;

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < MAX_MISMATCH_NOTES {
                self.mismatches.push(what());
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Adds a timing from its samples and returns its summary.
    pub fn timing(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        samples: &[f64],
    ) -> Summary {
        let summary = summarize(samples);
        self.timings.push(Timing {
            name: name.into(),
            unit,
            summary,
        });
        summary
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Folds another outcome's checks, metrics, timings and notes in.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.mismatches {
            if self.mismatches.len() < MAX_MISMATCH_NOTES {
                self.mismatches.push(m);
            }
        }
        self.metrics.extend(other.metrics);
        self.timings.extend(other.timings);
        self.notes.extend(other.notes);
    }

    /// Whether every checked output was right.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines, prefixed with `label`.
    #[must_use]
    pub fn human(&self, label: &str) -> String {
        let mut out = String::new();
        for t in &self.timings {
            let s = &t.summary;
            let _ = writeln!(
                out,
                "[{label}] timing {:<34} p50 {:>12.4} {u}  p{:<4} {:>12.4} {u}  min {:>12.4} {u}  n={}",
                t.name,
                s.median,
                s.tail_pct,
                s.tail,
                s.min,
                s.n,
                u = t.unit
            );
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "[{label}] metric {:<40} {:>16.6} {}",
                m.name, m.value, m.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "[{label}] note   {n}");
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "[{label}] WRONG  {m}");
        }
        let _ = writeln!(
            out,
            "[{label}] checks {} attempted, {} failed",
            self.attempted, self.failed
        );
        out
    }
}

/// Renders `x` for the result line: full precision, never `NaN`/`inf`
/// (those become 0, and the caller's checks already failed the run).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The final result line: `metrics` holds exactly `selected`, in order.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, selected: &[Metric]) -> String {
    let body: Vec<String> = selected
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_strict_json() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.25,
            }],
        );
        let v = lowvcc_bench::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
