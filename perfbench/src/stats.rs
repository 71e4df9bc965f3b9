//! Sample summaries: medians, percentiles and the tail a sample count
//! can support.

/// The value at quantile `q` (0..=1) of `values`, by linear
/// interpolation between closest ranks; `NaN` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentiles a tail may be reported at, in per-mille, highest first.
const TAILS_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A timing's report: its median, the highest percentile that still has
/// at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Which percentile `tail` is (99.0 means p99).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Smallest sample.
    pub min: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest of p99.9, p99, p95, p90, p75 with at least ten samples
/// beyond it (p50 when there are fewer than 40 samples).
#[must_use]
pub fn supported_tail(n: usize) -> f64 {
    let per_mille = TAILS_PER_MILLE
        .iter()
        .copied()
        .find(|pm| n.saturating_mul(1000 - pm) >= 10 * 1000)
        .unwrap_or(500);
    per_mille as f64 / 10.0
}

/// Summarises `values`.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let tail_pct = supported_tail(values.len());
    Summary {
        median: median(values),
        tail_pct,
        tail: quantile(values, tail_pct / 100.0),
        min: quantile(values, 0.0),
        n: values.len(),
    }
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(10), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
    }
}
