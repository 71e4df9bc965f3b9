//! Sampling distributions for workload synthesis.
//!
//! Register dependency distances are geometric (most consumers read a value
//! produced a few instructions earlier — this is exactly what determines the
//! paper's "13.2% of instructions delayed" result), memory object popularity
//! is Zipfian (server workloads), and instruction mixes are small discrete
//! distributions.

use crate::rng::SimRng;

/// Geometric distribution on `{1, 2, 3, …}` with success probability `p`.
///
/// ```
/// use lowvcc_trace::dist::Geometric;
/// use lowvcc_trace::rng::SimRng;
///
/// let g = Geometric::new(0.5)?;
/// let mut rng = SimRng::seed_from(1);
/// let x = g.sample(&mut rng);
/// assert!(x >= 1);
/// # Ok::<(), lowvcc_trace::dist::DistError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`, the inversion's denominator, taken once.
    ln_q: f64,
}

/// Error constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// Probability outside `(0, 1]`.
    BadProbability {
        /// The rejected value.
        p: f64,
    },
    /// Empty or all-zero weight vector.
    BadWeights,
    /// Zipf support size of zero.
    EmptySupport,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadProbability { p } => write!(f, "probability {p} outside (0, 1]"),
            Self::BadWeights => write!(f, "weights must be non-empty with a positive sum"),
            Self::EmptySupport => write!(f, "support size must be positive"),
        }
    }
}

impl std::error::Error for DistError {}

impl Geometric {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::BadProbability`] unless `0 < p <= 1`.
    pub fn new(p: f64) -> Result<Self, DistError> {
        if p > 0.0 && p <= 1.0 {
            Ok(Self {
                p,
                ln_q: (1.0 - p).ln(),
            })
        } else {
            Err(DistError::BadProbability { p })
        }
    }

    /// Mean of the distribution (`1/p`).
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws a sample in `{1, 2, …}` by inversion.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u = rng.next_f64();
        // Inversion: ceil(ln(1-u) / ln(1-p)); 1-u ∈ (0,1] avoids ln(0).
        let x = (1.0 - u).ln() / self.ln_q;
        // `ceil` in integers: `x` is non-negative (or NaN, or -inf when
        // `1 - p` rounds to 1, both of which truncate to 0) and below
        // 2^59 (|ln(1-u)| ≤ 53 ln 2), so the cast truncates exactly and
        // the comparison adds the missing unit for a fractional `x`.
        let t = x as u64;
        (t + u64::from((t as f64) < x)).max(1)
    }
}

/// Discrete distribution over `0..weights.len()` by linear CDF scan
/// (mixes have ≤ a dozen entries; a scan beats alias-table setup).
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cdf: Vec<f64>,
}

impl Discrete {
    /// Builds from non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::BadWeights`] if `weights` is empty, contains a
    /// negative value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, DistError> {
        if weights.is_empty() || weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(DistError::BadWeights);
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(DistError::BadWeights);
        }
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Self { cdf })
    }

    /// Number of categories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has no categories (never true for a
    /// successfully constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a category index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Zipf distribution over `0..n` with exponent `s`, via precomputed CDF.
///
/// Used for server-style object popularity (a few hot objects, a long
/// tail). Supports up to ~1 M categories comfortably.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptySupport`] if `n == 0`.
    pub fn new(n: usize, s: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::EmptySupport);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Self { cdf })
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_matches_parameter() {
        let g = Geometric::new(0.4).unwrap();
        assert!((g.mean() - 2.5).abs() < 1e-12);
        let mut rng = SimRng::seed_from(5);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| g.sample(&mut rng)).sum();
        let mean = sum as f64 / f64::from(n);
        assert!((mean - 2.5).abs() < 0.05, "empirical mean {mean}");
    }

    #[test]
    fn geometric_p_one_is_always_one() {
        let g = Geometric::new(1.0).unwrap();
        let mut rng = SimRng::seed_from(0);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 1);
        }
    }

    #[test]
    fn geometric_rejects_bad_p() {
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Geometric::new(-0.1).is_err());
    }

    #[test]
    fn discrete_frequencies_match_weights() {
        let d = Discrete::new(&[1.0, 2.0, 1.0]).unwrap();
        assert_eq!(d.len(), 3);
        let mut rng = SimRng::seed_from(17);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!((f64::from(counts[0]) / 1e5 - 0.25).abs() < 0.01);
        assert!((f64::from(counts[1]) / 1e5 - 0.50).abs() < 0.01);
        assert!((f64::from(counts[2]) / 1e5 - 0.25).abs() < 0.01);
    }

    #[test]
    fn discrete_handles_zero_weight_categories() {
        let d = Discrete::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn discrete_rejects_bad_weights() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[0.0, 0.0]).is_err());
        assert!(Discrete::new(&[1.0, -1.0]).is_err());
        assert!(Discrete::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 1.0).unwrap();
        assert_eq!(z.len(), 1000);
        let mut rng = SimRng::seed_from(23);
        let mut head = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-10 of a Zipf(1.0, 1000) carries ≈39% of the mass.
        let frac = f64::from(head) / f64::from(n);
        assert!((frac - 0.39).abs() < 0.02, "head mass {frac}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0).unwrap();
        let mut rng = SimRng::seed_from(2);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c));
        }
    }

    #[test]
    fn zipf_rejects_empty_support() {
        assert!(Zipf::new(0, 1.0).is_err());
    }
}
