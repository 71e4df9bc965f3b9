//! Process variation: Gaussian Vth spread, σ margins and write-fail math.
//!
//! The paper margins every SRAM critical path at **6σ** ("only one critical
//! path per billion would not fit the cycle time"). The Faulty Bits baseline
//! (its Section 2.2 / Table 1) instead margins at fewer σ, clocking faster
//! but leaving a predictable fraction of cells unable to complete writes —
//! those must be mapped out. This module provides the tail-probability and
//! inverse-margin math both mechanisms need.
//!
//! The error function is implemented in-tree (no `libm` dependency) using
//! the Chebyshev-fitted `erfc` of Numerical Recipes §6.2, whose *relative*
//! error is below 1.2 × 10⁻⁷ everywhere — small enough to resolve 6σ tails
//! (~10⁻⁹) accurately.

use crate::bitcell::Bitcell8T;
use crate::fo4::Picoseconds;
use crate::voltage::Millivolts;

/// Complementary error function, accurate to 1.2e-7 relative error.
///
/// ```
/// use lowvcc_sram::variation::erfc;
///
/// assert!((erfc(0.0) - 1.0).abs() < 1e-6);
/// assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
/// ```
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x) = 1 − erfc(x)`.
#[must_use]
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Standard-normal upper-tail probability `P(X > k)`.
///
/// ```
/// use lowvcc_sram::variation::normal_tail;
///
/// // The paper's 6σ margin: about one path per billion fails.
/// let p = normal_tail(6.0);
/// assert!(p > 0.5e-9 && p < 2e-9);
/// ```
#[must_use]
pub fn normal_tail(k: f64) -> f64 {
    0.5 * erfc(k / std::f64::consts::SQRT_2)
}

/// Standard-normal CDF `P(X ≤ k)`.
#[must_use]
pub fn normal_cdf(k: f64) -> f64 {
    1.0 - normal_tail(k)
}

/// Finds the σ-offset at which a cell's write delay exactly equals `budget`.
///
/// Returns a value in \[-10, 14\]; cells above this σ fail the budget. The
/// search uses bisection on the monotone σ → delay map.
///
/// ```
/// use lowvcc_sram::{variation::critical_sigma, Bitcell8T, Millivolts};
///
/// let cell = Bitcell8T::silverthorne_45nm();
/// let v = Millivolts::new(500)?;
/// // By construction the calibrated write delay is the 6σ cell's delay.
/// let k = critical_sigma(&cell, v, cell.write_delay(v));
/// assert!((k - 6.0).abs() < 1e-6);
/// # Ok::<(), lowvcc_sram::VoltageError>(())
/// ```
#[must_use]
pub fn critical_sigma(cell: &Bitcell8T, v: Millivolts, budget: Picoseconds) -> f64 {
    const LO: f64 = -10.0;
    const HI: f64 = 14.0;
    if cell.write_delay_at_sigma(v, LO) > budget {
        return LO;
    }
    if cell.write_delay_at_sigma(v, HI) <= budget {
        return HI;
    }
    let (mut lo, mut hi) = (LO, HI);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if cell.write_delay_at_sigma(v, mid) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Probability that a random cell cannot complete a write within `budget`.
///
/// This drives the Faulty Bits baseline: clocking a cache faster than the
/// 6σ write delay makes `cell_fail_probability` of its bits unusable at
/// that voltage, and those lines must be disabled.
#[must_use]
pub fn cell_fail_probability(cell: &Bitcell8T, v: Millivolts, budget: Picoseconds) -> f64 {
    normal_tail(critical_sigma(cell, v, budget))
}

/// Expected number of faulty cells among `bits` at the given budget.
#[must_use]
pub fn expected_faulty_bits(
    cell: &Bitcell8T,
    v: Millivolts,
    budget: Picoseconds,
    bits: u64,
) -> f64 {
    cell_fail_probability(cell, v, budget) * bits as f64
}

/// Probability that a `bits_per_line`-bit cache line contains at least one
/// faulty cell: `1 − (1 − p)^bits`.
#[must_use]
pub fn line_fail_probability(
    cell: &Bitcell8T,
    v: Millivolts,
    budget: Picoseconds,
    bits_per_line: u32,
) -> f64 {
    let p = cell_fail_probability(cell, v, budget);
    // ln1p-based form is stable for tiny p and large exponents.
    1.0 - (f64::from(bits_per_line) * (-p).ln_1p()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voltage::mv;

    #[test]
    fn erfc_reference_values() {
        // Reference values from Abramowitz & Stegun tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_12),
            (1.0, 0.157_299_21),
            (2.0, 0.004_677_73),
            (3.0, 2.209_049_7e-5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                (got - want).abs() / want.max(1e-30) < 1e-5,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_negative_symmetry() {
        for x in [0.25, 1.0, 2.5] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn erf_complements_erfc() {
        for x in [-2.0, -0.5, 0.0, 0.7, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_tail_reference_values() {
        // Φ̄(1.96) ≈ 0.025; Φ̄(3) ≈ 1.3499e-3; Φ̄(6) ≈ 9.866e-10.
        assert!((normal_tail(1.96) - 0.024_998).abs() < 1e-4);
        assert!((normal_tail(3.0) - 1.349_9e-3).abs() < 1e-5);
        let p6 = normal_tail(6.0);
        assert!((p6 - 9.866e-10).abs() / 9.866e-10 < 1e-2);
        // erfc carries ~1e-7 relative error, so the CDF at 0 is not exact.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn critical_sigma_recovers_six_sigma_by_construction() {
        let cell = Bitcell8T::silverthorne_45nm();
        for v in [400, 500, 600] {
            let k = critical_sigma(&cell, mv(v), cell.write_delay(mv(v)));
            assert!((k - 6.0).abs() < 1e-6, "at {v} mV, got {k}");
        }
    }

    #[test]
    fn fail_probability_monotone_in_budget() {
        let cell = Bitcell8T::silverthorne_45nm();
        let v = mv(450);
        let full = cell.write_delay(v);
        let p_tight = cell_fail_probability(&cell, v, full * 0.5);
        let p_exact = cell_fail_probability(&cell, v, full);
        let p_loose = cell_fail_probability(&cell, v, full * 2.0);
        assert!(p_tight > p_exact);
        assert!(p_exact > p_loose);
        // 6σ budget → ~1e-9 failures per cell, the paper's margin.
        assert!(p_exact > 1e-10 && p_exact < 1e-8);
    }

    #[test]
    fn saturated_budgets_clamp() {
        let cell = Bitcell8T::silverthorne_45nm();
        let v = mv(500);
        assert!(cell_fail_probability(&cell, v, Picoseconds::new(1e-3)) > 0.999);
        assert!(cell_fail_probability(&cell, v, Picoseconds::new(1e9)) < 1e-15);
    }

    #[test]
    fn line_fail_probability_scales_with_width() {
        let cell = Bitcell8T::silverthorne_45nm();
        let v = mv(450);
        // Budget at the 4σ cell's delay → p_cell = Φ̄(4) ≈ 3.17e-5.
        let budget = cell.write_delay_at_sigma(v, 4.0);
        let p_cell = cell_fail_probability(&cell, v, budget);
        assert!((p_cell - normal_tail(4.0)).abs() / normal_tail(4.0) < 1e-3);
        let p_line = line_fail_probability(&cell, v, budget, 512);
        // For small p: p_line ≈ 512 · p_cell.
        assert!((p_line / (512.0 * p_cell) - 1.0).abs() < 0.02);
        assert!(expected_faulty_bits(&cell, v, budget, 1_000_000) > 1.0);
    }
}
