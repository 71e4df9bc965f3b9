//! 8-T SRAM bitcell delay model (the paper's Figure 2 cell).
//!
//! The Silverthorne SRAM blocks use an 8-T bitcell with a double-bitline
//! write port and a single-bitline read port. Three delays matter:
//!
//! * **Read delay** — the 8-T read stack can be sized generously without
//!   hurting writes, so read delay stays *below* the 12-FO4 phase at every
//!   voltage. Modelled as a constant fraction `ρ` of the phase.
//! * **Full write delay** — time for the worst (6σ) cell's internal nodes to
//!   complete 80% of their swing with bitline assistance. This is the delay
//!   that grows exponentially at low Vcc. Modelled as
//!   `c(V)·phase(V)` with `c(V) = c₀·exp(a·x + b·x·|x|)`,
//!   `x = (600 mV − V)/25 mV`, calibrated to the paper's anchors (see
//!   crate docs).
//! * **Interrupted write (IRAW)** — the wordline is deactivated after a
//!   short pulse `β·write`; past that point the cell has flipped far enough
//!   to regenerate on its own, which takes `γ·(1−β)·write` extra
//!   (stabilization). `γ > 1` because the bitlines no longer help.
//!
//! For the Faulty Bits baseline, which margins at fewer than 6σ, the model
//! also exposes write delay at an arbitrary σ-offset using an EKV-style
//! smooth super/sub-threshold drain-current kernel, rescaled so that the 6σ
//! delay equals the calibrated curve.

use crate::fo4::{AlphaPowerModel, Picoseconds};
use crate::voltage::Millivolts;

/// Delay model of the 8-T bitcell used by every Silverthorne SRAM block.
///
/// ```
/// use lowvcc_sram::{Bitcell8T, Millivolts};
///
/// let cell = Bitcell8T::silverthorne_45nm();
/// let v = Millivolts::new(500)?;
/// // Writes dominate reads at low Vcc (paper Figure 1).
/// assert!(cell.write_delay(v) > cell.read_delay(v));
/// // Interrupting a write early leaves residual stabilization time.
/// assert!(cell.interrupted_pulse(v) < cell.write_delay(v));
/// # Ok::<(), lowvcc_sram::VoltageError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bitcell8T {
    logic: AlphaPowerModel,
    c0: f64,
    a: f64,
    b: f64,
    read_rho: f64,
    beta: f64,
    gamma: f64,
    ekv: EkvSigmaModel,
}

impl Bitcell8T {
    /// Bitcell write fraction of a 12-FO4 phase at 600 mV: `1 −`
    /// [`WORDLINE_KAPPA`], so that write+wordline exactly meets the phase
    /// at 600 mV.
    ///
    /// [`WORDLINE_KAPPA`]: crate::cycle::WORDLINE_KAPPA
    pub const C0: f64 = 0.415;

    /// Linear coefficient of the calibrated write-delay exponent
    /// (fits the paper's "77% of logic frequency at 550 mV").
    pub const A_WRITE: f64 = 0.227_19;

    /// Quadratic (signed) coefficient of the calibrated write-delay exponent
    /// (fits the paper's "24% of logic frequency at 450 mV").
    pub const B_WRITE: f64 = 0.021_99;

    /// Read-bitline delay as a fraction of a 12-FO4 phase.
    pub const READ_RHO: f64 = 0.33;

    /// Fraction of the full write delay after which the wordline can be
    /// deactivated with the cell still guaranteed to flip (IRAW pulse).
    /// Fits the paper's +57% @ 500 mV and +99% @ 400 mV frequency gains.
    pub const BETA_PULSE: f64 = 0.48;

    /// Penalty factor for completing the flip without bitline assistance.
    pub const GAMMA_STABILIZE: f64 = 1.8;

    /// The calibrated 45 nm cell used throughout the reproduction.
    #[must_use]
    pub fn silverthorne_45nm() -> Self {
        Self {
            logic: AlphaPowerModel::silverthorne_45nm(),
            c0: Self::C0,
            a: Self::A_WRITE,
            b: Self::B_WRITE,
            read_rho: Self::READ_RHO,
            beta: Self::BETA_PULSE,
            gamma: Self::GAMMA_STABILIZE,
            ekv: EkvSigmaModel::silverthorne_45nm(),
        }
    }

    /// Returns the logic model that provides the phase time-base.
    #[must_use]
    pub fn logic(&self) -> &AlphaPowerModel {
        &self.logic
    }

    /// Wordline pulse fraction `β` (see [`Self::BETA_PULSE`]).
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Unassisted-flip penalty `γ` (see [`Self::GAMMA_STABILIZE`]).
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Full bitcell write delay as a fraction of the 12-FO4 phase.
    ///
    /// This is the calibrated 6σ curve; it equals [`Self::C0`] at 600 mV and
    /// grows exponentially below.
    #[must_use]
    pub fn write_fraction(&self, v: Millivolts) -> f64 {
        let x = v.steps_below_600();
        self.c0 * (self.a * x + self.b * x * x.abs()).exp()
    }

    /// Full (80%-swing, bitline-assisted) write delay of the worst 6σ cell.
    #[must_use]
    pub fn write_delay(&self, v: Millivolts) -> Picoseconds {
        self.logic.phase_delay(v) * self.write_fraction(v)
    }

    /// Read-bitline delay (single-ended 8-T read port).
    #[must_use]
    pub fn read_delay(&self, v: Millivolts) -> Picoseconds {
        self.logic.phase_delay(v) * self.read_rho
    }

    /// Minimum wordline pulse for an interrupted (IRAW) write.
    ///
    /// After this pulse the cell's internal nodes have crossed the
    /// regeneration point and the write may be interrupted safely.
    #[must_use]
    pub fn interrupted_pulse(&self, v: Millivolts) -> Picoseconds {
        self.write_delay(v) * self.beta
    }

    /// Residual time for an interrupted cell to stabilize (become readable)
    /// after its wordline has been deactivated.
    #[must_use]
    pub fn residual_stabilization(&self, v: Millivolts) -> Picoseconds {
        self.write_delay(v) * ((1.0 - self.beta) * self.gamma)
    }

    /// Total update delay of an interrupted write (pulse + stabilization).
    ///
    /// The paper notes this *exceeds* the uninterrupted write delay — the
    /// cell must finish flipping without bitline help — which is why
    /// stabilization spills into extra cycles rather than extending the
    /// clock.
    #[must_use]
    pub fn interrupted_total(&self, v: Millivolts) -> Picoseconds {
        self.interrupted_pulse(v) + self.residual_stabilization(v)
    }

    /// Write delay of a cell whose threshold voltage sits `sigma` standard
    /// deviations above nominal.
    ///
    /// The calibrated curve [`Self::write_delay`] corresponds to
    /// `sigma = 6.0` (the paper's margin: one failing critical path per
    /// billion). Lower σ cells are faster; the Faulty Bits baseline exploits
    /// this by margining at e.g. 4σ and disabling the cells beyond.
    #[must_use]
    pub fn write_delay_at_sigma(&self, v: Millivolts, sigma: f64) -> Picoseconds {
        let scale = self.ekv.delay(v, sigma) / self.ekv.delay(v, 6.0);
        self.write_delay(v) * scale
    }
}

impl Default for Bitcell8T {
    fn default() -> Self {
        Self::silverthorne_45nm()
    }
}

/// EKV-style smooth drain-current kernel used for σ-sensitivity.
///
/// `I(V, Vth) ∝ ln²(1 + exp((V − Vth) / (2·n·φt)))` interpolates smoothly
/// between strong inversion (`I ∝ (V−Vth)²`) and sub-threshold
/// (`I ∝ exp((V−Vth)/nφt)`), which is what makes low-Vcc write delay blow up
/// for high-Vth (slow-corner) cells.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EkvSigmaModel {
    vth_nominal_mv: f64,
    sigma_mv: f64,
    two_n_phi_t_mv: f64,
}

impl EkvSigmaModel {
    fn silverthorne_45nm() -> Self {
        Self {
            vth_nominal_mv: 350.0,
            sigma_mv: 20.0,
            two_n_phi_t_mv: 72.8, // 2 · n(1.4) · φt(26 mV)
        }
    }

    /// Relative cell-update delay `V / I(V, Vth(σ))`; only ratios of this
    /// quantity are meaningful.
    fn delay(&self, v: Millivolts, sigma: f64) -> f64 {
        let v_mv = f64::from(v.millivolts());
        let vth = self.vth_nominal_mv + sigma * self.sigma_mv;
        let u = (v_mv - vth) / self.two_n_phi_t_mv;
        // Numerically stable softplus.
        let softplus = if u > 30.0 { u } else { u.exp().ln_1p() };
        let current = softplus * softplus;
        v_mv / current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voltage::mv;

    fn cell() -> Bitcell8T {
        Bitcell8T::silverthorne_45nm()
    }

    #[test]
    fn write_fraction_anchored_at_600mv() {
        assert!((cell().write_fraction(mv(600)) - Bitcell8T::C0).abs() < 1e-12);
    }

    #[test]
    fn write_fraction_paper_anchors() {
        // Derived in DESIGN.md §1 from the paper's 77% @ 550 mV and 24% @
        // 450 mV write-limited frequencies (with κ = 0.585 wordline share):
        // c(550) = 1/0.77 − 0.585, c(450) = 1/0.24 − 0.585.
        let c = cell();
        assert!((c.write_fraction(mv(550)) - (1.0 / 0.77 - 0.585)).abs() < 5e-3);
        assert!((c.write_fraction(mv(450)) - (1.0 / 0.24 - 0.585)).abs() < 3e-2);
        // Bitcell-only write crosses the 12-FO4 phase at ~525 mV (Figure 1).
        assert!((c.write_fraction(mv(525)) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn write_delay_grows_superlinearly_at_low_vcc() {
        let c = cell();
        // Fraction-of-phase doubles roughly every 2 steps at the bottom end.
        let f500 = c.write_fraction(mv(500));
        let f450 = c.write_fraction(mv(450));
        let f400 = c.write_fraction(mv(400));
        assert!(f450 / f500 > 2.0, "write fraction must grow steeply");
        assert!(f400 / f450 > 2.0);
        // But stays *below* a phase at high Vcc (write is not critical there).
        assert!(c.write_fraction(mv(700)) < 0.2);
    }

    #[test]
    fn write_delay_monotone_in_voltage() {
        let c = cell();
        let mut last = f64::INFINITY;
        for v in (400..=700).step_by(25) {
            let d = c.write_delay(mv(v)).picos();
            assert!(d < last);
            last = d;
        }
    }

    #[test]
    fn read_stays_below_phase_everywhere() {
        let c = cell();
        for v in (400..=700).step_by(25) {
            let read = c.read_delay(mv(v));
            let phase = c.logic().phase_delay(mv(v));
            assert!(
                read.picos() < phase.picos(),
                "read must not limit the cycle"
            );
        }
    }

    #[test]
    fn interrupted_write_decomposition() {
        let c = cell();
        let v = mv(475);
        let pulse = c.interrupted_pulse(v);
        let resid = c.residual_stabilization(v);
        let full = c.write_delay(v);
        // Pulse is the β fraction.
        assert!((pulse.picos() - full.picos() * Bitcell8T::BETA_PULSE).abs() < 1e-9);
        // Total interrupted update exceeds the uninterrupted write (paper
        // Figure 4: "total bitcell update delay may increase").
        assert!(c.interrupted_total(v).picos() > full.picos());
        assert!((c.interrupted_total(v).picos() - (pulse + resid).picos()).abs() < 1e-9);
    }

    #[test]
    fn sigma_six_matches_calibrated_curve() {
        let c = cell();
        for v in [400, 500, 600, 700] {
            let a = c.write_delay_at_sigma(mv(v), 6.0).picos();
            let b = c.write_delay(mv(v)).picos();
            assert!((a - b).abs() / b < 1e-12);
        }
    }

    #[test]
    fn lower_sigma_cells_write_faster() {
        let c = cell();
        for v in [400, 450, 500, 550, 600] {
            let d6 = c.write_delay_at_sigma(mv(v), 6.0).picos();
            let d4 = c.write_delay_at_sigma(mv(v), 4.0).picos();
            let d0 = c.write_delay_at_sigma(mv(v), 0.0).picos();
            assert!(d4 < d6, "4σ cell must beat 6σ cell at {v} mV");
            assert!(d0 < d4);
        }
    }

    #[test]
    fn sigma_sensitivity_grows_at_low_vcc() {
        // The 6σ/4σ delay ratio must widen as Vcc drops — this is what makes
        // Faulty Bits progressively more attractive (and faulty) at low Vcc.
        let c = cell();
        let ratio = |v| {
            c.write_delay_at_sigma(mv(v), 6.0).picos() / c.write_delay_at_sigma(mv(v), 4.0).picos()
        };
        assert!(ratio(400) > ratio(600));
        assert!(ratio(600) > 1.0);
    }
}
