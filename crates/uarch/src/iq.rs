//! The instruction queue's IRAW occupancy gate (paper §4.2, Figure 9).
//!
//! The in-order core allocates decoded instructions to a circular queue and
//! considers only the `ICI` oldest for issue; IQ entries are read every
//! cycle regardless of validity, so reading a just-allocated (still
//! stabilizing) entry would corrupt it at low Vcc. The paper's gate allows
//! issue only when
//!
//! ```text
//! occupancy ≥ ICI + AI·N
//! ```
//!
//! (`AI` = allocation width, `N` = stabilization cycles): even if the
//! newest `AI·N` entries are stabilizing, the `ICI` oldest are safe. On a
//! pipeline drain, `AI·N` NOOPs are injected so the real tail can issue;
//! the engine's IQ (`lowvcc-core`'s pipeline) does that injection.

/// The Figure 9 issue gate over a queue holding `occupancy` entries:
/// `occupancy ≥ ICI + AI·N`.
///
/// With `n = 0` (IRAW disabled — the `stall issue?` signal cleared) any
/// non-empty queue may issue. The one statement of the gate: the
/// engine's IQ calls it.
///
/// ```
/// use lowvcc_uarch::iq::issue_allowed;
///
/// // ICI = 2, AI = 2, N = 1: the threshold is 4 (the paper's example).
/// assert!(!issue_allowed(3, 2, 2, 1));
/// assert!(issue_allowed(4, 2, 2, 1));
/// // IRAW off: one entry suffices, none never does.
/// assert!(issue_allowed(1, 2, 2, 0));
/// assert!(!issue_allowed(0, 2, 2, 0));
/// ```
#[inline]
#[must_use]
pub fn issue_allowed(occupancy: usize, ici: usize, ai: usize, n: u32) -> bool {
    if n == 0 {
        occupancy > 0
    } else {
        occupancy >= ici + ai * n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_gate_silverthorne_parameters() {
        // ICI = 2, AI = 2, N = 1 ⇒ threshold 4 (paper's own example).
        for occupancy in 1..=3 {
            assert!(
                !issue_allowed(occupancy, 2, 2, 1),
                "occupancy {occupancy} must be gated"
            );
        }
        assert!(issue_allowed(4, 2, 2, 1));
    }

    #[test]
    fn gate_scales_with_n() {
        assert!(issue_allowed(5, 2, 2, 1)); // needs 4
        assert!(!issue_allowed(5, 2, 2, 2)); // needs 6
        assert!(issue_allowed(6, 2, 2, 2));
    }

    #[test]
    fn gate_disabled_when_n_zero() {
        assert!(!issue_allowed(0, 2, 2, 0), "empty queue never issues");
        assert!(issue_allowed(1, 2, 2, 0));
    }
}
