//! Shift-register scoreboard (paper Figures 6 and 8).
//!
//! Each logical register owns a `B`-bit shift register. The most
//! significant bit says "a consumer may issue now"; every cycle the
//! register shifts left one position, keeping its least significant bit.
//! A producer of latency `L` writes `L` zeros followed by ones — delayed
//! wake-up with zero CAM logic, which is why in-order cores use it.
//!
//! The IRAW extension (paper §4.1.2) appends, after the latency zeros:
//! one `1` per **bypass level** (consumers there get the value from the
//! bypass network), then `N` zeros (the **bubble**: a consumer issuing in
//! those slots would read the register file exactly while the interrupted
//! write is still stabilizing), then ones. For a 3-cycle producer, one
//! bypass level and `N = 1`, the register is initialized to `0001011` —
//! the exact Figure 8 bit pattern.
//!
//! **Representation:** the hardware shifts every register every cycle, but
//! simulating that is O(registers) per cycle. This model is *lazy*: each
//! register stores the pattern as written plus the cycle it was written
//! at, and readers shift by the elapsed delta on access. Shifting keeps
//! the least significant bit, so after `width` cycles a pattern saturates
//! to all-ones (sticky LSB 1) or all-zeros (LSB 0) — which makes the
//! delta shift O(1) regardless of how long ago the pattern was written.
//! [`Scoreboard::tick`] is a counter increment and
//! [`Scoreboard::advance`] jumps any number of cycles at the same cost,
//! which is what the engine's cycle-skipping fast path leans on.

use lowvcc_trace::Reg;

/// Maximum supported shift-register width in bits.
pub const MAX_WIDTH: u32 = 32;

/// IRAW window parameters appended to producer patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrawWindow {
    /// Number of bypass levels in the pipeline (cycles during which the
    /// value is available from the bypass network right after execution).
    pub bypass_levels: u32,
    /// Stabilization cycles `N` during which the register file entry must
    /// not be read.
    pub bubble: u32,
}

/// One register's shift register, stored lazily: `bits` is the pattern as
/// of cycle `written_at`; the current pattern is `bits` shifted by the
/// cycles elapsed since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShiftReg {
    bits: u32,
    written_at: u64,
}

/// Shifts `bits` left by `delta` cycles, keeping the sticky LSB, within
/// `width`/`mask`. O(1) for any delta: past `width` shifts the pattern is
/// saturated by its LSB.
#[inline]
fn shift_by(bits: u32, delta: u64, width: u32, mask: u32) -> u32 {
    // All ones when the sticky LSB is set, all zeros otherwise.
    let sticky = 0u32.wrapping_sub(bits & 1);
    if delta >= u64::from(width) {
        return sticky & mask;
    }
    // `d < width <= 32`, so neither shift overflows.
    let d = delta as u32;
    let fill = sticky & ((1u32 << d) - 1);
    ((bits << d) | fill) & mask
}

/// The scoreboard: one shift register per logical register.
///
/// ```
/// use lowvcc_trace::Reg;
/// use lowvcc_uarch::scoreboard::{IrawWindow, Scoreboard};
///
/// let mut sb = Scoreboard::new(7);
/// let r = Reg::new(3).unwrap();
/// // 3-cycle producer with the paper's IRAW window (1 bypass, N = 1):
/// sb.set_producer(r, 3, Some(IrawWindow { bypass_levels: 1, bubble: 1 }));
/// assert_eq!(sb.pattern(r), 0b0001011); // Figure 8
/// // Cycle i+3: consumer may issue (gets the value via bypass)…
/// for _ in 0..3 { sb.tick(); }
/// assert!(sb.is_ready(r));
/// // …cycle i+4: blocked (would read a stabilizing RF entry)…
/// sb.tick();
/// assert!(!sb.is_ready(r));
/// // …cycle i+5 onwards: ready for good.
/// sb.tick();
/// assert!(sb.is_ready(r));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scoreboard {
    /// Indexed by [`Reg::slot`] (index + 1); slot 0 is never written.
    regs: Vec<ShiftReg>,
    width: u32,
    mask: u32,
    now: u64,
}

impl Scoreboard {
    /// Creates a scoreboard of `width`-bit shift registers, all ready.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH`].
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH,
            "width must be 1..={MAX_WIDTH}"
        );
        let mask = if width == 32 {
            u32::MAX
        } else {
            (1 << width) - 1
        };
        Self {
            regs: vec![
                ShiftReg {
                    bits: mask,
                    written_at: 0
                };
                usize::from(lowvcc_trace::NUM_REGS) + 1
            ],
            width,
            mask,
            now: 0,
        }
    }

    /// The shift-register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The pattern of `reg` as seen this cycle.
    #[inline]
    fn current_bits(&self, reg: Reg) -> u32 {
        let r = self.regs[usize::from(reg.slot())];
        shift_by(r.bits, self.now - r.written_at, self.width, self.mask)
    }

    /// Whether a consumer of `reg` may issue this cycle (the MSB).
    ///
    /// Branch-free: `k` cycles after the write the MSB holds the stored
    /// bit `width - 1 - k`, and from `k = width - 1` on the sticky LSB —
    /// so one clamped shift reads it without materialising the pattern.
    #[inline]
    #[must_use]
    pub fn is_ready(&self, reg: Reg) -> bool {
        let r = self.regs[usize::from(reg.slot())];
        let top = self.width - 1;
        let k = (self.now - r.written_at).min(u64::from(top)) as u32;
        (r.bits >> (top - k)) & 1 == 1
    }

    /// Raw pattern of `reg`'s shift register (LSB-aligned; for tests and
    /// debug displays).
    #[must_use]
    pub fn pattern(&self, reg: Reg) -> u32 {
        self.current_bits(reg)
    }

    /// Builds the MSB-first producer pattern
    /// `zeros(latency) ++ ones(bypass) ++ zeros(bubble) ++ ones(rest)`.
    ///
    /// Falls back to all-zeros (long-latency handling, paper §4.1.1) when
    /// the window does not fit the register width.
    #[inline]
    fn build_pattern(&self, latency: u32, iraw: Option<IrawWindow>) -> u32 {
        let (bypass, bubble) = match iraw {
            Some(w) => (w.bypass_levels, w.bubble),
            None => (0, 0),
        };
        if latency + bypass + bubble >= self.width {
            // A `B`-bit register handles windows up to `B − 1` (the paper's
            // rule for latencies): the pattern needs at least one trailing
            // ready bit, or the sticky LSB would block the register
            // forever. Fall back to long-latency (completion-event) mode.
            return 0;
        }
        // All-ones, minus the `latency` zeros at the MSB end, minus the
        // `bubble` zeros sitting `bypass` positions below them. Branch-free
        // on the issue hot path (this runs for every producer).
        let mut bits = self.mask >> latency;
        if bubble > 0 {
            let shift = self.width - latency - bypass - bubble;
            bits &= !(((1 << bubble) - 1) << shift);
        }
        bits & self.mask
    }

    /// Records that a producer of `reg` with execution latency `latency`
    /// issued this cycle. With `iraw` set, the IRAW bubble is encoded.
    ///
    /// Latencies too long for the register width mark the register
    /// long-latency (all zeros); call [`Scoreboard::complete`] when the
    /// value arrives.
    #[inline]
    pub fn set_producer(&mut self, reg: Reg, latency: u32, iraw: Option<IrawWindow>) {
        let bits = self.build_pattern(latency, iraw);
        self.regs[usize::from(reg.slot())] = ShiftReg {
            bits,
            written_at: self.now,
        };
    }

    /// Marks `reg` long-latency (all zeros) pending a completion event.
    #[inline]
    pub fn mark_long_latency(&mut self, reg: Reg) {
        self.regs[usize::from(reg.slot())] = ShiftReg {
            bits: 0,
            written_at: self.now,
        };
    }

    /// Completion event for a long-latency producer (load miss return,
    /// divider finish): the value is available *now*, so consumers may use
    /// the bypass immediately, but with IRAW active the register file
    /// entry still stabilizes for `bubble` cycles.
    #[inline]
    pub fn complete(&mut self, reg: Reg, iraw: Option<IrawWindow>) {
        let bits = self.build_pattern(0, iraw);
        self.regs[usize::from(reg.slot())] = ShiftReg {
            bits,
            written_at: self.now,
        };
    }

    /// Advances one cycle: every register shifts left, keeping its LSB.
    /// With the lazy representation this is a single counter increment.
    #[inline]
    pub fn tick(&mut self) {
        self.now += 1;
    }

    /// Advances `cycles` at once — same O(1) cost as one [`tick`].
    /// The engine's cycle-skipping fast path jumps stalls with this.
    ///
    /// [`tick`]: Scoreboard::tick
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Cycles until the *readiness* of `reg` next changes value, in either
    /// direction (a bubble closing counts as much as a producer arriving).
    /// `None` means the register holds its current readiness forever
    /// absent a new write — all-ones, or all-zeros awaiting a completion
    /// event. The engine's fast path uses this to bound how far it may
    /// skip while the issue decision provably cannot change.
    #[inline]
    #[must_use]
    pub fn cycles_until_change(&self, reg: Reg) -> Option<u32> {
        let bits = self.current_bits(reg);
        let cur = bits >> (self.width - 1) & 1;
        // The readiness observed k cycles from now is bit width-1-k; from
        // k = width-1 onwards it is the sticky LSB, so the word covers the
        // whole future. The first change is the highest bit that differs
        // from the MSB (which never differs from itself).
        let differ = (bits ^ 0u32.wrapping_sub(cur)) & self.mask;
        (differ != 0).then(|| differ.leading_zeros() - (32 - self.width))
    }

    /// Restores the freshly-constructed state in place: all registers
    /// ready and the clock rewound to zero. No allocation.
    pub fn reset(&mut self) {
        for r in &mut self.regs {
            *r = ShiftReg {
                bits: self.mask,
                written_at: 0,
            };
        }
        self.now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn baseline_pattern_matches_figure6() {
        // 3-cycle producer, 5-bit register: 00011.
        let mut sb = Scoreboard::new(5);
        sb.set_producer(r(0), 3, None);
        assert_eq!(sb.pattern(r(0)), 0b00011);
        // Shifts: 00111, 01111, 11111 (ready at i+3).
        sb.tick();
        assert_eq!(sb.pattern(r(0)), 0b00111);
        sb.tick();
        assert_eq!(sb.pattern(r(0)), 0b01111);
        assert!(!sb.is_ready(r(0)));
        sb.tick();
        assert_eq!(sb.pattern(r(0)), 0b11111);
        assert!(sb.is_ready(r(0)));
    }

    #[test]
    fn iraw_pattern_matches_figure8() {
        // 3-cycle producer, 1 bypass level, N=1, 7-bit register: 0001011.
        let mut sb = Scoreboard::new(7);
        let w = IrawWindow {
            bypass_levels: 1,
            bubble: 1,
        };
        sb.set_producer(r(1), 3, Some(w));
        assert_eq!(sb.pattern(r(1)), 0b0001011);
        // Figure 8 sequence: ready bits at i+3, blocked at i+4, ready i+5+.
        let expected = [
            (0b0010111, false), // i+1
            (0b0101111, false), // i+2
            (0b1011111, true),  // i+3  (bypass)
            (0b0111111, false), // i+4  (bubble: RF stabilizing)
            (0b1111111, true),  // i+5
            (0b1111111, true),  // i+6 (sticky)
        ];
        for (bits, ready) in expected {
            sb.tick();
            assert_eq!(sb.pattern(r(1)), bits);
            assert_eq!(sb.is_ready(r(1)), ready);
        }
    }

    #[test]
    fn multi_cycle_bubble_for_larger_n() {
        // N=2 (paper §4.1.3: lower Vcc / other nodes), 2-cycle producer,
        // 1 bypass level, 8-bit register: 00101111 → two blocked slots.
        let mut sb = Scoreboard::new(8);
        sb.set_producer(
            r(2),
            2,
            Some(IrawWindow {
                bypass_levels: 1,
                bubble: 2,
            }),
        );
        assert_eq!(sb.pattern(r(2)), 0b0010_0111);
        let readiness: Vec<bool> = (0..6)
            .map(|_| {
                sb.tick();
                sb.is_ready(r(2))
            })
            .collect();
        assert_eq!(readiness, vec![false, true, false, false, true, true]);
    }

    #[test]
    fn single_cycle_producer_with_iraw() {
        // 1-cycle ALU, 1 bypass, N=1: 1011111 — consumers may issue
        // back-to-back (bypass), then one blocked slot.
        let mut sb = Scoreboard::new(7);
        sb.set_producer(
            r(3),
            1,
            Some(IrawWindow {
                bypass_levels: 1,
                bubble: 1,
            }),
        );
        assert_eq!(sb.pattern(r(3)), 0b0101111);
        assert!(!sb.is_ready(r(3)));
        sb.tick();
        assert!(sb.is_ready(r(3))); // bypass slot
        sb.tick();
        assert!(!sb.is_ready(r(3))); // bubble
        sb.tick();
        assert!(sb.is_ready(r(3)));
    }

    #[test]
    fn long_latency_goes_all_zero_then_completes() {
        let mut sb = Scoreboard::new(7);
        sb.set_producer(r(4), 30, None); // exceeds width → all zeros
        assert_eq!(sb.pattern(r(4)), 0);
        for _ in 0..20 {
            sb.tick();
            assert!(!sb.is_ready(r(4)), "stays not-ready until the event");
        }
        // Event arrives with IRAW active: bypass now, bubble next.
        sb.complete(
            r(4),
            Some(IrawWindow {
                bypass_levels: 1,
                bubble: 1,
            }),
        );
        assert!(sb.is_ready(r(4)));
        sb.tick();
        assert!(!sb.is_ready(r(4)));
        sb.tick();
        assert!(sb.is_ready(r(4)));
    }

    #[test]
    fn completion_without_iraw_is_immediately_ready() {
        let mut sb = Scoreboard::new(5);
        sb.mark_long_latency(r(5));
        assert!(!sb.is_ready(r(5)));
        sb.complete(r(5), None);
        assert!(sb.is_ready(r(5)));
        sb.tick();
        assert!(sb.is_ready(r(5)));
    }

    #[test]
    fn fresh_scoreboard_all_ready() {
        let sb = Scoreboard::new(7);
        for reg in Reg::all() {
            assert!(sb.is_ready(reg));
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = Scoreboard::new(0);
    }

    #[test]
    fn advance_matches_repeated_ticks() {
        let w = IrawWindow {
            bypass_levels: 1,
            bubble: 1,
        };
        for jump in [1u64, 2, 3, 5, 7, 32, 1000] {
            let mut ticked = Scoreboard::new(7);
            let mut jumped = Scoreboard::new(7);
            ticked.set_producer(r(1), 3, Some(w));
            jumped.set_producer(r(1), 3, Some(w));
            for _ in 0..jump {
                ticked.tick();
            }
            jumped.advance(jump);
            assert_eq!(ticked.pattern(r(1)), jumped.pattern(r(1)), "jump {jump}");
            assert_eq!(ticked.is_ready(r(1)), jumped.is_ready(r(1)));
        }
    }

    #[test]
    fn lazy_patterns_saturate_by_lsb() {
        let mut sb = Scoreboard::new(7);
        sb.set_producer(r(0), 3, None); // LSB 1 → saturates to all-ones
        sb.mark_long_latency(r(1)); // LSB 0 → stays all-zeros
        sb.advance(100);
        assert_eq!(sb.pattern(r(0)), 0b111_1111);
        assert_eq!(sb.pattern(r(1)), 0);
    }

    #[test]
    fn cycles_until_change_tracks_toggles() {
        let mut sb = Scoreboard::new(7);
        sb.set_producer(
            r(2),
            3,
            Some(IrawWindow {
                bypass_levels: 1,
                bubble: 1,
            }),
        );
        // 0001011: not ready now, first change (→ready) in 3 cycles.
        assert_eq!(sb.cycles_until_change(r(2)), Some(3));
        sb.advance(3);
        // 1011111: ready now, bubble (→blocked) next cycle.
        assert_eq!(sb.cycles_until_change(r(2)), Some(1));
        sb.tick();
        assert_eq!(sb.cycles_until_change(r(2)), Some(1));
        sb.tick();
        // 1111111: ready forever.
        assert_eq!(sb.cycles_until_change(r(2)), None);
        sb.mark_long_latency(r(2));
        // All zeros: blocked until a completion event, never by shifting.
        assert_eq!(sb.cycles_until_change(r(2)), None);
    }

    /// Every 7-bit pattern, every elapsed delta up to well past
    /// saturation: the closed forms of `is_ready` and `cycles_until_change`
    /// must agree with shifting the pattern one cycle at a time.
    #[test]
    fn closed_forms_match_cycle_by_cycle_shifting_at_width_7() {
        const W: u32 = 7;
        let mask = (1u32 << W) - 1;
        let shift1 = |b: u32| ((b << 1) | (b & 1)) & mask;
        let ready = |b: u32| b >> (W - 1) & 1 == 1;
        for pattern in 0..=mask {
            for delta in 0..3 * u64::from(W) {
                let mut sb = Scoreboard::new(W);
                sb.regs[usize::from(r(0).slot())] = ShiftReg {
                    bits: pattern,
                    written_at: 0,
                };
                sb.advance(delta);
                let mut b = pattern;
                for _ in 0..delta {
                    b = shift1(b);
                }
                let ctx = format!("pattern {pattern:07b} delta {delta}");
                assert_eq!(sb.pattern(r(0)), b, "{ctx}");
                assert_eq!(sb.is_ready(r(0)), ready(b), "{ctx}");
                let mut future = b;
                let mut change = None;
                for k in 1..=2 * W {
                    future = shift1(future);
                    if change.is_none() && ready(future) != ready(b) {
                        change = Some(k);
                    }
                }
                assert_eq!(sb.cycles_until_change(r(0)), change, "{ctx}");
            }
        }
    }

    #[test]
    fn writes_after_advance_use_the_current_cycle() {
        let mut sb = Scoreboard::new(7);
        sb.advance(500);
        sb.set_producer(r(3), 3, None);
        assert_eq!(sb.pattern(r(3)), 0b0001111);
        sb.tick();
        assert_eq!(sb.pattern(r(3)), 0b0011111);
    }

    #[test]
    fn deactivating_iraw_equals_baseline() {
        // §4.1.3: at ≥600 mV IRAW is deactivated "by setting properly the
        // shift register" — bubble 0 must reproduce the baseline pattern
        // with the bypass slot merged into the trailing ones.
        let mut a = Scoreboard::new(7);
        let mut b = Scoreboard::new(7);
        a.set_producer(
            r(0),
            3,
            Some(IrawWindow {
                bypass_levels: 1,
                bubble: 0,
            }),
        );
        b.set_producer(r(0), 3, None);
        assert_eq!(a.pattern(r(0)), b.pattern(r(0))); // 0001111
        assert_eq!(a.pattern(r(0)), 0b0001111);
    }
}
