//! Micro-operation (uop) model consumed by the cycle-level simulator.
//!
//! The paper's evaluation is trace-driven ("trace-driven Intel production
//! simulators", §5.1): the simulator replays a correct-path instruction
//! stream and models timing. A [`Uop`] therefore carries everything timing
//! needs — operand registers (for the scoreboard), memory address (for the
//! cache hierarchy), and branch outcome/target (for the predictors) — but
//! no data values.
//!
//! The modelled core (Silverthorne, an IA-32 machine) has a 32-bit
//! address space: every pc, data address and next-pc fits in 32 bits.
//! [`Uop`] keeps them as `u64`, and [`Uop::validate`] rejects any above
//! `u32::MAX`, and any size or direction a kind cannot have, so a
//! [`UopRecord`](crate::UopRecord) stores a uop without loss.

use std::fmt;
use std::num::NonZeroU8;

use crate::error::{TraceError, UopError};

/// Number of architectural registers tracked by the scoreboard
/// (integer + floating-point/SIMD logical registers of the in-order core).
pub const NUM_REGS: u8 = 64;

/// A logical register identifier in `0..NUM_REGS`.
///
/// Stored as index + 1 in a [`NonZeroU8`], so `Option<Reg>` is one byte
/// (a [`UopRecord`](crate::UopRecord) holds three of them).
///
/// ```
/// use lowvcc_trace::Reg;
///
/// let r = Reg::new(5)?;
/// assert_eq!(r.index(), 5);
/// assert!(Reg::new(200).is_err());
/// # Ok::<(), lowvcc_trace::RegError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(NonZeroU8);

/// Error constructing a [`Reg`] out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegError {
    /// The rejected register index.
    pub index: u8,
}

impl fmt::Display for RegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "register index {} out of range 0..{NUM_REGS}",
            self.index
        )
    }
}

impl std::error::Error for RegError {}

impl Reg {
    /// Creates a register identifier.
    ///
    /// # Errors
    ///
    /// Returns [`RegError`] if `index >= NUM_REGS`.
    pub fn new(index: u8) -> Result<Self, RegError> {
        match NonZeroU8::new(index.wrapping_add(1)) {
            Some(stored) if index < NUM_REGS => Ok(Self(stored)),
            _ => Err(RegError { index }),
        }
    }

    /// The register index.
    #[inline]
    #[must_use]
    pub fn index(self) -> u8 {
        self.0.get() - 1
    }

    /// The stored byte, index + 1 (`1..=NUM_REGS`): a table of
    /// `NUM_REGS + 1` entries indexed by it needs no subtraction.
    #[inline]
    #[must_use]
    pub fn slot(self) -> u8 {
        self.0.get()
    }

    /// Iterator over all architectural registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (1..=NUM_REGS).filter_map(NonZeroU8::new).map(Reg)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Reg").field(&self.index()).finish()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// Operation classes, mirroring the execution units of the in-order core.
///
/// The discriminants are the four-bit codes a
/// [`UopRecord`](crate::UopRecord)'s tag stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum UopKind {
    /// Single-cycle integer ALU operation.
    IntAlu = 0,
    /// Pipelined integer multiply.
    IntMul = 1,
    /// Unpipelined integer divide.
    IntDiv = 2,
    /// Floating-point add/sub (SIMD lane).
    FpAdd = 3,
    /// Floating-point multiply.
    FpMul = 4,
    /// Unpipelined floating-point divide.
    FpDiv = 5,
    /// Memory load.
    Load = 6,
    /// Memory store.
    Store = 7,
    /// Conditional branch.
    Branch = 8,
    /// Function call (pushes the return address on the RSB).
    Call = 9,
    /// Function return (predicted via the RSB).
    Ret = 10,
    /// No-operation (also injected to drain the IQ, paper §4.2).
    Nop = 11,
}

impl UopKind {
    /// Whether this uop accesses data memory.
    #[inline]
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, Self::Load | Self::Store)
    }

    /// Whether this uop redirects control flow.
    #[inline]
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(self, Self::Branch | Self::Call | Self::Ret)
    }

    /// Whether this uop's execution latency is long and variable enough
    /// that the scoreboard tracks it via a completion event rather than a
    /// shift-register pattern (paper §4.1.1 "long-latency instructions").
    #[must_use]
    pub fn is_long_latency(self) -> bool {
        matches!(self, Self::IntDiv | Self::FpDiv)
    }

    /// All uop kinds (for exhaustive table construction).
    #[must_use]
    pub fn all() -> [UopKind; 12] {
        [
            Self::IntAlu,
            Self::IntMul,
            Self::IntDiv,
            Self::FpAdd,
            Self::FpMul,
            Self::FpDiv,
            Self::Load,
            Self::Store,
            Self::Branch,
            Self::Call,
            Self::Ret,
            Self::Nop,
        ]
    }
}

impl fmt::Display for UopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::IntAlu => "alu",
            Self::IntMul => "mul",
            Self::IntDiv => "div",
            Self::FpAdd => "fadd",
            Self::FpMul => "fmul",
            Self::FpDiv => "fdiv",
            Self::Load => "load",
            Self::Store => "store",
            Self::Branch => "br",
            Self::Call => "call",
            Self::Ret => "ret",
            Self::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// One dynamic micro-operation of a trace.
///
/// Addresses are `u64`, but a valid uop's pc, data address and target
/// all lie in the 32-bit address space (see [`Uop::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// Program counter of this uop.
    pub pc: u64,
    /// Operation class.
    pub kind: UopKind,
    /// Destination register, if the uop produces a value.
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
    /// Effective data address for loads/stores.
    pub addr: Option<u64>,
    /// Access size in bytes for loads/stores (1, 2, 4 or 8; the
    /// generators emit 4 or 8), 0 for any other uop.
    pub size: u8,
    /// Actual branch outcome for control uops (false for any other uop).
    pub taken: bool,
    /// Actual next-pc for control uops (branch target, callee entry, or
    /// return address).
    pub target: u64,
}

impl Uop {
    /// A plain single-cycle ALU uop.
    #[must_use]
    pub fn alu(pc: u64, dst: Option<Reg>, src1: Option<Reg>, src2: Option<Reg>) -> Self {
        Self {
            pc,
            kind: UopKind::IntAlu,
            dst,
            src1,
            src2,
            addr: None,
            size: 0,
            taken: false,
            target: 0,
        }
    }

    /// A load uop reading `addr` into `dst`.
    #[must_use]
    pub fn load(pc: u64, dst: Reg, base: Option<Reg>, addr: u64, size: u8) -> Self {
        Self {
            pc,
            kind: UopKind::Load,
            dst: Some(dst),
            src1: base,
            src2: None,
            addr: Some(addr),
            size,
            taken: false,
            target: 0,
        }
    }

    /// A store uop writing `src` to `addr`.
    #[must_use]
    pub fn store(pc: u64, data: Option<Reg>, base: Option<Reg>, addr: u64, size: u8) -> Self {
        Self {
            pc,
            kind: UopKind::Store,
            dst: None,
            src1: data,
            src2: base,
            addr: Some(addr),
            size,
            taken: false,
            target: 0,
        }
    }

    /// A conditional branch with its resolved outcome and target.
    #[must_use]
    pub fn branch(pc: u64, src: Option<Reg>, taken: bool, target: u64) -> Self {
        Self {
            pc,
            kind: UopKind::Branch,
            dst: None,
            src1: src,
            src2: None,
            addr: None,
            size: 0,
            taken,
            target,
        }
    }

    /// A nop (used for IQ drain injection).
    #[must_use]
    pub fn nop(pc: u64) -> Self {
        Self {
            pc,
            kind: UopKind::Nop,
            dst: None,
            src1: None,
            src2: None,
            addr: None,
            size: 0,
            taken: false,
            target: 0,
        }
    }

    /// Source registers as an iterator (0, 1 or 2 items).
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }

    /// Cache-line address (64-byte lines) of the memory access, if any.
    #[must_use]
    pub fn line_addr(&self) -> Option<u64> {
        self.addr.map(|a| a >> 6)
    }

    /// Validates kind/payload consistency.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (memory uop without an
    /// address or with a target, a non-memory uop carrying an address,
    /// a taken control uop without a target, a load without a
    /// destination, a memory uop whose size is not 1, 2, 4 or 8, a
    /// non-memory uop with a size, a non-control uop marked taken, or a
    /// pc, address or target above `u32::MAX`).
    pub fn validate(&self) -> Result<(), UopError> {
        if self.kind.is_mem() && self.addr.is_none() {
            return Err(UopError::MissingAddress {
                kind: self.kind,
                pc: self.pc,
            });
        }
        if !self.kind.is_mem() && self.addr.is_some() {
            return Err(UopError::UnexpectedAddress {
                kind: self.kind,
                pc: self.pc,
            });
        }
        if self.kind.is_mem() && self.target != 0 {
            return Err(UopError::UnexpectedTarget {
                kind: self.kind,
                pc: self.pc,
            });
        }
        if self.kind.is_control() && self.taken && self.target == 0 {
            return Err(UopError::MissingTarget {
                kind: self.kind,
                pc: self.pc,
            });
        }
        if self.kind == UopKind::Load && self.dst.is_none() {
            return Err(UopError::MissingDestination { pc: self.pc });
        }
        if self.kind.is_mem() && !matches!(self.size, 1 | 2 | 4 | 8) {
            return Err(UopError::InvalidSize {
                kind: self.kind,
                pc: self.pc,
                size: self.size,
            });
        }
        if !self.kind.is_mem() && self.size != 0 {
            return Err(UopError::UnexpectedSize {
                kind: self.kind,
                pc: self.pc,
            });
        }
        if !self.kind.is_control() && self.taken {
            return Err(UopError::UnexpectedTaken {
                kind: self.kind,
                pc: self.pc,
            });
        }
        let wide = |a: u64| u32::try_from(a).is_err();
        if wide(self.pc) || self.addr.is_some_and(wide) || wide(self.target) {
            return Err(UopError::AddressOutOfRange {
                kind: self.kind,
                pc: self.pc,
            });
        }
        Ok(())
    }
}

/// A named instruction trace: the unit of workload the simulator replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Human-readable name (family + seed).
    pub name: String,
    /// The dynamic uop stream.
    pub uops: Vec<Uop>,
}

impl Trace {
    /// Creates a trace from a uop stream.
    #[must_use]
    pub fn new(name: impl Into<String>, uops: Vec<Uop>) -> Self {
        Self {
            name: name.into(),
            uops,
        }
    }

    /// Number of dynamic uops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Validates every uop.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Uop`] carrying the first invalid uop's index
    /// and defect.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (i, u) in self.uops.iter().enumerate() {
            u.validate()
                .map_err(|source| TraceError::Uop { index: i, source })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn reg_bounds() {
        assert!(Reg::new(0).is_ok());
        assert!(Reg::new(NUM_REGS - 1).is_ok());
        assert!(Reg::new(NUM_REGS).is_err());
        assert_eq!(Reg::new(u8::MAX), Err(RegError { index: u8::MAX }));
        assert_eq!(Reg::all().count(), usize::from(NUM_REGS));
        assert_eq!(r(7).to_string(), "r7");
    }

    #[test]
    fn reg_keeps_its_index_text_and_order() {
        let indices: Vec<u8> = Reg::all().map(Reg::index).collect();
        assert_eq!(indices, (0..NUM_REGS).collect::<Vec<_>>());
        assert_eq!(format!("{:?}", r(0)), "Reg(0)");
        assert_eq!(format!("{:?}", Some(r(63))), "Some(Reg(63))");
        assert_eq!(r(0).to_string(), "r0");
        assert!(r(0) < r(1) && r(62) < r(63));
        let slots: Vec<u8> = Reg::all().map(Reg::slot).collect();
        assert_eq!(slots, (1..=NUM_REGS).collect::<Vec<_>>());
    }

    #[test]
    fn kind_classification() {
        assert!(UopKind::Load.is_mem());
        assert!(UopKind::Store.is_mem());
        assert!(!UopKind::IntAlu.is_mem());
        assert!(UopKind::Branch.is_control());
        assert!(UopKind::Call.is_control());
        assert!(UopKind::Ret.is_control());
        assert!(UopKind::IntDiv.is_long_latency());
        assert!(UopKind::FpDiv.is_long_latency());
        assert!(!UopKind::Load.is_long_latency());
        assert_eq!(UopKind::all().len(), 12);
    }

    #[test]
    fn constructors_produce_valid_uops() {
        let uops = [
            Uop::alu(0x1000, Some(r(1)), Some(r(2)), Some(r(3))),
            Uop::load(0x1004, r(4), Some(r(1)), 0xbeef00, 8),
            Uop::store(0x1008, Some(r(4)), Some(r(1)), 0xbeef08, 4),
            Uop::branch(0x100c, Some(r(4)), true, 0x1000),
            Uop::nop(0x1010),
        ];
        for u in &uops {
            u.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut bad_load = Uop::load(0, r(1), None, 0x40, 8);
        bad_load.addr = None;
        assert!(bad_load.validate().is_err());

        let mut alu_with_addr = Uop::alu(0, Some(r(1)), None, None);
        alu_with_addr.addr = Some(0x40);
        assert!(alu_with_addr.validate().is_err());

        let taken_no_target = Uop::branch(4, None, true, 0);
        assert!(taken_no_target.validate().is_err());

        let mut load_no_dst = Uop::load(0, r(1), None, 0x40, 8);
        load_no_dst.dst = None;
        assert!(load_no_dst.validate().is_err());

        let mut store_with_target = Uop::store(8, None, None, 0x40, 8);
        store_with_target.target = 0x100;
        assert_eq!(
            store_with_target.validate(),
            Err(UopError::UnexpectedTarget {
                kind: UopKind::Store,
                pc: 8
            })
        );
        assert_eq!(
            store_with_target.validate().unwrap_err().to_string(),
            "store at 0x8 carries a target"
        );

        // The 32-bit address space: a record stores pc, address and
        // target in 32 bits each.
        const LIMIT: u64 = 1 << 32;
        let top = u64::from(u32::MAX);
        // The highest pc, address and target still fit.
        Uop::load(top, r(1), None, top, 8).validate().unwrap();
        Uop::branch(top, None, true, top).validate().unwrap();

        let pc = Uop::nop(LIMIT);
        let addr = Uop::store(8, None, None, LIMIT, 8);
        let target = Uop::branch(12, None, true, LIMIT);
        let untaken = Uop::branch(16, None, false, LIMIT);
        for u in [pc, addr, target, untaken] {
            assert_eq!(
                u.validate(),
                Err(UopError::AddressOutOfRange {
                    kind: u.kind,
                    pc: u.pc
                }),
                "{u:?}"
            );
        }
        assert_eq!(
            addr.validate().unwrap_err().to_string(),
            "store at 0x8 reaches past the 32-bit address space"
        );

        // The record's tag: a size only on memory uops, as a power of two
        // up to 8, and a direction only on control uops.
        for size in [1, 2, 4, 8] {
            Uop::load(0, r(1), None, 0x40, size).validate().unwrap();
        }
        for size in [0, 3, 16] {
            let u = Uop::store(8, None, None, 0x40, size);
            assert_eq!(
                u.validate(),
                Err(UopError::InvalidSize {
                    kind: UopKind::Store,
                    pc: 8,
                    size
                })
            );
        }
        let mut sized = Uop::nop(12);
        sized.size = 8;
        assert_eq!(
            sized.validate(),
            Err(UopError::UnexpectedSize {
                kind: UopKind::Nop,
                pc: 12
            })
        );
        let mut taken = Uop::load(16, r(1), None, 0x40, 8);
        taken.taken = true;
        assert_eq!(
            taken.validate(),
            Err(UopError::UnexpectedTaken {
                kind: UopKind::Load,
                pc: 16
            })
        );
        assert_eq!(
            Uop::store(8, None, None, 0x40, 3)
                .validate()
                .unwrap_err()
                .to_string(),
            "store at 0x8 accesses 3 bytes, not 1, 2, 4 or 8"
        );
        assert_eq!(
            sized.validate().unwrap_err().to_string(),
            "nop at 0xc carries an access size"
        );
        assert_eq!(
            taken.validate().unwrap_err().to_string(),
            "load at 0x10 is marked taken"
        );
    }

    #[test]
    fn sources_iterates_present_operands() {
        let u = Uop::alu(0, Some(r(1)), Some(r(2)), None);
        let srcs: Vec<_> = u.sources().collect();
        assert_eq!(srcs, vec![r(2)]);
        let u2 = Uop::alu(0, Some(r(1)), Some(r(2)), Some(r(3)));
        assert_eq!(u2.sources().count(), 2);
    }

    #[test]
    fn line_addr_uses_64_byte_lines() {
        let u = Uop::load(0, r(1), None, 0x1003f, 4);
        assert_eq!(u.line_addr(), Some(0x400));
        assert_eq!(Uop::nop(0).line_addr(), None);
    }

    #[test]
    fn trace_validation_reports_index() {
        let mut bad = Uop::load(4, r(1), None, 0x40, 8);
        bad.addr = None;
        let t = Trace::new("t", vec![Uop::nop(0), bad]);
        let err = t.validate().unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Uop {
                    index: 1,
                    source: UopError::MissingAddress { .. }
                }
            ),
            "{err}"
        );
        assert!(err.to_string().starts_with("uop 1:"), "{err}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
