//! Packed trace layout: the one form a synthesized suite takes.
//!
//! A grid re-runs the *same* trace at every (Vcc, mechanism) point.
//! [`TraceArena`] holds a trace as one vector of 16-byte [`UopRecord`]s,
//! shared immutably across every point; fetch and issue both read a uop
//! as one record. The record is the 40-byte [`Uop`] in the modelled
//! core's 32-bit address space: the pc in 32 bits, the address and
//! next-pc folded into one 32-bit word (a memory uop has an address and
//! no target, any other uop a target and no address), and each register
//! operand in one byte (`Option<Reg>` uses [`Reg`]'s niche).
//!
//! A suite is synthesized straight into arenas
//! ([`TraceSpec::build_arena`](crate::TraceSpec::build_arena)), each uop
//! validated as it is pushed, so it never exists as a [`Trace`] and is
//! decoded exactly once. [`TraceArena::from_trace`] decodes a [`Trace`]
//! built some other way.

use crate::error::TraceError;
use crate::synth::UopSink;
use crate::uop::{Reg, Trace, Uop, UopKind};

/// One uop as the pipeline reads it: 16 bytes.
///
/// The pc and the word shared by the effective address of a memory uop
/// and the resolved next-pc of any other uop are 32 bits each, read
/// widened through [`pc`](Self::pc), [`addr`](Self::addr) and
/// [`target`](Self::target). [`Uop::validate`] rejects a memory uop
/// with a target and any pc, address or target above `u32::MAX`, so
/// nothing a valid uop carries is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopRecord {
    /// Program counter.
    pc: u32,
    /// Effective address (memory uops) or resolved next-pc (others).
    addr_or_target: u32,
    /// Operation class.
    pub kind: UopKind,
    /// Resolved direction (control uops).
    pub taken: bool,
    /// Access size in bytes (memory uops).
    pub size: u8,
    /// Destination register.
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
}

impl UopRecord {
    /// The record of [`Uop::nop`]`(pc)`.
    #[must_use]
    pub const fn nop(pc: u32) -> Self {
        Self {
            pc,
            addr_or_target: 0,
            kind: UopKind::Nop,
            taken: false,
            size: 0,
            dst: None,
            src1: None,
            src2: None,
        }
    }

    /// Program counter.
    #[inline]
    #[must_use]
    pub fn pc(&self) -> u64 {
        u64::from(self.pc)
    }

    /// Effective data address of a memory uop, else 0.
    #[inline]
    #[must_use]
    pub fn addr(&self) -> u64 {
        if self.kind.is_mem() {
            u64::from(self.addr_or_target)
        } else {
            0
        }
    }

    /// Resolved next-pc of a non-memory uop (control uops), else 0.
    #[inline]
    #[must_use]
    pub fn target(&self) -> u64 {
        if self.kind.is_mem() {
            0
        } else {
            u64::from(self.addr_or_target)
        }
    }
}

/// Decodes a uop, keeping the low 32 bits of its pc, address and target:
/// exact for a valid uop, truncating for one above `u32::MAX`.
impl From<&Uop> for UopRecord {
    fn from(u: &Uop) -> Self {
        let addr_or_target = if u.kind.is_mem() {
            u.addr.unwrap_or(0)
        } else {
            u.target
        };
        Self {
            pc: u.pc as u32,
            addr_or_target: addr_or_target as u32,
            kind: u.kind,
            taken: u.taken,
            size: u.size,
            dst: u.dst,
            src1: u.src1,
            src2: u.src2,
        }
    }
}

/// A trace as one vector of packed [`UopRecord`]s.
///
/// Construction is the only copy; afterwards the arena is read-only and
/// freely shareable across threads (`&TraceArena` is `Sync`).
///
/// ```
/// use lowvcc_trace::{Trace, TraceArena, Uop};
///
/// let trace = Trace::new("t", vec![Uop::nop(0x0), Uop::nop(0x4)]);
/// let arena = TraceArena::from_trace(&trace);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.record(1).pc(), 0x4);
/// assert_eq!(arena.name(), "t");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    name: String,
    records: Vec<UopRecord>,
}

impl TraceArena {
    /// Decodes `trace` into records. O(len). Infallible: it does not
    /// validate (see [`Uop::validate`]), so an invalid uop decodes
    /// lossily (a load without an address as address 0, a pc, address
    /// or target above `u32::MAX` truncated to its low 32 bits).
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        Self {
            name: trace.name.clone(),
            records: trace.uops.iter().map(UopRecord::from).collect(),
        }
    }

    /// Trace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of uops.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes of packed records held (16 per uop; the name aside).
    #[must_use]
    pub fn record_bytes(&self) -> usize {
        std::mem::size_of_val(self.records.as_slice())
    }

    /// The record of uop `i`.
    #[inline]
    #[must_use]
    pub fn record(&self, i: usize) -> &UopRecord {
        &self.records[i]
    }

    /// Reassembles uop `i` (diagnostics and equivalence tests; the hot
    /// paths read the records). Exact for every uop that passes
    /// [`Uop::validate`]: only memory uops carry an address, they carry
    /// no target, and every pc, address and target fits in 32 bits.
    #[must_use]
    pub fn uop(&self, i: usize) -> Uop {
        let r = &self.records[i];
        Uop {
            pc: r.pc(),
            kind: r.kind,
            dst: r.dst,
            src1: r.src1,
            src2: r.src2,
            addr: r.kind.is_mem().then_some(r.addr()),
            size: r.size,
            taken: r.taken,
            target: r.target(),
        }
    }
}

/// The synthesis sink: fills an arena sized for its final length and
/// validates each uop as it is pushed, remembering the first invalid
/// one (later uops still land, so indices stay those of the stream).
pub(crate) struct ArenaSink {
    arena: TraceArena,
    invalid: Option<TraceError>,
}

impl ArenaSink {
    /// An empty arena named `name` with room for exactly `len` uops.
    pub(crate) fn new(name: String, len: usize) -> Self {
        Self {
            arena: TraceArena {
                name,
                records: Vec::with_capacity(len),
            },
            invalid: None,
        }
    }

    /// The filled arena.
    ///
    /// # Errors
    ///
    /// [`TraceError::Uop`] for the first uop that failed validation.
    pub(crate) fn finish(self) -> Result<TraceArena, TraceError> {
        self.invalid.map_or(Ok(self.arena), Err)
    }
}

impl UopSink for ArenaSink {
    fn push(&mut self, uop: Uop) {
        if self.invalid.is_none() {
            if let Err(source) = uop.validate() {
                self.invalid = Some(TraceError::Uop {
                    index: self.arena.len(),
                    source,
                });
            }
        }
        self.arena.records.push(UopRecord::from(&uop));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::UopError;
    use crate::families::suite;

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<UopRecord>(), 16);
        assert_eq!(std::mem::size_of::<Option<Reg>>(), 1);
        assert_eq!(std::mem::size_of::<Uop>(), 40);
    }

    #[test]
    fn round_trips_every_uop() {
        // Every family, so every uop kind's address-or-target word is
        // exercised.
        for spec in suite(1, 3_000) {
            let trace = spec.build().unwrap();
            let arena = TraceArena::from_trace(&trace);
            assert_eq!(arena.len(), trace.uops.len());
            assert_eq!(arena.name(), trace.name);
            for (i, u) in trace.uops.iter().enumerate() {
                assert_eq!(arena.uop(i), *u, "{}: uop {i} must round-trip", trace.name);
            }
        }
    }

    #[test]
    fn synthesis_into_an_arena_equals_decoding_the_built_trace() {
        // Lengths 1 and 999 end inside a basic block, so the walk
        // overshoots and the surplus is dropped; 10 000 spans many
        // blocks of every family.
        for len in [1, 999, 10_000] {
            for spec in suite(1, len) {
                let arena = spec.build_arena().unwrap();
                let decoded = TraceArena::from_trace(&spec.build().unwrap());
                assert_eq!(arena, decoded, "{} at length {len}", spec.name());
                assert_eq!(arena.record_bytes(), 16 * len);
            }
        }
    }

    #[test]
    fn the_sink_reports_the_first_invalid_uop_by_index() {
        let mut bad = Uop::load(0x44, Reg::new(1).unwrap(), None, 0x40, 8);
        bad.addr = None;
        let mut worse = Uop::nop(0x48);
        worse.addr = Some(0x80);
        let uops = [Uop::nop(0x40), bad, worse];
        let mut sink = ArenaSink::new("bad".to_string(), uops.len());
        for u in uops {
            sink.push(u);
        }
        let err = sink.finish().expect_err("a load without an address");
        assert_eq!(
            err,
            Trace::new("bad", uops.to_vec()).validate().unwrap_err()
        );
        assert!(matches!(err, TraceError::Uop { index: 1, .. }), "{err:?}");
    }

    #[test]
    fn the_sink_reports_a_memory_uop_with_a_target_by_index() {
        let mut bad = Uop::store(0x48, None, None, 0x40, 8);
        bad.target = 0x100;
        let mut sink = ArenaSink::new("bad".to_string(), 3);
        for u in [Uop::nop(0x40), Uop::nop(0x44), bad] {
            sink.push(u);
        }
        assert_eq!(
            sink.finish(),
            Err(TraceError::Uop {
                index: 2,
                source: UopError::UnexpectedTarget {
                    kind: UopKind::Store,
                    pc: 0x48
                }
            })
        );
    }

    #[test]
    fn the_sink_reports_an_address_past_32_bits_by_index() {
        let wide = Uop::load(0x48, Reg::new(1).unwrap(), None, 1 << 32, 8);
        let mut sink = ArenaSink::new("wide".to_string(), 3);
        for u in [Uop::nop(0x40), Uop::nop(0x44), wide] {
            sink.push(u);
        }
        assert_eq!(
            sink.finish(),
            Err(TraceError::Uop {
                index: 2,
                source: UopError::AddressOutOfRange {
                    kind: UopKind::Load,
                    pc: 0x48
                }
            })
        );
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::new("empty", vec![]);
        let arena = TraceArena::from_trace(&trace);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn records_match_fields() {
        let u = Uop::load(0x40, Reg::new(1).unwrap(), None, 0x1000, 8);
        let b = Uop::branch(0x44, None, true, 0x80);
        let trace = Trace::new("two", vec![u, b]);
        let arena = TraceArena::from_trace(&trace);
        assert_eq!(arena.record(0).pc(), 0x40);
        assert_eq!(
            *arena.record(0),
            UopRecord {
                pc: 0x40,
                addr_or_target: 0x1000,
                kind: u.kind,
                taken: false,
                size: u.size,
                dst: u.dst,
                src1: u.src1,
                src2: u.src2,
            }
        );
        assert_eq!(
            *arena.record(1),
            UopRecord {
                pc: 0x44,
                addr_or_target: 0x80,
                kind: UopKind::Branch,
                taken: true,
                ..UopRecord::nop(0)
            }
        );
        // The shared word reads as the address of a memory uop only...
        assert_eq!(
            (arena.record(0).addr(), arena.record(0).target()),
            (0x1000, 0)
        );
        // ...and as the target of any other uop, which rebuilds `None`.
        assert_eq!(
            (arena.record(1).addr(), arena.record(1).target()),
            (0, 0x80)
        );
        assert_eq!(arena.uop(1).addr, None);
        assert_eq!(UopRecord::from(&Uop::nop(0x48)), UopRecord::nop(0x48));
    }

    #[test]
    fn a_malformed_load_decodes_to_address_zero() {
        // `from_trace` is infallible: a load without an address (which
        // `Uop::validate` rejects) still decodes, as address 0.
        let mut bad = Uop::load(0, Reg::new(1).unwrap(), None, 0x40, 8);
        bad.addr = None;
        let arena = TraceArena::from_trace(&Trace::new("bad", vec![bad]));
        assert_eq!(arena.record(0).addr(), 0);
        assert_eq!(arena.uop(0).addr, Some(0));
    }

    #[test]
    fn an_address_past_32_bits_decodes_truncated() {
        // `from_trace` is infallible: a uop above the 32-bit address
        // space (which `Uop::validate` rejects) decodes to the low 32
        // bits of its pc, address and target.
        const HIGH: u64 = 1 << 32;
        let load = Uop::load(HIGH | 0x40, Reg::new(1).unwrap(), None, HIGH | 0x1000, 8);
        let call = Uop {
            kind: UopKind::Call,
            taken: true,
            target: HIGH | 0x80,
            ..Uop::nop(HIGH | 0x44)
        };
        let arena = TraceArena::from_trace(&Trace::new("wide", vec![load, call]));
        assert_eq!(
            (arena.record(0).pc(), arena.record(0).addr()),
            (0x40, 0x1000)
        );
        assert_eq!(
            (arena.record(1).pc(), arena.record(1).target()),
            (0x44, 0x80)
        );
        assert_eq!(
            arena.uop(1),
            Uop {
                pc: 0x44,
                target: 0x80,
                ..call
            }
        );
    }
}
