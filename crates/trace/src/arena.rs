//! Packed trace layout: the one form a synthesized suite takes.
//!
//! A grid re-runs the *same* trace at every (Vcc, mechanism) point.
//! [`TraceArena`] holds a trace as one vector of 8-byte [`UopRecord`]s,
//! shared immutably across every point; fetch and issue both read a uop
//! as one record. The record is the 40-byte [`Uop`] less what the
//! control flow already says: it stores no pc, because a uop's pc is
//! almost always its predecessor's next-pc (`taken ? target : pc + 4`).
//! The arena keeps the few uops where that fails as *pc breaks*, and a
//! [`PcWalk`] recovers every pc in trace order from them. The rest is
//! one 32-bit word (the address of a memory uop, the target of any
//! other uop), one tag byte (kind, direction and access size) and each
//! register operand in one byte (`Option<Reg>` uses [`Reg`]'s niche).
//!
//! A suite is synthesized straight into arenas
//! ([`TraceSpec::build_arena`](crate::TraceSpec::build_arena)), each uop
//! validated as it is pushed, so it never exists as a [`Trace`] and is
//! decoded exactly once. [`TraceArena::from_trace`] decodes a [`Trace`]
//! built some other way. Both fill the arena through one push path.

use std::fmt;

use crate::error::TraceError;
use crate::synth::UopSink;
use crate::uop::{Reg, Trace, Uop, UopKind};

/// Tag bits 0..4: the [`UopKind`] discriminant.
const KIND_MASK: u8 = 0x0F;
/// Tag bit 4: the resolved direction.
const TAKEN: u8 = 1 << 4;
/// Tag bits 5..7: log2 of a memory uop's access size.
const SIZE_SHIFT: u32 = 5;

/// The kind whose discriminant is `code` (the tag's low four bits).
#[inline]
const fn kind_of(code: u8) -> UopKind {
    match code {
        0 => UopKind::IntAlu,
        1 => UopKind::IntMul,
        2 => UopKind::IntDiv,
        3 => UopKind::FpAdd,
        4 => UopKind::FpMul,
        5 => UopKind::FpDiv,
        6 => UopKind::Load,
        7 => UopKind::Store,
        8 => UopKind::Branch,
        9 => UopKind::Call,
        10 => UopKind::Ret,
        _ => UopKind::Nop,
    }
}

/// One uop as the pipeline reads it: 8 bytes, and no pc.
///
/// The 32-bit word is the effective address of a memory uop and the
/// resolved target of any other uop, read through [`addr`](Self::addr)
/// and [`target`](Self::target). The tag byte packs the kind (4 bits),
/// the direction (1 bit) and log2 of the access size (2 bits), read
/// through [`kind`](Self::kind), [`taken`](Self::taken) and
/// [`size`](Self::size). [`Uop::validate`] rejects every uop those
/// fields cannot hold exactly (a memory uop with a target or a size
/// other than 1, 2, 4 or 8, a non-memory uop with a size, a non-control
/// uop marked taken, anything above `u32::MAX`), so nothing a valid uop
/// carries is lost.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct UopRecord {
    /// Effective address (memory uops) or resolved target (others).
    word: u32,
    /// Kind, direction and access size.
    tag: u8,
    /// Destination register.
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
}

impl UopRecord {
    /// The record of a [`Uop::nop`] at any pc.
    #[must_use]
    pub const fn nop() -> Self {
        Self {
            word: 0,
            tag: UopKind::Nop as u8,
            dst: None,
            src1: None,
            src2: None,
        }
    }

    /// Operation class.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> UopKind {
        kind_of(self.tag & KIND_MASK)
    }

    /// Resolved direction (control uops).
    #[inline]
    #[must_use]
    pub fn taken(&self) -> bool {
        self.tag & TAKEN != 0
    }

    /// Access size in bytes of a memory uop, else 0.
    #[inline]
    #[must_use]
    pub fn size(&self) -> u8 {
        if self.kind().is_mem() {
            1 << (self.tag >> SIZE_SHIFT & 0b11)
        } else {
            0
        }
    }

    /// Effective data address of a memory uop, else 0.
    #[inline]
    #[must_use]
    pub fn addr(&self) -> u64 {
        if self.kind().is_mem() {
            u64::from(self.word)
        } else {
            0
        }
    }

    /// Resolved target of a non-memory uop (control uops), else 0.
    #[inline]
    #[must_use]
    pub fn target(&self) -> u64 {
        if self.kind().is_mem() {
            0
        } else {
            u64::from(self.word)
        }
    }

    /// The pc of the uop after this one, were this one at `pc`: the
    /// word if taken (only a control uop is, and its word is its
    /// target), else `pc + 4`.
    #[inline]
    fn next_pc(&self, pc: u64) -> u64 {
        if self.taken() {
            u64::from(self.word)
        } else {
            pc + 4
        }
    }

    /// Reassembles the uop this record holds, placed at `pc`.
    fn uop(&self, pc: u64) -> Uop {
        let kind = self.kind();
        Uop {
            pc,
            kind,
            dst: self.dst,
            src1: self.src1,
            src2: self.src2,
            addr: kind.is_mem().then_some(self.addr()),
            size: self.size(),
            taken: self.taken(),
            target: self.target(),
        }
    }
}

impl fmt::Debug for UopRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UopRecord")
            .field("kind", &self.kind())
            .field("taken", &self.taken())
            .field("size", &self.size())
            .field("word", &format_args!("{:#x}", self.word))
            .field("dst", &self.dst)
            .field("src1", &self.src1)
            .field("src2", &self.src2)
            .finish()
    }
}

/// Decodes a uop, less its pc: exact for a valid uop, lossy for an
/// invalid one (a load without an address decodes as address 0, an
/// address or target above `u32::MAX` to its low 32 bits, a size that is
/// not a power of two up to 8 to some such size).
impl From<&Uop> for UopRecord {
    fn from(u: &Uop) -> Self {
        let word = if u.kind.is_mem() {
            u.addr.unwrap_or(0)
        } else {
            u.target
        };
        let size_log2 = (u.size.trailing_zeros() as u8) & 0b11;
        Self {
            word: word as u32,
            tag: u.kind as u8 | if u.taken { TAKEN } else { 0 } | size_log2 << SIZE_SHIFT,
            dst: u.dst,
            src1: u.src1,
            src2: u.src2,
        }
    }
}

/// A trace as one vector of packed [`UopRecord`]s plus its pc breaks.
///
/// Construction is the only copy; afterwards the arena is read-only and
/// freely shareable across threads (`&TraceArena` is `Sync`).
///
/// ```
/// use lowvcc_trace::{Trace, TraceArena, Uop};
///
/// let uops = vec![Uop::nop(0x0), Uop::nop(0x4), Uop::nop(0x40)];
/// let arena = TraceArena::from_trace(&Trace::new("t", uops.clone()));
/// assert_eq!(arena.len(), 3);
/// // 0x4 follows 0x0; 0x40 does not follow 0x4, so the arena holds
/// // two pc breaks (uop 0 is always one) beside its three records.
/// assert_eq!(arena.decoded_bytes(), 3 * 8 + 2 * 16);
/// assert!(arena.uops().eq(uops));
/// assert_eq!(arena.name(), "t");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    name: String,
    records: Vec<UopRecord>,
    /// `(index, pc)` of every uop whose pc is not its predecessor's
    /// next-pc, in index order. Uop 0 is always one.
    breaks: Vec<(usize, u32)>,
}

impl TraceArena {
    /// Decodes `trace` into records. O(len). Infallible: it does not
    /// validate (see [`Uop::validate`]), so an invalid uop decodes
    /// lossily (see `From<&Uop> for UopRecord`; a pc above `u32::MAX`
    /// keeps its low 32 bits). Every pc stays exact whatever the
    /// control flow, since a pc that does not follow becomes a break.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut sink = ArenaSink::new(trace.name.clone(), trace.uops.len());
        for u in &trace.uops {
            sink.append(u);
        }
        sink.into_arena()
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

    /// Bytes of records and pc breaks held (8 per uop and 16 per break;
    /// the name aside).
    #[must_use]
    pub fn decoded_bytes(&self) -> usize {
        std::mem::size_of_val(self.records.as_slice())
            + std::mem::size_of_val(self.breaks.as_slice())
    }

    /// The record of uop `i`.
    #[inline]
    #[must_use]
    pub fn record(&self, i: usize) -> &UopRecord {
        &self.records[i]
    }

    /// Reassembles every uop in order (diagnostics and equivalence
    /// tests; the hot paths read the records). Exact for every uop that
    /// passes [`Uop::validate`].
    pub fn uops(&self) -> impl Iterator<Item = Uop> + '_ {
        let mut walk = PcWalk::START;
        self.records.iter().enumerate().map(move |(i, r)| {
            let pc = walk.pc(self, i);
            walk.step(self, i, pc);
            r.uop(pc)
        })
    }

    /// Reassembles uop `i`, walking the control flow from the nearest pc
    /// break at or before it: O(distance), so read a whole trace through
    /// [`uops`](Self::uops) instead.
    #[must_use]
    pub fn uop(&self, i: usize) -> Uop {
        let from = self.breaks.partition_point(|&(at, _)| at <= i) - 1;
        let (at, pc) = self.breaks[from];
        let pc = self.records[at..i]
            .iter()
            .fold(u64::from(pc), |pc, r| r.next_pc(pc));
        self.records[i].uop(pc)
    }
}

/// Recovers the pc of each uop of a [`TraceArena`] in trace order: the
/// pc of a pc break, else the previous uop's next-pc.
///
/// A walk starts at uop 0 ([`PcWalk::START`]) and moves one uop at a
/// time, always over the same arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcWalk {
    /// Index of the next pc break (`usize::MAX` past the last one).
    break_at: usize,
    /// That break's slot in the arena's break list.
    slot: usize,
    /// Next-pc of the last uop stepped past.
    next_pc: u64,
}

impl PcWalk {
    /// A walk at uop 0, which is always a pc break.
    pub const START: Self = Self {
        break_at: 0,
        slot: 0,
        next_pc: 0,
    };

    /// The pc of uop `i` of `arena`: the uop after the last one stepped
    /// past, or uop 0 at the start.
    #[inline]
    #[must_use]
    pub fn pc(&self, arena: &TraceArena, i: usize) -> u64 {
        if i == self.break_at {
            u64::from(arena.breaks[self.slot].1)
        } else {
            self.next_pc
        }
    }

    /// Steps past uop `i` of `arena`, whose pc is `pc`.
    #[inline]
    pub fn step(&mut self, arena: &TraceArena, i: usize, pc: u64) {
        if i == self.break_at {
            self.slot += 1;
            self.break_at = arena.breaks.get(self.slot).map_or(usize::MAX, |b| b.0);
        }
        self.next_pc = arena.records[i].next_pc(pc);
    }
}

/// The one push path into an arena: sized for its final length, it
/// records each uop's pc break, if any, and validates each uop pushed
/// through [`UopSink`], remembering the first invalid one (later uops
/// still land, so indices stay those of the stream).
pub(crate) struct ArenaSink {
    arena: TraceArena,
    /// Next-pc of the last uop appended (unused before the first).
    next_pc: u64,
    invalid: Option<TraceError>,
}

impl ArenaSink {
    /// An empty arena named `name` with room for exactly `len` uops.
    pub(crate) fn new(name: String, len: usize) -> Self {
        Self {
            arena: TraceArena {
                name,
                records: Vec::with_capacity(len),
                breaks: Vec::new(),
            },
            next_pc: 0,
            invalid: None,
        }
    }

    /// Appends `uop` without validating it.
    fn append(&mut self, uop: &Uop) {
        let record = UopRecord::from(uop);
        let pc = uop.pc as u32;
        if self.arena.records.is_empty() || u64::from(pc) != self.next_pc {
            self.arena.breaks.push((self.arena.records.len(), pc));
        }
        self.next_pc = record.next_pc(u64::from(pc));
        self.arena.records.push(record);
    }

    /// The arena, holding no spare capacity.
    fn into_arena(mut self) -> TraceArena {
        self.arena.records.shrink_to_fit();
        self.arena.breaks.shrink_to_fit();
        self.arena
    }

    /// The filled arena.
    ///
    /// # Errors
    ///
    /// [`TraceError::Uop`] for the first uop that failed validation.
    pub(crate) fn finish(mut self) -> Result<TraceArena, TraceError> {
        match self.invalid.take() {
            Some(err) => Err(err),
            None => Ok(self.into_arena()),
        }
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
        self.append(&uop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::UopError;
    use crate::families::suite;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn call(pc: u64, target: u64) -> Uop {
        Uop {
            kind: UopKind::Call,
            taken: true,
            target,
            ..Uop::nop(pc)
        }
    }

    #[test]
    fn a_record_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<UopRecord>(), 8);
        assert_eq!(std::mem::size_of::<Option<Reg>>(), 1);
        assert_eq!(std::mem::size_of::<Uop>(), 40);
    }

    #[test]
    fn the_tag_holds_every_kind_direction_and_size() {
        for kind in UopKind::all() {
            for taken in [false, true] {
                let sizes: &[u8] = if kind.is_mem() { &[1, 2, 4, 8] } else { &[0] };
                for &size in sizes {
                    let u = Uop {
                        kind,
                        taken,
                        size,
                        addr: kind.is_mem().then_some(0x1000),
                        ..Uop::nop(0x40)
                    };
                    let rec = UopRecord::from(&u);
                    assert_eq!(
                        (rec.kind(), rec.taken(), rec.size()),
                        (kind, taken, size),
                        "{u:?}"
                    );
                }
            }
        }
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
            for (i, (got, want)) in arena.uops().zip(&trace.uops).enumerate() {
                assert_eq!(got, *want, "{}: uop {i} must round-trip", trace.name);
            }
            assert_eq!(arena.uops().count(), trace.uops.len());
            for i in [0, 1, 1_499, 2_999] {
                assert_eq!(arena.uop(i), trace.uops[i], "{}: uop({i})", trace.name);
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
                assert_eq!(arena.decoded_bytes(), 8 * len + 16);
            }
        }
    }

    #[test]
    fn every_family_builds_with_one_pc_break_and_no_spare_capacity() {
        // `build_arena` validates each uop, so a pc, address or target
        // past `u32::MAX`, or a size or direction the tag cannot hold,
        // would fail here by index.
        let mut taken_to_the_next_pc = 0;
        for spec in suite(1, 200_000) {
            let arena = spec
                .build_arena()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert_eq!(arena.len(), 200_000);
            assert_eq!(arena.records.capacity(), arena.len(), "{}", spec.name());
            assert_eq!(arena.breaks.len(), 1, "{}", spec.name());
            assert_eq!(arena.breaks[0].0, 0);
            taken_to_the_next_pc += arena
                .uops()
                .filter(|u| u.taken && u.target == u.pc + 4)
                .count();
        }
        // Some taken control uops land on pc + 4, so the record must keep
        // the direction: the target alone does not tell.
        assert!(taken_to_the_next_pc > 0);
    }

    #[test]
    fn jumping_pcs_round_trip_through_breaks() {
        let uops = vec![
            Uop::nop(0x100),
            Uop::load(0x104, r(1), None, 0x2000, 2),
            // A jump with no control uop: a break.
            Uop::alu(0x400, Some(r(2)), Some(r(1)), None),
            // An untaken branch falls through to pc + 4...
            Uop::branch(0x404, Some(r(2)), false, 0x800),
            // ...a taken one to its target...
            Uop::branch(0x408, None, true, 0x800),
            call(0x800, 0x40c),
            // ...but this one lands elsewhere: a break.
            Uop::store(0x900, Some(r(2)), None, 0x2008, 1),
            Uop::nop(0x904),
            // The same pc twice: a break.
            Uop::nop(0x904),
        ];
        for u in &uops {
            u.validate().unwrap();
        }
        let arena = TraceArena::from_trace(&Trace::new("jumps", uops.clone()));
        assert_eq!(
            arena.breaks,
            [(0, 0x100), (2, 0x400), (6, 0x900), (8, 0x904)]
        );
        assert!(arena.uops().eq(uops.iter().copied()));
        for (i, u) in uops.iter().enumerate() {
            assert_eq!(arena.uop(i), *u, "uop({i})");
        }
        assert_eq!(arena.decoded_bytes(), 8 * uops.len() + 16 * 4);
    }

    #[test]
    fn a_walk_recovers_each_pc_and_can_peek_before_stepping() {
        let uops = [
            Uop::nop(0x10),
            Uop::branch(0x14, None, true, 0x40),
            Uop::nop(0x40),
            Uop::nop(0x80),
        ];
        let arena = TraceArena::from_trace(&Trace::new("walk", uops.to_vec()));
        let mut walk = PcWalk::START;
        for (i, u) in uops.iter().enumerate() {
            // Reading a pc does not move the walk.
            assert_eq!(walk.pc(&arena, i), u.pc);
            assert_eq!(walk.pc(&arena, i), u.pc);
            walk.step(&arena, i, u.pc);
        }
    }

    #[test]
    fn the_sink_reports_the_first_invalid_uop_by_index() {
        let mut bad = Uop::load(0x44, r(1), None, 0x40, 8);
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

    /// Pushes `bad` after two valid uops and returns the sink's verdict.
    fn sink_verdict(bad: Uop) -> Result<TraceArena, TraceError> {
        let mut sink = ArenaSink::new("bad".to_string(), 3);
        for u in [Uop::nop(0x40), Uop::nop(0x44), bad] {
            sink.push(u);
        }
        sink.finish()
    }

    #[test]
    fn the_sink_reports_each_uop_the_record_cannot_hold_by_index() {
        let mut target = Uop::store(0x48, None, None, 0x40, 8);
        target.target = 0x100;
        let wide = Uop::load(0x48, r(1), None, 1 << 32, 8);
        let odd_size = Uop::load(0x48, r(1), None, 0x40, 3);
        let mut sized_alu = Uop::alu(0x48, Some(r(1)), None, None);
        sized_alu.size = 4;
        let mut taken_alu = Uop::alu(0x48, Some(r(1)), None, None);
        taken_alu.taken = true;
        for (bad, source) in [
            (
                target,
                UopError::UnexpectedTarget {
                    kind: UopKind::Store,
                    pc: 0x48,
                },
            ),
            (
                wide,
                UopError::AddressOutOfRange {
                    kind: UopKind::Load,
                    pc: 0x48,
                },
            ),
            (
                odd_size,
                UopError::InvalidSize {
                    kind: UopKind::Load,
                    pc: 0x48,
                    size: 3,
                },
            ),
            (
                sized_alu,
                UopError::UnexpectedSize {
                    kind: UopKind::IntAlu,
                    pc: 0x48,
                },
            ),
            (
                taken_alu,
                UopError::UnexpectedTaken {
                    kind: UopKind::IntAlu,
                    pc: 0x48,
                },
            ),
        ] {
            assert_eq!(
                sink_verdict(bad),
                Err(TraceError::Uop { index: 2, source }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::new("empty", vec![]);
        let arena = TraceArena::from_trace(&trace);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
        assert!(arena.breaks.is_empty());
        assert_eq!(arena.uops().count(), 0);
        assert_eq!(arena.decoded_bytes(), 0);
    }

    #[test]
    fn records_match_fields() {
        let u = Uop::load(0x40, r(1), None, 0x1000, 8);
        let b = Uop::branch(0x44, None, true, 0x80);
        let trace = Trace::new("two", vec![u, b]);
        let arena = TraceArena::from_trace(&trace);
        let (load, branch) = (arena.record(0), arena.record(1));
        assert_eq!(
            (load.kind(), load.taken(), load.size(), load.dst),
            (UopKind::Load, false, 8, u.dst)
        );
        assert_eq!(
            (branch.kind(), branch.taken(), branch.size(), branch.dst),
            (UopKind::Branch, true, 0, None)
        );
        // The shared word reads as the address of a memory uop only...
        assert_eq!((load.addr(), load.target()), (0x1000, 0));
        // ...and as the target of any other uop, which rebuilds `None`.
        assert_eq!((branch.addr(), branch.target()), (0, 0x80));
        assert_eq!(arena.uop(1).addr, None);
        // The next pc follows the direction.
        assert_eq!((load.next_pc(0x40), branch.next_pc(0x44)), (0x44, 0x80));
        assert_eq!(UopRecord::from(&Uop::nop(0x48)), UopRecord::nop());
        assert_eq!(
            format!("{:?}", UopRecord::nop()),
            "UopRecord { kind: Nop, taken: false, size: 0, word: 0x0, \
             dst: None, src1: None, src2: None }"
        );
    }

    #[test]
    fn a_malformed_load_decodes_to_address_zero() {
        // `from_trace` is infallible: a load without an address (which
        // `Uop::validate` rejects) still decodes, as address 0.
        let mut bad = Uop::load(0, r(1), None, 0x40, 8);
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
        let load = Uop::load(HIGH | 0x40, r(1), None, HIGH | 0x1000, 8);
        let call = call(HIGH | 0x44, HIGH | 0x80);
        let arena = TraceArena::from_trace(&Trace::new("wide", vec![load, call]));
        let uops: Vec<Uop> = arena.uops().collect();
        assert_eq!((uops[0].pc, uops[0].addr), (0x40, Some(0x1000)));
        assert_eq!(
            uops[1],
            Uop {
                pc: 0x44,
                target: 0x80,
                ..call
            }
        );
    }
}
