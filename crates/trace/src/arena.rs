//! Packed trace layout: the one form a synthesized suite takes.
//!
//! A grid re-runs the *same* trace at every (Vcc, mechanism) point.
//! [`TraceArena`] holds a trace as two packed per-uop records, shared
//! immutably across every point. Each record holds exactly what one
//! pipeline stage reads: fetch loads one 24-byte [`FetchRecord`] (`pc`,
//! `target`, `kind`, `taken`), issue one 16-byte [`IssueRecord`]
//! (operands, address, size). That is 40 bytes per uop instead of the
//! 48-byte [`Uop`], and one load per stage instead of one per field.
//!
//! A suite is synthesized straight into arenas
//! ([`TraceSpec::build_arena`](crate::TraceSpec::build_arena)), each uop
//! validated as it is pushed, so it never exists as a [`Trace`] and is
//! decoded exactly once. [`TraceArena::from_trace`] decodes a [`Trace`]
//! built some other way.

use crate::error::TraceError;
use crate::synth::UopSink;
use crate::uop::{Reg, Trace, Uop, UopKind};

/// What the issue stage reads of one uop: 16 bytes.
///
/// `addr` is the effective address of a memory uop and 0 otherwise:
/// every valid trace gives memory uops an address and no other uop one,
/// so the `Option` need not be stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRecord {
    /// Effective data address (memory uops), else 0.
    pub addr: u64,
    /// Operation class.
    pub kind: UopKind,
    /// Destination register.
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
    /// Access size in bytes (memory uops).
    pub size: u8,
}

impl From<&Uop> for IssueRecord {
    fn from(u: &Uop) -> Self {
        Self {
            addr: u.addr.unwrap_or(0),
            kind: u.kind,
            dst: u.dst,
            src1: u.src1,
            src2: u.src2,
            size: u.size,
        }
    }
}

/// What the fetch stage reads of one uop: 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRecord {
    /// Program counter.
    pub pc: u64,
    /// Resolved next-pc (control uops).
    pub target: u64,
    /// Operation class.
    pub kind: UopKind,
    /// Resolved direction (control uops).
    pub taken: bool,
}

impl From<&Uop> for FetchRecord {
    fn from(u: &Uop) -> Self {
        Self {
            pc: u.pc,
            target: u.target,
            kind: u.kind,
            taken: u.taken,
        }
    }
}

/// A trace as packed per-stage records.
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
/// assert_eq!(arena.fetch(1).pc, 0x4);
/// assert_eq!(arena.name(), "t");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    name: String,
    issue: Vec<IssueRecord>,
    fetch: Vec<FetchRecord>,
}

impl TraceArena {
    /// Decodes `trace` into records. O(len). Infallible: it does not
    /// validate (see [`Uop::validate`]).
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        Self {
            name: trace.name.clone(),
            issue: trace.uops.iter().map(IssueRecord::from).collect(),
            fetch: trace.uops.iter().map(FetchRecord::from).collect(),
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
        self.issue.len()
    }

    /// Whether the trace is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.issue.is_empty()
    }

    /// Bytes of packed records held (40 per uop; the name aside).
    #[must_use]
    pub fn record_bytes(&self) -> usize {
        std::mem::size_of_val(self.issue.as_slice()) + std::mem::size_of_val(self.fetch.as_slice())
    }

    /// The issue record of uop `i`.
    #[inline]
    #[must_use]
    pub fn issue(&self, i: usize) -> &IssueRecord {
        &self.issue[i]
    }

    /// The fetch record of uop `i`.
    #[inline]
    #[must_use]
    pub fn fetch(&self, i: usize) -> &FetchRecord {
        &self.fetch[i]
    }

    /// Reassembles uop `i` (diagnostics and equivalence tests; the hot
    /// paths read the records). Exact for every uop that passes
    /// [`Uop::validate`]: only memory uops carry an address.
    #[must_use]
    pub fn uop(&self, i: usize) -> Uop {
        let is = &self.issue[i];
        let f = &self.fetch[i];
        Uop {
            pc: f.pc,
            kind: is.kind,
            dst: is.dst,
            src1: is.src1,
            src2: is.src2,
            addr: is.kind.is_mem().then_some(is.addr),
            size: is.size,
            taken: f.taken,
            target: f.target,
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
                issue: Vec::with_capacity(len),
                fetch: Vec::with_capacity(len),
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
        self.arena.issue.push(IssueRecord::from(&uop));
        self.arena.fetch.push(FetchRecord::from(&uop));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::suite;

    #[test]
    fn records_are_sixteen_and_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<IssueRecord>(), 16);
        assert_eq!(std::mem::size_of::<FetchRecord>(), 24);
    }

    #[test]
    fn round_trips_every_uop() {
        // Every family, so every uop kind's address rule is exercised.
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
                assert_eq!(arena.record_bytes(), 40 * len);
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
        assert_eq!(
            *arena.issue(0),
            IssueRecord {
                addr: 0x1000,
                kind: u.kind,
                dst: u.dst,
                src1: u.src1,
                src2: u.src2,
                size: u.size,
            }
        );
        assert_eq!(
            *arena.fetch(1),
            FetchRecord {
                pc: 0x44,
                target: 0x80,
                kind: UopKind::Branch,
                taken: true,
            }
        );
        // Non-memory uops store address 0 and rebuild `None`.
        assert_eq!(arena.issue(1).addr, 0);
        assert_eq!(arena.uop(1).addr, None);
    }

    #[test]
    fn a_malformed_load_decodes_to_address_zero() {
        // `from_trace` is infallible: a load without an address (which
        // `Uop::validate` rejects) still decodes, as address 0.
        let mut bad = Uop::load(0, Reg::new(1).unwrap(), None, 0x40, 8);
        bad.addr = None;
        let arena = TraceArena::from_trace(&Trace::new("bad", vec![bad]));
        assert_eq!(arena.issue(0).addr, 0);
        assert_eq!(arena.uop(0).addr, Some(0));
    }
}
