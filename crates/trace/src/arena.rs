//! Structure-of-arrays trace layout for decode-once/simulate-many sweeps.
//!
//! A voltage sweep re-runs the *same* trace at every (Vcc, mechanism)
//! point. [`TraceArena`] is the [`Trace`] decoded once into parallel
//! column vectors and then shared immutably across every sweep point: the
//! engine indexes exactly the fields a pipeline stage needs (the fetch
//! stage touches `pc`/`kind`/`taken`/`target`, issue touches the operand
//! columns), so the hot loops walk dense homogeneous arrays instead of
//! striding over 48-byte [`Uop`] records.

use crate::uop::{Reg, Trace, Uop, UopKind};

/// A [`Trace`] decoded into structure-of-arrays columns.
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
/// assert_eq!(arena.pc(1), 0x4);
/// assert_eq!(arena.name(), "t");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    name: String,
    pc: Vec<u64>,
    kind: Vec<UopKind>,
    dst: Vec<Option<Reg>>,
    src1: Vec<Option<Reg>>,
    src2: Vec<Option<Reg>>,
    addr: Vec<Option<u64>>,
    size: Vec<u8>,
    taken: Vec<bool>,
    target: Vec<u64>,
}

impl TraceArena {
    /// Decodes `trace` into columns. O(len); done once per sweep batch.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let n = trace.uops.len();
        let mut arena = Self {
            name: trace.name.clone(),
            pc: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            src1: Vec::with_capacity(n),
            src2: Vec::with_capacity(n),
            addr: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            taken: Vec::with_capacity(n),
            target: Vec::with_capacity(n),
        };
        for u in &trace.uops {
            arena.pc.push(u.pc);
            arena.kind.push(u.kind);
            arena.dst.push(u.dst);
            arena.src1.push(u.src1);
            arena.src2.push(u.src2);
            arena.addr.push(u.addr);
            arena.size.push(u.size);
            arena.taken.push(u.taken);
            arena.target.push(u.target);
        }
        arena
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
        self.pc.len()
    }

    /// Whether the trace is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Program counter of uop `i`.
    #[inline]
    #[must_use]
    pub fn pc(&self, i: usize) -> u64 {
        self.pc[i]
    }

    /// Kind of uop `i`.
    #[inline]
    #[must_use]
    pub fn kind(&self, i: usize) -> UopKind {
        self.kind[i]
    }

    /// Destination register of uop `i`.
    #[inline]
    #[must_use]
    pub fn dst(&self, i: usize) -> Option<Reg> {
        self.dst[i]
    }

    /// First source register of uop `i`.
    #[inline]
    #[must_use]
    pub fn src1(&self, i: usize) -> Option<Reg> {
        self.src1[i]
    }

    /// Second source register of uop `i`.
    #[inline]
    #[must_use]
    pub fn src2(&self, i: usize) -> Option<Reg> {
        self.src2[i]
    }

    /// Memory address of uop `i` (memory uops only).
    #[inline]
    #[must_use]
    pub fn addr(&self, i: usize) -> Option<u64> {
        self.addr[i]
    }

    /// Access size in bytes of uop `i`.
    #[inline]
    #[must_use]
    pub fn size(&self, i: usize) -> u8 {
        self.size[i]
    }

    /// Resolved direction of uop `i` (control uops only).
    #[inline]
    #[must_use]
    pub fn taken(&self, i: usize) -> bool {
        self.taken[i]
    }

    /// Resolved target of uop `i` (control uops only).
    #[inline]
    #[must_use]
    pub fn target(&self, i: usize) -> u64 {
        self.target[i]
    }

    /// Reassembles uop `i` (diagnostics and equivalence tests; the hot
    /// paths use the column accessors directly).
    #[must_use]
    pub fn uop(&self, i: usize) -> Uop {
        Uop {
            pc: self.pc[i],
            kind: self.kind[i],
            dst: self.dst[i],
            src1: self.src1[i],
            src2: self.src2[i],
            addr: self.addr[i],
            size: self.size[i],
            taken: self.taken[i],
            target: self.target[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{TraceSpec, WorkloadFamily};

    #[test]
    fn round_trips_every_uop() {
        let trace = TraceSpec::new(WorkloadFamily::SpecInt, 7, 5_000)
            .build()
            .unwrap();
        let arena = TraceArena::from_trace(&trace);
        assert_eq!(arena.len(), trace.uops.len());
        assert_eq!(arena.name(), trace.name);
        for (i, u) in trace.uops.iter().enumerate() {
            assert_eq!(arena.uop(i), *u, "uop {i} must round-trip");
        }
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::new("empty", vec![]);
        let arena = TraceArena::from_trace(&trace);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn column_accessors_match_fields() {
        let u = Uop::load(0x40, Reg::new(1).unwrap(), None, 0x1000, 8);
        let trace = Trace::new("one", vec![u]);
        let arena = TraceArena::from_trace(&trace);
        assert_eq!(arena.pc(0), u.pc);
        assert_eq!(arena.kind(0), u.kind);
        assert_eq!(arena.dst(0), u.dst);
        assert_eq!(arena.src1(0), u.src1);
        assert_eq!(arena.src2(0), u.src2);
        assert_eq!(arena.addr(0), u.addr);
        assert_eq!(arena.size(0), u.size);
        assert_eq!(arena.taken(0), u.taken);
        assert_eq!(arena.target(0), u.target);
    }
}
