//! Front end: instruction fetch, branch prediction (BP + BTB + RSB), and
//! the decode pipe feeding the IQ.
//!
//! The BP and RSB are the paper's *prediction-only* blocks: at low Vcc
//! they run with no IRAW protection at all (§4.5) — a read may observe a
//! stabilizing counter. That can at worst flip a prediction, so the model
//! tracks the frequency of such windows ([`CorruptionTracker`]) instead
//! of stalling anything.

use lowvcc_trace::{PcWalk, TraceArena, UopKind};
use lowvcc_uarch::bpred::{Bimodal, Btb, CorruptionTracker};
use lowvcc_uarch::rsb::ReturnStack;

use crate::config::CycleConfig;
use crate::pipeline::addr32;
use crate::pipeline::memory::MemHierarchy;
use crate::stats::BranchStats;

/// `last_line` before any fetch: line addresses (`pc >> 6`) never reach it.
const NO_LINE: u64 = u64::MAX;

/// Depth of the decode queue between fetch and IQ allocation (a power
/// of two: trace index `i` keeps its decode-ready cycle in slot
/// `i % DECODE_QUEUE_DEPTH`).
const DECODE_QUEUE_DEPTH: usize = 16;

/// The fetch/decode front end.
///
/// The decode queue is a window over the trace: uops `[alloc, cursor)`
/// have been fetched but not yet allocated into the IQ, in trace order,
/// so the queue stores no uops — only each one's decode-ready cycle, in
/// a ring indexed by trace index.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    bp: Bimodal,
    btb: Btb,
    rsb: ReturnStack,
    tracker: CorruptionTracker,
    /// Cycle at which uop `i` of the window becomes IQ-allocatable, at
    /// slot `i % DECODE_QUEUE_DEPTH`.
    decode_ready: [u64; DECODE_QUEUE_DEPTH],
    /// Next uop to allocate into the IQ (the decode queue's head).
    alloc: usize,
    /// Next uop to fetch (the decode queue's tail).
    cursor: usize,
    /// The pc of uop `cursor`, recovered from the control flow.
    walk: PcWalk,
    stalled_until: u64,
    /// IL0 line of the previous fetch ([`NO_LINE`] before the first).
    last_line: u64,
    fetch_width: usize,
    front_end_stages: u64,
    mispredict_penalty: u64,
    stats: BranchStats,
}

impl FrontEnd {
    /// Builds the front end for a run.
    #[must_use]
    pub fn new(cfg: &CycleConfig) -> Self {
        let n = cfg.stabilization_cycles;
        Self {
            bp: Bimodal::new(cfg.core.bp_entries),
            btb: Btb::new(cfg.core.btb_entries),
            rsb: ReturnStack::new(cfg.core.rsb_entries, n),
            tracker: CorruptionTracker::new(cfg.core.bp_entries, n),
            decode_ready: [0; DECODE_QUEUE_DEPTH],
            alloc: 0,
            cursor: 0,
            walk: PcWalk::START,
            stalled_until: 0,
            last_line: NO_LINE,
            fetch_width: cfg.core.fetch_width,
            front_end_stages: u64::from(cfg.core.front_end_stages),
            mispredict_penalty: u64::from(cfg.core.mispredict_penalty),
            stats: BranchStats::default(),
        }
    }

    /// Restores the freshly-constructed state in place for `cfg` — the
    /// exact state [`FrontEnd::new`] would build — reusing the predictor
    /// tables. No allocation.
    pub fn reset(&mut self, cfg: &CycleConfig) {
        let n = cfg.stabilization_cycles;
        self.bp.reset();
        self.btb.reset();
        self.rsb.reset(n);
        self.tracker.reset(n);
        self.decode_ready = [0; DECODE_QUEUE_DEPTH];
        self.alloc = 0;
        self.cursor = 0;
        self.walk = PcWalk::START;
        self.stalled_until = 0;
        self.last_line = NO_LINE;
        self.fetch_width = cfg.core.fetch_width;
        self.front_end_stages = u64::from(cfg.core.front_end_stages);
        self.mispredict_penalty = u64::from(cfg.core.mispredict_penalty);
        self.stats = BranchStats::default();
    }

    /// Whether every trace uop has been fetched.
    #[inline]
    #[must_use]
    pub fn trace_exhausted(&self, trace: &TraceArena) -> bool {
        self.cursor >= trace.len()
    }

    /// Whether the decode queue is empty.
    #[inline]
    #[must_use]
    pub fn queue_empty(&self) -> bool {
        self.alloc == self.cursor
    }

    /// Trace index of the next uop to allocate: every uop before it has
    /// entered the IQ. The engine's IQ window ends here.
    #[inline]
    #[must_use]
    pub fn allocated(&self) -> usize {
        self.alloc
    }

    /// Hands up to `max` decode-complete uops to the IQ, oldest first,
    /// and returns how many. They are the next trace indices, so the IQ
    /// window grows by moving [`FrontEnd::allocated`]; nothing is copied.
    #[inline]
    pub fn allocate(&mut self, max: usize, now: u64) -> usize {
        let start = self.alloc;
        while self.alloc - start < max
            && self.alloc < self.cursor
            && self.decode_ready[self.alloc % DECODE_QUEUE_DEPTH] <= now
        {
            self.alloc += 1;
        }
        self.alloc - start
    }

    /// Number of fetched uops not yet allocated.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.cursor - self.alloc
    }

    /// Whether the decode queue is at capacity — fetch is a no-op until
    /// allocation drains it.
    #[inline]
    #[must_use]
    pub fn queue_full(&self) -> bool {
        self.cursor - self.alloc == DECODE_QUEUE_DEPTH
    }

    /// Cycle at which the oldest decoded uop becomes IQ-allocatable
    /// (decode-ready cycles are monotone in trace order, so the oldest is
    /// the earliest). `None` on an empty queue.
    #[inline]
    #[must_use]
    pub fn next_decode_ready(&self) -> Option<u64> {
        (self.alloc < self.cursor).then(|| self.decode_ready[self.alloc % DECODE_QUEUE_DEPTH])
    }

    /// Cycle until which fetch is stalled (miss in flight or mispredict
    /// redirect); fetch is active whenever `now >=` this.
    #[inline]
    #[must_use]
    pub fn stalled_until(&self) -> u64 {
        self.stalled_until
    }

    /// One fetch cycle: fetch up to `fetch_width` uops in trace order,
    /// modelling IL0/ITLB latency and branch prediction.
    pub fn fetch_cycle(&mut self, trace: &TraceArena, mem: &mut MemHierarchy, now: u64) {
        if now < self.stalled_until {
            return;
        }
        for _ in 0..self.fetch_width {
            if self.cursor >= trace.len() || self.queue_full() {
                return;
            }
            let record = trace.record(self.cursor);
            let pc = self.walk.pc(trace, self.cursor);
            let (kind, taken) = (record.kind(), record.taken());
            // Instruction-cache access on line change.
            let line = pc >> 6;
            if self.last_line != line {
                let ready = mem.ifetch(pc, now);
                self.last_line = line;
                if ready > now {
                    // Miss (or guard): the group arrives later; resume then.
                    self.stalled_until = ready;
                    return;
                }
            }
            self.decode_ready[self.cursor % DECODE_QUEUE_DEPTH] = now + self.front_end_stages;
            self.walk.step(trace, self.cursor, pc);
            self.cursor += 1;

            if kind.is_control() {
                let mispredicted = self.predict_and_train(pc, kind, taken, record.target(), now);
                if mispredicted {
                    self.stalled_until = now + self.mispredict_penalty;
                    return;
                }
                if taken {
                    // Fetch group breaks on taken control flow.
                    return;
                }
            }
        }
    }

    /// Predicts one control uop, trains the structures, and reports
    /// whether the front end must redirect (misprediction).
    fn predict_and_train(
        &mut self,
        pc: u64,
        kind: UopKind,
        taken: bool,
        target: u64,
        now: u64,
    ) -> bool {
        match kind {
            UopKind::Branch => {
                self.stats.branches += 1;
                let (pred_taken, index) = self.bp.predict(pc);
                if self.tracker.on_read(index, now) {
                    self.stats.bp_potential_corruptions += 1;
                }
                let effect = self.bp.update(pc, taken);
                self.tracker.on_write(effect, now);
                let (btb_pc, btb_target) = (addr32(pc), addr32(target));
                let target_ok = !taken || self.btb.predict(btb_pc) == Some(btb_target);
                if taken {
                    self.btb.update(btb_pc, btb_target);
                }
                let mispredict = pred_taken != taken || !target_ok;
                if mispredict {
                    self.stats.mispredicts += 1;
                }
                mispredict
            }
            UopKind::Call => {
                self.stats.calls += 1;
                // Push the return address; the callee target comes from
                // the BTB (direct calls train quickly).
                self.rsb.push(pc + 4, now);
                let (pc, target) = (addr32(pc), addr32(target));
                let target_ok = self.btb.predict(pc) == Some(target);
                self.btb.update(pc, target);
                !target_ok
            }
            UopKind::Ret => {
                self.stats.rets += 1;
                let predicted = self.rsb.pop(now);
                let mispredict = predicted != Some(target);
                if mispredict {
                    self.stats.ret_mispredicts += 1;
                }
                mispredict
            }
            _ => false,
        }
    }

    /// Branch statistics (corruption counters folded in).
    #[must_use]
    pub fn stats(&self) -> BranchStats {
        let mut s = self.stats;
        s.rsb_potential_corruptions = self.rsb.potential_corruptions();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, Mechanism, SimConfig};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::Uop;

    fn arena(name: &str, uops: Vec<Uop>) -> TraceArena {
        TraceArena::from_uops(name, uops).unwrap()
    }

    fn setup(mechanism: Mechanism) -> (FrontEnd, MemHierarchy) {
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &CycleTimeModel::silverthorne_45nm(),
            mv(500),
            mechanism,
        )
        .cycle_config();
        (FrontEnd::new(&cfg), MemHierarchy::new(&cfg).unwrap())
    }

    fn straight_line_trace(n: usize) -> TraceArena {
        let uops = (0..n).map(|i| Uop::nop(0x40_0000 + 4 * i as u64)).collect();
        arena("straight", uops)
    }

    #[test]
    fn fetches_up_to_width_per_cycle() {
        let (mut fe, mut mem) = setup(Mechanism::Iraw);
        let trace = straight_line_trace(10);
        // Cycle 0: cold IL0 miss stalls fetch.
        fe.fetch_cycle(&trace, &mut mem, 0);
        assert!(fe.queue_empty());
        // After the line arrives, two uops per cycle.
        let mut now = 0;
        while fe.queue_empty() {
            now += 1;
            fe.fetch_cycle(&trace, &mut mem, now);
        }
        assert_eq!(fe.queue_len(), 2);
    }

    #[test]
    fn decode_pipe_delays_allocation() {
        let (mut fe, mut mem) = setup(Mechanism::Iraw);
        let trace = straight_line_trace(4);
        let mut now = 0;
        while fe.queue_empty() {
            fe.fetch_cycle(&trace, &mut mem, now);
            now += 1;
        }
        // Nothing allocatable before the decode depth elapses.
        assert_eq!(fe.allocate(2, now), 0);
        let later = now + 6;
        assert_eq!(fe.allocate(2, later), 2);
        assert_eq!(fe.queue_len(), 0);
    }

    #[test]
    fn decode_queue_fills_at_sixteen_and_wraps() {
        let (mut fe, mut mem) = setup(Mechanism::Iraw);
        let trace = straight_line_trace(40);
        let mut now = 0;
        // Fetch without allocating: the window stops growing at 16.
        while !fe.queue_full() {
            fe.fetch_cycle(&trace, &mut mem, now);
            now += 1;
        }
        assert_eq!(fe.queue_len(), DECODE_QUEUE_DEPTH);
        fe.fetch_cycle(&trace, &mut mem, now);
        assert_eq!(
            fe.queue_len(),
            DECODE_QUEUE_DEPTH,
            "a full queue fetches nothing"
        );
        // Allocate 5, then refill across the ring's wrap point.
        let ready = fe.next_decode_ready().unwrap();
        assert_eq!(fe.allocate(5, ready - 1), 0, "nothing is decoded yet");
        assert_eq!(fe.allocate(5, u64::MAX), 5);
        while !fe.queue_full() {
            fe.fetch_cycle(&trace, &mut mem, now);
            now += 1;
        }
        assert_eq!(fe.allocate(usize::MAX, u64::MAX), DECODE_QUEUE_DEPTH);
        assert!(fe.queue_empty());
        assert_eq!(fe.next_decode_ready(), None);
    }

    #[test]
    fn biased_branch_learns_and_stops_mispredicting() {
        let (mut fe, mut mem) = setup(Mechanism::Iraw);
        // Same branch, always taken, plus its target uop.
        let mut uops = Vec::new();
        for _ in 0..50 {
            uops.push(Uop::branch(0x40_0100, None, true, 0x40_0000));
            uops.push(Uop::nop(0x40_0000));
        }
        let trace = arena("loop", uops);
        for now in 0..5000u64 {
            fe.fetch_cycle(&trace, &mut mem, now);
            let _ = fe.allocate(2, now);
            if fe.trace_exhausted(&trace) {
                break;
            }
        }
        let s = fe.stats();
        assert!(s.branches >= 40);
        // First iterations mispredict (cold BP/BTB), then it locks on.
        assert!(s.mispredicts >= 1);
        assert!(
            s.mispredict_ratio() < 0.2,
            "ratio {:.3} should be low for a monomorphic branch",
            s.mispredict_ratio()
        );
    }

    #[test]
    fn call_ret_pairs_predict_via_rsb() {
        let (mut fe, mut mem) = setup(Mechanism::Iraw);
        let call_pc = 0x40_0000u64;
        let callee = 0x40_1000u64;
        let mut uops = Vec::new();
        for _ in 0..20 {
            let mut call = Uop::nop(call_pc);
            call.kind = UopKind::Call;
            call.taken = true;
            call.target = callee;
            uops.push(call);
            let mut ret = Uop::nop(callee);
            ret.kind = UopKind::Ret;
            ret.taken = true;
            ret.target = call_pc + 4;
            uops.push(ret);
            uops.push(Uop::nop(call_pc + 4));
        }
        let trace = arena("callret", uops);
        for now in 0..5000u64 {
            fe.fetch_cycle(&trace, &mut mem, now);
            let _ = fe.allocate(2, now);
            if fe.trace_exhausted(&trace) {
                break;
            }
        }
        let s = fe.stats();
        assert_eq!(s.calls, 20);
        assert_eq!(s.rets, 20);
        // After the cold call, returns predict perfectly via the RSB.
        assert!(
            s.ret_mispredicts <= 1,
            "ret mispredicts {}",
            s.ret_mispredicts
        );
    }

    #[test]
    fn corruption_tracking_disabled_when_iraw_off() {
        let (mut fe, mut mem) = setup(Mechanism::Baseline);
        let mut uops = Vec::new();
        for i in 0..40 {
            uops.push(Uop::branch(0x40_0100, None, i % 2 == 0, 0x40_0000));
        }
        let trace = arena("alt", uops);
        let mut now = 0;
        while !fe.trace_exhausted(&trace) && now < 10_000 {
            fe.fetch_cycle(&trace, &mut mem, now);
            let _ = fe.allocate(2, now);
            now += 1;
        }
        assert_eq!(fe.stats().bp_potential_corruptions, 0);
        assert_eq!(fe.stats().rsb_potential_corruptions, 0);
    }
}
