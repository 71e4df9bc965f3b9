//! The cycle-level in-order pipeline engine.
//!
//! Stage order within a cycle (oldest work first): long-latency
//! completions → issue (with the paper's IRAW gates) → Store Table
//! update → IQ allocation → fetch → scoreboard shift. Two scoreboards
//! run in lockstep: the *real* one carries the IRAW-extended patterns
//! (Figure 8), a *shadow* one carries the baseline patterns — an issue
//! slot blocked by the real board but clear in the shadow board is, by
//! construction, a cycle lost to IRAW avoidance, which is exactly how the
//! paper's §5.2 attribution (8.52% RF / 0.30% DL0 / 0.04% rest at
//! 575 mV) is measured here.
//!
//! The IQ and the decode queue hold no uops: both are windows of trace
//! indices over the [`TraceArena`], which every stage reads in place.

pub mod frontend;
pub mod memory;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lowvcc_trace::{Reg, TraceArena, UopKind, UopRecord};
use lowvcc_uarch::iq::issue_allowed;
use lowvcc_uarch::ports::PortSet;
use lowvcc_uarch::scoreboard::{IrawWindow, Scoreboard};
use lowvcc_uarch::stable::{StableMatch, StoreTable, TrackedStore};

use crate::config::CycleConfig;
use crate::error::SimError;
use crate::pipeline::frontend::FrontEnd;
use crate::pipeline::memory::MemHierarchy;
use crate::stats::SimStats;

/// The paper's drain NOOP (§4.2): no operands, no destination, no
/// memory access — it never blocks and its execution changes nothing.
static DRAIN_NOOP: UopRecord = UopRecord::nop();

/// The IQ as a window over the trace: the real uops `[head,
/// FrontEnd::allocated())` in program order, then `pad` drain NOOPs.
/// NOOPs are injected only once the whole trace has been allocated, so
/// they always sit behind every real uop and a count describes them.
/// Allocation moves the front end's allocation point; nothing is copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IqWindow {
    head: usize,
    pad: usize,
}

/// Where one engine run's simulated cycles went, and why the fast path
/// declined to skip after each stepped cycle.
///
/// Host-side observability only: it never enters [`SimStats`], the
/// result key or the canonical record, and a reset engine starts from
/// zero. For a run on the fast path `stepped_cycles + skipped_cycles`
/// equals the run's cycle count; [`Engine::run_naive`] never skips.
/// Refusals are counted by the first reason found, checked in field
/// order; the cheap reasons come before the head's blocker analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Cycles executed one at a time by the stepper.
    pub stepped_cycles: u64,
    /// Cycles jumped over by the fast path.
    pub skipped_cycles: u64,
    /// Skips taken (each covers one or more cycles).
    pub skips: u64,
    /// Refused: the IQ is non-empty but its occupancy gate is closed.
    pub refused_gate_closed: u64,
    /// Refused: the last issue stage did not stop on a blocked head.
    pub refused_issued: u64,
    /// Refused: a long-latency completion is due now.
    pub refused_pending_due: u64,
    /// Refused: a decoded uop can be allocated into the IQ now.
    pub refused_alloc_ready: u64,
    /// Refused: fetch can run now.
    pub refused_fetch_active: u64,
    /// Refused: nothing blocks the IQ head any more.
    pub refused_head_ready: u64,
}

impl EngineProfile {
    /// Skip refusals over every reason.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.refused_gate_closed
            + self.refused_issued
            + self.refused_pending_due
            + self.refused_alloc_ready
            + self.refused_fetch_active
            + self.refused_head_ready
    }
}

/// Why the oldest instruction could not issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocker {
    /// A source is not ready on the real scoreboard, but *would* be on the
    /// baseline shadow board — pure IRAW delay.
    IrawWindow,
    /// A source is genuinely not ready (data dependence).
    DataDependence,
    /// Memory port / functional unit busy.
    Structural,
    /// DL0 post-fill stabilization guard.
    Dl0FillGuard,
    /// Store Table repair in progress.
    StableRepair,
    /// Register-file write port busy (Extra Bypass contention).
    WritePort,
}

/// The simulation engine for one cycle-level configuration. The trace is
/// not owned: every run method borrows a decoded [`TraceArena`], so one
/// arena can feed many engines (and one engine, via [`Engine::reset`],
/// many runs). The engine sees only the [`CycleConfig`] projection —
/// never the supply voltage, mechanism or cycle time — so it returns
/// cycle-level [`SimStats`] and callers attach the clock.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: CycleConfig,
    fe: FrontEnd,
    mem: MemHierarchy,
    iq: IqWindow,
    sb: Scoreboard,
    shadow: Scoreboard,
    stable: StoreTable,
    pending: BinaryHeap<Reverse<(u64, Reg)>>,
    /// IRAW window of this run, fixed at construction (`None` when the
    /// mechanism is off) — hoisted out of the per-cycle hot path.
    window: Option<IrawWindow>,
    div_free_at: u64,
    fpdiv_free_at: u64,
    mem_port_free_at: u64,
    repair_until: u64,
    write_ports: PortSet,
    store_this_cycle: Option<TrackedStore>,
    /// The current IQ head has been blocked by the IRAW window at least
    /// once (consumed into `iraw_delayed_instructions` when it issues).
    head_iraw_delayed: bool,
    /// Whether the last executed cycle's issue stage stopped on a blocked
    /// entry (gate open). Purely a fast-path gate: cycles that issue
    /// freely skip the skip analysis entirely.
    issue_blocked: bool,
    now: u64,
    stats: SimStats,
    profile: EngineProfile,
}

impl Engine {
    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(cfg: CycleConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let mem = MemHierarchy::new(&cfg)?;
        let fe = FrontEnd::new(&cfg);
        let mut stable = StoreTable::new(cfg.core.stable_max_entries);
        // Paper §4.4: enable as many entries as IRAW cycles require.
        stable.reconfigure(cfg.stabilization_cycles as usize);
        let window = (cfg.stabilization_cycles > 0).then_some(IrawWindow {
            bypass_levels: cfg.core.bypass_levels,
            bubble: cfg.stabilization_cycles,
        });
        Ok(Self {
            window,
            fe,
            mem,
            iq: IqWindow::default(),
            sb: Scoreboard::new(cfg.core.scoreboard_width),
            shadow: Scoreboard::new(cfg.core.scoreboard_width),
            stable,
            pending: BinaryHeap::new(),
            div_free_at: 0,
            fpdiv_free_at: 0,
            mem_port_free_at: 0,
            repair_until: 0,
            write_ports: PortSet::new(2),
            store_this_cycle: None,
            head_iraw_delayed: false,
            issue_blocked: false,
            now: 0,
            stats: SimStats::default(),
            profile: EngineProfile::default(),
            cfg,
        })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &CycleConfig {
        &self.cfg
    }

    /// The self-profile of the current (or last) run.
    #[must_use]
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Restores the freshly-constructed state in place for `cfg` — the
    /// exact state [`Engine::new`] would build — reusing every buffer
    /// the engine owns. The steady state of a warmed-up sweep therefore
    /// allocates nothing.
    ///
    /// The core geometry (`cfg.core`) must match the one this engine was
    /// built with: only sweep parameters (stabilization cycles, memory
    /// latency, fault map) may change between runs. Callers reusing an
    /// engine across configurations check that precondition and fall back
    /// to a fresh construction (see `EngineWorkspace`).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn reset(&mut self, cfg: CycleConfig) -> Result<(), SimError> {
        cfg.validate()?;
        debug_assert_eq!(
            cfg.core, self.cfg.core,
            "Engine::reset requires an unchanged core geometry"
        );
        self.mem.reset(&cfg);
        self.fe.reset(&cfg);
        self.iq = IqWindow::default();
        self.sb.reset();
        self.shadow.reset();
        self.stable.reset();
        self.stable.reconfigure(cfg.stabilization_cycles as usize);
        self.pending.clear();
        self.window = (cfg.stabilization_cycles > 0).then_some(IrawWindow {
            bypass_levels: cfg.core.bypass_levels,
            bubble: cfg.stabilization_cycles,
        });
        self.div_free_at = 0;
        self.fpdiv_free_at = 0;
        self.mem_port_free_at = 0;
        self.repair_until = 0;
        self.write_ports.reset();
        self.store_this_cycle = None;
        self.head_iraw_delayed = false;
        self.issue_blocked = false;
        self.now = 0;
        self.stats = SimStats::default();
        self.profile = EngineProfile::default();
        self.cfg = cfg;
        Ok(())
    }

    /// Runs the simulation to completion on the event-driven fast path:
    /// cycles in which issue, allocation and fetch are all provably idle
    /// are skipped in O(1) (see `Engine::try_skip`). With
    /// `debug_assertions` the skipped stretches are cross-checked against
    /// the naive stepper cycle by cycle.
    ///
    /// The arena is not re-validated here (that would cost a pass per
    /// run): every arena's uops were validated once, as they were
    /// pushed, so each record holds its uop exactly.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid configuration or if the pipeline stops
    /// making progress (a simulator bug, surfaced rather than hung).
    pub fn run(&mut self, trace: &TraceArena) -> Result<SimStats, SimError> {
        self.run_inner(trace, true)
    }

    /// Runs the simulation stepping every cycle — the reference stepper
    /// the fast path must match bit for bit. Kept public for the
    /// equivalence suite and for bisecting fast-path bugs.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn run_naive(&mut self, trace: &TraceArena) -> Result<SimStats, SimError> {
        self.run_inner(trace, false)
    }

    fn run_inner(&mut self, trace: &TraceArena, fast: bool) -> Result<SimStats, SimError> {
        let budget = 1_000 * trace.len() as u64 + 100_000;
        while !self.finished(trace) {
            if self.now > budget {
                return Err(SimError::NoProgress {
                    cycles: self.now,
                    committed: self.stats.instructions,
                    total: trace.len() as u64,
                });
            }
            self.step(trace);
            self.profile.stepped_cycles += 1;
            if fast {
                self.try_skip(trace, budget);
            }
        }
        self.stats.cycles = self.now;
        self.stats.branches = self.fe.stats();
        self.stats.il0 = self.mem.il0_stats();
        self.stats.dl0 = self.mem.dl0_stats();
        self.stats.ul1 = self.mem.ul1_stats();
        self.stats.itlb = self.mem.itlb_stats();
        self.stats.dtlb = self.mem.dtlb_stats();
        self.stats.stable = self.stable.stats();
        self.stats.stalls.other_fill = self.mem.other_fill_stall_cycles();
        self.stats.memory_accesses = self.mem.memory_accesses();
        debug_assert_eq!(self.stats.instructions, trace.len() as u64);
        Ok(self.stats.clone())
    }

    fn finished(&self, trace: &TraceArena) -> bool {
        self.fe.trace_exhausted(trace)
            && self.fe.queue_empty()
            && self.iq_occupancy() == 0
            && self.pending.is_empty()
    }

    /// IQ entries: the real uops allocated but not issued, plus padding.
    #[inline]
    fn iq_occupancy(&self) -> usize {
        self.fe.allocated() - self.iq.head + self.iq.pad
    }

    /// The IQ's oldest entry, if any.
    #[inline]
    fn iq_front<'t>(&self, trace: &'t TraceArena) -> Option<&'t UopRecord> {
        if self.iq.head < self.fe.allocated() {
            Some(trace.record(self.iq.head))
        } else if self.iq.pad > 0 {
            Some(&DRAIN_NOOP)
        } else {
            None
        }
    }

    /// The Figure 9 gate at the current IQ occupancy.
    #[inline]
    fn gate_open(&self) -> bool {
        issue_allowed(
            self.iq_occupancy(),
            self.cfg.core.issue_width,
            self.cfg.core.alloc_width,
            self.cfg.stabilization_cycles,
        )
    }

    /// One cycle.
    fn step(&mut self, trace: &TraceArena) {
        let now = self.now;
        // 1. Long-latency completions (load misses, divides).
        while let Some(&Reverse((t, reg))) = self.pending.peek() {
            if t > now {
                break;
            }
            self.pending.pop();
            self.sb.complete(reg, self.window);
            self.shadow.complete(reg, None);
        }
        // 2. Memory buffers.
        self.mem.tick(now);
        // 3. Issue.
        self.issue_stage(trace, now);
        // 4. Store Table per-cycle update (after this cycle's probes).
        if self.cfg.iraw_active() {
            let committed = self.store_this_cycle.take();
            self.stable.cycle_update(committed);
        } else {
            self.store_this_cycle = None;
        }
        // 5. Allocate into the IQ: the decode queue's oldest uops are the
        //    next trace indices, so the IQ window just grows.
        let room = self.cfg.core.iq_entries - self.iq_occupancy();
        let width = self.cfg.core.alloc_width.min(room);
        self.fe.allocate(width, now);
        // 6. Fetch.
        self.fe.fetch_cycle(trace, &mut self.mem, now);
        // 7. End-of-trace drain: real instructions stuck under the gate
        //    get NOOP padding (paper §4.2); once only padding remains,
        //    the queue is architecturally empty and can be dropped.
        if self.fe.trace_exhausted(trace) && self.fe.queue_empty() && self.iq_occupancy() > 0 {
            if self.iq.head == self.fe.allocated() {
                self.iq.pad = 0;
                self.head_iraw_delayed = false;
            } else if !self.gate_open() {
                // Padding beyond capacity is dropped: a full queue needs
                // none to issue.
                let pad = self.cfg.core.alloc_width * self.cfg.stabilization_cycles as usize;
                let added = pad.min(self.cfg.core.iq_entries - self.iq_occupancy());
                self.iq.pad += added;
                self.stats.drain_noops += added as u64;
            }
        }
        // 8. Shift the ready registers.
        self.sb.tick();
        self.shadow.tick();
        self.now += 1;
    }

    /// The event-driven fast path. Runs after [`Engine::step`] advanced to
    /// cycle `self.now` and decides whether the next `k ≥ 1` cycles are
    /// provably identical blocked-issue cycles — no completion lands, no
    /// uop can issue, allocate or fetch — and if so applies their combined
    /// effect in O(1) and jumps `now` forward.
    ///
    /// The invariant is that every input of the per-cycle decision stays
    /// constant over the skipped stretch, so each skipped cycle would have
    /// attributed the same stall to the same blocker and changed nothing
    /// else. The wake-up cycle is therefore the minimum over every event
    /// that can change one of those inputs: the next long-latency
    /// completion, the next decoded uop becoming allocatable, fetch
    /// resuming after a redirect/miss, any readiness toggle of the head's
    /// sources on either scoreboard (IRAW bubbles open *and* close), and
    /// the structural frees the head's kind consults. With
    /// `debug_assertions` enabled, every skip is replayed on a cloned
    /// engine with the naive stepper and the states are asserted equal.
    fn try_skip(&mut self, trace: &TraceArena, budget: u64) {
        let now = self.now;
        // Two skippable shapes: a blocked IQ head behind an open gate, or
        // an empty IQ waiting on the front end (redirect / IL0 miss).
        // A closed gate over a non-empty IQ is not skippable: its stall
        // attribution depends on the head's would-be blocker each cycle.
        // The cheap refusals run first; the head's blocker analysis last.
        let head = self.iq_front(trace);
        if head.is_some() {
            if !self.gate_open() {
                self.profile.refused_gate_closed += 1;
                return;
            }
            // Only cycles whose issue stage just stopped on a blocked
            // entry are worth analysing.
            if !self.issue_blocked {
                self.profile.refused_issued += 1;
                return;
            }
        } else if self.finished(trace) {
            return;
        }
        // `budget + 1` rather than infinity: a head blocked forever (a
        // simulator bug) jumps straight past the budget and the run loop
        // reports NoProgress, exactly like the naive stepper would.
        let mut wake = budget.saturating_add(1);
        let bound = |wake: &mut u64, t: u64| {
            if t > now {
                *wake = (*wake).min(t);
            }
        };
        // Long-latency completions land at the head of `pending`.
        if let Some(&Reverse((t, _))) = self.pending.peek() {
            if t <= now {
                self.profile.refused_pending_due += 1;
                return;
            }
            bound(&mut wake, t);
        }
        // IQ allocation: active the moment a decoded uop is ready while
        // the IQ has room (issue being blocked or absent, room cannot
        // grow mid-skip).
        if self.iq_occupancy() < self.cfg.core.iq_entries {
            if let Some(t) = self.fe.next_decode_ready() {
                if t <= now {
                    self.profile.refused_alloc_ready += 1;
                    return;
                }
                bound(&mut wake, t);
            }
        }
        // Fetch: quiescent only while redirect/miss-stalled, starved by an
        // exhausted trace, or blocked on a full decode queue (which cannot
        // drain before `wake` — allocation is bounded above).
        if !self.fe.trace_exhausted(trace) && !self.fe.queue_full() {
            let s = self.fe.stalled_until();
            if s <= now {
                self.profile.refused_fetch_active += 1;
                return;
            }
            bound(&mut wake, s);
        }
        let blocker = match head {
            Some(h) => match self.blocker_for(h, now) {
                Some(b) => Some(b),
                None => {
                    self.profile.refused_head_ready += 1;
                    return;
                }
            },
            None => None,
        };
        if let Some(head) = head {
            // Readiness toggles of the head's sources, on both boards:
            // they drive both the issue decision and the IRAW-vs-data-
            // dependence classification. All-zero (long-latency) registers
            // never toggle by shifting — their event is the pending
            // completion above.
            for src in head.src1.into_iter().chain(head.src2) {
                if let Some(k) = self.sb.cycles_until_change(src) {
                    bound(&mut wake, now + u64::from(k));
                }
                if let Some(k) = self.shadow.cycles_until_change(src) {
                    bound(&mut wake, now + u64::from(k));
                }
            }
            // Structural inputs consulted for this head's kind.
            match head.kind() {
                UopKind::IntDiv => bound(&mut wake, self.div_free_at),
                UopKind::FpDiv => bound(&mut wake, self.fpdiv_free_at),
                k if k.is_mem() => {
                    bound(&mut wake, self.mem_port_free_at);
                    bound(&mut wake, self.repair_until);
                    if let Some(t) = self.mem.dl0_next_change(now) {
                        bound(&mut wake, t);
                    }
                }
                _ => {}
            }
            if self.cfg.extra_write_port_cycles > 0 && head.dst.is_some() {
                let latency = u64::from(self.cfg.core.latency_of(head.kind()));
                bound(
                    &mut wake,
                    self.write_ports.earliest_free().saturating_sub(latency),
                );
            }
        }
        let k = wake.saturating_sub(now);
        if k == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        let reference = {
            let mut r = self.clone();
            for _ in 0..k {
                r.step(trace);
            }
            r
        };
        // Apply k cycles' worth of blocked-issue bookkeeping at once
        // (idle front-end bubbles attribute nothing).
        match blocker {
            Some(Blocker::IrawWindow) => {
                self.stats.stalls.rf_iraw += k;
                self.head_iraw_delayed = true;
            }
            Some(Blocker::Dl0FillGuard) => self.stats.stalls.dl0_fill += k,
            Some(Blocker::StableRepair) => self.stats.stalls.dl0_stable += k,
            Some(Blocker::WritePort) => self.stats.write_port_stalls += k,
            Some(Blocker::DataDependence | Blocker::Structural) | None => {}
        }
        if self.cfg.iraw_active() {
            // No store can commit in a blocked cycle, so the Store Table
            // sees k idle updates.
            self.stable.advance_idle(k);
        }
        // Batched equivalents of the per-cycle ticks: buffer frees are
        // monotone in time, lazy scoreboard shifts are O(1) deltas.
        self.mem.tick(now + k - 1);
        self.sb.advance(k);
        self.shadow.advance(k);
        self.now += k;
        self.profile.skipped_cycles += k;
        self.profile.skips += 1;
        #[cfg(debug_assertions)]
        self.assert_matches_reference(&reference);
    }

    /// Debug-only shadow check: after a skip, the engine must be in the
    /// exact state the naive stepper reaches for the same cycles.
    #[cfg(debug_assertions)]
    fn assert_matches_reference(&self, r: &Self) {
        assert_eq!(self.now, r.now, "fast path diverged: now");
        assert_eq!(self.stats, r.stats, "fast path diverged: stats");
        assert_eq!(self.iq, r.iq, "fast path diverged: IQ");
        assert_eq!(
            self.fe.allocated(),
            r.fe.allocated(),
            "fast path diverged: IQ"
        );
        assert_eq!(self.head_iraw_delayed, r.head_iraw_delayed);
        assert_eq!(self.div_free_at, r.div_free_at);
        assert_eq!(self.fpdiv_free_at, r.fpdiv_free_at);
        assert_eq!(self.mem_port_free_at, r.mem_port_free_at);
        assert_eq!(self.repair_until, r.repair_until);
        assert_eq!(self.stable, r.stable, "fast path diverged: STable");
        assert_eq!(self.write_ports, r.write_ports);
        let sorted = |h: &BinaryHeap<Reverse<(u64, Reg)>>| {
            let mut v: Vec<_> = h.iter().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&self.pending), sorted(&r.pending));
        for reg in Reg::all() {
            assert_eq!(
                self.sb.pattern(reg),
                r.sb.pattern(reg),
                "fast path diverged: scoreboard {reg:?}"
            );
            assert_eq!(
                self.shadow.pattern(reg),
                r.shadow.pattern(reg),
                "fast path diverged: shadow scoreboard {reg:?}"
            );
        }
        assert_eq!(self.mem.memory_accesses(), r.mem.memory_accesses());
        assert_eq!(
            self.mem.other_fill_stall_cycles(),
            r.mem.other_fill_stall_cycles()
        );
    }

    fn issue_stage(&mut self, trace: &TraceArena, now: u64) {
        self.issue_blocked = false;
        if !self.gate_open() {
            // Attribute the cycle to the IQ gate only if the head would
            // otherwise issue (occupancy exists but is below threshold).
            if let Some(head) = self.iq_front(trace) {
                if self.blocker_for(head, now).is_none() {
                    self.stats.stalls.iq_iraw += 1;
                }
            }
            return;
        }
        let mut mem_issued_this_cycle = false;
        for _ in 0..self.cfg.core.issue_width {
            if self.iq.head == self.fe.allocated() {
                // Only drain NOOPs (if any) remain: one never blocks, and
                // issuing it changes nothing but the queue.
                if self.iq.pad == 0 {
                    break;
                }
                self.iq.pad -= 1;
                self.head_iraw_delayed = false;
                continue;
            }
            let entry = trace.record(self.iq.head);
            // Enforce one memory op per cycle across the whole group.
            if entry.kind().is_mem() && mem_issued_this_cycle {
                break;
            }
            match self.blocker_for(entry, now) {
                None => {
                    self.iq.head += 1;
                    let delayed = self.head_iraw_delayed;
                    self.head_iraw_delayed = false;
                    mem_issued_this_cycle |= entry.kind().is_mem();
                    self.execute(entry, now);
                    self.stats.instructions += 1;
                    if delayed {
                        self.stats.iraw_delayed_instructions += 1;
                    }
                }
                Some(blocker) => {
                    // In-order issue stops at the first blocked entry, so
                    // at most one attribution happens per cycle — whether
                    // the bandwidth was lost at slot 0 (full stall) or a
                    // later slot (partial).
                    self.issue_blocked = true;
                    self.attribute_stall(blocker);
                    if blocker == Blocker::IrawWindow {
                        // Mark the head so the 13.2% statistic counts it
                        // once it finally issues (in-order issue: the
                        // blocked entry is the head until it goes).
                        self.head_iraw_delayed = true;
                    }
                    break;
                }
            }
        }
    }

    fn attribute_stall(&mut self, blocker: Blocker) {
        match blocker {
            Blocker::IrawWindow => self.stats.stalls.rf_iraw += 1,
            Blocker::Dl0FillGuard => self.stats.stalls.dl0_fill += 1,
            Blocker::StableRepair => self.stats.stalls.dl0_stable += 1,
            Blocker::WritePort => self.stats.write_port_stalls += 1,
            Blocker::DataDependence | Blocker::Structural => {}
        }
    }

    /// Decides whether `entry` can issue at `now`; returns the dominant
    /// blocker otherwise.
    #[inline]
    fn blocker_for(&self, entry: &UopRecord, now: u64) -> Option<Blocker> {
        // Source readiness on the real board first; the shadow board is
        // only consulted to classify an actual block (hot-path saving:
        // ready sources never touch the shadow).
        let sources_ready = |sb: &Scoreboard| {
            entry.src1.map_or(true, |r| sb.is_ready(r))
                && entry.src2.map_or(true, |r| sb.is_ready(r))
        };
        if !sources_ready(&self.sb) {
            return Some(if sources_ready(&self.shadow) {
                Blocker::IrawWindow
            } else {
                Blocker::DataDependence
            });
        }
        // Structural hazards.
        match entry.kind() {
            UopKind::IntDiv if now < self.div_free_at => return Some(Blocker::Structural),
            UopKind::FpDiv if now < self.fpdiv_free_at => return Some(Blocker::Structural),
            k if k.is_mem() => {
                if now < self.mem_port_free_at {
                    return Some(Blocker::Structural);
                }
                if now < self.repair_until {
                    return Some(Blocker::StableRepair);
                }
                if self.mem.dl0_blocked(now) {
                    return Some(Blocker::Dl0FillGuard);
                }
            }
            _ => {}
        }
        // Extra Bypass write-port contention.
        if self.cfg.extra_write_port_cycles > 0 && entry.dst.is_some() {
            let wb = now + u64::from(self.cfg.core.latency_of(entry.kind()));
            if self.write_ports.free_count(wb) == 0 {
                return Some(Blocker::WritePort);
            }
        }
        None
    }

    fn execute(&mut self, entry: &UopRecord, now: u64) {
        let window = self.window;
        let latency = self.cfg.core.latency_of(entry.kind());
        // Extra Bypass: reserve the write port for the extended write.
        if self.cfg.extra_write_port_cycles > 0 && entry.dst.is_some() {
            let wb = now + u64::from(latency);
            let _ = self
                .write_ports
                .try_reserve(wb, 1 + u64::from(self.cfg.extra_write_port_cycles));
        }
        match entry.kind() {
            UopKind::Load => self.execute_load(entry, now),
            UopKind::Store => self.execute_store(entry, now),
            UopKind::IntDiv => {
                self.div_free_at = now + u64::from(latency);
                self.mark_long(entry.dst, now + u64::from(latency));
            }
            UopKind::FpDiv => {
                self.fpdiv_free_at = now + u64::from(latency);
                self.mark_long(entry.dst, now + u64::from(latency));
            }
            _ => {
                if let Some(dst) = entry.dst {
                    self.sb.set_producer(dst, latency, window);
                    self.shadow.set_producer(dst, latency, None);
                }
            }
        }
    }

    fn mark_long(&mut self, dst: Option<Reg>, ready_at: u64) {
        if let Some(dst) = dst {
            self.sb.mark_long_latency(dst);
            self.shadow.mark_long_latency(dst);
            self.pending.push(Reverse((ready_at, dst)));
        }
    }

    fn execute_load(&mut self, entry: &UopRecord, now: u64) {
        let addr = entry.addr();
        self.mem_port_free_at = now + 1;
        let outcome = self.mem.data_access(addr, false, now);
        let mut ready_at = outcome.ready_at;
        // Probe the Store Table in parallel with the DL0 (paper Fig. 10).
        if self.cfg.iraw_active() {
            let set = self.mem.dl0_set_of(addr);
            match self.stable.probe(addr, entry.size(), set) {
                StableMatch::None => {}
                StableMatch::Full { replay_stores } => {
                    // STable forwards the data at hit latency; repair
                    // stalls subsequent memory ops while stores replay.
                    ready_at = ready_at.min(now + u64::from(self.cfg.core.lat_dl0_hit));
                    self.repair_until = now + 1 + u64::from(replay_stores);
                }
                StableMatch::SetOnly { replay_stores } => {
                    self.repair_until = now + 1 + u64::from(replay_stores);
                }
            }
        }
        // Validated traces give every load a destination.
        let Some(dst) = entry.dst else {
            return;
        };
        let hit_lat = u64::from(self.cfg.core.lat_dl0_hit);
        if ready_at <= now + hit_lat {
            let lat = short_producer_latency(ready_at, now);
            let window = self.window;
            self.sb.set_producer(dst, lat, window);
            self.shadow.set_producer(dst, lat, None);
        } else {
            self.mark_long(Some(dst), ready_at);
        }
    }

    fn execute_store(&mut self, entry: &UopRecord, now: u64) {
        let addr = entry.addr();
        self.mem_port_free_at = now + 1;
        let _ = self.mem.data_access(addr, true, now);
        if self.cfg.iraw_active() {
            self.store_this_cycle = Some(TrackedStore {
                addr,
                size: entry.size(),
                set: self.mem.dl0_set_of(addr),
            });
        }
    }
}

/// A pc, target or data address as the 32-bit structures (caches, BTB)
/// hold it. [`lowvcc_trace::Uop::validate`] keeps every one a trace
/// carries at or below `u32::MAX`, so this fails only on an engine bug.
#[inline]
fn addr32(addr: u64) -> u32 {
    u32::try_from(addr).expect("trace addresses lie in the 32-bit address space")
}

/// Scoreboard latency of a short-latency load producer. A `ready_at` at
/// or before `now` (reachable only through stale Store-Table forwarding
/// state) must clamp to a 1-cycle producer — a raw `ready_at - now`
/// wraps in release builds and poisons the scoreboard for billions of
/// cycles (the `saturating_sub` idiom `try_skip` already uses).
fn short_producer_latency(ready_at: u64, now: u64) -> u32 {
    ready_at.saturating_sub(now).max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, Mechanism, SimConfig};
    use crate::sim::Simulator;
    use crate::stats::SimResult;
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::Uop;

    fn arena(name: &str, uops: Vec<Uop>) -> TraceArena {
        TraceArena::from_uops(name, uops).unwrap()
    }

    fn run_on(cfg: SimConfig, trace: &TraceArena) -> SimResult {
        Simulator::new(cfg).unwrap().run(trace).unwrap()
    }

    fn run_naive_on(cfg: SimConfig, trace: &TraceArena) -> SimResult {
        Simulator::new(cfg).unwrap().run_naive(trace).unwrap()
    }

    fn cfg(mechanism: Mechanism, vcc: u32) -> SimConfig {
        SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &CycleTimeModel::silverthorne_45nm(),
            mv(vcc),
            mechanism,
        )
    }

    fn reg(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    /// PCs cycle within one 64-byte line: a hot loop body, so the IL0
    /// warms after one miss and tests measure the pipeline, not cold
    /// compulsory misses.
    fn loop_pc(i: usize) -> u64 {
        0x40_0000 + (i as u64 % 16) * 4
    }

    fn alu_chain(n: usize) -> TraceArena {
        // r1 = r1 + r1 repeatedly: every uop depends on its predecessor.
        let uops = (0..n)
            .map(|i| Uop::alu(loop_pc(i), Some(reg(1)), Some(reg(1)), None))
            .collect();
        arena("chain", uops)
    }

    fn independent_alus(n: usize) -> TraceArena {
        let uops = (0..n)
            .map(|i| {
                Uop::alu(
                    loop_pc(i),
                    Some(reg((16 + (i % 32)) as u8)),
                    Some(reg(0)),
                    None,
                )
            })
            .collect();
        arena("independent", uops)
    }

    #[test]
    fn commits_every_instruction() {
        for mech in [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic] {
            let trace = independent_alus(500);
            let result = run_on(cfg(mech, 500), &trace);
            assert_eq!(result.stats.instructions, 500, "{mech:?}");
            assert!(result.stats.cycles > 250, "at most 2 IPC");
        }
    }

    #[test]
    fn independent_stream_reaches_high_ipc() {
        let trace = independent_alus(4000);
        let result = run_on(cfg(Mechanism::Baseline, 600), &trace);
        let ipc = result.stats.ipc();
        assert!(
            ipc > 1.5,
            "2-wide independent ALUs should near 2 IPC, got {ipc:.2}"
        );
    }

    #[test]
    fn dependent_chain_is_serial() {
        let trace = alu_chain(2000);
        let result = run_on(cfg(Mechanism::Baseline, 600), &trace);
        let ipc = result.stats.ipc();
        assert!(
            ipc < 1.1,
            "back-to-back chain can't dual-issue, got {ipc:.2}"
        );
    }

    #[test]
    fn iraw_inserts_rf_bubbles_on_two_cycle_consumers() {
        // Groups of six uops: producer, four independents, then a consumer
        // of the producer. At 2-wide issue the consumer lands exactly two
        // cycles after the producer — the stabilization hole (Figure 8's
        // cycle i+4): bypass has passed, the RF entry is still settling.
        let mut uops = Vec::new();
        for i in 0..500u64 {
            let d = reg((16 + (i % 16)) as u8);
            let base = 6 * i as usize;
            uops.push(Uop::alu(loop_pc(base), Some(d), Some(reg(0)), None));
            for k in 1..5 {
                uops.push(Uop::alu(
                    loop_pc(base + k),
                    Some(reg((40 + ((i as usize + k) % 16)) as u8)),
                    Some(reg(0)),
                    None,
                ));
            }
            uops.push(Uop::alu(loop_pc(base + 5), Some(reg(15)), Some(d), None));
        }
        let trace = arena("gap", uops);
        let base = run_on(cfg(Mechanism::Baseline, 500), &trace);
        let iraw = run_on(cfg(Mechanism::Iraw, 500), &trace);
        assert_eq!(base.stats.stalls.rf_iraw, 0, "baseline has no IRAW stalls");
        assert_eq!(base.stats.iraw_delayed_instructions, 0);
        assert!(
            iraw.stats.stalls.rf_iraw > 0,
            "IRAW must delay window consumers"
        );
        assert!(iraw.stats.iraw_delayed_instructions > 0);
        // The IRAW run burns more cycles…
        assert!(iraw.stats.cycles > base.stats.cycles);
        // …but its faster clock still wins overall at 500 mV.
        assert!(iraw.speedup_over(&base) > 1.0);
    }

    #[test]
    fn back_to_back_consumers_use_the_bypass() {
        // Distance-1 consumers ride the bypass network: IRAW adds nothing.
        let trace = alu_chain(1000);
        let base = run_on(cfg(Mechanism::Baseline, 500), &trace);
        let iraw = run_on(cfg(Mechanism::Iraw, 500), &trace);
        // A pure chain issues one per cycle in both cases (bypass hit);
        // cycle counts stay close (fetch effects aside).
        let ratio = iraw.stats.cycles as f64 / base.stats.cycles as f64;
        assert!(
            ratio < 1.05,
            "bypassed chain should not suffer IRAW stalls (ratio {ratio:.3})"
        );
    }

    #[test]
    fn store_load_pair_triggers_stable_repair() {
        let mut uops = Vec::new();
        // Interleave store → immediately-following load of the same
        // address, repeatedly.
        for i in 0..200u64 {
            let addr = 0x10_0000 + (i % 4) * 8;
            uops.push(Uop::store(
                loop_pc(2 * i as usize),
                Some(reg(0)),
                None,
                addr,
                8,
            ));
            uops.push(Uop::load(
                loop_pc(2 * i as usize + 1),
                reg(17),
                None,
                addr,
                8,
            ));
        }
        let trace = arena("stld", uops);
        let iraw = run_on(cfg(Mechanism::Iraw, 500), &trace);
        assert!(
            iraw.stats.stable.full_matches > 0,
            "same-address store→load must hit the STable"
        );
        let base = run_on(cfg(Mechanism::Baseline, 500), &trace);
        assert_eq!(base.stats.stable.probes, 0, "STable off in baseline");
    }

    #[test]
    fn drain_noops_flush_the_gate() {
        // A short trace whose tail would sit below the occupancy gate
        // forever without NOOP injection.
        let trace = independent_alus(3);
        let result = run_on(cfg(Mechanism::Iraw, 500), &trace);
        assert_eq!(result.stats.instructions, 3);
        assert!(result.stats.drain_noops > 0, "gate needs NOOP padding");
        // Exact accounting. With ICI = AI = 2 the gate needs 2 + 2N
        // entries. Uops 0 and 1 allocate together and uop 2 a cycle
        // later, so the queue holds 3 < 2 + 2N: AI·N = 2N NOOPs are
        // padded. The gate opens, uops 0 and 1 issue, and the 1 + 2N left
        // sit under it again: 2N more. Uop 2 then issues and the
        // leftover padding is dropped — 4N NOOPs in all.
        for n in [1, 2] {
            let mut c = cfg(Mechanism::Iraw, 500);
            c.stabilization_cycles = n;
            // A 4-cycle producer plus bypass plus the bubble must fit.
            c.core.scoreboard_width = 8;
            let fast = run_on(c.clone(), &trace);
            let naive = run_naive_on(c, &trace);
            assert_eq!(fast.stats, naive.stats, "N = {n}");
            assert_eq!(fast.stats.instructions, 3, "N = {n}");
            assert_eq!(fast.stats.drain_noops, 4 * u64::from(n), "N = {n}");
        }
        // Padding beyond capacity is dropped. In a 4-entry IQ at N = 1
        // the 3 queued uops leave room for 1 of the AI·N = 2 NOOPs, which
        // opens the gate; after uops 0 and 1 issue, 2 more fit. 3 in all.
        let mut c = cfg(Mechanism::Iraw, 500);
        c.stabilization_cycles = 1;
        c.core.iq_entries = 4;
        let fast = run_on(c.clone(), &trace);
        let naive = run_naive_on(c, &trace);
        assert_eq!(fast.stats, naive.stats);
        assert_eq!(fast.stats.instructions, 3);
        assert_eq!(fast.stats.drain_noops, 3);
    }

    #[test]
    fn iq_never_holds_more_than_its_entries() {
        // The divide's consumer blocks the IQ head for the divide's
        // latency while ten independent uops queue up behind it, so a
        // 4-entry IQ fills and allocation must stop at its capacity.
        let mut div = Uop::alu(loop_pc(0), Some(reg(20)), Some(reg(0)), None);
        div.kind = UopKind::IntDiv;
        let mut uops = vec![
            div,
            Uop::alu(loop_pc(1), Some(reg(21)), Some(reg(20)), None),
        ];
        uops.extend(
            (0..10).map(|i| Uop::alu(loop_pc(2 + i), Some(reg(22 + i as u8)), Some(reg(0)), None)),
        );
        let arena = arena("div-fill", uops);
        let mut c = cfg(Mechanism::Iraw, 500);
        c.stabilization_cycles = 1;
        c.core.iq_entries = 4;
        let cycle = c.cycle_config();
        for fast in [false, true] {
            let mut engine = Engine::new(cycle.clone()).unwrap();
            let mut peak = 0;
            while !engine.finished(&arena) {
                assert!(engine.now < 10_000, "no progress");
                engine.step(&arena);
                assert!(engine.iq_occupancy() <= 4, "cycle {}", engine.now);
                peak = peak.max(engine.iq_occupancy());
                if fast {
                    engine.try_skip(&arena, 10_000);
                }
            }
            assert_eq!(peak, 4, "the blocked head must fill the IQ");
            assert_eq!(engine.stats.instructions, arena.len() as u64);
        }
        let fast = Engine::new(cycle.clone()).unwrap().run(&arena).unwrap();
        let naive = Engine::new(cycle).unwrap().run_naive(&arena).unwrap();
        assert_eq!(fast, naive);
        assert_eq!(fast.instructions, arena.len() as u64);
    }

    #[test]
    fn long_latency_divide_blocks_consumers_until_event() {
        let mut uops = vec![
            {
                let mut u = Uop::alu(loop_pc(0), Some(reg(20)), Some(reg(0)), None);
                u.kind = UopKind::IntDiv;
                u
            },
            Uop::alu(loop_pc(1), Some(reg(21)), Some(reg(20)), None),
        ];
        for i in 0..20u64 {
            uops.push(Uop::alu(
                loop_pc(2 + i as usize),
                Some(reg(22)),
                Some(reg(0)),
                None,
            ));
        }
        let trace = arena("div", uops);
        let result = run_on(cfg(Mechanism::Baseline, 600), &trace);
        // Divide latency (16) dominates this short trace.
        assert!(result.stats.cycles > 16);
        assert_eq!(result.stats.instructions, 22);
    }

    #[test]
    fn fast_path_matches_naive_on_stall_heavy_traces() {
        // Mixed divides and dependence chains: long skippable stalls.
        let mut uops = Vec::new();
        for i in 0..300usize {
            let d = reg((16 + (i % 8)) as u8);
            let mut div = Uop::alu(loop_pc(3 * i), Some(d), Some(reg(0)), None);
            div.kind = UopKind::IntDiv;
            uops.push(div);
            uops.push(Uop::alu(loop_pc(3 * i + 1), Some(reg(40)), Some(d), None));
            uops.push(Uop::alu(
                loop_pc(3 * i + 2),
                Some(reg(41)),
                Some(reg(40)),
                None,
            ));
        }
        let trace = arena("divchain", uops);
        for mech in [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic] {
            for vcc in [400, 500, 700] {
                let fast = run_on(cfg(mech, vcc), &trace);
                let naive = run_naive_on(cfg(mech, vcc), &trace);
                assert_eq!(fast.stats, naive.stats, "{mech:?} at {vcc} mV");
            }
        }
    }

    #[test]
    fn fast_path_matches_naive_with_memory_traffic() {
        let mut uops = Vec::new();
        // Strided loads (DL0 + UL1 misses) feeding consumers, with stores.
        for i in 0..400u64 {
            let addr = 0x10_0000 + i * 256;
            uops.push(Uop::load(loop_pc(3 * i as usize), reg(20), None, addr, 8));
            uops.push(Uop::alu(
                loop_pc(3 * i as usize + 1),
                Some(reg(21)),
                Some(reg(20)),
                None,
            ));
            uops.push(Uop::store(
                loop_pc(3 * i as usize + 2),
                Some(reg(21)),
                None,
                addr,
                8,
            ));
        }
        let trace = arena("memstream", uops);
        for mech in [Mechanism::Baseline, Mechanism::Iraw] {
            let fast = run_on(cfg(mech, 500), &trace);
            let naive = run_naive_on(cfg(mech, 500), &trace);
            assert_eq!(fast.stats, naive.stats, "{mech:?}");
        }
    }

    #[test]
    fn ideal_logic_is_fastest_in_time() {
        let trace = independent_alus(2000);
        let results: Vec<_> = [Mechanism::IdealLogic, Mechanism::Iraw, Mechanism::Baseline]
            .iter()
            .map(|&m| run_on(cfg(m, 450), &trace))
            .collect();
        assert!(results[0].seconds() <= results[1].seconds());
        assert!(results[1].seconds() <= results[2].seconds());
    }

    /// Regression: `execute_load` computed `(ready_at - now).max(1)`,
    /// which wraps in release builds whenever a Store-Table forward
    /// leaves a stale `ready_at` behind `now`. The clamped helper must
    /// treat any past-or-present `ready_at` as a 1-cycle producer and
    /// still report real future latencies exactly.
    #[test]
    fn stale_ready_at_clamps_instead_of_wrapping() {
        // The stale path: ready_at strictly behind now.
        assert_eq!(short_producer_latency(0, 10), 1);
        assert_eq!(short_producer_latency(9, 10), 1);
        // Boundary: ready this very cycle still costs one cycle.
        assert_eq!(short_producer_latency(10, 10), 1);
        // Genuine future readiness is passed through unchanged.
        assert_eq!(short_producer_latency(13, 10), 3);
    }
}
