//! Synthetic program and trace synthesis.
//!
//! The paper evaluates on 531 proprietary traces of 10 M instructions each.
//! As a substitute, this module synthesizes *structured* programs — real
//! control flow (loops, calls, biased branches) over a static code layout —
//! and walks them to produce dynamic uop streams. Structure matters:
//!
//! * recurring static branches give the branch predictor realistic work;
//! * a fixed code footprint drives IL0 behaviour;
//! * call/return pairs exercise the RSB;
//! * geometric register dependency distances determine how many consumers
//!   issue right after their producer — the knob behind the paper's
//!   "13.2% of instructions delayed" result;
//! * stack spill/fill address reuse generates the immediate store→load
//!   pairs the Store Table must catch.

use crate::addr::{AddressModel, HEAP_BASE};
use crate::arena::ArenaSink;
use crate::dist::{Discrete, Geometric};
use crate::error::TraceError;
use crate::rng::SimRng;
use crate::uop::{Reg, Uop, UopKind};

/// Weights of non-control instruction classes in a block body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Integer ALU.
    pub alu: f64,
    /// Integer multiply.
    pub mul: f64,
    /// Integer divide.
    pub div: f64,
    /// FP add.
    pub fp_add: f64,
    /// FP multiply.
    pub fp_mul: f64,
    /// FP divide.
    pub fp_div: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Nops.
    pub nop: f64,
}

impl MixWeights {
    const KINDS: [UopKind; 9] = [
        UopKind::IntAlu,
        UopKind::IntMul,
        UopKind::IntDiv,
        UopKind::FpAdd,
        UopKind::FpMul,
        UopKind::FpDiv,
        UopKind::Load,
        UopKind::Store,
        UopKind::Nop,
    ];

    fn as_discrete(&self) -> Result<Discrete, TraceError> {
        Discrete::new(&[
            self.alu,
            self.mul,
            self.div,
            self.fp_add,
            self.fp_mul,
            self.fp_div,
            self.load,
            self.store,
            self.nop,
        ])
        .map_err(|source| TraceError::Weights {
            which: "instruction mix",
            source,
        })
    }
}

/// Memory region class referenced by a static memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionClass {
    /// Stack spill/fill slots.
    Stack,
    /// Sequential stream.
    Stream,
    /// Pointer-chase working set.
    Chase,
    /// Zipf-popular objects.
    Zipf,
}

/// Weights of the four region classes among memory instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemMix {
    /// Stack accesses.
    pub stack: f64,
    /// Streaming accesses.
    pub stream: f64,
    /// Pointer-chase accesses.
    pub chase: f64,
    /// Zipf-object accesses.
    pub zipf: f64,
}

impl MemMix {
    const CLASSES: [RegionClass; 4] = [
        RegionClass::Stack,
        RegionClass::Stream,
        RegionClass::Chase,
        RegionClass::Zipf,
    ];

    fn as_discrete(&self) -> Result<Discrete, TraceError> {
        Discrete::new(&[self.stack, self.stream, self.chase, self.zipf]).map_err(|source| {
            TraceError::Weights {
                which: "memory mix",
                source,
            }
        })
    }
}

/// Full parameter set of a synthetic workload family.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthParams {
    /// Body instruction mix.
    pub mix: MixWeights,
    /// Memory region mix.
    pub mem_mix: MemMix,
    /// Geometric parameter of register dependency distance
    /// (larger ⇒ shorter distances ⇒ more IRAW-prone consumers).
    pub dep_p: f64,
    /// Fraction of ALU/FP uops with two source registers.
    pub two_source_fraction: f64,
    /// Number of functions in the static program.
    pub functions: u32,
    /// Blocks per function (inclusive range).
    pub blocks_per_function: (u32, u32),
    /// Body instructions per block (inclusive range).
    pub block_len: (u32, u32),
    /// Probability that a non-final block is a loop body.
    pub loop_fraction: f64,
    /// Mean loop trip count.
    pub mean_loop_trips: f64,
    /// Probability that a non-final, non-loop block ends in a call.
    pub call_fraction: f64,
    /// Distribution of taken-bias values for conditional forward branches:
    /// `(bias, weight)` pairs. Biases near 0 or 1 are predictable; 0.5 is
    /// noise.
    pub branch_biases: Vec<(f64, f64)>,
    /// Streaming-region length in bytes.
    pub stream_length: u64,
    /// Streaming stride in bytes.
    pub stream_stride: u64,
    /// Pointer-chase working-set size in bytes.
    pub chase_working_set: u64,
    /// Number of Zipf objects.
    pub zipf_objects: usize,
    /// Zipf object size in bytes.
    pub zipf_object_size: u64,
    /// Zipf exponent.
    pub zipf_s: f64,
    /// Stack slots per frame.
    pub stack_slots: u64,
}

impl SynthParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first invalid parameter.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.mix.as_discrete()?;
        self.mem_mix.as_discrete()?;
        if !(0.0 < self.dep_p && self.dep_p <= 1.0) {
            return Err(TraceError::OutOfRange {
                name: "dep_p",
                value: self.dep_p,
                expected: "(0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.two_source_fraction) {
            return Err(TraceError::OutOfRange {
                name: "two_source_fraction",
                value: self.two_source_fraction,
                expected: "[0, 1]",
            });
        }
        if self.functions == 0 {
            return Err(TraceError::OutOfRange {
                name: "functions",
                value: 0.0,
                expected: "at least 1",
            });
        }
        if self.blocks_per_function.0 == 0
            || self.blocks_per_function.0 > self.blocks_per_function.1
        {
            return Err(TraceError::InvalidRange {
                name: "blocks_per_function",
                lo: self.blocks_per_function.0,
                hi: self.blocks_per_function.1,
            });
        }
        if self.block_len.0 == 0 || self.block_len.0 > self.block_len.1 {
            return Err(TraceError::InvalidRange {
                name: "block_len",
                lo: self.block_len.0,
                hi: self.block_len.1,
            });
        }
        for (name, p) in [
            ("loop_fraction", self.loop_fraction),
            ("call_fraction", self.call_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(TraceError::OutOfRange {
                    name,
                    value: p,
                    expected: "[0, 1]",
                });
            }
        }
        if self.mean_loop_trips < 1.0 {
            return Err(TraceError::OutOfRange {
                name: "mean_loop_trips",
                value: self.mean_loop_trips,
                expected: "[1, ∞)",
            });
        }
        if self.branch_biases.is_empty() {
            return Err(TraceError::Empty {
                name: "branch_biases",
            });
        }
        Ok(())
    }
}

/// Terminator of a static basic block (8 bytes: the parameters it
/// shares with other blocks stay in [`SynthParams`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Terminator {
    /// Return to caller (or restart the program from function 0).
    Ret,
    /// Backward conditional branch to the block's own entry, taken a
    /// geometric number of trips with mean `mean_loop_trips`.
    Loop,
    /// Forward conditional branch skipping the next block when taken,
    /// biased by `branch_biases[bias]`.
    CondSkip { bias: u32 },
    /// Call into `callee`, continuing at the next block afterwards.
    Call { callee: u32 },
}

#[derive(Debug, Clone, Copy)]
struct StaticInst {
    kind: UopKind,
    region: Option<RegionClass>,
}

/// A static basic block: its body is `Program::insts[start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u32,
    len: u32,
    term: Terminator,
}

#[derive(Debug, Clone, Copy)]
struct Function {
    first_block: usize,
    num_blocks: usize,
}

/// The static program: one instruction vector that every block's body
/// is a range of (one allocation, not one per block). Blocks are laid
/// out back to back from [`CODE_BASE`], 4 bytes per body instruction and
/// one slot for the terminator, so a block's pc follows from its index.
#[derive(Debug, Clone)]
struct Program {
    insts: Vec<StaticInst>,
    blocks: Vec<Block>,
    functions: Vec<Function>,
}

/// Base address of the synthetic code segment.
pub const CODE_BASE: u64 = 0x0000_0040_0000;

impl Program {
    fn build(params: &SynthParams, rng: &mut SimRng) -> Result<Self, TraceError> {
        let mix = params.mix.as_discrete()?;
        let mem_mix = params.mem_mix.as_discrete()?;
        let bias_dist = Discrete::new(
            &params
                .branch_biases
                .iter()
                .map(|&(_, w)| w)
                .collect::<Vec<_>>(),
        )
        .map_err(|source| TraceError::Weights {
            which: "branch biases",
            source,
        })?;

        let nfuncs = params.functions as usize;
        // Sized once for the most the parameters allow (at most twice
        // the expected size), so neither vector grows by reallocation.
        let max_blocks = nfuncs * params.blocks_per_function.1 as usize;
        let mut insts = Vec::with_capacity(max_blocks * params.block_len.1 as usize);
        let mut blocks = Vec::with_capacity(max_blocks);
        let mut functions = Vec::with_capacity(nfuncs);

        for f in 0..nfuncs {
            let (lo, hi) = params.blocks_per_function;
            let nblocks = (lo + rng.below(u64::from(hi - lo + 1)) as u32) as usize;
            let first_block = blocks.len();
            for b in 0..nblocks {
                let (bl, bh) = params.block_len;
                let body_len = (bl + rng.below(u64::from(bh - bl + 1)) as u32) as usize;
                let start = insts.len();
                insts.extend((0..body_len).map(|_| {
                    let kind = MixWeights::KINDS[mix.sample(rng)];
                    let region = kind.is_mem().then(|| MemMix::CLASSES[mem_mix.sample(rng)]);
                    StaticInst { kind, region }
                }));
                let is_last = b == nblocks - 1;
                let term = if is_last {
                    Terminator::Ret
                } else if rng.chance(params.loop_fraction) {
                    Terminator::Loop
                } else if f + 1 < nfuncs && rng.chance(params.call_fraction) {
                    // Calls only go "forward" in function index: the static
                    // call graph is a DAG, bounding runtime stack depth.
                    let callee = f + 1 + rng.below((nfuncs - f - 1) as u64) as usize;
                    Terminator::Call {
                        callee: callee as u32,
                    }
                } else {
                    Terminator::CondSkip {
                        bias: bias_dist.sample(rng) as u32,
                    }
                };
                blocks.push(Block {
                    start: u32::try_from(start).expect("programs stay below 2^32 instructions"),
                    len: body_len as u32,
                    term,
                });
            }
            functions.push(Function {
                first_block,
                num_blocks: nblocks,
            });
        }
        Ok(Self {
            insts,
            blocks,
            functions,
        })
    }

    /// The pc of block `b`'s first instruction: every earlier block
    /// takes its body's slots and one for its terminator.
    fn entry_pc(&self, b: usize) -> u64 {
        CODE_BASE + 4 * (u64::from(self.blocks[b].start) + b as u64)
    }

    fn code_bytes(&self) -> u64 {
        4 * (self.insts.len() + self.blocks.len()) as u64
    }
}

/// Seeded generator: builds a static program once, then walks it into
/// a trace's arena ([`TraceSpec::build`](crate::TraceSpec::build)).
///
/// ```
/// use lowvcc_trace::{families::WorkloadFamily, synth::Generator};
///
/// let params = WorkloadFamily::SpecInt.params();
/// let generator = Generator::new(&params, 42)?;
/// assert!(generator.code_footprint_bytes() > 0);
/// # Ok::<(), lowvcc_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    params: SynthParams,
    program: Program,
    rng: SimRng,
    dep: Geometric,
    loop_trips: Geometric,
    // Walk state.
    func: usize,
    block: usize,
    loop_trips_left: Option<u64>,
    call_stack: Vec<(usize, usize)>,
    // Register allocation state.
    recent_dests: std::collections::VecDeque<Reg>,
    next_dst: u8,
    // Region models.
    stack_model: AddressModel,
    stream_model: AddressModel,
    chase_model: AddressModel,
    zipf_model: AddressModel,
}

/// First register used for rotating destination allocation; registers
/// below this index act as stable bases (stack pointer, globals).
const FIRST_ROTATING_REG: u8 = 16;

impl Generator {
    /// Builds the static program for `params` from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first invalid parameter.
    pub fn new(params: &SynthParams, seed: u64) -> Result<Self, TraceError> {
        params.validate()?;
        let mut rng = SimRng::seed_from(seed);
        let program = Program::build(params, &mut rng)?;
        let dep = Geometric::new(params.dep_p).map_err(|_| TraceError::OutOfRange {
            name: "dep_p",
            value: params.dep_p,
            expected: "(0, 1]",
        })?;
        let loop_trips = Geometric::new(1.0 / params.mean_loop_trips.max(1.0))
            .expect("mean_loop_trips ≥ 1 gives valid p");
        Ok(Self {
            stack_model: AddressModel::stack_frame(params.stack_slots),
            stream_model: AddressModel::strided(
                HEAP_BASE,
                params.stream_stride,
                params.stream_length,
            ),
            chase_model: AddressModel::pointer_chase(
                HEAP_BASE + 0x1000_0000,
                params.chase_working_set,
            ),
            zipf_model: AddressModel::zipf_objects(
                HEAP_BASE + 0x2000_0000,
                params.zipf_objects,
                params.zipf_object_size,
                params.zipf_s,
            ),
            params: params.clone(),
            program,
            rng,
            dep,
            loop_trips,
            func: 0,
            block: 0,
            loop_trips_left: None,
            call_stack: Vec::new(),
            recent_dests: std::collections::VecDeque::with_capacity(64),
            next_dst: FIRST_ROTATING_REG,
        })
    }

    /// Static code footprint in bytes (drives IL0 behaviour).
    #[must_use]
    pub fn code_footprint_bytes(&self) -> u64 {
        self.program.code_bytes()
    }

    fn alloc_dst(&mut self) -> Reg {
        let r = Reg::new(self.next_dst).expect("rotating register in range");
        self.next_dst += 1;
        if self.next_dst >= crate::uop::NUM_REGS {
            self.next_dst = FIRST_ROTATING_REG;
        }
        if self.recent_dests.len() == 64 {
            self.recent_dests.pop_back();
        }
        self.recent_dests.push_front(r);
        r
    }

    fn pick_src(&mut self) -> Reg {
        let d = self.dep.sample(&mut self.rng) as usize;
        if d <= self.recent_dests.len() {
            self.recent_dests[d - 1]
        } else {
            // Fall back to a stable base register.
            Reg::new(self.rng.below(u64::from(FIRST_ROTATING_REG)) as u8)
                .expect("stable register in range")
        }
    }

    fn base_reg(region: RegionClass) -> Reg {
        let idx = match region {
            RegionClass::Stack => 1,
            RegionClass::Stream => 2,
            RegionClass::Chase => 3,
            RegionClass::Zipf => 4,
        };
        Reg::new(idx).expect("base register in range")
    }

    fn region_addr(&mut self, region: RegionClass) -> u64 {
        // Split borrows: take the model out of self to walk alongside rng.
        let model = match region {
            RegionClass::Stack => &mut self.stack_model,
            RegionClass::Stream => &mut self.stream_model,
            RegionClass::Chase => &mut self.chase_model,
            RegionClass::Zipf => &mut self.zipf_model,
        };
        model.next_addr(&mut self.rng)
    }

    fn emit_body(&mut self, out: &mut Capped<'_>, inst: StaticInst, pc: u64) {
        match inst.kind {
            UopKind::Load => {
                let region = inst.region.expect("memory inst has region");
                let addr = self.region_addr(region);
                let size = if self.rng.chance(0.7) { 8 } else { 4 };
                let dst = self.alloc_dst();
                out.push(Uop::load(pc, dst, Some(Self::base_reg(region)), addr, size));
            }
            UopKind::Store => {
                let region = inst.region.expect("memory inst has region");
                let addr = self.region_addr(region);
                let size = if self.rng.chance(0.7) { 8 } else { 4 };
                let data = self.pick_src();
                out.push(Uop::store(
                    pc,
                    Some(data),
                    Some(Self::base_reg(region)),
                    addr,
                    size,
                ));
            }
            UopKind::Nop => out.push(Uop::nop(pc)),
            kind => {
                let src1 = Some(self.pick_src());
                let src2 = self
                    .rng
                    .chance(self.params.two_source_fraction)
                    .then(|| self.pick_src());
                let dst = self.alloc_dst();
                let mut u = Uop::alu(pc, Some(dst), src1, src2);
                u.kind = kind;
                out.push(u);
            }
        }
    }

    /// Walks the program until `len` uops have gone into `sink`. The
    /// block that reaches `len` still runs to its end, so the walk stops
    /// on a block boundary; its surplus uops are dropped rather than
    /// stored.
    pub(crate) fn walk(&mut self, sink: &mut ArenaSink, len: usize) {
        let mut out = Capped { sink, left: len };
        while out.left > 0 {
            self.step_block(&mut out);
        }
    }

    /// Executes one basic block (body + terminator), appending uops.
    fn step_block(&mut self, out: &mut Capped<'_>) {
        let Function {
            first_block,
            num_blocks,
        } = self.program.functions[self.func];
        let block_idx = first_block + self.block;
        let Block { start, len, term } = self.program.blocks[block_idx];
        let entry_pc = self.program.entry_pc(block_idx);
        let term_pc = entry_pc + 4 * u64::from(len);
        for i in 0..len as usize {
            let inst = self.program.insts[start as usize + i];
            self.emit_body(out, inst, entry_pc + 4 * i as u64);
        }

        let last_local = num_blocks - 1;
        match term {
            Terminator::Loop => {
                if self.loop_trips_left.is_none() {
                    self.loop_trips_left = Some(self.loop_trips.sample(&mut self.rng));
                }
                let left = self.loop_trips_left.expect("just initialized");
                let cond = Some(self.pick_src());
                if left > 1 {
                    self.loop_trips_left = Some(left - 1);
                    out.push(Uop::branch(term_pc, cond, true, entry_pc));
                    // stay on the same block
                } else {
                    self.loop_trips_left = None;
                    out.push(Uop::branch(term_pc, cond, false, term_pc + 4));
                    self.block = (self.block + 1).min(last_local);
                }
            }
            Terminator::CondSkip { bias } => {
                let taken = self.rng.chance(self.params.branch_biases[bias as usize].0);
                let cond = Some(self.pick_src());
                let target_local = (self.block + 2).min(last_local);
                let target_pc = self.program.entry_pc(first_block + target_local);
                if taken {
                    out.push(Uop::branch(term_pc, cond, true, target_pc));
                    self.block = target_local;
                } else {
                    out.push(Uop::branch(term_pc, cond, false, term_pc + 4));
                    self.block = (self.block + 1).min(last_local);
                }
            }
            Terminator::Call { callee } => {
                let callee = callee as usize;
                let callee_pc = self
                    .program
                    .entry_pc(self.program.functions[callee].first_block);
                let mut u = Uop::alu(term_pc, None, None, None);
                u.kind = UopKind::Call;
                u.taken = true;
                u.target = callee_pc;
                out.push(u);
                let ret_block = (self.block + 1).min(last_local);
                self.call_stack.push((self.func, ret_block));
                self.stack_model.push_frame();
                self.func = callee;
                self.block = 0;
            }
            Terminator::Ret => {
                if let Some((func, block)) = self.call_stack.pop() {
                    let ret_pc = self
                        .program
                        .entry_pc(self.program.functions[func].first_block + block);
                    let mut u = Uop::alu(term_pc, None, None, None);
                    u.kind = UopKind::Ret;
                    u.taken = true;
                    u.target = ret_pc;
                    out.push(u);
                    self.stack_model.pop_frame();
                    self.func = func;
                    self.block = block;
                } else {
                    // Program outer loop: the driver dispatches to a random
                    // phase (function), like an event loop. This is what
                    // spreads dynamic coverage over the whole static
                    // footprint.
                    let next = self.rng.below(self.program.functions.len() as u64) as usize;
                    let entry = self
                        .program
                        .entry_pc(self.program.functions[next].first_block);
                    out.push(Uop::branch(term_pc, None, true, entry));
                    self.func = next;
                    self.block = 0;
                }
            }
        }
    }
}

/// Passes the first `left` uops on to `sink` and drops the rest.
struct Capped<'a> {
    sink: &'a mut ArenaSink,
    left: usize,
}

impl Capped<'_> {
    fn push(&mut self, uop: Uop) {
        if self.left > 0 {
            self.left -= 1;
            self.sink.push(uop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{TraceSpec, WorkloadFamily};

    fn params() -> SynthParams {
        WorkloadFamily::SpecInt.params()
    }

    /// The uops of the `SpecInt` trace of `seed`, `len` long.
    fn uops(seed: u64, len: usize) -> Vec<Uop> {
        TraceSpec::new(WorkloadFamily::SpecInt, seed, len)
            .build()
            .unwrap()
            .uops()
            .collect()
    }

    #[test]
    fn generates_requested_length() {
        assert_eq!(uops(1, 5_000).len(), 5_000);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = uops(7, 2_000);
        assert_eq!(a, uops(7, 2_000));
        assert_ne!(a, uops(8, 2_000));
    }

    #[test]
    fn control_flow_targets_are_real_pcs() {
        // The spec's generator builds the same static program.
        let generator = Generator::new(&params(), 11).unwrap();
        let code_end = CODE_BASE + generator.code_footprint_bytes();
        for u in uops(11, 5_000) {
            assert!(u.pc >= CODE_BASE && u.pc < code_end, "pc {:#x}", u.pc);
            if u.kind.is_control() && u.taken {
                assert!(
                    u.target >= CODE_BASE && u.target < code_end,
                    "target {:#x}",
                    u.target
                );
            }
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let t = uops(5, 50_000);
        let calls = t.iter().filter(|u| u.kind == UopKind::Call).count();
        let rets = t.iter().filter(|u| u.kind == UopKind::Ret).count();
        assert!(calls > 0, "workload should contain calls");
        let diff = calls.abs_diff(rets);
        // Truncation can strand a few open frames; they must roughly match.
        assert!(diff <= 20, "calls {calls} vs rets {rets}");
    }

    #[test]
    fn branches_repeat_static_pcs() {
        // The predictor needs recurring static branches.
        let t = uops(13, 20_000);
        let mut counts = std::collections::HashMap::new();
        for u in t.iter().filter(|u| u.kind == UopKind::Branch) {
            *counts.entry(u.pc).or_insert(0usize) += 1;
        }
        assert!(!counts.is_empty());
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 20, "hottest branch executed {max} times");
    }

    #[test]
    fn dependency_distances_are_short() {
        // Sample the distance from each source to its producing uop; the
        // geometric dep model must concentrate on short distances, since
        // short distances are what create IRAW conflicts.
        let t = uops(17, 30_000);
        let mut last_writer: std::collections::HashMap<Reg, usize> =
            std::collections::HashMap::new();
        let mut short = 0usize;
        let mut total = 0usize;
        for (i, u) in t.iter().enumerate() {
            for s in u.sources() {
                if let Some(&w) = last_writer.get(&s) {
                    total += 1;
                    if i - w <= 4 {
                        short += 1;
                    }
                }
            }
            if let Some(d) = u.dst {
                last_writer.insert(d, i);
            }
        }
        assert!(total > 10_000);
        let frac = short as f64 / total as f64;
        assert!(
            frac > 0.35,
            "short-distance dependency fraction {frac:.2} too low"
        );
    }

    #[test]
    fn rejects_invalid_params() {
        let mut p = params();
        p.dep_p = 0.0;
        assert!(Generator::new(&p, 0).is_err());
        let mut p2 = params();
        p2.functions = 0;
        assert!(Generator::new(&p2, 0).is_err());
        let mut p3 = params();
        p3.block_len = (5, 2);
        assert!(Generator::new(&p3, 0).is_err());
        let mut p4 = params();
        p4.branch_biases.clear();
        assert!(Generator::new(&p4, 0).is_err());
    }

    #[test]
    fn code_footprint_tracks_parameters() {
        let small = Generator::new(&WorkloadFamily::Kernel.params(), 1).unwrap();
        let large = Generator::new(&WorkloadFamily::Server.params(), 1).unwrap();
        assert!(small.code_footprint_bytes() < large.code_footprint_bytes());
    }
}
