//! The functional interpreter: executes a [`Program`] and produces the
//! deterministic dynamic instruction stream consumed by the timing model.
//!
//! This is the "functional simulator" half of an execution-driven simulator:
//! fast-forwarding, functional warming, BBV profiling, and detailed timing
//! all pull from the same stream, so every simulation technique observes the
//! same execution — exactly as re-running the same binary does in the paper.

use crate::program::{BlockId, MemPattern, Program, Region};
use crate::rng::SplitMix64;
use crate::tcache::{DecodedBlock, DecodedTerm, PatchKind, TraceCache};
use sim_core::isa::{Addr, DynInst, InstStream, OpClass, WarmSink};
use sim_core::state::{ByteReader, ByteWriter, StateError};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RegionCursor {
    stride: u64,
    chase: u64,
}

/// Control-flow transition produced by [`Interp::term_step`].
enum TermStep {
    /// Emit `inst` and continue at block `next`.
    Goto { next: BlockId, inst: DynInst },
    /// The program halted (nothing emitted).
    Halt,
}

/// Interpreter work is reported to the process-wide functional-execution
/// counter ([`sim_core::checkpoint::record_functional`]) in batches of this
/// many instructions, so the hot path pays one atomic add per few thousand
/// instructions.
const WORK_FLUSH: u64 = 8_192;

/// An owned, program-independent snapshot of an [`Interp`]'s execution
/// state: the architectural half of a checkpoint.
///
/// The state at stream position *p* is a pure function of the program and
/// *p*, so one snapshot is valid for every machine configuration. Restoring
/// it into an interpreter over the same program reproduces the remainder of
/// the dynamic stream bit-for-bit (see [`Interp::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpState {
    prog_fp: u64,
    block: BlockId,
    inst_idx: usize,
    done: bool,
    loop_counters: Vec<u32>,
    call_stack: Vec<BlockId>,
    cursors: Vec<RegionCursor>,
    rng: SplitMix64,
    emitted: u64,
}

impl InterpState {
    /// Stream position (instructions emitted) at snapshot time.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the program had halted at snapshot time.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Fingerprint of the program this state belongs to
    /// ([`Program::fingerprint`]).
    pub fn program_fingerprint(&self) -> u64 {
        self.prog_fp
    }

    /// Approximate in-memory size of this snapshot, in bytes (checkpoint
    /// libraries budget stored state with it).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(self.loop_counters.as_slice())
            + std::mem::size_of_val(self.call_stack.as_slice())
            + std::mem::size_of_val(self.cursors.as_slice())
    }

    /// Serialize this snapshot to a deterministic byte payload (for
    /// persistent checkpoint stores). Equal states encode to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.prog_fp);
        w.put_u32(self.block);
        w.put_usize(self.inst_idx);
        w.put_bool(self.done);
        w.put_usize(self.loop_counters.len());
        for &c in &self.loop_counters {
            w.put_u32(c);
        }
        w.put_usize(self.call_stack.len());
        for &b in &self.call_stack {
            w.put_u32(b);
        }
        w.put_usize(self.cursors.len());
        for c in &self.cursors {
            w.put_u64(c.stride);
            w.put_u64(c.chase);
        }
        w.put_u64(self.rng.state());
        w.put_u64(self.emitted);
        w.into_bytes()
    }

    /// Decode a snapshot written by [`InterpState::to_bytes`].
    ///
    /// Structural errors (truncation, trailing bytes) are reported here;
    /// whether the state belongs to a given program is still checked by
    /// [`Interp::restore`] via the embedded program fingerprint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateError> {
        let mut r = ByteReader::new(bytes);
        let prog_fp = r.get_u64()?;
        let block = r.get_u32()?;
        let inst_idx = r.get_usize()?;
        let done = r.get_bool()?;
        let n = r.get_usize()?;
        let mut loop_counters = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            loop_counters.push(r.get_u32()?);
        }
        let n = r.get_usize()?;
        let mut call_stack = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            call_stack.push(r.get_u32()?);
        }
        let n = r.get_usize()?;
        let mut cursors = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            cursors.push(RegionCursor {
                stride: r.get_u64()?,
                chase: r.get_u64()?,
            });
        }
        let rng = SplitMix64::new(r.get_u64()?);
        let emitted = r.get_u64()?;
        r.finish()?;
        Ok(InterpState {
            prog_fp,
            block,
            inst_idx,
            done,
            loop_counters,
            call_stack,
            cursors,
            rng,
            emitted,
        })
    }
}

/// An execution of a [`Program`].
///
/// Cloning an `Interp` snapshots the execution state (used by techniques
/// that need checkpoints); [`Interp::snapshot`] captures it as an owned,
/// lifetime-free [`InterpState`]. A fresh interpreter always reproduces the
/// same stream for the same program.
#[derive(Debug)]
pub struct Interp<'p> {
    prog: &'p Program,
    block: BlockId,
    inst_idx: usize,
    done: bool,
    loop_counters: Vec<u32>,
    call_stack: Vec<BlockId>,
    cursors: Vec<RegionCursor>,
    rng: SplitMix64,
    emitted: u64,
    /// Freshly interpreted instructions not yet flushed to the global
    /// functional-execution counter. Never cloned (the clone did not do the
    /// work) and flushed on drop.
    fresh_work: u64,
    /// Pre-decoded basic-block cache every stream mode walks. Pure
    /// host-side state: never part of [`InterpState`], never cloned (a clone
    /// re-decodes lazily), and bit-transparent to the emitted stream.
    tcache: TraceCache,
}

impl Clone for Interp<'_> {
    fn clone(&self) -> Self {
        Interp {
            prog: self.prog,
            block: self.block,
            inst_idx: self.inst_idx,
            done: self.done,
            loop_counters: self.loop_counters.clone(),
            call_stack: self.call_stack.clone(),
            cursors: self.cursors.clone(),
            rng: self.rng,
            emitted: self.emitted,
            fresh_work: 0,
            tcache: TraceCache::new(self.prog),
        }
    }
}

impl Drop for Interp<'_> {
    fn drop(&mut self) {
        self.tcache.flush_metrics();
        sim_core::checkpoint::record_functional(self.fresh_work);
    }
}

impl<'p> Interp<'p> {
    /// Start a fresh execution of `prog`.
    ///
    /// # Panics
    /// Panics if the program fails [`Program::validate`] (in debug builds).
    pub fn new(prog: &'p Program) -> Self {
        debug_assert!(prog.validate().is_ok(), "invalid program");
        Interp {
            prog,
            block: prog.entry,
            inst_idx: 0,
            done: prog.blocks.is_empty(),
            loop_counters: vec![0; prog.loop_slots as usize],
            call_stack: Vec::with_capacity(16),
            cursors: vec![RegionCursor::default(); prog.regions.len()],
            rng: SplitMix64::new(prog.seed),
            emitted: 0,
            fresh_work: 0,
            tcache: TraceCache::new(prog),
        }
    }

    /// Resume an execution of `prog` from a snapshot — the restore half of
    /// an architectural checkpoint. No instructions are re-interpreted.
    ///
    /// # Panics
    /// Panics if `state` was not captured from an execution of `prog`
    /// (fingerprint mismatch).
    pub fn resume(prog: &'p Program, state: &InterpState) -> Self {
        let mut it = Interp::new(prog);
        it.restore(state);
        it
    }

    /// Capture the execution state as an owned [`InterpState`].
    pub fn snapshot(&self) -> InterpState {
        InterpState {
            prog_fp: self.prog.fingerprint(),
            block: self.block,
            inst_idx: self.inst_idx,
            done: self.done,
            loop_counters: self.loop_counters.clone(),
            call_stack: self.call_stack.clone(),
            cursors: self.cursors.clone(),
            rng: self.rng,
            emitted: self.emitted,
        }
    }

    /// Return to a previously captured state. The remainder of the stream
    /// is bit-identical to an interpreter that executed to that position —
    /// nothing is re-interpreted (this is what makes fast-forward reuse
    /// free).
    ///
    /// # Panics
    /// Panics if `state` belongs to a different program.
    pub fn restore(&mut self, state: &InterpState) {
        assert_eq!(
            state.prog_fp,
            self.prog.fingerprint(),
            "checkpoint belongs to a different program"
        );
        self.block = state.block;
        self.inst_idx = state.inst_idx;
        self.done = state.done;
        self.loop_counters.clone_from(&state.loop_counters);
        self.call_stack.clone_from(&state.call_stack);
        self.cursors.clone_from(&state.cursors);
        self.rng = state.rng;
        self.emitted = state.emitted;
        // fresh_work is untouched: restoring does not undo work already
        // performed (and reported) by this interpreter.
    }

    /// Count `n` freshly interpreted instructions toward the global
    /// functional-execution counter, batched.
    #[inline]
    fn note_work(&mut self, n: u64) {
        self.fresh_work += n;
        if self.fresh_work >= WORK_FLUSH {
            sim_core::checkpoint::record_functional(self.fresh_work);
            self.fresh_work = 0;
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// Dynamic instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the program has halted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// `a % m` without the hardware divide when `m` is a power of two —
    /// which every suite region size is, so the address generators below
    /// stay division-free on the warm/detailed hot paths. The mask is exact
    /// (same value as `%`), and a non-pow2 `m` falls back to the real thing.
    #[inline]
    fn fast_mod(a: u64, m: u64) -> u64 {
        if m.is_power_of_two() {
            a & (m - 1)
        } else {
            a % m
        }
    }

    /// The effective address of one access to `region` under `pattern`,
    /// advancing that region's cursor (or the PRNG). The borrows are spelled
    /// out so the walk can advance cursors/PRNG while a decoded block is
    /// borrowed from `self.tcache`.
    #[inline]
    fn mem_addr_in(
        regions: &[Region],
        cursors: &mut [RegionCursor],
        rng: &mut SplitMix64,
        region: u16,
        pattern: MemPattern,
    ) -> Addr {
        let r = &regions[region as usize];
        let cur = &mut cursors[region as usize];
        match pattern {
            MemPattern::Stride { step } => {
                let a = r.base + cur.stride;
                cur.stride = Self::fast_mod(cur.stride + step, r.size);
                a
            }
            MemPattern::Random => {
                // 8-byte aligned uniform address.
                r.base + (rng.below(r.size) & !7)
            }
            MemPattern::Chase => {
                // Deterministic line-granular random walk: the next node is a
                // function of the current one (an LCG over line indices).
                let lines = (r.size / 64).max(1);
                let idx = cur.chase;
                cur.chase = Self::fast_mod(
                    idx.wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407),
                    lines,
                );
                r.base + idx * 64
            }
            MemPattern::Fixed { offset } => r.base + Self::fast_mod(offset, r.size),
        }
    }

    /// Advance control flow past a pre-decoded terminator, mutating loop
    /// counters, the call stack and the PRNG in the order the scalar
    /// interpreter does. The caller applies the returned transition to
    /// `self.block`/`self.inst_idx`/`self.done`.
    #[inline]
    fn term_step(
        prog: &Program,
        term: &DecodedTerm,
        pc: Addr,
        bb_id: u32,
        loop_counters: &mut [u32],
        call_stack: &mut Vec<BlockId>,
        rng: &mut SplitMix64,
    ) -> TermStep {
        let (op, taken, next, next_pc) = match term {
            DecodedTerm::Loop {
                body,
                exit,
                loop_slot,
                trips,
                body_pc,
                exit_pc,
            } => {
                let c = &mut loop_counters[*loop_slot as usize];
                *c += 1;
                if *c < *trips {
                    (OpClass::Branch, true, *body, *body_pc)
                } else {
                    *c = 0;
                    (OpClass::Branch, false, *exit, *exit_pc)
                }
            }
            DecodedTerm::CondProb {
                taken_ppm,
                taken,
                not_taken,
                taken_pc,
                not_taken_pc,
            } => {
                if rng.chance_ppm(*taken_ppm) {
                    (OpClass::Branch, true, *taken, *taken_pc)
                } else {
                    (OpClass::Branch, false, *not_taken, *not_taken_pc)
                }
            }
            DecodedTerm::CondPeriodic {
                period,
                loop_slot,
                taken,
                not_taken,
                taken_pc,
                not_taken_pc,
            } => {
                let c = &mut loop_counters[*loop_slot as usize];
                *c += 1;
                if (*c).is_multiple_of(*period) {
                    (OpClass::Branch, true, *taken, *taken_pc)
                } else {
                    (OpClass::Branch, false, *not_taken, *not_taken_pc)
                }
            }
            DecodedTerm::Jump { target, target_pc } => (OpClass::Jump, true, *target, *target_pc),
            DecodedTerm::Call {
                callee,
                ret,
                callee_pc,
            } => {
                call_stack.push(*ret);
                (OpClass::Call, true, *callee, *callee_pc)
            }
            DecodedTerm::Return => match call_stack.pop() {
                Some(next) => (
                    OpClass::Return,
                    true,
                    next,
                    prog.blocks[next as usize].base_pc,
                ),
                // Return with an empty stack ends the program.
                None => return TermStep::Halt,
            },
            DecodedTerm::Switch { targets } => {
                let (next, tpc) = targets[rng.below(targets.len() as u64) as usize];
                (OpClass::IndirectJump, true, next, tpc)
            }
            DecodedTerm::Halt => return TermStep::Halt,
        };
        TermStep::Goto {
            next,
            inst: DynInst {
                pc,
                op,
                srcs: [0, 0],
                dest: 0,
                mem_addr: 0,
                taken,
                next_pc,
                trivial: false,
                bb_id,
            },
        }
    }

    /// The one block walk behind every stream mode: advance up to `max`
    /// instructions through decoded blocks, drawing each stateful patch
    /// (effective address, triviality) and stepping each terminator in
    /// program order, and hand the results to `v`. Emission, fast-forward
    /// and functional warming differ only in their [`Visit`].
    ///
    /// All interpreter state (cursors, PRNG, loop counters, call stack,
    /// `emitted`) advances exactly as that many per-instruction steps
    /// would, and the returned count is exact even when the program ends
    /// mid-block.
    #[inline(always)]
    fn walk<V: Visit>(&mut self, v: &mut V, max: u64) -> u64 {
        let prog = self.prog;
        let mut consumed = 0u64;
        while consumed < max && !self.done {
            let db = self.tcache.get_or_decode(prog, self.block);
            let len = db.template.len();
            let start = self.inst_idx;
            let end = start + ((len - start) as u64).min(max - consumed) as usize;
            if end > start {
                v.body(db, start, end);
                let patches = db.patch_start[start] as usize..db.patch_start[end] as usize;
                for p in &db.patches[patches] {
                    let idx = p.idx as usize;
                    match p.kind {
                        PatchKind::Data {
                            region,
                            pattern,
                            store,
                        } => {
                            let a = Self::mem_addr_in(
                                &prog.regions,
                                &mut self.cursors,
                                &mut self.rng,
                                region,
                                pattern,
                            );
                            v.data(db, idx, a, store);
                        }
                        PatchKind::Draw { region, pattern } => {
                            let a = Self::mem_addr_in(
                                &prog.regions,
                                &mut self.cursors,
                                &mut self.rng,
                                region,
                                pattern,
                            );
                            v.draw(idx, a);
                        }
                        PatchKind::Trivial { ppm } => {
                            let t = self.rng.chance_ppm(ppm);
                            v.trivial(idx, t);
                        }
                    }
                }
                v.body_end(db, end);
                self.inst_idx = end;
                consumed += (end - start) as u64;
            }
            if consumed < max && end == len {
                // Halt, or a Return with an empty call stack, emits nothing
                // and ends the program.
                match Self::term_step(
                    prog,
                    &db.term,
                    db.term_pc,
                    db.bb_id,
                    &mut self.loop_counters,
                    &mut self.call_stack,
                    &mut self.rng,
                ) {
                    TermStep::Goto { next, inst } => {
                        v.term(inst);
                        self.block = next;
                        self.inst_idx = 0;
                        consumed += 1;
                    }
                    TermStep::Halt => self.done = true,
                }
            }
            if V::ONE_BLOCK {
                break;
            }
        }
        self.emitted += consumed;
        self.note_work(consumed);
        consumed
    }
}

/// What [`Interp::walk`] does with the instructions it passes: each stream
/// mode is one visitor over the same walk. Every hook defaults to doing
/// nothing, which is exactly fast-forward.
trait Visit {
    /// Return after one block chunk instead of filling `max` (the warm
    /// protocol's refill unit).
    const ONE_BLOCK: bool = false;
    /// Body instructions `start..end` of `db` (`end > start`) are walked
    /// next; their patches follow in program order.
    fn body(&mut self, _db: &DecodedBlock, _start: usize, _end: usize) {}
    /// Memory-class body instruction `idx` accesses `addr`.
    fn data(&mut self, _db: &DecodedBlock, _idx: usize, _addr: Addr, _store: bool) {}
    /// Non-memory body instruction `idx` drew address `addr`.
    fn draw(&mut self, _idx: usize, _addr: Addr) {}
    /// Body instruction `idx` drew triviality `t`.
    fn trivial(&mut self, _idx: usize, _t: bool) {}
    /// The body chunk ending before `end` is complete.
    fn body_end(&mut self, _db: &DecodedBlock, _end: usize) {}
    /// The block's terminator executed as `inst`.
    fn term(&mut self, _inst: DynInst) {}
}

/// Fast-forward: state advances, nothing is observed.
struct Skip;

impl Visit for Skip {}

/// Batched emission: each body chunk is one template copy with its
/// dynamic fields patched in place.
struct Emit<'a> {
    out: &'a mut Vec<DynInst>,
    /// `out` index of the current chunk's first instruction.
    base: usize,
    /// Body index of the current chunk's first instruction.
    start: usize,
}

impl Visit for Emit<'_> {
    fn body(&mut self, db: &DecodedBlock, start: usize, end: usize) {
        self.base = self.out.len();
        self.start = start;
        self.out.extend_from_slice(&db.template[start..end]);
    }
    fn data(&mut self, _db: &DecodedBlock, idx: usize, addr: Addr, _store: bool) {
        self.draw(idx, addr);
    }
    fn draw(&mut self, idx: usize, addr: Addr) {
        self.out[self.base + idx - self.start].mem_addr = addr;
    }
    fn trivial(&mut self, idx: usize, t: bool) {
        self.out[self.base + idx - self.start].trivial = t;
    }
    fn term(&mut self, inst: DynInst) {
        self.out.push(inst);
    }
}

/// Single-instruction emission ([`InstStream::next_inst`]); holds the
/// instruction once the walk has consumed one.
struct EmitOne(DynInst);

impl Visit for EmitOne {
    fn body(&mut self, db: &DecodedBlock, start: usize, _end: usize) {
        self.0 = db.template[start];
    }
    fn data(&mut self, _db: &DecodedBlock, _idx: usize, addr: Addr, _store: bool) {
        self.0.mem_addr = addr;
    }
    fn draw(&mut self, _idx: usize, addr: Addr) {
        self.0.mem_addr = addr;
    }
    fn trivial(&mut self, _idx: usize, t: bool) {
        self.0.trivial = t;
    }
    fn term(&mut self, inst: DynInst) {
        self.0 = inst;
    }
}

/// Functional warming: the instruction-line, data, and control events of
/// each instruction, pushed to a [`WarmSink`].
///
/// Body PCs are sequential (`base_pc + 4*i`), so instruction-line touches
/// are emitted *arithmetically*: one [`WarmSink::warm_line`] call at the
/// chunk's first pc, then one per line crossing, interleaved with the data
/// accesses in program order (L1I and L1D share the L2, so the relative
/// order of instruction-line and data events is part of the determinism
/// contract). The sink dedups against its own last-line state, so warming
/// resumed mid-line stays exact.
struct Warm<'a> {
    sink: &'a mut dyn WarmSink,
    line_mask: u64,
    line_bytes: u64,
    /// First pc whose line has not yet been offered to the sink; advanced
    /// to the next line *start* after each offer (starts are 4-aligned, so
    /// they are valid inst pcs whenever the sequential pc walk reaches
    /// them).
    pend_pc: Addr,
}

impl Warm<'_> {
    /// Offer every line from `pend_pc` through the one holding `pc`.
    #[inline]
    fn lines_through(&mut self, pc: Addr) {
        while self.pend_pc <= pc {
            self.sink.warm_line(self.pend_pc);
            self.pend_pc = (self.pend_pc & self.line_mask) + self.line_bytes;
        }
    }
}

impl Visit for Warm<'_> {
    const ONE_BLOCK: bool = true;
    fn body(&mut self, db: &DecodedBlock, start: usize, _end: usize) {
        self.pend_pc = db.template[start].pc;
    }
    fn data(&mut self, db: &DecodedBlock, idx: usize, addr: Addr, store: bool) {
        self.lines_through(db.template[idx].pc);
        self.sink.warm_data(addr, store);
    }
    fn body_end(&mut self, db: &DecodedBlock, end: usize) {
        // Lines of the trailing warming-silent instructions.
        self.lines_through(db.template[end - 1].pc);
    }
    fn term(&mut self, inst: DynInst) {
        self.sink.warm_line(inst.pc);
        self.sink.warm_control(inst);
    }
}

impl InstStream for Interp<'_> {
    #[inline]
    fn next_inst(&mut self) -> Option<DynInst> {
        let mut one = EmitOne(DynInst::int_alu(0));
        (self.walk(&mut one, 1) == 1).then_some(one.0)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.prog.dynamic_len_estimate)
    }

    /// Fast-forward whole basic blocks at a time, replaying only the patch
    /// lane (the stateful instructions) instead of scanning each body.
    fn skip_n(&mut self, n: u64) -> u64 {
        self.walk(&mut Skip, n)
    }

    /// Batched emission for the pipeline's fetch-ahead decode buffer: whole
    /// basic-block bodies at a time, paying block/terminator dispatch once
    /// per block instead of once per instruction.
    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let mut emit = Emit {
            out,
            base: 0,
            start: 0,
        };
        self.walk(&mut emit, max as u64) as usize
    }

    /// Batched functional warming: one decoded block per call, walking only
    /// its patch lane instead of materializing a [`DynInst`] per
    /// instruction (see [`Warm`] for the event order).
    fn warm_block(&mut self, sink: &mut dyn WarmSink, line_mask: u64, max: u64) -> u64 {
        let mut warm = Warm {
            sink,
            line_mask,
            // line_mask = !(line_bytes - 1), so this recovers line_bytes.
            line_bytes: !line_mask + 1,
            pend_pc: 0,
        };
        self.walk(&mut warm, max)
    }
}

impl sim_core::checkpoint::Checkpointable for Interp<'_> {
    type State = InterpState;

    fn checkpoint(&self) -> InterpState {
        self.snapshot()
    }

    fn restore(&mut self, state: &InterpState) {
        Interp::restore(self, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BasicBlock, Region, StaticInst, CODE_BASE, DATA_BASE};
    use crate::program::{MemRef, Terminator};

    fn looped(trips: u32) -> Program {
        Program {
            name: "loop".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![
                        StaticInst::alu(OpClass::IntAlu, 1, 1, 2),
                        StaticInst::alu(OpClass::IntAlu, 2, 1, 2),
                    ],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 1,
                        loop_slot: 0,
                        trips,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 1,
            seed: 1,
            dynamic_len_estimate: 3 * trips as u64,
        }
    }

    fn drain(p: &Program) -> Vec<DynInst> {
        let mut it = Interp::new(p);
        let mut v = Vec::new();
        while let Some(i) = it.next_inst() {
            v.push(i);
        }
        v
    }

    #[test]
    fn loop_executes_exactly_trips_times() {
        let p = looped(5);
        let insts = drain(&p);
        // 5 iterations x (2 alu + 1 branch) = 15 dynamic instructions.
        assert_eq!(insts.len(), 15);
        let branches: Vec<&DynInst> = insts.iter().filter(|i| i.op == OpClass::Branch).collect();
        assert_eq!(branches.len(), 5);
        assert!(branches[..4].iter().all(|b| b.taken), "back edges taken");
        assert!(!branches[4].taken, "final iteration exits");
    }

    #[test]
    fn stream_is_deterministic() {
        let p = looped(100);
        assert_eq!(drain(&p), drain(&p));
    }

    #[test]
    fn pcs_are_sequential_within_block() {
        let p = looped(1);
        let insts = drain(&p);
        assert_eq!(insts[0].pc, CODE_BASE);
        assert_eq!(insts[1].pc, CODE_BASE + 4);
        assert_eq!(insts[2].pc, CODE_BASE + 8);
    }

    #[test]
    fn bb_ids_match_blocks() {
        let p = looped(2);
        for i in drain(&p) {
            assert_eq!(i.bb_id, 0, "all body instructions are in block 0");
        }
    }

    fn mem_program(pattern: MemPattern, region_size: u64, accesses: u32) -> Program {
        Program {
            name: "mem".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![StaticInst::load(5, 5, MemRef { region: 0, pattern })],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 1,
                        loop_slot: 0,
                        trips: accesses,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![Region {
                name: "data".into(),
                base: DATA_BASE,
                size: region_size,
            }],
            loop_slots: 1,
            seed: 7,
            dynamic_len_estimate: 2 * accesses as u64,
        }
    }

    #[test]
    fn stride_pattern_walks_sequentially_and_wraps() {
        let p = mem_program(MemPattern::Stride { step: 64 }, 256, 8);
        let addrs: Vec<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        let expect: Vec<u64> = (0..8).map(|i| DATA_BASE + (i * 64) % 256).collect();
        assert_eq!(addrs, expect);
    }

    #[test]
    fn random_pattern_stays_in_region() {
        let p = mem_program(MemPattern::Random, 4096, 1000);
        for i in drain(&p) {
            if i.op == OpClass::Load {
                assert!(i.mem_addr >= DATA_BASE && i.mem_addr < DATA_BASE + 4096);
                assert_eq!(i.mem_addr % 8, 0, "8-byte aligned");
            }
        }
    }

    #[test]
    fn chase_pattern_is_line_granular_and_deterministic() {
        let p = mem_program(MemPattern::Chase, 1 << 20, 500);
        let a1: Vec<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        let a2: Vec<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        assert_eq!(a1, a2);
        for &a in &a1 {
            assert_eq!((a - DATA_BASE) % 64, 0, "line aligned");
        }
        // The walk should visit many distinct lines.
        let distinct: std::collections::HashSet<u64> = a1.iter().copied().collect();
        assert!(
            distinct.len() > 300,
            "only {} distinct nodes",
            distinct.len()
        );
    }

    #[test]
    fn call_and_return_traverse_the_stack() {
        let p = Program {
            name: "call".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::Call { callee: 2, ret: 1 },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Halt,
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![StaticInst::alu(OpClass::IntAlu, 1, 1, 1)],
                    term: Terminator::Return,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 0,
            seed: 3,
            dynamic_len_estimate: 4,
        };
        let insts = drain(&p);
        let ops: Vec<OpClass> = insts.iter().map(|i| i.op).collect();
        assert_eq!(
            ops,
            vec![OpClass::Call, OpClass::IntAlu, OpClass::Return],
            "call, callee body, return"
        );
        assert_eq!(insts[0].next_pc, CODE_BASE + 0x200);
        assert_eq!(insts[2].next_pc, CODE_BASE + 0x100);
    }

    #[test]
    fn cond_prob_respects_probability() {
        let p = Program {
            name: "prob".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::CondProb {
                        taken_ppm: 250_000,
                        taken: 1,
                        not_taken: 1,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 2,
                        loop_slot: 0,
                        trips: 20_000,
                    },
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 1,
            seed: 11,
            dynamic_len_estimate: 40_000,
        };
        let insts = drain(&p);
        let cond: Vec<&DynInst> = insts
            .iter()
            .filter(|i| i.op == OpClass::Branch && i.pc == CODE_BASE)
            .collect();
        let taken = cond.iter().filter(|i| i.taken).count();
        let frac = taken as f64 / cond.len() as f64;
        assert!(
            (0.22..0.28).contains(&frac),
            "taken fraction {frac} should be ~0.25"
        );
    }

    #[test]
    fn switch_terminator_visits_all_targets() {
        let p = Program {
            name: "switch".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::Switch {
                        targets: vec![1, 2, 3],
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 4,
                        loop_slot: 0,
                        trips: 3000,
                    },
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 4,
                        loop_slot: 1,
                        trips: 3000,
                    },
                },
                BasicBlock {
                    id: 3,
                    base_pc: CODE_BASE + 0x300,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 4,
                        loop_slot: 2,
                        trips: 3000,
                    },
                },
                BasicBlock {
                    id: 4,
                    base_pc: CODE_BASE + 0x400,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 3,
            seed: 77,
            dynamic_len_estimate: 10_000,
        };
        let insts = drain(&p);
        let switches: Vec<&DynInst> = insts
            .iter()
            .filter(|i| i.op == OpClass::IndirectJump)
            .collect();
        assert!(switches.len() > 100, "switch executed many times");
        let mut seen = std::collections::HashSet::new();
        for s in &switches {
            seen.insert(s.next_pc);
        }
        assert_eq!(seen.len(), 3, "all three switch targets are visited");
    }

    #[test]
    fn cond_periodic_is_taken_exactly_every_period() {
        let p = Program {
            name: "periodic".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::CondPeriodic {
                        period: 4,
                        loop_slot: 0,
                        taken: 1,
                        not_taken: 1,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 2,
                        loop_slot: 1,
                        trips: 40,
                    },
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 2,
            seed: 5,
            dynamic_len_estimate: 100,
        };
        let insts = drain(&p);
        let outcomes: Vec<bool> = insts
            .iter()
            .filter(|i| i.op == OpClass::Branch && i.pc == CODE_BASE)
            .map(|i| i.taken)
            .collect();
        assert_eq!(outcomes.len(), 40);
        for (i, &t) in outcomes.iter().enumerate() {
            assert_eq!(t, (i + 1) % 4 == 0, "outcome {i}");
        }
    }

    #[test]
    fn fixed_pattern_hits_one_address() {
        let p = mem_program(MemPattern::Fixed { offset: 128 }, 4096, 20);
        let addrs: std::collections::HashSet<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        assert_eq!(addrs.len(), 1);
        assert!(addrs.contains(&(DATA_BASE + 128)));
    }

    #[test]
    fn emitted_counter_tracks_stream() {
        let p = looped(10);
        let mut it = Interp::new(&p);
        for _ in 0..7 {
            it.next_inst();
        }
        assert_eq!(it.emitted(), 7);
        assert_eq!(InstStream::len_hint(&it), Some(30));
    }

    #[test]
    fn skip_n_past_end_reports_actual_count() {
        let p = looped(10); // 30 dynamic instructions
        let mut it = Interp::new(&p);
        assert_eq!(it.skip_n(1_000), 30);
        assert!(it.is_done());
        assert_eq!(it.emitted(), 30);
        assert_eq!(it.skip_n(5), 0);
    }

    #[test]
    fn halted_stream_stays_halted() {
        let p = looped(1);
        let mut it = Interp::new(&p);
        while it.next_inst().is_some() {}
        assert!(it.is_done());
        assert!(it.next_inst().is_none());
        assert!(it.next_inst().is_none());
    }

    #[test]
    fn snapshot_resume_is_stream_exact_across_suite() {
        // The architectural-checkpoint contract: an interpreter resumed from
        // a snapshot at position K produces the same remainder as the one
        // that executed to K — for every suite benchmark, at several
        // positions, including mid-basic-block ones.
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            for k in [0u64, 3, 513, 2_041] {
                let mut live = Interp::new(&p);
                live.skip_n(k);
                let state = live.snapshot();
                assert_eq!(state.emitted(), live.emitted(), "{}", b.name);

                let mut resumed = Interp::resume(&p, &state);
                assert_eq!(resumed.emitted(), live.emitted(), "{}", b.name);
                for i in 0..1_500 {
                    assert_eq!(
                        resumed.next_inst(),
                        live.next_inst(),
                        "{}: divergence {} insts after resuming at {}",
                        b.name,
                        i,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn restore_rewinds_an_advanced_interpreter() {
        let p = looped(200); // 600 dynamic instructions
        let mut it = Interp::new(&p);
        it.skip_n(100);
        let state = it.snapshot();
        let expected: Vec<_> = (0..50).map(|_| it.next_inst()).collect();
        it.skip_n(300);
        it.restore(&state);
        assert_eq!(it.emitted(), 100);
        let replayed: Vec<_> = (0..50).map(|_| it.next_inst()).collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn interp_state_bytes_roundtrip_across_suite() {
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            let mut it = Interp::new(&p);
            it.skip_n(2_500);
            let state = it.snapshot();
            let bytes = state.to_bytes();
            let decoded = InterpState::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, state, "{}", b.name);
            assert_eq!(decoded.to_bytes(), bytes, "{}: re-encode", b.name);
            // The decoded state drives an identical remainder.
            let mut resumed = Interp::resume(&p, &decoded);
            for _ in 0..500 {
                assert_eq!(resumed.next_inst(), it.next_inst(), "{}", b.name);
            }
        }
    }

    #[test]
    fn interp_state_from_bytes_rejects_malformed_payloads() {
        let p = looped(50);
        let mut it = Interp::new(&p);
        it.skip_n(30);
        let bytes = it.snapshot().to_bytes();
        assert!(InterpState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(7);
        assert!(InterpState::from_bytes(&longer).is_err());
    }

    #[test]
    #[should_panic(expected = "different program")]
    fn restore_rejects_foreign_program_state() {
        let p = looped(10);
        let q = looped(11);
        let state = Interp::new(&p).snapshot();
        Interp::new(&q).restore(&state);
    }

    /// The scalar per-instruction interpreter: the oracle every walker mode
    /// must reproduce. It reads the static program directly (no trace
    /// cache) and advances the same interpreter state one instruction at a
    /// time.
    fn ref_next(it: &mut Interp) -> Option<DynInst> {
        if it.done {
            return None;
        }
        let prog = it.prog;
        let blk = &prog.blocks[it.block as usize];
        let inst = if it.inst_idx < blk.insts.len() {
            let si = blk.insts[it.inst_idx];
            let pc = blk.base_pc + 4 * it.inst_idx as u64;
            it.inst_idx += 1;
            let mem_addr = match si.mem {
                Some(m) => Interp::mem_addr_in(
                    &prog.regions,
                    &mut it.cursors,
                    &mut it.rng,
                    m.region,
                    m.pattern,
                ),
                None => 0,
            };
            let trivial = si.trivial_ppm != 0 && it.rng.chance_ppm(si.trivial_ppm);
            Some(DynInst {
                pc,
                op: si.op,
                srcs: si.srcs,
                dest: si.dest,
                mem_addr,
                taken: false,
                next_pc: pc + 4,
                trivial,
                bb_id: blk.id,
            })
        } else {
            ref_terminator(it)
        };
        if inst.is_some() {
            it.emitted += 1;
            it.note_work(1);
        }
        inst
    }

    /// Emit the terminator of the current block and advance control flow
    /// (the oracle's half of [`Interp::term_step`]).
    fn ref_terminator(it: &mut Interp) -> Option<DynInst> {
        let prog = it.prog;
        let blk = &prog.blocks[it.block as usize];
        let (op, taken, next) = match &blk.term {
            Terminator::Loop {
                body,
                exit,
                loop_slot,
                trips,
            } => {
                let c = &mut it.loop_counters[*loop_slot as usize];
                *c += 1;
                if *c < *trips {
                    (OpClass::Branch, true, *body)
                } else {
                    *c = 0;
                    (OpClass::Branch, false, *exit)
                }
            }
            Terminator::CondProb {
                taken_ppm,
                taken,
                not_taken,
            } => {
                let t = it.rng.chance_ppm(*taken_ppm);
                (OpClass::Branch, t, if t { *taken } else { *not_taken })
            }
            Terminator::CondPeriodic {
                period,
                loop_slot,
                taken,
                not_taken,
            } => {
                let c = &mut it.loop_counters[*loop_slot as usize];
                *c += 1;
                let t = (*c).is_multiple_of(*period);
                (OpClass::Branch, t, if t { *taken } else { *not_taken })
            }
            Terminator::Jump { target } => (OpClass::Jump, true, *target),
            Terminator::Call { callee, ret } => {
                it.call_stack.push(*ret);
                (OpClass::Call, true, *callee)
            }
            Terminator::Return => match it.call_stack.pop() {
                Some(next) => (OpClass::Return, true, next),
                // Return with an empty stack ends the program.
                None => {
                    it.done = true;
                    return None;
                }
            },
            Terminator::Switch { targets } => {
                let pick = it.rng.below(targets.len() as u64) as usize;
                (OpClass::IndirectJump, true, targets[pick])
            }
            Terminator::Halt => {
                it.done = true;
                return None;
            }
        };
        it.block = next;
        it.inst_idx = 0;
        Some(DynInst {
            pc: blk.term_pc(),
            op,
            srcs: [0, 0],
            dest: 0,
            mem_addr: 0,
            taken,
            next_pc: prog.blocks[next as usize].base_pc,
            trivial: false,
            bb_id: blk.id,
        })
    }

    /// Recording [`WarmSink`] that mimics the engine sink's last-line dedup,
    /// so the walker's elided `warm_line` calls and the oracle's
    /// call-per-instruction reduce to comparable event sequences.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum WarmEv {
        Line(u64),
        Data(u64, bool),
        Ctrl(DynInst),
    }

    struct WarmRec {
        line_mask: u64,
        last_line: u64,
        events: Vec<WarmEv>,
    }

    impl WarmRec {
        fn new(line_mask: u64) -> Self {
            WarmRec {
                line_mask,
                last_line: u64::MAX,
                events: Vec::new(),
            }
        }
    }

    impl WarmSink for WarmRec {
        fn warm_line(&mut self, pc: Addr) {
            let line = pc & self.line_mask;
            if line != self.last_line {
                self.last_line = line;
                self.events.push(WarmEv::Line(line));
            }
        }
        fn warm_data(&mut self, addr: Addr, store: bool) {
            self.events.push(WarmEv::Data(addr, store));
        }
        fn warm_control(&mut self, inst: DynInst) {
            self.events.push(WarmEv::Ctrl(inst));
        }
    }

    const LINE_MASK: u64 = !(64u64 - 1);

    #[derive(Debug, Clone, Copy)]
    enum Mode {
        Emit,
        Skip,
        Warm,
    }

    /// What one drive observed: instructions consumed, instructions
    /// emitted, and warm events.
    type Observed = (u64, Vec<DynInst>, Vec<WarmEv>);

    /// Drive the walker in `mode` for up to `n` instructions, `chunk` per
    /// call.
    fn drive_walker(it: &mut Interp, mode: Mode, chunk: u64, n: u64) -> Observed {
        let mut insts = Vec::new();
        let mut rec = WarmRec::new(LINE_MASK);
        let mut consumed = 0;
        while consumed < n {
            let c = chunk.min(n - consumed);
            let got = match mode {
                Mode::Emit => {
                    let before = insts.len();
                    let got = it.next_block(&mut insts, c as usize);
                    assert_eq!(insts.len() - before, got, "next_block count");
                    got as u64
                }
                Mode::Skip => it.skip_n(c),
                Mode::Warm => it.warm_block(&mut rec, LINE_MASK, c),
            };
            if got == 0 {
                break;
            }
            consumed += got;
        }
        (consumed, insts, rec.events)
    }

    /// The oracle's side of [`drive_walker`]: one instruction at a time,
    /// warming exactly as the engine's scalar warm step classifies.
    fn drive_oracle(it: &mut Interp, mode: Mode, n: u64) -> Observed {
        let mut insts = Vec::new();
        let mut rec = WarmRec::new(LINE_MASK);
        let mut consumed = 0;
        while consumed < n {
            let Some(i) = ref_next(it) else {
                break;
            };
            consumed += 1;
            match mode {
                Mode::Emit => insts.push(i),
                Mode::Skip => {}
                Mode::Warm => {
                    rec.warm_line(i.pc);
                    if i.op.is_control() {
                        rec.warm_control(i);
                    } else if i.op.is_mem() {
                        rec.warm_data(i.mem_addr, i.op == OpClass::Store);
                    }
                }
            }
        }
        (consumed, insts, rec.events)
    }

    /// Every walker mode at every chunk size, from each start position,
    /// against the oracle: same instructions, same warm events, same final
    /// [`InterpState`]. Returns how many starts landed mid-block.
    fn assert_walker_matches_oracle(p: &Program, starts: &[u64], n: u64) -> usize {
        let mut mid_block = 0;
        for &start in starts {
            for chunk in [1u64, 7, 64, 1024, u64::MAX] {
                for mode in [Mode::Emit, Mode::Skip, Mode::Warm] {
                    let mut walker = Interp::new(p);
                    let mut oracle = Interp::new(p);
                    for _ in 0..start {
                        ref_next(&mut walker);
                        ref_next(&mut oracle);
                    }
                    if walker.inst_idx > 0 && matches!(mode, Mode::Emit) && chunk == 1 {
                        mid_block += 1;
                    }
                    let got = drive_walker(&mut walker, mode, chunk, n);
                    let want = drive_oracle(&mut oracle, mode, n);
                    let what = format!("{}: {mode:?} from {start} in chunks of {chunk}", p.name);
                    assert_eq!(got.0, want.0, "{what}: consumed");
                    assert!(got.1 == want.1, "{what}: emitted instructions diverge");
                    assert!(got.2 == want.2, "{what}: warm events diverge");
                    assert_eq!(walker.snapshot(), oracle.snapshot(), "{what}: final state");
                }
            }
        }
        mid_block
    }

    #[test]
    fn walker_matches_oracle_on_every_suite_program() {
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            let mid = assert_walker_matches_oracle(&p, &[0, 3, 513, 2_041], 10_000);
            assert!(mid > 0, "{}: no start landed mid-block", b.name);
        }
    }

    /// A seeded random CFG program from [`crate::builder`]: random phase
    /// count, block sizes (empty bodies included), op mixes, memory
    /// patterns, branch styles, switches, calls, triviality, and code
    /// padding. Some non-memory ops also get a `MemRef` (an address draw
    /// with no data access), which the builder itself never emits.
    fn random_program(seed: u64) -> Program {
        use crate::builder::ProgramBuilder;
        use crate::builder::{BranchStyle, InputAdjust, MemUse, OpMix, PhaseSpec};
        let mut r = SplitMix64::new(seed);
        let mut below = |n: u64| r.below(n);
        let mut b = ProgramBuilder::new(&format!("random-{seed}"), InputAdjust::REFERENCE);
        let regions: Vec<u16> = (0..1 + below(3))
            .map(|i| b.region(&format!("r{i}"), 1 << (8 + below(14))))
            .collect();
        b.set_code_pad(4 * below(24));
        if below(2) == 0 {
            b.set_locality(regions[0], below(600_000) as u32);
        }
        let phases: Vec<PhaseSpec> = (0..1 + below(3))
            .map(|_| {
                let lo = below(8) as u32;
                PhaseSpec {
                    name: "random",
                    segments: 1 + below(12) as u32,
                    insts_per_block: (lo, lo + below(16) as u32),
                    mix: OpMix {
                        load: below(30) as u32,
                        store: below(15) as u32,
                        fp_alu: below(10) as u32,
                        fp_mult: below(5) as u32,
                        fp_div: below(3) as u32,
                        int_mult: below(5) as u32,
                        int_div: below(3) as u32,
                    },
                    mem: (0..1 + below(3))
                        .map(|_| MemUse {
                            region: regions[below(regions.len() as u64) as usize],
                            pattern: match below(4) {
                                0 => MemPattern::Stride {
                                    step: 8 << below(5),
                                },
                                1 => MemPattern::Random,
                                2 => MemPattern::Chase,
                                _ => MemPattern::Fixed {
                                    offset: below(1 << 16),
                                },
                            },
                            weight: 1 + below(4) as u32,
                        })
                        .collect(),
                    branches: match below(4) {
                        0 => BranchStyle::Predictable,
                        1 => BranchStyle::Biased,
                        2 => BranchStyle::Random,
                        _ => BranchStyle::Periodic(2 + below(6) as u32),
                    },
                    switch_targets: [0, 0, 2, 3, 5][below(5) as usize],
                    call_pml: below(400) as u32,
                    trivial_ppm: below(600_000) as u32,
                    target_insts: 2_000 + below(20_000),
                    scale_with_input: true,
                }
            })
            .collect();
        let mut p = b.build_phases(&phases);
        for blk in &mut p.blocks {
            for si in &mut blk.insts {
                if !si.op.is_mem() && below(10) == 0 {
                    si.mem = Some(MemRef {
                        region: regions[0],
                        pattern: MemPattern::Random,
                    });
                }
            }
        }
        p.validate().unwrap();
        p
    }

    #[test]
    fn walker_matches_oracle_on_random_cfg_programs() {
        // Long enough windows that every program runs to its end, so the
        // Halt path and the post-halt state are compared too.
        for seed in 0..16u64 {
            let p = random_program(0x5eed_0000 + seed);
            assert_walker_matches_oracle(&p, &[0, 5], 1_000_000);
            let mut it = Interp::new(&p);
            assert!(
                it.skip_n(u64::MAX) > 1_000,
                "{}: nontrivial program",
                p.name
            );
            assert!(it.is_done(), "{}: ran to completion", p.name);
        }
    }

    #[test]
    fn warm_block_reports_functional_work_once() {
        use sim_core::checkpoint::thread_functional_insts;
        let p = looped(5_000); // 15_000 dynamic instructions
        let before = thread_functional_insts();
        {
            let mut it = Interp::new(&p);
            let line_mask = !(64u64 - 1);
            let mut rec = WarmRec::new(line_mask);
            let mut consumed = 0;
            while consumed < 9_100 {
                let got = it.warm_block(&mut rec, line_mask, 9_100 - consumed);
                if got == 0 {
                    break;
                }
                consumed += got;
            }
            assert_eq!(consumed, 9_100);
        } // drop flushes the sub-batch remainder
        assert_eq!(thread_functional_insts() - before, 9_100);
    }

    #[test]
    fn interpreting_reports_functional_work_but_replay_paths_do_not() {
        // The process-wide counter is polluted by parallel test threads, so
        // assert through the race-free thread-local view: all interpreters
        // here live and die on this thread.
        use sim_core::checkpoint::thread_functional_insts;
        let p = looped(5_000); // 15_000 dynamic instructions
        let before = thread_functional_insts();
        {
            let mut it = Interp::new(&p);
            it.skip_n(9_000); // crosses the batch-flush threshold
            for _ in 0..100 {
                it.next_inst();
            }
            // Cloning must not double-count the clone source's work.
            let copy = it.clone();
            drop(copy);
        } // drop flushes the sub-batch remainder
        assert_eq!(thread_functional_insts() - before, 9_100);

        // Snapshot/restore themselves perform no functional execution.
        let mid = thread_functional_insts();
        let mut it = Interp::new(&p);
        it.skip_n(1_000);
        let state = it.snapshot();
        it.restore(&state);
        let resumed = Interp::resume(&p, &state);
        drop(resumed);
        drop(it);
        assert_eq!(thread_functional_insts() - mid, 1_000);
    }
}
