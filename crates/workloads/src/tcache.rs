//! The pre-decoded basic-block trace cache.
//!
//! Interpreting a basic block re-derives, for every dynamic instruction,
//! fields that are pure functions of the *static* program: the PC, opcode,
//! register indices, fall-through `next_pc`, and block id. The trace cache
//! decodes each block once into a dense [`DynInst`] template lane plus one
//! patch lane naming the instructions whose dynamic fields (effective
//! address, triviality draw) must still be computed per execution. Every
//! stream mode of [`crate::Interp`] walks this one record: emission copies
//! the template and applies the patches, fast-forward replays *only* the
//! patches, and functional warming reads the patches' pre-classified warm
//! effects.
//!
//! Every cursor, PRNG draw, and loop counter advances in exactly the order
//! the scalar per-instruction interpreter (kept as the test oracle)
//! advances them. The cache is also config-independent: records depend
//! only on the [`Program`], never on a machine configuration. Occupancy is
//! bounded by the program's static block count, so nothing is ever evicted.

use crate::program::{MemPattern, Program, Terminator};
use sim_core::isa::{Addr, DynInst, OpClass};

/// A dynamic field of one body instruction that must be recomputed per
/// execution, in program order ([`DecodedBlock::patches`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Patch {
    /// Index of the instruction within the block body.
    pub idx: u32,
    /// Which field to patch, and what warming does with it.
    pub kind: PatchKind,
}

/// The dynamic field a [`Patch`] recomputes. [`Program::validate`]
/// guarantees bodies hold no control ops and that every memory-class op
/// carries a `MemRef`, so three kinds cover every stateful instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PatchKind {
    /// Memory-class op: draw the effective address (advancing the region
    /// cursor / PRNG) and, when warming, touch the data side.
    Data {
        /// Region index ([`Program::regions`]).
        region: u16,
        /// Access pattern.
        pattern: MemPattern,
        /// Whether the access is a store.
        store: bool,
    },
    /// A `MemRef` on a non-memory op: the address is drawn and emitted,
    /// but warming observes no data access (the scalar warm step only
    /// touches the hierarchy for memory-class ops).
    Draw {
        /// Region index ([`Program::regions`]).
        region: u16,
        /// Access pattern.
        pattern: MemPattern,
    },
    /// Triviality draw (`trivial_ppm != 0`): one PRNG chance per instance.
    Trivial {
        /// Probability in parts per million.
        ppm: u32,
    },
}

/// A block's terminator with its successor PCs pre-resolved, so emitting it
/// never chases `blocks[next].base_pc` through the program structure.
#[derive(Debug, Clone)]
pub(crate) enum DecodedTerm {
    /// See [`Terminator::Loop`].
    Loop {
        body: u32,
        exit: u32,
        loop_slot: u16,
        trips: u32,
        body_pc: Addr,
        exit_pc: Addr,
    },
    /// See [`Terminator::CondProb`].
    CondProb {
        taken_ppm: u32,
        taken: u32,
        not_taken: u32,
        taken_pc: Addr,
        not_taken_pc: Addr,
    },
    /// See [`Terminator::CondPeriodic`].
    CondPeriodic {
        period: u32,
        loop_slot: u16,
        taken: u32,
        not_taken: u32,
        taken_pc: Addr,
        not_taken_pc: Addr,
    },
    /// See [`Terminator::Jump`].
    Jump { target: u32, target_pc: Addr },
    /// See [`Terminator::Call`].
    Call {
        callee: u32,
        ret: u32,
        callee_pc: Addr,
    },
    /// See [`Terminator::Return`] (the target PC comes from the call stack).
    Return,
    /// See [`Terminator::Switch`]: `(block, base_pc)` per target.
    Switch { targets: Box<[(u32, Addr)]> },
    /// See [`Terminator::Halt`].
    Halt,
}

/// One basic block, decoded: a ready-to-copy [`DynInst`] lane for the body,
/// the patch lane for its dynamic fields, and the pre-resolved terminator.
#[derive(Debug, Clone)]
pub(crate) struct DecodedBlock {
    /// Fully-formed body instructions with static fields resolved
    /// (`mem_addr = 0`, `trivial = false` until patched).
    pub template: Box<[DynInst]>,
    /// Dynamic-field patches, sorted by instruction index; for one
    /// instruction the address patch precedes the triviality patch (the
    /// PRNG draw order of per-instruction emission).
    pub patches: Box<[Patch]>,
    /// `patch_start[i]` is the number of patches of body instructions
    /// before `i` (`template.len() + 1` entries), so the patches of body
    /// chunk `start..end` are `patches[patch_start[start]..patch_start[end]]`.
    pub patch_start: Box<[u32]>,
    /// Terminator with successor PCs resolved.
    pub term: DecodedTerm,
    /// PC of the terminator instruction.
    pub term_pc: Addr,
    /// The block's static id ([`crate::BasicBlock::id`]).
    pub bb_id: u32,
}

impl DecodedBlock {
    fn decode(prog: &Program, block: u32) -> DecodedBlock {
        let blk = &prog.blocks[block as usize];
        let mut template = Vec::with_capacity(blk.insts.len());
        let mut patches = Vec::new();
        let mut patch_start = Vec::with_capacity(blk.insts.len() + 1);
        for (i, si) in blk.insts.iter().enumerate() {
            patch_start.push(patches.len() as u32);
            let pc = blk.base_pc + 4 * i as u64;
            debug_assert!(!si.op.is_control(), "control op in a block body");
            let idx = i as u32;
            if let Some(m) = si.mem {
                let (region, pattern) = (m.region, m.pattern);
                let kind = if si.op.is_mem() {
                    PatchKind::Data {
                        region,
                        pattern,
                        store: si.op == OpClass::Store,
                    }
                } else {
                    PatchKind::Draw { region, pattern }
                };
                patches.push(Patch { idx, kind });
            }
            if si.trivial_ppm != 0 {
                patches.push(Patch {
                    idx,
                    kind: PatchKind::Trivial {
                        ppm: si.trivial_ppm,
                    },
                });
            }
            template.push(DynInst {
                pc,
                op: si.op,
                srcs: si.srcs,
                dest: si.dest,
                mem_addr: 0,
                taken: false,
                next_pc: pc + 4,
                trivial: false,
                bb_id: blk.id,
            });
        }
        patch_start.push(patches.len() as u32);
        let pc_of = |b: u32| prog.blocks[b as usize].base_pc;
        let term = match &blk.term {
            Terminator::Loop {
                body,
                exit,
                loop_slot,
                trips,
            } => DecodedTerm::Loop {
                body: *body,
                exit: *exit,
                loop_slot: *loop_slot,
                trips: *trips,
                body_pc: pc_of(*body),
                exit_pc: pc_of(*exit),
            },
            Terminator::CondProb {
                taken_ppm,
                taken,
                not_taken,
            } => DecodedTerm::CondProb {
                taken_ppm: *taken_ppm,
                taken: *taken,
                not_taken: *not_taken,
                taken_pc: pc_of(*taken),
                not_taken_pc: pc_of(*not_taken),
            },
            Terminator::CondPeriodic {
                period,
                loop_slot,
                taken,
                not_taken,
            } => DecodedTerm::CondPeriodic {
                period: *period,
                loop_slot: *loop_slot,
                taken: *taken,
                not_taken: *not_taken,
                taken_pc: pc_of(*taken),
                not_taken_pc: pc_of(*not_taken),
            },
            Terminator::Jump { target } => DecodedTerm::Jump {
                target: *target,
                target_pc: pc_of(*target),
            },
            Terminator::Call { callee, ret } => DecodedTerm::Call {
                callee: *callee,
                ret: *ret,
                callee_pc: pc_of(*callee),
            },
            Terminator::Return => DecodedTerm::Return,
            Terminator::Switch { targets } => DecodedTerm::Switch {
                targets: targets.iter().map(|&t| (t, pc_of(t))).collect(),
            },
            Terminator::Halt => DecodedTerm::Halt,
        };
        DecodedBlock {
            template: template.into_boxed_slice(),
            patches: patches.into_boxed_slice(),
            patch_start: patch_start.into_boxed_slice(),
            term,
            term_pc: blk.term_pc(),
            bb_id: blk.id,
        }
    }

    /// Approximate heap bytes this decoded block occupies.
    fn bytes(&self) -> usize {
        let switch_bytes = match &self.term {
            DecodedTerm::Switch { targets } => std::mem::size_of_val(targets.as_ref()),
            _ => 0,
        };
        std::mem::size_of::<DecodedBlock>()
            + std::mem::size_of_val(self.template.as_ref())
            + std::mem::size_of_val(self.patches.as_ref())
            + std::mem::size_of_val(self.patch_start.as_ref())
            + switch_bytes
    }
}

/// One execution's pre-decoded block cache (see the module docs).
///
/// Owned exclusively by an [`crate::Interp`], so the hot serve path takes no
/// locks; a cloned interpreter starts with a cold cache (decoding is a
/// once-per-static-block cost, negligible next to re-execution counts).
#[derive(Debug)]
pub(crate) struct TraceCache {
    /// Decoded blocks, indexed by [`crate::BlockId`]; `None` = not decoded yet.
    blocks: Vec<Option<DecodedBlock>>,
    /// Total bytes of cached decoded state.
    bytes: usize,
    /// Lookups served from an already-decoded block (flushed on drop).
    hits: u64,
    /// Lookups that decoded the block (flushed on drop).
    misses: u64,
    /// Distribution of miss-path probe costs (decode nanoseconds per
    /// block), recorded only while tracing is enabled: the hit path stays
    /// untimed (it is the thing being protected) and the disabled path
    /// pays the usual single relaxed load. Flushed with the tallies into
    /// `hist.tcache.probe_ns`.
    probe_ns: sim_obs::LocalHist,
}

impl TraceCache {
    /// An empty cache with one slot per static block of `prog`.
    pub fn new(prog: &Program) -> TraceCache {
        TraceCache {
            blocks: vec![None; prog.blocks.len()],
            bytes: 0,
            hits: 0,
            misses: 0,
            probe_ns: sim_obs::LocalHist::new(),
        }
    }

    /// The decoded form of `block`, decoding it on first use.
    #[inline]
    pub fn get_or_decode(&mut self, prog: &Program, block: u32) -> &DecodedBlock {
        if self.blocks[block as usize].is_some() {
            self.hits += 1;
        } else {
            self.decode(prog, block);
        }
        self.blocks[block as usize]
            .as_ref()
            .expect("block was decoded above")
    }

    /// The miss path of [`TraceCache::get_or_decode`], kept out of line so
    /// the hit path stays small where it inlines into the walk.
    #[cold]
    #[inline(never)]
    fn decode(&mut self, prog: &Program, block: u32) {
        self.misses += 1;
        let timed = sim_obs::trace::enabled().then(std::time::Instant::now);
        let db = DecodedBlock::decode(prog, block);
        if let Some(t) = timed {
            self.probe_ns.record(t.elapsed().as_nanos() as u64);
        }
        self.bytes += db.bytes();
        self.blocks[block as usize] = Some(db);
    }

    /// Flush the local tallies into the sim-obs metrics registry
    /// (`pipeline.trace_cache.{hit,miss,bytes}`); called once per
    /// interpreter lifetime so the serve path never touches the registry.
    pub fn flush_metrics(&mut self) {
        if self.hits == 0 && self.misses == 0 {
            return;
        }
        sim_obs::metrics::counter("pipeline.trace_cache.hit").add(self.hits);
        sim_obs::metrics::counter("pipeline.trace_cache.miss").add(self.misses);
        sim_obs::metrics::gauge("pipeline.trace_cache.bytes").set(self.bytes as u64);
        self.hits = 0;
        self.misses = 0;
        if !self.probe_ns.is_empty() {
            self.probe_ns
                .merge_into(&sim_obs::metrics::histogram("hist.tcache.probe_ns"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog() -> Program {
        crate::benchmark("gzip")
            .unwrap()
            .program_scaled(crate::InputSet::Reference, 0.01)
            .unwrap()
    }

    #[test]
    fn decode_matches_block_shape() {
        let p = prog();
        for (i, blk) in p.blocks.iter().enumerate() {
            let db = DecodedBlock::decode(&p, i as u32);
            assert_eq!(db.template.len(), blk.insts.len());
            assert_eq!(db.term_pc, blk.term_pc());
            let n_mem = blk.insts.iter().filter(|si| si.mem.is_some()).count();
            let n_triv = blk.insts.iter().filter(|si| si.trivial_ppm != 0).count();
            assert_eq!(db.patches.len(), n_mem + n_triv);
            // Patches are sorted by instruction index (stable: address
            // draw before triviality draw for one instruction).
            for w in db.patches.windows(2) {
                assert!(w[0].idx <= w[1].idx);
                if w[0].idx == w[1].idx {
                    assert!(
                        !matches!(w[0].kind, PatchKind::Trivial { .. })
                            && matches!(w[1].kind, PatchKind::Trivial { .. }),
                        "same-instruction patches keep PRNG draw order"
                    );
                }
            }
            // Address patches split into Data (memory ops, store bit
            // resolved) vs Draw (address draw on a non-memory op).
            for patch in db.patches.iter() {
                let si = &blk.insts[patch.idx as usize];
                match patch.kind {
                    PatchKind::Data { region, store, .. } => {
                        assert_eq!(Some(region), si.mem.map(|m| m.region));
                        assert!(si.op.is_mem());
                        assert_eq!(store, si.op == OpClass::Store);
                    }
                    PatchKind::Draw { region, .. } => {
                        assert_eq!(Some(region), si.mem.map(|m| m.region));
                        assert!(!si.op.is_mem(), "Draw is for refs on non-memory ops");
                    }
                    PatchKind::Trivial { ppm } => assert_eq!(ppm, si.trivial_ppm),
                }
            }
            for j in 0..=blk.insts.len() {
                let before = db.patches.iter().filter(|p| (p.idx as usize) < j).count();
                assert_eq!(db.patch_start[j] as usize, before, "patch_start[{j}]");
            }
            for (j, inst) in db.template.iter().enumerate() {
                assert_eq!(inst.pc, blk.base_pc + 4 * j as u64);
                assert_eq!(inst.next_pc, inst.pc + 4);
                assert_eq!(inst.op, blk.insts[j].op);
                assert_eq!(inst.bb_id, blk.id);
            }
        }
    }

    #[test]
    fn warm_rerun_hit_ratio_is_high() {
        // The CI floor: on re-execution every block is already decoded, so
        // hits dominate misses by the blocks' dynamic repetition counts.
        let p = prog();
        let mut tc = TraceCache::new(&p);
        for _ in 0..2 {
            for b in 0..p.blocks.len() as u32 {
                for _ in 0..10 {
                    tc.get_or_decode(&p, b);
                }
            }
        }
        assert_eq!(tc.misses, p.blocks.len() as u64, "each block decodes once");
        let ratio = tc.hits as f64 / (tc.hits + tc.misses) as f64;
        assert!(ratio >= 0.9, "hit ratio {ratio} below the 90% floor");
    }
}
