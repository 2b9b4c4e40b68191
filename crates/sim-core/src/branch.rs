//! Branch prediction: a combined (bimodal + gshare with meta chooser)
//! direction predictor, a set-associative branch target buffer, and a return
//! address stack — the "Combined, NK BHT entries" predictor of Table 3.
//!
//! The timing model is trace-driven, so prediction and update happen together
//! when a branch is fetched; a misprediction is *charged* when the branch
//! resolves rather than by simulating wrong-path instructions.

use crate::config::BranchConfig;
use crate::isa::{Addr, DynInst, OpClass};
use crate::state::ByteWriter;

/// Saturating 2-bit counter helpers.
#[inline]
fn ctr_update(ctr: &mut u8, taken: bool) {
    if taken {
        if *ctr < 3 {
            *ctr += 1;
        }
    } else if *ctr > 0 {
        *ctr -= 1;
    }
}

#[inline]
fn ctr_taken(ctr: u8) -> bool {
    ctr >= 2
}

/// Branch predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches seen.
    pub cond_branches: u64,
    /// Conditional branches whose direction was mispredicted.
    pub cond_mispredicts: u64,
    /// Control transfers (any kind) whose *target* was unavailable or wrong.
    pub target_mispredicts: u64,
    /// All control-transfer instructions observed.
    pub control_insts: u64,
    /// Returns correctly predicted by the RAS.
    pub ras_correct: u64,
}

impl BranchStats {
    /// Direction prediction accuracy over conditional branches, in `[0, 1]`.
    /// Returns `1.0` when no conditional branches were observed.
    pub fn direction_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            1.0 - self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Total mispredictions that redirect the front end.
    pub fn total_mispredicts(&self) -> u64 {
        self.cond_mispredicts + self.target_mispredicts
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    tag: u64,
    target: Addr,
    valid: bool,
    stamp: u64,
}

/// The combined branch predictor with BTB and RAS.
///
/// ```
/// use sim_core::branch::BranchPredictor;
/// use sim_core::config::BranchConfig;
/// use sim_core::isa::{DynInst, OpClass};
///
/// let mut bp = BranchPredictor::new(BranchConfig::combined(4096));
/// let loop_branch = DynInst::int_alu(0x1000)
///     .with_op(OpClass::Branch)
///     .with_branch(true, 0x0f00);
/// for _ in 0..100 {
///     bp.process(&loop_branch);
/// }
/// assert!(bp.stats().direction_accuracy() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    meta: Vec<u8>,
    history: u64,
    history_mask: u64,
    btb: Vec<BtbEntry>,
    btb_sets: usize,
    btb_stamp: u64,
    ras: Vec<Addr>,
    stats: BranchStats,
}

/// Outcome of predicting one control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Whether the front end would have followed the correct path.
    pub correct: bool,
    /// Whether the *direction* was predicted taken (conditional branches).
    pub pred_taken: bool,
}

impl BranchPredictor {
    /// Build a predictor.
    ///
    /// # Panics
    /// Panics if the configuration fails [`BranchConfig::validate`].
    pub fn new(cfg: BranchConfig) -> Self {
        cfg.validate()
            .expect("invalid branch predictor configuration");
        BranchPredictor {
            bimodal: vec![1; cfg.bimodal_entries as usize], // weakly not-taken
            gshare: vec![1; cfg.gshare_entries as usize],
            meta: vec![2; cfg.meta_entries as usize], // slight gshare bias
            history: 0,
            history_mask: (1u64 << cfg.history_bits.max(1)) - 1,
            btb: vec![BtbEntry::default(); cfg.btb_entries as usize],
            btb_sets: (cfg.btb_entries / cfg.btb_assoc) as usize,
            btb_stamp: 0,
            ras: Vec::with_capacity(cfg.ras_entries as usize),
            stats: BranchStats::default(),
            cfg,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Reset statistics, keeping predictor state (warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = BranchStats::default();
    }

    /// Cold-start the predictor: clear all tables, history, RAS, and stats.
    pub fn reset_state(&mut self) {
        for c in &mut self.bimodal {
            *c = 1;
        }
        for c in &mut self.gshare {
            *c = 1;
        }
        for c in &mut self.meta {
            *c = 2;
        }
        self.history = 0;
        for e in &mut self.btb {
            *e = BtbEntry::default();
        }
        self.btb_stamp = 0;
        self.ras.clear();
        self.stats = BranchStats::default();
    }

    /// Predict-and-update for one control-transfer instruction.
    ///
    /// Returns whether the front end followed the correct path; the caller
    /// charges the misprediction penalty at branch resolution.
    ///
    /// # Panics
    /// Panics (in debug builds) if `inst` is not a control instruction.
    pub fn process(&mut self, inst: &DynInst) -> Prediction {
        let BranchPredictor {
            cfg,
            bimodal,
            gshare,
            meta,
            history,
            history_mask,
            btb,
            btb_sets,
            btb_stamp,
            ras,
            stats,
        } = self;
        process_in(
            cfg,
            bimodal,
            gshare,
            meta,
            history,
            *history_mask,
            btb,
            *btb_sets,
            btb_stamp,
            ras,
            stats,
            inst,
        )
    }

    /// Predict-and-update for a batch of control-transfer instructions, in
    /// order. State transitions and statistics are identical to calling
    /// [`BranchPredictor::process`] once per instruction — the batch form
    /// exists so warming loops pay the field borrows (table slices, masks)
    /// once per batch instead of once per branch.
    pub fn process_batch(&mut self, insts: &[DynInst]) {
        let BranchPredictor {
            cfg,
            bimodal,
            gshare,
            meta,
            history,
            history_mask,
            btb,
            btb_sets,
            btb_stamp,
            ras,
            stats,
        } = self;
        for inst in insts {
            process_in(
                cfg,
                bimodal,
                gshare,
                meta,
                history,
                *history_mask,
                btb,
                *btb_sets,
                btb_stamp,
                ras,
                stats,
                inst,
            );
        }
    }
}

/// [`BranchPredictor::process`] with every field borrowed individually, so
/// [`BranchPredictor::process_batch`] can hoist the borrows out of its loop.
/// This is THE predictor transition function — both entry points delegate
/// here, which is what guarantees the batch path cannot drift from the
/// scalar one.
#[allow(clippy::too_many_arguments)]
#[inline]
fn process_in(
    cfg: &BranchConfig,
    bimodal: &mut [u8],
    gshare: &mut [u8],
    meta: &mut [u8],
    history: &mut u64,
    history_mask: u64,
    btb: &mut [BtbEntry],
    btb_sets: usize,
    btb_stamp: &mut u64,
    ras: &mut Vec<Addr>,
    stats: &mut BranchStats,
    inst: &DynInst,
) -> Prediction {
    debug_assert!(inst.op.is_control(), "process() requires a control inst");
    stats.control_insts += 1;
    let btb_assoc = cfg.btb_assoc as usize;
    match inst.op {
        OpClass::Branch => {
            stats.cond_branches += 1;
            let bi = ((inst.pc >> 2) as usize) & (bimodal.len() - 1);
            let gi = (((inst.pc >> 2) ^ (*history & history_mask)) as usize) & (gshare.len() - 1);
            let mi = ((inst.pc >> 2) as usize) & (meta.len() - 1);

            let bim_pred = ctr_taken(bimodal[bi]);
            let gsh_pred = ctr_taken(gshare[gi]);
            let use_gshare = ctr_taken(meta[mi]);
            let pred_taken = if use_gshare { gsh_pred } else { bim_pred };

            // Direction correct but target unknown (BTB miss on a
            // predicted-taken branch) also redirects the front end.
            let mut correct = pred_taken == inst.taken;
            if correct && inst.taken {
                let tgt = btb_lookup_in(btb, btb_sets, btb_assoc, btb_stamp, inst.pc);
                if tgt != Some(inst.next_pc) {
                    correct = false;
                    stats.target_mispredicts += 1;
                }
            }
            if pred_taken != inst.taken {
                stats.cond_mispredicts += 1;
            }

            // Updates: both components train; the meta chooser trains toward
            // the component that was right when they disagree.
            if bim_pred != gsh_pred {
                ctr_update(&mut meta[mi], gsh_pred == inst.taken);
            }
            ctr_update(&mut bimodal[bi], inst.taken);
            ctr_update(&mut gshare[gi], inst.taken);
            *history = ((*history << 1) | u64::from(inst.taken)) & history_mask;
            if inst.taken {
                btb_update_in(btb, btb_sets, btb_assoc, btb_stamp, inst.pc, inst.next_pc);
            }

            Prediction {
                correct,
                pred_taken,
            }
        }
        OpClass::Jump => {
            // Direct target, always taken: the front end decodes the
            // target; never a misprediction.
            Prediction {
                correct: true,
                pred_taken: true,
            }
        }
        OpClass::Call => {
            // Push the return address (the instruction after the call).
            if ras.len() == cfg.ras_entries as usize {
                ras.remove(0);
            }
            ras.push(inst.pc + 4);
            Prediction {
                correct: true,
                pred_taken: true,
            }
        }
        OpClass::Return => {
            let predicted = ras.pop();
            let correct = predicted == Some(inst.next_pc);
            if correct {
                stats.ras_correct += 1;
            } else {
                stats.target_mispredicts += 1;
            }
            Prediction {
                correct,
                pred_taken: true,
            }
        }
        OpClass::IndirectJump => {
            let predicted = btb_lookup_in(btb, btb_sets, btb_assoc, btb_stamp, inst.pc);
            let correct = predicted == Some(inst.next_pc);
            if !correct {
                stats.target_mispredicts += 1;
            }
            btb_update_in(btb, btb_sets, btb_assoc, btb_stamp, inst.pc, inst.next_pc);
            Prediction {
                correct,
                pred_taken: true,
            }
        }
        _ => unreachable!("non-control op in BranchPredictor::process"),
    }
}

fn btb_lookup_in(
    btb: &mut [BtbEntry],
    btb_sets: usize,
    btb_assoc: usize,
    btb_stamp: &mut u64,
    pc: Addr,
) -> Option<Addr> {
    let set = ((pc >> 2) as usize % btb_sets) * btb_assoc;
    let ways = &mut btb[set..set + btb_assoc];
    *btb_stamp += 1;
    for e in ways.iter_mut() {
        if e.valid && e.tag == pc {
            e.stamp = *btb_stamp;
            return Some(e.target);
        }
    }
    None
}

fn btb_update_in(
    btb: &mut [BtbEntry],
    btb_sets: usize,
    btb_assoc: usize,
    btb_stamp: &mut u64,
    pc: Addr,
    target: Addr,
) {
    let set = ((pc >> 2) as usize % btb_sets) * btb_assoc;
    let ways = &mut btb[set..set + btb_assoc];
    *btb_stamp += 1;
    if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == pc) {
        e.target = target;
        e.stamp = *btb_stamp;
        return;
    }
    let victim = ways
        .iter_mut()
        .min_by_key(|e| if e.valid { e.stamp } else { 0 })
        .expect("BTB associativity is nonzero");
    *victim = BtbEntry {
        tag: pc,
        target,
        valid: true,
        stamp: *btb_stamp,
    };
}

// State encoding (see `crate::state`): table sizes and masks come from the
// config; only learned contents are written.
impl BranchPredictor {
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        for table in [&self.bimodal, &self.gshare, &self.meta] {
            w.put_usize(table.len());
            for &c in table {
                w.put_u8(c);
            }
        }
        w.put_u64(self.history);
        w.put_usize(self.btb.len());
        for e in &self.btb {
            w.put_u64(e.tag);
            w.put_u64(e.target);
            w.put_bool(e.valid);
            w.put_u64(e.stamp);
        }
        w.put_u64(self.btb_stamp);
        w.put_usize(self.ras.len());
        for &a in &self.ras {
            w.put_u64(a);
        }
        w.put_u64(self.stats.cond_branches);
        w.put_u64(self.stats.cond_mispredicts);
        w.put_u64(self.stats.target_mispredicts);
        w.put_u64(self.stats.control_insts);
        w.put_u64(self.stats.ras_correct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(BranchConfig::combined(1024))
    }

    fn branch(pc: Addr, taken: bool) -> DynInst {
        DynInst::int_alu(pc)
            .with_op(OpClass::Branch)
            .with_branch(taken, if taken { pc + 0x100 } else { pc + 4 })
    }

    #[test]
    fn always_taken_branch_becomes_predictable() {
        let mut p = predictor();
        for _ in 0..100 {
            p.process(&branch(0x1000, true));
        }
        let s = p.stats();
        assert!(
            s.direction_accuracy() > 0.9,
            "accuracy {} too low for an always-taken branch",
            s.direction_accuracy()
        );
    }

    #[test]
    fn alternating_branch_is_learned_by_gshare() {
        let mut p = predictor();
        let mut taken = false;
        // Warm up, then measure.
        for _ in 0..200 {
            p.process(&branch(0x2000, taken));
            taken = !taken;
        }
        p.reset_stats();
        for _ in 0..200 {
            p.process(&branch(0x2000, taken));
            taken = !taken;
        }
        assert!(
            p.stats().direction_accuracy() > 0.95,
            "gshare should learn a period-2 pattern, got {}",
            p.stats().direction_accuracy()
        );
    }

    #[test]
    fn process_batch_matches_scalar_processing_exactly() {
        // A control-op mix covering every class, with a pseudo-random but
        // deterministic direction pattern so every predictor table trains.
        let mut insts = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + (i % 37) * 4;
            insts.push(match i % 7 {
                0 => DynInst::int_alu(pc)
                    .with_op(OpClass::Call)
                    .with_branch(true, 0x8000),
                1 => DynInst::int_alu(0x8000 + 32)
                    .with_op(OpClass::Return)
                    .with_branch(true, pc + 4),
                2 => DynInst::int_alu(pc)
                    .with_op(OpClass::IndirectJump)
                    .with_branch(true, 0x9000 + (x & 0xff0)),
                3 => DynInst::int_alu(pc)
                    .with_op(OpClass::Jump)
                    .with_branch(true, pc + 0x40),
                _ => branch(pc, (x >> 33) & 1 == 1),
            });
        }
        let mut scalar = predictor();
        for inst in &insts {
            scalar.process(inst);
        }
        // Batched in uneven chunk sizes, including single-element batches.
        let mut batched = predictor();
        let mut rest = insts.as_slice();
        for chunk in [1usize, 3, 64, 7, 128, 1, 396] {
            let take = chunk.min(rest.len());
            batched.process_batch(&rest[..take]);
            rest = &rest[take..];
        }
        assert!(rest.is_empty());
        assert_eq!(scalar.stats(), batched.stats());
        let mut ws = ByteWriter::new();
        scalar.save_state(&mut ws);
        let mut wb = ByteWriter::new();
        batched.save_state(&mut wb);
        assert_eq!(
            ws.into_bytes(),
            wb.into_bytes(),
            "batched processing must leave bit-identical predictor state"
        );
    }

    #[test]
    fn random_branch_is_hard() {
        let mut p = predictor();
        // A pseudo-random but deterministic pattern.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.process(&branch(0x3000, (x >> 33) & 1 == 1));
        }
        let acc = p.stats().direction_accuracy();
        assert!(
            acc < 0.75,
            "random pattern should not be very predictable, got {acc}"
        );
    }

    #[test]
    fn call_return_pairs_hit_the_ras() {
        let mut p = predictor();
        for i in 0..50u64 {
            let call_pc = 0x4000 + i * 64;
            let callee = 0x8000;
            p.process(
                &DynInst::int_alu(call_pc)
                    .with_op(OpClass::Call)
                    .with_branch(true, callee),
            );
            p.process(
                &DynInst::int_alu(callee + 32)
                    .with_op(OpClass::Return)
                    .with_branch(true, call_pc + 4),
            );
        }
        assert_eq!(p.stats().ras_correct, 50);
        assert_eq!(p.stats().target_mispredicts, 0);
    }

    #[test]
    fn ras_overflow_loses_oldest_return() {
        let cfg = BranchConfig {
            ras_entries: 2,
            ..BranchConfig::combined(256)
        };
        let mut p = BranchPredictor::new(cfg);
        // Three nested calls overflow a 2-entry RAS.
        for i in 0..3u64 {
            p.process(
                &DynInst::int_alu(0x1000 + i * 4)
                    .with_op(OpClass::Call)
                    .with_branch(true, 0x9000 + i * 0x100),
            );
        }
        // Unwind: innermost two returns hit, outermost misses.
        let r3 = p.process(
            &DynInst::int_alu(0x9230)
                .with_op(OpClass::Return)
                .with_branch(true, 0x1008 + 4),
        );
        let r2 = p.process(
            &DynInst::int_alu(0x9130)
                .with_op(OpClass::Return)
                .with_branch(true, 0x1004 + 4),
        );
        let r1 = p.process(
            &DynInst::int_alu(0x9030)
                .with_op(OpClass::Return)
                .with_branch(true, 0x1000 + 4),
        );
        assert!(r3.correct && r2.correct);
        assert!(!r1.correct, "oldest return address was pushed out");
    }

    #[test]
    fn indirect_jump_trains_btb() {
        let mut p = predictor();
        let j = DynInst::int_alu(0x5000)
            .with_op(OpClass::IndirectJump)
            .with_branch(true, 0xa000);
        let first = p.process(&j);
        assert!(!first.correct, "cold BTB cannot know the target");
        let second = p.process(&j);
        assert!(second.correct, "BTB learned the target");
    }

    #[test]
    fn first_taken_branch_misses_btb_even_if_direction_is_right() {
        let mut p = predictor();
        let b = branch(0x6000, true);
        // Train the direction away from the default not-taken.
        p.process(&b);
        p.process(&b);
        p.reset_stats();
        // Now direction predicts taken and the BTB knows the target.
        let r = p.process(&b);
        assert!(r.correct);
        assert_eq!(p.stats().cond_mispredicts, 0);
    }

    #[test]
    fn reset_state_forgets_training() {
        let mut p = predictor();
        for _ in 0..100 {
            p.process(&branch(0x7000, true));
        }
        p.reset_state();
        let r = p.process(&branch(0x7000, true));
        assert!(!r.correct, "cold predictor defaults to not-taken");
    }

    #[test]
    fn direction_accuracy_empty_is_one() {
        let p = predictor();
        assert_eq!(p.stats().direction_accuracy(), 1.0);
    }

    #[test]
    fn jumps_and_calls_never_mispredict_direction() {
        let mut p = predictor();
        p.process(
            &DynInst::int_alu(0x100)
                .with_op(OpClass::Jump)
                .with_branch(true, 0x900),
        );
        assert_eq!(p.stats().cond_branches, 0);
        assert_eq!(p.stats().total_mispredicts(), 0);
    }
}
