//! The top-level [`Simulator`]: a [`crate::pipeline::Core`] plus the three
//! execution modes every simulation technique is built from.
//!
//! | Mode | State updated | Time modeled | Used by |
//! |------|--------------|--------------|---------|
//! | [`Simulator::skip`] | none (cold) | no | FF X (+ Run Z) |
//! | [`Simulator::warm_functional`] | caches + predictor | no | SMARTS functional warming |
//! | [`Simulator::run_detailed`] | everything | yes | all measurement windows |

use crate::branch::BranchPredictor;
use crate::config::SimConfig;
use crate::isa::{Addr, DynInst, InstStream, WarmSink};
use crate::memory::MemoryHierarchy;
use crate::pipeline::Core;
use crate::state::ByteWriter;
use crate::stats::SimStats;

/// A complete simulated machine with warm-up/fast-forward support.
///
/// `Clone` produces a deep machine snapshot (caches, predictor, in-flight
/// pipeline state, counters) — the basis of warm-state checkpoints (see
/// [`crate::checkpoint`]).
#[derive(Debug, Clone)]
pub struct Simulator {
    core: Core,
    warm_last_line: u64,
}

/// Control ops the warm path defers per predictor flush. The predictor
/// shares no state with the caches or TLBs, so batching control ops while
/// preserving their relative order is transition-exact (both entry points
/// run the same `process_in` body; see `BranchPredictor::process_batch`).
const CTRL_BATCH: usize = 64;

/// The machine half of the block-warming protocol: applies the lane events
/// a stream's [`InstStream::warm_block`] emits, with the memory/predictor
/// borrows hoisted once per warm call instead of once per instruction.
struct WarmBatchSink<'a> {
    mem: &'a mut MemoryHierarchy,
    bpred: &'a mut BranchPredictor,
    warm_last_line: &'a mut u64,
    line_mask: u64,
    ctrl: Vec<DynInst>,
}

impl WarmBatchSink<'_> {
    #[inline]
    fn flush_ctrl(&mut self) {
        if !self.ctrl.is_empty() {
            self.bpred.process_batch(&self.ctrl);
            self.ctrl.clear();
        }
    }
}

impl WarmSink for WarmBatchSink<'_> {
    #[inline]
    fn warm_line(&mut self, pc: Addr) {
        let line = pc & self.line_mask;
        if line != *self.warm_last_line {
            *self.warm_last_line = line;
            self.mem.warm_inst(pc);
        }
    }

    #[inline]
    fn warm_data(&mut self, addr: Addr, store: bool) {
        self.mem.warm_data(addr, store);
    }

    #[inline]
    fn warm_control(&mut self, inst: DynInst) {
        self.ctrl.push(inst);
        if self.ctrl.len() >= CTRL_BATCH {
            self.flush_ctrl();
        }
    }
}

impl Simulator {
    /// Build a simulator for `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
            core: Core::new(cfg),
            warm_last_line: u64::MAX,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        self.core.config()
    }

    /// Fast-forward `n` instructions *without* updating any machine state
    /// (the paper's FF X: "after fast-forwarding, the processor and memory
    /// states are cold"). Returns how many instructions were consumed.
    ///
    /// Generic over the stream so concrete streams (e.g. the `workloads`
    /// interpreter) skip through their [`InstStream::skip_n`] fast path with
    /// no per-instruction virtual dispatch; `&mut dyn InstStream` works too.
    /// Instructions already pulled into the decode buffer logically precede
    /// the stream's next output, so they are skipped (discarded) first —
    /// the machine's logical position stays exactly where an unbuffered
    /// run's would be.
    pub fn skip<S: InstStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> u64 {
        let mut span = sim_obs::trace::span(sim_obs::Phase::FastForward);
        let mut consumed = 0;
        while consumed < n && self.core.pop_unfetched().is_some() {
            consumed += 1;
        }
        consumed += stream.skip_n(n - consumed);
        span.add_insts(consumed);
        consumed
    }

    /// Functionally warm `n` instructions: branch predictor, caches, and
    /// TLBs are updated, but no cycles are simulated (SMARTS's functional
    /// warming). Returns how many instructions were consumed.
    ///
    /// Generic for the same reason as [`Simulator::skip`]: callers holding a
    /// concrete stream get a monomorphized loop with no per-instruction
    /// virtual dispatch. Every instruction goes through one
    /// [`WarmSink`]: buffered-but-unfetched instructions in the decode
    /// buffer drain first — they are exactly the instructions an unbuffered
    /// machine would have pulled from the stream at this point, so warmed
    /// state is batch-independent — and the rest arrive one stream chunk at
    /// a time through [`InstStream::warm_block`].
    pub fn warm_functional<S: InstStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> u64 {
        let mut span = sim_obs::trace::span(sim_obs::Phase::FunctionalWarm);
        let line_mask = !(self.core.config().l1i.line_bytes - 1);
        let (buffered, mem, bpred) = self.core.take_unfetched_for_warming(n);
        let mut sink = WarmBatchSink {
            mem,
            bpred,
            warm_last_line: &mut self.warm_last_line,
            line_mask,
            ctrl: Vec::with_capacity(CTRL_BATCH),
        };
        // The buffered instructions are already materialized: the default
        // `warm_block` classifies them one at a time into the same sink.
        let mut consumed = buffered.iter().copied().warm_block(&mut sink, line_mask, n);
        let mut refills = 0u64;
        while consumed < n {
            let got = stream.warm_block(&mut sink, line_mask, n - consumed);
            if got == 0 {
                break;
            }
            refills += 1;
            consumed += got;
        }
        sink.flush_ctrl();
        self.flush_warm_metrics(refills);
        span.add_insts(consumed);
        consumed
    }

    /// Drain the host-side warming observability counters into the metrics
    /// registry. Keys are only created when an optimization actually fired.
    fn flush_warm_metrics(&mut self, refills: u64) {
        if refills > 0 {
            sim_obs::metrics::counter("warm.block_refills").add(refills);
        }
        let filter_hits = self.core.mem.take_filter_hits();
        if filter_hits > 0 {
            sim_obs::metrics::counter("warm.filter_hits").add(filter_hits);
        }
    }

    /// Detailed cycle-level simulation of up to `n` further committed
    /// instructions. Returns how many instructions committed.
    ///
    /// Generic so callers holding a concrete stream (the `workloads`
    /// interpreter, trace readers) get a fully monomorphized hot loop —
    /// fetch inlines the stream's batched [`InstStream::next_block`] with no
    /// per-instruction virtual dispatch; `&mut dyn InstStream` works too.
    pub fn run_detailed<S: InstStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> u64 {
        self.core.run_detailed(stream, n)
    }

    /// Number of instructions sitting in the core's fetch-ahead decode
    /// buffer: pulled from the stream but not yet fetched, logically
    /// *preceding* whatever the stream yields next.
    pub fn unfetched_len(&self) -> usize {
        self.core.unfetched_len()
    }

    /// Remove and return the buffered-but-unfetched instructions (oldest
    /// first). Callers that abandon this machine but keep reading the
    /// stream must carry these to stay position-exact (see
    /// [`Simulator::preload_unfetched`]).
    pub fn take_unfetched(&mut self) -> Vec<DynInst> {
        self.core.take_unfetched()
    }

    /// Seed the decode buffer with instructions that logically precede the
    /// stream's next output (from [`Simulator::take_unfetched`] on another
    /// machine driving the same stream).
    ///
    /// # Panics
    /// Panics if the buffer is not empty.
    pub fn preload_unfetched(&mut self, insts: Vec<DynInst>) {
        self.core.preload_unfetched(insts)
    }

    /// Reset all measurement counters, keeping machine state (the warm-up /
    /// measurement boundary: "tracking the simulation statistics for only
    /// the last Z million").
    pub fn reset_stats(&mut self) {
        self.core.reset_counters();
        self.core.mem.reset_stats();
        self.core.bpred.reset_stats();
    }

    /// Snapshot every statistic for the current measurement window.
    pub fn stats(&self) -> SimStats {
        SimStats {
            core: *self.core.counters(),
            branch: *self.core.bpred.stats(),
            l1i: *self.core.mem.l1i.stats(),
            l1d: *self.core.mem.l1d.stats(),
            l2: *self.core.mem.l2.stats(),
            mem: *self.core.mem.stats(),
            dtlb: self.core.mem.dtlb.counts(),
            itlb: self.core.mem.itlb.counts(),
        }
    }

    /// Direct access to the core (warming experiments, tests).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable access to the core (advanced scenarios, tests).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Serialize every piece of dynamic machine state (caches, predictor,
    /// in-flight pipeline, counters) to a deterministic byte payload.
    ///
    /// Two machines that would behave identically encode to identical bytes,
    /// so tests compare payloads as a whole-machine equality check.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.warm_last_line);
        self.core.save_state(&mut w);
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DynInst, OpClass};

    /// Loads over a 64-line region with a small code loop.
    fn loads(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::int_alu(0x1000 + 4 * (i as u64 % 32))
                    .with_op(OpClass::Load)
                    .with_dest(4)
                    .with_mem_addr(0x100_000 + (i as u64 % 64) * 64)
            })
            .collect()
    }

    #[test]
    fn skip_consumes_but_leaves_state_cold() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(1_000);
        let mut s = insts.clone().into_iter();
        assert_eq!(sim.skip(&mut s, 500), 500);
        // Nothing was warmed.
        assert_eq!(sim.stats().l1d.accesses, 0);
        assert!(!sim.core().mem.l1d.probe(0x100_000));
    }

    #[test]
    fn warm_functional_fills_caches_without_cycles() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(1_000);
        let mut s = insts.into_iter();
        assert_eq!(sim.warm_functional(&mut s, 1_000), 1_000);
        assert_eq!(sim.stats().core.cycles, 0, "warming costs no cycles");
        assert!(sim.core().mem.l1d.probe(0x100_000), "cache state is warm");
    }

    #[test]
    fn warmed_measurement_has_higher_hit_rate_than_cold() {
        let run = |warm: bool| {
            let mut sim = Simulator::new(SimConfig::default());
            let insts = loads(4_000);
            let mut s = insts.into_iter();
            if warm {
                sim.warm_functional(&mut s, 2_000);
            } else {
                sim.skip(&mut s, 2_000);
            }
            sim.reset_stats();
            sim.run_detailed(&mut s, 2_000);
            sim.stats().l1d.hit_rate()
        };
        let cold = run(false);
        let warm = run(true);
        assert!(
            warm > cold,
            "functional warming should raise the L1D hit rate ({warm} vs {cold})"
        );
        assert!(warm > 0.97, "64-line working set should be fully warm");
    }

    #[test]
    fn reset_stats_defines_measurement_boundary() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(2_000);
        let mut s = insts.into_iter();
        sim.run_detailed(&mut s, 1_000);
        let warmup_stats = sim.stats();
        assert!(warmup_stats.core.committed >= 1_000);
        sim.reset_stats();
        sim.run_detailed(&mut s, 500);
        let measured = sim.stats();
        assert!(measured.core.committed >= 500);
        assert!(measured.core.committed < 1_000);
        assert!(
            measured.l1d.hit_rate() > warmup_stats.l1d.hit_rate(),
            "second window runs on a warm cache"
        );
    }

    #[test]
    fn stream_end_terminates_detailed_run() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(100);
        let mut s = insts.into_iter();
        let committed = sim.run_detailed(&mut s, 10_000);
        assert_eq!(committed, 100);
    }

    #[test]
    fn skip_reports_short_streams() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(10);
        let mut s = insts.into_iter();
        assert_eq!(sim.skip(&mut s, 100), 10);
    }

    /// A mixed stream (loads, stores, branches, long arithmetic) that keeps
    /// every structure busy, so a mid-stream snapshot has non-trivial
    /// in-flight state.
    fn mixed(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                let pc = 0x1000 + 4 * (i as u64 % 128);
                match i % 7 {
                    0 => DynInst::int_alu(pc)
                        .with_op(OpClass::Load)
                        .with_srcs(2, 0)
                        .with_dest(4)
                        .with_mem_addr(0x200_000 + (i as u64 % 512) * 8),
                    1 => DynInst::int_alu(pc)
                        .with_op(OpClass::Store)
                        .with_srcs(4, 5)
                        .with_mem_addr(0x300_000 + (i as u64 % 256) * 8),
                    2 => DynInst::int_alu(pc)
                        .with_op(OpClass::Branch)
                        .with_srcs(4, 0)
                        .with_branch(i % 3 == 0, pc + if i % 3 == 0 { 64 } else { 4 }),
                    3 => DynInst::int_alu(pc)
                        .with_op(OpClass::IntMult)
                        .with_srcs(4, 6)
                        .with_dest(6),
                    _ => DynInst::int_alu(pc).with_srcs(6, 4).with_dest(5),
                }
                .with_bb((i % 16) as u32)
            })
            .collect()
    }

    #[test]
    fn decode_buffer_capacity_never_changes_results() {
        // Refills are free in simulated time: a one-instruction decode
        // buffer and the production one must simulate, warm, and skip
        // identically, down to the serialized machine state.
        let insts = mixed(12_000);
        let run = |fetch_batch: usize| {
            let mut sim = Simulator {
                core: Core::with_fetch_batch(SimConfig::table3(2), fetch_batch),
                warm_last_line: u64::MAX,
            };
            let mut s = insts.clone().into_iter();
            sim.run_detailed(&mut s, 2_500);
            // Leaves a partly consumed decode buffer for warm and skip to
            // drain first.
            sim.warm_functional(&mut s, 1_500);
            sim.run_detailed(&mut s, 2_000);
            sim.skip(&mut s, 777);
            sim.run_detailed(&mut s, u64::MAX);
            (sim.stats(), sim.save_state())
        };
        let (stats_1, bytes_1) = run(1);
        let (stats_64, bytes_64) = run(64);
        assert_eq!(stats_1, stats_64);
        assert!(bytes_1 == bytes_64, "save_state bytes differ");
        assert_eq!(stats_64.core.committed, 12_000 - 1_500 - 777);
    }
}
