//! Checkpoint support: snapshot/restore of simulation state plus the
//! process-wide functional-execution accounting that proves checkpoints
//! actually avoid work.
//!
//! Two kinds of state exist in a sampled simulation:
//!
//! - **Architectural stream state** — where the workload's instruction
//!   stream is positioned. This is configuration-*independent*: the stream
//!   at position *p* is a pure function of the program and *p*, so a single
//!   snapshot serves every machine configuration and every technique
//!   permutation that fast-forwards through the same prefix.
//! - **Microarchitectural machine state** — caches, predictor, pipeline.
//!   This is configuration-*dependent*; it can only be reused between runs
//!   that share a [`crate::SimConfig`].
//!
//! This module defines the [`Checkpointable`] trait stream snapshots
//! implement (a machine snapshot needs no trait: [`crate::Simulator`] is
//! `Clone`, so a deep copy *is* the snapshot), and hosts the global
//! counter of functionally executed instructions. Streams that *interpret*
//! (the `workloads` interpreter) report their work here; streams that
//! merely *replay* (a [`crate::trace::TraceReader`], a restored checkpoint)
//! do not — so the counter measures exactly the redundant functional
//! execution a checkpoint library eliminates, and a harness sweep run with
//! checkpoints enabled must show a strictly smaller total than the same
//! sweep without.

use std::sync::atomic::{AtomicU64, Ordering};

/// State that can be snapshotted and later restored exactly.
///
/// The contract is bit-exactness: after `restore`, the object must behave
/// identically to the moment `checkpoint` was taken — same stream remainder,
/// same statistics trajectory, same everything. Implementations back the
/// equivalence guarantees of the checkpoint library (a restored-then-run
/// window produces byte-identical results to a cold re-executed one).
pub trait Checkpointable {
    /// The owned snapshot type.
    type State;

    /// Capture the current state.
    fn checkpoint(&self) -> Self::State;

    /// Return to a previously captured state.
    fn restore(&mut self, state: &Self::State);
}

/// Total dynamic instructions produced by *functional interpretation*
/// process-wide (fast-forward, functional warming, and detailed runs all
/// count — they all pull freshly interpreted instructions). Restored
/// checkpoints and trace replays do not count.
static FUNCTIONAL_INSTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread mirror of [`FUNCTIONAL_INSTS`]. The process-wide counter is
    /// what harnesses report, but it is shared across worker threads; tests
    /// that need race-free exact deltas read the thread-local view instead.
    static THREAD_FUNCTIONAL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Record `n` freshly interpreted instructions. Interpreters batch their
/// updates (one atomic add per few thousand instructions), so this is cheap
/// to keep always-on.
pub fn record_functional(n: u64) {
    if n > 0 {
        FUNCTIONAL_INSTS.fetch_add(n, Ordering::Relaxed);
        THREAD_FUNCTIONAL.with(|c| c.set(c.get() + n));
    }
}

/// Instructions functionally interpreted by the *calling thread* since it
/// started. Unlike [`functional_insts`] this is immune to concurrent
/// recording from other threads, which makes it the right probe for exact
/// accounting assertions in tests.
pub fn thread_functional_insts() -> u64 {
    THREAD_FUNCTIONAL.with(|c| c.get())
}

/// Instructions functionally interpreted since process start (or the last
/// [`reset_functional_insts`]).
pub fn functional_insts() -> u64 {
    FUNCTIONAL_INSTS.load(Ordering::Relaxed)
}

/// Reset the functional-execution counter (tests and benchmark harnesses
/// that measure one sweep at a time).
pub fn reset_functional_insts() {
    FUNCTIONAL_INSTS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::isa::{DynInst, OpClass};

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
    fn counter_accumulates_and_resets() {
        // Other tests share the process-wide counter; assert deltas only.
        let before = functional_insts();
        record_functional(0);
        assert_eq!(functional_insts(), before, "zero is a no-op");
        record_functional(123);
        assert_eq!(functional_insts(), before + 123);
    }

    #[test]
    fn simulator_checkpoint_resumes_cycle_exact() {
        // A machine checkpoint must be paired with a stream snapshot taken
        // at the same instant (the core holds fetched-but-uncommitted
        // instructions, so the stream cursor is part of the state).
        let insts = loads(6_000);
        let cfg = SimConfig::table3(1);

        let mut cold = Simulator::new(cfg.clone());
        let mut s = insts.into_iter();
        cold.run_detailed(&mut s, 2_000);
        let cp = cold.clone();
        let mut tail = s.clone();
        cold.run_detailed(&mut s, 4_000);

        let mut warm = Simulator::new(cfg);
        warm.clone_from(&cp);
        warm.run_detailed(&mut tail, 4_000);

        assert_eq!(cold.stats(), warm.stats(), "restored run must be exact");
    }
}
