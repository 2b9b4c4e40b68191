//! Structured span tracing: per-phase wall-time, instruction, and byte
//! accounting with a thread-local run scope.
//!
//! A *span* covers one contiguous stretch of work in a named [`Phase`]
//! (fast-forward, warm-up, measurement, ...). Spans are guards: create one
//! with [`span`], optionally attach instruction/byte counts, and the
//! elapsed wall time is recorded when it drops. When tracing is disabled
//! (the default) a span is inert — creation is one relaxed atomic load and
//! drop does nothing, so instrumentation can live on hot paths.
//!
//! A *run scope* ([`run_begin`] / [`run_end`]) brackets one technique run
//! on the current thread: spans closed inside it accumulate into a per-run
//! phase breakdown, and reuse marks ([`mark_reuse`]) record which reuse
//! tier (run cache, warm checkpoint, trace replay, architectural
//! checkpoint) served part of the run. The runner turns the returned
//! [`RunTrace`] into a [`crate::ledger::RunRecord`].
//!
//! Independently of run scopes, every closed span also adds to
//! process-wide per-phase totals, exported through
//! [`crate::metrics::snapshot`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Whether spans record anything. Off by default; flipped on by the
/// harness when a ledger sink or `--metrics` is requested.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans currently record (one relaxed load; inline-friendly).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The named execution phases a simulation run is made of.
///
/// Names are static so span creation never allocates; [`Phase::name`] is
/// the string used in ledger records and metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Advancing the stream with cold machine state (FF X).
    FastForward = 0,
    /// Detailed warm-up whose statistics are discarded (WU Y, per-sample
    /// pipeline fill).
    WarmUp = 1,
    /// The measured detailed window.
    Measure = 2,
    /// Functional warming (caches and predictor updated, no timing).
    FunctionalWarm = 3,
    /// Restoring stored checkpoint state instead of executing.
    CheckpointRestore = 4,
    /// Run-cache key construction and lookup.
    CacheLookup = 5,
    /// BBV profiling (SimPoint's analysis pass).
    Profile = 6,
}

/// Number of phases (array sizing).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::FastForward,
        Phase::WarmUp,
        Phase::Measure,
        Phase::FunctionalWarm,
        Phase::CheckpointRestore,
        Phase::CacheLookup,
        Phase::Profile,
    ];

    /// The static name used in ledger records and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FastForward => "fast_forward",
            Phase::WarmUp => "warm_up",
            Phase::Measure => "measure",
            Phase::FunctionalWarm => "functional_warm",
            Phase::CheckpointRestore => "checkpoint_restore",
            Phase::CacheLookup => "cache_lookup",
            Phase::Profile => "profile",
        }
    }
}

/// Accumulated totals of one phase: wall time, instructions, bytes, and
/// the number of spans that contributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAcc {
    /// Wall-clock nanoseconds spent in the phase.
    pub ns: u64,
    /// Instructions processed (meaning depends on the phase: skipped,
    /// warmed, measured, profiled...).
    pub insts: u64,
    /// Bytes touched (checkpoint state restored, trace bytes replayed).
    pub bytes: u64,
    /// Spans closed in this phase.
    pub count: u64,
}

impl PhaseAcc {
    fn add(&mut self, ns: u64, insts: u64, bytes: u64) {
        self.ns += ns;
        self.insts += insts;
        self.bytes += bytes;
        self.count += 1;
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Which reuse tier served (part of) a run. Bit flags: a run can touch
/// several tiers; [`Reuse::dominant`] picks the strongest for the ledger's
/// one-word provenance field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Reuse {
    /// Architectural (interpreter-state) checkpoint restored.
    ArchCkpt = 1,
    /// Whole run served from the run cache.
    Cache = 2,
    /// State hydrated from the persistent artifact store (cross-process
    /// reuse). Outranks every in-memory tier: a run served this way was
    /// computed by *another* process, which is the interesting fact.
    StoreRestore = 4,
    /// Run executed as parallel interval shards (intra-run sharding).
    /// Weakest tier: sharding changes *where* the work ran, never what was
    /// reused, so any genuine reuse tier outranks it.
    Shard = 8,
}

/// Map a reuse bit set to the strongest provenance name. `0` is `"cold"`.
pub fn provenance(bits: u8) -> &'static str {
    if bits & Reuse::StoreRestore as u8 != 0 {
        "store-restore"
    } else if bits & Reuse::Cache as u8 != 0 {
        "cache"
    } else if bits & Reuse::ArchCkpt as u8 != 0 {
        "arch-ckpt"
    } else if bits & Reuse::Shard as u8 != 0 {
        "shard"
    } else {
        "cold"
    }
}

/// Per-phase process-wide totals (relaxed atomics; exact only when
/// quiescent, which is when they are reported).
struct GlobalPhase {
    ns: AtomicU64,
    insts: AtomicU64,
    bytes: AtomicU64,
    count: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // used only as array init
const GLOBAL_PHASE_INIT: GlobalPhase = GlobalPhase {
    ns: AtomicU64::new(0),
    insts: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    count: AtomicU64::new(0),
};

static GLOBAL_PHASES: [GlobalPhase; PHASE_COUNT] = [GLOBAL_PHASE_INIT; PHASE_COUNT];

/// Snapshot of the process-wide per-phase totals, in [`Phase::ALL`] order.
pub fn global_phase_totals() -> [PhaseAcc; PHASE_COUNT] {
    let mut out = [PhaseAcc::default(); PHASE_COUNT];
    for (acc, g) in out.iter_mut().zip(&GLOBAL_PHASES) {
        *acc = PhaseAcc {
            ns: g.ns.load(Ordering::Relaxed),
            insts: g.insts.load(Ordering::Relaxed),
            bytes: g.bytes.load(Ordering::Relaxed),
            count: g.count.load(Ordering::Relaxed),
        };
    }
    out
}

/// Reset the process-wide per-phase totals (tests, per-sweep reporting).
pub fn reset_global_phase_totals() {
    for g in &GLOBAL_PHASES {
        g.ns.store(0, Ordering::Relaxed);
        g.insts.store(0, Ordering::Relaxed);
        g.bytes.store(0, Ordering::Relaxed);
        g.count.store(0, Ordering::Relaxed);
    }
}

/// The thread-local state of one technique run being traced.
#[derive(Default)]
struct RunScope {
    /// Nesting depth; only the outermost scope collects.
    depth: u32,
    start: Option<Instant>,
    phases: [PhaseAcc; PHASE_COUNT],
    reuse: u8,
}

thread_local! {
    static RUN: RefCell<RunScope> = RefCell::new(RunScope::default());
}

/// The per-run breakdown returned by [`run_end`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Per-phase accumulators, indexed like [`Phase::ALL`].
    pub phases: [PhaseAcc; PHASE_COUNT],
    /// Reuse bits (see [`Reuse`]); [`RunTrace::provenance`] names them.
    pub reuse: u8,
    /// Total wall nanoseconds between [`run_begin`] and [`run_end`].
    pub wall_ns: u64,
}

impl RunTrace {
    /// The strongest reuse tier that served this run, or `"cold"`.
    pub fn provenance(&self) -> &'static str {
        provenance(self.reuse)
    }

    /// Iterate the non-empty phases as `(name, acc)` pairs.
    pub fn nonzero_phases(&self) -> impl Iterator<Item = (&'static str, PhaseAcc)> + '_ {
        Phase::ALL
            .iter()
            .map(|&p| (p.name(), self.phases[p as usize]))
            .filter(|(_, acc)| !acc.is_empty())
    }
}

/// Open a run scope on this thread. No-op while tracing is disabled.
/// Scopes nest, but only the outermost one collects (inner begin/end pairs
/// just track depth).
pub fn run_begin() {
    if !enabled() {
        return;
    }
    RUN.with(|r| {
        let mut r = r.borrow_mut();
        if r.depth == 0 {
            r.phases = [PhaseAcc::default(); PHASE_COUNT];
            r.reuse = 0;
            r.start = Some(Instant::now());
        }
        r.depth += 1;
    });
}

/// Close the current run scope and return its breakdown. Returns an empty
/// [`RunTrace`] when tracing is disabled, when no scope is open, or for
/// inner nested scopes.
pub fn run_end() -> RunTrace {
    if !enabled() {
        return RunTrace::default();
    }
    RUN.with(|r| {
        let mut r = r.borrow_mut();
        if r.depth == 0 {
            return RunTrace::default();
        }
        r.depth -= 1;
        if r.depth > 0 {
            return RunTrace::default();
        }
        RunTrace {
            phases: r.phases,
            reuse: r.reuse,
            wall_ns: r.start.take().map_or(0, |s| s.elapsed().as_nanos() as u64),
        }
    })
}

/// Fold a completed [`RunTrace`] from another thread into the current run
/// scope: per-phase accumulators add, reuse bits OR. Used by shard workers
/// — each worker traces under its own thread-local scope and the caller
/// absorbs the results, so a sharded run's ledger record carries the same
/// phase breakdown a serial run would. The worker's `wall_ns` is *not*
/// absorbed (the caller's own scope measures wall time; shard walls
/// overlap it). No-op while tracing is disabled or outside a run scope.
pub fn absorb(rt: &RunTrace) {
    if !enabled() {
        return;
    }
    RUN.with(|run| {
        let mut run = run.borrow_mut();
        if run.depth == 0 {
            return;
        }
        for (acc, add) in run.phases.iter_mut().zip(&rt.phases) {
            acc.ns += add.ns;
            acc.insts += add.insts;
            acc.bytes += add.bytes;
            acc.count += add.count;
        }
        run.reuse |= rt.reuse;
    });
}

/// Record that the current run was (partly) served by reuse tier `r`.
/// No-op while tracing is disabled or outside a run scope.
pub fn mark_reuse(reuse: Reuse) {
    if !enabled() {
        return;
    }
    RUN.with(|run| {
        let mut run = run.borrow_mut();
        if run.depth > 0 {
            run.reuse |= reuse as u8;
        }
    });
}

/// A span guard: records elapsed wall time (plus any attached instruction
/// and byte counts) into its [`Phase`] when dropped. Inert when tracing is
/// disabled at creation.
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
    insts: u64,
    bytes: u64,
}

/// Open a span in `phase`. One relaxed load when tracing is disabled.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
        insts: 0,
        bytes: 0,
    }
}

impl Span {
    /// Attach processed instructions to this span.
    #[inline]
    pub fn add_insts(&mut self, n: u64) {
        if self.start.is_some() {
            self.insts += n;
        }
    }

    /// Attach touched bytes to this span.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if self.start.is_some() {
            self.bytes += n;
        }
    }
}

/// Per-phase span-duration histogram names (`hist.` prefix groups them in
/// the metrics report; the ledger footer carries the full buckets).
const SPAN_HIST_NAMES: [&str; PHASE_COUNT] = [
    "hist.span.fast_forward.ns",
    "hist.span.warm_up.ns",
    "hist.span.measure.ns",
    "hist.span.functional_warm.ns",
    "hist.span.checkpoint_restore.ns",
    "hist.span.cache_lookup.ns",
    "hist.span.profile.ns",
];

/// Registered handles for the per-phase duration histograms, resolved once
/// so span drops never take the registry lock.
fn span_hists() -> &'static [crate::metrics::Histogram; PHASE_COUNT] {
    static H: std::sync::OnceLock<[crate::metrics::Histogram; PHASE_COUNT]> =
        std::sync::OnceLock::new();
    H.get_or_init(|| std::array::from_fn(|i| crate::metrics::histogram(SPAN_HIST_NAMES[i])))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        let i = self.phase as usize;
        let g = &GLOBAL_PHASES[i];
        g.ns.fetch_add(ns, Ordering::Relaxed);
        g.insts.fetch_add(self.insts, Ordering::Relaxed);
        g.bytes.fetch_add(self.bytes, Ordering::Relaxed);
        g.count.fetch_add(1, Ordering::Relaxed);
        span_hists()[i].record(ns);
        RUN.with(|r| {
            let mut r = r.borrow_mut();
            if r.depth > 0 {
                r.phases[i].add(ns, self.insts, self.bytes);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests flip the process-wide enable flag; serialize them.
    fn enable_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = enable_lock();
        set_enabled(false);
        reset_global_phase_totals();
        {
            let mut s = span(Phase::Measure);
            s.add_insts(1_000);
        }
        assert_eq!(global_phase_totals()[Phase::Measure as usize].count, 0);
    }

    #[test]
    fn enabled_spans_accumulate_globally_and_per_run() {
        let _g = enable_lock();
        set_enabled(true);
        reset_global_phase_totals();
        run_begin();
        {
            let mut s = span(Phase::FastForward);
            s.add_insts(500);
            s.add_bytes(64);
        }
        {
            let mut s = span(Phase::FastForward);
            s.add_insts(250);
        }
        mark_reuse(Reuse::ArchCkpt);
        let rt = run_end();
        set_enabled(false);

        let ff = rt.phases[Phase::FastForward as usize];
        assert_eq!(ff.insts, 750);
        assert_eq!(ff.bytes, 64);
        assert_eq!(ff.count, 2);
        assert_eq!(rt.provenance(), "arch-ckpt");
        let g = global_phase_totals()[Phase::FastForward as usize];
        assert_eq!(g.insts, 750);
        assert_eq!(g.count, 2);
    }

    #[test]
    fn provenance_priority_is_store_then_cache_then_arch_then_shard() {
        assert_eq!(provenance(0), "cold");
        assert_eq!(provenance(Reuse::Shard as u8), "shard");
        assert_eq!(
            provenance(Reuse::Shard as u8 | Reuse::ArchCkpt as u8),
            "arch-ckpt",
            "any genuine reuse tier outranks sharding"
        );
        assert_eq!(provenance(Reuse::ArchCkpt as u8), "arch-ckpt");
        assert_eq!(
            provenance(Reuse::ArchCkpt as u8 | Reuse::Cache as u8),
            "cache"
        );
        assert_eq!(provenance(0xff), "store-restore");
    }

    #[test]
    fn nested_run_scopes_collect_only_outermost() {
        let _g = enable_lock();
        set_enabled(true);
        run_begin();
        {
            let mut s = span(Phase::Measure);
            s.add_insts(10);
        }
        run_begin();
        {
            let mut s = span(Phase::Measure);
            s.add_insts(5);
        }
        let inner = run_end();
        assert_eq!(inner, RunTrace::default(), "inner scope returns empty");
        let outer = run_end();
        set_enabled(false);
        assert_eq!(outer.phases[Phase::Measure as usize].insts, 15);
    }

    #[test]
    fn absorb_folds_phases_and_reuse_into_the_open_scope() {
        let _g = enable_lock();
        set_enabled(true);
        // Build a "worker" trace on this thread first.
        run_begin();
        {
            let mut s = span(Phase::Measure);
            s.add_insts(40);
        }
        mark_reuse(Reuse::ArchCkpt);
        let worker = run_end();

        // Absorb it into a fresh "caller" scope alongside local spans.
        run_begin();
        {
            let mut s = span(Phase::Measure);
            s.add_insts(2);
        }
        mark_reuse(Reuse::Shard);
        absorb(&worker);
        let caller = run_end();
        set_enabled(false);

        let m = caller.phases[Phase::Measure as usize];
        assert_eq!(m.insts, 42);
        assert_eq!(m.count, 2);
        assert_eq!(
            caller.reuse,
            Reuse::Shard as u8 | Reuse::ArchCkpt as u8,
            "reuse bits OR together"
        );
        // Outside a scope (or disabled) absorb is a no-op.
        absorb(&worker);
    }

    #[test]
    fn run_end_without_begin_is_empty() {
        let _g = enable_lock();
        set_enabled(true);
        let rt = run_end();
        set_enabled(false);
        assert_eq!(rt, RunTrace::default());
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "fast_forward",
                "warm_up",
                "measure",
                "functional_warm",
                "checkpoint_restore",
                "cache_lookup",
                "profile"
            ]
        );
    }
}
