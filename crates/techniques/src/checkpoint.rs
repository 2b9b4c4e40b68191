//! Checkpoint library: reuse fast-forward prefix state across technique
//! permutations.
//!
//! Every sampling technique begins by advancing the workload stream past a
//! prefix it does not measure. The harnesses position the *same* streams
//! again and again: FF+Run and FF+WU+Run sweeps share a handful of `x`
//! values across every configuration, SMARTS and SimPoint position each
//! interval at a fixed absolute offset under every configuration, random
//! sampling revisits the same seed-placed offsets. This library makes each
//! distinct positioning happen once per process and serves
//! restore-instead-of-reinterpret afterwards.
//!
//! It holds one tier: [`workloads::InterpState`] snapshots keyed by
//! `(program fingerprint, stream position)`. The stream at a position is a
//! pure function of the program, so one snapshot serves every
//! [`sim_core::SimConfig`]. [`Library::advance_interp`] restores the
//! nearest snapshot at or before the target and interprets only the
//! remainder. Machine state (caches, predictor, pipeline) is not cached:
//! functional warming and detailed warm-up rebuild it live on every run,
//! which is also the work the cost model charges for.
//!
//! # Correctness contract
//!
//! A restored-then-run window must produce *byte-identical* results to the
//! cold path: the interpreter restore is exact ([`workloads::Interp::restore`]),
//! so metrics cannot differ. Cost accounting is also identical: a restore
//! charges the same skipped instructions the cold path measures (the
//! library saves wall-clock and functional execution, never modeled work).
//! The global functional-execution counter
//! ([`sim_core::checkpoint::functional_insts`]) observes the saving:
//! restores do not count, so a sweep that re-positions streams reports
//! fewer functionally executed instructions with the library enabled.
//!
//! # Knobs
//!
//! `SIM_CHECKPOINTS=0|off|false|no` (or [`set_enabled`]`(false)`, the
//! `--checkpoints off` harness flag) disables the library; every call falls
//! back to a cold skip. At most [`ARCH_CAP`] snapshots are kept per program
//! (a snapshot is a few hundred bytes); further inserts are refused, which
//! loses reuse but never correctness.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Included};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sim_core::InstStream;
use sim_obs::{trace as obs, Counter, Phase, Reuse};
use workloads::{Interp, InterpState};

/// Maximum architectural snapshots kept per program.
pub const ARCH_CAP: usize = 128;

/// Process-wide enable override: 0 = follow `SIM_CHECKPOINTS`, 1 = on,
/// 2 = off.
static ENABLED_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force checkpointing on or off for the process, overriding
/// `SIM_CHECKPOINTS` (the harness `--checkpoints on|off` flag).
pub fn set_enabled(on: bool) {
    ENABLED_OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Whether the checkpoint library is active. Defaults to on; disabled by
/// [`set_enabled`]`(false)` or `SIM_CHECKPOINTS=0|off|false|no`.
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => sim_obs::env_flag("SIM_CHECKPOINTS", true),
    }
}

/// Hit/miss counters of the snapshot tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups served (fully or partially) from stored state.
    pub hits: u64,
    /// Lookups that had to execute cold.
    pub misses: u64,
}

/// A snapshot of the library's counters (the `--cache-stats` report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Architectural-snapshot tier.
    pub arch: TierStats,
}

/// The checkpoint library. One instance is shared process-wide via
/// [`global`]; tests build private instances.
#[derive(Debug)]
pub struct Library {
    /// prog_fp → position → snapshot (BTreeMap for floor queries).
    arch: Mutex<HashMap<u64, BTreeMap<u64, Arc<InterpState>>>>,
    /// Per-instance enable override; `None` follows the process-wide
    /// [`enabled`] flag (tests force a value to stay isolated from it).
    force: Option<bool>,
    /// Persistent second level: misses read through to it, fresh
    /// snapshots spill behind into it, so the next *process* starts warm.
    /// `None` (no `--store`/`SIM_STORE`) keeps snapshots in memory only.
    store: Option<Arc<sim_store::Store>>,
    arch_cap: usize,
    arch_hits: Counter,
    arch_misses: Counter,
}

impl Library {
    /// A library keeping at most `arch_cap` snapshots per program. Counters
    /// are private (unregistered); only [`global`] reports through the
    /// metrics registry.
    fn with_arch_cap(arch_cap: usize) -> Self {
        Library {
            arch: Mutex::new(HashMap::new()),
            force: None,
            store: None,
            arch_cap,
            arch_hits: Counter::detached(),
            arch_misses: Counter::detached(),
        }
    }

    /// Swap the counters for registry-backed handles (the [`global`]
    /// instance, whose traffic shows up in `--metrics` reports).
    fn registered(mut self) -> Self {
        self.store = sim_store::global();
        self.arch_hits = sim_obs::metrics::counter("ckpt.arch.hits");
        self.arch_misses = sim_obs::metrics::counter("ckpt.arch.misses");
        self
    }

    /// Pin this instance on or off regardless of the process-wide flag.
    pub fn with_enabled(mut self, on: bool) -> Self {
        self.force = Some(on);
        self
    }

    /// Attach a persistent store this instance reads through to and spills
    /// into (tests; the [`global`] instance attaches [`sim_store::global`]).
    pub fn with_store(mut self, store: Arc<sim_store::Store>) -> Self {
        self.store = Some(store);
        self
    }

    fn active(&self) -> bool {
        self.force.unwrap_or_else(enabled)
    }

    /// Advance `interp` to absolute stream position `target` (instructions
    /// emitted), restoring the nearest stored snapshot in
    /// `(current, target]` and interpreting only the remainder. Stores a
    /// snapshot at `target` for future callers (subject to the per-program
    /// cap). The machine is untouched — use this only where the cold path
    /// leaves the machine cold too ([`sim_core::Simulator::skip`]
    /// semantics).
    ///
    /// Returns the position delta actually covered, which equals what the
    /// cold `skip` would have reported (shorter than requested only when
    /// the stream ends early) — charge it as skipped cost unchanged. A
    /// zero-length advance is a no-op: no span, no lookup, no counter.
    pub fn advance_interp(&self, interp: &mut Interp<'_>, target: u64) -> u64 {
        let start = interp.emitted();
        debug_assert!(target >= start, "advance_interp cannot rewind");
        if target <= start {
            return 0;
        }
        if !self.active() {
            let mut span = obs::span(Phase::FastForward);
            let skipped = interp.skip_n(target - start);
            span.add_insts(skipped);
            return skipped;
        }
        let fp = interp.program().fingerprint();
        let floor = {
            let arch = self.arch.lock().unwrap_or_else(|e| e.into_inner());
            arch.get(&fp).and_then(|m| {
                m.range((Excluded(start), Included(target)))
                    .next_back()
                    .map(|(_, s)| Arc::clone(s))
            })
        };
        match &floor {
            Some(state) => {
                let mut span = obs::span(Phase::CheckpointRestore);
                span.add_bytes(state.approx_bytes() as u64);
                span.add_insts(state.emitted() - start);
                interp.restore(state);
                drop(span);
                obs::mark_reuse(Reuse::ArchCkpt);
                self.arch_hits.inc();
            }
            None => {
                self.arch_misses.inc();
            }
        }
        // When memory leaves a remainder, a previous process may have
        // snapshotted the exact target: read through to the store.
        if interp.emitted() < target {
            if let Some(state) = self.store_arch_lookup(fp, target) {
                let mut span = obs::span(Phase::CheckpointRestore);
                span.add_bytes(state.approx_bytes() as u64);
                span.add_insts(target - interp.emitted());
                interp.restore(&state);
                drop(span);
                obs::mark_reuse(Reuse::StoreRestore);
                self.insert_arch_memory(fp, target, Arc::new(state));
            }
        }
        let remainder = target - interp.emitted();
        if remainder > 0 {
            let mut span = obs::span(Phase::FastForward);
            span.add_insts(interp.skip_n(remainder));
        }
        // Lazily materialize a snapshot at the requested boundary (unless
        // the stream ended short of it — a truncated position is still a
        // valid snapshot but would never be asked for by this target again).
        if interp.emitted() == target {
            self.store_arch(fp, target, interp.snapshot());
        }
        interp.emitted() - start
    }

    /// Try to hydrate an architectural snapshot at exactly `pos` from the
    /// persistent store. Foreign, stale, or corrupt payloads decode to
    /// `None`; the caller interprets the remainder cold.
    fn store_arch_lookup(&self, fp: u64, pos: u64) -> Option<InterpState> {
        let store = self.store.as_ref()?;
        let payload = store.get(
            crate::store::NS_ARCH,
            sim_store::Key::of(&crate::store::arch_key_bytes(fp, pos)),
        )?;
        crate::store::decode_arch(fp, pos, &payload).ok()
    }

    /// Insert into the in-memory arch tier only (hydrations, which are
    /// already persistent). Returns whether the snapshot was newly kept.
    fn insert_arch_memory(&self, fp: u64, pos: u64, state: Arc<InterpState>) -> bool {
        let mut arch = self.arch.lock().unwrap_or_else(|e| e.into_inner());
        let per_prog = arch.entry(fp).or_default();
        if per_prog.len() >= self.arch_cap && !per_prog.contains_key(&pos) {
            return false; // cap refusal: reuse degrades, correctness does not
        }
        let mut fresh = false;
        per_prog.entry(pos).or_insert_with(|| {
            fresh = true;
            state
        });
        fresh
    }

    fn store_arch(&self, fp: u64, pos: u64, state: InterpState) {
        debug_assert_eq!(state.program_fingerprint(), fp);
        debug_assert_eq!(state.emitted(), pos);
        let state = Arc::new(state);
        // Spill behind only what memory newly kept: a repeat position is
        // already persisted and a cap refusal should not grow the store.
        if self.insert_arch_memory(fp, pos, Arc::clone(&state)) {
            if let Some(store) = &self.store {
                store.put(
                    crate::store::NS_ARCH,
                    sim_store::Key::of(&crate::store::arch_key_bytes(fp, pos)),
                    crate::store::encode_arch(&state),
                );
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LibraryStats {
        LibraryStats {
            arch: TierStats {
                hits: self.arch_hits.get(),
                misses: self.arch_misses.get(),
            },
        }
    }

    /// Drop all stored state and reset the counters.
    pub fn clear(&self) {
        self.arch.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.arch_hits.reset();
        self.arch_misses.reset();
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::with_arch_cap(ARCH_CAP)
    }
}

/// The process-wide checkpoint library. Its counters are registered in the
/// metrics registry as `ckpt.arch.{hits,misses}`.
pub fn global() -> &'static Library {
    static GLOBAL: OnceLock<Library> = OnceLock::new();
    GLOBAL.get_or_init(|| Library::default().registered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::checkpoint::thread_functional_insts;
    use workloads::{InputSet, Program};

    fn program() -> Program {
        workloads::benchmark("gzip")
            .unwrap()
            .program(InputSet::Small)
            .unwrap()
    }

    fn lib() -> Library {
        Library::default()
    }

    #[test]
    fn advance_interp_matches_cold_skip_everywhere() {
        let p = program();
        let lib = lib();
        for target in [0u64, 5_000, 40_000, 40_000, 65_000] {
            let mut cold = Interp::new(&p);
            let cold_skipped = cold.skip_n(target);
            let mut warm = Interp::new(&p);
            let warm_skipped = lib.advance_interp(&mut warm, target);
            assert_eq!(warm_skipped, cold_skipped, "target {target}");
            assert_eq!(warm.emitted(), cold.emitted());
            for _ in 0..500 {
                assert_eq!(warm.next_inst(), cold.next_inst(), "target {target}");
            }
        }
        let s = lib.stats();
        assert!(s.arch.hits > 0, "repeated targets must restore snapshots");
    }

    #[test]
    fn zero_length_advance_touches_no_counter() {
        let p = program();
        let lib = lib();
        let mut it = Interp::new(&p);
        assert_eq!(lib.advance_interp(&mut it, 0), 0);
        it.skip_n(3_000);
        assert_eq!(lib.advance_interp(&mut it, 3_000), 0);
        assert_eq!(it.emitted(), 3_000);
        assert_eq!(lib.stats(), LibraryStats::default());
    }

    #[test]
    fn advance_interp_restores_instead_of_reinterpreting() {
        let p = program();
        let lib = lib();
        let mut first = Interp::new(&p);
        lib.advance_interp(&mut first, 30_000);
        drop(first);
        let before = thread_functional_insts();
        let mut second = Interp::new(&p);
        lib.advance_interp(&mut second, 30_000);
        drop(second);
        assert_eq!(
            thread_functional_insts() - before,
            0,
            "an exact snapshot hit performs no functional execution"
        );
    }

    #[test]
    fn advance_interp_uses_floor_snapshot_for_longer_targets() {
        let p = program();
        let lib = lib();
        let mut a = Interp::new(&p);
        lib.advance_interp(&mut a, 20_000);
        drop(a);
        let before = thread_functional_insts();
        let mut b = Interp::new(&p);
        lib.advance_interp(&mut b, 26_000);
        drop(b);
        assert_eq!(
            thread_functional_insts() - before,
            6_000,
            "only the remainder past the floor snapshot is re-executed"
        );
    }

    #[test]
    fn arch_cap_refuses_but_stays_correct() {
        let p = program();
        let lib = Library::with_arch_cap(2);
        for target in [1_000u64, 2_000, 3_000, 4_000] {
            let mut it = Interp::new(&p);
            lib.advance_interp(&mut it, target);
        }
        // Capped at 2 snapshots; later targets still advance correctly.
        let mut capped = Interp::new(&p);
        lib.advance_interp(&mut capped, 4_000);
        let mut cold = Interp::new(&p);
        cold.skip_n(4_000);
        assert_eq!(capped.next_inst(), cold.next_inst());
    }

    #[test]
    fn disabled_library_falls_back_to_cold_skip() {
        // Pin this instance off instead of calling [`set_enabled`]: the
        // process-wide flag is shared with concurrently running tests.
        let p = program();
        let lib = lib().with_enabled(false);
        let mut it = Interp::new(&p);
        assert_eq!(lib.advance_interp(&mut it, 12_000), 12_000);
        assert_eq!(lib.stats(), LibraryStats::default(), "no tier traffic");
    }

    #[test]
    fn clear_drops_state_and_counters() {
        let p = program();
        let lib = lib();
        let mut it = Interp::new(&p);
        lib.advance_interp(&mut it, 5_000);
        lib.clear();
        assert_eq!(lib.stats(), LibraryStats::default());
    }

    /// A fresh scratch store directory per test.
    fn scratch_store(name: &str) -> Arc<sim_store::Store> {
        let dir =
            std::env::temp_dir().join(format!("simtech-ckpt-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(sim_store::Store::open(&dir).expect("scratch store opens"))
    }

    #[test]
    fn advance_interp_restores_exact_target_from_store() {
        let p = program();
        let store = scratch_store("arch");
        let first = lib().with_store(Arc::clone(&store));
        let mut it = Interp::new(&p);
        first.advance_interp(&mut it, 30_000);
        drop(it);
        store.flush().unwrap();
        drop(first);

        let before = thread_functional_insts();
        let second = lib().with_store(Arc::clone(&store));
        let mut warm = Interp::new(&p);
        second.advance_interp(&mut warm, 30_000);
        assert_eq!(
            thread_functional_insts() - before,
            0,
            "exact-target snapshot hydrated from the store"
        );
        let mut cold = Interp::new(&p);
        cold.skip_n(30_000);
        for _ in 0..500 {
            assert_eq!(warm.next_inst(), cold.next_inst());
        }
    }

    #[test]
    fn corrupt_store_entry_falls_back_to_cold_identical_results() {
        let p = program();
        let store = scratch_store("corrupt");
        let target = 15_000;

        let first = lib().with_store(Arc::clone(&store));
        let mut it = Interp::new(&p);
        first.advance_interp(&mut it, target);
        drop(it);
        store.flush().unwrap();
        drop(first);

        // Flip one payload byte in every segment on disk.
        let dir = store.dir().to_path_buf();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "seg") {
                let mut bytes = std::fs::read(&path).unwrap();
                let at = bytes.len() - 1;
                bytes[at] ^= 0x40;
                std::fs::write(&path, bytes).unwrap();
            }
        }

        let store2 = Arc::new(sim_store::Store::open(&dir).unwrap());
        let second = lib().with_store(Arc::clone(&store2));
        let mut warm = Interp::new(&p);
        assert_eq!(
            second.advance_interp(&mut warm, target),
            target,
            "cold fallback covers the prefix"
        );
        assert_eq!(
            second.stats().arch,
            TierStats { hits: 0, misses: 1 },
            "a corrupt entry is a miss, never a wrong hit"
        );
        assert!(store2.counters().4 > 0, "corruption was counted");
        let mut cold = Interp::new(&p);
        cold.skip_n(target);
        assert_eq!(warm.snapshot(), cold.snapshot(), "same stream position");
        for _ in 0..2_000 {
            assert_eq!(warm.next_inst(), cold.next_inst(), "stream unchanged");
        }
    }
}
