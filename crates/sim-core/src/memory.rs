//! The memory hierarchy: L1-I and L1-D caches backed by a unified L2 and a
//! burst-mode DRAM model, with TLBs, a bounded pool of miss-status holding
//! registers (MSHRs), and the next-line prefetcher of §7 [Jouppi90].
//!
//! State updates (tag arrays, LRU, TLBs, prefetcher) are shared between
//! detailed simulation and SMARTS-style functional warming; only detailed
//! simulation computes latencies and consumes MSHRs.

use crate::cache::{Cache, Tlb};
use crate::config::{PrefetchInto, SimConfig};
use crate::isa::Addr;
use crate::state::ByteWriter;

/// Hierarchy-wide statistics (per-cache counters live in each [`Cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Lines fetched from DRAM (demand L2 misses).
    pub dram_fills: u64,
    /// Cycles a load/store could not even start because all MSHRs were busy.
    pub mshr_stalls: u64,
    /// Prefetch requests issued by the next-line prefetcher.
    pub prefetches_issued: u64,
}

/// Which levels served an access — the raw material for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPath {
    /// Hit in the first-level cache.
    pub l1_hit: bool,
    /// Hit in L2 (only meaningful when `!l1_hit`).
    pub l2_hit: bool,
    /// TLB hit.
    pub tlb_hit: bool,
    /// First demand touch of a line the prefetcher installed in L1 (the
    /// line may still be in flight; tagged prefetch also triggers the next
    /// prefetch from this touch).
    pub l1_prefetch_first_hit: bool,
    /// Cycle at which an in-flight prefetched line (L1 or L2) finishes
    /// arriving; 0 when not applicable.
    pub prefetch_ready_at: u64,
}

/// The cache/TLB/DRAM complex.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified second-level cache.
    pub l2: Cache,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    mshr_busy_until: Vec<u64>,
    mem_first: u64,
    mem_following: u64,
    next_line_prefetch: bool,
    prefetch_into: PrefetchInto,
    stats: MemStats,
    /// Exact line-skip filter: the line address of the immediately
    /// preceding data access, but only when a repeat of that access is
    /// provably a pure no-op (plain L1-D hit, line now MRU, no prefetch
    /// transition, page MRU in the D-TLB). [`FILTER_NONE`] when the last
    /// access was anything else. Serialized: checkpoint restore must
    /// resume with the same filter decisions the uninterrupted run makes.
    last_data_line: u64,
    /// Whether `last_data_line` is known dirty (conservative lower bound;
    /// a filtered store must not need to set the dirty bit).
    last_data_dirty: bool,
    /// Test-only switch for the filtered-vs-unfiltered equivalence test;
    /// filter *state* is maintained either way.
    #[cfg(test)]
    filter_enabled: bool,
    /// Data accesses short-circuited by the filter (host-side
    /// observability; drained by [`MemoryHierarchy::take_filter_hits`]).
    filter_hits: u64,
}

/// Sentinel for "no filterable previous access". Real line addresses are
/// line-size aligned, so the all-ones value can never collide.
const FILTER_NONE: u64 = u64::MAX;

impl MemoryHierarchy {
    /// Build the hierarchy described by `cfg`.
    ///
    /// # Panics
    /// Panics if any component configuration is invalid (see
    /// [`SimConfig::validate`]).
    pub fn new(cfg: &SimConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            mshr_busy_until: vec![0; cfg.mshr_entries as usize],
            mem_first: cfg.mem_first_latency,
            mem_following: cfg.mem_following_latency,
            next_line_prefetch: cfg.next_line_prefetch,
            prefetch_into: cfg.prefetch_into,
            stats: MemStats::default(),
            last_data_line: FILTER_NONE,
            last_data_dirty: false,
            #[cfg(test)]
            filter_enabled: true,
            filter_hits: 0,
        }
    }

    /// Enable/disable the line-skip fast path. State updates and
    /// statistics are bit-identical either way — that is the filter's
    /// contract, which the unit tests check through this switch.
    #[cfg(test)]
    pub(crate) fn set_line_filter(&mut self, enabled: bool) {
        self.filter_enabled = enabled;
    }

    /// Drain the filtered-access counter (host-side metrics).
    pub fn take_filter_hits(&mut self) -> u64 {
        std::mem::take(&mut self.filter_hits)
    }

    /// Whether the line-skip filter would swallow a `(addr, write)` data
    /// access right now: same line as the immediately preceding data
    /// access, which left the line MRU with no pending transition, and a
    /// store only if the line is already known dirty.
    #[inline]
    fn filter_covers(&self, addr: Addr, write: bool) -> bool {
        #[cfg(test)]
        if !self.filter_enabled {
            return false;
        }
        self.l1d.line_addr(addr) == self.last_data_line && (!write || self.last_data_dirty)
    }

    /// Count a data access swallowed by the filter: exactly the counters a
    /// full MRU-hit walk would move, nothing else.
    #[inline]
    fn count_filtered_data_hit(&mut self) {
        self.l1d.count_filtered_hit();
        self.dtlb.count_filtered_hit();
        self.filter_hits += 1;
    }

    /// Hierarchy statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Reset all statistics (cache contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
    }

    /// Cold-start: invalidate every cache, TLB, and MSHR.
    pub fn reset_state(&mut self) {
        self.l1i.reset_state();
        self.l1d.reset_state();
        self.l2.reset_state();
        self.itlb.reset_state();
        self.dtlb.reset_state();
        self.mshr_busy_until.fill(0);
        self.stats = MemStats::default();
        self.last_data_line = FILTER_NONE;
        self.last_data_dirty = false;
    }

    /// DRAM latency for one line of `line_bytes` (burst model).
    #[inline]
    fn dram_latency(&self, line_bytes: u64) -> u64 {
        let chunks = (line_bytes / 8).max(1);
        self.mem_first + (chunks - 1) * self.mem_following
    }

    /// Shared state-update path for a data access at cycle `now` (functional
    /// warming passes 0 — its prefetches are "long since arrived" by the
    /// time a measured window touches them). Returns which levels hit.
    fn touch_data(&mut self, addr: Addr, write: bool, now: u64) -> AccessPath {
        let l1_way = self.l1d.probe_way(addr);
        self.touch_data_at(addr, write, now, l1_way)
    }

    /// [`MemoryHierarchy::touch_data`] with the L1-D tag scan already done.
    fn touch_data_at(
        &mut self,
        addr: Addr,
        write: bool,
        now: u64,
        l1_way: Option<usize>,
    ) -> AccessPath {
        let tlb_hit = self.dtlb.access(addr);
        let l1 = self.l1d.access_at(addr, write, l1_way);
        let mut l2_hit = true;
        let mut ready_at = if l1.first_prefetch_hit {
            l1.ready_at
        } else {
            0
        };
        if !l1.hit {
            if let Some(wb) = l1.writeback {
                // Write the dirty victim back into L2.
                if !self.l2.access(wb, true).hit {
                    self.stats.dram_fills += 1;
                }
            }
            let l2 = self.l2.access(addr, false);
            l2_hit = l2.hit;
            if l2.first_prefetch_hit {
                ready_at = l2.ready_at;
            }
            if !l2.hit {
                self.stats.dram_fills += 1;
            }
        }
        // Tagged next-line prefetch [Jouppi90]: trigger on a demand miss OR
        // on the first demand touch of a prefetched line, so a sequential
        // stream keeps one line in flight ahead of the consumer.
        if self.next_line_prefetch && (!l1.hit || l1.first_prefetch_hit) {
            self.prefetch_next_line(addr, now);
        }
        // Maintain the line-skip filter. Only a *plain* L1 hit arms it: a
        // miss or first-prefetch-hit runs the prefetcher, whose L1 fill can
        // (at low associativity) evict the line just touched, so the next
        // same-line access is not provably a no-op. The dirty flag is a
        // lower bound: a store proves it; a repeat hit inherits it.
        if l1.hit && !l1.first_prefetch_hit {
            let line = self.l1d.line_addr(addr);
            self.last_data_dirty = write || (self.last_data_line == line && self.last_data_dirty);
            self.last_data_line = line;
        } else {
            self.last_data_line = FILTER_NONE;
            self.last_data_dirty = false;
        }
        AccessPath {
            l1_hit: l1.hit,
            l2_hit,
            tlb_hit,
            l1_prefetch_first_hit: l1.first_prefetch_hit,
            prefetch_ready_at: ready_at,
        }
    }

    /// Shared state-update path for an instruction fetch.
    fn touch_inst(&mut self, addr: Addr) -> AccessPath {
        let tlb_hit = self.itlb.access(addr);
        let l1 = self.l1i.access(addr, false);
        let mut l2_hit = true;
        if !l1.hit {
            let l2 = self.l2.access(addr, false);
            l2_hit = l2.hit;
            if !l2.hit {
                self.stats.dram_fills += 1;
            }
        }
        AccessPath {
            l1_hit: l1.hit,
            l2_hit,
            tlb_hit,
            l1_prefetch_first_hit: false,
            prefetch_ready_at: 0,
        }
    }

    /// Issue a next-line prefetch at cycle `now`. The line arrives after the
    /// latency of wherever it currently lives (L2 or DRAM); early demand
    /// touches wait out the remainder.
    fn prefetch_next_line(&mut self, addr: Addr, now: u64) {
        let next = self.l1d.line_addr(addr) + self.l1d.line_bytes();
        self.stats.prefetches_issued += 1;
        let src_latency = if self.l2.probe(next) {
            self.l2.config().latency
        } else {
            self.stats.dram_fills += 1;
            self.l2.config().latency + self.dram_latency(self.l2.config().line_bytes)
        };
        let ready_at = now + src_latency;
        if self.l2.prefetch_fill(next, ready_at).is_some() {
            // A dirty victim goes to memory; traffic only, no timing.
        }
        if self.prefetch_into == PrefetchInto::L1AndL2 {
            self.l1d.prefetch_fill(next, ready_at);
        }
    }

    /// Latency implied by an [`AccessPath`] for a *data* access at `now`.
    fn data_latency(&self, path: AccessPath, now: u64) -> u64 {
        let mut lat = self.l1d.config().latency;
        if !path.l1_hit {
            lat += self.l2.config().latency;
            if !path.l2_hit {
                lat += self.dram_latency(self.l2.config().line_bytes);
            }
        }
        // An in-flight prefetched line: wait out the remaining arrival time.
        if path.prefetch_ready_at > now + lat {
            lat = path.prefetch_ready_at - now;
        }
        if !path.tlb_hit {
            lat += self.dtlb.miss_latency();
        }
        lat
    }

    /// Detailed-mode data access starting at cycle `now`.
    ///
    /// Returns the total latency, or `None` if the access misses L1 and all
    /// MSHRs are busy at `now` (the caller must retry next cycle; state is
    /// *not* modified in that case).
    pub fn data_access(&mut self, addr: Addr, write: bool, now: u64) -> Option<u64> {
        // Exact line-skip fast path: a repeat of the immediately preceding
        // access is a plain MRU hit — same stats, same state, L1 latency.
        if self.filter_covers(addr, write) {
            self.count_filtered_data_hit();
            return Some(self.l1d.config().latency);
        }
        // An L1 miss needs a free MSHR. Peek before mutating; the probed
        // way is reused below so the hit path scans the tags only once.
        let l1_way = self.l1d.probe_way(addr);
        let mshr_slot = if l1_way.is_none() {
            match self.mshr_busy_until.iter().position(|&t| t <= now) {
                Some(i) => Some(i),
                None => {
                    self.stats.mshr_stalls += 1;
                    return None;
                }
            }
        } else {
            None
        };
        let path = self.touch_data_at(addr, write, now, l1_way);
        let lat = self.data_latency(path, now);
        if let Some(i) = mshr_slot {
            self.mshr_busy_until[i] = now + lat;
        }
        Some(lat)
    }

    /// Detailed-mode instruction fetch of the line containing `addr`.
    /// Returns the fetch latency (1 for an L1-I hit of latency 1).
    pub fn inst_fetch(&mut self, addr: Addr) -> u64 {
        let path = self.touch_inst(addr);
        let mut lat = self.l1i.config().latency;
        if !path.l1_hit {
            lat += self.l2.config().latency;
            if !path.l2_hit {
                lat += self.dram_latency(self.l2.config().line_bytes);
            }
        }
        if !path.tlb_hit {
            lat += self.itlb.miss_latency();
        }
        lat
    }

    /// Functional warming for a data access: update every level's state,
    /// charge nothing, bypass MSHRs.
    ///
    /// Prefetches issued while warming are stamped near cycle 0, i.e. they
    /// are treated as long-since-arrived by any later detailed window. In
    /// the first few hundred detailed cycles of a run this can charge a
    /// small phantom arrival wait; the bias is bounded by one DRAM latency
    /// per warmed line and vanishes as detailed time advances.
    pub fn warm_data(&mut self, addr: Addr, write: bool) {
        if self.filter_covers(addr, write) {
            self.count_filtered_data_hit();
            return;
        }
        let _ = self.touch_data(addr, write, 0);
    }

    /// Functional warming for an instruction fetch.
    pub fn warm_inst(&mut self, addr: Addr) {
        let _ = self.touch_inst(addr);
    }

    /// Number of MSHRs still busy at cycle `now` (diagnostics/tests).
    pub fn busy_mshrs(&self, now: u64) -> usize {
        self.mshr_busy_until.iter().filter(|&&t| t > now).count()
    }

    /// Host-side software prefetch of the L1-D and L2 tag-mirror lines a
    /// data access to `addr` would probe (see [`Cache::prefetch_tags`]).
    /// Pure prefetch hint; no simulated state changes.
    #[inline]
    pub fn prefetch_data_tags(&self, addr: Addr) {
        self.l1d.prefetch_tags(addr);
        self.l2.prefetch_tags(addr);
    }
}

// State encoding (see `crate::state`): latencies and prefetch policy come
// from the config and are not written.
impl MemoryHierarchy {
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        self.l2.save_state(w);
        self.itlb.save_state(w);
        self.dtlb.save_state(w);
        w.put_usize(self.mshr_busy_until.len());
        for &t in &self.mshr_busy_until {
            w.put_u64(t);
        }
        w.put_u64(self.stats.dram_fills);
        w.put_u64(self.stats.mshr_stalls);
        w.put_u64(self.stats.prefetches_issued);
        w.put_u64(self.last_data_line);
        w.put_bool(self.last_data_dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::table3(1))
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0);
        let lat = m.data_access(0x1000, false, 10).unwrap();
        assert_eq!(lat, 1);
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let mut m = hierarchy();
        let lat = m.data_access(0x1000, false, 0).unwrap();
        // Config 1: L1D 1 + L2 8 + DRAM(150 + 7*2) + DTLB miss 30.
        assert_eq!(lat, 1 + 8 + 150 + 7 * 2 + 30);
        assert_eq!(m.stats().dram_fills, 1);
    }

    #[test]
    fn l2_hit_avoids_dram() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0); // fill L1D and L2, warm TLB
                                         // Evict from tiny... L1D is 32KB; use an address that maps to the
                                         // same L1D set but a different L2 set is hard to construct here, so
                                         // instead warm L2 via the instruction path and read via data path.
        m.warm_inst(0x80_0000);
        let lat = m.data_access(0x80_0000, false, 0).unwrap();
        // L1D miss, L2 hit (warmed via instruction path), TLB miss for the
        // new page: 1 + 8 + 30.
        assert_eq!(lat, 1 + 8 + 30);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut cfg = SimConfig::table3(1);
        cfg.mshr_entries = 2;
        let mut m = MemoryHierarchy::new(&cfg);
        assert!(m.data_access(0x10_0000, false, 0).is_some());
        assert!(m.data_access(0x20_0000, false, 0).is_some());
        assert_eq!(m.busy_mshrs(0), 2);
        assert!(
            m.data_access(0x30_0000, false, 0).is_none(),
            "third concurrent miss must stall"
        );
        assert_eq!(m.stats().mshr_stalls, 1);
        // Long after both misses complete, a new miss proceeds.
        assert!(m.data_access(0x30_0000, false, 100_000).is_some());
    }

    #[test]
    fn mshr_stall_does_not_perturb_state() {
        let mut cfg = SimConfig::table3(1);
        cfg.mshr_entries = 1;
        let mut m = MemoryHierarchy::new(&cfg);
        m.data_access(0x10_0000, false, 0);
        let before = m.l1d.stats().accesses;
        assert!(m.data_access(0x20_0000, false, 0).is_none());
        assert_eq!(m.l1d.stats().accesses, before, "stalled access not counted");
        assert!(!m.l1d.probe(0x20_0000), "stalled access not installed");
    }

    #[test]
    fn stores_hit_after_load_allocate() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0);
        let lat = m.data_access(0x1008, true, 10).unwrap();
        assert_eq!(lat, 1, "store to a resident line is an L1 hit");
    }

    #[test]
    fn next_line_prefetch_installs_successor() {
        let mut cfg = SimConfig::table3(1);
        cfg.next_line_prefetch = true;
        let mut m = MemoryHierarchy::new(&cfg);
        m.data_access(0x1000, false, 0); // miss on line 0x1000, prefetch 0x1040
        assert!(m.l1d.probe(0x1040), "next line prefetched into L1D");
        assert!(m.l2.probe(0x1040), "next line prefetched into L2");
        // Touch long after the prefetch arrived: a plain L1 hit — and,
        // tagged prefetch, the touch triggers line 0x1080.
        let lat = m.data_access(0x1040, false, 1000).unwrap();
        assert_eq!(lat, 1, "arrived prefetched line is a normal hit");
        assert!(
            m.l1d.probe(0x1080),
            "tagged trigger prefetched the next line"
        );
        assert_eq!(m.stats().prefetches_issued, 2);
        // 0x1080 was prefetched from DRAM at t=1000; touching it *early*
        // (t=1010) waits out the remaining arrival time.
        let early = m.data_access(0x1080, false, 1010).unwrap();
        let full = 8 + 150 + 7 * 2; // L2 + DRAM burst (config 1)
        assert_eq!(early, (1000 + full) - 1010, "early touch waits for arrival");
        // Second touch of an arrived line is a plain L1 hit.
        assert_eq!(m.data_access(0x1040, false, 2000), Some(1));
    }

    #[test]
    fn no_prefetch_when_disabled() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0);
        assert!(!m.l1d.probe(0x1040));
        assert_eq!(m.stats().prefetches_issued, 0);
    }

    #[test]
    fn functional_warming_matches_detailed_state() {
        let mut detailed = hierarchy();
        let mut warmed = hierarchy();
        let addrs: Vec<u64> = (0..2000).map(|i| (i * 2939) % 0x40_0000).collect();
        for (i, &a) in addrs.iter().enumerate() {
            detailed.data_access(a, i % 3 == 0, i as u64 * 1000);
            warmed.warm_data(a, i % 3 == 0);
        }
        // Identical demand-access behavior afterwards on a probe set.
        for &a in &addrs[..200] {
            assert_eq!(
                detailed.l1d.probe(a),
                warmed.l1d.probe(a),
                "warming must produce the same L1D contents (addr {a:#x})"
            );
            assert_eq!(detailed.l2.probe(a), warmed.l2.probe(a));
        }
    }

    #[test]
    fn inst_fetch_hits_after_first_access() {
        let mut m = hierarchy();
        let cold = m.inst_fetch(0x40_0000);
        assert!(cold > 1);
        let warm = m.inst_fetch(0x40_0000);
        assert_eq!(warm, 1);
    }

    #[test]
    fn reset_stats_keeps_cache_contents() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0);
        m.reset_stats();
        assert_eq!(m.l1d.stats().accesses, 0);
        assert_eq!(m.data_access(0x1000, false, 10), Some(1));
    }

    #[test]
    fn filter_never_fires_on_a_dirty_bit_flip() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0); // miss: filter disarmed
        m.data_access(0x1000, false, 10); // plain read hit: filter armed, clean
        m.take_filter_hits();
        // First store to the clean line flips the dirty bit — state change,
        // so the filter must step aside and run the full path.
        m.data_access(0x1008, true, 20);
        assert_eq!(m.take_filter_hits(), 0, "dirty-bit flip went full-path");
        // Now the line is known dirty: a repeat store is a pure no-op.
        m.data_access(0x1010, true, 30);
        assert_eq!(m.take_filter_hits(), 1);
        // ... and must still have produced a correctly dirty line.
        m.data_access(0x0000, false, 40);
        assert_eq!(m.l1d.stats().accesses, 5);
    }

    #[test]
    fn filter_never_fires_on_a_non_mru_hit() {
        let mut m = hierarchy();
        m.data_access(0x1000, false, 0);
        m.data_access(0x1000, false, 10); // arm on line 0x1000
        m.data_access(0x2000, false, 20); // miss elsewhere: disarm
        m.take_filter_hits();
        // 0x1000 is resident but no longer the last-touched line; its LRU
        // stamp must move, so the access runs full-path.
        m.data_access(0x1000, false, 30);
        assert_eq!(m.take_filter_hits(), 0, "non-MRU hit went full-path");
    }

    #[test]
    fn filter_never_fires_across_an_eviction() {
        let mut cfg = SimConfig::table3(1);
        cfg.l1d.size_bytes = 128; // 2 direct-mapped lines of 64B
        cfg.l1d.assoc = 1;
        let mut m = MemoryHierarchy::new(&cfg);
        m.data_access(0x0000, false, 0);
        m.data_access(0x0000, false, 10); // arm on line 0x0000
        m.data_access(0x0080, false, 20); // same set: evicts 0x0000, disarms
        m.take_filter_hits();
        assert!(!m.l1d.probe(0x0000), "line was evicted");
        m.data_access(0x0000, false, 30); // must be a full-path miss
        assert_eq!(m.take_filter_hits(), 0);
        assert!(m.l1d.probe(0x0000), "miss reinstalled the line");
    }

    #[test]
    fn filtered_and_unfiltered_runs_agree_exactly() {
        let mut cfg = SimConfig::table3(1);
        cfg.next_line_prefetch = true;
        cfg.l1d.size_bytes = 4096; // small enough to see evictions
        cfg.l1d.assoc = 2;
        let mut fast = MemoryHierarchy::new(&cfg);
        let mut slow = MemoryHierarchy::new(&cfg);
        slow.set_line_filter(false);
        // A mix of repeat hits (filterable), strided misses, and stores,
        // through both the warming and the detailed entry points.
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let base = (x >> 17) & 0xf_ffff;
            let addr = if i % 3 == 0 { base } else { (x >> 43) & 0xfff };
            let write = x & 3 == 0;
            if i % 5 < 3 {
                fast.warm_data(addr, write);
                slow.warm_data(addr, write);
                // Repeat within the line: the filter's bread and butter.
                fast.warm_data(addr ^ 8, write);
                slow.warm_data(addr ^ 8, write);
            } else {
                assert_eq!(
                    fast.data_access(addr, write, i * 7),
                    slow.data_access(addr, write, i * 7),
                    "latency diverged at access {i}"
                );
            }
        }
        assert!(fast.take_filter_hits() > 0, "filter exercised");
        assert_eq!(slow.take_filter_hits(), 0);
        assert_eq!(fast.l1d.stats(), slow.l1d.stats());
        assert_eq!(fast.l2.stats(), slow.l2.stats());
        assert_eq!(fast.dtlb.counts(), slow.dtlb.counts());
        assert_eq!(fast.stats(), slow.stats());
        for a in (0..0x10_0000u64).step_by(4096) {
            assert_eq!(fast.l1d.probe(a), slow.l1d.probe(a), "addr {a:#x}");
            assert_eq!(fast.l2.probe(a), slow.l2.probe(a), "addr {a:#x}");
        }
    }

    #[test]
    fn writeback_of_dirty_l1_victim_updates_l2() {
        // Force L1D evictions with a tiny L1D.
        let mut cfg = SimConfig::table3(1);
        cfg.l1d.size_bytes = 128; // 2 lines of 64B
        cfg.l1d.assoc = 1;
        let mut m = MemoryHierarchy::new(&cfg);
        m.data_access(0x0000, true, 0); // dirty in L1D set 0
        m.data_access(0x0080, true, 1000); // set 0 again -> evict dirty 0x0000
        assert!(
            m.l2.probe(0x0000),
            "dirty victim written back resides in L2"
        );
        assert!(m.l1d.stats().writebacks >= 1);
    }
}
