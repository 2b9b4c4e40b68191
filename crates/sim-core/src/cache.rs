//! Set-associative, write-back, write-allocate cache model with true LRU
//! replacement, plus the fully-associative TLB model.
//!
//! These are *state* models: they track tags and replacement order and report
//! hits/misses; latency accounting lives in [`crate::memory`]. Keeping state
//! separate from timing is what lets SMARTS-style *functional warming*
//! (update the state, skip the timing) reuse the exact same code path as
//! detailed simulation.

use crate::config::{CacheConfig, TlbConfig};
use crate::isa::Addr;
use crate::state::ByteWriter;

/// Running counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (reads + writes + fetches); excludes prefetch fills.
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines written back on eviction.
    pub writebacks: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Demand hits on prefetched lines that were never demanded before
    /// (useful prefetches).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Demand hit rate in `[0, 1]`; `1.0` when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Set by a prefetch fill, cleared at first demand hit.
    prefetched: bool,
    /// Cycle at which a prefetched line finishes arriving (0 = ready).
    ready_at: u64,
    stamp: u64,
}

/// The result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// On a miss that evicted a dirty line, the victim's line address.
    pub writeback: Option<Addr>,
    /// This hit was the *first* demand touch of a prefetched line (used for
    /// tagged-prefetch triggering and in-flight latency accounting).
    pub first_prefetch_hit: bool,
    /// When `first_prefetch_hit`, the cycle the line finishes arriving; the
    /// consumer must wait out `ready_at - now` if it touches the line early.
    pub ready_at: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are decomposed as `tag | set | offset`. A miss *installs* the
/// line (write-allocate); the caller is responsible for charging the fill
/// latency through the memory hierarchy.
///
/// ```
/// use sim_core::cache::Cache;
/// use sim_core::config::CacheConfig;
///
/// let mut l1d = Cache::new(CacheConfig::new(32, 2, 64, 1)); // 32 KB, 2-way
/// assert!(!l1d.access(0x1000, false).hit, "cold miss");
/// assert!(l1d.access(0x1000, false).hit, "now resident");
/// assert_eq!(l1d.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// Packed `(tag << 1) | valid` per way, mirroring `lines`. Tag probes
    /// scan this dense array — one host cache line per simulated set —
    /// instead of striding over the full `Line` records. Derived state:
    /// rebuilt on load, never serialized.
    tagv: Vec<u64>,
    assoc: usize,
    /// Per-set most-recent-hit way, checked before the full tag scan.
    /// Purely a probe accelerator (a stale hint just misses and falls
    /// through); derived state, zeroed on load/reset, never serialized.
    way_hint: Vec<u16>,
    set_mask: u64,
    line_shift: u32,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from its geometry.
    ///
    /// # Panics
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache geometry");
        let sets = cfg.num_sets();
        let assoc = cfg.assoc as usize;
        Cache {
            lines: vec![Line::default(); sets as usize * assoc],
            tagv: vec![0; sets as usize * assoc],
            assoc,
            way_hint: vec![0; sets as usize],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            stamp: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics without touching cache state (used at the
    /// warm-up/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all lines and clear statistics (cold start).
    pub fn reset_state(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.tagv.fill(0);
        self.way_hint.fill(0);
        self.stamp = 0;
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_idx(&self, addr: Addr) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, addr: Addr) -> u64 {
        addr >> self.line_shift
    }

    /// The address of the first byte of the line containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !((1u64 << self.line_shift) - 1)
    }

    /// The line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.cfg.line_bytes
    }

    /// Demand access. On a miss the line is installed (write-allocate) and a
    /// dirty victim, if any, is reported for write-back accounting.
    pub fn access(&mut self, addr: Addr, write: bool) -> AccessResult {
        let way = self.probe_way(addr);
        self.access_at(addr, write, way)
    }

    /// [`Cache::access`] with the tag scan already done (`way` from
    /// [`Cache::probe_way`] on the same address, against unchanged state).
    pub fn access_at(&mut self, addr: Addr, write: bool, way: Option<usize>) -> AccessResult {
        self.stamp += 1;
        self.stats.accesses += 1;
        let set = self.set_idx(addr);
        let tag = self.tag_of(addr);
        debug_assert_eq!(way, self.probe_way(addr), "stale probe_way hint");

        if let Some(way) = way {
            self.way_hint[set] = way as u16;
            let line = &mut self.lines[set * self.assoc + way];
            line.stamp = self.stamp;
            line.dirty |= write;
            let first_prefetch_hit = line.prefetched;
            let ready_at = line.ready_at;
            if first_prefetch_hit {
                line.prefetched = false;
                line.ready_at = 0;
                self.stats.prefetch_hits += 1;
            }
            return AccessResult {
                hit: true,
                writeback: None,
                first_prefetch_hit,
                ready_at,
            };
        }

        self.stats.misses += 1;
        let writeback = self.install(set, tag, write, false);
        AccessResult {
            hit: false,
            writeback,
            first_prefetch_hit: false,
            ready_at: 0,
        }
    }

    /// Count a demand hit whose full access was skipped by an *exact*
    /// line-skip filter (see `memory`): the caller has proven the access
    /// would change nothing but the access counter — line already MRU, dirty
    /// bit unchanged, no prefetch transition — so only the counter moves.
    /// Skipping the LRU stamp bump is safe because restamping the MRU line
    /// preserves every within-set stamp *ordering*, which is all that
    /// replacement decisions and stats depend on.
    #[inline]
    pub fn count_filtered_hit(&mut self) {
        self.stats.accesses += 1;
    }

    /// Check for presence without updating replacement state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        self.probe_way(addr).is_some()
    }

    /// The way holding `addr`'s line, if present; no state is touched.
    /// Feed the result to [`Cache::access_at`] to avoid a second tag scan.
    ///
    /// The scan is seeded with the set's last-hit way (exact: the hint is
    /// only trusted when its tag entry matches). The scan itself folds
    /// eight compares at a time into a bit mask, so where in the set the
    /// line sits costs no mispredicted branch; tags are unique within a
    /// set, so any match is *the* match.
    #[inline]
    pub fn probe_way(&self, addr: Addr) -> Option<usize> {
        let set = self.set_idx(addr);
        let want = (self.tag_of(addr) << 1) | 1;
        let base = set * self.assoc;
        let ways = &self.tagv[base..base + self.assoc];
        let hint = self.way_hint[set] as usize;
        if ways.get(hint) == Some(&want) {
            return Some(hint);
        }
        for (g, group) in ways.chunks(8).enumerate() {
            let mut hits = 0u32;
            for (w, &t) in group.iter().enumerate() {
                hits |= u32::from(t == want) << w;
            }
            if hits != 0 {
                return Some(8 * g + hits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Host-side software prefetch of the tag-mirror line for `addr`'s set.
    /// A pure `prefetcht0` hint for a probe the caller expects to make soon
    /// (e.g. an MSHR-blocked load retrying after an idle jump); simulated
    /// state and statistics are untouched. No-op off x86-64.
    #[inline]
    pub fn prefetch_tags(&self, addr: Addr) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            let base = self.set_idx(addr) * self.assoc;
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                self.tagv.as_ptr().add(base).cast(),
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// Install a line on behalf of the prefetcher, arriving at cycle
    /// `ready_at`. Does nothing if the line is already present. Returns a
    /// dirty victim's line address, if any.
    pub fn prefetch_fill(&mut self, addr: Addr, ready_at: u64) -> Option<Addr> {
        if self.probe(addr) {
            return None;
        }
        self.stamp += 1;
        self.stats.prefetch_fills += 1;
        let set = self.set_idx(addr);
        let tag = self.tag_of(addr);
        self.install_with(set, tag, false, true, ready_at)
    }

    fn install(&mut self, set: usize, tag: u64, dirty: bool, prefetched: bool) -> Option<Addr> {
        self.install_with(set, tag, dirty, prefetched, 0)
    }

    fn install_with(
        &mut self,
        set: usize,
        tag: u64,
        dirty: bool,
        prefetched: bool,
        ready_at: u64,
    ) -> Option<Addr> {
        let base = set * self.assoc;
        let ways = &mut self.lines[base..base + self.assoc];
        // Prefer an invalid way; otherwise evict true-LRU.
        let victim = match ways.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let mut idx = 0;
                let mut oldest = u64::MAX;
                for (i, l) in ways.iter().enumerate() {
                    if l.stamp < oldest {
                        oldest = l.stamp;
                        idx = i;
                    }
                }
                idx
            }
        };
        let line = &mut ways[victim];
        let writeback = if line.valid && line.dirty {
            self.stats.writebacks += 1;
            Some(line.tag << self.line_shift)
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            ready_at,
            stamp: self.stamp,
        };
        self.tagv[set * self.assoc + victim] = (tag << 1) | 1;
        self.way_hint[set] = victim as u16;
        writeback
    }

    /// Number of currently valid lines (diagnostics/tests).
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Set-associative (4-way, LRU) translation lookaside buffer.
///
/// Tracks virtual page numbers only (our simulated address space is flat, so
/// the translation itself is the identity; what matters is the miss penalty).
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `(vpn, stamp, valid)`, `sets * WAYS` entries.
    entries: Vec<(u64, u64, bool)>,
    set_mask: u64,
    stamp: u64,
    accesses: u64,
    misses: u64,
    page_shift: u32,
}

/// TLB associativity (fixed; the paper varies entry count, not shape).
const TLB_WAYS: usize = 4;

impl Tlb {
    /// Build a TLB from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`TlbConfig::validate`].
    pub fn new(cfg: TlbConfig) -> Self {
        cfg.validate().expect("invalid TLB configuration");
        let sets = (cfg.entries as usize / TLB_WAYS).max(1);
        Tlb {
            entries: vec![(0, 0, false); sets * TLB_WAYS],
            set_mask: sets as u64 - 1,
            stamp: 0,
            accesses: 0,
            misses: 0,
            page_shift: cfg.page_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// Translate `addr`; returns `true` on a TLB hit. A miss installs the
    /// page (the caller charges [`TlbConfig::miss_latency`]).
    pub fn access(&mut self, addr: Addr) -> bool {
        self.stamp += 1;
        self.accesses += 1;
        let vpn = addr >> self.page_shift;
        let base = ((vpn & self.set_mask) as usize) * TLB_WAYS;
        let set = &mut self.entries[base..base + TLB_WAYS];
        for e in set.iter_mut() {
            if e.2 && e.0 == vpn {
                e.1 = self.stamp;
                return true;
            }
        }
        self.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.2 { e.1 } else { 0 })
            .expect("TLB set is nonempty");
        *victim = (vpn, self.stamp, true);
        false
    }

    /// The virtual page number `addr` translates under (used by the
    /// line-skip filter to prove a repeat access stays on the MRU page).
    #[inline]
    pub fn vpn(&self, addr: Addr) -> u64 {
        addr >> self.page_shift
    }

    /// Count a hit whose lookup was skipped by an exact line-skip filter:
    /// the page is provably the set's MRU entry, so restamping it would not
    /// change any within-set ordering. Only the access counter moves.
    #[inline]
    pub fn count_filtered_hit(&mut self) {
        self.accesses += 1;
    }

    /// (accesses, misses) counters.
    pub fn counts(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }

    /// Miss penalty in cycles.
    pub fn miss_latency(&self) -> u64 {
        self.cfg.miss_latency
    }

    /// Reset statistics, keeping translation state.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidate all entries and clear statistics.
    pub fn reset_state(&mut self) {
        self.entries.fill((0, 0, false));
        self.stamp = 0;
        self.reset_stats();
    }
}

// State encoding (see `crate::state`): derived geometry comes from the
// config; only contents, LRU stamps, and stats are written.
impl Cache {
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.stamp);
        w.put_usize(self.lines.len());
        for l in &self.lines {
            w.put_u64(l.tag);
            w.put_bool(l.valid);
            w.put_bool(l.dirty);
            w.put_bool(l.prefetched);
            w.put_u64(l.ready_at);
            w.put_u64(l.stamp);
        }
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.writebacks);
        w.put_u64(self.stats.prefetch_fills);
        w.put_u64(self.stats.prefetch_hits);
    }
}

impl Tlb {
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.stamp);
        w.put_usize(self.entries.len());
        for &(vpn, stamp, valid) in &self.entries {
            w.put_u64(vpn);
            w.put_u64(stamp);
            w.put_bool(valid);
        }
        w.put_u64(self.accesses);
        w.put_u64(self.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x103f, false).hit, "same line, different offset");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three distinct lines mapping to set 0 (line 64B, 2 sets => set =
        // bit 6). Addresses with bit6==0: 0x000, 0x100, 0x200.
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000, making 0x100 LRU
        c.access(0x200, false); // evicts 0x100
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        let r = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(r.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty_for_later_eviction() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x000, true); // hit, becomes dirty
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert_eq!(r.writeback, Some(0x000));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x100, false);
        for _ in 0..10 {
            assert!(c.probe(0x000));
        }
        // 0x000 is still LRU-older than 0x100 because probes don't touch.
        c.access(0x100, false);
        c.access(0x200, false);
        assert!(!c.probe(0x000), "0x000 should have been the LRU victim");
        assert_eq!(c.stats().accesses, 4, "probes must not count as accesses");
    }

    #[test]
    fn prefetch_fill_installs_without_counting_demand() {
        let mut c = small_cache();
        assert!(c.prefetch_fill(0x000, 0).is_none());
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        let r = c.access(0x000, false);
        assert!(r.hit);
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second hit on the same line no longer counts as a prefetch hit.
        c.access(0x000, false);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_fill_is_idempotent_when_present() {
        let mut c = small_cache();
        c.access(0x000, false);
        assert!(c.prefetch_fill(0x000, 0).is_none());
        assert_eq!(c.stats().prefetch_fills, 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x000, false).hit, "contents survived reset_stats");
    }

    #[test]
    fn reset_state_cold_starts() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.reset_state();
        assert!(!c.access(0x000, false).hit);
    }

    #[test]
    fn hit_rate_with_no_accesses_is_one() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn tlb_hits_within_page_and_misses_across() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 4096,
            miss_latency: 30,
        });
        assert!(!t.access(0x0000));
        assert!(t.access(0x0fff), "same page");
        assert!(!t.access(0x1000), "next page");
        let (a, m) = t.counts();
        assert_eq!((a, m), (3, 2));
    }

    #[test]
    fn tlb_lru_replacement_within_a_set() {
        // 4 entries = one 4-way set: the fifth distinct page evicts the LRU.
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 4096,
            miss_latency: 30,
        });
        for p in 0..4u64 {
            t.access(p << 12);
        }
        t.access(0); // touch page 0; page 1 is now LRU
        t.access(4 << 12); // page 4 evicts page 1
        assert!(t.access(0), "page 0 retained");
        assert!(!t.access(1 << 12), "page 1 evicted");
        assert!(t.access(4 << 12), "page 4 resident");
    }

    #[test]
    fn tlb_rejects_bad_geometry() {
        let bad = TlbConfig {
            entries: 6,
            page_bytes: 4096,
            miss_latency: 30,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small_cache();
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_bytes(), 64);
    }

    /// Ground truth for `probe_way` straight from the `Line` records,
    /// bypassing the tag mirror and the way hint.
    fn reference_way(c: &Cache, addr: Addr) -> Option<usize> {
        let base = c.set_idx(addr) * c.assoc;
        let tag = c.tag_of(addr);
        c.lines[base..base + c.assoc]
            .iter()
            .position(|l| l.valid && l.tag == tag)
    }

    #[test]
    fn probe_way_matches_line_records_under_pressure() {
        // 8-way, with enough distinct lines to force evictions and stale
        // way hints.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            assoc: 8,
            line_bytes: 64,
            latency: 1,
        });
        let mut x = 0x2468_ace0_1357_9bdfu64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) & 0x3fff;
            assert_eq!(c.probe_way(addr), reference_way(&c, addr));
            c.access(addr, x & 1 == 0);
            assert_eq!(c.probe_way(addr), reference_way(&c, addr));
            let other = (x >> 40) & 0x3fff;
            assert_eq!(c.probe_way(other), reference_way(&c, other));
        }
    }

    #[test]
    fn count_filtered_hit_moves_only_the_access_counter() {
        let mut c = small_cache();
        c.access(0x000, false);
        let before = *c.stats();
        let lines_before = c.lines.clone();
        let stamp_before = c.stamp;
        c.count_filtered_hit();
        assert_eq!(c.stats().accesses, before.accesses + 1);
        assert_eq!(c.stats().misses, before.misses);
        assert_eq!(c.stats().writebacks, before.writebacks);
        assert_eq!(c.stamp, stamp_before, "no LRU stamp consumed");
        for (a, b) in c.lines.iter().zip(&lines_before) {
            assert_eq!(a.stamp, b.stamp, "no line restamped");
        }
    }
}
