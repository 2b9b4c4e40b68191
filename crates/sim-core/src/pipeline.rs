//! The cycle-level out-of-order pipeline model.
//!
//! A five-stage superscalar core in the SimpleScalar `sim-outorder` mold:
//! fetch (I-cache + branch prediction) → dispatch (ROB/IQ/LSQ allocation) →
//! issue (dataflow + functional-unit + memory-port arbitration) → writeback →
//! commit. The model is trace-driven: wrong-path instructions are not
//! simulated; a misprediction stalls the front end until the branch resolves
//! and then charges the configured redirect penalty.
//!
//! The main loop is *event-accelerated*: cycles in which provably nothing can
//! happen (e.g. the 300-cycle shadow of a DRAM access with a full window) are
//! skipped in O(1), which matters enormously for memory-bound workloads like
//! the paper's `mcf`.

use crate::branch::BranchPredictor;
use crate::config::SimConfig;
use crate::isa::{DynInst, InstStream, OpClass, REG_ZERO};
use crate::memory::MemoryHierarchy;
use crate::state::{put_inst, ByteWriter};
use crate::stats::CoreCounters;

const NOT_ISSUED: u64 = u64::MAX;

/// Low bits of a ROB entry's packed `flags` byte: outstanding producers.
const FLAG_PENDING_MASK: u8 = 0b0000_0011;
/// Single-cycle op that executes on an integer ALU (plain int ALU ops,
/// no-ops, and every control-transfer class — branch units share the integer
/// ALUs). Decided once at dispatch so the issue scan's dominant arm is one
/// predictable flag test instead of a multi-way jump on the op class.
/// Derived state like [`FLAG_TRIVIAL`]: rebuilt on deserialize.
const FLAG_FAST_ALU: u8 = 0b0000_0100;
/// The entry's result has been written back.
const FLAG_COMPLETED: u8 = 0b0001_0000;
/// The front end followed the wrong path after this control instruction.
const FLAG_MISPREDICTED: u8 = 0b0010_0000;
/// Dynamically trivial and simplified by the TC enhancement.
const FLAG_SIMPLIFIED: u8 = 0b0100_0000;
/// Trivial instance of a TC-candidate op under a TC-enabled config, decided
/// once at dispatch so the issue scan reads one flag byte instead of the
/// 40-byte instruction record. Derived state: rebuilt from the instruction
/// on deserialize, never serialized itself.
const FLAG_TRIVIAL: u8 = 0b1000_0000;

/// Capacity of the fetch-ahead decode buffer. Refills are free in simulated
/// time, so every capacity yields identical results; 64 amortizes stream
/// dispatch over a few basic blocks.
const FETCH_BATCH: usize = 64;

/// The reorder buffer in struct-of-arrays layout: one ring buffer per field,
/// all sized once from `SimConfig::rob_entries`. The issue/writeback/commit
/// loops touch one or two fields per entry per cycle; splitting the arrays
/// keeps those scans on dense, homogeneous cache lines instead of striding
/// over 100-byte AoS entries, and allocation happens exactly once per core.
#[derive(Debug, Clone)]
struct Rob {
    cap: usize,
    head: usize,
    len: usize,
    inst: Box<[DynInst]>,
    /// Dense copy of each entry's opcode. Commit and issue need only the
    /// opcode most of the time; a one-byte array keeps those loads off the
    /// 40-byte-strided `inst` records.
    ops: Box<[OpClass]>,
    /// Producer seq+1 per source operand; 0 = no dependence.
    deps: Box<[[u64; 2]]>,
    /// Completion cycle; `NOT_ISSUED` until issued.
    done_cycle: Box<[u64]>,
    /// Packed per-entry status: [`FLAG_PENDING_MASK`] holds the count of
    /// outstanding (not yet completed) producers, the high bits the
    /// completed/mispredicted/simplified booleans. One byte per entry means
    /// the per-cycle loops do a single load (and at most one read-modify-
    /// write) where four parallel arrays would cost four.
    flags: Box<[u8]>,

    // Wakeup scoreboard (derived state, rebuilt on deserialize): instead of
    // re-deriving operand readiness from `deps` for every waiting IQ
    // entry every cycle, each entry carries a count of outstanding producers
    // and each producer keeps an intrusive list of its waiters, walked once
    // at writeback. The issue scan then reads a single byte per entry.
    /// Head of this producer's waiter list: `consumer_slot * 2 + k + 1`
    /// where `k` selects the consumer's chain pointer; 0 = empty.
    waiters_head: Box<[u32]>,
    /// Chain pointer for this consumer's dep-0 membership (same encoding).
    wnext0: Box<[u32]>,
    /// Chain pointer for this consumer's dep-1 membership (same encoding).
    wnext1: Box<[u32]>,
    /// For loads: seq+1 of the youngest older in-flight store to the same
    /// 8-byte granule at dispatch time; 0 = none. Stores dispatch in program
    /// order, so the forwarding source can never appear after the load —
    /// computing it once at dispatch replaces the per-issue-attempt reverse
    /// scan of the store queue. A source that has since committed reads as
    /// absent (`seq < head_seq`), which matches the scan exactly: in-order
    /// commit guarantees no older same-granule store outlives it. Derived
    /// state: rebuilt from the restored LSQ on deserialize, never serialized.
    fwd_store: Box<[u64]>,
}

impl Rob {
    fn new(cap: usize) -> Self {
        Rob {
            cap,
            head: 0,
            len: 0,
            inst: vec![DynInst::int_alu(0); cap].into_boxed_slice(),
            ops: vec![OpClass::Nop; cap].into_boxed_slice(),
            deps: vec![[0, 0]; cap].into_boxed_slice(),
            done_cycle: vec![0; cap].into_boxed_slice(),
            flags: vec![0; cap].into_boxed_slice(),
            waiters_head: vec![0; cap].into_boxed_slice(),
            wnext0: vec![0; cap].into_boxed_slice(),
            wnext1: vec![0; cap].into_boxed_slice(),
            fwd_store: vec![0; cap].into_boxed_slice(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Teach the optimizer the structural invariants the lane indexing
    /// relies on: every lane holds exactly `cap` elements (allocated once
    /// in [`Rob::new`], never resized) and `head` stays in range. With
    /// these facts visible, LLVM drops the slice bounds checks on the
    /// masked-slot indexing in the per-cycle stage loops — checks it
    /// otherwise re-proves (and branches on) for every lane touched per
    /// entry per cycle.
    ///
    /// # Safety
    /// The asserted facts are genuine invariants of this type; they are
    /// additionally verified by `debug_assert!`s in debug builds.
    #[inline(always)]
    fn assume_invariants(&self) {
        macro_rules! lane {
            ($f:ident) => {
                debug_assert_eq!(self.$f.len(), self.cap);
                unsafe { core::hint::assert_unchecked(self.$f.len() == self.cap) }
            };
        }
        lane!(inst);
        lane!(ops);
        lane!(deps);
        lane!(done_cycle);
        lane!(flags);
        lane!(waiters_head);
        lane!(wnext0);
        lane!(wnext1);
        lane!(fwd_store);
        debug_assert!(self.head < self.cap && self.len <= self.cap);
        unsafe { core::hint::assert_unchecked(self.head < self.cap && self.len <= self.cap) }
    }

    /// Physical slot of the entry `off` places past the oldest.
    #[inline]
    fn slot(&self, off: usize) -> usize {
        debug_assert!(off < self.len);
        let i = self.head + off;
        let i = if i >= self.cap { i - self.cap } else { i };
        // In-range by construction: `off < len <= cap` and `head < cap`, so
        // `head + off < 2 * cap` and the conditional subtract lands in
        // `0..cap`. Stating it lets the lane indexing compile check-free.
        unsafe { core::hint::assert_unchecked(i < self.cap) }
        i
    }

    /// Append one dispatched instruction: copies the record straight from
    /// a borrowed slot (no intermediate stack copy) and writes the
    /// dispatch-time forwarding source in the same pass.
    #[inline]
    fn push_back_from(&mut self, inst: &DynInst, deps: [u64; 2], init_flags: u8, fwd: u64) {
        debug_assert!(self.len < self.cap);
        let mut i = self.head + self.len;
        if i >= self.cap {
            i -= self.cap;
        }
        self.ops[i] = inst.op;
        self.inst[i] = *inst;
        self.deps[i] = deps;
        self.done_cycle[i] = NOT_ISSUED;
        self.flags[i] = init_flags;
        self.fwd_store[i] = fwd;
        debug_assert_eq!(self.waiters_head[i], 0, "reused slot has stale waiters");
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.len -= 1;
    }
}

/// Slot-indexed bitmap over the ROB ring of IQ entries whose operands are
/// all ready (pending == 0). Wakeup sets a bit, issue clears it; both are
/// O(1) single-word ops, replacing the sorted `Vec<u64>` whose seq-ordered
/// inserts and two-cursor compactions moved memory on every wakeup and
/// issue. Oldest-first issue priority falls out of ring order: walking the
/// bits from `head` around the ring visits slots in exactly seq order, so
/// issue decisions are identical to the sorted-list scan.
#[derive(Debug, Clone)]
struct ReadySet {
    words: Box<[u64]>,
    count: u32,
}

impl ReadySet {
    fn new(cap: usize) -> Self {
        ReadySet {
            words: vec![0; cap.div_ceil(64)].into_boxed_slice(),
            count: 0,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn insert(&mut self, slot: usize) {
        debug_assert_eq!(self.words[slot >> 6] >> (slot & 63) & 1, 0, "already ready");
        self.words[slot >> 6] |= 1u64 << (slot & 63);
        self.count += 1;
    }

    #[inline]
    fn remove(&mut self, slot: usize) {
        debug_assert_eq!(self.words[slot >> 6] >> (slot & 63) & 1, 1, "not ready");
        self.words[slot >> 6] &= !(1u64 << (slot & 63));
        self.count -= 1;
    }

    /// Set bits of `words[wi]` restricted to slots in `[lo, hi)`.
    #[inline]
    fn masked_word(&self, wi: usize, lo: usize, hi: usize) -> u64 {
        let mut w = self.words[wi];
        if wi == lo >> 6 {
            w &= !0u64 << (lo & 63);
        }
        if hi & 63 != 0 && wi == hi >> 6 {
            w &= (1u64 << (hi & 63)) - 1;
        }
        w
    }

    /// Visit ready slots oldest-first (ring order starting at `head`, over a
    /// ring of `cap` slots) until `f` returns `false`.
    #[inline]
    fn visit_from<F: FnMut(usize) -> bool>(&self, head: usize, cap: usize, mut f: F) {
        for (lo, hi) in [(head, cap), (0, head)] {
            for wi in lo >> 6..hi.div_ceil(64) {
                let mut w = self.masked_word(wi, lo, hi);
                while w != 0 {
                    let slot = (wi << 6) + w.trailing_zeros() as usize;
                    w &= w - 1;
                    if !f(slot) {
                        return;
                    }
                }
            }
        }
    }
}

/// Indexed calendar (bucket) queue for issue→writeback completion events.
///
/// An event completing at cycle `t` lands in `buckets[t % W]`; `W` is a
/// power of two sized at construction to comfortably exceed the longest
/// possible completion latency, so in practice each bucket holds events of
/// a single cycle. Correctness never depends on `W`: the drain filters on
/// the exact cycle, so a colliding event `W` cycles out simply stays put.
///
/// `next_t` is maintained as the *exact* earliest pending completion cycle,
/// which makes the common per-cycle writeback check one integer compare
/// (the `BinaryHeap` this replaces paid a peek plus `pop`/sift per event)
/// and gives `next_event_cycle` its idle-jump target in O(1).
#[derive(Debug, Clone)]
struct CalendarQueue {
    buckets: Vec<Vec<(u64, u64)>>,
    /// Occupancy bitmap over the bucket directory (bit set ⇔ bucket
    /// non-empty), so the advance scan skips runs of empty buckets with a
    /// `trailing_zeros` instead of probing each bucket's `Vec` header.
    bits: Vec<u64>,
    mask: u64,
    len: usize,
    /// Exact earliest pending completion cycle; `u64::MAX` when empty.
    next_t: u64,
}

impl CalendarQueue {
    fn new(window: u64) -> Self {
        debug_assert!(window.is_power_of_two() && window >= 64);
        CalendarQueue {
            buckets: vec![Vec::new(); window as usize],
            bits: vec![0; (window / 64) as usize],
            mask: window - 1,
            len: 0,
            next_t: u64::MAX,
        }
    }

    /// Earliest pending completion cycle; `u64::MAX` when empty.
    #[inline]
    fn next_t(&self) -> u64 {
        self.next_t
    }

    #[inline]
    fn push(&mut self, t: u64, seq: u64) {
        let idx = (t & self.mask) as usize;
        self.buckets[idx].push((t, seq));
        self.bits[idx >> 6] |= 1u64 << (idx & 63);
        self.len += 1;
        if t < self.next_t {
            self.next_t = t;
        }
    }

    /// Pop every event with `t <= now`, invoking `f(seq)` for each.
    /// Returns whether anything was popped.
    fn drain_due(&mut self, now: u64, mut f: impl FnMut(u64)) -> bool {
        if self.next_t > now {
            return false;
        }
        while self.next_t <= now {
            let c = self.next_t;
            let idx = (c & self.mask) as usize;
            let b = &mut self.buckets[idx];
            let mut i = 0;
            while i < b.len() {
                if b[i].0 == c {
                    let (_, seq) = b.swap_remove(i);
                    self.len -= 1;
                    f(seq);
                } else {
                    i += 1;
                }
            }
            if b.is_empty() {
                self.bits[idx >> 6] &= !(1u64 << (idx & 63));
            }
            self.advance_from(c + 1);
        }
        true
    }

    /// Recompute `next_t` knowing every pending event is at cycle ≥ `from`.
    /// The occupancy bitmap lets the scan leap over runs of empty buckets,
    /// so the common case (next event a handful of cycles out) costs one or
    /// two word loads rather than a probe of every intervening bucket.
    fn advance_from(&mut self, from: u64) {
        if self.len == 0 {
            self.next_t = u64::MAX;
            return;
        }
        let window = self.buckets.len() as u64;
        let mut d = 0u64;
        while d < window {
            let idx = ((from + d) & self.mask) as usize;
            let word = self.bits[idx >> 6] >> (idx & 63);
            if word == 0 {
                // Jump to the next bitmap word boundary.
                d += 64 - (idx as u64 & 63);
                continue;
            }
            let z = word.trailing_zeros() as u64;
            if z > 0 {
                d += z;
                continue;
            }
            let t = from + d;
            if self.buckets[idx].iter().any(|&(et, _)| et == t) {
                self.next_t = t;
                return;
            }
            // Occupied bucket holding only far-epoch collisions: keep going.
            d += 1;
        }
        // A colliding event sits ≥ window cycles out: exact full scan.
        self.next_t = self
            .buckets
            .iter()
            .flatten()
            .map(|&(t, _)| t)
            .min()
            .expect("len > 0 implies a pending event");
    }

    /// All pending `(t, seq)` events, in unspecified order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().flatten().copied()
    }

    /// Visit every pending event due exactly at cycle `t` without modifying
    /// the queue (used to prefetch their ROB lines ahead of an idle jump).
    fn peek_due(&self, t: u64, mut f: impl FnMut(u64)) {
        if self.next_t > t {
            return;
        }
        let idx = (t & self.mask) as usize;
        for &(et, seq) in &self.buckets[idx] {
            if et == t {
                f(seq);
            }
        }
    }
}

/// Fixed-capacity power-of-two ring for the IFQ, LSQ, and store queue.
/// Every capacity is configuration-fixed, so push/pop compile to a masked
/// index bump — none of `VecDeque`'s growth checks or spill handling sit on
/// the per-instruction path. Callers enforce their configured occupancy
/// limits before pushing; the ring itself only debug-asserts.
#[derive(Debug, Clone)]
struct FixedRing<T> {
    buf: Box<[T]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl<T: Copy> FixedRing<T> {
    /// A ring holding at least `cap` elements, pre-filled with `fill`.
    fn new(cap: usize, fill: T) -> Self {
        let cap = cap.next_power_of_two();
        FixedRing {
            buf: vec![fill; cap].into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            Some(&self.buf[self.head])
        }
    }

    #[inline]
    fn push_back(&mut self, v: T) {
        debug_assert!(self.len <= self.mask, "ring overflow");
        self.buf[(self.head + self.len) & self.mask] = v;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(v)
    }

    /// Front-to-back iteration (supports `.rev()`).
    fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self.buf[(self.head + i) & self.mask])
    }
}

/// An instruction sitting in the fetch queue.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    inst: DynInst,
    mispredicted: bool,
}

#[derive(Debug, Clone, Copy)]
struct LsqSlot {
    seq: u64,
    /// Effective address aligned to 8 bytes (the forwarding granule).
    granule: u64,
    is_store: bool,
}

/// The out-of-order core. Drives [`MemoryHierarchy`] and [`BranchPredictor`]
/// in detailed mode; exposes them for functional warming.
#[derive(Debug, Clone)]
pub struct Core {
    cfg: SimConfig,
    /// The cache/TLB/DRAM complex.
    pub mem: MemoryHierarchy,
    /// The branch predictor.
    pub bpred: BranchPredictor,
    counters: CoreCounters,

    now: u64,
    seq_next: u64,
    head_seq: u64,
    rob: Rob,
    ifq: FixedRing<Fetched>,
    /// Issue-queue occupancy. Membership is implicit — an in-flight ROB
    /// entry is in the IQ iff its `done_cycle` is still `NOT_ISSUED` — so
    /// only the count is materialized (it gates dispatch).
    iq_len: usize,
    /// ROB slots of IQ entries whose operands are all ready (pending == 0).
    /// The issue stage walks only these bits; the dep-waiting majority of
    /// the IQ is never scanned. Ring order from the ROB head recovers
    /// oldest-first issue priority (see [`ReadySet`]).
    ready: ReadySet,
    lsq: FixedRing<LsqSlot>,
    /// In-flight *stores* only, `(seq, granule)` in program order. The
    /// dispatch-time forwarding scan walks this instead of the whole LSQ,
    /// so loads never walk over other loads.
    store_q: FixedRing<(u64, u64)>,
    completions: CalendarQueue,
    /// Fast path for the dominant completion latency: seqs of instructions
    /// issued this cycle that complete exactly next cycle (`done_next_t`),
    /// bypassing the calendar queue's bucket machinery. Drained in full by
    /// the next writeback; within-cycle completion order is immaterial
    /// (ready-list inserts are seq-ordered), and serialization merges these
    /// with the calendar's events into one sorted list, so snapshots are
    /// byte-identical to a calendar-only core.
    done_next: Vec<u64>,
    /// Completion cycle of every seq in `done_next`.
    done_next_t: u64,
    /// Producer seq+1 per architectural register; 0 = none in flight.
    reg_producer: [u64; crate::isa::NUM_REGS],

    fetch_resume: u64,
    /// Waiting for an un-issued mispredicted branch to resolve.
    fetch_blocked: bool,
    last_fetch_line: u64,
    /// An instruction whose I-cache miss is in flight.
    fetch_pending: Option<DynInst>,

    /// Fetch-ahead decode buffer, refilled via [`InstStream::next_block`] so
    /// stream dispatch is paid once per block instead of once per fetched
    /// instruction. Refills are free in simulated time; all timing effects
    /// (I-cache probes, branch prediction) still happen in `do_fetch` as
    /// instructions leave the buffer, so metrics are batch-independent.
    fetch_buf: Vec<DynInst>,
    fetch_buf_pos: usize,
    /// Decode-buffer capacity ([`FETCH_BATCH`]; tests vary it).
    fetch_batch: usize,

    /// Per-unit busy-until for non-pipelined integer divides.
    int_md_busy: Vec<u64>,
    /// Per-unit busy-until for non-pipelined FP divides.
    fp_md_busy: Vec<u64>,

    /// Hot-loop tallies, flushed to the sim-obs metrics registry once per
    /// `run_detailed` call (never serialized; zero outside a run).
    tally_refills: u64,
    tally_refill_insts: u64,
    tally_idle_jumps: u64,
    /// Hot-loop distribution tallies (decode-buffer refill sizes and
    /// idle-jump lengths), merged into the registered `hist.pipeline.*`
    /// histograms by the same per-run flush. Plain-field accumulation: a
    /// record is a handful of integer ops, never an atomic.
    hist_refill: sim_obs::LocalHist,
    hist_jump: sim_obs::LocalHist,
    /// Stage-profiler state, allocated only when `SIM_PROFILE=1` (see
    /// `sim_obs::profile`). Host-time accounting only — never serialized,
    /// never consulted by timing decisions, so reports are byte-identical
    /// with profiling on or off.
    prof: Option<Box<CoreProf>>,
}

/// Per-core stage-profiler accumulation: one loop iteration per
/// [`sim_obs::profile::EPOCH`] is individually timed, everything else just
/// decrements the countdown. Flushed into the process-wide profile once
/// per `run_detailed` call.
#[derive(Debug, Clone)]
struct CoreProf {
    countdown: u32,
    iters: u64,
    sampled: u64,
    stage_ns: [u64; sim_obs::profile::STAGE_COUNT],
    occ_sum: [u64; sim_obs::profile::OCC_COUNT],
}

impl CoreProf {
    fn new() -> Self {
        CoreProf {
            countdown: sim_obs::profile::EPOCH,
            iters: 0,
            sampled: 0,
            stage_ns: [0; sim_obs::profile::STAGE_COUNT],
            occ_sum: [0; sim_obs::profile::OCC_COUNT],
        }
    }
}

impl Core {
    /// Build a core for `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        // Size the calendar window past the longest completion latency this
        // configuration can produce (a DRAM-missing, TLB-missing access plus
        // the slowest arithmetic unit and the redirect penalty) so bucket
        // collisions are effectively impossible; the drain stays correct
        // even if one occurs.
        let worst_latency = cfg.l1d.latency
            + cfg.l2.latency
            + cfg.dram_line_latency(cfg.l2.line_bytes)
            + cfg.itlb.miss_latency.max(cfg.dtlb.miss_latency)
            + cfg
                .int_div_latency
                .max(cfg.fp_div_latency)
                .max(cfg.fp_mult_latency)
                .max(cfg.int_mult_latency)
            + cfg.mispredict_penalty();
        let window = (worst_latency * 2 + 64)
            .next_power_of_two()
            .clamp(256, 1 << 20);
        Core {
            mem: MemoryHierarchy::new(&cfg),
            bpred: BranchPredictor::new(cfg.branch),
            counters: CoreCounters::default(),
            now: 0,
            seq_next: 0,
            head_seq: 0,
            rob: Rob::new(cfg.rob_entries as usize),
            ifq: FixedRing::new(
                cfg.ifq_entries as usize,
                Fetched {
                    inst: DynInst::int_alu(0),
                    mispredicted: false,
                },
            ),
            iq_len: 0,
            ready: ReadySet::new(cfg.rob_entries as usize),
            lsq: FixedRing::new(
                cfg.lsq_entries as usize,
                LsqSlot {
                    seq: 0,
                    granule: 0,
                    is_store: false,
                },
            ),
            store_q: FixedRing::new(cfg.lsq_entries as usize, (0, 0)),
            completions: CalendarQueue::new(window),
            done_next: Vec::with_capacity(cfg.issue_width as usize),
            done_next_t: 0,
            reg_producer: [0; crate::isa::NUM_REGS],
            fetch_resume: 0,
            fetch_blocked: false,
            last_fetch_line: u64::MAX,
            fetch_pending: None,
            fetch_buf: Vec::with_capacity(FETCH_BATCH),
            fetch_buf_pos: 0,
            fetch_batch: FETCH_BATCH,
            int_md_busy: vec![0; cfg.int_mult_divs as usize],
            fp_md_busy: vec![0; cfg.fp_mult_divs as usize],
            tally_refills: 0,
            tally_refill_insts: 0,
            tally_idle_jumps: 0,
            hist_refill: sim_obs::LocalHist::new(),
            hist_jump: sim_obs::LocalHist::new(),
            prof: sim_obs::profile::enabled().then(|| Box::new(CoreProf::new())),
            cfg,
        }
    }

    /// [`Core::new`] with a decode buffer of `fetch_batch` instructions
    /// (capacity-invariance tests).
    #[cfg(test)]
    pub(crate) fn with_fetch_batch(cfg: SimConfig, fetch_batch: usize) -> Self {
        let mut core = Core::new(cfg);
        core.fetch_batch = fetch_batch;
        core.fetch_buf = Vec::with_capacity(fetch_batch);
        core
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Core-owned counters for the current measurement window.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Current cycle (monotone across calls; never reset by `reset_stats`).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Reset the measurement counters (machine state persists).
    pub fn reset_counters(&mut self) {
        self.counters = CoreCounters::default();
    }

    /// Number of in-flight instructions (diagnostics/tests).
    pub fn in_flight(&self) -> usize {
        self.rob.len() + self.ifq.len() + usize::from(self.fetch_pending.is_some())
    }

    /// Physical ROB slot for an in-flight sequence number.
    #[inline]
    fn rob_slot(&self, seq: u64) -> usize {
        self.rob.slot((seq - self.head_seq) as usize)
    }

    /// Run detailed simulation until `limit` further instructions have
    /// committed or the stream is exhausted *and* the pipeline has drained.
    /// Returns the number of instructions committed by this call.
    ///
    /// Generic over the stream so concrete streams (e.g. the `workloads`
    /// interpreter) inline into fetch with no per-instruction virtual
    /// dispatch; `&mut dyn InstStream` works too.
    pub fn run_detailed<S: InstStream + ?Sized>(&mut self, stream: &mut S, limit: u64) -> u64 {
        if self.prof.is_some() {
            return self.run_detailed_profiled(stream, limit);
        }
        self.run_loop::<S, false>(stream, limit)
    }

    /// The stage-profiled instantiation of [`Core::run_loop`], kept out of
    /// line so the unprofiled loop's code stays exactly the hot loop.
    /// (`inline(never)`, not `cold`: a cold attribute would pessimize the
    /// profiled loop's own codegen and inflate the very overhead the
    /// profiler must keep under 2%.)
    #[inline(never)]
    fn run_detailed_profiled<S: InstStream + ?Sized>(&mut self, stream: &mut S, limit: u64) -> u64 {
        self.run_loop::<S, true>(stream, limit)
    }

    /// The detailed loop: one cycle (commit → writeback → issue → dispatch
    /// → fetch) per iteration, idle stretches jumped to the next event.
    ///
    /// With `PROFILE`, one iteration per `sim_obs::profile::EPOCH` is
    /// individually timed (each of the five stages plus the cycle-advance
    /// arm gets its own timestamp pair) and samples ROB / IFQ / LSQ
    /// occupancy; every other iteration only decrements a countdown.
    /// Without it, every profiling branch is compiled out — not even the
    /// countdown remains.
    #[inline(always)]
    fn run_loop<S: InstStream + ?Sized, const PROFILE: bool>(
        &mut self,
        stream: &mut S,
        limit: u64,
    ) -> u64 {
        use std::time::Instant;
        let wall_start = PROFILE.then(Instant::now);
        let start = self.counters.committed;
        let target = start.saturating_add(limit);
        let mut stream_done = false;
        // Move the profiler state out of `self` for the loop's duration:
        // the unsampled (common) path then touches only two locals per
        // iteration — no `Option` discriminant check, no Box deref.
        let mut prof = if PROFILE { self.prof.take() } else { None };
        let mut countdown = prof.as_ref().map_or(0, |p| p.countdown);
        let mut iters: u64 = 0;
        while self.counters.committed < target {
            if PROFILE {
                iters += 1;
                countdown -= 1;
                if countdown == 0 {
                    countdown = sim_obs::profile::EPOCH;
                    let p = prof.as_mut().expect("profiled loop has prof state");
                    if self.sampled_cycle(stream, &mut stream_done, p) {
                        break;
                    }
                    continue;
                }
            }
            let progress = self.step(stream, &mut stream_done);
            if self.drained(stream_done) {
                break;
            }
            self.advance(progress);
        }
        if let (Some(mut p), Some(t)) = (prof, wall_start) {
            p.iters += iters;
            let wall_ns = t.elapsed().as_nanos() as u64;
            sim_obs::profile::add_run(wall_ns, p.iters, p.sampled, p.stage_ns, p.occ_sum);
            *p = CoreProf::new();
            self.prof = Some(p);
        }
        self.flush_pipeline_metrics();
        self.counters.committed - start
    }

    /// Whether the stream is exhausted and the pipeline has drained.
    #[inline(always)]
    fn drained(&self, stream_done: bool) -> bool {
        stream_done && self.rob.is_empty() && self.ifq.is_empty() && self.fetch_pending.is_none()
    }

    /// One individually timed cycle of the profiled loop, accumulated into
    /// `p`. Returns whether the run is over (the pipeline drained).
    fn sampled_cycle<S: InstStream + ?Sized>(
        &mut self,
        stream: &mut S,
        stream_done: &mut bool,
        p: &mut CoreProf,
    ) -> bool {
        use std::time::Instant;
        p.sampled += 1;
        let t0 = Instant::now();
        let a = self.do_writeback();
        let t1 = Instant::now();
        let b = self.do_commit();
        let t2 = Instant::now();
        let c = self.do_issue();
        let t3 = Instant::now();
        let d = self.do_dispatch();
        let t4 = Instant::now();
        let e = self.do_fetch(stream, stream_done);
        let t5 = Instant::now();
        let progress = a | b | c | d | e;
        let done = self.drained(*stream_done);
        if !done {
            self.advance(progress);
        }
        let t6 = Instant::now();
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        let occ = [
            self.rob.len() as u64,
            self.ifq.len() as u64,
            self.lsq.len() as u64,
        ];
        for (acc, v) in p.stage_ns.iter_mut().zip([
            ns(t0, t1),
            ns(t1, t2),
            ns(t2, t3),
            ns(t3, t4),
            ns(t4, t5),
            ns(t5, t6),
        ]) {
            *acc += v;
        }
        for (acc, v) in p.occ_sum.iter_mut().zip(occ) {
            *acc += v;
        }
        done
    }

    /// Advance simulated time: on progress tick one cycle, otherwise jump
    /// to the next event, prefetching the lines the first post-jump cycle
    /// will touch while the jump target is computed.
    #[inline(always)]
    fn advance(&mut self, progress: bool) {
        if !progress {
            let next = self.next_event_cycle();
            self.prefetch_next_event(next);
            let jump_to = next.max(self.now + 1);
            self.tally_idle_jumps += 1;
            self.hist_jump.record(jump_to - self.now);
            self.counters.cycles += jump_to - self.now;
            self.now = jump_to;
        } else {
            self.counters.cycles += 1;
            self.now += 1;
        }
    }

    /// Flush the hot-loop tallies into the sim-obs metrics registry
    /// (`pipeline.batch_refills`, `pipeline.refill_insts`,
    /// `pipeline.idle_jumps`, the derived `pipeline.insts_per_refill`
    /// process mean, and the `hist.pipeline.*` refill-size and idle-jump
    /// distributions). Called once per `run_detailed` so the per-cycle
    /// loop never touches the registry.
    fn flush_pipeline_metrics(&mut self) {
        if self.tally_refills == 0 && self.tally_idle_jumps == 0 {
            return;
        }
        let refills = sim_obs::metrics::counter("pipeline.batch_refills");
        refills.add(self.tally_refills);
        let refill_insts = sim_obs::metrics::counter("pipeline.refill_insts");
        refill_insts.add(self.tally_refill_insts);
        sim_obs::metrics::counter("pipeline.idle_jumps").add(self.tally_idle_jumps);
        if let Some(mean) = refill_insts.get().checked_div(refills.get()) {
            sim_obs::metrics::gauge("pipeline.insts_per_refill").set(mean);
        }
        if !self.hist_refill.is_empty() {
            self.hist_refill
                .merge_into(&sim_obs::metrics::histogram("hist.pipeline.refill_insts"));
        }
        if !self.hist_jump.is_empty() {
            self.hist_jump.merge_into(&sim_obs::metrics::histogram(
                "hist.pipeline.idle_jump_cycles",
            ));
        }
        self.tally_refills = 0;
        self.tally_refill_insts = 0;
        self.tally_idle_jumps = 0;
    }

    /// Host-side software prefetch ahead of an idle jump to `next`: the
    /// first writeback after the jump drains the completions due then and
    /// walks their ROB flag/waiter lines, and ready-but-blocked memory ops
    /// (MSHR- or port-stalled loads — the usual reason the machine is idle)
    /// immediately re-probe their cache tag mirrors. Pure `prefetcht0`
    /// hints; simulated state is never touched, so behavior is identical
    /// with or without them (and off x86-64, where this is a no-op).
    fn prefetch_next_event(&self, next: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            self.completions.peek_due(next, |seq| {
                let slot = self.rob_slot(seq);
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>((&self.rob.flags[slot] as *const u8).cast());
                    _mm_prefetch::<_MM_HINT_T0>(
                        (&self.rob.waiters_head[slot] as *const u32).cast(),
                    );
                }
            });
            let mut seen = 0u32;
            self.ready.visit_from(self.rob.head, self.rob.cap, |slot| {
                if self.rob.ops[slot].is_mem() {
                    self.mem.prefetch_data_tags(self.rob.inst[slot].mem_addr);
                }
                seen += 1;
                seen < 4
            });
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = next;
    }

    /// The earliest future cycle at which machine state can change.
    fn next_event_cycle(&self) -> u64 {
        let mut next = self.completions.next_t();
        if !self.done_next.is_empty() {
            // Only reachable between `run_detailed` calls (within a call, a
            // non-empty fast path implies the cycle made progress).
            next = next.min(self.done_next_t);
        }
        if !self.fetch_blocked && self.fetch_resume > self.now {
            next = next.min(self.fetch_resume);
        }
        if next == u64::MAX {
            self.now + 1
        } else {
            next
        }
    }

    /// One cycle: commit → writeback → issue → dispatch → fetch.
    /// Returns whether any stage made progress.
    fn step<S: InstStream + ?Sized>(&mut self, stream: &mut S, stream_done: &mut bool) -> bool {
        let mut progress = false;
        progress |= self.do_writeback();
        progress |= self.do_commit();
        progress |= self.do_issue();
        progress |= self.do_dispatch();
        progress |= self.do_fetch(stream, stream_done);
        progress
    }

    /// Mark `seq` completed and wake its waiters: each link names a consumer
    /// slot and which of its two chain pointers continues the list.
    #[inline]
    fn complete_one(rob: &mut Rob, head_seq: u64, ready: &mut ReadySet, seq: u64) {
        rob.assume_invariants();
        let slot = rob.slot((seq - head_seq) as usize);
        rob.flags[slot] |= FLAG_COMPLETED;
        let mut cur = rob.waiters_head[slot];
        rob.waiters_head[slot] = 0;
        while cur != 0 {
            let c = (cur - 1) as usize;
            let cslot = c >> 1;
            let f = rob.flags[cslot] - 1;
            rob.flags[cslot] = f;
            if f & FLAG_PENDING_MASK == 0 {
                // Last outstanding operand arrived: the consumer joins the
                // ready set. One bit set; issue priority comes from ring
                // order, not insertion order.
                ready.insert(cslot);
            }
            cur = if c & 1 == 0 {
                rob.wnext0[cslot]
            } else {
                rob.wnext1[cslot]
            };
        }
    }

    fn do_writeback(&mut self) -> bool {
        let rob = &mut self.rob;
        rob.assume_invariants();
        let head_seq = self.head_seq;
        let ready = &mut self.ready;
        // Next-cycle completions first (the dominant case: single-cycle ALU
        // ops and L1 hits). Every entry is due at `done_next_t`, so the whole
        // vector drains in one pass with no bucket indexing. Order relative
        // to calendar events of the same cycle is immaterial: completion
        // effects commute (flag sets, seq-ordered ready inserts).
        let mut progress = false;
        if !self.done_next.is_empty() && self.done_next_t <= self.now {
            for i in 0..self.done_next.len() {
                Self::complete_one(rob, head_seq, ready, self.done_next[i]);
            }
            self.done_next.clear();
            progress = true;
        }
        progress
            | self.completions.drain_due(self.now, |seq| {
                Self::complete_one(rob, head_seq, ready, seq);
            })
    }

    fn do_commit(&mut self) -> bool {
        self.rob.assume_invariants();
        let mut n = 0;
        while n < self.cfg.commit_width && !self.rob.is_empty() {
            let slot = self.rob.slot(0);
            let flags = self.rob.flags[slot];
            if flags & FLAG_COMPLETED == 0 {
                break;
            }
            let op = self.rob.ops[slot];
            self.counters.note_commit(op);
            if flags & FLAG_SIMPLIFIED != 0 {
                self.counters.trivial_simplified += 1;
            }
            if op.is_mem() {
                // Retire the matching LSQ slot (always the oldest).
                debug_assert_eq!(self.lsq.front().map(|s| s.seq), Some(self.head_seq));
                self.lsq.pop_front();
                if op == OpClass::Store {
                    debug_assert_eq!(self.store_q.front().map(|s| s.0), Some(self.head_seq));
                    self.store_q.pop_front();
                }
            }
            self.rob.pop_front();
            self.head_seq += 1;
            n += 1;
        }
        n > 0
    }

    fn do_issue(&mut self) -> bool {
        // Wakeup gate: nothing in the IQ has all operands ready, so no scan
        // can issue anything. This is the common case on dep-stalled cycles.
        if self.ready.is_empty() || self.cfg.issue_width == 0 {
            return false;
        }
        self.rob.assume_invariants();
        let now = self.now;
        let head_seq = self.head_seq;
        let issue_width = self.cfg.issue_width;
        let int_alus = self.cfg.int_alus;
        let fp_alus = self.cfg.fp_alus;
        let int_mult_divs = self.cfg.int_mult_divs;
        let fp_mult_divs = self.cfg.fp_mult_divs;
        let mem_ports = self.cfg.mem_ports;
        let mut issued = 0u32;
        let mut int_alu_used = 0u32;
        let mut fp_alu_used = 0u32;
        let mut int_md_used = 0u32;
        let mut fp_md_used = 0u32;
        let mut ports_used = 0u32;

        // Walk the ready bits oldest-first: ring order from the ROB head
        // visits slots in exactly seq order, so issue priority is identical
        // to the sorted-list scan this replaces. Entries blocked on a
        // functional unit or memory port keep their bit; issued entries
        // clear theirs — both O(1), no list maintenance.
        let head = self.rob.head;
        let cap = self.rob.cap;
        'scan: for (lo, hi) in [(head, cap), (0, head)] {
            for wi in lo >> 6..hi.div_ceil(64) {
                let mut word = self.ready.masked_word(wi, lo, hi);
                while word != 0 {
                    let slot = (wi << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let off = if slot >= head {
                        slot - head
                    } else {
                        slot + cap - head
                    };
                    let seq = head_seq + off as u64;
                    let flags = self.rob.flags[slot];
                    debug_assert_eq!(
                        flags & FLAG_PENDING_MASK,
                        0,
                        "ready entry with pending deps"
                    );
                    // Read only the fields issue needs; the SoA layout means no
                    // 40-byte instruction load for the (dominant) non-memory ops —
                    // the opcode and flag bytes decide everything, and only the
                    // load/store arms below touch the full record for the address.
                    let op = self.rob.ops[slot];
                    let trivial = flags & FLAG_TRIVIAL != 0;
                    let done = 'try_issue: {
                        Some(if flags & FLAG_FAST_ALU != 0 {
                            // Dominant arm: plain int-ALU ops, no-ops, and control
                            // transfers (branch units share the integer ALUs) — one
                            // predictable flag test instead of a jump on the op.
                            if int_alu_used >= int_alus {
                                break 'try_issue None;
                            }
                            int_alu_used += 1;
                            now + 1
                        } else if trivial {
                            // TC enhancement [Yi02]: the trivial instance is
                            // *eliminated* — its result is produced without any
                            // functional unit, in one cycle. FLAG_TRIVIAL is only
                            // ever set on TC-candidate ops, so no class check here.
                            now + 1
                        } else {
                            match op {
                                OpClass::IntMult => {
                                    if int_md_used >= int_mult_divs
                                        || !self.int_md_busy.iter().any(|&t| t <= now)
                                    {
                                        break 'try_issue None;
                                    }
                                    int_md_used += 1;
                                    now + self.cfg.int_mult_latency
                                }
                                OpClass::IntDiv => {
                                    let done = now + self.cfg.int_div_latency;
                                    match self.int_md_busy.iter_mut().find(|t| **t <= now) {
                                        Some(u) if int_md_used < int_mult_divs => {
                                            *u = done; // divides are not pipelined
                                            int_md_used += 1;
                                            done
                                        }
                                        _ => break 'try_issue None,
                                    }
                                }
                                OpClass::FpAlu => {
                                    if fp_alu_used >= fp_alus {
                                        break 'try_issue None;
                                    }
                                    fp_alu_used += 1;
                                    now + self.cfg.fp_alu_latency
                                }
                                OpClass::FpMult => {
                                    if fp_md_used >= fp_mult_divs
                                        || !self.fp_md_busy.iter().any(|&t| t <= now)
                                    {
                                        break 'try_issue None;
                                    }
                                    fp_md_used += 1;
                                    now + self.cfg.fp_mult_latency
                                }
                                OpClass::FpDiv => {
                                    let done = now + self.cfg.fp_div_latency;
                                    match self.fp_md_busy.iter_mut().find(|t| **t <= now) {
                                        Some(u) if fp_md_used < fp_mult_divs => {
                                            *u = done;
                                            fp_md_used += 1;
                                            done
                                        }
                                        _ => break 'try_issue None,
                                    }
                                }
                                OpClass::Load => {
                                    if ports_used >= mem_ports {
                                        break 'try_issue None;
                                    }
                                    let fwd = self.rob.fwd_store[slot];
                                    #[cfg(debug_assertions)]
                                    debug_assert_eq!(
                                        (fwd > head_seq).then(|| fwd - 1),
                                        self.store_forwards(seq, self.rob.inst[slot].mem_addr),
                                        "dispatch-time forwarding source diverged from the scan"
                                    );
                                    if fwd > head_seq {
                                        // Forward only once the store's data actually
                                        // exists; otherwise the load waits on the store.
                                        if self.rob.flags[self.rob_slot(fwd - 1)] & FLAG_COMPLETED
                                            != 0
                                        {
                                            ports_used += 1;
                                            now + 1
                                        } else {
                                            break 'try_issue None; // store data not ready yet
                                        }
                                    } else {
                                        let mem_addr = self.rob.inst[slot].mem_addr;
                                        match self.mem.data_access(mem_addr, false, now) {
                                            Some(lat) => {
                                                ports_used += 1;
                                                now + lat
                                            }
                                            // MSHRs full; retry next cycle.
                                            None => break 'try_issue None,
                                        }
                                    }
                                }
                                OpClass::Store => {
                                    if ports_used >= mem_ports {
                                        break 'try_issue None;
                                    }
                                    let mem_addr = self.rob.inst[slot].mem_addr;
                                    match self.mem.data_access(mem_addr, true, now) {
                                        Some(lat) => {
                                            ports_used += 1;
                                            now + lat
                                        }
                                        None => break 'try_issue None,
                                    }
                                }
                                // Int-ALU, no-op, and control classes all carry
                                // FLAG_FAST_ALU and were handled before the match; the
                                // compiler cannot see that through the flag.
                                _ => unreachable!("fast-ALU ops handled by the flag arm"),
                            }
                        })
                    };
                    let Some(done) = done else {
                        // Blocked on a busy unit or port this cycle: the entry's
                        // ready bit stays set for the next scan.
                        continue;
                    };

                    self.ready.remove(slot);
                    self.rob.done_cycle[slot] = done;
                    if trivial {
                        self.rob.flags[slot] = flags | FLAG_SIMPLIFIED;
                    }
                    if flags & FLAG_MISPREDICTED != 0 {
                        // The redirect time is now known: the front end restarts
                        // `penalty` cycles after the branch resolves.
                        let resolve_penalty = self.cfg.mispredict_penalty();
                        self.fetch_blocked = false;
                        self.fetch_resume = self.fetch_resume.max(done + resolve_penalty);
                        self.counters.mispredict_stall_cycles += resolve_penalty;
                    }
                    if done == now + 1 {
                        // Dominant case (single-cycle ops, forwarded loads): skip
                        // the calendar and complete via the next-cycle fast path.
                        self.done_next.push(seq);
                        self.done_next_t = done;
                    } else {
                        self.completions.push(done, seq);
                    }
                    self.iq_len -= 1;
                    issued += 1;
                    if issued == issue_width {
                        break 'scan;
                    }
                }
            }
        }
        issued > 0
    }

    /// The youngest older in-flight store to the same 8-byte granule, if
    /// any (the store a load would forward from). Debug-only cross-check of
    /// the dispatch-time `fwd_store` lane.
    #[cfg(debug_assertions)]
    fn store_forwards(&self, load_seq: u64, addr: u64) -> Option<u64> {
        let granule = addr >> 3;
        self.store_q
            .iter()
            .rev()
            .find(|&&(seq, g)| seq < load_seq && g == granule)
            .map(|&(seq, _)| seq)
    }

    fn do_dispatch(&mut self) -> bool {
        self.rob.assume_invariants();
        let tc_enabled = self.cfg.trivial_computation;
        let rob_entries = self.cfg.rob_entries as usize;
        let iq_entries = self.cfg.iq_entries as usize;
        let lsq_entries = self.cfg.lsq_entries as usize;
        let mut n = 0;
        while n < self.cfg.decode_width {
            if self.rob.len() >= rob_entries || self.iq_len >= iq_entries {
                break;
            }
            // Read only the scalar fields up front; the 40-byte record is
            // copied exactly once, IFQ slot → ROB lane, below.
            let Some(f) = self.ifq.front() else { break };
            let op = f.inst.op;
            let srcs = f.inst.srcs;
            let dest = f.inst.dest;
            let mem_addr = f.inst.mem_addr;
            let inst_trivial = f.inst.trivial;
            let mispredicted = f.mispredicted;
            if op.is_mem() && self.lsq.len() >= lsq_entries {
                break;
            }
            let seq = self.seq_next;
            self.seq_next += 1;

            let mut deps = [0u64; 2];
            for (d, &src) in deps.iter_mut().zip(srcs.iter()) {
                if src != REG_ZERO {
                    *d = self.reg_producer[src as usize];
                }
            }
            if dest != REG_ZERO {
                self.reg_producer[dest as usize] = seq + 1;
            }
            let mut fwd = 0u64;
            if op.is_mem() {
                let is_store = op == OpClass::Store;
                let granule = mem_addr >> 3;
                if is_store {
                    self.store_q.push_back((seq, granule));
                } else {
                    // Everything in the store queue is older than this load,
                    // so the youngest same-granule entry is the forwarding
                    // source — fixed for the load's whole lifetime.
                    fwd = self
                        .store_q
                        .iter()
                        .rev()
                        .find(|&&(_, g)| g == granule)
                        .map_or(0, |&(s, _)| s + 1);
                }
                self.lsq.push_back(LsqSlot {
                    seq,
                    granule,
                    is_store,
                });
            }
            let mut init_flags = if mispredicted { FLAG_MISPREDICTED } else { 0 };
            if tc_enabled && inst_trivial && op.is_tc_candidate() {
                init_flags |= FLAG_TRIVIAL;
            }
            if matches!(op, OpClass::IntAlu | OpClass::Nop) || op.is_control() {
                init_flags |= FLAG_FAST_ALU;
            }
            {
                // Split borrow: copy the record straight from the IFQ slot
                // into the ROB lane without an intermediate stack copy.
                let Core { ifq, rob, .. } = &mut *self;
                let f = ifq.front().expect("checked above");
                rob.push_back_from(&f.inst, deps, init_flags, fwd);
            }
            self.ifq.pop_front();
            self.link_waiters(seq, deps);
            self.iq_len += 1;
            n += 1;
        }
        n > 0
    }

    /// Register a just-dispatched entry with the wakeup scoreboard: count
    /// its outstanding producers and thread it onto each one's waiter list.
    /// A dep is outstanding iff its producer is still in flight (`seq >=
    /// head_seq`) and not yet completed — exactly the readiness predicate
    /// the issue scan used to re-derive per entry per cycle.
    #[inline]
    fn link_waiters(&mut self, seq: u64, deps: [u64; 2]) {
        let slot = self.rob_slot(seq);
        let mut pending = 0u8;
        for (k, &dep) in deps.iter().enumerate() {
            if dep == 0 {
                continue;
            }
            let pseq = dep - 1;
            if pseq < self.head_seq {
                continue;
            }
            let pslot = self.rob_slot(pseq);
            if self.rob.flags[pslot] & FLAG_COMPLETED != 0 {
                continue;
            }
            pending += 1;
            let link = (slot * 2 + k + 1) as u32;
            let next = self.rob.waiters_head[pslot];
            self.rob.waiters_head[pslot] = link;
            if k == 0 {
                self.rob.wnext0[slot] = next;
            } else {
                self.rob.wnext1[slot] = next;
            }
        }
        self.rob.flags[slot] |= pending;
        if pending == 0 {
            // Ready at dispatch: set the entry's bit.
            self.ready.insert(slot);
        }
    }

    /// Pull the next instruction from the fetch-ahead decode buffer,
    /// refilling it from the stream in batches of `fetch_batch`. Refills
    /// are free in simulated time, so behavior is identical at any batch
    /// size; only host-side dispatch cost is amortized.
    #[inline]
    fn buf_next<S: InstStream + ?Sized>(
        &mut self,
        stream: &mut S,
        stream_done: &mut bool,
    ) -> Option<DynInst> {
        if self.fetch_buf_pos == self.fetch_buf.len() {
            self.fetch_buf.clear();
            self.fetch_buf_pos = 0;
            let got = stream.next_block(&mut self.fetch_buf, self.fetch_batch);
            if got == 0 {
                *stream_done = true;
                return None;
            }
            self.tally_refills += 1;
            self.tally_refill_insts += got as u64;
            self.hist_refill.record(got as u64);
        }
        let inst = self.fetch_buf[self.fetch_buf_pos];
        self.fetch_buf_pos += 1;
        Some(inst)
    }

    /// Number of instructions pulled from the stream into the decode buffer
    /// but not yet fetched into the pipeline. These logically precede
    /// whatever the stream yields next; consumers that hand the stream to
    /// another machine must drain or carry them (see [`Core::take_unfetched`]).
    pub fn unfetched_len(&self) -> usize {
        self.fetch_buf.len() - self.fetch_buf_pos
    }

    /// Pop up to `max` buffered-but-unfetched instructions (oldest first)
    /// together with the structures functional warming updates, borrowed
    /// disjointly so the warm path can feed both through one sink.
    pub(crate) fn take_unfetched_for_warming(
        &mut self,
        max: u64,
    ) -> (&[DynInst], &mut MemoryHierarchy, &mut BranchPredictor) {
        let start = self.fetch_buf_pos;
        let end = start + (self.unfetched_len() as u64).min(max) as usize;
        self.fetch_buf_pos = end;
        (&self.fetch_buf[start..end], &mut self.mem, &mut self.bpred)
    }

    /// Pop the oldest buffered-but-unfetched instruction, if any.
    pub fn pop_unfetched(&mut self) -> Option<DynInst> {
        if self.fetch_buf_pos < self.fetch_buf.len() {
            let inst = self.fetch_buf[self.fetch_buf_pos];
            self.fetch_buf_pos += 1;
            Some(inst)
        } else {
            None
        }
    }

    /// Remove and return every buffered-but-unfetched instruction, oldest
    /// first, leaving the decode buffer empty.
    pub fn take_unfetched(&mut self) -> Vec<DynInst> {
        let tail: Vec<DynInst> = self.fetch_buf.drain(self.fetch_buf_pos..).collect();
        self.fetch_buf.clear();
        self.fetch_buf_pos = 0;
        tail
    }

    /// Seed the decode buffer with instructions that logically precede the
    /// stream's next output (carried over from another machine via
    /// [`Core::take_unfetched`]).
    ///
    /// # Panics
    /// Panics if the buffer is not empty.
    pub fn preload_unfetched(&mut self, insts: Vec<DynInst>) {
        assert_eq!(self.unfetched_len(), 0, "decode buffer must be empty");
        self.fetch_buf = insts;
        self.fetch_buf_pos = 0;
    }

    fn do_fetch<S: InstStream + ?Sized>(&mut self, stream: &mut S, stream_done: &mut bool) -> bool {
        if self.fetch_blocked || self.now < self.fetch_resume {
            return false;
        }
        let mut n = 0;
        let fetch_width = self.cfg.fetch_width;
        let ifq_entries = self.cfg.ifq_entries as usize;
        let line_mask = !(self.cfg.l1i.line_bytes - 1);
        let l1i_latency = self.cfg.l1i.latency;
        while n < fetch_width && self.ifq.len() < ifq_entries {
            // A pending instruction's I-cache miss has been served by now.
            let inst = match self.fetch_pending.take() {
                Some(i) => i,
                None => {
                    let Some(i) = self.buf_next(stream, stream_done) else {
                        break;
                    };
                    // Access the I-cache once per line.
                    let line = i.pc & line_mask;
                    if line != self.last_fetch_line {
                        self.last_fetch_line = line;
                        let lat = self.mem.inst_fetch(i.pc);
                        if lat > l1i_latency {
                            // Miss: hold the instruction until the line
                            // arrives, then deliver it first.
                            self.fetch_pending = Some(i);
                            self.fetch_resume = self.now + lat;
                            self.counters.fetched += n as u64;
                            return n > 0;
                        }
                    }
                    i
                }
            };

            let mut mispredicted = false;
            let mut stop_after = false;
            if inst.op.is_control() {
                let pred = self.bpred.process(&inst);
                if !pred.correct {
                    mispredicted = true;
                    stop_after = true;
                    // Wrong path: the front end produces nothing useful until
                    // this branch resolves.
                    self.fetch_blocked = true;
                } else if inst.taken {
                    // Correctly-predicted taken branch ends the fetch group.
                    stop_after = true;
                }
            }
            self.ifq.push_back(Fetched { inst, mispredicted });
            n += 1;
            if stop_after {
                break;
            }
        }
        self.counters.fetched += n as u64;
        n > 0
    }
}

// State encoding (see `crate::state`): everything that can differ between
// a fresh and a warmed/running core is written; queue capacities, widths,
// and unit counts come from the config and are not.
impl Core {
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        self.mem.save_state(w);
        self.bpred.save_state(w);
        w.put_u64(self.counters.cycles);
        w.put_u64(self.counters.committed);
        w.put_u64(self.counters.loads);
        w.put_u64(self.counters.stores);
        w.put_u64(self.counters.control);
        w.put_u64(self.counters.long_arith);
        w.put_u64(self.counters.trivial_simplified);
        w.put_u64(self.counters.mispredict_stall_cycles);
        w.put_u64(self.counters.fetched);
        w.put_u64(self.now);
        w.put_u64(self.seq_next);
        w.put_u64(self.head_seq);
        w.put_usize(self.rob.len());
        for off in 0..self.rob.len() {
            let s = self.rob.slot(off);
            put_inst(w, &self.rob.inst[s]);
            w.put_u64(self.rob.deps[s][0]);
            w.put_u64(self.rob.deps[s][1]);
            w.put_u64(self.rob.done_cycle[s]);
            w.put_bool(self.rob.flags[s] & FLAG_COMPLETED != 0);
            w.put_bool(self.rob.flags[s] & FLAG_MISPREDICTED != 0);
            w.put_bool(self.rob.flags[s] & FLAG_SIMPLIFIED != 0);
        }
        w.put_usize(self.ifq.len());
        for f in self.ifq.iter() {
            put_inst(w, &f.inst);
            w.put_bool(f.mispredicted);
        }
        // IQ membership is implicit (in flight, not yet issued); serialize
        // it explicitly, oldest first, to keep the byte format unchanged.
        w.put_usize(self.iq_len);
        for off in 0..self.rob.len() {
            let s = self.rob.slot(off);
            if self.rob.done_cycle[s] == NOT_ISSUED {
                w.put_u64(self.head_seq + off as u64);
            }
        }
        w.put_usize(self.lsq.len());
        for s in self.lsq.iter() {
            w.put_u64(s.seq);
            w.put_u64(s.granule);
            w.put_bool(s.is_store);
        }
        // The calendar queue's iteration order is unspecified; serialize
        // sorted, merged with the next-cycle fast-path events, so identical
        // machines encode to identical bytes regardless of which container
        // a pending completion sits in.
        let mut completions: Vec<(u64, u64)> = self
            .completions
            .iter()
            .chain(self.done_next.iter().map(|&seq| (self.done_next_t, seq)))
            .collect();
        completions.sort_unstable();
        w.put_usize(completions.len());
        for (t, seq) in completions {
            w.put_u64(t);
            w.put_u64(seq);
        }
        for &p in &self.reg_producer {
            w.put_u64(p);
        }
        w.put_u64(self.fetch_resume);
        w.put_bool(self.fetch_blocked);
        w.put_u64(self.last_fetch_line);
        w.put_bool(self.fetch_pending.is_some());
        if let Some(i) = &self.fetch_pending {
            put_inst(w, i);
        }
        w.put_usize(self.int_md_busy.len());
        for &t in &self.int_md_busy {
            w.put_u64(t);
        }
        w.put_usize(self.fp_md_busy.len());
        for &t in &self.fp_md_busy {
            w.put_u64(t);
        }
        // Only the unconsumed tail of the decode buffer is machine state
        // (consumed slots are gone).
        w.put_usize(self.unfetched_len());
        for inst in &self.fetch_buf[self.fetch_buf_pos..] {
            put_inst(w, inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DynInst, InstStream};

    /// A stream of `n` independent single-cycle integer ops whose PCs loop
    /// over a small footprint (so the I-cache warms quickly, as in a real
    /// loop body).
    fn alu_stream(n: usize) -> impl InstStream {
        (0..n).map(|i| DynInst::int_alu(loop_pc(i)))
    }

    fn loop_pc(i: usize) -> u64 {
        0x1000 + 4 * (i as u64 % 64)
    }

    fn small_cfg() -> SimConfig {
        SimConfig::table3(2)
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let mut core = Core::new(small_cfg());
        let mut s = alu_stream(40_000);
        let committed = core.run_detailed(&mut s, u64::MAX);
        assert_eq!(committed, 40_000);
        let ipc = committed as f64 / core.counters().cycles as f64;
        // 4-wide machine, no hazards beyond the cold I-cache: IPC near 4.
        assert!(ipc > 3.0, "IPC {ipc} too low for independent ALU ops");
        assert!(ipc <= 4.0 + 1e-9);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        let mut core = Core::new(small_cfg());
        let insts: Vec<DynInst> = (0..20_000)
            .map(|i| DynInst::int_alu(loop_pc(i)).with_dest(5).with_srcs(5, 0))
            .collect();
        let mut s = insts.into_iter();
        let committed = core.run_detailed(&mut s, u64::MAX);
        let ipc = committed as f64 / core.counters().cycles as f64;
        assert!(
            (0.8..=1.05).contains(&ipc),
            "dependence chain should serialize to IPC ~1, got {ipc}"
        );
    }

    #[test]
    fn long_latency_divides_serialize() {
        let mut cfg = small_cfg();
        cfg.int_div_latency = 20;
        cfg.int_mult_divs = 1;
        let mut core = Core::new(cfg);
        let insts: Vec<DynInst> = (0..2_000)
            .map(|i| {
                DynInst::int_alu(loop_pc(i))
                    .with_op(OpClass::IntDiv)
                    .with_dest(3)
            })
            .collect();
        let mut s = insts.into_iter();
        let committed = core.run_detailed(&mut s, u64::MAX);
        let cpi = core.counters().cycles as f64 / committed as f64;
        // One non-pipelined divider: every divide waits ~20 cycles.
        assert!(cpi > 15.0, "CPI {cpi} too low for serialized divides");
    }

    #[test]
    fn trivial_computation_accelerates_divides() {
        let make = |tc: bool| {
            let mut cfg = small_cfg();
            cfg.trivial_computation = tc;
            cfg.int_mult_divs = 1;
            let mut core = Core::new(cfg);
            let insts: Vec<DynInst> = (0..4_000)
                .map(|i| {
                    DynInst::int_alu(loop_pc(i))
                        .with_op(OpClass::IntDiv)
                        .with_trivial(i % 2 == 0)
                })
                .collect();
            let mut s = insts.into_iter();
            core.run_detailed(&mut s, u64::MAX);
            (core.counters().cycles, core.counters().trivial_simplified)
        };
        let (base_cycles, base_simplified) = make(false);
        let (tc_cycles, tc_simplified) = make(true);
        assert_eq!(base_simplified, 0);
        assert_eq!(tc_simplified, 2_000);
        assert!(
            tc_cycles * 3 < base_cycles * 2,
            "TC should cut cycles markedly: {tc_cycles} vs {base_cycles}"
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        let branchy = |predictable: bool| {
            let mut core = Core::new(small_cfg());
            let mut x: u64 = 12345;
            let insts: Vec<DynInst> = (0..20_000)
                .map(|i| {
                    let pc = 0x1000 + 4 * (i as u64 % 64);
                    if i % 4 == 3 {
                        let taken = if predictable {
                            true
                        } else {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (x >> 40) & 1 == 1
                        };
                        DynInst::int_alu(pc)
                            .with_op(OpClass::Branch)
                            .with_branch(taken, if taken { pc + 0x40 } else { pc + 4 })
                    } else {
                        DynInst::int_alu(pc)
                    }
                })
                .collect();
            let mut s = insts.into_iter();
            core.run_detailed(&mut s, u64::MAX);
            core.counters().cycles
        };
        let predictable = branchy(true);
        let random = branchy(false);
        assert!(
            random as f64 > predictable as f64 * 1.5,
            "random branches should be much slower: {random} vs {predictable}"
        );
    }

    #[test]
    fn memory_bound_chain_is_dominated_by_dram() {
        let mut cfg = small_cfg();
        cfg.mem_first_latency = 200;
        let mut core = Core::new(cfg);
        // Pointer-chase: each load depends on the previous, new line each time.
        let insts: Vec<DynInst> = (0..3_000)
            .map(|i| {
                DynInst::int_alu(0x1000)
                    .with_op(OpClass::Load)
                    .with_dest(7)
                    .with_srcs(7, 0)
                    .with_mem_addr(0x10_0000 + (i as u64) * 8192)
            })
            .collect();
        let mut s = insts.into_iter();
        let committed = core.run_detailed(&mut s, u64::MAX);
        let cpi = core.counters().cycles as f64 / committed as f64;
        assert!(cpi > 100.0, "DRAM-bound chain CPI {cpi} unexpectedly low");
    }

    #[test]
    fn store_to_load_forwarding_avoids_memory() {
        let mut core = Core::new(small_cfg());
        let mut insts = Vec::new();
        for i in 0..1_000u64 {
            let a = 0x20_0000 + (i % 16) * 8;
            insts.push(
                DynInst::int_alu(0x1000)
                    .with_op(OpClass::Store)
                    .with_srcs(3, 0)
                    .with_mem_addr(a),
            );
            insts.push(
                DynInst::int_alu(0x1004)
                    .with_op(OpClass::Load)
                    .with_dest(4)
                    .with_mem_addr(a),
            );
        }
        let mut s = insts.into_iter();
        let committed = core.run_detailed(&mut s, u64::MAX);
        assert_eq!(committed, 2_000);
        let cpi = core.counters().cycles as f64 / committed as f64;
        assert!(
            cpi < 3.0,
            "forwarded loads should not pay miss latency, CPI {cpi}"
        );
    }

    #[test]
    fn narrow_machine_is_slower_than_wide() {
        let run = |width: u32| {
            let mut cfg = small_cfg();
            cfg.fetch_width = width;
            cfg.decode_width = width;
            cfg.issue_width = width;
            cfg.commit_width = width;
            cfg.int_alus = width;
            let mut core = Core::new(cfg);
            let mut s = alu_stream(20_000);
            core.run_detailed(&mut s, u64::MAX);
            core.counters().cycles
        };
        let narrow = run(1);
        let wide = run(8);
        assert!(
            narrow as f64 > wide as f64 * 3.0,
            "1-wide ({narrow}) should be far slower than 8-wide ({wide})"
        );
    }

    #[test]
    fn run_detailed_respects_instruction_limit() {
        let mut core = Core::new(small_cfg());
        let mut s = alu_stream(10_000);
        let committed = core.run_detailed(&mut s, 1_000);
        assert!(
            (1_000..1_100).contains(&(committed as usize)),
            "committed {committed} should stop at ~limit"
        );
    }

    #[test]
    fn commit_is_in_order_and_complete() {
        let mut core = Core::new(small_cfg());
        let mut s = alu_stream(5_000);
        let committed = core.run_detailed(&mut s, u64::MAX);
        assert_eq!(committed, 5_000);
        assert_eq!(core.in_flight(), 0, "pipeline fully drained");
        assert_eq!(core.counters().committed, 5_000);
        assert_eq!(core.counters().fetched, 5_000);
    }

    #[test]
    fn rob_size_bounds_overlap_under_misses() {
        // With a tiny ROB, independent loads cannot overlap; with a big ROB
        // they can. Checks window-size sensitivity (a key PB parameter).
        let run = |rob: u32| {
            let mut cfg = small_cfg();
            cfg.rob_entries = rob;
            cfg.iq_entries = rob;
            cfg.lsq_entries = rob.min(cfg.lsq_entries * 4);
            cfg.mshr_entries = 16;
            let mut core = Core::new(cfg);
            let insts: Vec<DynInst> = (0..4_000)
                .map(|i| {
                    DynInst::int_alu(0x1000)
                        .with_op(OpClass::Load)
                        .with_dest((1 + (i % 8)) as u8)
                        .with_mem_addr(0x40_0000 + (i as u64) * 4096)
                })
                .collect();
            let mut s = insts.into_iter();
            core.run_detailed(&mut s, u64::MAX);
            core.counters().cycles
        };
        let small = run(4);
        let big = run(128);
        assert!(
            small as f64 > big as f64 * 2.0,
            "small ROB ({small}) should serialize misses vs big ROB ({big})"
        );
    }

    #[test]
    fn counters_reset_but_state_persists() {
        let mut core = Core::new(small_cfg());
        let mut s = alu_stream(1_000);
        core.run_detailed(&mut s, u64::MAX);
        assert!(core.counters().committed > 0);
        core.reset_counters();
        assert_eq!(core.counters().committed, 0);
        assert!(core.now() > 0, "time keeps running across windows");
    }
}

#[cfg(test)]
mod structural_tests {
    use super::*;
    use crate::isa::DynInst;

    fn loop_pc(i: usize) -> u64 {
        0x1000 + 4 * (i as u64 % 64)
    }

    /// With a single-entry IFQ and single-wide everything, the machine still
    /// commits every instruction (no deadlock at minimum queue sizes).
    #[test]
    fn minimum_queues_still_drain() {
        let mut cfg = SimConfig::table3(1);
        cfg.fetch_width = 1;
        cfg.decode_width = 1;
        cfg.issue_width = 1;
        cfg.commit_width = 1;
        cfg.ifq_entries = 1;
        cfg.rob_entries = 2;
        cfg.iq_entries = 1;
        cfg.lsq_entries = 1;
        cfg.int_alus = 1;
        cfg.int_mult_divs = 1;
        cfg.fp_alus = 1;
        cfg.fp_mult_divs = 1;
        cfg.mem_ports = 1;
        cfg.mshr_entries = 4;
        let mut core = Core::new(cfg);
        let insts: Vec<DynInst> = (0..2_000)
            .map(|i| {
                let pc = loop_pc(i);
                match i % 5 {
                    0 => DynInst::int_alu(pc)
                        .with_op(OpClass::Load)
                        .with_dest(4)
                        .with_mem_addr(0x10_0000 + (i as u64 % 32) * 64),
                    1 => DynInst::int_alu(pc)
                        .with_op(OpClass::Store)
                        .with_srcs(4, 0)
                        .with_mem_addr(0x10_0000 + (i as u64 % 32) * 64),
                    2 => {
                        let taken = i % 2 == 0;
                        DynInst::int_alu(pc)
                            .with_op(OpClass::Branch)
                            .with_branch(taken, if taken { pc + 64 } else { pc + 4 })
                    }
                    _ => DynInst::int_alu(pc).with_dest(3),
                }
            })
            .collect();
        let n = insts.len() as u64;
        let mut s = insts.into_iter();
        let committed = core.run_detailed(&mut s, u64::MAX);
        assert_eq!(committed, n);
        assert_eq!(core.in_flight(), 0);
    }

    /// LSQ capacity limits dispatch: with a 1-entry LSQ, two adjacent loads
    /// cannot be in flight together, so a stream of DRAM-missing loads
    /// serializes compared to a large LSQ.
    #[test]
    fn lsq_capacity_serializes_memory() {
        let run = |lsq: u32| {
            let mut cfg = SimConfig::table3(1);
            cfg.lsq_entries = lsq;
            cfg.mshr_entries = 16;
            let mut core = Core::new(cfg);
            let insts: Vec<DynInst> = (0..1_000)
                .map(|i| {
                    DynInst::int_alu(0x1000)
                        .with_op(OpClass::Load)
                        .with_dest((1 + i % 8) as u8)
                        .with_mem_addr(0x100_0000 + (i as u64) * 4096)
                })
                .collect();
            let mut s = insts.into_iter();
            core.run_detailed(&mut s, u64::MAX);
            core.counters().cycles
        };
        let tiny = run(1);
        let big = run(16);
        assert!(
            tiny as f64 > big as f64 * 2.0,
            "1-entry LSQ ({tiny}) must serialize vs 16 ({big})"
        );
    }

    /// A misprediction stalls fetch until resolution: random branches that
    /// depend on a long DRAM load resolve late and cost far more than
    /// promptly-resolved ones.
    #[test]
    fn late_resolving_branches_cost_more() {
        let run = |dependent: bool| {
            let mut core = Core::new(SimConfig::table3(1));
            let mut x: u64 = 99;
            let insts: Vec<DynInst> = (0..4_000)
                .map(|i| {
                    let pc = loop_pc(i);
                    match i % 4 {
                        0 => DynInst::int_alu(pc)
                            .with_op(OpClass::Load)
                            .with_dest(9)
                            .with_mem_addr(0x100_0000 + (i as u64) * 4096),
                        3 => {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let taken = (x >> 40) & 1 == 1;
                            let b = DynInst::int_alu(pc)
                                .with_op(OpClass::Branch)
                                .with_branch(taken, if taken { pc + 64 } else { pc + 4 });
                            if dependent {
                                b.with_srcs(9, 0)
                            } else {
                                b
                            }
                        }
                        _ => DynInst::int_alu(pc).with_dest(3),
                    }
                })
                .collect();
            let mut s = insts.into_iter();
            core.run_detailed(&mut s, u64::MAX);
            core.counters().cycles
        };
        let prompt = run(false);
        let late = run(true);
        assert!(
            late > prompt,
            "load-dependent branches ({late}) must cost more than prompt ones ({prompt})"
        );
    }

    /// Store-data dependences are respected: a store whose data comes from a
    /// long-latency op cannot issue until the op completes.
    #[test]
    fn store_waits_for_its_data() {
        let mut cfg = SimConfig::table3(1);
        cfg.int_div_latency = 40;
        let mut core = Core::new(cfg);
        let mut insts = Vec::new();
        for i in 0..500u64 {
            insts.push(
                DynInst::int_alu(loop_pc(i as usize))
                    .with_op(OpClass::IntDiv)
                    .with_dest(6),
            );
            insts.push(
                DynInst::int_alu(loop_pc(i as usize) + 4)
                    .with_op(OpClass::Store)
                    .with_srcs(6, 0)
                    .with_mem_addr(0x20_0000 + (i % 16) * 8),
            );
        }
        let mut s = insts.into_iter();
        let committed = core.run_detailed(&mut s, u64::MAX);
        assert_eq!(committed, 1_000);
        let cpi = core.counters().cycles as f64 / committed as f64;
        // Each divide+store pair is serialized by the divide chain on one
        // shared unit (config 1 has one mult/div unit): >= ~20 cycles/pair.
        assert!(cpi > 10.0, "store must wait for divide, CPI {cpi}");
    }
}
