//! Layer probes shared by the in-process workloads: the benchmark's own
//! timed calls into `workloads` and `sim-core`, and reads of the phase
//! totals and counters the program already exports through `sim_obs`.

use std::time::Instant;

use sim_core::isa::InstStream;
use sim_obs::trace::{Phase, PhaseAcc, PHASE_COUNT};
use workloads::{Interp, Program};

use crate::report::Outcome;
use crate::{Rounds, WORKERS};

/// Walk `program` to its end with `InstStream::next_block` on a fresh
/// interpreter; returns `(instructions, nanoseconds)`. The count is the
/// program's true dynamic length.
pub fn walk(program: &Program) -> (u64, u64) {
    let mut stream = Interp::new(program);
    let mut buf = Vec::with_capacity(64);
    let mut insts = 0u64;
    let start = Instant::now();
    loop {
        buf.clear();
        let n = stream.next_block(&mut buf, 64);
        if n == 0 {
            break;
        }
        insts += n as u64;
    }
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(&buf);
    (insts, ns)
}

/// The program's exported phase totals and metric registry at one moment.
pub struct Exports {
    phases: [PhaseAcc; PHASE_COUNT],
    metrics: Vec<(String, u64)>,
}

impl Exports {
    /// Snapshot now.
    pub fn take() -> Exports {
        Exports {
            phases: sim_obs::trace::global_phase_totals(),
            metrics: sim_obs::metrics::snapshot(),
        }
    }

    /// Value of a registered metric (0 when never touched).
    pub fn metric(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Totals of `phase`.
    pub fn phase(&self, phase: Phase) -> PhaseAcc {
        self.phases[phase as usize]
    }
}

/// `(ns, insts)` of the given phases between two snapshots.
fn phase_delta(a: &Exports, b: &Exports, phases: &[Phase]) -> (f64, f64) {
    phases.iter().fold((0.0, 0.0), |(ns, insts), &p| {
        let (x, y) = (a.phase(p), b.phase(p));
        (
            ns + y.ns.saturating_sub(x.ns) as f64,
            insts + y.insts.saturating_sub(x.insts) as f64,
        )
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of `sim-core`, `workloads`, `techniques` and
/// `sim-exec` read off the program's exports around a timed phase.
/// Totals are per round; hit ratios are those of the last round (the
/// reuse tiers restart every round).
pub fn program_layers(out: &mut Outcome, a: &Exports, b: &Exports, timed: &Rounds) {
    let (rounds, wall_s) = (timed.count(), timed.elapsed());
    let d = |name: &str| b.metric(name).saturating_sub(a.metric(name)) as f64;
    let (det_ns, det_insts) = phase_delta(a, b, &[Phase::Measure, Phase::WarmUp]);
    let (warm_ns, warm_insts) = phase_delta(a, b, &[Phase::FunctionalWarm]);
    let (skip_ns, skip_insts) = phase_delta(a, b, &[Phase::FastForward]);
    let (restore_ns, _) = phase_delta(a, b, &[Phase::CheckpointRestore]);
    out.set("sim_core.detailed_ns_per_inst", ratio(det_ns, det_insts));
    out.set("sim_core.warm_ns_per_inst", ratio(warm_ns, warm_insts));
    out.set("sim_core.skip_ns_per_inst", ratio(skip_ns, skip_insts));
    out.set("sim_core.detailed_minst", det_insts / 1e6 / rounds);
    out.set("sim_core.warm_minst", warm_insts / 1e6 / rounds);
    out.set("sim_core.skip_minst", skip_insts / 1e6 / rounds);
    out.set(
        "sim_core.insts_per_refill",
        ratio(d("pipeline.refill_insts"), d("pipeline.batch_refills")),
    );
    out.set(
        "sim_core.warm_filter_hits_per_kinst",
        ratio(d("warm.filter_hits"), warm_insts / 1e3),
    );
    let (hit, miss) = (
        d("pipeline.trace_cache.hit"),
        d("pipeline.trace_cache.miss"),
    );
    out.set("workloads.tcache_hit_ratio", ratio(hit, hit + miss));
    out.set(
        "workloads.tcache_mb",
        b.metric("pipeline.trace_cache.bytes") as f64 / 1e6,
    );
    for (name, tier) in [
        ("techniques.ckpt_arch_hit_ratio", "arch"),
        ("techniques.ckpt_warm_hit_ratio", "warm"),
        ("techniques.ckpt_prefix_hit_ratio", "prefix"),
    ] {
        let hits = b.metric(&format!("ckpt.{tier}.hits")) as f64;
        let misses = b.metric(&format!("ckpt.{tier}.misses")) as f64;
        out.set(name, ratio(hits, hits + misses));
    }
    out.set(
        "techniques.ckpt_warm_mb",
        b.metric("ckpt.warm.bytes") as f64 / 1e6,
    );
    out.set("techniques.restore_ms", restore_ns / 1e6 / rounds);
    out.set(
        "sim_exec.queue_wait_ms",
        d("par_map.queue_wait_ns") / 1e6 / rounds,
    );
    out.set(
        "sim_exec.idle_s",
        (WORKERS as f64 * wall_s - d("par_map.busy_ns") / 1e9) / rounds,
    );
    out.set(
        "sim_exec.shard_merge_wait_ms",
        d("shard.merge_wait_ns") / 1e6 / rounds,
    );
}

/// Clear the reuse tiers that memoize runs (run cache, checkpoint
/// library), so every round repeats the same work. Phase totals and the
/// other counters keep accumulating.
pub fn clear_reuse_tiers() {
    techniques::cache::global().clear();
    techniques::checkpoint::global().clear();
}

/// Peak resident memory of this process in MB.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    crate::daemon::peak_rss_mb(std::process::id())
}
