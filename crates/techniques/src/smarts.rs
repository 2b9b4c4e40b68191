//! SMARTS [Wunderlich03]: systematic sampling with functional warming and
//! statistical error estimation.
//!
//! The execution is divided into `n` equally spaced sampling units. Between
//! units the simulator runs in *functional warming* mode (caches and branch
//! predictor stay warm, no timing); before each measured unit of `u`
//! instructions a detailed warm-up of `w` instructions fills the pipeline
//! and scheduler state. Per-unit CPIs feed a confidence-interval estimate;
//! if the target (±3% at 99.7% confidence) is missed, SMARTS recommends a
//! larger `n` and the harness reruns — the rerun cost is charged, as in the
//! paper's SvAT analysis.
//!
//! # Intra-run sharding
//!
//! Units are grouped into *segments* of [`SEG_UNITS`] consecutive units on
//! a fixed grid (segment `s` starts at absolute stream position
//! `s · SEG_UNITS · period`). Each segment is an independent job: a fresh
//! interpreter is positioned at the segment origin minus a bounded
//! functional warm-in ([`warm_in_horizon`]) through the checkpoint
//! library's architectural tier, the warm-in and every inter-unit gap are
//! functionally warmed (and charged), and the segment's units are measured
//! exactly as the serial loop would. Segments fan out over
//! [`sim_exec::shard_map`] and merge in segment order, so the result is a
//! pure function of the grid — byte-identical at any `SIM_SHARDS` value,
//! including 1 (the serial path runs the same segments in a plain loop).
//! The positioning fast-forward is charged as skipped cost, exactly like a
//! cold `FF X` prefix: sharding never gets free work.

use crate::checkpoint;
use crate::cost::Cost;
use crate::metrics::Metrics;
use sim_core::{SimConfig, SimStats, Simulator};
use sim_obs::{trace as obs, Phase};
use simstats::ci::{estimate, SampleEstimate};
use workloads::{Interp, Program};

/// The paper's confidence configuration: 99.7% (z = 3), ±3%.
pub const Z_997: f64 = 3.0;
/// Target relative confidence-interval half-width.
pub const TARGET_RELATIVE: f64 = 0.03;
/// Maximum number of full sampling runs (initial + reruns).
pub const MAX_RUNS: u32 = 3;
/// Sampling units per shard segment: large enough to amortize the
/// per-segment warm-in, small enough that a typical run (tens to hundreds
/// of units) still splits across every worker.
pub const SEG_UNITS: usize = 8;

/// Functional warm-in executed before a segment's first unit (in place of
/// the cumulative warming history a serial walk would carry). Bounded so a
/// segment's cost does not grow with its position in the stream. 512K
/// instructions rebuilds enough L2 and predictor history to keep the
/// sampled CPI within the serial walk's error envelope (validated against
/// the reference CPI in tests); on streams shorter than the bound every
/// segment warms from the origin, so short-stream runs — where truncated
/// history bites hardest and warming is cheap — carry full history.
pub fn warm_in_horizon(len: u64) -> u64 {
    512_000.min(len).max(1)
}

/// Result of a SMARTS measurement.
#[derive(Debug, Clone)]
pub struct SmartsOutcome {
    /// Instruction-weighted aggregate metrics over all measured units.
    pub metrics: Metrics,
    /// Total cost, including reruns.
    pub cost: Cost,
    /// Number of sampling units in the final run.
    pub n_samples: usize,
    /// CPI confidence estimate of the final run.
    pub estimate: SampleEstimate,
    /// Whether the ±3% @ 99.7% target was met.
    pub met_target: bool,
    /// Total sampling runs performed (1 = no rerun needed).
    pub runs: u32,
}

/// Choose the initial number of sampling units for a stream of `len`
/// instructions with unit size `u + w`.
///
/// The paper starts at n = 10,000 on multi-billion-instruction executions;
/// we scale to the stream while keeping the sampled fraction comparable and
/// never packing units closer than one unit per 4 periods.
pub fn initial_n(len: u64, u: u64, w: u64) -> usize {
    let unit = (u + w).max(1);
    let max_n = (len / (2 * unit)).max(1);
    ((len / (20 * unit)).clamp(30, 10_000)).min(max_n) as usize
}

/// One segment's results: per-unit CPIs, merged stats, and segment cost.
struct SegmentOut {
    cpis: Vec<f64>,
    agg: SimStats,
    cost: Cost,
    /// The stream ran out inside this segment; the merge discards every
    /// later segment, exactly where the serial walk would have stopped.
    terminal: bool,
}

/// The fixed sampling grid every segment is cut from: unit and detailed
/// warm-up sizes, the grid period, and the functional warm-in horizon for
/// non-first segments.
#[derive(Clone, Copy)]
struct Grid {
    u: u64,
    w: u64,
    period: u64,
    horizon: u64,
}

/// Simulate one segment of up to `units` consecutive sampling units whose
/// first unit sits at grid position `first_unit * period`.
///
/// Everything here is a pure function of (program, cfg, grid, first_unit,
/// units) — no state flows between segments — which is what makes the
/// shard fan-out deterministic at any worker count.
fn segment_pass(
    program: &Program,
    cfg: &SimConfig,
    grid: Grid,
    first_unit: usize,
    units: usize,
) -> SegmentOut {
    let Grid {
        u,
        w,
        period,
        horizon,
    } = grid;
    let mut sim = Simulator::new(cfg.clone());
    let mut stream = Interp::new(program);
    let mut out = SegmentOut {
        cpis: Vec::with_capacity(units),
        agg: SimStats::default(),
        cost: Cost::default(),
        terminal: false,
    };
    let gap = period - u - w;

    if first_unit > 0 {
        // Position at origin − horizon through the architectural
        // checkpoint tier (charged as skipped, like any cold FF prefix),
        // then functionally warm the horizon so the segment's first unit
        // sees recent cache and predictor history.
        let origin = first_unit as u64 * period;
        let warm_from = origin.saturating_sub(horizon);
        let skipped = checkpoint::global().advance_interp(&mut stream, warm_from);
        out.cost.skipped += skipped;
        if skipped < warm_from {
            out.terminal = true;
            return out;
        }
        let warm_in = origin - warm_from;
        let warmed = sim.warm_functional(&mut stream, warm_in);
        out.cost.warmed += warmed;
        if warmed < warm_in {
            out.terminal = true;
            return out;
        }
    }

    for _ in 0..units {
        // Functional warming up to the next unit.
        let warmed = sim.warm_functional(&mut stream, gap);
        out.cost.warmed += warmed;
        if warmed < gap {
            out.terminal = true;
            break; // stream exhausted
        }
        // Detailed warm-up (pipeline fill), stats discarded.
        let mut span = obs::span(Phase::WarmUp);
        let wu = sim.run_detailed(&mut stream, w);
        span.add_insts(wu);
        drop(span);
        out.cost.detailed += wu;
        if wu < w {
            out.terminal = true;
            break;
        }
        sim.reset_stats();
        // Measured unit.
        let mut span = obs::span(Phase::Measure);
        let measured = sim.run_detailed(&mut stream, u);
        span.add_insts(measured);
        drop(span);
        out.cost.detailed += measured;
        if measured == 0 {
            out.terminal = true;
            break;
        }
        let stats = sim.stats();
        out.cpis.push(stats.cpi());
        out.agg.merge(&stats);
        sim.reset_stats();
        if measured < u {
            out.terminal = true;
            break;
        }
    }
    out
}

/// One full systematic-sampling pass; returns per-unit CPIs, aggregate
/// stats, and the pass cost. Segments fan out over
/// [`sim_exec::shard_map`] and merge in segment order.
fn sampling_pass(
    program: &Program,
    cfg: &SimConfig,
    u: u64,
    w: u64,
    n: usize,
) -> (Vec<f64>, SimStats, Cost) {
    let len = program.dynamic_len_estimate.max(1);
    let period = (len / n as u64).max(u + w + 1);
    let horizon = warm_in_horizon(len);
    let segments: Vec<(usize, usize)> = (0..n.div_ceil(SEG_UNITS))
        .map(|s| {
            let first = s * SEG_UNITS;
            (first, SEG_UNITS.min(n - first))
        })
        .collect();
    let grid = Grid {
        u,
        w,
        period,
        horizon,
    };
    let outs = sim_exec::shard_map(&segments, |&(first, units)| {
        segment_pass(program, cfg, grid, first, units)
    });

    let mut cpis = Vec::with_capacity(n);
    let mut agg = SimStats::default();
    let mut cost = Cost::default();
    for o in &outs {
        cpis.extend_from_slice(&o.cpis);
        agg.merge(&o.agg);
        cost.add(&o.cost);
        if o.terminal {
            break; // the serial walk would have stopped here
        }
    }
    (cpis, agg, cost)
}

/// Run SMARTS on `program` under `cfg` with unit size `u` and detailed
/// warm-up `w`.
///
/// # Panics
/// Panics if `u == 0`.
pub fn run_smarts(program: &Program, cfg: &SimConfig, u: u64, w: u64) -> SmartsOutcome {
    assert!(u > 0, "sampling unit must be nonzero");
    let len = program.dynamic_len_estimate.max(1);
    let mut n = initial_n(len, u, w);
    // Rerunning at the recommended n can demand more units than a short
    // stream supports; cap so a rerun never degenerates into near-full
    // detailed simulation (at most one unit per eight periods).
    let n_cap = ((len / (8 * (u + w).max(1))).max(1) as usize).max(n);

    let mut total_cost = Cost::default();
    let mut runs = 0u32;
    loop {
        runs += 1;
        let (cpis, agg, cost) = sampling_pass(program, cfg, u, w, n);
        total_cost.add(&cost);
        let est = estimate(&cpis, Z_997);
        let met = est.meets(TARGET_RELATIVE);
        let recommended = est.recommended_n(Z_997, TARGET_RELATIVE).min(n_cap);
        if met || runs >= MAX_RUNS || recommended <= n {
            total_cost.extra_runs = runs - 1;
            return SmartsOutcome {
                metrics: Metrics::from_stats(&agg),
                cost: total_cost,
                n_samples: cpis.len(),
                estimate: est,
                met_target: met,
                runs,
            };
        }
        n = recommended;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{benchmark, InputSet};

    fn prog() -> Program {
        benchmark("gzip").unwrap().program(InputSet::Small).unwrap()
    }

    #[test]
    fn initial_n_scales_with_length_and_clamps() {
        assert_eq!(initial_n(10_000_000, 100, 200), 1_666);
        assert_eq!(initial_n(1_000_000_000, 100, 200), 10_000);
        // Tiny stream: bounded by the one-unit-per-two-periods cap.
        assert_eq!(initial_n(12_000, 100, 200), 20);
    }

    #[test]
    fn smarts_tracks_reference_cpi_closely() {
        // Use a reference-length stream: on tiny streams the *reference*
        // cold-start dominates and no sampling technique can match it.
        let p = workloads::benchmark("gzip").unwrap().reference();
        let cfg = SimConfig::table3(2);
        let mut sim = Simulator::new(cfg.clone());
        let mut s = workloads::Interp::new(&p);
        sim.run_detailed(&mut s, u64::MAX);
        let ref_cpi = sim.stats().cpi();

        let out = run_smarts(&p, &cfg, 1_000, 2_000);
        let err = ((out.metrics.cpi - ref_cpi) / ref_cpi).abs();
        assert!(
            err < 0.10,
            "SMARTS CPI {} vs reference {} (err {:.1}%, n={})",
            out.metrics.cpi,
            ref_cpi,
            err * 100.0,
            out.n_samples
        );
    }

    #[test]
    fn smarts_is_cheaper_than_full_detail() {
        let p = prog();
        let out = run_smarts(&p, &SimConfig::table3(1), 100, 200);
        // Per sampling pass, detailed simulation is bounded by the
        // one-unit-per-two-periods cap (tiny test program, so the cap
        // binds; real streams sample far more sparsely).
        let per_pass = out.cost.detailed as f64 / out.runs as f64;
        assert!(
            per_pass < 0.6 * p.dynamic_len_estimate as f64,
            "per-pass detailed {} of {}",
            per_pass,
            p.dynamic_len_estimate
        );
        assert!(out.cost.warmed > 0, "functional warming must be used");
    }

    #[test]
    fn smarts_reruns_when_variance_is_high() {
        // mcf/small has wildly varying per-unit CPI; with tiny units the
        // first pass should miss ±3% and trigger a rerun (or hit the cap).
        let p = benchmark("mcf").unwrap().program(InputSet::Small).unwrap();
        let out = run_smarts(&p, &SimConfig::table3(1), 100, 200);
        assert!(out.runs >= 1);
        assert_eq!(out.cost.extra_runs, out.runs - 1);
        // Either it met the target eventually or it exhausted its budget.
        assert!(out.met_target || out.runs <= MAX_RUNS);
    }

    #[test]
    fn samples_cover_the_whole_execution() {
        let p = prog();
        let out = run_smarts(&p, &SimConfig::table3(1), 1_000, 2_000);
        assert!(out.n_samples >= 10, "only {} samples", out.n_samples);
        // Total processed ≈ program length per pass.
        let per_pass = (out.cost.warmed + out.cost.detailed) / out.runs as u64;
        let len = p.dynamic_len_estimate;
        assert!(
            per_pass > len / 2,
            "sampling should traverse the stream: {per_pass} vs {len}"
        );
    }
}
