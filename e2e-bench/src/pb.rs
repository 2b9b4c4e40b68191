//! `pb-reference`: full detailed reference runs of every program on every
//! row of the 44-run Plackett–Burman design around the default machine,
//! then the design's effects and ranks — the reference leg of fig1/fig2.

use std::time::Instant;

use sim_core::config::pb as pbcfg;
use sim_core::{SimConfig, Simulator};
use simstats::pb::{rank_by_magnitude, PbDesign};
use techniques::runner::{run_technique, PreparedBench, RunResult};
use techniques::{TechniqueKind, TechniqueSpec};
use workloads::Interp;

use crate::probe::{self, Exports};
use crate::report::Outcome;
use crate::stats::{median, tail_percentile, windowed, Rng};
use crate::{Args, Rounds, PROGRAMS, SCALE};

/// Set-up takes well under a millisecond; its median over this many
/// repetitions is steady.
const SETUP_REPS: usize = 101;

/// Design rows re-simulated directly in the check phase.
const CHECK_ROWS: usize = 8;

/// Build the workload's programs; errors name an unknown program.
pub fn prepare(names: &[&str]) -> Result<Vec<PreparedBench>, String> {
    names
        .iter()
        .map(|n| PreparedBench::by_name_scaled(n, SCALE).ok_or(format!("{n} is not in the suite")))
        .collect()
}

/// The first permutation of `kind` in the registry's quick set: the
/// one-per-family representative fig1 runs on the design.
pub fn representative(kind: TechniqueKind) -> TechniqueSpec {
    techniques::registry::quick_permutations(SCALE)
        .into_iter()
        .find(|s| s.kind() == kind)
        .expect("the quick set covers every family")
}

/// CPI deviation in percent.
pub fn deviation_pct(cpi: f64, reference: f64) -> f64 {
    (cpi - reference).abs() / reference * 100.0
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(a.seed);
    let base = SimConfig::default();

    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let preps = prepare(&PROGRAMS)?;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let design = PbDesign::new(pbcfg::NUM_PARAMETERS);
        let configs: Vec<SimConfig> = (0..design.num_runs())
            .map(|r| pbcfg::config_for_row(&base, &design.run_levels(r)))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((preps, design, configs));
    }
    let (preps, design, configs) = built.expect("set-up ran");
    out.set("setup_s", median(&setup_s));
    out.set("workloads.program_build_ms", median(&build_ms));

    // Timed phase: whole design sweeps until the run length is reached.
    let rows = design.num_runs();
    let items: Vec<(usize, usize)> = (0..rows)
        .flat_map(|r| (0..PROGRAMS.len()).map(move |p| (r, p)))
        .collect();
    let before = Exports::take();
    let mut rounds = Rounds::start();
    let (mut run_ms, mut effects_us) = (Vec::new(), Vec::new());
    let mut last_effects: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
    let last: Vec<RunResult> = loop {
        probe::clear_reuse_tiers();
        let results = sim_exec::par_map(&items, |&(r, p)| {
            let t = Instant::now();
            let res = run_technique(&TechniqueSpec::Reference, &preps[p], &configs[r]);
            (res, t.elapsed())
        });
        let mut round = Vec::with_capacity(items.len());
        let mut insts = 0;
        for (res, took) in results {
            let res = res.ok_or("the reference technique returned no result")?;
            out.attempted += 1;
            insts += res.cost.detailed + res.cost.warmed + res.cost.skipped;
            run_ms.push(took.as_secs_f64() * 1e3);
            round.push(res);
        }
        last_effects.clear();
        for p in 0..PROGRAMS.len() {
            let y: Vec<f64> = (0..rows)
                .map(|r| round[r * PROGRAMS.len() + p].metrics.cpi)
                .collect();
            let t = Instant::now();
            let effects = design.effects(&y);
            effects_us.push(t.elapsed().as_secs_f64() * 1e6);
            let ranks = rank_by_magnitude(&effects);
            last_effects.push((y, effects, ranks));
        }
        rounds.finish(insts);
        if rounds.enough(a.seconds, 1) {
            break round;
        }
    };
    let after = Exports::take();
    out.set("peak_rss_mb", probe::self_peak_rss_mb()?);
    rounds.report(&mut out);
    // Each round is a window: its own median and p90, then their medians.
    let p50 = windowed(&run_ms, items.len(), |w| Some(median(w))).ok_or("no round")?;
    let p90 = windowed(&run_ms, items.len(), |w| tail_percentile(w, 90.0))
        .ok_or("too few runs in a round for a p90")?;
    for (name, v) in [
        ("job_ms.p50", p50),
        ("job_ms.p90", p90),
        ("techniques.run_ms.p50", p50),
        ("techniques.run_ms.p90", p90),
    ] {
        out.set(name, v);
    }
    out.set("simstats.pb_effects_us", median(&effects_us));
    probe::program_layers(&mut out, &before, &after, &rounds);

    // Check phase (untimed).
    let mut walk = (0u64, 0u64);
    let mut lens = Vec::new();
    for prep in &preps {
        let (n, ns) = probe::walk(prep.reference());
        lens.push(n);
        walk = (walk.0 + n, walk.1 + ns);
    }
    out.set("workloads.walk_ns_per_inst", walk.1 as f64 / walk.0 as f64);
    for (&(r, p), res) in items.iter().zip(&last) {
        out.check(res.metrics.measured_insts == lens[p], || {
            format!(
                "{} row {r}: committed {} of {} instructions",
                PROGRAMS[p], res.metrics.measured_insts, lens[p]
            )
        });
        out.check(
            res.metrics.ipc <= f64::from(configs[r].commit_width),
            || {
                format!(
                    "{} row {r}: IPC {} above the commit width",
                    PROGRAMS[p], res.metrics.ipc
                )
            },
        );
    }
    // Sampled rows against a direct detailed run over a fresh interpreter.
    let check: Vec<(usize, usize)> = rng
        .sample(rows, CHECK_ROWS)
        .into_iter()
        .flat_map(|r| (0..PROGRAMS.len()).map(move |p| (r, p)))
        .collect();
    let direct = sim_exec::par_map(&check, |&(r, p)| {
        let mut sim = Simulator::new(configs[r].clone());
        let mut stream = Interp::new(preps[p].reference());
        sim.run_detailed(&mut stream, u64::MAX);
        sim.stats()
    });
    for (&(r, p), stats) in check.iter().zip(&direct) {
        let got = &last[r * PROGRAMS.len() + p].metrics;
        out.check(
            got.cpi.to_bits() == stats.cpi().to_bits()
                && got.measured_insts == stats.core.committed,
            || {
                format!(
                    "{} row {r}: CPI {} but a direct run gives {}",
                    PROGRAMS[p],
                    got.cpi,
                    stats.cpi()
                )
            },
        );
    }
    // Effects against the benchmark's own ± contrast sums; ranks a permutation.
    let half = rows as f64 / 2.0;
    for (p, (y, effects, ranks)) in last_effects.iter().enumerate() {
        for (f, &e) in effects.iter().enumerate() {
            let sum = (0..rows).fold(0.0, |s, r| {
                if design.level(r, f) {
                    s + y[r]
                } else {
                    s - y[r]
                }
            });
            out.check((sum / half).to_bits() == e.to_bits(), || {
                format!(
                    "{} factor {f}: effect {e} but the contrast sum gives {}",
                    PROGRAMS[p],
                    sum / half
                )
            });
        }
        let mut sorted = ranks.clone();
        sorted.sort_by(f64::total_cmp);
        let identity: Vec<f64> = (1..=effects.len()).map(|k| k as f64).collect();
        out.check(sorted == identity, || {
            format!("{}: ranks are not a permutation", PROGRAMS[p])
        });
    }
    // Accuracy of fig1's SMARTS and SimPoint representatives on every row,
    // against the reference CPIs of the timed phase.
    for (name, kind) in [
        ("smarts_cpi_dev_pct", TechniqueKind::Smarts),
        ("simpoint_cpi_dev_pct", TechniqueKind::SimPoint),
    ] {
        let spec = representative(kind);
        let devs = sim_exec::par_map(&items, |&(r, p)| {
            run_technique(&spec, &preps[p], &configs[r]).map(|x| x.metrics.cpi)
        });
        let mut sum = 0.0;
        for ((&(r, p), cpi), reference) in items.iter().zip(devs).zip(&last) {
            let cpi = cpi.ok_or_else(|| {
                format!("{} gave no result on {} row {r}", spec.label(), PROGRAMS[p])
            })?;
            sum += deviation_pct(cpi, reference.metrics.cpi);
        }
        out.set(name, sum / items.len() as f64);
    }
    Ok(out)
}
