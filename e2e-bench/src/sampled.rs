//! `sampled-sweep`: the SMARTS, SimPoint and FF+WU+Run permutations of the
//! registry's quick set on every program across the whole configuration
//! envelope — the fig5 configuration-dependence sweep.

use std::time::Instant;

use characterize::configs::envelope_configs;
use sim_core::{SimConfig, Simulator};
use sim_obs::Phase;
use techniques::runner::{run_technique, RunResult};
use techniques::{TechniqueKind, TechniqueSpec};
use workloads::Interp;

use crate::pb::{deviation_pct, prepare};
use crate::probe::{self, Exports};
use crate::report::Outcome;
use crate::stats::{median, tail_percentile, windowed, Rng};
use crate::{Args, Rounds, PROGRAMS, SCALE};

/// Set-up (programs plus SimPoint analysis) repetitions; median reported.
const SETUP_REPS: usize = 3;

/// Latency windows per sweep: six spans of 120 runs, each with twelve
/// samples beyond its p90.
const PASS_WINDOWS: usize = 6;

pub fn run(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(a.seed);
    // Every envelope configuration, in a seed-drawn order: the accuracy
    // figures then cover the same points on every seed.
    let mut configs: Vec<SimConfig> = envelope_configs();
    rng.shuffle(&mut configs);
    let specs: Vec<TechniqueSpec> = techniques::registry::quick_permutations(SCALE)
        .into_iter()
        .filter(|s| {
            matches!(
                s.kind(),
                TechniqueKind::Smarts | TechniqueKind::SimPoint | TechniqueKind::FfWuRun
            )
        })
        .collect();
    let plans: Vec<(usize, u64, usize)> = (0..PROGRAMS.len())
        .flat_map(|p| {
            specs.iter().filter_map(move |s| match *s {
                TechniqueSpec::SimPoint {
                    interval, max_k, ..
                } => Some((p, interval, max_k)),
                _ => None,
            })
        })
        .collect();

    let (mut setup_s, mut build_ms, mut plan_s, mut profile_s) = (vec![], vec![], vec![], vec![]);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let profile_before = sim_obs::trace::global_phase_totals()[Phase::Profile as usize].ns;
        let t = Instant::now();
        let preps = prepare(&PROGRAMS)?;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let walls = sim_exec::par_map(&plans, |&(p, interval, k)| {
            let t = Instant::now();
            preps[p].simpoint_plan(interval, k);
            t.elapsed().as_secs_f64()
        });
        setup_s.push(t.elapsed().as_secs_f64());
        let profile_ns =
            sim_obs::trace::global_phase_totals()[Phase::Profile as usize].ns - profile_before;
        plan_s.push(walls.iter().sum::<f64>());
        profile_s.push(profile_ns as f64 / 1e9);
        built = Some(preps);
    }
    let preps = built.expect("set-up ran");
    out.set("setup_s", median(&setup_s));
    out.set("workloads.program_build_ms", median(&build_ms));
    out.set("techniques.simpoint_plan_s", median(&plan_s));
    if a.trace {
        out.set("techniques.profile_s", median(&profile_s));
        let cluster: Vec<f64> = plan_s.iter().zip(&profile_s).map(|(p, q)| p - q).collect();
        out.set("simstats.cluster_s", median(&cluster));
    }

    // Timed phase: whole sweeps until the run length is reached.
    let n_specs = specs.len();
    let items: Vec<(usize, usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..PROGRAMS.len()).flat_map(move |p| (0..n_specs).map(move |s| (c, p, s))))
        .collect();
    let before = Exports::take();
    let mut rounds = Rounds::start();
    let mut run_ms = Vec::new();
    let mut last: Vec<RunResult> = Vec::new();
    loop {
        probe::clear_reuse_tiers();
        let results = sim_exec::par_map(&items, |&(c, p, s)| {
            let t = Instant::now();
            let res = run_technique(&specs[s], &preps[p], &configs[c]);
            (res, t, t.elapsed())
        });
        last.clear();
        let mut insts = 0;
        let mut finished = Vec::with_capacity(items.len());
        for ((c, p, s), (res, started, took)) in items.iter().zip(results) {
            let res = res.ok_or_else(|| {
                format!(
                    "{} gave no result on {} config {c}",
                    specs[*s].label(),
                    PROGRAMS[*p]
                )
            })?;
            out.attempted += 1;
            insts += res.cost.detailed + res.cost.warmed + res.cost.skipped;
            finished.push((started + took, took.as_secs_f64() * 1e3));
            last.push(res);
        }
        // Latency windows are spans of time: runs in the order they ended.
        finished.sort_by_key(|&(end, _)| end);
        run_ms.extend(finished.iter().map(|&(_, ms)| ms));
        rounds.finish(insts);
        if rounds.enough(a.seconds, 1) {
            break;
        }
    }
    let after = Exports::take();
    out.set("peak_rss_mb", probe::self_peak_rss_mb()?);
    rounds.report(&mut out);
    let window = items.len() / PASS_WINDOWS;
    let p50 = windowed(&run_ms, window, |w| Some(median(w))).ok_or("no window")?;
    let p90 = windowed(&run_ms, window, |w| tail_percentile(w, 90.0))
        .ok_or("too few runs in a window for a p90")?;
    for (name, v) in [
        ("job_ms.p50", p50),
        ("job_ms.p90", p90),
        ("techniques.run_ms.p50", p50),
        ("techniques.run_ms.p90", p90),
    ] {
        out.set(name, v);
    }
    probe::program_layers(&mut out, &before, &after, &rounds);

    // Check phase (untimed). Reference CPIs from direct detailed runs.
    let pairs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..PROGRAMS.len()).map(move |p| (c, p)))
        .collect();
    let reference = sim_exec::par_map(&pairs, |&(c, p)| {
        let mut sim = Simulator::new(configs[c].clone());
        let mut stream = Interp::new(preps[p].reference());
        sim.run_detailed(&mut stream, u64::MAX);
        sim.stats().cpi()
    });
    let mut walk = (0u64, 0u64);
    let mut lens = Vec::new();
    for prep in &preps {
        let (n, ns) = probe::walk(prep.reference());
        lens.push(n);
        walk = (walk.0 + n, walk.1 + ns);
    }
    out.set("workloads.walk_ns_per_inst", walk.1 as f64 / walk.0 as f64);

    let (mut smarts, mut simpoint) = (Vec::new(), Vec::new());
    for (&(c, p, s), res) in items.iter().zip(&last) {
        let spec = &specs[s];
        let what = || format!("{} on {} config {c}", spec.label(), PROGRAMS[p]);
        let walked = res.cost.detailed + res.cost.warmed + res.cost.skipped;
        let ref_cpi = reference[c * PROGRAMS.len() + p];
        match *spec {
            TechniqueSpec::Smarts { u, w } => {
                // Each sampling pass walks the program to its end, short
                // of at most one instruction per unit of grid truncation.
                let est = preps[p].reference_len();
                let floor =
                    u64::from(1 + res.cost.extra_runs) * (est.min(lens[p]) - est / (2 * (u + w)));
                out.check(walked >= floor, || {
                    format!("{}: walked {walked} < {floor}", what())
                });
                smarts.push(deviation_pct(res.metrics.cpi, ref_cpi));
            }
            TechniqueSpec::FfWuRun { x, y, z } => {
                let slack = 2 * u64::from(configs[c].commit_width);
                out.check(
                    res.cost.skipped == x
                        && res.cost.warmed == 0
                        && (y + z..=y + z + slack).contains(&res.cost.detailed),
                    || format!("{}: cost {:?} does not cover x+y+z", what(), res.cost),
                );
            }
            TechniqueSpec::SimPoint { .. } => {
                simpoint.push(deviation_pct(res.metrics.cpi, ref_cpi))
            }
            _ => {}
        }
    }
    for &(p, interval, k) in &plans {
        let total: f64 = preps[p]
            .simpoint_plan(interval, k)
            .points
            .iter()
            .map(|pt| pt.weight)
            .sum();
        out.check((total - 1.0).abs() <= 1e-9, || {
            format!(
                "SimPoint {interval}/{k} on {}: weights sum to {total}",
                PROGRAMS[p]
            )
        });
    }
    out.set(
        "smarts_cpi_dev_pct",
        smarts.iter().sum::<f64>() / smarts.len() as f64,
    );
    out.set(
        "simpoint_cpi_dev_pct",
        simpoint.iter().sum::<f64>() / simpoint.len() as f64,
    );

    // Every permutation once more, on a seed-drawn program and config,
    // with every reuse tier bypassed: run cache emptied, checkpoints off,
    // no store.
    probe::clear_reuse_tiers();
    techniques::checkpoint::set_enabled(false);
    for s in 0..specs.len() {
        let c = rng.below(configs.len());
        let p = rng.below(PROGRAMS.len());
        let cold = run_technique(&specs[s], &preps[p], &configs[c]);
        let timed = &last[(c * PROGRAMS.len() + p) * specs.len() + s];
        out.check(
            cold.as_ref().is_some_and(|x| {
                x.metrics.cpi.to_bits() == timed.metrics.cpi.to_bits() && x.cost == timed.cost
            }),
            || {
                format!(
                    "{} on {} config {c}: differs with reuse bypassed",
                    specs[s].label(),
                    PROGRAMS[p]
                )
            },
        );
    }
    techniques::checkpoint::set_enabled(true);
    Ok(out)
}
