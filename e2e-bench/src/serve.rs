//! `serve-mix`: one client in a closed loop against a restarted `simserve`
//! whose store was filled in set-up. Each job goes over a new connection,
//! as `simctl submit` does; most resubmit runs computed in set-up (store
//! reads), the rest are new SMARTS and SimPoint jobs (computed, store
//! writes).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sim_core::{SimConfig, Simulator};
use techniques::jobs::JobPlan;
use workloads::Interp;

use crate::daemon::{self, Daemon};
use crate::pb::{deviation_pct, prepare};
use crate::probe;
use crate::report::Outcome;
use crate::stats::{median, tail_percentile, windowed, Rng};
use crate::wire::{self, Trip};
use crate::{Args, Rounds, PROGRAMS, SCALE};

/// Set-up (start, fill, drain, restart) repetitions; median reported.
const SETUP_REPS: usize = 11;

/// The daemon's configuration names, less `table3:2`: it is the same
/// machine as `default`, so its runs would share store keys.
const CONFIGS: [&str; 4] = ["default", "table3:1", "table3:3", "table3:4"];

/// Short reference-prefix runs per (program, config) computed in set-up:
/// 600 store entries, more than a run at today's speed resubmits.
const POOL_SPECS: u64 = 50;

/// (program, config) pairs the new jobs cycle through.
const PAIRS: usize = PROGRAMS.len() * CONFIGS.len();

/// One step per pair: four store-hit jobs and two new ones (SMARTS, then
/// SimPoint), in this order. A round is one step on every pair, so every
/// round does the same work: 72 jobs.
const STEP: [bool; 6] = [false, false, true, false, false, true];

/// Rounds per latency window: 144 jobs, so a window's p90 has ten samples
/// beyond it. A run is at least one window and ends on a whole one (the
/// pool's resubmits last twelve rounds, an even number).
const WINDOW_ROUNDS: usize = 2;

/// New jobs scored for accuracy: the first round's, every pair once per
/// family.
const SCORED: usize = 2 * PAIRS;

/// Jobs of each kind re-run offline through `JobPlan`.
const OFFLINE_RECHECK: usize = 3;

fn config(name: &str) -> SimConfig {
    match name.strip_prefix("table3:") {
        Some(n) => SimConfig::table3(n.parse().expect("CONFIGS names table3:1..4")),
        None => SimConfig::default(),
    }
}

/// One job of the timed phase.
struct Job {
    computed: bool,
    program: usize,
    config: usize,
    spec: String,
    trip: Trip,
}

impl Job {
    fn what(&self) -> String {
        format!(
            "{} {} {}",
            PROGRAMS[self.program], CONFIGS[self.config], self.spec
        )
    }
}

/// Where this run's stores live; removed when the run passes its checks.
fn run_dir(a: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("runs")
        .join(format!("serve-mix-s{}-p{}", a.seed, std::process::id()))
}

pub fn run(a: &Args, simserve: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(a.seed);
    let dir = run_dir(a);
    let _ = std::fs::remove_dir_all(&dir);

    // The same pool on every seed (so set-up does the same work); the seed
    // draws the order in which the timed phase resubmits it.
    let pool_specs: Vec<String> = (0..POOL_SPECS)
        .map(|i| format!("runz:z={}", 1_000 + 13 * i))
        .collect();
    let fill_request = wire::submit_request(&PROGRAMS, SCALE, &pool_specs, &CONFIGS);
    let n_pool = pool_specs.len();
    let mut pool: Vec<(usize, usize, usize)> = (0..PROGRAMS.len())
        .flat_map(|p| (0..CONFIGS.len()).flat_map(move |c| (0..n_pool).map(move |s| (p, c, s))))
        .collect();
    rng.shuffle(&mut pool);

    // Set-up, repeated on fresh stores: start, fill, drain, restart.
    let (mut setup_s, mut startup, mut drain) = (vec![], vec![], vec![]);
    let mut first_cpi: HashMap<(String, String, String), f64> = HashMap::new();
    let mut daemon: Option<Daemon> = None;
    let mut store = PathBuf::new();
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            drain.push(d.stop()?);
        }
        store = dir.join(format!("store-{rep}"));
        let t = Instant::now();
        let d = Daemon::start(simserve, &store)?;
        startup.push(d.startup);
        let fill = wire::submit(d.addr, &fill_request)?;
        drain.push(d.stop()?);
        let d = Daemon::start(simserve, &store)?;
        startup.push(d.startup);
        setup_s.push(t.elapsed().as_secs_f64());
        out.check(
            fill.done.ok && fill.done.na == 0 && fill.records.len() as u64 == fill.runs,
            || format!("set-up fill: {:?} for {} runs", fill.done, fill.runs),
        );
        first_cpi = fill
            .records
            .iter()
            .map(|r| ((r.bench.clone(), r.cfg.clone(), r.spec.clone()), r.cpi))
            .collect();
        daemon = Some(d);
    }
    let d = daemon.expect("set-up ran");
    out.set("setup_s", median(&setup_s));

    // Timed phase.
    let mut jobs: Vec<Job> = Vec::new();
    let (mut next_hit, mut computed) = (0usize, 0usize);
    let mut rounds = Rounds::start();
    while next_hit + 4 * PAIRS <= pool.len() {
        let mut insts = 0;
        for &is_computed in STEP.iter().cycle().take(STEP.len() * PAIRS) {
            let (program, config, spec) = if is_computed {
                // The jitter makes every new job a new store key. The
                // sequence is the same on every seed: the scored accuracy
                // is too.
                let pair = (computed / 2) % PAIRS;
                let j = computed as u64;
                let spec = if computed % 2 == 0 {
                    format!("smarts:u={},w=2000", 1_000 + j)
                } else {
                    format!("simpoint:interval={},k=10", 5_000 + j)
                };
                computed += 1;
                (pair / CONFIGS.len(), pair % CONFIGS.len(), spec)
            } else {
                let (p, c, s) = pool[next_hit];
                next_hit += 1;
                (p, c, pool_specs[s].clone())
            };
            let request = wire::submit_request(
                &[PROGRAMS[program]],
                SCALE,
                std::slice::from_ref(&spec),
                &[CONFIGS[config]],
            );
            let trip = wire::submit(d.addr, &request)?;
            out.attempted += 1;
            insts += trip
                .records
                .iter()
                .map(|r| r.cost.iter().sum::<u64>())
                .sum::<u64>();
            jobs.push(Job {
                computed: is_computed,
                program,
                config,
                spec,
                trip,
            });
        }
        rounds.finish(insts);
        let done = rounds.count() as usize;
        if done == WINDOW_ROUNDS {
            // The daemon keeps state per job served, so its peak is read
            // after a fixed number of jobs, not after however many the
            // run length allowed.
            out.set("peak_rss_mb", daemon::peak_rss_mb(d.pid())?);
        }
        if done.is_multiple_of(WINDOW_ROUNDS) && rounds.enough(a.seconds, WINDOW_ROUNDS) {
            break;
        }
    }
    drain.push(d.stop()?);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let total: Vec<f64> = jobs.iter().map(|j| ms(j.trip.total())).collect();
    rounds.report(&mut out);
    let window = WINDOW_ROUNDS * STEP.len() * PAIRS;
    out.set(
        "job_ms.p50",
        windowed(&total, window, |w| Some(median(w))).ok_or("no window")?,
    );
    out.set(
        "job_ms.p90",
        windowed(&total, window, |w| tail_percentile(w, 90.0))
            .ok_or("too few jobs in a window for a p90")?,
    );
    layers(&mut out, &jobs, rounds.count(), &startup, &drain)?;

    // Check phase (untimed).
    for j in &jobs {
        let t = &j.trip;
        out.check(
            t.done.ok
                && t.done.state == "done"
                && t.done.na == 0
                && t.done.records == t.runs
                && t.records.len() as u64 == t.runs,
            || format!("{}: done line {:?} for {} runs", j.what(), t.done, t.runs),
        );
        for r in &t.records {
            if j.computed {
                out.check(
                    r.provenance != "store-restore" && r.provenance != "cache",
                    || format!("{}: a new job was served as {}", j.what(), r.provenance),
                );
            } else {
                let first = first_cpi.get(&(r.bench.clone(), r.cfg.clone(), r.spec.clone()));
                out.check(
                    r.provenance == "store-restore" && first == Some(&r.cpi),
                    || {
                        format!(
                            "{}: resubmit is {} with CPI {} (first {first:?})",
                            j.what(),
                            r.provenance,
                            r.cpi
                        )
                    },
                );
            }
        }
    }
    // Accuracy of the scored computed jobs against direct detailed runs.
    let preps = prepare(&PROGRAMS)?;
    let pairs: Vec<(usize, usize)> = (0..PROGRAMS.len())
        .flat_map(|p| (0..CONFIGS.len()).map(move |c| (p, c)))
        .collect();
    let reference = sim_exec::par_map(&pairs, |&(p, c)| {
        let mut sim = Simulator::new(config(CONFIGS[c]));
        let mut stream = Interp::new(preps[p].reference());
        sim.run_detailed(&mut stream, u64::MAX);
        sim.stats().cpi()
    });
    let (mut smarts, mut simpoint) = (Vec::new(), Vec::new());
    for j in jobs.iter().filter(|j| j.computed).take(SCORED) {
        let dev = deviation_pct(
            j.trip.records[0].cpi,
            reference[j.program * CONFIGS.len() + j.config],
        );
        if j.spec.starts_with("smarts") {
            smarts.push(dev);
        } else {
            simpoint.push(dev);
        }
    }
    out.set(
        "smarts_cpi_dev_pct",
        smarts.iter().sum::<f64>() / smarts.len() as f64,
    );
    out.set(
        "simpoint_cpi_dev_pct",
        simpoint.iter().sum::<f64>() / simpoint.len() as f64,
    );
    // A seed-drawn sample of jobs of each kind, re-run offline.
    for kind in [false, true] {
        let of_kind: Vec<&Job> = jobs.iter().filter(|j| j.computed == kind).collect();
        for i in rng.sample(of_kind.len(), OFFLINE_RECHECK) {
            let j = of_kind[i];
            let plan = JobPlan::build(
                &[PROGRAMS[j.program].to_string()],
                SCALE,
                std::slice::from_ref(&j.spec),
                &[CONFIGS[j.config].to_string()],
            )?;
            let offline = plan.run(0).map(|r| r.metrics.cpi);
            out.check(offline == Some(j.trip.records[0].cpi), || {
                format!(
                    "{}: offline CPI {offline:?}, streamed {}",
                    j.what(),
                    j.trip.records[0].cpi
                )
            });
        }
    }
    let (mut walk_insts, mut walk_ns) = (0u64, 0u64);
    for prep in &preps {
        let (n, ns) = probe::walk(prep.reference());
        walk_insts += n;
        walk_ns += ns;
    }
    out.set(
        "workloads.walk_ns_per_inst",
        walk_ns as f64 / walk_insts as f64,
    );
    let builds: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(prepare(&PROGRAMS).expect("programs built above"));
            ms(t.elapsed())
        })
        .collect();
    out.set("workloads.program_build_ms", median(&builds));

    // The finished store.
    let t = Instant::now();
    let s = sim_store::Store::open(&store).map_err(|e| format!("open store: {e}"))?;
    out.set("sim_store.open_ms", ms(t.elapsed()));
    let report = s.verify().map_err(|e| format!("verify store: {e}"))?;
    out.check(report.clean(), || {
        format!("store verify: {:?}", report.problems)
    });
    let stat = s.stat().map_err(|e| format!("stat store: {e}"))?;
    let ns_bytes = |prefix: &str| -> f64 {
        stat.by_ns
            .iter()
            .filter(|(ns, _)| ns.starts_with(prefix))
            .fold(0.0, |sum, (_, &(_, bytes))| sum + bytes as f64)
    };
    out.set("sim_store.run_kb", ns_bytes("run/") / 1e3);
    out.set("sim_store.arch_kb", ns_bytes("arch/") / 1e3);
    out.set("sim_store.warm_mb", ns_bytes("warm/") / 1e6);
    out.set("sim_store.prefix_mb", ns_bytes("prefix/") / 1e6);
    out.set("sim_store.disk_mb", stat.disk_bytes as f64 / 1e6);
    drop(s);
    if out.problems.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

/// Per-layer metrics from the client's timestamps and the streamed ledger
/// records: the daemon's own counters are not visible from outside.
fn layers(
    out: &mut Outcome,
    jobs: &[Job],
    rounds: f64,
    startup: &[Duration],
    drain: &[Duration],
) -> Result<(), String> {
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let pick = |computed: bool| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.computed == computed)
            .map(|j| ms(&j.trip.service))
            .collect()
    };
    out.set(
        "sim_serve.accept_ms.p50",
        median(&jobs.iter().map(|j| ms(&j.trip.accept)).collect::<Vec<_>>()),
    );
    out.set("sim_serve.hit_ms.p50", median(&pick(false)));
    out.set("sim_serve.computed_ms.p50", median(&pick(true)));
    out.set(
        "sim_serve.startup_ms",
        median(&startup.iter().map(ms).collect::<Vec<_>>()),
    );
    out.set(
        "sim_serve.drain_ms",
        median(&drain.iter().map(ms).collect::<Vec<_>>()),
    );

    let records: Vec<&wire::Record> = jobs.iter().flat_map(|j| &j.trip.records).collect();
    let bytes: usize = records.iter().map(|r| r.bytes).sum();
    out.set("sim_obs.record_kb", bytes as f64 / jobs.len() as f64 / 1e3);
    let hits: u64 = jobs.iter().map(|j| j.trip.done.store_hits).sum();
    out.set("sim_store.hits", hits as f64 / rounds);
    let walls: Vec<f64> = records.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    out.set("techniques.run_ms.p50", median(&walls));
    out.set(
        "techniques.run_ms.p90",
        tail_percentile(&walls, 90.0).ok_or("too few records for a p90")?,
    );
    let sum = |phases: &[&str]| -> (f64, f64) {
        records.iter().fold((0.0, 0.0), |(ns, n), r| {
            phases.iter().fold((ns, n), |(ns, n), p| {
                let (x, y) = r.phase(p);
                (ns + x as f64, n + y as f64)
            })
        })
    };
    for (per_inst, minst, phases) in [
        (
            "sim_core.detailed_ns_per_inst",
            "sim_core.detailed_minst",
            &["measure", "warm_up"][..],
        ),
        (
            "sim_core.warm_ns_per_inst",
            "sim_core.warm_minst",
            &["functional_warm"][..],
        ),
        (
            "sim_core.skip_ns_per_inst",
            "sim_core.skip_minst",
            &["fast_forward"][..],
        ),
    ] {
        let (ns, n) = sum(phases);
        out.set(per_inst, if n > 0.0 { ns / n } else { 0.0 });
        out.set(minst, n / 1e6 / rounds);
    }
    let (restore_ns, _) = sum(&["checkpoint_restore"]);
    out.set("techniques.restore_ms", restore_ns / 1e6 / rounds);
    let merge: u64 = records.iter().map(|r| r.merge_wait_ns).sum();
    out.set("sim_exec.shard_merge_wait_ms", merge as f64 / 1e6 / rounds);
    Ok(())
}
