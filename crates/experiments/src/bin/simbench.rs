//! Continuous perf-regression harness: measures the repo's standing probes
//! (the `pipeline_hotloop` / `stats_hotloop` / `shard_bench` kernels, plus
//! the `simserve` submit-latency probes) best-of-N with MAD noise bounds
//! and compares them against the committed `BENCH_baselines.json` in the
//! unified simbench schema.
//!
//! ```text
//! simbench                         # measure and print (report-only)
//! simbench --check                 # compare vs baselines; exit 1 on a
//!                                  # regression beyond the noise band
//!                                  # (report-only on a 1-CPU host unless
//!                                  # --enforce, per the shard_bench CI
//!                                  # precedent)
//! simbench --update-baselines      # re-record baselines after an
//!                                  # intentional perf change
//! simbench --convert BENCH_pipeline.json BENCH_parallel.json ...
//!                                  # fold legacy layouts into the unified
//!                                  # schema (no measuring)
//! ```
//!
//! `--baselines FILE` overrides the default `BENCH_baselines.json`;
//! `SIM_BENCH_RUNS` (default 5) sets N. Baselines are host-specific wall
//! measurements: compare only against baselines recorded on the same class
//! of machine (the `--check` gate also refuses when the baseline's CPU
//! count differs, since parallel probes shift shape).

use std::process::ExitCode;
use std::time::Instant;

use experiments::bench::{best_and_mad, compare, convert_legacy, Bench, Direction, Probe, Verdict};
use sim_core::config::SimConfig;
use sim_core::engine::Simulator;
use sim_core::isa::InstStream;
use simstats::kernel::{argmin, padded_lanes, sq_dists_dim_major, transpose_centroids};
use simstats::pb::PbDesign;
use simstats::rng::SplitMix64;
use techniques::{cache, smarts};
use workloads::{benchmark, InputSet, Interp, Program};

const DEFAULT_BASELINES: &str = "BENCH_baselines.json";
const DEFAULT_RUNS: u64 = 5;

fn main() -> ExitCode {
    let mut check = false;
    let mut update = false;
    let mut enforce = false;
    let mut convert: Vec<String> = Vec::new();
    let mut converting = false;
    let mut baselines = DEFAULT_BASELINES.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--update-baselines" => update = true,
            "--enforce" => enforce = true,
            "--convert" => converting = true,
            "--baselines" => {
                baselines = args.next().expect("--baselines needs a file path");
                converting = false;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: simbench [--check [--enforce]] [--update-baselines] \
                     [--convert <legacy.json>...] [--baselines FILE]"
                );
                return ExitCode::SUCCESS;
            }
            f if converting => convert.push(f.to_string()),
            other => {
                eprintln!("simbench: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if !convert.is_empty() {
        return do_convert(&convert, &baselines);
    }

    let runs = sim_obs::env_val("SIM_BENCH_RUNS")
        .and_then(|v: String| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_RUNS)
        .max(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    println!("simbench: best of {runs} runs per probe, {cpus} cpu(s)");
    let current = measure_all(runs, cpus);
    for (name, p) in &current.probes {
        println!(
            "  {name:<34} {:>10.3} {} (mad {:.3}, n={})",
            p.value, p.unit, p.mad, p.runs
        );
    }

    if update {
        if let Err(e) = write_baselines(&baselines, current) {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
        println!("simbench: baselines written to {baselines}");
        return ExitCode::SUCCESS;
    }

    if check {
        return do_check(&baselines, &current, cpus, enforce);
    }
    ExitCode::SUCCESS
}

/// Merge legacy files into the baselines file without measuring.
fn do_convert(files: &[String], baselines: &str) -> ExitCode {
    let mut bench = read_baselines(baselines).unwrap_or_default();
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simbench: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match convert_legacy(file, &text) {
            Ok(probes) => {
                println!("simbench: {file}: {} probes converted", probes.len());
                bench.probes.extend(probes);
            }
            Err(e) => {
                eprintln!("simbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = write_baselines(baselines, bench) {
        eprintln!("simbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("simbench: merged into {baselines}");
    ExitCode::SUCCESS
}

/// `--check`: compare against the committed baselines. Regressions exit
/// non-zero when enforcing (multi-core host, or `--enforce` anywhere);
/// a 1-CPU host prints the skip-notice and stays green, matching the
/// `shard_bench --assert-scaling` precedent for shared runners.
fn do_check(baselines: &str, current: &Bench, cpus: u64, enforce: bool) -> ExitCode {
    let base = match read_baselines(baselines) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regressions = 0u64;
    println!(
        "simbench: checking against {baselines} (recorded on {} cpu(s), {})",
        base.host_cpus,
        if base.date.is_empty() {
            "undated"
        } else {
            &base.date
        }
    );
    for row in compare(&base, current) {
        let tag = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => {
                regressions += 1;
                "REGRESSED"
            }
            Verdict::New => "new",
            Verdict::Missing => "missing",
        };
        println!("  {tag:<9} {:<34} {}", row.name, row.detail);
    }
    let comparable = base.host_cpus == 0 || base.host_cpus == cpus;
    if !comparable {
        println!(
            "simbench: notice: baseline recorded on {} cpu(s), host has {cpus}; \
             wall-clock comparison skipped (re-record with --update-baselines)",
            base.host_cpus
        );
        return ExitCode::SUCCESS;
    }
    if regressions == 0 {
        println!("simbench: ok, no regressions beyond the noise band");
        return ExitCode::SUCCESS;
    }
    if cpus >= 2 || enforce {
        eprintln!("simbench: {regressions} probe(s) regressed beyond the noise band");
        ExitCode::FAILURE
    } else {
        println!(
            "simbench: notice: single-CPU host, {regressions} regression(s) reported \
             but not enforced (pass --enforce to gate here)"
        );
        ExitCode::SUCCESS
    }
}

fn read_baselines(path: &str) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Bench::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_baselines(path: &str, mut bench: Bench) -> Result<(), String> {
    // Keep probes an update run did not re-measure (legacy.* conversions,
    // multi-core-only probes recorded elsewhere).
    if let Ok(old) = read_baselines(path) {
        for (name, probe) in old.probes {
            bench.probes.entry(name).or_insert(probe);
        }
    }
    std::fs::write(path, bench.to_json() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

/// Measure every standing probe, best-of-`runs` with MAD noise bounds.
fn measure_all(runs: u64, cpus: u64) -> Bench {
    let mut bench = Bench {
        host_cpus: cpus,
        host_os: host_os(),
        date: today(),
        probes: std::collections::BTreeMap::new(),
    };
    let mut add = |name: &str, unit: &str, direction: Direction, samples: Vec<f64>| {
        let (value, mad) = best_and_mad(&samples, direction);
        bench.probes.insert(
            name.to_string(),
            Probe {
                value,
                mad,
                runs: samples.len() as u64,
                unit: unit.to_string(),
                direction,
                floor: None,
                note: None,
            },
        );
    };

    // --- pipeline probes (the pipeline_hotloop kernels) ---
    let gzip = program("gzip", 0.02);
    let mcf = program("mcf", 0.02);
    add(
        "pipeline.interp.gzip.ns_per_inst",
        "ns/inst",
        Direction::Lower,
        sample(runs, || {
            let t0 = Instant::now();
            let mut s = Interp::new(&gzip);
            let mut n = 0u64;
            while s.next_inst().is_some() {
                n += 1;
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        }),
    );
    for (name, prog) in [("gzip", &gzip), ("mcf", &mcf)] {
        add(
            &format!("pipeline.{name}.ns_per_inst"),
            "ns/inst",
            Direction::Lower,
            sample(runs, || {
                let mut sim = Simulator::new(SimConfig::table3(2));
                let mut s = Interp::new(prog);
                let t0 = Instant::now();
                sim.run_detailed(&mut s, u64::MAX);
                t0.elapsed().as_nanos() as f64 / sim.stats().core.committed as f64
            }),
        );
    }

    // --- stats probes (the stats_hotloop kernels) ---
    add(
        "stats.kmeans.assign.ns_per_point",
        "ns/point",
        Direction::Lower,
        sample(runs, kmeans_assign_pass),
    );
    add(
        "stats.pb.effects.ns_per_call",
        "ns/call",
        Direction::Lower,
        sample(runs, pb_effects_pass),
    );

    // --- warming-kernel probes (the PR 10 vectorized warm path) ---
    add(
        "warm.ns_per_inst",
        "ns/inst",
        Direction::Lower,
        sample(runs, || {
            let mut sim = Simulator::new(SimConfig::table3(2));
            let mut s = Interp::new(&gzip);
            let t0 = Instant::now();
            let n = sim.warm_functional(&mut s, u64::MAX);
            t0.elapsed().as_nanos() as f64 / n as f64
        }),
    );
    add(
        "model.tag_probe_ns",
        "ns/probe",
        Direction::Lower,
        sample(runs, tag_probe_pass),
    );

    // --- shard probes (the shard_bench kernel, scaled down) ---
    let smarts_prog = program("gzip", 0.5);
    let cfg = SimConfig::table3(2);
    let serial = sample(runs, || {
        sim_exec::set_shards(1);
        cache::clear_all();
        let t0 = Instant::now();
        let out = smarts::run_smarts(&smarts_prog, &cfg, 1_000, 2_000);
        let dt = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(out.metrics.cpi);
        dt / smarts_prog.dynamic_len_estimate as f64
    });
    add(
        "shard.smarts.serial.ns_per_inst",
        "ns/inst",
        Direction::Lower,
        serial.clone(),
    );
    if cpus >= 2 {
        // Wall-clock speedup of the sharded run over the serial one, only
        // meaningful where shards can actually run in parallel.
        let shards = cpus.min(4) as usize;
        sim_exec::set_jobs(shards);
        let sharded = sample(runs, || {
            sim_exec::set_shards(shards);
            cache::clear_all();
            let t0 = Instant::now();
            let out = smarts::run_smarts(&smarts_prog, &cfg, 1_000, 2_000);
            let dt = t0.elapsed().as_nanos() as f64;
            std::hint::black_box(out.metrics.cpi);
            dt / smarts_prog.dynamic_len_estimate as f64
        });
        let (serial_best, _) = best_and_mad(&serial, Direction::Lower);
        let (sharded_best, _) = best_and_mad(&sharded, Direction::Lower);
        add(
            &format!("shard.smarts.x{shards}.speedup"),
            "x",
            Direction::Higher,
            vec![serial_best / sharded_best],
        );
        sim_exec::set_jobs(0);
    }
    sim_exec::set_shards(0);
    cache::clear_all();

    // --- service probes (an in-process simserve on a loopback port) ---
    // Last on purpose: Server::bind turns span tracing on process-wide,
    // and the earlier probes must measure with the same settings the
    // committed baselines were recorded under.
    let (first_us, complete_us, connect_us) = serve_pass(runs);
    add(
        "serve.submit.first_record_us",
        "us",
        Direction::Lower,
        first_us,
    );
    add(
        "serve.submit.complete_us",
        "us",
        Direction::Lower,
        complete_us,
    );
    add(
        "serve.connect.complete_us",
        "us",
        Direction::Lower,
        connect_us,
    );

    // The bare-interpreter loop runs ~6 ns/inst: at that size, code-layout
    // shifts from an unrelated relink move the number by tens of percent
    // while the within-binary MAD stays tiny. Give it a structural noise
    // floor so only order-of-magnitude changes (e.g. an accidental
    // de-inlining) gate the check.
    if let Some(p) = bench.probes.get_mut("pipeline.interp.gzip.ns_per_inst") {
        p.floor = Some(0.5);
    }
    bench
}

/// One warm-up call, then `runs` timed samples of `f`.
fn sample<F: FnMut() -> f64>(runs: u64, mut f: F) -> Vec<f64> {
    f();
    (0..runs).map(|_| f()).collect()
}

fn program(name: &str, scale: f64) -> Program {
    benchmark(name)
        .expect("benchmark in suite")
        .program_scaled(InputSet::Reference, scale)
        .expect("reference exists")
}

/// One k-means assignment pass over the SimPoint-shaped data
/// (n=2000, dim=15, k=30), returning ns/point.
fn kmeans_assign_pass() -> f64 {
    let (n, dim, k) = (2000usize, 15usize, 30usize);
    let mut rng = SplitMix64::new(0xbeef ^ ((n as u64) << 8) ^ dim as u64);
    let data: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.unit_f64() * 100.0).collect())
        .collect();
    let centroids: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dim).map(|_| rng.unit_f64() * 100.0).collect())
        .collect();
    let lanes = padded_lanes(k);
    let cent_t = transpose_centroids(&centroids);
    let mut dists = vec![0.0; lanes];
    let mut acc = 0u64;
    const PASSES: usize = 20;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for p in &data {
            sq_dists_dim_major(p, &cent_t, lanes, &mut dists);
            acc = acc.wrapping_add(argmin(&dists[..k]) as u64);
        }
    }
    let dt = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    dt / (n * PASSES) as f64
}

/// One tag-probe pass over a warm 8-way 1 MiB cache: ns per
/// [`sim_core::cache::Cache::probe_way`] call on a mixed hit/miss address
/// stream.
fn tag_probe_pass() -> f64 {
    use sim_core::cache::Cache;
    use sim_core::config::CacheConfig;
    let mut c = Cache::new(CacheConfig {
        size_bytes: 1 << 20,
        assoc: 8,
        line_bytes: 64,
        latency: 10,
    });
    let mut rng = SplitMix64::new(0x7a95);
    // Working set ~2x capacity: roughly half the probes hit.
    let addrs: Vec<u64> = (0..8_192).map(|_| rng.below((2 << 20) / 64) * 64).collect();
    for &a in &addrs {
        let way = c.probe_way(a);
        let _ = c.access_at(a, false, way);
    }
    let mut acc = 0u64;
    const PASSES: usize = 50;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for &a in &addrs {
            acc = acc.wrapping_add(c.probe_way(a).map_or(0, |w| w as u64 + 1));
        }
    }
    let dt = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    dt / (addrs.len() * PASSES) as f64
}

/// PB effects over the paper's 43-factor folded design, ns per `effects()`
/// call.
fn pb_effects_pass() -> f64 {
    let design = PbDesign::new(43).with_foldover();
    let mut rng = SplitMix64::new(7);
    let responses: Vec<f64> = (0..design.num_runs())
        .map(|_| rng.unit_f64() * 3.0)
        .collect();
    let mut acc = 0u64;
    const CALLS: usize = 5_000;
    let t0 = Instant::now();
    for _ in 0..CALLS {
        let eff = design.effects(&responses);
        acc = acc.wrapping_add(eff[0].to_bits());
    }
    let dt = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    dt / CALLS as f64
}

/// Submit-to-first-record and submit-to-complete latency for a trivial
/// one-run job against an in-process `simserve` on a loopback port, in
/// microseconds, on one reused connection; then connect-to-complete, each
/// sample on a new connection as `simctl submit` makes it. The warm-up
/// submit populates the run cache, so the timed samples measure the
/// service path itself — accept, admission, scheduling, the job-scoped
/// ledger, streaming — rather than the simulation.
fn serve_pass(runs: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    use sim_serve::{proto::JobDesc, Client, Server, ServerConfig};
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        active: 1,
        ..ServerConfig::default()
    })
    .expect("serve probe binds a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let shutdown = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run());
    let job = JobDesc {
        benches: vec!["gzip".to_string()],
        scale: 0.02,
        specs: vec!["runz:z=2k".to_string()],
        configs: vec!["default".to_string()],
        priority: 0,
    };
    // The first two probes reuse one connection, so they time the
    // per-request path alone; the third adds connect and accept.
    let submit = |client: &mut Client| {
        let t0 = Instant::now();
        let mut first = None;
        let out = client
            .submit_streaming(&job, |_| {
                first.get_or_insert_with(|| t0.elapsed());
            })
            .expect("probe job completes");
        let total = t0.elapsed();
        assert_eq!(out.state, "done", "probe job must complete");
        (
            first.unwrap_or(total).as_nanos() as f64 / 1e3,
            total.as_nanos() as f64 / 1e3,
        )
    };
    let mut client = Client::connect(&addr).expect("probe client connects");
    submit(&mut client); // warm-up: populates the run cache
    let (mut firsts, mut totals) = (Vec::new(), Vec::new());
    for _ in 0..runs {
        let (f, t) = submit(&mut client);
        firsts.push(f);
        totals.push(t);
    }
    drop(client);
    let connects = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let mut client = Client::connect(&addr).expect("probe client connects");
            submit(&mut client);
            drop(client);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    shutdown.shutdown();
    daemon
        .join()
        .expect("serve probe daemon joins")
        .expect("serve probe daemon drains");
    (firsts, totals, connects)
}

fn host_os() -> String {
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    if release.is_empty() {
        std::env::consts::OS.to_string()
    } else {
        format!("{} {release}", std::env::consts::OS)
    }
}

/// Today as `YYYY-MM-DD` (UTC) from the system clock — no chrono in the
/// dependency-free workspace, so do the civil-date conversion by hand
/// (Howard Hinnant's days-from-civil inverse).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
