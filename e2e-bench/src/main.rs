//! End-to-end benchmark of the simtech workspace.
//!
//! ```text
//! e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! e2e-bench steady [--workload NAME]... [--runs N] [--seconds S] [--seed0 N] [--trace]
//! ```
//!
//! The first form runs one workload (`pb-reference`, `sampled-sweep` or
//! `serve-mix`, see README.md) and prints its result as the last line of
//! stdout: with `--trace 0` every end-to-end metric, with `--trace 1` every
//! per-layer metric. It exits 1 when an output check fails and 2 when the
//! run cannot be made at all. The second form repeats workloads over
//! consecutive seeds and prints each metric's median, quartiles and spread.

mod daemon;
mod pb;
mod probe;
mod report;
mod sampled;
mod serve;
mod stats;
mod steady;
mod wire;

use std::time::Instant;

/// Worker threads: the load uses both CPUs of the reference machine and
/// no more.
pub const WORKERS: usize = 2;

/// Stream scale of every program the workloads run.
pub const SCALE: f64 = 0.05;

/// gzip is compute-bound, mcf memory-bound, gcc has a large code footprint.
pub const PROGRAMS: [&str; 3] = ["gzip", "mcf", "gcc"];

/// A timed phase of whole rounds of the same operations.
pub struct Rounds {
    start: Instant,
    round_start: Instant,
    walls: Vec<f64>,
    mips: Vec<f64>,
}

impl Rounds {
    /// Start timing.
    pub fn start() -> Rounds {
        let now = Instant::now();
        Rounds {
            start: now,
            round_start: now,
            walls: Vec::new(),
            mips: Vec::new(),
        }
    }

    /// Close a round that advanced `insts` simulated instructions.
    pub fn finish(&mut self, insts: u64) {
        let wall = self.round_start.elapsed().as_secs_f64();
        self.walls.push(wall);
        self.mips.push(insts as f64 / wall / 1e6);
        self.round_start = Instant::now();
    }

    /// Whether to stop: `ahead` more rounds, at the mean round time so
    /// far, would end the phase past `seconds`. A phase is at least one
    /// round and, apart from that, never longer than `seconds`, so the
    /// length of a run is bounded whatever the host's speed.
    pub fn enough(&self, seconds: f64, ahead: usize) -> bool {
        let elapsed = self.elapsed();
        !self.walls.is_empty() && elapsed + ahead as f64 * elapsed / self.count() > seconds
    }

    /// Rounds closed.
    pub fn count(&self) -> f64 {
        self.walls.len() as f64
    }

    /// Seconds since the phase started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// `wall_s` and `sim_mips`: medians over the rounds, so a slow spell
    /// of the host that covers one round does not set the figure.
    pub fn report(&self, out: &mut report::Outcome) {
        out.set("wall_s", stats::median(&self.walls));
        out.set("sim_mips", stats::median(&self.mips));
    }
}

/// Parsed command line of one workload run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every random choice derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const USAGE: &str = "usage: e2e-bench --workload pb-reference|sampled-sweep|serve-mix \
                     --seed N --seconds S --trace 0|1\n       \
                     e2e-bench steady [--workload NAME]... [--runs N] [--seconds S] [--seed0 N] [--trace]";

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(val.clone()),
                "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        val.parse::<f64>()
                            .map_err(|_| format!("bad --seconds {val:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {val:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !steady::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range (0, 600]"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() {
    // Inherited SIM_* settings would change what is measured; every knob
    // the benchmark needs it sets itself, here and on the daemon.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SIM_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("steady") => steady::main(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let a = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return 2;
        }
    };
    sim_exec::set_jobs(WORKERS);
    sim_exec::set_shards(WORKERS);
    techniques::checkpoint::set_enabled(true);
    sim_obs::trace::set_enabled(a.trace);
    let result = daemon::build_simserve().and_then(|simserve| match a.workload.as_str() {
        "pb-reference" => pb::run(&a),
        "sampled-sweep" => sampled::run(&a),
        _ => serve::run(&a, &simserve),
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2e-bench: {}: {e}", a.workload);
            return 2;
        }
    };
    for p in &out.problems {
        eprintln!("e2e-bench: check failed: {p}");
    }
    if a.trace {
        eprintln!("e2e-bench: traced end-to-end: {}", out.end_to_end_json());
    }
    match out.result_line(a.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return 2;
        }
    }
    i32::from(!out.problems.is_empty())
}
