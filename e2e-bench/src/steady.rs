//! `steady`: repeat workloads over consecutive seeds and report, per
//! metric, the median, the quartiles and the spread (interquartile
//! distance as a share of the median).

use std::process::Command;

use sim_obs::json::Json;

use crate::stats::{median, quartiles, spread};

/// The workloads, in the order the report lists them.
pub const WORKLOADS: [&str; 3] = ["pb-reference", "sampled-sweep", "serve-mix"];

/// One run's parsed result.
struct RunResult {
    failed_share: f64,
    metrics: Vec<(String, f64, String)>,
    /// With `--trace`: the traced run's end-to-end values, from stderr.
    traced_e2e: Vec<(String, f64)>,
}

fn run_once(workload: &str, seed: u64, seconds: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}:\n{stderr}",
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    let j = Json::parse(last)?;
    let attempted = j
        .get("attempted")
        .and_then(Json::as_u64)
        .ok_or("no attempted")?;
    let failed = j.get("failed").and_then(Json::as_u64).ok_or("no failed")?;
    let mut metrics = Vec::new();
    if let Some(Json::Obj(kv)) = j.get("metrics") {
        for (name, m) in kv {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push((name.clone(), v, unit));
        }
    }
    let mut traced_e2e = Vec::new();
    if let Some(rest) = stderr
        .lines()
        .find_map(|l| l.strip_prefix("e2e-bench: traced end-to-end: "))
    {
        if let Json::Obj(kv) = Json::parse(rest)? {
            traced_e2e = kv
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                .collect();
        }
    }
    Ok(RunResult {
        failed_share: failed as f64 / attempted as f64,
        metrics,
        traced_e2e,
    })
}

/// Four significant digits, whatever the magnitude.
fn sig4(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn summary(name: &str, unit: &str, values: &[f64]) -> String {
    let [q1, _, q3] = quartiles(values);
    format!(
        "  {name:<36} {:>12} {:>12} {:>12} {:>8.3}  {unit}",
        sig4(median(values)),
        sig4(q1),
        sig4(q3),
        spread(values)
    )
}

pub fn main(args: &[String]) -> i32 {
    let (mut workloads, mut runs, mut seconds, mut seed0, mut trace) =
        (Vec::new(), 10u64, "30".to_string(), 1u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--workload" => workloads.push(val()),
            "--runs" => runs = val().parse().unwrap_or(0),
            "--seconds" => seconds = val(),
            "--seed0" => seed0 = val().parse().unwrap_or(0),
            "--trace" => trace = true,
            other => {
                eprintln!("e2e-bench steady: unknown flag {other:?}");
                return 2;
            }
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if runs == 0 || workloads.iter().any(|w| !WORKLOADS.contains(&w.as_str())) {
        eprintln!("e2e-bench steady: need --runs > 0 and known workloads");
        return 2;
    }
    for w in &workloads {
        let mut results = Vec::new();
        for seed in seed0..seed0 + runs {
            match run_once(w, seed, &seconds, trace) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("e2e-bench steady: {e}");
                    return 1;
                }
            }
        }
        let shares: Vec<f64> = results.iter().map(|r| r.failed_share).collect();
        println!(
            "{w}: {runs} runs, seeds {seed0}..{}, {seconds} s, failed share {:?}",
            seed0 + runs - 1,
            shares
        );
        println!(
            "  {:<36} {:>12} {:>12} {:>12} {:>8}",
            "metric", "median", "q1", "q3", "spread"
        );
        for (i, (name, _, unit)) in results[0].metrics.iter().enumerate() {
            let values: Vec<f64> = results.iter().map(|r| r.metrics[i].1).collect();
            println!("{}", summary(name, unit, &values));
        }
        if trace {
            for (i, (name, _)) in results[0].traced_e2e.iter().enumerate() {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|r| r.traced_e2e.get(i).map(|x| x.1))
                    .collect();
                println!("{}", summary(&format!("traced {name}"), "", &values));
            }
        }
    }
    0
}
