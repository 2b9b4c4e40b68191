//! The job→runner adapter for the sweep service: parse wire-level job
//! descriptions (benchmark lists, technique-spec strings, configuration
//! strings) into an executable [`JobPlan`] over [`crate::registry`] and
//! [`crate::runner`].
//!
//! The `simserve` daemon and `simctl` client speak *strings* — a job names
//! its benches (`"gzip"`, `"all"`), its specs (`"smarts:u=1000,w=2000"`,
//! `"quick"`), and its configs (`"default"`, `"table3:2"`). This module is
//! the single place those strings are given meaning, so the daemon, the
//! client's validation, and the tests all agree on the vocabulary.
//!
//! ## Spec-string grammar
//!
//! Presets (expand to registry permutation lists, scaled):
//! `quick`, `table1` (alias `full`), `smarts-all`, `simpoint-all`.
//!
//! Single permutations, `family:key=value,...` with counts accepting
//! `k`/`m` suffixes (`2k` = 2000):
//!
//! | string | spec |
//! |---|---|
//! | `reference` | [`TechniqueSpec::Reference`] |
//! | `reduced:small` | [`TechniqueSpec::Reduced`] (small/medium/large/test/train) |
//! | `runz:z=1000` | [`TechniqueSpec::RunZ`] |
//! | `ffrun:x=1m,z=10k` | [`TechniqueSpec::FfRun`] |
//! | `ffwurun:x=1m,y=100k,z=10k` | [`TechniqueSpec::FfWuRun`] |
//! | `smarts:u=1000,w=2000` | [`TechniqueSpec::Smarts`] |
//! | `simpoint:interval=100k,k=10` | [`TechniqueSpec::SimPoint`] (registry warm-up) |
//! | `random:n=30,u=1000,w=2000,seed=7` | [`TechniqueSpec::RandomSample`] |
//!
//! Config strings: `default` ([`SimConfig::default`]) or `table3:N`
//! (N ∈ 1..=4, [`SimConfig::table3`]).

use crate::registry;
use crate::runner::{run_technique, PreparedBench, RunResult};
use crate::spec::TechniqueSpec;
use sim_core::SimConfig;
use workloads::InputSet;

/// Parse a count with an optional `k`/`m` suffix (case-insensitive).
fn parse_count(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.to_ascii_lowercase() {
        ref t if t.ends_with('k') => (s[..s.len() - 1].to_string(), 1_000),
        ref t if t.ends_with('m') => (s[..s.len() - 1].to_string(), 1_000_000),
        _ => (s.to_string(), 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad count {s:?} (expected an integer, optional k/m suffix)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("count {s:?} overflows 64 bits"))
}

/// Split `"u=1000,w=2000"` into `(key, value)` pairs.
fn fields(s: &str) -> Result<Vec<(&str, &str)>, String> {
    s.split(',')
        .map(|kv| {
            kv.split_once('=')
                .ok_or_else(|| format!("bad field {kv:?} (expected key=value)"))
        })
        .collect()
}

/// Look up one required field, parsed as a count.
fn need(fields: &[(&str, &str)], key: &str, spec: &str) -> Result<u64, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .ok_or_else(|| format!("spec {spec:?} is missing {key}="))
        .and_then(|(_, v)| parse_count(v))
}

/// [`need`] for a field the technique divides by or sizes a sample with:
/// zero is rejected here, before a runner's assertion can fire on a
/// daemon's scheduler thread.
fn need_nonzero(fields: &[(&str, &str)], key: &str, spec: &str) -> Result<u64, String> {
    match need(fields, key, spec)? {
        0 => Err(format!("spec {spec:?} needs {key} > 0")),
        n => Ok(n),
    }
}

/// Parse one spec string into one or more technique permutations.
///
/// Presets expand against `scale` exactly as the offline harnesses do, so
/// a daemon job and a `fig2 --scale` run name identical permutations.
pub fn parse_specs(s: &str, scale: f64) -> Result<Vec<TechniqueSpec>, String> {
    match s {
        "quick" => return Ok(registry::quick_permutations(scale)),
        "table1" | "full" => return Ok(registry::table1_permutations(scale)),
        "smarts-all" => return Ok(registry::smarts_permutations()),
        "simpoint-all" => return Ok(registry::simpoint_permutations(scale)),
        "reference" => return Ok(vec![TechniqueSpec::Reference]),
        _ => {}
    }
    let (family, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("unknown spec {s:?} (try quick, table1, smarts:u=..,w=..)"))?;
    let spec = match family {
        "reduced" => {
            let input = match rest {
                "small" => InputSet::Small,
                "medium" => InputSet::Medium,
                "large" => InputSet::Large,
                "test" => InputSet::Test,
                "train" => InputSet::Train,
                other => return Err(format!("unknown input set {other:?}")),
            };
            TechniqueSpec::Reduced(input)
        }
        "runz" => {
            let f = fields(rest)?;
            TechniqueSpec::RunZ {
                z: need(&f, "z", s)?,
            }
        }
        "ffrun" => {
            let f = fields(rest)?;
            TechniqueSpec::FfRun {
                x: need(&f, "x", s)?,
                z: need(&f, "z", s)?,
            }
        }
        "ffwurun" => {
            let f = fields(rest)?;
            TechniqueSpec::FfWuRun {
                x: need(&f, "x", s)?,
                y: need(&f, "y", s)?,
                z: need(&f, "z", s)?,
            }
        }
        "smarts" => {
            let f = fields(rest)?;
            TechniqueSpec::Smarts {
                u: need_nonzero(&f, "u", s)?,
                w: need(&f, "w", s)?,
            }
        }
        "simpoint" => {
            let f = fields(rest)?;
            TechniqueSpec::SimPoint {
                interval: need_nonzero(&f, "interval", s)?,
                max_k: usize::try_from(need_nonzero(&f, "k", s)?)
                    .map_err(|_| format!("spec {s:?}: k does not fit this host"))?,
                warmup: registry::simpoint_warmup(scale),
            }
        }
        "random" => {
            let f = fields(rest)?;
            let seed = match f.iter().find(|(k, _)| *k == "seed") {
                Some((_, v)) => parse_count(v)?,
                None => 0,
            };
            TechniqueSpec::RandomSample {
                n: usize::try_from(need(&f, "n", s)?)
                    .map_err(|_| format!("spec {s:?}: n does not fit this host"))?,
                u: need_nonzero(&f, "u", s)?,
                w: need(&f, "w", s)?,
                seed,
            }
        }
        other => return Err(format!("unknown technique family {other:?}")),
    };
    Ok(vec![spec])
}

/// Parse one config string: `default` or `table3:N` (N ∈ 1..=4).
pub fn parse_config(s: &str) -> Result<SimConfig, String> {
    if s == "default" {
        return Ok(SimConfig::default());
    }
    if let Some(n) = s.strip_prefix("table3:") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad config {s:?} (expected table3:1..4)"))?;
        if (1..=4).contains(&n) {
            return Ok(SimConfig::table3(n));
        }
        return Err(format!("table3 config {n} out of range 1..4"));
    }
    Err(format!("unknown config {s:?} (try default or table3:N)"))
}

/// Expand a bench list: names from the Table 2 suite, or `all`.
pub fn parse_benches(names: &[String]) -> Result<Vec<&'static str>, String> {
    let suite = workloads::suite();
    let mut out: Vec<&'static str> = Vec::new();
    for name in names {
        if name == "all" {
            for b in &suite {
                if !out.contains(&b.name) {
                    out.push(b.name);
                }
            }
            continue;
        }
        let b = suite
            .iter()
            .find(|b| b.name == name.as_str())
            .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        if !out.contains(&b.name) {
            out.push(b.name);
        }
    }
    if out.is_empty() {
        return Err("job names no benchmarks".to_string());
    }
    Ok(out)
}

/// A fully expanded, executable job: prepared benchmarks × configs ×
/// technique permutations, flattened into an indexed run list the daemon
/// chunks over `sim_exec::par_map`.
pub struct JobPlan {
    preps: Vec<PreparedBench>,
    configs: Vec<SimConfig>,
    /// `(prep index, config index, spec)` per run item.
    items: Vec<(usize, usize, TechniqueSpec)>,
}

impl JobPlan {
    /// Validate and expand a job description. Benchmark preparation
    /// (program builds) happens here, once per job, before any run starts.
    pub fn build(
        benches: &[String],
        scale: f64,
        specs: &[String],
        configs: &[String],
    ) -> Result<JobPlan, String> {
        if !(scale.is_finite() && scale > 0.0 && scale <= 4.0) {
            return Err(format!("scale {scale} out of range (0, 4]"));
        }
        let bench_names = parse_benches(benches)?;
        let mut all_specs = Vec::new();
        for s in specs {
            all_specs.extend(parse_specs(s, scale)?);
        }
        if all_specs.is_empty() {
            return Err("job names no technique specs".to_string());
        }
        let cfgs: Vec<SimConfig> = if configs.is_empty() {
            vec![SimConfig::default()]
        } else {
            configs
                .iter()
                .map(|c| parse_config(c))
                .collect::<Result<_, _>>()?
        };
        let preps: Vec<PreparedBench> = bench_names
            .iter()
            .map(|name| PreparedBench::by_name_scaled(name, scale).expect("validated above"))
            .collect();
        let mut items = Vec::new();
        for (pi, _) in preps.iter().enumerate() {
            for (ci, _) in cfgs.iter().enumerate() {
                for spec in &all_specs {
                    items.push((pi, ci, spec.clone()));
                }
            }
        }
        Ok(JobPlan {
            preps,
            configs: cfgs,
            items,
        })
    }

    /// Number of run items in the plan.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the plan is empty (never true for a [`JobPlan::build`] result).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Execute item `i` through the full reuse stack
    /// ([`crate::runner::run_technique`]: run cache → store → simulate).
    /// `None` marks a Table 2 N/A cell (reduced input the bench lacks).
    pub fn run(&self, i: usize) -> Option<RunResult> {
        let (pi, ci, ref spec) = self.items[i];
        run_technique(spec, &self.preps[pi], &self.configs[ci])
    }

    /// Human label for item `i` (progress and error messages).
    pub fn label(&self, i: usize) -> String {
        let (pi, _, ref spec) = self.items[i];
        format!("{} {}", self.preps[pi].bench().name, spec.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accept_suffixes() {
        assert_eq!(parse_count("250").unwrap(), 250);
        assert_eq!(parse_count("2k").unwrap(), 2_000);
        assert_eq!(parse_count("3M").unwrap(), 3_000_000);
        assert!(parse_count("k").is_err());
        assert!(parse_count("2.5k").is_err());
    }

    #[test]
    fn counts_that_overflow_are_rejected_not_wrapped() {
        assert_eq!(parse_count("18446744073709551615").unwrap(), u64::MAX);
        assert!(parse_count("18446744073709552k").is_err());
        assert!(parse_count("18446744073710m").is_err());
        assert!(parse_specs("runz:z=99999999999999999m", 1.0).is_err());
    }

    #[test]
    fn smarts_with_a_zero_unit_is_rejected() {
        let err = parse_specs("smarts:u=0,w=2000", 1.0).unwrap_err();
        assert!(err.contains("u > 0"), "{err}");
        assert!(parse_specs("smarts:u=0,w=0", 1.0).is_err());
        assert!(
            parse_specs("smarts:u=1,w=0", 1.0).is_ok(),
            "w=0 is a valid design"
        );
    }

    #[test]
    fn random_with_a_zero_unit_is_rejected() {
        let err = parse_specs("random:n=30,u=0,w=2000", 1.0).unwrap_err();
        assert!(err.contains("u > 0"), "{err}");
    }

    #[test]
    fn simpoint_with_a_zero_interval_is_rejected() {
        let err = parse_specs("simpoint:interval=0,k=10", 1.0).unwrap_err();
        assert!(err.contains("interval > 0"), "{err}");
    }

    #[test]
    fn simpoint_with_zero_clusters_is_rejected() {
        let err = parse_specs("simpoint:interval=100k,k=0", 1.0).unwrap_err();
        assert!(err.contains("k > 0"), "{err}");
    }

    #[test]
    fn single_specs_parse() {
        assert_eq!(
            parse_specs("smarts:u=1k,w=2k", 1.0).unwrap(),
            vec![TechniqueSpec::Smarts { u: 1_000, w: 2_000 }]
        );
        assert_eq!(
            parse_specs("ffwurun:x=1m,y=100k,z=10k", 1.0).unwrap(),
            vec![TechniqueSpec::FfWuRun {
                x: 1_000_000,
                y: 100_000,
                z: 10_000
            }]
        );
        assert_eq!(
            parse_specs("reduced:small", 1.0).unwrap(),
            vec![TechniqueSpec::Reduced(InputSet::Small)]
        );
        assert!(parse_specs("smarts:u=1k", 1.0).is_err(), "missing w=");
        assert!(parse_specs("warp:x=1", 1.0).is_err(), "unknown family");
    }

    #[test]
    fn presets_match_the_registry() {
        assert_eq!(
            parse_specs("quick", 0.25).unwrap(),
            registry::quick_permutations(0.25)
        );
        assert_eq!(
            parse_specs("table1", 1.0).unwrap().len(),
            registry::table1_permutations(1.0).len()
        );
    }

    #[test]
    fn configs_parse_and_reject() {
        assert_eq!(
            parse_config("table3:2").unwrap().fingerprint(),
            SimConfig::table3(2).fingerprint()
        );
        assert_eq!(
            parse_config("default").unwrap().fingerprint(),
            SimConfig::default().fingerprint()
        );
        assert!(parse_config("table3:9").is_err());
        assert!(parse_config("tiny").is_err());
    }

    #[test]
    fn bench_all_expands_to_the_suite_once() {
        let all = parse_benches(&["gzip".into(), "all".into()]).unwrap();
        assert_eq!(all.len(), workloads::suite().len(), "no duplicates");
        assert_eq!(all[0], "gzip", "explicit order kept");
        assert!(parse_benches(&["nosuch".into()]).is_err());
    }

    #[test]
    fn plan_expands_the_cross_product_and_runs() {
        let plan = JobPlan::build(
            &["gzip".into(), "mcf".into()],
            0.05,
            &["runz:z=5k".into(), "runz:z=6k".into()],
            &["table3:1".into(), "default".into()],
        )
        .unwrap();
        assert_eq!(plan.len(), 2 * 2 * 2);
        assert!(plan.label(0).starts_with("gzip "));
        let r = plan.run(0).expect("runz always applies");
        assert!(r.metrics.cpi > 0.0);
    }

    #[test]
    fn plan_rejects_bad_inputs() {
        assert!(JobPlan::build(&["gzip".into()], 0.0, &["quick".into()], &[]).is_err());
        assert!(JobPlan::build(&[], 1.0, &["quick".into()], &[]).is_err());
        assert!(JobPlan::build(&["gzip".into()], 1.0, &[], &[]).is_err());
    }
}
