//! Run-ledger aggregation: the library behind the `simreport` binary.
//!
//! Parses JSONL ledgers written via `--trace-out` / `SIM_TRACE_OUT` into
//! per-technique, per-phase, shard, pipeline, histogram, and stage-profile
//! aggregates, renders them as human tables or one JSON object, and
//! schema-validates every line for `simreport --check`. Lives in the
//! library (rather than the binary) so integration tests can validate
//! ledgers in-process with [`check`] instead of shelling out.
//!
//! Footer aggregation rules (see `sim_obs::ledger`):
//! - `pipeline.*` counters are process-cumulative, so within one file only
//!   the *last* metrics footer counts; across files they are summed.
//! - Histogram (`"hist"`) and profile footers are reset by the harness at
//!   experiment boundaries, so every footer is a disjoint batch and all of
//!   them are summed — within a file and across files.

use std::collections::BTreeMap;

use sim_obs::json::{self, Json};
use sim_obs::ledger::{COST_KEYS, PROVENANCES, REQUIRED_KEYS, SCHEMA_VERSION};

/// One parsed ledger record, reduced to what the report needs.
pub struct Rec {
    /// Benchmark name.
    pub bench: String,
    /// Technique family name.
    pub technique: String,
    /// Reuse provenance (one of [`PROVENANCES`]).
    pub provenance: String,
    /// Total cost in work units.
    pub work_units: f64,
    /// Detailed instructions.
    pub detailed: u64,
    /// Functionally warmed instructions.
    pub warmed: u64,
    /// Fast-forwarded instructions.
    pub skipped: u64,
    /// Profiled instructions.
    pub profiled: u64,
    /// Whole-run wall nanoseconds.
    pub wall_ns: u64,
    /// Phase name -> (ns, insts, count).
    pub phases: Vec<(String, u64, u64, u64)>,
    /// Intra-run shard-scheduler observations, when the run sharded.
    pub shards: Option<ShardRec>,
}

/// The optional `shards` ledger object.
pub struct ShardRec {
    /// Parallel shard fan-outs inside the run.
    pub calls: u64,
    /// Largest worker count of any fan-out.
    pub workers: u64,
    /// Per-worker busy wall nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Total nanoseconds the merger waited on worker joins.
    pub merge_wait_ns: u64,
}

/// One histogram, merged across every footer that carried it.
#[derive(Default, Clone)]
pub struct HistAgg {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Log2 bucket index -> count (bucket `k` covers `[2^(k-1), 2^k)`).
    pub buckets: BTreeMap<u64, u64>,
}

impl HistAgg {
    /// Nearest-rank quantile estimate (`p` in `0.0..=1.0`): the upper edge
    /// of the bucket holding the target rank, clamped to the observed max.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let edge = if idx == 0 { 0 } else { (1u64 << idx) - 1 };
                return edge.min(self.max);
            }
        }
        self.max
    }
}

/// The stage-profile aggregate, summed across every profile footer.
#[derive(Default)]
pub struct ProfileAgg {
    /// Profile footers merged in.
    pub footers: u64,
    /// Total `run_detailed` wall nanoseconds.
    pub wall_ns: u64,
    /// Total pipeline iterations.
    pub iters: u64,
    /// Iterations that carried timestamp reads.
    pub sampled: u64,
    /// Profiled `run_detailed` calls.
    pub runs: u64,
    /// Stage name -> raw sampled nanoseconds.
    pub stages: BTreeMap<String, u64>,
    /// Stage name -> wall nanoseconds attributed proportionally.
    pub attributed: BTreeMap<String, u64>,
    /// Structure name -> summed occupancy over sampled iterations.
    pub occupancy: BTreeMap<String, u64>,
}

/// Everything parsed out of a set of ledger files.
#[derive(Default)]
pub struct Ledger {
    /// Run records, in file order.
    pub recs: Vec<Rec>,
    /// Summed last-per-file `pipeline.*` footer metrics.
    pub metrics: BTreeMap<String, u64>,
    /// Histograms summed across every metrics footer.
    pub hists: BTreeMap<String, HistAgg>,
    /// Stage profile summed across every profile footer.
    pub profile: ProfileAgg,
    /// Metrics footers seen.
    pub metrics_footers: u64,
}

impl Ledger {
    fn merge_hist_footer(&mut self, hists: Vec<(String, HistAgg)>) {
        for (name, h) in hists {
            let agg = self.hists.entry(name).or_default();
            agg.count += h.count;
            agg.sum += h.sum;
            agg.max = agg.max.max(h.max);
            for (idx, n) in h.buckets {
                *agg.buckets.entry(idx).or_default() += n;
            }
        }
    }
}

/// Parse and validate `files`, producing the merged [`Ledger`]. The error
/// string carries `file:line:` context.
pub fn load(files: &[String]) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        // pipeline.* metrics are cumulative per process: last footer wins
        // within a file, summed across files.
        let mut file_metrics: Option<BTreeMap<String, u64>> = None;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ctx = |e: String| format!("{file}:{}: {e}", lineno + 1);
            match footer_kind(line) {
                Some("metrics") => {
                    let (metrics, hists) = parse_metrics_footer(line).map_err(ctx)?;
                    ledger.metrics_footers += 1;
                    file_metrics = Some(metrics);
                    ledger.merge_hist_footer(hists);
                }
                Some("profile") => {
                    parse_profile_footer(line, &mut ledger.profile).map_err(ctx)?;
                }
                Some(other) => {
                    return Err(ctx(format!("unknown footer meta {other:?}")));
                }
                None => ledger.recs.push(parse_record(line).map_err(ctx)?),
            }
        }
        for (name, v) in file_metrics.unwrap_or_default() {
            *ledger.metrics.entry(name).or_default() += v;
        }
    }
    Ok(ledger)
}

/// `simreport --canon`: the deterministic projection of a ledger, one
/// sorted line per run record. Wall time, reuse provenance, and the
/// phase/shard/footer observations are machine- and scheduling-dependent,
/// so they are dropped; what remains — bench, scale, config, technique,
/// spec, CPI, measured instructions, and the full modeled `Cost` — is
/// exactly the simulation output, which is deterministic. Two ledgers
/// describing the same runs canonicalize byte-identically no matter which
/// machine produced them, how the runs were scheduled, or which reuse
/// tier (cold, cache, store) served each result. The CI `service` job
/// uses this to compare a daemon-streamed ledger against an offline
/// `--trace-out` ledger of the same sweep.
pub fn canon(files: &[String]) -> Result<String, String> {
    load(files)?; // full schema validation first; canon implies --check
    let mut lines = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        for line in text.lines() {
            if line.trim().is_empty() || footer_kind(line).is_some() {
                continue;
            }
            let j = Json::parse(line)?;
            let s = |key: &str| json::escape(j.get(key).and_then(Json::as_str).unwrap_or(""));
            let n = |obj: &Json, key: &str| {
                json::num(obj.get(key).and_then(Json::as_f64).unwrap_or(0.0))
            };
            let cost = j.get("cost").ok_or("missing cost object")?;
            lines.push(format!(
                "{{\"bench\":\"{}\",\"scale\":{},\"cfg\":\"{}\",\"technique\":\"{}\",\
                 \"spec\":\"{}\",\"cpi\":{},\"measured_insts\":{},\"cost\":{{\
                 \"detailed\":{},\"warmed\":{},\"skipped\":{},\"profiled\":{},\
                 \"extra_runs\":{},\"work_units\":{}}}}}",
                s("bench"),
                n(&j, "scale"),
                s("cfg"),
                s("technique"),
                s("spec"),
                n(&j, "cpi"),
                n(&j, "measured_insts"),
                n(cost, "detailed"),
                n(cost, "warmed"),
                n(cost, "skipped"),
                n(cost, "profiled"),
                n(cost, "extra_runs"),
                n(cost, "work_units"),
            ));
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok(out)
}

/// `simreport --check`: parse + schema-validate, returning the `ok:` line.
pub fn check(files: &[String]) -> Result<String, String> {
    let ledger = load(files)?;
    let mut line = format!("ok: {} records", ledger.recs.len());
    if ledger.metrics_footers > 0 {
        line.push_str(&format!(", {} metrics footers", ledger.metrics_footers));
    }
    if ledger.profile.footers > 0 {
        line.push_str(&format!(", {} profile footers", ledger.profile.footers));
    }
    Ok(line)
}

/// Which footer flavor a ledger line is (`None` for run records).
fn footer_kind(line: &str) -> Option<&'static str> {
    let j = Json::parse(line).ok()?;
    match j.get("meta").and_then(Json::as_str) {
        Some("metrics") => Some("metrics"),
        Some("profile") => Some("profile"),
        Some(_) => Some("?"),
        None => None,
    }
}

fn check_version(j: &Json) -> Result<(), String> {
    let v = j
        .get("v")
        .and_then(Json::as_u64)
        .ok_or("schema version is not an integer")?;
    if v != SCHEMA_VERSION {
        return Err(format!("schema version {v} (expected {SCHEMA_VERSION})"));
    }
    Ok(())
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{key} is not a non-negative integer"))
}

/// Counters and histograms parsed out of one metrics footer line.
type MetricsFooter = (BTreeMap<String, u64>, Vec<(String, HistAgg)>);

/// Parse and shape-validate one metrics footer line: the flat `"metrics"`
/// counter object plus the optional `"hist"` histogram object.
fn parse_metrics_footer(line: &str) -> Result<MetricsFooter, String> {
    let j = Json::parse(line)?;
    check_version(&j)?;
    let mut metrics = BTreeMap::new();
    match j.get("metrics") {
        Some(Json::Obj(kv)) => {
            for (name, value) in kv {
                metrics.insert(
                    name.clone(),
                    value
                        .as_u64()
                        .ok_or_else(|| format!("metric {name:?} is not a non-negative integer"))?,
                );
            }
        }
        _ => return Err("footer is missing the metrics object".to_string()),
    }
    let mut hists = Vec::new();
    if let Some(hist) = j.get("hist") {
        let Json::Obj(kv) = hist else {
            return Err("hist is not an object".to_string());
        };
        for (name, h) in kv {
            let mut agg = HistAgg {
                count: u64_field(h, "count")?,
                sum: u64_field(h, "sum")?,
                max: u64_field(h, "max")?,
                buckets: BTreeMap::new(),
            };
            let Some(Json::Arr(pairs)) = h.get("buckets") else {
                return Err(format!("hist {name:?} is missing the buckets array"));
            };
            let mut bucket_total = 0u64;
            for pair in pairs {
                let Json::Arr(p) = pair else {
                    return Err(format!("hist {name:?} bucket is not an [index,count] pair"));
                };
                let (Some(idx), Some(n)) = (
                    p.first().and_then(Json::as_u64),
                    p.get(1).and_then(Json::as_u64),
                ) else {
                    return Err(format!("hist {name:?} bucket is not an [index,count] pair"));
                };
                if idx >= 64 {
                    return Err(format!("hist {name:?} bucket index {idx} out of range"));
                }
                bucket_total += n;
                *agg.buckets.entry(idx).or_default() += n;
            }
            if bucket_total != agg.count {
                return Err(format!(
                    "hist {name:?} bucket counts sum to {bucket_total}, count says {}",
                    agg.count
                ));
            }
            hists.push((name.clone(), agg));
        }
    }
    Ok((metrics, hists))
}

/// Parse, shape-validate, and merge one profile footer line.
fn parse_profile_footer(line: &str, agg: &mut ProfileAgg) -> Result<(), String> {
    let j = Json::parse(line)?;
    check_version(&j)?;
    agg.footers += 1;
    agg.wall_ns += u64_field(&j, "wall_ns")?;
    agg.iters += u64_field(&j, "iters")?;
    agg.sampled += u64_field(&j, "sampled")?;
    agg.runs += u64_field(&j, "runs")?;
    for (key, into) in [
        ("stages", &mut agg.stages),
        ("attributed", &mut agg.attributed),
        ("occupancy", &mut agg.occupancy),
    ] {
        let Some(Json::Obj(kv)) = j.get(key) else {
            return Err(format!("profile footer is missing the {key} object"));
        };
        for (name, value) in kv {
            let v = value
                .as_u64()
                .ok_or_else(|| format!("{key}.{name} is not a non-negative integer"))?;
            *into.entry(name.clone()).or_default() += v;
        }
    }
    Ok(())
}

/// Parse and schema-validate one run-record line.
fn parse_record(line: &str) -> Result<Rec, String> {
    let j = Json::parse(line)?;
    for key in REQUIRED_KEYS {
        if j.get(key).is_none() {
            return Err(format!("missing required key {key:?}"));
        }
    }
    check_version(&j)?;
    let cost = j.get("cost").ok_or("missing cost object")?;
    for key in COST_KEYS {
        if cost.get(key).is_none() {
            return Err(format!("cost object missing key {key:?}"));
        }
    }
    let provenance = j
        .get("provenance")
        .and_then(Json::as_str)
        .ok_or("provenance is not a string")?;
    if !PROVENANCES.contains(&provenance) {
        return Err(format!(
            "unknown provenance {provenance:?} (expected one of {PROVENANCES:?})"
        ));
    }
    let str_field = |key: &str| -> Result<String, String> {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{key} is not a string"))
    };
    let mut phases: Vec<(String, u64, u64, u64)> = Vec::new();
    if let Some(Json::Obj(kv)) = j.get("phases") {
        for (name, acc) in kv {
            phases.push((
                name.clone(),
                u64_field(acc, "ns")?,
                u64_field(acc, "insts")?,
                u64_field(acc, "count")?,
            ));
        }
    }
    let shards = match j.get("shards") {
        None => None,
        Some(s) => {
            let mut wall_ns = Vec::new();
            if let Some(Json::Arr(items)) = s.get("wall_ns") {
                for item in items {
                    wall_ns.push(
                        item.as_u64()
                            .ok_or("shards.wall_ns entry is not a non-negative integer")?,
                    );
                }
            }
            Some(ShardRec {
                calls: u64_field(s, "calls")?,
                workers: u64_field(s, "workers")?,
                wall_ns,
                merge_wait_ns: u64_field(s, "merge_wait_ns")?,
            })
        }
    };
    Ok(Rec {
        bench: str_field("bench")?,
        technique: str_field("technique")?,
        provenance: provenance.to_string(),
        work_units: cost
            .get("work_units")
            .and_then(Json::as_f64)
            .ok_or("work_units is not a number")?,
        detailed: u64_field(cost, "detailed")?,
        warmed: u64_field(cost, "warmed")?,
        skipped: u64_field(cost, "skipped")?,
        profiled: u64_field(cost, "profiled")?,
        wall_ns: u64_field(&j, "wall_ns")?,
        phases,
        shards,
    })
}

/// Cross-run shard aggregate: how much intra-run sharding happened and how
/// evenly the shard walls balanced.
#[derive(Default)]
struct ShardAgg {
    runs: u64,
    calls: u64,
    max_workers: u64,
    wall_ns: Vec<u64>,
    merge_wait_ns: u64,
}

/// Per-technique aggregate.
#[derive(Default)]
struct TechAgg {
    runs: u64,
    benches: std::collections::BTreeSet<String>,
    provenance: BTreeMap<String, u64>,
    work_units: f64,
    detailed: u64,
    warmed: u64,
    skipped: u64,
    profiled: u64,
    wall_ns: u64,
}

/// Per-phase aggregate (ns values kept for percentiles).
#[derive(Default)]
struct PhaseAgg {
    count: u64,
    insts: u64,
    ns: Vec<u64>,
}

fn aggregate(
    recs: &[Rec],
) -> (
    BTreeMap<String, TechAgg>,
    BTreeMap<String, PhaseAgg>,
    ShardAgg,
) {
    let mut techs: BTreeMap<String, TechAgg> = BTreeMap::new();
    let mut phases: BTreeMap<String, PhaseAgg> = BTreeMap::new();
    let mut shards = ShardAgg::default();
    for r in recs {
        let t = techs.entry(r.technique.clone()).or_default();
        t.runs += 1;
        t.benches.insert(r.bench.clone());
        *t.provenance.entry(r.provenance.clone()).or_default() += 1;
        t.work_units += r.work_units;
        t.detailed += r.detailed;
        t.warmed += r.warmed;
        t.skipped += r.skipped;
        t.profiled += r.profiled;
        t.wall_ns += r.wall_ns;
        for (name, ns, insts, count) in &r.phases {
            let p = phases.entry(name.clone()).or_default();
            p.count += count;
            p.insts += insts;
            p.ns.push(*ns);
        }
        if let Some(s) = &r.shards {
            shards.runs += 1;
            shards.calls += s.calls;
            shards.max_workers = shards.max_workers.max(s.workers);
            shards.wall_ns.extend_from_slice(&s.wall_ns);
            shards.merge_wait_ns += s.merge_wait_ns;
        }
    }
    for p in phases.values_mut() {
        p.ns.sort_unstable();
    }
    shards.wall_ns.sort_unstable();
    (techs, phases, shards)
}

/// Nearest-rank percentile of a sorted slice (`p` in 0..=100).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Fraction of runs that reused *any* prior state (provenance != cold).
fn reuse_ratio(t: &TechAgg) -> f64 {
    let cold = t.provenance.get("cold").copied().unwrap_or(0);
    if t.runs == 0 {
        return 0.0;
    }
    (t.runs - cold) as f64 / t.runs as f64
}

/// Derived pipeline figures from the summed footer metrics: mean
/// instructions per batch refill and the trace-cache hit ratio in `[0,1]`
/// (`None` when the cache never served a lookup).
fn pipeline_derived(metrics: &BTreeMap<String, u64>) -> (u64, Option<f64>) {
    let get = |k: &str| metrics.get(k).copied().unwrap_or(0);
    let refills = get("pipeline.batch_refills");
    let insts_per_refill = get("pipeline.refill_insts")
        .checked_div(refills)
        .unwrap_or(0);
    let hits = get("pipeline.trace_cache.hit");
    let lookups = hits + get("pipeline.trace_cache.miss");
    let hit_ratio = (lookups > 0).then(|| hits as f64 / lookups as f64);
    (insts_per_refill, hit_ratio)
}

/// Render the full human-readable report.
pub fn human(ledger: &Ledger) -> String {
    use std::fmt::Write as _;
    let Ledger {
        recs,
        metrics,
        hists,
        profile,
        ..
    } = ledger;
    let (techs, phases, shards) = aggregate(recs);
    let mut out = String::new();
    let _ = writeln!(out, "run ledger: {} records", recs.len());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>7} {:>12} {:>12} {:>12} {:>10} {:>6}  provenance",
        "technique", "runs", "benches", "work_units", "detailed", "warm+skip", "wall_ms", "reuse"
    );
    for (name, t) in &techs {
        let prov: Vec<String> = t
            .provenance
            .iter()
            .map(|(p, n)| format!("{p}:{n}"))
            .collect();
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>7} {:>12.1} {:>12} {:>12} {:>10.1} {:>5.0}%  {}",
            name,
            t.runs,
            t.benches.len(),
            t.work_units,
            t.detailed,
            t.warmed + t.skipped,
            t.wall_ns as f64 / 1e6,
            reuse_ratio(t) * 100.0,
            prov.join(" "),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "phase", "spans", "total_ms", "p50_us", "p95_us", "insts"
    );
    for (name, p) in &phases {
        let total: u64 = p.ns.iter().sum();
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>14}",
            name,
            p.count,
            total as f64 / 1e6,
            percentile(&p.ns, 50) as f64 / 1e3,
            percentile(&p.ns, 95) as f64 / 1e3,
            p.insts,
        );
    }
    if shards.runs > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "sharding: {} sharded runs, {} shard calls, max {} workers",
            shards.runs, shards.calls, shards.max_workers,
        );
        let _ = writeln!(
            out,
            "  shard wall p50/p95: {:.1}/{:.1} ms, merge wait total: {:.1} ms",
            percentile(&shards.wall_ns, 50) as f64 / 1e6,
            percentile(&shards.wall_ns, 95) as f64 / 1e6,
            shards.merge_wait_ns as f64 / 1e6,
        );
    }
    if !metrics.is_empty() {
        let get = |k: &str| metrics.get(k).copied().unwrap_or(0);
        let (insts_per_refill, hit_ratio) = pipeline_derived(metrics);
        let _ = writeln!(out);
        let _ = writeln!(out, "pipeline:");
        let _ = writeln!(
            out,
            "  batch refills: {} ({} insts, {insts_per_refill} insts/refill), idle jumps: {}",
            get("pipeline.batch_refills"),
            get("pipeline.refill_insts"),
            get("pipeline.idle_jumps"),
        );
        match hit_ratio {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  trace cache: {:.1}% hit ({} hits / {} misses), {} B held",
                    r * 100.0,
                    get("pipeline.trace_cache.hit"),
                    get("pipeline.trace_cache.miss"),
                    get("pipeline.trace_cache.bytes"),
                );
            }
            None => {
                let _ = writeln!(out, "  trace cache: no lookups");
            }
        }
        // Functional-warming kernel counters, present once warming ran.
        // (Older ledgers may also carry `warm.simd_probes` and
        // `pipeline.trace_cache.evict`; they are echoed in the JSON
        // `pipeline` object like any other counter.)
        let warm_refills = get("warm.block_refills");
        let warm_filter = get("warm.filter_hits");
        if warm_refills + warm_filter > 0 {
            let _ = writeln!(out, "warming:");
            let _ = writeln!(
                out,
                "  block refills: {warm_refills}, line-filter hits: {warm_filter}",
            );
        }
    }
    if !hists.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>14} {:>12} {:>12} {:>12}",
            "histogram", "count", "sum", "max", "~p50", "~p95"
        );
        for (name, h) in hists {
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>14} {:>12} {:>12} {:>12}",
                name,
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
            );
        }
    }
    if profile.footers > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "profile: {:.1} ms run_detailed wall, {} iters ({} sampled, 1/{}), {} runs",
            profile.wall_ns as f64 / 1e6,
            profile.iters,
            profile.sampled,
            profile.iters.checked_div(profile.sampled).unwrap_or(0),
            profile.runs,
        );
        for (name, ns) in &profile.attributed {
            let _ = writeln!(
                out,
                "  {:<12} {:>10.1} ms {:>5.1}%",
                name,
                *ns as f64 / 1e6,
                if profile.wall_ns > 0 {
                    *ns as f64 * 100.0 / profile.wall_ns as f64
                } else {
                    0.0
                },
            );
        }
        for (name, sum) in &profile.occupancy {
            let _ = writeln!(
                out,
                "  occupancy.{:<8} {:>8.1} mean",
                name,
                if profile.sampled > 0 {
                    *sum as f64 / profile.sampled as f64
                } else {
                    0.0
                },
            );
        }
    }
    out
}

/// Render the same aggregation as one machine-readable JSON object.
pub fn to_json(ledger: &Ledger) -> String {
    use std::fmt::Write as _;
    let Ledger {
        recs,
        metrics,
        hists,
        profile,
        ..
    } = ledger;
    let (techs, phases, shards) = aggregate(recs);
    let mut out = String::new();
    let _ = write!(out, "{{\"records\":{},\"techniques\":{{", recs.len());
    for (i, (name, t)) in techs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"runs\":{},\"benches\":{},\"work_units\":{},\"detailed\":{},\
             \"warmed\":{},\"skipped\":{},\"profiled\":{},\"wall_ns\":{},\
             \"reuse_ratio\":{},\"provenance\":{{",
            json::escape(name),
            t.runs,
            t.benches.len(),
            json::num(t.work_units),
            t.detailed,
            t.warmed,
            t.skipped,
            t.profiled,
            t.wall_ns,
            json::num(reuse_ratio(t)),
        );
        for (j, (p, n)) in t.provenance.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json::escape(p), n);
        }
        out.push_str("}}");
    }
    out.push_str("},\"phases\":{");
    for (i, (name, p)) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let total: u64 = p.ns.iter().sum();
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"insts\":{},\"ns_total\":{},\"ns_p50\":{},\"ns_p95\":{}}}",
            json::escape(name),
            p.count,
            p.insts,
            total,
            percentile(&p.ns, 50),
            percentile(&p.ns, 95),
        );
    }
    let _ = write!(
        out,
        "}},\"shards\":{{\"runs\":{},\"calls\":{},\"max_workers\":{},\
         \"wall_ns_p50\":{},\"wall_ns_p95\":{},\"merge_wait_ns\":{}}}",
        shards.runs,
        shards.calls,
        shards.max_workers,
        percentile(&shards.wall_ns, 50),
        percentile(&shards.wall_ns, 95),
        shards.merge_wait_ns,
    );
    if !metrics.is_empty() {
        let (insts_per_refill, hit_ratio) = pipeline_derived(metrics);
        out.push_str(",\"pipeline\":{");
        for (name, value) in metrics {
            let _ = write!(out, "\"{}\":{value},", json::escape(name));
        }
        let _ = write!(
            out,
            "\"insts_per_refill\":{insts_per_refill},\"trace_cache_hit_ratio\":{}}}",
            hit_ratio.map_or("null".to_string(), |r| json::num(r).to_string()),
        );
        let get = |k: &str| metrics.get(k).copied().unwrap_or(0);
        let (refills, filter) = (get("warm.block_refills"), get("warm.filter_hits"));
        if refills + filter > 0 {
            let _ = write!(
                out,
                ",\"warming\":{{\"block_refills\":{refills},\"filter_hits\":{filter}}}",
            );
        }
    }
    if !hists.is_empty() {
        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
                json::escape(name),
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
            );
        }
        out.push('}');
    }
    if profile.footers > 0 {
        let _ = write!(
            out,
            ",\"profile\":{{\"wall_ns\":{},\"iters\":{},\"sampled\":{},\"runs\":{}",
            profile.wall_ns, profile.iters, profile.sampled, profile.runs,
        );
        for (key, map) in [
            ("stages", &profile.stages),
            ("attributed", &profile.attributed),
            ("occupancy", &profile.occupancy),
        ] {
            let _ = write!(out, ",\"{key}\":{{");
            for (i, (name, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json::escape(name));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_ledger(name: &str, lines: &[&str]) -> String {
        let path = std::env::temp_dir().join(format!("simreport-{}-{name}", std::process::id()));
        std::fs::write(&path, lines.join("\n")).unwrap();
        path.to_str().unwrap().to_string()
    }

    const RECORD: &str = r#"{"v":1,"bench":"gzip","scale":0.25,"cfg":"00000000deadbeef","technique":"SMARTS","spec":"SMARTS U:1000","provenance":"cold","cpi":1.25,"measured_insts":10000,"cost":{"detailed":30000,"warmed":90000,"skipped":0,"profiled":0,"extra_runs":0,"work_units":39000},"wall_ns":42,"phases":{"measure":{"ns":5,"insts":10000,"bytes":0,"count":10}}}"#;
    const METRICS_FOOTER: &str = r#"{"v":1,"meta":"metrics","metrics":{"pipeline.batch_refills":2,"pipeline.refill_insts":512},"hist":{"hist.pipeline.refill_insts":{"count":2,"sum":512,"max":300,"buckets":[[8,1],[9,1]]}}}"#;
    const PROFILE_FOOTER: &str = r#"{"v":1,"meta":"profile","wall_ns":1000,"iters":256,"sampled":2,"runs":1,"epoch":128,"stages":{"fetch":100,"issue":300},"attributed":{"fetch":250,"issue":750},"occupancy":{"rob":512}}"#;

    #[test]
    fn load_routes_records_and_footers() {
        let path = write_ledger("routes", &[RECORD, METRICS_FOOTER, PROFILE_FOOTER]);
        let ledger = load(std::slice::from_ref(&path)).expect("valid ledger loads");
        assert_eq!(ledger.recs.len(), 1);
        assert_eq!(ledger.metrics_footers, 1);
        assert_eq!(ledger.metrics.get("pipeline.batch_refills"), Some(&2));
        let h = &ledger.hists["hist.pipeline.refill_insts"];
        assert_eq!((h.count, h.sum, h.max), (2, 512, 300));
        assert_eq!(ledger.profile.footers, 1);
        assert_eq!(ledger.profile.attributed.get("issue"), Some(&750));
        let ok = check(std::slice::from_ref(&path)).expect("check passes");
        assert!(
            ok.contains("1 records")
                && ok.contains("1 metrics footers")
                && ok.contains("1 profile footers"),
            "{ok}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn footers_sum_across_batches_but_pipeline_takes_last_per_file() {
        let path = write_ledger(
            "sums",
            &[
                RECORD,
                METRICS_FOOTER,
                RECORD,
                METRICS_FOOTER,
                PROFILE_FOOTER,
                PROFILE_FOOTER,
            ],
        );
        let ledger = load(std::slice::from_ref(&path)).expect("loads");
        // pipeline.* counters: last footer per file wins.
        assert_eq!(ledger.metrics.get("pipeline.refill_insts"), Some(&512));
        // histograms and profile: disjoint batches, summed.
        assert_eq!(ledger.hists["hist.pipeline.refill_insts"].count, 4);
        assert_eq!(ledger.profile.iters, 512);
        assert_eq!(ledger.profile.stages.get("issue"), Some(&600));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_histogram_footer_is_rejected() {
        let bad = r#"{"v":1,"meta":"metrics","metrics":{},"hist":{"h":{"count":3,"sum":1,"max":1,"buckets":[[1,1]]}}}"#;
        let path = write_ledger("badhist", &[bad]);
        let err = check(std::slice::from_ref(&path)).expect_err("count/bucket mismatch is caught");
        assert!(err.contains("bucket counts sum"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_profile_footer_is_rejected() {
        let bad = r#"{"v":1,"meta":"profile","wall_ns":1,"iters":1,"sampled":1,"runs":1,"stages":{},"attributed":{}}"#;
        let path = write_ledger("badprof", &[bad]);
        let err = check(std::slice::from_ref(&path)).expect_err("missing occupancy is caught");
        assert!(err.contains("occupancy"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_renders_histogram_and_profile_sections() {
        let path = write_ledger("render", &[RECORD, METRICS_FOOTER, PROFILE_FOOTER]);
        let ledger = load(std::slice::from_ref(&path)).expect("loads");
        let text = human(&ledger);
        assert!(text.contains("histogram"), "{text}");
        assert!(text.contains("hist.pipeline.refill_insts"), "{text}");
        assert!(text.contains("profile:"), "{text}");
        let j = sim_obs::json::Json::parse(&to_json(&ledger)).expect("json output parses");
        assert!(j.get("histograms").is_some());
        assert_eq!(
            j.get("profile")
                .and_then(|p| p.get("attributed"))
                .and_then(|a| a.get("issue"))
                .and_then(sim_obs::json::Json::as_u64),
            Some(750)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A metrics footer carrying the warming counters plus a histogram key.
    /// It also carries `warm.simd_probes` and `pipeline.trace_cache.evict`,
    /// counters only older ledgers have: they must still load and check.
    const WARM_FOOTER: &str = r#"{"v":1,"meta":"metrics","metrics":{"pipeline.trace_cache.evict":3,"warm.block_refills":40,"warm.filter_hits":900,"warm.simd_probes":1200},"hist":{"hist.tcache.probe_ns":{"count":1,"sum":80,"max":80,"buckets":[[7,1]]}}}"#;

    #[test]
    fn report_renders_warming_section_only_when_counters_fired() {
        let with = write_ledger("warm-on", &[RECORD, WARM_FOOTER]);
        let ledger = load(std::slice::from_ref(&with)).expect("loads");
        let text = human(&ledger);
        assert!(text.contains("warming:"), "{text}");
        assert!(text.contains("block refills: 40"), "{text}");
        assert!(text.contains("line-filter hits: 900"), "{text}");
        let j = sim_obs::json::Json::parse(&to_json(&ledger)).expect("json parses");
        assert_eq!(
            j.get("warming")
                .and_then(|w| w.get("filter_hits"))
                .and_then(sim_obs::json::Json::as_u64),
            Some(900)
        );
        let ok = check(std::slice::from_ref(&with)).expect("check accepts warming counters");
        assert!(ok.contains("1 metrics footers"), "{ok}");

        // Knobs off: no warm.* keys, no warming section.
        let without = write_ledger("warm-off", &[RECORD, METRICS_FOOTER]);
        let ledger = load(std::slice::from_ref(&without)).expect("loads");
        assert!(!human(&ledger).contains("warming:"));
        assert!(!to_json(&ledger).contains("\"warming\""));
        for p in [with, without] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn canon_strips_warming_footers_and_histogram_keys() {
        // A ledger whose footers carry the warming counters and the
        // decode-time histogram canonicalizes identically to one with no
        // footers at all.
        let plain = write_ledger("canon-warm-a", &[RECORD]);
        let warm = write_ledger("canon-warm-b", &[RECORD, WARM_FOOTER, METRICS_FOOTER]);
        let ca = canon(std::slice::from_ref(&plain)).expect("canon plain");
        let cb = canon(std::slice::from_ref(&warm)).expect("canon warm");
        assert_eq!(ca, cb, "warming footers must not leak into canon");
        assert!(!cb.contains("warm."), "{cb}");
        for p in [plain, warm] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn canon_drops_volatile_fields_and_sorts() {
        // Same run, different machine noise: wall time, provenance, and
        // phase spans differ; the canonical projection must not.
        let cold = RECORD;
        let replayed = RECORD
            .replace(
                "\"provenance\":\"cold\"",
                "\"provenance\":\"store-restore\"",
            )
            .replace("\"wall_ns\":42", "\"wall_ns\":99999");
        let other = RECORD.replace("\"bench\":\"gzip\"", "\"bench\":\"art\"");

        let a = write_ledger("canon-a", &[cold, &other, METRICS_FOOTER]);
        let b = write_ledger("canon-b", &[&other, &replayed, PROFILE_FOOTER]);
        let ca = canon(std::slice::from_ref(&a)).expect("canon a");
        let cb = canon(std::slice::from_ref(&b)).expect("canon b");
        assert_eq!(ca, cb, "volatile fields must not leak into canon");
        assert_eq!(ca.lines().count(), 2, "one line per record, no footers");
        let mut lines: Vec<&str> = ca.lines().collect();
        let already = lines.clone();
        lines.sort();
        assert_eq!(lines, already, "canon output is sorted");
        assert!(ca.contains("\"cpi\":1.25"), "{ca}");
        assert!(!ca.contains("wall_ns"), "{ca}");
        assert!(!ca.contains("provenance"), "{ca}");

        // A change in an actual result is visible.
        let shifted = RECORD.replace("\"cpi\":1.25", "\"cpi\":1.5");
        let c = write_ledger("canon-c", &[&shifted, &other]);
        assert_ne!(ca, canon(std::slice::from_ref(&c)).expect("canon c"));
        for p in [a, b, c] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn legacy_provenance_words_still_validate() {
        // `trace-replay` and `warm-ckpt` named checkpoint tiers that no
        // longer exist; ledgers written while they did must still load.
        for word in ["trace-replay", "warm-ckpt"] {
            let legacy = RECORD.replace(
                "\"provenance\":\"cold\"",
                &format!("\"provenance\":\"{word}\""),
            );
            let path = write_ledger(&format!("legacy-{word}"), &[&legacy]);
            let plain = write_ledger(&format!("legacy-plain-{word}"), &[RECORD]);
            let files = [path.clone()];
            assert_eq!(
                check(&files).expect("legacy word passes --check"),
                "ok: 1 records"
            );
            assert_eq!(
                canon(&files).expect("legacy word passes --canon"),
                canon(std::slice::from_ref(&plain)).unwrap(),
                "provenance stays out of the canonical projection"
            );
            for p in [path, plain] {
                let _ = std::fs::remove_file(&p);
            }
        }
    }

    #[test]
    fn quantile_uses_bucket_upper_edges_clamped_to_max() {
        let mut h = HistAgg {
            count: 4,
            sum: 0,
            max: 300,
            ..Default::default()
        };
        h.buckets.insert(3, 3); // values in [4,8)
        h.buckets.insert(9, 1); // values in [256,512)
        assert_eq!(h.quantile(0.50), 7);
        assert_eq!(h.quantile(1.0), 300, "clamped to observed max");
        assert_eq!(HistAgg::default().quantile(0.5), 0);
    }
}
