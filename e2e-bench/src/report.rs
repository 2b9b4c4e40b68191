//! The metric catalogue and the one-line JSON result every run prints.

use std::collections::BTreeMap;

/// `(name, unit, better)` of every end-to-end metric. Every workload
/// reports all of them, measured with tracing off.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sim_mips", "Minst/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_ms.p50", "ms", "lower"),
    ("job_ms.p90", "ms", "lower"),
    ("smarts_cpi_dev_pct", "%", "lower"),
    ("simpoint_cpi_dev_pct", "%", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by the traced
/// run. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 39] = [
    ("workloads.walk_ns_per_inst", "ns/inst", "lower"),
    ("workloads.tcache_hit_ratio", "ratio", "higher"),
    ("workloads.tcache_mb", "MB", "lower"),
    ("workloads.program_build_ms", "ms", "lower"),
    ("sim_core.detailed_ns_per_inst", "ns/inst", "lower"),
    ("sim_core.warm_ns_per_inst", "ns/inst", "lower"),
    ("sim_core.skip_ns_per_inst", "ns/inst", "lower"),
    ("sim_core.detailed_minst", "Minst", "lower"),
    ("sim_core.warm_minst", "Minst", "lower"),
    ("sim_core.skip_minst", "Minst", "lower"),
    ("sim_core.insts_per_refill", "inst", "higher"),
    ("sim_core.warm_filter_hits_per_kinst", "1/kinst", "higher"),
    ("techniques.run_ms.p50", "ms", "lower"),
    ("techniques.run_ms.p90", "ms", "lower"),
    ("techniques.ckpt_arch_hit_ratio", "ratio", "higher"),
    ("techniques.ckpt_warm_hit_ratio", "ratio", "higher"),
    ("techniques.ckpt_prefix_hit_ratio", "ratio", "higher"),
    ("techniques.ckpt_warm_mb", "MB", "lower"),
    ("techniques.restore_ms", "ms", "lower"),
    ("techniques.simpoint_plan_s", "s", "lower"),
    ("techniques.profile_s", "s", "lower"),
    ("simstats.cluster_s", "s", "lower"),
    ("simstats.pb_effects_us", "us", "lower"),
    ("sim_exec.queue_wait_ms", "ms", "lower"),
    ("sim_exec.idle_s", "s", "lower"),
    ("sim_exec.shard_merge_wait_ms", "ms", "lower"),
    ("sim_store.open_ms", "ms", "lower"),
    ("sim_store.run_kb", "KB", "lower"),
    ("sim_store.arch_kb", "KB", "lower"),
    ("sim_store.warm_mb", "MB", "lower"),
    ("sim_store.prefix_mb", "MB", "lower"),
    ("sim_store.hits", "count", "higher"),
    ("sim_store.disk_mb", "MB", "lower"),
    ("sim_obs.record_kb", "KB", "lower"),
    ("sim_serve.accept_ms.p50", "ms", "lower"),
    ("sim_serve.hit_ms.p50", "ms", "lower"),
    ("sim_serve.computed_ms.p50", "ms", "lower"),
    ("sim_serve.startup_ms", "ms", "lower"),
    ("sim_serve.drain_ms", "ms", "lower"),
];

/// What one workload run produced: operation counts, output-check
/// failures, and every metric it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record metric `name` (must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == name),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(name, value);
    }

    /// Record an output check: `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: the end-to-end metrics (`traced == false`) or the
    /// per-layer metrics. Errors when an end-to-end metric is missing or
    /// any value is not a finite number.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let table: &[(&str, &str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit, _) in table {
            let value = match (self.values.get(name), traced) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The end-to-end values as one JSON object (the traced run prints
    /// it to stderr, for the tracing-overhead comparison).
    pub fn end_to_end_json(&self) -> String {
        let parts: Vec<String> = END_TO_END
            .iter()
            .filter_map(|&(name, _, _)| {
                let v = self.values.get(name)?;
                Some(format!("\"{name}\": {}", json_num(*v)))
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Full-precision JSON number (integral values keep a decimal point).
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_obs::json::Json;

    fn table_of(j: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = j.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn owned(t: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        t.iter()
            .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(table_of(&j, "end_to_end"), owned(&END_TO_END));
        assert_eq!(table_of(&j, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _, _) in END_TO_END {
            o.set(name, 2.0);
        }
        let line = o.result_line(false).unwrap();
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(3));
        let m = j.get("metrics").unwrap();
        for (name, unit, _) in END_TO_END {
            assert_eq!(
                m.get(name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64),
                Some(2.0)
            );
            assert_eq!(
                m.get(name)
                    .and_then(|v| v.get("unit"))
                    .and_then(Json::as_str),
                Some(unit)
            );
        }
        // Per-layer metrics a workload does not exercise read 0.
        assert!(o
            .result_line(true)
            .unwrap()
            .contains("\"sim_serve.drain_ms\": {\"value\": 0.0"));
        o.check(false, || "broken".to_string());
        assert!(o
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        o.set("wall_s", f64::NAN);
        assert!(o.result_line(false).is_err());
    }
}
