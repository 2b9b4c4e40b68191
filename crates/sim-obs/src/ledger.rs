//! The run ledger: one JSONL record per technique run.
//!
//! A harness installs a sink with [`set_sink`] (the `--trace-out FILE`
//! flag or `SIM_TRACE_OUT`); the technique runner then [`submit`]s one
//! [`RunRecord`] per run — benchmark, technique, configuration
//! fingerprint, cost in every execution mode, wall time, per-phase
//! breakdown, and reuse provenance (`cold` / `shard` / `arch-ckpt` /
//! `cache` / `store-restore`). Records buffer in memory and are written by
//! [`flush`] (the harness calls it at exit, including on panic) through a
//! buffered writer.
//!
//! ## Determinism
//!
//! Worker threads complete runs in nondeterministic order, so the buffer
//! is sorted by run key (benchmark, technique, spec, configuration, scale,
//! provenance) before writing: whenever the record *multiset* is
//! deterministic, the sink file is byte-stable apart from wall-time
//! fields. Records never touch stdout/stderr, so report output is
//! untouched at any `--jobs` value.
//!
//! When any `pipeline.*` metric is registered (or any histogram is
//! non-empty), each flushed batch is followed by one **metrics footer**
//! line —
//! `{"v":1,"meta":"metrics","metrics":{"pipeline.batch_refills":N,...},"hist":{...}}` —
//! a cumulative process-wide snapshot that `simreport` folds into its
//! "pipeline" and "histograms" sections. With `SIM_PROFILE=1` a second
//! **profile footer** (`{"v":1,"meta":"profile",...}`) carries the stage
//! profiler's wall-time attribution. Footer values measure this machine
//! and run order (like wall time), so they sit outside the deterministic
//! record multiset; consumers key on `"meta"` to tell footers from run
//! records.
//!
//! ## Per-job scoping
//!
//! Long-lived multi-tenant processes (the `simserve` sweep daemon) need
//! records scoped to a *job*, not the process: install a [`JobSink`] on
//! the job's driver thread with [`install_job_sink`] and [`submit`] routes
//! there instead; the `sim_exec` pool propagates the handle into its
//! workers, so concurrent jobs never see each other's records.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{escape, num};
use crate::trace::PhaseAcc;

/// Ledger schema version, emitted as `"v"` in every record.
pub const SCHEMA_VERSION: u64 = 1;

/// Top-level keys every schema-v1 record must carry (`simreport --check`).
pub const REQUIRED_KEYS: [&str; 11] = [
    "v",
    "bench",
    "scale",
    "cfg",
    "technique",
    "spec",
    "provenance",
    "cpi",
    "measured_insts",
    "cost",
    "wall_ns",
];

/// Keys of the nested `"cost"` object.
pub const COST_KEYS: [&str; 6] = [
    "detailed",
    "warmed",
    "skipped",
    "profiled",
    "extra_runs",
    "work_units",
];

/// The provenance vocabulary (strongest reuse tier that served the run;
/// `shard` marks a cold run that executed as parallel interval shards).
/// `trace-replay` and `warm-ckpt` named two retired checkpoint tiers; no
/// run records them any more, but ledgers written before still validate.
pub const PROVENANCES: [&str; 7] = [
    "cold",
    "shard",
    "arch-ckpt",
    "trace-replay",
    "warm-ckpt",
    "cache",
    "store-restore",
];

/// Summary of one run's intra-run shard fan-out. Absent (`None`) for runs
/// that executed serially or were served from a reuse tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Parallel shard fan-outs inside the run.
    pub calls: u64,
    /// Largest worker count of any fan-out.
    pub workers: u64,
    /// Per-worker busy wall nanoseconds, all fan-outs concatenated.
    pub wall_ns: Vec<u64>,
    /// Total nanoseconds the merging caller waited on worker joins.
    pub merge_wait_ns: u64,
}

/// One technique run, as recorded in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Benchmark name (Table 2 row).
    pub bench: String,
    /// Stream-length scale of the run.
    pub scale: f64,
    /// [`SimConfig::fingerprint`](https://docs.rs) value, serialized as a
    /// hex string (u64 does not survive an f64 JSON number).
    pub cfg: u64,
    /// Technique family name (Figure 1 legend).
    pub technique: &'static str,
    /// Full permutation label (Table 1 row).
    pub spec: String,
    /// Strongest reuse tier that served the run (see [`PROVENANCES`]).
    pub provenance: &'static str,
    /// The technique's CPI estimate.
    pub cpi: f64,
    /// Instructions in the measured window.
    pub measured_insts: u64,
    /// Detailed instructions (measurement + detailed warm-up).
    pub detailed: u64,
    /// Functionally warmed instructions.
    pub warmed: u64,
    /// Fast-forwarded instructions.
    pub skipped: u64,
    /// Profiled instructions (SimPoint's BBV pass).
    pub profiled: u64,
    /// Additional full repetitions (SMARTS reruns).
    pub extra_runs: u64,
    /// Total cost in detailed-instruction-equivalent work units.
    pub work_units: f64,
    /// Wall nanoseconds of the whole run (cache hits: the lookup).
    pub wall_ns: u64,
    /// Non-empty phases, in [`crate::trace::Phase::ALL`] order.
    pub phases: Vec<(&'static str, PhaseAcc)>,
    /// Intra-run shard fan-out summary, when the run sharded.
    pub shards: Option<ShardSummary>,
}

impl RunRecord {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"v\":{SCHEMA_VERSION},\"bench\":\"{}\",\"scale\":{},\"cfg\":\"{:016x}\",\
             \"technique\":\"{}\",\"spec\":\"{}\",\"provenance\":\"{}\",\"cpi\":{},\
             \"measured_insts\":{},\"cost\":{{\"detailed\":{},\"warmed\":{},\"skipped\":{},\
             \"profiled\":{},\"extra_runs\":{},\"work_units\":{}}},\"wall_ns\":{}",
            escape(&self.bench),
            num(self.scale),
            self.cfg,
            escape(self.technique),
            escape(&self.spec),
            escape(self.provenance),
            num(self.cpi),
            self.measured_insts,
            self.detailed,
            self.warmed,
            self.skipped,
            self.profiled,
            self.extra_runs,
            num(self.work_units),
            self.wall_ns,
        ));
        if let Some(sh) = &self.shards {
            s.push_str(&format!(
                ",\"shards\":{{\"calls\":{},\"workers\":{},\"wall_ns\":[",
                sh.calls, sh.workers
            ));
            for (i, w) in sh.wall_ns.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&w.to_string());
            }
            s.push_str(&format!("],\"merge_wait_ns\":{}}}", sh.merge_wait_ns));
        }
        s.push_str(",\"phases\":{");
        for (i, (name, acc)) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"ns\":{},\"insts\":{},\"bytes\":{},\"count\":{}}}",
                name, acc.ns, acc.insts, acc.bytes, acc.count
            ));
        }
        s.push_str("}}");
        s
    }

    /// Run-key ordering for the sorted flush: everything deterministic
    /// first, wall time last as a stable tiebreaker.
    fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        (
            &self.bench,
            self.technique,
            &self.spec,
            self.cfg,
            self.scale.to_bits(),
            self.provenance,
            self.detailed,
            self.wall_ns,
        )
            .cmp(&(
                &other.bench,
                other.technique,
                &other.spec,
                other.cfg,
                other.scale.to_bits(),
                other.provenance,
                other.detailed,
                other.wall_ns,
            ))
    }
}

struct Sink {
    path: String,
    writer: BufWriter<File>,
    buf: Vec<RunRecord>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// An in-memory record sink scoped to one *job* rather than the process.
///
/// The sweep service runs many jobs concurrently in one process; the file
/// sink above is process-global, so two interleaved jobs would corrupt
/// each other's ledgers. A `JobSink` is a cheap-clone handle
/// (`Arc<Mutex<Vec<RunRecord>>>`) installed per thread with
/// [`install_job_sink`]; while installed, [`submit`] on that thread routes
/// records here instead of the file sink. `sim_exec::par_map` /
/// `shard_map` propagate the caller's handle into their workers, so a
/// job's whole fan-out reports into the job's own sink. The owner drains
/// with [`JobSink::drain_sorted`] — the same run-key sort the file sink
/// applies at flush — whenever it wants to stream what has accumulated.
#[derive(Debug, Clone, Default)]
pub struct JobSink {
    buf: Arc<Mutex<Vec<RunRecord>>>,
}

impl JobSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records buffered and not yet drained.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every buffered record, sorted by the ledger's run key — the
    /// same deterministic order [`flush`] writes the file sink in.
    pub fn drain_sorted(&self) -> Vec<RunRecord> {
        let mut recs = std::mem::take(&mut *self.buf.lock().unwrap_or_else(|e| e.into_inner()));
        recs.sort_by(|a, b| a.key_cmp(b));
        recs
    }

    fn push(&self, record: RunRecord) {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }
}

thread_local! {
    /// The job sink records submitted from this thread route into.
    static JOB_SINK: RefCell<Option<JobSink>> = const { RefCell::new(None) };
}

/// Install `sink` as this thread's job sink, returning the previous one
/// (restore it when the scope ends; `None` uninstalls). While a job sink
/// is installed, [`submit`] on this thread bypasses the process-global
/// file sink entirely.
pub fn install_job_sink(sink: Option<JobSink>) -> Option<JobSink> {
    JOB_SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

/// This thread's installed job sink, if any (cheap clone of the handle).
/// The pool uses this to hand the caller's sink to spawned workers.
pub fn current_job_sink() -> Option<JobSink> {
    JOB_SINK.with(|s| s.borrow().clone())
}

/// Whether a sink is installed — the process file sink (one relaxed load)
/// or this thread's job sink; the runner's fast path.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) || JOB_SINK.with(|s| s.borrow().is_some())
}

/// Install (create/truncate) the ledger sink at `path`. Installing the
/// path that is already active is a no-op, so per-experiment `install()`
/// calls inside one `simtech all` invocation keep appending to one file.
/// Installing a *different* path flushes the old sink first.
pub fn set_sink(path: &str) -> std::io::Result<()> {
    let mut s = sink().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = s.as_mut() {
        if old.path == path {
            return Ok(());
        }
        flush_locked(old)?;
    }
    let file = File::create(path)?;
    *s = Some(Sink {
        path: path.to_string(),
        writer: BufWriter::new(file),
        buf: Vec::new(),
    });
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Flush and remove the sink. Subsequent [`submit`]s are dropped until a
/// new sink is installed.
pub fn clear_sink() -> std::io::Result<()> {
    let mut s = sink().lock().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(false, Ordering::Relaxed);
    match s.take() {
        Some(mut old) => flush_locked(&mut old),
        None => Ok(()),
    }
}

/// Buffer one record: into this thread's job sink when one is installed
/// (per-job scoping), otherwise into the process file sink. Dropped
/// silently when neither is installed.
pub fn submit(record: RunRecord) {
    let record = match JOB_SINK.with(move |s| {
        if let Some(job) = s.borrow().as_ref() {
            job.push(record);
            None
        } else {
            Some(record)
        }
    }) {
        Some(r) => r,
        None => return,
    };
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let mut s = sink().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = s.as_mut() {
        sink.buf.push(record);
    }
}

/// Sort the buffered records by run key and append them to the sink file.
/// Call at harness exit (the experiment layer does, panic included).
pub fn flush() -> std::io::Result<()> {
    let mut s = sink().lock().unwrap_or_else(|e| e.into_inner());
    match s.as_mut() {
        Some(sink) => flush_locked(sink),
        None => Ok(()),
    }
}

fn flush_locked(sink: &mut Sink) -> std::io::Result<()> {
    if sink.buf.is_empty() {
        return sink.writer.flush();
    }
    sink.buf.sort_by(|a, b| a.key_cmp(b));
    for rec in sink.buf.drain(..) {
        sink.writer.write_all(rec.to_json_line().as_bytes())?;
        sink.writer.write_all(b"\n")?;
    }
    if let Some(footer) = metrics_footer_line() {
        sink.writer.write_all(footer.as_bytes())?;
        sink.writer.write_all(b"\n")?;
    }
    if let Some(footer) = profile_footer_line() {
        sink.writer.write_all(footer.as_bytes())?;
        sink.writer.write_all(b"\n")?;
    }
    sink.writer.flush()
}

/// The pipeline-metrics footer appended after each batch of records: a
/// cumulative snapshot of every registered `pipeline.*` counter/gauge, as
/// one `{"v":1,"meta":"metrics","metrics":{...}}` line — extended with a
/// `"hist"` object carrying the full log2 bucket vectors of every
/// non-empty registered histogram (`{"count":..,"sum":..,"max":..,
/// "buckets":[[bucket,count],...]}` per name; a bucket's index is the
/// value's bit length, so bucket `k` covers `[2^(k-1), 2^k)`). `simreport`
/// keys on `"meta"` to route these to its "pipeline" and "histograms"
/// sections: the `pipeline.*` counters are process-cumulative (last footer
/// wins), while the harness resets histograms at experiment boundaries, so
/// per-batch `"hist"` objects are disjoint and are *summed* across
/// footers; record-schema validators skip them the
/// same way. `None` when no `pipeline.*` metric is registered and every
/// histogram is empty, so processes that never ran the detailed pipeline
/// emit records-only ledgers, byte-identical to the pre-footer format.
fn metrics_footer_line() -> Option<String> {
    let pipeline: Vec<(String, u64)> = crate::metrics::snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("pipeline."))
        .collect();
    let hists = crate::metrics::histogram_snapshots();
    if pipeline.is_empty() && hists.is_empty() {
        return None;
    }
    let mut line = format!("{{\"v\":{SCHEMA_VERSION},\"meta\":\"metrics\",\"metrics\":{{");
    for (i, (name, value)) in pipeline.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":{value}", escape(name)));
    }
    line.push('}');
    if !hists.is_empty() {
        line.push_str(",\"hist\":{");
        for (i, (name, h)) in hists.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                escape(name),
                h.count,
                h.sum,
                h.max
            ));
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                line.push_str(&format!("[{bucket},{n}]"));
            }
            line.push_str("]}");
        }
        line.push('}');
    }
    line.push('}');
    Some(line)
}

/// The stage-profile footer: the cumulative `SIM_PROFILE=1` attribution as
/// one `{"v":1,"meta":"profile",...}` line — raw sampled per-stage sums
/// (`stages`), attributed wall shares (`attributed`), occupancy sums
/// (`occupancy`), and the sampling density (`iters`/`sampled`/`runs`).
/// Like the metrics footer it sits outside the deterministic record
/// multiset (consumers key on `"meta"`); `None` when nothing was profiled.
fn profile_footer_line() -> Option<String> {
    let p = crate::profile::snapshot();
    if p.is_empty() {
        return None;
    }
    let mut line = format!(
        "{{\"v\":{SCHEMA_VERSION},\"meta\":\"profile\",\"wall_ns\":{},\"iters\":{},\
         \"sampled\":{},\"runs\":{},\"epoch\":{},\"stages\":{{",
        p.wall_ns,
        p.iters,
        p.sampled,
        p.runs,
        crate::profile::EPOCH
    );
    for (i, (name, ns)) in crate::profile::STAGE_NAMES
        .iter()
        .zip(p.stage_ns)
        .enumerate()
    {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{name}\":{ns}"));
    }
    line.push_str("},\"attributed\":{");
    for (i, (name, ns)) in crate::profile::STAGE_NAMES
        .iter()
        .zip(p.attributed_ns())
        .enumerate()
    {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{name}\":{ns}"));
    }
    line.push_str("},\"occupancy\":{");
    for (i, (name, sum)) in crate::profile::OCC_NAMES.iter().zip(p.occ_sum).enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{name}\":{sum}"));
    }
    line.push_str("}}");
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::sync::{Mutex, MutexGuard};

    /// The sink is process-global; serialize the tests that touch it.
    fn sink_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn rec(bench: &str, spec: &str, wall_ns: u64) -> RunRecord {
        RunRecord {
            bench: bench.to_string(),
            scale: 0.25,
            cfg: 0xdead_beef_0000_0001,
            technique: "SMARTS",
            spec: spec.to_string(),
            provenance: "cold",
            cpi: 1.25,
            measured_insts: 10_000,
            detailed: 30_000,
            warmed: 90_000,
            skipped: 0,
            profiled: 0,
            extra_runs: 0,
            work_units: 39_000.0,
            wall_ns,
            phases: vec![(
                "measure",
                PhaseAcc {
                    ns: 5,
                    insts: 10_000,
                    bytes: 0,
                    count: 10,
                },
            )],
            shards: None,
        }
    }

    #[test]
    fn record_serializes_to_parseable_json_with_required_keys() {
        let line = rec("gzip", "SMARTS U:1000 W:2000", 42).to_json_line();
        let j = Json::parse(&line).expect("record line parses");
        for key in REQUIRED_KEYS {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(
            j.get("cfg").and_then(Json::as_str),
            Some("deadbeef00000001")
        );
        let cost = j.get("cost").expect("cost object");
        for key in COST_KEYS {
            assert!(cost.get(key).is_some(), "missing cost.{key}");
        }
        let measure = j.get("phases").and_then(|p| p.get("measure")).unwrap();
        assert_eq!(measure.get("insts").and_then(Json::as_u64), Some(10_000));
    }

    #[test]
    fn shard_summary_serializes_when_present_and_is_absent_otherwise() {
        assert!(!rec("gzip", "a", 1).to_json_line().contains("\"shards\""));
        let mut r = rec("gzip", "a", 1);
        r.shards = Some(ShardSummary {
            calls: 2,
            workers: 4,
            wall_ns: vec![10, 20, 30],
            merge_wait_ns: 7,
        });
        let j = Json::parse(&r.to_json_line()).expect("line with shards parses");
        let sh = j.get("shards").expect("shards object");
        assert_eq!(sh.get("calls").and_then(Json::as_u64), Some(2));
        assert_eq!(sh.get("workers").and_then(Json::as_u64), Some(4));
        assert_eq!(sh.get("merge_wait_ns").and_then(Json::as_u64), Some(7));
        // Required keys survive the extra field.
        for key in REQUIRED_KEYS {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn flush_sorts_by_run_key_and_writes_jsonl() {
        let _g = sink_lock();
        let path =
            std::env::temp_dir().join(format!("sim_obs_ledger_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        set_sink(&path_s).expect("sink opens");
        submit(rec("mcf", "b", 2));
        submit(rec("gzip", "a", 1));
        submit(rec("gzip", "a", 3));
        clear_sink().expect("flushes");
        let text = std::fs::read_to_string(&path).unwrap();
        // Other tests in this process may register pipeline.* metrics,
        // which appends a footer line; keep only the run records.
        let benches: Vec<String> = text
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|j| j.get("meta").is_none())
            .map(|j| j.get("bench").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(benches, ["gzip", "gzip", "mcf"], "sorted by run key");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn submit_without_sink_is_dropped() {
        let _g = sink_lock();
        assert!(!active());
        submit(rec("gzip", "a", 1)); // must not panic or leak
        flush().expect("no-op flush succeeds");
    }

    #[test]
    fn reinstalling_the_same_path_keeps_appending() {
        let _g = sink_lock();
        let path =
            std::env::temp_dir().join(format!("sim_obs_append_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        set_sink(&path_s).expect("opens");
        submit(rec("gzip", "a", 1));
        flush().expect("first flush");
        set_sink(&path_s).expect("same path is a no-op");
        submit(rec("mcf", "b", 2));
        clear_sink().expect("second flush");
        let text = std::fs::read_to_string(&path).unwrap();
        let records = text
            .lines()
            .filter(|l| Json::parse(l).unwrap().get("meta").is_none())
            .count();
        assert_eq!(records, 2, "both batches present");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn job_sink_captures_records_and_shields_the_file_sink() {
        let _g = sink_lock();
        let path =
            std::env::temp_dir().join(format!("sim_obs_jobsink_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        set_sink(&path_s).expect("sink opens");

        let job = JobSink::new();
        let prev = install_job_sink(Some(job.clone()));
        assert!(active(), "job sink counts as active");
        submit(rec("mcf", "b", 2));
        submit(rec("gzip", "a", 1));
        install_job_sink(prev);

        // Records went to the job sink, sorted on drain; nothing leaked
        // into the process file sink.
        let drained = job.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].bench, "gzip", "drain is run-key sorted");
        assert!(job.is_empty(), "drain takes everything");
        clear_sink().expect("flushes");
        let text = std::fs::read_to_string(&path).unwrap();
        let records = text
            .lines()
            .filter(|l| Json::parse(l).unwrap().get("meta").is_none())
            .count();
        assert_eq!(records, 0, "job records bypass the file sink");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn job_sink_is_active_without_a_file_sink_and_uninstalls_cleanly() {
        let _g = sink_lock();
        assert!(!active());
        let job = JobSink::new();
        let prev = install_job_sink(Some(job.clone()));
        assert!(prev.is_none());
        assert!(active());
        submit(rec("gzip", "a", 1));
        install_job_sink(None);
        assert!(!active());
        submit(rec("gzip", "dropped", 2)); // no sink anywhere: dropped
        assert_eq!(job.drain_sorted().len(), 1);
    }

    #[test]
    fn pipeline_metrics_append_a_footer_line() {
        let _g = sink_lock();
        // Registering any pipeline.* metric arms the footer for every
        // subsequent flush in this process.
        crate::metrics::counter("pipeline.test_footer").add(7);
        let path =
            std::env::temp_dir().join(format!("sim_obs_footer_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        set_sink(&path_s).expect("opens");
        submit(rec("gzip", "a", 1));
        clear_sink().expect("flushes");
        let text = std::fs::read_to_string(&path).unwrap();
        let footers: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("footer line parses"))
            .filter(|j| j.get("meta").and_then(Json::as_str) == Some("metrics"))
            .collect();
        assert_eq!(footers.len(), 1, "one metrics footer per flushed batch");
        let f = &footers[0];
        assert_eq!(f.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(f.get("meta").and_then(Json::as_str), Some("metrics"));
        let m = f.get("metrics").expect("metrics object");
        assert!(
            m.get("pipeline.test_footer").and_then(Json::as_u64) >= Some(7),
            "footer carries the registered pipeline counter"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_footer_carries_histogram_buckets() {
        let _g = sink_lock();
        let _h = crate::testutil::global_lock();
        crate::metrics::histogram("test.ledger.hist").record(5);
        crate::metrics::histogram("test.ledger.hist").record(100);
        let line = metrics_footer_line().expect("non-empty histogram arms the footer");
        let j = Json::parse(&line).expect("footer parses");
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(j.get("meta").and_then(Json::as_str), Some("metrics"));
        let h = j
            .get("hist")
            .and_then(|h| h.get("test.ledger.hist"))
            .expect("footer carries the histogram");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(h.get("sum").and_then(Json::as_u64), Some(105));
        assert_eq!(h.get("max").and_then(Json::as_u64), Some(100));
        assert!(
            line.contains("\"buckets\":[") && line.contains("[3,1]") && line.contains("[7,1]"),
            "bucket pairs serialize as [index,count]: {line}"
        );
        crate::metrics::reset_histograms();
    }

    #[test]
    fn profile_footer_serializes_attribution() {
        let _g = sink_lock();
        let _h = crate::testutil::global_lock();
        crate::profile::reset();
        assert!(profile_footer_line().is_none(), "no footer without data");
        crate::profile::add_run(1_000, 256, 2, [100, 200, 300, 250, 100, 50], [512, 8, 16]);
        let line = profile_footer_line().expect("profiled run arms the footer");
        let j = Json::parse(&line).expect("profile footer parses");
        assert_eq!(j.get("meta").and_then(Json::as_str), Some("profile"));
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(j.get("iters").and_then(Json::as_u64), Some(256));
        let stages = j.get("stages").expect("stages object");
        assert_eq!(stages.get("issue").and_then(Json::as_u64), Some(300));
        let attr = j.get("attributed").expect("attributed object");
        assert_eq!(attr.get("issue").and_then(Json::as_u64), Some(300));
        let occ = j.get("occupancy").expect("occupancy object");
        assert_eq!(occ.get("rob").and_then(Json::as_u64), Some(512));
        crate::profile::reset();
    }
}
