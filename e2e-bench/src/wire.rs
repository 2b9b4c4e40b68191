//! The benchmark's own side of the `simserve` wire protocol: it parses
//! every daemon line itself and timestamps each one as it arrives, so
//! latencies are measured at the client, apart from the daemon's code.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sim_obs::json::{escape, Json};

/// How long the client waits for any one daemon line before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The `{"serve":"done",...}` line that ends a job.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Terminal state (`done`, `cancelled`, `failed`).
    pub state: String,
    /// The daemon's `ok` flag.
    pub ok: bool,
    /// Records streamed for the job.
    pub records: u64,
    /// Records served from the artifact store.
    pub store_hits: u64,
    /// Records served from the daemon's in-memory run cache.
    pub cache_hits: u64,
    /// Records computed.
    pub computed: u64,
    /// Run items that had no result (Table 2 N/A cells).
    pub na: u64,
}

/// The fields of one streamed ledger record the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Benchmark name.
    pub bench: String,
    /// Config fingerprint (hex).
    pub cfg: String,
    /// Permutation label.
    pub spec: String,
    /// Reuse provenance (`cold`, `store-restore`, ...).
    pub provenance: String,
    /// The technique's CPI.
    pub cpi: f64,
    /// Charged detailed, warmed and skipped instructions.
    pub cost: [u64; 3],
    /// Wall nanoseconds of the run inside the daemon.
    pub wall_ns: u64,
    /// `(phase, ns, insts)` for every phase the run touched.
    pub phases: Vec<(String, u64, u64)>,
    /// Nanoseconds the run waited on shard joins.
    pub merge_wait_ns: u64,
    /// Length of the record line in bytes.
    pub bytes: usize,
}

impl Record {
    /// `(ns, insts)` of `phase` (zero when the run did not touch it).
    pub fn phase(&self, phase: &str) -> (u64, u64) {
        self.phases
            .iter()
            .find(|(p, _, _)| p == phase)
            .map_or((0, 0), |&(_, ns, insts)| (ns, insts))
    }
}

/// One line from the daemon, classified by its `"serve"` key.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// Job admitted with `runs` planned run items.
    Ack {
        /// Run items planned.
        runs: u64,
    },
    /// Job finished.
    Done(Done),
    /// The daemon refused the request.
    Error(String),
    /// Any other control line (`ok`, `pong`, `status`).
    Control,
    /// A streamed run record (no `"serve"` key).
    Record(Record),
}

fn u(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer {key:?}"))
}

fn s(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {key:?}"))
}

/// Parse one daemon line.
pub fn parse_line(line: &str) -> Result<Line, String> {
    let j = Json::parse(line).map_err(|e| format!("bad daemon line {line:?}: {e}"))?;
    let Some(kind) = j.get("serve") else {
        return parse_record(&j, line.len()).map(Line::Record);
    };
    Ok(match kind.as_str() {
        Some("ack") => Line::Ack {
            runs: u(&j, "runs")?,
        },
        Some("done") => Line::Done(Done {
            state: s(&j, "state")?,
            ok: j.get("ok") == Some(&Json::Bool(true)),
            records: u(&j, "records")?,
            store_hits: u(&j, "store_hits")?,
            cache_hits: u(&j, "cache_hits")?,
            computed: u(&j, "computed")?,
            na: u(&j, "na")?,
        }),
        Some("error") => Line::Error(s(&j, "error").unwrap_or_else(|e| e)),
        _ => Line::Control,
    })
}

fn parse_record(j: &Json, bytes: usize) -> Result<Record, String> {
    let cost = j.get("cost").ok_or("record without cost")?;
    let mut phases = Vec::new();
    if let Some(Json::Obj(kv)) = j.get("phases") {
        for (name, acc) in kv {
            phases.push((name.clone(), u(acc, "ns")?, u(acc, "insts")?));
        }
    }
    Ok(Record {
        bench: s(j, "bench")?,
        cfg: s(j, "cfg")?,
        spec: s(j, "spec")?,
        provenance: s(j, "provenance")?,
        cpi: j
            .get("cpi")
            .and_then(Json::as_f64)
            .ok_or("record without cpi")?,
        cost: [
            u(cost, "detailed")?,
            u(cost, "warmed")?,
            u(cost, "skipped")?,
        ],
        wall_ns: u(j, "wall_ns")?,
        phases,
        merge_wait_ns: j
            .get("shards")
            .and_then(|sh| sh.get("merge_wait_ns"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        bytes,
    })
}

/// The address in the daemon's `simserve: listening on ADDR (...)` line.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("listening on ")?.1;
    rest.split_whitespace().next()?.parse().ok()
}

/// A submit request for the cross product `benches × specs × configs`.
pub fn submit_request(benches: &[&str], scale: f64, specs: &[String], configs: &[&str]) -> String {
    let list = |items: &mut dyn Iterator<Item = &str>| {
        items
            .map(|x| format!("\"{}\"", escape(x)))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"op\":\"submit\",\"job\":{{\"benches\":[{}],\"scale\":{scale},\"specs\":[{}],\"configs\":[{}]}},\"stream\":true}}",
        list(&mut benches.iter().copied()),
        list(&mut specs.iter().map(String::as_str)),
        list(&mut configs.iter().copied()),
    )
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
pub struct Trip {
    /// Connect → ack line.
    pub accept: Duration,
    /// Ack → done line.
    pub service: Duration,
    /// Run items the ack announced.
    pub runs: u64,
    /// The done line.
    pub done: Done,
    /// Records streamed between ack and done.
    pub records: Vec<Record>,
}

impl Trip {
    /// Connect → done line.
    pub fn total(&self) -> Duration {
        self.accept + self.service
    }
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .map_err(|e| format!("socket setup: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("daemon closed the connection".to_string()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(format!("read from daemon: {e}")),
    }
}

/// Submit one job over a new connection, as `simctl submit` does, and
/// stream it to its done line.
pub fn submit(addr: SocketAddr, request: &str) -> Result<Trip, String> {
    let start = Instant::now();
    let (mut stream, mut reader) = connect(addr)?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let runs = match parse_line(&read_line(&mut reader)?)? {
        Line::Ack { runs } => runs,
        Line::Error(e) => return Err(format!("daemon refused job: {e}")),
        other => return Err(format!("expected ack, got {other:?}")),
    };
    let acked = Instant::now();
    let mut records = Vec::new();
    loop {
        match parse_line(&read_line(&mut reader)?)? {
            Line::Record(r) => records.push(r),
            Line::Done(done) => {
                let finished = Instant::now();
                return Ok(Trip {
                    accept: acked - start,
                    service: finished - acked,
                    runs,
                    done,
                    records,
                });
            }
            other => return Err(format!("unexpected line mid-job: {other:?}")),
        }
    }
}

/// Ask the daemon to drain and exit.
pub fn shutdown(addr: SocketAddr) -> Result<(), String> {
    let (mut stream, mut reader) = connect(addr)?;
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .map_err(|e| format!("send: {e}"))?;
    match parse_line(&read_line(&mut reader)?)? {
        Line::Control => Ok(()),
        other => Err(format!("shutdown answered {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_listening_line() {
        let line = "simserve: listening on 127.0.0.1:40113 (jobs=2, active=2, queue=64, store=x)";
        assert_eq!(
            parse_listening(line),
            Some("127.0.0.1:40113".parse().unwrap())
        );
        assert_eq!(parse_listening("simserve: no --addr given"), None);
        assert_eq!(
            parse_listening("simserve: listening on nowhere (jobs=2)"),
            None
        );
    }

    #[test]
    fn classifies_control_lines() {
        assert_eq!(
            parse_line("{\"serve\":\"ack\",\"ok\":true,\"id\":3,\"runs\":40}").unwrap(),
            Line::Ack { runs: 40 }
        );
        let done = "{\"serve\":\"done\",\"ok\":true,\"id\":3,\"state\":\"done\",\"records\":40,\
                    \"store_hits\":38,\"cache_hits\":0,\"computed\":2,\"na\":0,\
                    \"work_units\":123.5,\"wall_ms\":210}";
        let Line::Done(d) = parse_line(done).unwrap() else {
            panic!("done line misparsed");
        };
        assert_eq!((d.records, d.store_hits, d.computed, d.na), (40, 38, 2, 0));
        assert!(d.ok && d.state == "done");
        assert_eq!(
            parse_line("{\"serve\":\"error\",\"ok\":false,\"error\":\"queue full\"}").unwrap(),
            Line::Error("queue full".to_string())
        );
        assert_eq!(
            parse_line("{\"serve\":\"ok\",\"ok\":true}").unwrap(),
            Line::Control
        );
        assert!(
            parse_line("{\"serve\":\"done\",\"ok\":true}").is_err(),
            "done without counts"
        );
        assert!(parse_line("not json").is_err());
    }

    #[test]
    fn parses_a_streamed_record() {
        let line = "{\"v\":1,\"bench\":\"gzip\",\"scale\":0.05,\"cfg\":\"00ab\",\"technique\":\"SMARTS\",\
                    \"spec\":\"SMARTS U:1000 W:2000\",\"provenance\":\"shard\",\"cpi\":2.5,\
                    \"measured_insts\":30000,\"cost\":{\"detailed\":90000,\"warmed\":200000,\
                    \"skipped\":50000,\"profiled\":0,\"extra_runs\":0,\"work_units\":111000},\
                    \"wall_ns\":4000000,\"shards\":{\"calls\":1,\"workers\":2,\"wall_ns\":[1,2],\
                    \"merge_wait_ns\":777},\"phases\":{\"measure\":{\"ns\":5,\"insts\":6,\"bytes\":0,\
                    \"count\":1},\"functional_warm\":{\"ns\":7,\"insts\":8,\"bytes\":0,\"count\":2}}}";
        let Line::Record(r) = parse_line(line).unwrap() else {
            panic!("record misparsed");
        };
        assert_eq!(r.bench, "gzip");
        assert_eq!(r.provenance, "shard");
        assert_eq!(r.cpi, 2.5);
        assert_eq!(r.cost, [90_000, 200_000, 50_000]);
        assert_eq!(r.merge_wait_ns, 777);
        assert_eq!(r.phase("functional_warm"), (7, 8));
        assert_eq!(r.phase("fast_forward"), (0, 0));
        assert_eq!(r.bytes, line.len());
    }

    #[test]
    fn submit_request_names_the_cross_product() {
        let req = submit_request(
            &["gzip", "mcf"],
            0.05,
            &["runz:z=1000".to_string()],
            &["table3:2"],
        );
        let j = Json::parse(&req).unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(j.get("stream"), Some(&Json::Bool(true)));
        let job = j.get("job").unwrap();
        assert_eq!(job.get("scale").and_then(Json::as_f64), Some(0.05));
        assert_eq!(
            job.get("benches"),
            Some(&Json::Arr(vec![
                Json::Str("gzip".into()),
                Json::Str("mcf".into())
            ]))
        );
    }
}
