//! End-to-end service tests: an in-process `simserve` on a loopback port,
//! driven through the real wire protocol by [`sim_serve::Client`].
//!
//! These cover the service-layer acceptance points: streamed submits
//! produce valid schema-v1 ledger records, resubmission dedupes while
//! still reporting the full modeled cost, both cancellation phases
//! (queued jobs never start; in-flight jobs stop at a chunk boundary)
//! leave the store consistent, and two interleaved jobs stream exactly
//! the per-job ledgers a sequential run produces.
//!
//! The daemon installs process-wide state (store, worker budget, span
//! tracing), so every test serializes on one lock and all servers share
//! one store directory — which also mirrors production: one long-lived
//! store, many daemon lifetimes.

use sim_obs::json::Json;
use sim_serve::proto::{JobDesc, Request};
use sim_serve::{Client, Server, ServerConfig, ShutdownHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn store_dir() -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let d = std::env::temp_dir().join(format!("sim-serve-it-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    })
    .clone()
}

struct Daemon {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn config(active: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        active,
        queue_cap: 8,
        drain_timeout: Duration::from_secs(10),
        store: Some(store_dir()),
    }
}

fn start(active: usize) -> Daemon {
    let server = Server::bind(config(active)).expect("daemon binds a loopback port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        shutdown,
        handle,
    }
}

impl Daemon {
    fn client(&self) -> Client {
        Client::connect(&self.addr.to_string()).expect("client connects")
    }

    /// Graceful stop via the shutdown handle (the wire op's path), then
    /// check the drained server exited cleanly and the store verifies.
    fn stop(self) {
        self.shutdown.shutdown();
        self.handle
            .join()
            .expect("server thread joins")
            .expect("server drains cleanly");
        let store = sim_store::global().expect("store installed");
        let report = store.verify().expect("store verify runs");
        assert!(report.clean(), "store inconsistent: {report:?}");
    }
}

fn job(benches: &[&str], specs: &[&str]) -> JobDesc {
    JobDesc {
        benches: benches.iter().map(|s| s.to_string()).collect(),
        scale: 0.05,
        specs: specs.iter().map(|s| s.to_string()).collect(),
        configs: vec!["default".to_string()],
        priority: 0,
    }
}

/// The deterministic projection of a ledger record: everything except
/// wall time, reuse provenance, and the phase/shard footprints — the same
/// idiom `tests/obs_determinism.rs` uses for run-to-run comparison.
fn canon(line: &str) -> String {
    let j = Json::parse(line).expect("record line parses as JSON");
    let s = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let n = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .map(|v| format!("{v}"))
            .unwrap_or_default()
    };
    let cost = j.get("cost").expect("record has a cost object");
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
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
    )
}

/// Parse a `{"serve":"status",...}` line into `(id, state, done)` rows.
fn status_rows(line: &str) -> Vec<(u64, String, u64)> {
    let j = Json::parse(line).expect("status line parses");
    let Some(Json::Arr(jobs)) = j.get("jobs") else {
        panic!("status line without jobs array: {line}");
    };
    jobs.iter()
        .map(|row| {
            (
                row.get("id").and_then(Json::as_u64).expect("job id"),
                row.get("state")
                    .and_then(Json::as_str)
                    .expect("job state")
                    .to_string(),
                row.get("done").and_then(Json::as_u64).expect("done count"),
            )
        })
        .collect()
}

fn wait_for_state(client: &mut Client, id: u64, want: &[&str]) -> (String, u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let line = client.status(Some(id)).expect("status roundtrip");
        if let Some((_, state, done)) = status_rows(&line).into_iter().find(|(i, _, _)| *i == id) {
            if want.contains(&state.as_str()) {
                return (state, done);
            }
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {want:?}: {line}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn streamed_submit_yields_valid_records_and_resubmission_dedupes() {
    let _g = lock();
    let d = start(2);
    let mut client = d.client();
    let desc = job(&["gzip", "mcf"], &["runz:z=50k", "ffrun:x=20k,z=30k"]);

    let mut first = Vec::new();
    let out1 = client
        .submit_streaming(&desc, |line| first.push(line.to_string()))
        .expect("first submit streams");
    assert_eq!(out1.state, "done");
    assert_eq!(out1.runs, 4, "2 benches x 2 specs");
    assert_eq!(out1.records as usize, first.len());
    assert_eq!(out1.records, 4);
    for line in &first {
        let j = Json::parse(line).expect("ledger record parses");
        for key in sim_obs::ledger::REQUIRED_KEYS {
            assert!(j.get(key).is_some(), "record missing {key:?}: {line}");
        }
        assert!(
            j.get("serve").is_none(),
            "record lines must not carry the control key"
        );
    }

    // Resubmission: every run is a reuse hit (memory cache in-process,
    // store across restarts), short-circuiting the simulation but still
    // reporting the full modeled cost and identical deterministic fields.
    let mut second = Vec::new();
    let out2 = client
        .submit_streaming(&desc, |line| second.push(line.to_string()))
        .expect("resubmit streams");
    assert_eq!(out2.state, "done");
    assert_eq!(out2.records, out1.records);
    assert_eq!(
        out2.store_hits + parse_cache_hits(&out2.done_line),
        out2.records,
        "resubmission must be served entirely from reuse tiers: {}",
        out2.done_line
    );
    let mut canon1: Vec<String> = first.iter().map(|l| canon(l)).collect();
    let mut canon2: Vec<String> = second.iter().map(|l| canon(l)).collect();
    canon1.sort();
    canon2.sort();
    assert_eq!(canon1, canon2, "dedupe changed the reported results");

    let work = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("work_units")
            .and_then(Json::as_f64)
            .expect("done line has work_units")
    };
    let (w1, w2) = (work(&out1.done_line), work(&out2.done_line));
    assert!(
        (w1 - w2).abs() < 1e-9 * w1.max(1.0),
        "reuse hits must charge the full stored cost: {w1} vs {w2}"
    );
    d.stop();
}

fn parse_cache_hits(done_line: &str) -> u64 {
    Json::parse(done_line)
        .unwrap()
        .get("cache_hits")
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn cancelling_a_queued_job_never_starts_it() {
    let _g = lock();
    let d = start(1); // one scheduler slot: the second job must queue
    let mut client = d.client();

    // A long job occupies the only slot (many run items — the scheduler
    // stays busy for the whole plan, not just one simulation)...
    let ack = client
        .roundtrip(&Request::Submit {
            job: job(&["all"], &["runz:z=2900k", "runz:z=3100k"]),
            stream: false,
        })
        .expect("long job admitted");
    let long_id = Json::parse(&ack)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .expect("ack id");

    // ...so this one parks in the queue and cancels before it starts.
    let ack = client
        .roundtrip(&Request::Submit {
            job: job(&["mcf"], &["runz:z=31k"]),
            stream: false,
        })
        .expect("queued job admitted");
    let queued_id = Json::parse(&ack)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .expect("ack id");
    let detail = client.cancel(queued_id).expect("cancel queued job");
    assert!(
        detail.contains("cancelled before start"),
        "unexpected cancel detail: {detail}"
    );
    let (state, done) = wait_for_state(&mut client, queued_id, &["cancelled"]);
    assert_eq!(
        (state.as_str(), done),
        ("cancelled", 0),
        "job must never run"
    );
    assert!(
        client.cancel(queued_id).is_err(),
        "terminal jobs cannot be re-cancelled"
    );

    // The long job is unaffected: let it finish, then verify the store.
    let (state, _) = wait_for_state(&mut client, long_id, &["done"]);
    assert_eq!(state, "done");
    d.stop();
}

#[test]
fn cancelling_an_inflight_job_stops_at_a_chunk_boundary() {
    let _g = lock();
    let d = start(1);

    // 12 run items with spec values no other test uses, so every item is
    // a real simulation (no reuse hit) and the job runs long enough to
    // cancel mid-flight.
    let specs = [
        "runz:z=1100k",
        "runz:z=1200k",
        "runz:z=1300k",
        "runz:z=1400k",
        "runz:z=1500k",
        "runz:z=1600k",
    ];
    let desc = job(&["gzip", "mcf"], &specs);

    let addr = d.addr.to_string();
    let streamer = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("streamer connects");
        let mut records = Vec::new();
        let out = client
            .submit_streaming(&desc, |line| records.push(line.to_string()))
            .expect("streamed submit");
        (out, records)
    });

    // Wait until the driver claims the job, then cancel over the wire.
    let mut client = d.client();
    let deadline = Instant::now() + Duration::from_secs(120);
    let id = loop {
        let rows = status_rows(&client.status(None).expect("status"));
        if let Some((id, _, _)) = rows.iter().find(|(_, s, _)| s == "running") {
            break *id;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(1));
    };
    let detail = client.cancel(id).expect("cancel in-flight job");
    assert!(
        detail.contains("chunk boundary"),
        "unexpected cancel detail: {detail}"
    );

    let (out, records) = streamer.join().expect("streamer joins");
    assert_eq!(out.state, "cancelled");
    assert!(
        out.records < out.runs,
        "cancellation must leave unstarted runs unstarted ({} of {} ran)",
        out.records,
        out.runs
    );
    assert_eq!(out.records as usize, records.len());
    // Completed runs were streamed and written through before the stop;
    // Daemon::stop re-verifies the store below.
    d.stop();
}

#[test]
fn interleaved_jobs_stream_the_same_ledgers_as_sequential() {
    let _g = lock();
    let d = start(2); // two scheduler slots: jobs genuinely overlap

    // Disjoint jobs (different benches) so per-job ledgers are comparable
    // record-for-record regardless of scheduling order.
    let desc_a = job(&["gzip"], &["runz:z=210k", "runz:z=220k", "runz:z=230k"]);
    let desc_b = job(&["mcf"], &["runz:z=240k", "runz:z=250k", "runz:z=260k"]);

    let run_one = |addr: String, desc: JobDesc, barrier: Option<Arc<Barrier>>| {
        let mut client = Client::connect(&addr).expect("client connects");
        if let Some(b) = &barrier {
            b.wait();
        }
        let mut records = Vec::new();
        let out = client
            .submit_streaming(&desc, |line| records.push(line.to_string()))
            .expect("submit streams");
        assert_eq!(out.state, "done");
        let mut canon: Vec<String> = records.iter().map(|l| canon(l)).collect();
        canon.sort();
        canon
    };

    // Sequential baseline: one after the other.
    let seq_a = run_one(d.addr.to_string(), desc_a.clone(), None);
    let seq_b = run_one(d.addr.to_string(), desc_b.clone(), None);
    assert_eq!(seq_a.len(), 3);
    assert_eq!(seq_b.len(), 3);

    // Interleaved: both submitted at once, racing on the shared budget.
    let barrier = Arc::new(Barrier::new(2));
    let (addr_a, addr_b) = (d.addr.to_string(), d.addr.to_string());
    let (ba, bb) = (Arc::clone(&barrier), Arc::clone(&barrier));
    let (db2, da2) = (desc_b.clone(), desc_a.clone());
    let ta = std::thread::spawn(move || run_one(addr_a, da2, Some(ba)));
    let tb = std::thread::spawn(move || run_one(addr_b, db2, Some(bb)));
    let inter_a = ta.join().expect("job A thread");
    let inter_b = tb.join().expect("job B thread");

    // Same per-job ledgers, and no cross-job leakage in either direction.
    assert_eq!(seq_a, inter_a, "job A's ledger changed under interleaving");
    assert_eq!(seq_b, inter_b, "job B's ledger changed under interleaving");
    assert!(
        inter_a.iter().all(|r| r.starts_with("gzip|")),
        "job A streamed a record that is not its own"
    );
    assert!(
        inter_b.iter().all(|r| r.starts_with("mcf|")),
        "job B streamed a record that is not its own"
    );
    d.stop();
}

/// Send raw bytes on a fresh connection and return the first response line
/// (empty if the daemon closed or reset the connection first).
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("raw connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The daemon may hang up mid-write; that is one of the two allowed
    // outcomes, so write errors are not failures.
    let _ = conn.write_all(bytes);
    let mut line = String::new();
    let _ = BufReader::new(conn).read_line(&mut line);
    line
}

#[test]
fn oversized_request_line_is_refused_and_the_daemon_survives() {
    let _g = lock();
    let d = start(1);
    let mut hostile = vec![b'x'; sim_serve::server::MAX_REQUEST_BYTES + 2];
    hostile.push(b'\n');
    let reply = raw_request(d.addr, &hostile);
    assert!(
        reply.is_empty() || reply.contains("\"serve\":\"error\""),
        "oversized line must get an error line or a closed connection: {reply:?}"
    );
    d.client().ping().expect("daemon still answers ping");
    d.stop();
}

#[test]
fn deeply_nested_request_is_refused_and_the_daemon_survives() {
    let _g = lock();
    let d = start(1);
    let mut hostile = b"{\"op\":".to_vec();
    hostile.extend(std::iter::repeat_n(b'[', 500_000));
    hostile.push(b'\n');
    let reply = raw_request(d.addr, &hostile);
    assert!(
        reply.is_empty() || reply.contains("\"serve\":\"error\""),
        "deep nesting must get an error line or a closed connection: {reply:?}"
    );
    assert!(
        reply.contains("nesting"),
        "refused by the depth cap: {reply:?}"
    );
    d.client().ping().expect("daemon still answers ping");
    d.stop();
}

#[test]
fn a_degenerate_spec_is_refused_and_the_next_job_still_runs() {
    let _g = lock();
    // One scheduler thread: before specs failed closed, the bad job's
    // runner assertion killed it and every later job waited forever.
    let d = start(1);
    let mut client = d.client();
    let bad = job(&["gzip"], &["smarts:u=0,w=0"]);
    let err = client
        .submit_streaming(&bad, |_| {})
        .expect_err("a zero sampling unit is refused at submit");
    assert!(err.contains("u > 0"), "{err}");
    let good = job(&["gzip"], &["runz:z=5k"]);
    let out = client
        .submit_streaming(&good, |_| {})
        .expect("the next job is admitted and completes");
    assert_eq!(out.state, "done");
    assert_eq!(out.records, 1);
    d.stop();
}

#[test]
fn fresh_connections_are_served_without_a_poll_delay() {
    let _g = lock();
    let d = start(1);
    // Twenty connects in a closed loop, as `simctl` makes them: a polling
    // accept loop adds its sleep to every one.
    let t = Instant::now();
    for _ in 0..20 {
        d.client().ping().expect("ping on a fresh connection");
    }
    let took = t.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "20 fresh-connection pings took {took:?}"
    );
    d.stop();
}

#[test]
fn shutdown_handle_stops_a_daemon_that_never_had_a_client() {
    let _g = lock();
    let d = start(1);
    let t = Instant::now();
    d.shutdown.shutdown();
    d.handle
        .join()
        .expect("server thread joins")
        .expect("server drains cleanly");
    let took = t.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "an idle daemon took {took:?} to stop"
    );
}

#[test]
fn connections_past_the_cap_are_refused_and_the_daemon_recovers() {
    let _g = lock();
    let d = start(1);
    let cap = config(1).max_connections();
    // A ping answered on each held connection means a handler serves it.
    let held: Vec<Client> = (0..cap)
        .map(|i| {
            let mut c = d.client();
            c.ping()
                .unwrap_or_else(|e| panic!("connection {i} of {cap} refused: {e}"));
            c
        })
        .collect();
    let reply = raw_request(d.addr, b"");
    assert!(
        reply.contains("\"serve\":\"error\"") && reply.contains("too many connections"),
        "connection {} of {cap} must be refused: {reply:?}",
        cap + 1
    );

    // Each handler frees its slot when it reads its client's hang-up, so
    // the first connects after the close may still be refused.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        let mut c = d.client();
        if c.ping().is_ok() {
            break c;
        }
        assert!(Instant::now() < deadline, "no connection slot came free");
        std::thread::sleep(Duration::from_millis(1));
    };
    let out = client
        .submit_streaming(&job(&["gzip"], &["runz:z=6k"]), |_| {})
        .expect("a job runs after the held connections close");
    assert_eq!((out.state.as_str(), out.records), ("done", 1));
    d.stop();
}
