//! The daemon: TCP accept loop, connection handlers, scheduler threads,
//! and the per-job driver.
//!
//! ## Accept and shutdown
//!
//! The accept loop blocks in `accept`; nothing polls. A shutdown request
//! (the wire `shutdown` op, SIGINT/SIGTERM through [`signal::on_shutdown`],
//! or a [`ShutdownHandle`]) sets the server's flag and then connects to the
//! listener, so the blocked `accept` returns and the loop sees the flag.
//! Connections run on handler threads that are reused, the most recently
//! idle first: `active` of them start idle with the server, another is
//! spawned only when none is idle, and idle ones exit when the server
//! stops. At most [`ServerConfig::max_connections`]
//! connections are served at once; one more gets an error line from the
//! accept thread and is closed.
//!
//! ## Scheduling and budget donation
//!
//! The server owns one global `--jobs` worker budget ([`sim_exec::jobs`]).
//! Up to `active` jobs run concurrently, each on its own scheduler thread;
//! a job's driver executes its plan in *chunks* through
//! [`sim_exec::with_budget`], capping each chunk's fan-out at
//! `jobs / running_jobs` (at least 1). The share is recomputed at every
//! chunk boundary, so when a job finishes, the survivors pick up its
//! capacity at their next chunk — donation without work stealing.
//!
//! ## Per-job observability
//!
//! Each driver installs a fresh [`sim_obs::ledger::JobSink`] that the pool
//! propagates to its workers: records accumulate per job, get drained at
//! chunk boundaries (run-key sorted within each batch), and stream to the
//! submitting client. The daemon never calls `techniques::cache::clear_all`
//! or resets any process-global counter mid-flight — the process-wide
//! reuse tiers (run cache, checkpoints, store) are shared *read-mostly*
//! state whose results are deterministic, so concurrent jobs can only make
//! each other faster, never different.
//!
//! ## Chunk boundaries
//!
//! Cancellation (client `cancel`, or shutdown past `--drain-timeout`) is
//! honored between chunks: completed runs are already streamed and written
//! through to the store, unstarted runs never begin, and the store is left
//! consistent (`simstore verify` passes).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::proto::{self, Request};
use crate::queue::{Event, Job, Queue, Summary};
use crate::signal;

/// Daemon configuration (flag defaults in `simserve --help`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (printed at startup).
    pub addr: String,
    /// Global worker budget; 0 inherits `SIM_JOBS` / hardware default.
    pub jobs: usize,
    /// Concurrent jobs (scheduler threads).
    pub active: usize,
    /// Bounded admission-queue capacity.
    pub queue_cap: usize,
    /// How long shutdown waits for in-flight jobs before cancelling them.
    pub drain_timeout: Duration,
    /// Persistent artifact store directory (`--store`).
    pub store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: proto::DEFAULT_ADDR.to_string(),
            jobs: 0,
            active: 2,
            queue_cap: 64,
            drain_timeout: Duration::from_secs(30),
            store: None,
        }
    }
}

impl ServerConfig {
    /// Most connections served at once: one for each job the daemon can
    /// hold (queued or running) to stream on, and as many again for
    /// control connections.
    pub fn max_connections(&self) -> usize {
        2 * (self.queue_cap.max(1) + self.active.max(1))
    }
}

/// Stops a [`Server::run`]: the wire `shutdown` op, SIGINT/SIGTERM and
/// embedding callers all go through it.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    requested: Arc<AtomicBool>,
    /// Where a connection reaches the listener (loopback when it is bound
    /// to an unspecified address).
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Ask the server to stop, and wake its accept loop.
    pub fn shutdown(&self) {
        self.requested.store(true, Ordering::SeqCst);
        // A blocked accept returns only for a connection. Once the server
        // has stopped, the connect fails and there is nothing to wake.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running daemon (see [`Server::run`]).
pub struct Server {
    listener: TcpListener,
    queue: Arc<Queue>,
    cfg: ServerConfig,
    stop: ShutdownHandle,
}

impl Server {
    /// Bind the listener and install process-wide settings: the store,
    /// the `--jobs` budget, and span tracing (run records need run scopes
    /// and reuse provenance).
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        if let Some(dir) = &cfg.store {
            sim_store::install_global(dir)
                .map_err(|e| io::Error::new(e.kind(), format!("store {dir:?}: {e}")))?;
        }
        if cfg.jobs > 0 {
            sim_exec::set_jobs(cfg.jobs);
        }
        sim_obs::trace::set_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            listener,
            queue: Queue::new(cfg.queue_cap),
            cfg,
            stop: ShutdownHandle {
                requested: Arc::new(AtomicBool::new(false)),
                wake,
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The admission queue (tests drive it directly).
    pub fn queue(&self) -> Arc<Queue> {
        Arc::clone(&self.queue)
    }

    /// A handle that makes [`Server::run`] return.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.stop.clone()
    }

    /// Serve until shutdown (wire op, handle, or SIGINT/SIGTERM), then
    /// drain: close admission (queued jobs cancel immediately), wait up to
    /// `drain_timeout` for in-flight jobs, cancel stragglers, and flush
    /// the run ledger and the store.
    pub fn run(self) -> io::Result<()> {
        let stop = self.stop.clone();
        let _signals = signal::on_shutdown(move || stop.shutdown());
        let schedulers: Vec<_> = (0..self.cfg.active.max(1))
            .map(|i| {
                let queue = Arc::clone(&self.queue);
                std::thread::Builder::new()
                    .name(format!("sim-serve-sched-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.claim() {
                            let summary = drive(&job, &queue);
                            queue.finish(&job, summary);
                        }
                    })
                    .expect("scheduler thread spawns")
            })
            .collect();

        let handlers = Arc::new(Handlers {
            pool: Mutex::new(Pool::default()),
            queue: Arc::clone(&self.queue),
            stop: self.stop.clone(),
            max: self.cfg.max_connections(),
        });
        // One idle handler per job that can run at once, started before
        // any job. glibc gives each new thread a malloc arena, the one a
        // finished thread left free if there is one: a handler started
        // after a simulation worker has exited takes over that worker's
        // grown arena for good, and the next worker grows a new one
        // (e2e-bench serve-mix peak RSS +20%).
        for _ in 0..self.cfg.active.max(1) {
            handlers.spawn(None).expect("handler thread spawns");
        }
        let served = self.accept(&handlers);
        handlers.stop();

        // Drain: no new admissions, queued jobs cancel now, in-flight jobs
        // get drain_timeout to finish before they are cancelled too.
        self.queue.close();
        self.queue.wait_idle(self.cfg.drain_timeout);
        for job in self.queue.running() {
            job.request_cancel();
        }
        for h in schedulers {
            let _ = h.join();
        }
        let _ = sim_obs::ledger::flush();
        if let Some(store) = sim_store::global() {
            let _ = store.flush();
        }
        served
    }

    fn accept(&self, handlers: &Arc<Handlers>) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            // Once shutdown is requested this is the wake connection, or a
            // client that raced it; neither is served.
            if self.stop.requested() {
                return Ok(());
            }
            handlers.dispatch(stream);
        }
    }
}

/// The connection handler threads (see the module docs).
struct Handlers {
    pool: Mutex<Pool>,
    queue: Arc<Queue>,
    stop: ShutdownHandle,
    max: usize,
}

#[derive(Default)]
struct Pool {
    /// Idle handlers, most recently idle last; each blocks on its channel.
    idle: Vec<mpsc::Sender<TcpStream>>,
    /// Connections being served.
    live: usize,
    stopped: bool,
}

impl Handlers {
    fn lock(&self) -> MutexGuard<'_, Pool> {
        // Every update leaves the pool valid, so a poisoned one still is.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serve `stream` on the most recently idle handler, on a new one when
    /// none is idle, or refuse it when `max` connections are being served.
    fn dispatch(self: &Arc<Self>, stream: TcpStream) {
        let mut pool = self.lock();
        if pool.live >= self.max {
            drop(pool);
            let msg = format!("too many connections (at most {})", self.max);
            let _ = send(&stream, &proto::error_line(&msg));
            return;
        }
        pool.live += 1;
        if let Some(idle) = pool.idle.pop() {
            // A handler on the idle stack holds its receiver until it is
            // sent to or the stack is cleared.
            idle.send(stream)
                .expect("an idle handler waits on its channel");
            return;
        }
        drop(pool);
        if self.spawn(Some(stream)).is_err() {
            // The connection went down with the closure.
            self.lock().live -= 1;
        }
    }

    /// Start a handler thread that serves `first`, if any, and then waits
    /// idle for the next connection. It is never joined: a busy handler
    /// lives until its client hangs up, even past the server's stop.
    fn spawn(self: &Arc<Self>, first: Option<TcpStream>) -> io::Result<()> {
        let handlers = Arc::clone(self);
        std::thread::Builder::new()
            .name("sim-serve-conn".to_string())
            .spawn(move || handlers.serve(first))
            .map(drop)
    }

    /// A handler thread's life: serve connections until the server stops.
    fn serve(&self, mut next: Option<TcpStream>) {
        loop {
            // Allocated first, so a handler started idle takes its malloc
            // arena at once (see `Server::run`).
            let (tx, rx) = mpsc::channel();
            let served = next.take().inspect(|stream| {
                let _ = handle_conn(stream, &self.queue, &self.stop);
            });
            {
                let mut pool = self.lock();
                if served.is_some() {
                    pool.live -= 1;
                }
                if pool.stopped {
                    return;
                }
                pool.idle.push(tx);
            }
            // Closed only once idle: a client that hangs up and reconnects
            // at once then finds this handler free instead of spawning one.
            drop(served);
            match rx.recv() {
                Ok(stream) => next = Some(stream),
                Err(_) => return,
            }
        }
    }

    /// Idle handlers exit now (their channels close); busy ones exit when
    /// their client hangs up.
    fn stop(&self) {
        let mut pool = self.lock();
        pool.stopped = true;
        pool.idle.clear();
    }
}

/// Run items per chunk, as a multiple of the job's worker share: enough to
/// keep every worker busy, small enough that cancellation and donation
/// react within a couple of run items per worker.
const CHUNK_PER_WORKER: usize = 2;

/// Execute one claimed job: chunked fan-out under the job's budget share,
/// records drained and streamed at every chunk boundary. Returns the
/// job's terminal summary.
fn drive(job: &Arc<Job>, queue: &Queue) -> Summary {
    let start = Instant::now();
    let sink = sim_obs::ledger::JobSink::new();
    let prev = sim_obs::ledger::install_job_sink(Some(sink.clone()));
    let n = job.plan.len();
    let mut summary = Summary {
        state: "done",
        ..Summary::default()
    };
    let mut next = 0;
    while next < n {
        if job.cancel_requested() {
            summary.state = "cancelled";
            break;
        }
        let active = queue.running_count().max(1);
        let share = (sim_exec::jobs() / active).max(1);
        let end = (next + share * CHUNK_PER_WORKER).min(n);
        let idxs: Vec<usize> = (next..end).collect();
        let plan = &job.plan;
        let outcomes = sim_exec::with_budget(share, || {
            sim_exec::par_map(&idxs, |&k| plan.run(k).is_some())
        });
        summary.na += outcomes.iter().filter(|ran| !**ran).count() as u64;
        job.done_runs.fetch_add(idxs.len(), Ordering::Relaxed);
        stream_batch(job, &sink, &mut summary);
        next = end;
    }
    sim_obs::ledger::install_job_sink(prev);
    stream_batch(job, &sink, &mut summary);
    summary.wall_ms = start.elapsed().as_millis() as u64;
    summary
}

/// Drain the job sink and forward one batch to the client, folding each
/// record into the job summary (store/cache hits are read off the reuse
/// provenance the runner recorded).
fn stream_batch(job: &Job, sink: &sim_obs::ledger::JobSink, summary: &mut Summary) {
    let recs = sink.drain_sorted();
    if recs.is_empty() {
        return;
    }
    let mut lines = Vec::with_capacity(recs.len());
    for r in &recs {
        summary.records += 1;
        summary.work_units += r.work_units;
        match r.provenance {
            "store-restore" => summary.store_hits += 1,
            "cache" => summary.cache_hits += 1,
            _ => summary.computed += 1,
        }
        lines.push(r.to_json_line());
    }
    job.push_records(lines);
}

fn send(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// The status control line: every known job (or just `id`), in id order.
fn status_line(queue: &Queue, id: Option<u64>) -> String {
    let rows = queue.snapshot();
    let mut line = String::from("{\"serve\":\"status\",\"ok\":true,\"jobs\":[");
    let mut first = true;
    for r in rows {
        if id.is_some_and(|want| want != r.id) {
            continue;
        }
        if !first {
            line.push(',');
        }
        first = false;
        line.push_str(&format!(
            "{{\"id\":{},\"state\":\"{}\",\"priority\":{},\"runs\":{},\"done\":{}}}",
            r.id,
            r.state.name(),
            r.priority,
            r.runs,
            r.done
        ));
    }
    line.push_str("]}");
    line
}

/// Longest request line the daemon reads, in bytes, newline excluded. Job
/// descriptions take a few hundred bytes; a longer line gets an error line
/// and the connection is closed without reading the rest of it.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Read one request line of at most [`MAX_REQUEST_BYTES`] into `buf`
/// (line terminator stripped). `Ok(false)` at end of stream.
fn read_request(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    if reader.take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
        ));
    }
    Ok(true)
}

/// Serve one client connection until it closes (or a write fails — a gone
/// client never cancels its job; results still land in the store).
fn handle_conn(stream: &TcpStream, queue: &Queue, stop: &ShutdownHandle) -> io::Result<()> {
    // Control lines and record batches are small writes; without nodelay,
    // Nagle + delayed ACK stall each round-trip by tens of milliseconds.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        match read_request(&mut reader, &mut buf) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // The rest of an oversized line is never read: answer and
                // hang up.
                return send(stream, &proto::error_line(&e.to_string()));
            }
            Err(e) => return Err(e),
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            send(stream, &proto::error_line("request is not UTF-8"))?;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match proto::parse_request(line) {
            Err(e) => send(stream, &proto::error_line(&e))?,
            Ok(Request::Ping) => send(stream, &proto::pong_line())?,
            Ok(Request::Shutdown) => {
                send(stream, &proto::ok_line())?;
                stop.shutdown();
            }
            Ok(Request::Cancel { id }) => match queue.cancel(id) {
                Ok(detail) => send(
                    stream,
                    &format!(
                        "{{\"serve\":\"ok\",\"ok\":true,\"detail\":\"{}\"}}",
                        sim_obs::json::escape(detail)
                    ),
                )?,
                Err(e) => send(stream, &proto::error_line(&e))?,
            },
            Ok(Request::Status { id }) => send(stream, &status_line(queue, id))?,
            Ok(Request::Submit { job, stream: want }) => match queue.submit(job) {
                Err(e) => send(stream, &proto::error_line(&e))?,
                Ok(job) => {
                    send(stream, &proto::ack_line(job.id, job.plan.len()))?;
                    if want {
                        loop {
                            match job.next_event(Duration::from_millis(250)) {
                                Some(Event::Records(lines)) => {
                                    for l in &lines {
                                        send(stream, l)?;
                                    }
                                }
                                Some(Event::Finished(summary)) => {
                                    send(stream, &summary.done_line(job.id))?;
                                    break;
                                }
                                None => {}
                            }
                        }
                    }
                }
            },
        }
    }
    Ok(())
}
