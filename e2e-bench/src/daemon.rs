//! Building, starting and stopping the `simserve` daemon of the checkout
//! under test.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::wire;

/// Longest wait for the daemon to listen, or to exit after shutdown.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(60);

/// Build `simserve` from the checkout's own workspace (its release
/// profile) into the target directory this benchmark was built in, and
/// return the binary's path. A no-op when it is up to date.
pub fn build_simserve() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    // <target>/release/e2e-bench → <target>
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            manifest,
        ])
        .args(["-p", "sim-serve", "--bin", "simserve", "--target-dir"])
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building simserve failed ({status})"));
    }
    Ok(target.join("release").join("simserve"))
}

/// A running daemon. Dropping it kills the process if it is still alive,
/// so no exit path of the benchmark leaves it behind.
pub struct Daemon {
    child: Child,
    /// The ephemeral address it listens on.
    pub addr: SocketAddr,
    /// Spawn → `listening on` line.
    pub startup: Duration,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `simserve` on an ephemeral loopback port over `store`, with
    /// two workers, the default shard count for two workers, and
    /// checkpoints on, all set explicitly. Call it from a thread that
    /// outlives the daemon: the kernel kills the daemon when the thread
    /// that spawned it exits.
    pub fn start(bin: &Path, store: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--active",
            "2",
            "--store",
        ])
        .arg(store)
        .env("SIM_SHARDS", "2")
        .env("SIM_CHECKPOINTS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call (prctl), touching no
        // memory shared with the parent.
        unsafe {
            cmd.pre_exec(|| {
                // Take the daemon down with the benchmark even if the
                // benchmark itself is killed.
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Forward the daemon's stderr, handing each line to the waiter
        // until it has seen the listening line.
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                eprintln!("{line}");
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            startup: Duration::ZERO,
            log: Some(log),
        };
        loop {
            let left = DAEMON_TIMEOUT.saturating_sub(spawned.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = wire::parse_listening(&line) {
                        daemon.addr = addr;
                        daemon.startup = spawned.elapsed();
                        return Ok(daemon);
                    }
                }
                Err(_) => return Err("simserve exited or never printed its listening line".into()),
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain the daemon over the wire and wait for it to exit; returns the
    /// shutdown → exit time.
    pub fn stop(mut self) -> Result<Duration, String> {
        let asked = Instant::now();
        wire::shutdown(self.addr)?;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(asked.elapsed()),
                Ok(Some(status)) => return Err(format!("simserve exited with {status}")),
                Ok(None) if asked.elapsed() > DAEMON_TIMEOUT => {
                    return Err("simserve did not exit after shutdown".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait for simserve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Peak resident memory (`VmHWM`) of process `pid`, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kib * 1024.0 / 1e6)
}
