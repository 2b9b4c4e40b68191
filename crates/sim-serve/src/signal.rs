//! Dependency-free SIGINT/SIGTERM handling (std links libc on every
//! supported platform, so the C `signal` and `write` entry points are
//! already there).
//!
//! A signal handler may do almost nothing, and glibc's `signal()` installs
//! restarting handlers, so a signal alone never unblocks a thread sitting
//! in `accept` or `read`. The handler therefore writes one byte to a
//! self-pipe and returns. One watcher thread blocks on the other end; when
//! the byte arrives it sets the process-wide shutdown flag and runs every
//! registered waiter ([`on_shutdown`]). Two kinds of waiter exist:
//!
//! - the `simserve` accept loop ([`crate::server`]), whose waiter connects
//!   to the listener so the blocked `accept` returns and the daemon drains:
//!   stop admitting, drain or cancel in-flight jobs, flush the store and
//!   every ledger;
//! - the harness *flush guard* ([`install_flush_guard`]), which the long
//!   fig harnesses arm so a ctrl-c mid-sweep still flushes the
//!   `--trace-out` ledger and the `--store` write-behind queue before the
//!   process exits with the conventional 130.

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();
static GUARD: Once = Once::new();

type Waiter = Arc<dyn Fn() + Send + Sync>;

/// Registered waiters.
static WAITERS: Mutex<Vec<Waiter>> = Mutex::new(Vec::new());

#[cfg(unix)]
mod sys {
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        #[cfg_attr(
            any(target_os = "linux", target_os = "android"),
            link_name = "__errno_location"
        )]
        #[cfg_attr(
            not(any(target_os = "linux", target_os = "android")),
            link_name = "__error"
        )]
        fn errno_location() -> *mut i32;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Write end of the self-pipe; -1 until [`install`] has made it.
    static PIPE: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(_sig: i32) {
        let fd = PIPE.load(Ordering::Acquire);
        if fd < 0 {
            return;
        }
        let byte = 1u8;
        // SAFETY: `write` and reading/writing the calling thread's errno
        // are async-signal-safe. `fd` is the nonblocking write end that
        // `install` leaked for the life of the process, and `byte` outlives
        // the call. A full pipe (EAGAIN) is fine: the watcher already has
        // a byte to read. errno is restored so the interrupted code never
        // sees the handler's.
        unsafe {
            let errno = errno_location();
            let saved = *errno;
            write(fd, &byte, 1);
            *errno = saved;
        }
    }

    /// Make the self-pipe and install the handlers; returns the read end
    /// for the watcher.
    pub fn install() -> Option<UnixStream> {
        let (rx, tx) = UnixStream::pair().ok()?;
        tx.set_nonblocking(true).ok()?;
        PIPE.store(tx.into_raw_fd(), Ordering::Release);
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `on_signal` has the C handler signature and only makes
        // async-signal-safe calls.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        Some(rx)
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install() -> Option<std::io::Empty> {
        None
    }
}

/// Install the SIGINT/SIGTERM handlers and start the watcher thread
/// (idempotent). A process that must survive a signal arriving before any
/// waiter registers calls this first.
pub fn install() {
    INSTALL.call_once(|| {
        let Some(pipe) = sys::install() else {
            return;
        };
        // The watcher lives as long as the process: the write end it reads
        // from is never closed, so it is never joined.
        std::thread::Builder::new()
            .name("sim-signal-watch".to_string())
            .spawn(move || watch(pipe))
            .expect("signal watcher thread spawns");
    });
}

/// The watcher: each byte is a delivered signal. Set the flag, then run
/// every waiter outside the registry lock (a waiter may block briefly).
fn watch(mut pipe: impl Read) {
    let mut byte = [0u8; 1];
    loop {
        match pipe.read(&mut byte) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        SHUTDOWN.store(true, Ordering::SeqCst);
        let waiters: Vec<Waiter> = lock_waiters().clone();
        for wake in waiters {
            wake();
        }
    }
}

fn lock_waiters() -> std::sync::MutexGuard<'static, Vec<Waiter>> {
    // Every update is a single push or retain, so a poisoned registry is
    // still a valid one.
    WAITERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a shutdown signal has arrived (installs handlers on first use).
pub fn shutdown_requested() -> bool {
    install();
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Register `wake`. A signal that arrived before the registration runs
/// `wake` at once: either the watcher's snapshot sees the new entry, or
/// this load sees its flag.
fn register(wake: Waiter) {
    install();
    lock_waiters().push(Arc::clone(&wake));
    if SHUTDOWN.load(Ordering::SeqCst) {
        wake();
    }
}

/// A registered shutdown waiter; dropping it unregisters the waiter.
#[must_use = "dropping the registration unregisters the waiter"]
pub struct Registration(Waiter);

impl Drop for Registration {
    fn drop(&mut self) {
        lock_waiters().retain(|w| !Arc::ptr_eq(w, &self.0));
    }
}

/// Run `wake` on the watcher thread when SIGINT or SIGTERM arrives (at
/// once if one already has), for as long as the returned registration
/// lives. Installs the handlers on first use.
pub fn on_shutdown(wake: impl Fn() + Send + Sync + 'static) -> Registration {
    let wake: Waiter = Arc::new(wake);
    register(Arc::clone(&wake));
    Registration(wake)
}

/// Arm the harness flush guard (idempotent): on SIGINT/SIGTERM the watcher
/// flushes the run ledger and the persistent store, notes it on stderr,
/// and exits 130. Long `--trace-out`/`--store` runs install this so an
/// interrupted sweep keeps every record and artifact completed so far
/// instead of dropping the buffered tail.
pub fn install_flush_guard() {
    GUARD.call_once(|| {
        register(Arc::new(|| {
            let _ = sim_obs::ledger::flush();
            if let Some(store) = sim_store::global() {
                let _ = store.flush();
            }
            eprintln!("interrupted: run ledger and store flushed");
            std::process::exit(130);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registrations_come_and_go_without_a_signal() {
        let count = |r: &Waiter| lock_waiters().iter().filter(|w| Arc::ptr_eq(w, r)).count();
        let a = on_shutdown(|| panic!("no signal was sent"));
        let b = on_shutdown(|| panic!("no signal was sent"));
        assert_eq!((count(&a.0), count(&b.0)), (1, 1));
        let gone = Arc::clone(&a.0);
        drop(a);
        assert_eq!((count(&gone), count(&b.0)), (0, 1));
        assert!(!shutdown_requested());
    }
}
