//! SIGTERM stops an in-process daemon. This is its own test binary: the
//! signal sets a process-wide flag that would stop every later server in
//! the same process.

use sim_serve::{Client, Server, ServerConfig};
use std::sync::mpsc;
use std::time::Duration;

const SIGTERM: i32 = 15;

extern "C" {
    fn raise(sig: i32) -> i32;
}

#[test]
fn sigterm_drains_a_running_daemon() {
    // Handlers first: SIGTERM's default action would end the test process.
    sim_serve::signal::install();
    let store = std::env::temp_dir().join(format!("sim-serve-sig-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        active: 1,
        queue_cap: 4,
        drain_timeout: Duration::from_secs(10),
        store: Some(store.clone()),
    })
    .expect("daemon binds a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let (done, returned) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let result = server.run();
        let _ = done.send(());
        result
    });
    // An answered ping means the accept loop is running.
    Client::connect(&addr)
        .expect("client connects")
        .ping()
        .expect("daemon answers ping");

    // SAFETY: `raise` has no preconditions; the handler installed above
    // only writes one byte to its self-pipe.
    assert_eq!(unsafe { raise(SIGTERM) }, 0, "raise(SIGTERM)");
    returned
        .recv_timeout(Duration::from_secs(10))
        .expect("run returns within 10 s of SIGTERM");
    daemon
        .join()
        .expect("server thread joins")
        .expect("server drains cleanly after SIGTERM");
    assert!(sim_serve::signal::shutdown_requested());
    let report = sim_store::global()
        .expect("store installed")
        .verify()
        .expect("store verify runs");
    assert!(report.clean(), "store inconsistent: {report:?}");
    let _ = std::fs::remove_dir_all(&store);
}
