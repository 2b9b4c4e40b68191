//! Cross-process persistence: a second harness invocation sharing a
//! `SIM_STORE` directory must produce byte-identical reports while serving
//! its runs from the store, and any damage to the store must degrade to a
//! cold recompute — never to different numbers.
//!
//! These tests drive the real `fig2` binary (`CARGO_BIN_EXE_fig2`) as a
//! subprocess because the store's process-global installation
//! (`sim_store::install_global`) is once-per-process by design.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch store directory per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simtech-store-persist-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `fig2 --bench gzip --scale 0.05 --jobs <jobs> --metrics` against
/// `store_dir`, returning (stdout, stderr).
fn run_fig2(store_dir: &Path, jobs: &str) -> (String, String) {
    run_harness(env!("CARGO_BIN_EXE_fig2"), store_dir, jobs, "1")
}

/// Run a harness binary with explicit `--jobs` and `SIM_SHARDS` counts.
fn run_harness(bin: &str, store_dir: &Path, jobs: &str, shards: &str) -> (String, String) {
    let out = Command::new(bin)
        .args([
            "--bench",
            "gzip",
            "--scale",
            "0.05",
            "--jobs",
            jobs,
            "--metrics",
        ])
        .env("SIM_STORE", store_dir)
        .env("SIM_SHARDS", shards)
        .output()
        .expect("harness spawns");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("report is UTF-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pull `name = value` out of the `--metrics` registry dump on stderr.
fn metric(stderr: &str, name: &str) -> u64 {
    let needle = format!(" {name} = ");
    stderr
        .lines()
        .find_map(|l| l.find(&needle).map(|at| l[at + needle.len()..].trim()))
        .unwrap_or("0")
        .parse()
        .unwrap_or(0)
}

/// XOR one byte inside every segment file (late in the file, so it lands in
/// some record's payload rather than the header).
fn flip_segment_bytes(dir: &Path) -> usize {
    let mut touched = 0;
    for entry in std::fs::read_dir(dir).expect("store dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "seg") {
            let mut bytes = std::fs::read(&path).unwrap();
            let at = bytes.len() - 1;
            bytes[at] ^= 0x55;
            std::fs::write(&path, bytes).unwrap();
            touched += 1;
        }
    }
    touched
}

/// Rewrite every segment's format-version field to a future version.
fn bump_segment_versions(dir: &Path) -> usize {
    let mut touched = 0;
    for entry in std::fs::read_dir(dir).expect("store dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "seg") {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&(sim_store::FORMAT_VERSION + 1).to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            touched += 1;
        }
    }
    touched
}

#[test]
fn warm_store_rerun_is_byte_identical_and_mostly_hits() {
    let dir = scratch("warm");
    let (cold_out, cold_err) = run_fig2(&dir, "2");
    assert!(
        metric(&cold_err, "store.write") > 0,
        "the cold run persisted artifacts:\n{cold_err}"
    );

    // A different --jobs count exercises the any-parallelism guarantee.
    let (warm_out, warm_err) = run_fig2(&dir, "3");
    assert_eq!(
        cold_out, warm_out,
        "warm-store rerun must be byte-identical"
    );

    let hits = metric(&warm_err, "store.hit");
    let misses = metric(&warm_err, "store.miss");
    assert!(hits > 0, "warm run served from the store:\n{warm_err}");
    assert!(
        hits * 10 >= (hits + misses) * 9,
        "expected >=90% store hits, got {hits} hits / {misses} misses"
    );
}

/// Stores filled by older builds also hold records of two retired
/// checkpoint tiers (`warm/v2` machine checkpoints, `prefix/v1` prefix
/// traces). Nothing reads those namespaces any more: a rerun over such a
/// store must print the same report, still serve its runs from the store,
/// and leave the store verifying clean.
#[test]
fn retired_tier_records_are_ignored_by_a_rerun() {
    let dir = scratch("retired");
    let (cold_out, _) = run_fig2(&dir, "2");

    let store = sim_store::Store::open(&dir).unwrap();
    for (ns, n) in [("warm/v2", 3u8), ("prefix/v1", 2)] {
        for i in 0..n {
            let key = sim_store::Key::of(&[ns.as_bytes(), &[i]].concat());
            store.put(ns, key, vec![0xa5; 64 + usize::from(i)]);
        }
    }
    store.flush().unwrap();
    drop(store);

    let (out, err) = run_fig2(&dir, "3");
    assert_eq!(cold_out, out, "retired records must not change the report");
    let hits = metric(&err, "store.hit");
    let misses = metric(&err, "store.miss");
    assert!(
        hits * 10 >= (hits + misses) * 9 && hits > 0,
        "expected >=90% store hits, got {hits} hits / {misses} misses"
    );

    let store = sim_store::Store::open(&dir).unwrap();
    let report = store.verify().unwrap();
    assert!(
        report.clean(),
        "store verifies clean: {:?}",
        report.problems
    );
    let by_ns = store.stat().unwrap().by_ns;
    assert_eq!(by_ns.get("warm/v2").map(|e| e.0), Some(3), "{by_ns:?}");
    assert_eq!(by_ns.get("prefix/v1").map(|e| e.0), Some(2), "{by_ns:?}");
}

/// Sharding composes with the persistent store: a store populated by a
/// serial run serves a sharded rerun byte-identically, and a store
/// populated by a *sharded* run serves a serial rerun the same way — the
/// artifacts carry no trace of the shard count that produced them.
///
/// Drives `fig5` rather than `fig2`: fig5 fans out over 10 technique specs,
/// so `--jobs 20` leaves each pool worker spare budget and the shard
/// scheduler genuinely engages (fig2's runs all sit inside the 44-row PB
/// fan-out, which saturates any reasonable jobs count).
#[test]
fn shard_counts_and_the_store_compose_byte_identically() {
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    let dir = scratch("shards");
    let (serial_out, _) = run_harness(fig5, &dir, "2", "1");

    let (sharded_warm, warm_err) = run_harness(fig5, &dir, "20", "3");
    assert_eq!(
        serial_out, sharded_warm,
        "warm-store sharded rerun must be byte-identical"
    );
    assert!(
        metric(&warm_err, "store.hit") > 0,
        "sharded rerun served from the store:\n{warm_err}"
    );

    let fresh = scratch("shards-cold");
    let (sharded_cold, cold_err) = run_harness(fig5, &fresh, "20", "3");
    assert_eq!(
        serial_out, sharded_cold,
        "cold sharded run must match the serial report"
    );
    assert!(
        metric(&cold_err, "shard.count") > 0,
        "cold sharded run actually sharded:\n{cold_err}"
    );
    let (serial_warm, _) = run_harness(fig5, &fresh, "2", "1");
    assert_eq!(
        serial_out, serial_warm,
        "serial rerun from a shard-populated store must be byte-identical"
    );
}

#[test]
fn corrupted_store_falls_back_without_changing_output() {
    let dir = scratch("corrupt");
    let (cold_out, _) = run_fig2(&dir, "2");
    assert!(flip_segment_bytes(&dir) > 0, "segments were written");

    // The damage is visible to verification...
    let report = sim_store::Store::open(&dir).unwrap().verify().unwrap();
    assert!(!report.clean(), "flipped byte must fail verification");

    // ...but a rerun silently recomputes what it cannot trust.
    let (out, err) = run_fig2(&dir, "2");
    assert_eq!(cold_out, out, "corruption must never change the report");
    assert!(
        metric(&err, "store.corrupt") > 0 || metric(&err, "store.miss") > 0,
        "damage surfaces as corruption or misses:\n{err}"
    );

    // GC drops the damaged records; the store verifies clean afterwards.
    let store = sim_store::Store::open(&dir).unwrap();
    store.gc(u64::MAX).unwrap();
    assert!(store.verify().unwrap().clean(), "gc leaves a clean store");
}

#[test]
fn future_format_version_is_rejected_wholesale() {
    let dir = scratch("version");
    let (cold_out, _) = run_fig2(&dir, "2");
    assert!(bump_segment_versions(&dir) > 0, "segments were written");

    let store = sim_store::Store::open(&dir).unwrap();
    assert_eq!(
        store.stat().unwrap().entries,
        0,
        "future-version segments are foreign, not misread"
    );
    drop(store);

    let (out, err) = run_fig2(&dir, "2");
    assert_eq!(cold_out, out, "foreign store must never change the report");
    assert_eq!(
        metric(&err, "store.hit"),
        0,
        "nothing can hit in a foreign-format store:\n{err}"
    );
}
