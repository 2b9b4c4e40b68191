//! Payload codecs binding the reuse tiers to the persistent artifact store.
//!
//! The in-memory tiers ([`crate::cache`], [`crate::checkpoint`]) die with
//! the process. When a `sim_store::Store` is configured (`--store DIR` /
//! `SIM_STORE`), they read through to it on a miss and write behind on a
//! fresh computation, so a second process starts warm. This module owns the
//! translation: canonical key bytes (stable across processes — no
//! `DefaultHasher`) and versioned payload encodings built on the
//! [`sim_core::state`] codec. Two namespaces are written and read:
//! [`NS_RUN`] (run results) and [`NS_ARCH`] (architectural interpreter
//! snapshots). Stores filled by older builds may also hold `warm/v1`,
//! `warm/v2` and `prefix/v1` records (retired machine-checkpoint and
//! prefix-trace tiers); nothing looks them up, and `simstore gc` keeps or
//! drops them like any other record.
//!
//! **Nothing from the store is trusted.** Every payload embeds the
//! program/config fingerprints it was computed under; decoding validates
//! them against what the caller is about to use and reports a mismatch as a
//! miss — a stale or foreign artifact can make a run slower, never wrong.
//! A store hit still charges the full modeled [`crate::cost::Cost`] of the
//! work the artifact represents; persistence saves wall-clock, not work
//! units.

use crate::cache::RunKey;
use crate::cost::Cost;
use crate::metrics::Metrics;
use crate::runner::RunResult;
use crate::spec::{SimPointWarmup, TechniqueSpec};
use sim_core::state::{ByteReader, ByteWriter, StateError};
use workloads::{InputSet, InterpState};

/// Namespace of run-result payloads.
pub const NS_RUN: &str = "run/v1";
/// Namespace of architectural interpreter snapshots.
pub const NS_ARCH: &str = "arch/v1";

fn input_set_tag(i: InputSet) -> u8 {
    match i {
        InputSet::Small => 0,
        InputSet::Medium => 1,
        InputSet::Large => 2,
        InputSet::Test => 3,
        InputSet::Train => 4,
        InputSet::Reference => 5,
    }
}

/// Canonical byte encoding of a technique spec: variant tag plus every
/// parameter, fixed-width. Unlike [`TechniqueSpec::label`] this is
/// injective, so distinct permutations can never share a store key.
fn put_spec(w: &mut ByteWriter, spec: &TechniqueSpec) {
    match spec {
        TechniqueSpec::Reference => w.put_u8(0),
        TechniqueSpec::Reduced(i) => {
            w.put_u8(1);
            w.put_u8(input_set_tag(*i));
        }
        TechniqueSpec::RunZ { z } => {
            w.put_u8(2);
            w.put_u64(*z);
        }
        TechniqueSpec::FfRun { x, z } => {
            w.put_u8(3);
            w.put_u64(*x);
            w.put_u64(*z);
        }
        TechniqueSpec::FfWuRun { x, y, z } => {
            w.put_u8(4);
            w.put_u64(*x);
            w.put_u64(*y);
            w.put_u64(*z);
        }
        TechniqueSpec::RandomSample { n, u, w: wu, seed } => {
            w.put_u8(5);
            w.put_usize(*n);
            w.put_u64(*u);
            w.put_u64(*wu);
            w.put_u64(*seed);
        }
        TechniqueSpec::SimPoint {
            interval,
            max_k,
            warmup,
        } => {
            w.put_u8(6);
            w.put_u64(*interval);
            w.put_usize(*max_k);
            match warmup {
                SimPointWarmup::None => w.put_u8(0),
                SimPointWarmup::Functional(n) => {
                    w.put_u8(1);
                    w.put_u64(*n);
                }
            }
        }
        TechniqueSpec::Smarts { u, w: wu } => {
            w.put_u8(7);
            w.put_u64(*u);
            w.put_u64(*wu);
        }
    }
}

/// Canonical key bytes for a run result.
pub fn run_key_bytes(key: &RunKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(key.bench);
    w.put_u64(key.scale_bits);
    w.put_u64(key.cfg_fingerprint);
    put_spec(&mut w, &key.spec);
    w.into_bytes()
}

/// Canonical key bytes for an architectural snapshot at `pos`.
pub fn arch_key_bytes(prog_fp: u64, pos: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(prog_fp);
    w.put_u64(pos);
    w.into_bytes()
}

/// Encode a run result for storage under `key`. The envelope repeats the
/// key's identifying fields so a decode under the wrong key is rejected.
pub fn encode_run(key: &RunKey, r: &RunResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(key.bench);
    w.put_u64(key.scale_bits);
    w.put_u64(key.cfg_fingerprint);
    w.put_f64(r.metrics.cpi);
    w.put_f64(r.metrics.ipc);
    w.put_f64(r.metrics.branch_accuracy);
    w.put_f64(r.metrics.l1d_hit_rate);
    w.put_f64(r.metrics.l2_hit_rate);
    w.put_u64(r.metrics.measured_insts);
    w.put_u64(r.metrics.cycles);
    w.put_u64(r.cost.detailed);
    w.put_u64(r.cost.warmed);
    w.put_u64(r.cost.skipped);
    w.put_u64(r.cost.profiled);
    w.put_u32(r.cost.extra_runs);
    w.into_bytes()
}

/// Decode a run result stored under `key`, validating the envelope.
pub fn decode_run(key: &RunKey, bytes: &[u8]) -> Result<RunResult, StateError> {
    let mut r = ByteReader::new(bytes);
    let bench = r.get_str()?;
    let scale_bits = r.get_u64()?;
    let cfg_fp = r.get_u64()?;
    if bench != key.bench || scale_bits != key.scale_bits || cfg_fp != key.cfg_fingerprint {
        return Err(StateError::Invalid("run envelope mismatch"));
    }
    let metrics = Metrics {
        cpi: r.get_f64()?,
        ipc: r.get_f64()?,
        branch_accuracy: r.get_f64()?,
        l1d_hit_rate: r.get_f64()?,
        l2_hit_rate: r.get_f64()?,
        measured_insts: r.get_u64()?,
        cycles: r.get_u64()?,
    };
    let cost = Cost {
        detailed: r.get_u64()?,
        warmed: r.get_u64()?,
        skipped: r.get_u64()?,
        profiled: r.get_u64()?,
        extra_runs: r.get_u32()?,
    };
    r.finish()?;
    Ok(RunResult { metrics, cost })
}

/// Encode an architectural snapshot (the [`InterpState`] payload already
/// embeds its program fingerprint).
pub fn encode_arch(state: &InterpState) -> Vec<u8> {
    state.to_bytes()
}

/// Decode an architectural snapshot, requiring it to belong to `prog_fp`
/// and sit exactly at stream position `pos`.
pub fn decode_arch(prog_fp: u64, pos: u64, bytes: &[u8]) -> Result<InterpState, StateError> {
    let state = InterpState::from_bytes(bytes)?;
    if state.program_fingerprint() != prog_fp {
        return Err(StateError::Invalid("snapshot belongs to another program"));
    }
    if state.emitted() != pos {
        return Err(StateError::Invalid("snapshot at the wrong position"));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::InstStream;
    use sim_store::Key;

    fn sample_result() -> RunResult {
        RunResult {
            metrics: Metrics {
                cpi: 1.75,
                ipc: 1.0 / 1.75,
                branch_accuracy: 0.93,
                l1d_hit_rate: 0.97,
                l2_hit_rate: 0.61,
                measured_insts: 123_456,
                cycles: 216_048,
            },
            cost: Cost {
                detailed: 123_456,
                warmed: 50_000,
                skipped: 1_000_000,
                profiled: 0,
                extra_runs: 2,
            },
        }
    }

    #[test]
    fn run_payload_roundtrips_and_validates_envelope() {
        let key = RunKey::new("gzip", 0.25, 42, TechniqueSpec::FfRun { x: 1000, z: 500 });
        let result = sample_result();
        let bytes = encode_run(&key, &result);
        let back = decode_run(&key, &bytes).unwrap();
        assert_eq!(back.metrics, result.metrics);
        assert_eq!(back.cost, result.cost);

        // Any envelope mismatch is rejected: wrong config, bench, or scale.
        let other_cfg = RunKey::new("gzip", 0.25, 43, key.spec.clone());
        assert!(decode_run(&other_cfg, &bytes).is_err());
        let other_bench = RunKey::new("mcf", 0.25, 42, key.spec.clone());
        assert!(decode_run(&other_bench, &bytes).is_err());
        assert!(decode_run(&key, &bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn spec_key_bytes_are_injective_across_permutations() {
        use std::collections::HashSet;
        let specs = [
            TechniqueSpec::Reference,
            TechniqueSpec::Reduced(InputSet::Small),
            TechniqueSpec::Reduced(InputSet::Train),
            TechniqueSpec::RunZ { z: 1000 },
            TechniqueSpec::FfRun { x: 1000, z: 0 },
            TechniqueSpec::FfWuRun {
                x: 0,
                y: 1000,
                z: 0,
            },
            TechniqueSpec::RandomSample {
                n: 4,
                u: 100,
                w: 10,
                seed: 7,
            },
            TechniqueSpec::SimPoint {
                interval: 1000,
                max_k: 10,
                warmup: SimPointWarmup::None,
            },
            TechniqueSpec::SimPoint {
                interval: 1000,
                max_k: 10,
                warmup: SimPointWarmup::Functional(0),
            },
            TechniqueSpec::Smarts { u: 100, w: 200 },
        ];
        let keys: HashSet<Key> = specs
            .iter()
            .map(|s| Key::of(&run_key_bytes(&RunKey::new("gzip", 1.0, 1, s.clone()))))
            .collect();
        assert_eq!(keys.len(), specs.len(), "no two permutations share a key");
    }

    #[test]
    fn arch_payload_validates_program_and_position() {
        let p = workloads::benchmark("gzip")
            .unwrap()
            .program(InputSet::Small)
            .unwrap();
        let mut it = workloads::Interp::new(&p);
        it.skip_n(5_000);
        let state = it.snapshot();
        let fp = p.fingerprint();
        let bytes = encode_arch(&state);
        assert_eq!(decode_arch(fp, 5_000, &bytes).unwrap(), state);
        assert!(decode_arch(fp + 1, 5_000, &bytes).is_err(), "wrong program");
        assert!(decode_arch(fp, 4_999, &bytes).is_err(), "wrong position");
    }
}
