//! # sim-serve
//!
//! The serving boundary of the simulation stack: a long-running sweep
//! daemon (`simserve`) and its client (`simctl`).
//!
//! Every layer beneath this crate is a library — `sim_exec`'s work pool,
//! the `techniques` runner with its reuse tiers, the `sim_store` artifact
//! cache, the `sim_obs` run ledger. This crate puts a wire in front of
//! them: experiment *jobs* (bench set × technique specs × config sweep at
//! a stream scale) arrive over a line-delimited JSON protocol on TCP
//! ([`proto`]), are admitted through a bounded priority queue with
//! cancellation ([`queue`]), execute on the shared `--jobs` worker budget
//! with capacity donated between concurrent jobs
//! ([`sim_exec::with_budget`]), dedupe against the persistent store
//! (store hits short-circuit the simulation but still report the full
//! modeled `Cost`), and stream results back as schema-v1 ledger records —
//! the exact JSONL `simreport` already consumes ([`server`]).
//!
//! Per-job isolation: each job's driver installs a
//! [`sim_obs::ledger::JobSink`], which the pool propagates to its
//! workers, so concurrent jobs never see each other's records and the
//! daemon never resets process-global observability state mid-flight.
//!
//! [`signal`] provides the dependency-free SIGINT/SIGTERM hook behind
//! graceful shutdown (`simserve` drains in-flight jobs, then flushes the
//! store and every ledger) and the flush-on-ctrl-c guard the long fig
//! harnesses install. Nothing in the daemon sleeps to poll: accept,
//! shutdown and drain each wake on the event they wait for.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;
pub mod signal;

pub use client::Client;
pub use proto::JobDesc;
pub use server::{Server, ServerConfig, ShutdownHandle};
